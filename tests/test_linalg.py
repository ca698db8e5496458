"""Eigensolver and PageRank tests against dense oracles."""
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

import pgtr.linalg
from pgtr.data import InteractionDataset, SplitSpec, build_graph, split_by_ratio
from pgtr.encodings import _group_ids, group_by_rank
from pgtr.linalg import (
    DENSE_CUTOFF,
    ConvergenceError,
    GramOperator,
    laplacian_null_basis,
    normalized_laplacian,
    pagerank,
    symmetric_eigs_smallest,
    symmetric_normalized,
)
from pgtr.synthetic import clustered_interactions
from test_encodings import awkward_interactions


def laplacian(adj):
    """`normalized_laplacian` of `adj`, normalizing it here."""
    return normalized_laplacian(adj, symmetric_normalized(adj))


def pagerank_of(adj):
    """`pagerank` of `adj`, normalizing it here."""
    return pagerank(adj, symmetric_normalized(adj))


def random_bipartite(rng, n_users, n_items, density=0.15):
    users, items = [], []
    for u in range(n_users):
        deg = max(1, rng.binomial(n_items, density))
        for i in rng.choice(n_items, size=deg, replace=False):
            users.append(u)
            items.append(int(i))
    ds = InteractionDataset(n_users, n_items, np.array(users), np.array(items))
    return build_graph(ds)


def dense_smallest(mat, k):
    vals, vecs = np.linalg.eigh(np.asarray(mat.todense()))
    return vals[:k], vecs[:, :k]


def small_random_graphs():
    rng = np.random.default_rng(42)
    return [random_bipartite(rng, rng.integers(8, 30), rng.integers(8, 30))
            for _ in range(10)]


def large_clustered_graphs():
    # 700 nodes, with isolated items among them
    return [build_graph(clustered_interactions(300, 400, per_user=8, seed=s))
            for s in range(3)]


def repeated_k22_graph(copies=130, isolated_items=40):
    """Disjoint identical K_{2,2} blocks plus isolated items: 560 nodes by
    default, with eigenvalue 1 of multiplicity 2 * copies."""
    users = np.repeat(np.arange(2 * copies), 2)
    items = 2 * (users // 2) + np.tile([0, 1], 2 * copies)
    return build_graph(InteractionDataset(2 * copies, 2 * copies + isolated_items,
                                          users, items))


def repeated_paths_graph(copies=100):
    """Identical 4-node paths (eigenvalue 0.5 of multiplicity `copies`) beside
    a clustered block with many distinct eigenvalues: 550 nodes by default."""
    b = np.arange(copies)
    block = clustered_interactions(60, 90, per_user=8, seed=0)
    users = np.concatenate([2 * b, 2 * b + 1, 2 * b + 1, block.users + 2 * copies])
    items = np.concatenate([2 * b, 2 * b, 2 * b + 1, block.items + 2 * copies])
    return build_graph(InteractionDataset(2 * copies + block.n_users,
                                          2 * copies + block.n_items, users, items))


def per_call_shifted_largest(a, sigma, k, bases, seed, tol=0.0):
    """`linalg._shifted_largest` with the bases read as passed on every
    projection: each sparse one projected out in turn with its transpose
    taken again, then every dense one stacked again into one array.  The
    oracle for the bases held once per solve."""
    def project(x):
        for b in bases:
            if sp.issparse(b):
                x = x - b @ (b.T @ x)
        dense = [b for b in bases if b is not None and not sp.issparse(b)]
        if dense:
            q = np.hstack(dense)
            x = x - q @ (q.T @ x)
        return x

    def matvec(x):
        if isinstance(a, GramOperator):
            return project((sigma - a.diag) * x + a.r @ (a.rt @ x))
        return project(sigma * x - a @ x)

    v0 = project(np.random.default_rng(seed).standard_normal(a.shape[0]))
    theta, vecs = eigsh(LinearOperator(a.shape, matvec=matvec, dtype=np.float64),
                        k, which="LA", v0=v0, tol=tol)
    return sigma - theta[::-1], vecs[:, ::-1]


def product_normalized(adj):
    """D^{-1/2} A D^{-1/2} as two sparse-diagonal products: the oracle for
    `symmetric_normalized`."""
    deg = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(deg)
    dinv[~np.isfinite(dinv)] = 0.0
    dhalf = sp.diags(dinv)
    return (dhalf @ adj @ dhalf).tocsr()


class TestEigensolver:
    def test_single_edge_laplacian(self):
        m = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        vals, vecs = symmetric_eigs_smallest(m, 2)
        np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(vecs[:, 1], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_k22_normalized_laplacian_spectrum(self):
        g = build_graph(InteractionDataset(2, 2, np.array([0, 0, 1, 1]),
                                           np.array([0, 1, 0, 1])))
        lap = laplacian(g.full_adjacency())
        vals, _ = symmetric_eigs_smallest(lap, 4)
        np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 2.0], atol=1e-10)

    def test_smallest_eigenvalue_of_any_laplacian_is_zero(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            g = random_bipartite(rng, 12, 15)
            lap = laplacian(g.full_adjacency())
            vals, _ = symmetric_eigs_smallest(lap, 1)
            assert abs(vals[0]) <= 1e-10

    @pytest.mark.parametrize("graphs", [small_random_graphs, large_clustered_graphs],
                             ids=["below-cutoff", "above-cutoff"])
    def test_matches_dense_oracle_on_random_graphs(self, graphs):
        rng = np.random.default_rng(7)
        for g in graphs():
            adj = g.full_adjacency()
            lap = laplacian(adj)
            null = laplacian_null_basis(adj)
            k = int(rng.integers(2, 8))
            for deflate, skip in ((None, 0), (null, null.shape[1]),
                                  (null.toarray(), null.shape[1])):
                vals, vecs = symmetric_eigs_smallest(lap, k, deflate=deflate)
                ref_vals, _ = dense_smallest(lap, skip + k)
                np.testing.assert_allclose(vals, ref_vals[skip:], atol=1e-8)
                # residuals and orthonormality
                resid = lap @ vecs - vecs * vals[None, :]
                assert np.linalg.norm(resid, axis=0).max() <= 1e-10 * max(1.0, abs(lap).sum(axis=0).max())
                gram = vecs.T @ vecs
                assert np.abs(gram - np.eye(k)).max() <= 1e-8

    @pytest.mark.parametrize("k", [50, 200])
    @pytest.mark.parametrize("graph", [repeated_k22_graph, repeated_paths_graph],
                             ids=["k22-blocks", "path-blocks"])
    def test_handles_multiplicities(self, graph, k):
        # one Krylov space holds a single vector of a repeated eigenvalue
        g = graph()
        adj = g.full_adjacency()
        assert adj.shape[0] > DENSE_CUTOFF
        lap = laplacian(adj)
        null = laplacian_null_basis(adj)
        vals, vecs = symmetric_eigs_smallest(lap, k, deflate=null)
        ref_vals, _ = dense_smallest(lap, null.shape[1] + k)
        np.testing.assert_allclose(vals, ref_vals[null.shape[1]:], atol=1e-10)
        assert np.abs(null.T @ vecs).max() <= 1e-10

    @pytest.mark.parametrize("k", [50, 200])
    def test_probe_is_load_bearing(self, monkeypatch, k):
        """With the completeness probe's verdict forced to pass, the path
        blocks' eigenvalues leave the dense oracle: the probe, not ARPACK
        alone, keeps `test_handles_multiplicities` passing."""
        real = pgtr.linalg._shifted_largest

        def no_probe(a, sigma, k, bases, seed, tol=0.0):
            if k == 1:
                return np.array([np.inf]), None
            return real(a, sigma, k, bases, seed, tol)

        monkeypatch.setattr(pgtr.linalg, "_shifted_largest", no_probe)
        adj = repeated_paths_graph().full_adjacency()
        lap = laplacian(adj)
        null = laplacian_null_basis(adj)
        vals, _ = symmetric_eigs_smallest(lap, k, deflate=null)
        ref_vals, _ = dense_smallest(lap, null.shape[1] + k)
        assert np.abs(vals - ref_vals[null.shape[1]:]).max() > 1e-10

    def test_eigenvalues_ascending_and_signs_fixed(self):
        rng = np.random.default_rng(3)
        g = random_bipartite(rng, 20, 25)
        lap = laplacian(g.full_adjacency())
        vals, vecs = symmetric_eigs_smallest(lap, 6)
        assert np.all(np.diff(vals) >= -1e-12)
        for j in range(vecs.shape[1]):
            lead = np.argmax(np.abs(vecs[:, j]))
            assert vecs[lead, j] > 0

    def test_tied_leaders_pick_the_sign_not_the_rounding(self):
        """Two leading entries of equal magnitude and opposite sign, the
        later one moved 1e-16 either way: each column comes out with the
        same signs, its first leader positive, and v and -v agree."""
        eye = sp.identity(3, format="csr")  # every vector is an eigenvector
        signs = []
        for delta in (-1e-16, 0.0, 1e-16):
            vecs = np.array([[0.1, -0.5], [-0.5, 0.5 + delta], [0.5 + delta, 0.1]])
            out = pgtr.linalg.certified_eigenvectors(eye, np.ones(2), vecs)
            assert out[1, 0] > 0 and out[0, 1] > 0
            np.testing.assert_array_equal(
                pgtr.linalg.certified_eigenvectors(eye, np.ones(2), -vecs), out)
            signs.append(np.sign(out))
        for other in signs[1:]:
            np.testing.assert_array_equal(other, signs[0])

    def test_deterministic(self):
        g = build_graph(clustered_interactions(300, 400, per_user=8, seed=5))
        adj = g.full_adjacency()
        assert adj.shape[0] > DENSE_CUTOFF
        lap, null = laplacian(adj), laplacian_null_basis(adj)
        a = symmetric_eigs_smallest(lap, 20, deflate=null)
        b = symmetric_eigs_smallest(lap, 20, deflate=null)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_asymmetric_rejected(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigs_smallest(m, 1)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        rng = np.random.default_rng(8)
        g = random_bipartite(rng, 40, 40)
        lap = laplacian(g.full_adjacency())
        monkeypatch.setattr(pgtr.linalg, "RESIDUAL_TOL", 1e-30)
        with pytest.raises(ConvergenceError) as exc:
            symmetric_eigs_smallest(lap, 20)
        assert exc.value.residual > 0

    def test_arpack_failure_reports_partial_residual(self, monkeypatch):
        g = build_graph(clustered_interactions(300, 400, per_user=8, seed=2))
        adj = g.full_adjacency()
        real_eigsh = pgtr.linalg.eigsh
        expected = []

        def failing_eigsh(op, k, **kwargs):
            theta, vecs = real_eigsh(op, k, **kwargs)
            # spoil the first pair so the partial result has a known residual
            vecs[:, 0] = (vecs[:, 0] + 0.1 * vecs[:, 1]) / np.sqrt(1.01)
            expected.append(max(np.linalg.norm(op.matvec(vecs[:, j]) - theta[j] * vecs[:, j])
                                for j in range(k)))
            raise ArpackNoConvergence("no convergence", theta, vecs)

        monkeypatch.setattr(pgtr.linalg, "eigsh", failing_eigsh)
        with pytest.raises(ConvergenceError, match="ARPACK") as exc:
            symmetric_eigs_smallest(laplacian(adj), 5,
                                    deflate=laplacian_null_basis(adj))
        assert exc.value.residual == pytest.approx(expected[0], rel=1e-6)
        assert exc.value.residual > 1e-3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            symmetric_eigs_smallest(sp.csr_matrix((3, 4)), 1)

    @pytest.mark.parametrize("n", [5, DENSE_CUTOFF + 100], ids=["dense", "arpack"])
    def test_zero_matrix_has_certified_zero_eigenvalues(self, n):
        """An all-zero matrix (one norm 0) gives k zero eigenvalues with
        orthonormal eigenvectors, certified at residual 0."""
        vals, vecs = symmetric_eigs_smallest(sp.csr_matrix((n, n)), 3)
        assert vals.tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    def test_k_out_of_range(self):
        m = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            symmetric_eigs_smallest(m, 4)
        with pytest.raises(ValueError):
            symmetric_eigs_smallest(m, 3, deflate=np.eye(3)[:, :1])


def assert_matches_per_call(monkeypatch, mat, k, deflate):
    """`symmetric_eigs_smallest` equals itself with `_shifted_largest`
    replaced by the per-call oracle, and each of its ARPACK solves, the
    probe's included, equals the oracle's bit for bit."""
    real, calls = pgtr.linalg._shifted_largest, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(pgtr.linalg, "_shifted_largest", spy)
        got = symmetric_eigs_smallest(mat, k, deflate=deflate)
    with monkeypatch.context() as m:
        m.setattr(pgtr.linalg, "_shifted_largest", per_call_shifted_largest)
        want = symmetric_eigs_smallest(mat, k, deflate=deflate)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert len(calls) == 2
    for args, kwargs in calls:
        for held, per_call in zip(real(*args, **kwargs),
                                  per_call_shifted_largest(*args, **kwargs)):
            np.testing.assert_array_equal(held, per_call)


class TestStoredBases:
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("graphs, k", [
        (large_clustered_graphs, 20), (lambda: [repeated_paths_graph()], 50)],
        ids=["clustered", "path-blocks"])
    def test_matches_the_per_call_operator_bit_for_bit(self, monkeypatch, graphs, k, dense):
        for g in graphs():
            adj = g.full_adjacency()
            assert adj.shape[0] > DENSE_CUTOFF
            lap, null = laplacian(adj), laplacian_null_basis(adj)
            assert_matches_per_call(monkeypatch, lap, k, null.toarray() if dense else null)

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_gram_matches_the_per_call_operator_bit_for_bit(self, monkeypatch, dense):
        """The folded shift (sigma - d) y + R (R^T y) on a 600-user side."""
        g, side, k = above_cutoff_sides()[0]
        r, _, basis = side_gram(g, side)
        assert r.shape[0] > DENSE_CUTOFF
        assert_matches_per_call(monkeypatch, GramOperator(r), k,
                                basis if dense else sp.csr_matrix(basis))

    @pytest.mark.parametrize("k", [50, 200])
    def test_densifies_no_basis_wider_than_the_krylov_basis(self, monkeypatch, k):
        """The 300-column null basis of 260 K_{2,2} blocks and 40 isolated
        items reaches ARPACK sparse at k = 50 (ncv 101) and dense at k = 200
        (ncv 401); the eigenvalues match the dense oracle either way."""
        adj = repeated_k22_graph(copies=260).full_adjacency()
        lap, null = laplacian(adj), laplacian_null_basis(adj)
        assert null.shape[1] == 300 and adj.shape[0] > DENSE_CUTOFF
        passed = []
        real = pgtr.linalg._shifted_largest

        def spy(a, sigma, k, bases, seed, tol=0.0):
            passed.append(bases[0])
            return real(a, sigma, k, bases, seed, tol)

        monkeypatch.setattr(pgtr.linalg, "_shifted_largest", spy)
        vals, _ = symmetric_eigs_smallest(lap, k, deflate=null)
        assert passed, "ARPACK was not reached"
        for deflate in passed:
            assert deflate.shape == null.shape
            assert sp.issparse(deflate) == (null.shape[1] > max(2 * k + 1, 20))
        ref_vals, _ = dense_smallest(lap, null.shape[1] + k)
        np.testing.assert_allclose(vals, ref_vals[null.shape[1]:], atol=1e-10)

    def test_basis_layout_does_not_change_the_eigenpairs(self):
        rng = np.random.default_rng(5)
        adj = large_clustered_graphs()[0].full_adjacency()
        lap, null = laplacian(adj), laplacian_null_basis(adj)
        coo = null.tocoo()
        perm = rng.permutation(coo.nnz)
        shuffled = sp.coo_matrix((coo.data[perm], (coo.row[perm], coo.col[perm])),
                                 shape=coo.shape)
        # a rotated basis of the same null space, so each row is dense
        rotated = null @ np.linalg.qr(rng.standard_normal((null.shape[1],) * 2))[0]
        wide = np.zeros((rotated.shape[0], 2 * rotated.shape[1]))
        wide[:, 1::2] = rotated
        for layouts in ((null, null.tocsc(), shuffled),
                        (rotated, np.asfortranarray(rotated), wide[:, 1::2])):
            want = symmetric_eigs_smallest(lap, 20, deflate=layouts[0])
            for deflate in layouts[1:]:
                got = symmetric_eigs_smallest(lap, 20, deflate=deflate)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])


def side_gram(g, side):
    """The normalized biadjacency R with one row per node of `side`, its
    assembled matrix diag(d > 0) - R R^T, and the side's rows of the whole
    graph's Laplacian null basis, renormalized, empty columns dropped."""
    adj = g.full_adjacency()
    n, total = g.n_users, adj.shape[0]
    rows, cols = ((slice(0, n), slice(n, total)) if side == "user"
                  else (slice(n, total), slice(0, n)))
    r = -laplacian(adj)[rows, cols]
    degree = np.asarray(adj[rows].sum(axis=1)).ravel()
    assembled = (sp.diags((degree > 0).astype(float)) - r @ r.T).tocsr()
    basis = laplacian_null_basis(adj)[rows].toarray()
    norms = np.linalg.norm(basis, axis=0)
    return r, assembled, basis[:, norms > 0] / norms[norms > 0]


def oracle_span(mat, deflate, top):
    """Orthonormal basis of the dense eigenvectors of `mat` outside
    span(deflate) with eigenvalue up to `top`: the k smallest when the k-th
    eigenvalue stands apart, and more when a repeated one is cut at k."""
    vals, vecs = np.linalg.eigh(mat.toarray())
    vecs = vecs[:, vals <= top + 1e-8]
    vecs = vecs - deflate @ (deflate.T @ vecs)
    return np.linalg.svd(vecs, full_matrices=False)[0][:, :vecs.shape[1] - deflate.shape[1]]


def below_cutoff_sides():
    return [(g, side, k) for g, side, k in zip(small_random_graphs(), ("user", "item") * 2,
                                               (3, 5, 8, 2))]


def above_cutoff_sides():
    """Sides of more than DENSE_CUTOFF nodes: a clustered graph's, the
    repeated K_{2,2} blocks' (eigenvalue 1 on the whole complement, beside
    isolated items on the item side) and the repeated paths' (eigenvalue
    0.75 of multiplicity 300 among distinct ones)."""
    clustered = build_graph(clustered_interactions(600, 800, per_user=8, seed=0))
    k22 = repeated_k22_graph(copies=260)
    return [(clustered, "user", 50), (clustered, "item", 20), (k22, "user", 50),
            (k22, "item", 20), (repeated_paths_graph(copies=300), "user", 50)]


class TestGramOperator:
    """The product form x -> (d > 0) x - R (R^T x) against its assembled
    sparse matrix."""

    @pytest.mark.parametrize("sides, above", [(below_cutoff_sides, False),
                                              (above_cutoff_sides, True)],
                             ids=["below-cutoff", "above-cutoff"])
    def test_matches_the_assembled_matrix(self, sides, above):
        x = np.random.default_rng(0).standard_normal((1000, 3))
        apart = 0
        for g, side, k in sides():
            r, assembled, basis = side_gram(g, side)
            op = GramOperator(r)
            n = op.shape[0]
            assert op.shape == assembled.shape and (n > DENSE_CUTOFF) == above
            np.testing.assert_allclose(op.toarray(), assembled.toarray(), atol=1e-15)
            np.testing.assert_allclose(op @ x[:n], assembled @ x[:n], atol=1e-13)
            np.testing.assert_allclose(op @ x[:n, 0], assembled @ x[:n, 0], atol=1e-13)
            got_vals, got = symmetric_eigs_smallest(op, k, deflate=basis)
            want_vals, want = symmetric_eigs_smallest(assembled, k, deflate=basis)
            np.testing.assert_allclose(got_vals, want_vals, atol=1e-10)
            span = oracle_span(assembled, basis, want_vals[-1])
            for vecs in (got, want):
                assert np.linalg.norm(vecs - span @ (span.T @ vecs), axis=0).max() <= 1e-10
            if span.shape[1] == k:  # the k-th eigenvalue stands apart
                sv = np.linalg.svd(want.T @ got, compute_uv=False)
                assert np.abs(sv - 1.0).max() <= 1e-10
                apart += 1
        assert apart >= 2

    def test_repeated_sides_reach_the_multiplicity_checks(self, monkeypatch):
        """The K_{2,2} sides' ARPACK pairs pass the completeness probe; the
        path side's repeated eigenvalue sends it to the dense fallback."""
        verdicts = []
        real = pgtr.linalg._arpack_smallest

        def spy(*args, **kwargs):
            found = real(*args, **kwargs)
            verdicts.append(found is not None)
            return found

        monkeypatch.setattr(pgtr.linalg, "_arpack_smallest", spy)
        for g, side, k in above_cutoff_sides()[2:]:
            r, _, basis = side_gram(g, side)
            symmetric_eigs_smallest(GramOperator(r), k, deflate=basis)
        assert verdicts == [True, True, False]

    def test_one_norm_is_exact(self):
        for g, side, _ in below_cutoff_sides() + above_cutoff_sides():
            r, assembled, _ = side_gram(g, side)
            assert GramOperator(r).one_norm() == pytest.approx(
                pgtr.linalg._one_norm(assembled), rel=1e-14)

    def test_lifted_setup_computes_the_norm_once(self, monkeypatch):
        """The lifted spectral encoding reads its side operator's 1-norm
        three times (the solve, its residual certificate and the lift's gap
        check), and R's elementwise square, which only the norm takes, is
        formed once.  The kept norm is the bits of a fresh computation."""
        enc = sys.modules["pgtr.encodings"]
        ops, reads, squares = [], [], []
        real_solve, real_norm = enc.symmetric_eigs_smallest, GramOperator.one_norm
        real_multiply = sp.csr_matrix.multiply

        def solve(mat, *args, **kwargs):
            ops.append(mat)
            return real_solve(mat, *args, **kwargs)

        def one_norm(self):
            reads.append(self)
            return real_norm(self)

        def multiply(self, other):
            if other is self:
                squares.append(self)
            return real_multiply(self, other)

        monkeypatch.setattr(enc, "symmetric_eigs_smallest", solve)
        monkeypatch.setattr(GramOperator, "one_norm", one_norm)
        monkeypatch.setattr(sp.csr_matrix, "multiply", multiply)
        g = random_bipartite(np.random.default_rng(3), 40, 90)
        enc.spectral_encoding(g, 4)
        assert len(ops) == 1 and isinstance(ops[0], GramOperator)
        op = ops[0]
        assert len(reads) == 3 and all(read is op for read in reads)
        assert sum(square is op.r for square in squares) == 1
        gram_diag = np.asarray(op.r.multiply(op.r).sum(axis=1)).ravel()
        col = op.r @ (op.rt @ np.ones(op.shape[0]))
        assert op.one_norm() == float((col - gram_diag + np.abs(op.diag - gram_diag)).max())


def noncanonical_forms(adj, rng):
    """`adj` with integer weights 1-4, as the canonical CSR, a shuffled
    COO, a COO with explicit zeros added, a CSR with each row's indices
    shuffled, and a shuffled CSR with about half its entries split into two
    equal duplicates.  Halving is exact, so every form sums each row and
    entry to the same bits."""
    coo = adj.tocoo()
    weights = rng.integers(1, 5, size=coo.nnz).astype(np.float64)
    n = adj.shape[0]

    def shuffled_csr(rows, cols, data):
        order = np.lexsort((rng.random(len(rows)), rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return sp.csr_matrix((data[order], cols[order], indptr), shape=adj.shape)

    perm = rng.permutation(coo.nnz)
    split = rng.random(coo.nnz) < 0.5
    halves = np.where(split, weights / 2, weights)
    zeros = rng.integers(0, n, size=(2, 5))
    return [sp.csr_matrix((weights, (coo.row, coo.col)), shape=adj.shape),
            sp.coo_matrix((weights[perm], (coo.row[perm], coo.col[perm])), shape=adj.shape),
            sp.coo_matrix((np.concatenate([weights, np.zeros(5)]),
                           (np.concatenate([coo.row, zeros[0]]),
                            np.concatenate([coo.col, zeros[1]]))), shape=adj.shape),
            shuffled_csr(coo.row, coo.col, weights),
            shuffled_csr(np.concatenate([coo.row, coo.row[split]]),
                         np.concatenate([coo.col, coo.col[split]]),
                         np.concatenate([halves, weights[split] / 2]))]


class TestSymmetricNormalized:
    @given(ds=awkward_interactions(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_product_form_bit_for_bit(self, ds, seed):
        """Canonical CSR out, with the two-product form's bits, from every
        input form; the product keeps an unsorted input's order, so its
        indices are sorted before the comparison."""
        adj = build_graph(ds).full_adjacency()
        for form in noncanonical_forms(adj, np.random.default_rng(seed)):
            data = form.data.copy()
            got, want = symmetric_normalized(form), product_normalized(form)
            np.testing.assert_array_equal(form.data, data)  # the input is left as it was
            want.sort_indices()
            assert got.format == "csr" and got.has_canonical_format
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)


class TestNormalizedLaplacian:
    def test_zero_rows_for_isolated_nodes(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        lap = laplacian(a).toarray()
        np.testing.assert_array_equal(lap[2], np.zeros(3))
        np.testing.assert_allclose(lap[:2, :2], [[1.0, -1.0], [-1.0, 1.0]])

    def test_zero_eigenvalue_multiplicity_counts_components(self):
        # two disjoint edges: two components, two zero eigenvalues
        a = sp.csr_matrix((np.ones(4), ([0, 1, 2, 3], [1, 0, 3, 2])), shape=(4, 4))
        vals, _ = symmetric_eigs_smallest(laplacian(a), 4)
        assert int(np.sum(vals < 1e-8)) == 2


class TestLaplacianNullBasis:
    def test_one_column_per_component_and_isolated_node(self):
        # edge 0-1, path 2-3-4, isolated node 5
        rows, cols = [0, 1, 2, 3, 3, 4], [1, 0, 3, 2, 4, 3]
        a = sp.csr_matrix((np.ones(6), (rows, cols)), shape=(6, 6))
        null = laplacian_null_basis(a).toarray()
        assert null.shape == (6, 3)
        np.testing.assert_allclose(null.T @ null, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(laplacian(a) @ null, 0.0, atol=1e-15)
        path = null[:, np.argmax(np.abs(null[2]))]
        np.testing.assert_allclose(path, np.sqrt([0, 0, 1, 2, 1, 0]) / 2.0)
        assert np.count_nonzero(null[5]) == 1 and np.abs(null[5]).max() == 1.0

    def test_spans_the_zero_eigenspace(self):
        g = repeated_k22_graph(copies=5, isolated_items=3)
        adj = g.full_adjacency()
        vals, vecs = np.linalg.eigh(laplacian(adj).toarray())
        zero = vecs[:, vals < 1e-8]
        null = laplacian_null_basis(adj).toarray()
        assert zero.shape[1] == null.shape[1] == 8
        np.testing.assert_allclose(zero @ zero.T, null @ null.T, atol=1e-12)


def dense_pagerank(adj, damping=0.85, iters=20000):
    """Dense power-iteration oracle."""
    a = np.asarray(adj.todense(), dtype=float)
    n = a.shape[0]
    deg = a.sum(axis=1)
    trans = np.zeros_like(a)
    nz = deg > 0
    trans[:, nz] = a[:, nz] / deg[nz]
    v = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = damping * (trans @ v + v[~nz].sum() / n) + (1 - damping) / n
        if np.abs(nxt - v).sum() < 1e-15:
            return nxt
        v = nxt
    return v


def power_pagerank(adj, damping=0.85, tol=1e-12, max_iter=1000):
    """Sparse power-iteration oracle: iterate the damped walk until a step
    changes the vector by less than `tol` in L1."""
    n = adj.shape[0]
    deg = np.asarray(adj.sum(axis=1)).ravel()
    dangling = deg == 0.0
    inv_deg = np.divide(1.0, deg, out=np.zeros(n), where=~dangling)
    trans = adj.multiply(inv_deg[None, :]).tocsr()
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = damping * (trans @ v) + damping * v[dangling].sum() / n + (1.0 - damping) / n
        if np.abs(nxt - v).sum() < tol:
            return nxt
        v = nxt
    raise AssertionError(f"power iteration did not converge in {max_iter} steps")


class TestPageRank:
    def test_single_edge_symmetry(self):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        np.testing.assert_allclose(pagerank_of(g.full_adjacency()), [0.5, 0.5], atol=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="^empty graph$"):
            pagerank_of(sp.csr_matrix((0, 0)))

    def test_regular_graph_uniform(self):
        g = build_graph(InteractionDataset(2, 2, np.array([0, 0, 1, 1]),
                                           np.array([0, 1, 0, 1])))
        np.testing.assert_allclose(pagerank_of(g.full_adjacency()), np.full(4, 0.25), atol=1e-12)

    def test_star_matches_dense_oracle(self):
        g = build_graph(InteractionDataset(4, 1, np.arange(4), np.zeros(4, dtype=int)))
        adj = g.full_adjacency()
        assert np.abs(pagerank_of(adj) - dense_pagerank(adj)).sum() <= 1e-10

    def test_random_graphs_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            adj = random_bipartite(rng, 20, 30).full_adjacency()
            assert np.abs(pagerank_of(adj) - dense_pagerank(adj)).sum() <= 1e-10

    def test_probability_vector(self):
        rng = np.random.default_rng(12)
        g = random_bipartite(rng, 25, 25)
        v = pagerank_of(g.full_adjacency())
        assert np.all(v >= 0)
        assert abs(v.sum() - 1.0) <= 1e-10

    def test_dangling_nodes_redistribute(self):
        # isolated third node still receives teleport + dangling mass
        a = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        got = pagerank_of(a)
        ref = dense_pagerank(a)
        assert np.abs(got - ref).sum() <= 1e-10
        assert got[2] > 0

    def test_nonconvergence_error(self, monkeypatch):
        g = build_graph(InteractionDataset(1, 1, np.array([0]), np.array([0])))
        monkeypatch.setattr(pgtr.linalg, "PAGERANK_MAX_ITER", 0)
        with pytest.raises(ConvergenceError):
            pagerank_of(g.full_adjacency())

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        adj = random_bipartite(rng, 15, 15).full_adjacency()
        np.testing.assert_array_equal(pagerank_of(adj), pagerank_of(adj))

    @given(ds=awkward_interactions())
    def test_awkward_graphs_match_dense_oracle(self, ds):
        """Isolated nodes, many components, one user, a user with every item."""
        adj = build_graph(ds).full_adjacency()
        assert np.abs(pagerank_of(adj) - dense_pagerank(adj)).sum() <= 1e-10

    @pytest.mark.parametrize("n_users, n_items, per_user", [(800, 1200, 30), (300, 490, 10)],
                             ids=["fit", "cold-start"])
    def test_groups_equal_the_power_iterations(self, n_users, n_items, per_user):
        """The benchmark's set-ups, seeds 0-9: each node's PageRank group is
        the one the power iteration's scores give."""
        for seed in range(10):
            ds = clustered_interactions(n_users, n_items, per_user=per_user, seed=seed)
            g = build_graph(split_by_ratio(ds, SplitSpec(0.8, seed=seed))[0])
            user_scores, item_scores = np.split(power_pagerank(g.full_adjacency()), [g.n_users])
            want = np.concatenate([group_by_rank(user_scores, 10),
                                   10 + group_by_rank(item_scores, 10)])
            np.testing.assert_array_equal(_group_ids(g, "pagerank", 10), want)
