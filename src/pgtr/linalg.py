"""Sparse symmetric eigensolver, PageRank, and graph Laplacian helpers."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, cg, eigsh

__all__ = [
    "ConvergenceError",
    "GramOperator",
    "RESIDUAL_TOL",
    "symmetric_normalized",
    "normalized_laplacian",
    "laplacian_null_basis",
    "symmetric_eigs_smallest",
    "certified_eigenvectors",
    "pagerank",
]

# Dense decomposition up to this dimension; ARPACK above.
DENSE_CUTOFF = 512
# An eigenpair is certified when its residual is within this fraction of ||M||_1.
RESIDUAL_TOL = 1e-10
# A column's sign is set by its first entry within this fraction of its largest magnitude.
SIGN_TIE_TOL = 1e-10
# A matrix is symmetric when no entry differs from its transpose's by more than this.
SYMMETRY_TOL = 1e-12
# PageRank's damping, its certificate's L1 step tolerance and its CG iteration cap.
PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-12
PAGERANK_MAX_ITER = 1000


class ConvergenceError(RuntimeError):
    """Solver did not reach its tolerance; carries the residual achieved."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


def symmetric_normalized(adj: sp.spmatrix) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2}; an isolated node (degree 0) gets an all-zero row.

    O(nnz): each entry a_ij of a canonical CSR copy of A (any format in,
    duplicates summed, indices sorted) becomes (a_ij d_i^{-1/2}) d_j^{-1/2},
    and entries that scale to 0 are dropped.  Those are the two-product
    form (D^{-1/2} A) D^{-1/2}'s operations, so canonical CSR and COO
    inputs give its indptr, indices and data bit for bit.  (The product
    keeps a CSR input's unsorted indices, and scales duplicates before it
    sums them.)
    """
    a = sp.csr_matrix(adj, copy=True)  # sum_duplicates sorts in place
    a.sum_duplicates()
    deg = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(deg)
    dinv[~np.isfinite(dinv)] = 0.0
    a.data *= np.repeat(dinv, np.diff(a.indptr))
    a.data *= dinv.take(a.indices)
    a.eliminate_zeros()
    return a


def normalized_laplacian(adj: sp.spmatrix, normalized: sp.spmatrix) -> sp.csr_matrix:
    """D^{-1/2} (D - A) D^{-1/2} with the zero-for-isolated-node convention,
    as diag(d > 0) - S for S = `normalized`, which must be
    `symmetric_normalized(adj)` (a graph holds it once:
    `BipartiteGraph.normalized_adjacency()`).

    Isolated nodes get an all-zero row, so the zero eigenvalue has
    multiplicity equal to the number of connected components (counting
    singletons).
    """
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (sp.diags((deg > 0).astype(np.float64)) - normalized).tocsr()


def laplacian_null_basis(adj: sp.spmatrix) -> sp.csr_matrix:
    """Orthonormal basis of the null space of the normalized Laplacian of
    `adj` (`normalized_laplacian`).

    One column per connected component C: D^{1/2} 1_C normalized, which
    for an isolated node (an all-zero Laplacian row) is its unit vector.
    Each node lies in one component, so each row holds one nonzero.
    """
    n_comp, labels = connected_components(adj, directed=False)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    weight = np.sqrt(np.where(deg > 0, deg, 1.0))
    norms = np.sqrt(np.bincount(labels, weights=weight ** 2, minlength=n_comp))
    n = adj.shape[0]
    return sp.csr_matrix((weight / norms[labels], (np.arange(n), labels)),
                         shape=(n, n_comp))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its leading entry is positive: the first entry
    whose magnitude is within SIGN_TIE_TOL relative of the column's
    largest.  Entries that tie in exact arithmetic thus pick the sign, not
    the rounding between them."""
    mags = np.abs(vecs)
    lead = np.argmax(mags >= (1.0 - SIGN_TIE_TOL) * mags.max(axis=0), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    return np.multiply(vecs, np.where(flip, -1.0, 1.0), order="C")


def _check_symmetric(a: sp.csr_matrix):
    diff = a - a.T
    worst = np.abs(diff.data).max() if diff.nnz else 0.0
    if worst > SYMMETRY_TOL:
        raise ValueError(f"matrix not symmetric (max asymmetry {worst:.3e})")


class GramOperator:
    """The symmetric matrix diag(r_i != 0) - R R^T of a nonnegative sparse
    R, in product form: x -> (r_i != 0) x - R (R^T x), with R R^T never
    assembled.  R and R^T are each stored once as CSR.

    For R the normalized biadjacency D_u^{-1/2} B D_i^{-1/2} of a
    bipartite graph, one row per node of a side, each singular value s of
    R is an eigenvalue 1 - s^2 here, and its null space is that side's
    part of `laplacian_null_basis` of the whole graph.

    A shift sigma I - M is diag(sigma - d) + R R^T, so the eigensolver's
    shifted operator folds the diagonal into the shift: y -> (sigma - d) y
    + R (R^T y), one product pair and one scaled sum per matvec.
    """

    def __init__(self, r):
        self.r = sp.csr_matrix(r)
        self.rt = self.r.T.tocsr()
        self.diag = (np.asarray(self.r.sum(axis=1)).ravel() > 0).astype(np.float64)
        self.shape = (self.r.shape[0],) * 2
        self._norm = None

    def __matmul__(self, x):
        diag = self.diag if x.ndim == 1 else self.diag[:, None]
        return diag * x - self.r @ (self.rt @ x)

    def toarray(self) -> np.ndarray:
        return np.diag(self.diag) - (self.r @ self.rt).toarray()

    def one_norm(self) -> float:
        """Exact ||M||_1, computed on the first call and kept, since R never
        changes.  R >= 0 makes R R^T >= 0, so column j of |M| sums to
        (R R^T 1)_j - g_j + |diag_j - g_j| with g_j = sum_k R_jk^2."""
        if self._norm is None:
            gram_diag = np.asarray(self.r.multiply(self.r).sum(axis=1)).ravel()
            col = self.r @ (self.rt @ np.ones(self.shape[0]))
            self._norm = float((col - gram_diag + np.abs(self.diag - gram_diag)).max())
        return self._norm


def _as_operator(mat):
    """`mat` itself if it is a GramOperator, else the sparse `mat` as CSR."""
    return mat if isinstance(mat, GramOperator) else mat.tocsr()


def symmetric_eigs_smallest(mat, k: int, deflate=None):
    """Smallest-k eigenpairs of a sparse symmetric matrix M on the
    complement of `deflate`'s c orthonormal columns, which must span an
    invariant subspace of M (e.g. `laplacian_null_basis`).

    M is a sparse matrix, symmetric within SYMMETRY_TOL (ValueError
    otherwise), or a `GramOperator` in product form: the dense path
    densifies it, while ARPACK, the probe and the residual check only
    multiply by it, and its 1-norm is exact.

    Returns (eigenvalues ascending, column-orthonormal eigenvectors) with
    every residual ||M v - lambda v|| <= RESIDUAL_TOL * ||M||_1 (read at
    call time) and each column's sign fixed by its leading entry (see
    `certified_eigenvectors`).  Above DENSE_CUTOFF, ARPACK solves on the
    complement and a probe checks it missed no repeated eigenvalue;
    otherwise the dense `eigh` of M answers, minus its c eigenvectors in
    span(deflate).
    """
    a = _as_operator(mat)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    c = 0 if deflate is None else deflate.shape[1]
    if not 1 <= k <= n - c:
        raise ValueError(f"k={k} out of range for dimension {n} with {c} deflated")
    if not isinstance(a, GramOperator):  # symmetric by construction
        _check_symmetric(a)

    norm_a = _one_norm(a)
    found = None
    # ARPACK's Krylov space (max(2k+1, 20) vectors) and the probe's must
    # both fit in the complement
    if n > DENSE_CUTOFF and 2 * k + 20 < n - c:
        found = _arpack_smallest(a, k, RESIDUAL_TOL, norm_a, deflate)
    if found is None:
        vals, vecs = np.linalg.eigh(a.toarray())
        if c:
            # drop the eigenvectors in span(deflate); deflating M first would
            # pick another basis within repeated eigenvalues
            weight = np.linalg.norm(deflate.T @ vecs, axis=0)
            keep = np.sort(np.argsort(weight, kind="stable")[:n - c])
            vals, vecs = vals[keep], vecs[:, keep]
        found = vals[:k], vecs[:, :k]
    vals, vecs = found
    return vals, certified_eigenvectors(a, vals, vecs)


def certified_eigenvectors(mat, vals, vecs) -> np.ndarray:
    """`vecs` with each column's sign fixed, once every residual
    ||M v - lambda v|| is within RESIDUAL_TOL * ||M||_1 (read at call
    time); ConvergenceError with the largest otherwise.  A column's first
    entry within SIGN_TIE_TOL relative of its largest magnitude is made
    positive, so v and -v give the same column.  M is taken as
    `symmetric_eigs_smallest` takes it."""
    a = _as_operator(mat)
    resid = _residuals(a, vals, vecs)
    if not resid.max() <= RESIDUAL_TOL * max(_one_norm(a), 1e-300):
        raise ConvergenceError("eigensolver residual above tolerance", float(resid.max()))
    return _fix_signs(vecs)


def _one_norm(a) -> float:
    if isinstance(a, GramOperator):
        return a.one_norm()
    if a.nnz == 0:
        return 0.0
    return float(np.asarray(abs(a).sum(axis=0)).max())


def _residuals(a, vals, vecs) -> np.ndarray:
    r = a @ vecs - vecs * vals[None, :]
    return np.linalg.norm(r, axis=0)


def _arpack_smallest(a, k: int, tol: float, norm_a: float, deflate):
    """ARPACK's k smallest pairs on the complement of `deflate`, or None
    if they may miss a repeated eigenvalue.

    A sparse `deflate` no wider than the main solve's Krylov basis, ncv =
    max(2k + 1, 20) columns, is densified, so its dense copy never outgrows
    the workspace ARPACK already holds; a wider one stays sparse."""
    if sp.issparse(deflate) and deflate.shape[1] <= max(2 * k + 1, 20):
        deflate = deflate.toarray()
    # above the Gershgorin bound: no wanted pair of sigma I - M ties with
    # a deflated direction, which the operator maps to 0
    sigma = norm_a + 1.0
    try:
        vals, vecs = _shifted_largest(a, sigma, k, (deflate,), seed=0)
        # a Krylov space holds one vector per distinct eigenvalue: probe the
        # rest of the complement, to the certificate's tolerance, for a lower one
        (missed,), _ = _shifted_largest(a, sigma, 1, (deflate, vecs), seed=1, tol=tol)
    except ArpackError:  # the Krylov space closed on too few eigenvalues
        return None
    return (vals, vecs) if missed >= vals[-1] - tol * norm_a else None


def _held_basis(bases):
    """The (basis, transpose) pairs one solve projects against, in layouts
    a product reads without converting: canonical CSRs of each sparse
    basis, projected in turn first, then all dense bases stacked side by
    side into one C-ordered (n x c) array Q, so that projecting them out is
    x - Q (Q^T x), two BLAS gemv calls.  Stacking is exact: the stacked
    bases are orthonormal together (the probe's eigenvectors lie in the
    complement of the deflation basis D), and then (I - V V^T)(I - D D^T)
    = I - [D V] [D V]^T.  As `_arpack_smallest` densifies a sparse D only
    when it is no wider than ARPACK's Krylov basis, its Q holds at most
    ncv + k columns."""
    held = []
    for b in bases:
        if sp.issparse(b):
            b = sp.csr_matrix(b, copy=True)  # sum_duplicates sorts in place
            b.sum_duplicates()
            held.append((b, b.T.tocsr()))
    dense = [b for b in bases if b is not None and not sp.issparse(b)]
    if dense:
        q = np.ascontiguousarray(np.hstack(dense))
        held.append((q, q.T))
    return held


class _ShiftedOperator(LinearOperator):
    """P (sigma I - M) P, with P the projection onto the complement of the
    held bases, applied as P (sigma I - M): one projection per matvec.
    ARPACK's vectors start in range(P) (v0 is projected) and are built
    from projected products, and span(bases) is invariant under M (the
    deflation basis by contract, the probe's vectors as eigenvectors), so
    sigma I - M maps a rounding-level component in span(bases) back into
    it, where the output projection removes it.  A GramOperator M enters
    with its diagonal folded into the shift."""

    def __init__(self, a, sigma: float, held):
        super().__init__(np.float64, a.shape)
        self.a, self.held = a, held
        self.gram = isinstance(a, GramOperator)
        self.shift = sigma - a.diag if self.gram else sigma

    def project(self, x):
        for b, bt in self.held:
            x = x - b @ (bt @ x)
        return x

    def _matvec(self, x):
        y = np.ravel(x)
        if self.gram:
            y = self.shift * y + self.a.r @ (self.a.rt @ y)
        else:
            y = self.shift * y - self.a @ y
        return self.project(y)


def _shifted_largest(a, sigma: float, k: int, bases, seed: int, tol: float = 0.0):
    """The k smallest eigenpairs of M on the complement of `bases`, ascending,
    as the k largest of P (sigma I - M) P, with C-ordered eigenvectors.
    The bases are held once per solve (`_held_basis`), so a matvec
    converts nothing.  `tol` is ARPACK's (0: machine precision); v0 is
    seeded, as ARPACK's own changes between calls."""
    op = _ShiftedOperator(a, sigma, _held_basis(bases))
    v0 = op.project(np.random.default_rng(seed).standard_normal(a.shape[0]))
    try:
        theta, vecs = eigsh(op, k, which="LA", v0=v0, tol=tol)
    except ArpackNoConvergence as err:
        resid = _residuals(a, sigma - err.eigenvalues, err.eigenvectors)
        raise ConvergenceError("ARPACK did not converge",
                               float(resid.max()) if resid.size else np.inf) from None
    return sigma - theta[::-1], np.ascontiguousarray(vecs[:, ::-1])


def pagerank(adj: sp.spmatrix, normalized: sp.spmatrix) -> np.ndarray:
    """Damped random-walk fixed point on an undirected graph, given as its
    square symmetric sparse adjacency and S = `normalized`, which must be
    `symmetric_normalized(adj)` (a graph holds it once:
    `BipartiteGraph.normalized_adjacency()`).

    Damping d = PAGERANK_DAMPING (0.85); dangling nodes redistribute
    uniformly.  The fixed point is v = c x, with every node's constant
    share c = d (dangling mass) / n + (1 - d) / n and (I - d A D^-1) x = 1.
    On nodes with edges x = D^1/2 y, where y solves the SPD system
    (I - d S) y = D^-1/2 1, whose condition number is at most
    (1 + d) / (1 - d); conjugate gradients solve it in at most
    PAGERANK_MAX_ITER (1,000) iterations.  An isolated node has x = 1, and
    v = x / sum(x).

    Returns a probability vector (entries >= 0, sum 1) once the power
    iteration's step from it changes it by less than PAGERANK_TOL (1e-12)
    in L1, and raises ConvergenceError otherwise; CG's residual bound is
    set so the step meets it.  Each constant is read at call time.
    """
    n = adj.shape[0]
    if n == 0:
        raise ValueError("empty graph")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    dangling = deg == 0.0
    root = np.sqrt(deg)
    inv_root = np.divide(1.0, root, out=np.zeros(n), where=~dangling)
    damping = PAGERANK_DAMPING
    op = LinearOperator((n, n), matvec=lambda y: y - damping * (normalized @ y),
                        dtype=np.float64)
    # CG's residual r moves the certified step by at most 2 ||D^1/2 1|| ||r||
    # in L1, and sum(x) >= n
    with np.errstate(divide="ignore"):
        atol = PAGERANK_TOL * n / (2.0 * np.linalg.norm(root))
    y, _ = cg(op, inv_root, rtol=0.0, atol=atol, maxiter=PAGERANK_MAX_ITER)
    x = np.where(dangling, 1.0, root * y)
    # one power-iteration step from x / sum(x), in units of sum(x): no
    # division before it passes, since an unconverged x may sum to 0
    total = x.sum()
    step = (damping * (adj @ (x * inv_root ** 2) + x[dangling].sum() / n)
            + (1.0 - damping) * total / n)
    err = np.abs(step - x).sum()
    if not err < PAGERANK_TOL * total:
        raise ConvergenceError("PageRank CG solve did not converge",
                               float(err / total) if total > 0 else np.inf)
    return x / total
