"""Adam update tests against an independent scalar simulation."""
import numpy as np

import pgtr.autodiff as ad
from pgtr.autodiff import Tensor
from pgtr.optim import AdamState, adam_step
from test_autodiff import mul, sum_axis


def test_first_step_is_signed_learning_rate():
    p = Tensor(np.array([[10.0, -3.0, 0.5]]))
    p.grad = np.array([[4.0, -2.0, 1.0]])
    start = p.data.copy()
    adam_step(AdamState([p], lr=0.05))
    update = p.data - start
    np.testing.assert_allclose(update, -0.05 * np.sign([[4.0, -2.0, 1.0]]), rtol=1e-6)


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([[1.0, 2.0]]))
    p.grad = np.zeros((1, 2))
    st = AdamState([p], lr=0.1)
    adam_step(st)
    adam_step(st)
    np.testing.assert_array_equal(p.data, [[1.0, 2.0]])
    assert st.t == 2


def test_gradients_cleared_and_counter_incremented():
    p = Tensor(np.array([[1.0]]))
    p.grad = np.array([[1.0]])
    st = AdamState([p], lr=0.1)
    adam_step(st)
    assert p.grad is None
    assert st.t == 1


def _scalar_adam_reference(x0, lr, steps, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam minimizing f(x) = x^2."""
    x, m, v = x0, 0.0, 0.0
    traj = [x]
    for t in range(1, steps + 1):
        g = 2.0 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        traj.append(x)
    return np.array(traj)


def test_quadratic_descent_matches_scalar_simulation():
    """100 steps on f(x)=x^2 from x=1, lr=0.1.

    The trajectory must match the independent simulation; |x| shrinks
    monotonically through the initial approach (momentum makes Adam
    overshoot the optimum afterwards, so the strict decrease is asserted
    until the first zero crossing) and ends far below the start.
    """
    ref = _scalar_adam_reference(1.0, 0.1, 100)
    p = Tensor(np.array([[1.0]]))
    st = AdamState([p], lr=0.1)
    traj = [p.data[0, 0]]
    for _ in range(100):
        ad.zero_grad([p])
        loss = sum_axis(mul(p, p), axis=None, keepdims=False)
        ad.backward(loss)
        adam_step(st)
        traj.append(p.data[0, 0])
    traj = np.array(traj)
    np.testing.assert_allclose(traj, ref, rtol=1e-12, atol=1e-12)

    absx = np.abs(traj)
    crossing = int(np.argmax(traj <= 0.0))
    assert crossing > 5
    assert np.all(np.diff(absx[:crossing]) < 0)
    assert absx[-1] < 0.05 * absx[0]


def test_in_place_update_matches_the_array_formula_bit_for_bit():
    """Five steps on two parameters, one step without a gradient, against
    the update written as one array expression per moment."""
    rng = np.random.default_rng(3)
    shapes = [(7, 5), (1, 3)]
    params = [Tensor(rng.normal(size=s)) for s in shapes]
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    st = AdamState(params, lr=0.03)
    for t in range(1, 6):
        for j, p in enumerate(params):
            g = None if (t, j) == (3, 1) else rng.normal(size=p.data.shape) * 10.0 ** (t - 3)
            p.grad = g
            g = np.zeros(p.data.shape) if g is None else g
            m[j] = 0.9 * m[j] + (1.0 - 0.9) * g
            v[j] = 0.999 * v[j] + (1.0 - 0.999) * (g * g)
            want[j] = want[j] - 0.03 * (m[j] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[j] / (1.0 - 0.999 ** t)) + 1e-8)
        adam_step(st)
        for p, w in zip(params, want):
            assert p.data.tobytes() == w.tobytes()
