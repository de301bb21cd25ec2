"""The q-value network: forward pass, loss, gradients and the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.qnet import (
    ADAM_EPS,
    QNetwork,
    smooth_l1,
    smooth_l1_grad,
)


def test_smooth_l1_branches():
    p = np.array([0.5, 0.0, 2.0, -2.0])
    t = np.array([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(smooth_l1(p, t), [0.125, 0.0, 1.5, 1.5])


def test_smooth_l1_grad_is_clipped_difference():
    p = np.array([0.3, -0.3, 5.0, -5.0, 1.0])
    t = np.zeros(5)
    np.testing.assert_allclose(smooth_l1_grad(p, t), [0.3, -0.3, 1.0, -1.0, 1.0])


def test_smooth_l1_continuity_at_kink():
    # both branches agree at |d| = 1
    assert smooth_l1(np.array([1.0]), np.array([0.0]))[0] == 0.5


def test_forward_zero_weights_passes_bias_through():
    net = QNetwork((3, 4, 1), rng=np.random.default_rng(0))
    for w in net.weights:
        w[...] = 0.0
    net.biases[-1][...] = 0.7
    out = net.forward(np.zeros((5, 3), dtype=np.float32))
    np.testing.assert_allclose(out, np.full(5, 0.7, dtype=np.float32))


def test_leaky_slope_on_negative_preactivation():
    # single hidden unit: w1 = 1, hidden bias 0, output weight 1
    net = QNetwork((1, 1, 1), rng=np.random.default_rng(0))
    net.weights[0][...] = 1.0
    net.weights[1][...] = 1.0
    net.biases[0][...] = 0.0
    net.biases[1][...] = 0.0
    assert net.forward(np.array([[2.0]]))[0] == pytest.approx(2.0)
    assert net.forward(np.array([[-2.0]]))[0] == pytest.approx(-0.02)


def test_forward_matches_manual_matrix_pipeline():
    rng = np.random.default_rng(7)
    net = QNetwork((15, 64, 32, 1), rng=np.random.default_rng(1))
    x = rng.standard_normal((8, 15)).astype(np.float32)

    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        h = np.where(z > 0, z, 0.01 * z) if i < len(net.weights) - 1 else z
    np.testing.assert_allclose(net.forward(x), h[:, 0], rtol=1e-6, atol=1e-6)


def test_forward_accepts_single_vector():
    net = QNetwork((4, 8, 1), rng=np.random.default_rng(2))
    x = np.arange(4, dtype=np.float32)
    single = net.forward(x)
    batch = net.forward(x[None, :])
    assert single.shape == (1,)
    np.testing.assert_array_equal(single, batch)


def test_rejects_bad_dims():
    with pytest.raises(ValueError):
        QNetwork((15,))
    with pytest.raises(ValueError):
        QNetwork((15, 8, 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_activation_raises():
    net = QNetwork((2, 2, 1), rng=np.random.default_rng(0))
    with pytest.raises(FloatingPointError, match="layer 0"):
        net.forward(np.array([[np.inf, 0.0]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_deeper_layer_is_named():
    # layer 0 stays finite at 1e20; layer 1 multiplies by 1e20 again and
    # overflows float32
    net = QNetwork((2, 2, 2, 1), rng=np.random.default_rng(0))
    for w in net.weights:
        w[...] = 1.0
    net.weights[0][...] = 1e20
    net.weights[1][...] = 1e20
    with pytest.raises(FloatingPointError, match="layer 1"):
        net.forward(np.array([[1.0, 1.0]]))


def test_rejects_leaky_slope_outside_unit_interval():
    with pytest.raises(ValueError):
        QNetwork((2, 2, 1), leaky_slope=1.5)
    with pytest.raises(ValueError):
        QNetwork((2, 2, 1), leaky_slope=-0.1)


def test_gradient_check_against_finite_differences():
    # 64-bit network, inputs seeded away from the activation and loss kinks
    rng = np.random.default_rng(11)
    net = QNetwork((5, 8, 4, 1), rng=rng, dtype=np.float64)
    x = rng.uniform(0.1, 1.0, size=(6, 5))
    q0 = net.forward(x)
    target = q0 + rng.uniform(0.2, 0.6, size=6)  # inside the quadratic branch

    _, grads = net.loss_and_gradients(x, target)
    params = net.parameters()
    eps = 1e-6
    checked = 0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(0, flat_p.size, max(1, flat_p.size // 7)):
            orig = flat_p[j]
            flat_p[j] = orig + eps
            lp, _ = net.loss_and_gradients(x, target)
            flat_p[j] = orig - eps
            lm, _ = net.loss_and_gradients(x, target)
            flat_p[j] = orig
            numeric = (lp - lm) / (2 * eps)
            assert numeric == pytest.approx(flat_g[j], rel=1e-4, abs=1e-7)
            checked += 1
    assert checked >= 20


def test_gradient_check_in_linear_loss_branch():
    rng = np.random.default_rng(13)
    net = QNetwork((3, 6, 1), rng=rng, dtype=np.float64)
    x = rng.uniform(0.1, 1.0, size=(4, 3))
    target = net.forward(x) + 3.0  # |d| = 3, linear branch, far from the kink
    _, grads = net.loss_and_gradients(x, target)
    w0 = net.weights[0].reshape(-1)
    g0 = grads[0].reshape(-1)
    eps = 1e-6
    for j in range(w0.size):
        orig = w0[j]
        w0[j] = orig + eps
        lp, _ = net.loss_and_gradients(x, target)
        w0[j] = orig - eps
        lm, _ = net.loss_and_gradients(x, target)
        w0[j] = orig
        assert (lp - lm) / (2 * eps) == pytest.approx(g0[j], rel=1e-4, abs=1e-8)


def test_adam_zero_gradient_is_a_noop():
    net = QNetwork((3, 4, 1), rng=np.random.default_rng(5))
    before = [p.copy() for p in net.parameters()]
    net.adam_step([np.zeros_like(p) for p in net.parameters()], lr=0.1)
    for b, a in zip(before, net.parameters()):
        np.testing.assert_array_equal(b, a)


def test_adam_first_step_is_signed_lr():
    # with bias correction, step 1 moves each parameter by lr * sign(g)
    # up to the eps regularizer
    net = QNetwork((2, 1), rng=np.random.default_rng(6))
    g = np.array([[0.5], [-0.25]], dtype=np.float32)
    before = net.weights[0].copy()
    net.adam_step([g, np.zeros(1, dtype=np.float32)], lr=0.01)
    step = before - net.weights[0]
    expected = 0.01 * g / (np.abs(g) + ADAM_EPS)
    np.testing.assert_allclose(step, expected, rtol=1e-5)


def test_adam_shape_mismatch_raises():
    net = QNetwork((2, 1), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.adam_step([np.zeros((3, 1), dtype=np.float32), np.zeros(1, dtype=np.float32)], lr=0.1)
    with pytest.raises(ValueError):
        net.adam_step([np.zeros((2, 1), dtype=np.float32)], lr=0.1)


def test_training_reduces_loss_on_fixed_batch():
    rng = np.random.default_rng(21)
    net = QNetwork((5, 16, 1), rng=rng)
    x = rng.uniform(-1, 1, size=(32, 5)).astype(np.float32)
    y = (x.sum(axis=1) * 0.5).astype(np.float32)
    first = net.train_batch(x, y, lr=0.01)
    for _ in range(300):
        last = net.train_batch(x, y, lr=0.01)
    assert last < first * 0.2


def test_training_is_deterministic():
    def run():
        rng = np.random.default_rng(9)
        net = QNetwork((4, 8, 1), rng=np.random.default_rng(3))
        x = rng.uniform(-1, 1, size=(16, 4)).astype(np.float32)
        y = rng.uniform(-1, 1, size=16).astype(np.float32)
        for _ in range(50):
            net.train_batch(x, y, lr=0.005)
        return [p.copy() for p in net.parameters()]

    for a, b in zip(run(), run()):
        np.testing.assert_array_equal(a, b)


def test_clone_and_copy_from():
    net = QNetwork((3, 5, 1), rng=np.random.default_rng(8))
    twin = net.clone()
    for a, b in zip(net.parameters(), twin.parameters()):
        np.testing.assert_array_equal(a, b)
    twin.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != twin.weights[0][0, 0]
    twin.copy_from(net)
    np.testing.assert_array_equal(net.weights[0], twin.weights[0])
    with pytest.raises(ValueError):
        twin.copy_from(QNetwork((3, 6, 1)))


@settings(max_examples=50)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_smooth_l1_nonnegative_and_symmetric(a, b):
    pa = np.array([a])
    pb = np.array([b])
    assert smooth_l1(pa, pb)[0] >= 0.0
    assert smooth_l1(pa, pb)[0] == smooth_l1(pb, pa)[0]


def test_init_bounds_follow_fan_sizes():
    net = QNetwork((15, 64, 32, 1), rng=np.random.default_rng(123))
    for w, (fan_in, fan_out) in zip(net.weights, zip(net.dims[:-1], net.dims[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
        # a healthy spread, not degenerate
        assert np.std(w) > 0.1 * bound
    for b in net.biases:
        assert np.all(b == 0.0)
