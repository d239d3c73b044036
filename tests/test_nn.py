import math

import numpy as np
import pytest

from conftest import assert_grad_close, numerical_grad
from tomcat.nn import (
    Adam,
    BatchNorm,
    LeakyReLU,
    Linear,
    NonFiniteError,
    ParamGroup,
    ShapeError,
    Softmax,
    Tensor,
    clip_weights,
    cross_entropy,
    cross_entropy_backward,
    l1_loss,
    l1_loss_backward,
)


def make_linear(in_dim, out_dim, seed=0):
    return Linear(in_dim, out_dim, np.random.default_rng(seed))


class TestLinear:
    def test_identity_map(self):
        layer = make_linear(3, 3)
        layer.W.data[:] = np.eye(3)
        layer.b.data[:] = 0.0
        x = np.array([[1.0, -2.0, 0.5]])
        y, _ = layer.forward(x, train=True)
        np.testing.assert_array_equal(y, x)

    def test_dot_product(self):
        layer = make_linear(2, 1)
        layer.W.data[:] = [[1.0, 1.0]]
        layer.b.data[:] = [3.0]
        y, _ = layer.forward(np.array([[1.0, 2.0]]), train=True)
        np.testing.assert_allclose(y, [[6.0]])

    def test_bias_gradient_is_batch_ones(self):
        layer = make_linear(3, 2)
        x = np.random.default_rng(1).normal(size=(5, 3))
        _, cache = layer.forward(x, train=True)
        layer.backward(cache, np.ones((5, 2)))
        np.testing.assert_allclose(layer.b.grad, [5.0, 5.0])

        def f(b):
            y = x @ layer.W.data.T + b
            return y.sum()

        fd = numerical_grad(f, layer.b.data.copy(), h=1e-6)
        assert_grad_close(layer.b.grad, fd, rtol=1e-6, atol=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        layer = make_linear(4, 3, seed=2)
        x = rng.normal(size=(6, 4))
        upstream = rng.normal(size=(6, 3))

        def loss():
            y, _ = layer.forward(x, train=True)
            return float((y * upstream).sum())

        y, cache = layer.forward(x, train=True)
        gx = layer.backward(cache, upstream)

        fd_x = numerical_grad(lambda _: loss(), x)
        assert_grad_close(gx, fd_x)
        fd_w = numerical_grad(lambda _: loss(), layer.W.data)
        assert_grad_close(layer.W.grad, fd_w)
        fd_b = numerical_grad(lambda _: loss(), layer.b.data)
        assert_grad_close(layer.b.grad, fd_b)

    def test_shape_mismatch(self):
        layer = make_linear(3, 2)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 4)), train=True)


class TestLeakyReLU:
    def test_negative_scaled(self):
        layer = LeakyReLU(0.1)
        y, _ = layer.forward(np.array([[-1.0]]), train=True)
        np.testing.assert_allclose(y, [[-0.1]])

    def test_positive_passthrough(self):
        layer = LeakyReLU(0.1)
        y, _ = layer.forward(np.array([[2.0]]), train=True)
        np.testing.assert_allclose(y, [[2.0]])

    def test_backward_negative_side(self):
        layer = LeakyReLU(0.1)
        x = np.array([[-3.0]])
        _, cache = layer.forward(x, train=True)
        gx = layer.backward(cache, np.array([[1.0]]))
        fd = numerical_grad(lambda v: layer.forward(v, train=True)[0].sum(), x.copy(), h=1e-6)
        assert_grad_close(gx, fd, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(gx, [[0.1]])

    def test_derivative_at_zero_is_one(self):
        layer = LeakyReLU(0.1)
        _, cache = layer.forward(np.array([[0.0]]), train=True)
        gx = layer.backward(cache, np.array([[1.0]]))
        np.testing.assert_array_equal(gx, [[1.0]])

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.5)


class TestBatchNorm:
    def test_constant_column_gives_beta(self):
        layer = BatchNorm(2)
        layer.beta.data[:] = [0.5, -1.0]
        x = np.full((4, 2), 3.0)
        y, _ = layer.forward(x, train=True)
        np.testing.assert_allclose(y, np.tile([0.5, -1.0], (4, 1)), atol=1e-8)

    def test_standardizes_large_batch(self):
        rng = np.random.default_rng(42)
        layer = BatchNorm(3)
        x = rng.normal(size=(4096, 3))
        y, _ = layer.forward(x, train=True)
        assert np.all(np.abs(y.mean(axis=0)) < 0.05)
        assert np.all(np.abs(y.var(axis=0) - 1.0) < 0.05)

    def test_running_stats_momentum_update(self):
        layer = BatchNorm(2, momentum=0.1)
        x = np.array([[1.0, 4.0], [3.0, 8.0]])
        layer.forward(x, train=True)
        np.testing.assert_allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 6.0]))
        np.testing.assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))

    def test_eval_is_deterministic_affine(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm(3)
        layer.forward(rng.normal(size=(16, 3)), train=True)
        row = rng.normal(size=3)
        batch_a = np.vstack([row, rng.normal(size=(4, 3))])
        batch_b = np.vstack([row, rng.normal(size=(9, 3))])
        ya, _ = layer.forward(batch_a, train=False)
        yb, _ = layer.forward(batch_b, train=False)
        np.testing.assert_array_equal(ya[0], yb[0])

    def test_train_requires_batch_of_two(self):
        layer = BatchNorm(2)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2)), train=True)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        layer = BatchNorm(3)
        layer.gamma.data[:] = rng.normal(size=3)
        layer.beta.data[:] = rng.normal(size=3)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 3))

        def loss():
            saved = (layer.running_mean.copy(), layer.running_var.copy())
            y, _ = layer.forward(x, train=True)
            layer.running_mean, layer.running_var = saved
            return float((y * upstream).sum())

        _, cache = layer.forward(x, train=True)
        gx = layer.backward(cache, upstream)
        assert_grad_close(gx, numerical_grad(lambda _: loss(), x), rtol=1e-5, atol=1e-8)
        assert_grad_close(layer.gamma.grad, numerical_grad(lambda _: loss(), layer.gamma.data),
                          rtol=1e-5, atol=1e-8)
        assert_grad_close(layer.beta.grad, numerical_grad(lambda _: loss(), layer.beta.data),
                          rtol=1e-5, atol=1e-8)


class TestSoftmax:
    def test_symmetry(self):
        y, _ = Softmax().forward(np.array([[0.0, 0.0]]), train=True)
        np.testing.assert_allclose(y, [[0.5, 0.5]])

    def test_shift_invariance(self):
        for c in (-50.0, 0.0, 7.5, 300.0):
            y, _ = Softmax().forward(np.full((1, 4), c), train=True)
            np.testing.assert_allclose(y, np.full((1, 4), 0.25), atol=1e-15)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=20, size=(32, 7))
        y, _ = Softmax().forward(x, train=True)
        assert np.all(y > 0)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        layer = Softmax()
        x = rng.normal(size=(3, 5))
        upstream = rng.normal(size=(3, 5))
        _, cache = layer.forward(x, train=True)
        gx = layer.backward(cache, upstream)
        fd = numerical_grad(lambda v: float((layer.forward(v, train=True)[0] * upstream).sum()),
                            x, h=1e-6)
        assert_grad_close(gx, fd, rtol=1e-6, atol=1e-9)


class TestL1Loss:
    def test_identical_inputs(self):
        a = np.random.default_rng(7).normal(size=(4, 3))
        assert l1_loss(a, a.copy()) == 0.0

    def test_hand_sum(self):
        assert l1_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 2.0

    def test_batch_mean(self):
        a = np.array([[1.0, 0.0], [2.0, 2.0]])
        b = np.array([[0.0, 1.0], [2.0, 2.0]])
        assert l1_loss(a, b) == 1.0

    def test_tie_subgradient_is_zero(self):
        g = l1_loss_backward(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(g, [[0.0, 1.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(5, 4))
        g = l1_loss_backward(a, b)
        fd = numerical_grad(lambda v: l1_loss(v, b), a, h=1e-6)
        assert_grad_close(g, fd, rtol=1e-6, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            l1_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestCrossEntropy:
    def test_uniform_prediction(self):
        pred = np.full((3, 5), 0.2)
        targets = np.array([0, 2, 4])
        assert math.isclose(cross_entropy(pred, targets), math.log(5), rel_tol=1e-12)

    def test_perfect_prediction(self):
        pred = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(pred, np.array([0, 1])) == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        raw = rng.uniform(0.1, 1.0, size=(4, 3))
        pred = raw / raw.sum(axis=1, keepdims=True)
        targets = np.array([0, 2, 1, 1])
        g = cross_entropy_backward(pred, targets)
        fd = numerical_grad(lambda v: cross_entropy(v, targets), pred, h=1e-6)
        assert_grad_close(g, fd, rtol=1e-6, atol=1e-9)

    def test_class_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.full((1, 3), 1 / 3), np.array([3]))


def group_with_grads(*pairs):
    """A ParamGroup of fresh tensors, each given its gradient."""
    tensors = []
    for data, grad in pairs:
        t = Tensor(np.array(data, dtype=np.float64))
        t.add_grad(np.array(grad, dtype=np.float64))
        tensors.append(t)
    return ParamGroup(tensors)


def set_grads(group, *grads):
    group.zero_grad()
    for t, g in zip(group, grads):
        t.add_grad(np.asarray(g, dtype=np.float64))


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        group = group_with_grads(([1.0, -2.0], [0.5, -0.25]))
        opt = Adam(lr=0.01, beta1=0.5)
        opt.step(group)
        np.testing.assert_allclose(group.tensors[0].data, [1.0 - 0.01, -2.0 + 0.01],
                                   atol=0.01 * 1e-6)

    def test_zero_gradient_never_moves(self):
        group = ParamGroup([Tensor(np.array([3.0]))])
        opt = Adam(lr=0.1, beta1=0.9)
        for _ in range(50):
            set_grads(group, [0.0])
            opt.step(group)
        np.testing.assert_array_equal(group.tensors[0].data, [3.0])

    def test_parameters_update_independently(self):
        rng = np.random.default_rng(10)
        a1, a2 = Tensor(np.array([1.0])), Tensor(np.array([1.0]))
        b = Tensor(np.array([5.0]))
        joint, solo = ParamGroup([a1, b]), ParamGroup([a2])
        opt = Adam(lr=0.01, beta1=0.5)
        for _ in range(5):
            g = rng.normal(size=1)
            set_grads(joint, g, rng.normal(size=1))
            opt.step(joint)
            set_grads(solo, g)
            opt.step(solo)
        np.testing.assert_array_equal(a1.data, a2.data)

    def test_deterministic(self):
        updates = []
        for _ in range(2):
            group = ParamGroup([Tensor(np.array([0.3, -0.7]))])
            opt = Adam(lr=0.001, beta1=0.5)
            for step in range(10):
                set_grads(group, [0.1 * step, -0.05])
                opt.step(group)
            updates.append(group.data.copy())
        np.testing.assert_array_equal(updates[0], updates[1])

    def test_non_finite_gradient_rejected(self):
        group = group_with_grads(([1.0], [np.nan]))
        with pytest.raises(NonFiniteError):
            Adam(lr=0.01, beta1=0.5).step(group)
        np.testing.assert_array_equal(group.data, [1.0])

    def test_tensor_without_gradient_rejected(self):
        group = group_with_grads(([1.0], [0.5]))
        group.zero_grad()
        with pytest.raises(ValueError):
            Adam(lr=0.01, beta1=0.5).step(group)

    def test_matches_per_tensor_formula_bitwise(self):
        # oracle: the per-tensor Adam the group step replaces, moments keyed
        # by tensor, evaluated with the same expression order
        def reference_step(state, tensors, grads, lr, b1, b2=0.999, eps=1e-8):
            for i, (p, g) in enumerate(zip(tensors, grads)):
                m, v, t = state.get(i, (np.zeros_like(p), np.zeros_like(p), 0))
                t += 1
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1 ** t)
                v_hat = v / (1.0 - b2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
                state[i] = (m, v, t)

        rng = np.random.default_rng(11)
        shapes = [(4, 7), (4,), (3, 4), (3,), (1,)]
        init = [rng.normal(size=s) for s in shapes]
        group = ParamGroup([Tensor(a) for a in init])
        expected = [a.copy() for a in init]
        slots = {}
        opt = Adam(lr=1e-2, beta1=0.5)
        for _ in range(12):
            grads = []
            for s in shapes:
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s)
                g[rng.uniform(size=s) < 0.3] = 0.0
                grads.append(g)
            set_grads(group, *grads)
            opt.step(group)
            reference_step(slots, expected, grads, lr=1e-2, b1=0.5)
        for t, want in zip(group, expected):
            np.testing.assert_array_equal(t.data, want)

    def test_data_and_grad_are_views_of_the_group(self):
        w, b = Tensor(np.ones((2, 3))), Tensor(np.zeros(2))
        group = ParamGroup([w, b])
        assert np.shares_memory(w.data, group.data) and np.shares_memory(b.data, group.data)
        w.add_grad(np.full((2, 3), 2.0))
        b.add_grad(np.array([1.0, -1.0]))
        b.add_grad(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(group.grad, [2.0] * 6 + [2.0, 0.0])
        np.testing.assert_array_equal(group.data, [1.0] * 6 + [0.0, 0.0])


class TestClipWeights:
    def test_clips_above(self):
        group = ParamGroup([Tensor(np.array([0.5]))])
        clip_weights(group, 0.01)
        np.testing.assert_array_equal(group.tensors[0].data, [0.01])

    def test_in_range_unchanged(self):
        group = ParamGroup([Tensor(np.array([0.005, -0.002]))])
        clip_weights(group, 0.01)
        np.testing.assert_array_equal(group.tensors[0].data, [0.005, -0.002])

    def test_clips_below_symmetric(self):
        group = ParamGroup([Tensor(np.array([-1.0])), Tensor(np.array([[0.3, -0.001]]))])
        clip_weights(group, 0.01)
        np.testing.assert_array_equal(group.tensors[0].data, [-0.01])
        np.testing.assert_array_equal(group.tensors[1].data, [[0.01, -0.001]])
