import copy
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_grad_close, numerical_grad
from tomcat.nn import (
    ADAM_BETA2,
    ADAM_EPS,
    BN_EPS,
    BN_MOMENTUM,
    CHUNK,
    LEAKY_SLOPE,
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
        layer = LeakyReLU()
        y, _ = layer.forward(np.array([[-1.0]]), train=True)
        np.testing.assert_allclose(y, [[-0.1]])

    def test_positive_passthrough(self):
        layer = LeakyReLU()
        y, _ = layer.forward(np.array([[2.0]]), train=True)
        np.testing.assert_allclose(y, [[2.0]])

    def test_backward_negative_side(self):
        layer = LeakyReLU()
        x = np.array([[-3.0]])
        _, cache = layer.forward(x, train=True)
        gx = layer.backward(cache, np.array([[1.0]]))
        fd = numerical_grad(lambda v: layer.forward(v, train=True)[0].sum(), x.copy(), h=1e-6)
        assert_grad_close(gx, fd, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(gx, [[0.1]])

    def test_derivative_at_zero_is_one(self):
        layer = LeakyReLU()
        _, cache = layer.forward(np.array([[0.0]]), train=True)
        gx = layer.backward(cache, np.array([[1.0]]))
        np.testing.assert_array_equal(gx, [[1.0]])


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
        layer = BatchNorm(2)
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


def assert_bits_equal(actual, expected):
    """Same shape, dtype and bytes: tells -0.0 from 0.0, unlike assert_array_equal."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def awkward_values(rng, shape, special=()):
    """Normal draws at scales 1e-3..1e3 with exact zeros, -0.0 and a constant
    first column; ``special`` values are scattered in as well."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.uniform(size=shape)
    x[pick < 0.2] = 0.0
    x[(pick >= 0.2) & (pick < 0.3)] = -0.0
    x[:, 0] = 1.5
    for i, value in enumerate(special):
        x[i % shape[0], 1 + i % (shape[1] - 1)] = value
    return x


# oracles: each layer's forward and backward before the in-place rewrite
def old_linear_forward(layer, x):
    return x @ layer.W.data.T + layer.b.data


# signed zeros, infinities, NaNs of both signs, subnormals (the least of
# them, whose LEAKY_SLOPE multiple rounds to a signed zero) and a normal pair
LEAKY_SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-320, -1e-320, 5e-324,
                 -5e-324, 2.5, -2.5)


def old_leaky_forward(x):
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def old_leaky_backward(x, grad_out):
    return grad_out * np.where(x >= 0, 1.0, LEAKY_SLOPE)


def old_batchnorm_forward(layer, x, train):
    if train:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        layer.running_mean += BN_MOMENTUM * (mean - layer.running_mean)
        layer.running_var += BN_MOMENTUM * (var - layer.running_var)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mean) * inv_std
        cache = (x_hat, inv_std)
    else:
        x_hat = (x - layer.running_mean) / np.sqrt(layer.running_var + BN_EPS)
        cache = None
    return layer.gamma.data * x_hat + layer.beta.data, cache


def old_softmax_forward(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


LAYER_SHAPES = [(2, 5), (7, 3), (64, 37)]


class TestLayerRewritesMatchOldFormulas:
    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_linear(self, shape):
        rng = np.random.default_rng(20)
        new, old = make_linear(shape[1], 4, seed=3), make_linear(shape[1], 4, seed=3)
        for layer in (new, old):
            layer.b.data[:] = [0.0, -0.0, 0.25, -3.0]
        x = awkward_values(rng, shape)
        y, cache = new.forward(x, train=True)
        assert_bits_equal(y, old_linear_forward(old, x))
        assert cache is x
        upstream = awkward_values(rng, (shape[0], 4))
        assert_bits_equal(new.backward(cache, upstream), old.backward(x, upstream))
        assert_bits_equal(new.W.grad, old.W.grad)
        assert_bits_equal(new.b.grad, old.b.grad)

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    @pytest.mark.parametrize("train", [True, False])
    def test_leaky_relu(self, shape, train):
        rng = np.random.default_rng(21)
        layer = LeakyReLU()
        x = awkward_values(rng, shape, special=LEAKY_SPECIAL)
        y, cache = layer.forward(x, train)
        assert_bits_equal(y, old_leaky_forward(x))
        upstream = awkward_values(rng, shape)
        assert_bits_equal(layer.backward(cache, upstream), old_leaky_backward(x, upstream))

    def test_leaky_relu_at_signed_zero(self):
        layer = LeakyReLU()
        x = np.array([[0.0, -0.0, -1.0, 1.0]])
        y, cache = layer.forward(x, train=True)
        assert_bits_equal(y, np.array([[0.0, -0.0, -0.1, 1.0]]))
        assert_bits_equal(cache, np.array([[1.0, 1.0, LEAKY_SLOPE, 1.0]]))
        assert_bits_equal(layer.backward(cache, np.full((1, 4), -2.0)),
                          np.array([[-2.0, -2.0, -0.2, -2.0]]))

    def test_leaky_relu_special_values_each_way(self):
        # every special value as input against every one as upstream gradient
        layer = LeakyReLU()
        x = np.repeat(np.array([LEAKY_SPECIAL]), len(LEAKY_SPECIAL), axis=0)
        y, cache = layer.forward(x, train=True)
        assert_bits_equal(y, old_leaky_forward(x))
        assert_bits_equal(layer.backward(cache, x.T.copy()), old_leaky_backward(x, x.T.copy()))

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_batchnorm_train_then_eval(self, shape):
        rng = np.random.default_rng(22)
        new, old = BatchNorm(shape[1]), BatchNorm(shape[1])
        gamma, beta = awkward_values(rng, (2, shape[1]))
        for layer in (new, old):
            layer.gamma.data[:], layer.beta.data[:] = gamma, beta
        for _ in range(3):
            x = awkward_values(rng, shape)
            y, cache = new.forward(x, train=True)
            want, old_cache = old_batchnorm_forward(old, x, train=True)
            assert_bits_equal(y, want)
            assert_bits_equal(cache[0], old_cache[0])
            assert_bits_equal(cache[1], old_cache[1])
            assert_bits_equal(new.running_mean, old.running_mean)
            assert_bits_equal(new.running_var, old.running_var)
            upstream = awkward_values(rng, shape)
            assert_bits_equal(new.backward(cache, upstream), old.backward(old_cache, upstream))
            assert_bits_equal(new.gamma.grad, old.gamma.grad)
            assert_bits_equal(new.beta.grad, old.beta.grad)
        x = awkward_values(rng, shape)
        y, cache = new.forward(x, train=False)
        assert cache is None
        assert_bits_equal(y, old_batchnorm_forward(old, x, train=False)[0])

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_softmax(self, shape):
        rng = np.random.default_rng(23)
        layer = Softmax()
        x = awkward_values(rng, shape)
        x[-1] = -0.0
        y, cache = layer.forward(x, train=True)
        want = old_softmax_forward(x)
        assert_bits_equal(y, want)
        upstream = awkward_values(rng, shape)
        assert_bits_equal(layer.backward(cache, upstream), layer.backward(want, upstream))

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_handed_arrays_give_the_same_bits(self, shape):
        # every array a call writes handed to it, NaN-filled, as a training
        # workspace hands them, against the same layer allocating its own
        rng = np.random.default_rng(25)
        rows, width = shape

        def handed(cols=width):
            return np.full((rows, cols), np.nan)

        def same(new, old, handed_array):
            assert new is handed_array
            assert_bits_equal(new, old)

        lin, ref = make_linear(width, 4, seed=5), make_linear(width, 4, seed=5)
        x, upstream = awkward_values(rng, shape), awkward_values(rng, (rows, 4))
        for _ in range(2):   # the second weight term goes through scratch
            out, gx, scratch = handed(4), handed(), np.full((4, width), np.nan)
            y, cache = lin.forward(x, True, y=out)
            same(y, ref.forward(x, True)[0], out)
            same(lin.backward(cache, upstream, gx=gx, scratch=scratch),
                 ref.backward(x, upstream), gx)
            assert_bits_equal(lin.W.grad, ref.W.grad)
            assert_bits_equal(lin.b.grad, ref.b.grad)
        gx = handed()[rows // 2:]
        same(lin.backward(cache, upstream, param_grads=False, input_rows=slice(rows // 2, None),
                          gx=gx), upstream[rows // 2:] @ lin.W.data, gx)

        x = awkward_values(rng, shape, special=LEAKY_SPECIAL)
        out, slope, gx = handed(), handed(), handed()
        y, cache = LeakyReLU().forward(x, True, y=out, slope=slope)
        same(y, old_leaky_forward(x), out)
        assert cache is slope
        upstream = awkward_values(rng, shape)
        same(LeakyReLU().backward(cache, upstream, gx=gx), old_leaky_backward(x, upstream), gx)

        bn, ref = BatchNorm(width), BatchNorm(width)
        for _ in range(2):
            x, upstream = awkward_values(rng, shape), awkward_values(rng, shape)
            out, x_hat, gx, tmp = handed(), handed(), handed(), handed()
            y, cache = bn.forward(x, True, y=out, x_hat=x_hat)
            want, ref_cache = ref.forward(x, True)
            same(y, want, out)
            same(cache[0], ref_cache[0], x_hat)
            same(bn.backward(cache, upstream, gx=gx, tmp=tmp),
                 ref.backward(ref_cache, upstream), gx)
            assert_bits_equal(bn.gamma.grad, ref.gamma.grad)
        out = handed()
        same(bn.forward(x, False, y=out)[0], ref.forward(x, False)[0], out)

        x, upstream = awkward_values(rng, shape), awkward_values(rng, shape)
        out, gx = handed(), handed()
        y, cache = Softmax().forward(x, True, y=out)
        same(y, old_softmax_forward(x), out)
        same(Softmax().backward(cache, upstream, gx=gx), Softmax().backward(y.copy(), upstream), gx)

    @pytest.mark.parametrize("train", [True, False])
    def test_no_forward_writes_its_input(self, train):
        rng = np.random.default_rng(24)
        bn = BatchNorm(6)
        bn.forward(rng.normal(size=(8, 6)), train=True)
        for layer in (make_linear(6, 6), LeakyReLU(), bn, Softmax()):
            x = awkward_values(rng, (8, 6))
            before = x.copy()
            layer.forward(x, train)
            assert_bits_equal(x, before)


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


def one_pass_adam_step(opt, params, scratch):
    """Adam.step before blocking: every pass runs over the whole group, with
    group-sized scratch. The oracle of the blocked step."""
    g, m, v = params.grad, params.m, params.v
    if not np.isfinite(g).all():
        raise NonFiniteError("non-finite gradient passed to Adam")
    params.steps += 1
    t = params.steps
    a, b = scratch
    m *= opt.beta1
    np.multiply(g, 1.0 - opt.beta1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    a *= g
    v += a
    np.divide(m, 1.0 - opt.beta1 ** t, out=a)
    a *= opt.lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params.data -= a


def split_group(rng, size):
    """A ParamGroup of ``size`` entries in up to three tensors, so tensor
    boundaries fall inside and across blocks."""
    lengths = [len(part) for part in np.array_split(np.arange(size), 3) if len(part)]
    return ParamGroup([Tensor(rng.normal(size=n)) for n in lengths])


def awkward_grads(rng, group):
    """Gradients from 1e-6 to 1e2 in magnitude, with exact zeros and -0.0."""
    grads = []
    for t in group:
        g = rng.normal(size=t.shape) * 10.0 ** rng.uniform(-6, 2, size=t.shape)
        pick = rng.uniform(size=t.shape)
        g[pick < 0.2] = 0.0
        g[(pick >= 0.2) & (pick < 0.25)] = -0.0
        grads.append(g)
    return grads


def assert_same_adam_state(group, want):
    assert group.steps == want.steps
    for name in ("data", "m", "v"):
        assert_bits_equal(getattr(group, name), getattr(want, name))


class TestBlockedAdam:
    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_matches_one_pass_step_bitwise(self, size):
        group = split_group(np.random.default_rng(size), size)
        want = copy.deepcopy(group)
        scratch = np.empty((2, size))
        opt = Adam(lr=1e-2, beta1=0.5)
        rng = np.random.default_rng(30)
        for _ in range(12):
            grads = awkward_grads(rng, group)
            set_grads(group, *grads)
            set_grads(want, *grads)
            opt.step(group)
            one_pass_adam_step(opt, want, scratch)
            assert_same_adam_state(group, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [3 * CHUNK, 3 * CHUNK + 6])
    def test_non_finite_in_last_block_changes_nothing(self, bad, where):
        size = 3 * CHUNK + 7
        group = split_group(np.random.default_rng(31), size)
        opt = Adam(lr=1e-2, beta1=0.5)
        rng = np.random.default_rng(32)
        for _ in range(3):
            set_grads(group, *awkward_grads(rng, group))
            opt.step(group)
        before = copy.deepcopy(group)
        grads = awkward_grads(rng, group)
        grads[-1][where - (size - grads[-1].size)] = bad
        set_grads(group, *grads)
        with pytest.raises(NonFiniteError):
            opt.step(group)
        assert_same_adam_state(group, before)

    def test_step_allocates_no_group_sized_array(self):
        # a group-sized bool mask alone is one byte per entry, a float64
        # array eight: the step must stay below both
        group = split_group(np.random.default_rng(33), 8 * CHUNK)
        set_grads(group, *awkward_grads(np.random.default_rng(34), group))
        opt = Adam(lr=1e-2, beta1=0.5)
        opt.step(group)
        tracemalloc.start()
        try:
            opt.step(group)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            np.isfinite(group.grad).all()
            _, mask_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask_peak >= group.data.size   # tracemalloc sees numpy's buffers
        assert peak < group.data.size   # so also below a quarter of the group's bytes

    def test_scratch_is_at_most_two_blocks(self):
        for size in (1, CHUNK, 8 * CHUNK + 3):
            group = split_group(np.random.default_rng(35), size)
            for g in (group, copy.deepcopy(group)):
                assert g._scratch.size == 2 * min(size, CHUNK)


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
