"""Dense float64 layers with hand-derived backward passes, Adam, and weight clipping.

Forward methods return (output, cache) so the same layer can be applied to
several batches inside one training step; backward(cache, grad_out,
param_grads=True) returns the input gradient and, unless param_grads is
False, accumulates parameter gradients in place. Each batch-shaped array a
call writes (its output, cache or input gradient) can be handed to it by
keyword; one not handed is allocated. A layer never writes into its input.

Optimizers work on a ParamGroup: tensors whose data and gradients are views
into two flat buffers, so an Adam step or a clip is a fixed number of array
passes per group. Adam makes its passes a block of CHUNK entries at a time.

Every network uses the same fixed settings: LEAKY_SLOPE for LeakyReLU,
BN_MOMENTUM and BN_EPS for BatchNorm, ADAM_BETA2 and ADAM_EPS for Adam.
"""

from __future__ import annotations

import copy
import math
from typing import Iterable

import numpy as np

# Entries per Adam block: the block's gradient, data, moments and two
# scratch arrays (6 x 128 KiB) stay in cache across the step's 13 passes.
# On a 2-vCPU x86-64 machine (numpy 2.4, min of 7) a 202,802-entry step ran
# 2.2 -> 1.9 ms against one pass over the whole group; 16-32k did as well.
CHUNK = 2 ** 14

LEAKY_SLOPE = 0.1      # LeakyReLU's slope for negative inputs
BN_MOMENTUM = 0.1      # weight of each batch in BatchNorm's running statistics
BN_EPS = 1e-5          # added to BatchNorm's variance before the square root
ADAM_BETA2 = 0.999     # Adam's second-moment decay
ADAM_EPS = 1e-8        # added to Adam's bias-corrected root second moment


class ShapeError(ValueError):
    """Tensor shapes disagree with the layer or loss contract."""


class NonFiniteError(ArithmeticError):
    """A gradient or loss value is NaN or infinite."""


class Tensor:
    """Parameter array (row-major float64) with a gradient accumulator.

    ``grad`` is None until the first add_grad after zero_grad; that first
    write copies into the gradient buffer, later ones add to it. The buffer
    is allocated by the first add_grad, so a network that is only run holds
    none. A ParamGroup replaces ``data`` and the gradient buffer with views
    of its flat arrays.
    """

    __slots__ = ("data", "_grad", "_has_grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._grad = None
        self._has_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad if self._has_grad else None

    def add_grad(self, g: np.ndarray) -> None:
        self._add_term(g.shape, lambda out: g if out is None else np.copyto(out, g))

    def add_product(self, a: np.ndarray, b: np.ndarray,
                    scratch: np.ndarray | None = None) -> None:
        """add_grad(a @ b), with the product written straight into the
        gradient buffer when it is the first term since zero_grad, and
        otherwise into scratch (a new array when None) before it is added."""
        self._add_term((a.shape[0], b.shape[1]), lambda out: np.matmul(a, b, out=out), scratch)

    def _add_term(self, shape: tuple[int, ...], write, scratch: np.ndarray | None = None) -> None:
        """Add the gradient term that write(out) writes into out: into the
        gradient buffer when it is the first since zero_grad, else into
        scratch, whose result (write's return value) is added to it."""
        if shape != self.data.shape:
            raise ShapeError(f"gradient shape {shape} != parameter shape {self.data.shape}")
        if self._has_grad:
            self._grad += write(scratch)
        else:
            if self._grad is None:
                self._grad = np.empty_like(self.data)
            write(self._grad)
            self._has_grad = True

    def zero_grad(self) -> None:
        self._has_grad = False


class ParamGroup:
    """Tensors updated together, flattened into contiguous float64 buffers.

    Each tensor's data and gradient become views into ``data`` and ``grad``,
    so the optimizer and clipping make a fixed number of array passes per
    group rather than per tensor. The group also holds its Adam state: the
    moments ``m`` and ``v`` and the step count, plus two scratch arrays of
    at most CHUNK entries. A tensor belongs to at most one group.
    """

    def __init__(self, tensors: Iterable[Tensor]):
        self.tensors = list(tensors)
        self._adopt()
        self.m = np.zeros(self.data.size)
        self.v = np.zeros(self.data.size)
        self.steps = 0

    def _adopt(self) -> None:
        """Copy every tensor's data and gradient into fresh flat buffers and
        point the tensor at views of them."""
        size = sum(t.data.size for t in self.tensors)
        self.data = np.empty(size)
        self.grad = np.empty(size)
        self._scratch = np.empty((2, min(size, CHUNK)))
        offset = 0
        for t in self.tensors:
            end = offset + t.data.size
            data = self.data[offset:end].reshape(t.data.shape)
            grad = self.grad[offset:end].reshape(t.data.shape)
            data[...] = t.data
            if t._has_grad:
                grad[...] = t._grad
            t.data, t._grad = data, grad
            offset = end

    def __deepcopy__(self, memo):
        # a deep copy of a view is a detached array: copy the tensors, then
        # adopt the copies into new buffers
        new = copy.copy(self)
        memo[id(self)] = new
        new.tensors = copy.deepcopy(self.tensors, memo)
        new.m, new.v = self.m.copy(), self.v.copy()
        new._adopt()
        return new

    def __iter__(self):
        return iter(self.tensors)

    def zero_grad(self) -> None:
        for t in self.tensors:
            t.zero_grad()


class Linear:
    """y = x @ W.T + b with W of shape (out, in). W is drawn uniformly from
    +-1/sqrt(in) with rng, or left uninitialised when rng is None, for a
    layer whose state is loaded next."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None):
        bound = 1.0 / math.sqrt(in_dim)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = Tensor(np.empty((out_dim, in_dim)) if rng is None
                        else rng.uniform(-bound, bound, size=(out_dim, in_dim)))
        self.b = Tensor(np.zeros(out_dim))

    def forward(self, x: np.ndarray, train: bool, y: np.ndarray | None = None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"expected (batch, {self.in_dim}) input, got {x.shape}")
        y = np.matmul(x, self.W.data.T, out=y)
        y += self.b.data
        return y, x

    def backward(self, cache, grad_out: np.ndarray, param_grads: bool = True,
                 input_rows: slice | None = slice(None), gx: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray | None:
        """input_rows selects the rows of the input gradient to compute;
        None computes none, for an input that is data. scratch, of W's
        shape, takes W's gradient term when it is not the first since
        zero_grad (see Tensor.add_product)."""
        x = cache
        if param_grads:
            self.W.add_product(grad_out.T, x, scratch)
            self.b.add_grad(grad_out.sum(axis=0))
        if input_rows is None:
            return None
        return np.matmul(grad_out[input_rows], self.W.data, out=gx)

    def parameters(self) -> list[Tensor]:
        return [self.W, self.b]

    def state(self) -> dict[str, np.ndarray]:
        return {"W": self.W.data, "b": self.b.data}


class LeakyReLU:
    """Elementwise max(x, LEAKY_SLOPE * x); the derivative at exactly 0 is taken as 1.

    The cache is the slope of each entry: 1.0 where x >= 0, the entries
    passed through, and LEAKY_SLOPE elsewhere (a NaN input among them, as in
    the formula). No step masks a copy: a masked copy took 6 to 20 times as
    long as a ufunc on training batches.
    """

    def forward(self, x: np.ndarray, train: bool, y: np.ndarray | None = None,
                slope: np.ndarray | None = None):
        if slope is None:
            slope = np.empty(x.shape)
        np.greater_equal(x, 0, out=slope)   # 1.0 or 0.0
        np.maximum(slope, LEAKY_SLOPE, out=slope)
        y = np.multiply(x, LEAKY_SLOPE, out=y)
        # x for x >= 0 (at +-0 both are x), else LEAKY_SLOPE * x, the larger
        return np.maximum(x, y, out=y), slope

    def backward(self, cache, grad_out: np.ndarray, param_grads: bool = True,
                 gx: np.ndarray | None = None) -> np.ndarray:
        # grad_out * 1.0 is grad_out itself
        return np.multiply(grad_out, cache, out=gx)

    def parameters(self) -> list[Tensor]:
        return []

    def state(self) -> dict[str, np.ndarray]:
        return {}


class BatchNorm:
    """Per-feature batch normalization with affine parameters and running statistics.

    Train mode normalizes by the biased batch statistics and updates the
    running statistics with momentum BN_MOMENTUM; eval mode is a fixed
    affine map through the running statistics. BN_EPS is added to either
    variance.
    """

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features))
        self.beta = Tensor(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: np.ndarray, train: bool, y: np.ndarray | None = None,
                x_hat: np.ndarray | None = None):
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ShapeError(f"expected (batch, {self.num_features}) input, got {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise ShapeError("batch norm needs batch size >= 2 in train mode")
            # centred once; the mean of its square is x.var's biased variance
            mean = x.mean(axis=0)
            x_hat = np.subtract(x, mean, out=x_hat)
            y = np.multiply(x_hat, x_hat, out=y)
            var = y.mean(axis=0)
            self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
            self.running_var += BN_MOMENTUM * (var - self.running_var)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            x_hat *= inv_std
            cache = (x_hat, inv_std)
            np.multiply(self.gamma.data, x_hat, out=y)
        else:
            y = np.subtract(x, self.running_mean, out=y)
            y /= np.sqrt(self.running_var + BN_EPS)
            y *= self.gamma.data
            cache = None
        y += self.beta.data
        return y, cache

    def backward(self, cache, grad_out: np.ndarray, param_grads: bool = True,
                 gx: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
        """gx takes the input gradient and tmp, of the same shape, the
        terms on the way to it."""
        if cache is None:
            raise ValueError("backward requires a train-mode cache")
        x_hat, inv_std = cache
        batch = grad_out.shape[0]
        if param_grads:
            self.gamma.add_grad(np.multiply(grad_out, x_hat, out=tmp).sum(axis=0))
            self.beta.add_grad(grad_out.sum(axis=0))
        # (inv_std / batch) * (batch * g_hat - g_hat.sum(axis=0)
        #                      - x_hat * (g_hat * x_hat).sum(axis=0)), in that order
        gx = np.multiply(grad_out, self.gamma.data, out=gx)   # g_hat
        g_hat_sum = gx.sum(axis=0)
        tmp = np.multiply(gx, x_hat, out=tmp)
        np.multiply(x_hat, tmp.sum(axis=0), out=tmp)
        gx *= batch
        gx -= g_hat_sum
        gx -= tmp
        gx *= inv_std / batch
        return gx

    def parameters(self) -> list[Tensor]:
        return [self.gamma, self.beta]

    def state(self) -> dict[str, np.ndarray]:
        return {
            "gamma": self.gamma.data,
            "beta": self.beta.data,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }


class Softmax:
    """Row-wise softmax, stabilized by max subtraction."""

    def forward(self, x: np.ndarray, train: bool, y: np.ndarray | None = None):
        y = np.subtract(x, x.max(axis=1, keepdims=True), out=y)
        np.exp(y, out=y)
        y /= y.sum(axis=1, keepdims=True)
        return y, y

    def backward(self, cache, grad_out: np.ndarray, param_grads: bool = True,
                 gx: np.ndarray | None = None) -> np.ndarray:
        # y * (grad_out - (grad_out * y).sum(axis=1, keepdims=True))
        y = cache
        gx = np.multiply(grad_out, y, out=gx)
        np.subtract(grad_out, gx.sum(axis=1, keepdims=True), out=gx)
        gx *= y
        return gx

    def parameters(self) -> list[Tensor]:
        return []

    def state(self) -> dict[str, np.ndarray]:
        return {}


def l1_loss(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> float:
    """Mean over the batch of the per-sample L1 distance; out, of a's
    shape, takes |a - b| on the way."""
    if a.shape != b.shape:
        raise ShapeError(f"l1_loss shapes differ: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b, out=out)
    return float(np.abs(diff, out=diff).sum(axis=1).mean())

def l1_loss_backward(a: np.ndarray, b: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Subgradient of l1_loss with respect to a, written into out when
    given; sign(0) = 0 at ties."""
    if a.shape != b.shape:
        raise ShapeError(f"l1_loss shapes differ: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b, out=out)
    grad = np.sign(diff, out=diff)
    grad /= a.shape[0]
    return grad


_PROB_FLOOR = 1e-12


def cross_entropy(pred: np.ndarray, targets: np.ndarray) -> float:
    """Mean of -log pred[target], with probabilities floored at 1e-12."""
    if np.any(targets < 0) or np.any(targets >= pred.shape[1]):
        raise ValueError("class id out of range")
    p = np.maximum(pred[np.arange(pred.shape[0]), targets], _PROB_FLOOR)
    return float(-np.log(p).mean())

def cross_entropy_backward(pred: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if np.any(targets < 0) or np.any(targets >= pred.shape[1]):
        raise ValueError("class id out of range")
    rows = np.arange(pred.shape[0])
    grad = np.zeros_like(pred)
    p = pred[rows, targets]
    above = p > _PROB_FLOOR
    grad[rows[above], targets[above]] = -1.0 / (pred.shape[0] * p[above])
    return grad


class Adam:
    """Adam with bias correction, stepping one ParamGroup at a time.

    Moments and the step count live on the group, so one optimizer can
    update several groups in different phases without the phases distorting
    each other's bias correction. The second-moment decay is ADAM_BETA2 and
    the denominator's floor ADAM_EPS.
    """

    def __init__(self, lr: float, beta1: float):
        self.lr = lr
        self.beta1 = beta1

    def step(self, params: ParamGroup) -> None:
        """One in-place update of every tensor in the group, a block of
        CHUNK entries at a time.

        Every tensor needs a gradient, and every gradient entry must be
        finite; otherwise nothing changes. The floating-point operations and
        their order are those of m = b1*m + (1-b1)*g,
        v = b2*v + (1-b2)*g*g, p -= lr*m_hat / (sqrt(v_hat) + eps) with
        b2 = ADAM_BETA2 and eps = ADAM_EPS, so the
        result is bit-identical to that formula.
        """
        if any(p.grad is None for p in params):
            raise ValueError("Adam.step needs a gradient for every tensor of the group")
        g = params.grad
        blocks = [slice(start, start + CHUNK) for start in range(0, g.size, CHUNK)]
        if not all(np.isfinite(g[blk]).all() for blk in blocks):
            raise NonFiniteError("non-finite gradient passed to Adam")
        params.steps += 1
        t = params.steps
        c1, c2 = 1.0 - self.beta1, 1.0 - ADAM_BETA2
        d1, d2 = 1.0 - self.beta1 ** t, 1.0 - ADAM_BETA2 ** t
        for blk in blocks:
            gb, m, v, p = g[blk], params.m[blk], params.v[blk], params.data[blk]
            a, b = params._scratch[:, : gb.size]
            m *= self.beta1
            np.multiply(gb, c1, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(gb, c2, out=a)
            a *= gb
            v += a
            np.divide(m, d1, out=a)
            a *= self.lr
            np.divide(v, d2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


def clip_weights(params: ParamGroup, c: float) -> None:
    """Clamp every parameter entry of the group to [-c, c]."""
    if c <= 0:
        raise ValueError("clip bound must be positive")
    np.clip(params.data, -c, c, out=params.data)
