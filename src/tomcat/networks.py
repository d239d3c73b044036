"""The five network stacks, the Dirichlet prior sampler and topic helpers.

Every network has the shape Linear -> LeakyReLU -> BatchNorm -> Linear, with
nn's fixed settings: slope LEAKY_SLOPE, momentum BN_MOMENTUM and variance
floor BN_EPS. The encoder, generator and classifier end in a softmax, and the
critics emit one unbounded score per sample. network_table gives each
network's widths, and pass_buffers the arrays a train-mode pass writes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .nn import BatchNorm, LeakyReLU, Linear, Softmax, Tensor


class SamplingError(RuntimeError):
    """Prior sampling repeatedly produced degenerate (zero-sum) draws.

    Raised in training, its message ends with the iteration, and it carries
    as ``records`` the loss records of the iterations completed before it;
    training.train() sets both.
    """


class PassBuffers(NamedTuple):
    """Keyword arrays for each layer's forward and backward call in one
    train-mode pass of a network, and the pool of them that other passes of
    the network may share (see pass_buffers)."""

    forward: list[dict]
    backward: list[dict]
    pool: list[np.ndarray]


class Network:
    """Ordered stack of layers with chained forward/backward passes. A pass
    given PassBuffers writes into them; one given none allocates."""

    def __init__(self, name: str, layers: list):
        self.name = name
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool, bufs: PassBuffers | None = None):
        caches = []
        for layer, out in zip(self.layers, bufs.forward if bufs else [{}] * len(self.layers)):
            x, cache = layer.forward(x, train, **out)
            caches.append(cache)
        return x, caches

    def backward(self, caches: list, grad_out: np.ndarray, param_grads: bool = True,
                 input_rows: slice | None = slice(None),
                 bufs: PassBuffers | None = None) -> np.ndarray | None:
        """Chain the layers' backward passes from the output gradient.

        param_grads=False accumulates no parameter gradients, for a network
        that is only differentiated through. input_rows selects the rows of
        the returned input gradient; None returns none, for an input that is
        data. The first layer is a Linear, which takes input_rows.
        """
        outs = bufs.backward if bufs else [{}] * len(self.layers)
        for layer, cache, out in zip(reversed(self.layers[1:]), reversed(caches[1:]),
                                     reversed(outs[1:])):
            grad_out = layer.backward(cache, grad_out, param_grads, **out)
        return self.layers[0].backward(caches[0], grad_out, param_grads, input_rows, **outs[0])

    @property
    def widths(self) -> tuple[int, int, int]:
        """Input, hidden and output width: those of the first and the last Linear."""
        return self.layers[0].in_dim, self.layers[0].out_dim, self.layers[3].out_dim

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]

    def state(self) -> dict[str, np.ndarray]:
        """All arrays defining the network, running statistics included."""
        out = {}
        for i, layer in enumerate(self.layers):
            for key, arr in layer.state().items():
                out[f"{i}.{key}"] = arr
        return out

    def adopt_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Make the arrays named "<name>.<state key>" (state_shapes' names)
        the network's state, uncopied."""
        for i, layer in enumerate(self.layers):
            for key in layer.state():
                array = arrays[f"{self.name}.{i}.{key}"]
                if isinstance(getattr(layer, key), Tensor):
                    getattr(layer, key).data = array
                else:   # a running statistic
                    setattr(layer, key, array)


def network_table(num_words: int, num_topics: int,
                  num_classes: int = 0) -> list[tuple[str, int, int, bool]]:
    """(name, input width, output width, ends in softmax) of every network,
    in the order they are built from one rng and stored in a checkpoint.

    The WGAN critics D_X and D_Z emit one raw score per sample. The
    classifier C is there only when there are classes.
    """
    table = [("E", num_words, num_topics, True), ("G", num_topics, num_words, True),
             ("D_X", num_words, 1, False), ("D_Z", num_topics, 1, False)]
    if num_classes:
        table.append(("C", num_topics, num_classes, True))
    return table


def build_networks(table: list[tuple[str, int, int, bool]], hidden: int,
                   rng: np.random.Generator | None) -> dict[str, Network]:
    """Linear -> LeakyReLU -> BatchNorm -> Linear (-> Softmax) of the
    given hidden width for every row of a network_table, by name, drawing
    the weights from rng in table order. With rng None the Linear weights
    are left uninitialised, for networks whose state is loaded next."""
    networks = {}
    for name, in_dim, out_dim, softmax in table:
        layers = [Linear(in_dim, hidden, rng), LeakyReLU(), BatchNorm(hidden),
                  Linear(hidden, out_dim, rng)]
        networks[name] = Network(name, layers + [Softmax()] if softmax else layers)
    return networks


def pass_buffers(in_dim: int, hidden: int, out_dim: int, softmax: bool, batch: int, *,
                 out: np.ndarray | None = None, grad: np.ndarray | None = None,
                 scratch: np.ndarray | None = None,
                 like: PassBuffers | None = None) -> PassBuffers:
    """Every batch-shaped array that one train-mode forward and backward pass
    of batch rows through a network of build_networks' shape writes.

    out takes the network's output (a new array when None) and grad its
    input gradient (none when None: the input is data). scratch, a flat
    array of at least either Linear weight's size, takes a weight gradient
    term that is not the first since zero_grad.

    The arrays that only carry a value from one layer call to the next (a
    layer output that only the next layer reads, an inner layer's input
    gradient) form a pool that the forward and the backward pass share, as
    do the passes made with like, another pass of the same network: no two
    passes of one network run at the same time.
    """
    def new(width: int, dtype=np.float64) -> np.ndarray:
        return np.empty((batch, width), dtype)

    def weight(rows: int, cols: int) -> np.ndarray | None:
        return None if scratch is None else scratch[:rows * cols].reshape(rows, cols)

    if like is not None:
        pool = like.pool
    else:
        pool = [new(hidden) for _ in range(4)] + ([new(out_dim)] if softmax else [])
    if out is None:
        out = new(out_dim)
    forward = [{"y": pool[0]}, {"y": pool[1], "slope": new(hidden)},
               {"y": new(hidden), "x_hat": new(hidden)}, {"y": pool[4] if softmax else out}]
    backward = [{"gx": grad, "scratch": weight(hidden, in_dim)}, {"gx": pool[0]},
                {"gx": pool[1], "tmp": pool[2]},
                {"gx": pool[3], "scratch": weight(out_dim, hidden)}]
    if softmax:
        forward.append({"y": out})
        backward.append({"gx": pool[4]})
    return PassBuffers(forward, backward, pool)


def state_shapes(table: list[tuple[str, int, int, bool]],
                 hidden: int) -> dict[str, tuple[int, ...]]:
    """The shape of every array that build_networks(table, hidden, ...) makes,
    by network name and state key ("E.0.W", "G.2.running_var", ...), in
    table order. Allocates no array."""
    return {f"{name}.{key}": shape for name, in_dim, out_dim, _ in table for key, shape in (
        ("0.W", (hidden, in_dim)), ("0.b", (hidden,)), ("2.gamma", (hidden,)),
        ("2.beta", (hidden,)), ("2.running_mean", (hidden,)), ("2.running_var", (hidden,)),
        ("3.W", (out_dim, hidden)), ("3.b", (out_dim,)))}


def sample_prior(num_topics: int, alpha: float, batch: int,
                 rng: np.random.Generator) -> np.ndarray:
    """batch rows of the symmetric Dirichlet(alpha) over num_topics topics,
    via normalized Gamma(alpha, 1) draws. The callers' configs have checked
    that num_topics >= 1 and alpha > 0.

    Rows whose Gamma draws all underflow to zero are resampled; after 100
    failed rounds a SamplingError is raised.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    draws = rng.gamma(alpha, 1.0, size=(batch, num_topics))
    for _ in range(100):
        sums = draws.sum(axis=1)
        bad = sums <= 0.0
        if not bad.any():
            return draws / sums[:, None]
        draws[bad] = rng.gamma(alpha, 1.0, size=(int(bad.sum()), num_topics))
    raise SamplingError("prior draws kept underflowing to zero after 100 retries")


def topic_word_distributions(generator: Network) -> np.ndarray:
    """One word distribution per topic: one-hot indicator rows pushed through
    the generator in eval mode (the only deterministic choice)."""
    num_topics = generator.layers[0].in_dim
    probes = np.eye(num_topics)
    rows, _ = generator.forward(probes, train=False)
    return rows


def top_word_ids(word_distribution: np.ndarray, n: int) -> list[int]:
    """Ids of the n most probable words, ties broken by ascending word id:
    np.argsort(-word_distribution, kind="stable")[:n], NaN last.

    Only the ids whose key is at or below the n-th smallest key of
    -word_distribution are sorted.
    """
    if not 1 <= n <= word_distribution.shape[0]:
        raise ValueError(f"n must be in [1, {word_distribution.shape[0]}]")
    key = -word_distribution
    kth = np.partition(key, n - 1)[n - 1]
    # not above the n-th key; NaN sorts last, so a NaN there keeps every id
    ids = np.flatnonzero(~(key > kth))
    return ids[np.argsort(key[ids], kind="stable")[:n]].tolist()


def top_words(word_distribution: np.ndarray, vocab, n: int) -> list[str]:
    """The n most probable tokens, ties broken by ascending word id."""
    return [vocab.tokens[i] for i in top_word_ids(word_distribution, n)]
