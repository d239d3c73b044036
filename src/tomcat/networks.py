"""The five network stacks, the Dirichlet prior, and topic extraction helpers.

Encoder, generator, and classifier all share the shape
Linear -> LeakyReLU(0.1) -> BatchNorm -> Linear -> Softmax; the critics drop
the terminal softmax and emit one unbounded score per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import BatchNorm, LeakyReLU, Linear, Softmax, Tensor


class SamplingError(RuntimeError):
    """Prior sampling repeatedly produced degenerate (zero-sum) draws."""


class Network:
    """Ordered stack of layers with chained forward/backward passes."""

    def __init__(self, name: str, layers: list):
        self.name = name
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, train)
            caches.append(cache)
        return x, caches

    def backward(self, caches: list, grad_out: np.ndarray, param_grads: bool = True,
                 input_rows: slice | None = slice(None)) -> np.ndarray | None:
        """Chain the layers' backward passes from the output gradient.

        param_grads=False accumulates no parameter gradients, for a network
        that is only differentiated through. input_rows selects the rows of
        the returned input gradient; None returns none, for an input that is
        data. The first layer is a Linear, which takes input_rows.
        """
        for layer, cache in zip(reversed(self.layers[1:]), reversed(caches[1:])):
            grad_out = layer.backward(cache, grad_out, param_grads)
        return self.layers[0].backward(caches[0], grad_out, param_grads, input_rows)

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def state(self) -> dict[str, np.ndarray]:
        """All arrays defining the network, running statistics included."""
        out = {}
        for i, layer in enumerate(self.layers):
            for key, arr in layer.state().items():
                out[f"{i}.{key}"] = arr
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        state = self.state()
        if set(arrays) != set(state):
            raise ValueError(f"network {self.name}: state keys do not match")
        for key, arr in arrays.items():
            if arr.shape != state[key].shape:
                raise ValueError(
                    f"network {self.name}: shape {arr.shape} for {key}, "
                    f"expected {state[key].shape}")
            np.copyto(state[key], arr)


def make_encoder(num_words: int, hidden: int, num_topics: int,
                 rng: np.random.Generator) -> Network:
    return Network("E", [
        Linear(num_words, hidden, rng),
        LeakyReLU(0.1),
        BatchNorm(hidden),
        Linear(hidden, num_topics, rng),
        Softmax(),
    ])


def make_generator(num_topics: int, hidden: int, num_words: int,
                   rng: np.random.Generator) -> Network:
    return Network("G", [
        Linear(num_topics, hidden, rng),
        LeakyReLU(0.1),
        BatchNorm(hidden),
        Linear(hidden, num_words, rng),
        Softmax(),
    ])


def make_critic(name: str, in_dim: int, hidden: int,
                rng: np.random.Generator) -> Network:
    # no terminal squashing: WGAN critics emit raw scores
    return Network(name, [
        Linear(in_dim, hidden, rng),
        LeakyReLU(0.1),
        BatchNorm(hidden),
        Linear(hidden, 1, rng),
    ])


def make_classifier(num_topics: int, hidden: int, num_classes: int,
                    rng: np.random.Generator) -> Network:
    return Network("C", [
        Linear(num_topics, hidden, rng),
        LeakyReLU(0.1),
        BatchNorm(hidden),
        Linear(hidden, num_classes, rng),
        Softmax(),
    ])


@dataclass
class DirichletPrior:
    """Symmetric Dirichlet over the topic simplex (every concentration equals alpha)."""

    num_topics: int
    alpha: float

    def __post_init__(self):
        if self.num_topics < 1:
            raise ValueError("need at least one topic")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def sample_prior(prior: DirichletPrior, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet rows via normalized Gamma(alpha, 1) draws.

    Rows whose Gamma draws all underflow to zero are resampled; after 100
    failed rounds a SamplingError is raised.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    draws = rng.gamma(prior.alpha, 1.0, size=(batch, prior.num_topics))
    for _ in range(100):
        sums = draws.sum(axis=1)
        bad = sums <= 0.0
        if not bad.any():
            return draws / sums[:, None]
        draws[bad] = rng.gamma(prior.alpha, 1.0, size=(int(bad.sum()), prior.num_topics))
    raise SamplingError("prior draws kept underflowing to zero after 100 retries")


def topic_word_distributions(generator: Network) -> np.ndarray:
    """One word distribution per topic: one-hot indicator rows pushed through
    the generator in eval mode (the only deterministic choice)."""
    num_topics = generator.layers[0].in_dim
    probes = np.eye(num_topics)
    rows, _ = generator.forward(probes, train=False)
    return rows


def top_words(word_distribution: np.ndarray, vocab, n: int) -> list[str]:
    """The n most probable tokens, ties broken by ascending word id."""
    if not 1 <= n <= word_distribution.shape[0]:
        raise ValueError(f"n must be in [1, {word_distribution.shape[0]}]")
    order = np.argsort(-word_distribution, kind="stable")
    return [vocab.tokens[i] for i in order[:n]]
