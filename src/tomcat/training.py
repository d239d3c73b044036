"""Adversarial training engine for the generator/encoder pair.

Each iteration runs a critic phase (several WGAN updates of both critics,
followed by weight clipping) and then one mapper phase updating the
generator and encoder (and the classifier in supervised mode) on the
combined adversarial, cycle-consistency, and classification objective.
The cycle and classification weights are rebalanced every mapper step from
the ratio of adversarial-to-auxiliary gradient norms measured at the output
of the mapping that feeds each loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .networks import (
    DirichletPrior,
    Network,
    make_classifier,
    make_critic,
    make_encoder,
    make_generator,
    sample_prior,
)
from .nn import (
    Adam,
    NonFiniteError,
    ParamGroup,
    ShapeError,
    clip_weights,
    cross_entropy,
    cross_entropy_backward,
    l1_loss,
    l1_loss_backward,
)


class ConfigError(ValueError):
    """Invalid training configuration."""


class NonFiniteLossError(NonFiniteError):
    """Training aborted: a loss term or balancing factor went NaN/inf."""

    def __init__(self, iteration: int, term: str):
        super().__init__(f"non-finite value for '{term}' at iteration {iteration}")
        self.iteration = iteration
        self.term = term


@dataclass
class TrainConfig:
    num_topics: int
    hidden: int = 100
    alpha: float = 0.1
    batch_size: int = 64
    iterations: int = 5000
    critic_steps: int = 5
    clip_c: float = 0.01
    lr_main: float = 1e-4
    beta1_main: float = 0.5
    lr_cls: float = 1e-3
    beta1_cls: float = 0.9
    lambda1_hat: float = 2.0
    lambda2_hat: float = 0.2
    lambda3_hat: float = 1.0
    supervised: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.num_topics < 1:
            raise ConfigError("num_topics must be >= 1")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch norm)")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.critic_steps < 1:
            raise ConfigError("critic_steps must be >= 1")
        if self.clip_c <= 0:
            raise ConfigError("clip_c must be positive")
        for name in ("lr_main", "lr_cls", "beta1_main", "beta1_cls",
                     "lambda1_hat", "lambda2_hat", "lambda3_hat"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0 <= self.beta1_main < 1 and 0 <= self.beta1_cls < 1):
            raise ConfigError("beta1 values must lie in [0, 1)")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


LOSS_LOG_FIELDS = ("iteration", "adv_x", "adv_z", "cyc_forward", "cyc_backward",
                   "cls", "lambda1", "lambda2", "lambda3", "total")


@dataclass
class LossRecord:
    iteration: int
    adv_x: float
    adv_z: float
    cyc_forward: float
    cyc_backward: float
    cls: float
    lambda1: float
    lambda2: float
    lambda3: float
    total: float

    def tsv_line(self) -> str:
        vals = [f"{getattr(self, name):.9g}" for name in LOSS_LOG_FIELDS[1:]]
        return "\t".join([str(self.iteration)] + vals)


def write_loss_log(records: list[LossRecord], path: str | Path) -> None:
    lines = ["#" + "\t".join(LOSS_LOG_FIELDS)]
    lines.extend(r.tsv_line() for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _EpochBatcher:
    """Shuffled epochs over document rows; ragged tails trigger a reshuffle."""

    def __init__(self, rows: np.ndarray, labels: np.ndarray | None,
                 batch_size: int, rng: np.random.Generator):
        self.rows = rows
        self.labels = labels
        self.batch_size = batch_size
        self.rng = rng
        self.order = rng.permutation(rows.shape[0])
        self.pos = 0

    def next(self):
        if self.pos + self.batch_size > self.rows.shape[0]:
            self.order = self.rng.permutation(self.rows.shape[0])
            self.pos = 0
        idx = self.order[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        labels = self.labels[idx] if self.labels is not None else None
        return self.rows[idx], labels


@dataclass
class TrainState:
    """Networks, optimizers and their parameter groups: both critics, the
    mappings E and G, and the classifier each form one ParamGroup with its
    own Adam moments and step count."""

    config: TrainConfig
    encoder: Network
    generator: Network
    critic_x: Network
    critic_z: Network
    classifier: Network | None
    prior: DirichletPrior
    adam_main: Adam
    adam_cls: Adam | None
    critic_params: ParamGroup
    mapper_params: ParamGroup
    classifier_params: ParamGroup | None
    rng: np.random.Generator
    iteration: int = 0
    loss_log: list[LossRecord] = field(default_factory=list)


def init_state(config: TrainConfig, num_words: int, num_classes: int = 0) -> TrainState:
    config.validate()
    if config.supervised and num_classes < 2:
        raise ConfigError("supervised training needs at least 2 classes")
    rng = np.random.default_rng(config.seed)
    encoder = make_encoder(num_words, config.hidden, config.num_topics, rng)
    generator = make_generator(config.num_topics, config.hidden, num_words, rng)
    critic_x = make_critic("D_X", num_words, config.hidden, rng)
    critic_z = make_critic("D_Z", config.num_topics, config.hidden, rng)
    classifier = None
    adam_cls = None
    classifier_params = None
    if config.supervised:
        classifier = make_classifier(config.num_topics, config.hidden, num_classes, rng)
        adam_cls = Adam(lr=config.lr_cls, beta1=config.beta1_cls)
        classifier_params = ParamGroup(classifier.parameters())
    return TrainState(
        config=config,
        encoder=encoder,
        generator=generator,
        critic_x=critic_x,
        critic_z=critic_z,
        classifier=classifier,
        prior=DirichletPrior(config.num_topics, config.alpha),
        adam_main=Adam(lr=config.lr_main, beta1=config.beta1_main),
        adam_cls=adam_cls,
        critic_params=ParamGroup(critic_x.parameters() + critic_z.parameters()),
        mapper_params=ParamGroup(encoder.parameters() + generator.parameters()),
        classifier_params=classifier_params,
        rng=rng,
    )


def _critic_scores(critic, real: np.ndarray, fake: np.ndarray, train: bool):
    """Score real and fake rows in one forward pass.

    The critics end in BatchNorm -> Linear, so each train-mode forward has a
    constant score mean regardless of input; scoring the two batches
    separately would make the real/fake mean difference identically zero.
    Sharing one batch (and its statistics) keeps the loss informative.
    """
    if real.shape != fake.shape:
        raise ShapeError(f"real/fake shapes differ: {real.shape} vs {fake.shape}")
    scores, cache = critic.forward(np.vstack([real, fake]), train)
    return scores[: real.shape[0]], scores[real.shape[0]:], cache


def adv_loss(critic, real: np.ndarray, fake: np.ndarray, train: bool = True):
    """(mean critic(real) - mean critic(fake), critic cache).

    The critic ascends this; the mappings descend it through the fake term.
    Used in word space (D_X: documents vs G(z)) and in topic space (D_Z:
    prior draws vs E(x)).
    """
    real_scores, fake_scores, cache = _critic_scores(critic, real, fake, train)
    return float(real_scores.mean() - fake_scores.mean()), cache


def cycle_losses(generator, encoder, x: np.ndarray, z: np.ndarray, train: bool = True):
    """(mean |G(E(x)) - x|_1, mean |E(G(z)) - z|_1, passes).

    passes holds the (output, cache) pairs of E(x), G(z), G(E(x)) and
    E(G(z)), in that order, for the backward pass.
    """
    e_x = encoder.forward(x, train)
    g_z = generator.forward(z, train)
    g_e_x = generator.forward(e_x[0], train)
    e_g_z = encoder.forward(g_z[0], train)
    return l1_loss(g_e_x[0], x), l1_loss(e_g_z[0], z), (e_x, g_z, g_e_x, e_g_z)


_NORM_FLOOR = 1e-12


def balance(adv_grad_norm: float, aux_grad_norm: float, lambda_hat: float) -> float:
    """Auxiliary loss weight rescaled so its gradient at the shared activation
    has lambda_hat times the adversarial gradient's L2 norm. Treated as a
    constant: no gradient flows through the returned value."""
    if adv_grad_norm < 0 or aux_grad_norm < 0:
        raise ValueError("gradient norms must be nonnegative")
    return lambda_hat * adv_grad_norm / max(aux_grad_norm, _NORM_FLOOR)


def _check_finite(state: TrainState, **terms: float) -> None:
    for name, value in terms.items():
        if not np.isfinite(value):
            raise NonFiniteLossError(state.iteration, name)


def critic_phase(state: TrainState, x_batches: list[np.ndarray],
                 prior_batches: list[np.ndarray] | None = None) -> None:
    """critic_steps WGAN updates of both critics, clipping after each.

    Generator and encoder produce the fake samples but receive no updates;
    their trainable parameters are untouched.
    """
    cfg = state.config
    if len(x_batches) != cfg.critic_steps:
        raise ConfigError(f"expected {cfg.critic_steps} critic batches, got {len(x_batches)}")
    critic_params = state.critic_params
    for step, x in enumerate(x_batches):
        batch = x.shape[0]
        z = (prior_batches[step] if prior_batches is not None
             else sample_prior(state.prior, batch, state.rng))
        x_fake, _ = state.generator.forward(z, train=True)
        z_fake, _ = state.encoder.forward(x, train=True)

        critic_params.zero_grad()
        # ascend real - fake: descend its negation
        upstream = np.vstack([np.full((batch, 1), -1.0 / batch),
                              np.full((batch, 1), 1.0 / batch)])

        # the critics' inputs are data here: no input gradient
        adv_x, cache_x = adv_loss(state.critic_x, x, x_fake)
        state.critic_x.backward(cache_x, upstream, input_rows=None)
        adv_z, cache_z = adv_loss(state.critic_z, z, z_fake)
        state.critic_z.backward(cache_z, upstream, input_rows=None)

        _check_finite(state, adv_x=adv_x, adv_z=adv_z)
        state.adam_main.step(critic_params)
        clip_weights(critic_params, cfg.clip_c)


def mapper_phase(state: TrainState, x: np.ndarray,
                 labels: np.ndarray | None = None,
                 prior_batch: np.ndarray | None = None) -> LossRecord:
    """One update of generator and encoder (plus classifier when supervised).

    Critic parameters are read but never updated, and no gradient is
    computed for them. Gradient norms for the balancing factors are taken at
    G's output for the forward cycle pair and at E's output for the backward
    cycle and classification pairs.
    """
    cfg = state.config
    enc, gen = state.encoder, state.generator
    batch = x.shape[0]
    if cfg.supervised and labels is None:
        raise ConfigError("supervised mapper step needs labels")
    z = prior_batch if prior_batch is not None else sample_prior(state.prior, batch, state.rng)

    state.mapper_params.zero_grad()
    state.critic_params.zero_grad()
    if state.classifier_params is not None:
        state.classifier_params.zero_grad()

    cyc_f, cyc_b, passes = cycle_losses(gen, enc, x, z)
    (z_fake, cache_e1), (x_fake, cache_g1), (x_rec, cache_g2), (z_rec, cache_e2) = passes
    adv_x, cache_dx = adv_loss(state.critic_x, x, x_fake)
    adv_z, cache_dz = adv_loss(state.critic_z, z, z_fake)

    # gradients of the mapper-relevant adversarial terms (the -mean fake-score
    # halves) at G(z) and E(x); the real halves are data, so only the fake
    # rows of the critics' input gradients are computed
    up_fake = np.vstack([np.zeros((batch, 1)), np.full((batch, 1), -1.0 / batch)])
    fake_rows = slice(batch, None)
    g_adv_at_xfake = state.critic_x.backward(cache_dx, up_fake, param_grads=False,
                                             input_rows=fake_rows)
    g_adv_at_zfake = state.critic_z.backward(cache_dz, up_fake, param_grads=False,
                                             input_rows=fake_rows)

    g_cyc_at_xrec = l1_loss_backward(x_rec, x)
    g_cyc_at_zrec = l1_loss_backward(z_rec, z)

    lam1 = balance(float(np.linalg.norm(g_adv_at_xfake)),
                   float(np.linalg.norm(g_cyc_at_xrec)), cfg.lambda1_hat)
    lam2 = balance(float(np.linalg.norm(g_adv_at_zfake)),
                   float(np.linalg.norm(g_cyc_at_zrec)), cfg.lambda2_hat)

    cls_value = 0.0
    lam3 = 0.0
    g_cls_at_zfake = None
    if cfg.supervised:
        probs, cache_c = state.classifier.forward(z_fake, train=True)
        cls_value = cross_entropy(probs, labels)
        g_cls_at_zfake = state.classifier.backward(cache_c, cross_entropy_backward(probs, labels))
        lam3 = balance(float(np.linalg.norm(g_adv_at_zfake)),
                       float(np.linalg.norm(g_cls_at_zfake)), cfg.lambda3_hat)
        # classifier gradients were accumulated unscaled; apply the weight now
        state.classifier_params.grad *= lam3

    d_zfake_from_cyc = gen.backward(cache_g2, lam1 * g_cyc_at_xrec)
    d_xfake_from_cyc = enc.backward(cache_e2, lam2 * g_cyc_at_zrec)
    # z (prior draws) and x (documents) are data: no input gradient
    gen.backward(cache_g1, g_adv_at_xfake + d_xfake_from_cyc, input_rows=None)
    d_zfake_total = g_adv_at_zfake + d_zfake_from_cyc
    if g_cls_at_zfake is not None:
        d_zfake_total = d_zfake_total + lam3 * g_cls_at_zfake
    enc.backward(cache_e1, d_zfake_total, input_rows=None)

    total = adv_x + adv_z + lam1 * cyc_f + lam2 * cyc_b + lam3 * cls_value
    _check_finite(state, adv_x=adv_x, adv_z=adv_z, cyc_forward=cyc_f, cyc_backward=cyc_b,
                  cls=cls_value, lambda1=lam1, lambda2=lam2, lambda3=lam3, total=total)

    state.adam_main.step(state.mapper_params)
    if cfg.supervised:
        state.adam_cls.step(state.classifier_params)

    record = LossRecord(state.iteration, adv_x, adv_z, cyc_f, cyc_b, cls_value,
                        lam1, lam2, lam3, total)
    state.loss_log.append(record)
    return record


def train(rows: np.ndarray, config: TrainConfig,
          labels: np.ndarray | None = None,
          num_classes: int | None = None) -> TrainState:
    """Alternate critic and mapper phases over shuffled document epochs.

    Deterministic for a fixed config seed: initialization, batch order, and
    prior draws all come from one seeded generator.
    """
    config.validate()
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ConfigError("rows must be a 2-d document/word matrix")
    if rows.shape[0] < config.batch_size:
        raise ConfigError(
            f"corpus has {rows.shape[0]} rows, fewer than batch_size={config.batch_size}")
    if config.supervised:
        if labels is None:
            raise ConfigError("supervised training needs labels")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != rows.shape[0]:
            raise ConfigError("labels must align with rows")
        if num_classes is None:
            num_classes = int(labels.max()) + 1
    state = init_state(config, num_words=rows.shape[1],
                       num_classes=num_classes or 0)
    batcher = _EpochBatcher(rows, labels if config.supervised else None,
                            config.batch_size, state.rng)
    for it in range(config.iterations):
        state.iteration = it
        critic_phase(state, [batcher.next()[0] for _ in range(config.critic_steps)])
        x, y = batcher.next()
        mapper_phase(state, x, y)
    return state
