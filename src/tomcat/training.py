"""Adversarial training engine for the generator/encoder pair.

Each iteration runs a critic phase (several WGAN updates of both critics,
followed by weight clipping) and then one mapper phase updating the
generator and encoder (and the classifier in supervised mode) on the
combined adversarial, cycle-consistency, and classification objective.
The cycle and classification weights are rebalanced every mapper step from
the ratio of adversarial-to-auxiliary gradient norms measured at the output
of the mapping that feeds each loss. Every batch-shaped array of an
iteration lives in the run's Workspace, made once by init_state and
dropped when train() returns.

A phase called on its own runs what train() runs: it draws its prior rows
from the state's generator, and adv_loss scores each critic over one
stacked [real; fake] batch. When train() aborts, on a non-finite loss
(NonFiniteLossError) or on prior draws that keep underflowing
(networks.SamplingError), the exception names the iteration and its records
hold the loss records of the iterations completed before it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import CsrRows, one_blas_thread
from .fileio import write_atomic
from .networks import (
    Network,
    PassBuffers,
    SamplingError,
    build_networks,
    network_table,
    pass_buffers,
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
    """Training aborted: a loss term or balancing factor went NaN/inf.

    ``records`` holds the loss records of the iterations completed before
    the abort; train() fills it in.
    """

    def __init__(self, iteration: int, term: str):
        super().__init__(f"non-finite value for '{term}' at iteration {iteration}")
        self.iteration = iteration
        self.term = term
        self.records: list[LossRecord] = []


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a run, checked when made: a bad value raises
    ConfigError, so a TrainConfig that exists is valid. It is frozen;
    dataclasses.replace makes a changed copy, checked in the same way."""

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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, not {value}")
        if self.num_topics < 1:
            raise ConfigError("num_topics must be >= 1")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch norm)")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.critic_steps < 1:
            raise ConfigError("critic_steps must be >= 1")
        for name in ("alpha", "clip_c", "lr_main", "lr_cls",
                     "lambda1_hat", "lambda2_hat", "lambda3_hat"):
            # `not x > 0`, not `x <= 0`: every comparison with NaN is false
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not (0 <= self.beta1_main < 1 and 0 <= self.beta1_cls < 1):
            raise ConfigError("beta1 values must lie in [0, 1)")
        if not 0 <= self.seed < 2**63:   # a checkpoint stores it as a signed 64-bit int
            raise ConfigError(f"seed must lie in [0, 2**63), not {self.seed}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


# the loss log's columns, in LossRecord's field order
LOSS_LOG_FIELDS = tuple(f.name for f in fields(LossRecord))


def write_loss_log(records: list[LossRecord], path: str | Path,
                   abort: str | None = None) -> None:
    """Header, one row per record and, for an aborted run, a final
    '# aborted: <abort>' line; written atomically."""
    lines = ["#" + "\t".join(LOSS_LOG_FIELDS)]
    lines.extend(r.tsv_line() for r in records)
    if abort is not None:
        lines.append(f"# aborted: {abort}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class RowBatch:
    """The rows idx of a CSR matrix, densified only when a step writes them."""

    rows: CsrRows
    idx: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.idx.size, self.rows.num_cols

    def densify(self, out: np.ndarray) -> np.ndarray:
        """The rows as a dense array, written over out."""
        if out.shape != self.shape:
            raise ShapeError(f"a batch of shape {self.shape}; the workspace holds {out.shape}")
        return self.rows.take(self.idx, out)


class _EpochBatcher:
    """Shuffled epochs over document rows; ragged tails trigger a reshuffle.
    Each batch is a RowBatch of the CSR rows."""

    def __init__(self, rows: CsrRows, labels: np.ndarray | None,
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
        return RowBatch(self.rows, idx), labels


class Workspace:
    """Every batch-shaped array of a training iteration, made once per run,
    so that no iteration after the first allocates one.

    x_pair and z_pair are the critics' stacked [real; fake] inputs. A step
    writes its documents and prior draws into the top halves, and the passes
    E(x) and G(z) write their outputs straight into the bottom halves. Each
    network pass has its PassBuffers: E(x), G(z), G(E(x)), E(G(z)), both
    critics over 2 * batch rows and the classifier when there is one; the
    two passes of E share their pool, as do the two of G, and E(G(z))'s
    input gradient takes G(E(x))'s output array (at V=2000 this sharing
    lowers the whole training run's peak RSS by about 2.3 MB). The passes
    of E and G share one weight-shaped scratch array for the second
    gradient term of each weight: the head of the critics' flat gradient
    buffer, critic_params.grad, which holds more entries than either weight
    of E or G. Only the mapper phase writes the scratch, and it computes no
    critic gradient; a critic step writes each critic gradient's first term
    over it before Adam reads it. The workspace holds no state between
    steps; a deep copy is a new one, on the copy of critic_params.
    """

    def __init__(self, table: list[tuple[str, int, int, bool]], hidden: int, batch: int,
                 critic_params: ParamGroup):
        self.args = (table, hidden, batch, critic_params)
        nets = {name: (in_dim, hidden, out_dim, softmax)
                for name, in_dim, out_dim, softmax in table}
        num_words, _, num_topics, _ = nets["E"]
        self.x_pair = np.empty((2 * batch, num_words))
        self.z_pair = np.empty((2 * batch, num_topics))
        self.real_x, self.real_z = self.x_pair[:batch], self.z_pair[:batch]
        scratch = critic_params.grad[:hidden * max(num_words, num_topics)]
        self.e_x = pass_buffers(*nets["E"], batch, out=self.z_pair[batch:], scratch=scratch)
        self.g_z = pass_buffers(*nets["G"], batch, out=self.x_pair[batch:], scratch=scratch)
        self.g_e_x = pass_buffers(*nets["G"], batch, grad=np.empty((batch, num_topics)),
                                  scratch=scratch, like=self.g_z)
        # E(G(z))'s backward runs after G(E(x))'s, which reads G(E(x)) last
        self.e_g_z = pass_buffers(*nets["E"], batch, grad=self.g_e_x.forward[-1]["y"],
                                  scratch=scratch, like=self.e_x)
        # the critics' input gradients: the fake rows only
        self.d_x = pass_buffers(*nets["D_X"], 2 * batch, grad=np.empty((batch, num_words)))
        self.d_z = pass_buffers(*nets["D_Z"], 2 * batch, grad=np.empty((batch, num_topics)))
        self.c = (pass_buffers(*nets["C"], batch, grad=np.empty((batch, num_topics)))
                  if "C" in nets else None)
        # |G(E(x)) - x| and |E(G(z)) - z|, then their l1 gradients
        self.x_cyc = np.empty((batch, num_words))
        self.z_cyc = np.empty((batch, num_topics))
        # the critics ascend real - fake: they descend its negation
        self.critic_up = np.vstack([np.full((batch, 1), -1.0 / batch),
                                    np.full((batch, 1), 1.0 / batch)])
        # the mappers descend the fake halves (-mean fake score) only
        self.mapper_up = np.vstack([np.zeros((batch, 1)), np.full((batch, 1), -1.0 / batch)])

    def __deepcopy__(self, memo):
        *args, critic_params = self.args
        return Workspace(*args, copy.deepcopy(critic_params, memo))


@dataclass
class TrainState:
    """Networks, optimizers and their parameter groups: both critics, the
    mappings E and G, and the classifier each form one ParamGroup with its
    own Adam moments and step count. The workspace holds the iteration's
    batch-shaped arrays; train drops it when it returns, and a phase makes
    it again from the network table (_workspace)."""

    config: TrainConfig
    encoder: Network
    generator: Network
    critic_x: Network
    critic_z: Network
    classifier: Network | None
    adam_main: Adam
    adam_cls: Adam | None
    critic_params: ParamGroup
    mapper_params: ParamGroup
    classifier_params: ParamGroup | None
    rng: np.random.Generator
    table: list[tuple[str, int, int, bool]]
    workspace: Workspace | None
    iteration: int = 0
    loss_log: list[LossRecord] = field(default_factory=list)


def init_state(config: TrainConfig, num_words: int, num_classes: int = 0) -> TrainState:
    """Networks, optimizers, rng and workspace for a config."""
    if config.supervised and num_classes < 2:
        raise ConfigError("supervised training needs at least 2 classes")
    rng = np.random.default_rng(config.seed)
    table = network_table(num_words, config.num_topics, num_classes if config.supervised else 0)
    nets = build_networks(table, config.hidden, rng)
    critic_params = ParamGroup(nets["D_X"].parameters() + nets["D_Z"].parameters())
    adam_cls = None
    classifier_params = None
    if config.supervised:
        adam_cls = Adam(lr=config.lr_cls, beta1=config.beta1_cls)
        classifier_params = ParamGroup(nets["C"].parameters())
    return TrainState(
        config=config,
        encoder=nets["E"],
        generator=nets["G"],
        critic_x=nets["D_X"],
        critic_z=nets["D_Z"],
        classifier=nets.get("C"),
        adam_main=Adam(lr=config.lr_main, beta1=config.beta1_main),
        adam_cls=adam_cls,
        critic_params=critic_params,
        mapper_params=ParamGroup(nets["E"].parameters() + nets["G"].parameters()),
        classifier_params=classifier_params,
        rng=rng,
        table=table,
        workspace=Workspace(table, config.hidden, config.batch_size, critic_params),
    )


def _workspace(state: TrainState) -> Workspace:
    """The state's workspace, made again if train dropped it."""
    if state.workspace is None:
        state.workspace = Workspace(state.table, state.config.hidden, state.config.batch_size,
                                    state.critic_params)
    return state.workspace


def adv_loss(critic, pair: np.ndarray, bufs: PassBuffers | None):
    """(mean critic(real) - mean critic(fake), critic cache), where real is
    pair's top half and fake its bottom half, scored in one train-mode pass
    that writes into bufs (a pass given None allocates).

    The critic ascends this; the mappings descend it through the fake term.
    Used in word space (D_X: documents vs G(z)) and in topic space (D_Z:
    prior draws vs E(x)). The critics end in BatchNorm -> Linear, so each
    train-mode forward has a constant score mean regardless of input;
    scoring the two halves separately would make the real/fake mean
    difference identically zero. Sharing one batch (and its statistics)
    keeps the loss informative.
    """
    scores, cache = critic.forward(pair, train=True, bufs=bufs)
    half = pair.shape[0] // 2
    return float(scores[:half].mean() - scores[half:].mean()), cache


def cycle_losses(generator, encoder, x: np.ndarray, z: np.ndarray, ws: Workspace):
    """(mean |G(E(x)) - x|_1, mean |E(G(z)) - z|_1, passes), in train mode.

    passes holds the (output, cache) pairs of E(x), G(z), G(E(x)) and
    E(G(z)), in that order, for the backward pass. The passes and losses
    write into the workspace.
    """
    e_x = encoder.forward(x, train=True, bufs=ws.e_x)
    g_z = generator.forward(z, train=True, bufs=ws.g_z)
    g_e_x = generator.forward(e_x[0], train=True, bufs=ws.g_e_x)
    e_g_z = encoder.forward(g_z[0], train=True, bufs=ws.e_g_z)
    return (l1_loss(g_e_x[0], x, out=ws.x_cyc),
            l1_loss(e_g_z[0], z, out=ws.z_cyc), (e_x, g_z, g_e_x, e_g_z))


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


def critic_phase(state: TrainState, x_batches: list[RowBatch]) -> None:
    """critic_steps WGAN updates of both critics, clipping after each.

    Each batch of batch_size documents is densified when its step runs.
    Generator and encoder produce the fake samples but receive no updates;
    their trainable parameters are untouched.
    """
    cfg = state.config
    if len(x_batches) != cfg.critic_steps:
        raise ConfigError(f"expected {cfg.critic_steps} critic batches, got {len(x_batches)}")
    critic_params, ws = state.critic_params, _workspace(state)
    for x in x_batches:
        x.densify(ws.real_x)
        z = sample_prior(cfg.num_topics, cfg.alpha, cfg.batch_size, state.rng)
        ws.real_z[...] = z
        # the fakes, into the pairs' bottom halves
        state.generator.forward(z, train=True, bufs=ws.g_z)
        state.encoder.forward(ws.real_x, train=True, bufs=ws.e_x)

        critic_params.zero_grad()
        # the critics' inputs are data here: no input gradient
        adv_x, cache_x = adv_loss(state.critic_x, ws.x_pair, ws.d_x)
        state.critic_x.backward(cache_x, ws.critic_up, input_rows=None, bufs=ws.d_x)
        adv_z, cache_z = adv_loss(state.critic_z, ws.z_pair, ws.d_z)
        state.critic_z.backward(cache_z, ws.critic_up, input_rows=None, bufs=ws.d_z)

        _check_finite(state, adv_x=adv_x, adv_z=adv_z)
        state.adam_main.step(critic_params)
        clip_weights(critic_params, cfg.clip_c)


def mapper_phase(state: TrainState, x: RowBatch, labels: np.ndarray | None) -> LossRecord:
    """One update of generator and encoder (plus classifier when supervised)
    on a batch of batch_size documents, with their class ids as labels (None
    when unsupervised). Critic parameters are read but never updated, and no
    gradient is computed for them. Gradient norms for the balancing factors
    are taken at G's output for the forward cycle pair and at E's output for
    the backward cycle and classification pairs.
    """
    cfg = state.config
    enc, gen, ws = state.encoder, state.generator, _workspace(state)
    batch = cfg.batch_size
    if cfg.supervised and labels is None:
        raise ConfigError("supervised mapper step needs labels")
    x = x.densify(ws.real_x)
    z = sample_prior(cfg.num_topics, cfg.alpha, batch, state.rng)
    ws.real_z[...] = z

    state.mapper_params.zero_grad()
    state.critic_params.zero_grad()
    if state.classifier_params is not None:
        state.classifier_params.zero_grad()

    # E(x) and G(z) write the pairs' bottom halves
    cyc_f, cyc_b, passes = cycle_losses(gen, enc, x, z, ws)
    (z_fake, cache_e1), (_, cache_g1), (x_rec, cache_g2), (z_rec, cache_e2) = passes
    adv_x, cache_dx = adv_loss(state.critic_x, ws.x_pair, ws.d_x)
    adv_z, cache_dz = adv_loss(state.critic_z, ws.z_pair, ws.d_z)

    # gradients of the mapper-relevant adversarial terms (the -mean fake-score
    # halves) at G(z) and E(x); the real halves are data, so only the fake
    # rows of the critics' input gradients are computed
    fake_rows = slice(batch, None)
    g_adv_at_xfake = state.critic_x.backward(cache_dx, ws.mapper_up, param_grads=False,
                                             input_rows=fake_rows, bufs=ws.d_x)
    g_adv_at_zfake = state.critic_z.backward(cache_dz, ws.mapper_up, param_grads=False,
                                             input_rows=fake_rows, bufs=ws.d_z)

    g_cyc_at_xrec = l1_loss_backward(x_rec, x, out=ws.x_cyc)
    g_cyc_at_zrec = l1_loss_backward(z_rec, z, out=ws.z_cyc)

    lam1 = balance(float(np.linalg.norm(g_adv_at_xfake)),
                   float(np.linalg.norm(g_cyc_at_xrec)), cfg.lambda1_hat)
    lam2 = balance(float(np.linalg.norm(g_adv_at_zfake)),
                   float(np.linalg.norm(g_cyc_at_zrec)), cfg.lambda2_hat)

    cls_value = 0.0
    lam3 = 0.0
    g_cls_at_zfake = None
    if cfg.supervised:
        probs, cache_c = state.classifier.forward(z_fake, train=True, bufs=ws.c)
        cls_value = cross_entropy(probs, labels)
        g_cls_at_zfake = state.classifier.backward(
            cache_c, cross_entropy_backward(probs, labels), bufs=ws.c)
        lam3 = balance(float(np.linalg.norm(g_adv_at_zfake)),
                       float(np.linalg.norm(g_cls_at_zfake)), cfg.lambda3_hat)
        # classifier gradients were accumulated unscaled; apply the weight now
        state.classifier_params.grad *= lam3

    # each gradient below is scaled or summed in place where it is read for
    # the last time: lam1 * g, g_adv + d, and so on, to the bit
    g_cyc_at_xrec *= lam1
    d_zfake_from_cyc = gen.backward(cache_g2, g_cyc_at_xrec, bufs=ws.g_e_x)
    g_cyc_at_zrec *= lam2
    d_xfake_from_cyc = enc.backward(cache_e2, g_cyc_at_zrec, bufs=ws.e_g_z)
    # z (prior draws) and x (documents) are data: no input gradient
    d_xfake_from_cyc += g_adv_at_xfake
    gen.backward(cache_g1, d_xfake_from_cyc, input_rows=None, bufs=ws.g_z)
    d_zfake_from_cyc += g_adv_at_zfake
    if g_cls_at_zfake is not None:
        g_cls_at_zfake *= lam3
        d_zfake_from_cyc += g_cls_at_zfake
    enc.backward(cache_e1, d_zfake_from_cyc, input_rows=None, bufs=ws.e_x)

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


def train(rows: CsrRows, config: TrainConfig,
          labels: np.ndarray | None = None,
          num_classes: int | None = None) -> TrainState:
    """Alternate critic and mapper phases over shuffled document epochs.

    rows are the (documents, words) matrix's CSR rows; each batch is
    densified from them into the workspace when its step runs. In
    supervised mode every label must lie in [0, num_classes), num_classes
    defaulting to the largest label plus one; this is checked before any
    network is built. Deterministic for a fixed
    config seed: initialization, batch order, and prior draws all come from
    one seeded generator, and BLAS runs on one thread while the loop runs
    (corpus.one_blas_thread), as a product split over threads may sum in
    another order. The returned state holds no workspace.
    """
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
        bad = labels[(labels < 0) | (labels >= num_classes)]
        if bad.size:
            raise ConfigError(f"label {bad[0]} out of range [0, {num_classes})")
    state = init_state(config, num_words=rows.shape[1],
                       num_classes=num_classes or 0)
    batcher = _EpochBatcher(rows, labels if config.supervised else None,
                            config.batch_size, state.rng)
    restore_blas = one_blas_thread()
    try:
        for it in range(config.iterations):
            state.iteration = it
            critic_phase(state, [batcher.next()[0] for _ in range(config.critic_steps)])
            x, y = batcher.next()
            mapper_phase(state, x, y)
    except NonFiniteLossError as exc:
        exc.records = state.loss_log
        raise
    except SamplingError as exc:
        aborted = SamplingError(f"{exc} at iteration {state.iteration}")
        aborted.records = state.loss_log
        raise aborted from exc
    finally:
        restore_blas()
    state.workspace = None   # its batch arrays would outlive the run (9.5 MiB at V=2000)
    return state
