import copy
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_grad_close, csr_from_dense, numerical_grad, row_batch
from test_networks import build_one
import tomcat.training as training_module
from tomcat.cli import main
from tomcat.corpus import blas_threads
from tomcat.networks import sample_prior
from tomcat.nn import BatchNorm, ShapeError
from tomcat.training import (
    ConfigError,
    NonFiniteLossError,
    TrainConfig,
    _EpochBatcher,
    adv_loss,
    balance,
    critic_phase,
    cycle_losses,
    init_state,
    mapper_phase,
    train,
)


class _StubNet:
    """Duck-typed network computing an arbitrary row-wise function."""

    def __init__(self, fn):
        self.fn = fn

    def forward(self, x, train, bufs=None):
        return self.fn(x), None


def small_config(**kw):
    base = dict(num_topics=3, hidden=8, batch_size=16, iterations=4,
                critic_steps=5, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def prior_rows(cfg, batch, seed):
    """batch draws from cfg's topic prior, from a generator of their own."""
    return sample_prior(cfg.num_topics, cfg.alpha, batch, np.random.default_rng(seed))


def simplex_rows(n, v, seed):
    raw = np.random.default_rng(seed).uniform(0.01, 1, size=(n, v))
    return raw / raw.sum(axis=1, keepdims=True)


BAD_CONFIG_VALUES = [
    ("num_topics", 0, "num_topics must be >= 1"),
    ("hidden", 0, "hidden must be >= 1"),
    ("batch_size", 1, "batch_size must be >= 2"),
    ("iterations", -1, "iterations must be >= 0"),
    ("critic_steps", 0, "critic_steps must be >= 1"),
    ("alpha", 0.0, "alpha must be positive"),
    ("clip_c", -0.01, "clip_c must be positive"),
    ("lr_main", 0.0, "lr_main must be positive"),
    ("lr_cls", 0.0, "lr_cls must be positive"),
    ("lambda1_hat", 0.0, "lambda1_hat must be positive"),
    ("lambda2_hat", -1.0, "lambda2_hat must be positive"),
    ("lambda3_hat", 0.0, "lambda3_hat must be positive"),
    ("beta1_main", 1.0, "beta1 values must lie in [0, 1)"),
    ("beta1_cls", -0.1, "beta1 values must lie in [0, 1)"),
    ("seed", -1, "seed must lie in [0, 2**63), not -1"),
    ("seed", 2 ** 63, f"seed must lie in [0, 2**63), not {2 ** 63}"),
    ("lr_main", math.nan, "lr_main must be finite, not nan"),
    ("alpha", math.inf, "alpha must be finite, not inf"),
    ("beta1_cls", -math.inf, "beta1_cls must be finite, not -inf"),
]


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", BAD_CONFIG_VALUES,
                             ids=[f"{field}={value}" for field, value, _ in BAD_CONFIG_VALUES])
    def test_bad_value_rejected_at_construction(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            TrainConfig(**{"num_topics": 3, field: value})

    @pytest.mark.parametrize("field, value, message", BAD_CONFIG_VALUES[:4],
                             ids=[f"{field}={value}" for field, value, _ in BAD_CONFIG_VALUES[:4]])
    def test_frozen_and_replace_checks_again(self, field, value, message):
        cfg = TrainConfig(num_topics=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = math.nan
        assert cfg == TrainConfig(num_topics=3)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(cfg, **{field: value})


class TestAdvLosses:
    # adv_loss scores a stacked [real; fake] pair, as the phases hand it
    def test_constant_critic_cancels(self):
        critic = _StubNet(lambda x: np.full((x.shape[0], 1), 3.7))
        pair = np.vstack([simplex_rows(8, 5, 0), simplex_rows(8, 5, 1)])
        assert adv_loss(critic, pair, None)[0] == 0.0

    def test_row_sum_critic_on_simplex(self):
        critic = _StubNet(lambda x: x.sum(axis=1, keepdims=True))
        loss, _ = adv_loss(critic, np.vstack([simplex_rows(6, 4, 2), simplex_rows(6, 4, 3)]),
                           None)
        assert abs(loss) < 1e-12

    def test_identical_batches_cancel(self):
        critic = build_one("D_X", np.random.default_rng(4), 6, words=5)
        x = simplex_rows(8, 5, 5)
        assert abs(adv_loss(critic, np.vstack([x, x]), None)[0]) < 1e-12

    def test_uniform_score_gap(self):
        critic = _StubNet(lambda x: np.where(x[:, :1] > 0.5, 1.0, 0.5))
        z_real = np.full((4, 3), 0.9)
        z_fake = np.full((4, 3), 0.1)
        assert adv_loss(critic, np.vstack([z_real, z_fake]), None)[0] == 0.5


class TestCycleLosses:
    def test_identity_maps_give_zero(self):
        ident = _StubNet(lambda x: x)
        x = simplex_rows(5, 4, 6)
        z = simplex_rows(5, 4, 7)
        ws = init_state(small_config(num_topics=4, batch_size=5), num_words=4).workspace
        assert cycle_losses(ident, ident, x, z, ws)[:2] == (0.0, 0.0)

    def test_nonnegative_and_bounded_on_simplex(self):
        state = init_state(small_config(), num_words=9)
        x = simplex_rows(16, 9, 8)
        z = prior_rows(state.config, 16, 9)
        fwd, bwd, _ = cycle_losses(state.generator, state.encoder, x, z, state.workspace)
        assert fwd >= 0 and bwd >= 0
        # the L1 diameter of the probability simplex is 2
        assert fwd <= 2.0 + 1e-12 and bwd <= 2.0 + 1e-12


class TestBalance:
    def test_equal_norms_returns_lambda_hat(self):
        assert balance(0.37, 0.37, 2.0) == 2.0

    def test_zero_aux_guarded(self):
        lam = balance(1.0, 0.0, 2.0)
        assert np.isfinite(lam)
        assert lam == 2.0 * 1.0 / 1e-12

    def test_zero_adv_gives_zero(self):
        assert balance(0.0, 5.0, 2.0) == 0.0

    def test_scale_invariance(self):
        # scaling the auxiliary loss by c rescales lambda by 1/c, leaving the
        # effective gradient unchanged
        rng = np.random.default_rng(10)
        grad = rng.normal(size=(4, 6))
        adv_norm = 0.8
        aux_norm = float(np.linalg.norm(grad))
        for c in (0.01, 0.5, 3.0, 1000.0):
            lam_base = balance(adv_norm, aux_norm, 2.0)
            lam_scaled = balance(adv_norm, c * aux_norm, 2.0)
            np.testing.assert_allclose(lam_scaled * c * grad, lam_base * grad,
                                       rtol=0, atol=1e-9)


class TestCriticPhase:
    def test_clipping_invariant_and_phase_isolation(self):
        cfg = small_config()
        state = init_state(cfg, num_words=12)
        rows = simplex_rows(200, 12, 12)
        mapper_before = [p.data.copy() for p in state.mapper_params]
        critic_phase(state, [row_batch(rows[i * 16:(i + 1) * 16]) for i in range(5)])
        for p in state.critic_params:
            assert np.all(np.abs(p.data) <= cfg.clip_c)
        for before, p in zip(mapper_before, state.mapper_params):
            np.testing.assert_array_equal(before, p.data)

    def test_wrong_batch_count_rejected(self):
        state = init_state(small_config(), num_words=12)
        with pytest.raises(ConfigError):
            critic_phase(state, [row_batch(simplex_rows(16, 12, 13))])

    def test_critic_improves_on_frozen_mappers(self):
        # smoke oracle: the critics' objective (real - fake) should rise
        # over repeated critic phases with G and E frozen
        cfg = small_config(num_topics=3, hidden=8, batch_size=16, critic_steps=5, seed=14)
        state = init_state(cfg, num_words=12)
        rows = simplex_rows(400, 12, 15)
        rng = np.random.default_rng(16)
        probe_x = rows[:64]
        probe_z = prior_rows(state.config, 64, 17)
        probe_xf, _ = state.generator.forward(probe_z, train=True)
        probe_zf, _ = state.encoder.forward(probe_x, train=True)

        def critic_objective():
            return (adv_loss(state.critic_x, np.vstack([probe_x, probe_xf]), None)[0]
                    + adv_loss(state.critic_z, np.vstack([probe_z, probe_zf]), None)[0])

        start = critic_objective()
        for _ in range(100):
            idx = rng.choice(rows.shape[0], size=(5, 16), replace=True)
            critic_phase(state, [row_batch(rows[i]) for i in idx])
        assert critic_objective() > start

    def test_gradients_match_finite_differences(self):
        cfg = small_config(num_topics=3, hidden=4, batch_size=5, critic_steps=1, seed=18)
        state = init_state(cfg, num_words=6)
        x = simplex_rows(5, 6, 19)
        # the draw the phase makes, from a copy of the state's generator
        z = sample_prior(cfg.num_topics, cfg.alpha, 5, copy.deepcopy(state.rng))
        x_fake, _ = state.generator.forward(z, train=True)

        reference = copy.deepcopy(state)
        critic_phase(reference, [row_batch(x)])

        def neg_adv(critic, real, fake):
            bn = [l for l in critic.layers if isinstance(l, BatchNorm)][0]
            saved = (bn.running_mean.copy(), bn.running_var.copy())
            value = -adv_loss(critic, np.vstack([real, fake]), None)[0]
            bn.running_mean, bn.running_var = saved
            return value

        for p, ref_p in zip(state.critic_x.parameters(), reference.critic_x.parameters()):
            fd = numerical_grad(lambda _: neg_adv(state.critic_x, x, x_fake), p.data)
            assert_grad_close(ref_p.grad, fd, rtol=1e-4, atol=1e-8)


class TestMapperPhase:
    def test_critics_untouched(self):
        state = init_state(small_config(), num_words=12)
        critic_before = [p.data.copy() for p in state.critic_params]
        mapper_phase(state, row_batch(simplex_rows(16, 12, 21)), None)
        for before, p in zip(critic_before, state.critic_params):
            np.testing.assert_array_equal(before, p.data)

    def test_zero_critics_and_zero_lambdas_give_zero_gradients(self):
        state = init_state(small_config(), num_words=12)
        for p in state.critic_params:
            p.data[:] = 0.0
        # zero weights break TrainConfig's rules, so they are set past its
        # frozen fields: this test only reads the gradients they give
        object.__setattr__(state.config, "lambda1_hat", 0.0)
        object.__setattr__(state.config, "lambda2_hat", 0.0)
        gen_before = [p.data.copy() for p in state.generator.parameters()]
        mapper_phase(state, row_batch(simplex_rows(16, 12, 22)), None)
        for p in state.generator.parameters():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
        for before, p in zip(gen_before, state.generator.parameters()):
            np.testing.assert_array_equal(before, p.data)

    def test_no_critic_gradients(self):
        state = init_state(small_config(), num_words=12)
        rows = simplex_rows(96, 12, 40)
        critic_phase(state, [row_batch(rows[i * 16:(i + 1) * 16]) for i in range(5)])
        assert all(p.grad is not None for p in state.critic_params)
        mapper_phase(state, row_batch(rows[80:]), None)
        assert all(p.grad is None for p in state.critic_params)
        assert all(p.grad is not None for p in state.mapper_params)

    def test_batch_of_another_size_rejected(self):
        state = init_state(small_config(), num_words=12)
        with pytest.raises(ShapeError, match="a batch of shape"):
            mapper_phase(state, row_batch(simplex_rows(8, 12, 23)), None)

    def test_supervised_requires_labels(self):
        cfg = small_config(supervised=True)
        state = init_state(cfg, num_words=12, num_classes=2)
        with pytest.raises(ConfigError):
            mapper_phase(state, row_batch(simplex_rows(16, 12, 23)), None)

    def test_loss_record_bookkeeping(self):
        cfg = small_config(supervised=True)
        state = init_state(cfg, num_words=12, num_classes=3)
        labels = np.random.default_rng(24).integers(0, 3, size=16)
        rec = mapper_phase(state, row_batch(simplex_rows(16, 12, 25)), labels)
        recomputed = (rec.adv_x + rec.adv_z + rec.lambda1 * rec.cyc_forward
                      + rec.lambda2 * rec.cyc_backward + rec.lambda3 * rec.cls)
        assert abs(recomputed - rec.total) < 1e-9


class TestStateCopy:
    @pytest.mark.parametrize("supervised", [False, True])
    def test_deepcopy_trains_identically(self, supervised):
        cfg = small_config(supervised=supervised)
        rows = simplex_rows(96, 12, 41)
        labels = np.random.default_rng(42).integers(0, 2, size=16)
        state = init_state(cfg, num_words=12, num_classes=2)
        critic_phase(state, [row_batch(rows[i * 16:(i + 1) * 16]) for i in range(5)])
        clone = copy.deepcopy(state)
        for s in (state, clone):
            critic_phase(s, [row_batch(rows[i * 16:(i + 1) * 16]) for i in range(5)])
            mapper_phase(s, row_batch(rows[80:]), labels)
        groups = [(state.critic_params, clone.critic_params),
                  (state.mapper_params, clone.mapper_params)]
        if supervised:
            groups.append((state.classifier_params, clone.classifier_params))
        for orig, copied in groups:
            assert not np.shares_memory(orig.data, copied.data)
            assert orig.steps == copied.steps
            np.testing.assert_array_equal(orig.data, copied.data)
            for p, q in zip(orig, copied):
                assert np.shares_memory(q.data, copied.data)
                np.testing.assert_array_equal(p.data, q.data)


class TestTrain:
    def test_deterministic_for_fixed_seed(self):
        rows = csr_from_dense(simplex_rows(80, 10, 29))
        states = [train(rows, small_config(num_topics=3, hidden=6, iterations=3))
                  for _ in range(2)]
        for net_a, net_b in zip(
                (states[0].encoder, states[0].generator, states[0].critic_x, states[0].critic_z),
                (states[1].encoder, states[1].generator, states[1].critic_x, states[1].critic_z)):
            for key, arr in net_a.state().items():
                np.testing.assert_array_equal(arr, net_b.state()[key])

    def test_zero_iterations_keeps_initialization(self):
        rows = csr_from_dense(simplex_rows(80, 10, 30))
        cfg = small_config(num_topics=3, hidden=6, iterations=0)
        trained = train(rows, cfg)
        fresh = init_state(cfg, num_words=10)
        for key, arr in trained.encoder.state().items():
            np.testing.assert_array_equal(arr, fresh.encoder.state()[key])

    def test_unsupervised_ignores_labels(self):
        rows = csr_from_dense(simplex_rows(80, 10, 31))
        labels = np.random.default_rng(32).integers(0, 2, size=80)
        a = train(rows, small_config(num_topics=3, hidden=6, iterations=3))
        b = train(rows, small_config(num_topics=3, hidden=6, iterations=3), labels=labels)
        for key, arr in a.generator.state().items():
            np.testing.assert_array_equal(arr, b.generator.state()[key])

    def test_supervised_without_labels_rejected(self):
        rows = csr_from_dense(simplex_rows(80, 10, 33))
        with pytest.raises(ConfigError):
            train(rows, small_config(supervised=True))

    @pytest.mark.parametrize("bad, num_classes", [(7, 3), (-1, 3), (-1, None)])
    def test_label_out_of_range_rejected_before_any_phase(self, monkeypatch, bad,
                                                          num_classes):
        def must_not_run(*args, **kwargs):
            raise AssertionError("training started")

        for name in ("init_state", "critic_phase", "mapper_phase"):
            monkeypatch.setattr(f"tomcat.training.{name}", must_not_run)
        labels = np.tile([0, 1, 2, bad], 20)   # None infers 3 classes from the 2s
        with pytest.raises(ConfigError, match=re.escape(f"label {bad} out of range [0, 3)")):
            train(csr_from_dense(simplex_rows(80, 10, 37)), small_config(supervised=True),
                  labels=labels, num_classes=num_classes)

    def test_corpus_smaller_than_batch_rejected(self):
        rows = csr_from_dense(simplex_rows(8, 10, 34))
        with pytest.raises(ConfigError):
            train(rows, small_config(batch_size=16))

    def test_non_finite_abort_names_iteration_and_term(self):
        state = init_state(small_config(), num_words=12)
        state.iteration = 7
        bad = simplex_rows(16, 12, 35)
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            mapper_phase(state, row_batch(bad), None)
        assert err.value.iteration == 7
        assert err.value.term in ("adv_x", "adv_z", "cyc_forward", "cyc_backward",
                                  "lambda1", "lambda2", "total")

    def test_supervised_training_runs_and_logs(self):
        rows = csr_from_dense(simplex_rows(80, 10, 36))
        labels = np.random.default_rng(37).integers(0, 2, size=80)
        cfg = small_config(num_topics=3, hidden=6, iterations=3, supervised=True)
        state = train(rows, cfg, labels=labels)
        assert len(state.loss_log) == 3
        rec = state.loss_log[-1]
        assert rec.lambda3 > 0 and np.isfinite(rec.cls)

    def test_blas_on_one_thread_while_training_and_restored(self, monkeypatch):
        threads = blas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS has no thread setter that could be found")
        get, set_threads = threads
        seen = []
        critic = training_module.critic_phase

        def noted(*args):
            seen.append(get())
            return critic(*args)

        def abort(*args):
            seen.append(get())
            raise NonFiniteLossError(0, "total")

        rows = csr_from_dense(simplex_rows(80, 10, 38))
        before = get()
        set_threads(2)
        try:
            monkeypatch.setattr(training_module, "critic_phase", noted)
            train(rows, small_config(iterations=2))
            assert (seen, get()) == ([1, 1], 2)
            monkeypatch.setattr(training_module, "critic_phase", abort)
            with pytest.raises(NonFiniteLossError):
                train(rows, small_config(iterations=2))
            assert (seen, get()) == ([1, 1, 1], 2)
        finally:
            set_threads(before)

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path, capsys):
        # at V=2000 a product split over two BLAS threads can sum in another
        # order: run at the thread count it was started with, train wrote
        # another checkpoint at two threads than at one
        assert main(["synth", "--k", "20", "--words-per-topic", "100", "--docs", "300",
                     "--doc-len", "60", "--seed", "0", "--out", str(tmp_path / "raw")]) == 0
        assert main(["ingest", "--docs", str(tmp_path / "raw" / "docs.txt"),
                     "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        src = Path(training_module.__file__).parents[1]
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.ckpt"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, "-m", "tomcat", "train", "--data", str(tmp_path / "data"),
                 "--topics", "20", "--iters", "4", "--seed", "0", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append([hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in (out, Path(f"{out}.losses.tsv"))])
        assert digests[0] == digests[1]


class TestWorkspace:
    @pytest.mark.parametrize("supervised", [False, True])
    def test_iteration_after_the_first_allocates_no_batch_shaped_array(self, supervised):
        # V=2000, K=20, H=100 and batch 64: the ng20 bench's shape
        rng = np.random.default_rng(50)
        dense = rng.uniform(size=(200, 2000))
        dense[dense < 0.95] = 0.0
        dense /= dense.sum(axis=1, keepdims=True)
        labels = np.arange(200) % 3
        cfg = TrainConfig(num_topics=20, batch_size=64, supervised=supervised, seed=51)
        state = init_state(cfg, num_words=2000, num_classes=3)
        batcher = _EpochBatcher(csr_from_dense(dense), labels, 64, state.rng)

        def iteration():
            # as train() runs one: the batches drawn, then the two phases
            critic_phase(state, [batcher.next()[0] for _ in range(cfg.critic_steps)])
            x, y = batcher.next()
            mapper_phase(state, x, y)

        iteration()
        tracemalloc.start()
        try:
            iteration()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(state.loss_log) == 2
        assert peak < np.empty((64, 2000)).nbytes, peak

    @pytest.mark.parametrize("supervised", [False, True])
    def test_phase_after_train_equals_one_on_a_state_that_kept_its_workspace(
            self, monkeypatch, supervised):
        # train returns its state without the workspace; a phase called on
        # it makes a new one and gives the bytes of the same phase on a copy
        # of the state taken, workspace and all, at train's last step
        import tomcat.training as training
        rows = csr_from_dense(simplex_rows(80, 10, 52))
        labels = np.arange(80) % 2
        cfg = small_config(num_topics=3, hidden=6, iterations=3, supervised=supervised)
        mapper, kept = training.mapper_phase, []

        def copied(state, x, y):
            record = mapper(state, x, y)
            kept[:] = [copy.deepcopy(state)]
            return record

        monkeypatch.setattr(training, "mapper_phase", copied)
        returned = train(rows, cfg, labels=labels)
        assert returned.workspace is None and kept[0].workspace is not None
        batches = [row_batch(simplex_rows(cfg.batch_size, 10, 54 + k))
                   for k in range(cfg.critic_steps + 1)]
        y = np.arange(cfg.batch_size) % 2 if supervised else None
        for state in (returned, kept[0]):
            critic_phase(state, batches[:cfg.critic_steps])
            mapper(state, batches[-1], y)
        assert returned.workspace is not None
        for net in ("encoder", "generator", "critic_x", "critic_z", "classifier"):
            if getattr(returned, net) is None:
                continue
            for key, arr in getattr(returned, net).state().items():
                assert arr.tobytes() == getattr(kept[0], net).state()[key].tobytes(), (net, key)
        assert returned.loss_log[-1] == kept[0].loss_log[-1]
        assert returned.rng.bit_generator.state == kept[0].rng.bit_generator.state


class TestEpochBatcher:
    def test_csr_batches_equal_the_dense_gather(self):
        # the dense batcher the CSR one replaced, kept as the oracle: the same
        # rng calls, and each batch gathered as rows[idx]
        dense = simplex_rows(70, 30, 40)
        dense[dense < 0.025] = 0.0
        dense[[3, 41]] = 0.0
        labels = np.arange(70) % 4
        batcher = _EpochBatcher(csr_from_dense(dense), labels, 16,
                                np.random.default_rng(3))
        rng = np.random.default_rng(3)
        order, pos = rng.permutation(70), 0
        # one buffer for every batch, as a training run's workspace holds:
        # each write must clear what the batch before left
        buffer = np.full((16, 30), np.nan)
        for _ in range(5 * 5):   # five epochs of four batches and a ragged tail
            if pos + 16 > 70:
                order, pos = rng.permutation(70), 0
            idx = order[pos:pos + 16]
            pos += 16
            x, y = batcher.next()
            assert x.shape == (16, 30)
            assert x.densify(buffer) is buffer
            assert buffer.tobytes() == dense[idx].tobytes()
            assert y.tobytes() == labels[idx].tobytes()
        assert (dense == 0).any() and (dense > 0).any()
