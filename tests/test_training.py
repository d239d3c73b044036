import copy

import numpy as np
import pytest

from conftest import assert_grad_close, numerical_grad
from tomcat.networks import make_critic, sample_prior
from tomcat.nn import BatchNorm, l1_loss
from tomcat.training import (
    ConfigError,
    NonFiniteLossError,
    TrainConfig,
    _critic_scores,
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

    def forward(self, x, train):
        return self.fn(x), None


def small_config(**kw):
    base = dict(num_topics=3, hidden=8, batch_size=16, iterations=4,
                critic_steps=5, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def simplex_rows(n, v, seed):
    raw = np.random.default_rng(seed).uniform(0.01, 1, size=(n, v))
    return raw / raw.sum(axis=1, keepdims=True)


class TestAdvLosses:
    def test_constant_critic_cancels(self):
        critic = _StubNet(lambda x: np.full((x.shape[0], 1), 3.7))
        x = simplex_rows(8, 5, 0)
        assert adv_loss(critic, x, simplex_rows(8, 5, 1))[0] == 0.0

    def test_row_sum_critic_on_simplex(self):
        critic = _StubNet(lambda x: x.sum(axis=1, keepdims=True))
        loss, _ = adv_loss(critic, simplex_rows(6, 4, 2), simplex_rows(6, 4, 3))
        assert abs(loss) < 1e-12

    def test_identical_batches_cancel(self):
        critic = make_critic("D_X", 5, 6, np.random.default_rng(4))
        x = simplex_rows(8, 5, 5)
        assert abs(adv_loss(critic, x, x.copy())[0]) < 1e-12

    def test_uniform_score_gap(self):
        critic = _StubNet(lambda x: np.where(x[:, :1] > 0.5, 1.0, 0.5))
        z_real = np.full((4, 3), 0.9)
        z_fake = np.full((4, 3), 0.1)
        assert adv_loss(critic, z_real, z_fake)[0] == 0.5

    def test_shape_mismatch(self):
        critic = _StubNet(lambda x: x.sum(axis=1, keepdims=True))
        with pytest.raises(ValueError):
            adv_loss(critic, np.zeros((2, 3)), np.zeros((3, 3)))


class TestCycleLosses:
    def test_identity_maps_give_zero(self):
        ident = _StubNet(lambda x: x)
        x = simplex_rows(5, 4, 6)
        z = simplex_rows(5, 4, 7)
        assert cycle_losses(ident, ident, x, z)[:2] == (0.0, 0.0)

    def test_nonnegative_and_bounded_on_simplex(self):
        state = init_state(small_config(), num_words=9)
        x = simplex_rows(16, 9, 8)
        z = sample_prior(state.prior, 16, np.random.default_rng(9))
        fwd, bwd, _ = cycle_losses(state.generator, state.encoder, x, z)
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
        critic_phase(state, [rows[i * 16:(i + 1) * 16] for i in range(5)])
        for p in state.critic_params:
            assert np.all(np.abs(p.data) <= cfg.clip_c)
        for before, p in zip(mapper_before, state.mapper_params):
            np.testing.assert_array_equal(before, p.data)

    def test_wrong_batch_count_rejected(self):
        state = init_state(small_config(), num_words=12)
        with pytest.raises(ConfigError):
            critic_phase(state, [simplex_rows(16, 12, 13)])

    def test_critic_improves_on_frozen_mappers(self):
        # smoke oracle: the critics' objective (real - fake) should rise
        # over repeated critic phases with G and E frozen
        cfg = small_config(num_topics=3, hidden=8, batch_size=16, critic_steps=5, seed=14)
        state = init_state(cfg, num_words=12)
        rows = simplex_rows(400, 12, 15)
        rng = np.random.default_rng(16)
        probe_x = rows[:64]
        probe_z = sample_prior(state.prior, 64, np.random.default_rng(17))
        probe_xf, _ = state.generator.forward(probe_z, train=True)
        probe_zf, _ = state.encoder.forward(probe_x, train=True)

        def critic_objective():
            return (adv_loss(state.critic_x, probe_x, probe_xf)[0]
                    + adv_loss(state.critic_z, probe_z, probe_zf)[0])

        start = critic_objective()
        for _ in range(100):
            idx = rng.choice(rows.shape[0], size=(5, 16), replace=True)
            critic_phase(state, [rows[i] for i in idx])
        assert critic_objective() > start

    def test_gradients_match_finite_differences(self):
        cfg = small_config(num_topics=3, hidden=4, batch_size=5, critic_steps=1, seed=18)
        state = init_state(cfg, num_words=6)
        x = simplex_rows(5, 6, 19)
        z = sample_prior(state.prior, 5, np.random.default_rng(20))
        x_fake, _ = state.generator.forward(z, train=True)

        reference = copy.deepcopy(state)
        critic_phase(reference, [x], prior_batches=[z])

        def neg_adv(critic, real, fake):
            bn = [l for l in critic.layers if isinstance(l, BatchNorm)][0]
            saved = (bn.running_mean.copy(), bn.running_var.copy())
            value = -adv_loss(critic, real, fake)[0]
            bn.running_mean, bn.running_var = saved
            return value

        for p, ref_p in zip(state.critic_x.parameters(), reference.critic_x.parameters()):
            fd = numerical_grad(lambda _: neg_adv(state.critic_x, x, x_fake), p.data)
            assert_grad_close(ref_p.grad, fd, rtol=1e-4, atol=1e-8)


class TestMapperPhase:
    def test_critics_untouched(self):
        state = init_state(small_config(), num_words=12)
        critic_before = [p.data.copy() for p in state.critic_params]
        mapper_phase(state, simplex_rows(16, 12, 21))
        for before, p in zip(critic_before, state.critic_params):
            np.testing.assert_array_equal(before, p.data)

    def test_zero_critics_and_zero_lambdas_give_zero_gradients(self):
        state = init_state(small_config(), num_words=12)
        for p in state.critic_params:
            p.data[:] = 0.0
        state.config.lambda1_hat = 0.0
        state.config.lambda2_hat = 0.0
        gen_before = [p.data.copy() for p in state.generator.parameters()]
        mapper_phase(state, simplex_rows(16, 12, 22))
        for p in state.generator.parameters():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
        for before, p in zip(gen_before, state.generator.parameters()):
            np.testing.assert_array_equal(before, p.data)

    def test_no_critic_gradients(self):
        state = init_state(small_config(), num_words=12)
        rows = simplex_rows(96, 12, 40)
        critic_phase(state, [rows[i * 16:(i + 1) * 16] for i in range(5)])
        assert all(p.grad is not None for p in state.critic_params)
        mapper_phase(state, rows[80:])
        assert all(p.grad is None for p in state.critic_params)
        assert all(p.grad is not None for p in state.mapper_params)

    def test_supervised_requires_labels(self):
        cfg = small_config(supervised=True)
        state = init_state(cfg, num_words=12, num_classes=2)
        with pytest.raises(ConfigError):
            mapper_phase(state, simplex_rows(16, 12, 23))

    def test_loss_record_bookkeeping(self):
        cfg = small_config(supervised=True)
        state = init_state(cfg, num_words=12, num_classes=3)
        labels = np.random.default_rng(24).integers(0, 3, size=16)
        rec = mapper_phase(state, simplex_rows(16, 12, 25), labels)
        recomputed = (rec.adv_x + rec.adv_z + rec.lambda1 * rec.cyc_forward
                      + rec.lambda2 * rec.cyc_backward + rec.lambda3 * rec.cls)
        assert abs(recomputed - rec.total) < 1e-9

    def test_composite_gradient_matches_finite_differences(self):
        cfg = TrainConfig(num_topics=3, hidden=4, batch_size=5, iterations=1,
                          critic_steps=1, seed=26)
        state = init_state(cfg, num_words=6)
        x = simplex_rows(5, 6, 27)
        z = sample_prior(state.prior, 5, np.random.default_rng(28))

        reference = copy.deepcopy(state)
        rec = mapper_phase(reference, x, prior_batch=z)
        lam1, lam2 = rec.lambda1, rec.lambda2

        def objective():
            # the mapper descends the fake-score halves of the adversarial
            # losses plus the weighted cycle losses; the real-score means are
            # constants with respect to G and E
            bns = [l for net in (state.encoder, state.generator,
                                 state.critic_x, state.critic_z)
                   for l in net.layers if isinstance(l, BatchNorm)]
            saved = [(l.running_mean.copy(), l.running_var.copy()) for l in bns]
            z_fake, _ = state.encoder.forward(x, train=True)
            x_fake, _ = state.generator.forward(z, train=True)
            x_rec, _ = state.generator.forward(z_fake, train=True)
            z_rec, _ = state.encoder.forward(x_fake, train=True)
            _, fake_x, _ = _critic_scores(state.critic_x, x, x_fake, train=True)
            _, fake_z, _ = _critic_scores(state.critic_z, z, z_fake, train=True)
            value = (-float(fake_x.mean()) - float(fake_z.mean())
                     + lam1 * l1_loss(x_rec, x) + lam2 * l1_loss(z_rec, z))
            for l, (m, v) in zip(bns, saved):
                l.running_mean, l.running_var = m, v
            return value

        analytic_params = (reference.encoder.parameters()
                           + reference.generator.parameters())
        fd_params = state.encoder.parameters() + state.generator.parameters()
        for ref_p, p in zip(analytic_params, fd_params):
            fd = numerical_grad(lambda _: objective(), p.data)
            assert_grad_close(ref_p.grad, fd, rtol=1e-3, atol=1e-8)


class TestStateCopy:
    @pytest.mark.parametrize("supervised", [False, True])
    def test_deepcopy_trains_identically(self, supervised):
        cfg = small_config(supervised=supervised)
        rows = simplex_rows(96, 12, 41)
        labels = np.random.default_rng(42).integers(0, 2, size=16)
        state = init_state(cfg, num_words=12, num_classes=2)
        critic_phase(state, [rows[i * 16:(i + 1) * 16] for i in range(5)])
        clone = copy.deepcopy(state)
        for s in (state, clone):
            critic_phase(s, [rows[i * 16:(i + 1) * 16] for i in range(5)],
                         prior_batches=[sample_prior(s.prior, 16, np.random.default_rng(i))
                                        for i in range(5)])
            mapper_phase(s, rows[80:], labels,
                         prior_batch=sample_prior(s.prior, 16, np.random.default_rng(9)))
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
        rows = simplex_rows(80, 10, 29)
        states = [train(rows, small_config(num_topics=3, hidden=6, iterations=3))
                  for _ in range(2)]
        for net_a, net_b in zip(
                (states[0].encoder, states[0].generator, states[0].critic_x, states[0].critic_z),
                (states[1].encoder, states[1].generator, states[1].critic_x, states[1].critic_z)):
            for key, arr in net_a.state().items():
                np.testing.assert_array_equal(arr, net_b.state()[key])

    def test_zero_iterations_keeps_initialization(self):
        rows = simplex_rows(80, 10, 30)
        cfg = small_config(num_topics=3, hidden=6, iterations=0)
        trained = train(rows, cfg)
        fresh = init_state(cfg, num_words=10)
        for key, arr in trained.encoder.state().items():
            np.testing.assert_array_equal(arr, fresh.encoder.state()[key])

    def test_unsupervised_ignores_labels(self):
        rows = simplex_rows(80, 10, 31)
        labels = np.random.default_rng(32).integers(0, 2, size=80)
        a = train(rows, small_config(num_topics=3, hidden=6, iterations=3))
        b = train(rows, small_config(num_topics=3, hidden=6, iterations=3), labels=labels)
        for key, arr in a.generator.state().items():
            np.testing.assert_array_equal(arr, b.generator.state()[key])

    def test_supervised_without_labels_rejected(self):
        rows = simplex_rows(80, 10, 33)
        with pytest.raises(ConfigError):
            train(rows, small_config(supervised=True))

    def test_corpus_smaller_than_batch_rejected(self):
        rows = simplex_rows(8, 10, 34)
        with pytest.raises(ConfigError):
            train(rows, small_config(batch_size=16))

    def test_non_finite_abort_names_iteration_and_term(self):
        state = init_state(small_config(), num_words=12)
        state.iteration = 7
        bad = simplex_rows(16, 12, 35)
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            mapper_phase(state, bad)
        assert err.value.iteration == 7
        assert err.value.term in ("adv_x", "adv_z", "cyc_forward", "cyc_backward",
                                  "lambda1", "lambda2", "total")

    def test_supervised_training_runs_and_logs(self):
        rows = simplex_rows(80, 10, 36)
        labels = np.random.default_rng(37).integers(0, 2, size=80)
        cfg = small_config(num_topics=3, hidden=6, iterations=3, supervised=True)
        state = train(rows, cfg, labels=labels)
        assert len(state.loss_log) == 3
        rec = state.loss_log[-1]
        assert rec.lambda3 > 0 and np.isfinite(rec.cls)
