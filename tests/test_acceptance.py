"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The heavyweight synthetic training runs are shared module fixtures.

Criterion 5 needs a real 20 Newsgroups corpus. It is discovered from the
TOMCAT_20NG_DOCS environment variable (a one-document-per-line text file)
or, failing that, a scikit-learn download; without either the criterion
fails with an explanatory message rather than being silently skipped.
"""

import copy
import os
import re
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_grad_close,
    csr_from_dense,
    greedy_topic_matches,
    numerical_grad,
    row_batch,
    topic_recovery_score,
)
from test_corpus import documents
from test_networks import build_one
from tomcat.checkpoint import load_checkpoint, save_checkpoint
from tomcat.corpus import Vocabulary, build_vocabulary, count_documents, tfidf, tfidf_transform
from tomcat.evaluation import (
    SyntheticSpec,
    build_cooc,
    classify_accuracy,
    make_synthetic,
    model_coherence,
    npmi_pair,
    topic_npmi,
    topic_word_ids,
)
from tomcat.networks import sample_prior, topic_word_distributions
from tomcat.nn import BatchNorm, LeakyReLU, Linear, Softmax, cross_entropy, cross_entropy_backward, l1_loss, l1_loss_backward
from tomcat.training import TrainConfig, balance, critic_phase, init_state, mapper_phase, train


def report(criterion, ok, detail):
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


SYNTH_SPEC = SyntheticSpec(num_topics=5, words_per_topic=20, num_docs=2000,
                           doc_length=50, doc_topic_alpha=0.05, seed=13)


@pytest.fixture(scope="module")
def synthetic_run():
    """Criterion 3's training run: K=5, batch 64, 2000 iterations."""
    counts, _, supports = make_synthetic(SYNTH_SPEC)
    mat = tfidf([counts])
    config = TrainConfig(num_topics=5, batch_size=64, iterations=2000, seed=0)
    state = train(mat.csr, config)
    topics = topic_word_distributions(state.generator)
    return {
        "supports": supports,
        "state": state,
        "topics": topics,
        "recovery": topic_recovery_score(topics, supports),
    }


@pytest.fixture(scope="module")
def supervised_run():
    """Criterion 4's run: same corpus with labels, 80/20 split, lambda3_hat=1."""
    counts, labels, supports = make_synthetic(SYNTH_SPEC)
    labels = np.array(labels)
    n_docs = counts.shape[0]
    split = np.random.default_rng(101).permutation(n_docs)
    test_idx = np.sort(split[: n_docs // 5])
    train_idx = np.sort(split[n_docs // 5:])
    mat = tfidf([csr_from_dense(counts.take(train_idx))])
    kept_labels = labels[train_idx][mat.kept_docs]
    config = TrainConfig(num_topics=5, batch_size=64, iterations=2000,
                         supervised=True, lambda3_hat=1.0, seed=0)
    state = train(mat.csr, config, labels=kept_labels, num_classes=5)
    test_rows, valid = tfidf_transform(csr_from_dense(counts.take(test_idx)),
                                       mat.doc_freq, mat.n_docs)
    test_z, _ = state.encoder.forward(test_rows[valid], train=False)
    accuracy = classify_accuracy(state.classifier, test_z, labels[test_idx][valid])
    topics = topic_word_distributions(state.generator)
    return {
        "supports": supports,
        "state": state,
        "recovery": topic_recovery_score(topics, supports),
        "accuracy": accuracy,
    }


class TestCriterion1GradientCorrectness:
    def test_layer_and_loss_backwards_match_finite_differences(self):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        kinds = ("linear", "leaky", "batchnorm", "softmax", "l1", "ce")
        for instance in range(100):
            kind = kinds[instance % len(kinds)]
            batch = int(rng.integers(2, 7))
            n_in = int(rng.integers(2, 9))
            n_out = int(rng.integers(2, 9))
            x = rng.normal(size=(batch, n_in))
            upstream = rng.normal(size=(batch, n_out))

            if kind == "linear":
                layer = Linear(n_in, n_out, rng)
                _, cache = layer.forward(x, train=True)
                gx = layer.backward(cache, upstream)

                def value(_):
                    y, _c = layer.forward(x, train=True)
                    return float((y * upstream).sum())

                assert_grad_close(gx, numerical_grad(value, x))
                assert_grad_close(layer.W.grad, numerical_grad(value, layer.W.data))
                assert_grad_close(layer.b.grad, numerical_grad(value, layer.b.data))
            elif kind == "leaky":
                layer = LeakyReLU()
                up = rng.normal(size=x.shape)
                _, cache = layer.forward(x, train=True)
                gx = layer.backward(cache, up)
                fd = numerical_grad(lambda v: float((layer.forward(v, train=True)[0] * up).sum()), x)
                assert_grad_close(gx, fd)
            elif kind == "batchnorm":
                layer = BatchNorm(n_in)
                layer.gamma.data[:] = rng.normal(size=n_in)
                layer.beta.data[:] = rng.normal(size=n_in)
                up = rng.normal(size=x.shape)

                def value(_):
                    saved = (layer.running_mean.copy(), layer.running_var.copy())
                    y, _c = layer.forward(x, train=True)
                    layer.running_mean, layer.running_var = saved
                    return float((y * up).sum())

                _, cache = layer.forward(x, train=True)
                gx = layer.backward(cache, up)
                assert_grad_close(gx, numerical_grad(value, x))
                assert_grad_close(layer.gamma.grad, numerical_grad(value, layer.gamma.data))
                assert_grad_close(layer.beta.grad, numerical_grad(value, layer.beta.data))
            elif kind == "softmax":
                layer = Softmax()
                up = rng.normal(size=x.shape)
                _, cache = layer.forward(x, train=True)
                gx = layer.backward(cache, up)
                fd = numerical_grad(lambda v: float((layer.forward(v, train=True)[0] * up).sum()), x)
                assert_grad_close(gx, fd)
            elif kind == "l1":
                b = rng.normal(size=x.shape)
                g = l1_loss_backward(x, b)
                assert_grad_close(g, numerical_grad(lambda v: l1_loss(v, b), x))
            else:
                raw = rng.uniform(0.05, 1.0, size=(batch, n_in))
                pred = raw / raw.sum(axis=1, keepdims=True)
                targets = rng.integers(0, n_in, size=batch)
                g = cross_entropy_backward(pred, targets)
                assert_grad_close(g, numerical_grad(lambda v: cross_entropy(v, targets), pred))
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        report(1, True, f"100 layer/loss gradient checks at 1e-4 relative in {elapsed:.1f}s")

    def test_composite_objective_gradient(self):
        config = TrainConfig(num_topics=3, hidden=4, batch_size=5, iterations=1,
                             critic_steps=1, seed=26)
        state = init_state(config, num_words=6)
        raw = np.random.default_rng(27).uniform(0.01, 1, size=(5, 6))
        x = raw / raw.sum(axis=1, keepdims=True)
        # the draw the phase makes, from a copy of the state's generator
        z = sample_prior(config.num_topics, config.alpha, 5, copy.deepcopy(state.rng))

        reference = copy.deepcopy(state)
        rec = mapper_phase(reference, row_batch(x), None)
        lam1, lam2 = rec.lambda1, rec.lambda2

        def objective():
            # mapper terms of the full objective at fixed lambdas; the
            # real-score means are constants for G and E
            bns = [l for net in (state.encoder, state.generator,
                                 state.critic_x, state.critic_z)
                   for l in net.layers if isinstance(l, BatchNorm)]
            saved = [(l.running_mean.copy(), l.running_var.copy()) for l in bns]
            z_fake, _ = state.encoder.forward(x, train=True)
            x_fake, _ = state.generator.forward(z, train=True)
            x_rec, _ = state.generator.forward(z_fake, train=True)
            z_rec, _ = state.encoder.forward(x_fake, train=True)
            # each critic scores real and fake rows in one batch, as adv_loss does
            fake_x = state.critic_x.forward(np.vstack([x, x_fake]), train=True)[0][len(x):]
            fake_z = state.critic_z.forward(np.vstack([z, z_fake]), train=True)[0][len(z):]
            value = (-float(fake_x.mean()) - float(fake_z.mean())
                     + lam1 * l1_loss(x_rec, x) + lam2 * l1_loss(z_rec, z))
            for l, (m, v) in zip(bns, saved):
                l.running_mean, l.running_var = m, v
            return value

        pairs = zip(reference.encoder.parameters() + reference.generator.parameters(),
                    state.encoder.parameters() + state.generator.parameters())
        for ref_p, p in pairs:
            fd = numerical_grad(lambda _: objective(), p.data)
            assert_grad_close(ref_p.grad, fd, rtol=1e-3, atol=1e-8)
        report(1, True, "composite objective gradient within 1e-3 of finite differences")


class TestCriterion2InvariantSuite:
    def test_invariants(self, tmp_path):
        started = time.monotonic()
        rng = np.random.default_rng(99)

        # simplex closure of every softmax-terminated network
        for name in ("E", "G", "C"):
            for trial in range(5):
                net = build_one(name, np.random.default_rng(trial), 6, words=11, topics=4,
                                classes=3)
                for p in net.parameters():
                    p.data *= rng.uniform(-25, 25)
                y, _ = net.forward(rng.normal(scale=8, size=(7, net.widths[0])), train=True)
                assert np.all(y >= 0)
                np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)

        # TF-IDF row normalization on random corpora
        for _ in range(20):
            n, v = int(rng.integers(3, 25)), int(rng.integers(3, 30))
            counts = np.zeros((n, v))
            for row in counts:
                ids = rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)
                for i in ids:
                    row[i] = rng.integers(1, 7)
            try:
                mat = tfidf([csr_from_dense(counts)])
            except Exception:
                continue
            assert np.all(mat.rows >= 0)
            np.testing.assert_allclose(mat.rows.sum(axis=1), 1.0, atol=1e-9)

        # critic clipping after every critic phase of a live run
        config = TrainConfig(num_topics=3, hidden=10, batch_size=16, iterations=30,
                             critic_steps=5, seed=3)
        raw = np.random.default_rng(4).uniform(0.01, 1, size=(200, 15))
        rows = raw / raw.sum(axis=1, keepdims=True)
        state = init_state(config, num_words=15)
        order = np.random.default_rng(5)
        for it in range(config.iterations):
            state.iteration = it
            idx = order.choice(200, size=(5, 16), replace=True)
            critic_phase(state, [row_batch(rows[i]) for i in idx])
            for p in state.critic_params:
                assert np.all(np.abs(p.data) <= config.clip_c + 1e-15)
            mapper_phase(state, row_batch(rows[order.choice(200, size=16, replace=False)]), None)

        # checkpoint bitwise round-trip, both modes
        vocab = Vocabulary([f"t{i}" for i in range(15)])
        for supervised in (False, True):
            cfg = TrainConfig(num_topics=3, hidden=6, batch_size=16, iterations=2,
                              supervised=supervised, seed=6)
            labels = np.random.default_rng(7).integers(0, 3, size=200) if supervised else None
            st = train(csr_from_dense(rows), cfg, labels=labels)
            path = tmp_path / f"round_{int(supervised)}.ckpt"
            save_checkpoint(path, vocab=vocab, encoder=st.encoder, generator=st.generator,
                            critic_x=st.critic_x, critic_z=st.critic_z,
                            classifier=st.classifier, config=cfg.as_dict(), seed=cfg.seed,
                            doc_freq=np.ones(15, dtype=np.int64), train_doc_count=200)
            loaded = load_checkpoint(path)
            again = tmp_path / f"round_{int(supervised)}_again.ckpt"
            save_checkpoint(again, vocab=loaded.vocab, encoder=loaded.encoder,
                            generator=loaded.generator, critic_x=loaded.critic_x,
                            critic_z=loaded.critic_z, classifier=loaded.classifier,
                            config=loaded.config, seed=loaded.seed, doc_freq=loaded.doc_freq,
                            train_doc_count=loaded.train_doc_count)
            assert path.read_bytes() == again.read_bytes()

        # determinism: the same seed yields byte-identical checkpoints
        paths = []
        for name in ("det_a.ckpt", "det_b.ckpt"):
            cfg = TrainConfig(num_topics=3, hidden=6, batch_size=16, iterations=5, seed=17)
            st = train(csr_from_dense(rows), cfg)
            path = tmp_path / name
            save_checkpoint(path, vocab=vocab, encoder=st.encoder, generator=st.generator,
                            critic_x=st.critic_x, critic_z=st.critic_z, classifier=None,
                            config=cfg.as_dict(), seed=cfg.seed,
                            doc_freq=np.ones(15, dtype=np.int64), train_doc_count=200)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        elapsed = time.monotonic() - started
        assert elapsed < 120.0
        report(2, True, f"simplex/tfidf/clipping/round-trip/determinism in {elapsed:.1f}s")


class TestCriterion3SyntheticRecovery:
    def test_recovery_threshold(self, synthetic_run):
        score = synthetic_run["recovery"]
        topics = synthetic_run["topics"]
        supports = synthetic_run["supports"]
        inside = 0
        for k, t, _mass in greedy_topic_matches(topics, supports):
            top10 = np.argsort(-topics[k], kind="stable")[:10]
            inside += all(int(w) in set(supports[t]) for w in top10)
        ok = score >= 0.70 and inside >= 4
        report(3, ok, f"recovery={score:.3f} (need >= 0.70), "
                      f"topics with full top-10 in support: {inside}/5 (need >= 4)")
        assert score >= 0.70
        assert inside >= 4


class TestCriterion4SupervisedGain:
    def test_supervised_matches_and_classifies(self, synthetic_run, supervised_run):
        unsup = synthetic_run["recovery"]
        sup = supervised_run["recovery"]
        acc = supervised_run["accuracy"]
        ok = sup >= unsup - 0.02 and acc >= 0.85
        report(4, ok, f"supervised recovery={sup:.3f} vs unsupervised {unsup:.3f} "
                      f"(allowed drop 0.02), held-out accuracy={acc:.3f} (need >= 0.85)")
        assert sup >= unsup - 0.02
        assert acc >= 0.85


def _locate_20ng():
    """20 Newsgroups documents as token lists, or (None, attempts)."""
    attempts = []
    env = os.environ.get("TOMCAT_20NG_DOCS")
    if env:
        path = Path(env)
        if path.exists():
            docs = [line.split() for line in
                    path.read_text(encoding="utf-8").lower().splitlines() if line.split()]
            return docs, attempts
        attempts.append(f"TOMCAT_20NG_DOCS={env} does not exist")
    else:
        attempts.append("TOMCAT_20NG_DOCS is not set")
    try:
        from sklearn.datasets import fetch_20newsgroups
        raw = fetch_20newsgroups(subset="train", remove=("headers", "footers", "quotes"))
        token_re = re.compile(r"[a-z]{2,}")
        docs = [token_re.findall(text.lower()) for text in raw.data]
        return [d for d in docs if d], attempts
    except Exception as exc:
        attempts.append(f"fetch_20newsgroups failed: {type(exc).__name__}: {exc}")
    return None, attempts


class TestCriterion5RealTextCoherence:
    def test_trained_beats_baselines_on_20ng(self):
        docs, attempts = _locate_20ng()
        if docs is None:
            detail = ("20 Newsgroups corpus unavailable in this environment: "
                      + "; ".join(attempts)
                      + ". Provide a preprocessed one-document-per-line file via "
                        "TOMCAT_20NG_DOCS to run this criterion.")
            report(5, False, detail)
            pytest.fail(detail)

        started = time.monotonic()
        docs = [d for d in docs if len(d) >= 20][:6000]
        assert len(docs) >= 5000, f"only {len(docs)} usable documents"
        vocab = build_vocabulary(documents(docs), min_count=2, max_vocab=2000)
        assert vocab.size == 2000
        mat = tfidf(count_documents(documents(docs, vocab), vocab))

        config = TrainConfig(num_topics=20, batch_size=64, iterations=1500, seed=42)
        state = train(mat.csr, config)
        fresh = init_state(config, num_words=vocab.size)
        rng = np.random.default_rng(7)
        random_sets = [list(rng.choice(vocab.size, size=10, replace=False)) for _ in range(20)]
        trained_ids = topic_word_ids(state.generator, 10)
        untrained_ids = topic_word_ids(fresh.generator, 10)
        stats = build_cooc(documents(docs, vocab), window_size=10,
                           word_sets=trained_ids + untrained_ids + random_sets)
        _, trained_mean = model_coherence(vocab, stats, trained_ids)
        _, untrained_mean = model_coherence(vocab, stats, untrained_ids)
        random_mean = float(np.mean([topic_npmi(stats, words) for words in random_sets]))

        elapsed = time.monotonic() - started
        ok = (trained_mean >= random_mean + 0.05) and (trained_mean >= untrained_mean + 0.05)
        report(5, ok, f"trained NPMI={trained_mean:.4f}, random={random_mean:.4f}, "
                      f"untrained={untrained_mean:.4f} (need +0.05 over both), {elapsed:.0f}s")
        assert elapsed < 1800.0
        assert trained_mean >= random_mean + 0.05
        assert trained_mean >= untrained_mean + 0.05


class TestCriterion6BalancingMechanism:
    def test_scale_invariance_and_logged_lambdas(self, synthetic_run):
        rng = np.random.default_rng(11)
        grad = rng.normal(size=(8, 5))
        aux_norm = float(np.linalg.norm(grad))
        for c in (1e-3, 0.2, 5.0, 1e4):
            lam = balance(0.7, aux_norm, 2.0)
            lam_scaled = balance(0.7, c * aux_norm, 2.0)
            np.testing.assert_allclose(lam_scaled * c * grad, lam * grad,
                                       rtol=0, atol=1e-9)

        log = synthetic_run["state"].loss_log
        lambdas = np.array([[r.lambda1, r.lambda2] for r in log])
        good = np.isfinite(lambdas).all(axis=1) & (lambdas > 0).all(axis=1)
        fraction = float(good.mean())
        for r in log:  # logged total must recompose from the logged components
            recomputed = (r.adv_x + r.adv_z + r.lambda1 * r.cyc_forward
                          + r.lambda2 * r.cyc_backward + r.lambda3 * r.cls)
            assert abs(recomputed - r.total) < 1e-9
        ok = fraction >= 0.99
        report(6, ok, f"scale invariance at 1e-9; finite positive lambdas in "
                      f"{fraction:.4f} of {len(log)} iterations (need >= 0.99)")
        assert fraction >= 0.99


class TestCriterion7NpmiOracleEquivalence:
    def test_brute_force_equality_and_hand_example(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            windows = [tuple(rng.choice(12, size=rng.integers(1, 8), replace=False))
                       for _ in range(rng.integers(3, 40))]
            word_counts, pair_counts = {}, {}
            for win in windows:
                present = sorted(set(win))
                for w in present:
                    word_counts[w] = word_counts.get(w, 0) + 1
                for pair in combinations(present, 2):
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
            from tomcat.evaluation import CoocStats
            stats = CoocStats(2, len(windows), word_counts, pair_counts)
            words = [int(w) for w in rng.choice(12, size=rng.integers(2, 7), replace=False)]
            brute = np.mean([npmi_pair(stats, a, b) for a, b in combinations(words, 2)])
            assert topic_npmi(stats, words) == brute

        # hand corpus: windows {a,b}, {a,b}, {c} give NPMI(a,b) = 1
        vocab = Vocabulary(["a", "b", "c"])
        stats = build_cooc(documents([["a", "b"], ["a", "b"], ["c"]], vocab), window_size=2,
                           word_sets=[[0, 1]])
        value = npmi_pair(stats, 0, 1)
        assert abs(value - 1.0) < 1e-9
        report(7, True, f"50 brute-force equalities exact; hand corpus NPMI={value:.12f}")
