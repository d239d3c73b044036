import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from tomcat.corpus import BLOCK_ROWS, DocumentFile, Documents, Vocabulary, load_documents, tfidf
from tomcat.evaluation import (
    CoocStats,
    EvaluationError,
    SyntheticSpec,
    build_cooc,
    classify_accuracy,
    format_coherence_report,
    make_synthetic,
    model_coherence,
    npmi_pair,
    synthetic_vocabulary,
    topic_npmi,
    topic_word_ids,
)
from conftest import topic_recovery_score
from test_corpus import documents, oracle_count_matrix
from test_networks import build_one
from tomcat.networks import sample_prior

EPS = 1e-12


def hand_npmi(p_i, p_j, p_ij):
    """The documented formula, applied directly."""
    return math.log((p_ij + EPS) / (p_i * p_j)) / -math.log(p_ij + EPS)


def oracle_cooc(reference_docs, vocab, window_size):
    """Reference counts: every window's word set, enumerated one window at a
    time, for the whole vocabulary."""
    word_counts = Counter()
    pair_counts = Counter()
    virtual_docs = 0
    for doc in reference_docs:
        ids = [vocab.index.get(tok) for tok in doc]
        positions = max(1, len(ids) - window_size + 1)
        virtual_docs += positions
        for start in range(positions):
            present = sorted({w for w in ids[start:start + window_size] if w is not None})
            word_counts.update(present)
            pair_counts.update(combinations(present, 2))
    return CoocStats(window_size=window_size, virtual_doc_count=virtual_docs,
                     word_doc_counts=dict(word_counts), pair_doc_counts=dict(pair_counts))


class TestBuildCooc:
    def test_single_window(self):
        vocab = Vocabulary(["a", "b"])
        stats = build_cooc(documents([["a", "b"]], vocab), window_size=2, word_sets=[[0, 1]])
        assert stats.virtual_doc_count == 1
        assert stats.word_doc_counts == {0: 1, 1: 1}
        assert stats.pair_doc_counts == {(0, 1): 1}

    def test_sliding_enumeration(self):
        # doc [a, b, c], window 2 -> virtual docs {a,b}, {b,c}
        vocab = Vocabulary(["a", "b", "c"])
        stats = build_cooc(documents([["a", "b", "c"]], vocab), window_size=2,
                           word_sets=[[0, 1, 2]])
        assert stats.virtual_doc_count == 2
        assert stats.word_doc_counts == {0: 1, 1: 2, 2: 1}
        assert stats.pair_doc_counts.get((0, 2), 0) == 0
        assert stats.pair_doc_counts[(0, 1)] == 1
        assert stats.pair_doc_counts[(1, 2)] == 1

    def test_window_longer_than_doc(self):
        vocab = Vocabulary(["a", "b", "c"])
        stats = build_cooc(documents([["a", "b"]], vocab), window_size=10, word_sets=[[0, 1]])
        assert stats.virtual_doc_count == 1
        assert stats.word_doc_counts == {0: 1, 1: 1}

    def test_repeated_token_counted_once_per_window(self):
        vocab = Vocabulary(["a", "b"])
        stats = build_cooc(documents([["a", "a", "b"]], vocab), window_size=3, word_sets=[[0, 1]])
        assert stats.word_doc_counts == {0: 1, 1: 1}

    def test_out_of_vocab_tokens_occupy_slots(self):
        vocab = Vocabulary(["a", "b"])
        stats = build_cooc(documents([["a", "zzz", "b"]], vocab), window_size=2, word_sets=[[0, 1]])
        # windows {a, zzz} and {zzz, b}: a and b never share a window
        assert stats.virtual_doc_count == 2
        assert stats.pair_doc_counts.get((0, 1), 0) == 0

    def test_empty_reference_error(self):
        with pytest.raises(EvaluationError):
            build_cooc(documents([], Vocabulary(["a", "b"])), window_size=2, word_sets=[[0, 1]])

    def test_window_size_validated(self):
        with pytest.raises(EvaluationError):
            build_cooc(documents([["a"]], Vocabulary(["a", "b"])), window_size=1,
                       word_sets=[[0, 1]])

    def test_unknown_id_stays_unknown_through_the_lookup_table(self):
        # numpy reads table[-1] as the table's last entry: the unknown zzz
        # must not count as b, the last word
        vocab = Vocabulary(["a", "b"])
        stats = build_cooc(documents([["a", "zzz"]], vocab), window_size=2,
                           word_sets=[[0, 1]])
        assert stats.word_doc_counts == {0: 1, 1: 0}
        assert stats.pair_doc_counts == {(0, 1): 0}

    @pytest.mark.parametrize("word", [-1, 2])
    def test_scored_word_outside_the_vocabulary_rejected(self, word):
        with pytest.raises(EvaluationError, match="outside"):
            build_cooc(documents([["a", "b"]], Vocabulary(["a", "b"])), window_size=2,
                       word_sets=[[0, word]])

    @pytest.mark.parametrize("word_sets", [[[0, 1]], [[0, 1], [1, 20_001]]])
    def test_blocks_of_a_file_read_without_a_vocabulary(self, tmp_path, word_sets):
        # the file's table grows as its blocks are read: a later block's new
        # tokens, and a scored word first seen after the first block, count
        # as they do with a vocabulary of its tokens in first-seen order
        path = tmp_path / "docs.txt"
        path.write_text("".join(f"a b c{i}\n" for i in range(20_000)))
        vocab = Vocabulary(["a", "b"] + [f"c{i}" for i in range(20_000)])

        def blocks(vocabulary):
            with DocumentFile(path, vocab=vocabulary) as source:
                while (docs := load_documents(source)) is not None:
                    yield docs

        assert sum(1 for _ in blocks(None)) > 1
        stats = [build_cooc(blocks(v), window_size=2, word_sets=word_sets)
                 for v in (None, vocab)]
        assert stats[0] == stats[1]
        assert stats[0].word_doc_counts[1] == 40_000

    def test_only_scored_words_and_pairs_inside_one_set(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        stats = build_cooc(documents([["a", "b", "c", "d"]], vocab), window_size=4,
                           word_sets=[[0, 1], [1, 2]])
        assert stats.word_doc_counts == {0: 1, 1: 1, 2: 1}
        assert stats.pair_doc_counts == {(0, 1): 1, (1, 2): 1}

    def test_scored_word_that_never_occurs_counts_zero(self):
        vocab = Vocabulary(["a", "b", "c"])
        stats = build_cooc(documents([["a", "b"]], vocab), window_size=2, word_sets=[[0, 2]])
        assert stats.word_doc_counts == {0: 1, 2: 0}
        assert stats.pair_doc_counts == {(0, 2): 0}

    @staticmethod
    def assert_oracle_counts(docs, vocab, window, word_sets, trial):
        stats = build_cooc(documents(docs, vocab), window_size=window, word_sets=word_sets)
        oracle = oracle_cooc(docs, vocab, window)
        scored = {w for words in word_sets for w in words}
        pairs = {pair for words in word_sets for pair in combinations(sorted(set(words)), 2)}
        assert stats.virtual_doc_count == oracle.virtual_doc_count, trial
        assert stats.word_doc_counts == {
            w: oracle.word_doc_counts.get(w, 0) for w in scored}, trial
        assert stats.pair_doc_counts == {
            p: oracle.pair_doc_counts.get(p, 0) for p in pairs}, trial

    @pytest.mark.parametrize("size", [127, 129, 2 ** 15 + 1])
    def test_counts_equal_oracle_for_every_id_width(self, size):
        # set-local word ids take the smallest signed type that holds them
        # and -1: 8, 16 and 32 bits
        rng = np.random.default_rng(size)
        vocab = Vocabulary([f"w{i}" for i in range(size)])
        docs = [[vocab.tokens[k] for k in rng.integers(0, size, size=rng.integers(0, 80))]
                for _ in range(8)]
        docs.append(vocab.tokens[-3:] * 2)   # the last word ids
        word_sets = [list(range(start, min(start + 8, size))) for start in range(0, size, 8)]
        self.assert_oracle_counts(docs, vocab, 5, word_sets, size)

    def test_restricted_counts_equal_oracle_on_random_corpora(self):
        # out-of-vocabulary tokens, documents shorter than the window (and
        # empty ones), repeated tokens, sets sharing words, scored words that
        # never occur, windows longer than some documents and sets repeating a word
        rng = np.random.default_rng(31)
        for trial in range(50):
            size = int(rng.integers(2, 16))
            vocab = Vocabulary([f"w{i}" for i in range(size)])
            present = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
            names = [vocab.tokens[w] for w in present] + ["oov1", "oov2"]
            docs = [[names[k] for k in rng.integers(0, len(names), size=rng.integers(0, 30))]
                    for _ in range(int(rng.integers(1, 9)))]
            window = int(rng.integers(2, 12))
            word_sets = [[int(w) for w in rng.choice(size, size=rng.integers(1, 7))]
                         for _ in range(int(rng.integers(1, 5)))]
            self.assert_oracle_counts(docs, vocab, window, word_sets, trial)
        # a word's occurrences window - 1 apart (their windows overlap), window
        # apart (they touch) and window + 1 apart (a window between them
        # holds neither), windows at least as long as every document, and a
        # set holding every word
        for trial in range(50, 150):
            size = int(rng.integers(2, 9))
            vocab = Vocabulary([f"w{i}" for i in range(size)])
            names = vocab.tokens + ["oov1"]
            window = int(rng.integers(2, 8))
            docs = []
            for _ in range(int(rng.integers(1, 6))):
                doc = [names[k] for k in rng.integers(0, len(names), size=rng.integers(0, 40))]
                word = vocab.tokens[int(rng.integers(size))]
                pos = int(rng.integers(0, window))
                while pos < len(doc):
                    doc[pos] = word
                    pos += window + int(rng.integers(-1, 2))
                docs.append(doc)
            if trial % 3 == 0:
                window = max(2, max(map(len, docs)) + int(rng.integers(0, 3)))
            word_sets = [[int(w) for w in rng.choice(size, size=rng.integers(1, 5))]
                         for _ in range(int(rng.integers(0, 3)))] + [list(range(size))]
            self.assert_oracle_counts(docs, vocab, window, word_sets, trial)


class TestBuildCoocMemory:
    def test_peak_does_not_grow_with_the_window_count(self):
        # 40 blocks of 10 documents of 10,000 tokens: about 4M windows, and
        # 20 scored occurrences per block. Counting keeps the occurrences and
        # one block (1 MB here); a bitset of every window per scored word
        # peaked at 6 MB
        vocab = Vocabulary(["a", "b", "filler"])

        def blocks():
            for _ in range(40):
                ids = np.full((10, 10_000), 2, dtype=np.int32)
                ids[:, 1000], ids[:, 1003] = 0, 1
                yield Documents(vocab.tokens, ids.reshape(-1), np.full(10, 10_000), None)

        tracemalloc.start()
        try:
            stats = build_cooc(blocks(), window_size=10, word_sets=[[0, 1]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.virtual_doc_count == 400 * (10_000 - 9)
        assert stats.word_doc_counts == {0: 4000, 1: 4000}
        assert stats.pair_doc_counts == {(0, 1): 2800}   # windows 994 to 1000 of each
        assert peak < 2 ** 21, peak


def stats_from_windows(windows, num_words):
    word_counts = {}
    pair_counts = {}
    for win in windows:
        present = sorted(set(win))
        for w in present:
            word_counts[w] = word_counts.get(w, 0) + 1
        for pair in combinations(present, 2):
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
    return CoocStats(window_size=2, virtual_doc_count=len(windows),
                     word_doc_counts=word_counts, pair_doc_counts=pair_counts)


class TestNpmiPair:
    def test_independent_pair_scores_zero(self):
        # M=4: P(a)=P(b)=1/2, P(a,b)=1/4 = P(a)P(b)
        stats = stats_from_windows([(0, 1), (0,), (1,), ()], 2)
        assert abs(npmi_pair(stats, 0, 1)) < 1e-9

    def test_perfect_cooccurrence(self):
        # windows {a,b}, {a,b}, {c}: P(a)=P(b)=P(a,b)=2/3, NPMI = 1
        stats = stats_from_windows([(0, 1), (0, 1), (2,)], 3)
        assert abs(npmi_pair(stats, 0, 1) - 1.0) < 1e-9

    def test_never_cooccurring_pair(self):
        # P(a)=P(b)=1/2, pair count 0: the eps-dominated value is
        # log(eps / 0.25) / -log(eps), about -0.95, approaching -1 as eps -> 0
        stats = stats_from_windows([(0,), (0,), (1,), (1,)], 2)
        expected = hand_npmi(0.5, 0.5, 0.0)
        assert abs(npmi_pair(stats, 0, 1) - expected) < 1e-12
        assert npmi_pair(stats, 0, 1) < -0.9

    def test_zero_marginal_returns_minus_one(self):
        stats = stats_from_windows([(0,), (0,)], 2)
        assert npmi_pair(stats, 0, 1) == -1.0
        assert npmi_pair(stats, 1, 0) == -1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        windows = [tuple(rng.choice(6, size=rng.integers(1, 5), replace=False))
                   for _ in range(30)]
        stats = stats_from_windows(windows, 6)
        for i in range(6):
            for j in range(i + 1, 6):
                assert npmi_pair(stats, i, j) == npmi_pair(stats, j, i)

    def test_range_property(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            windows = [tuple(rng.choice(8, size=rng.integers(1, 6), replace=False))
                       for _ in range(rng.integers(2, 40))]
            stats = stats_from_windows(windows, 8)
            for i, j in combinations(range(8), 2):
                score = npmi_pair(stats, i, j)
                assert -1.0 <= score <= 1.0 + 1e-9

    def test_identical_words_rejected(self):
        stats = stats_from_windows([(0, 1)], 2)
        with pytest.raises(EvaluationError):
            npmi_pair(stats, 1, 1)


class TestTopicNpmi:
    def test_two_words_equals_pair(self):
        stats = stats_from_windows([(0, 1), (0, 1), (2,)], 3)
        assert topic_npmi(stats, [0, 1]) == npmi_pair(stats, 0, 1)

    def test_hand_corpus_three_words(self):
        # windows {a,b}, {a,b}, {c}: score is the mean of the three pairs
        stats = stats_from_windows([(0, 1), (0, 1), (2,)], 3)
        expected = (hand_npmi(2 / 3, 2 / 3, 2 / 3)
                    + hand_npmi(2 / 3, 1 / 3, 0.0)
                    + hand_npmi(2 / 3, 1 / 3, 0.0)) / 3
        assert abs(topic_npmi(stats, [0, 1, 2]) - expected) < 1e-12

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            windows = [tuple(rng.choice(10, size=rng.integers(1, 7), replace=False))
                       for _ in range(rng.integers(3, 30))]
            stats = stats_from_windows(windows, 10)
            words = list(rng.choice(10, size=rng.integers(2, 6), replace=False))
            brute = np.mean([npmi_pair(stats, int(a), int(b))
                             for idx, a in enumerate(words)
                             for b in words[idx + 1:]])
            assert topic_npmi(stats, [int(w) for w in words]) == brute

    def test_out_of_reference_words_score_minus_one(self):
        stats = stats_from_windows([(0, 1)], 2)
        assert topic_npmi(stats, [0, 7, 8]) == -1.0

    def test_too_few_words(self):
        stats = stats_from_windows([(0, 1)], 2)
        with pytest.raises(EvaluationError):
            topic_npmi(stats, [0])


class TestModelCoherence:
    def test_identical_topics_mean_equals_each(self):
        rng = np.random.default_rng(3)
        gen = build_one("G", rng, 6, words=12, topics=4)
        final = gen.layers[3]
        final.W.data[:] = 0.0
        final.b.data[:] = 0.0  # softmax of zeros: every topic is uniform
        vocab = Vocabulary([f"w{i}" for i in range(12)])
        docs = [[f"w{i}" for i in range(12)]] * 3
        word_ids = topic_word_ids(gen, 4)
        stats = build_cooc(documents(docs, vocab), window_size=5, word_sets=word_ids)
        reports, mean = model_coherence(vocab, stats, word_ids)
        assert len(reports) == 4
        for r in reports:
            assert r.npmi == reports[0].npmi
        assert mean == reports[0].npmi

    def test_report_format(self):
        rng = np.random.default_rng(4)
        gen = build_one("G", rng, 5, words=8, topics=2)
        vocab = Vocabulary([f"w{i}" for i in range(8)])
        word_ids = topic_word_ids(gen, 3)
        stats = build_cooc(documents([[f"w{i}" for i in range(8)]], vocab), window_size=8,
                           word_sets=word_ids)
        reports, mean = model_coherence(vocab, stats, word_ids)
        text = format_coherence_report(reports, mean)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[-1].startswith("mean\t")
        assert len(lines[0].split("\t")) == 3


class TestClassifyAccuracy:
    def test_all_correct(self):
        rng = np.random.default_rng(5)
        enc = build_one("E", rng, 6, words=10, topics=3)
        cls = build_one("C", rng, 6, topics=3, classes=4)
        rows = np.random.default_rng(6).uniform(size=(20, 10))
        rows /= rows.sum(axis=1, keepdims=True)
        z, _ = enc.forward(rows, train=False)
        probs, _ = cls.forward(z, train=False)
        labels = probs.argmax(axis=1)
        assert classify_accuracy(cls, z, labels) == 1.0

    def test_uniform_classifier_ties_to_class_zero(self):
        rng = np.random.default_rng(7)
        enc = build_one("E", rng, 6, words=10, topics=3)
        cls = build_one("C", rng, 6, topics=3, classes=4)
        cls.layers[3].W.data[:] = 0.0
        cls.layers[3].b.data[:] = 0.0
        rows = np.random.default_rng(8).uniform(size=(10, 10))
        labels = np.array([0, 0, 0, 1, 1, 2, 3, 3, 2, 1])
        z, _ = enc.forward(rows, train=False)
        assert classify_accuracy(cls, z, labels) == 0.3

    def test_row_order_invariance(self):
        rng = np.random.default_rng(9)
        enc = build_one("E", rng, 6, words=10, topics=3)
        cls = build_one("C", rng, 6, topics=3, classes=4)
        rows = np.random.default_rng(10).uniform(size=(30, 10))
        labels = np.random.default_rng(11).integers(0, 4, size=30)
        perm = np.random.default_rng(12).permutation(30)
        z, _ = enc.forward(rows, train=False)
        z_perm, _ = enc.forward(rows[perm], train=False)
        assert (classify_accuracy(cls, z, labels)
                == classify_accuracy(cls, z_perm, labels[perm]))

    def test_blocks_score_like_one_forward(self):
        # more rows than BLOCK_ROWS are scored a block at a time
        rng = np.random.default_rng(14)
        cls = build_one("C", rng, 6, topics=3, classes=4)
        z = rng.dirichlet(np.ones(3), size=2 * BLOCK_ROWS + 37)
        labels = rng.integers(0, 4, size=len(z))
        probs, _ = cls.forward(z, train=False)
        want = float((probs.argmax(axis=1) == labels).mean())
        assert 0 < want < 1
        assert classify_accuracy(cls, z, labels) == want

    def test_label_mismatch(self):
        rng = np.random.default_rng(13)
        enc = build_one("E", rng, 6, words=10, topics=3)
        cls = build_one("C", rng, 6, topics=3, classes=4)
        with pytest.raises(EvaluationError):
            classify_accuracy(cls, enc.forward(np.zeros((4, 10)), train=False)[0],
                              np.zeros(5, dtype=int))
        with pytest.raises(EvaluationError):
            classify_accuracy(cls, np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestMakeSynthetic:
    def test_single_word_supports(self):
        spec = SyntheticSpec(num_topics=4, words_per_topic=1, num_docs=30,
                             doc_length=20, doc_topic_alpha=0.5, seed=1)
        counts, _, supports = make_synthetic(spec)
        assert supports == [[0], [1], [2], [3]]
        assert (np.diff(counts.indptr) <= 4).all()

    def test_small_alpha_concentrates_on_dominant_support(self):
        spec = SyntheticSpec(num_topics=4, words_per_topic=3, num_docs=300,
                             doc_length=40, doc_topic_alpha=0.01, seed=2)
        counts, labels, supports = make_synthetic(spec)
        in_support = 0
        total = 0
        for row, label in zip(counts.toarray(), labels):
            in_support += row[supports[label]].sum()
            total += row.sum()
        assert in_support / total >= 0.95

    def test_fixed_seed_reproducible(self):
        spec = SyntheticSpec(num_topics=3, words_per_topic=5, num_docs=50,
                             doc_length=25, doc_topic_alpha=0.1, seed=3)
        a, a_labels, _ = make_synthetic(spec)
        b, b_labels, _ = make_synthetic(spec)
        assert np.array_equal(a.toarray(), b.toarray())
        assert a_labels == b_labels

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(num_topics=3, words_per_topic=5, num_docs=50,
                      doc_length=25, doc_topic_alpha=0.1, seed=3),
        SyntheticSpec(num_topics=5, words_per_topic=20, num_docs=200,
                      doc_length=50, doc_topic_alpha=0.05, seed=13),
        SyntheticSpec(num_topics=1, words_per_topic=2, num_docs=10,
                      doc_length=1, doc_topic_alpha=1.0, seed=8),
    ])
    def test_counts_match_dict_generator(self, spec):
        # the generator as it was when documents were dicts of word-id counts
        rng = np.random.default_rng(spec.seed)
        thetas = sample_prior(spec.num_topics, spec.doc_topic_alpha, spec.num_docs, rng)
        docs, labels = [], []
        for theta in thetas:
            topics = rng.choice(spec.num_topics, size=spec.doc_length, p=theta)
            offsets = rng.integers(0, spec.words_per_topic, size=spec.doc_length)
            ids, counts = np.unique(topics * spec.words_per_topic + offsets,
                                    return_counts=True)
            docs.append({int(w): int(c) for w, c in zip(ids, counts)})
            labels.append(int(theta.argmax()))
        counts, got_labels, _ = make_synthetic(spec)
        assert (counts.toarray().tobytes()
                == oracle_count_matrix(docs, spec.vocab_size).tobytes())
        assert got_labels == labels

    def test_labels_are_dominant_topic(self):
        spec = SyntheticSpec(num_topics=3, words_per_topic=5, num_docs=100,
                             doc_length=30, doc_topic_alpha=0.05, seed=4)
        counts, labels, _ = make_synthetic(spec)
        assert len(labels) == counts.shape[0] == 100
        assert all(0 <= lab < 3 for lab in labels)

    def test_feeds_tfidf_pipeline(self):
        spec = SyntheticSpec(num_topics=3, words_per_topic=5, num_docs=60,
                             doc_length=30, doc_topic_alpha=0.1, seed=5)
        counts, _, _ = make_synthetic(spec)
        mat = tfidf([counts])
        np.testing.assert_allclose(mat.rows.sum(axis=1), 1.0, atol=1e-9)
        vocab = synthetic_vocabulary(spec)
        assert vocab.size == spec.vocab_size


class TestMakeSyntheticMemory:
    def test_peak_is_a_fraction_of_the_dense_count_matrix(self):
        # V = 5000 and 2,000 documents: a dense float64 count matrix would
        # take 80 MB; the stored counts take at most 100,000 entries
        spec = SyntheticSpec(num_topics=50, words_per_topic=100, num_docs=2000,
                             doc_length=50, doc_topic_alpha=0.05, seed=0)
        tracemalloc.start()
        try:
            counts, _, _ = make_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (2000, 5000)
        assert counts.data.sum() == 2000 * 50
        assert peak < 8 * 2000 * 5000 / 4, peak


class TestCoherenceEndToEnd:
    def test_trained_topics_beat_baselines_on_synthetic_text(self):
        # training must tie the pipeline together: topics learned from a
        # corpus with disjoint supports score far higher self-referenced NPMI
        # than random word sets or an untrained initialization
        from tomcat.training import TrainConfig, init_state, train

        spec = SyntheticSpec(num_topics=5, words_per_topic=12, num_docs=800,
                             doc_length=40, doc_topic_alpha=0.05, seed=21)
        counts, _, _ = make_synthetic(spec)
        vocab = synthetic_vocabulary(spec)
        tokens = np.array(vocab.tokens)
        docs = [np.repeat(tokens, row.astype(np.int64)).tolist() for row in counts.toarray()]
        mat = tfidf([counts])
        cfg = TrainConfig(num_topics=5, hidden=32, batch_size=32, iterations=400, seed=1)
        state = train(mat.csr, cfg)
        fresh = init_state(cfg, num_words=vocab.size)
        rng = np.random.default_rng(3)
        random_sets = [list(rng.choice(vocab.size, size=6, replace=False)) for _ in range(5)]
        trained_ids = topic_word_ids(state.generator, 6)
        untrained_ids = topic_word_ids(fresh.generator, 6)
        stats = build_cooc(documents(docs, vocab), window_size=10,
                           word_sets=trained_ids + untrained_ids + random_sets)
        _, trained = model_coherence(vocab, stats, trained_ids)
        _, untrained = model_coherence(vocab, stats, untrained_ids)
        random_mean = float(np.mean([topic_npmi(stats, words) for words in random_sets]))
        assert trained >= untrained + 0.05
        assert trained >= random_mean + 0.05


class TestTopicRecoveryScore:
    def test_exact_recovery(self):
        supports = [[0, 1], [2, 3], [4, 5]]
        learned = np.zeros((3, 6))
        for k, sup in enumerate(supports):
            learned[k, sup] = 0.5
        assert topic_recovery_score(learned, supports) == 1.0

    def test_uniform_topics(self):
        supports = [[0, 1], [2, 3], [4, 5]]
        learned = np.full((3, 6), 1 / 6)
        np.testing.assert_allclose(topic_recovery_score(learned, supports), 2 / 6)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(14)
        supports = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        learned = rng.uniform(size=(3, 9))
        learned /= learned.sum(axis=1, keepdims=True)
        base = topic_recovery_score(learned, supports)
        for _ in range(5):
            perm = rng.permutation(3)
            assert topic_recovery_score(learned[perm], supports) == base

    def test_extra_learned_topics_allowed(self):
        supports = [[0, 1]]
        learned = np.array([[0.9, 0.1, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        assert topic_recovery_score(learned, supports) == 1.0

    def test_too_few_learned_topics_rejected(self):
        with pytest.raises(EvaluationError):
            topic_recovery_score(np.ones((1, 4)) / 4, [[0], [1]])
