import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import tomcat.corpus as corpus_module
import whole_file
from conftest import csr_from_dense
from tomcat.corpus import (
    BLOCK_ROWS,
    CorpusError,
    CsrRows,
    DocumentFile,
    Documents,
    FirstSeen,
    RowsError,
    TfidfMatrix,
    Vocabulary,
    build_vocabulary,
    count_documents,
    idf_weights,
    load_documents,
    load_rows,
    save_rows,
    tfidf,
    tfidf_transform,
    _read_blocks,
)


def documents(token_lists, vocab=None):
    """The given token lists as one block of Documents, as load_documents
    reads them from a file: over vocab's tokens, or, with no vocabulary,
    over the distinct tokens in order of first appearance."""
    tokens = vocab.tokens if vocab is not None else list(
        dict.fromkeys(t for doc in token_lists for t in doc))
    index = {t: i for i, t in enumerate(tokens)}
    ids = [index.get(t, -1) for doc in token_lists for t in doc]
    return [Documents(tokens, np.array(ids, dtype=np.int32),
                      np.array([len(doc) for doc in token_lists], dtype=np.int64), None)]


def count_rows(rows):
    """A dense count matrix as count_documents' output: one block of CSR rows."""
    return [csr_from_dense(np.array(rows, dtype=np.float64))]


def read_documents(path, label_path=None, vocab=None, keep_blank=False):
    """Every block of a document file, read by load_documents, joined into
    one Documents record."""
    blocks = []
    with DocumentFile(path, label_path, vocab, keep_blank) as source:
        while (docs := load_documents(source)) is not None:
            blocks.append(docs)
    return Documents(source.tokens, np.concatenate([np.zeros(0, np.int32)]
                                                   + [docs.ids for docs in blocks]),
                     np.concatenate([np.zeros(0, np.int64)] + [docs.lengths for docs in blocks]),
                     None if label_path is None else [lab for docs in blocks
                                                      for lab in docs.labels])


def token_lists(docs):
    """The tokens of each document of a record read without a vocabulary."""
    ends = np.cumsum(docs.lengths).tolist()
    words = [docs.tokens[i] for i in docs.ids]
    return [words[end - n:end] for end, n in zip(ends, docs.lengths.tolist())]


class TestBuildVocabulary:
    def test_tie_break_lexicographic(self):
        # a and b both occur twice, c once: frequency desc, then token asc
        docs = documents([["b", "c"], ["a", "a", "b"]])
        vocab = build_vocabulary(docs, min_count=1, max_vocab=10)
        assert vocab.tokens == ["a", "b", "c"]

    def test_min_count_filters(self):
        docs = documents([["a", "a", "b"], ["b", "c"]])
        vocab = build_vocabulary(docs, min_count=2, max_vocab=10)
        assert vocab.tokens == ["a", "b"]

    def test_empty_vocabulary_error(self):
        with pytest.raises(CorpusError):
            build_vocabulary(documents([["x"]]), min_count=2, max_vocab=10)

    def test_no_documents_error(self):
        with pytest.raises(CorpusError, match="no documents"):
            build_vocabulary(documents([]), min_count=1)

    def test_max_vocab_truncates_most_frequent(self):
        docs = documents([["d"] + ["c"] * 2 + ["b"] * 3 + ["a"] * 5])
        vocab = build_vocabulary(docs, min_count=1, max_vocab=2)
        assert vocab.tokens == ["a", "b"]

    def test_single_surviving_token_rejected(self):
        # Vocabulary requires at least two tokens
        with pytest.raises(ValueError):
            build_vocabulary(documents([["a", "a", "b"]]), min_count=2, max_vocab=10)


class TestVocabulary:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.index == vocab.index

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])

    @pytest.mark.parametrize("tokens, message", [(["a", "a"], "must be unique"),
                                                 (["a", "b", "c", "b"], "must be unique"),
                                                 (["a"], "at least 2 tokens"),
                                                 ([], "at least 2 tokens")])
    def test_each_rule_has_its_message(self, tokens, message):
        # a repeated token is reported before a count below two
        with pytest.raises(ValueError, match=message):
            Vocabulary(tokens)

    def test_index_gives_each_token_its_position(self):
        tokens = [f"w{i}" for i in range(2000)]
        assert Vocabulary(tokens).index == {t: i for i, t in enumerate(tokens)}


class TestTfidf:
    def test_hand_example_idf_cancels(self):
        # ids: a=0 b=1 c=2 d=3; every word has df=2, so idf=log(4/3) is a
        # common factor and cancels in the row normalization.
        mat = tfidf(count_rows([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]))
        assert mat.dropped_docs == []
        np.testing.assert_allclose(mat.rows[0], [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(mat.rows[1], [0.0, 0.5, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(mat.rows[3], [1 / 3, 0.0, 0.0, 2 / 3], atol=1e-12)

    def test_word_in_every_doc_drops_pure_row(self):
        # 'a' (id 0) appears in all 3 docs: idf = log(3/4) < 0, clamped to 0.
        # Doc 0 consists only of 'a', so its weight sum is 0 and it is dropped.
        mat = tfidf(count_rows([[1, 0, 0], [2, 1, 0], [1, 0, 1]]))
        assert mat.dropped_docs == [0]
        assert mat.kept_docs == [1, 2]
        np.testing.assert_allclose(mat.rows[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_one_hot_row(self):
        mat = tfidf(count_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]]))
        np.testing.assert_allclose(mat.rows[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_all_rows_dropped_error(self):
        with pytest.raises(CorpusError):
            tfidf(count_rows([[1, 0], [2, 0]]))

    def test_requires_two_documents(self):
        with pytest.raises(CorpusError):
            tfidf(count_rows([[1, 0]]))
        with pytest.raises(CorpusError):
            tfidf([])

    def test_row_simplex_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            v = int(rng.integers(2, 40))
            counts = np.zeros((n, v))
            for row in counts:
                k = int(rng.integers(1, v + 1))
                ids = rng.choice(v, size=k, replace=False)
                for i in ids:
                    row[i] = rng.integers(1, 9)
            try:
                mat = tfidf(count_rows(counts))
            except CorpusError:
                continue
            assert np.all(mat.rows >= 0)
            np.testing.assert_allclose(mat.rows.sum(axis=1), 1.0, atol=1e-9)

    def test_idf_monotone_in_document_frequency(self):
        # for fixed term frequency, larger df never increases the smoothed weight
        n = 50
        df = np.arange(1, n + 1)
        w = idf_weights(df, n)
        assert np.all(np.diff(w) <= 1e-15)
        assert np.all(w >= 0)
        # unclamped value for df = n would be log(n / (n + 1)) < 0
        assert w[-1] == 0.0

    def test_transform_uses_training_idf(self):
        counts = count_rows([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        mat = tfidf(counts)
        rows, valid = tfidf_transform(counts[0], mat.doc_freq, mat.n_docs)
        assert valid.all()
        np.testing.assert_allclose(rows, mat.rows, atol=1e-12)

    def test_transform_flags_zero_weight_docs(self):
        mat = tfidf(count_rows([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]))
        rows, valid = tfidf_transform(csr_from_dense(np.array([[0.0, 0, 0, 0], [1, 0, 0, 0]])),
                                      mat.doc_freq, mat.n_docs)
        assert valid.tolist() == [False, True]
        np.testing.assert_allclose(rows[0], 0.0)

    @pytest.mark.parametrize("counts", [
        csr_from_dense(np.array([[1.0, -1.0], [2.0, 1.0]])),
        csr_from_dense(np.array([[np.nan, 1.0], [2.0, 1.0]])),
        csr_from_dense(np.array([[np.inf, 1.0], [2.0, 1.0]])),
        # a stored zero would count towards its word's document frequency
        CsrRows(np.array([0, 2, 3]), np.array([0, 1, 1]), np.array([1.0, 0.0, 2.0]), 2),
    ])
    def test_malformed_counts_rejected(self, counts):
        # the block is checked wherever it comes among the blocks
        with pytest.raises(CorpusError):
            tfidf(count_rows(np.eye(2)) + [counts])


class TestLoadDocuments:
    def test_lowercase_and_blank_line_drop(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("A b\n\nc", encoding="utf-8")
        docs = read_documents(path)
        assert token_lists(docs) == [["a", "b"], ["c"]]
        assert docs.tokens == ["a", "b", "c"]
        assert docs.labels is None

    def test_ids_of_a_vocabulary(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("b zzz A\n\nzzz\n", encoding="utf-8")
        vocab = Vocabulary(["a", "b"])
        docs = read_documents(path, vocab=vocab)
        assert docs.tokens is vocab.tokens
        assert (docs.ids.dtype, docs.ids.tolist()) == (np.int32, [1, -1, 0, -1])
        assert (docs.lengths.dtype, docs.lengths.tolist()) == (np.int64, [3, 1])

    def test_unknown_tokens_leave_the_vocabulary_table_as_it_is(self, tmp_path):
        # every block looks its tokens up in vocab's table without adding to it
        path = tmp_path / "docs.txt"
        path.write_text("".join(f"unk{i} a unk{i + 1}\n" for i in range(0, 5000, 2)),
                        encoding="utf-8")
        vocab = Vocabulary(["a", "b"])
        with DocumentFile(path, vocab=vocab) as source:
            ids = [docs.ids for docs in iter(lambda: load_documents(source), None)]
        assert len(source.table) == vocab.size
        assert np.concatenate(ids).tolist() == [-1, 0, -1] * 2500

    def test_keep_blank_gives_a_document_per_line(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("\n a\n \t\nb c\n\n", encoding="utf-8")
        docs = read_documents(path, keep_blank=True)
        assert docs.lengths.tolist() == [0, 1, 0, 2, 0]
        assert token_lists(docs) == [[], ["a"], [], ["b", "c"], []]

    def test_labels_aligned(self, tmp_path):
        docs_path = tmp_path / "docs.txt"
        docs_path.write_text("a b\nc d\n", encoding="utf-8")
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n", encoding="utf-8")
        assert read_documents(docs_path, labels_path).labels == [0, 1]

    def test_label_count_mismatch(self, tmp_path):
        docs_path = tmp_path / "docs.txt"
        docs_path.write_text("a b\nc d\n", encoding="utf-8")
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_documents(docs_path, labels_path)

    def test_blank_doc_drops_its_label(self, tmp_path):
        docs_path = tmp_path / "docs.txt"
        docs_path.write_text("a b\n\nc\n", encoding="utf-8")
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n2\n", encoding="utf-8")
        docs = read_documents(docs_path, labels_path)
        assert token_lists(docs) == [["a", "b"], ["c"]]
        assert docs.labels == [0, 2]
        assert read_documents(docs_path, labels_path, keep_blank=True).labels == [0, 1, 2]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_documents(tmp_path / "nope.txt")


class TestCountDocuments:
    def test_oov_tokens_dropped(self):
        vocab = Vocabulary(["a", "b"])
        for docs in (documents([["a", "a", "zzz"], ["b"]], vocab),
                     documents([["a", "a", "zzz"], ["b"]])):
            [counts] = count_documents(docs, vocab)
            assert counts.toarray().tolist() == [[2, 0], [0, 1]]
            assert counts.num_cols == 2

    def test_empty_documents_give_empty_rows(self):
        vocab = Vocabulary(["a", "b"])
        [counts] = count_documents(documents([[], ["zzz"], ["b", "a", "b"], []], vocab), vocab)
        assert counts.indptr.tolist() == [0, 0, 0, 2, 2]
        assert counts.toarray().tolist() == [[0, 0], [0, 0], [1, 2], [0, 0]]
        assert [c.shape for c in count_documents(documents([], vocab), vocab)] == [(0, 2)]

    def test_unknown_id_stays_unknown_through_the_lookup_table(self):
        # numpy reads table[-1] as the table's last entry: a token outside the
        # vocabulary the documents were read with must not become vocab's b
        docs = documents([["qq", "b", "qq"]], Vocabulary(["zzz", "a", "b"]))
        assert docs[0].ids.tolist() == [-1, 2, -1]
        assert count_documents(docs, Vocabulary(["a", "b"]))[0].toarray().tolist() == [[0, 1]]

    def test_lookup_follows_each_block_table(self):
        # two files read without a vocabulary number a and b the other way
        # round, and a file's own table grows as its blocks are read: a
        # lookup built for another table would count the second file's a as b
        vocab = Vocabulary(["a", "b"])
        blocks = documents([["a", "b", "b"]]) + documents([["b", "a", "a"]])
        assert [docs.tokens for docs in blocks] == [["a", "b"], ["b", "a"]]
        counts = count_documents(blocks, vocab)
        assert [c.toarray().tolist() for c in counts] == [[[1, 2]], [[2, 1]]]

        def growing():
            tokens = ["a"]
            yield Documents(tokens, np.array([0], np.int32), np.array([1]), None)
            tokens.append("b")
            yield Documents(tokens, np.array([1, 1, 0], np.int32), np.array([3]), None)

        counts = count_documents(growing(), vocab)
        assert [c.toarray().tolist() for c in counts] == [[[1, 0]], [[1, 2]]]

    def test_one_block_of_rows_per_block_of_documents(self):
        vocab = Vocabulary(["a", "b"])
        blocks = (documents([["a"], ["b", "b"]], vocab) + documents([], vocab)
                  + documents([["b", "a"]], vocab))
        counts = count_documents(blocks, vocab)
        assert [c.toarray().tolist() for c in counts] == [[[1, 0], [0, 2]], [], [[1, 1]]]

    def test_count_rows_are_held_once(self):
        # the rows of every block are returned as they are made, not joined
        # into one more array: the peak stays well under twice their bytes
        rng = np.random.default_rng(3)
        vocab = Vocabulary([f"w{i}" for i in range(500)])
        blocks = [Documents(vocab.tokens, rng.integers(0, 500, size=200 * 50, dtype=np.int32),
                            np.full(200, 50, dtype=np.int64), None) for _ in range(80)]
        tracemalloc.start()
        try:
            counts = count_documents(blocks, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(c.indptr.nbytes + c.indices.nbytes + c.data.nbytes for c in counts)
        assert held > 8 * 2 ** 20
        assert peak < 1.5 * held, (peak, held)


class TestCsrRows:
    def test_shape_gives_sizes(self):
        csr = csr_from_dense(np.zeros((3, 5)))
        assert csr.shape == (3, 5)
        assert csr.indptr.tolist() == [0, 0, 0, 0]
    def test_take_equals_dense_gather(self):
        dense = np.array([[0.0, 2.5, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0], [0.0, 0.5, 0.0]])
        csr = csr_from_dense(dense)
        assert csr.shape == (4, 3)
        assert csr.indptr.tolist() == [0, 1, 1, 3, 4]
        for idx in ([0, 1, 2, 3], [3, 3, 1, 0], [1], []):
            idx = np.array(idx, dtype=np.int64)
            assert csr.take(idx).tobytes() == dense[idx].tobytes()
        assert csr.toarray().tobytes() == dense.tobytes()


def large_rows() -> TfidfMatrix:
    """6,000 rows of 90 entries over 2,000 words: 6.2 MiB of indices and data."""
    n_rows, num_words, per_row = 6000, 2000, 90
    rows = CsrRows(np.arange(n_rows + 1, dtype=np.int64) * per_row,
                   np.tile(np.arange(per_row, dtype=np.int32) * 22, n_rows),
                   np.random.default_rng(0).uniform(0.1, 1.0, size=n_rows * per_row),
                   num_words)
    return TfidfMatrix(csr=rows, kept_docs=list(range(n_rows)), dropped_docs=[],
                       doc_freq=np.ones(num_words, dtype=np.int64), n_docs=n_rows)


class TestRowsArchive:
    def test_round_trip(self, tmp_path):
        mat = tfidf(count_rows([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
        for labels in (None, np.array([1, 0, 2, 1])[mat.kept_docs]):
            save_rows(tmp_path / "rows.bin", mat, labels)
            loaded, loaded_labels = load_rows(tmp_path / "rows.bin", 4, 4, 3)
            assert loaded.rows.tobytes() == mat.rows.tobytes()
            assert loaded.doc_freq.tobytes() == mat.doc_freq.tobytes()
            assert (loaded.kept_docs, loaded.dropped_docs) == (mat.kept_docs, mat.dropped_docs)
            assert loaded.n_docs == 4
            assert (loaded_labels is None if labels is None
                    else loaded_labels.tolist() == labels.tolist())
        assert [p.name for p in tmp_path.iterdir()] == ["rows.bin"]

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        mat = tfidf(count_rows([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
        save_rows(tmp_path / "rows.bin", mat, None)
        before = (tmp_path / "rows.bin").read_bytes()
        real_write, writes = os.write, []

        def write_half_of_an_array_then_fail(fd, data):
            writes.append(data.nbytes)
            if len(writes) == 1:   # the header
                return real_write(fd, data)
            real_write(fd, bytes(data[:len(data) // 2]))
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", write_half_of_an_array_then_fail)
        other = tfidf(count_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
        with pytest.raises(OSError):
            save_rows(tmp_path / "rows.bin", other, np.array([0, 1, 0]))
        assert writes == [40, other.csr.indptr.nbytes]
        assert [p.name for p in tmp_path.iterdir()] == ["rows.bin"]
        assert (tmp_path / "rows.bin").read_bytes() == before

    def test_save_copies_no_array(self, tmp_path):
        # each array goes from its own memory to the file, and the CRC-32 is
        # chained over them: numpy's savez copied the largest one
        mat = large_rows()
        tracemalloc.start()
        try:
            save_rows(tmp_path / "rows.bin", mat, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = (tmp_path / "rows.bin").stat().st_size
        assert written > 5 * 2 ** 20
        assert peak < 0.05 * written, peak / written

    def test_load_holds_the_arrays_once(self, tmp_path):
        # views of the file's bytes, read once, checked with no temporary as
        # long as the file
        mat = large_rows()
        rows = mat.csr
        save_rows(tmp_path / "rows.bin", mat, None)
        tracemalloc.start()
        try:
            loaded, _ = load_rows(tmp_path / "rows.bin", rows.num_cols, rows.shape[0], 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = loaded.csr.indptr.nbytes + loaded.csr.indices.nbytes + loaded.csr.data.nbytes
        assert held > 5 * 2 ** 20
        assert peak < 1.25 * held, peak / held
        assert loaded.csr.indices.tobytes() == rows.indices.tobytes()
        assert loaded.csr.data.tobytes() == rows.data.tobytes()

    @pytest.mark.parametrize("labels", [[0], [0, 2], [-1, 0]])
    def test_malformed_labels_rejected(self, tmp_path, labels):
        # the kept rows' labels must align with them and lie in [0, num_classes)
        mat = tfidf(count_rows([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
        assert len(mat.kept_docs) == 2
        save_rows(tmp_path / "rows.bin", mat, np.array(labels, dtype=np.int64))
        with pytest.raises(RowsError):
            load_rows(tmp_path / "rows.bin", 4, 3, 2)


# The pipeline the count matrix replaced: one dict of word-id counts per
# document, densified item by item. The property test requires the same
# bytes from both.
def oracle_count_documents(docs, vocab):
    id_docs = []
    for doc in docs:
        counts = {}
        for tok in doc:
            wid = vocab.index.get(tok)
            if wid is not None:
                counts[wid] = counts.get(wid, 0) + 1
        id_docs.append(counts)
    return id_docs


def oracle_count_matrix(docs, num_words):
    mat = np.zeros((len(docs), num_words), dtype=np.float64)
    for i, doc in enumerate(docs):
        for wid, cnt in doc.items():
            mat[i, wid] = cnt
    return mat


def oracle_smoothed_rows(counts, doc_freq, n_docs):
    token_totals = counts.sum(axis=1, keepdims=True)
    tf = np.divide(counts, token_totals, out=np.zeros_like(counts),
                   where=token_totals > 0)
    return tf * idf_weights(doc_freq, n_docs)


def oracle_tfidf(docs, num_words):
    """(rows, kept_docs, dropped_docs, doc_freq) of dict documents."""
    counts = oracle_count_matrix(docs, num_words)
    doc_freq = (counts > 0).sum(axis=0)
    smoothed = oracle_smoothed_rows(counts, doc_freq, len(docs))
    weight = smoothed.sum(axis=1)
    kept = np.flatnonzero(weight > 0)
    dropped = np.flatnonzero(weight <= 0)
    return smoothed[kept] / weight[kept, None], kept.tolist(), dropped.tolist(), doc_freq


def oracle_tfidf_transform(docs, num_words, doc_freq, n_docs):
    counts = oracle_count_matrix(docs, num_words)
    smoothed = oracle_smoothed_rows(counts, doc_freq, n_docs)
    weight = smoothed.sum(axis=1)
    valid = weight > 0
    rows = np.divide(smoothed, weight[:, None], out=np.zeros_like(smoothed),
                     where=valid[:, None])
    return rows, valid


def random_token_docs(rng, words, n_docs):
    """Documents over words plus out-of-vocabulary tokens: some hold only
    unknown tokens, some a single word. In about half the corpora every
    document also holds words[0], whose idf is then clamped to zero."""
    docs = []
    for _ in range(n_docs):
        kind = rng.integers(6)
        if kind == 0:
            docs.append([f"oov{int(i)}" for i in rng.integers(0, 5, size=rng.integers(1, 4))])
            continue
        if kind == 1:
            docs.append([words[int(rng.integers(len(words)))]] * int(rng.integers(1, 4)))
            continue
        length = int(rng.integers(1, 40))
        # Zipf-like draws so that some words are frequent and some rare
        ids = np.minimum(rng.zipf(1.5, size=length) - 1, len(words) - 1)
        doc = [words[int(i)] for i in ids] + ["oov"] * int(rng.integers(0, 3))
        rng.shuffle(doc)
        docs.append(doc)
    if rng.integers(2):
        docs = [doc + [words[0]] for doc in docs]
    return docs


def random_corpora():
    """50 seeded (seed, vocabulary, documents, held-out documents) cases."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(int(rng.integers(2, 60)))]
        docs = random_token_docs(rng, words, int(rng.integers(2, 80)))
        held_out = random_token_docs(rng, words, int(rng.integers(1, 30)))
        yield seed, Vocabulary(words), docs, held_out


def csr_of(dense):
    """(indptr, indices, data) of the nonzero entries of a dense matrix."""
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dense.shape[0]))])
    return indptr.astype(np.int64), cols.astype(np.int32), dense[rows, cols]


def assert_matches_oracle(vocab, docs, held_out, case):
    """count_documents, tfidf and tfidf_transform give the oracle's bytes,
    and the CSR rows of tfidf are the nonzeros of the oracle's dense rows."""
    counts = count_documents(documents(docs), vocab)
    id_docs = oracle_count_documents(docs, vocab)
    assert (counts[0].toarray().tobytes()
            == oracle_count_matrix(id_docs, vocab.size).tobytes()), case

    rows, kept, dropped, doc_freq = oracle_tfidf(id_docs, vocab.size)
    if not kept:
        with pytest.raises(CorpusError):
            tfidf(counts)
        return None
    before = counts[0].toarray()
    mat = tfidf(counts)
    assert mat.rows.tobytes() == rows.tobytes(), case
    for got, want in zip((mat.csr.indptr, mat.csr.indices, mat.csr.data), csr_of(rows)):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), case
    assert mat.doc_freq.tobytes() == doc_freq.tobytes(), case
    assert (mat.kept_docs, mat.dropped_docs) == (kept, dropped), case
    assert counts[0].toarray().tobytes() == before.tobytes(), case

    new_rows, new_valid = tfidf_transform(count_documents(documents(held_out, vocab),
                                                          vocab)[0],
                                          mat.doc_freq, mat.n_docs)
    old_rows, old_valid = oracle_tfidf_transform(
        oracle_count_documents(held_out, vocab), vocab.size, doc_freq, len(docs))
    assert new_rows.tobytes() == old_rows.tobytes(), case
    assert new_valid.tobytes() == old_valid.tobytes(), case
    return mat


def boundary_docs(n_docs):
    """n_docs documents that all hold w0, whose idf is then clamped to zero.
    The documents on both sides of the first block boundary hold only w0 or
    only unknown tokens, so their rows are dropped."""
    rng = np.random.default_rng(n_docs)
    words = [f"w{i}" for i in range(20)]
    docs = [["w0"] + [words[int(i)] for i in rng.integers(1, 20, size=rng.integers(1, 12))]
            for _ in range(n_docs)]
    for i in range(BLOCK_ROWS - 3, min(BLOCK_ROWS + 2, n_docs)):
        docs[i] = ["w0"] * (1 + i % 3) if i % 2 else ["oov", "w0"]
    docs[BLOCK_ROWS - 3] = ["oov"]
    return Vocabulary(words), docs


class TestCountMatrixMatchesOracle:
    def test_random_corpora_byte_identical(self):
        for seed, vocab, docs, held_out in random_corpora():
            assert_matches_oracle(vocab, docs, held_out, seed)

    def test_random_corpora_byte_identical_in_small_blocks(self, monkeypatch):
        # a block of 7 documents puts block boundaries inside every corpus
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", 7)
        for seed, vocab, docs, held_out in random_corpora():
            assert_matches_oracle(vocab, docs, held_out, seed)

    @pytest.mark.parametrize("n_docs", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_rows_dropped_at_a_block_boundary(self, n_docs):
        vocab, docs = boundary_docs(n_docs)
        mat = assert_matches_oracle(vocab, docs, docs[-40:], n_docs)
        expected = [i for i in range(BLOCK_ROWS - 3, BLOCK_ROWS + 2) if i < n_docs]
        assert mat.dropped_docs == expected
        assert mat.n_docs == n_docs

    def test_no_stale_weight_across_blocks(self, monkeypatch):
        # row i of each block of 7 holds a word that row i of the next block
        # lacks, so a value left in the row-sum buffer would change a weight
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", 7)
        words = [f"w{i}" for i in range(9)]
        docs = [[f"w{i % 7}", "w7"] if (i // 7) % 2 == 0 else ["w8", "w7", "w8"]
                for i in range(30)]
        assert_matches_oracle(Vocabulary(words), docs, docs[::-1], "stale")

    def test_count_blocks_straddling_the_weighing_blocks(self, monkeypatch):
        # count blocks of 3, 9, 0 and 1 rows weighed 7 rows at a time: the
        # weighing restarts at each count block and splits the block of 9
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(11)
        vocab = Vocabulary([f"w{i}" for i in range(10)])
        # w0 is in every document, so documents of w0 and unknown tokens are dropped
        docs = [["w0"] + [f"w{i}" for i in rng.integers(1, 10, size=rng.integers(1, 6))]
                for _ in range(13)]
        for i in (2, 3, 12):
            docs[i] = ["w0", "oov"]
        blocks, start = [], 0
        for size in (3, 9, 0, 1):
            blocks += documents(docs[start:start + size], vocab)
            start += size
        counts = count_documents(blocks, vocab)
        assert [c.shape for c in counts] == [(3, 10), (9, 10), (0, 10), (1, 10)]
        got = tfidf(counts)
        want = whole_file.tfidf(whole_file.count_documents(documents(docs, vocab)[0], vocab))
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got.csr, name), getattr(want.csr, name)
            assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()), name
        assert (got.doc_freq.dtype, got.doc_freq.tobytes()) == (want.doc_freq.dtype,
                                                                want.doc_freq.tobytes())
        assert (got.kept_docs, got.dropped_docs) == (want.kept_docs, want.dropped_docs)
        assert (got.dropped_docs, got.n_docs) == ([2, 3, 12], 13)

    def test_transform_over_several_blocks(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(30)]
        docs = random_token_docs(rng, words, 40)
        held_out = random_token_docs(rng, words, 7 * 5 + 3)
        assert_matches_oracle(Vocabulary(words), docs, held_out, "transform blocks")

    def test_zero_idf_entries_and_dropped_rows(self, monkeypatch):
        # w0 is in every document, so its idf is zero: its entries are not
        # stored, and documents of w0 and unknown tokens alone are dropped
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", 7)
        words = ["w0", "w1", "w2", "w3"]
        docs = [["w0", words[1 + i % 3]] * (1 + i % 2) for i in range(16)]
        docs[3] = ["w0", "w0"]
        docs[9] = ["w0", "oov"]
        mat = assert_matches_oracle(Vocabulary(words), docs, docs + [["oov"]], "zero idf")
        assert mat.dropped_docs == [3, 9]
        assert 0 not in mat.csr.indices.tolist()

    def test_corpora_cover_the_edge_cases(self):
        # the property test above is only as good as the corpora it sees
        seen = {"oov_only": 0, "one_word": 0, "dropped_rows": 0, "all_rows_kept": 0}
        for _, vocab, docs, _ in random_corpora():
            id_docs = oracle_count_documents(docs, vocab)
            seen["oov_only"] += sum(not d for d in id_docs)
            seen["one_word"] += sum(len(d) == 1 for d in id_docs)
            _, kept, dropped, _ = oracle_tfidf(id_docs, vocab.size)
            seen["dropped_rows"] += bool(kept and dropped)
            seen["all_rows_kept"] += not dropped
        assert min(seen.values()) > 0, seen


# The reader load_documents replaced: the whole file as lists of str tokens.
# The property test requires the same documents and labels from both.
def oracle_load_documents(path, label_path=None):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    labels = None
    if label_path is not None:
        raw = Path(label_path).read_text(encoding="utf-8").splitlines()
        if len(raw) != len(lines):
            raise CorpusError(
                f"label/document count mismatch: {len(raw)} labels for {len(lines)} lines")
        labels = [int(s.strip()) for s in raw]
    docs = []
    kept_labels = []
    for i, line in enumerate(lines):
        toks = line.lower().split()
        if not toks:
            continue
        docs.append(toks)
        if labels is not None:
            kept_labels.append(labels[i])
    return docs, (kept_labels if labels is not None else None)


# Line ends that str.splitlines honours, file iteration ignoring all but the
# first three; whitespace that str.split splits on; letters whose lowercase
# differs in length (İ) or depends on what follows (Σ).
LINE_ENDS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029")
SPACES = (" ", "\t", "\xa0", "\u2003", "\x1f")
LETTERS = ("a", "B", "c", "\u0130", "i", "\u03a3", "\u00e9", "\u212a")


def random_text(rng):
    """Words, spaces and line ends of every kind, blank and whitespace-only
    lines among them, ending with or without a line end."""
    pieces = []
    for _ in range(int(rng.integers(0, 80))):
        kind = int(rng.integers(8))
        if kind < 2:
            pieces.append(LINE_ENDS[int(rng.integers(len(LINE_ENDS)))])
        elif kind < 4:
            pieces.append(SPACES[int(rng.integers(len(SPACES)))])
        else:
            pieces.append("".join(LETTERS[int(i)]
                                  for i in rng.integers(0, len(LETTERS), rng.integers(1, 4))))
    return "".join(pieces) + ("\n" if rng.integers(2) else "")


def reader_cases():
    """60 seeded texts, written with their line ends untranslated, each with
    a label file for about half of them."""
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        yield seed, rng, random_text(rng)


def assert_reads_like_oracle(tmp_path, seed, rng, text, vocab):
    path = tmp_path / f"docs{seed}.txt"
    path.write_bytes(text.encode("utf-8"))
    label_path = None
    if rng.integers(2):
        label_path = tmp_path / f"labels{seed}.txt"
        n_lines = len(path.read_text(encoding="utf-8").splitlines())
        label_path.write_text("".join(f"{i}\n" for i in range(n_lines)), encoding="utf-8")
    want, want_labels = oracle_load_documents(path, label_path)
    docs = read_documents(path, label_path, vocab=vocab)
    assert (docs.ids.dtype, docs.lengths.dtype) == (np.int32, np.int64), seed
    assert docs.lengths.tolist() == [len(doc) for doc in want], seed
    assert docs.labels == want_labels, seed
    flat = [tok for doc in want for tok in doc]
    if vocab is None:
        assert docs.tokens == list(dict.fromkeys(flat)), seed
        assert token_lists(docs) == want, seed
    else:
        assert docs.tokens is vocab.tokens, seed
        assert docs.ids.tolist() == [vocab.index.get(tok, -1) for tok in flat], seed
    lines = path.read_text(encoding="utf-8").splitlines()
    every_line = read_documents(path, vocab=vocab, keep_blank=True)
    assert every_line.lengths.tolist() == [len(line.lower().split()) for line in lines], seed
    assert every_line.ids.tobytes() == docs.ids.tobytes(), seed


def force_spans(monkeypatch, span_bytes, max_span_bytes=corpus_module.MAX_SPAN_BYTES):
    """Read each file of at least span_bytes in byte spans of at most about
    max_span_bytes, by 3 processes on 3 CPUs."""
    monkeypatch.setattr(corpus_module, "SPAN_BYTES", span_bytes)
    monkeypatch.setattr(corpus_module, "MAX_SPAN_BYTES", max_span_bytes)
    monkeypatch.setattr(corpus_module, "READERS", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@dataclass
class Reader:
    """A forked span reader: its pid, the number of readers still running
    (not reaped) when it was forked, and its span's (start, end) bytes."""

    pid: int
    running_before: int
    span: tuple[int, int] | None = None


@pytest.fixture
def children(monkeypatch):
    """The span readers forked in a test, each a Reader, recorded at
    os.fork and os.waitpid; each must be reaped by the test's end."""
    started, reaped = [], set()
    fork, waitpid = os.fork, os.waitpid
    start_reader = DocumentFile._start_reader

    def recorded_fork():
        running = sum(reader.pid not in reaped for reader in started)
        pid = fork()
        if pid:
            started.append(Reader(pid, running))
        return pid

    def recorded_waitpid(pid, options):
        done = waitpid(pid, options)
        if done[0]:
            reaped.add(done[0])
        return done

    def spanned(self, k, stage):
        start_reader(self, k, stage)
        started[-1].span = self.spans[k]

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    monkeypatch.setattr(DocumentFile, "_start_reader", spanned)
    yield started
    for reader in started:
        assert reader.pid in reaped
        with pytest.raises(ChildProcessError):   # not a child any more
            waitpid(reader.pid, os.WNOHANG)


# (with_vocab, read bytes, spans): one line per block at 1 byte, reads end
# mid-text at 7, and with spans each text of 8 bytes or more is read in
# up to 3 spans, whose readers number their own tokens (a vocabulary is
# looked up in this process only, as TestStreamingMatchesWholeFile checks)
READERS = [pytest.param(with_vocab, read_chars, False, id=f"{with_vocab}-{read_chars}")
           for with_vocab in (False, True) for read_chars in (corpus_module.READ_BYTES, 1, 7)
           ] + [pytest.param(False, 7, True, id="False-7-spans")]


class TestReaderMatchesOracle:
    VOCAB = Vocabulary(["a", "b", "i\u0307", "\u03c3", "\u03c2", "k", "aa"])

    @pytest.mark.parametrize("with_vocab, read_chars, spans", READERS)
    def test_random_texts(self, tmp_path, monkeypatch, with_vocab, read_chars, spans):
        monkeypatch.setattr(corpus_module, "READ_BYTES", read_chars)
        if spans:
            force_spans(monkeypatch, 8)
        for seed, rng, text in reader_cases():
            assert_reads_like_oracle(tmp_path, seed, rng, text,
                                     self.VOCAB if with_vocab else None)

    def test_texts_cover_the_edge_cases(self):
        texts = [text for _, _, text in reader_cases()]
        for piece in LINE_ENDS + SPACES + ("\u0130", "\u03a3"):
            assert any(piece in text for text in texts), repr(piece)
        lines = [line for text in texts for line in text.splitlines()]
        assert any(line and not line.split() for line in lines)
        assert any(not text.endswith(LINE_ENDS) for text in texts if text)
        assert any(len(text.lower()) > len(text) for text in texts)


def at_the_edge(tail: str, line_end: str = "\n") -> bytes:
    """A line long enough that two spans meet just after its line_end, then
    tail, as UTF-8."""
    data = ("a " * (len(tail) + 2) + "b" + line_end + tail).encode("utf-8")
    # the second span starts after the first "\n" at or after the middle
    assert data[data.index(b"\n", len(data) // 2) + 1:] == tail.encode("utf-8")
    return data


class TestSpans:
    """A file read in byte spans gives the documents, labels and errors of
    one process reading it whole."""

    @pytest.fixture(autouse=True)
    def two_spans(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "SPAN_BYTES", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def assert_reads_like_oracle(self, tmp_path, data, children, spans=2):
        path = tmp_path / "docs.txt"
        path.write_bytes(data)
        n_lines = len(data.decode("utf-8").splitlines())
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i}\n" for i in range(n_lines)), encoding="utf-8")
        want, want_labels = oracle_load_documents(path, labels)
        docs = read_documents(path, labels)
        assert spans is None or len(children) == spans - 1
        assert (token_lists(docs), docs.labels) == (want, want_labels)
        every_line = read_documents(path, keep_blank=True)
        assert every_line.lengths.tolist() == [len(line.lower().split())
                                               for line in data.decode("utf-8").splitlines()]

    def test_blank_line_at_the_edge(self, tmp_path, children):
        self.assert_reads_like_oracle(tmp_path, at_the_edge("\n \nc A\n"), children)

    def test_crlf_at_the_edge(self, tmp_path, children):
        self.assert_reads_like_oracle(tmp_path, at_the_edge("\r\nc\r\n", "\r\n"), children)

    def test_cr_only_file_is_one_span(self, tmp_path, children):
        self.assert_reads_like_oracle(tmp_path, b"a b\r" * 20 + b"c", children, spans=1)

    def test_no_final_line_end(self, tmp_path, children):
        self.assert_reads_like_oracle(tmp_path, at_the_edge("c\nd e"), children)

    @pytest.mark.parametrize("n_labels", [10, 14])
    def test_label_count_mismatch_found_in_a_later_span(self, tmp_path, children, n_labels):
        # 12 lines: the first span holds 7, so the mismatch shows in the second
        path = tmp_path / "docs.txt"
        path.write_text("a b\n" * 12, encoding="utf-8")
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n" * n_labels, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{n_labels} labels for 12 lines"):
            read_documents(path, labels)
        assert len(children) == 1

    def test_undecodable_byte_in_a_later_span(self, tmp_path, children):
        path = tmp_path / "docs.txt"
        path.write_bytes(b"a b\n" * 12 + b"c \xff\n")
        with DocumentFile(path) as source:
            first = load_documents(source)
            assert token_lists(first) == [["a", "b"]] * 7
            with pytest.raises(CorpusError, match="docs.txt is not UTF-8 text"):
                while load_documents(source) is not None:
                    pass

    def test_many_spans_read_in_turn(self, tmp_path, monkeypatch, children):
        # 3 readers, each span under 3 lines: this process reads spans 0, 3,
        # 6 ..., and a child starts only once the one 3 spans back is reaped
        force_spans(monkeypatch, 16, 32)
        data = "".join(f"w{i % 7} B{i % 3}\n" * (i % 3) + "\n" for i in range(40)).encode()
        self.assert_reads_like_oracle(tmp_path, data, children, spans=None)
        assert len(children) >= 6
        assert max(child.running_before for child in children) == 1
        longest_line = max(map(len, data.splitlines(keepends=True)))
        assert all(child.span[1] - child.span[0] <= 32 + longest_line for child in children)

    def test_a_span_reads_only_its_bytes(self, tmp_path):
        # a span is read at its offsets and moves no position of the file;
        # with no end, the file is read from its position on
        path = tmp_path / "docs.txt"
        path.write_bytes(b"a b\nc D\ne f g\n")
        with open(path, "rb") as file:
            table = FirstSeen()
            blocks = list(_read_blocks(file.fileno(), 4, 8, table))
            assert file.tell() == 0
            assert [(n.tolist(), ids.tolist()) for n, ids in blocks] == [([2], [0, 1])]
            assert table.tokens == ["c", "d"]
            file.seek(4)
            blocks = list(_read_blocks(file.fileno(), 0, None, table))
            assert [(n.tolist(), ids.tolist()) for n, ids in blocks] == [([2, 3], [0, 1, 2, 3, 4])]
            assert table.tokens == ["c", "d", "e", "f", "g"]

    def test_pipe_is_one_span(self, tmp_path, children):
        fifo = tmp_path / "docs.fifo"
        os.mkfifo(fifo)
        text = "a B\n\nc\r\nd e\n" * 20
        writer = threading.Thread(target=lambda: fifo.write_text(text, encoding="utf-8"))
        writer.start()
        try:
            docs = read_documents(fifo)
        finally:
            writer.join()
        assert children == []
        assert token_lists(docs) == [line.lower().split() for line in text.splitlines()
                                     if line.split()]


# Reads a 1x and an 8x file in spans of at most 1 MiB, by 2 readers at a
# time, and prints as JSON what each file's readers added to the resident
# set they were forked with (their peak, VmHWM, which a fork does not
# inherit, at their exit, less their resident set at their start), with the
# pids forked and those reaped. Its one argument is a directory for the
# files and the readers' notes.
READER_GROWTH = r"""
import json, os, sys
from pathlib import Path

import tomcat.corpus as corpus

def vm_kib(field):
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field + ":"))

root = Path(sys.argv[1])
fork, exit_, waitpid = os.fork, os._exit, os.waitpid
forked, reaped = [], []

def watched_fork():
    pid = fork()
    if pid == 0:
        (root / str(os.getpid())).write_text(str(vm_kib("VmRSS")))
    else:
        forked.append(pid)
    return pid

def watched_exit(status):
    try:
        note = root / str(os.getpid())
        note.write_text(str(vm_kib("VmHWM") - int(note.read_text())))
    finally:
        exit_(status)

def watched_waitpid(pid, options):
    done = waitpid(pid, options)
    if done[0]:
        reaped.append(done[0])
    return done

os.fork, os._exit, os.waitpid = watched_fork, watched_exit, watched_waitpid
os.sched_getaffinity = lambda pid: {0, 1}
corpus.SPAN_BYTES, corpus.MAX_SPAN_BYTES = 1 << 18, 1 << 20
line = " ".join(f"w{j}" for j in range(300)) + "\n"
growth = []
for scale in (1, 8):   # at most 2 and 16 MiB: 2 spans, then 16
    path = root / f"{scale}x.txt"
    path.write_text(line * ((2 << 20) // len(line) * scale), encoding="utf-8")
    first = len(forked)
    with corpus.DocumentFile(path) as source:
        while corpus.load_documents(source) is not None:
            pass
    growth.append([int((root / str(pid)).read_text()) for pid in forked[first:]])
print(json.dumps({"growth": growth, "forked": forked, "reaped": reaped}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
class TestSpanReaderMemory:
    """A span's reader buffers one span, and a span has a largest size, so an
    eightfold file starts more readers, not bigger ones. Cut into one span
    per process instead, the eightfold file's second half (8 MiB) was
    buffered by one reader whose peak was 6.3 MB above the 1x file's."""

    def test_children_peak_does_not_grow_with_the_file(self, tmp_path):
        # in a fresh interpreter, as a command forks its readers: what a
        # reader adds to its resident set depends on the heap it was forked
        # with, and a test run's heap holds what earlier tests left in it
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(corpus_module.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", READER_GROWTH, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        growth = result["growth"]
        assert sorted(result["forked"]) == sorted(result["reaped"])
        assert (len(growth[0]), len(growth[1])) == (1, 8)
        assert max(growth[1]) <= max(growth[0]) + 1024, growth
