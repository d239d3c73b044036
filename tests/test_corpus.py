from pathlib import Path

import numpy as np
import pytest

import tomcat.corpus as corpus_module
from tomcat.corpus import (
    BLOCK_ROWS,
    CorpusError,
    CsrRows,
    DocumentFile,
    Documents,
    RawCorpus,
    Vocabulary,
    build_vocabulary,
    count_documents,
    idf_weights,
    load_documents,
    load_rows,
    save_rows,
    tfidf,
    tfidf_transform,
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


class TestTfidf:
    def test_hand_example_idf_cancels(self):
        # ids: a=0 b=1 c=2 d=3; every word has df=2, so idf=log(4/3) is a
        # common factor and cancels in the row normalization.
        corpus = RawCorpus(counts=[[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        mat = tfidf(corpus)
        assert mat.dropped_docs == []
        np.testing.assert_allclose(mat.rows[0], [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(mat.rows[1], [0.0, 0.5, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(mat.rows[3], [1 / 3, 0.0, 0.0, 2 / 3], atol=1e-12)

    def test_word_in_every_doc_drops_pure_row(self):
        # 'a' (id 0) appears in all 3 docs: idf = log(3/4) < 0, clamped to 0.
        # Doc 0 consists only of 'a', so its weight sum is 0 and it is dropped.
        corpus = RawCorpus(counts=[[1, 0, 0], [2, 1, 0], [1, 0, 1]])
        mat = tfidf(corpus)
        assert mat.dropped_docs == [0]
        assert mat.kept_docs == [1, 2]
        np.testing.assert_allclose(mat.rows[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_one_hot_row(self):
        corpus = RawCorpus(counts=[[3, 0, 0], [0, 1, 0], [0, 0, 2]])
        mat = tfidf(corpus)
        np.testing.assert_allclose(mat.rows[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_all_rows_dropped_error(self):
        corpus = RawCorpus(counts=[[1, 0], [2, 0]])
        with pytest.raises(CorpusError):
            tfidf(corpus)

    def test_requires_two_documents(self):
        with pytest.raises(CorpusError):
            tfidf(RawCorpus(counts=[[1, 0]]))

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
                mat = tfidf(RawCorpus(counts=counts))
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
        corpus = RawCorpus(counts=[[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        mat = tfidf(corpus)
        rows, valid = tfidf_transform(corpus.counts, mat.doc_freq, mat.n_docs)
        assert valid.all()
        np.testing.assert_allclose(rows, mat.rows, atol=1e-12)

    def test_transform_flags_zero_weight_docs(self):
        corpus = RawCorpus(counts=[[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        mat = tfidf(corpus)
        rows, valid = tfidf_transform(np.array([[0.0, 0, 0, 0], [1, 0, 0, 0]]),
                                      mat.doc_freq, mat.n_docs)
        assert valid.tolist() == [False, True]
        np.testing.assert_allclose(rows[0], 0.0)


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
            corpus = count_documents(docs, vocab)
            assert corpus.counts.tolist() == [[2, 0], [0, 1]]
            assert corpus.num_words == 2

    def test_empty_documents_give_empty_rows(self):
        vocab = Vocabulary(["a", "b"])
        corpus = count_documents(documents([[], ["zzz"], ["b", "a", "b"], []], vocab), vocab)
        assert corpus.csr.indptr.tolist() == [0, 0, 0, 2, 2]
        assert corpus.counts.tolist() == [[0, 0], [0, 0], [1, 2], [0, 0]]
        assert count_documents(documents([], vocab), vocab).csr.shape == (0, 2)

    def test_unknown_id_stays_unknown_through_the_lookup_table(self):
        # numpy reads table[-1] as the table's last entry: a token outside the
        # vocabulary the documents were read with must not become vocab's b
        docs = documents([["qq", "b", "qq"]], Vocabulary(["zzz", "a", "b"]))
        assert docs[0].ids.tolist() == [-1, 2, -1]
        assert count_documents(docs, Vocabulary(["a", "b"])).counts.tolist() == [[0, 1]]

    def test_labels_carried(self):
        vocab = Vocabulary(["a", "b"])
        corpus = count_documents(documents([["a"], ["b"]], vocab), vocab, labels=[1, 0],
                                 num_classes=2)
        assert corpus.labels == [1, 0]
        assert corpus.num_classes == 2


class TestRawCorpus:
    def test_shape_gives_sizes(self):
        corpus = RawCorpus(counts=np.zeros((3, 5)))
        assert (corpus.n_docs, corpus.num_words) == (3, 5)

    @pytest.mark.parametrize("counts", [[1.0, 2.0], [[1.0, -1.0]], [[np.nan, 1.0]],
                                        [[np.inf, 1.0]]])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(CorpusError):
            RawCorpus(counts=counts)

    @pytest.mark.parametrize("labels", [[0], [0, 2], [-1, 0]])
    def test_malformed_labels_rejected(self, labels):
        with pytest.raises(CorpusError):
            RawCorpus(counts=np.ones((2, 3)), labels=labels, num_classes=2)


class TestCsrRows:
    def test_take_equals_dense_gather(self):
        dense = np.array([[0.0, 2.5, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0], [0.0, 0.5, 0.0]])
        csr = CsrRows.from_dense(dense)
        assert csr.shape == (4, 3)
        assert csr.indptr.tolist() == [0, 1, 1, 3, 4]
        for idx in ([0, 1, 2, 3], [3, 3, 1, 0], [1], []):
            idx = np.array(idx, dtype=np.int64)
            assert csr.take(idx).tobytes() == dense[idx].tobytes()
        assert csr.toarray().tobytes() == dense.tobytes()

    def test_stack_concatenates_rows(self):
        a, b = np.eye(3)[:2], np.array([[0.0, 0.0, 4.0]])
        stacked = CsrRows.stack([CsrRows.from_dense(a), CsrRows.from_dense(b)], 3)
        assert stacked.toarray().tobytes() == np.vstack([a, b]).tobytes()
        assert CsrRows.stack([], 3).shape == (0, 3)


class TestRowsArchive:
    def test_round_trip(self, tmp_path):
        corpus = RawCorpus(counts=[[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
        mat = tfidf(corpus)
        for labels in (None, np.array([1, 0, 2, 1])[mat.kept_docs]):
            save_rows(tmp_path / "rows.npz", mat, labels)
            loaded, loaded_labels = load_rows(tmp_path / "rows.npz", 4, 4, 3)
            assert loaded.rows.tobytes() == mat.rows.tobytes()
            assert loaded.doc_freq.tobytes() == mat.doc_freq.tobytes()
            assert (loaded.kept_docs, loaded.dropped_docs) == (mat.kept_docs, mat.dropped_docs)
            assert loaded.n_docs == 4
            assert (loaded_labels is None if labels is None
                    else loaded_labels.tolist() == labels.tolist())
        assert [p.name for p in tmp_path.iterdir()] == ["rows.npz"]


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
    return indptr.astype(np.int64), cols.astype(np.int64), dense[rows, cols]


def assert_matches_oracle(vocab, docs, held_out, case):
    """count_documents, tfidf and tfidf_transform give the oracle's bytes,
    and the CSR rows of tfidf are the nonzeros of the oracle's dense rows."""
    corpus = count_documents(documents(docs), vocab)
    id_docs = oracle_count_documents(docs, vocab)
    assert (corpus.counts.tobytes()
            == oracle_count_matrix(id_docs, vocab.size).tobytes()), case

    rows, kept, dropped, doc_freq = oracle_tfidf(id_docs, vocab.size)
    if not kept:
        with pytest.raises(CorpusError):
            tfidf(corpus)
        return None
    before = corpus.counts.copy()
    mat = tfidf(corpus)
    assert mat.rows.tobytes() == rows.tobytes(), case
    for got, want in zip((mat.csr.indptr, mat.csr.indices, mat.csr.data), csr_of(rows)):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), case
    assert mat.doc_freq.tobytes() == doc_freq.tobytes(), case
    assert (mat.kept_docs, mat.dropped_docs) == (kept, dropped), case
    assert corpus.counts.tobytes() == before.tobytes(), case

    new_rows, new_valid = tfidf_transform(count_documents(documents(held_out, vocab),
                                                          vocab).counts,
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


class TestReaderMatchesOracle:
    VOCAB = Vocabulary(["a", "b", "i\u0307", "\u03c3", "\u03c2", "k", "aa"])

    @pytest.mark.parametrize("read_chars", [corpus_module.READ_CHARS, 1, 7])
    @pytest.mark.parametrize("with_vocab", [False, True])
    def test_random_texts(self, tmp_path, monkeypatch, read_chars, with_vocab):
        # one line per block at 1 character; blocks end mid-text at 7
        monkeypatch.setattr(corpus_module, "READ_CHARS", read_chars)
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
