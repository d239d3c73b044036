"""Corpus ingestion: vocabulary construction and normalized TF-IDF rows.

A corpus is a (documents, vocabulary) count matrix, held as CSR rows and
weighted a block of documents at a time. The smoothed TF-IDF of
entry (i, j) is tf(i, j) * log(N / (1 + df(j))); negative weights (words
present in every document) are clamped to zero so that every retained row
normalizes onto the vocabulary simplex.
"""

from __future__ import annotations

import io
import lzma
import tokenize
import zipfile
import zlib
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .fileio import write_atomic


class CorpusError(ValueError):
    """Unusable corpus input: empty vocabulary, misaligned labels, degenerate rows."""


@dataclass
class Vocabulary:
    """Ordered list of unique tokens; a token's position is its word id."""

    tokens: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        if len(self.tokens) < 2:
            raise ValueError("vocabulary needs at least 2 tokens")
        self.index = {t: i for i, t in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls(Path(path).read_text(encoding="utf-8").splitlines())


class RowsError(ValueError):
    """A rows.npz archive that save_rows did not write: undecodable, or its
    arrays break the layout."""


# Documents per block: tfidf and infer weigh this many documents at a time,
# so no dense matrix of the vocabulary's width has more rows.
BLOCK_ROWS = 256


@dataclass
class CsrRows:
    """Rows of an (n_rows, num_cols) float64 matrix in compressed sparse row
    form, the layout of scikit-learn's CSR matrices: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in increasing column order. Entries
    not stored are zero."""

    indptr: np.ndarray    # int64, n_rows + 1 offsets from 0 to nnz
    indices: np.ndarray   # int64 column of each stored entry
    data: np.ndarray      # float64 value of each stored entry
    num_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.num_cols

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrRows":
        """The nonzero entries of a 2-d matrix, as float64."""
        # a flat scan of a boolean mask: np.nonzero of the 2-d matrix itself
        # is several times slower
        flat = np.flatnonzero(dense.ravel() != 0)
        rows, cols = np.divmod(flat, dense.shape[1])
        return cls(_offsets(np.bincount(rows, minlength=dense.shape[0])), cols,
                   dense.ravel()[flat].astype(np.float64), dense.shape[1])

    @classmethod
    def stack(cls, blocks: list["CsrRows"], num_cols: int) -> "CsrRows":
        """The rows of every block, in order (no rows for no blocks)."""
        lengths = [np.diff(b.indptr) for b in blocks]
        return cls(_offsets(np.concatenate([np.zeros(0, np.int64)] + lengths)),
                   np.concatenate([np.zeros(0, np.int64)] + [b.indices for b in blocks]),
                   np.concatenate([np.zeros(0)] + [b.data for b in blocks]), num_cols)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The given rows as a new dense (len(rows), num_cols) matrix."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        # position in indices/data of every stored entry of the chosen rows
        pos = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                   lengths)
        out = np.zeros((len(rows), self.num_cols))
        out[np.repeat(np.arange(len(rows)), lengths), self.indices[pos]] = self.data[pos]
        return out

    def toarray(self) -> np.ndarray:
        return self.take(np.arange(self.shape[0]))


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Row offsets (indptr) of rows with the given numbers of entries."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


class RawCorpus:
    """A (documents, vocabulary) float64 count matrix with optional class
    labels. The counts are held as CSR rows (``csr``); ``counts`` builds the
    dense matrix when read."""

    def __init__(self, counts: np.ndarray | CsrRows, labels: list[int] | None = None,
                 num_classes: int = 0):
        if not isinstance(counts, CsrRows):
            dense = np.asarray(counts, dtype=np.float64)
            if dense.ndim != 2:
                raise CorpusError("counts must be a (documents, words) matrix")
            counts = CsrRows.from_dense(dense)
        # a negative or NaN count is a nonzero, so it is stored and seen here
        if not ((counts.data > 0) & (counts.data < np.inf)).all():
            raise CorpusError("word counts must be finite and nonnegative")
        self.csr = counts
        self.labels = labels
        self.num_classes = num_classes
        if labels is not None:
            if len(labels) != self.n_docs:
                raise CorpusError("labels must align one-to-one with documents")
            labels = np.asarray(labels, dtype=np.int64)
            bad = labels[(labels < 0) | (labels >= num_classes)]
            if bad.size:
                raise CorpusError(f"label {bad[0]} out of range [0, {num_classes})")

    @property
    def counts(self) -> np.ndarray:
        """The dense count matrix, built on each read."""
        return self.csr.toarray()

    @property
    def n_docs(self) -> int:
        return self.csr.shape[0]

    @property
    def num_words(self) -> int:
        return self.csr.shape[1]


@dataclass
class TfidfMatrix:
    """Row-normalized TF-IDF rows for the retained documents, as CSR rows.

    ``kept_docs`` / ``dropped_docs`` index into the original corpus; rows
    whose smoothed weight summed to zero are dropped. ``doc_freq`` and
    ``n_docs`` are the statistics needed to transform unseen documents
    with the same idf.
    """

    csr: CsrRows
    kept_docs: list[int]
    dropped_docs: list[int]
    doc_freq: np.ndarray
    n_docs: int

    @property
    def rows(self) -> np.ndarray:
        """The rows as a dense matrix, built on each read."""
        return self.csr.toarray()


@dataclass
class Documents:
    """A block of a document file as word ids: document i is the next
    ``lengths[i]`` ids. An id indexes ``tokens``; -1 marks a token outside
    them. ``labels``, when the file has labels, are the documents'."""

    tokens: list[str]
    ids: np.ndarray        # int32
    lengths: np.ndarray    # int64
    labels: list[int] | None

    def split(self, n: int) -> tuple["Documents", "Documents"]:
        """The first n documents and the rest, as views of this block."""
        cut = int(self.lengths[:n].sum())
        labels = (None, None) if self.labels is None else (self.labels[:n], self.labels[n:])
        return (Documents(self.tokens, self.ids[:cut], self.lengths[:n], labels[0]),
                Documents(self.tokens, self.ids[cut:], self.lengths[n:], labels[1]))

    @classmethod
    def join(cls, parts: list["Documents"]) -> "Documents":
        """The documents of the parts, in order, as one block; the parts come
        from one file, so the last one's tokens cover every id."""
        labels = None if parts[0].labels is None else [lab for p in parts for lab in p.labels]
        return cls(parts[-1].tokens, np.concatenate([p.ids for p in parts]),
                   np.concatenate([p.lengths for p in parts]), labels)


READ_CHARS = 1 << 16   # load_documents reads blocks of about this many characters


class _FirstSeen(dict):
    """token -> id, each new token taking the next id; ``tokens`` lists
    them by id."""

    def __init__(self):
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        self[token] = wid = len(self.tokens)
        self.tokens.append(token)
        return wid


def _id_table(vocab: Vocabulary) -> defaultdict:
    """token -> vocab's id, -1 for any other token."""
    return defaultdict(repeat(-1).__next__, vocab.index)


def _token_ids(table: dict, tokens, count: int) -> np.ndarray:
    """The int32 id of each of count tokens: the one place a token becomes an id."""
    return np.fromiter(map(table.__getitem__, tokens), dtype=np.int32, count=count)


def _label_mismatch(labels: list[int], lines: int) -> CorpusError:
    return CorpusError(f"label/document count mismatch: {len(labels)} labels for {lines} lines")


class DocumentFile:
    """A file of one whitespace-tokenized document per line, open to be read
    by load_documents a block of whole lines at a time.

    Lines are those of ``str.splitlines``, lowercased. Every block's ids come
    from one table: vocab's, or, with no vocabulary, the file's distinct
    tokens in order of first appearance (``tokens``, which grows as blocks
    are read). Blank lines are dropped together with their labels, unless
    keep_blank, when each is a document of no tokens. The label file, read
    whole on opening, must have exactly one integer per document line.
    """

    def __init__(self, path: str | Path, label_path: str | Path | None = None,
                 vocab: Vocabulary | None = None, keep_blank: bool = False):
        self.labels: list[int] | None = None
        if label_path is not None:
            raw = Path(label_path).read_text(encoding="utf-8").splitlines()
            try:
                self.labels = [int(s.strip()) for s in raw]
            except ValueError as exc:
                raise CorpusError(f"label file {label_path} contains a non-integer line") from exc
        self.keep_blank = keep_blank
        if vocab is None:
            self.table: dict = _FirstSeen()
            self.tokens = self.table.tokens
        else:
            self.table = _id_table(vocab)
            self.tokens = vocab.tokens
        self.lines = 0   # lines read so far
        self.file = open(path, encoding="utf-8")

    def close(self) -> None:
        self.file.close()

    def __enter__(self) -> "DocumentFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def next_lines(self) -> list[str] | None:
        """The next block of about READ_CHARS characters of whole lines,
        lowercased; None at the end of the file."""
        # each block ends at a line end, so its lines are the file's lines
        block = self.file.readlines(READ_CHARS)
        return "".join(block).lower().splitlines() if block else None


def load_documents(source: DocumentFile) -> Documents | None:
    """The next block of source's documents, None at the end of the file.

    Raises CorpusError once the file's line count is known to differ from
    its label count.
    """
    lines = source.next_lines()
    if lines is None:
        if source.labels is not None and len(source.labels) != source.lines:
            raise _label_mismatch(source.labels, source.lines)
        return None
    start = source.lines
    source.lines += len(lines)
    labels = None
    if source.labels is not None:
        if source.lines > len(source.labels):
            while (rest := source.next_lines()) is not None:   # count every line
                source.lines += len(rest)
            raise _label_mismatch(source.labels, source.lines)
        labels = source.labels[start:source.lines]
    lines = [line.split() for line in lines]
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    ids = _token_ids(source.table, chain.from_iterable(lines), int(lengths.sum()))
    if not source.keep_blank:
        kept = np.flatnonzero(lengths)
        lengths = lengths[kept]
        if labels is not None:
            labels = [labels[i] for i in kept]
    return Documents(source.tokens, ids, lengths, labels)


def group_documents(blocks: Iterable[Documents]) -> Iterator[Documents]:
    """The documents of the blocks, in order, BLOCK_ROWS at a time (the last
    group may hold fewer)."""
    parts, size = [], 0
    for docs in blocks:
        while docs.lengths.size:
            head, docs = docs.split(BLOCK_ROWS - size)
            parts.append(head)
            size += head.lengths.size
            if size == BLOCK_ROWS:
                yield Documents.join(parts)
                parts, size = [], 0
    if size:
        yield Documents.join(parts)


def build_vocabulary(blocks: list[Documents], min_count: int = 1,
                     max_vocab: int | None = None) -> Vocabulary:
    """Tokens with corpus frequency >= min_count, most frequent first, from
    the blocks of a file read without a vocabulary.

    Ties are broken by ascending token so the ordering is deterministic;
    the list is truncated to the max_vocab most frequent entries.
    """
    if max_vocab is not None and max_vocab < 1:
        raise CorpusError(f"max_vocab must be >= 1, not {max_vocab}")
    if not any(docs.lengths.size for docs in blocks):
        raise CorpusError("no documents given")
    tokens = blocks[-1].tokens   # every block's, read to the end
    totals = np.zeros(len(tokens), dtype=np.int64)
    for docs in blocks:
        totals += np.bincount(docs.ids, minlength=len(tokens))
    counts = totals.tolist()
    survivors = [i for i, c in enumerate(counts) if c >= min_count]
    if not survivors:
        raise CorpusError("no token survives the frequency filters (empty vocabulary)")
    survivors.sort(key=lambda i: (-counts[i], tokens[i]))
    return Vocabulary([tokens[i] for i in survivors[:max_vocab]])


def count_documents(blocks: Iterable[Documents], vocab: Vocabulary,
                    labels: list[int] | None = None,
                    num_classes: int = 0) -> RawCorpus:
    """Count rows of the documents of the blocks, in order, over vocab's
    words; tokens outside the vocabulary are dropped."""
    rows, lookup = [], None
    for docs in blocks:
        ids = docs.ids
        if docs.tokens is not vocab.tokens:
            if lookup is None or lookup.size != len(docs.tokens) + 1:
                # vocab's id of each of the documents' tokens; the last entry keeps -1 at -1
                lookup = np.append(_token_ids(_id_table(vocab), docs.tokens, len(docs.tokens)),
                                   np.int32(-1))
            ids = lookup[ids]
        n_docs = docs.lengths.size
        # the flat index doc * V + id of each in-vocabulary token's cell
        cells = (np.repeat(np.arange(n_docs) * vocab.size, docs.lengths) + ids)[ids >= 0]
        cells, counts = np.unique(cells, return_counts=True)
        doc, cols = np.divmod(cells, vocab.size)
        rows.append(CsrRows(_offsets(np.bincount(doc, minlength=n_docs)), cols,
                            counts.astype(np.float64), vocab.size))
    return RawCorpus(CsrRows.stack(rows, vocab.size), labels=labels, num_classes=num_classes)


def idf_weights(doc_freq: np.ndarray, n_docs: int) -> np.ndarray:
    """Smoothed idf log(N / (1 + df)), clamped at zero."""
    idf = np.log(n_docs / (1.0 + np.asarray(doc_freq, dtype=np.float64)))
    return np.maximum(idf, 0.0)


def _weigh_rows(counts: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """Turn a nonnegative count matrix into its smoothed TF-IDF in place and
    return each row's total weight. Totals are summed over the dense rows:
    summing the nonzeros alone would group the pairwise sums differently."""
    token_totals = counts.sum(axis=1, keepdims=True)
    token_totals[token_totals == 0] = 1.0   # an all-zero row stays zero
    counts /= token_totals
    counts *= idf
    return counts.sum(axis=1)


def tfidf(corpus: RawCorpus) -> TfidfMatrix:
    """Normalized TF-IDF rows; documents with zero total weight are dropped.

    The rows are weighted a block of documents at a time, each block
    densified for its row sums, so no dense matrix of the whole corpus is
    built. idf is computed on this corpus; reuse it on held-out documents
    via tfidf_transform with the returned doc_freq / n_docs.
    """
    if corpus.n_docs < 2:
        raise CorpusError("tfidf needs at least 2 documents")
    counts = corpus.csr
    # every stored count is positive: one entry per (document, word) pair
    doc_freq = np.bincount(counts.indices, minlength=corpus.num_words)
    idf = idf_weights(doc_freq, corpus.n_docs)
    blocks, weights = [], []
    for start in range(0, corpus.n_docs, BLOCK_ROWS):
        block = counts.take(np.arange(start, min(start + BLOCK_ROWS, corpus.n_docs)))
        weight = _weigh_rows(block, idf)
        kept = weight > 0
        rows = block if kept.all() else block[kept]
        rows /= weight[kept, None]
        blocks.append(CsrRows.from_dense(rows))
        weights.append(weight)
    weight = np.concatenate(weights)
    kept = np.flatnonzero(weight > 0)
    if kept.size == 0:
        raise CorpusError("every document lost all TF-IDF weight (all rows dropped)")
    return TfidfMatrix(csr=CsrRows.stack(blocks, corpus.num_words), kept_docs=kept.tolist(),
                       dropped_docs=np.flatnonzero(weight <= 0).tolist(),
                       doc_freq=doc_freq, n_docs=corpus.n_docs)


def tfidf_transform(counts: np.ndarray, doc_freq: np.ndarray, n_docs: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """TF-IDF rows of an unseen documents' count matrix, using training-split
    idf statistics.

    Returns (rows, valid): documents whose weight sums to zero keep an
    all-zero row and are marked invalid rather than dropped, so callers
    can report them positionally.
    """
    rows = np.array(counts, dtype=np.float64)
    weight = _weigh_rows(rows, idf_weights(doc_freq, n_docs))
    valid = weight > 0
    np.divide(rows, weight[:, None], out=rows, where=valid[:, None])
    return rows, valid


# The arrays of a rows.npz archive; "labels" is stored only for labelled corpora.
_ROWS_ARRAYS = ("indptr", "indices", "data", "doc_freq", "kept_docs")
# What reading a damaged zip or .npy member can raise: zipfile's own errors,
# bad .npy headers and truncated members (ValueError, EOFError, and
# TokenError from numpy's fallback parse of an old-style header), a flipped
# compression method or flag (NotImplementedError, RuntimeError, zlib.error,
# LZMAError, and OSError from bz2), a name absent from the directory (KeyError).
_DECODE_ERRORS = (zipfile.BadZipFile, ValueError, EOFError, tokenize.TokenError, KeyError,
                  NotImplementedError, RuntimeError, OSError, zlib.error, lzma.LZMAError)


def save_rows(path: str | Path, mat: TfidfMatrix, labels: np.ndarray | None) -> None:
    """Write mat's CSR rows, doc_freq, kept row ids and, when given, the kept
    rows' labels to an uncompressed .npz archive, atomically."""
    arrays = {"indptr": mat.csr.indptr, "indices": mat.csr.indices, "data": mat.csr.data,
              "doc_freq": np.asarray(mat.doc_freq, dtype=np.int64),
              "kept_docs": np.asarray(mat.kept_docs, dtype=np.int64)}
    if labels is not None:
        arrays["labels"] = np.asarray(labels, dtype=np.int64)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    write_atomic(path, buf.getbuffer())


def load_rows(path: str | Path, num_words: int, n_docs: int,
              num_classes: int) -> tuple[TfidfMatrix, np.ndarray | None]:
    """The TF-IDF rows and the kept rows' labels (None when the archive has
    none) of a rows.npz archive of a corpus of n_docs documents over
    num_words words.

    Raises RowsError when the archive cannot be decoded or its arrays break
    the layout save_rows writes; an unreadable file raises OSError.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(b"PK\x03\x04"):
        raise RowsError(f"{path} is not a zip archive")
    try:
        with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except _DECODE_ERRORS as exc:
        raise RowsError(f"{path} cannot be decoded: {type(exc).__name__}: {exc}") from exc
    if not set(_ROWS_ARRAYS) <= set(arrays) <= {*_ROWS_ARRAYS, "labels"}:
        raise RowsError(f"{path} holds the arrays {sorted(arrays)}, not "
                        f"{list(_ROWS_ARRAYS)} and optionally labels")

    def check(ok, what: str) -> None:
        if not ok:
            raise RowsError(f"{path}: {what}")

    for name, array in arrays.items():
        check(array.ndim == 1 and array.dtype == (np.float64 if name == "data" else np.int64),
              f"{name} must be a 1-d {'float64' if name == 'data' else 'int64'} array, "
              f"not {array.ndim}-d {array.dtype}")
    indptr, indices, data = arrays["indptr"], arrays["indices"], arrays["data"]
    n_rows = indptr.size - 1
    check(n_rows >= 0 and indptr[0] == 0 and indptr[-1] == indices.size == data.size,
          "indptr must run from 0 to the number of stored entries")
    lengths = np.diff(indptr)
    check((lengths > 0).all(), "indptr must be strictly increasing (no empty row)")
    check(((indices >= 0) & (indices < num_words)).all(),
          f"a column index lies outside [0, {num_words})")
    # columns increase within each row: row * V + column increases throughout
    cells = np.repeat(np.arange(n_rows) * num_words, lengths) + indices
    check((np.diff(cells) > 0).all(), "columns must increase within each row")
    check(((data > 0) & (data < np.inf)).all(), "data must be finite and positive")
    doc_freq = arrays["doc_freq"]
    check(doc_freq.size == num_words and ((doc_freq >= 0) & (doc_freq <= n_docs)).all(),
          f"doc_freq must hold {num_words} counts in [0, {n_docs}]")
    kept = arrays["kept_docs"]
    check(kept.size == n_rows, f"{kept.size} kept row ids for {n_rows} rows")
    check(kept.size == 0 or (kept[0] >= 0 and kept[-1] < n_docs and (np.diff(kept) > 0).all()),
          f"kept row ids must increase within [0, {n_docs})")
    labels = arrays.get("labels")
    if labels is not None:
        check(labels.size == n_rows, f"{labels.size} labels for {n_rows} rows")
        check(((labels >= 0) & (labels < num_classes)).all(),
              f"a label lies outside [0, {num_classes})")
    dropped = np.ones(n_docs, dtype=bool)
    dropped[kept] = False
    mat = TfidfMatrix(csr=CsrRows(indptr, indices, data, num_words), kept_docs=kept.tolist(),
                      dropped_docs=np.flatnonzero(dropped).tolist(), doc_freq=doc_freq,
                      n_docs=n_docs)
    return mat, labels
