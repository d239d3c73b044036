"""Corpus ingestion: vocabulary construction and normalized TF-IDF rows.

A corpus is a (documents, vocabulary) count matrix. The smoothed TF-IDF of
entry (i, j) is tf(i, j) * log(N / (1 + df(j))); negative weights (words
present in every document) are clamped to zero so that every retained row
normalizes onto the vocabulary simplex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np


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

    def id_of(self, token: str) -> int:
        return self.index[token]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls(Path(path).read_text(encoding="utf-8").splitlines())


@dataclass
class RawCorpus:
    """A (documents, vocabulary) float64 count matrix with optional class labels."""

    counts: np.ndarray
    labels: list[int] | None = None
    num_classes: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.counts.ndim != 2:
            raise CorpusError("counts must be a (documents, words) matrix")
        if not ((self.counts >= 0) & (self.counts < np.inf)).all():
            raise CorpusError("word counts must be finite and nonnegative")
        if self.labels is not None:
            if len(self.labels) != self.n_docs:
                raise CorpusError("labels must align one-to-one with documents")
            labels = np.asarray(self.labels, dtype=np.int64)
            bad = labels[(labels < 0) | (labels >= self.num_classes)]
            if bad.size:
                raise CorpusError(f"label {bad[0]} out of range [0, {self.num_classes})")

    @property
    def n_docs(self) -> int:
        return self.counts.shape[0]

    @property
    def num_words(self) -> int:
        return self.counts.shape[1]


@dataclass
class TfidfMatrix:
    """Row-normalized TF-IDF rows for the retained documents.

    ``kept_docs`` / ``dropped_docs`` index into the original corpus; rows
    whose smoothed weight summed to zero are dropped. ``doc_freq`` and
    ``n_docs`` are the statistics needed to transform unseen documents
    with the same idf.
    """

    rows: np.ndarray
    kept_docs: list[int]
    dropped_docs: list[int]
    doc_freq: np.ndarray
    n_docs: int


def build_vocabulary(docs: list[list[str]], min_count: int = 1,
                     max_vocab: int | None = None) -> Vocabulary:
    """Tokens with corpus frequency >= min_count, most frequent first.

    Ties are broken by ascending token so the ordering is deterministic;
    the list is truncated to the max_vocab most frequent entries.
    """
    if max_vocab is not None and max_vocab < 1:
        raise CorpusError(f"max_vocab must be >= 1, not {max_vocab}")
    if not docs:
        raise CorpusError("no documents given")
    counts = Counter()
    for doc in docs:
        counts.update(doc)
    survivors = [(tok, c) for tok, c in counts.items() if c >= min_count]
    if not survivors:
        raise CorpusError("no token survives the frequency filters (empty vocabulary)")
    survivors.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_vocab is not None:
        survivors = survivors[:max_vocab]
    return Vocabulary([tok for tok, _ in survivors])


def load_documents(path: str | Path,
                   label_path: str | Path | None = None
                   ) -> tuple[list[list[str]], list[int] | None]:
    """Read one whitespace-tokenized document per line, lowercased.

    Blank lines are dropped together with their labels. The label file,
    when given, must have exactly one integer per document line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    labels: list[int] | None = None
    if label_path is not None:
        raw = Path(label_path).read_text(encoding="utf-8").splitlines()
        if len(raw) != len(lines):
            raise CorpusError(
                f"label/document count mismatch: {len(raw)} labels for {len(lines)} lines")
        try:
            labels = [int(s.strip()) for s in raw]
        except ValueError as exc:
            raise CorpusError(f"label file {label_path} contains a non-integer line") from exc
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


def count_documents(docs: list[list[str]], vocab: Vocabulary,
                    labels: list[int] | None = None,
                    num_classes: int = 0) -> RawCorpus:
    """Count matrix of tokenized documents; out-of-vocabulary tokens are dropped."""
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    # word id of every token of the concatenated documents, -1 if out of vocabulary
    ids = np.fromiter(map(vocab.index.get, chain.from_iterable(docs), repeat(-1)),
                      dtype=np.int64, count=int(lengths.sum()))
    # the flat index doc * V + id of each in-vocabulary token's matrix cell
    cells = (np.repeat(np.arange(len(docs)) * vocab.size, lengths) + ids)[ids >= 0]
    counts = np.bincount(cells, weights=np.ones(cells.size), minlength=len(docs) * vocab.size)
    return RawCorpus(counts.reshape(len(docs), vocab.size), labels=labels,
                     num_classes=num_classes)


def idf_weights(doc_freq: np.ndarray, n_docs: int) -> np.ndarray:
    """Smoothed idf log(N / (1 + df)), clamped at zero."""
    idf = np.log(n_docs / (1.0 + np.asarray(doc_freq, dtype=np.float64)))
    return np.maximum(idf, 0.0)


def _weighted_rows(counts: np.ndarray, doc_freq: np.ndarray,
                   n_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed TF-IDF of every row of counts, in a new matrix, and each
    row's total weight. Totals are summed over the dense rows: summing the
    nonzeros alone would group the pairwise sums differently."""
    token_totals = counts.sum(axis=1, keepdims=True)
    tf = np.divide(counts, token_totals, out=np.zeros_like(counts),
                   where=token_totals > 0)
    tf *= idf_weights(doc_freq, n_docs)
    return tf, tf.sum(axis=1)


def tfidf(corpus: RawCorpus) -> TfidfMatrix:
    """Normalized TF-IDF rows; documents with zero total weight are dropped.

    idf is computed on this corpus; reuse it on held-out documents via
    tfidf_transform with the returned doc_freq / n_docs.
    """
    if corpus.n_docs < 2:
        raise CorpusError("tfidf needs at least 2 documents")
    doc_freq = (corpus.counts > 0).sum(axis=0)
    smoothed, weight = _weighted_rows(corpus.counts, doc_freq, corpus.n_docs)
    kept = np.flatnonzero(weight > 0)
    if kept.size == 0:
        raise CorpusError("every document lost all TF-IDF weight (all rows dropped)")
    dropped = np.flatnonzero(weight <= 0)
    rows = smoothed if dropped.size == 0 else smoothed[kept]
    rows /= weight[kept, None]
    return TfidfMatrix(rows=rows, kept_docs=kept.tolist(), dropped_docs=dropped.tolist(),
                       doc_freq=doc_freq, n_docs=corpus.n_docs)


def tfidf_transform(counts: np.ndarray, doc_freq: np.ndarray, n_docs: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """TF-IDF rows of an unseen documents' count matrix, using training-split
    idf statistics.

    Returns (rows, valid): documents whose weight sums to zero keep an
    all-zero row and are marked invalid rather than dropped, so callers
    can report them positionally.
    """
    rows, weight = _weighted_rows(counts, doc_freq, n_docs)
    valid = weight > 0
    np.divide(rows, weight[:, None], out=rows, where=valid[:, None])
    return rows, valid
