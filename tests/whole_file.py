"""The commands as they were before they read a block of documents at a time:
each file read whole into int64 word ids, counted at once, weighed as one
dense matrix, and every scored word's bitset of windows built at once. The
streaming commands must give the same bytes, so these serve their tests as
the oracle."""

from __future__ import annotations

import json
import zlib
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from pathlib import Path

import numpy as np

from conftest import csr_from_dense
from tomcat.corpus import (
    CorpusError,
    CsrRows,
    TfidfMatrix,
    Vocabulary,
    _offsets,
    idf_weights,
)
from tomcat.evaluation import (
    CoocStats,
    EvaluationError,
    classify_accuracy,
    format_coherence_report,
    model_coherence,
    topic_word_ids,
)

BLOCK_ROWS = 256     # documents per encoded block
READ_CHARS = 1 << 16


@dataclass
class WholeDocuments:
    tokens: list[str]
    ids: np.ndarray        # int64
    lengths: np.ndarray    # int64
    labels: list[int] | None


def _id_table(vocab):
    table = defaultdict(repeat(-1).__next__, vocab.index if vocab is not None else ())
    if vocab is None:
        table.default_factory = table.__len__
    return table


def _token_ids(table, tokens, count):
    return np.fromiter(map(table.__getitem__, tokens), dtype=np.int64, count=count)


def load_documents(path, label_path=None, vocab=None, keep_blank=False) -> WholeDocuments:
    table = _id_table(vocab)
    lengths, ids = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    with open(path, encoding="utf-8") as fh:
        while block := fh.readlines(READ_CHARS):
            lines = [line.split() for line in "".join(block).lower().splitlines()]
            lengths.append(np.fromiter(map(len, lines), np.int64, len(lines)))
            ids.append(_token_ids(table, chain.from_iterable(lines), int(lengths[-1].sum())))
    lengths = np.concatenate(lengths)
    labels = None
    if label_path is not None:
        raw = Path(label_path).read_text(encoding="utf-8").splitlines()
        if len(raw) != lengths.size:
            raise CorpusError(
                f"label/document count mismatch: {len(raw)} labels for {lengths.size} lines")
        labels = [int(s.strip()) for s in raw]
    if not keep_blank:
        kept = np.flatnonzero(lengths)
        lengths = lengths[kept]
        if labels is not None:
            labels = [labels[i] for i in kept]
    return WholeDocuments(vocab.tokens if vocab is not None else list(table),
                          np.concatenate(ids), lengths, labels)


def build_vocabulary(docs, min_count=1, max_vocab=None) -> Vocabulary:
    counts = np.bincount(docs.ids, minlength=len(docs.tokens)).tolist()
    survivors = [i for i, c in enumerate(counts) if c >= min_count]
    survivors.sort(key=lambda i: (-counts[i], docs.tokens[i]))
    return Vocabulary([docs.tokens[i] for i in survivors[:max_vocab]])


def count_documents(docs, vocab) -> CsrRows:
    ids = docs.ids
    if docs.tokens is not vocab.tokens:
        ids = np.append(_token_ids(_id_table(vocab), docs.tokens, len(docs.tokens)), -1)[ids]
    n_docs = docs.lengths.size
    cells = (np.repeat(np.arange(n_docs) * vocab.size, docs.lengths) + ids)[ids >= 0]
    cells, counts = np.unique(cells, return_counts=True)
    rows, cols = np.divmod(cells, vocab.size)
    return CsrRows(_offsets(np.bincount(rows, minlength=n_docs)), cols,
                   counts.astype(np.float64), vocab.size)


def _weigh_rows(counts, idf):
    """Turn a dense count matrix into its smoothed TF-IDF in place and return
    each row's total weight."""
    token_totals = counts.sum(axis=1, keepdims=True)
    token_totals[token_totals == 0] = 1.0
    counts /= token_totals
    counts *= idf
    return counts.sum(axis=1)


def tfidf(counts) -> TfidfMatrix:
    doc_freq = np.bincount(counts.indices, minlength=counts.num_cols)
    rows = counts.toarray()
    weight = _weigh_rows(rows, idf_weights(doc_freq, counts.shape[0]))
    kept = np.flatnonzero(weight > 0)
    return TfidfMatrix(csr=csr_from_dense(rows[kept] / weight[kept, None]),
                       kept_docs=kept.tolist(), dropped_docs=np.flatnonzero(weight <= 0).tolist(),
                       doc_freq=doc_freq, n_docs=counts.shape[0])


def tfidf_transform(counts, doc_freq, n_docs):
    rows = np.array(counts, dtype=np.float64)
    weight = _weigh_rows(rows, idf_weights(doc_freq, n_docs))
    valid = weight > 0
    np.divide(rows, weight[:, None], out=rows, where=valid[:, None])
    return rows, valid


def build_cooc(docs, window_size, word_sets) -> CoocStats:
    lengths = docs.lengths
    if not lengths.size:
        raise EvaluationError("empty reference corpus")
    scored = sorted({int(w) for words in word_sets for w in words})
    local = np.full(len(docs.tokens) + 1, -1, dtype=np.int32)
    local[scored] = np.arange(len(scored))
    tokens = local[docs.ids]
    windows = np.maximum(1, lengths - window_size + 1)
    first_window = np.cumsum(windows) - windows
    first_token = np.cumsum(lengths) - lengths
    n_windows = int(windows.sum())
    hits = np.flatnonzero(tokens >= 0)
    word = tokens[hits]
    order = np.argsort(word, kind="stable")
    hits, word = hits[order], word[order]
    doc = np.searchsorted(first_token, hits, side="right") - 1
    pos = hits - first_token[doc]
    lo = first_window[doc] + np.maximum(0, pos - window_size + 1)
    hi = first_window[doc] + np.minimum(pos, windows[doc] - 1)
    bounds = np.searchsorted(word, np.arange(len(scored) + 1))
    bits = np.empty((len(scored), -(-n_windows // 64)), dtype=np.uint64)
    covered = np.empty(bits.shape[1] * 64, dtype=bool)
    for j in range(len(scored)):
        covered[:] = False
        first, last = lo[bounds[j]:bounds[j + 1]], hi[bounds[j]:bounds[j + 1]]
        for offset in range(window_size):
            start = first + offset
            covered[start[start <= last]] = True
        bits[j] = np.packbits(covered).view(np.uint64)
    counts = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    word_counts = {w: int(c) for w, c in zip(scored, counts)}
    pair_counts = {}
    for words in word_sets:
        pairs = list(combinations(sorted({int(local[w]) for w in words}), 2))
        if not pairs:
            continue
        a, b = np.array(pairs).T
        both = np.bitwise_count(bits[a] & bits[b]).sum(axis=1, dtype=np.int64)
        for (i, j), c in zip(pairs, both):
            pair_counts[(scored[i], scored[j])] = int(c)
    return CoocStats(window_size=window_size, virtual_doc_count=n_windows,
                     word_doc_counts=word_counts, pair_doc_counts=pair_counts)


def rows_file(indptr, indices, data, num_words, doc_freq, kept, labels=None) -> bytes:
    """The bytes of a rows.bin file, its layout spelled out here: the magic
    TCROWS02 and the int64 counts n_rows, nnz, num_words and labelled, the
    8-byte arrays indptr, data (float64), doc_freq, kept and, when given,
    labels, then the int32 column ids, all little-endian, then the CRC-32 of
    every byte before it."""
    arrays = [np.asarray(indptr, "<i8"), np.asarray(data, "<f8"), np.asarray(doc_freq, "<i8"),
              np.asarray(kept, "<i8")] + ([] if labels is None else [np.asarray(labels, "<i8")])
    blob = (b"TCROWS02"
            + np.array([len(kept), len(indices), num_words, labels is not None], "<i8").tobytes()
            + b"".join(a.tobytes() for a in arrays) + np.asarray(indices, "<i4").tobytes())
    return blob + zlib.crc32(blob).to_bytes(4, "little")


def ingest(docs_path, label_path, out: Path, min_count=1, max_vocab=None) -> str:
    """Write vocab.txt, rows.bin and manifest.json to out; return stdout."""
    docs = load_documents(docs_path, label_path)
    vocab = build_vocabulary(docs, min_count=min_count, max_vocab=max_vocab)
    labels = docs.labels
    num_classes = (max(labels) + 1) if labels else 0
    counts = count_documents(docs, vocab)
    mat = tfidf(counts)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    csr = mat.csr
    (out / "rows.bin").write_bytes(rows_file(
        csr.indptr, csr.indices, csr.data, vocab.size, mat.doc_freq, mat.kept_docs,
        None if labels is None else np.asarray(labels)[mat.kept_docs]))
    manifest = {"n_docs": counts.shape[0], "vocab_size": vocab.size, "n_classes": num_classes,
                "dropped_rows": mat.dropped_docs}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return (f"n_docs\t{counts.shape[0]}\nvocab_size\t{vocab.size}\nn_classes\t{num_classes}\n"
            f"dropped_rows\t{len(mat.dropped_docs)}\n")


def encode(ckpt, docs) -> tuple[np.ndarray, str]:
    """Topic rows and the warnings printed for zero-weight documents."""
    counts = count_documents(docs, ckpt.vocab)
    z = np.full((counts.shape[0], ckpt.num_topics), 1.0 / ckpt.num_topics)
    warnings = []
    for start in range(0, len(z), BLOCK_ROWS):
        block = np.arange(start, min(start + BLOCK_ROWS, len(z)))
        rows, valid = tfidf_transform(counts.take(block), ckpt.doc_freq, ckpt.train_doc_count)
        if valid.any():
            z[block[valid]], _ = ckpt.encoder.forward(rows if valid.all() else rows[valid],
                                                      train=False)
        warnings += [f"warning: document {i} has no usable tokens; emitting uniform row\n"
                     for i in block[~valid]]
    return z, "".join(warnings)


def infer(ckpt, docs_path) -> tuple[str, str]:
    """stdout and stderr of infer."""
    z, err = encode(ckpt, load_documents(docs_path, vocab=ckpt.vocab, keep_blank=True))
    return "".join("\t".join(f"{v:.9g}" for v in row) + "\n" for row in z), err


def classify(ckpt, docs_path, label_path) -> tuple[str, str]:
    """stdout and stderr of classify."""
    docs = load_documents(docs_path, label_path, vocab=ckpt.vocab)
    z, err = encode(ckpt, docs)
    return f"accuracy\t{classify_accuracy(ckpt.classifier, z, docs.labels):.9g}\n", err


def coherence(ckpt, reference, window, top_n=10) -> str:
    """The eval-coherence report."""
    word_ids = topic_word_ids(ckpt.generator, top_n)
    stats = build_cooc(load_documents(reference, vocab=ckpt.vocab), window, word_ids)
    return format_coherence_report(*model_coherence(ckpt.vocab, stats, word_ids))
