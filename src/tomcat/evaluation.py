"""Topic coherence via sliding-window NPMI, classification accuracy, and a
synthetic corpus generator with known topic supports for end-to-end checks."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .corpus import BLOCK_ROWS, CsrRows, Documents, Vocabulary, _offsets
from .networks import Network, sample_prior, top_word_ids, topic_word_distributions


class EvaluationError(ValueError):
    """Unusable evaluation input (empty reference, too few words, ...)."""


@dataclass
class CoocStats:
    """Boolean co-occurrence counts over sliding-window virtual documents."""

    window_size: int
    virtual_doc_count: int
    word_doc_counts: dict[int, int]
    pair_doc_counts: dict[tuple[int, int], int]


@dataclass
class TopicReport:
    topic_id: int
    top_words: list[str]
    npmi: float


def build_cooc(reference_docs: Iterable[Documents], window_size: int,
               word_sets: list[list[int]]) -> CoocStats:
    """Boolean co-occurrence counts of the words being scored, over every
    position of a width-window sliding window (stride 1).

    Every window position is one virtual document; a document shorter than
    the window is one virtual document, and windows never cross documents.
    Counts every word that appears in any of word_sets and every unordered
    pair of distinct words inside one set, each at most once per window, and
    stores a count, zero included, for exactly those words and pairs. Word
    ids index the tokens of the blocks of reference_docs, which are read
    once, a block at a time. Every other token, in the vocabulary or not,
    occupies its window slot but is never counted.
    """
    if window_size < 2:
        raise EvaluationError("window_size must be >= 2")
    scored = sorted({int(w) for words in word_sets for w in words})
    local = None
    # for each occurrence of a scored word: its set-local id and the first
    # and last window that hold it
    hit_words, hit_firsts, hit_lasts = [], [], []
    n_docs = n_windows = 0
    for docs in reference_docs:
        if local is None:
            num_words = len(docs.tokens)
            if scored and (scored[0] < 0 or scored[-1] >= num_words):
                raise EvaluationError(f"a scored word id lies outside [0, {num_words})")
            # set-local id of each word, -1 if unscored; the last entry keeps
            # -1 at -1. The smallest type that holds them: 8- and 16-bit ids
            # sort by radix, several times faster
            local = np.full(num_words + 1, -1, dtype=np.min_scalar_type(-len(scored) - 1))
            local[scored] = np.arange(len(scored))
        lengths = docs.lengths
        tokens = local[docs.ids]
        windows = np.maximum(1, lengths - window_size + 1)
        first_window = n_windows + np.cumsum(windows) - windows
        first_token = np.cumsum(lengths) - lengths
        hits = np.flatnonzero(tokens >= 0)
        doc = np.searchsorted(first_token, hits, side="right") - 1
        pos = hits - first_token[doc]
        hit_words.append(tokens[hits])
        hit_firsts.append(first_window[doc] + np.maximum(0, pos - window_size + 1))
        hit_lasts.append(first_window[doc] + np.minimum(pos, windows[doc] - 1))
        n_docs += lengths.size
        n_windows += int(windows.sum())
    if not n_docs:
        raise EvaluationError("empty reference corpus")

    # the occurrences grouped by word, each word's in corpus order, in which
    # neither their first nor their last windows ever decrease
    word = np.concatenate(hit_words)
    order = np.argsort(word, kind="stable")
    del hit_words
    word = word[order]
    lo = np.concatenate(hit_firsts)[order]
    del hit_firsts
    hi = np.concatenate(hit_lasts)[order]
    del hit_lasts, order
    # each word's windows as disjoint runs: a run starts at the word's first
    # occurrence and wherever an occurrence's first window lies past the
    # window after the previous one's last
    new = np.ones(word.size, dtype=bool)
    new[1:] = (word[1:] != word[:-1]) | (lo[1:] > hi[:-1] + 1)
    heads = np.flatnonzero(new)
    starts = lo[heads]
    # a run ends at the occurrence before the next run's head
    stops = hi[np.append(heads[1:], word.size) - 1] + 1 if heads.size else heads
    # set-local word j's runs are starts/stops[runs[j]:runs[j + 1]]
    runs = np.searchsorted(word[heads], np.arange(len(scored) + 1))
    del word, lo, hi, new, heads

    word_counts: dict[int, int] = {}
    pair_counts: dict[tuple[int, int], int] = {}
    for words in word_sets:
        ids = np.array(sorted({int(local[w]) for w in words}), dtype=np.int64)
        # the runs of the set's words, word by word: run[r] is word col[r]'s
        first, count = runs[ids], runs[ids + 1] - runs[ids]
        col = np.repeat(np.arange(ids.size), count)
        run = np.arange(col.size) - np.repeat(np.cumsum(count) - count, count) + first[col]
        gram = _segment_gram(starts[run], stops[run], col, ids.size).tolist()
        ids = ids.tolist()
        for k, j in enumerate(ids):
            word_counts[scored[j]] = gram[k][k]
        for i in range(len(ids) - 1):
            for k in range(i + 1, len(ids)):
                pair_counts[(scored[ids[i]], scored[ids[k]])] = gram[i][k]
    return CoocStats(window_size=window_size, virtual_doc_count=n_windows,
                     word_doc_counts=word_counts, pair_doc_counts=pair_counts)


# float64 entries (128 KiB) of the blocks of segments over which
# _segment_gram sums its Gram matrix
_GRAM_ENTRIES = 2 ** 14


def _segment_gram(starts: np.ndarray, stops: np.ndarray, col: np.ndarray,
                  m: int) -> np.ndarray:
    """The int64 (m, m) matrix of how many windows each of m words holds (on
    the diagonal) and each pair of them holds together, from their runs:
    run r covers windows starts[r] to stops[r] - 1 and belongs to word
    col[r]. col does not decrease, and one word's runs are disjoint, in
    order and never touch.

    The starts and stops cut the windows into segments, each held whole by
    a word or not at all; every count is an entry of the segment-length-
    weighted Gram matrix of the int8 0/1 segment-by-word matrix, summed a
    block of segments at a time.
    """
    # one word's starts and stops alternate and increase, so the bounds are
    # m sorted runs, which a stable (merging) sort takes in one pass each
    bounds = np.empty(2 * col.size, dtype=np.int64)
    bounds[0::2], bounds[1::2] = starts, stops
    order = np.argsort(bounds, kind="stable")
    cuts = bounds[order]
    distinct = np.empty(cuts.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(cuts[1:], cuts[:-1], out=distinct[1:])
    # segment t runs from cuts[t] to cuts[t + 1] - 1
    at = np.empty(cuts.size, dtype=np.int64)
    at[order] = np.cumsum(distinct) - 1
    cuts = cuts[distinct]
    holds = np.zeros((cuts.size, m), dtype=np.int8)
    flat = holds.reshape(-1)
    flat[at[0::2] * m + col] = 1
    flat[at[1::2] * m + col] = -1
    np.cumsum(holds, axis=0, out=holds)   # 1 where the word holds the segment
    holds, length = holds[:-1], np.diff(cuts).astype(np.float64)
    # integer entries below 2**53, which float64 sums exactly
    gram = np.zeros((m, m))
    step = max(1, _GRAM_ENTRIES // max(1, m))
    for first in range(0, length.size, step):
        block = holds[first:first + step].astype(np.float64)
        gram += block.T @ (block * length[first:first + step, None])
    return gram.astype(np.int64)


_NPMI_EPS = 1e-12


def npmi_pair(stats: CoocStats, wi: int, wj: int) -> float:
    """Normalized pointwise mutual information of one unordered word pair.

    Returns -1 when either marginal is zero; otherwise
    log((P(i,j)+eps) / (P(i) P(j))) / -log(P(i,j)+eps) with eps = 1e-12.
    """
    if wi == wj:
        raise EvaluationError("npmi_pair needs two distinct words")
    m = stats.virtual_doc_count
    p_i = stats.word_doc_counts.get(wi, 0) / m
    p_j = stats.word_doc_counts.get(wj, 0) / m
    if p_i == 0.0 or p_j == 0.0:
        return -1.0
    key = (wi, wj) if wi < wj else (wj, wi)
    p_ij = stats.pair_doc_counts.get(key, 0) / m + _NPMI_EPS
    return math.log(p_ij / (p_i * p_j)) / -math.log(p_ij)


def topic_npmi(stats: CoocStats, word_ids: list[int]) -> float:
    """Mean npmi_pair over all unordered pairs of the given topic words."""
    if len(word_ids) < 2:
        raise EvaluationError("topic coherence needs at least 2 words")
    scores = [npmi_pair(stats, wi, wj) for wi, wj in combinations(word_ids, 2)]
    return float(np.mean(scores))


def topic_word_ids(generator: Network, n: int) -> list[list[int]]:
    """Word ids of each topic's n most probable words (see top_word_ids)."""
    return [top_word_ids(row, n) for row in topic_word_distributions(generator)]


def model_coherence(vocab: Vocabulary, stats: CoocStats, word_ids: list[list[int]]
                    ) -> tuple[list[TopicReport], float]:
    """Per-topic NPMI of each topic's words, plus the mean across topics.

    word_ids[k] holds topic k's words, as topic_word_ids ranks them; stats
    must count them: pass word_ids among the word sets given to build_cooc.
    """
    reports = [TopicReport(topic_id=k, top_words=[vocab.tokens[i] for i in ids],
                           npmi=topic_npmi(stats, ids))
               for k, ids in enumerate(word_ids)]
    return reports, float(np.mean([r.npmi for r in reports]))


def format_coherence_report(reports: list[TopicReport], mean: float) -> str:
    lines = [f"{r.topic_id}\t{r.npmi:.9g}\t{' '.join(r.top_words)}" for r in reports]
    lines.append(f"mean\t{mean:.9g}")
    return "\n".join(lines) + "\n"


def classify_accuracy(classifier: Network, topic_rows: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions of the classifier on topic rows
    (encoder outputs) in eval mode.

    Ties resolve to the lowest class id.
    """
    labels = np.asarray(labels)
    if topic_rows.shape[0] != labels.shape[0]:
        raise EvaluationError("labels must align with rows")
    if labels.size == 0:
        raise EvaluationError("no rows to classify")
    correct = 0
    # scored a block at a time, so the classifier's activations stay block-sized
    for start in range(0, len(labels), BLOCK_ROWS):
        probs, _ = classifier.forward(topic_rows[start:start + BLOCK_ROWS], train=False)
        correct += int((probs.argmax(axis=1) == labels[start:start + BLOCK_ROWS]).sum())
    return correct / len(labels)


@dataclass
class SyntheticSpec:
    """LDA-style corpus with disjoint per-topic word supports."""

    num_topics: int
    words_per_topic: int
    num_docs: int
    doc_length: int
    doc_topic_alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.num_topics, self.words_per_topic, self.num_docs, self.doc_length) < 1:
            raise EvaluationError("synthetic corpus dimensions must be positive")
        if not 0 < self.doc_topic_alpha < math.inf:
            raise EvaluationError(f"doc_topic_alpha must be finite and positive, "
                                  f"not {self.doc_topic_alpha}")
        if self.seed < 0:
            raise EvaluationError(f"seed must be >= 0, not {self.seed}")

    @property
    def vocab_size(self) -> int:
        return self.num_topics * self.words_per_topic


def make_synthetic(spec: SyntheticSpec) -> tuple[CsrRows, list[int], list[list[int]]]:
    """Generate documents by drawing a topic mixture per document, then a
    topic per token, then a uniform word from that topic's support.

    Returns the documents' count rows, their labels (the argmax of each
    document's mixture) and the ground-truth word-id support of every topic.
    """
    rng = np.random.default_rng(spec.seed)
    thetas = sample_prior(spec.num_topics, spec.doc_topic_alpha, spec.num_docs, rng)
    if spec.vocab_size > np.iinfo(np.int32).max:
        raise EvaluationError(f"{spec.vocab_size} words do not fit int32 word ids")
    # the supports next: the one array as long as the vocabulary, so a size
    # too large to allocate fails here, before any document is drawn
    supports = np.arange(spec.vocab_size, dtype=np.int32).reshape(spec.num_topics, -1)
    # each document's stored entries: its words, in increasing order, and counts
    cols, counts = [], []
    for theta in thetas:
        topics = rng.choice(spec.num_topics, size=spec.doc_length, p=theta)
        offsets = rng.integers(0, spec.words_per_topic, size=spec.doc_length)
        col, count = np.unique(topics * spec.words_per_topic + offsets, return_counts=True)
        cols.append(col.astype(np.int32))
        counts.append(count.astype(np.float64))
    rows = CsrRows(_offsets(np.array([c.size for c in cols], dtype=np.int64)),
                   np.concatenate(cols), np.concatenate(counts), spec.vocab_size)
    return rows, thetas.argmax(axis=1).tolist(), supports.tolist()


def synthetic_vocabulary(spec: SyntheticSpec) -> Vocabulary:
    """Token names for a synthetic corpus, one per word id."""
    width = len(str(spec.vocab_size - 1))
    return Vocabulary([f"w{idx:0{width}d}" for idx in range(spec.vocab_size)])
