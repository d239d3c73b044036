"""Topic coherence via sliding-window NPMI, classification accuracy, and a
synthetic corpus generator with known topic supports for end-to-end checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .corpus import Documents, RawCorpus, Vocabulary
from .networks import DirichletPrior, Network, sample_prior, top_word_ids, topic_word_distributions


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
    word_distribution: np.ndarray
    top_words: list[str]
    npmi: float


def build_cooc(reference_docs: Documents, window_size: int,
               word_sets: list[list[int]]) -> CoocStats:
    """Boolean co-occurrence counts of the words being scored, over every
    position of a width-window sliding window (stride 1).

    Every window position is one virtual document; a document shorter than
    the window is one virtual document, and windows never cross documents.
    Counts every word that appears in any of word_sets and every unordered
    pair of distinct words inside one set, each at most once per window, and
    stores a count, zero included, for exactly those words and pairs. Word
    ids index reference_docs.tokens. Every other token, in the vocabulary or
    not, occupies its window slot but is never counted.
    """
    if window_size < 2:
        raise EvaluationError("window_size must be >= 2")
    lengths = reference_docs.lengths
    if not lengths.size:
        raise EvaluationError("empty reference corpus")
    scored = sorted({int(w) for words in word_sets for w in words})
    num_words = len(reference_docs.tokens)
    if scored and (scored[0] < 0 or scored[-1] >= num_words):
        raise EvaluationError(f"a scored word id lies outside [0, {num_words})")
    # set-local id of each word, -1 if unscored; the last entry keeps -1 at -1
    local = np.full(num_words + 1, -1, dtype=np.int32)
    local[scored] = np.arange(len(scored))
    # set-local id of every token of the concatenated documents
    tokens = local[reference_docs.ids]
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
    # the windows holding the token at pos start at lo .. hi (inclusive)
    lo = first_window[doc] + np.maximum(0, pos - window_size + 1)
    hi = first_window[doc] + np.minimum(pos, windows[doc] - 1)
    bounds = np.searchsorted(word, np.arange(len(scored) + 1))

    # one bitset of windows per scored word, packed into 64-bit words; the
    # padding bits past the last window stay clear
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
    pair_counts: dict[tuple[int, int], int] = {}
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


def model_coherence(generator: Network, vocab: Vocabulary, stats: CoocStats,
                    n: int = 10) -> tuple[list[TopicReport], float]:
    """Per-topic NPMI of the generator's top-n words, plus the mean across topics.

    stats must count these words: pass topic_word_ids(generator, n) among
    the word sets given to build_cooc.
    """
    reports = []
    for k, row in enumerate(topic_word_distributions(generator)):
        ids = top_word_ids(row, n)
        reports.append(TopicReport(topic_id=k, word_distribution=row,
                                   top_words=[vocab.tokens[i] for i in ids],
                                   npmi=topic_npmi(stats, ids)))
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
    probs, _ = classifier.forward(topic_rows, train=False)
    return float((probs.argmax(axis=1) == labels).mean())


@dataclass
class SyntheticSpec:
    """LDA-style corpus with disjoint per-topic word supports."""

    num_topics: int
    words_per_topic: int
    num_docs: int
    doc_length: int
    doc_topic_alpha: float
    seed: int

    def __post_init__(self):
        if min(self.num_topics, self.words_per_topic, self.num_docs, self.doc_length) < 1:
            raise EvaluationError("synthetic corpus dimensions must be positive")
        if self.doc_topic_alpha <= 0:
            raise EvaluationError("doc_topic_alpha must be positive")

    @property
    def vocab_size(self) -> int:
        return self.num_topics * self.words_per_topic


def make_synthetic(spec: SyntheticSpec) -> tuple[RawCorpus, list[list[int]]]:
    """Generate documents by drawing a topic mixture per document, then a
    topic per token, then a uniform word from that topic's support.

    Labels are the argmax of each document's mixture. Returns the corpus and
    the ground-truth word-id support of every topic.
    """
    rng = np.random.default_rng(spec.seed)
    supports = [list(range(k * spec.words_per_topic, (k + 1) * spec.words_per_topic))
                for k in range(spec.num_topics)]
    prior = DirichletPrior(spec.num_topics, spec.doc_topic_alpha)
    thetas = sample_prior(prior, spec.num_docs, rng)
    counts = np.empty((spec.num_docs, spec.vocab_size))
    for row, theta in zip(counts, thetas):
        topics = rng.choice(spec.num_topics, size=spec.doc_length, p=theta)
        offsets = rng.integers(0, spec.words_per_topic, size=spec.doc_length)
        row[:] = np.bincount(topics * spec.words_per_topic + offsets,
                             minlength=spec.vocab_size)
    corpus = RawCorpus(counts, labels=thetas.argmax(axis=1).tolist(),
                       num_classes=spec.num_topics)
    return corpus, supports


def synthetic_vocabulary(spec: SyntheticSpec) -> Vocabulary:
    """Token names for a synthetic corpus, one per word id."""
    width = len(str(spec.vocab_size - 1))
    return Vocabulary([f"w{idx:0{width}d}" for idx in range(spec.vocab_size)])


def greedy_topic_matches(learned: np.ndarray,
                         supports: list[list[int]]) -> list[tuple[int, int, float]]:
    """Greedy one-to-one pairing of learned topics with true supports.

    Repeatedly pairs the (topic, support) combination with the highest
    remaining mass-on-support; returns (topic index, support index, mass)
    triples, one per true support.
    """
    if learned.shape[0] < len(supports):
        raise EvaluationError("need at least as many learned topics as true supports")
    mass = np.stack([learned[:, sup].sum(axis=1) for sup in supports], axis=1)
    available = mass.copy()
    matches = []
    for _ in range(len(supports)):
        k, t = np.unravel_index(np.argmax(available), available.shape)
        matches.append((int(k), int(t), float(mass[k, t])))
        available[k, :] = -np.inf
        available[:, t] = -np.inf
    return matches


def topic_recovery_score(learned: np.ndarray, supports: list[list[int]]) -> float:
    """Mean, over greedily matched true topics, of the probability mass the
    matched learned topic places on that support. Invariant under permutation
    of the learned rows."""
    matches = greedy_topic_matches(learned, supports)
    return float(np.mean([m for _, _, m in matches]))
