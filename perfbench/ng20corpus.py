"""Seeded, offline corpus shaped like 20 Newsgroups.

Twenty overlapping topics over a Zipfian raw vocabulary, a shared Zipfian
background (the stop-word-like mass that TF-IDF discounts), and lognormal
document lengths. The raw vocabulary is larger than the 2000 words kept by
``ingest --max-vocab 2000``, so ingest prunes it as it would real text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

NUM_DOCS = 6000
NUM_TOPICS = 20
RAW_VOCAB = 6000
MEAN_DOC_LEN = 150.0
DOC_LEN_SIGMA = 0.6
MIN_DOC_LEN = 12
MAX_DOC_LEN = 1200
ZIPF_EXPONENT = 0.9
TOPIC_SUPPORT = 350
BACKGROUND_SHARE = 0.35
DOC_TOPIC_ALPHA = 0.08
KEPT_VOCAB = 2000   # ingest --max-vocab


_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "cl", "dr", "gr", "pl", "pr", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ng")


def _pseudo_words(count: int, rng: np.random.Generator) -> list[str]:
    """Distinct lowercase pseudo-words of one to three syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = int(rng.integers(1, 4))
        word = "".join(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                       + _CODAS[rng.integers(len(_CODAS))] for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def generate(seed: int) -> list[list[str]]:
    """The documents, as token lists."""
    rng = np.random.default_rng(seed)
    tokens = _pseudo_words(RAW_VOCAB, rng)
    # background: Zipf over a random ranking of the raw vocabulary
    background = np.zeros(RAW_VOCAB)
    background[rng.permutation(RAW_VOCAB)] = _zipf(RAW_VOCAB, ZIPF_EXPONENT)
    # topics: Zipfian weights over supports drawn in proportion to sqrt of the
    # background, so frequent words are shared by several topics
    pick = np.sqrt(background)
    pick /= pick.sum()
    topics = np.zeros((NUM_TOPICS, RAW_VOCAB))
    for k in range(NUM_TOPICS):
        support = rng.choice(RAW_VOCAB, size=TOPIC_SUPPORT, replace=False, p=pick)
        topics[k, support] = _zipf(TOPIC_SUPPORT, ZIPF_EXPONENT)

    mu = np.log(MEAN_DOC_LEN) - DOC_LEN_SIGMA ** 2 / 2
    lengths = np.clip(np.rint(rng.lognormal(mu, DOC_LEN_SIGMA, NUM_DOCS)),
                      MIN_DOC_LEN, MAX_DOC_LEN).astype(np.int64)
    thetas = rng.dirichlet(np.full(NUM_TOPICS, DOC_TOPIC_ALPHA), NUM_DOCS)

    # source of every token: a topic drawn from its document's mixture, or
    # the background (index NUM_TOPICS)
    doc_of = np.repeat(np.arange(NUM_DOCS), lengths)
    n_tokens = doc_of.size
    cum_theta = np.cumsum(thetas, axis=1)
    cum_theta[:, -1] = 1.0
    # document i's cumulative mixture shifted into (i, i + 1], so one sorted
    # search draws every token's topic
    shifted = (cum_theta + np.arange(NUM_DOCS)[:, None]).ravel()
    slot = np.searchsorted(shifted, doc_of + rng.random(n_tokens), side="right")
    topic = slot - doc_of * NUM_TOPICS
    source = np.where(rng.random(n_tokens) < BACKGROUND_SHARE, NUM_TOPICS, topic)
    words = np.empty(n_tokens, dtype=np.int64)
    u = rng.random(n_tokens)
    for s, dist in enumerate(list(topics) + [background]):
        at = np.flatnonzero(source == s)
        cdf = np.cumsum(dist)
        cdf[-1] = 1.0
        words[at] = np.searchsorted(cdf, u[at], side="right")

    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [[tokens[w] for w in words[bounds[i]:bounds[i + 1]]] for i in range(NUM_DOCS)]


def write_corpus(docs: list[list[str]], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(" ".join(doc) + "\n" for doc in docs), encoding="utf-8")


def shape(docs: list[list[str]]) -> dict:
    """Doc count, mean length, raw and kept vocabulary and the TF-IDF density
    (nonzero share of the kept-vocabulary count matrix) after pruning to
    the KEPT_VOCAB most frequent words, ties by token, as ingest does."""
    counts: dict[str, int] = {}
    for doc in docs:
        for tok in doc:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(counts, key=lambda t: (-counts[t], t))[:KEPT_VOCAB]
    kept_set = set(kept)
    nonzero = sum(len(kept_set.intersection(doc)) for doc in docs)
    return {
        "n_docs": len(docs),
        "mean_doc_len": round(sum(map(len, docs)) / len(docs), 2),
        "raw_vocab": len(counts),
        "vocab_size": len(kept),
        "tfidf_density": round(nonzero / (len(docs) * len(kept)), 4),
    }

