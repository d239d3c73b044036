"""Output checks, written apart from the program so they can catch it out.

``recount_npmi`` recounts sliding-window co-occurrences only for the words a
coherence report names, with prefix sums over token positions instead of the
program's per-window sets, and recomputes NPMI by the README's definition.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path

import numpy as np

NPMI_EPS = 1e-12
SIMPLEX_TOL = 1e-9
# reports print reals at 9 significant digits; NPMI lies in [-1, 1]
PRINTED_TOL = 2e-9


def read_documents(path: Path) -> list[list[str]]:
    """Lowercased whitespace tokens of each non-blank line."""
    docs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        toks = line.lower().split()
        if toks:
            docs.append(toks)
    return docs


def count_documents(path: Path) -> int:
    """Number of non-blank lines, without keeping their tokens."""
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.split())


def on_simplex(rows: np.ndarray) -> bool:
    rows = np.asarray(rows)
    return (rows.ndim == 2 and bool(np.all(rows >= 0))
            and bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= SIMPLEX_TOL)))


def parse_coherence(text: str) -> tuple[list[tuple[float, list[str]]], float]:
    """(per-topic (npmi, top words), mean) from an eval-coherence report."""
    topics, mean = [], math.nan
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "mean":
            mean = float(fields[1])
        else:
            topics.append((float(fields[1]), fields[2].split()))
    return topics, mean


def recount_npmi(docs: list[list[str]], topic_words: list[list[str]],
                 window: int) -> list[float]:
    """Mean pairwise NPMI of each word list over boolean sliding windows
    (stride 1; a document shorter than the window is one window).

    Each word's windows are found from its token positions as sorted window
    indices; a pair's count is the size of the intersection of two such sets.
    """
    lengths = np.array([len(d) for d in docs])
    positions = np.maximum(1, lengths - window + 1)
    first_window = np.cumsum(positions) - positions
    doc_of_token = np.repeat(np.arange(len(docs)), lengths)
    local = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    n_windows = int(positions.sum())

    wanted = {w: j for j, w in enumerate(sorted({w for words in topic_words for w in words}))}
    ids = np.array([wanted.get(tok, -1) for doc in docs for tok in doc])
    windows_of: dict[str, np.ndarray] = {}
    for word, j in wanted.items():
        at = np.flatnonzero(ids == j)
        doc = doc_of_token[at]
        # a token at p lies in the windows starting at p - window + 1 .. p
        lo = np.maximum(0, local[at] - window + 1)
        hi = np.minimum(local[at], positions[doc] - 1)
        span = hi - lo + 1
        begin = first_window[doc] + lo
        expanded = np.repeat(begin - (np.cumsum(span) - span), span) + np.arange(span.sum())
        windows_of[word] = np.unique(expanded)

    scores = []
    for words in topic_words:
        pair_scores = []
        for wi, wj in combinations(words, 2):
            p_i = windows_of[wi].size / n_windows
            p_j = windows_of[wj].size / n_windows
            if p_i == 0.0 or p_j == 0.0:
                pair_scores.append(-1.0)
                continue
            both = np.intersect1d(windows_of[wi], windows_of[wj], assume_unique=True).size
            p_ij = both / n_windows + NPMI_EPS
            pair_scores.append(math.log(p_ij / (p_i * p_j)) / -math.log(p_ij))
        scores.append(float(np.mean(pair_scores)))
    return scores


def check_coherence(report: str, docs: list[list[str]], window: int) -> str | None:
    """None when every topic's NPMI lies in [-1, 1] and matches the recount."""
    topics, mean = parse_coherence(report)
    if not topics or not math.isfinite(mean):
        return "coherence report has no topics or no mean"
    recount = recount_npmi(docs, [words for _, words in topics], window)
    for k, ((npmi, _), expected) in enumerate(zip(topics, recount)):
        if not -1.0 <= npmi <= 1.0:
            return f"topic {k} NPMI {npmi} outside [-1, 1]"
        if abs(npmi - expected) > PRINTED_TOL:
            return f"topic {k} NPMI {npmi} != recount {expected:.12g}"
    if abs(mean - float(np.mean(recount))) > PRINTED_TOL:
        return f"mean NPMI {mean} != recount {float(np.mean(recount)):.12g}"
    return None


def check_loss_log(path: Path, iterations: int, final_lines: str) -> str | None:
    """None when the log has one row per iteration and the final losses are finite."""
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    if len(rows) != iterations:
        return f"loss log has {len(rows)} rows, expected {iterations}"
    finals = [line.split("\t") for line in final_lines.splitlines() if line.startswith("final\t")]
    if not finals:
        return "train printed no final losses"
    for _, name, value in finals:
        if not math.isfinite(float(value)):
            return f"final {name} is {value}"
    return None
