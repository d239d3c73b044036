import numpy as np

from tomcat.corpus import CsrRows, _offsets
from tomcat.evaluation import EvaluationError
from tomcat.training import RowBatch


def numerical_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function at array x.

    Entries of x are perturbed in place, so closures may read x through an
    alias (for example a layer parameter) instead of through the argument.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def csr_from_dense(dense: np.ndarray) -> CsrRows:
    """The nonzero entries of a 2-d matrix, as float64."""
    # a flat scan of a boolean mask: np.nonzero of the 2-d matrix itself
    # is several times slower
    flat = np.flatnonzero(dense.ravel() != 0)
    rows, cols = np.divmod(flat, dense.shape[1])
    return CsrRows(_offsets(np.bincount(rows, minlength=dense.shape[0])), cols.astype(np.int32),
                   dense.ravel()[flat].astype(np.float64), dense.shape[1])


def row_batch(dense):
    """Dense document rows as the RowBatch that train() hands its phases."""
    return RowBatch(csr_from_dense(dense), np.arange(len(dense)))


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
