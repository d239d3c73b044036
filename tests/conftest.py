import numpy as np

from tomcat.corpus import CsrRows
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


def row_batch(dense):
    """Dense document rows as the RowBatch that train() hands its phases."""
    return RowBatch(CsrRows.from_dense(dense), np.arange(len(dense)))
