"""Dense linear algebra for the stage iteration matrices.

The iteration matrices are tiny (4x4 for the quadruple tank) and come in
stacks, one matrix per shooting interval. A stack is factorized by one
stacked LAPACK inversion (``np.linalg.inv``, LU with partial pivoting
under the hood). The factors are the (B, n, n) stack of inverses, so
``factors[rows]`` restricts them to some batch rows, and every solve is
one batched matrix product. For such small matrices this is far cheaper
than any per-matrix or per-column loop in Python, and it is
deterministic: each matrix of a stack gets the same result as it would
on its own.
"""

import numpy as np

from .errors import DimensionError, SingularMatrix

#: A matrix counts as singular when max|A| * max|A^-1| * SINGULARITY_RTOL
#: reaches 1, i.e. when its condition number (in the max-entry norm) is
#: 1e14 or more, or when LAPACK meets an exactly zero pivot.
SINGULARITY_RTOL = 1e-14


def _singular(row, detail):
    exc = SingularMatrix(f"{detail} in batch row {row}")
    exc.batch_row = row
    return exc


def lu_factorize_batch(a):
    """Factorize a (B, n, n) stack of square matrices into the stack of
    their inverses.

    Raises SingularMatrix naming (in its message and its ``batch_row``)
    the first row that is singular by the SINGULARITY_RTOL threshold.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionError(f"expected a (B, n, n) stack, got shape {a.shape}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # LAPACK reports an exactly zero pivot for the stack as a whole
        for row in range(a.shape[0]):
            try:
                np.linalg.inv(a[row])
            except np.linalg.LinAlgError:
                raise _singular(row, "zero pivot") from None
        raise
    cond = np.abs(a).max(axis=(1, 2)) * np.abs(inv).max(axis=(1, 2))
    ok = cond * SINGULARITY_RTOL < 1.0      # false for inf and nan too
    if not ok.all():
        row = int(np.argmin(ok))
        raise _singular(row, f"condition estimate {cond[row]:.3e}")
    return inv


def lu_solve_batch(f, b):
    """Solve the stacked systems A_b X_b = B_b, given the factors ``f``
    of the A_b from lu_factorize_batch.

    ``b`` has shape (B, n) for one right-hand side per batch row or
    (B, n, k) for k of them.
    """
    b = np.asarray(b, dtype=float)
    n = f.shape[-1]
    if b.shape[1] != n:
        raise DimensionError(f"rhs has {b.shape[1]} rows, factors are "
                             f"{n}x{n}")
    if b.ndim == 2:
        return (f @ b[:, :, None])[:, :, 0]
    return f @ b


def lu_factorize(a):
    """lu_factorize_batch of a single square matrix."""
    # nothing in the package calls this or lu_solve; the benchmark's tracer
    # patches both by name, which is why they stay
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return lu_factorize_batch(a[None])


def lu_solve(f, b):
    """lu_solve_batch with the factors of one matrix and an (n,) or (n, k)
    right-hand side."""
    return lu_solve_batch(f, np.asarray(b, dtype=float)[None])[0]
