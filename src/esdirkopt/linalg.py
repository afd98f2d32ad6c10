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

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ContractViolation, SingularMatrix

#: A matrix counts as singular when max|A| * max|A^-1| * SINGULARITY_RTOL
#: reaches 1, i.e. when its condition number (in the max-entry norm) is
#: 1e14 or more, or when LAPACK meets an exactly zero pivot.
SINGULARITY_RTOL = 1e-14


def lu_factorize_batch(a):
    """Factorize a (B, n, n) stack of square matrices into the stack of
    their inverses.

    Raises SingularMatrix whose ``batch_row`` is the first row of ``a``
    that is singular by the SINGULARITY_RTOL threshold; a caller that
    factorizes some rows of its batch renumbers it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ContractViolation(f"not a (B, n, n) stack: shape {a.shape}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # LAPACK reports an exactly zero pivot for the stack as a whole
        for row in range(a.shape[0]):
            try:
                np.linalg.inv(a[row])
            except np.linalg.LinAlgError:
                raise SingularMatrix("zero pivot", row) from None
        raise
    abs_a, abs_inv = np.abs(a), np.abs(inv)
    # the whole stack's bound passes every matrix; inf and nan fail it
    if (abs_a.max(initial=0.0) * abs_inv.max(initial=0.0)
            * SINGULARITY_RTOL < 1.0):
        return inv
    cond = abs_a.max(axis=(1, 2)) * abs_inv.max(axis=(1, 2))
    ok = cond * SINGULARITY_RTOL < 1.0
    if not ok.all():
        row = int(np.argmin(ok))
        raise SingularMatrix(f"condition estimate {cond[row]:.3e}", row)
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
        raise ContractViolation(f"rhs has {b.shape[1]} rows, not {n}")
    if b.ndim == 2:
        return (f @ b[:, :, None])[:, :, 0]
    return f @ b


def lu_factorize(a):
    """lu_factorize_batch of a single square matrix."""
    # nothing in the package calls this or lu_solve; the benchmark's tracer
    # patches both by name, which is why they stay
    return lu_factorize_batch(np.asarray(a, dtype=float)[None])


def lu_solve(f, b):
    """lu_solve_batch with the factors of one matrix and an (n,) or (n, k)
    right-hand side."""
    return lu_solve_batch(f, np.asarray(b, dtype=float)[None])[0]


def _openblas_paths(maps):
    """The OpenBLAS files in ``maps``, /proc/self/maps text: the sixth
    field, spaces kept, less a deleted file's mark (the loaded name)."""
    fields = [line.split(maxsplit=5) for line in maps.splitlines()]
    return sorted({f[5].removesuffix(" (deleted)") for f in fields
                   if len(f) == 6 and "openblas" in f[5].lower()})


@functools.cache
def _blas_setter():
    """openblas_set_num_threads_local of the loaded OpenBLAS, or None."""
    try:
        for path in _openblas_paths(Path("/proc/self/maps").read_text()):
            fn = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local",
                         None)
            if fn is not None:      # ctypes' default: int in, int out
                return fn
    except OSError:         # no /proc, or a mapped file that does not load
        pass
    return None


_blas_lock = threading.Lock()
_blas_depth = 0         # scopes open now, in all threads
_blas_saved = None      # the count the first open scope replaced


@contextmanager
def blas_on_calling_thread():
    """Run OpenBLAS on the calling thread only: an idle BLAS worker spins
    between products this small. The count is process-wide, so the first
    of overlapping scopes sets it and the last restores the caller's."""
    global _blas_depth, _blas_saved
    setter = _blas_setter() or (lambda n: n)     # no OpenBLAS: do nothing
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = setter(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                setter(_blas_saved)
