import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdirkopt.errors import DimensionError, SingularMatrix
from esdirkopt.linalg import (lu_factorize, lu_factorize_batch, lu_solve,
                              lu_solve_batch)


def test_solve_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 7):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(lu_factorize(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-10)


def test_multi_rhs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal((4, 3))
    x = lu_solve(lu_factorize(a), b)
    assert x.shape == (4, 3)
    assert np.allclose(a @ x, b, rtol=0, atol=1e-10)


def test_permutation_matrix_pivots():
    f = lu_factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = lu_solve(f, np.array([2.0, 3.0]))
    assert np.allclose(x, [3.0, 2.0], rtol=0, atol=0)


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_factorize(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        lu_factorize(np.zeros((3, 3)))


def test_nonsquare_raises():
    with pytest.raises(DimensionError):
        lu_factorize(np.ones((2, 3)))


def test_rhs_dimension_mismatch():
    f = lu_factorize(np.eye(3))
    with pytest.raises(DimensionError):
        lu_solve(f, np.ones(4))


def test_batch_matches_numpy_solve():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal((6, 4))
    xb = lu_solve_batch(lu_factorize_batch(a), b)
    assert np.allclose(xb, np.linalg.solve(a, b[:, :, None])[:, :, 0],
                       rtol=1e-13, atol=0)
    # a single matrix gets the same factors as inside a stack
    for k in range(6):
        assert np.array_equal(lu_solve(lu_factorize(a[k]), b[k]), xb[k])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_batch_solve_property(nb, n, seed, data):
    # diagonally dominant stacks solve like np.linalg.solve; a singular
    # matrix at any row is reported with that row
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (nb, n, n))
    a += np.eye(n) * (np.abs(a).sum(axis=2, keepdims=True) + 1.0)
    b = rng.standard_normal((nb, n, 2))
    x = lu_solve_batch(lu_factorize_batch(a), b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-14)
    row = data.draw(st.integers(0, nb - 1))
    a[row, :, -1] = a[row, :, 0] if n > 1 else 0.0
    with pytest.raises(SingularMatrix, match=f"batch row {row}$") as err:
        lu_factorize_batch(a)
    assert err.value.batch_row == row


def test_batch_multi_rhs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3, 3)) + 3 * np.eye(3)
    b = rng.standard_normal((5, 3, 2))
    x = lu_solve_batch(lu_factorize_batch(a), b)
    assert x.shape == (5, 3, 2)
    assert np.allclose(a @ x, b, rtol=0, atol=1e-10)


def test_batch_rows_subset():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 3, 3)) + 3 * np.eye(3)
    f = lu_factorize_batch(a)
    sub = f[[0, 3]]
    b = rng.standard_normal((2, 3))
    x = lu_solve_batch(sub, b)
    assert np.allclose(a[[0, 3]] @ x[:, :, None], b[:, :, None],
                       rtol=0, atol=1e-10)


def test_batch_singular_names_row():
    a = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
    with pytest.raises(SingularMatrix, match="batch row 1") as err:
        lu_factorize_batch(a)
    assert err.value.batch_row == 1


def test_batch_shape_checks():
    with pytest.raises(DimensionError):
        lu_factorize_batch(np.ones((4, 4)))
    f = lu_factorize_batch(np.tile(np.eye(3), (2, 1, 1)))
    with pytest.raises(DimensionError):
        lu_solve_batch(f, np.ones((2, 4)))


def test_stack_bound_falls_back_to_each_matrix():
    # max|A| * max|A^-1| over the stack is 1e16, past the threshold, but
    # each matrix is perfectly conditioned
    a = np.stack([1e8 * np.eye(3), 1e-8 * np.eye(3)])
    f = lu_factorize_batch(a)
    assert np.array_equal(f, np.linalg.inv(a))


def test_first_of_two_singular_rows_named():
    a = np.tile(np.eye(3), (5, 1, 1))
    a[2, 0, 1] = a[4, 0, 1] = 1e15
    with pytest.raises(SingularMatrix, match="batch row 2$") as err:
        lu_factorize_batch(a)
    assert err.value.batch_row == 2
    for bad in (np.nan, np.inf):
        a = np.tile(np.eye(2), (3, 1, 1))
        a[1, 1, 0] = bad
        with pytest.raises(SingularMatrix) as err:
            lu_factorize_batch(a)
        assert err.value.batch_row == 1
