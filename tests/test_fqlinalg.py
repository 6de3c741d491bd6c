# Field arithmetic and exact linear algebra, checked against independent
# pure-python oracles

import random

import numpy as np
import pytest

from cascade_codes.fqlinalg import (
    BinaryField,
    PrimeField,
    column_basis,
    is_prime,
    mat_inverse,
    mat_mul,
    mat_rank,
    rref,
    solve_exact,
)

from oracles import oracle_mat_mul, oracle_rank


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for x in range(2, 50):
        assert is_prime(x) == (x in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(257)
    assert not is_prime(65535)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_ops_exhaustive_gf7():
    field = PrimeField(7)
    for a in range(7):
        for b in range(7):
            assert int(field.add(a, b)) == (a + b) % 7
            assert int(field.sub(a, b)) == (a - b) % 7
            assert int(field.mul(a, b)) == (a * b) % 7
            if b:
                assert int(field.mul(field.div(a, b), b)) == a % 7
    for a in range(1, 7):
        assert int(field.mul(a, field.inv(a))) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_prime_field_signed_unit():
    field = PrimeField(11)
    assert int(field.signed_unit(0)) == 1
    assert int(field.signed_unit(1)) == 10
    assert int(field.signed_unit(2)) == 1
    assert int(field.signed_unit(-1)) == 10
    arr = field.signed_unit(np.arange(6))
    assert list(arr) == [1, 10, 1, 10, 1, 10]


def test_binary_field_tables():
    field = BinaryField(4)
    assert field.q == 16
    assert field.characteristic == 2
    for a in range(16):
        assert int(field.add(a, a)) == 0
        assert int(field.mul(a, 1)) == a
        assert int(field.mul(a, 0)) == 0
    for a in range(1, 16):
        assert int(field.mul(a, field.inv(a))) == 1
    # multiplication is the polynomial product mod x^4 + x + 1
    assert int(field.mul(0b1000, 0b0010)) == 0b0011
    assert int(field.signed_unit(1)) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_binary_field_unsupported_degree():
    with pytest.raises(ValueError):
        BinaryField(9)


def test_mat_mul_matches_oracle():
    rng = random.Random(7)
    field = PrimeField(13)
    for _ in range(25):
        rows, inner, cols = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[rng.randrange(13) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(13) for _ in range(cols)] for _ in range(inner)]
        got = mat_mul(field, np.array(a), np.array(b))
        assert got.tolist() == oracle_mat_mul(a, b, 13)


def test_mat_mul_dimension_mismatch():
    field = PrimeField(5)
    with pytest.raises(ValueError):
        mat_mul(field, np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_mat_mul_binary_field():
    field = BinaryField(3)
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[5, 6], [7, 0]], dtype=np.int64)
    got = mat_mul(field, a, b)
    for i in range(2):
        for j in range(2):
            want = int(field.add(field.mul(a[i, 0], b[0, j]), field.mul(a[i, 1], b[1, j])))
            assert int(got[i, j]) == want


def test_rank_matches_oracle():
    rng = random.Random(11)
    field = PrimeField(7)
    for _ in range(40):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(7) for _ in range(cols)] for _ in range(rows)]
        assert mat_rank(field, np.array(a)) == oracle_rank(a, 7)


def test_rank_transpose_invariant():
    rng = random.Random(13)
    field = PrimeField(7)
    for _ in range(20):
        a = np.array([[rng.randrange(7) for _ in range(6)] for _ in range(4)])
        assert mat_rank(field, a) == mat_rank(field, a.T.copy())


def test_rref_properties():
    rng = random.Random(3)
    field = PrimeField(11)
    for _ in range(20):
        a = np.array([[rng.randrange(11) for _ in range(4)] for _ in range(3)])
        reduced, pivots = rref(field, a)
        for r, c in enumerate(pivots):
            assert int(reduced[r, c]) == 1
            col = reduced[:, c].copy()
            col[r] = 0
            assert not col.any()
        assert len(pivots) == oracle_rank(a.tolist(), 11)


def test_mat_inverse_round_trip():
    rng = random.Random(5)
    field = PrimeField(17)
    eye = np.eye(4, dtype=np.int64)
    found = 0
    while found < 10:
        a = np.array([[rng.randrange(17) for _ in range(4)] for _ in range(4)])
        if mat_rank(field, a) < 4:
            continue
        inv = mat_inverse(field, a)
        assert np.array_equal(mat_mul(field, a, inv), eye)
        assert np.array_equal(mat_mul(field, inv, a), eye)
        found += 1


def test_mat_inverse_errors():
    field = PrimeField(5)
    with pytest.raises(ValueError):
        mat_inverse(field, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        mat_inverse(field, np.zeros((3, 3), dtype=np.int64))


def test_column_basis_pivots():
    field = PrimeField(7)
    a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    rank, pivots = column_basis(field, a)
    assert rank == 1
    assert pivots == (0,)
    empty = np.zeros((3, 0), dtype=np.int64)
    assert column_basis(field, empty) == (0, ())


def test_solve_exact_unique_solution():
    rng = random.Random(9)
    field = PrimeField(13)
    for _ in range(10):
        a = np.array([[rng.randrange(13) for _ in range(3)] for _ in range(3)])
        if mat_rank(field, a) < 3:
            continue
        x = np.array([[rng.randrange(13)] for _ in range(3)])
        b = mat_mul(field, a, x)
        assert np.array_equal(solve_exact(field, a, b), x)


def test_solve_exact_overdetermined_consistent():
    field = PrimeField(7)
    a = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    x = np.array([[3], [4]], dtype=np.int64)
    b = mat_mul(field, a, x)
    assert np.array_equal(solve_exact(field, a, b), x)


def test_solve_exact_errors():
    field = PrimeField(7)
    a = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    bad = np.array([[1], [1], [0]], dtype=np.int64)
    with pytest.raises(ValueError):
        solve_exact(field, a, bad)
    wide = np.array([[1, 2, 3]], dtype=np.int64)
    with pytest.raises(ValueError):
        solve_exact(field, wide, np.array([[1]], dtype=np.int64))
