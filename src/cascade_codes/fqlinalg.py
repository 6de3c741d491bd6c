# Exact arithmetic over GF(q) and the dense linear algebra the coding stack runs on

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

# Irreducible (and primitive) polynomials for the supported binary extensions,
# one fixed choice per degree so two endpoints always agree on the field.
_IRREDUCIBLE_POLY = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    5: 0b100101,       # x^5 + x^2 + 1
    6: 0b1000011,      # x^6 + x + 1
    7: 0b10001001,     # x^7 + x^3 + 1
    8: 0b100011101,    # x^8 + x^4 + x^3 + x^2 + 1
}

# float64 represents every integer below 2^53 exactly, so a prime-field
# product summed in float64 is exact while inner * (q - 1)^2 stays under it
_FLOAT_EXACT = 1 << 53
# float64 elements converted at once (128 KiB): bounds the temporaries of a
# plan-sized product whatever the plan's width
_BLOCK_ELEMS = 1 << 14


def is_prime(n: int) -> bool:
    """Check primality by trial division; fine for the moduli used here."""
    if n <= 1:
        return False
    for i in range(2, int(math.isqrt(n)) + 1):
        if n % i == 0:
            return False
    return True


def _narrowest_dtype(q: int) -> np.dtype:
    return np.dtype(np.uint8 if q <= 1 << 8 else np.uint16 if q <= 1 << 16 else np.int64)


class PrimeField:
    """GF(p) for a prime p, on numpy int64 arrays with values in [0, p).

    ``dtype`` is the narrowest unsigned dtype holding every element; matrix
    products come back in it.
    """

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"field order q={q} is not prime")
        self.q = q
        self.characteristic = q
        self.dtype = _narrowest_dtype(q)

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.q

    def sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.q

    def neg(self, a):
        return (-np.asarray(a, dtype=np.int64)) % self.q

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.q

    def inv(self, a) -> int:
        a = int(a) % self.q
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return pow(a, -1, self.q)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def signed_unit(self, e) -> NDArray[np.int64] | np.int64:
        """(-1)^e as a field element: 1 for even e, q-1 for odd e."""
        if isinstance(e, int):  # the common scalar case, without array set-up
            return np.int64(1 if e % 2 == 0 else self.q - 1)
        e = np.asarray(e, dtype=np.int64)
        return np.where(e % 2 == 0, 1, self.q - 1).astype(np.int64)[()]

    def mat_mul_raw(self, a: NDArray, b: NDArray) -> NDArray:
        # exact float64 products with one reduction per output block
        # (delayed reduction, as in FFLAS); b is converted a column block at
        # a time. einsum rather than BLAS: a multithreaded BLAS product
        # leaves each thread's packing buffer resident, measured at +0.7 MiB
        # of peak RSS, which plan-sized products do not need the speed for
        inner = a.shape[1]
        if inner * (self.q - 1) ** 2 >= _FLOAT_EXACT:
            raise ValueError(f"inner dimension {inner} is too large for exact "
                             f"float64 products over GF({self.q})")
        out = np.empty((a.shape[0], b.shape[1]), dtype=self.dtype)
        a_float = a.astype(np.float64)
        step = max(1, _BLOCK_ELEMS // max(1, inner))
        for j in range(0, b.shape[1], step):
            block = np.einsum("ij,jk->ik", a_float, b[:, j:j + step].astype(np.float64))
            out[:, j:j + step] = np.remainder(block, self.q, out=block)
        return out


class BinaryField:
    """GF(2^s) with log/exp table arithmetic over a fixed primitive polynomial.

    Elements are below 2^8, so ``dtype`` (the dtype of matrix products) is
    uint8.
    """

    def __init__(self, s: int):
        if s not in _IRREDUCIBLE_POLY:
            raise ValueError(
                f"unsupported extension degree s={s}; "
                f"available: {sorted(_IRREDUCIBLE_POLY)}"
            )
        self.s = s
        self.q = 1 << s
        self.characteristic = 2
        self.dtype = np.dtype(np.uint8)
        poly = _IRREDUCIBLE_POLY[s]
        exp = np.zeros(2 * self.q, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        x = 1
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= poly
        # doubled table avoids a modular reduction on log sums
        exp[self.q - 1:2 * self.q - 2] = exp[: self.q - 1]
        self._exp = exp
        self._log = log
        # full product table, q x q bytes; row and column 0 hold the zero
        # products the log table cannot express
        log_small = log.astype(np.int16)
        table = exp.astype(np.uint8)[log_small[:, None] + log_small[None, :]]
        table[0, :] = 0
        table[:, 0] = 0
        self._mul_table = table

    def __repr__(self) -> str:
        return f"BinaryField(2^{self.s})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinaryField) and other.s == self.s

    def add(self, a, b):
        return np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)

    def sub(self, a, b):
        return self.add(a, b)

    def neg(self, a):
        return np.asarray(a, dtype=np.int64)

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)[()]

    def inv(self, a) -> int:
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return int(self._exp[self.q - 1 - self._log[a]])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def signed_unit(self, e) -> NDArray[np.int64] | np.int64:
        """(-1)^e collapses to 1 in characteristic 2."""
        if isinstance(e, int):
            return np.int64(1)
        e = np.asarray(e, dtype=np.int64)
        return np.ones_like(e)[()]

    def mat_mul_raw(self, a: NDArray, b: NDArray) -> NDArray:
        # region multiply-by-constant with XOR accumulation, one inner index
        # at a time, so every temporary is one output-sized byte array
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        for t in range(a.shape[1]):
            out ^= self._mul_table[a[:, t:t + 1], b[t:t + 1, :]]
        return out


Field = PrimeField | BinaryField


def field_for_order(q: int) -> Field:
    """Field of order q: prime orders and the tabulated binary orders.

    Raises:
        ValueError: For orders that are neither prime nor a supported power
            of two.
    """
    if is_prime(q):
        return PrimeField(q)
    if q > 1 and q & (q - 1) == 0:
        return BinaryField(q.bit_length() - 1)
    raise ValueError(f"no supported field of order {q}")


def mat_mul(field: Field, a: NDArray, b: NDArray) -> NDArray:
    """Exact matrix product over the field.

    The factors keep their integer dtype (a uint8 or uint16 plan is not
    widened), and the kernels bound their temporaries by the output size.

    Args:
        field: Field the entries live in.
        a: Left factor, shape (r, t), entries in [0, q).
        b: Right factor, shape (t, c), entries in [0, q).

    Returns:
        The product, shape (r, c), in ``field.dtype``.

    Raises:
        ValueError: If the inner dimensions disagree.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return field.mat_mul_raw(a, b)


def rref(field: Field, mat: NDArray[np.int64]) -> tuple[NDArray[np.int64], list[int]]:
    """Reduced row-echelon form with deterministic first-nonzero pivoting.

    Columns are scanned left to right and the first row with a nonzero entry
    below the current one becomes the pivot row. Arithmetic is exact, so no
    pivoting heuristics are needed and the result is unique.

    Args:
        field: Field the entries live in.
        mat: Matrix to reduce; copied, not mutated.

    Returns:
        (reduced matrix, list of pivot column indices in ascending order).
    """
    work = np.array(mat, dtype=np.int64)
    if work.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    nrows, ncols = work.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(work[row:, col])[0]
        if len(nz) == 0:
            continue
        pivot_row = row + int(nz[0])
        if pivot_row != row:
            work[[row, pivot_row]] = work[[pivot_row, row]]
        work[row] = field.mul(work[row], field.inv(work[row, col]))
        for r in range(nrows):
            if r != row and work[r, col] != 0:
                work[r] = field.sub(work[r], field.mul(work[r, col], work[row]))
        pivots.append(col)
        row += 1
    return work, pivots


def mat_rank(field: Field, mat: NDArray[np.int64]) -> int:
    """Rank of ``mat`` over the field."""
    if mat.size == 0:
        return 0
    return len(rref(field, mat)[1])


def column_basis(field: Field, mat: NDArray[np.int64]) -> tuple[int, tuple[int, ...]]:
    """Rank and pivot column indices of ``mat``.

    The pivot columns are determined by the deterministic elimination in
    :func:`rref` (columns scanned in label order), so any two parties running
    this on the same matrix select the same basis.

    Returns:
        (rank, pivot column indices in ascending order).
    """
    if mat.size == 0:
        return 0, ()
    _, pivots = rref(field, mat)
    return len(pivots), tuple(pivots)


def mat_inverse(field: Field, mat: NDArray[np.int64]) -> NDArray[np.int64]:
    """Inverse of a square matrix over the field.

    Raises:
        ValueError: If the matrix is not square or is singular.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"mat_inverse expects a square matrix, got {mat.shape}")
    n = mat.shape[0]
    aug = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1)
    reduced, pivots = rref(field, aug)
    # full rank puts the n pivots exactly on the left block
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(q)")
    return reduced[:, n:]


def solve_exact(field: Field, a: NDArray[np.int64], b: NDArray[np.int64]) -> NDArray[np.int64]:
    """Solve a @ x = b exactly, for a consistent system with full column rank.

    Used to express arbitrary columns of a matrix in terms of a chosen pivot
    basis; both sides of a repair exchange derive the same solution because
    :func:`rref` is deterministic.

    Raises:
        ValueError: If the system is inconsistent or the solution is not unique.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.atleast_2d(np.asarray(b, dtype=np.int64))
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ncols = a.shape[1]
    reduced, pivots = rref(field, np.concatenate([a, b], axis=1))
    if any(p >= ncols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("solution is not unique (rank-deficient left side)")
    # full column rank puts the pivots exactly on columns 0..ncols-1
    return reduced[:ncols, ncols:]
