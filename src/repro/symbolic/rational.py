"""Exact rational matrices.

Section 4.3 of the paper recovers the coefficients of polynomial and
geometric induction variables by inverting a small integer matrix: "Since the
entries of the matrix are all integer, the inverse will have only rational
entries."  The invariant stage (:mod:`repro.invariants.poly`) solves larger
systems of the same kind, up to 336 x 21.  Entries are
:class:`fractions.Fraction`, but every elimination runs one fraction-free
Gauss-Jordan core over integers (:func:`_reduce`): rows are scaled to
primitive integer vectors and divided by their gcd after every row
operation, which keeps the integers small.  Results become ``Fraction``
only at the end, by dividing by the pivots, so they stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, List, Sequence, Tuple, Union

Rat = Union[int, Fraction]


class MatrixError(Exception):
    """Raised for shape mismatches and singular systems."""


def _as_fraction(value: Rat) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise MatrixError(f"matrix entries must be int or Fraction, got {type(value).__name__}")


class Matrix:
    """A dense matrix of :class:`~fractions.Fraction` entries.

    Instances are immutable from the caller's point of view: all operations
    return new matrices.
    """

    __slots__ = ("rows", "ncols", "_data")

    def __init__(self, data: Iterable[Iterable[Rat]]):
        rows: List[List[Fraction]] = [[_as_fraction(x) for x in row] for row in data]
        if not rows:
            raise MatrixError("matrix must have at least one row")
        width = len(rows[0])
        if width == 0:
            raise MatrixError("matrix must have at least one column")
        for row in rows:
            if len(row) != width:
                raise MatrixError("ragged rows in matrix literal")
        self._data = rows
        self.rows = len(rows)
        self.ncols = width

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n: int) -> "Matrix":
        """The ``n x n`` identity matrix."""
        if n <= 0:
            raise MatrixError("identity size must be positive")
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def vandermonde(points: Sequence[Rat], degree: int) -> "Matrix":
        """Rows ``[1, x, x**2, ..., x**degree]`` for each point ``x``.

        This is the matrix the paper inverts to find polynomial induction
        variable coefficients, with ``points = 0, 1, ..., m``.
        """
        if degree < 0:
            raise MatrixError("degree must be non-negative")
        pts = [_as_fraction(p) for p in points]
        return Matrix([[p**k for k in range(degree + 1)] for p in pts])

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __getitem__(self, index: tuple) -> Fraction:
        i, j = index
        return self._data[i][j]

    def row(self, i: int) -> List[Fraction]:
        return list(self._data[i])

    def col(self, j: int) -> List[Fraction]:
        return [row[j] for row in self._data]

    def tolists(self) -> List[List[Fraction]]:
        return [list(row) for row in self._data]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self._data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix[{body}]"

    @property
    def is_square(self) -> bool:
        return self.rows == self.ncols

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.ncols) != (other.rows, other.ncols):
            raise MatrixError("shape mismatch in matrix addition")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.ncols) != (other.rows, other.ncols):
            raise MatrixError("shape mismatch in matrix subtraction")
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def scale(self, factor: Rat) -> "Matrix":
        f = _as_fraction(factor)
        return Matrix([[f * x for x in row] for row in self._data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.rows:
            raise MatrixError("shape mismatch in matrix multiplication")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.ncols):
                acc = Fraction(0)
                for k in range(self.ncols):
                    acc += self._data[i][k] * other._data[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def mul_vector(self, vector: Sequence[Rat]) -> List[Fraction]:
        """Matrix-vector product, returning a plain list."""
        if len(vector) != self.ncols:
            raise MatrixError("vector length does not match matrix width")
        vec = [_as_fraction(v) for v in vector]
        return [sum((row[k] * vec[k] for k in range(self.ncols)), Fraction(0)) for row in self._data]

    def transpose(self) -> "Matrix":
        return Matrix([[self._data[i][j] for i in range(self.rows)] for j in range(self.ncols)])

    # ------------------------------------------------------------------
    # elimination
    # ------------------------------------------------------------------
    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse.  Raises :class:`MatrixError` if singular."""
        if not self.is_square:
            raise MatrixError("only square matrices can be inverted")
        n = self.rows
        augmented = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self._data)]
        work, pivots, _ = _reduce(augmented, n)
        if len(pivots) < n:
            raise MatrixError("matrix is singular")
        return Matrix([[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(work)])

    def solve(self, rhs: Sequence[Rat]) -> List[Fraction]:
        """Solve ``A x = rhs`` for square ``A`` by elimination."""
        if not self.is_square:
            raise MatrixError("solve requires a square matrix")
        if len(rhs) != self.rows:
            raise MatrixError("right-hand side has wrong length")
        n = self.rows
        work, pivots, _ = _reduce([row + [_as_fraction(b)] for row, b in zip(self._data, rhs)], n)
        if len(pivots) < n:
            raise MatrixError("matrix is singular")
        return [Fraction(row[n], row[i]) for i, row in enumerate(work)]

    def nullspace(self) -> List[List[Fraction]]:
        """A basis for the right kernel ``{x : A x = 0}`` (see :func:`nullspace`)."""
        return nullspace(self._data, self.ncols)

    def determinant(self) -> Fraction:
        """The product of the pivots, divided by every scaling of a row."""
        if not self.is_square:
            raise MatrixError("determinant requires a square matrix")
        work, pivots, scalings = _reduce(self._data, self.rows)
        if len(pivots) < self.rows:
            return Fraction(0)
        diagonal = prod(row[i] for i, row in enumerate(work))
        return Fraction(diagonal * prod(d for _, d in scalings), prod(m for m, _ in scalings))


def nullspace(rows: Iterable[Sequence[Rat]], width: int) -> List[List[Fraction]]:
    """A basis for ``{x : A x = 0}``, where ``A`` has ``rows`` of length ``width``.

    One basis vector per free column of the reduced row echelon form, in
    column order, with a 1 in its free column.  The RREF depends only on
    the row space, so ``rows`` may hold zero or duplicate rows, or none
    (every column is then free).
    """
    return [
        [Fraction(x, vec[free]) for x in vec]
        for free, vec in _integer_kernel(rows, width)
    ]


def integer_nullspace(rows: Iterable[Sequence[Rat]], width: int) -> List[List[int]]:
    """:func:`nullspace` with each basis vector scaled to a primitive
    integer vector (coprime entries, positive in its free column)."""
    return [vec for _free, vec in _integer_kernel(rows, width)]


def _integer_kernel(
    rows: Iterable[Sequence[Rat]], width: int
) -> List[Tuple[int, List[int]]]:
    """``(free column, primitive integer kernel vector)`` per free column.

    Row ``k`` of the reduced system reads ``p_k x[c_k] + row_k[f] x[f] =
    0`` for free column ``f``, so ``x[f] = L`` and ``x[c_k] = -row_k[f] *
    L / p_k`` solve it in integers when ``L`` is the lcm of the pivots.
    """
    work, pivots, _ = _reduce(rows, width)
    pivot_set = set(pivots)
    basis: List[Tuple[int, List[int]]] = []
    for free in range(width):
        if free in pivot_set:
            continue
        scale = lcm(*[row[col] for row, col in zip(work, pivots) if row[free]])
        vec = [0] * width
        vec[free] = scale
        for row, col in zip(work, pivots):
            if row[free]:
                vec[col] = -row[free] * (scale // row[col])
        divisor = gcd(*vec)
        basis.append((free, [x // divisor for x in vec]))
    return basis


def _reduce(
    rows: Iterable[Sequence[Rat]], width: int
) -> Tuple[List[List[int]], List[int], List[Tuple[int, int]]]:
    """Fraction-free Gauss-Jordan elimination, pivoting in the first ``width`` columns.

    Returns ``(work, pivots, scalings)``.  Each row of ``work`` is a row of
    the input times a non-zero rational, in integers: row ``k`` has its
    pivot in column ``pivots[k]`` and zeros in the other pivot columns, so
    ``work[k]`` divided by its pivot is row ``k`` of the reduced row
    echelon form.  Rows that are or become zero are dropped.  Every row
    scaling and swap multiplied the determinant by ``m / d`` for one
    ``(m, d)`` in ``scalings``.
    """
    scalings: List[Tuple[int, int]] = []
    work: List[List[int]] = []
    for row in rows:
        # scale to a primitive integer vector
        scale = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (scale // x.denominator) for x in row]
        divisor = gcd(*ints)
        if divisor:
            work.append([x // divisor for x in ints])
            scalings.append((scale, divisor))
    pivots: List[int] = []
    for col in range(width):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            scalings.append((-1, 1))
        prow = work[r]
        p = prow[col]
        kept = []
        for i, row in enumerate(work):
            f = row[col]
            if f and i != r:
                # row = (p*row - f*prow) / gcd, or dropped when it is zero
                row = [p * a - f * b for a, b in zip(row, prow)]
                divisor = gcd(*row)
                if not divisor:
                    continue
                if divisor > 1:
                    row = [a // divisor for a in row]
                scalings.append((p, divisor))
            kept.append(row)
        work[:] = kept
        pivots.append(col)
    return work, pivots, scalings
