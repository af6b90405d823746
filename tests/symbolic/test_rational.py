"""Tests for exact rational matrices."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic.rational import Matrix, MatrixError, integer_nullspace, nullspace


class TestConstruction:
    def test_basic(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.rows == 2 and m.ncols == 2
        assert m[0, 1] == 2
        assert isinstance(m[0, 0], Fraction)

    def test_fraction_entries(self):
        m = Matrix([[Fraction(1, 2)]])
        assert m[0, 0] == Fraction(1, 2)

    def test_ragged_rejected(self):
        with pytest.raises(MatrixError):
            Matrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(MatrixError):
            Matrix([])
        with pytest.raises(MatrixError):
            Matrix([[]])

    def test_bad_entry_type(self):
        with pytest.raises(MatrixError):
            Matrix([[1.5]])

    def test_identity(self):
        i3 = Matrix.identity(3)
        assert i3[0, 0] == 1 and i3[0, 1] == 0 and i3[2, 2] == 1

    def test_identity_bad_size(self):
        with pytest.raises(MatrixError):
            Matrix.identity(0)

    def test_vandermonde_is_the_papers_matrix(self):
        # the paper's third-order matrix for k in L14 (section 4.3)
        m = Matrix.vandermonde([0, 1, 2, 3], 3)
        assert m.tolists() == [
            [1, 0, 0, 0],
            [1, 1, 1, 1],
            [1, 2, 4, 8],
            [1, 3, 9, 27],
        ]


class TestArithmetic:
    def test_add_sub(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[5, 6], [7, 8]])
        assert (a + b).tolists() == [[6, 8], [10, 12]]
        assert (b - a).tolists() == [[4, 4], [4, 4]]

    def test_shape_mismatch(self):
        with pytest.raises(MatrixError):
            Matrix([[1]]) + Matrix([[1, 2]])

    def test_scale(self):
        assert Matrix([[2, 4]]).scale(Fraction(1, 2)).tolists() == [[1, 2]]

    def test_matmul(self):
        a = Matrix([[1, 2], [3, 4]])
        assert (a @ Matrix.identity(2)) == a
        b = Matrix([[0, 1], [1, 0]])
        assert (a @ b).tolists() == [[2, 1], [4, 3]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(MatrixError):
            Matrix([[1, 2]]) @ Matrix([[1, 2]])

    def test_mul_vector(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a.mul_vector([1, 1]) == [3, 7]

    def test_transpose(self):
        assert Matrix([[1, 2, 3]]).transpose().tolists() == [[1], [2], [3]]


class TestInverse:
    def test_identity_inverse(self):
        assert Matrix.identity(4).inverse() == Matrix.identity(4)

    def test_paper_inverse_roundtrip(self):
        """The paper inverts the 4x4 Vandermonde matrix exactly."""
        m = Matrix.vandermonde([0, 1, 2, 3], 3)
        inv = m.inverse()
        assert m @ inv == Matrix.identity(4)
        assert inv @ m == Matrix.identity(4)
        # all-rational entries (the paper's observation)
        assert all(isinstance(x, Fraction) for row in inv.tolists() for x in row)

    def test_paper_k_coefficients(self):
        """A^-1 [4 9 17 29]^T = [4 23/6 1 1/6]^T (paper, section 4.3)."""
        inv = Matrix.vandermonde([0, 1, 2, 3], 3).inverse()
        coeffs = inv.mul_vector([4, 9, 17, 29])
        assert coeffs == [4, Fraction(23, 6), 1, Fraction(1, 6)]

    def test_geometric_basis_matrix(self):
        """The paper's matrix for m = 3m + 2i + 1: columns 1, h, h^2, 3^h."""
        rows = [[1, h, h * h, 3**h] for h in range(4)]
        m = Matrix(rows)
        assert m.tolists() == [
            [1, 0, 0, 1],
            [1, 1, 1, 3],
            [1, 2, 4, 9],
            [1, 3, 9, 27],
        ]
        inv = m.inverse()
        # first four values of m3 are 3, 14, 49, 156 (see closedform tests)
        coeffs = inv.mul_vector([3, 14, 49, 156])
        # closed form 6*3^h - h - 3: constant -3, h coeff -1, no h^2, 6*3^h
        assert coeffs == [-3, -1, 0, 6]

    def test_singular_raises(self):
        with pytest.raises(MatrixError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_non_square_raises(self):
        with pytest.raises(MatrixError):
            Matrix([[1, 2]]).inverse()

    def test_pivoting_handles_zero_leading_entry(self):
        m = Matrix([[0, 1], [1, 0]])
        assert m.inverse() == m


class TestSolveAndDeterminant:
    def test_solve(self):
        a = Matrix([[2, 1], [1, 3]])
        x = a.solve([3, 5])
        assert a.mul_vector(x) == [3, 5]

    def test_solve_singular(self):
        with pytest.raises(MatrixError):
            Matrix([[1, 1], [1, 1]]).solve([1, 2])

    def test_solve_wrong_rhs_length(self):
        with pytest.raises(MatrixError):
            Matrix.identity(2).solve([1, 2, 3])

    def test_determinant(self):
        assert Matrix([[1, 2], [3, 4]]).determinant() == -2
        assert Matrix([[1, 2], [2, 4]]).determinant() == 0
        assert Matrix.identity(5).determinant() == 1

    def test_determinant_with_row_swap(self):
        assert Matrix([[0, 1], [1, 0]]).determinant() == -1

    def test_determinant_non_square(self):
        with pytest.raises(MatrixError):
            Matrix([[1, 2]]).determinant()


class TestDunder:
    def test_eq_and_hash(self):
        a = Matrix([[1, 2]])
        b = Matrix([[1, 2]])
        assert a == b and hash(a) == hash(b)
        assert a != Matrix([[2, 1]])

    def test_repr(self):
        assert "1" in repr(Matrix([[1]]))


def kernel_holds(rows, basis):
    return all(
        sum(a * x for a, x in zip(row, vec)) == 0 for row in rows for vec in basis
    )


class TestNullspace:
    def test_trivial_kernel(self):
        assert Matrix([[1, 2], [3, 4]]).nullspace() == []

    def test_full_kernel(self):
        assert Matrix([[0, 0, 0]]).nullspace() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert nullspace([], 2) == [[1, 0], [0, 1]]

    def test_rank_deficient(self):
        rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
        basis = Matrix(rows).nullspace()
        assert basis == [[1, -2, 1]]
        assert kernel_holds(rows, basis)

    def test_wide(self):
        basis = Matrix([[1, 2, 3, 4]]).nullspace()
        assert basis == [[-2, 1, 0, 0], [-3, 0, 1, 0], [-4, 0, 0, 1]]

    def test_tall(self):
        rows = [[1, 1], [2, 2], [3, 3], [-1, -1]]
        assert Matrix(rows).nullspace() == [[-1, 1]]
        assert Matrix(rows + [[1, 0]]).nullspace() == []

    def test_fraction_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(2, 3), Fraction(-1, 5)]]
        basis = Matrix(rows).nullspace()
        assert basis == [[Fraction(-1, 5), Fraction(3, 10), 1]]
        assert kernel_holds(rows, basis)

    def test_entries_are_fractions(self):
        basis = Matrix([[2, 4]]).nullspace()
        assert all(isinstance(x, Fraction) for vec in basis for x in vec)

    def test_zero_and_duplicate_rows_change_nothing(self):
        rows = [[1, 0, -1, 2], [0, 3, 1, 1]]
        padded = [[0, 0, 0, 0]] + rows + [rows[1], [0, 0, 0, 0], [2, 0, -2, 4]]
        assert Matrix(padded).nullspace() == Matrix(rows).nullspace()
        assert nullspace(padded, 4) == nullspace(rows, 4)

    def test_integer_basis_is_primitive_and_parallel(self):
        rows = [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(2, 3), Fraction(-1, 5)]]
        assert integer_nullspace(rows, 3) == [[-2, 3, 10]]
        assert integer_nullspace([[1, 2, 3, 4]], 4) == [
            [-2, 1, 0, 0], [-3, 0, 1, 0], [-4, 0, 0, 1]
        ]
        assert integer_nullspace([[6, 4, 0], [0, 0, 1]], 3) == [[-2, 3, 0]]


# The Fraction Gauss-Jordan routines the integer core replaced, kept here
# as the reference they must agree with.
def _ref_gauss_jordan(work, width):
    pivot_cols = []
    r = 0
    for col in range(width):
        if r >= len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][col]
        work[r] = [x / pivot for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
    return pivot_cols


def ref_matrix(data):
    """The rows as Fractions, rejected as the old constructor rejected them."""
    if any(len(row) != len(data[0]) for row in data):
        raise MatrixError("ragged rows in matrix literal")
    return [[Fraction(x) for x in row] for row in data]


def ref_inverse(data):
    n = len(data)
    if len(data[0]) != n:
        raise MatrixError("only square matrices can be inverted")
    work = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(data)]
    if len(_ref_gauss_jordan(work, n)) < n:
        raise MatrixError("matrix is singular")
    return [row[n:] for row in work]


def ref_solve(data, rhs):
    n = len(data)
    if len(data[0]) != n:
        raise MatrixError("solve requires a square matrix")
    work = [row + [Fraction(b)] for row, b in zip(data, rhs)]
    if len(_ref_gauss_jordan(work, n)) < n:
        raise MatrixError("matrix is singular")
    return [row[n] for row in work]


def ref_nullspace(data):
    width = len(data[0])
    work = [list(row) for row in data]
    pivot_cols = _ref_gauss_jordan(work, width)
    basis = []
    for free in (c for c in range(width) if c not in pivot_cols):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row_idx, col in enumerate(pivot_cols):
            vec[col] = -work[row_idx][free]
        basis.append(vec)
    return basis


def ref_determinant(data):
    n = len(data)
    if len(data[0]) != n:
        raise MatrixError("determinant requires a square matrix")
    work = [list(row) for row in data]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def outcome(call):
    """What ``call()`` returns, or ``MatrixError`` if it raised one."""
    try:
        return call()
    except MatrixError:
        return MatrixError


# small entries make singular and rank-deficient matrices common
entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def matrices(draw):
    """Square, rectangular and (now and then) ragged row lists."""
    nrows = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["square", "square", "rectangular", "ragged"]))
    if shape == "ragged":
        widths = [draw(st.integers(1, 5)) for _ in range(nrows)]
    else:
        widths = [nrows if shape == "square" else draw(st.integers(1, 5))] * nrows
    return [draw(st.lists(entries, min_size=w, max_size=w)) for w in widths]


class TestAgainstFractionReference:
    """The same results, and ``MatrixError`` for the same singular,
    non-square and ragged inputs, as Gauss-Jordan over Fraction."""

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_nullspace(self, data):
        expected = outcome(lambda: ref_nullspace(ref_matrix(data)))
        assert outcome(lambda: Matrix(data).nullspace()) == expected
        if expected is not MatrixError:
            assert nullspace(data, len(data[0])) == expected
            # the integer basis: each vector primitive and a positive
            # multiple of the reference vector
            integers = integer_nullspace(data, len(data[0]))
            assert len(integers) == len(expected)
            for ints, ref in zip(integers, expected):
                assert gcd(*ints) == 1
                scale = next(x for x, r in zip(ints, ref) if r == 1)
                assert scale > 0 and ints == [r * scale for r in ref]

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_inverse(self, data):
        expected = outcome(lambda: ref_inverse(ref_matrix(data)))
        assert outcome(lambda: Matrix(data).inverse().tolists()) == expected

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.lists(entries, min_size=5, max_size=5))
    def test_solve(self, data, rhs):
        rhs = rhs[: len(data)]
        expected = outcome(lambda: ref_solve(ref_matrix(data), rhs))
        assert outcome(lambda: Matrix(data).solve(rhs)) == expected

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_determinant(self, data):
        expected = outcome(lambda: ref_determinant(ref_matrix(data)))
        got = outcome(lambda: Matrix(data).determinant())
        assert got == expected
        assert got is MatrixError or isinstance(got, Fraction)
