"""Exact Q[i] scalar and matrix arithmetic of the dense oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscheck.pauli import LETTERS, PauliString, Phase

from dense_oracle import ZERO, ComplexMatrix, GaussianRational, phase_value, to_matrix


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        b = GaussianRational(2, -1)
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
        assert a - b == GaussianRational(Fraction(-3, 2), Fraction(4, 3))
        # (1/2 + i/3)(2 - i) = 1 + 1/3 + i(2/3 - 1/2)
        assert a * b == GaussianRational(Fraction(4, 3), Fraction(1, 6))

    def test_i_squares_to_minus_one(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)
        assert i * i * i * i == GaussianRational(1)

    def test_conjugate_and_equality_with_ints(self):
        z = GaussianRational(3, -2)
        assert z.conjugate() == GaussianRational(3, 2)
        assert GaussianRational(5) == 5
        assert GaussianRational(5, 1) != 5

    def test_truthiness(self):
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, Fraction(1, 7))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ComplexMatrix([[0.5]])


class TestComplexMatrix:
    def test_identity_and_multiplication(self):
        eye = ComplexMatrix.identity(3)
        m = ComplexMatrix([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
        assert eye @ m == m
        assert m @ eye == m

    def test_kron_matches_hand_computation(self):
        z = ComplexMatrix([[1, 0], [0, -1]])
        zz = z.kron(z)
        expected = ComplexMatrix(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        assert zz == expected

    def test_trace_and_trace_product(self):
        i = GaussianRational(0, 1)
        a = ComplexMatrix([[1, i], [0, 2]])
        b = ComplexMatrix([[0, 1], [1, 0]])
        assert a.trace() == GaussianRational(3)
        assert a.trace_product(b) == (a @ b).trace()

    def test_hermitian_unitary_flags(self):
        i = GaussianRational(0, 1)
        y = ComplexMatrix([[0, -i], [i, 0]])
        assert y.is_hermitian()
        assert y.is_unitary()
        upper = ComplexMatrix([[1, 1], [0, 1]])
        assert not upper.is_hermitian()
        assert not upper.is_unitary()

    def test_scalar_identity_factor(self):
        half = Fraction(1, 2)
        m = ComplexMatrix.identity(4).scale(half)
        assert m.scalar_identity_factor() == GaussianRational(half)
        m2 = ComplexMatrix([[1, 0], [0, 2]])
        assert m2.scalar_identity_factor() is None

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ComplexMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            ComplexMatrix([])


def reference_kron(a, b):
    """The entry formula ``kron`` used before it shared ZERO."""
    n, m = a.dim, b.dim
    return ComplexMatrix(
        [[a[i // m][j // m] * b[i % m][j % m] for j in range(n * m)] for i in range(n * m)]
    )


def entrywise(f, *matrices):
    return ComplexMatrix(
        [[f(*vs) for vs in zip(*rows)] for rows in zip(*(m.rows for m in matrices))]
    )


words = st.builds(
    PauliString,
    st.builds(Phase, st.integers(0, 3)),
    st.text(alphabet=LETTERS, min_size=1, max_size=5),
)


class TestSharedZero:
    @given(words, words)
    @settings(max_examples=30, deadline=None)
    def test_operations_match_fresh_entries(self, p, q):
        single = [to_matrix(PauliString(Phase(0), letter)) for letter in p.letters]
        expected = single[0]
        for m in single[1:]:
            expected = reference_kron(expected, m)
        phase = phase_value(p.phase)
        expected = entrywise(lambda v: phase * v, expected)
        a = to_matrix(p)
        assert a == expected

        b = to_matrix(PauliString(q.phase, (q.letters * 5)[: len(p.letters)]))
        assert a + b == entrywise(lambda x, y: x + y, a, b)
        assert -a == entrywise(lambda x: -x, a)
        assert a - b == entrywise(lambda x, y: x - y, a, b)
        assert a.scale(GaussianRational(Fraction(1, 3), -2)) == entrywise(
            lambda x: GaussianRational(Fraction(1, 3), -2) * x, a
        )
        assert a.scale(0) == ComplexMatrix.zeros(a.dim)
        assert a.conjugate_transpose() == ComplexMatrix(
            [[a[j][i].conjugate() for j in range(a.dim)] for i in range(a.dim)]
        )
        y = to_matrix(PauliString(Phase(1), "Y"))
        k = a.kron(y)
        assert k == reference_kron(a, y)
        assert all(v is ZERO for row in k.rows for v in row if not v)
