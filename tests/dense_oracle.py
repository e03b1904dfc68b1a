"""The dense Q[i] matrix oracle that the tests check the package against.

The package decides every verdict on symplectic masks and integer
numerators.  This module does the same linear algebra the slow way, with
dense 2^n x 2^n matrices over the Gaussian rationals: a word's matrix, its
spectral projections and their products, the projection refinement of a
common eigenbasis, and an exact state's matrix.  Entries are pairs of
``fractions.Fraction``, so equality against zero or a signed identity
needs no tolerance; ``ComplexMatrix.to_numpy`` is the one bridge to
floating point.  pytest does not collect this file; test modules import it
by name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from kscheck.pauli import PauliString, Phase, check_commuting, check_two_valued
from kscheck.state import DensityOperator

_EXACT_SCALARS = (int, Fraction)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _EXACT_SCALARS):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational(0)


def _as_entry(value) -> GaussianRational:
    coerced = GaussianRational._coerce(value)
    if coerced is None:
        raise TypeError(f"matrix entries must be exact, got {type(value).__name__}")
    return coerced


class ComplexMatrix:
    """Dense square matrix over Q[i].

    Entries are never changed in place, so results share them: every zero
    an operation can see coming is the one ``ZERO``.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        normalized = tuple(tuple(_as_entry(v) for v in row) for row in rows)
        if not normalized:
            raise ValueError("matrix must be nonempty")
        dim = len(normalized)
        if any(len(row) != dim for row in normalized):
            raise ValueError("matrix must be square")
        self.rows = normalized

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, dim: int) -> "ComplexMatrix":
        return cls([[1 if i == j else ZERO for j in range(dim)] for i in range(dim)])

    @classmethod
    def zeros(cls, dim: int) -> "ComplexMatrix":
        return cls([[ZERO] * dim for _ in range(dim)])

    def __getitem__(self, index: int):
        return self.rows[index]

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        dim = self.dim
        out = []
        # operator matrices here are very sparse; skip zero entries
        for row in self.rows:
            acc = [ZERO] * dim
            for k, v in enumerate(row):
                if v:
                    other_row = other.rows[k]
                    for j, w in enumerate(other_row):
                        if w:
                            acc[j] = acc[j] + v * w
            out.append(acc)
        return ComplexMatrix(out)

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return ComplexMatrix(
            [
                [a + b if a and b else a or b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ComplexMatrix":
        return ComplexMatrix([[-v if v else ZERO for v in row] for row in self.rows])

    def scale(self, scalar) -> "ComplexMatrix":
        scalar = _as_entry(scalar)
        if not scalar:
            return ComplexMatrix.zeros(self.dim)
        return ComplexMatrix([[scalar * v if v else ZERO for v in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self.rows == other.rows

    def kron(self, other: "ComplexMatrix") -> "ComplexMatrix":
        return ComplexMatrix(
            [
                [a * b if a and b else ZERO for a in row for b in other_row]
                for row in self.rows
                for other_row in other.rows
            ]
        )

    def trace(self) -> GaussianRational:
        return sum((self.rows[i][i] for i in range(self.dim)), ZERO)

    def trace_product(self, other: "ComplexMatrix") -> GaussianRational:
        """tr(self @ other) without forming the product."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        total = ZERO
        for i in range(self.dim):
            row = self.rows[i]
            for k in range(self.dim):
                if row[k]:
                    total = total + row[k] * other.rows[k][i]
        return total

    def conjugate_transpose(self) -> "ComplexMatrix":
        return ComplexMatrix(
            [[v.conjugate() if v else ZERO for v in column] for column in zip(*self.rows)]
        )

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

    def is_hermitian(self) -> bool:
        return self == self.conjugate_transpose()

    def is_unitary(self) -> bool:
        return self @ self.conjugate_transpose() == ComplexMatrix.identity(self.dim)

    def scalar_identity_factor(self) -> GaussianRational | None:
        """Return s with self == s * identity, or None."""
        s = self.rows[0][0]
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if i == j:
                    if v != s:
                        return None
                elif v:
                    return None
        return s

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(v) for v in row] for row in self.rows], dtype=complex)

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in row) for row in self.rows)
        return f"ComplexMatrix[{body}]"


# -- Pauli words and their projections ----------------------------------------


def phase_value(phase: Phase) -> GaussianRational:
    """The phase i**power as a Gaussian rational."""
    return GaussianRational((1, 0, -1, 0)[phase.power], (0, 1, 0, -1)[phase.power])


@lru_cache(maxsize=None)
def _letter_matrix(letter: str) -> ComplexMatrix:
    i = GaussianRational(0, 1)
    table = {
        "I": [[1, 0], [0, 1]],
        "X": [[0, 1], [1, 0]],
        "Y": [[0, -i], [i, 0]],
        "Z": [[1, 0], [0, -1]],
    }
    return ComplexMatrix(table[letter])


@lru_cache(maxsize=4096)
def to_matrix(p: PauliString) -> ComplexMatrix:
    """Dense 2^n exact matrix of the word, phase included, qubit 0 leftmost
    in the Kronecker product."""
    m = _letter_matrix(p.letters[0])
    for letter in p.letters[1:]:
        m = m.kron(_letter_matrix(letter))
    if p.phase.power == 0:
        return m
    return m.scale(phase_value(p.phase))


@lru_cache(maxsize=4096)
def spectral_projection(p: PauliString, eigenvalue: int) -> ComplexMatrix:
    """Projection (I + eigenvalue * p) / 2 onto the ±1 eigenspace.

    Requires a hermitian, non-identity word (so both eigenvalues occur).
    """
    if eigenvalue not in (1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {eigenvalue!r}")
    check_two_valued(p)
    m = to_matrix(p)
    if eigenvalue == -1:
        m = -m
    return (ComplexMatrix.identity(m.dim) + m).scale(Fraction(1, 2))


@lru_cache(maxsize=None)
def joint_projection(
    ops: tuple[PauliString, ...], outcomes: tuple[int, ...]
) -> ComplexMatrix:
    """Exact product of the spectral projections of commuting operators."""
    if len(ops) != len(outcomes):
        raise ValueError("one outcome per operator required")
    check_commuting(ops)
    result = spectral_projection(ops[0], outcomes[0])
    for op, outcome in zip(ops[1:], outcomes[1:]):
        result = result @ spectral_projection(op, outcome)
    return result


def common_eigenbasis(ops) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Orthonormal simultaneous eigenvectors with their eigenvalue tuples.

    Works by projection refinement: the space is split by each operator's
    ±1 projections in turn, keeping the nonzero intersections.  The joint
    projections (and hence the surviving tuples and multiplicities) are
    exact; only the final orthonormal vectors are floating point.
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("need at least one operator")
    # mutual commutation is what makes the refinement products projections
    check_commuting(ops)
    dim = 2 ** ops[0].n_qubits
    branches: list[tuple[ComplexMatrix, tuple[int, ...]]] = [
        (ComplexMatrix.identity(dim), ())
    ]
    for op in ops:
        refined = []
        for projection, outcomes in branches:
            for eigenvalue in (1, -1):
                candidate = projection @ spectral_projection(op, eigenvalue)
                if not candidate.is_zero():
                    refined.append((candidate, outcomes + (eigenvalue,)))
        branches = refined

    basis: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for projection, outcomes in branches:
        rank_exact = projection.trace()
        rank = int(rank_exact.re)
        if rank_exact.im != 0 or Fraction(rank) != rank_exact.re:
            raise ValueError("projection rank is not an integer; inputs not commuting?")
        eigenvalues, eigenvectors = np.linalg.eigh(projection.to_numpy())
        # eigh sorts ascending; the range of the projection is the tail
        for column in range(dim - rank, dim):
            basis.append((eigenvectors[:, column], outcomes))
    return basis


# -- states -------------------------------------------------------------------


def exact_matrix(rho: DensityOperator) -> ComplexMatrix | None:
    """An exact state's Q[i] matrix, read from its numerators; None for a
    float state."""
    if not rho._is_exact:
        return None
    by_shift, denominator = rho._entries_by_shift()
    rows = [[ZERO] * rho.dim for _ in range(rho.dim)]
    for shift, entries in by_shift.items():
        for r, a, b in entries:
            rows[r][r ^ shift] = GaussianRational(
                Fraction(a, denominator), Fraction(b, denominator)
            )
    return ComplexMatrix(rows)


def state_from_matrix(matrix: ComplexMatrix) -> DensityOperator:
    """The exact state with this Q[i] matrix, through ``from_exact``."""
    return DensityOperator.from_exact([[(v.re, v.im) for v in row] for row in matrix.rows])


def state_from_projection(projection: ComplexMatrix) -> DensityOperator:
    """Normalize an exact orthogonal projection into a state."""
    rank = projection.trace()
    if not rank.is_real() or rank.re <= 0:
        raise ValueError("projection must have positive integer rank")
    return state_from_matrix(projection.scale(Fraction(1) / rank.re))
