"""Exact arithmetic over the Gaussian rationals Q[i].

Every verdict-critical quantity in this package (edge signs, support
membership, parity certificates, exact states) lives in Q[i].  Entries are
kept as pairs of ``fractions.Fraction`` so that equality against zero or a
signed identity is decidable with no tolerance.  Floating point appears
only in the quantum-state layer, never here; ``ComplexMatrix.to_numpy`` is
the one bridge to it and the only place this module loads numpy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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
    """Dense square matrix over Q[i]."""

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
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def zeros(cls, dim: int) -> "ComplexMatrix":
        return cls([[0] * dim for _ in range(dim)])

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
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ComplexMatrix":
        return ComplexMatrix([[-v for v in row] for row in self.rows])

    def scale(self, scalar) -> "ComplexMatrix":
        scalar = _as_entry(scalar)
        return ComplexMatrix([[scalar * v for v in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self.rows == other.rows

    def kron(self, other: "ComplexMatrix") -> "ComplexMatrix":
        n, m = self.dim, other.dim
        return ComplexMatrix(
            [
                [self.rows[i // m][j // m] * other.rows[i % m][j % m] for j in range(n * m)]
                for i in range(n * m)
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
            [[self.rows[j][i].conjugate() for j in range(self.dim)] for i in range(self.dim)]
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
        import numpy as np

        return np.array([[complex(v) for v in row] for row in self.rows], dtype=complex)

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in row) for row in self.rows)
        return f"ComplexMatrix[{body}]"
