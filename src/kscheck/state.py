"""Quantum states: exact over Q[i], or floating point.

A ``DensityOperator`` is validated when it is made.  An exact state is
validated exactly, on its integer numerators over the least common
denominator: hermiticity cell by cell, the trace as a sum, and positivity
by a fraction-free LDL* elimination over the nonzero entries.  Those
numerators, grouped for the Born sweeps in ``quantum``, are the one form
an exact state has; its numpy copy (``matrix``) is built from them on
first read.  So a scenario file's exact states load neither ``quantum``
nor numpy until a verb computes with them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .pauli import PauliString

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10


class DensityOperator:
    """A quantum state: exact over Q[i], or floating point.

    Exact states (``from_exact``, ``from_eigenspace``, ``maximally_mixed``)
    are validated exactly and keep only their integer numerators, for the
    Born sweeps; ``matrix``, their floating-point copy, is built from those
    on first access (numpy is imported for ``matrix`` only).  Float states
    (``DensityOperator(matrix)``, ``from_state_vector``) are checked within
    the tolerances below.
    """

    __slots__ = ("dim", "_is_exact", "_matrix", "_by_shift")

    def __init__(self, matrix: np.ndarray):
        import numpy as np

        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density operator must be a square matrix")
        if not np.allclose(matrix, matrix.conj().T, atol=HERMITICITY_TOL):
            raise ValueError("density operator must be hermitian")
        if abs(np.trace(matrix) - 1.0) > HERMITICITY_TOL:
            raise ValueError("density operator must have unit trace")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if eigenvalues.min() < -PSD_TOL:
            raise ValueError(
                f"density operator not positive semidefinite (min eigenvalue {eigenvalues.min():.3g})"
            )
        self._matrix = matrix
        self._is_exact = False
        self.dim = matrix.shape[0]
        self._by_shift = None

    @property
    def matrix(self) -> np.ndarray:
        """The state as a complex numpy array."""
        if self._matrix is None:
            import numpy as np

            by_shift, denominator = self._by_shift
            matrix = np.zeros((self.dim, self.dim), dtype=complex)
            for shift, entries in by_shift.items():
                for r, a, b in entries:
                    matrix[r, r ^ shift] = complex(a / denominator, b / denominator)
            self._matrix = matrix
        return self._matrix

    @classmethod
    def from_state_vector(cls, amplitudes: Sequence[complex]) -> "DensityOperator":
        import numpy as np

        vec = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ValueError("state vector must be nonzero")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls._from_numerators({c * dim + c: 1 for c in range(dim)}, {}, dim, dim)

    @classmethod
    def from_eigenspace(
        cls, ops: Sequence[PauliString], outcomes: Sequence[int]
    ) -> "DensityOperator":
        """Pi / Tr Pi for the joint projection Pi of commuting words,
        built from the Pauli expansion with no matrix products."""
        from .quantum import _projection_numerators

        re, im, dim = _projection_numerators(tuple(ops), tuple(outcomes))
        rank = sum(re.get(c * dim + c, 0) for c in range(dim))
        if rank <= 0:
            raise ValueError("projection must have positive integer rank")
        return cls._from_numerators(re, im, dim, rank)

    @classmethod
    def from_exact(
        cls, rows: Sequence[Sequence[tuple[Fraction, Fraction]]]
    ) -> "DensityOperator":
        """The exact state whose entry (r, c) is re + i im for rows[r][c] = (re, im).

        The entries are brought over their least common denominator; a
        matrix that is empty or not square is refused.
        """
        dim = len(rows)
        if not dim:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square")
        cells = [
            (r * dim + c, re, im)
            for r, row in enumerate(rows)
            for c, (re, im) in enumerate(row)
            if re or im
        ]
        denominator = math.lcm(*(f.denominator for _, re, im in cells for f in (re, im)))
        re = {key: v.numerator * (denominator // v.denominator) for key, v, _ in cells if v}
        im = {key: v.numerator * (denominator // v.denominator) for key, _, v in cells if v}
        return cls._from_numerators(re, im, dim, denominator)

    @classmethod
    def _from_numerators(
        cls, re: dict[int, int], im: dict[int, int], dim: int, denominator: int
    ) -> "DensityOperator":
        """The exact state with entries (re + i im) / denominator, keyed r * dim + c.

        Every exact state is made here: the integers are validated exactly
        and grouped into the sweep table, the one form the state keeps.
        """
        _check_exact_state(re, im, dim, denominator)
        by_shift: dict[int, list[tuple]] = {}
        for key in sorted(re.keys() | im.keys()):
            r, c = divmod(key, dim)
            by_shift.setdefault(r ^ c, []).append((r, re.get(key, 0), im.get(key, 0)))
        rho = cls.__new__(cls)
        rho._is_exact = True
        rho.dim = dim
        rho._matrix = None
        rho._by_shift = (by_shift, denominator)
        return rho

    def _entries_by_shift(self) -> tuple[dict[int, list[tuple]], int]:
        """The nonzero entries rho[c][c ^ x] as (c, re, im), grouped by x.

        Tr(rho P) = sum_c rho[c][c ^ x] * P[c ^ x][c] for a word with x mask x.

        Exact states give integer numerators over the least common
        denominator (filled when the state is made), which is returned with
        them; float states give floats over 1, computed on first use.
        """
        if self._by_shift is None:
            by_shift: dict[int, list[tuple]] = {}
            for r, row in enumerate(self.matrix.tolist()):
                for c, v in enumerate(row):
                    if v:
                        by_shift.setdefault(r ^ c, []).append((r, v.real, v.imag))
            self._by_shift = (by_shift, 1)
        return self._by_shift


def _check_exact_state(re: dict[int, int], im: dict[int, int], dim: int, denominator: int):
    """Raise ValueError unless (re + i im) / denominator is a density matrix.

    The numerators are keyed r * dim + c, zeros may be left out, and the
    denominator is positive.  Every test is exact: hermiticity pairs each
    nonzero cell with its transpose, the trace is the diagonal sum, and
    positivity is ``_is_positive_semidefinite`` on the numerators.
    """
    for part, sign in ((re, 1), (im, -1)):
        for key, value in part.items():
            r, c = divmod(key, dim)
            if part.get(c * dim + r, 0) != sign * value:
                raise ValueError("density operator must be hermitian")
    if sum(re.get(c * dim + c, 0) for c in range(dim)) != denominator:
        raise ValueError("density operator must have unit trace")
    if not _is_positive_semidefinite(re, im, dim):
        raise ValueError("density operator not positive semidefinite")


def _is_positive_semidefinite(re: dict[int, int], im: dict[int, int], dim: int) -> bool:
    """Exact PSD test of the hermitian integer matrix re + i im.

    X + iY is PSD iff the real symmetric [[X, -Y], [Y, X]] is, so imaginary
    parts double the dimension.  A fraction-free LDL* that visits only the
    nonzero entries: a positive pivot at k replaces each row j with a
    nonzero in column k by pivot * row_j - row_j[k] * row_k, divided by the
    gcd of its entries.  Every row stays a positive multiple of its row in
    the Schur complement, so each pivot has the sign of the LDL* pivot: a
    negative one, or a zero one with a nonzero rest of its row, means a
    negative eigenvalue.  Bareiss divides every remaining row by the last
    pivot instead, which would touch rows the pivot does not reach; the gcd
    gives the primitive multiple of Bareiss's row, so the integers stay no
    larger than its minors.
    """
    rows: dict[int, dict[int, int]] = {}
    complex_entries = any(im.values())
    for key, value in re.items():
        if value:
            r, c = divmod(key, dim)
            rows.setdefault(r, {})[c] = value
            if complex_entries:
                rows.setdefault(r + dim, {})[c + dim] = value
    for key, value in im.items():
        if value:
            r, c = divmod(key, dim)
            rows.setdefault(r, {})[c + dim] = -value
            rows.setdefault(r + dim, {})[c] = value
    for k in sorted(rows):
        row = rows.pop(k)
        pivot = row.pop(k, 0)
        if pivot < 0 or (pivot == 0 and row):
            return False
        # columns below k are gone, and by symmetry row j has k iff row k has j
        for j in row:
            target = rows[j]
            factor = target.pop(k)
            updated = {c: pivot * v for c, v in target.items()}
            for c, v in row.items():
                updated[c] = updated.get(c, 0) - factor * v
            content = math.gcd(*updated.values()) or 1
            rows[j] = {c: v // content for c, v in updated.items() if v}
    return True
