"""Born-rule probabilities, support tables and common eigenbases.

Everything comes from the Pauli expansion of a joint outcome's projection:
for mutually commuting words P_1..P_m and outcomes s_k = ±1,

    Pi = prod_k (I + s_k P_k) / 2 = 2^-m * sum_S s_S P_S,

where P_S is the product over a subset S and s_S the product of its
outcomes.  Each P_S is a signed permutation matrix in symplectic form
(``PauliString.symplectic``), so Tr(rho P_S) is one O(2^n) sweep over the
entries rho[c][c ^ x_S], and a tuple's probability is a signed sum of 2^m
such traces.  Support membership is a theorem-grade verdict and is decided
without any state: Pi is a projection, so it is zero iff its trace
2^(n-m) * sum over the S with P_S = ±I of s_S * (±1) is zero.  States may
carry floating entries; whenever a state is exact (as all built-in
preparations are), probabilities come out as exact Fractions.

The dense Q[i] products (``joint_projection`` from ``spectral_projection``)
stay as the independent oracle the tests check all of this against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from . import graph as ks_graph
from .exact import ZERO, ComplexMatrix, GaussianRational
from .pauli import SYMPLECTIC_IDENTITY, PauliString, Symplectic, spectral_projection

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
EIGENSTATE_TOL = 1e-10


class DensityOperator:
    """A quantum state; keeps an exact matrix alongside floats when known."""

    __slots__ = ("matrix", "exact", "_by_shift")

    def __init__(self, matrix: np.ndarray, exact: ComplexMatrix | None = None):
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
        self.matrix = matrix
        self.exact = exact
        self._by_shift = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_exact(cls, exact: ComplexMatrix) -> "DensityOperator":
        return cls(exact.to_numpy(), exact=exact)

    @classmethod
    def from_state_vector(cls, amplitudes: Sequence[complex]) -> "DensityOperator":
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
    def from_projection(cls, projection: ComplexMatrix) -> "DensityOperator":
        """Normalize an exact orthogonal projection into a state."""
        rank = projection.trace()
        if not rank.is_real() or rank.re <= 0:
            raise ValueError("projection must have positive integer rank")
        return cls.from_exact(projection.scale(Fraction(1) / rank.re))

    @classmethod
    def from_eigenspace(
        cls, ops: Sequence[PauliString], outcomes: Sequence[int]
    ) -> "DensityOperator":
        """Pi / Tr Pi for the joint projection Pi of commuting words.

        The same state as ``from_projection(joint_projection(ops, outcomes))``,
        built from the Pauli expansion with no matrix products.
        """
        re, im, dim = _projection_numerators(tuple(ops), tuple(outcomes))
        rank = sum(re.get(c * dim + c, 0) for c in range(dim))
        if rank <= 0:
            raise ValueError("projection must have positive integer rank")
        return cls._from_numerators(re, im, dim, rank)

    @classmethod
    def _from_numerators(
        cls, re: dict[int, int], im: dict[int, int], dim: int, denominator: int
    ) -> "DensityOperator":
        """The exact state with entries (re + i im) / denominator, keyed r * dim + c.

        Fills the float matrix and the sweep table straight from the
        integers; ``from_exact`` would get the same values entry by entry.
        """
        rows = [[ZERO] * dim for _ in range(dim)]
        matrix = np.zeros((dim, dim), dtype=complex)
        by_shift: dict[int, list[tuple]] = {}
        for key in sorted(re.keys() | im.keys()):
            r, c = divmod(key, dim)
            a, b = re.get(key, 0), im.get(key, 0)
            rows[r][c] = GaussianRational(Fraction(a, denominator), Fraction(b, denominator))
            matrix[r, c] = complex(a / denominator, b / denominator)
            by_shift.setdefault(r ^ c, []).append((r, a, b))
        rho = cls(matrix, exact=ComplexMatrix(rows))
        rho._by_shift = (by_shift, denominator)
        return rho

    def _entries_by_shift(self) -> tuple[dict[int, list[tuple]], int]:
        """The nonzero entries rho[c][c ^ x] as (c, re, im), grouped by x.

        Tr(rho P) = sum_c rho[c][c ^ x] * P[c ^ x][c] for a word with x mask x.

        Exact states give integer numerators over the least common
        denominator, which is returned with them; float states give floats
        over 1.  Computed once per state.
        """
        if self._by_shift is None:
            if self.exact is not None:
                cells = [
                    (r, c, v.re, v.im)
                    for r, row in enumerate(self.exact.rows)
                    for c, v in enumerate(row)
                    if v
                ]
                denominator = math.lcm(
                    *(f.denominator for _, _, re, im in cells for f in (re, im))
                )
                cells = [
                    (r, c, int(re * denominator), int(im * denominator))
                    for r, c, re, im in cells
                ]
            else:
                denominator = 1
                cells = [
                    (r, c, v.real, v.imag)
                    for r, row in enumerate(self.matrix.tolist())
                    for c, v in enumerate(row)
                    if v
                ]
            by_shift: dict[int, list[tuple]] = {}
            for r, c, re, im in cells:
                by_shift.setdefault(r ^ c, []).append((r, re, im))
            self._by_shift = (by_shift, denominator)
        return self._by_shift


def _check_observable(p: PauliString, dim: int):
    if not p.is_hermitian or p.is_identity_word:
        raise ValueError(f"{p} is not a two-valued hermitian observable")
    if 2**p.n_qubits != dim:
        raise ValueError(f"dimension mismatch: state dim {dim}, operator dim {2**p.n_qubits}")


def _check_commuting(ops: Sequence[PauliString]):
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not ops[i].commutes(ops[j]):
                raise ValueError(f"{ops[i]} and {ops[j]} do not commute")


def _check_eigenvalue(eigenvalue):
    if eigenvalue not in (1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {eigenvalue!r}")


@lru_cache(maxsize=4096)
def _subset_products(ops: tuple[PauliString, ...]) -> tuple[Symplectic, ...]:
    """P_S for every subset S of the commuting ops, in symplectic form.

    Operator k is bit m-1-k of the index S, so that walking the outcome
    index b in order walks ``product((1, -1), repeat=m)`` (bit set: -1).
    """
    if not ops:
        raise ValueError("need at least one operator")
    for op in ops:
        if not op.is_hermitian or op.is_identity_word:
            raise ValueError(f"{op} is not a two-valued hermitian observable")
    _check_commuting(ops)
    products = [SYMPLECTIC_IDENTITY]
    for op in ops:
        word = op.symplectic
        products = [p for q in products for p in (q, q * word)]
    return tuple(products)


@lru_cache(maxsize=None)
def _outcome_tuples(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product((1, -1), repeat=m))


def _signed_sums(values: list) -> list:
    """out[b] = sum over S of (-1)**popcount(S & b) * values[S], in place.

    Expanding prod_k (I + s_k P_k) turns each outcome tuple's projection
    into this signed sum over subset products (a Walsh-Hadamard transform).
    """
    h = 1
    while h < len(values):
        for start in range(0, len(values), 2 * h):
            for i in range(start, start + h):
                a, b = values[i], values[i + h]
                values[i], values[i + h] = a + b, a - b
        h *= 2
    return values


def _projection_traces(ops: tuple[PauliString, ...]) -> list[int]:
    """2^m Tr(Pi_b) / 2^n for every outcome tuple b, from symbolic traces.

    Tr(P_S) is 2^n * (+-1) when P_S is a signed identity and 0 otherwise;
    a product of commuting hermitian words is hermitian, so its power is
    even when it is a scalar.
    """
    return _signed_sums(
        [1 - word.power if word.is_scalar else 0 for word in _subset_products(ops)]
    )


def _projection_numerators(
    ops: tuple[PauliString, ...], outcomes: tuple[int, ...]
) -> tuple[dict[int, int], dict[int, int], int]:
    """The entries of 2^m Pi = sum_S s_S P_S as integers, keyed r * dim + c.

    Returns the real parts, the imaginary parts (nonzero entries only) and
    the dimension.  Each P_S adds one signed unit per column c, at row c ^ x.
    """
    if len(ops) != len(outcomes):
        raise ValueError("one outcome per operator required")
    for eigenvalue in outcomes:
        _check_eigenvalue(eigenvalue)
    products = _subset_products(ops)
    dim = 2 ** ops[0].n_qubits
    # s_S = (-1)**popcount(S & b) for the outcome index b
    b = sum(1 << (len(ops) - 1 - k) for k, v in enumerate(outcomes) if v == -1)
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for subset, word in enumerate(products):
        # s_S * i**power as one power of i
        power = (word.power + 2 * (subset & b).bit_count()) % 4
        part = im if power % 2 else re
        unit = -1 if power >= 2 else 1
        for c in range(dim):
            key = (c ^ word.x) * dim + c
            sign = -unit if (c & word.z).bit_count() % 2 else unit
            part[key] = part.get(key, 0) + sign
    return (
        {k: v for k, v in re.items() if v},
        {k: v for k, v in im.items() if v},
        dim,
    )


def joint_distribution(rho: DensityOperator, ops: Sequence[PauliString]) -> dict:
    """Tr(rho * Pi) for every outcome tuple of mutually commuting observables.

    Pi = prod_k (I + s_k P_k) / 2 = 2^-m * sum_S s_S P_S, so each tuple's
    probability is a signed sum of the 2^m traces Tr(rho P_S).  Each trace
    is one sweep over the entries rho[c][c ^ x_S].  Returns a dict from
    every ±1 tuple, in ``product((1, -1), repeat=m)`` order, to a Fraction
    when the state is exact and a float otherwise.
    """
    ops = tuple(ops)
    for op in ops:
        _check_observable(op, rho.dim)
    entries, denominator = rho._entries_by_shift()
    exact = rho.exact is not None
    traces = []
    for word in _subset_products(ops):
        re = im = 0
        for c, a, b in entries.get(word.x, ()):
            if (c & word.z).bit_count() % 2:
                re, im = re - a, im - b
            else:
                re, im = re + a, im + b
        # multiply by i**power
        re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[word.power]
        if exact and im:
            raise ValueError("trace of a hermitian pair came out complex")
        traces.append(re)
    sums = _signed_sums(traces)
    scale = denominator << len(ops)
    if exact:
        # tuples share few distinct probabilities; build each Fraction once
        fractions = {value: Fraction(value, scale) for value in set(sums)}
        probabilities = [fractions[value] for value in sums]
    else:
        probabilities = [value / scale for value in sums]
    return dict(zip(_outcome_tuples(len(ops)), probabilities))


def born_probability(rho: DensityOperator, p: PauliString, eigenvalue: int):
    """Tr(rho * P_eigenvalue); a Fraction when the state is exact."""
    _check_observable(p, rho.dim)
    _check_eigenvalue(eigenvalue)
    return joint_distribution(rho, (p,))[(eigenvalue,)]


@lru_cache(maxsize=None)
def joint_projection(
    ops: tuple[PauliString, ...], outcomes: tuple[int, ...]
) -> ComplexMatrix:
    """Exact product of the spectral projections of commuting operators.

    The dense oracle for ``DensityOperator.from_eigenspace`` and
    ``support_table``.
    """
    if len(ops) != len(outcomes):
        raise ValueError("one outcome per operator required")
    _check_commuting(ops)
    result = spectral_projection(ops[0], outcomes[0])
    for op, outcome in zip(ops[1:], outcomes[1:]):
        result = result @ spectral_projection(op, outcome)
    return result


def joint_born_probability(
    rho: DensityOperator,
    ops: Sequence[PauliString],
    outcomes: Sequence[int],
):
    """Tr(rho * prod_i P_i^{outcome_i}) for mutually commuting operators."""
    ops = tuple(ops)
    outcomes = tuple(outcomes)
    for op in ops:
        _check_observable(op, rho.dim)
    if len(ops) != len(outcomes):
        raise ValueError("one outcome per operator required")
    for eigenvalue in outcomes:
        _check_eigenvalue(eigenvalue)
    return joint_distribution(rho, ops)[outcomes]


@dataclass(frozen=True)
class SupportTable:
    """Per edge, the outcome tuples whose joint projection is nonzero."""

    per_edge: tuple[tuple[tuple[int, ...], ...], ...]

    def tuples_for(self, edge_index: int) -> tuple[tuple[int, ...], ...]:
        return self.per_edge[edge_index]

    def allows(self, edge_index: int, outcomes: tuple[int, ...]) -> bool:
        return outcomes in self.per_edge[edge_index]


@lru_cache(maxsize=64)
def support_table(graph: ks_graph.KSGraph) -> SupportTable:
    """State-independent support of every edge, decided exactly.

    A tuple is possible iff the trace of its joint projection is nonzero.
    For a valid hyperedge this equals the admissible tuples: the joint
    projection of a tuple vanishes identically iff the tuple's product
    disagrees with the edge sign.
    """
    per_edge = []
    for e_idx in range(len(graph.hyperedges)):
        ops = graph.edge_operators(e_idx)
        traces = _projection_traces(ops)
        per_edge.append(
            tuple(combo for combo, t in zip(_outcome_tuples(len(ops)), traces) if t)
        )
    return SupportTable(per_edge=tuple(per_edge))


def common_eigenbasis(
    ops: Sequence[PauliString],
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
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
    _check_commuting(ops)
    dim = 2 ** ops[0].n_qubits
    branches: list[tuple[ComplexMatrix, tuple[int, ...]]] = [
        (ComplexMatrix.identity(dim), ())
    ]
    for op in ops:
        _check_observable(op, dim)
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
            vector = eigenvectors[:, column]
            basis.append((vector, outcomes))
    return basis


def is_operational_eigenstate(
    rho: DensityOperator,
    ops: Sequence[PauliString],
    tol: float = EIGENSTATE_TOL,
) -> bool:
    """True iff every joint outcome probability is 0 or 1 within tol."""
    return all(
        min(abs(p), abs(p - 1)) <= tol for p in joint_distribution(rho, ops).values()
    )
