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
2^(n-m) * sum over the S with P_S = ±I of s_S * (±1) is zero.  Those S form
a group, so the sum vanishes unless s_S is the sign of P_S on every one of
them (``edge_relations``).  States may carry floating entries; whenever a
state is exact (as all built-in preparations are), probabilities come out
as exact Fractions and the eigenstate check compares them with 0 and 1
exactly.

The states themselves, and their exact validation, live in ``state``;
this module reads their integer numerators and makes the projection
numerators ``DensityOperator.from_eigenspace`` normalizes and
``common_eigenbasis`` diagonalizes.  numpy is imported only for float
states and ``common_eigenbasis``, so the exact verdict path never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import graph as ks_graph
from .pauli import (
    SYMPLECTIC_IDENTITY,
    PauliString,
    Symplectic,
    check_commuting,
    check_two_valued,
)

if TYPE_CHECKING:
    import numpy as np

    from .state import DensityOperator


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
        check_two_valued(op)
    check_commuting(ops)
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


def edge_relations(ops: tuple[PauliString, ...]) -> tuple[tuple[int, int], ...]:
    """(subset, bit) for each nonempty subset of the commuting ops whose
    product is ±I, bit 1 for -I, as a mask with operator k at bit m-1-k.

    An outcome index b (bit set: -1) has a nonzero joint projection iff
    popcount(subset & b) % 2 == bit for every relation (module docstring).
    """
    return tuple(
        (subset, word.power // 2)
        for subset, word in enumerate(_subset_products(ops))
        if subset and word.is_scalar
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
    products = _subset_products(ops)
    if 2 ** ops[0].n_qubits != rho.dim:
        raise ValueError(
            f"dimension mismatch: state dim {rho.dim}, operator dim {2 ** ops[0].n_qubits}"
        )
    entries, denominator = rho._entries_by_shift()
    exact = rho._is_exact
    traces = []
    for word in products:
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
    _check_eigenvalue(eigenvalue)
    return joint_distribution(rho, (p,))[(eigenvalue,)]


def joint_born_probability(
    rho: DensityOperator,
    ops: Sequence[PauliString],
    outcomes: Sequence[int],
):
    """Tr(rho * prod_i P_i^{outcome_i}) for mutually commuting operators."""
    ops = tuple(ops)
    outcomes = tuple(outcomes)
    if len(ops) != len(outcomes):
        raise ValueError("one outcome per operator required")
    for eigenvalue in outcomes:
        _check_eigenvalue(eigenvalue)
    return joint_distribution(rho, ops)[outcomes]


class SupportTable(NamedTuple):
    """Per edge, the outcome tuples whose joint projection is nonzero."""

    per_edge: tuple[tuple[tuple[int, ...], ...], ...]

    def tuples_for(self, edge_index: int) -> tuple[tuple[int, ...], ...]:
        return self.per_edge[edge_index]

    def allows(self, edge_index: int, outcomes: tuple[int, ...]) -> bool:
        return outcomes in self.per_edge[edge_index]


@lru_cache(maxsize=64)
def support_table(graph: ks_graph.KSGraph) -> SupportTable:
    """State-independent support of every edge, decided exactly.

    A tuple is possible iff the trace of its joint projection is nonzero,
    that is iff on every subset of the edge whose product is ±I its values
    multiply to that sign.  The whole edge gives the admissibility rule, so
    the support is the admissible tuples exactly when no proper nonempty
    subset of the edge multiplies to ±I.  Otherwise it is smaller: the edge
    {ZI, ZI, IZ, IZ} has 8 admissible tuples and 4 supported ones.
    """
    return SupportTable(per_edge=tuple(
        _supported_tuples(graph.edge_operators(e_idx))
        for e_idx in range(len(graph.hyperedges))
    ))


def _supported_tuples(ops: tuple[PauliString, ...]) -> tuple[tuple[int, ...], ...]:
    """The outcome tuples of the commuting ops with a nonzero joint
    projection, in ``product((1, -1), repeat=m)`` order."""
    relations = edge_relations(ops)
    return tuple(
        combo
        for b, combo in enumerate(_outcome_tuples(len(ops)))
        if all((subset & b).bit_count() % 2 == bit for subset, bit in relations)
    )


def common_eigenbasis(
    ops: Sequence[PauliString],
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Orthonormal simultaneous eigenvectors with their eigenvalue tuples.

    The tuples are the supported ones, in ``product((1, -1), repeat=m)``
    order.  Each tuple's joint projection 2^-m sum_S s_S P_S is built from
    its exact numerators; its rank is its trace, and ``numpy.linalg.eigh``
    gives that many orthonormal vectors of its range, the only
    floating-point step.
    """
    import numpy as np

    ops = tuple(ops)
    scale = 2 ** len(ops)
    basis: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for outcomes in _supported_tuples(ops):
        re, im, dim = _projection_numerators(ops, outcomes)
        projection = np.zeros((dim, dim), dtype=complex)
        for key in re.keys() | im.keys():
            projection.flat[key] = complex(re.get(key, 0) / scale, im.get(key, 0) / scale)
        rank = sum(re.get(c * dim + c, 0) for c in range(dim)) // scale
        eigenvalues, eigenvectors = np.linalg.eigh(projection)
        # eigh sorts ascending; the range of the projection is the tail
        for column in range(dim - rank, dim):
            basis.append((eigenvectors[:, column], outcomes))
    return basis


def is_operational_eigenstate(rho: DensityOperator, ops: Sequence[PauliString]) -> bool:
    """True iff every joint outcome probability is 0 or 1 by
    ``operational.differs``: exactly for an exact state, within 1e-10 else."""
    from .operational import differs

    probabilities = joint_distribution(rho, ops).values()
    return all(not differs(p, 0) or not differs(p, 1) for p in probabilities)
