"""Operational theories: measurements, comeasurability, probability tables,
and the realizations that tie graph vertices to measurements.

A theory lists basic measurements, a comeasurability family (declared
physical data, never inferred from commutation), preparations, and
conditional probability tables.  Tables are mandatory at maximal joints;
sub-joint probabilities are marginalization views.  Disturbing theories
may additionally store their own sub-joint tables, which is exactly what
``is_nondisturbing`` compares against.  An ontological model's responses
are such a theory with the ontic states as preparations, so the same table
checks and the same non-disturbance check serve them.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidGraphError, MarginalAmbiguityError
from .parity import bits
from .pauli import check_commuting
from .values import Frozen, Value

# ``from_quantum`` imports the Born rule where it fills tables, so explicit
# tables load no quantum module; this module makes no Fraction, so it loads
# no ``fractions`` either
if TYPE_CHECKING:
    from fractions import Fraction

    from .graph import KSGraph
    from .state import DensityOperator

# ``differs`` compares probabilities exactly unless a float is involved; a float
# is held to KNOWN_TOL against a known number (a sum against 1, a probability
# against 0) and to AGREE_TOL against another computed value.
KNOWN_TOL = 1e-12
AGREE_TOL = 1e-10


def differs(a, b, tol: float = AGREE_TOL) -> bool:
    """True iff two probabilities differ: ``a != b`` when neither is a
    float, else by more than ``tol``, so that a NaN differs from anything."""
    if isinstance(a, float) or isinstance(b, float):
        return not abs(a - b) <= tol
    return a != b


def distribution_problem(dist: Mapping) -> str | None:
    """Why ``dist``'s values are not a probability distribution (a sum
    other than 1, or an entry below 0, compared by ``differs``), or None."""
    values = dist.values()
    total = 0
    for p in values:
        # replacing a zero total spares a Fraction addition per one-entry
        # distribution, such as each response of a deterministic model
        total = total + p if total else p
    if differs(total, 1, KNOWN_TOL):
        return f"sums to {total}, not 1"
    # a lone entry is the sum, so only a longer distribution can hide one below 0
    if len(values) > 1:
        for p in values:
            if p < 0 and differs(p, 0):
                return f"has the negative entry {p}"
    return None


# A joint measurement is identified by the set of basic labels it composes.
Joint = frozenset[str]


class Measurement(Frozen):
    """A basic measurement with labelled, numerically valued outcomes."""

    _fields = ("label", "outcomes")

    def __init__(self, label: str, outcomes: tuple[tuple[str, int | float | Fraction], ...]):
        if len(outcomes) < 2:
            raise ValueError(f"measurement {label}: needs at least two outcomes")
        labels = [name for name, _ in outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"measurement {label}: outcome labels must be distinct")
        self._set(label, outcomes)

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outcomes)

    def value_of(self, outcome_label: str):
        for name, value in self.outcomes:
            if name == outcome_label:
                return value
        raise KeyError(outcome_label)


class Family:
    """A comeasurability family held by its maximal members, in a fixed
    order: by their labels' positions in ``labels`` (other labels follow by
    name).  Every basic label is a member.  One index maps each label to
    the bit mask of the maximal members holding it (bit i for
    ``maximal[i]``); ``holding``, ``in`` and iterating read it.  Iterating
    lists the downward closure lazily, each member under the first maximal
    member holding it, for the checks that need every member.
    """

    __slots__ = ("maximal", "_holders")

    def __init__(self, declared: Iterable[Iterable[str]], labels: Iterable[str]):
        candidates = {frozenset(raw) for raw in declared} - {frozenset()}
        rank = {label: i for i, label in enumerate(labels)}
        candidates.update(frozenset({label}) for label in rank)
        for label in sorted(set().union(*candidates) - rank.keys()):
            rank[label] = len(rank)
        # a proper superset is longer, so it is kept before its subsets
        kept: list[Joint] = []
        for joint in sorted(candidates, key=len, reverse=True):
            if not any(joint <= other for other in kept):
                kept.append(joint)
        self.maximal = tuple(sorted(kept, key=lambda j: sorted(map(rank.get, j))))
        self._holders: dict[str, int] = {}
        for i, top in enumerate(self.maximal):
            for label in top:
                self._holders[label] = self._holders.get(label, 0) | 1 << i

    def holding(self, labels: Iterable[str]) -> int:
        """Bit i is set iff ``maximal[i]`` holds every label; 0 for no labels."""
        mask = -1
        for label in labels:
            mask &= self._holders.get(label, 0)
        return max(mask, 0)

    def __contains__(self, joint) -> bool:
        return isinstance(joint, (set, frozenset)) and self.holding(joint) != 0

    def __iter__(self):
        for i, top in enumerate(self.maximal):
            earlier = (1 << i) - 1
            for size in range(1, len(top) + 1):
                for combo in combinations(sorted(top), size):
                    if not self.holding(combo) & earlier:
                        yield frozenset(combo)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return set(self.maximal) == set(other.maximal)

    def __repr__(self):
        return f"Family(maximal={self.maximal!r})"


class Realization(Value):
    """Association of vertices with measurement label sets.

    ``function_tags`` optionally names which function of a shared
    measurement realizes a given vertex (the f_i of a collapsed edge).
    ``comeasurable`` is a ``Family``: the maximal comeasurable label sets,
    in ``measurement_labels`` order; a label set is comeasurable iff it lies
    inside one, and every label a vertex carries is.
    """

    _fields = ("assoc", "comeasurable", "function_tags")

    def __init__(
        self,
        assoc: tuple[frozenset[str], ...],
        comeasurable: Family | Iterable[Iterable[str]],
        function_tags: dict[tuple[int, str], str] | None = None,
    ):
        self.assoc = assoc
        if not isinstance(comeasurable, Family):
            comeasurable = Family(comeasurable, self.measurement_labels)
        self.comeasurable = comeasurable
        self.function_tags = {} if function_tags is None else function_tags

    def __repr__(self):
        return (
            f"Realization(assoc={self.assoc!r}, comeasurable={frozenset(self.comeasurable)!r}, "
            f"function_tags={self.function_tags!r})"
        )

    @classmethod
    def build(
        cls,
        assoc: Sequence[Iterable[str]],
        comeasurable: Iterable[Iterable[str]] = (),
        function_tags: Mapping[tuple[int, str], str] | None = None,
    ) -> "Realization":
        normalized = tuple(frozenset(a) for a in assoc)
        if any(not a for a in normalized):
            raise ValueError("every vertex needs at least one measurement")
        return cls(normalized, comeasurable, dict(function_tags or {}))

    @property
    def measurement_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*self.assoc)))


class OperationalTheory:
    """Conditional outcome probabilities over a comeasurability family."""

    def __init__(
        self,
        basics: Sequence[Measurement],
        comeasurable: Iterable[Iterable[str]],
        preparations: Sequence[str],
        tables: Mapping[Joint, Mapping[str, Mapping[tuple[str, ...], object]]],
    ):
        self.basics = tuple(basics)
        self._by_label = {m.label: m for m in self.basics}
        if len(self._by_label) != len(self.basics):
            raise ValueError("basic measurement labels must be distinct")
        self._order = {m.label: i for i, m in enumerate(self.basics)}
        self.preparations = tuple(preparations)
        if len(set(self.preparations)) != len(self.preparations):
            raise ValueError("preparation labels must be distinct")

        self.family = Family(comeasurable, self._by_label)
        self.maximal_joints = self.family.maximal
        unknown = sorted(set().union(*self.maximal_joints) - self._by_label.keys())
        if unknown:
            raise ValueError(f"comeasurable set names unknown measurement {unknown[0]!r}")

        self.tables: dict[Joint, dict[str, dict[tuple[str, ...], object]]] = {}
        for joint, per_prep in tables.items():
            joint = frozenset(joint)
            if joint not in self.family:
                # joint_name would drop a label that is no basic measurement
                raise ValueError(f"table for {'&'.join(sorted(joint))} outside the family")
            if joint in self.tables:
                raise ValueError(f"two tables for {self.joint_name(joint)}")
            self.tables[joint] = {
                prep: dict(dist) for prep, dist in per_prep.items()
            }
        self._validate_tables()

    # -- structure helpers -------------------------------------------------

    def _joint_key(self, joint: Joint) -> tuple[int, ...]:
        return tuple(sorted(self._order[label] for label in joint))

    def component_order(self, joint: Joint) -> tuple[str, ...]:
        """Basic labels of a joint in declaration order."""
        return tuple(m.label for m in self.basics if m.label in joint)

    def joint_name(self, joint: Joint) -> str:
        return "&".join(self.component_order(joint))

    def measurement(self, label: str) -> Measurement:
        return self._by_label[label]

    def outcome_tuples(self, joint: Joint) -> tuple[tuple[str, ...], ...]:
        parts = [self._by_label[label].outcome_labels for label in self.component_order(joint)]
        return tuple(product(*parts))

    def _validate_tables(self):
        preparations = set(self.preparations)
        for joint, per_prep in self.tables.items():
            valid = set(self.outcome_tuples(joint))
            for prep, dist in per_prep.items():
                if prep not in preparations:
                    raise ValueError(f"table names unknown preparation {prep!r}")
                if not valid.issuperset(dist):
                    raise ValueError(
                        f"table for {self.joint_name(joint)}: invalid outcome tuples "
                        f"{sorted(set(dist) - valid)}"
                    )
                if problem := distribution_problem(dist):
                    raise ValueError(f"table for {self.joint_name(joint)} at {prep} {problem}")
        for joint in self.maximal_joints:
            for prep in self.preparations:
                if joint not in self.tables or prep not in self.tables[joint]:
                    raise ValueError(
                        f"missing table for maximal joint {self.joint_name(joint)} at {prep}"
                    )

    # -- probability access -------------------------------------------------

    def stored_value(self, joint: Joint, outcomes: tuple[str, ...], prep: str):
        dist = self.tables[joint][prep]
        return dist.get(outcomes, 0)

    def probability(self, joint: Joint, outcomes: tuple[str, ...], prep: str):
        """Stored table entry when present, else a marginal view."""
        joint = frozenset(joint)
        if joint in self.tables and prep in self.tables[joint]:
            return self.stored_value(joint, tuple(outcomes), prep)
        return marginal(self, joint, tuple(outcomes), prep)


def _positions(theory: OperationalTheory, source: Joint, target: Joint) -> list[int]:
    """Where each of the target's components sits in the source's outcome tuples."""
    source_order = theory.component_order(source)
    return [source_order.index(label) for label in theory.component_order(target)]


def _marginal_from(table: Mapping, positions: Sequence[int]) -> dict:
    """A stored table summed over the components outside ``positions``; an
    outcome tuple the result lacks has weight 0."""
    totals: dict[tuple[str, ...], object] = {}
    for combo, value in table.items():
        outcomes = tuple(combo[p] for p in positions)
        totals[outcomes] = totals.get(outcomes, 0) + value
    return totals


def marginal(
    theory: OperationalTheory,
    joint: Joint | Iterable[str],
    outcomes: tuple[str, ...],
    prep: str,
):
    """Probability of an outcome event of ``joint`` by marginalizing the
    maximal-joint tables that contain it.

    All containments must agree by ``differs``, otherwise the theory is
    disturbing and a MarginalAmbiguityError is raised.
    """
    joint = frozenset(joint)
    if joint not in theory.family:
        raise ValueError(f"{set(joint)} is not in the comeasurability family")
    outcomes = tuple(outcomes)
    # every maximal joint has a table, so a member has a container
    containers = [theory.maximal_joints[i] for i in bits(theory.family.holding(joint))]
    values = [
        (c, _marginal_from(theory.tables[c][prep], _positions(theory, c, joint)).get(outcomes, 0))
        for c in containers
        if prep in theory.tables[c]
    ]
    if not values:
        raise ValueError(f"no table stored for preparation {prep!r}")
    if any(differs(a, b) for (_, a), (_, b) in combinations(values, 2)):
        detail = ", ".join(
            f"{theory.joint_name(c)}: {float(v):.6g}" for c, v in values
        )
        raise MarginalAmbiguityError(
            f"marginals for {theory.joint_name(joint)} disagree across containments ({detail})"
        )
    return values[0][1]


class DisturbanceWitness(NamedTuple):
    sub_joint: tuple[str, ...]
    source_a: tuple[str, ...]
    source_b: tuple[str, ...]
    outcomes: tuple[str, ...]
    preparation: str
    value_a: float
    value_b: float


def is_nondisturbing(theory: OperationalTheory) -> tuple[bool, tuple[DisturbanceWitness, ...]]:
    """Check that outcome statistics do not depend on accompanying
    comeasurable measurements.

    For every family member x and preparation, every way of computing
    p(X|x, r) (a stored table for x, or marginalizing any stored superset
    table) must agree, compared by ``differs``: exactly for exact tables.
    """
    witnesses: list[DisturbanceWitness] = []
    stored = list(theory.tables)
    for sub in sorted(theory.family, key=theory._joint_key):
        sub_order = theory.component_order(sub)
        sources = [
            (theory.component_order(s), theory.tables[s], _positions(theory, s, sub))
            for s in stored
            if sub < s
        ]
        own = theory.tables.get(sub, {})
        for prep in theory.preparations:
            candidates = [(sub_order, own[prep])] if prep in own else []
            candidates += [
                (name, _marginal_from(per_prep[prep], positions))
                for name, per_prep, positions in sources
                if prep in per_prep
            ]
            if len(candidates) < 2:
                continue
            for outcomes in theory.outcome_tuples(sub):
                values = [(name, dist.get(outcomes, 0)) for name, dist in candidates]
                # equal values differ pairwise nowhere, whatever their types
                if all(v == values[0][1] for _, v in values):
                    continue
                for (name_a, va), (name_b, vb) in combinations(values, 2):
                    if differs(va, vb):
                        witnesses.append(
                            DisturbanceWitness(
                                sub_joint=sub_order,
                                source_a=name_a,
                                source_b=name_b,
                                outcomes=outcomes,
                                preparation=prep,
                                value_a=float(va),
                                value_b=float(vb),
                            )
                        )
    return (not witnesses, tuple(witnesses))


def support(theory: OperationalTheory, joint: Joint) -> tuple[tuple[str, ...], ...]:
    """Outcome tuples with nonzero probability in some preparation.

    A probability is nonzero when it is above 0 and ``differs`` from 0 by
    KNOWN_TOL: exactly for an exact one, by more than 1e-12 for a float.
    """
    joint = frozenset(joint)
    if joint not in theory.maximal_joints:
        raise ValueError(f"{set(joint)} is not a maximal joint")
    return tuple(
        outcomes
        for outcomes in theory.outcome_tuples(joint)
        if any(
            _positive(theory.probability(joint, outcomes, prep))
            for prep in theory.preparations
        )
    )


def _positive(p) -> bool:
    return p > 0 and differs(p, 0, KNOWN_TOL)


def eigenstate_preparations(theory: OperationalTheory, joint: Joint) -> tuple[str, ...]:
    """Preparations in which every outcome of the joint is certain or
    impossible: its probability does not ``differ`` from 0 or from 1."""
    joint = frozenset(joint)
    if joint not in theory.family:
        raise ValueError(f"{set(joint)} is not in the comeasurability family")
    out = []
    for prep in theory.preparations:
        values = [
            theory.probability(joint, outcomes, prep)
            for outcomes in theory.outcome_tuples(joint)
        ]
        if all(not differs(v, 0) or not differs(v, 1) for v in values):
            out.append(prep)
    return tuple(out)


OUTCOME_PLUS = "+1"
OUTCOME_MINUS = "-1"
_PAULI_OUTCOMES = ((OUTCOME_PLUS, 1), (OUTCOME_MINUS, -1))


def quantum_joints(graph: KSGraph, realization: Realization) -> tuple[list[str], list[tuple]]:
    """Each vertex's one measurement and the maximal comeasurable sets as
    vertex tuples, in vertex order; InvalidGraphError unless the labels are
    distinct, all realized, and each maximal set's operators commute.
    """
    n = graph.n_vertices
    labels = []
    for v in range(n):
        assoc = realization.assoc[v]
        if len(assoc) != 1:
            raise InvalidGraphError(
                f"vertex {graph.vertices[v][0]}: from_quantum needs a unique realization"
            )
        labels.append(next(iter(assoc)))
    if len(set(labels)) != n:
        raise InvalidGraphError("from_quantum needs distinct measurements per vertex")
    vertex_of = {label: v for v, label in enumerate(labels)}
    maximal = realization.comeasurable.maximal
    unknown = sorted(set().union(*maximal) - vertex_of.keys())
    if unknown:
        raise InvalidGraphError(f"comeasurable set names unrealized labels {unknown}")

    # every subset of a commuting set commutes, so the maximal sets suffice
    joints = sorted(tuple(sorted(map(vertex_of.get, joint))) for joint in maximal)
    for members in joints:
        try:
            check_commuting([graph.vertices[v][1] for v in members])
        except ValueError as exc:
            raise InvalidGraphError(
                "comeasurable set maps to non-commuting operators "
                f"({', '.join(labels[v] for v in members)}: {exc}); no quantum representation"
            ) from exc
    return labels, joints


def from_quantum(
    graph: "KSGraph",
    states: Mapping[str, DensityOperator],
    realization: Realization,
) -> OperationalTheory:
    """Fill an operational theory from Born-rule probabilities.

    The realization must pass ``quantum_joints`` and gives the family.
    Joint tables exist precisely for the family's maximal members; edges
    whose measurements are not comeasurable get none.
    """
    from .quantum import joint_distribution

    labels, joints = quantum_joints(graph, realization)
    tables: dict[Joint, dict[str, dict[tuple[str, ...], object]]] = {}
    for members in joints:
        ops = tuple(graph.vertices[v][1] for v in members)
        # joint_distribution lists the ±1 tuples in this same product order
        combos = list(product((OUTCOME_PLUS, OUTCOME_MINUS), repeat=len(members)))
        tables[frozenset(labels[v] for v in members)] = {
            prep: dict(zip(combos, joint_distribution(rho, ops).values()))
            for prep, rho in states.items()
        }

    return OperationalTheory(
        basics=[Measurement(label, _PAULI_OUTCOMES) for label in labels],
        comeasurable=realization.comeasurable.maximal,
        preparations=tuple(states),
        tables=tables,
    )
