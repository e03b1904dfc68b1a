"""Operational theories: measurements, comeasurability, probability tables.

A theory lists basic measurements, a comeasurability family (declared
physical data, never inferred from commutation), preparations, and
conditional probability tables.  Tables are mandatory at maximal joints;
sub-joint probabilities are marginalization views.  Disturbing theories
may additionally store their own sub-joint tables, which is exactly what
``is_nondisturbing`` compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import InvalidGraphError, MarginalAmbiguityError
from .quantum import DensityOperator, joint_distribution

if TYPE_CHECKING:
    from .graph import KSGraph
    from .realization import Realization

NORMALIZATION_TOL = 1e-12
TABLE_TOL = 1e-10
SUPPORT_TOL = 1e-12

# A joint measurement is identified by the set of basic labels it composes.
Joint = frozenset[str]


@dataclass(frozen=True)
class Measurement:
    """A basic measurement with labelled, numerically valued outcomes."""

    label: str
    outcomes: tuple[tuple[str, int | float | Fraction], ...]

    def __post_init__(self):
        if len(self.outcomes) < 2:
            raise ValueError(f"measurement {self.label}: needs at least two outcomes")
        labels = [name for name, _ in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"measurement {self.label}: outcome labels must be distinct")

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outcomes)

    def value_of(self, outcome_label: str):
        for name, value in self.outcomes:
            if name == outcome_label:
                return value
        raise KeyError(outcome_label)


def _close_family(
    declared: Iterable[Iterable[str]], basic_labels: Iterable[str]
) -> frozenset[Joint]:
    """Close under nonempty subsets and include every basic singleton."""
    family: set[Joint] = {frozenset({label}) for label in basic_labels}
    for raw in declared:
        members = frozenset(raw)
        if not members:
            continue
        stack = [members]
        while stack:
            current = stack.pop()
            if current in family:
                continue
            family.add(current)
            if len(current) > 1:
                for item in current:
                    stack.append(current - {item})
    return frozenset(family)


def _maximal_members(
    declared: Iterable[Iterable[str]], basic_labels: Iterable[str]
) -> set[Joint]:
    """The maximal members of ``_close_family(declared, basic_labels)``.

    Every member of the closure lies inside a declared set or is a basic
    singleton, so the maximal ones are found among those alone.
    """
    candidates = {frozenset(raw) for raw in declared} | {
        frozenset({label}) for label in basic_labels
    }
    candidates.discard(frozenset())
    return {j for j in candidates if not any(j < other for other in candidates)}


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

        comeasurable = [tuple(raw) for raw in comeasurable]
        for raw in comeasurable:
            for label in raw:
                if label not in self._by_label:
                    raise ValueError(f"comeasurable set names unknown measurement {label!r}")
        self.family = _close_family(comeasurable, self._by_label)
        self.maximal_joints = tuple(
            sorted(_maximal_members(comeasurable, self._by_label), key=self._joint_key)
        )

        self.tables: dict[Joint, dict[str, dict[tuple[str, ...], object]]] = {}
        for joint, per_prep in tables.items():
            joint = frozenset(joint)
            if joint not in self.family:
                raise ValueError(f"table for {self.joint_name(joint)} outside the family")
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
        for joint, per_prep in self.tables.items():
            valid = set(self.outcome_tuples(joint))
            for prep, dist in per_prep.items():
                if prep not in self.preparations:
                    raise ValueError(f"table names unknown preparation {prep!r}")
                if not valid.issuperset(dist):
                    raise ValueError(
                        f"table for {self.joint_name(joint)}: invalid outcome tuples "
                        f"{sorted(set(dist) - valid)}"
                    )
                total = sum(map(float, dist.values()))
                if abs(total - 1.0) > NORMALIZATION_TOL:
                    raise ValueError(
                        f"table for {self.joint_name(joint)} at {prep} sums to {total}, not 1"
                    )
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


def _marginal_from(
    theory: OperationalTheory,
    source: Joint,
    target: Joint,
    outcomes: tuple[str, ...],
    prep: str,
):
    """Sum a stored source table over components outside the target."""
    source_order = theory.component_order(source)
    target_order = theory.component_order(target)
    positions = {label: i for i, label in enumerate(source_order)}
    wanted = {label: outcome for label, outcome in zip(target_order, outcomes)}
    total = 0
    for combo, value in theory.tables[source][prep].items():
        if all(combo[positions[label]] == wanted[label] for label in target_order):
            total = total + value
    return total


def marginal(
    theory: OperationalTheory,
    joint: Joint | Iterable[str],
    outcomes: tuple[str, ...],
    prep: str,
):
    """Probability of an outcome event of ``joint`` by marginalizing the
    maximal-joint tables that contain it.

    All containments must agree within 1e-10, otherwise the theory is
    disturbing and a MarginalAmbiguityError is raised.
    """
    joint = frozenset(joint)
    if joint not in theory.family:
        raise ValueError(f"{set(joint)} is not in the comeasurability family")
    outcomes = tuple(outcomes)
    containers = [
        m for m in theory.maximal_joints if joint <= m and m in theory.tables
    ]
    if not containers:
        raise ValueError(f"no maximal joint contains {set(joint)}")
    values = [
        (container, _marginal_from(theory, container, joint, outcomes, prep))
        for container in containers
        if prep in theory.tables[container]
    ]
    if not values:
        raise ValueError(f"no table stored for preparation {prep!r}")
    floats = [float(v) for _, v in values]
    if max(floats) - min(floats) > TABLE_TOL:
        detail = ", ".join(
            f"{theory.joint_name(c)}: {float(v):.6g}" for c, v in values
        )
        raise MarginalAmbiguityError(
            f"marginals for {theory.joint_name(joint)} disagree across containments ({detail})"
        )
    return values[0][1]


@dataclass(frozen=True)
class DisturbanceWitness:
    sub_joint: tuple[str, ...]
    source_a: tuple[str, ...]
    source_b: tuple[str, ...]
    outcomes: tuple[str, ...]
    preparation: str
    value_a: float
    value_b: float


def is_nondisturbing(
    theory: OperationalTheory, tol: float = TABLE_TOL
) -> tuple[bool, tuple[DisturbanceWitness, ...]]:
    """Check that outcome statistics do not depend on accompanying
    comeasurable measurements.

    For every family member x and preparation, every way of computing
    p(X|x, r) (a stored table for x, or marginalizing any stored superset
    table) must agree within tol.
    """
    witnesses: list[DisturbanceWitness] = []
    stored = list(theory.tables)
    for sub in sorted(theory.family, key=theory._joint_key):
        sources = [s for s in stored if sub < s]
        for prep in theory.preparations:
            candidates: list[tuple[tuple[str, ...], object]] = []
            if sub in theory.tables and prep in theory.tables[sub]:
                candidates.append((theory.component_order(sub), None))
            for source in sources:
                if prep in theory.tables[source]:
                    candidates.append((theory.component_order(source), source))
            if len(candidates) < 2:
                continue
            for outcomes in theory.outcome_tuples(sub):
                values = []
                for name, source in candidates:
                    if source is None:
                        values.append((name, theory.stored_value(sub, outcomes, prep)))
                    else:
                        values.append(
                            (name, _marginal_from(theory, source, sub, outcomes, prep))
                        )
                for i in range(len(values)):
                    for j in range(i + 1, len(values)):
                        va, vb = float(values[i][1]), float(values[j][1])
                        if abs(va - vb) > tol:
                            witnesses.append(
                                DisturbanceWitness(
                                    sub_joint=theory.component_order(sub),
                                    source_a=values[i][0],
                                    source_b=values[j][0],
                                    outcomes=outcomes,
                                    preparation=prep,
                                    value_a=va,
                                    value_b=vb,
                                )
                            )
    return (not witnesses, tuple(witnesses))


def support(theory: OperationalTheory, joint: Joint) -> tuple[tuple[str, ...], ...]:
    """Outcome tuples with probability above 1e-12 in some preparation."""
    joint = frozenset(joint)
    if joint not in theory.maximal_joints:
        raise ValueError(f"{set(joint)} is not a maximal joint")
    return _family_support(theory, joint)


def _family_support(theory: OperationalTheory, joint: Joint) -> tuple[tuple[str, ...], ...]:
    """``support`` of any family member, read through ``theory.probability``."""
    return tuple(
        outcomes
        for outcomes in theory.outcome_tuples(joint)
        if any(
            float(theory.probability(joint, outcomes, prep)) > SUPPORT_TOL
            for prep in theory.preparations
        )
    )


def eigenstate_preparations(theory: OperationalTheory, joint: Joint) -> tuple[str, ...]:
    """Preparations in which every outcome of the joint is certain or
    impossible (probability 0 or 1 within 1e-10)."""
    joint = frozenset(joint)
    if joint not in theory.family:
        raise ValueError(f"{set(joint)} is not in the comeasurability family")
    out = []
    for prep in theory.preparations:
        values = [
            float(theory.probability(joint, outcomes, prep))
            for outcomes in theory.outcome_tuples(joint)
        ]
        if all(min(abs(v), abs(v - 1)) <= TABLE_TOL for v in values):
            out.append(prep)
    return tuple(out)


OUTCOME_PLUS = "+1"
OUTCOME_MINUS = "-1"
_PAULI_OUTCOMES = ((OUTCOME_PLUS, 1), (OUTCOME_MINUS, -1))


def from_quantum(
    graph: "KSGraph",
    states: Mapping[str, DensityOperator],
    realization: "Realization",
) -> OperationalTheory:
    """Fill an operational theory from Born-rule probabilities.

    Each graph vertex must be realized by exactly one measurement, each
    measurement distinct; the comeasurability family comes from the
    realization.  Joint tables exist precisely for the family's maximal
    members; edges whose measurements are not comeasurable get none.
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
    operator_of = {labels[v]: graph.vertices[v][1] for v in range(n)}

    for members in realization.comeasurable:
        unknown = [label for label in members if label not in operator_of]
        if unknown:
            raise InvalidGraphError(f"comeasurable set names unrealized labels {unknown}")
        ops = [operator_of[label] for label in members]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not ops[i].commutes(ops[j]):
                    raise InvalidGraphError(
                        "comeasurable set maps to non-commuting operators "
                        f"({', '.join(sorted(members))}); no quantum representation"
                    )

    basics = [Measurement(label, _PAULI_OUTCOMES) for label in labels]
    order = {label: i for i, label in enumerate(labels)}
    maximal = sorted(
        _maximal_members(realization.comeasurable, labels),
        key=lambda j: tuple(sorted(order[label] for label in j)),
    )

    tables: dict[Joint, dict[str, dict[tuple[str, ...], object]]] = {}
    for joint in maximal:
        members = sorted(joint, key=order.get)
        ops = tuple(operator_of[label] for label in members)
        # joint_distribution lists the ±1 tuples in this same product order
        combos = list(product((OUTCOME_PLUS, OUTCOME_MINUS), repeat=len(members)))
        tables[frozenset(joint)] = {
            prep: dict(zip(combos, joint_distribution(rho, ops).values()))
            for prep, rho in states.items()
        }

    return OperationalTheory(
        basics=basics,
        comeasurable=realization.comeasurable,
        preparations=tuple(states),
        tables=tables,
    )
