"""Ontological (hidden variable) models and their existence search.

A model is a finite set of ontic states, a distribution over them per
preparation, and response functions per (measurement, ontic state).  By
representation the two screening-off conditions hold automatically:
preparation distributions carry no measurement argument (no-conspiracy)
and responses carry no preparation argument (lambda-sufficiency).

The existence search ranges over deterministic outcome assignments to the
basic measurements only; noncontextual value-definite responses factorize,
so nothing more general can exist.  Each verb runs one ``graph.depth_first``
pass, which checks each maximal joint's support as soon as its members have
values.  ``search_states`` and ``min_violation_fraction`` branch-and-bound
the number of violated joints until an assignment violates none, and the
latter stops there; ``search_ncvd`` cuts a branch at its first violation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import NotTwoValuedError
from .graph import SEARCH_CAP, depth_first
from .operational import KNOWN_TOL, Family, Joint, Measurement, OperationalTheory
from .operational import differs, distribution_problem, support


class OntologicalModel:
    """Finite ontic state set with preparation distributions and responses."""

    def __init__(
        self,
        basics: Sequence[Measurement],
        comeasurable: Iterable[Iterable[str]],
        ontic_states: Sequence[str],
        prep_distributions: Mapping[str, Mapping[str, object]],
        responses: Mapping[tuple[frozenset, str], Mapping[tuple[str, ...], object]],
    ):
        self.basics = tuple(basics)
        self._by_label = {m.label: m for m in self.basics}
        self.family = Family(comeasurable, self._by_label)
        self.ontic_states = tuple(ontic_states)
        if len(set(self.ontic_states)) != len(self.ontic_states):
            raise ValueError("ontic state labels must be distinct")
        self.prep_distributions = {
            prep: dict(dist) for prep, dist in prep_distributions.items()
        }
        self.responses = {
            (frozenset(joint), lam): dict(dist)
            for (joint, lam), dist in responses.items()
        }
        self._validate()

    @property
    def preparations(self) -> tuple[str, ...]:
        return tuple(self.prep_distributions)

    def component_order(self, joint: Joint) -> tuple[str, ...]:
        return tuple(m.label for m in self.basics if m.label in joint)

    def joint_name(self, joint: Joint) -> str:
        return "&".join(self.component_order(joint))

    def outcome_tuples(self, joint: Joint) -> tuple[tuple[str, ...], ...]:
        parts = [self._by_label[label].outcome_labels for label in self.component_order(joint)]
        return tuple(product(*parts))

    def maximal_joints(self) -> tuple[Joint, ...]:
        return self.family.maximal

    def response(self, joint: Joint, lam: str) -> dict[tuple[str, ...], object]:
        return self.responses[(frozenset(joint), lam)]

    def response_probability(self, joint: Joint, outcomes: tuple[str, ...], lam: str):
        return self.response(joint, lam).get(tuple(outcomes), 0)

    def _validate(self):
        for prep, dist in self.prep_distributions.items():
            unknown = set(dist) - set(self.ontic_states)
            if unknown:
                raise ValueError(f"preparation {prep}: unknown ontic states {sorted(unknown)}")
            if problem := distribution_problem(dist):
                raise ValueError(f"preparation {prep} {problem}")
        for joint in self.family:
            valid = set(self.outcome_tuples(joint))
            for lam in self.ontic_states:
                key = (joint, lam)
                if key not in self.responses:
                    raise ValueError(
                        f"missing response for {self.joint_name(joint)} at ontic state {lam}"
                    )
                dist = self.responses[key]
                if not valid.issuperset(dist):
                    raise ValueError(
                        f"response for {self.joint_name(joint)}: bad outcome tuples "
                        f"{sorted(set(dist) - valid)}"
                    )
                if problem := distribution_problem(dist):
                    raise ValueError(f"response for {self.joint_name(joint)} at {lam} {problem}")

    @classmethod
    def from_deterministic_assignments(
        cls,
        basics: Sequence[Measurement],
        comeasurable: Iterable[Iterable[str]],
        assignments: Sequence[Mapping[str, str]],
        preparations: Sequence[str] = (),
    ) -> "OntologicalModel":
        """One ontic state per assignment of outcome labels to basics;
        responses are the induced deterministic, factorizing ones and
        preparations are uniform over the states."""
        labels = [m.label for m in basics]
        family = Family(comeasurable, labels)
        order = {label: i for i, label in enumerate(labels)}
        members_of = [(joint, sorted(joint, key=order.get)) for joint in family]
        ontic = [_state_name(a[label] for label in labels) for a in assignments]
        one = Fraction(1)
        responses = {}
        for assignment, lam in zip(assignments, ontic):
            for joint, members in members_of:
                induced = tuple([assignment[label] for label in members])
                responses[(joint, lam)] = {induced: one}
        n = len(ontic)
        prep_distributions = {
            prep: {lam: Fraction(1, n) for lam in ontic} for prep in preparations
        }
        return cls(basics, family.maximal, ontic, prep_distributions, responses)


# -- verdicts ----------------------------------------------------------------


def _structures_match(model: OntologicalModel, theory: OperationalTheory) -> str | None:
    if tuple(m.label for m in model.basics) != tuple(m.label for m in theory.basics):
        return "basic measurements differ"
    for m_model, m_theory in zip(model.basics, theory.basics):
        if m_model.outcome_labels != m_theory.outcome_labels:
            return f"outcomes differ for {m_model.label}"
    if model.family != theory.family:
        return "comeasurability families differ"
    if set(model.preparations) != set(theory.preparations):
        return "preparations differ"
    return None


def recovers(model: OntologicalModel, theory: OperationalTheory) -> tuple[bool, tuple]:
    """Check sum_lambda p(X|x, lambda) p(lambda|r) against every stored
    theory table entry, compared by ``differs``: exactly for exact inputs."""
    mismatch = _structures_match(model, theory)
    if mismatch:
        raise ValueError(f"model does not match theory: {mismatch}")
    witnesses = []
    for joint, per_prep in theory.tables.items():
        for prep, dist in per_prep.items():
            weights = model.prep_distributions[prep]
            for outcomes in theory.outcome_tuples(joint):
                predicted = sum(
                    model.response_probability(joint, outcomes, lam) * weight
                    for lam, weight in weights.items()
                )
                expected = dist.get(outcomes, 0)
                if differs(predicted, expected):
                    witnesses.append(
                        (theory.component_order(joint), outcomes, prep, predicted, expected)
                    )
    return (not witnesses, tuple(witnesses))


def is_value_definite(model: OntologicalModel) -> bool:
    """True iff every maximal-joint response probability is exactly 0 or 1."""
    return not _value_definiteness_witnesses(model)


def _value_definiteness_witnesses(model: OntologicalModel) -> tuple:
    out = []
    for joint in model.maximal_joints():
        for lam in model.ontic_states:
            for outcomes, value in model.response(joint, lam).items():
                if not (value == 0 or value == 1):
                    out.append((model.joint_name(joint), lam, outcomes, value))
    return tuple(out)


def is_noncontextual(model: OntologicalModel) -> tuple[bool, tuple]:
    """Responses of a measurement must not depend on what it is co-measured
    with: for x contained in y, the x-marginal of y's response equals x's
    own response, for every ontic state.

    The two are compared by ``differs``: exactly when the responses are
    exact, within 1e-12 when a float is involved.
    """
    witnesses = []
    members = sorted(model.family, key=lambda j: (len(j), model.joint_name(j)))
    for sub in members:
        supersets = [y for y in members if sub < y]
        if not supersets:
            continue
        sub_order = model.component_order(sub)
        for big in supersets:
            big_order = model.component_order(big)
            positions = [big_order.index(label) for label in sub_order]
            for lam in model.ontic_states:
                big_response = model.response(big, lam)
                for outcomes in model.outcome_tuples(sub):
                    marginal = sum(
                        v
                        for combo, v in big_response.items()
                        if all(combo[p] == o for p, o in zip(positions, outcomes))
                    )
                    direct = model.response_probability(sub, outcomes, lam)
                    if differs(marginal, direct, KNOWN_TOL):
                        witnesses.append(
                            (sub_order, big_order, outcomes, lam, float(direct), float(marginal))
                        )
    return (not witnesses, tuple(witnesses))


def factorizes(model: OntologicalModel) -> bool:
    """True iff every joint response is the product of the members' own
    single-measurement responses (compared by ``differs``)."""
    return not _factorization_witnesses(model)


def _factorization_witnesses(model: OntologicalModel) -> tuple:
    out = []
    for joint in model.family:
        if len(joint) < 2:
            continue
        order = model.component_order(joint)
        for lam in model.ontic_states:
            for outcomes in model.outcome_tuples(joint):
                factored = prod(
                    model.response_probability(frozenset({label}), (outcome,), lam)
                    for label, outcome in zip(order, outcomes)
                )
                direct = model.response_probability(joint, outcomes, lam)
                if differs(direct, factored, KNOWN_TOL):
                    out.append((order, outcomes, lam, float(direct), float(factored)))
    return tuple(out)


def satisfies_spekkens(model: OntologicalModel, theory: OperationalTheory) -> tuple[bool, tuple]:
    """When two (measurement, outcome) pairs have identical statistics in
    every preparation, their response functions must agree in every ontic
    state.  Statistics and responses are compared by ``differs``: exactly
    for exact inputs."""
    mismatch = _structures_match(model, theory)
    if mismatch:
        raise ValueError(f"model does not match theory: {mismatch}")
    events: list[tuple[Joint, tuple[str, ...]]] = []
    for joint in sorted(theory.family, key=theory._joint_key):
        for outcomes in theory.outcome_tuples(joint):
            events.append((joint, outcomes))

    stats = {
        (joint, outcomes): tuple(
            theory.probability(joint, outcomes, prep) for prep in theory.preparations
        )
        for joint, outcomes in events
    }

    witnesses = []
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            (ja, oa), (jb, ob) = events[i], events[j]
            pa, pb = stats[events[i]], stats[events[j]]
            if any(differs(x, y) for x, y in zip(pa, pb)):
                continue
            for lam in model.ontic_states:
                ra = model.response_probability(ja, oa, lam)
                rb = model.response_probability(jb, ob, lam)
                if differs(ra, rb, KNOWN_TOL):
                    witnesses.append(
                        (
                            (theory.component_order(ja), oa),
                            (theory.component_order(jb), ob),
                            lam,
                            float(ra),
                            float(rb),
                        )
                    )
    return (not witnesses, tuple(witnesses))


class Check(NamedTuple):
    ok: bool
    witnesses: tuple = ()


class ModelVerdict(NamedTuple):
    value_definite: Check
    noncontextual: Check
    factorizing: Check
    spekkens: Check
    recovers_theory: Check


def classify_model(model: OntologicalModel, theory: OperationalTheory) -> ModelVerdict:
    """All five flags with witnesses for the failing ones."""
    nc_ok, nc_witnesses = is_noncontextual(model)
    sp_ok, sp_witnesses = satisfies_spekkens(model, theory)
    rec_ok, rec_witnesses = recovers(model, theory)
    vd_witnesses = _value_definiteness_witnesses(model)
    fact_witnesses = _factorization_witnesses(model)
    return ModelVerdict(
        value_definite=Check(not vd_witnesses, vd_witnesses),
        noncontextual=Check(nc_ok, nc_witnesses),
        factorizing=Check(not fact_witnesses, fact_witnesses),
        spekkens=Check(sp_ok, sp_witnesses),
        recovers_theory=Check(rec_ok, rec_witnesses),
    )


# -- existence search --------------------------------------------------------


def _state_name(outcomes: Iterable[str]) -> str:
    """Ontic state of an assignment: the basics' outcome labels, in order."""
    return ",".join(outcomes)


def _support_search(
    theory: OperationalTheory, cap: int, first_only: bool = False, minimize: bool = True
) -> tuple[list[tuple[str, ...]], Fraction | None]:
    """``(models, fraction)`` from one ``depth_first`` pass: the assignments
    to the basics that violate no maximal joint's support, in
    ``itertools.product`` order, and the least fraction of joints violated.
    Before the first model the count is branch-and-bounded; after it each
    branch is cut at its first violation, or ``first_only`` stops.  Without
    ``minimize`` branches are always cut there, and the fraction is None.
    """
    for m in theory.basics:
        if len(m.outcomes) != 2:
            raise NotTwoValuedError(
                f"search needs two-valued basics; {m.label} has {len(m.outcomes)} outcomes"
            )
    index = {m.label: i for i, m in enumerate(theory.basics)}
    joints = theory.maximal_joints
    constraints = (
        (
            tuple(index[label] for label in theory.component_order(joint)),
            frozenset(support(theory, joint)),
        )
        for joint in joints
    )
    models = []

    def leaf(values, violated):
        if violated:
            return violated
        models.append(values)
        return 0 if first_only else 1

    domains = [m.outcome_labels for m in theory.basics]
    best = depth_first(domains, constraints, len(joints) + 1 if minimize else 1, leaf, cap)
    fraction = Fraction(0) if models else Fraction(best, len(joints))
    return models, fraction if minimize else None


def search_states(theory: OperationalTheory, cap: int = SEARCH_CAP) -> tuple[list[str], Fraction]:
    """The ontic states of ``search_ncvd``'s model ([] if none) and
    ``min_violation_fraction``, from one pass and without building a model."""
    models, fraction = _support_search(theory, cap)
    return [_state_name(values) for values in models], fraction


def search_ncvd(
    theory: OperationalTheory, cap: int = SEARCH_CAP
) -> OntologicalModel | None:
    """Search for a noncontextual value-definite model of the theory.

    An outcome assignment to the basic measurements survives iff each
    maximal joint's induced tuple lies in that joint's support.  Returns a
    model with one ontic state per surviving assignment, in
    ``itertools.product`` order over the basics' outcome labels (uniform
    preparation weights), or None when no assignment survives.
    """
    models, _ = _support_search(theory, cap, minimize=False)
    if not models:
        return None
    labels = [m.label for m in theory.basics]
    assignments = [dict(zip(labels, values)) for values in models]
    # the maximal joints close to the theory's whole family
    return OntologicalModel.from_deterministic_assignments(
        theory.basics, theory.maximal_joints, assignments, theory.preparations
    )


def min_violation_fraction(theory: OperationalTheory, cap: int = SEARCH_CAP) -> Fraction:
    """Minimum, over all deterministic noncontextual assignments, of the
    fraction of maximal joints whose induced outcome falls outside the
    support.  Exact rational; 0 iff a noncontextual value-definite model
    exists, and the search stops at the first such assignment.
    """
    _, fraction = _support_search(theory, cap, first_only=True)
    if not theory.maximal_joints:
        raise ValueError("theory has no maximal joints to violate")
    return fraction
