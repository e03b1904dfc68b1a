"""Ontological (hidden variable) models and their existence search.

A model is a finite set of ontic states, a distribution over them per
preparation, and response functions per (measurement, ontic state).  The
responses are an operational theory whose preparations are the ontic states
(``OntologicalModel.by_state``), so they are checked as any theory's tables
are, and noncontextuality is that theory's non-disturbance.  By
representation the two screening-off conditions hold automatically:
preparation distributions carry no measurement argument (no-conspiracy)
and responses carry no preparation argument (lambda-sufficiency).

The existence search ranges over deterministic outcome assignments to the
basic measurements only; noncontextual value-definite responses factorize,
so nothing more general can exist.  Parity supports make a GF(2) system for
``parity``; any others get one pass of ``depth_first``, the package's one
search over general table constraints, which checks each support once its
members have values: ``search_states`` and ``min_violation_fraction``
branch-and-bound the number of violated joints until an assignment violates
none, and the latter stops there; ``search_ncvd`` cuts a branch at its
first violation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import SEARCH_CAP, NotTwoValuedError, check_cap
from .operational import KNOWN_TOL, Family, Joint, Measurement, OperationalTheory
from .operational import differs, distribution_problem, is_nondisturbing, support
from .parity import first_solution, least_violated, solutions


class OntologicalModel:
    """Finite ontic state set with preparation distributions and responses.

    The responses are stored once, as the theory ``by_state``; the model
    checks only what a theory does not: a response for every family member,
    not only the maximal ones, in every ontic state, and the weights."""

    def __init__(
        self,
        basics: Sequence[Measurement],
        comeasurable: Iterable[Iterable[str]],
        ontic_states: Sequence[str],
        prep_distributions: Mapping[str, Mapping[str, object]],
        responses: Mapping[tuple[frozenset, str], Mapping[tuple[str, ...], object]],
    ):
        tables: dict[Joint, dict[str, Mapping]] = {}
        for (joint, lam), dist in responses.items():
            if lam in (per_state := tables.setdefault(frozenset(joint), {})):
                raise ValueError(f"two responses for {'&'.join(sorted(joint))} at ontic state {lam}")
            per_state[lam] = dist
        try:
            self.by_state = OperationalTheory(basics, comeasurable, ontic_states, tables)
        except ValueError as exc:
            raise ValueError(f"responses as tables over the ontic states: {exc}") from None
        self.basics = self.by_state.basics
        self.family = self.by_state.family
        self.ontic_states = self.by_state.preparations
        self.prep_distributions = {
            prep: dict(dist) for prep, dist in prep_distributions.items()
        }
        for prep, dist in self.prep_distributions.items():
            unknown = set(dist).difference(self.ontic_states)
            if unknown:
                raise ValueError(f"preparation {prep}: unknown ontic states {sorted(unknown)}")
            if problem := distribution_problem(dist):
                raise ValueError(f"preparation {prep} {problem}")
        for joint in self.family:
            # by_state holds only known ontic states, so a short table misses one
            have = self.by_state.tables.get(joint, {})
            if len(have) < len(self.ontic_states):
                lam = next(lam for lam in self.ontic_states if lam not in have)
                raise ValueError(
                    f"missing response for {self.by_state.joint_name(joint)} at ontic state {lam}"
                )

    @property
    def preparations(self) -> tuple[str, ...]:
        return tuple(self.prep_distributions)

    @property
    def responses(self) -> dict[tuple[Joint, str], dict[tuple[str, ...], object]]:
        """Every response keyed ``(joint, ontic state)``, read from ``by_state``."""
        return {
            (joint, lam): dist
            for joint, per_state in self.by_state.tables.items()
            for lam, dist in per_state.items()
        }

    def maximal_joints(self) -> tuple[Joint, ...]:
        return self.family.maximal

    def response(self, joint: Joint, lam: str) -> dict[tuple[str, ...], object]:
        return self.by_state.tables[frozenset(joint)][lam]

    def response_probability(self, joint: Joint, outcomes: tuple[str, ...], lam: str):
        return self.response(joint, lam).get(tuple(outcomes), 0)

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
        members_of = [(joint, [label for label in labels if label in joint]) for joint in family]
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
                    out.append((model.by_state.joint_name(joint), lam, outcomes, value))
    return tuple(out)


def is_noncontextual(model: OntologicalModel) -> tuple[bool, tuple]:
    """Responses of a measurement must not depend on what it is co-measured
    with: in every ontic state, the response to x equals the x-marginal of
    the response to every family member containing it.  That is
    ``is_nondisturbing`` on ``model.by_state``, with its comparison rule, so
    each witness is a ``DisturbanceWitness`` whose ``preparation`` is an
    ontic state."""
    return is_nondisturbing(model.by_state)


def factorizes(model: OntologicalModel) -> bool:
    """True iff every joint response is the product of the members' own
    single-measurement responses (compared by ``differs``)."""
    return not _factorization_witnesses(model)


def _factorization_witnesses(model: OntologicalModel) -> tuple:
    out = []
    theory = model.by_state
    for joint in model.family:
        if len(joint) < 2:
            continue
        order = theory.component_order(joint)
        for lam in model.ontic_states:
            for outcomes in theory.outcome_tuples(joint):
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


def depth_first(
    domains: Sequence[Sequence],
    constraints: Iterable[tuple[Sequence[int], Collection[tuple]]],
    bound: int,
    leaf: Callable[[tuple, int], int],
    cap: int = SEARCH_CAP,
) -> int:
    """Depth-first search over assignments of ``domains[d]`` to variable d.

    Variables get values in index order, each trying its domain in order,
    so leaves come in ``itertools.product`` order.  A constraint
    ``(positions, allowed)`` is violated when the values at ``positions``,
    read in that order, form a tuple outside ``allowed``; it is checked when
    its highest position gets a value.  A branch is cut as soon as its number
    of violated constraints reaches ``bound`` (at least 1 to start with).
    ``leaf(values, violated)`` is called for every leaf that is not cut and
    returns the new bound; the search stops once the bound is 0.  Returns
    the final bound.  More than ``cap`` variables raise CapExceededError
    before a constraint is read, so callers may pass them lazily.
    """
    n = len(domains)
    check_cap(n, cap)
    # due[d]: (scope reader, allowed tuples) of the constraints completed at d
    due: list[list] = [[] for _ in range(n)]
    for positions, allowed in constraints:
        if len(positions) == 1:
            # itemgetter of one position reads a bare value, not a 1-tuple
            allowed = {t[0] for t in allowed}
        due[max(positions)].append((itemgetter(*positions), allowed))
    values: list = [None] * n

    def descend(depth: int, violated: int) -> None:
        nonlocal bound
        if depth == n:
            bound = leaf(tuple(values), violated)
            return
        checks = due[depth]
        for value in domains[depth]:
            values[depth] = value
            count = violated
            for read, allowed in checks:
                if read(values) not in allowed:
                    count += 1
                    if count >= bound:
                        break
            else:
                descend(depth + 1, count)
                # no sibling can do better once the bound is down to this count
                if bound <= violated:
                    return

    descend(0, 0)
    return bound


def _support_search(
    theory: OperationalTheory, cap: int, first_only: bool = False, minimize: bool = True
) -> tuple[list[tuple[str, ...]], Fraction | None]:
    """``(models, fraction)``: the assignments to the basics that violate no
    maximal joint's support, in ``itertools.product`` order (only the first
    with ``first_only``), and the least fraction of joints violated (None
    without ``minimize``).  ``_parity_search`` answers if it can, else one
    ``depth_first`` pass that bounds the count until a first model (never
    without ``minimize``), then cuts each branch at its first violation."""
    for m in theory.basics:
        if len(m.outcomes) != 2:
            raise NotTwoValuedError(
                f"search needs two-valued basics; {m.label} has {len(m.outcomes)} outcomes"
            )
    check_cap(len(theory.basics), cap)
    index = {m.label: i for i, m in enumerate(theory.basics)}
    joints = theory.maximal_joints
    constraints = [
        (tuple(index[label] for label in theory.component_order(j)), frozenset(support(theory, j)))
        for j in joints
    ]
    solved = _parity_search(theory.basics, constraints, first_only, minimize)
    if solved is None:
        models = []

        def leaf(values, violated):
            if violated:
                return violated
            models.append(values)
            return 0 if first_only else 1

        domains = [m.outcome_labels for m in theory.basics]
        best = depth_first(domains, constraints, len(joints) + 1 if minimize else 1, leaf, cap)
    else:
        models, best = solved
    if not minimize:
        return models, None
    return models, Fraction(0) if models else Fraction(best, len(joints))


def _parity_search(
    basics: Sequence[Measurement], constraints: list, first_only: bool, minimize: bool
) -> tuple[list[tuple[str, ...]], int | None] | None:
    """``(models, least number of joints violated)`` by GF(2) elimination, or
    None unless every support is one parity class of its members' outcome
    bits (bit 1 for a basic's second outcome label): then each joint is a row.
    A consistent system lists its models as ``verify`` lists witnesses; for an
    inconsistent one the least is ``parity.least_violated``."""
    outcomes = [m.outcome_labels for m in basics]
    rows = []
    for positions, allowed in constraints:
        classes = {sum(o == outcomes[p][1] for p, o in zip(positions, t)) & 1 for t in allowed}
        if len(allowed) != 1 << (len(positions) - 1) or len(classes) != 1:
            return None
        rows.append((sum(1 << p for p in positions), classes.pop()))
    n = len(basics)
    if first_only:
        first = first_solution(n, rows)
        found = () if first is None else (first,)
    else:
        found = solutions(n, rows)
    if found:
        return [tuple(labels[s < 0] for labels, s in zip(outcomes, row)) for row in found], 0
    return [], least_violated(n, rows) if minimize else None


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
    exists, and the search stops at the first such assignment.  Parity
    supports give it as a coset's least weight, otherwise branch and bound.
    """
    _, fraction = _support_search(theory, cap, first_only=True)
    if not theory.maximal_joints:
        raise ValueError("theory has no maximal joints to violate")
    return fraction
