"""Ontological models: the five flags, existence search, robustness bound."""

import random
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kscheck import ontology
from kscheck.errors import SEARCH_CAP, CapExceededError
from kscheck.graph import build_graph, search_assignments
from kscheck.ontology import (
    OntologicalModel,
    _support_search,
    depth_first,
    classify_model,
    factorizes,
    is_noncontextual,
    is_value_definite,
    min_violation_fraction,
    recovers,
    satisfies_spekkens,
    search_ncvd,
    search_states,
)
from kscheck.operational import (
    DisturbanceWitness,
    Family,
    Measurement,
    OperationalTheory,
    from_quantum,
    is_nondisturbing,
    support,
)
from kscheck.state import DensityOperator
from kscheck.realization import Realization

JOINT = frozenset({"color", "size"})


def no_joint_theory():
    """Two basics that are never comeasurable: noncontextuality is vacuous."""
    coin = Measurement("coin", (("heads", 1), ("tails", -1)))
    die = Measurement("die", (("low", 1), ("high", -1)))
    half = Fraction(1, 2)
    tables = {
        frozenset({"coin"}): {"r": {("heads",): half, ("tails",): half}},
        frozenset({"die"}): {"r": {("low",): half, ("high",): half}},
    }
    return OperationalTheory((coin, die), (), ("r",), tables)


def free_support_theory():
    """A joint table with full support: no constraint binds."""
    a = Measurement("a", (("+", 1), ("-", -1)))
    b = Measurement("b", (("+", 1), ("-", -1)))
    quarter = Fraction(1, 4)
    tables = {
        frozenset({"a", "b"}): {
            "r": {(x, y): quarter for x in "+-" for y in "+-"}
        }
    }
    return OperationalTheory((a, b), (("a", "b"),), ("r",), tables)


def two_squares_theory():
    """Two disjoint Peres-Mermin squares as parity tables (rows multiply to
    +1, columns to +1, +1, -1), uniform over each line's allowed tuples:
    18 basics, 12 lines, and each square violates at least one line."""
    basics, lines, tables = [], [], {}
    for block in "pq":
        labels = [f"{block}{i}" for i in range(9)]
        basics += [Measurement(label, (("+", 1), ("-", -1))) for label in labels]
        for cells, sign in (
            ((0, 1, 2), 1), ((3, 4, 5), 1), ((6, 7, 8), 1),
            ((0, 3, 6), 1), ((1, 4, 7), 1), ((2, 5, 8), -1),
        ):
            line = [labels[c] for c in cells]
            allowed = [t for t in product("+-", repeat=3) if (-1) ** t.count("-") == sign]
            lines.append(line)
            tables[frozenset(line)] = {"r": {t: Fraction(1, 4) for t in allowed}}
    return OperationalTheory(basics, lines, ("r",), tables)


def full_scan(theory):
    """Independent oracle for the pruned search: every outcome assignment to
    the basics in ``itertools.product`` order, with the number of maximal
    joints whose induced tuple falls outside the support."""
    labels = [m.label for m in theory.basics]
    joints = theory.maximal_joints
    supports = {joint: frozenset(support(theory, joint)) for joint in joints}
    for combo in product(*(m.outcome_labels for m in theory.basics)):
        assignment = dict(zip(labels, combo))
        violated = sum(
            tuple(assignment[label] for label in theory.component_order(joint))
            not in supports[joint]
            for joint in joints
        )
        yield combo, violated


@st.composite
def random_theories(draw):
    """Up to 10 two-valued basics, random comeasurable sets, and maximal-joint
    tables uniform over a random nonempty subset of outcome tuples."""
    n = draw(st.integers(1, 10))
    labels = [f"m{i}" for i in range(n)]
    basics = [
        Measurement(label, (("-", -1), ("+", 1)) if draw(st.booleans()) else (("+", 1), ("-", -1)))
        for label in labels
    ]
    declared = draw(
        st.lists(st.sets(st.sampled_from(labels), min_size=1, max_size=4), max_size=6)
    )
    candidates = {frozenset(s) for s in declared} | {frozenset({label}) for label in labels}
    maximal = sorted(
        (j for j in candidates if not any(j < other for other in candidates)),
        key=lambda j: sorted(labels.index(label) for label in j),
    )
    tables = {}
    for joint in maximal:
        parts = [m.outcome_labels for m in basics if m.label in joint]
        kept = draw(st.sets(st.sampled_from(list(product(*parts))), min_size=1))
        tables[joint] = {"r": {t: Fraction(1, len(kept)) for t in kept}}
    return OperationalTheory(basics, [sorted(s) for s in declared], ("r",), tables)


def narrowed(theory):
    """The theory with its first maximal joint's support cut to the first
    tuple of it: no longer a parity class."""
    first = theory.maximal_joints[0]
    one = {prep: {support(theory, first)[0]: Fraction(1)} for prep in theory.preparations}
    tables = {**theory.tables, first: one}
    return OperationalTheory(theory.basics, theory.maximal_joints, theory.preparations, tables)


# blocks in which every basic lies on exactly two joints: the joints' bit
# sums add up to twice the sum of all bits, so an odd sum of the joints'
# classes leaves at least one joint violated
PARITY_BLOCKS = (
    ((0, 1), (1, 2), (0, 2)),
    ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)),
)


def parity_table(basics, joint, cls):
    """A table at preparation ``r``, uniform over the joint's outcome tuples
    whose bits (each outcome's index in its basic's labels) add up to cls."""
    parts = [m.outcome_labels for m in basics if m.label in joint]
    kept = [t for t in product(*parts) if sum(map(tuple.index, parts, t)) % 2 == cls]
    return {"r": {t: Fraction(1, len(kept)) for t in kept}}


@st.composite
def parity_theories(draw):
    """Up to 10 two-valued basics, each with its outcome labels in a drawn
    order, and every maximal joint's support one drawn parity class of its
    members' outcome bits (bit 1 for the second label).  Most joints come
    from blocks of ``PARITY_BLOCKS`` (each UNSAT for half of its class
    draws); the rest are drawn sets, single basics on no joint, or none."""
    declared, n = [], 0
    for block in draw(st.lists(st.sampled_from(PARITY_BLOCKS), max_size=3)):
        size = max(map(max, block)) + 1
        if n + size <= 10:
            declared += [[f"m{n + i}" for i in line] for line in block]
            n += size
    n += draw(st.integers(0, 10 - n))
    labels = [f"m{i}" for i in range(n)]
    if labels:
        declared += draw(
            st.lists(st.sets(st.sampled_from(labels), min_size=1, max_size=3), max_size=2)
        )
    basics = [
        Measurement(label, (("-", -1), ("+", 1)) if draw(st.booleans()) else (("+", 1), ("-", -1)))
        for label in labels
    ]
    tables = {
        joint: parity_table(basics, joint, draw(st.integers(0, 1)))
        for joint in Family(declared, labels).maximal
    }
    return OperationalTheory(basics, [sorted(s) for s in declared], ("r",), tables)


def noncontextual_oracle(model):
    """Independent oracle for ``is_noncontextual`` on exact models: the
    marginal loop it replaced.  For x inside y, the x-marginal of y's
    response must equal x's own response in every ontic state; returns each
    (x, ontic state, outcomes) at which it does not."""
    theory = model.by_state
    flagged = set()
    members = sorted(model.family, key=lambda j: (len(j), theory.joint_name(j)))
    for sub in members:
        sub_order = theory.component_order(sub)
        for big in (y for y in members if sub < y):
            positions = [theory.component_order(big).index(label) for label in sub_order]
            for lam in model.ontic_states:
                big_response = model.response(big, lam)
                for outcomes in theory.outcome_tuples(sub):
                    marginal = sum(
                        v
                        for combo, v in big_response.items()
                        if all(combo[p] == o for p, o in zip(positions, outcomes))
                    )
                    if marginal != model.response_probability(sub, outcomes, lam):
                        flagged.add((sub_order, lam, outcomes))
    return flagged


@st.composite
def random_models(draw):
    """Small exact models: two or three basics (the first may have three
    outcomes), one to three comeasurable sets of two or more, and one to
    three ontic states.  In each state every member's response is the
    marginal of one distribution over all the basics, so the model is
    noncontextual until up to two drawn responses are replaced by random
    ones."""
    n = draw(st.integers(2, 3))
    outcomes = (("a", 1), ("b", -1), ("c", 0))
    basics = [
        Measurement(f"m{i}", outcomes[: 3 if i == 0 and draw(st.booleans()) else 2])
        for i in range(n)
    ]
    labels = [m.label for m in basics]
    declared = draw(st.lists(st.sets(st.sampled_from(labels), min_size=2), min_size=1, max_size=3))
    ontic = [f"l{i}" for i in range(draw(st.integers(1, 3)))]

    def distribution(space):
        weights = draw(st.lists(st.integers(0, 2), min_size=len(space), max_size=len(space)))
        weights[0] = weights[0] or 1
        return {t: Fraction(w, sum(weights)) for t, w in zip(space, weights) if w}

    every = list(product(*(m.outcome_labels for m in basics)))
    responses = {}
    for lam in ontic:
        whole = distribution(every)
        for member in Family(declared, labels):
            positions = [i for i, label in enumerate(labels) if label in member]
            marginal = {}
            for combo, p in whole.items():
                key = tuple(combo[i] for i in positions)
                marginal[key] = marginal.get(key, 0) + p
            responses[(member, lam)] = marginal
    for member, lam in draw(st.lists(st.sampled_from(list(responses)), max_size=2)):
        space = list(product(*(m.outcome_labels for m in basics if m.label in member)))
        responses[(member, lam)] = distribution(space)
    return OntologicalModel(basics, declared, ontic, {"r": {ontic[0]: Fraction(1)}}, responses)


class TestConstruction:
    """Responses are checked as a theory's tables are, and every family
    member needs one in every ontic state."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ("unknown ontic state", "unknown preparation 'nowhere'"),
            ("joint outside the family", "color&size&weight outside the family"),
            ("missing non-maximal response", "missing response for size at ontic state ws"),
            ("repeated basic label", "basic measurement labels must be distinct"),
            ("repeated ontic state", "preparation labels must be distinct"),
            ("reordered second response", "two responses for color&size at ontic state bb"),
        ],
    )
    def test_rejected(self, box_fixtures, change, message):
        model = box_fixtures[0].model
        basics, ontic = list(model.basics), list(model.ontic_states)
        responses = dict(model.responses)
        if change == "unknown ontic state":
            responses[(frozenset({"color"}), "nowhere")] = {("black",): Fraction(1)}
        elif change == "joint outside the family":
            joint = frozenset({"color", "size", "weight"})
            responses[(joint, "bb")] = {("black", "big"): Fraction(1)}
        elif change == "missing non-maximal response":
            del responses[(frozenset({"size"}), "ws")]
        elif change == "repeated basic label":
            basics.append(basics[0])
        elif change == "reordered second response":
            # both keys name the joint color&size; the second must not replace the first
            first = responses.pop((JOINT, "bb"))
            responses[(("color", "size"), "bb")] = first
            responses[(("size", "color"), "bb")] = {("big", "black"): Fraction(1)}
        else:
            ontic.append(ontic[0])
        with pytest.raises(ValueError, match=message):
            OntologicalModel(
                basics, model.maximal_joints(), ontic, model.prep_distributions, responses
            )

    def test_responses_are_the_by_state_tables(self, box_fixtures):
        model = box_fixtures[0].model
        assert model.by_state.preparations == model.ontic_states
        for (joint, lam), dist in model.responses.items():
            assert model.by_state.tables[joint][lam] is dist is model.response(joint, lam)


class TestRecovers:
    def test_all_fixtures_recover(self, box_fixtures):
        for fixture in box_fixtures:
            ok, witnesses = recovers(fixture.model, fixture.theory)
            assert ok, (fixture.name, witnesses[:3])

    def test_swapped_responses_fail(self, box_fixtures):
        m1 = box_fixtures[0]
        swapped = {}
        for (joint, lam), dist in m1.model.responses.items():
            other = "ws" if lam == "bb" else "bb"
            swapped[(joint, other)] = dist
        broken = OntologicalModel(
            m1.model.basics,
            [tuple(j) for j in m1.model.family],
            m1.model.ontic_states,
            m1.model.prep_distributions,
            swapped,
        )
        ok, witnesses = recovers(broken, m1.theory)
        assert not ok and witnesses

    def test_deterministic_model_recovers_its_own_tables(self):
        theory = free_support_theory()
        model = search_ncvd(theory)
        induced = {}
        for joint in theory.maximal_joints:
            per_prep = {}
            for prep in theory.preparations:
                weights = model.prep_distributions[prep]
                per_prep[prep] = {
                    outcomes: sum(
                        model.response_probability(joint, outcomes, lam) * w
                        for lam, w in weights.items()
                    )
                    for outcomes in theory.outcome_tuples(joint)
                }
            induced[joint] = per_prep
        rebuilt = OperationalTheory(
            theory.basics,
            [tuple(j) for j in theory.family],
            theory.preparations,
            induced,
        )
        ok, _ = recovers(model, rebuilt)
        assert ok

    def test_structural_mismatch_raises(self, box_fixtures):
        m1, m2, _ = box_fixtures
        with pytest.raises(ValueError):
            recovers(m2.model, no_joint_theory())


class TestValueDefinite:
    def test_fixtures_are_value_definite(self, box_fixtures):
        for fixture in box_fixtures:
            assert is_value_definite(fixture.model)

    def test_coin_flip_response_is_not(self):
        coin = Measurement("coin", (("heads", 1), ("tails", -1)))
        half = Fraction(1, 2)
        model = OntologicalModel(
            (coin,),
            (),
            ("l",),
            {"r": {"l": Fraction(1)}},
            {(frozenset({"coin"}), "l"): {("heads",): half, ("tails",): half}},
        )
        assert not is_value_definite(model)

    def test_search_output_is_value_definite(self):
        model = search_ncvd(free_support_theory())
        assert is_value_definite(model)


class TestNoncontextual:
    def test_m1_and_m2_are_noncontextual(self, box_fixtures):
        m1, m2, _ = box_fixtures
        assert is_noncontextual(m1.model)[0]
        assert is_noncontextual(m2.model)[0]

    def test_m3_flips_are_witnessed(self, box_fixtures):
        _, _, m3 = box_fixtures
        ok, witnesses = is_noncontextual(m3.model)
        assert not ok
        assert witnesses

    def test_witnesses_name_the_ontic_state(self, box_fixtures):
        _, witnesses = is_noncontextual(box_fixtures[2].model)
        assert {type(w) for w in witnesses} == {DisturbanceWitness}
        assert {w.preparation for w in witnesses} == {"bb", "ws"}
        # in bb, color alone reads black but inside color&size white
        flip = DisturbanceWitness(
            ("color",), ("color",), ("color", "size"), ("black",), "bb", 1.0, 0.0
        )
        assert flip in witnesses

    @given(random_models())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_marginal_loop(self, model):
        ok, witnesses = is_noncontextual(model)
        flagged = noncontextual_oracle(model)
        assert ok == (not flagged)
        assert {(w.sub_joint, w.preparation, w.outcomes) for w in witnesses} == flagged

    def test_vacuous_without_joints(self):
        theory = no_joint_theory()
        model = OntologicalModel(
            theory.basics,
            (),
            ("l",),
            {"r": {"l": Fraction(1)}},
            {
                (frozenset({"coin"}), "l"): {("heads",): Fraction(1)},
                (frozenset({"die"}), "l"): {("low",): Fraction(1)},
            },
        )
        ok, witnesses = is_noncontextual(model)
        assert ok and not witnesses

    def test_factorizing_deterministic_model_is_noncontextual(self):
        model = search_ncvd(free_support_theory())
        assert is_noncontextual(model)[0]


class TestFactorizes:
    def test_value_definite_noncontextual_implies_factorizing(self, box_fixtures):
        for fixture in box_fixtures:
            model = fixture.model
            if is_value_definite(model) and is_noncontextual(model)[0]:
                assert factorizes(model), fixture.name

    def test_m3_does_not_factorize(self, box_fixtures):
        _, _, m3 = box_fixtures
        assert not factorizes(m3.model)

    def test_single_basic_model_vacuously_factorizes(self):
        coin = Measurement("coin", (("heads", 1), ("tails", -1)))
        model = OntologicalModel(
            (coin,),
            (),
            ("l",),
            {"r": {"l": Fraction(1)}},
            {(frozenset({"coin"}), "l"): {("heads",): Fraction(1)}},
        )
        assert factorizes(model)


class TestSpekkens:
    def test_classification_matrix(self, box_fixtures):
        m1, m2, m3 = box_fixtures
        assert satisfies_spekkens(m1.model, m1.theory)[0]
        ok2, witnesses2 = satisfies_spekkens(m2.model, m2.theory)
        assert not ok2 and witnesses2
        assert satisfies_spekkens(m3.model, m3.theory)[0]

    def test_m2_witness_involves_equal_statistics_pair(self, box_fixtures):
        _, m2, _ = box_fixtures
        _, witnesses = satisfies_spekkens(m2.model, m2.theory)
        # the black&small vs white&big joint outcomes carry equal weight in
        # every preparation yet respond differently per ball type
        pairs = {
            (w[0][1], w[1][1]) for w in witnesses if w[0][0] == w[1][0]
        }
        assert (("black", "small"), ("white", "big")) in pairs

    def test_vacuous_when_no_statistics_coincide(self):
        coin = Measurement("coin", (("heads", 1), ("tails", -1)))
        tables = {
            frozenset({"coin"}): {
                "r": {("heads",): Fraction(2, 3), ("tails",): Fraction(1, 3)}
            }
        }
        theory = OperationalTheory((coin,), (), ("r",), tables)
        model = OntologicalModel(
            theory.basics,
            (),
            ("l1", "l2"),
            {"r": {"l1": Fraction(2, 3), "l2": Fraction(1, 3)}},
            {
                (frozenset({"coin"}), "l1"): {("heads",): Fraction(1)},
                (frozenset({"coin"}), "l2"): {("tails",): Fraction(1)},
            },
        )
        assert satisfies_spekkens(model, theory)[0]

    def test_duplicated_measurement_with_identical_responses(self):
        # two measurements with the same statistics whose responses agree
        # in every ontic state satisfy the condition non-vacuously
        first = Measurement("first", (("up", 1), ("down", -1)))
        second = Measurement("second", (("up", 1), ("down", -1)))
        q = Fraction(1, 3)
        tables = {
            frozenset({"first"}): {"r": {("up",): q, ("down",): 1 - q}},
            frozenset({"second"}): {"r": {("up",): q, ("down",): 1 - q}},
        }
        theory = OperationalTheory((first, second), (), ("r",), tables)
        responses = {}
        for label in ("first", "second"):
            responses[(frozenset({label}), "l1")] = {("up",): Fraction(1)}
            responses[(frozenset({label}), "l2")] = {("down",): Fraction(1)}
        model = OntologicalModel(
            theory.basics,
            (),
            ("l1", "l2"),
            {"r": {"l1": q, "l2": 1 - q}},
            responses,
        )
        ok, witnesses = satisfies_spekkens(model, theory)
        assert ok and not witnesses

    def test_spekkens_implies_noncontextual_on_nondisturbing_fixtures(self, box_fixtures):
        for fixture in box_fixtures:
            if not is_nondisturbing(fixture.theory)[0]:
                continue
            if satisfies_spekkens(fixture.model, fixture.theory)[0]:
                assert is_noncontextual(fixture.model)[0], fixture.name

    def test_spekkens_implies_noncontextual_on_random_small_models(self):
        # sample small two-basic models on a coarse probability grid (so
        # statistics coincide often enough to make the antecedent bite),
        # derive the theory the model recovers, and check the implication
        # on every non-disturbing instance
        import random

        rng = random.Random(2024)
        a = Measurement("a", (("+", 1), ("-", -1)))
        b = Measurement("b", (("+", 1), ("-", -1)))
        joint = frozenset({"a", "b"})
        family = (("a", "b"),)
        grid = [Fraction(k, 4) for k in range(5)]
        checked_nonvacuous = 0
        for _ in range(80):
            n_lambda = rng.choice((2, 3))
            ontic = tuple(f"l{i}" for i in range(n_lambda))
            responses = {}
            for lam in ontic:
                pa, pb = rng.choice(grid), rng.choice(grid)
                responses[(frozenset({"a"}), lam)] = {("+",): pa, ("-",): 1 - pa}
                responses[(frozenset({"b"}), lam)] = {("+",): pb, ("-",): 1 - pb}
                if rng.random() < 0.5:
                    dist = {
                        (x, y): (pa if x == "+" else 1 - pa) * (pb if y == "+" else 1 - pb)
                        for x in "+-"
                        for y in "+-"
                    }
                else:
                    raw = [rng.choice(grid) for _ in range(4)]
                    total = sum(raw)
                    if total == 0:
                        raw[0] = Fraction(1)
                        total = Fraction(1)
                    dist = {
                        (x, y): raw[2 * (x == "-") + (y == "-")] / total
                        for x in "+-"
                        for y in "+-"
                    }
                responses[(joint, lam)] = dist
            weights = [rng.choice(grid[1:]) for _ in ontic]
            total = sum(weights)
            preps = {"r1": {lam: w / total for lam, w in zip(ontic, weights)}}
            model = OntologicalModel((a, b), family, ontic, preps, responses)
            tables = {}
            for measured in (frozenset({"a"}), frozenset({"b"}), joint):
                outcome_space = model.by_state.outcome_tuples(measured)
                tables[measured] = {
                    "r1": {
                        outcomes: sum(
                            model.response_probability(measured, outcomes, lam)
                            * preps["r1"][lam]
                            for lam in ontic
                        )
                        for outcomes in outcome_space
                    }
                }
            theory = OperationalTheory((a, b), family, ("r1",), tables)
            if not is_nondisturbing(theory)[0]:
                continue
            spekkens_ok, _ = satisfies_spekkens(model, theory)
            if spekkens_ok:
                checked_nonvacuous += 1
                assert is_noncontextual(model)[0]
        assert checked_nonvacuous > 0


class TestClassifyModel:
    def test_verdict_flags_align_with_witnesses(self, box_fixtures):
        for fixture in box_fixtures:
            verdict = classify_model(fixture.model, fixture.theory)
            for check in (
                verdict.value_definite,
                verdict.noncontextual,
                verdict.factorizing,
                verdict.spekkens,
                verdict.recovers_theory,
            ):
                assert check.ok == (len(check.witnesses) == 0)

    def test_expected_matrix(self, box_fixtures):
        m1, m2, m3 = box_fixtures
        v1 = classify_model(m1.model, m1.theory)
        assert v1.noncontextual.ok and v1.spekkens.ok
        v2 = classify_model(m2.model, m2.theory)
        assert v2.noncontextual.ok and not v2.spekkens.ok
        v3 = classify_model(m3.model, m3.theory)
        assert not v3.noncontextual.ok and v3.spekkens.ok

    def test_float_fixtures_get_the_exact_flags(self, box_fixtures):
        # exact values are compared exactly and floats within a tolerance;
        # on the same numbers both rules must reach the same verdicts
        def flags(model, theory):
            verdict = classify_model(model, theory)
            return [c.ok for c in verdict], is_nondisturbing(theory)[0], recovers(model, theory)[0]

        def floated(dist):
            return {key: float(value) for key, value in dist.items()}

        for fixture in box_fixtures:
            theory, model = fixture.theory, fixture.model
            basics = [
                Measurement(m.label, tuple((o, float(v)) for o, v in m.outcomes))
                for m in theory.basics
            ]
            float_theory = OperationalTheory(
                basics,
                theory.maximal_joints,
                theory.preparations,
                {
                    joint: {prep: floated(dist) for prep, dist in per_prep.items()}
                    for joint, per_prep in theory.tables.items()
                },
            )
            float_model = OntologicalModel(
                basics,
                model.maximal_joints(),
                model.ontic_states,
                {prep: floated(dist) for prep, dist in model.prep_distributions.items()},
                {key: floated(dist) for key, dist in model.responses.items()},
            )
            assert flags(float_model, float_theory) == flags(model, theory), fixture.name


class TestSearchNCVD:
    def test_square_theory_unsat(self, pm_theory_full):
        assert search_ncvd(pm_theory_full) is None

    def test_box_theory_sat_with_the_two_ball_types(self, box_fixtures):
        m1 = box_fixtures[0]
        model = search_ncvd(m1.theory)
        assert model is not None
        assert set(model.ontic_states) == {"black,big", "white,small"}

    def test_free_support_theory_keeps_everything(self):
        model = search_ncvd(free_support_theory())
        assert model is not None
        assert len(model.ontic_states) == 4

    def test_cap(self, pm_theory_full):
        with pytest.raises(CapExceededError):
            search_ncvd(pm_theory_full, cap=4)

    def test_rejects_nonbinary_basics(self):
        triple = Measurement("t", (("a", 0), ("b", 1), ("c", 2)))
        third = Fraction(1, 3)
        theory = OperationalTheory(
            (triple,),
            (),
            ("r",),
            {frozenset({"t"}): {"r": {("a",): third, ("b",): third, ("c",): third}}},
        )
        with pytest.raises(ValueError):
            search_ncvd(theory)

    def test_agrees_with_assignment_search_unsat(self, pm_graph, pm_theory_full):
        assert search_assignments(pm_graph).satisfiable == (
            search_ncvd(pm_theory_full) is not None
        )

    def test_agrees_with_assignment_search_sat(self):
        graph = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
        realization = Realization.build(
            [{"a"}, {"b"}, {"c"}], (("a", "b", "c"),)
        )
        theory = from_quantum(
            graph, {"mixed": DensityOperator.maximally_mixed(4)}, realization
        )
        model = search_ncvd(theory)
        verdict = search_assignments(graph)
        assert verdict.satisfiable and model is not None
        assert len(model.ontic_states) == len(verdict.witnesses) == 4


class TestMinViolationFraction:
    def test_square_bound_is_one_sixth(self, pm_theory_full):
        assert min_violation_fraction(pm_theory_full) == Fraction(1, 6)

    def test_pentagram_bound_is_one_fifth(self, ghz_theory_full):
        assert min_violation_fraction(ghz_theory_full) == Fraction(1, 5)

    def test_unconstrained_theory_has_zero(self):
        assert min_violation_fraction(free_support_theory()) == 0

    def test_sat_box_theory_has_zero(self, box_fixtures):
        assert min_violation_fraction(box_fixtures[0].theory) == 0

    def test_two_disjoint_squares_give_one_sixth(self):
        theory = two_squares_theory()
        assert len(theory.basics) == 18 and len(theory.maximal_joints) == 12
        assert min_violation_fraction(theory) == Fraction(1, 6)
        assert search_ncvd(theory) is None

    def test_theory_without_joints_raises(self):
        with pytest.raises(ValueError, match="no maximal joints"):
            min_violation_fraction(OperationalTheory((), (), ("r",), {}))


class TestPrunedSearchAgainstFullScan:
    @given(random_theories())
    @settings(max_examples=50, deadline=None)
    def test_search_matches_full_scan(self, theory):
        scan = list(full_scan(theory))
        best = min(violated for _, violated in scan)
        assert min_violation_fraction(theory) == Fraction(best, len(theory.maximal_joints))
        accepted = tuple(",".join(combo) for combo, violated in scan if violated == 0)
        model = search_ncvd(theory)
        assert (model.ontic_states if model is not None else ()) == accepted
        assert (model is None) == (not accepted)
        models = list(combo for combo, violated in scan if violated == 0)
        fraction = Fraction(best, len(theory.maximal_joints))
        assert _support_search(theory, SEARCH_CAP) == (models, fraction)
        assert _support_search(theory, SEARCH_CAP, first_only=True) == (models[:1], fraction)
        assert _support_search(theory, SEARCH_CAP, minimize=False) == (models, None)
        assert search_states(theory) == (list(accepted), fraction)


    def test_model_search_counts_no_violations(self, monkeypatch):
        # search_ncvd needs no minimum, so every branch is cut at its first
        # violated joint (bound 1) rather than branch-and-bounded; one line's
        # support is a single tuple, so the table search runs
        bounds = []
        depth_first = ontology.depth_first

        def recorded(domains, constraints, bound, leaf, cap):
            bounds.append(bound)
            return depth_first(domains, constraints, bound, leaf, cap)

        monkeypatch.setattr(ontology, "depth_first", recorded)
        theory = narrowed(two_squares_theory())
        assert search_ncvd(theory) is None
        assert search_states(theory) == ([], Fraction(1, 6))
        assert bounds == [1, len(theory.maximal_joints) + 1]

    def test_parity_supports_are_solved_by_elimination(self, monkeypatch):
        calls = []
        support_search = ontology._support_search

        def counted(*args, **kwargs):
            calls.append(args)
            return support_search(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("parity supports searched by depth_first or built a model")

        monkeypatch.setattr(ontology, "_support_search", counted)
        monkeypatch.setattr(ontology, "depth_first", refuse)
        theory = two_squares_theory()
        assert search_states(theory) == ([], Fraction(1, 6))
        assert len(calls) == 1
        monkeypatch.setattr(OntologicalModel, "__init__", refuse)
        assert search_ncvd(theory) is None
        assert min_violation_fraction(theory) == Fraction(1, 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_coset_walk_past_the_table_matches_branch_and_bound(self, seed):
        # seven triangles: 21 basics and rank 14, so the walk goes past the
        # ten tabled basis vectors; each odd triangle costs exactly one joint
        rng = random.Random(seed)
        declared, classes = [], []
        for block in range(7):
            declared += [[f"t{block}_{i}" for i in line] for line in PARITY_BLOCKS[0]]
            classes += [rng.randrange(2) for _ in PARITY_BLOCKS[0]]
        labels = [f"t{block}_{i}" for block in range(7) for i in range(3)]
        basics = [
            Measurement(label, rng.choice(((("+", 1), ("-", -1)), (("-", -1), ("+", 1)))))
            for label in labels
        ]
        tables = {
            frozenset(line): parity_table(basics, line, cls) for line, cls in zip(declared, classes)
        }
        theory = OperationalTheory(basics, declared, ("r",), tables)
        odd = sum(sum(classes[3 * b : 3 * b + 3]) % 2 for b in range(7))
        index = {label: i for i, label in enumerate(labels)}
        constraints = [
            (tuple(map(index.get, theory.component_order(j))), frozenset(support(theory, j)))
            for j in theory.maximal_joints
        ]
        bound = depth_first(
            [m.outcome_labels for m in basics], constraints, 22, lambda values, violated: violated
        )
        assert bound == odd > 0
        assert _support_search(theory, SEARCH_CAP) == ([], Fraction(odd, 21))
        assert min_violation_fraction(theory) == Fraction(odd, 21)

    @given(parity_theories())
    @example(OperationalTheory((), (), ("r",), {}))
    @settings(max_examples=150, deadline=None)
    def test_parity_search_matches_full_scan(self, theory):
        scan = list(full_scan(theory))
        models = [combo for combo, violated in scan if violated == 0]
        best = min(violated for _, violated in scan)
        fraction = Fraction(0) if models else Fraction(best, len(theory.maximal_joints))
        event("SAT" if models else "UNSAT")
        with patch.object(ontology, "depth_first", side_effect=AssertionError("depth_first ran")):
            assert _support_search(theory, SEARCH_CAP) == (models, fraction)
            assert _support_search(theory, SEARCH_CAP, first_only=True) == (models[:1], fraction)
            assert _support_search(theory, SEARCH_CAP, minimize=False) == (models, None)


class TestScreeningOffByRepresentation:
    def test_distributions_and_responses_carry_no_extra_arguments(self, box_fixtures):
        # no-conspiracy: preparation weights are keyed by (preparation, lambda)
        # only; lambda-sufficiency: responses by (measurement, lambda) only.
        model = box_fixtures[0].model
        for prep, dist in model.prep_distributions.items():
            assert set(dist) <= set(model.ontic_states)
        for (joint, lam) in model.responses:
            assert lam in model.ontic_states
            assert joint in model.family
