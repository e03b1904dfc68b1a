"""Ontological models: the five flags, existence search, robustness bound."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscheck import ontology
from kscheck.errors import CapExceededError
from kscheck.graph import SEARCH_CAP, build_graph, search_assignments
from kscheck.ontology import (
    OntologicalModel,
    _support_search,
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
    Measurement,
    OperationalTheory,
    from_quantum,
    is_nondisturbing,
    support,
)
from kscheck.quantum import DensityOperator
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
                outcome_space = model.outcome_tuples(measured)
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
        # violated joint (bound 1) rather than branch-and-bounded
        bounds = []
        depth_first = ontology.depth_first

        def recorded(domains, constraints, bound, leaf, cap):
            bounds.append(bound)
            return depth_first(domains, constraints, bound, leaf, cap)

        monkeypatch.setattr(ontology, "depth_first", recorded)
        theory = two_squares_theory()
        assert search_ncvd(theory) is None
        assert search_states(theory) == ([], Fraction(1, 6))
        assert bounds == [1, len(theory.maximal_joints) + 1]


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
