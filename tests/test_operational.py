"""Operational theories: marginals, no-disturbance, supports, Born filling."""

from fractions import Fraction

import pytest

from kscheck import boxes
from kscheck.errors import InvalidGraphError, MarginalAmbiguityError
from kscheck.graph import admissible_tuples
from kscheck.operational import (
    Measurement,
    OperationalTheory,
    eigenstate_preparations,
    from_quantum,
    is_nondisturbing,
    marginal,
    support,
)
from kscheck.state import DensityOperator
from kscheck.realization import Realization

ROW_1 = frozenset({"a", "b", "c"})
COLUMN_1 = frozenset({"a", "d", "g"})
COLUMN_3 = frozenset({"c", "f", "i"})


def single_basic_theory():
    coin = Measurement("coin", (("heads", 1), ("tails", -1)))
    tables = {
        frozenset({"coin"}): {
            "fair": {("heads",): Fraction(1, 2), ("tails",): Fraction(1, 2)}
        }
    }
    return OperationalTheory((coin,), (), ("fair",), tables)


class TestStructure:
    def test_family_closed_under_subsets(self, pm_theory_full):
        for joint in pm_theory_full.family:
            if len(joint) > 1:
                for member in joint:
                    assert joint - {member} in pm_theory_full.family

    def test_singletons_always_present(self, pm_theory_full):
        for m in pm_theory_full.basics:
            assert frozenset({m.label}) in pm_theory_full.family

    def test_square_full_has_six_maximal_joints(self, pm_theory_full):
        assert len(pm_theory_full.maximal_joints) == 6

    def test_spin_realization_tables_cover_four_edges(self, pm_theory_spin):
        edge_joints = [j for j in pm_theory_spin.maximal_joints if len(j) == 3]
        assert sorted(sorted(j) for j in edge_joints) == [
            ["a", "b", "c"], ["a", "d", "g"], ["b", "e", "h"], ["d", "e", "f"],
        ]
        assert frozenset({"i"}) in pm_theory_spin.maximal_joints

    def test_tables_must_normalize(self):
        coin = Measurement("coin", (("heads", 1), ("tails", -1)))
        with pytest.raises(ValueError):
            OperationalTheory(
                (coin,),
                (),
                ("fair",),
                {frozenset({"coin"}): {"fair": {("heads",): Fraction(2, 3)}}},
            )

    def test_missing_maximal_table_rejected(self):
        coin = Measurement("coin", (("heads", 1), ("tails", -1)))
        with pytest.raises(ValueError):
            OperationalTheory((coin,), (), ("fair",), {})

    def test_repeated_preparation_labels_rejected(self):
        theory = single_basic_theory()
        with pytest.raises(ValueError, match="preparation labels must be distinct"):
            OperationalTheory(theory.basics, (), ("fair", "fair"), theory.tables)


class TestMarginal:
    def test_containments_agree_for_the_square(self, pm_theory_full):
        via_row = marginal(pm_theory_full, {"a"}, ("+1",), "mixed")
        assert float(via_row) == pytest.approx(0.5)
        # both containments are consulted and must agree; no error means agreement
        assert marginal(pm_theory_full, {"a"}, ("+1",), "z00") == 1

    def test_containment_independence_exhaustive(self, pm_theory_full):
        for joint in pm_theory_full.family:
            if joint in pm_theory_full.maximal_joints:
                continue
            for prep in pm_theory_full.preparations:
                for outcomes in pm_theory_full.outcome_tuples(joint):
                    marginal(pm_theory_full, joint, outcomes, prep)  # must not raise

    def test_single_basic_theory_marginal_is_table_entry(self):
        theory = single_basic_theory()
        assert marginal(theory, {"coin"}, ("heads",), "fair") == Fraction(1, 2)

    def test_outside_family_rejected(self, pm_theory_full):
        with pytest.raises(ValueError):
            marginal(pm_theory_full, {"a", "e"}, ("+1", "+1"), "mixed")

    def test_disagreeing_containments_raise(self):
        a = Measurement("a", (("+", 1), ("-", -1)))
        b = Measurement("b", (("+", 1), ("-", -1)))
        c = Measurement("c", (("+", 1), ("-", -1)))
        half = Fraction(1, 2)
        tables = {
            frozenset({"a", "b"}): {
                "r": {("+", "+"): half, ("-", "-"): half}
            },
            frozenset({"a", "c"}): {
                "r": {("+", "-"): Fraction(1, 4), ("-", "+"): Fraction(3, 4)}
            },
        }
        theory = OperationalTheory(
            (a, b, c), (("a", "b"), ("a", "c")), ("r",), tables
        )
        with pytest.raises(MarginalAmbiguityError):
            marginal(theory, {"a"}, ("+",), "r")


class TestNoDisturbance:
    def test_square_theory_is_nondisturbing(self, pm_theory_full):
        ok, witnesses = is_nondisturbing(pm_theory_full)
        assert ok and not witnesses

    def test_spin_theory_is_nondisturbing(self, pm_theory_spin):
        ok, _ = is_nondisturbing(pm_theory_spin)
        assert ok

    def test_army_example_is_disturbing(self):
        theory = boxes.army_theory()
        ok, witnesses = is_nondisturbing(theory)
        assert not ok
        assert any(w.sub_joint == ("shooting",) for w in witnesses)
        # rope walking drags the hit rate from 0.9 down to 0.2
        w = next(w for w in witnesses if w.sub_joint == ("shooting",))
        assert {round(w.value_a, 3), round(w.value_b, 3)} == {0.9, 0.2}

    def test_flip_box_theory_is_disturbing(self, box_fixtures):
        _, _, m3 = box_fixtures
        ok, witnesses = is_nondisturbing(m3.theory)
        assert not ok and witnesses

    def test_from_quantum_always_nondisturbing(self, ghz_theory_standard):
        ok, _ = is_nondisturbing(ghz_theory_standard)
        assert ok


class TestSupport:
    def test_third_column_support_is_odd_parity(self, pm_theory_full):
        tuples = support(pm_theory_full, COLUMN_3)
        assert len(tuples) == 4
        for combo in tuples:
            values = [1 if o == "+1" else -1 for o in combo]
            assert values[0] * values[1] * values[2] == -1

    def test_row_support_is_even_parity(self, pm_theory_full):
        tuples = support(pm_theory_full, ROW_1)
        assert len(tuples) == 4
        for combo in tuples:
            values = [1 if o == "+1" else -1 for o in combo]
            assert values[0] * values[1] * values[2] == 1

    def test_support_matches_admissible_edge_by_edge(self, pm_graph, pm_theory_full):
        for e in range(6):
            joint = frozenset(pm_graph.edge_labels(e))
            got = {
                tuple(1 if o == "+1" else -1 for o in combo)
                for combo in support(pm_theory_full, joint)
            }
            assert got == set(admissible_tuples(pm_graph, e))

    def test_deterministic_single_preparation_theory(self):
        coin = Measurement("coin", (("heads", 1), ("tails", -1)))
        tables = {
            frozenset({"coin"}): {"loaded": {("heads",): Fraction(1)}}
        }
        theory = OperationalTheory((coin,), (), ("loaded",), tables)
        assert support(theory, frozenset({"coin"})) == (("heads",),)

    def test_non_maximal_joint_rejected(self, pm_theory_full):
        with pytest.raises(ValueError):
            support(pm_theory_full, frozenset({"a"}))


class TestEigenstatePreparations:
    def test_product_state_eigenstates_first_row(self, pm_theory_full):
        assert "z00" in eigenstate_preparations(pm_theory_full, ROW_1)

    def test_mixed_state_never_eigenstate(self, pm_theory_full):
        for joint in pm_theory_full.maximal_joints:
            assert "mixed" not in eigenstate_preparations(pm_theory_full, joint)

    def test_ghz_preparation_fixes_each_horizontal_single(self, ghz_theory_standard):
        for label in ("XXX", "YYX", "YXY", "XYY"):
            preps = eigenstate_preparations(ghz_theory_standard, frozenset({label}))
            assert "ghz" in preps

    def test_z00_not_eigenstate_of_first_column(self, pm_theory_full):
        assert "z00" not in eigenstate_preparations(pm_theory_full, COLUMN_1)


class TestFromQuantum:
    def test_exact_states_give_exact_tables(self, pm_theory_full):
        dist = pm_theory_full.tables[ROW_1]["mixed"]
        assert dist[("+1", "+1", "+1")] == Fraction(1, 4)
        assert all(isinstance(v, Fraction) for v in dist.values())

    def test_trivial_comeasurability_gives_only_singleton_tables(self, pm_graph):
        realization = Realization.build(
            [{label} for label, _ in pm_graph.vertices], ()
        )
        theory = from_quantum(
            pm_graph, {"mixed": DensityOperator.maximally_mixed(4)}, realization
        )
        assert all(len(j) == 1 for j in theory.maximal_joints)
        assert len(theory.maximal_joints) == 9

    def test_rejects_multi_associated_vertices(self, pm_graph):
        assoc = [{label} for label, _ in pm_graph.vertices]
        assoc[0] = {"a", "extra"}
        realization = Realization.build(assoc, ())
        with pytest.raises(InvalidGraphError):
            from_quantum(
                pm_graph, {"mixed": DensityOperator.maximally_mixed(4)}, realization
            )

    def test_rejects_shared_measurement(self, pm_graph):
        assoc = [{label} for label, _ in pm_graph.vertices]
        assoc[1] = {"a"}
        realization = Realization.build(assoc, ())
        with pytest.raises(InvalidGraphError):
            from_quantum(
                pm_graph, {"mixed": DensityOperator.maximally_mixed(4)}, realization
            )

    def test_rejects_noncommuting_comeasurable_set(self, pm_graph):
        realization = Realization.build(
            [{label} for label, _ in pm_graph.vertices],
            (("a", "e"),),  # Z(x)I and X(x)I do not commute
        )
        with pytest.raises(InvalidGraphError):
            from_quantum(
                pm_graph, {"mixed": DensityOperator.maximally_mixed(4)}, realization
            )

    def test_ghz_standard_has_no_horizontal_table(self, ghz_theory_standard):
        horizontal = frozenset({"XXX", "YYX", "YXY", "XYY"})
        assert horizontal not in ghz_theory_standard.family
        assert len([j for j in ghz_theory_standard.maximal_joints if len(j) == 4]) == 4
