"""Value semantics of the hand-written classes and the record reprs.

The value classes compare and hash by their fields and refuse assignment;
their constructors validate; the mutable classes get fresh containers per
instance; and every ``repr`` keeps its ``Name(field=value, ...)`` form.
"""

import pytest

from kscheck import pauli
from kscheck.boxes import BoxFixture
from kscheck.catalog import CATALOG
from kscheck.cli import Report
from kscheck.graph import ParityCertificate, TheoremVerdict, build_graph
from kscheck.ontology import Check, ModelVerdict
from kscheck.operational import DisturbanceWitness, Measurement
from kscheck.pauli import MAX_QUBITS, PauliString, Phase
from kscheck.quantum import SupportTable, support_table
from kscheck.realization import (
    ArgumentType,
    CollapseResult,
    LemmaCheck,
    Realization,
    Type2Result,
)
from kscheck.scenario import Scenario

import dense_oracle
from lemma_oracle import SweepReport


def single_edge_graph():
    return build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [[0, 1, 2]])


# factory of equal but distinct instances, factory of an unequal one, a field
VALUES = [
    pytest.param(lambda: Phase(1), lambda: Phase(2), "power", id="Phase"),
    pytest.param(
        lambda: PauliString.parse("-iXZ"), lambda: PauliString.parse("XZ"), "letters", id="PauliString"
    ),
    pytest.param(
        lambda: Measurement("m", (("+", 1), ("-", -1))),
        lambda: Measurement("m", (("+", 1), ("-", 1))),
        "outcomes",
        id="Measurement",
    ),
    pytest.param(
        lambda: ArgumentType("II", (3,), (1,)),
        lambda: ArgumentType("II", (3,)),
        "kind",
        id="ArgumentType",
    ),
    pytest.param(
        single_edge_graph,
        lambda: build_graph([("a", "XI"), ("b", "IX"), ("c", "XX")], [[0, 1, 2]]),
        "hyperedges",
        id="KSGraph",
    ),
]


@pytest.mark.parametrize("make, make_other, field", VALUES)
class TestValueClasses:
    def test_equal_instances_hash_equal(self, make, make_other, field):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_instances(self, make, make_other, field):
        assert make() != make_other()
        assert make() != tuple(vars(make()).values())

    def test_assignment_and_deletion_refused(self, make, make_other, field):
        value = make()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == before


# factories of the mutable values, with every field set to a non-default
MUTABLE = [
    pytest.param(
        lambda: Realization.build([["a"], ["a", "b"]], [["a", "b"]], {(1, "b"): "f1"}),
        id="Realization",
    ),
    pytest.param(
        lambda: Scenario(
            "s", "d", single_edge_graph(), {"psi": None}, {"r": None}, None, {"m": None}
        ),
        id="Scenario",
    ),
    pytest.param(
        lambda: Report(
            "verify", {"source": "x"}, {"satisfiable": True}, [(1, -1)], {"kind": "k"}, 0.5, ["l"]
        ),
        id="Report",
    ),
]


@pytest.mark.parametrize("make", MUTABLE)
class TestMutableValues:
    def test_equal_fields_compare_equal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b

    def test_each_differing_field_compares_unequal(self, make):
        for field in vars(make()):
            a, b = make(), make()
            setattr(b, field, object())
            assert a != b and not a == b, field

    def test_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())


class TestCachesKeyOnValues:
    def test_pauli_caches_hit_on_equal_words(self):
        a, b = PauliString.parse("XY"), PauliString.parse("XY")
        assert dense_oracle.to_matrix(a) is dense_oracle.to_matrix(b)
        assert dense_oracle.spectral_projection(a, 1) is dense_oracle.spectral_projection(b, 1)

    def test_support_table_hits_on_equal_graphs(self):
        assert support_table(single_edge_graph()) is support_table(single_edge_graph())

    def test_symplectic_is_cached_on_a_frozen_word(self):
        word = PauliString.parse("-YZ")
        assert word.symplectic is word.symplectic
        assert word.symplectic == pauli.Symplectic(0b10, 0b11, 3)


class TestConstructorChecks:
    @pytest.mark.parametrize("power, reduced", [(0, 0), (5, 1), (6, 2), (-1, 3)])
    def test_phase_power_mod_four(self, power, reduced):
        assert Phase(power).power == reduced
        assert Phase(power) == Phase(reduced)

    @pytest.mark.parametrize(
        "letters, reason",
        [("", "at least one qubit"), ("XQ", "invalid Pauli letters"), ("Z" * (MAX_QUBITS + 1), "exceeds")],
    )
    def test_pauli_letters(self, letters, reason):
        with pytest.raises(ValueError, match=reason):
            PauliString(Phase(0), letters)

    @pytest.mark.parametrize(
        "outcomes, reason",
        [((("+", 1), ("+", -1)), "distinct"), ((("+", 1),), "at least two")],
    )
    def test_measurement_outcomes(self, outcomes, reason):
        with pytest.raises(ValueError, match=reason):
            Measurement("m", outcomes)

    @pytest.mark.parametrize("kind, edges", [("I", (0,)), ("II", ()), ("II", (0, 1)), ("III", (2,))])
    def test_argument_kind_matches_flagged_edges(self, kind, edges):
        with pytest.raises(ValueError, match="inconsistent"):
            ArgumentType(kind, edges)


class TestMutableDefaults:
    def test_reports_do_not_share_lines(self):
        a, b = Report("verify", {}, {}), Report("verify", {}, {})
        a.lines.append("x")
        assert b.lines == []

    def test_scenarios_do_not_share_blocks(self):
        a, b = Scenario("a", "d"), Scenario("b", "d")
        a.states["s"] = None
        a.realizations["r"] = None
        a.models["m"] = None
        assert (b.states, b.realizations, b.models) == ({}, {}, {})

    def test_realizations_do_not_share_tags(self):
        a = Realization((frozenset({"a"}),), frozenset({frozenset({"a"})}))
        b = Realization((frozenset({"a"}),), frozenset({frozenset({"a"})}))
        a.function_tags[(0, "a")] = "f1"
        assert b.function_tags == {}
        assert a != b


REPRS = [
    (lambda: Phase(6), "Phase(power=2)"),
    (lambda: PauliString.parse("-iXZ"), "PauliString(phase=Phase(power=3), letters='XZ')"),
    (
        lambda: Measurement("m", (("+", 1), ("-", -1))),
        "Measurement(label='m', outcomes=(('+', 1), ('-', -1)))",
    ),
    (
        lambda: ArgumentType("II", (3,), (1,)),
        "ArgumentType(kind='II', non_comeasurable_edges=(3,), choice_flagged_edges=(1,))",
    ),
    (
        single_edge_graph,
        "KSGraph(vertices=(('a', PauliString(phase=Phase(power=0), letters='ZI')), "
        "('b', PauliString(phase=Phase(power=0), letters='IZ')), "
        "('c', PauliString(phase=Phase(power=0), letters='ZZ'))), "
        "hyperedges=((0, 1, 2),), edge_signs=(1,))",
    ),
    (
        lambda: Realization.build([["a"]], (), {(0, "a"): "f1"}),
        "Realization(assoc=(frozenset({'a'}),), comeasurable=frozenset({frozenset({'a'})}), "
        "function_tags={(0, 'a'): 'f1'})",
    ),
    (
        lambda: Scenario(name="s", digest="d"),
        "Scenario(name='s', digest='d', graph=None, states={}, realizations={}, "
        "theory=None, models={})",
    ),
    (
        lambda: Report(command="verify", inputs={"source": "x"}, verdicts={"satisfiable": False}),
        "Report(command='verify', inputs={'source': 'x'}, verdicts={'satisfiable': False}, "
        "witnesses=None, certificate=None, timing_s=0.0, lines=[])",
    ),
    (
        lambda: CATALOG["army"],
        "CatalogEntry(name='army', kind='theory', summary='shooting and tightrope walking: "
        "jointly performable but mutually disturbing')",
    ),
    (
        lambda: BoxFixture("box", None, None, "note"),
        "BoxFixture(name='box', theory=None, model=None, note='note')",
    ),
    (
        lambda: ParityCertificate((2, 2), -1),
        "ParityCertificate(vertex_degrees=(2, 2), sign_product=-1)",
    ),
    (
        lambda: TheoremVerdict(False, (), ParityCertificate((2,), -1)),
        "TheoremVerdict(satisfiable=False, witnesses=(), "
        "certificate=ParityCertificate(vertex_degrees=(2,), sign_product=-1))",
    ),
    (lambda: Check(True), "Check(ok=True, witnesses=())"),
    (
        lambda: ModelVerdict(Check(True), Check(False, ("w",)), Check(True), Check(True), Check(True)),
        "ModelVerdict(value_definite=Check(ok=True, witnesses=()), "
        "noncontextual=Check(ok=False, witnesses=('w',)), factorizing=Check(ok=True, witnesses=()), "
        "spekkens=Check(ok=True, witnesses=()), recovers_theory=Check(ok=True, witnesses=()))",
    ),
    (
        lambda: DisturbanceWitness(("a",), ("a", "b"), ("a", "c"), ("+",), "r", 0.5, 0.25),
        "DisturbanceWitness(sub_joint=('a',), source_a=('a', 'b'), source_b=('a', 'c'), "
        "outcomes=('+',), preparation='r', value_a=0.5, value_b=0.25)",
    ),
    (lambda: SupportTable((((1, 1, 1),),)), "SupportTable(per_edge=(((1, 1, 1),),))"),
    (
        lambda: LemmaCheck(True, (0,), True, True, False, True, True, True, ()),
        "LemmaCheck(hyperedge_based=True, hyperedge_based_edges=(0,), all_edges_comeasurable=True, "
        "antecedent=True, unique=False, singly_associated=True, holds=True, holds_strict=True, "
        "witnesses=())",
    ),
    (
        lambda: CollapseResult(None, "b0", (0, 1)),
        "CollapseResult(realization=None, label='b0', multi_associated=(0, 1))",
    ),
    (
        lambda: SweepReport(10, 4, 2, 0, 0, 3, 12, 2),
        "SweepReport(n_realizations=10, n_hyperedge_based=4, n_antecedent=2, "
        "n_antecedent_and_unique=0, n_antecedent_and_singly_associated=0, collapse_patterns=3, "
        "pool_limit=12, assoc_limit=2)",
    ),
    (
        lambda: Type2Result(False, 4, (1, 1, 1, -1), True, None, False),
        "Type2Result(satisfiable=False, pinned_edge=4, pinned_tuple=(1, 1, 1, -1), "
        "eigenstate_verified=True, witness=None, sign_flipped=False)",
    ),
]


@pytest.mark.parametrize("make, expected", REPRS, ids=[r[1].split("(")[0] for r in REPRS])
def test_repr_is_pinned(make, expected):
    assert repr(make()) == expected
