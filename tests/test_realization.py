"""Realizations: uniqueness, argument types, the lemma, collapse, type II."""

from itertools import combinations, product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kscheck import catalog
from kscheck.errors import BadArgumentError
from kscheck.graph import admissible_tuples, build_graph
from kscheck.operational import OUTCOME_MINUS, OUTCOME_PLUS, from_quantum, support
from kscheck.pauli import PauliString, all_commute, commutation_masks
from kscheck.quantum import edge_relations, support_table
from kscheck.realization import (
    Realization,
    classify_type,
    collapse_edge,
    commuting_realization,
    hyperedge_realization,
    is_hyperedge_based,
    is_singly_associated,
    is_unique,
    lemma_check,
    lemma_pivots,
    run_type2_argument,
)
from kscheck.state import DensityOperator

from dense_oracle import joint_projection, state_from_projection
from lemma_oracle import enumerate_lemma_sweep


class TestUniqueness:
    def test_nine_measurement_realization_is_unique(self):
        assert is_unique(catalog.pm_full_realization())

    def test_hyperedge_realization_is_not(self):
        assert not is_unique(catalog.pm_hyperedge_realization())

    def test_two_vertices_two_measurements(self):
        r = Realization.build([{"m1"}, {"m2"}], ())
        assert is_unique(r)

    def test_shared_label_breaks_uniqueness_but_not_single_association(self):
        r = Realization.build([{"m"}, {"m"}], ())
        assert not is_unique(r)
        assert is_singly_associated(r)


class TestHyperedgeBased:
    def test_hyperedge_realization_covers_all_six_lines(self, pm_graph):
        based, edges = is_hyperedge_based(pm_graph, catalog.pm_hyperedge_realization())
        assert based
        assert edges == (0, 1, 2, 3, 4, 5)

    def test_unique_realization_is_not(self, pm_graph):
        based, edges = is_hyperedge_based(pm_graph, catalog.pm_full_realization())
        assert not based and edges == ()

    def test_single_collapsed_row(self, pm_graph):
        result = collapse_edge(pm_graph, catalog.pm_spin_realization(), 0)
        based, edges = is_hyperedge_based(pm_graph, result.realization)
        assert based and edges == (0,)


class TestClassifyType:
    def test_spin_square_is_type_three(self, pm_graph):
        kind = classify_type(pm_graph, catalog.pm_spin_realization())
        assert kind.kind == "III"
        assert kind.non_comeasurable_edges == (catalog.PM_ROW_3, catalog.PM_COLUMN_3)

    def test_standard_pentagram_is_type_two(self, ghz_graph):
        kind = classify_type(ghz_graph, catalog.ghz_standard_realization())
        assert kind.kind == "II"
        assert kind.non_comeasurable_edges == (catalog.GHZ_HORIZONTAL,)

    def test_fully_comeasurable_realizations_are_type_one(self, pm_graph, ghz_graph):
        assert classify_type(pm_graph, catalog.pm_full_realization()).kind == "I"
        assert classify_type(ghz_graph, catalog.ghz_full_realization()).kind == "I"

    def test_invariant_under_measurement_relabeling(self, pm_graph):
        spin = catalog.pm_spin_realization()
        rename = {label: f"M_{label.upper()}" for label in spin.measurement_labels}
        renamed = Realization.build(
            [{rename[m] for m in a} for a in spin.assoc],
            [{rename[m] for m in s} for s in spin.comeasurable],
        )
        assert classify_type(pm_graph, renamed) == classify_type(pm_graph, spin)

    def test_collapsed_edge_counts_as_simultaneous(self, pm_graph):
        # collapsing the third column onto one measurement repairs it
        spin = catalog.pm_spin_realization()
        collapsed = collapse_edge(pm_graph, spin, catalog.PM_COLUMN_3).realization
        kind = classify_type(pm_graph, collapsed)
        assert kind.kind == "II"
        assert kind.non_comeasurable_edges == (catalog.PM_ROW_3,)
        assert catalog.PM_COLUMN_3 in kind.choice_flagged_edges


class TestLemmaCheck:
    def test_six_measurement_realization(self, pm_graph):
        check = lemma_check(pm_graph, catalog.pm_hyperedge_realization())
        assert check.antecedent
        assert not check.unique
        assert check.holds and check.holds_strict
        # every vertex sits at an intersection of two collapsed lines
        assert set(check.witnesses) == set(range(9))

    def test_unique_realization_vacuous(self, pm_graph):
        check = lemma_check(pm_graph, catalog.pm_full_realization())
        assert not check.hyperedge_based
        assert not check.antecedent
        assert check.holds and check.holds_strict

    def test_spin_realization_fails_antecedent_on_comeasurability(self, pm_graph):
        check = lemma_check(pm_graph, catalog.pm_spin_realization())
        assert not check.antecedent
        assert not check.all_edges_comeasurable


class TestLemmaSweep:
    def test_square_sweep_finds_no_counterexample(self, pm_graph):
        report = enumerate_lemma_sweep(pm_graph, pool_limit=12, assoc_limit=2)
        assert report.n_realizations > 2000
        assert report.n_antecedent > 0
        assert report.n_antecedent_and_unique == 0
        assert report.n_antecedent_and_singly_associated == 0
        assert report.lemma_confirmed

    def test_pool_six_restricts_to_deep_collapses(self, pm_graph):
        report = enumerate_lemma_sweep(pm_graph, pool_limit=6, assoc_limit=2)
        # exactly the all-edges-collapsed realization satisfies the
        # antecedent in this range; nothing unique shows up
        assert report.n_antecedent == 1
        assert report.n_antecedent_and_unique == 0

    def test_singly_associated_realizations_never_fire(self, pm_graph):
        report = enumerate_lemma_sweep(pm_graph, pool_limit=9, assoc_limit=1)
        # one measurement per vertex: collapsed lines then wreck the
        # comeasurability of the crossing lines, so the antecedent is
        # unreachable on this graph
        assert report.n_hyperedge_based > 0
        assert report.n_antecedent == 0

    def test_single_edge_graph_boundary_case(self):
        # with no intersection vertices the antecedent can hold with a
        # single shared measurement; sharing breaks injectivity, so no
        # realization counts as unique for an edge of size >= 2
        graph = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
        report = enumerate_lemma_sweep(graph, pool_limit=6, assoc_limit=2)
        assert report.n_antecedent > 0
        assert report.n_antecedent_and_unique == 0
        # the all-collapsed singleton realization is the one known case
        # where the weaker single-association reading fires
        assert report.n_antecedent_and_singly_associated == 1


def lines(n_qubits):
    """Every line {a, b, ab} of pairwise commuting non-identity words on
    n_qubits, as sorted letter triples."""
    words = [PauliString.parse("".join(w)) for w in product("IXYZ", repeat=n_qubits)][1:]
    return sorted({
        tuple(sorted((a.letters, b.letters, (a * b).letters)))
        for a, b in combinations(words, 2)
        if a.commutes(b)
    })


def line_graph(chosen):
    """The graph whose edges are the chosen lines, on the words they hold."""
    words = sorted({word for line in chosen for word in line})
    index = {word: i for i, word in enumerate(words)}
    return build_graph([(w, w) for w in words], [[index[w] for w in line] for line in chosen])


LINES = {n: lines(n) for n in (2, 3)}


@st.composite
def line_graphs(draw):
    """Up to four lines of two or three qubits: at most 12 vertices and 4
    edges, within the sweep's caps."""
    chosen = draw(st.lists(st.sampled_from(LINES[draw(st.sampled_from((2, 3)))]),
                           min_size=1, max_size=4, unique=True))
    return line_graph(chosen)


def check_certificates(graph, pivots):
    """Each pivot (v, e') has v on both edges and a non-commuting union;
    each pivot-free edge, collapsed alone with every other vertex on a
    private measurement, meets the antecedent singly associated."""
    masks = commutation_masks(graph.operators)
    assert len(pivots) == len(graph.hyperedges)
    for c, pivot in enumerate(pivots):
        edge = graph.hyperedges[c]
        if pivot is not None:
            v, other = pivot
            assert other != c and v in edge and v in graph.hyperedges[other]
            union = sum(1 << u for u in set(edge) | set(graph.hyperedges[other]))
            assert not all_commute(masks, union)
        else:
            assoc = [{"shared"} if v in edge else {f"m{v}"} for v in range(graph.n_vertices)]
            check = lemma_check(graph, commuting_realization(graph, assoc))
            assert check.antecedent and check.singly_associated and not check.holds_strict


class TestLemmaPivots:
    def test_square_pivots(self, pm_graph):
        # each row turns on the first column and each column on the first row
        pivots = lemma_pivots(pm_graph)
        assert pivots == ((0, 3), (3, 3), (6, 3), (0, 0), (1, 0), (2, 0))
        check_certificates(pm_graph, pivots)

    def test_every_pentagram_line_has_a_pivot(self, ghz_graph):
        pivots = lemma_pivots(ghz_graph)
        assert None not in pivots
        check_certificates(ghz_graph, pivots)

    def test_single_edge_has_none(self):
        graph = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
        assert lemma_pivots(graph) == (None,)
        check_certificates(graph, (None,))

    def test_every_line_of_three_qubits_has_a_pivot(self):
        # W(5,2): (4^3 - 1)(4^2 - 1)/3 lines, beyond the sweep's caps
        assert len(LINES[3]) == (4**3 - 1) * (4**2 - 1) // 3 == 315
        graph = line_graph(LINES[3])
        pivots = lemma_pivots(graph)
        assert None not in pivots
        check_certificates(graph, pivots)

    def test_matches_the_sweep(self):
        answers = set()

        @given(line_graphs())
        @example(catalog.peres_mermin_graph())
        @settings(max_examples=50, deadline=None)
        def agree(graph):
            pivots = lemma_pivots(graph)
            report = enumerate_lemma_sweep(graph, pool_limit=graph.n_vertices, assoc_limit=2)
            assert (report.n_antecedent_and_singly_associated > 0) == (None in pivots)
            assert report.n_antecedent_and_unique == 0
            check_certificates(graph, pivots)
            answers.add(None in pivots)

        agree()
        assert answers == {False, True}


class TestCommutingRealization:
    def test_family_matches_pairwise_commutation(self, pm_graph):
        r = commuting_realization(pm_graph, [{label} for label, _ in pm_graph.vertices])
        ops = {label: op for label, op in pm_graph.vertices}
        for pair in [("a", "b"), ("a", "c"), ("c", "f")]:
            assert frozenset(pair) in r.comeasurable
        for pair in [("a", "e"), ("b", "d"), ("c", "g")]:
            assert frozenset(pair) not in r.comeasurable

    def test_rejects_invalid_shared_measurement(self, pm_graph):
        assoc = [{label} for label, _ in pm_graph.vertices]
        assoc[0] = {"shared"}
        assoc[4] = {"shared"}  # a and e do not commute
        with pytest.raises(ValueError):
            commuting_realization(pm_graph, assoc)


class TestCollapseEdge:
    def test_third_column_collapse_multiplies_associations(self, pm_graph):
        spin = catalog.pm_spin_realization()
        result = collapse_edge(pm_graph, spin, catalog.PM_COLUMN_3)
        assert result.multi_associated == (2, 5, 8)  # c, f, i
        for v in (2, 5, 8):
            assert len(result.realization.assoc[v]) == 2
            assert result.label in result.realization.assoc[v]
        tags = {
            result.realization.function_tags[(v, result.label)] for v in (2, 5, 8)
        }
        assert len(tags) == 3

    def test_collapse_again_is_idempotent_modulo_label(self, pm_graph):
        spin = catalog.pm_spin_realization()
        once = collapse_edge(pm_graph, spin, catalog.PM_COLUMN_3)
        twice = collapse_edge(pm_graph, once.realization, catalog.PM_COLUMN_3)
        assert twice.label != once.label
        for v, a in enumerate(twice.realization.assoc):
            expected = set(once.realization.assoc[v])
            if v in pm_graph.hyperedges[catalog.PM_COLUMN_3]:
                expected.add(twice.label)
            assert a == expected

    def test_collapsing_all_six_edges_reproduces_the_six_measurement_form(
        self, pm_graph
    ):
        current = catalog.pm_full_realization()
        labels = []
        for e in range(6):
            result = collapse_edge(pm_graph, current, e)
            current = result.realization
            labels.append(result.label)
        # restricted to the collapse measurements, each vertex carries its
        # row and column labels: the six-measurement hyperedge realization
        reference = hyperedge_realization(pm_graph)
        rename = dict(zip(labels, [f"b{e}" for e in range(6)]))
        collapsed_part = [
            {rename[m] for m in a if m in rename} for a in current.assoc
        ]
        assert collapsed_part == [set(a) for a in reference.assoc]
        assert all(len(a) == 3 for a in current.assoc)

    def test_fresh_label_avoids_collisions(self, pm_graph):
        spin = catalog.pm_spin_realization()
        first = collapse_edge(pm_graph, spin, 0)
        second = collapse_edge(pm_graph, first.realization, 0)
        assert first.label != second.label

    def test_never_unique_afterwards_with_commuting_family(self, pm_graph):
        spin = catalog.pm_spin_realization()
        for e in range(6):
            result = collapse_edge(pm_graph, spin, e)
            refreshed = commuting_realization(pm_graph, result.realization.assoc)
            assert not is_unique(refreshed)
            assert lemma_check(pm_graph, refreshed).holds


def type2_full_scan(graph, realization, pinned_edge, pinned, flip_sign=False):
    """Oracle for the type II search: every ±1 assignment to the free
    vertices in product order (+1 before -1), the pinned edge's vertices
    fixed, each other edge checked against its support in the theory of
    the maximally mixed state and, unless ``flip_sign``, the eigenstate
    built from the dense joint projection.  Returns the first assignment
    that fits every support, or None."""
    edge = graph.hyperedges[pinned_edge]
    states = {"mixed": DensityOperator.maximally_mixed(2 ** graph.operators[0].n_qubits)}
    if not flip_sign:
        projection = joint_projection(graph.edge_operators(pinned_edge), tuple(pinned))
        states["pinned"] = state_from_projection(projection)
    theory = from_quantum(graph, states, realization)
    label_of = [next(iter(a)) for a in realization.assoc]
    vertex_of = {label: v for v, label in enumerate(label_of)}
    value_of = {OUTCOME_PLUS: 1, OUTCOME_MINUS: -1}
    checks = []
    for e, members in enumerate(graph.hyperedges):
        if e == pinned_edge:
            continue
        joint = frozenset(label_of[v] for v in members)
        scope = [vertex_of[label] for label in theory.component_order(joint)]
        allowed = {tuple(value_of[o] for o in t) for t in support(theory, joint)}
        checks.append((scope, allowed))
    free = [v for v in range(graph.n_vertices) if v not in edge]
    values = [0] * graph.n_vertices
    for v, value in zip(edge, pinned):
        values[v] = value
    for choice in product((1, -1), repeat=len(free)):
        for v, value in zip(free, choice):
            values[v] = value
        if all(tuple(values[v] for v in scope) in allowed for scope, allowed in checks):
            return tuple(values)
    return None


class TestTypeTwoPipeline:
    @pytest.mark.parametrize("flip_sign", [False, True])
    def test_matches_full_scan(self, ghz_graph, flip_sign):
        realization = catalog.ghz_standard_realization()
        edge = catalog.GHZ_HORIZONTAL
        target = -ghz_graph.edge_signs[edge] if flip_sign else ghz_graph.edge_signs[edge]
        combos = [
            combo
            for combo in product((1, -1), repeat=len(ghz_graph.hyperedges[edge]))
            if combo[0] * combo[1] * combo[2] * combo[3] == target
        ]
        assert len(combos) == 8
        for combo in combos:
            result = run_type2_argument(ghz_graph, realization, combo, flip_sign=flip_sign)
            expected = type2_full_scan(ghz_graph, realization, edge, combo, flip_sign)
            assert result.pinned_edge == edge
            assert result.satisfiable == (expected is not None), combo
            assert result.witness == expected, combo

    @pytest.mark.parametrize(
        "vertices, edges, comeasurable, relations",
        [
            # the pentagram with its XXX line grown to the 7 X words on three
            # qubits: 4 independent relations, 2^4 - 1 in all
            (
                [word for _, word in catalog.GHZ_VERTICES] + ["XXI", "XIX", "IXX"],
                [[0, 2, 4, 6, 10, 11, 12], *catalog.GHZ_EDGES[1:]],
                [[0, 2, 4, 6, 10, 11, 12], *catalog.GHZ_EDGES[1:4]],
                15,
            ),
            # {ZI, ZI, IZ, IZ}: repeated words, 2 independent relations
            (["ZI", "ZI", "IZ", "IZ", "ZZ"], [[0, 1, 2, 3], [0, 2, 4], [1, 3, 4]],
             [[0, 1, 2, 3], [1, 3, 4]], 3),
            # the same edge pinned: tuples off its relations have no state
            (["ZI", "ZI", "IZ", "IZ"], [[0, 1, 2, 3], [0, 1], [2, 3]], [[0, 1], [2, 3]], 3),
        ],
    )
    @pytest.mark.parametrize("flip_sign", [False, True])
    def test_matches_full_scan_with_several_relations(
        self, vertices, edges, comeasurable, relations, flip_sign
    ):
        labels = [f"v{k}" for k in range(len(vertices))]
        graph = build_graph(zip(labels, vertices), edges)
        realization = Realization.build(
            [{label} for label in labels], [[labels[v] for v in s] for s in comeasurable]
        )
        pinned = classify_type(graph, realization).non_comeasurable_edges[0]
        assert len(edge_relations(graph.edge_operators(0))) == relations
        target = -graph.edge_signs[pinned] if flip_sign else graph.edge_signs[pinned]
        combos = [c for c in product((1, -1), repeat=len(edges[pinned])) if prod(c) == target]
        supported = support_table(graph).tuples_for(pinned)
        for combo in combos:
            if not flip_sign and combo not in supported:
                with pytest.raises(BadArgumentError, match="relation"):
                    run_type2_argument(graph, realization, combo)
                continue
            result = run_type2_argument(graph, realization, combo, flip_sign=flip_sign)
            expected = type2_full_scan(graph, realization, pinned, combo, flip_sign)
            assert result.pinned_edge == pinned
            assert result.eigenstate_verified is not flip_sign
            assert result.witness == expected, combo
            assert result.satisfiable == (expected is not None), combo

    def test_all_admissible_tuples_unsat(self, ghz_graph):
        realization = catalog.ghz_standard_realization()
        for combo in admissible_tuples(ghz_graph, catalog.GHZ_HORIZONTAL):
            result = run_type2_argument(ghz_graph, realization, combo)
            assert not result.satisfiable, combo
            assert result.eigenstate_verified

    def test_flipped_sign_control_sat(self, ghz_graph):
        realization = catalog.ghz_standard_realization()
        from itertools import product as iproduct

        flipped = [
            combo
            for combo in iproduct((1, -1), repeat=4)
            if combo[0] * combo[1] * combo[2] * combo[3] == 1
        ]
        assert len(flipped) == 8
        for combo in flipped:
            result = run_type2_argument(
                ghz_graph, realization, combo, flip_sign=True
            )
            assert result.satisfiable, combo
            # the witness satisfies all four comeasurable edge constraints
            witness = result.witness
            for e in range(4):
                edge = ghz_graph.hyperedges[e]
                value = 1
                for v in edge:
                    value *= witness[v]
                assert value == ghz_graph.edge_signs[e]

    def test_default_tuple(self, ghz_graph):
        realization = catalog.ghz_standard_realization()
        assert ghz_graph.edge_signs[catalog.GHZ_HORIZONTAL] == -1
        result = run_type2_argument(ghz_graph, realization)
        assert result.pinned_tuple == (1, 1, 1, -1)
        flipped = run_type2_argument(ghz_graph, realization, flip_sign=True)
        assert flipped.pinned_tuple == (1, 1, 1, 1)

    def test_inadmissible_tuple_rejected(self, ghz_graph):
        with pytest.raises(BadArgumentError):
            run_type2_argument(
                ghz_graph, catalog.ghz_standard_realization(), (1, 1, 1, 1)
            )

    def test_type_three_realization_rejected(self, pm_graph):
        with pytest.raises(BadArgumentError):
            run_type2_argument(
                pm_graph, catalog.pm_spin_realization(), (1, 1, -1)
            )

    def test_type_one_realization_rejected(self, ghz_graph):
        with pytest.raises(BadArgumentError):
            run_type2_argument(
                ghz_graph, catalog.ghz_full_realization(), (1, 1, 1, -1)
            )
