"""Hypergraph construction, assignment search, parity certificates."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscheck import catalog
from kscheck.errors import CapExceededError, InvalidGraphError
from kscheck.graph import (
    admissible_tuples,
    build_graph,
    depth_first,
    derive_hyperedges,
    parity_certificate,
    search_assignments,
)
from kscheck.pauli import PauliString

P = PauliString.parse


def brute_force_witnesses(graph):
    """Independent re-enumeration: check every assignment against every
    edge directly, no pruning, no shared code path."""
    out = []
    for combo in product((1, -1), repeat=graph.n_vertices):
        ok = True
        for edge, sign in zip(graph.hyperedges, graph.edge_signs):
            value = 1
            for v in edge:
                value *= combo[v]
            if value != sign:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


class TestDeriveHyperedges:
    def test_square_gives_rows_and_columns(self, pm_graph):
        edges = derive_hyperedges(pm_graph.operators)
        assert len(edges) == 6
        assert set(edges) == {
            (0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
        }

    def test_pentagram_gives_five_lines_of_four(self, ghz_graph):
        edges = derive_hyperedges(ghz_graph.operators)
        assert len(edges) == 5
        assert all(len(e) == 4 for e in edges)
        assert set(edges) == set(ghz_graph.hyperedges)

    def test_anticommuting_pair_has_no_edges(self):
        assert derive_hyperedges([P("X"), P("Z")]) == ()

    def test_independent_of_vertex_order(self, pm_graph):
        ops = list(pm_graph.operators)
        reversed_edges = derive_hyperedges(ops[::-1])
        n = len(ops)
        remapped = {
            tuple(sorted(n - 1 - v for v in edge)) for edge in reversed_edges
        }
        assert remapped == set(derive_hyperedges(ops))


class TestBuildGraph:
    def test_square_signs(self, pm_graph):
        assert pm_graph.edge_signs == (1, 1, 1, 1, 1, -1)

    def test_pentagram_signs(self, ghz_graph):
        assert ghz_graph.edge_signs == (1, 1, 1, 1, -1)

    def test_rejects_edge_without_identity_product(self):
        with pytest.raises(InvalidGraphError):
            build_graph([("a", "ZI"), ("b", "IZ")], [(0, 1)])

    def test_rejects_noncommuting_edge(self):
        with pytest.raises(InvalidGraphError):
            build_graph([("a", "X"), ("b", "Z")], [(0, 1)])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(InvalidGraphError):
            build_graph(
                [("a", "ZI"), ("b", "IZ"), ("c", "ZZ"), ("d", "XX")],
                [(0, 1, 2)],
            )

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidGraphError):
            build_graph([("a", "ZI"), ("a", "IZ"), ("c", "ZZ")], [(0, 1, 2)])

    def test_derivation_used_when_edges_omitted(self):
        graph = build_graph(catalog.PM_VERTICES)
        assert len(graph.hyperedges) == 6
        assert sorted(graph.edge_signs) == [-1, 1, 1, 1, 1, 1]


class TestAdmissibleTuples:
    def test_third_column_products_minus_one(self, pm_graph):
        tuples = admissible_tuples(pm_graph, catalog.PM_COLUMN_3)
        assert len(tuples) == 4
        for combo in tuples:
            assert combo[0] * combo[1] * combo[2] == -1

    def test_first_row_products_plus_one(self, pm_graph):
        tuples = admissible_tuples(pm_graph, 0)
        assert len(tuples) == 4
        for combo in tuples:
            assert combo[0] * combo[1] * combo[2] == 1

    def test_size_four_edge_has_eight(self, ghz_graph):
        for e in range(5):
            assert len(admissible_tuples(ghz_graph, e)) == 8

    def test_lexicographic_order_plus_first(self, pm_graph):
        tuples = admissible_tuples(pm_graph, 0)
        assert tuples[0] == (1, 1, 1)
        keys = [tuple(0 if x == 1 else 1 for x in combo) for combo in tuples]
        assert keys == sorted(keys)


class TestSearchAssignments:
    def test_square_unsat(self, pm_graph):
        verdict = search_assignments(pm_graph)
        assert not verdict.satisfiable
        assert verdict.witnesses == ()

    def test_pentagram_unsat(self, ghz_graph):
        verdict = search_assignments(ghz_graph)
        assert not verdict.satisfiable

    def test_single_edge_sat_with_forced_third_value(self):
        graph = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
        verdict = search_assignments(graph)
        assert verdict.satisfiable
        assert len(verdict.witnesses) == 4
        for w in verdict.witnesses:
            assert w[2] == w[0] * w[1]

    def test_witness_order_deterministic(self):
        graph = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
        verdict = search_assignments(graph)
        assert verdict.witnesses == (
            (1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1),
        )

    def test_cap(self, pm_graph):
        with pytest.raises(CapExceededError):
            search_assignments(pm_graph, cap=8)

    def test_depth_first_refuses_before_searching(self):
        leaves = []

        def leaf(values, violated):
            leaves.append(values)
            return 1

        def constraints():
            raise AssertionError("a constraint was read")
            yield

        with pytest.raises(CapExceededError, match="3 search variables exceed the cap of 2"):
            depth_first([(1, -1)] * 3, constraints(), 1, leaf, cap=2)
        assert leaves == []
        assert depth_first([(1, -1)] * 2, [], 1, leaf, cap=2) == 1
        assert len(leaves) == 4

    def test_matches_brute_force_on_both_builtins(self, pm_graph, ghz_graph):
        for graph in (pm_graph, ghz_graph):
            assert list(search_assignments(graph).witnesses) == brute_force_witnesses(graph)


class TestParityCertificate:
    def test_square_has_certificate(self, pm_graph):
        cert = parity_certificate(pm_graph)
        assert cert is not None
        assert all(d == 2 for d in cert.vertex_degrees)
        assert cert.sign_product == -1

    def test_pentagram_has_certificate(self, ghz_graph):
        cert = parity_certificate(ghz_graph)
        assert cert is not None
        assert all(d == 2 for d in cert.vertex_degrees)

    def test_single_edge_has_none(self):
        graph = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
        assert parity_certificate(graph) is None

    def test_certificate_implies_unsat(self, pm_graph, ghz_graph):
        for graph in (pm_graph, ghz_graph):
            verdict = search_assignments(graph)
            if verdict.certificate is not None:
                assert not verdict.satisfiable


@st.composite
def edge_subsets(draw):
    which = draw(st.sampled_from(["pm", "ghz"]))
    graph = catalog.peres_mermin_graph() if which == "pm" else catalog.ghz_graph()
    n_edges = len(graph.hyperedges)
    subset = draw(
        st.sets(st.integers(min_value=0, max_value=n_edges - 1), min_size=1)
    )
    return graph, sorted(subset)


class TestRandomSubgraphs:
    @given(edge_subsets())
    @settings(max_examples=40, deadline=None)
    def test_search_agrees_with_independent_enumeration(self, case):
        base, subset = case
        vertices = sorted({v for e in subset for v in base.hyperedges[e]})
        remap = {v: i for i, v in enumerate(vertices)}
        graph = build_graph(
            [base.vertices[v] for v in vertices],
            [tuple(remap[v] for v in base.hyperedges[e]) for e in subset],
        )
        verdict = search_assignments(graph)
        expected = brute_force_witnesses(graph)
        assert list(verdict.witnesses) == expected
        assert verdict.satisfiable == bool(expected)
