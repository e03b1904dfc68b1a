"""Hypergraph construction, assignment search, parity certificates."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscheck import catalog
from kscheck import parity
from kscheck.errors import CapExceededError, InvalidGraphError
from kscheck.graph import (
    KSGraph,
    admissible_tuples,
    build_graph,
    derive_hyperedges,
    parity_certificate,
    search_assignments,
)
from kscheck.ontology import depth_first
from kscheck.parity import CHUNK_ROWS
from kscheck.pauli import LETTERS, PauliString, Phase

from dense_oracle import to_matrix

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


def depth_first_witnesses(graph):
    """The table search ``search_assignments`` ran before it solved the
    parity system: each edge checked against its admissible tuples once it
    is fully assigned."""
    constraints = [
        (edge, frozenset(admissible_tuples(graph, e))) for e, edge in enumerate(graph.hyperedges)
    ]
    witnesses = []

    def keep(values, violated):
        witnesses.append(values)
        return 1

    depth_first([(1, -1)] * graph.n_vertices, constraints, 1, keep)
    return witnesses


def set_maximal_cliques(adjacency: list[set[int]]) -> list[frozenset[int]]:
    """Bron-Kerbosch without pivoting, on vertex sets: the search
    ``derive_hyperedges`` used before its bitmask one, kept as an oracle."""
    cliques: list[frozenset[int]] = []

    def extend(clique: set[int], candidates: set[int], excluded: set[int]):
        if not candidates and not excluded:
            cliques.append(frozenset(clique))
            return
        for v in sorted(candidates):
            extend(clique | {v}, candidates & adjacency[v], excluded & adjacency[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend(set(), set(range(len(adjacency))), set())
    return cliques


def dense_hyperedges(ops):
    """``derive_hyperedges`` from the dense matrices: commutation by the
    commutator, signed identity by the matrix product."""
    matrices = [to_matrix(op) for op in ops]
    adjacency = [
        {j for j, b in enumerate(matrices) if j != i and a @ b == b @ a}
        for i, a in enumerate(matrices)
    ]
    edges = []
    for clique in set_maximal_cliques(adjacency):
        members = tuple(sorted(clique))
        if len(members) < 2:
            continue
        product_matrix = matrices[members[0]]
        for v in members[1:]:
            product_matrix = product_matrix @ matrices[v]
        factor = product_matrix.scalar_identity_factor()
        if factor is not None and factor.im == 0:
            edges.append(members)
    return tuple(sorted(edges))


def all_words(n_qubits):
    """The 4^n - 1 non-identity n-qubit words."""
    return [PauliString(Phase(0), "".join(w)) for w in product(LETTERS, repeat=n_qubits)][1:]


@st.composite
def signed_words(draw):
    n = draw(st.integers(1, 3))
    letters = st.text(alphabet=LETTERS, min_size=n, max_size=n)
    words = draw(st.lists(st.tuples(st.sampled_from((0, 2)), letters), min_size=2, max_size=10))
    return [PauliString(Phase(power), w) for power, w in words]


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

    @given(signed_words())
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_set_based_oracle(self, ops):
        assert derive_hyperedges(ops) == dense_hyperedges(ops)

    @pytest.mark.parametrize("graph_name", ["pm", "ghz"])
    def test_builtins_match_dense_oracle(self, graph_name, pm_graph, ghz_graph):
        ops = (pm_graph if graph_name == "pm" else ghz_graph).operators
        assert derive_hyperedges(ops) == dense_hyperedges(ops)

    @pytest.mark.parametrize("n_qubits, count", [(2, 15), (3, 135), (4, 2295)])
    def test_lagrangian_subspace_counts(self, n_qubits, count):
        # the maximal commuting sets of non-identity n-qubit words are the
        # Lagrangian subspaces of GF(2)^2n minus 0: prod_k (2^k + 1) of them,
        # each with 2^n - 1 words, and each multiplies to a signed identity
        edges = derive_hyperedges(all_words(n_qubits))
        assert len(edges) == count
        assert {len(e) for e in edges} == {2**n_qubits - 1}


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

    def test_rejects_repeated_vertex_in_edge(self):
        # read as (0, 1, 2) this edge would pass, but ZI*ZI*IZ*ZZ = ZI is no signed identity
        with pytest.raises(InvalidGraphError, match=r"edge \[0, 0, 1, 2\] repeats a vertex"):
            build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [[0, 1, 2], [0, 0, 1, 2]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidGraphError):
            build_graph([("a", "ZI"), ("a", "IZ"), ("c", "ZZ")], [(0, 1, 2)])

    @pytest.mark.parametrize("word", ["II", "-II"])
    def test_rejects_identity_vertex(self, word):
        with pytest.raises(
            InvalidGraphError, match=r"vertex d: [+-]II is not a two-valued hermitian observable"
        ):
            build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ"), ("d", word)], [(0, 1, 2, 3)])

    def test_rejects_non_hermitian_vertex(self):
        with pytest.raises(InvalidGraphError, match="vertex c: \\+iZZ is not a two-valued"):
            build_graph([("a", "ZI"), ("b", "IZ"), ("c", "iZZ")], [(0, 1, 2)])

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


@st.composite
def parity_systems(draw):
    """Any signs on any edges of 2-5 vertices: the search reads only the
    incidence and the signs, so the words need not multiply out."""
    n = draw(st.integers(2, 12))
    edges = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=min(5, n), unique=True).map(
                lambda e: tuple(sorted(e))
            ),
            min_size=1,
            max_size=10,
        )
    )
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(edges), max_size=len(edges)))
    vertices = tuple((f"v{i}", P("Z")) for i in range(n))
    return KSGraph(vertices, tuple(edges), tuple(signs))


def block_union(rng, blocks, drop_one_edge):
    """The blocks side by side on shuffled vertices, with one edge of each
    dropped if asked.  A square and a pentagram give 19 vertices and, with
    an edge dropped from each, 2^4 * 2^6 witnesses."""
    vertices, edges, signs = [], [], []
    for block in blocks:
        kept = list(range(len(block.hyperedges)))
        if drop_one_edge:
            kept.remove(rng.randrange(len(kept)))
        offset = len(vertices)
        vertices += [(f"{label}{offset}", op) for label, op in block.vertices]
        edges += [tuple(offset + v for v in block.hyperedges[e]) for e in kept]
        signs += [block.edge_signs[e] for e in kept]
    order = list(range(len(vertices)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    return KSGraph(
        tuple(vertices[old] for old in order),
        tuple(tuple(sorted(position[v] for v in edge)) for edge in edges),
        tuple(signs),
    )


class TestParitySystem:
    @given(parity_systems())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, graph):
        verdict = search_assignments(graph)
        expected = brute_force_witnesses(graph)
        assert list(verdict.witnesses) == expected
        assert verdict.satisfiable == bool(expected)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "blocks, count",
        [
            ((catalog.peres_mermin_graph(), catalog.ghz_graph()), 1024),
            ((catalog.peres_mermin_graph(), catalog.peres_mermin_graph()), 256),
        ],
    )
    def test_block_unions_match_table_search(self, seed, blocks, count):
        rng = random.Random(seed)
        for drop_one_edge in (True, False):
            graph = block_union(rng, blocks, drop_one_edge)
            verdict = search_assignments(graph)
            assert list(verdict.witnesses) == depth_first_witnesses(graph)
            assert len(verdict.witnesses) == (count if drop_one_edge else 0)

    @pytest.mark.parametrize("chunk", [1, 7, CHUNK_ROWS])
    def test_listing_longer_than_two_chunks_matches_table_search(self, monkeypatch, chunk):
        # four disjoint lines {ZII, IZI, IIZ, ZZZ}: 16 vertices, 2^12 witnesses
        words = ("ZII", "IZI", "IIZ", "ZZZ")
        vertices = [(f"{line}{k}", word) for line in "abcd" for k, word in enumerate(words)]
        graph = build_graph(vertices, [range(4 * line, 4 * line + 4) for line in range(4)])
        monkeypatch.setattr(parity, "CHUNK_ROWS", chunk)
        witnesses = search_assignments(graph).witnesses
        assert len(witnesses) == 2**12 > 2 * CHUNK_ROWS
        assert list(witnesses) == depth_first_witnesses(graph)

    def test_doily_is_unsat(self):
        # the 15 two-qubit words and their 15 lines (Saniga and Planat's
        # W(3,2)); no vertex has even degree, so there is no squaring certificate
        graph = build_graph([(w.letters, w) for w in all_words(2)])
        assert len(graph.hyperedges) == 15
        verdict = search_assignments(graph)
        assert not verdict.satisfiable
        assert verdict.witnesses == ()
        assert verdict.certificate is None
