"""Comeasurability families held by their maximal sets, against the
materialized closures they replaced, and at the size of all Pauli words on
two and three qubits."""

import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscheck import catalog
from kscheck.graph import build_graph
from kscheck.ontology import OntologicalModel
from kscheck.operational import Measurement
from kscheck.pauli import all_commute, commutation_masks
from kscheck.realization import (
    Realization,
    classify_type,
    commuting_realization,
    edge_represents_simultaneous,
    hyperedge_realization,
    lemma_check,
)

# -- oracles: the closures and the selection product the family replaced ------


def close_family(declared, basic_labels):
    """Close under nonempty subsets and include every basic singleton."""
    family = {frozenset({label}) for label in basic_labels}
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


def maximal_members(closure):
    return {j for j in closure if not any(j < other for other in closure)}


def commuting_closure(graph, assoc):
    """The commuting family grown level by level: each level holds the label
    sets one larger whose realized vertices still commute pairwise."""
    normalized = [frozenset(a) for a in assoc]
    labels = sorted(set().union(*normalized))
    realized = {
        label: sum(1 << v for v, a in enumerate(normalized) if label in a) for label in labels
    }
    masks = commutation_masks(graph.operators)
    for label, vertices in realized.items():
        if not all_commute(masks, vertices):
            raise ValueError(f"measurement {label} realizes non-commuting vertices")
    level = [(frozenset({label}), realized[label]) for label in labels]
    family = []
    while level:
        family.extend(members for members, _ in level)
        level = [
            (members | {label}, union | realized[label])
            for members, union in level
            for label in labels
            if label > max(members) and all_commute(masks, union | realized[label])
        ]
    return frozenset(family)


def product_check(graph, assoc, closure, edge_index):
    """(ok, had_choice) by trying every choice of one label per vertex."""
    options = [sorted(assoc[v]) for v in graph.hyperedges[edge_index]]
    had_choice = any(len(o) > 1 for o in options)
    ok = any(frozenset(s) in closure for s in product(*options))
    return ok, had_choice


# -- random realizations of at most 12 labels -----------------------------------

LABEL_LIMIT = 12


@st.composite
def realizations(draw):
    """A subgraph of the square or the pentagram (2 or 3 qubits), labels
    that each realize commuting vertices (one vertex, or part of one edge),
    and a declared family over those labels."""
    base = catalog.peres_mermin_graph() if draw(st.booleans()) else catalog.ghz_graph()
    subset = sorted(draw(st.sets(st.integers(0, len(base.hyperedges) - 1), min_size=1)))
    vertices = sorted({v for e in subset for v in base.hyperedges[e]})
    remap = {v: i for i, v in enumerate(vertices)}
    graph = build_graph(
        [base.vertices[v] for v in vertices],
        [tuple(remap[v] for v in base.hyperedges[e]) for e in subset],
    )
    n = graph.n_vertices
    assoc = [set() for _ in range(n)]
    for k in range(draw(st.integers(0, LABEL_LIMIT - n))):
        edge = graph.hyperedges[draw(st.integers(0, len(graph.hyperedges) - 1))]
        for v in draw(st.sets(st.sampled_from(edge), min_size=1)):
            assoc[v].add(f"s{k}")
    for v in range(n):
        if not assoc[v] or draw(st.booleans()):
            assoc[v].add(f"p{v}")
    labels = sorted(set().union(*assoc))
    declared = draw(st.lists(st.sets(st.sampled_from(labels), max_size=5), max_size=6))
    return graph, assoc, declared


class TestFamilyAgainstClosure:
    @given(realizations(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_maximal_sets_answer_as_the_closure_did(self, case, data):
        graph, assoc, declared = case
        labels = sorted(set().union(*assoc))
        assert len(labels) <= LABEL_LIMIT
        closure = close_family(declared, labels)
        realization = Realization.build(assoc, declared)
        family = realization.comeasurable

        listed = list(family)
        assert len(listed) == len(closure) and set(listed) == closure
        assert set(family.maximal) == maximal_members(closure)
        for size in range(len(labels) + 1):
            for subset in combinations(labels, size):
                assert (frozenset(subset) in family) == (frozenset(subset) in closure)

        # equal iff the closures are: from the closure itself, and with one
        # declared set dropped
        assert Realization.build(assoc, closure).comeasurable == family
        if declared:
            drop = data.draw(st.integers(0, len(declared) - 1))
            fewer = declared[:drop] + declared[drop + 1 :]
            other = Realization.build(assoc, fewer).comeasurable
            assert (other == family) == (close_family(fewer, labels) == closure)

        basics = [Measurement(label, (("+", 1), ("-", -1))) for label in labels]
        model = OntologicalModel.from_deterministic_assignments(
            basics, declared, [dict.fromkeys(labels, "+")]
        )
        order = {label: i for i, label in enumerate(labels)}
        assert model.maximal_joints() == tuple(
            sorted(maximal_members(closure), key=lambda j: sorted(map(order.get, j)))
        )

        try:
            expected = commuting_closure(graph, assoc)
        except ValueError:
            with pytest.raises(ValueError):
                commuting_realization(graph, assoc)
            checked = [(realization, closure)]
        else:
            commuting = commuting_realization(graph, assoc)
            assert set(commuting.comeasurable) == expected
            checked = [(realization, closure), (commuting, expected)]

        for r, oracle in checked:
            for e, edge in enumerate(graph.hyperedges):
                ok, selection, had_choice = edge_represents_simultaneous(graph, r, e)
                assert (ok, had_choice) == product_check(graph, assoc, oracle, e)
                if ok:
                    assert len(selection) == len(edge)
                    assert all(label in assoc[v] for label, v in zip(selection, edge))
                    assert frozenset(selection) in r.comeasurable
                else:
                    assert selection is None


# -- every Pauli word on two and three qubits -----------------------------------


def all_words_graph(n_qubits):
    words = ["".join(w) for w in product("IXYZ", repeat=n_qubits) if set(w) != {"I"}]
    return build_graph([(w, w) for w in words])


class TestAllWords:
    # maximal commuting sets of the 4^n - 1 words are the Lagrangian
    # subspaces, prod_{k=1..n} (2^k + 1) of them: 3 * 5 and 3 * 5 * 9
    @pytest.mark.parametrize("n_qubits, n_words, count", [(2, 15, 15), (3, 63, 135)])
    def test_commuting_and_hyperedge_realizations(self, n_qubits, n_words, count):
        start = time.perf_counter()
        graph = all_words_graph(n_qubits)
        assert graph.n_vertices == n_words and len(graph.hyperedges) == count
        commuting = commuting_realization(graph, [{label} for label in graph.labels])
        hyperedge = hyperedge_realization(graph)
        for realization in (commuting, hyperedge):
            assert len(realization.comeasurable.maximal) == count
            assert classify_type(graph, realization).kind == "I"
            assert lemma_check(graph, realization).holds
        assert time.perf_counter() - start < 1.0
