"""Vertex-to-measurement associations and what they can prove.

A realization maps each graph vertex to one or more measurement labels and
declares which measurement sets are comeasurable.  The ``Realization``
class lives in ``operational``, so a scenario file can carry one without
loading this module; it is re-exported here.  Comeasurability is
physical data: it is never inferred from commutation (the helper
``commuting_realization`` exists precisely to build the one family where
the two are stipulated to coincide).

Classification counts the hyperedges that fail to represent simultaneous
measurements: none (type I), exactly one (type II, salvageable by
preparing a common eigenstate of the failing edge), or more (type III).
The uniqueness lemma is evaluated on one realization by ``lemma_check``
and decided on the whole graph by ``lemma_pivots``, which names a pivot
certificate for every edge that rules the lemma's counterexample out.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import SEARCH_CAP, BadArgumentError, check_cap
from .graph import KSGraph, _maximal_cliques
from .operational import Realization, differs, quantum_joints
from .parity import bits, first_solution
from .pauli import all_commute, commutation_masks
from .values import Frozen


def is_unique(realization: Realization) -> bool:
    """Singleton association per vertex and distinct measurements across
    vertices."""
    if any(len(a) != 1 for a in realization.assoc):
        return False
    labels = [next(iter(a)) for a in realization.assoc]
    return len(set(labels)) == len(labels)


def is_singly_associated(realization: Realization) -> bool:
    """The weaker reading: each vertex carries exactly one measurement
    (shared labels allowed)."""
    return all(len(a) == 1 for a in realization.assoc)


def is_hyperedge_based(
    graph: KSGraph, realization: Realization
) -> tuple[bool, tuple[int, ...]]:
    """Edges realized by (functions of) one single measurement."""
    edges = []
    for e_idx, edge in enumerate(graph.hyperedges):
        shared = frozenset.intersection(*(realization.assoc[v] for v in edge))
        if shared:
            edges.append(e_idx)
    return (bool(edges), tuple(edges))


def _simultaneous(graph: KSGraph, realization: Realization) -> list[bool]:
    """Per edge, whether some choice of one measurement per vertex is
    comeasurable: whether one maximal comeasurable set meets every vertex's
    association.  A vertex's mask holds the maximal sets its association
    meets, and an edge's is the AND of its vertices' masks."""
    holding = realization.comeasurable.holding
    meets = [reduce(or_, (holding((label,)) for label in a), 0) for a in realization.assoc]
    return [reduce(and_, map(meets.__getitem__, edge)) != 0 for edge in graph.hyperedges]


class ArgumentType(Frozen):
    """Classification by how many edges fail to be comeasurable."""

    _fields = ("kind", "non_comeasurable_edges", "choice_flagged_edges")

    def __init__(
        self,
        kind: str,  # "I", "II" or "III"
        non_comeasurable_edges: tuple[int, ...],
        choice_flagged_edges: tuple[int, ...] = (),
    ):
        count = len(non_comeasurable_edges)
        expected = "I" if count == 0 else ("II" if count == 1 else "III")
        if kind != expected:
            raise ValueError(f"kind {kind} inconsistent with {count} flagged edges")
        self._set(kind, non_comeasurable_edges, choice_flagged_edges)


def classify_type(graph: KSGraph, realization: Realization) -> ArgumentType:
    """Type I/II/III according to the edges not representing simultaneous
    measurements (existential over per-vertex measurement choices), all
    decided in one pass over the family's label index (``_simultaneous``)."""
    failing = []
    flagged = []
    simultaneous = _simultaneous(graph, realization)
    for e_idx, (edge, ok) in enumerate(zip(graph.hyperedges, simultaneous)):
        if not ok:
            failing.append(e_idx)
        elif any(len(realization.assoc[v]) > 1 for v in edge):
            flagged.append(e_idx)
    count = len(failing)
    kind = "I" if count == 0 else ("II" if count == 1 else "III")
    return ArgumentType(kind, tuple(failing), tuple(flagged))


# -- the Lemma ----------------------------------------------------------------


class LemmaCheck(NamedTuple):
    hyperedge_based: bool
    hyperedge_based_edges: tuple[int, ...]
    all_edges_comeasurable: bool
    antecedent: bool
    unique: bool
    singly_associated: bool
    holds: bool
    holds_strict: bool
    witnesses: tuple[int, ...]


def lemma_check(graph: KSGraph, realization: Realization) -> LemmaCheck:
    """Evaluate: (hyperedge-based and every edge comeasurable) implies
    not unique.

    ``holds`` uses uniqueness as singleton-plus-injective association;
    ``holds_strict`` uses the singleton reading alone, which is what the
    underlying proof concludes for intersection vertices.  When the
    antecedent holds, ``witnesses`` lists the vertices of single-measurement
    edges that also lie on a second edge (the proof's intersection
    vertices).
    """
    based, based_edges = is_hyperedge_based(graph, realization)
    all_ok = all(_simultaneous(graph, realization))
    antecedent = based and all_ok
    unique = is_unique(realization)
    singly = is_singly_associated(realization)
    witnesses: tuple[int, ...] = ()
    if antecedent:
        degree = Counter(v for edge in graph.hyperedges for v in edge)
        crossing = (v for e in based_edges for v in graph.hyperedges[e] if degree[v] >= 2)
        witnesses = tuple(dict.fromkeys(crossing))
    return LemmaCheck(
        hyperedge_based=based,
        hyperedge_based_edges=based_edges,
        all_edges_comeasurable=all_ok,
        antecedent=antecedent,
        unique=unique,
        singly_associated=singly,
        holds=not (antecedent and unique),
        holds_strict=not (antecedent and singly),
        witnesses=witnesses,
    )


def lemma_pivots(graph: KSGraph) -> tuple[tuple[int, int] | None, ...]:
    """Each edge's first pivot, in edge order, or None for an edge with none.

    A pivot of edge c is a pair (v, e'): a vertex v of c and another edge e'
    through v whose union with c does not commute.  Vertices are scanned in
    c's order, the edges through each in edge order.  Some singly-associated
    realization with commuting comeasurable sets meets the lemma's
    antecedent iff some edge has no pivot, so the singleton reading of the
    lemma holds on the graph iff None is not in the result.

    If c has no pivot, collapse c alone and give every other vertex a
    private measurement: each edge meeting c needs its union with c to
    commute, which it does, and every other edge commutes by itself.
    Conversely, any collapsed edge of such a realization works alone,
    because a subset of a commuting set commutes.
    """
    masks = commutation_masks(graph.operators)
    edge_masks = [sum(1 << v for v in edge) for edge in graph.hyperedges]
    through: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for e, edge in enumerate(graph.hyperedges):
        for v in edge:
            through[v].append(e)
    return tuple(
        next(
            (
                (v, other)
                for v in edge
                for other in through[v]
                if other != c and not all_commute(masks, edge_masks[c] | edge_masks[other])
            ),
            None,
        )
        for c, edge in enumerate(graph.hyperedges)
    )


def commuting_realization(
    graph: KSGraph, assoc: Sequence[Iterable[str]]
) -> Realization:
    """Build a realization whose comeasurability family is exactly the
    commuting one: a set of measurements is comeasurable iff the union of
    the vertices they realize is mutually commuting.

    Every measurement must itself realize a mutually commuting vertex set.
    Commutation is pairwise, so the maximal sets are the maximal cliques of
    labels whose realized vertices commute together.
    """
    normalized = [frozenset(a) for a in assoc]
    labels = sorted(set().union(*normalized))
    masks = commutation_masks(graph.operators)
    # per label: the vertices it realizes, and those commuting with all of them
    realized = [sum(1 << v for v, a in enumerate(normalized) if label in a) for label in labels]
    near = [reduce(and_, map(masks.__getitem__, bits(vertices))) for vertices in realized]
    for label, vertices, common in zip(labels, realized, near):
        if vertices & ~common:
            members = list(bits(vertices))
            raise ValueError(f"measurement {label} realizes non-commuting vertices {members}")
    adjacency = [
        sum(1 << j for j, other in enumerate(realized) if j != i and not other & ~common)
        for i, common in enumerate(near)
    ]
    cliques = [[labels[i] for i in bits(clique)] for clique in _maximal_cliques(adjacency)]
    return Realization.build(normalized, cliques)


def hyperedge_realization(graph: KSGraph, prefix: str = "b") -> Realization:
    """The maximally hyperedge-based realization: one fresh measurement
    per edge, each vertex realized by the measurements of its edges."""
    edge_labels = [f"{prefix}{e}" for e in range(len(graph.hyperedges))]
    assoc = [
        {edge_labels[e] for e, edge in enumerate(graph.hyperedges) if v in edge}
        for v in range(graph.n_vertices)
    ]
    tags = {}
    for e, edge in enumerate(graph.hyperedges):
        for k, v in enumerate(edge):
            tags[(v, edge_labels[e])] = f"f{k + 1}"
    base = commuting_realization(graph, assoc)
    return Realization(base.assoc, base.comeasurable, tags)


class CollapseResult(NamedTuple):
    realization: Realization
    label: str
    multi_associated: tuple[int, ...]


def collapse_edge(
    graph: KSGraph,
    realization: Realization,
    edge_index: int,
    label: str | None = None,
) -> CollapseResult:
    """Realize one edge by functions of a single fresh measurement.

    The edge's vertices gain the new measurement (existing associations
    are kept), with distinct function tags recording which function of it
    realizes each vertex.  ``multi_associated`` lists the vertices that now
    carry more than one measurement, the burden a non-unique argument must
    discharge with an extra assumption.
    """
    if not 0 <= edge_index < len(graph.hyperedges):
        raise BadArgumentError(f"no edge with index {edge_index}")
    existing = set().union(*realization.assoc)
    if label is None:
        base = f"b{edge_index}"
        label = base
        bump = 0
        while label in existing:
            bump += 1
            label = f"{base}_{bump}"
    elif label in existing:
        raise BadArgumentError(f"measurement label {label!r} already in use")

    edge = graph.hyperedges[edge_index]
    assoc = [set(a) for a in realization.assoc]
    tags = dict(realization.function_tags)
    for k, v in enumerate(edge):
        assoc[v].add(label)
        tags[(v, label)] = f"f{k + 1}"
    # the fresh label is a singleton member: every carried label is one
    new = Realization.build(assoc, realization.comeasurable.maximal, tags)
    multi = tuple(v for v in edge if len(new.assoc[v]) >= 2)
    return CollapseResult(realization=new, label=label, multi_associated=multi)


# -- the state-dependent (type II) pipeline -------------------------------------


class Type2Result(NamedTuple):
    satisfiable: bool
    pinned_edge: int
    pinned_tuple: tuple[int, ...]
    eigenstate_verified: bool
    witness: tuple[int, ...] | None
    sign_flipped: bool


def run_type2_argument(
    graph: KSGraph,
    realization: Realization,
    eigenstate_tuple: Sequence[int] | None = None,
    flip_sign: bool = False,
    cap: int = SEARCH_CAP,
) -> Type2Result:
    """Run the state-dependent no-go pipeline on a type II realization.

    (1) Prepare the common eigenstate of the one non-comeasurable edge
    selected by ``eigenstate_tuple`` and verify it operationally fixes that
    edge's outcomes.  (2) Take each comeasurable edge's support as the
    tuples meeting its multiplicative relations (``edge_relations``), as
    the always preparable maximally mixed state allows.  (3) Solve over
    GF(2) with one unit row per pinned vertex and one row per relation of
    every other edge; the witness is ``parity.first_solution`` (+1 before -1).
    UNSAT means the argument succeeds.

    ``eigenstate_tuple`` defaults to all +1, with the last value -1 when
    the target sign is -1.  ``flip_sign`` is a sanity control: it treats
    the pinned edge's sign as inverted (no eigenstate exists for that, so
    step 1 is skipped) and must make the search satisfiable.
    """
    from .quantum import born_probability, edge_relations, is_operational_eigenstate
    from .state import DensityOperator

    kind = classify_type(graph, realization)
    if kind.kind != "II":
        raise BadArgumentError(
            f"realization is type {kind.kind}, not II "
            f"(non-comeasurable edges: {kind.non_comeasurable_edges})"
        )
    # before the eigenstate, whose checks grow as 2^(edge size)
    check_cap(graph.n_vertices, cap)
    pinned_edge = kind.non_comeasurable_edges[0]
    edge = graph.hyperedges[pinned_edge]
    sign = graph.edge_signs[pinned_edge]
    target = -sign if flip_sign else sign
    if eigenstate_tuple is None:
        eigenstate_tuple = (1,) * (len(edge) - 1) + (target,)
    pinned = tuple(int(v) for v in eigenstate_tuple)
    if len(pinned) != len(edge) or any(v not in (1, -1) for v in pinned):
        raise BadArgumentError(f"need a ±1 tuple of length {len(edge)}")
    if prod(pinned) != target:
        raise BadArgumentError(
            f"tuple {pinned} has product {prod(pinned)}, not admissible for sign {target}"
        )

    # the search needs no tables, but the realization must admit them
    quantum_joints(graph, realization)

    def relation_rows(e_idx: int):
        # edge_relations puts operator k at bit m-1-k of a subset
        members = graph.hyperedges[e_idx][::-1]
        for subset, bit in edge_relations(graph.edge_operators(e_idx)):
            yield sum(1 << members[k] for k in bits(subset)), bit

    eigenstate_verified = False
    if not flip_sign:
        minus = sum(1 << v for v, value in zip(edge, pinned) if value == -1)
        broken = [
            (row, bit)
            for row, bit in relation_rows(pinned_edge)
            if (row & minus).bit_count() % 2 != bit
        ]
        if broken:
            row, bit = min(broken)
            names = "*".join(graph.vertices[v][0] for v in bits(row))
            raise BadArgumentError(
                f"tuple {pinned} breaks the pinned edge's relation "
                f"{names} = {'-' if bit else '+'}I: no state gives these outcomes"
            )
        rho = DensityOperator.from_eigenspace(graph.edge_operators(pinned_edge), pinned)
        if not is_operational_eigenstate(rho, graph.edge_operators(pinned_edge)):
            raise BadArgumentError("selected preparation is not an operational eigenstate")
        for op, value in zip(graph.edge_operators(pinned_edge), pinned):
            if differs(born_probability(rho, op, value), 1):
                raise BadArgumentError("eigenstate fails to fix a pinned outcome")
        eigenstate_verified = True

    rows = [(1 << v, int(value < 0)) for v, value in zip(edge, pinned)]
    for e_idx in range(len(graph.hyperedges)):
        if e_idx != pinned_edge:
            rows.extend(relation_rows(e_idx))
    witness = first_solution(graph.n_vertices, rows)
    return Type2Result(
        satisfiable=witness is not None,
        pinned_edge=pinned_edge,
        pinned_tuple=pinned,
        eigenstate_verified=eigenstate_verified,
        witness=witness,
        sign_flipped=flip_sign,
    )
