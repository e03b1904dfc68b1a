"""Vertex-to-measurement associations and what they can prove.

A realization maps each graph vertex to one or more measurement labels and
declares which measurement sets are comeasurable.  Comeasurability is
physical data: it is never inferred from commutation (the helper
``commuting_realization`` exists precisely to build the one family where
the two are stipulated to coincide).

Classification counts the hyperedges that fail to represent simultaneous
measurements: none (type I), exactly one (type II, salvageable by
preparing a common eigenstate of the failing edge), or more (type III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .errors import BadArgumentError, CapExceededError
from .graph import KSGraph
from .operational import OUTCOME_MINUS, OUTCOME_PLUS, from_quantum, support
from .quantum import DensityOperator, born_probability, is_operational_eigenstate

SWEEP_POOL_LIMIT = 12
SWEEP_ASSOC_LIMIT = 2


@dataclass
class Realization:
    """Association of vertices with measurement label sets.

    ``function_tags`` optionally names which function of a shared
    measurement realizes a given vertex (the f_i of a collapsed edge).
    ``comeasurable`` is closed under nonempty subsets and always contains
    every singleton.
    """

    assoc: tuple[frozenset[str], ...]
    comeasurable: frozenset[frozenset[str]]
    function_tags: dict[tuple[int, str], str] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        assoc: Sequence[Iterable[str]],
        comeasurable: Iterable[Iterable[str]] = (),
        function_tags: Mapping[tuple[int, str], str] | None = None,
    ) -> "Realization":
        normalized = tuple(frozenset(a) for a in assoc)
        if any(not a for a in normalized):
            raise ValueError("every vertex needs at least one measurement")
        labels = set().union(*normalized)
        family: set[frozenset[str]] = {frozenset({label}) for label in labels}
        for raw in comeasurable:
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
        return cls(normalized, frozenset(family), dict(function_tags or {}))

    @property
    def measurement_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*self.assoc)))

    def vertices_of(self, label: str) -> tuple[int, ...]:
        return tuple(v for v, a in enumerate(self.assoc) if label in a)


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


def _edge_selections(graph: KSGraph, realization: Realization, edge_index: int):
    options = [sorted(realization.assoc[v]) for v in graph.hyperedges[edge_index]]
    return product(*options)


def edge_represents_simultaneous(
    graph: KSGraph, realization: Realization, edge_index: int
) -> tuple[bool, tuple[str, ...] | None, bool]:
    """Whether some choice of one measurement per vertex is comeasurable.

    Returns (ok, a witnessing selection or None, whether a choice among
    multiple associations was involved).
    """
    had_choice = any(len(realization.assoc[v]) > 1 for v in graph.hyperedges[edge_index])
    for selection in _edge_selections(graph, realization, edge_index):
        if frozenset(selection) in realization.comeasurable:
            return (True, tuple(selection), had_choice)
    return (False, None, had_choice)


@dataclass(frozen=True)
class ArgumentType:
    """Classification by how many edges fail to be comeasurable."""

    kind: str  # "I", "II" or "III"
    non_comeasurable_edges: tuple[int, ...]
    choice_flagged_edges: tuple[int, ...] = ()

    def __post_init__(self):
        count = len(self.non_comeasurable_edges)
        expected = "I" if count == 0 else ("II" if count == 1 else "III")
        if self.kind != expected:
            raise ValueError(f"kind {self.kind} inconsistent with {count} flagged edges")


def classify_type(graph: KSGraph, realization: Realization) -> ArgumentType:
    """Type I/II/III according to the edges not representing simultaneous
    measurements (existential over per-vertex measurement choices)."""
    failing = []
    flagged = []
    for e_idx in range(len(graph.hyperedges)):
        ok, _, had_choice = edge_represents_simultaneous(graph, realization, e_idx)
        if not ok:
            failing.append(e_idx)
        elif had_choice:
            flagged.append(e_idx)
    count = len(failing)
    kind = "I" if count == 0 else ("II" if count == 1 else "III")
    return ArgumentType(kind, tuple(failing), tuple(flagged))


# -- the Lemma ----------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
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
    edges that also lie on a second edge (the proof's pivot vertices).
    """
    based, based_edges = is_hyperedge_based(graph, realization)
    all_ok = all(
        edge_represents_simultaneous(graph, realization, e)[0]
        for e in range(len(graph.hyperedges))
    )
    antecedent = based and all_ok
    unique = is_unique(realization)
    singly = is_singly_associated(realization)
    witnesses: tuple[int, ...] = ()
    if antecedent:
        pivot = []
        for e_idx in based_edges:
            for v in graph.hyperedges[e_idx]:
                if graph.vertex_degree(v) >= 2 and v not in pivot:
                    pivot.append(v)
        witnesses = tuple(pivot)
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


def commuting_realization(
    graph: KSGraph, assoc: Sequence[Iterable[str]]
) -> Realization:
    """Build a realization whose comeasurability family is exactly the
    commuting one: a set of measurements is comeasurable iff the union of
    the vertices they realize is mutually commuting.

    Every measurement must itself realize a mutually commuting vertex set.
    """
    normalized = [frozenset(a) for a in assoc]
    labels = sorted(set().union(*normalized))
    if len(labels) > 16:
        raise CapExceededError("commuting family materialization capped at 16 labels")
    realized: dict[str, frozenset[int]] = {
        label: frozenset(
            v for v, a in enumerate(normalized) if label in a
        )
        for label in labels
    }
    ops = graph.operators

    def vertex_set_commutes(vertices: frozenset[int]) -> bool:
        items = sorted(vertices)
        return all(
            ops[a].commutes(ops[b]) for a, b in combinations(items, 2)
        )

    for label, vertices in realized.items():
        if not vertex_set_commutes(vertices):
            raise ValueError(
                f"measurement {label} realizes non-commuting vertices {sorted(vertices)}"
            )

    family: list[frozenset[str]] = []
    level = [frozenset({label}) for label in labels]
    family.extend(level)
    while level:
        nxt = []
        for members in level:
            last = max(members)
            for label in labels:
                if label <= last:
                    continue
                candidate = members | {label}
                union = frozenset().union(*(realized[m] for m in candidate))
                if vertex_set_commutes(union):
                    nxt.append(candidate)
        family.extend(nxt)
        level = nxt
    return Realization.build(normalized, family)


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


@dataclass(frozen=True)
class CollapseResult:
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
    family = set(realization.comeasurable)
    family.add(frozenset({label}))
    new = Realization.build(assoc, family, tags)
    multi = tuple(v for v in edge if len(new.assoc[v]) >= 2)
    return CollapseResult(realization=new, label=label, multi_associated=multi)


# -- exhaustive Lemma sweep ----------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    n_realizations: int
    n_hyperedge_based: int
    n_antecedent: int
    n_antecedent_and_unique: int
    n_antecedent_and_singly_associated: int
    collapse_patterns: int
    pool_limit: int
    assoc_limit: int

    @property
    def lemma_confirmed(self) -> bool:
        return (
            self.n_antecedent_and_unique == 0
            and self.n_antecedent_and_singly_associated == 0
        )


def enumerate_lemma_sweep(
    graph: KSGraph,
    pool_limit: int = SWEEP_POOL_LIMIT,
    assoc_limit: int = SWEEP_ASSOC_LIMIT,
) -> SweepReport:
    """Exhaust collapse-structured realizations with comeasurable set equal
    to commuting, and count Lemma counterexamples (there must be none).

    The domain: choose a subset of edges to collapse onto fresh shared
    measurements; vertices on no collapsed edge get a private measurement;
    vertices on exactly one collapsed edge optionally keep a private
    measurement as well (association size stays within ``assoc_limit``).
    Realizations needing more than ``pool_limit`` distinct measurements are
    skipped.  Comeasurability is induced: a measurement set is comeasurable
    iff the union of realized vertices is mutually commuting.
    """
    n = graph.n_vertices
    edges = graph.hyperedges
    if n > 12 or len(edges) > 10:
        raise CapExceededError("lemma sweep is sized for PM-scale graphs")

    ops = graph.operators
    commute_mask = []
    for v in range(n):
        mask = 1 << v
        for u in range(n):
            if u != v and ops[v].commutes(ops[u]):
                mask |= 1 << u
        commute_mask.append(mask)

    def mutually_commuting(mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if mask & ~commute_mask[v]:
                return False
            rest ^= low
        return True

    edge_masks = [sum(1 << v for v in edge) for edge in edges]

    n_realizations = 0
    n_based = 0
    n_antecedent = 0
    n_antecedent_unique = 0
    n_antecedent_singly = 0
    patterns = 0

    for pattern in range(1 << len(edges)):
        collapsed = [e for e in range(len(edges)) if pattern >> e & 1]
        patterns += 1
        cover = [0] * n
        for e in collapsed:
            for v in edges[e]:
                cover[v] += 1
        if any(c > assoc_limit for c in cover):
            continue
        # vertices free to carry an extra private measurement
        optional = [v for v in range(n) if cover[v] == 1] if assoc_limit >= 2 else []
        forced_private = [v for v in range(n) if cover[v] == 0]

        for extras in range(1 << len(optional)):
            private = set(forced_private)
            private.update(
                optional[k] for k in range(len(optional)) if extras >> k & 1
            )
            pool = len(collapsed) + len(private)
            if pool > pool_limit:
                continue
            n_realizations += 1

            # measurement -> realized vertex mask
            meas_masks = [edge_masks[e] for e in collapsed] + [
                1 << v for v in sorted(private)
            ]
            # per-vertex options as indices into meas_masks
            options: list[list[int]] = [[] for _ in range(n)]
            for m_idx, e in enumerate(collapsed):
                for v in edges[e]:
                    options[v].append(m_idx)
            for k, v in enumerate(sorted(private)):
                options[v].append(len(collapsed) + k)

            based = bool(collapsed)
            if based:
                n_based += 1

            all_comeasurable = True
            for e_idx, edge in enumerate(edges):
                edge_ok = False
                for selection in product(*(options[v] for v in edge)):
                    union = 0
                    for m_idx in set(selection):
                        union |= meas_masks[m_idx]
                    if mutually_commuting(union):
                        edge_ok = True
                        break
                if not edge_ok:
                    all_comeasurable = False
                    break

            if based and all_comeasurable:
                n_antecedent += 1
                singly = all(len(o) == 1 for o in options)
                if singly:
                    n_antecedent_singly += 1
                    used = [o[0] for o in options]
                    if len(set(used)) == n:
                        n_antecedent_unique += 1

    return SweepReport(
        n_realizations=n_realizations,
        n_hyperedge_based=n_based,
        n_antecedent=n_antecedent,
        n_antecedent_and_unique=n_antecedent_unique,
        n_antecedent_and_singly_associated=n_antecedent_singly,
        collapse_patterns=patterns,
        pool_limit=pool_limit,
        assoc_limit=assoc_limit,
    )


# -- the state-dependent (type II) pipeline -------------------------------------


@dataclass(frozen=True)
class Type2Result:
    satisfiable: bool
    pinned_edge: int
    pinned_tuple: tuple[int, ...]
    eigenstate_verified: bool
    witness: tuple[int, ...] | None
    sign_flipped: bool


def run_type2_argument(
    graph: KSGraph,
    realization: Realization,
    eigenstate_tuple: Sequence[int],
    flip_sign: bool = False,
) -> Type2Result:
    """Run the state-dependent no-go pipeline on a type II realization.

    (1) Prepare the common eigenstate of the one non-comeasurable edge
    selected by ``eigenstate_tuple`` and verify it operationally fixes that
    edge's outcomes.  (2) Build the Born-rule operational theory on the
    comeasurable edges.  (3) Search value assignments with the eigenstate
    outcomes pinned and every comeasurable edge constrained to its support.
    UNSAT means the argument succeeds.

    ``flip_sign`` is a sanity control: it treats the pinned edge's sign as
    inverted (no eigenstate exists for that, so step 1 is skipped) and must
    make the search satisfiable.
    """
    kind = classify_type(graph, realization)
    if kind.kind != "II":
        raise BadArgumentError(
            f"realization is type {kind.kind}, not II "
            f"(non-comeasurable edges: {kind.non_comeasurable_edges})"
        )
    pinned_edge = kind.non_comeasurable_edges[0]
    edge = graph.hyperedges[pinned_edge]
    pinned = tuple(int(v) for v in eigenstate_tuple)
    if len(pinned) != len(edge) or any(v not in (1, -1) for v in pinned):
        raise BadArgumentError(f"need a ±1 tuple of length {len(edge)}")
    sign = graph.edge_signs[pinned_edge]
    target = -sign if flip_sign else sign
    prod = 1
    for v in pinned:
        prod *= v
    if prod != target:
        raise BadArgumentError(
            f"tuple {pinned} has product {prod}, not admissible for sign {target}"
        )

    states: dict[str, DensityOperator] = {
        "mixed": DensityOperator.maximally_mixed(2 ** graph.operators[0].n_qubits)
    }
    eigenstate_verified = False
    if not flip_sign:
        rho = DensityOperator.from_eigenspace(graph.edge_operators(pinned_edge), pinned)
        if not is_operational_eigenstate(rho, graph.edge_operators(pinned_edge)):
            raise BadArgumentError("selected preparation is not an operational eigenstate")
        for op, value in zip(graph.edge_operators(pinned_edge), pinned):
            if abs(float(born_probability(rho, op, value)) - 1.0) > 1e-10:
                raise BadArgumentError("eigenstate fails to fix a pinned outcome")
        eigenstate_verified = True
        states["pinned"] = rho

    theory = from_quantum(graph, states, realization)
    label_of = [next(iter(realization.assoc[v])) for v in range(graph.n_vertices)]
    value_of = {OUTCOME_PLUS: 1, OUTCOME_MINUS: -1}

    constraints: list[tuple[tuple[int, ...], frozenset[tuple[int, ...]]]] = []
    for e_idx, members in enumerate(graph.hyperedges):
        if e_idx == pinned_edge:
            continue
        joint = frozenset(label_of[v] for v in members)
        allowed = support(theory, joint)
        order = theory.component_order(joint)
        vertex_order = tuple(sorted(members, key=lambda v: order.index(label_of[v])))
        allowed_values = frozenset(
            tuple(value_of[o] for o in combo) for combo in allowed
        )
        constraints.append((vertex_order, allowed_values))

    values: dict[int, int] = {v: value for v, value in zip(edge, pinned)}
    free = [v for v in range(graph.n_vertices) if v not in values]

    completes_at: dict[int, list[int]] = {v: [] for v in free}
    immediate: list[int] = []
    for c_idx, (vertex_order, _) in enumerate(constraints):
        pending = [v for v in vertex_order if v in completes_at]
        if pending:
            completes_at[max(pending)].append(c_idx)
        else:
            immediate.append(c_idx)

    for c_idx in immediate:
        vertex_order, allowed = constraints[c_idx]
        if tuple(values[v] for v in vertex_order) not in allowed:
            return Type2Result(
                satisfiable=False,
                pinned_edge=pinned_edge,
                pinned_tuple=pinned,
                eigenstate_verified=eigenstate_verified,
                witness=None,
                sign_flipped=flip_sign,
            )

    witness: tuple[int, ...] | None = None

    def extend(position: int) -> bool:
        nonlocal witness
        if position == len(free):
            witness = tuple(values[v] for v in range(graph.n_vertices))
            return True
        v = free[position]
        for val in (1, -1):
            values[v] = val
            ok = True
            for c_idx in completes_at[v]:
                vertex_order, allowed = constraints[c_idx]
                if tuple(values[u] for u in vertex_order) not in allowed:
                    ok = False
                    break
            if ok and extend(position + 1):
                return True
        del values[v]
        return False

    satisfiable = extend(0)
    return Type2Result(
        satisfiable=satisfiable,
        pinned_edge=pinned_edge,
        pinned_tuple=pinned,
        eigenstate_verified=eigenstate_verified,
        witness=witness,
        sign_flipped=flip_sign,
    )
