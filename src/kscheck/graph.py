"""KS hypergraphs, FUNC-constrained value assignments and certificates.

Vertices carry self-adjoint Pauli words; hyperedges are mutually commuting
subsets whose ordered product is a signed identity.  A value assignment
puts ±1 on every vertex; it is admissible when the values on every edge
multiply to that edge's sign: one row each of a GF(2) system, which
``search_assignments`` solves with ``parity``.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable, NamedTuple, Sequence

from . import parity, pauli
from .errors import SEARCH_CAP, InvalidGraphError, check_cap
from .pauli import PauliString
from .values import Frozen

# A total assignment of ±1 values, aligned with the graph's vertex order.
ValueAssignment = tuple[int, ...]


class KSGraph(Frozen):
    """Labelled operators plus validated hyperedges and their signs."""

    _fields = ("vertices", "hyperedges", "edge_signs")

    def __init__(
        self,
        vertices: tuple[tuple[str, PauliString], ...],
        hyperedges: tuple[tuple[int, ...], ...],
        edge_signs: tuple[int, ...],
    ):
        self._set(vertices, hyperedges, edge_signs)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.vertices)

    @property
    def operators(self) -> tuple[PauliString, ...]:
        return tuple(op for _, op in self.vertices)

    def edge_operators(self, edge_index: int) -> tuple[PauliString, ...]:
        return tuple(self.vertices[v][1] for v in self.hyperedges[edge_index])

    def edge_labels(self, edge_index: int) -> tuple[str, ...]:
        return tuple(self.vertices[v][0] for v in self.hyperedges[edge_index])

    def vertex_degree(self, vertex: int) -> int:
        return sum(1 for edge in self.hyperedges if vertex in edge)

    def index_of(self, label: str) -> int:
        for i, (name, _) in enumerate(self.vertices):
            if name == label:
                return i
        raise KeyError(label)


class ParityCertificate(NamedTuple):
    """UNSAT proof by squaring: every vertex has even edge-incidence, so
    the product of all edge constraints is identically +1, while the
    product of the edge signs is -1."""

    vertex_degrees: tuple[int, ...]
    sign_product: int

    def explanation(self) -> str:
        return (
            "every vertex lies on an even number of edges, so multiplying "
            "all edge constraints squares every value away and forces the "
            f"product of edge signs to be +1; it is {self.sign_product}"
        )


class TheoremVerdict(NamedTuple):
    satisfiable: bool
    witnesses: tuple[ValueAssignment, ...]
    certificate: ParityCertificate | None


def _maximal_cliques(adjacency: Sequence[int]) -> list[int]:
    """Maximal cliques as vertex masks, by Bron-Kerbosch with Tomita pivoting.

    ``adjacency[v]`` is the mask of v's neighbours, v excluded.  The pivot is
    the vertex of candidates | excluded with the most candidate neighbours;
    only candidates outside its neighbourhood start a branch, since every
    maximal clique holds the pivot or a vertex it is not adjacent to
    (Tomita, Tanaka and Takahashi, TCS 363, 2006).
    """
    cliques: list[int] = []

    def extend(clique: int, candidates: int, excluded: int):
        if not candidates:
            if not excluded:
                cliques.append(clique)
            return
        pivot = max(
            parity.bits(candidates | excluded),
            key=lambda u: (candidates & adjacency[u]).bit_count(),
        )
        for v in parity.bits(candidates & ~adjacency[pivot]):
            extend(clique | 1 << v, candidates & adjacency[v], excluded & adjacency[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    extend(0, (1 << len(adjacency)) - 1, 0)
    return cliques


def derive_hyperedges(operators: Sequence[PauliString]) -> tuple[tuple[int, ...], ...]:
    """Maximal mutually commuting subsets that qualify as hyperedges.

    A clique qualifies only when it has at least two members and its
    ordered operator product is a signed identity (otherwise it cannot
    carry a FUNC product constraint).  Output is deterministic:
    each edge sorted by vertex index, edges sorted lexicographically.
    """
    ops = list(operators)
    if len(ops) < 2:
        raise ValueError("need at least two operators")
    masks = pauli.commutation_masks(ops)
    adjacency = [mask & ~(1 << v) for v, mask in enumerate(masks)]
    edges = []
    for clique in _maximal_cliques(adjacency):
        members = tuple(parity.bits(clique))
        if len(members) < 2:
            continue
        try:
            pauli.edge_product([ops[v] for v in members])
        except ValueError:
            continue
        edges.append(members)
    return tuple(sorted(edges))


def build_graph(
    vertices: Iterable[tuple[str, PauliString | str]],
    hyperedges: Iterable[Iterable[int]] | None = None,
) -> KSGraph:
    """Validate and assemble a KSGraph.

    When ``hyperedges`` is omitted they are derived as the maximal
    commuting subsets with signed-identity products.  Declared edges may
    be any subset of those (figures often fix specific edges); each is
    checked individually for commutation and a ±identity product.
    """
    parsed: list[tuple[str, PauliString]] = []
    for label, op in vertices:
        if isinstance(op, str):
            op = PauliString.parse(op)
        parsed.append((label, op))
    if not parsed:
        raise InvalidGraphError("graph needs at least one vertex")
    labels = [label for label, _ in parsed]
    if len(set(labels)) != len(labels):
        raise InvalidGraphError("vertex labels must be distinct")
    n = parsed[0][1].n_qubits
    for label, op in parsed:
        if op.n_qubits != n:
            raise InvalidGraphError(f"vertex {label}: expected {n} qubits")
        try:
            pauli.check_two_valued(op)
        except ValueError as exc:
            raise InvalidGraphError(f"vertex {label}: {exc}") from exc

    if hyperedges is None:
        try:
            edges = derive_hyperedges([op for _, op in parsed])
        except ValueError as exc:
            raise InvalidGraphError(str(exc)) from exc
    else:
        edges = []
        for raw in hyperedges:
            given = list(raw)
            members = tuple(sorted(set(given)))
            if len(members) != len(given):
                raise InvalidGraphError(f"edge {raw!r} repeats a vertex")
            if len(members) < 2:
                raise InvalidGraphError(f"edge {raw!r} has fewer than two vertices")
            if members[0] < 0 or members[-1] >= len(parsed):
                raise InvalidGraphError(f"edge {raw!r} has out-of-range vertices")
            edges.append(members)
        edges = tuple(edges)

    signs = []
    for members in edges:
        ops = [parsed[v][1] for v in members]
        try:
            signs.append(pauli.edge_product(ops))
        except ValueError as exc:
            names = ", ".join(parsed[v][0] for v in members)
            raise InvalidGraphError(f"edge {{{names}}}: {exc}") from exc

    covered = {v for members in edges for v in members}
    isolated = [parsed[v][0] for v in range(len(parsed)) if v not in covered]
    if isolated:
        raise InvalidGraphError(f"isolated vertices: {', '.join(isolated)}")

    return KSGraph(tuple(parsed), tuple(edges), tuple(signs))


def admissible_tuples(graph: KSGraph, edge_index: int) -> tuple[tuple[int, ...], ...]:
    """All ±1 tuples on the edge whose product equals the edge sign.

    Ordered lexicographically with +1 before -1; always 2^(k-1) of them.
    """
    sign = graph.edge_signs[edge_index]
    combos = product((1, -1), repeat=len(graph.hyperedges[edge_index]))
    return tuple(combo for combo in combos if prod(combo) == sign)


def search_assignments(graph: KSGraph, cap: int = SEARCH_CAP) -> TheoremVerdict:
    """Every FUNC-respecting assignment, by solving the parity system.

    One row per edge, rhs 1 for a -1 edge.  Gaussian elimination over GF(2)
    decides satisfiability; the witnesses, 2^(|V| - rank) of them, come out
    in lexicographic order (+1 before -1).
    """
    check_cap(graph.n_vertices, cap)
    edges = zip(graph.hyperedges, graph.edge_signs)
    rows = ((sum(1 << v for v in edge), int(sign < 0)) for edge, sign in edges)
    witnesses = parity.solutions(graph.n_vertices, rows)
    return TheoremVerdict(
        satisfiable=bool(witnesses),
        witnesses=witnesses,
        certificate=parity_certificate(graph),
    )


def parity_certificate(graph: KSGraph) -> ParityCertificate | None:
    """The squaring-argument certificate, when it applies.

    Available iff every vertex lies on an even number of edges and the
    product of all edge signs is -1; any such graph is UNSAT.
    """
    degrees = tuple(graph.vertex_degree(v) for v in range(graph.n_vertices))
    if any(d % 2 for d in degrees):
        return None
    sign_product = 1
    for s in graph.edge_signs:
        sign_product *= s
    if sign_product != -1:
        return None
    return ParityCertificate(vertex_degrees=degrees, sign_product=sign_product)
