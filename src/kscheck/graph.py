"""KS hypergraphs, FUNC-constrained value assignments and certificates.

Vertices carry self-adjoint Pauli words; hyperedges are mutually commuting
subsets whose ordered product is a signed identity.  A value assignment
puts ±1 on every vertex; it is admissible when the values on every edge
multiply to that edge's sign.  ``depth_first`` is the package's one
assignment search, a depth-first table-constraint search with branch and
bound: value assignments here, the type II pipeline in ``realization`` and
the model and robustness searches in ``ontology`` all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from . import pauli
from .errors import CapExceededError, InvalidGraphError
from .pauli import PauliString

# Most variables (vertices or basic measurements) an exhaustive search takes.
SEARCH_CAP = 24

# A total assignment of ±1 values, aligned with the graph's vertex order.
ValueAssignment = tuple[int, ...]


@dataclass(frozen=True)
class KSGraph:
    """Labelled operators plus validated hyperedges and their signs."""

    vertices: tuple[tuple[str, PauliString], ...]
    hyperedges: tuple[tuple[int, ...], ...]
    edge_signs: tuple[int, ...]

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


@dataclass(frozen=True)
class ParityCertificate:
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


@dataclass(frozen=True)
class TheoremVerdict:
    satisfiable: bool
    witnesses: tuple[ValueAssignment, ...]
    certificate: ParityCertificate | None


def _maximal_cliques(adjacency: list[set[int]]) -> list[frozenset[int]]:
    """Bron-Kerbosch without pivoting; fine for the graphs in scope."""
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
    n = ops[0].n_qubits
    for op in ops[1:]:
        if op.n_qubits != n:
            raise ValueError("operators must act on the same number of qubits")
    adjacency = [
        {j for j in range(len(ops)) if j != i and ops[i].commutes(ops[j])}
        for i in range(len(ops))
    ]
    edges = []
    for clique in _maximal_cliques(adjacency):
        if len(clique) < 2:
            continue
        members = tuple(sorted(clique))
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
        if not op.is_hermitian:
            raise InvalidGraphError(f"vertex {label}: operator {op} is not hermitian")

    if hyperedges is None:
        try:
            edges = derive_hyperedges([op for _, op in parsed])
        except ValueError as exc:
            raise InvalidGraphError(str(exc)) from exc
    else:
        edges = []
        for raw in hyperedges:
            members = tuple(sorted(set(raw)))
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


def check_cap(n_variables: int, cap: int) -> None:
    """Refuse a search over more than ``cap`` variables."""
    if n_variables > cap:
        raise CapExceededError(f"{n_variables} search variables exceed the cap of {cap}")


def depth_first(
    domains: Sequence[Sequence],
    constraints: Iterable[tuple[Sequence[int], Collection[tuple]]],
    bound: int,
    leaf: Callable[[tuple, int], int],
    cap: int = SEARCH_CAP,
) -> int:
    """Depth-first search over assignments of ``domains[d]`` to variable d.

    Variables get values in index order, each trying its domain in order,
    so leaves come in ``itertools.product`` order.  A constraint
    ``(positions, allowed)`` is violated when the values at ``positions``,
    read in that order, form a tuple outside ``allowed``; it is checked when
    its highest position gets a value.  A branch is cut as soon as its number
    of violated constraints reaches ``bound`` (at least 1 to start with).
    ``leaf(values, violated)`` is called for every leaf that is not cut and
    returns the new bound; the search stops once the bound is 0.  Returns
    the final bound.  More than ``cap`` variables raise CapExceededError
    before a constraint is read, so callers may pass them lazily.
    """
    n = len(domains)
    check_cap(n, cap)
    # due[d]: (scope reader, allowed tuples) of the constraints completed at d
    due: list[list] = [[] for _ in range(n)]
    for positions, allowed in constraints:
        if len(positions) == 1:
            # itemgetter of one position reads a bare value, not a 1-tuple
            allowed = {t[0] for t in allowed}
        due[max(positions)].append((itemgetter(*positions), allowed))
    values: list = [None] * n

    def descend(depth: int, violated: int) -> None:
        nonlocal bound
        if depth == n:
            bound = leaf(tuple(values), violated)
            return
        checks = due[depth]
        for value in domains[depth]:
            values[depth] = value
            count = violated
            for read, allowed in checks:
                if read(values) not in allowed:
                    count += 1
                    if count >= bound:
                        break
            else:
                descend(depth + 1, count)
                # no sibling can do better once the bound is down to this count
                if bound <= violated:
                    return

    descend(0, 0)
    return bound


def search_assignments(graph: KSGraph, cap: int = SEARCH_CAP) -> TheoremVerdict:
    """Exhaust {+1, -1}^|V| and collect every FUNC-respecting assignment.

    Each edge is checked against its admissible tuples once it is fully
    assigned; witnesses come out in lexicographic order (+1 before -1).
    """
    constraints = (
        (edge, frozenset(admissible_tuples(graph, e_idx)))
        for e_idx, edge in enumerate(graph.hyperedges)
    )
    witnesses: list[ValueAssignment] = []

    def keep(values: ValueAssignment, violated: int) -> int:
        witnesses.append(values)
        return 1

    depth_first([(1, -1)] * graph.n_vertices, constraints, 1, keep, cap)
    return TheoremVerdict(
        satisfiable=bool(witnesses),
        witnesses=tuple(witnesses),
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
