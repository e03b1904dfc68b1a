"""Built-in scenarios: the two standard graphs, their realizations and
states, and ``CATALOG``, which describes every built-in, the box-model
fixtures and the army example of ``boxes`` included.

All probabilities are exact, so downstream verdicts carry no
floating-point noise.  Each builder imports the engine modules it needs on
first use and caches what it builds, so importing the catalog loads no
engine, not even the graph layer, and a call builds only the blocks it
reads.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .graph import KSGraph
    from .operational import OperationalTheory, Realization
    from .state import DensityOperator

# -- Peres-Mermin square --------------------------------------------------------

PM_VERTICES = (
    ("a", "ZI"),
    ("b", "IZ"),
    ("c", "ZZ"),
    ("d", "IX"),
    ("e", "XI"),
    ("f", "XX"),
    ("g", "ZX"),
    ("h", "XZ"),
    ("i", "YY"),
)

# rows first, then columns; the third column is the -1 edge
PM_EDGES = (
    (0, 1, 2),
    (3, 4, 5),
    (6, 7, 8),
    (0, 3, 6),
    (1, 4, 7),
    (2, 5, 8),
)

PM_ROW_3 = 2
PM_COLUMN_3 = 5


@lru_cache(maxsize=None)
def peres_mermin_graph() -> KSGraph:
    from .graph import build_graph

    return build_graph(PM_VERTICES, PM_EDGES)


def _edge_label_sets(graph: KSGraph, edge_indices) -> list[tuple[str, ...]]:
    return [graph.edge_labels(e) for e in edge_indices]


@lru_cache(maxsize=None)
def pm_full_realization() -> Realization:
    """Nine distinct measurements, every line comeasurable."""
    from .operational import Realization

    graph = peres_mermin_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, range(6)),
    )


@lru_cache(maxsize=None)
def pm_spin_realization() -> Realization:
    """Stern-Gerlach pair measurements: only the first two rows and the
    first two columns are jointly performable."""
    from .operational import Realization

    graph = peres_mermin_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, (0, 1, 3, 4)),
    )


@lru_cache(maxsize=None)
def pm_hyperedge_realization() -> Realization:
    """Six measurements, one per line; comeasurable iff commuting."""
    from .realization import hyperedge_realization

    return hyperedge_realization(peres_mermin_graph())


@lru_cache(maxsize=None)
def _maximally_mixed(dim: int) -> DensityOperator:
    from .state import DensityOperator

    return DensityOperator.maximally_mixed(dim)


@lru_cache(maxsize=None)
def pm_z00_state() -> DensityOperator:
    from .state import DensityOperator

    # |00><00|: the one entry (0, 0) is 1/1
    return DensityOperator._from_numerators({0: 1}, {}, 4, 1)


@lru_cache(maxsize=None)
def pm_states() -> dict[str, DensityOperator]:
    return {label: build() for label, build in graph_blocks()["peres-mermin"].states.items()}


@lru_cache(maxsize=None)
def pm_theory(realization: str = "full") -> OperationalTheory:
    from .operational import from_quantum

    chosen = {"full": pm_full_realization, "spin": pm_spin_realization}[realization]()
    return from_quantum(peres_mermin_graph(), pm_states(), chosen)


# -- GHZ pentagram ---------------------------------------------------------------

GHZ_VERTICES = (
    ("XII", "XII"),
    ("YII", "YII"),
    ("IXI", "IXI"),
    ("IYI", "IYI"),
    ("IIX", "IIX"),
    ("IIY", "IIY"),
    ("XXX", "XXX"),
    ("YYX", "YYX"),
    ("YXY", "YXY"),
    ("XYY", "XYY"),
)

# four spacelike lines, then the horizontal (-1) edge last
GHZ_EDGES = (
    (0, 2, 4, 6),
    (1, 3, 4, 7),
    (1, 2, 5, 8),
    (0, 3, 5, 9),
    (6, 7, 8, 9),
)

GHZ_HORIZONTAL = 4


@lru_cache(maxsize=None)
def ghz_graph() -> KSGraph:
    from .graph import build_graph

    return build_graph(GHZ_VERTICES, GHZ_EDGES)


@lru_cache(maxsize=None)
def ghz_full_realization() -> Realization:
    from .operational import Realization

    graph = ghz_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, range(5)),
    )


@lru_cache(maxsize=None)
def ghz_standard_realization() -> Realization:
    """Spacelike-separated single-particle measurements: the four outer
    lines are comeasurable, the horizontal product line is not."""
    from .operational import Realization

    graph = ghz_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, (0, 1, 2, 3)),
    )


@lru_cache(maxsize=None)
def ghz_state() -> DensityOperator:
    from .state import DensityOperator

    # (|000> + |111>)(<000| + <111|) / 2: entries (0, 0), (0, 7), (7, 0), (7, 7)
    corners = {r * 8 + c: 1 for r in (0, 7) for c in (0, 7)}
    return DensityOperator._from_numerators(corners, {}, 8, 2)


@lru_cache(maxsize=None)
def ghz_states() -> dict[str, DensityOperator]:
    return {label: build() for label, build in graph_blocks()["ghz"].states.items()}


@lru_cache(maxsize=None)
def ghz_theory(realization: str = "full") -> OperationalTheory:
    from .operational import from_quantum

    chosen = {"full": ghz_full_realization, "standard": ghz_standard_realization}[
        realization
    ]()
    return from_quantum(ghz_graph(), ghz_states(), chosen)


# -- block names --------------------------------------------------------------------


class GraphBlocks(NamedTuple):
    """A graph built-in's builders: its graph, and its states and
    realizations keyed by block name.  Every builder caches what it builds."""

    graph: Callable[[], KSGraph]
    states: dict[str, Callable[[], DensityOperator]]
    realizations: dict[str, Callable[[], Realization]]


def graph_blocks() -> dict[str, GraphBlocks]:
    """The one table of the graph built-ins' block names, by built-in name.

    A function rather than a constant, so that it reads each builder when
    called: a builder replaced on this module is the one it gives.
    """
    return {
        "peres-mermin": GraphBlocks(
            peres_mermin_graph,
            {"mixed": partial(_maximally_mixed, 4), "z00": pm_z00_state},
            {
                "full": pm_full_realization,
                "spin": pm_spin_realization,
                "hyperedge": pm_hyperedge_realization,
            },
        ),
        "ghz": GraphBlocks(
            ghz_graph,
            {"mixed": partial(_maximally_mixed, 8), "ghz": ghz_state},
            {"full": ghz_full_realization, "standard": ghz_standard_realization},
        ),
    }


# -- registry ----------------------------------------------------------------------


class CatalogEntry(NamedTuple):
    name: str
    kind: str
    summary: str


def _graph_entry(name: str, summary: str) -> CatalogEntry:
    """A graph built-in's entry, its summary ending with its realization names."""
    realizations = ", ".join(graph_blocks()[name].realizations)
    return CatalogEntry(name, "graph", f"{summary}; realizations: {realizations}")


CATALOG: dict[str, CatalogEntry] = {
    "peres-mermin": _graph_entry(
        "peres-mermin",
        "nine two-qubit observables on a 3x3 grid; every line multiplies to "
        "+identity except the third column (-identity)",
    ),
    "ghz": _graph_entry(
        "ghz",
        "ten three-qubit observables on a pentagram; four +1 lines and a -1 "
        "horizontal line",
    ),
    "box-m1": CatalogEntry(
        "box-m1",
        "theory+model",
        "ball box with two ball types; noncontextual, response-symmetric",
    ),
    "box-m2": CatalogEntry(
        "box-m2",
        "theory+model",
        "ball box with four ball types and matched color/size statistics; "
        "noncontextual, response-asymmetric",
    ),
    "box-m3": CatalogEntry(
        "box-m3",
        "theory+model",
        "ball box whose joint measurement flips outcomes; disturbing theory, "
        "contextual model",
    ),
    "army": CatalogEntry(
        "army",
        "theory",
        "shooting and tightrope walking: jointly performable but mutually "
        "disturbing",
    ),
}
