"""Built-in scenarios: the two standard graphs, their realizations and
states, and the three box-model fixtures plus the army example.

All probabilities here are exact Fractions, so downstream verdicts carry
no floating-point noise.  Each builder imports the engine modules it needs
on first use and caches what it builds, so importing the catalog loads only
the graph layer, and a call builds only the blocks it reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from .graph import KSGraph, build_graph

if TYPE_CHECKING:
    from .ontology import OntologicalModel
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


# -- box models -------------------------------------------------------------------

_BOX_FAMILY = (("color", "size"),)
_JOINT = frozenset({"color", "size"})


class BoxFixture(NamedTuple):
    name: str
    theory: OperationalTheory
    model: OntologicalModel
    note: str


def _box_fixture(name, tables, ontic, weights, responses, note) -> BoxFixture:
    """The box theory with ``tables`` over two preparations, and the model
    with ``ontic`` states, preparation ``weights`` and ``responses``."""
    from .ontology import OntologicalModel
    from .operational import Measurement, OperationalTheory

    basics = (
        Measurement("color", (("black", 1), ("white", -1))),
        Measurement("size", (("big", 1), ("small", -1))),
    )
    theory = OperationalTheory(basics, _BOX_FAMILY, ("r1", "r2"), tables)
    model = OntologicalModel(basics, _BOX_FAMILY, ontic, weights, responses)
    return BoxFixture(name, theory, model, note)


def _joint_table(weights: dict[tuple[str, str], Fraction]):
    return {
        ("black", "big"): weights.get(("black", "big"), Fraction(0)),
        ("black", "small"): weights.get(("black", "small"), Fraction(0)),
        ("white", "big"): weights.get(("white", "big"), Fraction(0)),
        ("white", "small"): weights.get(("white", "small"), Fraction(0)),
    }


_BALL_TYPES = {
    "bb": ("black", "big"),
    "bs": ("black", "small"),
    "wb": ("white", "big"),
    "ws": ("white", "small"),
}


def _ball_responses(ontic: tuple[str, ...], joint_flip: bool = False):
    """Deterministic ball-type responses; with ``joint_flip`` the joint
    measurement reports the opposite ball type while the basics stay put."""
    flip = {"black": "white", "white": "black", "big": "small", "small": "big"}
    responses = {}
    for lam in ontic:
        color, size = _BALL_TYPES[lam]
        responses[(frozenset({"color"}), lam)] = {(color,): Fraction(1)}
        responses[(frozenset({"size"}), lam)] = {(size,): Fraction(1)}
        joint_outcome = (flip[color], flip[size]) if joint_flip else (color, size)
        responses[(_JOINT, lam)] = {joint_outcome: Fraction(1)}
    return responses


@lru_cache(maxsize=None)
def box_m1() -> BoxFixture:
    """Two ball types (black&big, white&small); noncontextual and
    statistics-faithful in every ontic state."""
    q = {"r1": Fraction(2, 3), "r2": Fraction(1, 4)}
    tables = {
        _JOINT: {
            r: _joint_table({("black", "big"): q[r], ("white", "small"): 1 - q[r]})
            for r in q
        }
    }
    return _box_fixture(
        "box-m1",
        tables,
        ("bb", "ws"),
        {r: {"bb": q[r], "ws": 1 - q[r]} for r in q},
        _ball_responses(("bb", "ws")),
        "two ball types; noncontextual and response-symmetric",
    )


@lru_cache(maxsize=None)
def box_m2() -> BoxFixture:
    """Four ball types, but preparations always hold exactly as many
    black&small balls as white&big ones, so color and size statistics
    coincide while the responses do not."""
    weights = {
        "r1": {"bb": Fraction(1, 2), "bs": Fraction(1, 8), "wb": Fraction(1, 8), "ws": Fraction(1, 4)},
        "r2": {"bb": Fraction(1, 4), "bs": Fraction(1, 4), "wb": Fraction(1, 4), "ws": Fraction(1, 4)},
    }
    tables = {
        _JOINT: {
            r: _joint_table({_BALL_TYPES[lam]: w for lam, w in weights[r].items()})
            for r in weights
        }
    }
    return _box_fixture(
        "box-m2",
        tables,
        ("bb", "bs", "wb", "ws"),
        weights,
        _ball_responses(("bb", "bs", "wb", "ws")),
        "four ball types with matched black/big statistics; noncontextual "
        "but response-asymmetric",
    )


@lru_cache(maxsize=None)
def box_m3() -> BoxFixture:
    """Two ball types whose joint measurement flips the outcome: the
    operational theory is disturbing and the model contextual, yet equal
    statistics still imply equal responses."""
    q = {"r1": Fraction(2, 3), "r2": Fraction(1, 4)}
    tables = {
        _JOINT: {
            r: _joint_table({("white", "small"): q[r], ("black", "big"): 1 - q[r]})
            for r in q
        },
        frozenset({"color"}): {
            r: {("black",): q[r], ("white",): 1 - q[r]} for r in q
        },
        frozenset({"size"}): {
            r: {("big",): q[r], ("small",): 1 - q[r]} for r in q
        },
    }
    return _box_fixture(
        "box-m3",
        tables,
        ("bb", "ws"),
        {r: {"bb": q[r], "ws": 1 - q[r]} for r in q},
        _ball_responses(("bb", "ws"), joint_flip=True),
        "joint measurement flips the ball type; contextual model over a "
        "disturbing theory",
    )


@lru_cache(maxsize=None)
def army_theory() -> OperationalTheory:
    """Shooting and tightrope walking are jointly performable, but walking
    the rope wrecks the shooting statistics: comeasurable yet disturbing."""
    from .operational import Measurement, OperationalTheory

    shooting = Measurement("shooting", (("hit", 1), ("miss", -1)))
    rope = Measurement("rope", (("pass", 1), ("fall", -1)))
    joint = frozenset({"shooting", "rope"})
    tables = {
        joint: {
            "recruits": {
                ("hit", "pass"): Fraction(1, 20),
                ("hit", "fall"): Fraction(3, 20),
                ("miss", "pass"): Fraction(7, 20),
                ("miss", "fall"): Fraction(9, 20),
            }
        },
        frozenset({"shooting"}): {
            "recruits": {("hit",): Fraction(9, 10), ("miss",): Fraction(1, 10)}
        },
    }
    return OperationalTheory(
        (shooting, rope), (("shooting", "rope"),), ("recruits",), tables
    )


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
