"""Built-in scenarios: the two standard graphs, their realizations and
states, and the three box-model fixtures plus the army example.

All probabilities here are exact Fractions, so downstream verdicts carry
no floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ComplexMatrix
from .graph import KSGraph, build_graph
from .ontology import OntologicalModel
from .operational import Measurement, OperationalTheory, from_quantum
from .quantum import DensityOperator
from .realization import Realization, hyperedge_realization

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
    graph = peres_mermin_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, range(6)),
    )


@lru_cache(maxsize=None)
def pm_spin_realization() -> Realization:
    """Stern-Gerlach pair measurements: only the first two rows and the
    first two columns are jointly performable."""
    graph = peres_mermin_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, (0, 1, 3, 4)),
    )


@lru_cache(maxsize=None)
def pm_hyperedge_realization() -> Realization:
    """Six measurements, one per line; comeasurable iff commuting."""
    return hyperedge_realization(peres_mermin_graph())


@lru_cache(maxsize=None)
def pm_states() -> dict[str, DensityOperator]:
    z00 = ComplexMatrix(
        [[1 if i == j == 0 else 0 for j in range(4)] for i in range(4)]
    )
    return {
        "mixed": DensityOperator.maximally_mixed(4),
        "z00": DensityOperator.from_exact(z00),
    }


@lru_cache(maxsize=None)
def pm_theory(realization: str = "full") -> OperationalTheory:
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
    graph = ghz_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, range(5)),
    )


@lru_cache(maxsize=None)
def ghz_standard_realization() -> Realization:
    """Spacelike-separated single-particle measurements: the four outer
    lines are comeasurable, the horizontal product line is not."""
    graph = ghz_graph()
    return Realization.build(
        [{label} for label, _ in graph.vertices],
        _edge_label_sets(graph, (0, 1, 2, 3)),
    )


@lru_cache(maxsize=None)
def ghz_states() -> dict[str, DensityOperator]:
    half = Fraction(1, 2)
    rows = [[0] * 8 for _ in range(8)]
    for i in (0, 7):
        for j in (0, 7):
            rows[i][j] = half
    return {
        "mixed": DensityOperator.maximally_mixed(8),
        "ghz": DensityOperator.from_exact(ComplexMatrix(rows)),
    }


@lru_cache(maxsize=None)
def ghz_theory(realization: str = "full") -> OperationalTheory:
    chosen = {"full": ghz_full_realization, "standard": ghz_standard_realization}[
        realization
    ]()
    return from_quantum(ghz_graph(), ghz_states(), chosen)


# -- box models -------------------------------------------------------------------

COLOR = Measurement("color", (("black", 1), ("white", -1)))
SIZE = Measurement("size", (("big", 1), ("small", -1)))
_BOX_FAMILY = (("color", "size"),)
_JOINT = frozenset({"color", "size"})


@dataclass(frozen=True)
class BoxFixture:
    name: str
    theory: OperationalTheory
    model: OntologicalModel
    note: str


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
    theory = OperationalTheory((COLOR, SIZE), _BOX_FAMILY, ("r1", "r2"), tables)
    model = OntologicalModel(
        (COLOR, SIZE),
        _BOX_FAMILY,
        ("bb", "ws"),
        {r: {"bb": q[r], "ws": 1 - q[r]} for r in q},
        _ball_responses(("bb", "ws")),
    )
    return BoxFixture(
        "box-m1",
        theory,
        model,
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
    theory = OperationalTheory((COLOR, SIZE), _BOX_FAMILY, ("r1", "r2"), tables)
    model = OntologicalModel(
        (COLOR, SIZE),
        _BOX_FAMILY,
        ("bb", "bs", "wb", "ws"),
        weights,
        _ball_responses(("bb", "bs", "wb", "ws")),
    )
    return BoxFixture(
        "box-m2",
        theory,
        model,
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
    theory = OperationalTheory((COLOR, SIZE), _BOX_FAMILY, ("r1", "r2"), tables)
    model = OntologicalModel(
        (COLOR, SIZE),
        _BOX_FAMILY,
        ("bb", "ws"),
        {r: {"bb": q[r], "ws": 1 - q[r]} for r in q},
        _ball_responses(("bb", "ws"), joint_flip=True),
    )
    return BoxFixture(
        "box-m3",
        theory,
        model,
        "joint measurement flips the ball type; contextual model over a "
        "disturbing theory",
    )


@lru_cache(maxsize=None)
def army_theory() -> OperationalTheory:
    """Shooting and tightrope walking are jointly performable, but walking
    the rope wrecks the shooting statistics: comeasurable yet disturbing."""
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


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    summary: str


CATALOG: dict[str, CatalogEntry] = {
    "peres-mermin": CatalogEntry(
        "peres-mermin",
        "graph",
        "nine two-qubit observables on a 3x3 grid; every line multiplies to "
        "+identity except the third column (-identity); realizations: full, "
        "spin, hyperedge",
    ),
    "ghz": CatalogEntry(
        "ghz",
        "graph",
        "ten three-qubit observables on a pentagram; four +1 lines and a -1 "
        "horizontal line; realizations: full, standard",
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


def builtin_names() -> tuple[str, ...]:
    return tuple(CATALOG)

