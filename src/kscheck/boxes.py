"""The box-model fixtures and the army example: built-ins given as explicit
tables, with no graph.

Three ball boxes separate noncontextuality from statistics-equivalence
(``box_m1`` to ``box_m3``, each a theory and a model of it), and ``army`` is
comeasurable yet disturbing.  Every probability is an exact Fraction.  This
module, not ``catalog``, holds them, so a call on one of them loads no graph
layer and a call on a graph built-in loads no ``fractions``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .ontology import OntologicalModel
    from .operational import OperationalTheory

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
