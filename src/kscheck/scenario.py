"""Scenarios: the blocks a call reads, from a built-in name or a scenario file.

A built-in's states and realizations, and a file's realizations, are built
when a verb first reads them.  A file is parsed and checked whole by
``scenario_json``, which only file inputs and the serializer load.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .errors import ScenarioParseError
from .values import Value

if TYPE_CHECKING:
    from .graph import KSGraph
    from .ontology import OntologicalModel
    from .operational import OperationalTheory, Realization
    from .state import DensityOperator

# The names ``load_scenario`` takes for ``builtin_scenario``; ``catalog.CATALOG``
# describes each of them.
BUILTIN_NAMES = ("peres-mermin", "ghz", "box-m1", "box-m2", "box-m3", "army")


class LazyBlocks(Mapping):
    """A read-only mapping with fixed keys whose values are built on first read.

    Each key maps to a builder that takes no arguments and is called at most
    once, so listing the names, ``in`` and ``len`` build nothing and each
    block is built once.  It equals any mapping with the same items, a plain
    dict included.
    """

    __slots__ = ("_builders", "_built")

    def __init__(self, builders: dict[str, Callable[[], Any]]):
        self._builders = builders
        self._built: dict[str, Any] = {}

    def __getitem__(self, key):
        if key not in self._built:
            self._built[key] = self._builders[key]()
        return self._built[key]

    def __contains__(self, key):
        return key in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)

    def __repr__(self):
        return repr(dict(self))


class Scenario(Value):
    _fields = ("name", "digest", "graph", "states", "realizations", "theory", "models")

    def __init__(
        self,
        name: str,
        digest: str,
        graph: KSGraph | None = None,
        states: Mapping[str, DensityOperator] | None = None,
        realizations: Mapping[str, Realization] | None = None,
        theory: OperationalTheory | None = None,
        models: dict[str, OntologicalModel] | None = None,
    ):
        self.name = name
        self.digest = digest
        self.graph = graph
        self.states = {} if states is None else states
        self.realizations = {} if realizations is None else realizations
        self.theory = theory
        self.models = {} if models is None else models


def _fail(message: str, path: str):
    raise ScenarioParseError(message, path)


class RepeatedKey(dict):
    """A JSON object that names ``key`` more than once; ``scenario_json``
    refuses it where it reads the object, at that key's path."""

    __slots__ = ("key",)


def _object_pairs(pairs: list[tuple[str, Any]]) -> dict:
    """``json.loads``' hook for each object: a dict, or a ``RepeatedKey``
    when a key repeats, since a dict would keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = RepeatedKey(obj)
        obj.key = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def load_scenario(source: str) -> Scenario:
    """Load a builtin by name or a scenario JSON file by path."""
    if source in BUILTIN_NAMES:
        return builtin_scenario(source)
    if not source:
        # Path("") is the working directory, which names no scenario
        _fail("no builtin or file named ''", "$")
    try:
        raw = Path(source).read_bytes()
    except (FileNotFoundError, NotADirectoryError, ValueError):
        # ValueError: a path with a NUL byte, which names no file
        _fail(f"no builtin or file named {source!r}", "$")
    except OSError as exc:
        _fail(f"cannot read {source!r}: {exc.strerror or exc}", "$")
    try:
        doc = json.loads(raw, object_pairs_hook=_object_pairs)
    except ValueError as exc:
        # JSONDecodeError and UnicodeDecodeError (bytes that are not UTF-8)
        _fail(f"invalid JSON: {exc}", "$")
    except RecursionError:
        _fail("invalid JSON: nested too deeply", "$")
    # only file inputs hash their bytes, and the builtin module spares them
    # hashlib's load of OpenSSL
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without the module
        from hashlib import sha256
    from .scenario_json import parse_scenario

    return parse_scenario(doc, digest=sha256(raw).hexdigest())


def builtin_scenario(name: str) -> Scenario:
    """A built-in by name.  The graph, theory and models are built at once;
    states and realizations are built when a verb first reads them.  The
    box and army built-ins come from ``boxes``, so they load no graph layer."""
    digest = f"builtin:{name}"
    if name in ("box-m1", "box-m2", "box-m3", "army"):
        from . import boxes

        if name == "army":
            return Scenario(name=name, digest=digest, theory=boxes.army_theory())
        fixture = {"box-m1": boxes.box_m1, "box-m2": boxes.box_m2, "box-m3": boxes.box_m3}[name]()
        return Scenario(
            name=name,
            digest=digest,
            theory=fixture.theory,
            models={name.replace("box-", ""): fixture.model},
        )
    from . import catalog

    graph_blocks = catalog.graph_blocks().get(name)
    if graph_blocks is None:
        raise ScenarioParseError(f"unknown builtin {name!r}", "$")
    return Scenario(
        name=name,
        digest=digest,
        graph=graph_blocks.graph(),
        states=LazyBlocks(graph_blocks.states),
        realizations=LazyBlocks(graph_blocks.realizations),
    )
