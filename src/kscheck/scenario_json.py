"""Scenario files: one JSON document carrying any of a graph, states,
realizations, operational tables and ontological models.

Probabilities and matrix entries may be written as numbers or as exact
rational strings ("1/2", "-1/4"); exact values stay exact through every
verdict.  Every JSON object is read by ``_object``, which names the keys its
block may carry and refuses any other or a repeated one, and every list by
``_items``; so a misspelt or repeated key is a parse error at its own path.
Table entries and model responses share one reader and one writer.  Parse
failures carry a JSON path to the offending location.  ``scenario_to_dict``
writes a scenario back in the same form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable

from .errors import InvalidGraphError, ScenarioParseError
from .graph import KSGraph, build_graph
from .pauli import PauliString
from .scenario import LazyBlocks, RepeatedKey, Scenario, _fail

# Each block parser imports the module its block needs, so a call loads only
# what its input carries; realizations are checked here and built on first read.
if TYPE_CHECKING:
    from .ontology import OntologicalModel
    from .operational import OperationalTheory, Realization
    from .state import DensityOperator


def _object(value: Any, what: str, path: str, required=(), optional=(), named=False) -> dict:
    """The JSON object ``value``, which must carry every ``required`` key and
    no key outside ``required`` and ``optional``.  A ``named`` object maps
    names (labels) to values, so any key is allowed."""
    if not isinstance(value, dict):
        _fail(f"{what} must be an object", path)
    if isinstance(value, RepeatedKey):
        _fail(f"repeated key {value.key!r}", f"{path}.{value.key}")
    if not all(key in value for key in required):
        _fail(f"{what} needs {', '.join(map(repr, required))}", path)
    if not named:
        keys = required + optional
        for key in value:
            if key not in keys:
                # the top-level keys are the scenario's blocks
                kind = "block" if path == "$" else "key"
                _fail(f"unknown {kind} {key!r}; {what} has {', '.join(keys)}", f"{path}.{key}")
    return value


def _items(value: Any, what: str, path: str, nonempty=False):
    """Each item of the JSON list ``value`` with its path ``path[i]``."""
    if not isinstance(value, list) or (nonempty and not value):
        _fail(f"{what} must be a {'nonempty ' if nonempty else ''}list", path)
    return ((item, f"{path}[{i}]") for i, item in enumerate(value))


def _label(value: Any, what: str, path: str) -> str:
    """A label, which must be a JSON string."""
    if not isinstance(value, str):
        _fail(f"{what} must be a string", path)
    return value


def _labels(value: Any, what: str, path: str, nonempty=False, item="measurement label"):
    """The labels of a JSON list; each must be a string."""
    return [_label(label, item, lpath) for label, lpath in _items(value, what, path, nonempty)]


def _number(value: Any, path: str):
    """A probability-like value: int, finite float, or exact 'p/q' string."""
    if isinstance(value, bool):
        _fail("expected a number", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            _fail(f"not a finite number: {value!r}", path)
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(f"not a rational number: {value!r}", path)
    _fail(f"expected a number, got {type(value).__name__}", path)


def _distribution(value: Any, what: str, path: str, parts: int | None = None) -> dict[str, Any]:
    """A JSON object of probabilities, which must sum to 1 with no entry
    below 0 (``operational.distribution_problem``); given ``parts``, each
    key must join that many outcome labels with ','."""
    from .operational import distribution_problem

    dist = {}
    for key, p in _object(value, what, path, named=True).items():
        if parts is not None and key.count(",") + 1 != parts:
            _fail(f"outcome key {key!r} has {key.count(',') + 1} parts, joint has {parts}", path)
        dist[key] = _number(p, f"{path}.{key}")
    if problem := distribution_problem(dist):
        _fail(f"distribution {problem}", path)
    return dist


_ZERO = Fraction(0)


def _complex_entry(value: Any, path: str):
    """A matrix entry: number, or [re, im] pair; exact iff all parts are."""
    if isinstance(value, (int, str)) or isinstance(value, float):
        return _number(value, path), _ZERO if not isinstance(value, float) else 0.0
    if isinstance(value, list) and len(value) == 2:
        return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")
    _fail("expected a number or an [re, im] pair", path)


def _parse_graph(doc: dict, path: str) -> KSGraph:
    vertices = []
    for item, vpath in _items(doc["vertices"], "'vertices'", f"{path}.vertices", nonempty=True):
        item = _object(item, "vertex", vpath, ("label", "operator"))
        label = _label(item["label"], "vertex label", f"{vpath}.label")
        word = _label(item["operator"], "vertex operator", f"{vpath}.operator")
        try:
            vertices.append((label, PauliString.parse(word)))
        except ValueError as exc:
            _fail(str(exc), f"{vpath}.operator")
    hyperedges = doc.get("hyperedges")
    if hyperedges is not None:
        for edge, epath in _items(hyperedges, "'hyperedges'", f"{path}.hyperedges"):
            if not isinstance(edge, list) or not all(type(v) is int for v in edge):
                _fail("edge must be a list of vertex indices", epath)
    graph = build_graph(vertices, hyperedges)
    declared = doc.get("edge_signs")
    if declared is not None:
        if not isinstance(declared, list) or not all(type(s) is int for s in declared):
            _fail("'edge_signs' must be a list of integers", f"{path}.edge_signs")
        if tuple(declared) != graph.edge_signs:
            raise InvalidGraphError(
                f"declared edge signs {declared} differ from the operator products' {list(graph.edge_signs)}"
            )
    return graph


def _parse_states(doc: Any, path: str) -> dict[str, DensityOperator]:
    from .state import DensityOperator

    states = {}
    for label, spec in _object(doc, "'states'", path, named=True).items():
        spath = f"{path}.{label}"
        spec = _object(spec, "state", spath, optional=("vector", "density"))
        if len(spec) != 1:
            _fail("state needs one of 'vector' and 'density'", spath)
        try:
            if "vector" in spec:
                vector = _items(spec["vector"], "'vector'", f"{spath}.vector")
                entries = (_complex_entry(v, vpath) for v, vpath in vector)
                amps = [complex(float(re), float(im)) for re, im in entries]
                states[label] = DensityOperator.from_state_vector(amps)
            else:
                parsed = [
                    [_complex_entry(v, epath) for v, epath in _items(row, "a density row", rpath)]
                    for row, rpath in _items(spec["density"], "'density'", f"{spath}.density")
                ]
                if all(isinstance(x, Fraction) for row in parsed for entry in row for x in entry):
                    states[label] = DensityOperator.from_exact(parsed)
                else:
                    states[label] = DensityOperator(
                        [[complex(float(re), float(im)) for re, im in row] for row in parsed]
                    )
        except ScenarioParseError:
            raise
        except Exception as exc:
            _fail(f"invalid state: {exc}", spath)
    return states


def _parse_realization(doc: Any, labels: list[str], path: str) -> Callable[[], Realization]:
    """Check a realization block and return the builder of its Realization.

    Every check runs here, so ``Realization.build`` cannot raise and is
    left until a verb first reads the block.
    """
    doc = _object(doc, "realization", path, ("assoc",), ("comeasurable", "function_tags"))
    index_of = {label: i for i, label in enumerate(labels)}
    assoc: list[set[str]] = [set() for _ in labels]
    assoc_doc = _object(doc["assoc"], "'assoc'", f"{path}.assoc", named=True)
    for vertex_label, raw in assoc_doc.items():
        if vertex_label not in index_of:
            _fail(f"unknown vertex {vertex_label!r}", f"{path}.assoc")
        apath = f"{path}.assoc.{vertex_label}"
        assoc[index_of[vertex_label]] = set(_labels(raw, "association", apath, nonempty=True))
    missing = [labels[i] for i, a in enumerate(assoc) if not a]
    if missing:
        _fail(f"vertices without measurements: {missing}", f"{path}.assoc")
    comeasurable = _items(doc.get("comeasurable", []), "'comeasurable'", f"{path}.comeasurable")
    tags = {}
    raw_tags = doc.get("function_tags", [])
    for item, tpath in _items(raw_tags, "'function_tags'", f"{path}.function_tags"):
        item = _object(item, "tag", tpath, ("vertex", "measurement", "tag"))
        if not isinstance(item["vertex"], str) or item["vertex"] not in index_of:
            _fail(f"unknown vertex {item['vertex']!r}", tpath)
        vertex = index_of[item["vertex"]]
        measurement = _label(item["measurement"], "measurement label", f"{tpath}.measurement")
        if measurement not in assoc[vertex]:
            _fail(f"vertex {item['vertex']!r} is not associated with {measurement!r}", tpath)
        tags[(vertex, measurement)] = _label(item["tag"], "function tag", f"{tpath}.tag")
    carried = set().union(*assoc)
    sets = []
    for raw, cpath in comeasurable:
        members = set(_labels(raw, "comeasurable set", cpath, nonempty=True))
        unknown = sorted(members - carried)
        if unknown:
            _fail(f"no vertex carries measurements {unknown}", cpath)
        sets.append(members)
    return partial(_build_realization, assoc, sets, tags)


def _build_realization(assoc, comeasurable, function_tags) -> Realization:
    from .operational import Realization

    return Realization.build(assoc, comeasurable, function_tags)


def _tables(doc: dict, block: str, column: str, basics, path: str) -> dict:
    """A theory's ``entries`` (``column`` "preparation") or a model's
    ``responses`` ("ontic") as {(joint, column's label): distribution};
    a second item for the same joint and label is refused."""
    tables: dict = {}
    for item, ipath in _items(doc.get(block), f"'{block}'", f"{path}.{block}"):
        keys = ("measurements", column, "distribution")
        item = _object(item, f"an item of '{block}'", ipath, keys)
        joint = frozenset(_labels(item["measurements"], "'measurements'", f"{ipath}.measurements"))
        parts = sum(m.label in joint for m in basics)
        dist = _distribution(item["distribution"], "'distribution'", f"{ipath}.distribution", parts)
        key = _label(item[column], repr(column), f"{ipath}.{column}")
        if (joint, key) in tables:
            name = "&".join(sorted(joint))
            _fail(f"{name} already has a distribution at {column} {key!r}", ipath)
        tables[(joint, key)] = {tuple(outcomes.split(",")): p for outcomes, p in dist.items()}
    return tables


def _parse_theory(doc: Any, path: str) -> OperationalTheory:
    from .operational import Measurement, OperationalTheory

    keys = ("measurements", "comeasurable", "preparations", "entries")
    doc = _object(doc, "'tables'", path, optional=keys)
    basics = []
    raw_basics = doc.get("measurements")
    for item, mpath in _items(raw_basics, "'measurements'", f"{path}.measurements", nonempty=True):
        item = _object(item, "measurement", mpath, ("label", "outcomes"))
        outcomes = []
        for pair, opath in _items(item["outcomes"], "'outcomes'", f"{mpath}.outcomes"):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail("outcome must be a [label, value] pair", opath)
            name = _label(pair[0], "outcome label", f"{opath}[0]")
            # distribution keys join outcome labels with ','
            if "," in name:
                _fail(f"outcome label {name!r} contains ','", f"{opath}[0]")
            outcomes.append((name, _number(pair[1], opath)))
        label = _label(item["label"], "measurement label", f"{mpath}.label")
        try:
            basics.append(Measurement(label, tuple(outcomes)))
        except ValueError as exc:
            _fail(str(exc), mpath)
    preparations = _labels(doc.get("preparations"), "'preparations'", f"{path}.preparations",
                           nonempty=True, item="preparation")
    cpath = f"{path}.comeasurable"
    comeasurable = [
        set(_labels(raw, "a comeasurable set", ipath))
        for raw, ipath in _items(doc.get("comeasurable", []), "'comeasurable'", cpath)
    ]
    tables: dict = {}
    for (joint, prep), dist in _tables(doc, "entries", "preparation", basics, path).items():
        tables.setdefault(joint, {})[prep] = dist
    try:
        return OperationalTheory(basics, comeasurable, preparations, tables)
    except Exception as exc:
        _fail(f"invalid theory: {exc}", path)


def _parse_model(doc: Any, theory: OperationalTheory, path: str) -> OntologicalModel:
    from .ontology import OntologicalModel

    doc = _object(doc, "model", path, optional=("ontic_states", "preparations", "responses"))
    ontic = _labels(doc.get("ontic_states"), "'ontic_states'", f"{path}.ontic_states",
                    nonempty=True, item="ontic state")
    ppath = f"{path}.preparations"
    raw_preps = _object(doc.get("preparations", {}), "'preparations'", ppath, named=True)
    preps = {
        prep: _distribution(dist, "a preparation", f"{ppath}.{prep}")
        for prep, dist in raw_preps.items()
    }
    responses = _tables(doc, "responses", "ontic", theory.basics, path)
    try:
        return OntologicalModel(theory.basics, theory.maximal_joints, ontic, preps, responses)
    except Exception as exc:
        _fail(f"invalid model: {exc}", path)


def parse_scenario(doc: Any, digest: str) -> Scenario:
    blocks = ("name", "vertices", "hyperedges", "edge_signs", "states", "realizations", "tables",
              "models")
    doc = _object(doc, "a scenario", "$", optional=blocks)
    for key in ("hyperedges", "edge_signs"):
        if key in doc and "vertices" not in doc:
            _fail(f"'{key}' need a graph ('vertices')", f"$.{key}")
    name = _label(doc.get("name", "scenario"), "scenario name", "$.name")
    scenario = Scenario(name=name, digest=digest)
    if "vertices" in doc:
        scenario.graph = _parse_graph(doc, "$")
    if "states" in doc:
        if scenario.graph is None:
            _fail("'states' needs a graph ('vertices')", "$.states")
        scenario.states = _parse_states(doc["states"], "$.states")
        dim = 2 ** scenario.graph.operators[0].n_qubits
        for label, rho in scenario.states.items():
            if rho.dim != dim:
                _fail(f"state dimension {rho.dim}, graph needs {dim}", f"$.states.{label}")
    if "realizations" in doc:
        if scenario.graph is None:
            _fail("'realizations' need a graph ('vertices')", "$.realizations")
        labels = list(scenario.graph.labels)
        realizations = _object(doc["realizations"], "'realizations'", "$.realizations", named=True)
        scenario.realizations = LazyBlocks({
            rname: _parse_realization(block, labels, f"$.realizations.{rname}")
            for rname, block in realizations.items()
        })
    if "tables" in doc:
        scenario.theory = _parse_theory(doc["tables"], "$.tables")
    if "models" in doc:
        if scenario.theory is None:
            _fail("'models' need operational 'tables'", "$.models")
        for mname, block in _object(doc["models"], "'models'", "$.models", named=True).items():
            scenario.models[mname] = _parse_model(block, scenario.theory, f"$.models.{mname}")
    return scenario


def _value_to_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return float(value)


def _table_items(theory: OperationalTheory, column: str) -> list[dict]:
    """The inverse of ``_tables``: one item per stored distribution, by joint
    in the basics' order, then in the theory's preparation order."""
    return [
        {
            "measurements": list(theory.component_order(joint)),
            column: prep,
            "distribution": {
                ",".join(combo): _value_to_json(v)
                for combo, v in sorted(theory.tables[joint][prep].items())
            },
        }
        for joint in sorted(theory.tables, key=theory._joint_key)
        for prep in theory.preparations
        if prep in theory.tables[joint]
    ]


def _exact_rows(rho: DensityOperator) -> list[list[list[str]]]:
    """An exact state's entries as ["re", "im"] rational strings, read from
    its numerators over their common denominator."""
    by_shift, denominator = rho._entries_by_shift()
    rows = [[["0", "0"] for _ in range(rho.dim)] for _ in range(rho.dim)]
    for shift, entries in by_shift.items():
        for r, a, b in entries:
            rows[r][r ^ shift] = [str(Fraction(a, denominator)), str(Fraction(b, denominator))]
    return rows


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize back to the JSON document form (inverse of parsing)."""
    doc: dict[str, Any] = {"name": scenario.name}
    graph = scenario.graph
    if graph is not None:
        doc["vertices"] = [
            {"label": label, "operator": str(op)} for label, op in graph.vertices
        ]
        doc["hyperedges"] = [list(edge) for edge in graph.hyperedges]
        doc["edge_signs"] = list(graph.edge_signs)
    if scenario.states:
        states = {}
        for label, rho in scenario.states.items():
            if rho._is_exact:
                rows = _exact_rows(rho)
            else:
                rows = [[[v.real, v.imag] for v in row] for row in rho.matrix.tolist()]
            states[label] = {"density": rows}
        doc["states"] = states
    if scenario.realizations:
        blocks = {}
        for rname, realization in scenario.realizations.items():
            assert graph is not None
            maximal = [sorted(j) for j in realization.comeasurable.maximal]
            blocks[rname] = {
                "assoc": {
                    graph.labels[v]: sorted(a)
                    for v, a in enumerate(realization.assoc)
                },
                "comeasurable": sorted(maximal),
                "function_tags": [
                    {"vertex": graph.labels[v], "measurement": m, "tag": t}
                    for (v, m), t in sorted(realization.function_tags.items())
                ],
            }
        doc["realizations"] = blocks
    theory = scenario.theory
    if theory is not None:
        maximal = [list(theory.component_order(j)) for j in theory.maximal_joints]
        doc["tables"] = {
            "measurements": [
                {
                    "label": m.label,
                    "outcomes": [[o, _value_to_json(v)] for o, v in m.outcomes],
                }
                for m in theory.basics
            ],
            "comeasurable": maximal,
            "preparations": list(theory.preparations),
            "entries": _table_items(theory, "preparation"),
        }
    if scenario.models:
        doc["models"] = {
            mname: {
                "ontic_states": list(model.ontic_states),
                "preparations": {
                    prep: {lam: _value_to_json(v) for lam, v in dist.items()}
                    for prep, dist in model.prep_distributions.items()
                },
                "responses": _table_items(model.by_state, "ontic"),
            }
            for mname, model in scenario.models.items()
        }
    return doc
