"""Scenario files: one JSON document carrying any of a graph, states,
realizations, operational tables and ontological models.

Probabilities and matrix entries may be written as numbers or as exact
rational strings ("1/2", "-1/4"); exact values stay exact through every
verdict.  Parse failures carry a JSON path to the offending location.
``scenario_to_dict`` writes a scenario back in the same form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable

from .errors import InvalidGraphError, ScenarioParseError
from .graph import KSGraph, build_graph
from .scenario import LazyBlocks, Scenario, _fail

# Each block parser imports the module its block needs, so a call loads only
# what its input carries; realizations are checked here and built on first read.
if TYPE_CHECKING:
    from .ontology import OntologicalModel
    from .operational import OperationalTheory, Realization
    from .state import DensityOperator


def _expect(value: Any, kind: type, what: str, path: str):
    """The value, which must be a JSON list or object (``kind`` list or dict)."""
    if not isinstance(value, kind):
        _fail(f"{what} must be {'a list' if kind is list else 'an object'}", path)
    return value


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


_ZERO = Fraction(0)


def _complex_entry(value: Any, path: str):
    """A matrix entry: number, or [re, im] pair; exact iff all parts are."""
    if isinstance(value, (int, str)) or isinstance(value, float):
        return _number(value, path), _ZERO if not isinstance(value, float) else 0.0
    if isinstance(value, list) and len(value) == 2:
        return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")
    _fail("expected a number or an [re, im] pair", path)


def _parse_graph(doc: dict, path: str) -> KSGraph:
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        _fail("'vertices' must be a nonempty list", f"{path}.vertices")
    vertices = []
    for i, item in enumerate(raw_vertices):
        vpath = f"{path}.vertices[{i}]"
        if not isinstance(item, dict) or "label" not in item or "operator" not in item:
            _fail("vertex needs 'label' and 'operator'", vpath)
        label = _label(item["label"], "vertex label", f"{vpath}.label")
        try:
            vertices.append((label, str(item["operator"])))
        except (TypeError, ValueError) as exc:
            _fail(str(exc), vpath)
    hyperedges = doc.get("hyperedges")
    if hyperedges is not None:
        if not isinstance(hyperedges, list):
            _fail("'hyperedges' must be a list of index lists", f"{path}.hyperedges")
        for i, edge in enumerate(hyperedges):
            if not isinstance(edge, list) or not all(type(v) is int for v in edge):
                _fail("edge must be a list of vertex indices", f"{path}.hyperedges[{i}]")
    try:
        graph = build_graph(vertices, hyperedges)
    except InvalidGraphError:
        raise  # structural graph problems keep their own error class
    except ValueError as exc:
        _fail(str(exc), f"{path}.vertices")
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

    if not isinstance(doc, dict):
        _fail("'states' must map labels to state definitions", path)
    states = {}
    for label, spec in doc.items():
        spath = f"{path}.{label}"
        if not isinstance(spec, dict):
            _fail("state must be an object with 'vector' or 'density'", spath)
        try:
            if "vector" in spec:
                amps = [
                    complex(float(re), float(im))
                    for re, im in (
                        _complex_entry(v, f"{spath}.vector[{k}]")
                        for k, v in enumerate(spec["vector"])
                    )
                ]
                states[label] = DensityOperator.from_state_vector(amps)
            elif "density" in spec:
                rows = spec["density"]
                parsed = [
                    [
                        _complex_entry(v, f"{spath}.density[{r}][{c}]")
                        for c, v in enumerate(row)
                    ]
                    for r, row in enumerate(rows)
                ]
                exact = all(
                    isinstance(re, Fraction) and isinstance(im, Fraction)
                    for row in parsed
                    for re, im in row
                )
                if exact:
                    states[label] = DensityOperator.from_exact(parsed)
                else:
                    states[label] = DensityOperator(
                        [[complex(float(re), float(im)) for re, im in row] for row in parsed]
                    )
            else:
                _fail("state needs 'vector' or 'density'", spath)
        except ScenarioParseError:
            raise
        except Exception as exc:
            _fail(f"invalid state: {exc}", spath)
    return states


def _label(value: Any, what: str, path: str) -> str:
    """A label, which must be a JSON string."""
    if not isinstance(value, str):
        _fail(f"{what} must be a string", path)
    return value


def _label_set(raw: list, path: str) -> set[str]:
    """The measurement labels of a JSON list; each must be a string."""
    return {_label(label, "measurement label", f"{path}[{j}]") for j, label in enumerate(raw)}


def _parse_realization(doc: Any, labels: list[str], path: str) -> Callable[[], Realization]:
    """Check a realization block and return the builder of its Realization.

    Every check runs here, so ``Realization.build`` cannot raise and is
    left until a verb first reads the block.
    """
    if not isinstance(doc, dict) or "assoc" not in doc:
        _fail("realization needs an 'assoc' block", path)
    assoc_doc = doc["assoc"]
    if not isinstance(assoc_doc, dict):
        _fail("'assoc' must map vertex labels to measurement lists", f"{path}.assoc")
    index_of = {label: i for i, label in enumerate(labels)}
    assoc: list[set[str]] = [set() for _ in labels]
    for vertex_label, measurements in assoc_doc.items():
        if vertex_label not in index_of:
            _fail(f"unknown vertex {vertex_label!r}", f"{path}.assoc")
        if not isinstance(measurements, list) or not measurements:
            _fail("association must be a nonempty list", f"{path}.assoc.{vertex_label}")
        assoc[index_of[vertex_label]] = _label_set(measurements, f"{path}.assoc.{vertex_label}")
    missing = [labels[i] for i, a in enumerate(assoc) if not a]
    if missing:
        _fail(f"vertices without measurements: {missing}", f"{path}.assoc")
    comeasurable = doc.get("comeasurable", [])
    if not isinstance(comeasurable, list):
        _fail("'comeasurable' must be a list of label sets", f"{path}.comeasurable")
    function_tags = doc.get("function_tags", [])
    if not isinstance(function_tags, list):
        _fail("'function_tags' must be a list of tags", f"{path}.function_tags")
    tags = {}
    for i, item in enumerate(function_tags):
        tpath = f"{path}.function_tags[{i}]"
        if not isinstance(item, dict) or not {"vertex", "measurement", "tag"} <= set(item):
            _fail("tag needs 'vertex', 'measurement' and 'tag'", tpath)
        if not isinstance(item["vertex"], str) or item["vertex"] not in index_of:
            _fail(f"unknown vertex {item['vertex']!r}", tpath)
        vertex = index_of[item["vertex"]]
        measurement = _label(item["measurement"], "measurement label", f"{tpath}.measurement")
        if measurement not in assoc[vertex]:
            _fail(f"vertex {item['vertex']!r} is not associated with {measurement!r}", tpath)
        tags[(vertex, measurement)] = _label(item["tag"], "function tag", f"{tpath}.tag")
    carried = set().union(*assoc)
    sets = []
    for i, raw in enumerate(comeasurable):
        cpath = f"{path}.comeasurable[{i}]"
        if not isinstance(raw, list) or not raw:
            _fail("comeasurable set must be a nonempty list of measurement labels", cpath)
        members = _label_set(raw, cpath)
        unknown = sorted(members - carried)
        if unknown:
            _fail(f"no vertex carries measurements {unknown}", cpath)
        sets.append(members)
    return partial(_build_realization, assoc, sets, tags)


def _build_realization(assoc, comeasurable, function_tags) -> Realization:
    from .operational import Realization

    return Realization.build(assoc, comeasurable, function_tags)


def _parse_theory(doc: Any, path: str) -> OperationalTheory:
    from .operational import Measurement, OperationalTheory

    if not isinstance(doc, dict):
        _fail("'tables' must be an object", path)
    raw_measurements = doc.get("measurements")
    if not isinstance(raw_measurements, list) or not raw_measurements:
        _fail("'measurements' must be a nonempty list", f"{path}.measurements")
    basics = []
    for i, item in enumerate(raw_measurements):
        mpath = f"{path}.measurements[{i}]"
        if not isinstance(item, dict) or "label" not in item or "outcomes" not in item:
            _fail("measurement needs 'label' and 'outcomes'", mpath)
        raw = _expect(item["outcomes"], list, "'outcomes'", f"{mpath}.outcomes")
        outcomes = []
        for j, pair in enumerate(raw):
            opath = f"{mpath}.outcomes[{j}]"
            if not isinstance(pair, list) or len(pair) != 2:
                _fail("outcome must be a [label, value] pair", opath)
            name = _label(pair[0], "outcome label", f"{opath}[0]")
            outcomes.append((name, _number(pair[1], opath)))
        label = _label(item["label"], "measurement label", f"{mpath}.label")
        try:
            basics.append(Measurement(label, tuple(outcomes)))
        except ValueError as exc:
            _fail(str(exc), mpath)
    preparations = doc.get("preparations")
    if not isinstance(preparations, list) or not preparations:
        _fail("'preparations' must be a nonempty list", f"{path}.preparations")
    preparations = [
        _label(p, "preparation", f"{path}.preparations[{j}]") for j, p in enumerate(preparations)
    ]
    cpath = f"{path}.comeasurable"
    comeasurable = [
        _label_set(_expect(raw, list, "a comeasurable set", f"{cpath}[{i}]"), f"{cpath}[{i}]")
        for i, raw in enumerate(_expect(doc.get("comeasurable", []), list, "'comeasurable'", cpath))
    ]
    entries = doc.get("entries")
    if not isinstance(entries, list):
        _fail("'entries' must be a list", f"{path}.entries")
    tables: dict = {}
    for i, item in enumerate(entries):
        epath = f"{path}.entries[{i}]"
        if not isinstance(item, dict) or not {"measurements", "preparation", "distribution"} <= set(item):
            _fail("entry needs 'measurements', 'preparation', 'distribution'", epath)
        raw = _expect(item["measurements"], list, "'measurements'", f"{epath}.measurements")
        joint = frozenset(_label_set(raw, f"{epath}.measurements"))
        order = [m.label for m in basics if m.label in joint]
        dist = {}
        raw = _expect(item["distribution"], dict, "'distribution'", f"{epath}.distribution")
        for key, value in raw.items():
            combo = tuple(key.split(","))
            if len(combo) != len(order):
                _fail(
                    f"outcome key {key!r} has {len(combo)} parts, joint has {len(order)}",
                    f"{epath}.distribution",
                )
            dist[combo] = _number(value, f"{epath}.distribution.{key}")
        prep = _label(item["preparation"], "preparation", f"{epath}.preparation")
        tables.setdefault(joint, {})[prep] = dist
    try:
        return OperationalTheory(basics, comeasurable, preparations, tables)
    except Exception as exc:
        _fail(f"invalid theory: {exc}", path)


def _parse_model(doc: Any, theory: OperationalTheory, path: str) -> OntologicalModel:
    from .ontology import OntologicalModel

    if not isinstance(doc, dict):
        _fail("model must be an object", path)
    ontic = doc.get("ontic_states")
    if not isinstance(ontic, list) or not ontic:
        _fail("'ontic_states' must be a nonempty list", f"{path}.ontic_states")
    ontic = [_label(s, "ontic state", f"{path}.ontic_states[{j}]") for j, s in enumerate(ontic)]
    ppath = f"{path}.preparations"
    preps = {}
    for prep, dist in _expect(doc.get("preparations", {}), dict, "'preparations'", ppath).items():
        preps[prep] = {
            lam: _number(v, f"{ppath}.{prep}.{lam}")
            for lam, v in _expect(dist, dict, "a preparation", f"{ppath}.{prep}").items()
        }
    responses = {}
    raw_responses = _expect(doc.get("responses", []), list, "'responses'", f"{path}.responses")
    for i, item in enumerate(raw_responses):
        rpath = f"{path}.responses[{i}]"
        if not isinstance(item, dict) or not {"measurements", "ontic", "distribution"} <= set(item):
            _fail("response needs 'measurements', 'ontic', 'distribution'", rpath)
        raw = _expect(item["measurements"], list, "'measurements'", f"{rpath}.measurements")
        joint = frozenset(_label_set(raw, f"{rpath}.measurements"))
        raw = _expect(item["distribution"], dict, "'distribution'", f"{rpath}.distribution")
        dist = {
            tuple(key.split(",")): _number(v, f"{rpath}.distribution.{key}")
            for key, v in raw.items()
        }
        responses[(joint, _label(item["ontic"], "ontic state", f"{rpath}.ontic"))] = dist
    try:
        return OntologicalModel(theory.basics, theory.maximal_joints, ontic, preps, responses)
    except Exception as exc:
        _fail(f"invalid model: {exc}", path)


# The top-level keys a scenario document may carry; any other is a parse error.
_KEYS = ("name", "vertices", "hyperedges", "edge_signs", "states", "realizations", "tables", "models")


def parse_scenario(doc: Any, digest: str) -> Scenario:
    if not isinstance(doc, dict):
        _fail("scenario must be a JSON object", "$")
    for key in doc:
        if key not in _KEYS:
            _fail(f"unknown block {key!r}; a scenario has {', '.join(_KEYS)}", f"$.{key}")
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
        if not isinstance(doc["realizations"], dict):
            _fail("'realizations' must map names to blocks", "$.realizations")
        labels = list(scenario.graph.labels)
        scenario.realizations = LazyBlocks({
            rname: _parse_realization(block, labels, f"$.realizations.{rname}")
            for rname, block in doc["realizations"].items()
        })
    if "tables" in doc:
        scenario.theory = _parse_theory(doc["tables"], "$.tables")
    if "models" in doc:
        if scenario.theory is None:
            _fail("'models' need operational 'tables'", "$.models")
        if not isinstance(doc["models"], dict):
            _fail("'models' must map names to blocks", "$.models")
        for mname, block in doc["models"].items():
            scenario.models[mname] = _parse_model(
                block, scenario.theory, f"$.models.{mname}"
            )
    return scenario


def _value_to_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return float(value)


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
        entries = []
        for joint in sorted(theory.tables, key=theory._joint_key):
            order = theory.component_order(joint)
            for prep in theory.preparations:
                if prep not in theory.tables[joint]:
                    continue
                dist = {
                    ",".join(combo): _value_to_json(v)
                    for combo, v in sorted(theory.tables[joint][prep].items())
                }
                entries.append(
                    {"measurements": list(order), "preparation": prep, "distribution": dist}
                )
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
            "entries": entries,
        }
    if scenario.models:
        blocks = {}
        for mname, model in scenario.models.items():
            responses = []
            for (joint, lam), dist in sorted(
                model.responses.items(),
                key=lambda kv: (sorted(kv[0][0]), kv[0][1]),
            ):
                responses.append(
                    {
                        "measurements": list(model.component_order(joint)),
                        "ontic": lam,
                        "distribution": {
                            ",".join(combo): _value_to_json(v)
                            for combo, v in sorted(dist.items())
                        },
                    }
                )
            blocks[mname] = {
                "ontic_states": list(model.ontic_states),
                "preparations": {
                    prep: {lam: _value_to_json(v) for lam, v in dist.items()}
                    for prep, dist in model.prep_distributions.items()
                },
                "responses": responses,
            }
        doc["models"] = blocks
    return doc
