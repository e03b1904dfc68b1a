"""Scenario files: one JSON document carrying any of a graph, states,
realizations, operational tables and ontological models.

Probabilities and matrix entries may be written as numbers or as exact
rational strings ("1/2", "-1/4"); exact values stay exact through every
verdict.  Parse failures carry a JSON path to the offending location.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import InvalidGraphError, ScenarioParseError
from .exact import ComplexMatrix, GaussianRational
from .graph import KSGraph, build_graph
from .ontology import OntologicalModel
from .operational import Measurement, OperationalTheory, _maximal_members
from .quantum import DensityOperator
from .realization import Realization


@dataclass
class Scenario:
    name: str
    digest: str
    graph: KSGraph | None = None
    states: dict[str, DensityOperator] = field(default_factory=dict)
    realizations: dict[str, Realization] = field(default_factory=dict)
    theory: OperationalTheory | None = None
    models: dict[str, OntologicalModel] = field(default_factory=dict)


def _fail(message: str, path: str):
    raise ScenarioParseError(message, path)


def _number(value: Any, path: str):
    """A probability-like value: int, float, or exact 'p/q' string."""
    if isinstance(value, bool):
        _fail("expected a number", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(f"not a rational number: {value!r}", path)
    _fail(f"expected a number, got {type(value).__name__}", path)


def _complex_entry(value: Any, path: str):
    """A matrix entry: number, or [re, im] pair; exact iff all parts are."""
    if isinstance(value, (int, str)) or isinstance(value, float):
        return _number(value, path), Fraction(0) if not isinstance(value, float) else 0.0
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
        try:
            vertices.append((str(item["label"]), str(item["operator"])))
        except (TypeError, ValueError) as exc:
            _fail(str(exc), vpath)
    hyperedges = doc.get("hyperedges")
    if hyperedges is not None:
        if not isinstance(hyperedges, list):
            _fail("'hyperedges' must be a list of index lists", f"{path}.hyperedges")
        for i, edge in enumerate(hyperedges):
            if not isinstance(edge, list) or not all(isinstance(v, int) for v in edge):
                _fail("edge must be a list of vertex indices", f"{path}.hyperedges[{i}]")
    try:
        return build_graph(vertices, hyperedges)
    except InvalidGraphError:
        raise  # structural graph problems keep their own error class
    except ValueError as exc:
        _fail(str(exc), f"{path}.vertices")


def _parse_states(doc: Any, path: str) -> dict[str, DensityOperator]:
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
                    matrix = ComplexMatrix(
                        [[GaussianRational(re, im) for re, im in row] for row in parsed]
                    )
                    states[label] = DensityOperator.from_exact(matrix)
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


def _parse_realization(doc: Any, labels: list[str], path: str) -> Realization:
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
        assoc[index_of[vertex_label]] = {str(m) for m in measurements}
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
        tags[(index_of[item["vertex"]], str(item["measurement"]))] = str(item["tag"])
    try:
        return Realization.build(assoc, [set(map(str, s)) for s in comeasurable], tags)
    except Exception as exc:
        _fail(f"invalid realization: {exc}", path)


def _parse_theory(doc: Any, path: str) -> OperationalTheory:
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
        outcomes = []
        for j, pair in enumerate(item["outcomes"]):
            opath = f"{mpath}.outcomes[{j}]"
            if not isinstance(pair, list) or len(pair) != 2:
                _fail("outcome must be a [label, value] pair", opath)
            outcomes.append((str(pair[0]), _number(pair[1], opath)))
        try:
            basics.append(Measurement(str(item["label"]), tuple(outcomes)))
        except ValueError as exc:
            _fail(str(exc), mpath)
    preparations = doc.get("preparations")
    if not isinstance(preparations, list) or not preparations:
        _fail("'preparations' must be a nonempty list", f"{path}.preparations")
    comeasurable = doc.get("comeasurable", [])
    entries = doc.get("entries")
    if not isinstance(entries, list):
        _fail("'entries' must be a list", f"{path}.entries")
    tables: dict = {}
    for i, item in enumerate(entries):
        epath = f"{path}.entries[{i}]"
        if not isinstance(item, dict) or not {"measurements", "preparation", "distribution"} <= set(item):
            _fail("entry needs 'measurements', 'preparation', 'distribution'", epath)
        joint = frozenset(map(str, item["measurements"]))
        order = [m.label for m in basics if m.label in joint]
        dist = {}
        for key, value in item["distribution"].items():
            combo = tuple(key.split(","))
            if len(combo) != len(order):
                _fail(
                    f"outcome key {key!r} has {len(combo)} parts, joint has {len(order)}",
                    f"{epath}.distribution",
                )
            dist[combo] = _number(value, f"{epath}.distribution.{key}")
        tables.setdefault(joint, {})[str(item["preparation"])] = dist
    try:
        return OperationalTheory(basics, [set(map(str, s)) for s in comeasurable],
                                 [str(p) for p in preparations], tables)
    except Exception as exc:
        _fail(f"invalid theory: {exc}", path)


def _parse_model(doc: Any, theory: OperationalTheory, path: str) -> OntologicalModel:
    if not isinstance(doc, dict):
        _fail("model must be an object", path)
    ontic = doc.get("ontic_states")
    if not isinstance(ontic, list) or not ontic:
        _fail("'ontic_states' must be a nonempty list", f"{path}.ontic_states")
    preps_doc = doc.get("preparations", {})
    preps = {}
    for prep, dist in preps_doc.items():
        preps[str(prep)] = {
            str(lam): _number(v, f"{path}.preparations.{prep}.{lam}")
            for lam, v in dist.items()
        }
    responses = {}
    for i, item in enumerate(doc.get("responses", [])):
        rpath = f"{path}.responses[{i}]"
        if not isinstance(item, dict) or not {"measurements", "ontic", "distribution"} <= set(item):
            _fail("response needs 'measurements', 'ontic', 'distribution'", rpath)
        joint = frozenset(map(str, item["measurements"]))
        dist = {
            tuple(key.split(",")): _number(v, f"{rpath}.distribution.{key}")
            for key, v in item["distribution"].items()
        }
        responses[(joint, str(item["ontic"]))] = dist
    comeasurable = [tuple(j) for j in theory.family]
    try:
        return OntologicalModel(theory.basics, comeasurable, [str(s) for s in ontic], preps, responses)
    except Exception as exc:
        _fail(f"invalid model: {exc}", path)


def parse_scenario(doc: Any, digest: str) -> Scenario:
    if not isinstance(doc, dict):
        _fail("scenario must be a JSON object", "$")
    name = str(doc.get("name", "scenario"))
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
        for rname, block in doc["realizations"].items():
            scenario.realizations[str(rname)] = _parse_realization(
                block, labels, f"$.realizations.{rname}"
            )
    if "tables" in doc:
        scenario.theory = _parse_theory(doc["tables"], "$.tables")
    if "models" in doc:
        if scenario.theory is None:
            _fail("'models' need operational 'tables'", "$.models")
        if not isinstance(doc["models"], dict):
            _fail("'models' must map names to blocks", "$.models")
        for mname, block in doc["models"].items():
            scenario.models[str(mname)] = _parse_model(
                block, scenario.theory, f"$.models.{mname}"
            )
    return scenario


def load_scenario(source: str) -> Scenario:
    """Load a builtin by name or a scenario JSON file by path."""
    from . import catalog

    if source in catalog.builtin_names():
        return builtin_scenario(source)
    path = Path(source)
    if not path.exists():
        _fail(f"no builtin or file named {source!r}", "$")
    raw = path.read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}", "$")
    return parse_scenario(doc, digest=hashlib.sha256(raw).hexdigest())


# -- builtins and serialization ----------------------------------------------


def builtin_scenario(name: str) -> Scenario:
    from . import catalog

    digest = f"builtin:{name}"
    if name == "peres-mermin":
        return Scenario(
            name=name,
            digest=digest,
            graph=catalog.peres_mermin_graph(),
            states=dict(catalog.pm_states()),
            realizations={
                "full": catalog.pm_full_realization(),
                "spin": catalog.pm_spin_realization(),
                "hyperedge": catalog.pm_hyperedge_realization(),
            },
        )
    if name == "ghz":
        return Scenario(
            name=name,
            digest=digest,
            graph=catalog.ghz_graph(),
            states=dict(catalog.ghz_states()),
            realizations={
                "full": catalog.ghz_full_realization(),
                "standard": catalog.ghz_standard_realization(),
            },
        )
    if name in ("box-m1", "box-m2", "box-m3"):
        fixture = {
            "box-m1": catalog.box_m1,
            "box-m2": catalog.box_m2,
            "box-m3": catalog.box_m3,
        }[name]()
        return Scenario(
            name=name,
            digest=digest,
            theory=fixture.theory,
            models={name.replace("box-", ""): fixture.model},
        )
    if name == "army":
        return Scenario(name=name, digest=digest, theory=catalog.army_theory())
    raise ScenarioParseError(f"unknown builtin {name!r}", "$")


def _value_to_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return float(value)


def _entry_to_json(entry: GaussianRational | complex):
    if isinstance(entry, GaussianRational):
        return [str(entry.re), str(entry.im)]
    return [entry.real, entry.imag]


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
            if rho.exact is not None:
                rows = [[_entry_to_json(v) for v in row] for row in rho.exact.rows]
            else:
                rows = [[_entry_to_json(v) for v in row] for row in rho.matrix.tolist()]
            states[label] = {"density": rows}
        doc["states"] = states
    if scenario.realizations:
        blocks = {}
        for rname, realization in scenario.realizations.items():
            assert graph is not None
            maximal = [sorted(j) for j in _maximal_members(realization.comeasurable, ())]
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
