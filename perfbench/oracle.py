"""Known-answer checks for one CLI call.

``check`` returns None for a correct answer and a one-line reason
otherwise.  It reads only the fields whose values are fixed mathematically
(see workloads.py for where each expected value comes from); timing, digests
and certificate kinds beyond what the paper asserts stay unpinned.
"""

from __future__ import annotations

import json

_OUTCOME = {"+1": 1, "-1": -1}


def _violated_edge(values, constraints) -> int | None:
    for e, (edge, sign) in enumerate(zip(constraints["edges"], constraints["signs"])):
        product = 1
        for v in edge:
            product *= values[v]
        if product != sign:
            return e
    return None


def check_assignments(assignments, constraints, what: str) -> str | None:
    """Every assignment is a ±1 vector meeting every edge sign, none repeated."""
    n = len(constraints["labels"])
    seen = set()
    for k, values in enumerate(assignments):
        values = tuple(values)
        if len(values) != n or any(x not in (1, -1) for x in values):
            return f"{what} {k} is not a ±1 vector of length {n}"
        edge = _violated_edge(values, constraints)
        if edge is not None:
            labels = [constraints["labels"][v] for v in constraints["edges"][edge]]
            return f"{what} {k} breaks edge {{{','.join(labels)}}}"
        if values in seen:
            return f"{what} {k} repeats an earlier one"
        seen.add(values)
    return None


def _model_assignments(states):
    """Ontic state labels are comma-joined outcome labels in vertex order."""
    return [[_OUTCOME.get(part, 0) for part in state.split(",")] for state in states]


def check_report(doc, expect: dict) -> str | None:
    if not isinstance(doc, dict) or not isinstance(doc.get("verdicts"), dict):
        return "report has no verdicts object"
    verdicts = doc["verdicts"]
    for key in ("satisfiable", "witness_count", "min_violation_fraction", "type",
                "eigenstate_verified"):
        if key in expect and verdicts.get(key) != expect[key]:
            return f"{key} is {verdicts.get(key)!r}, expected {expect[key]!r}"
    if "certificate" in expect:
        certificate = doc.get("certificate") or {}
        if verdicts.get("certificate") != expect["certificate"] or certificate.get("kind") != expect["certificate"]:
            return f"certificate is {verdicts.get('certificate')!r}, expected {expect['certificate']!r}"
    states = verdicts.get("model_states") or []
    if "model_states" in expect and len(states) != expect["model_states"]:
        return f"model has {len(states)} states, expected {expect['model_states']}"
    if "witnesses_satisfy" in expect:
        witnesses = doc.get("witnesses") or []
        if len(witnesses) != expect["witness_count"]:
            return f"{len(witnesses)} witnesses listed, expected {expect['witness_count']}"
        reason = check_assignments(witnesses, expect["witnesses_satisfy"], "witness")
        if reason:
            return reason
    if "model_states_satisfy" in expect:
        reason = check_assignments(_model_assignments(states), expect["model_states_satisfy"], "model state")
        if reason:
            return reason
    if "catalog" in expect:
        names = sorted(entry.get("name") for entry in verdicts.get("entries", []))
        if names != expect["catalog"]:
            return f"catalog lists {names}, expected {expect['catalog']}"
    if "catalog_vertices" in expect:
        scenario = verdicts.get("scenario") or {}
        shape = (len(scenario.get("vertices", [])), len(scenario.get("hyperedges", [])))
        if shape != (expect["catalog_vertices"], expect["catalog_edges"]):
            return f"catalog entry has {shape[0]} vertices and {shape[1]} edges"
    return None


def check(returncode: int, stdout: bytes, expect: dict) -> str | None:
    """Exit code 0, a JSON report on stdout, and the pinned answers in it."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    return check_report(doc, expect)
