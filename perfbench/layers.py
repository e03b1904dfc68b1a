"""Per-layer metrics from the spans of traced calls.

Every ``*_s`` metric is self time, averaged over the traced calls: a span's
duration minus the part of it that its child spans cover, summed over the
spans of that name in a call.  Counts are averaged over calls the same way;
ratios are pooled over all calls of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# metric -> unit, in the order of BENCHMARK.json's per_layer list
UNITS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}

# metric -> the end-to-end metric and workload it should move
PER_LAYER = {
    "import.python_s": "setup_s and latency_p50_ms on paper; flat elsewhere",
    "import.numpy_s": "setup_s and latency_p50_ms on paper; flat on qubits, wide",
    "import.kscheck_s": "setup_s and latency_p50_ms on paper; flat on qubits, wide",
    "scenario.load_s": "setup_s on qubits",
    "scenario.input_kb": "setup_s on qubits",
    "pauli.to_matrix_s": "latency_p50_ms, verdicts_per_s on qubits; ghz calls of paper",
    "pauli.to_matrix_misses": "latency_p50_ms, verdicts_per_s on qubits",
    "pauli.spectral_projection_s": "latency_p50_ms, verdicts_per_s on qubits; ghz calls of paper",
    "pauli.spectral_projection_misses": "latency_p50_ms, verdicts_per_s on qubits",
    "exact.kron_calls": "verdicts_per_s, peak_rss_mb on qubits",
    "exact.kron_s": "verdicts_per_s, peak_rss_mb on qubits",
    "exact.matmul_calls": "verdicts_per_s, peak_rss_mb on qubits",
    "exact.matmul_s": "verdicts_per_s, peak_rss_mb on qubits",
    "exact.trace_product_calls": "verdicts_per_s, peak_rss_mb on qubits",
    "exact.trace_product_s": "verdicts_per_s, peak_rss_mb on qubits",
    "quantum.support_table_s": "latency_p50_ms on qubits",
    "quantum.joint_projection_misses": "latency_p50_ms on qubits",
    "quantum.joint_projection_hit_ratio": "latency_p50_ms on qubits",
    "quantum.born_calls": "latency_p50_ms on qubits",
    "quantum.born_s": "latency_p50_ms on qubits",
    "operational.from_quantum_self_s": "latency_p50_ms on qubits; verdicts_per_s on wide",
    "operational.support_s": "latency_p50_ms on qubits; verdicts_per_s on wide",
    "graph.build_s": "latency_p50_ms on wide",
    "graph.search_s": "latency_p50_ms on wide",
    "graph.witnesses": "latency_p50_ms on wide",
    "graph.witness_ratio": "latency_p50_ms on wide",
    "ontology.min_violation_s": "verdicts_per_s on wide",
    "ontology.search_ncvd_self_s": "verdicts_per_s on wide (search-model)",
    "ontology.model_build_s": "verdicts_per_s on wide",
    "ontology.assignments": "verdicts_per_s on wide",
    "ontology.accept_ratio": "verdicts_per_s on wide",
    "ontology.model_states": "verdicts_per_s on wide",
    "realization.classify_s": "latency_p50_ms on paper; ghz calls of qubits",
    "realization.lemma_s": "latency_p50_ms on paper (classify)",
    "realization.type2_s": "latency_p50_ms on paper; ghz calls of qubits",
    "cli.report_s": "latency_p50_ms on wide",
    "cli.stdout_kb": "latency_p50_ms on wide",
    "trace.overhead_frac": "none: traced against untraced wall time",
    "trace.coverage_frac": "none: share of in-process time inside spans",
}

SELF_TIME = {
    "import.numpy_s": "import.numpy",
    "import.kscheck_s": "import.kscheck",
    "scenario.load_s": "scenario.load",
    "pauli.to_matrix_s": "pauli.to_matrix",
    "pauli.spectral_projection_s": "pauli.spectral_projection",
    "exact.kron_s": "exact.kron",
    "exact.matmul_s": "exact.matmul",
    "exact.trace_product_s": "exact.trace_product",
    "quantum.support_table_s": "quantum.support_table",
    "quantum.born_s": "quantum.born",
    "operational.from_quantum_self_s": "operational.from_quantum",
    "operational.support_s": "operational.support",
    "graph.build_s": "graph.build",
    "graph.search_s": "graph.search",
    "ontology.min_violation_s": "ontology.min_violation",
    "ontology.search_ncvd_self_s": "ontology.search_ncvd",
    "ontology.model_build_s": "ontology.model_build",
    "realization.classify_s": "realization.classify",
    "realization.lemma_s": "realization.lemma",
    "realization.type2_s": "realization.type2",
    "cli.report_s": "cli.report",
}

SPAN_COUNT = {
    "exact.kron_calls": "exact.kron",
    "exact.matmul_calls": "exact.matmul",
    "exact.trace_product_calls": "exact.trace_product",
    "quantum.born_calls": "quantum.born",
}

CACHE_MISSES = {
    "pauli.to_matrix_misses": "to_matrix",
    "pauli.spectral_projection_misses": "spectral_projection",
    "quantum.joint_projection_misses": "joint_projection",
}


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span less the time its children cover."""
    covered = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        out[name] += end - start - covered[span_id]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(calls) -> dict[str, float]:
    """Per-layer metrics over traced calls.

    Each call is a dict with ``trace`` (the tracer's output), ``wall`` and
    ``plain_wall`` (seconds from spawn to exit, traced and untraced),
    ``stdout_bytes`` and ``input_bytes``.
    """
    totals = defaultdict(float)
    for call in calls:
        trace = call["trace"]
        spans = trace["spans"]
        root = spans[0]
        selfs = self_times(spans)
        for metric, span in SELF_TIME.items():
            totals[metric] += selfs.get(span, 0.0)
        for metric, span in SPAN_COUNT.items():
            totals[metric] += sum(1 for s in spans if s[2] == span)
        for metric, cached in CACHE_MISSES.items():
            totals[metric] += trace["caches"].get(cached, {}).get("misses", 0)
        joint = trace["caches"].get("joint_projection", {})
        totals["joint_hits"] += joint.get("hits", 0)
        totals["joint_lookups"] += joint.get("hits", 0) + joint.get("misses", 0)
        for _, _, name, _, _, note in spans:
            if name == "graph.search":
                totals["graph.witnesses"] += note["witnesses"]
                totals["graph_space"] += note["space"]
            elif name.startswith("ontology.") and note:
                totals["ontology.assignments"] += note["assignments"]
                if "accepted" in note:
                    totals["ontology.model_states"] += note["accepted"]
                    totals["ncvd_assignments"] += note["assignments"]
        totals["import.python_s"] += root[3] - trace["spawned_at"]
        totals["covered"] += sum(s[4] - s[3] for s in spans if s[1] == 0)
        totals["in_process"] += root[4] - root[3]
        totals["wall"] += call["wall"]
        totals["plain_wall"] += call["plain_wall"]
        totals["cli.stdout_kb"] += call["stdout_bytes"] / 1024
        totals["scenario.input_kb"] += call["input_bytes"] / 1024

    n = len(calls)
    metrics = {name: totals[name] / n for name in PER_LAYER if name in totals}
    metrics["quantum.joint_projection_hit_ratio"] = _ratio(totals["joint_hits"], totals["joint_lookups"])
    metrics["graph.witness_ratio"] = _ratio(totals["graph.witnesses"], totals["graph_space"])
    metrics["ontology.accept_ratio"] = _ratio(totals["ontology.model_states"], totals["ncvd_assignments"])
    metrics["trace.overhead_frac"] = _ratio(totals["wall"], totals["plain_wall"]) - 1.0
    metrics["trace.coverage_frac"] = _ratio(totals["covered"], totals["in_process"])
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return {name: metrics[name] for name in PER_LAYER}
