"""Command-line entry point.

Verbs: verify, classify, search-model, ghz, robustness, catalog.  Every
command is deterministic given the same inputs; ``--json`` switches the
report to a machine-readable document that round-trips.  Exit codes:
0 success-with-verdict, 2 parse error, 3 invalid graph, 4 missing block,
5 cap exceeded, 6 bad argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as catalog_mod
from .errors import (
    BadArgumentError,
    CapExceededError,
    InvalidGraphError,
    MarginalAmbiguityError,
    MissingBlockError,
    ScenarioParseError,
)
from .graph import DEFAULT_SEARCH_CAP, search_assignments
from .ontology import min_violation_fraction, search_ncvd
from .operational import OperationalTheory, from_quantum
from .realization import classify_type, lemma_check, run_type2_argument
from .scenario import Scenario, load_scenario, scenario_to_dict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_GRAPH = 3
EXIT_MISSING_BLOCK = 4
EXIT_CAP = 5
EXIT_BAD_ARGUMENT = 6


@dataclass
class Report:
    command: str
    inputs: dict
    verdicts: dict
    witnesses: list | None = None
    certificate: dict | None = None
    timing_s: float = 0.0
    lines: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "verdicts": self.verdicts,
            "witnesses": self.witnesses,
            "certificate": self.certificate,
            "timing_s": self.timing_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        return cls(
            command=doc["command"],
            inputs=doc["inputs"],
            verdicts=doc["verdicts"],
            witnesses=doc["witnesses"],
            certificate=doc["certificate"],
            timing_s=doc["timing_s"],
        )

    def render_text(self) -> str:
        out = [f"[{self.command}] {self.inputs.get('source', '')}"]
        out.extend(self.lines)
        if self.witnesses is not None:
            shown = self.witnesses[:8]
            for w in shown:
                out.append(f"  witness: {w}")
            if len(self.witnesses) > len(shown):
                out.append(f"  ... {len(self.witnesses) - len(shown)} more witnesses")
        out.append(f"  time: {self.timing_s:.3f}s")
        return "\n".join(out)


def _scenario_inputs(scenario: Scenario) -> dict:
    return {"source": scenario.name, "digest": scenario.digest}


def _require_graph(scenario: Scenario):
    if scenario.graph is None:
        raise MissingBlockError(f"scenario {scenario.name!r} has no graph block")
    return scenario.graph


def _pick_realization(scenario: Scenario, name: str | None):
    if not scenario.realizations:
        raise MissingBlockError(f"scenario {scenario.name!r} has no realization block")
    if name is None:
        if len(scenario.realizations) == 1:
            return next(iter(scenario.realizations.items()))
        raise BadArgumentError(
            "several realizations available, pick one with --realization: "
            + ", ".join(sorted(scenario.realizations))
        )
    if name not in scenario.realizations:
        raise BadArgumentError(
            f"no realization {name!r}; available: " + ", ".join(sorted(scenario.realizations))
        )
    return name, scenario.realizations[name]


def _theory_for(scenario: Scenario, realization_name: str | None) -> tuple[OperationalTheory, dict]:
    if scenario.theory is not None:
        return scenario.theory, {"tables": "explicit"}
    graph = _require_graph(scenario)
    if not scenario.states:
        raise MissingBlockError(f"scenario {scenario.name!r} has no states to fill tables from")
    name, realization = _pick_realization(scenario, realization_name)
    theory = from_quantum(graph, scenario.states, realization)
    return theory, {"tables": "from_quantum", "realization": name}


def _require_two_valued(theory: OperationalTheory):
    """Exit 6 on a basic without exactly two outcomes; the searches need two."""
    for m in theory.basics:
        if len(m.outcomes) != 2:
            raise BadArgumentError(
                f"search needs two-valued basics; {m.label} has {len(m.outcomes)} outcomes"
            )


# -- commands -------------------------------------------------------------------


def cmd_verify(args) -> Report:
    scenario = load_scenario(args.scenario)
    graph = _require_graph(scenario)
    start = time.perf_counter()
    verdict = search_assignments(graph, cap=args.cap)
    elapsed = time.perf_counter() - start
    certificate = None
    if verdict.certificate is not None:
        certificate = {
            "kind": "parity",
            "vertex_degrees": list(verdict.certificate.vertex_degrees),
            "sign_product": verdict.certificate.sign_product,
        }
    report = Report(
        command="verify",
        inputs=_scenario_inputs(scenario),
        verdicts={
            "satisfiable": verdict.satisfiable,
            "witness_count": len(verdict.witnesses),
            "assignment_space": 2**graph.n_vertices,
            "certificate": "parity" if certificate else None,
        },
        witnesses=[list(w) for w in verdict.witnesses] or None,
        certificate=certificate,
        timing_s=elapsed,
    )
    report.lines = [
        f"  {'SAT' if verdict.satisfiable else 'UNSAT'} over {2**graph.n_vertices} assignments, "
        f"{len(verdict.witnesses)} witnesses",
        f"  parity certificate: {'yes' if certificate else 'no'}",
    ]
    return report


def cmd_classify(args) -> Report:
    scenario = load_scenario(args.scenario)
    graph = _require_graph(scenario)
    name, realization = _pick_realization(scenario, args.realization)
    start = time.perf_counter()
    kind = classify_type(graph, realization)
    lemma = lemma_check(graph, realization)
    elapsed = time.perf_counter() - start
    from .realization import is_hyperedge_based, is_unique

    based, based_edges = is_hyperedge_based(graph, realization)
    flagged = [
        {"edge": e, "vertices": list(graph.edge_labels(e))}
        for e in kind.non_comeasurable_edges
    ]
    report = Report(
        command="classify",
        inputs={**_scenario_inputs(scenario), "realization": name},
        verdicts={
            "type": kind.kind,
            "non_comeasurable_edges": flagged,
            "unique": is_unique(realization),
            "hyperedge_based": based,
            "hyperedge_based_edges": list(based_edges),
            "lemma_holds": lemma.holds,
            "lemma_antecedent": lemma.antecedent,
            "lemma_witnesses": [graph.labels[v] for v in lemma.witnesses],
        },
        timing_s=elapsed,
    )
    edges_text = ", ".join(
        "{" + ",".join(f["vertices"]) + "}" for f in flagged
    ) or "none"
    report.lines = [
        f"  type {kind.kind}; non-comeasurable edges: {edges_text}",
        f"  unique: {is_unique(realization)}, hyperedge-based: {based}",
        f"  lemma: antecedent={'holds' if lemma.antecedent else 'fails'}, "
        f"implication {'holds' if lemma.holds else 'VIOLATED'}",
    ]
    return report


def cmd_search_model(args) -> Report:
    scenario = load_scenario(args.scenario)
    theory, origin = _theory_for(scenario, args.realization)
    _require_two_valued(theory)
    start = time.perf_counter()
    model = search_ncvd(theory, cap=args.cap)
    # a model violates no support, so only UNSAT needs the second search
    if model is None:
        fraction = min_violation_fraction(theory, cap=args.cap)
    else:
        fraction = Fraction(0)
    elapsed = time.perf_counter() - start
    n_basics = len(theory.basics)
    report = Report(
        command="search-model",
        inputs={**_scenario_inputs(scenario), **origin},
        verdicts={
            "satisfiable": model is not None,
            "assignments_checked": 2**n_basics,
            "model_states": list(model.ontic_states) if model else None,
            "min_violation_fraction": str(fraction),
        },
        timing_s=elapsed,
    )
    if model is None:
        report.lines = [
            f"  UNSAT: none of the {2**n_basics} deterministic noncontextual "
            "assignments fits the supports",
        ]
    else:
        report.lines = [
            f"  SAT: {len(model.ontic_states)} deterministic noncontextual "
            "assignments fit the supports",
        ]
    report.lines.append(f"  minimum violation fraction: {fraction}")
    return report


def _parse_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    values = []
    for p in parts:
        if p in ("+", "+1", "1"):
            values.append(1)
        elif p in ("-", "-1"):
            values.append(-1)
        else:
            raise BadArgumentError(f"cannot read {p!r} as an eigenvalue (+1 or -1)")
    return tuple(values)


def cmd_ghz(args) -> Report:
    scenario = load_scenario(args.scenario)
    graph = _require_graph(scenario)
    name, realization = _pick_realization(scenario, args.realization)
    kind = classify_type(graph, realization)
    if kind.kind != "II":
        raise BadArgumentError(
            f"realization {name!r} is type {kind.kind}; the state-dependent "
            "pipeline needs type II"
        )
    pinned_edge = kind.non_comeasurable_edges[0]
    edge_size = len(graph.hyperedges[pinned_edge])
    sign = graph.edge_signs[pinned_edge]
    target = -sign if args.flip_sign else sign
    if args.tuple is None:
        values = [1] * edge_size
        if target == -1:
            values[-1] = -1
        tuple_values = tuple(values)
    else:
        tuple_values = _parse_tuple(args.tuple)
    start = time.perf_counter()
    result = run_type2_argument(graph, realization, tuple_values, flip_sign=args.flip_sign)
    elapsed = time.perf_counter() - start
    report = Report(
        command="ghz",
        inputs={
            **_scenario_inputs(scenario),
            "realization": name,
            "tuple": list(tuple_values),
            "flip_sign": args.flip_sign,
        },
        verdicts={
            "satisfiable": result.satisfiable,
            "pinned_edge": {
                "index": result.pinned_edge,
                "vertices": list(graph.edge_labels(result.pinned_edge)),
            },
            "eigenstate_verified": result.eigenstate_verified,
        },
        witnesses=[list(result.witness)] if result.witness else None,
        timing_s=elapsed,
    )
    outcome = "SAT (argument fails)" if result.satisfiable else "UNSAT (argument succeeds)"
    report.lines = [
        f"  pinned edge {{{','.join(graph.edge_labels(result.pinned_edge))}}} "
        f"to {tuple_values}",
        f"  eigenstate verified: {result.eigenstate_verified}",
        f"  {outcome}",
    ]
    return report


def cmd_robustness(args) -> Report:
    scenario = load_scenario(args.scenario)
    theory, origin = _theory_for(scenario, args.realization)
    _require_two_valued(theory)
    start = time.perf_counter()
    fraction = min_violation_fraction(theory, cap=args.cap)
    elapsed = time.perf_counter() - start
    report = Report(
        command="robustness",
        inputs={**_scenario_inputs(scenario), **origin},
        verdicts={
            "min_violation_fraction": str(fraction),
            "assignments_checked": 2 ** len(theory.basics),
            "maximal_joints": len(theory.maximal_joints),
        },
        timing_s=elapsed,
    )
    report.lines = [
        f"  minimum violation fraction over {2 ** len(theory.basics)} assignments: {fraction}"
    ]
    return report


def cmd_catalog(args) -> Report:
    start = time.perf_counter()
    if args.name:
        if args.name not in catalog_mod.CATALOG:
            raise BadArgumentError(
                f"unknown builtin {args.name!r}; try: " + ", ".join(catalog_mod.builtin_names())
            )
        entry = catalog_mod.CATALOG[args.name]
        scenario = load_scenario(args.name)
        detail = scenario_to_dict(scenario)
        report = Report(
            command="catalog",
            inputs={"source": args.name, "digest": scenario.digest},
            verdicts={"name": entry.name, "kind": entry.kind, "summary": entry.summary,
                      "scenario": detail},
            timing_s=time.perf_counter() - start,
        )
        lines = [f"  {entry.name} ({entry.kind}): {entry.summary}"]
        if scenario.graph is not None:
            for label, op in scenario.graph.vertices:
                lines.append(f"    vertex {label}: {op}")
            for e, edge in enumerate(scenario.graph.hyperedges):
                members = ",".join(scenario.graph.labels[v] for v in edge)
                lines.append(
                    f"    edge {e}: {{{members}}} sign {scenario.graph.edge_signs[e]:+d}"
                )
        report.lines = lines
        return report
    entries = [
        {"name": e.name, "kind": e.kind, "summary": e.summary}
        for e in catalog_mod.CATALOG.values()
    ]
    report = Report(
        command="catalog",
        inputs={"source": "builtins"},
        verdicts={"entries": entries},
        timing_s=time.perf_counter() - start,
    )
    report.lines = [f"  {e['name']} ({e['kind']}): {e['summary']}" for e in entries]
    return report


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SEARCH_CAP,
        help="vertex/measurement cap for exhaustive searches",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reserved; no verdict depends on randomness",
    )

    parser = argparse.ArgumentParser(
        prog="kscheck",
        description="exhaustive verification of contextuality no-go scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="value-assignment search")
    p.add_argument("scenario", help="builtin name or scenario file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="argument type I/II/III")
    p.add_argument("scenario")
    p.add_argument("--realization", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "search-model", parents=[common], help="noncontextual value-definite model search"
    )
    p.add_argument("scenario")
    p.add_argument("--realization", default=None)
    p.set_defaults(func=cmd_search_model)

    p = sub.add_parser("ghz", parents=[common], help="state-dependent type II pipeline")
    p.add_argument("scenario")
    p.add_argument("--realization", default="standard")
    p.add_argument("--tuple", default=None, help="pinned eigenvalue tuple, e.g. +1,+1,+1,-1")
    p.add_argument("--flip-sign", action="store_true", help="sanity control with inverted sign")
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser(
        "robustness", parents=[common], help="minimum support-violation fraction"
    )
    p.add_argument("scenario")
    p.add_argument("--realization", default=None)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("catalog", parents=[common], help="list built-in scenarios")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidGraphError as exc:
        print(f"invalid graph: {exc}", file=sys.stderr)
        return EXIT_INVALID_GRAPH
    except MissingBlockError as exc:
        print(f"missing block: {exc}", file=sys.stderr)
        return EXIT_MISSING_BLOCK
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (BadArgumentError, MarginalAmbiguityError) as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGUMENT
    try:
        if args.json:
            print(report.to_json())
        else:
            print(report.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``).  Point stdout at
        # devnull so the interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
