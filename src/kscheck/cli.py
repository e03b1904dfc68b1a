"""Command-line entry point.

Verbs: verify, classify, search-model, ghz, robustness, catalog.  Every
command is deterministic given the same inputs; ``--json`` switches the
report to a machine-readable document that round-trips.  ``VERBS`` gives
each verb's command and options, and ``parse_args`` reads the command line
by it.  Exit codes: 0 success-with-verdict, 2 parse or usage error,
3 invalid graph, 4 missing block, 5 cap exceeded, 6 bad argument.  ``main``
returns the exit code; ``run``,
the ``kscheck`` command and ``python -m kscheck.cli``, ends the process
with it once the output is flushed.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

from .errors import SEARCH_CAP, BadArgumentError, KSCheckError, MissingBlockError
from .parity import CHUNK_ROWS
from .scenario import Scenario, load_scenario
from .values import Value

# Each command imports its own engine, so a call loads only the modules its
# verb uses.
if TYPE_CHECKING:
    from .operational import OperationalTheory

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_GRAPH = 3
EXIT_MISSING_BLOCK = 4
EXIT_CAP = 5
EXIT_BAD_ARGUMENT = 6


def _int_rows(rows) -> bool:
    """True for a nonempty list or tuple of nonempty rows of plain ints."""
    shaped = isinstance(rows, (list, tuple)) and all(rows) and {*map(type, rows)} <= {list, tuple}
    return bool(rows) and shaped and {*map(type, chain.from_iterable(rows))} == {int}


def _indented_rows(rows):
    """Integer ``rows`` as ``indent=2`` writes them one level down, a chunk at
    a time, from the C encoder's compact dump (``indent`` runs the Python one):
    in integer rows only ``", "`` and ``"], ["`` need breaking up."""
    yield "[\n    [\n      "
    for start in range(0, len(rows), CHUNK_ROWS):
        if start:
            yield "\n    ],\n    [\n      "
        compact = json.dumps(rows[start : start + CHUNK_ROWS])
        yield compact[2:-2].replace("], [", "\n    ],\n    [\n      ").replace(", ", ",\n      ")
    yield "\n    ]\n  ]"


class Report(Value):
    """A verb's verdicts as text ``lines`` or one JSON document.  ``to_json``
    writes an integer witness listing a chunk at a time, deciding that every
    row is one before writing the first, so no listing is held as a string."""

    _fields = ("command", "inputs", "verdicts", "witnesses", "certificate", "timing_s", "lines")

    def __init__(
        self,
        command: str,
        inputs: dict,
        verdicts: dict,
        witnesses: list[tuple[int, ...]] | None = None,
        certificate: dict | None = None,
        timing_s: float = 0.0,
        lines: list[str] | None = None,
    ):
        self.command = command
        self.inputs = inputs
        self.verdicts = verdicts
        self.witnesses = witnesses
        self.certificate = certificate
        self.timing_s = timing_s
        self.lines = [] if lines is None else lines

    def to_dict(self) -> dict:
        """The JSON document: every field but the text ``lines``, in field order."""
        return {name: getattr(self, name) for name in self._fields if name != "lines"}

    def to_json(self, out=None) -> str | None:
        """``json.dumps(self.to_dict(), indent=2)``, field by field, written to
        ``out`` when it is given and returned otherwise."""
        sink = io.StringIO() if out is None else out
        separator = "{\n  "
        for name, value in self.to_dict().items():
            sink.write(f"{separator}{json.dumps(name)}: ")
            separator = ",\n  "
            if name == "witnesses" and _int_rows(value):
                sink.writelines(_indented_rows(value))
            else:
                # strings escape their newlines, so every newline is layout
                sink.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        sink.write("\n}")
        return sink.getvalue() if out is None else None

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        return cls(
            command=doc["command"],
            inputs=doc["inputs"],
            verdicts=doc["verdicts"],
            witnesses=None if doc["witnesses"] is None else [tuple(w) for w in doc["witnesses"]],
            certificate=doc["certificate"],
            timing_s=doc["timing_s"],
        )

    def render_text(self) -> str:
        out = [f"[{self.command}] {self.inputs.get('source', '')}"]
        out.extend(self.lines)
        if self.witnesses is not None:
            shown = self.witnesses[:8]
            for w in shown:
                out.append(f"  witness: {list(w)}")
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
    from .operational import from_quantum

    if scenario.theory is not None:
        if realization_name is not None:
            raise BadArgumentError(
                f"scenario {scenario.name!r} has explicit tables; --realization does not apply"
            )
        return scenario.theory, {"tables": "explicit"}
    graph = _require_graph(scenario)
    if not scenario.states:
        raise MissingBlockError(f"scenario {scenario.name!r} has no states to fill tables from")
    name, realization = _pick_realization(scenario, realization_name)
    theory = from_quantum(graph, scenario.states, realization)
    return theory, {"tables": "from_quantum", "realization": name}


# -- commands -------------------------------------------------------------------


def cmd_verify(args) -> Report:
    from .graph import search_assignments

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
        witnesses=list(verdict.witnesses) or None,
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
    from .realization import classify_type, lemma_check

    scenario = load_scenario(args.scenario)
    graph = _require_graph(scenario)
    name, realization = _pick_realization(scenario, args.realization)
    start = time.perf_counter()
    kind = classify_type(graph, realization)
    lemma = lemma_check(graph, realization)
    elapsed = time.perf_counter() - start
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
            "unique": lemma.unique,
            "hyperedge_based": lemma.hyperedge_based,
            "hyperedge_based_edges": list(lemma.hyperedge_based_edges),
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
        f"  unique: {lemma.unique}, hyperedge-based: {lemma.hyperedge_based}",
        f"  lemma: antecedent={'holds' if lemma.antecedent else 'fails'}, "
        f"implication {'holds' if lemma.holds else 'VIOLATED'}",
    ]
    return report


def cmd_search_model(args) -> Report:
    from .ontology import search_states

    scenario = load_scenario(args.scenario)
    theory, origin = _theory_for(scenario, args.realization)
    start = time.perf_counter()
    states, fraction = search_states(theory, args.cap)
    elapsed = time.perf_counter() - start
    n_basics = len(theory.basics)
    report = Report(
        command="search-model",
        inputs={**_scenario_inputs(scenario), **origin},
        verdicts={
            "satisfiable": bool(states),
            "assignments_checked": 2**n_basics,
            "model_states": states or None,
            "min_violation_fraction": str(fraction),
        },
        timing_s=elapsed,
    )
    if not states:
        report.lines = [
            f"  UNSAT: none of the {2**n_basics} deterministic noncontextual "
            "assignments fits the supports",
        ]
    else:
        report.lines = [
            f"  SAT: {len(states)} deterministic noncontextual "
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
    from .realization import run_type2_argument

    scenario = load_scenario(args.scenario)
    graph = _require_graph(scenario)
    name, realization = _pick_realization(scenario, args.realization)
    tuple_values = None if args.tuple is None else _parse_tuple(args.tuple)
    start = time.perf_counter()
    result = run_type2_argument(
        graph, realization, tuple_values, flip_sign=args.flip_sign, cap=args.cap
    )
    elapsed = time.perf_counter() - start
    report = Report(
        command="ghz",
        inputs={
            **_scenario_inputs(scenario),
            "realization": name,
            "tuple": list(result.pinned_tuple),
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
        witnesses=[result.witness] if result.witness else None,
        timing_s=elapsed,
    )
    outcome = "SAT (argument fails)" if result.satisfiable else "UNSAT (argument succeeds)"
    report.lines = [
        f"  pinned edge {{{','.join(graph.edge_labels(result.pinned_edge))}}} "
        f"to {result.pinned_tuple}",
        f"  eigenstate verified: {result.eigenstate_verified}",
        f"  {outcome}",
    ]
    return report


def cmd_robustness(args) -> Report:
    from .ontology import min_violation_fraction

    scenario = load_scenario(args.scenario)
    theory, origin = _theory_for(scenario, args.realization)
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
    from .catalog import CATALOG

    start = time.perf_counter()
    if args.name:
        if args.name not in CATALOG:
            raise BadArgumentError(f"unknown builtin {args.name!r}; try: " + ", ".join(CATALOG))
        from .scenario_json import scenario_to_dict

        entry = CATALOG[args.name]
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
        for e in CATALOG.values()
    ]
    report = Report(
        command="catalog",
        inputs={"source": "builtins"},
        verdicts={"entries": entries},
        timing_s=time.perf_counter() - start,
    )
    report.lines = [f"  {e['name']} ({e['kind']}): {e['summary']}" for e in entries]
    return report


# -- argument reading -------------------------------------------------------------


class Verb(NamedTuple):
    """A verb's command, its one positional argument (optional when not
    ``required``), its options with their defaults, and its help line.  An
    option whose default is False is a flag; every other one takes a value,
    read as an integer for ``--cap``."""

    func: Callable[..., Report]
    positional: str
    required: bool
    options: dict[str, object]
    summary: str


_SEARCHING = {"--json": False, "--cap": SEARCH_CAP}

VERBS = {
    "verify": Verb(cmd_verify, "scenario", True, _SEARCHING, "value-assignment search"),
    "classify": Verb(
        cmd_classify, "scenario", True, {"--json": False, "--realization": None},
        "argument type I/II/III",
    ),
    "search-model": Verb(
        cmd_search_model, "scenario", True, {**_SEARCHING, "--realization": None},
        "noncontextual value-definite model search",
    ),
    "ghz": Verb(
        cmd_ghz, "scenario", True,
        {**_SEARCHING, "--realization": "standard", "--tuple": None, "--flip-sign": False},
        "state-dependent type II pipeline",
    ),
    "robustness": Verb(
        cmd_robustness, "scenario", True, {**_SEARCHING, "--realization": None},
        "minimum support-violation fraction",
    ),
    "catalog": Verb(cmd_catalog, "name", False, {"--json": False}, "list built-in scenarios"),
}


def _usage(verb: str | None) -> str:
    if verb is None:
        return "usage: kscheck [-h] {" + ",".join(VERBS) + "} ..."
    spec = VERBS[verb]
    words = ["usage: kscheck", verb, "[-h]"]
    for option, default in spec.options.items():
        meta = option[2:].upper().replace("-", "_")
        words.append(f"[{option}]" if default is False else f"[{option} {meta}]")
    words.append(spec.positional if spec.required else f"[{spec.positional}]")
    return " ".join(words)


def _refuse(verb: str | None, message: str) -> NoReturn:
    print(f"{_usage(verb)}\nkscheck: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _help(verb: str | None) -> NoReturn:
    if verb is None:
        about = ["exhaustive verification of contextuality no-go scenarios", ""]
        about += [f"  {name:<13} {spec.summary}" for name, spec in VERBS.items()]
    else:
        about = [VERBS[verb].summary]
    print("\n".join([_usage(verb), "", *about]))
    raise SystemExit(EXIT_OK)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace ``args.func(args)`` takes: ``command`` and ``func``, the
    verb's positional, and each of its options under its name without the
    dashes (``flip_sign``), its default when absent.  Options are spelled in
    full, as ``--opt VALUE`` or ``--opt=VALUE``; a value is the next token
    unless that starts with ``--``, so ``--tuple -1,+1,+1,+1`` and
    ``--cap -1`` read as values.  After ``--`` every token is positional.
    A usage error prints the usage and the error on stderr and exits 2;
    ``-h`` or ``--help`` prints the help on stdout and exits 0."""
    if not argv:
        _refuse(None, "the following arguments are required: command")
    verb, rest = argv[0], argv[1:]
    if verb in ("-h", "--help"):
        _help(None)
    spec = VERBS.get(verb)
    if spec is None:
        _refuse(None, f"argument command: invalid choice: {verb!r} (choose from {', '.join(VERBS)})")
    values = {option[2:].replace("-", "_"): default for option, default in spec.options.items()}
    positionals: list[str] = []
    unknown: list[str] = []
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token == "--":
            positionals += rest[i:]
            break
        if not token.startswith("-") or token == "-":
            positionals.append(token)
            continue
        if token in ("-h", "--help"):
            _help(verb)
        option, explicit, value = token.partition("=")
        if option not in spec.options:
            unknown.append(token)
            continue
        key = option[2:].replace("-", "_")
        if spec.options[option] is False:
            if explicit:
                _refuse(verb, f"argument {option}: ignored explicit argument {value!r}")
            values[key] = True
            continue
        if not explicit:
            if i == len(rest) or rest[i].startswith("--"):
                _refuse(verb, f"argument {option}: expected one argument")
            value = rest[i]
            i += 1
        if option == "--cap":
            try:
                value = int(value)
            except ValueError:
                _refuse(verb, f"argument --cap: invalid int value: {value!r}")
        values[key] = value
    if spec.required and not positionals:
        _refuse(verb, f"the following arguments are required: {spec.positional}")
    if unknown or len(positionals) > 1:
        _refuse(verb, "unrecognized arguments: " + " ".join(unknown + positionals[1:]))
    values[spec.positional] = positionals[0] if positionals else None
    return SimpleNamespace(command=verb, func=spec.func, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = args.func(args)
    except KSCheckError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        if args.json:
            report.to_json(sys.stdout)
            print()
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


def run():
    """The command-line entry point: ``main()``, then end the process.

    Once the report and any message are flushed nothing is left to do, so
    the process ends with ``os._exit`` and skips the interpreter's teardown
    of every module and object.  If a flush fails, the usual exit runs and
    reports it as Python does.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
