"""One traced CLI call: ``python tracer.py SPANS_OUT SPAWNED_AT CALL_ID -- VERB ARGS...``.

Behaves like ``python -m kscheck.cli VERB ARGS...`` (same stdout, same exit
code) but records a span around every call into the public functions each
module exposes, plus the numpy and kscheck imports.  Spans stay in memory
and are written to SPANS_OUT as JSON when the call ends, under the call's
CALL_ID, together with the ``lru_cache`` statistics of the cached functions.

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared between processes, so the gap to the
first line here is the interpreter's own start-up.
"""

import time

STARTED = time.monotonic()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (module, attribute, span) for module-level functions; every kscheck module
# that imported the function by name gets the traced version too.
FUNCTIONS = (
    ("kscheck.scenario", "load_scenario", "scenario.load"),
    ("kscheck.graph", "build_graph", "graph.build"),
    ("kscheck.graph", "search_assignments", "graph.search"),
    ("kscheck.pauli", "to_matrix", "pauli.to_matrix"),
    ("kscheck.pauli", "spectral_projection", "pauli.spectral_projection"),
    ("kscheck.quantum", "support_table", "quantum.support_table"),
    ("kscheck.quantum", "born_probability", "quantum.born"),
    ("kscheck.quantum", "joint_born_probability", "quantum.born"),
    ("kscheck.operational", "from_quantum", "operational.from_quantum"),
    ("kscheck.operational", "support", "operational.support"),
    ("kscheck.ontology", "min_violation_fraction", "ontology.min_violation"),
    ("kscheck.ontology", "search_ncvd", "ontology.search_ncvd"),
    ("kscheck.realization", "classify_type", "realization.classify"),
    ("kscheck.realization", "lemma_check", "realization.lemma"),
    ("kscheck.realization", "run_type2_argument", "realization.type2"),
)

# (module, class, method, span), wrapped on the class itself.
METHODS = (
    ("kscheck.exact", "ComplexMatrix", "kron", "exact.kron"),
    ("kscheck.exact", "ComplexMatrix", "__matmul__", "exact.matmul"),
    ("kscheck.exact", "ComplexMatrix", "trace_product", "exact.trace_product"),
    ("kscheck.ontology", "OntologicalModel", "from_deterministic_assignments", "ontology.model_build"),
    ("kscheck.cli", "Report", "to_json", "cli.report"),
    ("kscheck.cli", "Report", "render_text", "cli.report"),
)

CACHED = (
    ("kscheck.pauli", "to_matrix"),
    ("kscheck.pauli", "spectral_projection"),
    ("kscheck.quantum", "joint_projection"),
)


def _search_note(args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    return {"witnesses": len(result.witnesses), "space": 2**graph.n_vertices}


def _assignments(args, kwargs):
    theory = args[0] if args else kwargs["theory"]
    return 2 ** len(theory.basics)


def _violation_note(args, kwargs, result):
    return {"assignments": _assignments(args, kwargs)}


def _ncvd_note(args, kwargs, result):
    accepted = 0 if result is None else len(result.ontic_states)
    return {"assignments": _assignments(args, kwargs), "accepted": accepted}


NOTES = {"graph.search": _search_note, "ontology.min_violation": _violation_note,
         "ontology.search_ncvd": _ncvd_note}


class Tracer:
    """Spans as [id, parent, name, start, end, note]; parents via a stack."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name, start=None):
        span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                time.monotonic() if start is None else start, None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span):
        span[4] = time.monotonic()
        self.stack.pop()

    def wrap(self, fn, name):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, kwargs, result)
                return result
            finally:
                self.close(span)

        return traced


class TimedImport(importlib.abc.MetaPathFinder):
    """Puts a span around the first execution of one top-level module."""

    def __init__(self, tracer, module, name):
        self.tracer, self.module, self.name = tracer, module, name

    def find_spec(self, fullname, path, target=None):
        if fullname != self.module:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed(module):
            span = self.tracer.open(self.name)
            try:
                exec_module(module)
            finally:
                self.tracer.close(span)

        spec.loader.exec_module = timed
        return spec


def instrument(tracer):
    """Wrap the listed names; a name the program no longer has is skipped."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kscheck"]
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        traced = tracer.wrap(original, span)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for module_name, class_name, attr, span in METHODS:
        cls = getattr(sys.modules.get(module_name), class_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span)))
        elif raw is not None:
            setattr(cls, attr, tracer.wrap(raw, span))


def cached_functions():
    """The ``lru_cache`` objects, looked up before they are wrapped."""
    out = {}
    for module_name, attr in CACHED:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if hasattr(fn, "cache_info"):
            out[attr] = fn
    return out


def cache_counts(cached):
    return {attr: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
            for attr, fn in cached.items()}


def main(argv):
    spans_out, spawned_at, call_id, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT SPAWNED_AT CALL_ID -- VERB ARGS...")
    tracer = Tracer()
    root = tracer.open("call", start=STARTED)
    code = 1
    caches = {}
    try:
        sys.meta_path.insert(0, TimedImport(tracer, "numpy", "import.numpy"))
        span = tracer.open("import.kscheck")
        try:
            import kscheck.cli
        finally:
            tracer.close(span)
        cached = cached_functions()
        instrument(tracer)
        code = kscheck.cli.main(cli_argv)
        sys.stdout.flush()
        caches = cache_counts(cached)
    finally:
        tracer.close(root)
        with open(spans_out, "w") as handle:
            json.dump({"call": int(call_id), "spawned_at": float(spawned_at),
                       "spans": tracer.spans, "caches": caches}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
