"""Exhaustive verification of Kochen-Specker style contextuality arguments.

The package splits the job the way the arguments themselves do:

- ``pauli``: phase-tracked Pauli words and their algebra on symplectic
  bitmasks;
- ``parity``: linear systems over GF(2), the one solver behind every
  parity argument;
- ``graph``: hypergraphs of commuting observables, and FUNC value
  assignments as a ``parity`` system, with parity certificates;
- ``state``: density operators, exact (integer numerators, validated
  exactly) or floating point;
- ``quantum``: Born-rule probabilities, support tables and common
  eigenbases, all from the Pauli expansion of joint projections;
- ``operational``: measurements, comeasurability, realizations (the
  vertex-measurement associations), probability tables, no-disturbance;
- ``ontology``: ontic states, response functions, noncontextuality,
  statistics-equivalence (Spekkens) checks, model existence search, and
  the one depth-first constraint search;
- ``realization``: argument types I/II/III, the uniqueness lemma (per
  realization, and on the graph by pivot certificates), the
  state-dependent pipeline;
- ``catalog`` / ``boxes`` / ``scenario`` / ``scenario_json`` / ``cli``:
  built-ins (the graph ones, and the box and army tables), the scenarios a
  call reads, the JSON file form, and commands.

The names in ``__all__`` load their module on first use (PEP 562), so
``import kscheck`` loads no submodule and a command loads only the modules
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name
_HOME = {
    "PauliString": "pauli",
    "Phase": "pauli",
    "commutes": "pauli",
    "edge_product": "pauli",
    "multiply": "pauli",
    "KSGraph": "graph",
    "TheoremVerdict": "graph",
    "ParityCertificate": "graph",
    "admissible_tuples": "graph",
    "build_graph": "graph",
    "derive_hyperedges": "graph",
    "parity_certificate": "graph",
    "search_assignments": "graph",
    "DensityOperator": "state",
    "SupportTable": "quantum",
    "born_probability": "quantum",
    "common_eigenbasis": "quantum",
    "is_operational_eigenstate": "quantum",
    "joint_born_probability": "quantum",
    "support_table": "quantum",
    "Measurement": "operational",
    "OperationalTheory": "operational",
    "Realization": "operational",
    "eigenstate_preparations": "operational",
    "from_quantum": "operational",
    "is_nondisturbing": "operational",
    "marginal": "operational",
    "support": "operational",
    "ModelVerdict": "ontology",
    "OntologicalModel": "ontology",
    "classify_model": "ontology",
    "factorizes": "ontology",
    "is_noncontextual": "ontology",
    "is_value_definite": "ontology",
    "min_violation_fraction": "ontology",
    "recovers": "ontology",
    "satisfies_spekkens": "ontology",
    "search_ncvd": "ontology",
    "ArgumentType": "realization",
    "classify_type": "realization",
    "collapse_edge": "realization",
    "hyperedge_realization": "realization",
    "is_hyperedge_based": "realization",
    "is_unique": "realization",
    "lemma_check": "realization",
    "lemma_pivots": "realization",
    "run_type2_argument": "realization",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
