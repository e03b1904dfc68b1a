"""Exhaustive verification of Kochen-Specker style contextuality arguments.

The package splits the job the way the arguments themselves do:

- ``pauli`` / ``exact``: phase-tracked operator algebra with an exact
  Q[i] matrix oracle;
- ``graph``: hypergraphs of commuting observables, the one depth-first
  constraint search, and FUNC value assignments, solved as a GF(2) parity
  system, with parity certificates;
- ``quantum``: Born-rule probabilities, support tables, common eigenbases;
- ``operational``: measurements, comeasurability, probability tables,
  no-disturbance;
- ``ontology``: ontic states, response functions, noncontextuality,
  statistics-equivalence (Spekkens) checks, model existence search;
- ``realization``: vertex-measurement associations, argument types
  I/II/III, the uniqueness lemma, the state-dependent pipeline;
- ``catalog`` / ``scenario`` / ``cli``: built-ins, files and commands.
"""

from .exact import ComplexMatrix, GaussianRational
from .graph import (
    KSGraph,
    TheoremVerdict,
    ParityCertificate,
    admissible_tuples,
    build_graph,
    derive_hyperedges,
    parity_certificate,
    search_assignments,
)
from .ontology import (
    ModelVerdict,
    OntologicalModel,
    classify_model,
    factorizes,
    is_noncontextual,
    is_value_definite,
    min_violation_fraction,
    recovers,
    satisfies_spekkens,
    search_ncvd,
)
from .operational import (
    Measurement,
    OperationalTheory,
    eigenstate_preparations,
    from_quantum,
    is_nondisturbing,
    marginal,
    support,
)
from .pauli import PauliString, Phase, commutes, edge_product, multiply, spectral_projection, to_matrix
from .quantum import (
    DensityOperator,
    SupportTable,
    born_probability,
    common_eigenbasis,
    is_operational_eigenstate,
    joint_born_probability,
    support_table,
)
from .realization import (
    ArgumentType,
    Realization,
    classify_type,
    collapse_edge,
    enumerate_lemma_sweep,
    hyperedge_realization,
    is_hyperedge_based,
    is_unique,
    lemma_check,
    run_type2_argument,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentType",
    "ComplexMatrix",
    "DensityOperator",
    "GaussianRational",
    "KSGraph",
    "Measurement",
    "ModelVerdict",
    "OntologicalModel",
    "OperationalTheory",
    "ParityCertificate",
    "PauliString",
    "Phase",
    "Realization",
    "SupportTable",
    "TheoremVerdict",
    "admissible_tuples",
    "born_probability",
    "build_graph",
    "classify_model",
    "classify_type",
    "collapse_edge",
    "common_eigenbasis",
    "commutes",
    "derive_hyperedges",
    "edge_product",
    "eigenstate_preparations",
    "enumerate_lemma_sweep",
    "factorizes",
    "from_quantum",
    "hyperedge_realization",
    "is_hyperedge_based",
    "is_noncontextual",
    "is_nondisturbing",
    "is_operational_eigenstate",
    "is_unique",
    "is_value_definite",
    "joint_born_probability",
    "lemma_check",
    "marginal",
    "min_violation_fraction",
    "multiply",
    "parity_certificate",
    "recovers",
    "run_type2_argument",
    "satisfies_spekkens",
    "search_assignments",
    "search_ncvd",
    "spectral_projection",
    "support",
    "support_table",
    "to_matrix",
]
