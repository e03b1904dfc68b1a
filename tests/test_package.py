"""The package namespace: lazily resolved public names and the built-in list."""

import inspect
import sys
from importlib import import_module

import pytest

import kscheck
from kscheck import catalog, scenario


# every public name, so that adding or removing one shows as a diff here
PUBLIC_NAMES = [
    "ArgumentType",
    "DensityOperator",
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
    "lemma_pivots",
    "marginal",
    "min_violation_fraction",
    "multiply",
    "parity_certificate",
    "recovers",
    "run_type2_argument",
    "satisfies_spekkens",
    "search_assignments",
    "search_ncvd",
    "support",
    "support_table",
]


def test_public_names_are_pinned():
    assert kscheck.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", kscheck.__all__)
def test_public_name_is_its_home_object(name):
    value = getattr(kscheck, name)
    home = value.__module__
    assert home.startswith("kscheck.")
    assert getattr(import_module(home), name) is value


def test_no_public_tolerance_parameter():
    # probabilities are compared by one rule, exactly when the inputs are
    # exact; a public tolerance knob would reopen a second one
    knobs = [
        f"{name}({param})"
        for name in kscheck.__all__
        if callable(value := getattr(kscheck, name))
        for param in inspect.signature(value).parameters
        if "tol" in param
    ]
    assert knobs == []


def test_dir_lists_every_public_name():
    listed = dir(kscheck)
    assert set(kscheck.__all__) <= set(listed)
    assert "__all__" in listed and "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kscheck.no_such_name


def test_submodule_and_moved_class_imports():
    from kscheck import ontology
    from kscheck.operational import Realization as home
    from kscheck.realization import Realization

    assert ontology is sys.modules["kscheck.ontology"]
    assert Realization is home is kscheck.Realization


def test_builtin_names_are_the_catalog():
    assert scenario.BUILTIN_NAMES == tuple(catalog.CATALOG)
