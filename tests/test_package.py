"""The package namespace: lazily resolved public names and the built-in list."""

import sys
from importlib import import_module

import pytest

import kscheck
from kscheck import catalog, scenario


@pytest.mark.parametrize("name", kscheck.__all__)
def test_public_name_is_its_home_object(name):
    value = getattr(kscheck, name)
    home = value.__module__
    assert home.startswith("kscheck.")
    assert getattr(import_module(home), name) is value


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
