import os
from pathlib import Path

import pytest

import kscheck
from kscheck import boxes, catalog


@pytest.fixture
def child_env():
    """``child_env(**extra)``: the environment of a child interpreter that
    imports this checkout's kscheck, with ``extra`` variables set."""
    src = str(Path(kscheck.__file__).resolve().parents[1])

    def env(**extra):
        return {
            **os.environ,
            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
            **extra,
        }

    return env


@pytest.fixture(scope="session")
def pm_graph():
    return catalog.peres_mermin_graph()


@pytest.fixture(scope="session")
def ghz_graph():
    return catalog.ghz_graph()


@pytest.fixture(scope="session")
def pm_theory_full():
    return catalog.pm_theory("full")


@pytest.fixture(scope="session")
def pm_theory_spin():
    return catalog.pm_theory("spin")


@pytest.fixture(scope="session")
def ghz_theory_full():
    return catalog.ghz_theory("full")


@pytest.fixture(scope="session")
def ghz_theory_standard():
    return catalog.ghz_theory("standard")


@pytest.fixture(scope="session")
def box_fixtures():
    return (boxes.box_m1(), boxes.box_m2(), boxes.box_m3())


@pytest.fixture(params=["directory", "unreadable", "name-too-long", "not-utf8", "too-deep"])
def unreadable_input(request, tmp_path, monkeypatch):
    """A path ``load_scenario`` cannot read or decode, and the reason it gives."""
    if request.param == "directory":
        return str(tmp_path), "Is a directory"
    if request.param == "name-too-long":
        return str(tmp_path / ("a" * 5000)), "File name too long"
    path = tmp_path / "input.json"
    if request.param == "unreadable":
        # file modes do not stop a root user, so the read itself is made to fail
        path.write_text("{}")

        def refuse(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", refuse)
        return str(path), "Permission denied"
    if request.param == "not-utf8":
        path.write_bytes(b"\xff")
        return str(path), "can't decode byte 0xff"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path), "nested too deeply"
