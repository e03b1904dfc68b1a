"""CLI verbs, exit codes, JSON round-trips."""

import hashlib
import io
import json
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from kscheck import catalog, cli, errors, ontology
from kscheck.catalog import CATALOG, GHZ_EDGES, GHZ_VERTICES, PM_EDGES, PM_VERTICES
from kscheck.cli import Report, main
from kscheck.operational import OperationalTheory
from kscheck.parity import CHUNK_ROWS
from kscheck.scenario import Scenario
from kscheck.scenario_json import parse_scenario, scenario_to_dict

import argparse_oracle

SINGLE_EDGE = {
    "name": "single-edge",
    "vertices": [
        {"label": "a", "operator": "ZI"},
        {"label": "b", "operator": "IZ"},
        {"label": "c", "operator": "ZZ"},
    ],
    "hyperedges": [[0, 1, 2]],
}


# a square on the first two of three qubits beside a pentagram, each without
# its -1 line: 19 vertices, SAT, and a witness listing larger than a pipe holds
SQUARE_AND_PENTAGRAM = {
    "name": "square-and-pentagram",
    "vertices": [{"label": f"pm_{label}", "operator": op + "I"} for label, op in PM_VERTICES]
    + [{"label": f"ghz_{label}", "operator": op} for label, op in GHZ_VERTICES],
    "hyperedges": [list(edge) for edge in PM_EDGES[:5]]
    + [[len(PM_VERTICES) + v for v in edge] for edge in GHZ_EDGES[:4]],
}


# a three-outcome basic: the ontology searches need two-valued ones
THREE_OUTCOMES = {
    "name": "three-outcomes",
    "tables": {
        "measurements": [
            {"label": "a", "outcomes": [["0", 0], ["1", 1], ["2", 2]]},
            {"label": "b", "outcomes": [["+", 1], ["-", -1]]},
        ],
        "comeasurable": [["a", "b"]],
        "preparations": ["r"],
        "entries": [
            {
                "measurements": ["a", "b"],
                "preparation": "r",
                "distribution": {"0,+": "1/2", "1,-": "1/4", "2,+": "1/4"},
            }
        ],
    },
}


# integer rows for listings of more than two chunks
INT_ROWS = [list(w) for w in product((1, -1), repeat=10)]


def narrowed_square(tmp_path) -> str:
    """A tables file of the Peres-Mermin square whose first line's support
    is one tuple of its parity class: not a parity class, so the model and
    robustness searches take ``depth_first``.  Still UNSAT, at 1/6."""
    theory = catalog.pm_theory("full")
    first = theory.maximal_joints[0]
    one = {prep: {("+1", "+1", "+1"): 1} for prep in theory.preparations}
    tables = {**theory.tables, first: one}
    narrowed = OperationalTheory(theory.basics, theory.maximal_joints, theory.preparations, tables)
    path = tmp_path / "narrowed-square.json"
    path.write_text(json.dumps(scenario_to_dict(Scenario("narrowed-square", "", theory=narrowed))))
    return str(path)


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's ``kscheck`` command lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^kscheck (.*?)(?:\s+#.*)?$", readme, re.M)
    return [line.split() for line in lines]


# command lines that argparse_oracle.parse and cli.parse_args must read alike
ARGV_CORPUS = [
    *readme_commands(),
    *(
        argv
        for verb in ("verify", "search-model", "ghz", "robustness")
        for argv in ([verb, "ghz", "--cap", "5"], [verb, "ghz", "--cap=5"])
    ),
    *(
        argv
        for verb in ("classify", "search-model", "ghz", "robustness")
        for argv in (
            [verb, "ghz", "--realization", "full"],
            [verb, "ghz", "--realization=full"],
        )
    ),
    ["ghz", "ghz", "--tuple", "+1,+1,+1,-1"],
    ["ghz", "ghz", "--tuple=+1,+1,+1,-1"],
    ["ghz", "ghz", "--tuple", "-1,+1,+1,+1"],
    ["ghz", "ghz", "--tuple=-1,+1,+1,+1"],
    ["ghz", "ghz", "--flip-sign", "--json"],
    ["ghz", "ghz", "--json=yes"],
    ["ghz", "ghz", "--tuple"],
    ["ghz", "ghz", "--tuple", "--json"],
    ["verify", "ghz", "--cap", "-1"],
    ["verify", "ghz", "--cap", "x"],
    ["verify", "ghz", "--cap", "3", "--cap", "9"],
    ["verify", "peres-mermin", "--seed", "7"],
    ["search-model", "peres-mermin", "--real", "full"],
    ["verify", "--json", "ghz"],
    ["catalog", "--json", "ghz"],
    ["verify", ""],
    ["verify", "--", "ghz"],
    ["verify", "--json", "--", "ghz"],
    [],
    ["bogus"],
    ["--json"],
    ["verify"],
    ["classify", "--realization", "spin"],
    ["verify", "ghz", "ghz"],
    ["catalog", "ghz", "army"],
    ["classify", "ghz", "--cap", "3"],
    ["catalog", "--cap", "3"],
    ["catalog", "ghz", "--cap=3"],
    ["classify", "ghz", "--flip-sign"],
    ["-h"],
    ["--help"],
    *([verb, "-h"] for verb in ("verify", "classify", "search-model", "ghz", "robustness", "catalog")),
    ["ghz", "ghz", "--help"],
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timing(report: str) -> str:
    return re.sub(r'"timing_s": [^,\n]+', '"timing_s": 0', report)


def builtin_doc(capsys, name):
    """The scenario document ``catalog NAME --json`` prints."""
    code, out, _ = run(capsys, "catalog", name, "--json")
    assert code == 0
    return json.loads(out)["verdicts"]["scenario"]


# standard-library modules that a cold call should load only where it uses them
WATCHED_STDLIB = ("argparse", "gettext", "locale", "fractions", "decimal")

# run one CLI call on sys.argv[1:] and print its exit code, the kscheck
# modules it loaded and which of WATCHED_STDLIB it loaded
LOADED_MODULES = f"""
import contextlib, io, json, sys
from kscheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
watched = {WATCHED_STDLIB!r}
print(json.dumps([code, sorted(n for n in sys.modules if n.startswith("kscheck.") or n in watched)]))
"""


class TestVerify:
    def test_square_unsat_with_certificate(self, capsys):
        code, out, _ = run(capsys, "verify", "peres-mermin", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["satisfiable"] is False
        assert doc["verdicts"]["assignment_space"] == 512
        assert doc["verdicts"]["certificate"] == "parity"

    def test_pentagram_unsat(self, capsys):
        code, out, _ = run(capsys, "verify", "ghz", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is False
        assert doc["verdicts"]["assignment_space"] == 1024
        assert doc["certificate"]["kind"] == "parity"

    def test_single_edge_sat(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(SINGLE_EDGE))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is True
        assert doc["verdicts"]["witness_count"] == 4

    def test_repeated_vertex_in_edge_exit_three(self, capsys, tmp_path):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({**SINGLE_EDGE, "hyperedges": [[0, 1, 2], [0, 0, 1, 2]]}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3
        assert out == ""
        assert err == "invalid graph: edge [0, 0, 1, 2] repeats a vertex\n"

    def test_boolean_vertex_index_exit_two(self, capsys, tmp_path):
        path = tmp_path / "booleans.json"
        path.write_text(json.dumps({**SINGLE_EDGE, "hyperedges": [[False, True, 2]]}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: $.hyperedges[0]: ")

    def test_human_output_mentions_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", "peres-mermin")
        assert code == 0
        assert "UNSAT" in out
        assert "certificate" in out


class TestClassify:
    def test_spin_square(self, capsys):
        code, out, _ = run(
            capsys, "classify", "peres-mermin", "--realization", "spin", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["type"] == "III"
        flagged = {
            tuple(e["vertices"]) for e in doc["verdicts"]["non_comeasurable_edges"]
        }
        assert flagged == {("g", "h", "i"), ("c", "f", "i")}

    def test_standard_pentagram(self, capsys):
        code, out, _ = run(
            capsys, "classify", "ghz", "--realization", "standard", "--json"
        )
        doc = json.loads(out)
        assert doc["verdicts"]["type"] == "II"

    def test_full_square_is_type_one(self, capsys):
        code, out, _ = run(
            capsys, "classify", "peres-mermin", "--realization", "full", "--json"
        )
        doc = json.loads(out)
        assert doc["verdicts"]["type"] == "I"

    def test_missing_realization_block_exit_four(self, capsys):
        code, _, err = run(capsys, "classify", "box-m1")
        assert code == 4

    def test_unknown_realization_exit_six(self, capsys):
        code, _, err = run(
            capsys, "classify", "peres-mermin", "--realization", "nope"
        )
        assert code == 6


class TestSearchModel:
    def test_square_unsat_with_fraction(self, capsys):
        code, out, _ = run(
            capsys, "search-model", "peres-mermin", "--realization", "full", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is False
        assert doc["verdicts"]["min_violation_fraction"] == "1/6"
        assert doc["verdicts"]["assignments_checked"] == 512

    def test_box_theory_sat(self, capsys):
        code, out, _ = run(capsys, "search-model", "box-m1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is True
        assert set(doc["verdicts"]["model_states"]) == {"black,big", "white,small"}

    @pytest.mark.parametrize(
        "small, states",
        [
            ("1/1000", ["black,big", "black,small", "white,small"]),
            # an exact probability is in the support however small it is
            ("1/10000000000000", ["black,big", "black,small", "white,small"]),
            # a float one only above the 1e-12 tolerance
            (1e-13, ["black,big", "white,small"]),
        ],
    )
    def test_support_of_a_small_probability(self, capsys, tmp_path, small, states):
        doc = builtin_doc(capsys, "box-m1")
        del doc["models"]
        r1 = doc["tables"]["entries"][0]
        assert r1["preparation"] == "r1"
        if isinstance(small, str):
            rest = str(Fraction(1, 3) - Fraction(small))
        else:
            rest = 1 / 3 - small
        r1["distribution"].update({"black,small": small, "white,small": rest})
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "search-model", str(path), "--json")
        assert code == 0
        assert json.loads(out)["verdicts"]["model_states"] == states

    @pytest.mark.parametrize("verb", ["search-model", "robustness"])
    @pytest.mark.parametrize("realization", ["nope", "full"])
    def test_realization_on_explicit_tables_exit_six(self, capsys, verb, realization):
        code, out, err = run(capsys, verb, "box-m1", "--realization", realization)
        assert code == 6
        assert out == ""
        assert err == (
            "bad argument: scenario 'box-m1' has explicit tables; "
            "--realization does not apply\n"
        )

    def test_cap_exit_five(self, capsys):
        code, _, err = run(
            capsys, "search-model", "peres-mermin", "--realization", "full", "--cap", "4"
        )
        assert code == 5

    def test_free_support_tables_file_sat(self, capsys, tmp_path):
        doc = {
            "name": "free",
            "tables": {
                "measurements": [
                    {"label": "a", "outcomes": [["+", 1], ["-", -1]]},
                    {"label": "b", "outcomes": [["+", 1], ["-", -1]]},
                ],
                "comeasurable": [["a", "b"]],
                "preparations": ["r"],
                "entries": [
                    {
                        "measurements": ["a", "b"],
                        "preparation": "r",
                        "distribution": {
                            "+,+": "1/4", "+,-": "1/4", "-,+": "1/4", "-,-": "1/4"
                        },
                    }
                ],
            },
        }
        path = tmp_path / "free.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "search-model", str(path), "--json")
        parsed = json.loads(out)
        assert code == 0
        assert parsed["verdicts"]["satisfiable"] is True
        assert len(parsed["verdicts"]["model_states"]) == 4
        assert parsed["verdicts"]["min_violation_fraction"] == "0"


    def test_sat_runs_one_search(self, capsys, monkeypatch):
        def second_search(*args, **kwargs):
            raise AssertionError("min_violation_fraction called after a model was found")

        # the commands import their engines when they run, from ontology
        monkeypatch.setattr(ontology, "min_violation_fraction", second_search)
        code, out, _ = run(capsys, "search-model", "box-m1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is True
        assert doc["verdicts"]["min_violation_fraction"] == "0"


    def test_unsat_runs_one_search_and_builds_no_model(self, capsys, monkeypatch, tmp_path):
        # one line's support is a single tuple, not a parity class, so the
        # table search runs
        calls = []
        depth_first = ontology.depth_first

        def counted(*args, **kwargs):
            calls.append(args)
            return depth_first(*args, **kwargs)

        def no_model(*args, **kwargs):
            raise AssertionError("search-model built an OntologicalModel")

        monkeypatch.setattr(ontology, "depth_first", counted)
        monkeypatch.setattr(ontology.OntologicalModel, "__init__", no_model)
        code, out, _ = run(capsys, "search-model", narrowed_square(tmp_path), "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is False
        assert doc["verdicts"]["min_violation_fraction"] == "1/6"
        assert len(calls) == 1

    def test_parity_unsat_runs_one_search_and_builds_no_model(self, capsys, monkeypatch):
        # the square's supports are parity classes: elimination, no table search
        calls = []
        support_search = ontology._support_search

        def counted(*args, **kwargs):
            calls.append(args)
            return support_search(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("parity supports searched by depth_first or built a model")

        monkeypatch.setattr(ontology, "_support_search", counted)
        monkeypatch.setattr(ontology, "depth_first", refuse)
        monkeypatch.setattr(ontology.OntologicalModel, "__init__", refuse)
        code, out, _ = run(
            capsys, "search-model", "peres-mermin", "--realization", "full", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is False
        assert doc["verdicts"]["min_violation_fraction"] == "1/6"
        assert len(calls) == 1

    def test_sat_builds_no_model(self, capsys, monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("search-model built an OntologicalModel")

        monkeypatch.setattr(ontology.OntologicalModel, "__init__", no_model)
        code, out, _ = run(capsys, "search-model", "box-m1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["model_states"] == ["black,big", "white,small"]


@pytest.mark.parametrize("verb", ["search-model", "robustness"])
def test_three_outcome_basics_exit_six(capsys, tmp_path, verb):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_OUTCOMES))
    code, out, err = run(capsys, verb, str(path), "--json")
    assert code == 6
    assert out == ""
    assert "two-valued" in err


class TestGhz:
    def test_default_tuple_unsat(self, capsys):
        code, out, _ = run(capsys, "ghz", "ghz", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is False
        assert doc["verdicts"]["eigenstate_verified"] is True

    def test_flip_sign_control_sat(self, capsys):
        code, out, _ = run(capsys, "ghz", "ghz", "--flip-sign", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is True

    def test_tuple_with_leading_minus_reads_either_way(self, capsys):
        reports = []
        for tuple_args in (["--tuple", "-1,+1,+1,+1"], ["--tuple=-1,+1,+1,+1"]):
            code, out, err = run(
                capsys, "ghz", "ghz", "--realization", "standard", *tuple_args, "--json"
            )
            assert code == 0, err
            reports.append(without_timing(out))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["inputs"]["tuple"] == [-1, 1, 1, 1]

    def test_inadmissible_tuple_exit_six(self, capsys):
        code, _, err = run(capsys, "ghz", "ghz", "--tuple", "+1,+1,+1,+1")
        assert code == 6

    def test_wrong_type_exit_six(self, capsys):
        code, _, err = run(
            capsys, "ghz", "peres-mermin", "--realization", "spin"
        )
        assert code == 6

    def test_cap_exit_five(self, capsys):
        code, out, _ = run(capsys, "ghz", "ghz", "--cap", "5")
        assert code == 5
        assert out == ""


    def test_tuple_breaking_a_relation_exit_six(self, capsys, tmp_path):
        # the pinned edge {a, b, c, d} = {ZI, ZI, IZ, IZ} has the relations
        # ab = cd = +I beside its full product, and no state gives a tuple
        # that meets the product but breaks one of them
        doc = {
            "name": "repeated-words",
            "vertices": [
                {"label": label, "operator": word}
                for label, word in zip("abcd", ("ZI", "ZI", "IZ", "IZ"))
            ],
            "hyperedges": [[0, 1, 2, 3], [0, 1], [2, 3]],
            "realizations": {
                "r": {"assoc": {label: [label] for label in "abcd"},
                      "comeasurable": [["a", "b"], ["c", "d"]]}
            },
        }
        path = tmp_path / "repeated-words.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ghz", str(path), "--realization", "r",
                             "--tuple", "+1,-1,+1,-1")
        assert code == 6
        assert out == ""
        assert err == (
            "bad argument: tuple (1, -1, 1, -1) breaks the pinned edge's relation "
            "a*b = +I: no state gives these outcomes\n"
        )
        code, out, err = run(capsys, "ghz", str(path), "--realization", "r",
                             "--tuple", "+1,+1,-1,-1", "--json")
        assert code == 0, err
        assert json.loads(out)["witnesses"] == [[1, 1, -1, -1]]

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r: r["assoc"]["XII"].append("extra"),
             "vertex XII: from_quantum needs a unique realization"),
            (lambda r: r["comeasurable"].append(["XII", "YII"]),
             "comeasurable set maps to non-commuting operators "
             "(XII, YII: +XII and +YII do not commute); no quantum representation"),
        ],
    )
    def test_no_quantum_representation_exit_three(self, capsys, tmp_path, change, message):
        # both realizations stay type II, so the pipeline reaches the check
        doc = builtin_doc(capsys, "ghz")
        change(doc["realizations"]["standard"])
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ghz", str(path), "--realization", "standard")
        assert code == 3
        assert out == ""
        assert err == f"invalid graph: {message}\n"

    def test_edge_inside_a_larger_comeasurable_set(self, capsys, tmp_path):
        # the square plus j = ZZ and the edge {a, b, j}, which is comeasurable
        # only as part of {a, b, c, j}; the third column stays the one
        # non-comeasurable edge, and extra constraints cannot rescue an
        # UNSAT type II argument
        quarter = [["1/4" if r == c else 0 for c in range(4)] for r in range(4)]
        labels = [label for label, _ in PM_VERTICES] + ["j"]
        doc = {
            "name": "square-plus-edge",
            "vertices": [{"label": label, "operator": op} for label, op in PM_VERTICES]
            + [{"label": "j", "operator": "ZZ"}],
            "hyperedges": [list(edge) for edge in PM_EDGES] + [[0, 1, 9]],
            "states": {"mixed": {"density": quarter}},
            "realizations": {
                "standard": {
                    "assoc": {label: [label] for label in labels},
                    "comeasurable": [
                        ["a", "b", "c", "j"], ["d", "e", "f"], ["g", "h", "i"],
                        ["a", "d", "g"], ["b", "e", "h"],
                    ],
                }
            },
        }
        path = tmp_path / "square-plus-edge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ghz", str(path))
        assert code == 0, err
        assert "UNSAT (argument succeeds)" in out


class TestRobustness:
    def test_square(self, capsys):
        code, out, _ = run(
            capsys, "robustness", "peres-mermin", "--realization", "full", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["min_violation_fraction"] == "1/6"

    def test_pentagram(self, capsys):
        code, out, _ = run(
            capsys, "robustness", "ghz", "--realization", "full", "--json"
        )
        doc = json.loads(out)
        assert doc["verdicts"]["min_violation_fraction"] == "1/5"


class TestCatalog:
    def test_lists_at_least_six_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["verdicts"]["entries"]) >= 6

    def test_detail_dump_shows_square(self, capsys):
        code, out, _ = run(capsys, "catalog", "peres-mermin")
        assert code == 0
        assert "vertex a: +ZI" in out
        assert "vertex i: +YY" in out
        assert "sign -1" in out

    def test_unknown_name_exit_six(self, capsys):
        code, _, err = run(capsys, "catalog", "wat")
        assert code == 6


class TestExitCodesAndDeterminism:
    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "parse error" in err

    def test_unreadable_input_exit_two(self, capsys, unreadable_input):
        path, reason = unreadable_input
        code, out, err = run(capsys, "verify", path)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: $: ")
        assert reason in err

    def test_malformed_realization_blocks_exit_two(self, capsys, tmp_path):
        assoc = {"a": ["a"], "b": ["b"], "c": ["c"]}
        blocks = {
            "assoc": {"assoc": [["a"], ["b"], ["c"]]},
            "function_tags": {"assoc": assoc, "function_tags": 7},
            "function_tags[0]": {
                "assoc": assoc,
                "function_tags": [{"vertex": ["a"], "measurement": "a", "tag": "t"}],
            },
            # a string is not a set of labels, though it iterates like one
            "comeasurable[0]": {"assoc": assoc, "comeasurable": ["abc"]},
            # a label no vertex carries
            "comeasurable[1]": {
                "assoc": assoc,
                "comeasurable": [["a", "b"], ["a", "b", "c", "zzz"]],
            },
            "comeasurable[2]": {"assoc": assoc, "comeasurable": [["a"], ["b", "c"], []]},
            # a tag on a measurement its vertex is not associated with
            "function_tags[1]": {
                "assoc": assoc,
                "function_tags": [
                    {"vertex": "a", "measurement": "a", "tag": "f"},
                    {"vertex": "b", "measurement": "c", "tag": "g"},
                ],
            },
            # measurement labels are JSON strings, never passed through str()
            "assoc.a[0]": {
                "assoc": {**assoc, "a": [["a"]]},
                "comeasurable": [[["a"], "b"]],
            },
            "assoc.b[1]": {"assoc": {**assoc, "b": ["b", 7]}},
            "comeasurable[1][0]": {"assoc": assoc, "comeasurable": [["a"], [["a"], "b"]]},
            "comeasurable[0][1]": {"assoc": assoc, "comeasurable": [["a", None]]},
            "function_tags[0].measurement": {
                "assoc": assoc,
                "function_tags": [{"vertex": "a", "measurement": ["a"], "tag": "f"}],
            },
            "function_tags[0].tag": {
                "assoc": assoc,
                "function_tags": [{"vertex": "a", "measurement": "a", "tag": 1}],
            },
        }
        for n, (key, block) in enumerate(blocks.items()):
            path = tmp_path / f"bad{n}.json"
            path.write_text(json.dumps({**SINGLE_EDGE, "realizations": {"r": block}}))
            for verb in ("verify", "classify", "search-model", "robustness", "ghz"):
                code, _, err = run(capsys, verb, str(path))
                assert code == 2, (key, verb)
                assert f"$.realizations.r.{key}:" in err

    def test_closed_pipe_exits_quietly(self, child_env):
        proc = subprocess.Popen(
            [sys.executable, "-m", "kscheck.cli", "catalog", "peres-mermin", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        proc.stdout.close()  # the reader goes away before the report is written
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err

    def test_module_entry_point_matches_main(self, capsys, tmp_path, child_env):
        """``python -m kscheck.cli`` ends with ``os._exit`` once its output is
        flushed: with a block-buffered stdout it still writes the whole
        report, and each exit code and message is the in-process one."""
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        inputs = {
            "sat.json": json.dumps(SQUARE_AND_PENTAGRAM),
            "broken.json": "{]",
            "invalid.json": json.dumps({**SINGLE_EDGE, "hyperedges": [[0, 1]]}),
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        calls = (
            (0, ["verify", str(tmp_path / "sat.json"), "--json"]),
            (2, ["verify", str(tmp_path / "broken.json")]),
            (3, ["verify", str(tmp_path / "invalid.json")]),
            (4, ["verify", "box-m1"]),
            (5, ["verify", "ghz", "--cap", "5"]),
            (6, ["catalog", "wat"]),
        )
        for expected, argv in calls:
            code, out, err = run(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "kscheck.cli", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == code == expected, argv
            assert proc.stderr == err.encode(), argv
            assert without_timing(proc.stdout.decode()) == without_timing(out), argv
            if expected == 0:
                assert json.loads(out)["verdicts"]["witness_count"] == 1024
                assert len(proc.stdout) > 1 << 16

    def test_output_is_independent_of_the_hash_seed(self, child_env):
        """Maximal comeasurable sets come in a fixed order, never in the
        order string hashing gives a set."""
        for argv in (
            ["classify", "peres-mermin", "--realization", "hyperedge", "--json"],
            ["catalog", "peres-mermin", "--json"],
        ):
            outs = []
            for seed in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, "-m", "kscheck.cli", *argv],
                    capture_output=True,
                    env=child_env(PYTHONHASHSEED=seed),
                    timeout=120,
                )
                assert proc.returncode == 0, argv
                outs.append(without_timing(proc.stdout.decode()))
            assert outs[0] == outs[1], argv

    def test_console_script_names_a_cli_function(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        entry = re.search(r'^kscheck = "kscheck\.cli:(\w+)"$', pyproject, re.M)
        assert entry, "no kscheck console script in pyproject.toml"
        assert callable(getattr(cli, entry.group(1), None))

    def test_exact_inputs_never_import_numpy(self, tmp_path, child_env):
        """Every verb on the built-ins runs without numpy; a float state loads it."""
        doc = {**SINGLE_EDGE, "states": {"psi": {"vector": [1, 0, 0, 0]}}}
        path = tmp_path / "vector.json"
        path.write_text(json.dumps(doc))
        script = """
import contextlib, io, json, sys
from kscheck import cli
calls = [
    ["verify", "peres-mermin"],
    ["verify", "ghz", "--json"],
    ["classify", "peres-mermin", "--realization", "spin"],
    ["classify", "ghz", "--realization", "standard"],
    ["search-model", "peres-mermin", "--realization", "full"],
    ["search-model", "box-m1"],
    ["ghz", "ghz", "--tuple", "+1,+1,+1,-1"],
    ["ghz", "ghz", "--flip-sign"],
    ["robustness", "ghz", "--realization", "full"],
    ["catalog", "--json"],
    ["catalog", "peres-mermin", "--json"],
    ["catalog", "ghz", "--json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
    exact_only = "numpy" not in sys.modules
    codes.append(cli.main(["verify", sys.argv[1]]))
print(json.dumps([codes, exact_only, "numpy" in sys.modules]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, exact_only, float_loaded = json.loads(proc.stdout)
        assert codes == [0] * 13
        assert exact_only, "numpy was imported on the exact path"
        assert float_loaded, "a vector state should load numpy"

    def test_cold_call_loads_no_code_generation(self, tmp_path, child_env):
        """A built-in verdict loads neither dataclasses, inspect nor hashlib;
        a file input digests its bytes without hashlib where the builtin
        SHA-256 module exists."""
        path = tmp_path / "single-edge.json"
        path.write_text(json.dumps(SINGLE_EDGE))
        script = """
import contextlib, io, json, sys
before = set(sys.modules)
from kscheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "peres-mermin", "--json"])
added = sorted({"dataclasses", "inspect", "hashlib"} & (set(sys.modules) - before))
from kscheck.scenario import load_scenario
digest = load_scenario(sys.argv[1]).digest
hashlib_loaded = "hashlib" in sys.modules
from importlib.util import find_spec
builtin = any(find_spec(name) for name in ("_sha2", "_sha256"))
print(json.dumps([code, added, hashlib_loaded, builtin, digest]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, added, hashlib_loaded, builtin, digest = json.loads(proc.stdout)
        assert code == 0
        assert added == [], f"a built-in verdict imported {added}"
        assert not (builtin and hashlib_loaded), "a file digest loaded hashlib"
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_file_calls_load_only_their_modules(self, capsys, tmp_path, child_env):
        """``import kscheck`` loads no submodule; verify on a file with states
        and realizations loads no Born-rule, exact, theory or ontology
        module, classify loads no Born rule, and neither verify nor
        robustness loads realization or catalog.  No call loads argparse,
        gettext or locale; verify and classify on a graph built-in and the
        catalog list load no fractions or decimal; and the box built-ins and
        the catalog list load no graph layer."""
        path = tmp_path / "pm.json"
        path.write_text(json.dumps(builtin_doc(capsys, "peres-mermin")))
        script = """
import contextlib, io, json, sys
def ours():
    return sorted(name for name in sys.modules if name.startswith("kscheck."))
import kscheck
bare = ours()
from kscheck import cli
loaded = {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["verify"], ["robustness", "--realization", "full"]):
        code = cli.main([argv[0], sys.argv[1], *argv[1:], "--json"])
        loaded[argv[0]] = [code, ours()]
print(json.dumps([bare, loaded]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        bare, loaded = json.loads(proc.stdout)
        assert bare == []
        (verify_code, after_verify), (robust_code, after_robust) = (
            loaded["verify"], loaded["robustness"]
        )
        assert verify_code == robust_code == 0
        assert "kscheck.graph" in after_verify
        for name in ("quantum", "exact", "operational", "ontology", "realization"):
            assert f"kscheck.{name}" not in after_verify, f"verify on a file loaded {name}"
        assert "kscheck.ontology" in after_robust
        for name in ("kscheck.realization", "kscheck.catalog"):
            assert name not in after_robust, f"a file call loaded {name}"

        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, "classify", str(path), "--realization", "spin"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, after_classify = json.loads(proc.stdout)
        assert code == 0
        assert "kscheck.realization" in after_classify
        assert "kscheck.quantum" not in after_classify, "classify on a file loaded quantum"
        for name in ("argparse", "gettext", "locale"):
            assert name not in after_classify, f"classify on a file loaded {name}"

        # each built-in call in a fresh interpreter: only the blocks its verb
        # reads are built, and only their engines load
        graph_only = (
            "quantum", "operational", "realization", "ontology", "exact", "scenario_json", "boxes"
        )
        exact_free = ("fractions", "decimal")
        unloaded_by_call = [
            (["verify", "peres-mermin"], "catalog", graph_only + exact_free),
            (["verify", "ghz"], "catalog", graph_only + exact_free),
            (["catalog"], "catalog", graph_only + exact_free + ("graph", "pauli")),
            (
                ["classify", "peres-mermin", "--realization", "spin"],
                "catalog",
                ("quantum", "ontology", "boxes") + exact_free,
            ),
            (
                ["classify", "ghz", "--realization", "standard"],
                "catalog",
                ("quantum", "ontology", "boxes") + exact_free,
            ),
            (["search-model", "box-m1"], "boxes", ("quantum", "realization", "catalog", "graph")),
            (["robustness", "ghz", "--realization", "full"], "catalog", ("realization", "boxes")),
        ]
        for argv, builtins, unloaded in unloaded_by_call:
            proc = subprocess.run(
                [sys.executable, "-c", LOADED_MODULES, *argv],
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            code, loaded = json.loads(proc.stdout)
            assert code == 0, argv
            assert f"kscheck.{builtins}" in loaded, argv
            for name in unloaded:
                module = name if name in WATCHED_STDLIB else f"kscheck.{name}"
                assert module not in loaded, f"{argv} loaded {name}"
            for name in ("argparse", "gettext", "locale"):
                assert name not in loaded, f"{argv} loaded {name}"

    def test_invalid_graph_exit_three(self, capsys, tmp_path):
        doc = {
            "name": "bad",
            "vertices": [
                {"label": "a", "operator": "ZI"},
                {"label": "b", "operator": "IZ"},
            ],
            "hyperedges": [[0, 1]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3

    def test_missing_block_exit_four(self, capsys):
        code, _, err = run(capsys, "verify", "box-m1")
        assert code == 4

    def test_cap_exit_five(self, capsys):
        code, _, err = run(capsys, "verify", "ghz", "--cap", "5")
        assert code == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "ghz"],
            ["ghz", "ghz"],
            ["search-model", "peres-mermin", "--realization", "full"],
            ["robustness", "peres-mermin", "--realization", "full"],
        ],
    )
    def test_one_cap_message(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--cap", "4")
        assert code == 5
        assert out == ""
        assert re.fullmatch(r"cap exceeded: \d+ search variables exceed the cap of 4\n", err)

    @pytest.mark.parametrize("verb", ["verify", "ghz"])
    def test_wide_edge_refused_before_any_work(self, tmp_path, verb, child_env):
        # the 31 Z-type words on 5 qubits form one edge (each qubit's Z occurs
        # 16 times); its 2^30 admissible tuples, or the 2^31 subset products
        # that check its eigenstate, would exhaust the child's 1 GB limit
        words = ["".join(w) for w in product("IZ", repeat=5)][1:]
        labels = [f"v{k}" for k in range(len(words))]
        doc = {
            "name": "z-words",
            "vertices": [{"label": l, "operator": w} for l, w in zip(labels, words)],
            "hyperedges": [list(range(len(words)))],
            "realizations": {
                "standard": {"assoc": {l: [l] for l in labels}, "comeasurable": []}
            },
        }
        path = tmp_path / "z-words.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "kscheck.cli", verb, str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr == "cap exceeded: 31 search variables exceed the cap of 24\n"

    def test_type_error_wins_over_cap(self, capsys):
        # ghz classifies before it searches, so a type III realization is
        # reported as such even when the search would exceed the cap
        code, _, err = run(
            capsys, "ghz", "peres-mermin", "--realization", "spin", "--cap", "4"
        )
        assert code == 6
        assert "not II" in err

    @pytest.mark.parametrize("verb", ["search-model", "robustness"])
    def test_two_valued_error_wins_over_cap(self, capsys, tmp_path, verb):
        path = tmp_path / "three.json"
        path.write_text(json.dumps(THREE_OUTCOMES))
        code, _, err = run(capsys, verb, str(path), "--cap", "1")
        assert code == 6
        assert "two-valued" in err

    def test_verdicts_deterministic_across_runs(self, capsys):
        _, out1, _ = run(capsys, "verify", "peres-mermin", "--json")
        _, out2, _ = run(capsys, "verify", "peres-mermin", "--json")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        for doc in (doc1, doc2):
            doc.pop("timing_s")
        assert doc1 == doc2

    def test_report_round_trips(self, capsys):
        _, out, _ = run(capsys, "verify", "ghz", "--json")
        doc = json.loads(out)
        report = Report.from_dict(doc)
        assert json.loads(report.to_json()) == doc

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", None],
            ["verify", "peres-mermin"],
            ["ghz", "ghz", "--flip-sign"],
            ["ghz", "ghz"],
        ],
    )
    def test_report_fields_round_trip(self, tmp_path, argv):
        # witness rows are tuples before and after; `lines` is text only
        path = tmp_path / "single.json"
        path.write_text(json.dumps(SINGLE_EDGE))
        args = cli.parse_args([a or str(path) for a in argv])
        report = args.func(args)
        back = Report.from_dict(json.loads(report.to_json()))
        assert back.to_dict() == report.to_dict()
        assert back == Report.from_dict(report.to_dict())
        assert back.to_json() == report.to_json()

    @pytest.mark.parametrize(
        "witnesses",
        [
            None,
            [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]],
            [list(w) for w in product((1, -1), repeat=10)],
            list(product((1, -1), repeat=10)),
            [[12, -345], [0, 7]],
            # not integer rows: written by the plain encoder
            [],
            [[]],
            [[True, False]],
            [[1.0, -1]],
            [["1", -1]],
            [[[1]], 2],
            [[[1], 2]],
            [[1], [[2], -3]],
            [[1], None],
            # on and around the chunk boundaries
            INT_ROWS[:1],
            INT_ROWS[: CHUNK_ROWS - 1],
            INT_ROWS[:CHUNK_ROWS],
            INT_ROWS[: CHUNK_ROWS + 1],
            INT_ROWS[: 2 * CHUNK_ROWS + 1],
            # an odd row after a full chunk: the plain encoder from the start
            INT_ROWS[:CHUNK_ROWS] + [[1], None],
            INT_ROWS[: 2 * CHUNK_ROWS] + [(True, -1)],
        ],
    )
    @pytest.mark.parametrize(
        "source", ["peres-mermin", 'x "witnesses": null, y], [z\n  "witnesses": null']
    )
    def test_report_json_is_the_indented_dump(self, witnesses, source):
        report = Report(
            "verify",
            {"source": source, "digest": "d"},
            {"satisfiable": True, "nested": {"witnesses": None}},
            witnesses=witnesses,
            certificate={"kind": "parity", "vertex_degrees": [2, 2]},
            timing_s=0.25,
        )
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)
        streamed = io.StringIO()
        assert report.to_json(streamed) is None
        assert streamed.getvalue() == report.to_json()

    def test_long_listing_is_written_a_chunk_at_a_time(self):
        class Counter(io.TextIOBase):
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

        report = Report("verify", {"source": "s"}, {}, witnesses=list(product((1, -1), repeat=15)))
        out = Counter()
        tracemalloc.start()
        try:
            report.to_json(out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.size == len(report.to_json())
        assert peak < out.size / 4

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "peres-mermin", "--seed", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["classify", "ghz"], ["catalog"], ["catalog", "ghz"]])
    def test_cap_only_on_verbs_that_search(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cap", "3"])
        assert exc.value.code == 2

    def test_empty_path_names_no_file(self, capsys):
        # Path("") is the working directory, a directory and no scenario
        code, out, err = run(capsys, "verify", "")
        assert code == 2
        assert out == ""
        assert err == "parse error: $: no builtin or file named ''\n"

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
    def test_argv_reads_as_argparse_read_it(self, capsys, argv):
        """``parse_args`` gives argparse's namespace, or exits as it did: 2
        with a usage line on stderr, or 0 with the help on stdout."""

        def read(parse):
            try:
                return vars(parse(argv))
            except SystemExit as exc:
                return exc.code

        expected = read(argparse_oracle.parse)
        capsys.readouterr()
        assert read(cli.parse_args) == expected
        out, err = capsys.readouterr()
        if expected == 2:
            assert out == "" and err.startswith("usage: kscheck"), err
        elif expected == 0:
            assert err == "" and out.startswith("usage: kscheck"), out
        else:
            assert out == err == ""

    @pytest.mark.parametrize("verb", ["verify", "classify", "search-model", "ghz", "robustness"])
    def test_identity_vertex_is_an_invalid_graph(self, capsys, tmp_path, verb):
        doc = {
            "name": "identity-vertex",
            "vertices": [
                {"label": label, "operator": word}
                for label, word in zip("abcd", ("+ZI", "+IZ", "+ZZ", "+II"))
            ],
            "hyperedges": [[0, 1, 2, 3]],
            "states": {"mixed": {"density": [[["1/4", "0"] if r == c else 0 for c in range(4)]
                                             for r in range(4)]}},
            "realizations": {"r": {"assoc": {label: [label] for label in "abcd"},
                                   "comeasurable": []}},
        }
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(doc))
        argv = [verb, str(path)] + (["--realization", "r"] if verb == "ghz" else [])
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "invalid graph: vertex d: +II is not a two-valued hermitian observable\n"

    def test_noncommuting_comeasurable_error_is_deterministic(self, capsys, tmp_path, child_env):
        doc = builtin_doc(capsys, "peres-mermin")
        doc["realizations"] = {"r": {"assoc": {label: [label] for label in "abcdefghi"},
                                     "comeasurable": [["a", "b", "c", "e", "f"]]}}
        path = tmp_path / "pm-noncommuting.json"
        path.write_text(json.dumps(doc))
        results = set()
        for seed in ("0", "5", "11"):
            proc = subprocess.run(
                [sys.executable, "-m", "kscheck.cli", "search-model", str(path)],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=seed),
                timeout=60,
            )
            results.add((proc.returncode, proc.stderr))
        assert len(results) == 1
        code, err = results.pop()
        assert code == 3
        # the one maximal set, in basic-label order, and its first non-commuting pair
        assert err == (
            "invalid graph: comeasurable set maps to non-commuting operators "
            "(a, b, c, e, f: +ZI and +XI do not commute); no quantum representation\n"
        )


def _mutate(doc, path, value):
    """Set doc at a path of keys and indices to value."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "where, value, expected_path",
    [
        (("models", "m1", "preparations"), [1], "$.models.m1.preparations"),
        (("models", "m1", "preparations", "r1"), [1], "$.models.m1.preparations.r1"),
        (("models", "m1", "responses"), 7, "$.models.m1.responses"),
        (("models", "m1", "responses", 0, "measurements"), 7,
         "$.models.m1.responses[0].measurements"),
        (("models", "m1", "responses", 0, "distribution"), [1],
         "$.models.m1.responses[0].distribution"),
        (("tables", "entries", 0, "distribution"), [1], "$.tables.entries[0].distribution"),
        (("tables", "entries", 0, "measurements"), 7, "$.tables.entries[0].measurements"),
        (("tables", "measurements", 0, "outcomes"), 7, "$.tables.measurements[0].outcomes"),
        # labels must be JSON strings, not read through str()
        (("tables", "measurements", 0, "label"), ["color"], "$.tables.measurements[0].label"),
        (("tables", "measurements", 0, "outcomes", 0, 0), 1,
         "$.tables.measurements[0].outcomes[0][0]"),
        (("tables", "comeasurable", 0), "color", "$.tables.comeasurable[0]"),
        (("tables", "comeasurable", 0, 0), ["color"], "$.tables.comeasurable[0][0]"),
        (("tables", "preparations", 0), 1, "$.tables.preparations[0]"),
        (("tables", "entries", 0, "measurements", 0), ["color"],
         "$.tables.entries[0].measurements[0]"),
        (("tables", "entries", 0, "preparation"), 1, "$.tables.entries[0].preparation"),
        (("models", "m1", "ontic_states", 0), 1, "$.models.m1.ontic_states[0]"),
        (("models", "m1", "responses", 0, "measurements", 0), ["color"],
         "$.models.m1.responses[0].measurements[0]"),
        (("models", "m1", "responses", 0, "ontic"), 1, "$.models.m1.responses[0].ontic"),
        # a vertex label too, read by verify from the square's graph
        (("vertices", 0, "label"), 1, "$.vertices[0].label"),
        (("name",), 5, "$.name"),
        # exact tables sum to exactly 1, and no probability is negative
        (("tables", "entries", 0, "distribution", "black,small"), "1/10000000000000",
         "$.tables.entries[0].distribution"),
        (("tables", "entries", 0, "distribution"),
         {"black,big": "4/3", "black,small": "0", "white,big": "0", "white,small": "-1/3"},
         "$.tables.entries[0].distribution"),
        (("models", "m1", "responses", 0, "distribution"), {"black": "3/2", "white": "-1/2"},
         "$.models.m1.responses[0].distribution"),
        # json reads the NaN literal, which is no probability
        (("tables", "entries", 0, "distribution", "black,big"), float("nan"),
         "$.tables.entries[0].distribution.black,big"),
        (("models", "m1", "preparations", "r1", "bb"), float("nan"),
         "$.models.m1.preparations.r1.bb"),
        # a repeated preparation label, refused like a repeated basic label
        (("tables", "preparations"), ["r1", "r2", "r1"], "$.tables"),
        # an operator is a JSON string, and a bad word fails at its own vertex
        (("vertices", 0, "operator"), ["ZI"], "$.vertices[0].operator"),
        (("vertices", 1, "operator"), "IQ", "$.vertices[1].operator"),
    ],
)
def test_mistyped_box_blocks_exit_two(capsys, tmp_path, where, value, expected_path):
    graph = where[0] == "vertices"
    doc = builtin_doc(capsys, "peres-mermin" if graph else "box-m1")
    _mutate(doc, where, value)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify" if graph else "search-model", str(path))
    assert code == 2
    assert out == ""
    assert f"{expected_path}:" in err


def test_error_classes_carry_the_cli_exit_codes():
    expected = {
        errors.ScenarioParseError: (cli.EXIT_PARSE, "parse error"),
        errors.InvalidGraphError: (cli.EXIT_INVALID_GRAPH, "invalid graph"),
        errors.MissingBlockError: (cli.EXIT_MISSING_BLOCK, "missing block"),
        errors.CapExceededError: (cli.EXIT_CAP, "cap exceeded"),
        errors.BadArgumentError: (cli.EXIT_BAD_ARGUMENT, "bad argument"),
        errors.NotTwoValuedError: (cli.EXIT_BAD_ARGUMENT, "bad argument"),
        errors.MarginalAmbiguityError: (cli.EXIT_BAD_ARGUMENT, "bad argument"),
    }
    subclasses = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.KSCheckError)
    } - {errors.KSCheckError}
    assert subclasses == set(expected)
    assert {cls: (cls.exit_code, cls.prefix) for cls in expected} == expected


GRAPH_BUILTINS = [name for name, entry in CATALOG.items() if entry.kind == "graph"]


@pytest.mark.parametrize("name", GRAPH_BUILTINS)
def test_catalog_scenario_document_loads(capsys, tmp_path, name):
    """The scenario a graph built-in's ``catalog --json`` prints is a file
    that gives the built-in's verdicts."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(builtin_doc(capsys, name)))
    for args in (["verify"], ["classify", "--realization", "full"]):
        code, out, err = run(capsys, *args, str(path), "--json")
        assert code == 0, err
        _, builtin_out, _ = run(capsys, *args, name, "--json")
        assert json.loads(out)["verdicts"] == json.loads(builtin_out)["verdicts"]


@pytest.mark.parametrize(
    "builtin, key",
    [
        ("peres-mermin", "comment_typo_block"),
        ("peres-mermin", "realisations"),
        ("box-m1", "model"),
        ("box-m1", "table"),
    ],
)
def test_unknown_top_level_key_exits_two(capsys, tmp_path, builtin, key):
    doc = builtin_doc(capsys, builtin)
    doc[key] = {}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify" if builtin == "peres-mermin" else "search-model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"parse error: $.{key}: unknown block {key!r}")


# Keys of a scenario document whose objects map names, not a block's keys.
NAMED_MAPS = ("states", "realizations", "models", "assoc", "preparations", "distribution")


def _block_objects(value, where=(), path="$"):
    """The (where, JSON path) of each object in a scenario document whose
    keys are a block's keys; maps keyed by names are passed over, though
    the blocks they hold are not."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _block_objects(item, (*where, i), f"{path}[{i}]")
    elif isinstance(value, dict):
        yield where, path
        for key, item in value.items():
            if key not in NAMED_MAPS:
                yield from _block_objects(item, (*where, key), f"{path}.{key}")
            elif key in ("states", "realizations", "models"):
                for name, block in item.items():
                    yield from _block_objects(block, (*where, key, name), f"{path}.{key}.{name}")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_unknown_key_in_any_block_exits_two(capsys, tmp_path, name):
    doc = builtin_doc(capsys, name)
    assert scenario_to_dict(parse_scenario(json.loads(json.dumps(doc)), digest="")) == doc
    verb = "verify" if CATALOG[name].kind == "graph" else "search-model"
    objects = list(_block_objects(doc))
    assert len(objects) > 3
    for where, expected in objects:
        mutated = json.loads(json.dumps(doc))
        _mutate(mutated, (*where, "zz_unknown"), 0)
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(mutated))
        code, out, err = run(capsys, verb, str(path))
        assert (code, out) == (2, ""), expected
        assert err.startswith(f"parse error: {expected}.zz_unknown: unknown "), err


def test_misspelt_comeasurable_exits_two(capsys, tmp_path):
    """A misspelt key no longer drops the comeasurable sets, which turned
    the square's type I verdict into type III."""
    doc = builtin_doc(capsys, "peres-mermin")
    full = doc["realizations"]["full"]
    full["comeasurables"] = full.pop("comeasurable")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--realization", "full")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: $.realizations.full.comeasurables: unknown key")


def test_repeated_key_exits_two(capsys, tmp_path):
    """``json`` keeps a repeated key's last value, so a second, empty
    ``comeasurable`` turned the square's type I verdict into type III."""
    doc = builtin_doc(capsys, "peres-mermin")
    doc["realizations"]["full"]["function_tags"] = "MARK"
    text = json.dumps(doc).replace(
        '"function_tags": "MARK"', '"function_tags": [], "comeasurable": []'
    )
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", str(path), "--realization", "full")
    assert (code, out) == (2, "")
    assert err.startswith(
        "parse error: $.realizations.full.comeasurable: repeated key 'comeasurable'"
    )


@pytest.mark.parametrize(
    "block, item, expected",
    [
        # a response at an ontic state the model lacks, or for a joint outside the family
        (("models", "m1", "responses"),
         {"measurements": ["color"], "ontic": "nowhere", "distribution": {"black": "1"}},
         "$.models.m1: invalid model: "),
        (("models", "m1", "responses"),
         {"measurements": ["color", "size", "weight"], "ontic": "bb",
          "distribution": {"black,big": "1"}},
         "$.models.m1: invalid model: "),
        # a second distribution for one joint and one ontic state or preparation
        (("models", "m1", "responses"),
         {"measurements": ["color"], "ontic": "bb", "distribution": {"white": "1"}},
         "$.models.m1.responses[6]: color already has a distribution at ontic 'bb'"),
        (("tables", "entries"),
         {"measurements": ["size", "color"], "preparation": "r1",
          "distribution": {"black,big": "1"}},
         "$.tables.entries[2]: color&size already has a distribution at preparation 'r1'"),
    ],
)
def test_stray_or_second_item_exits_two(capsys, tmp_path, block, item, expected):
    doc = builtin_doc(capsys, "box-m1")
    items = doc
    for key in block:
        items = items[key]
    items.append(item)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "search-model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {expected}")


def test_preparation_that_is_no_distribution_exits_two_at_it(capsys, tmp_path):
    doc = builtin_doc(capsys, "box-m1")
    prep = doc["models"]["m1"]["preparations"]["r1"]
    prep[next(iter(prep))] = "3/2"
    path = tmp_path / "prep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "search-model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: $.models.m1.preparations.r1: distribution sums to ")


@pytest.mark.parametrize(
    "label, state, expected_path",
    [
        # the built-in's density state, with a vector beside it
        ("z00", {"vector": [0, 0, 0, 1]}, "$.states.z00"),
        # strings are no lists of amplitudes, though they iterate like them
        ("psi", {"vector": "0001"}, "$.states.psi.vector"),
        ("psi", {"density": ["0001", "0000", "0000", "0000"]}, "$.states.psi.density[0]"),
    ],
)
def test_malformed_state_exits_two(capsys, tmp_path, label, state, expected_path):
    doc = builtin_doc(capsys, "peres-mermin")
    doc["states"].setdefault(label, {}).update(state)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "robustness", str(path), "--realization", "full")
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {expected_path}: ")


def test_outcome_label_with_comma_exits_two(capsys, tmp_path):
    """Distribution keys join outcome labels with ',', so an outcome label
    holding one could never be given a probability."""
    doc = builtin_doc(capsys, "box-m1")
    doc["tables"]["measurements"][0]["outcomes"][0][0] = "dark,grey"
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "search-model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: $.tables.measurements[0].outcomes[0][0]: ")


@pytest.mark.parametrize(
    "signs, code, message",
    [
        # the square's third column multiplies to -identity
        ([1] * 6, 3, "invalid graph: declared edge signs [1, 1, 1, 1, 1, 1] differ from "
         "the operator products' [1, 1, 1, 1, 1, -1]"),
        ([1, 1, 1, 1, -1, -1], 3, "invalid graph: declared edge signs"),
        ([1, 1, 1, 1, 1], 3, "invalid graph: declared edge signs"),
        ([1, 1, 1, 1, 1, -1, 1], 3, "invalid graph: declared edge signs"),
        ([1, 1, 1, 1, 1, 0], 3, "invalid graph: declared edge signs"),
        ([1, 1, 1, 1, 1, -1.0], 2, "parse error: $.edge_signs: 'edge_signs' must be a list of integers"),
        ("+1", 2, "parse error: $.edge_signs:"),
    ],
)
def test_declared_edge_signs_are_checked(capsys, tmp_path, signs, code, message):
    doc = builtin_doc(capsys, "peres-mermin")
    assert doc["edge_signs"] == [1, 1, 1, 1, 1, -1]
    doc["edge_signs"] = signs
    path = tmp_path / "signs.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "verify", str(path))
    assert got == code
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("key", ["hyperedges", "edge_signs"])
def test_graph_keys_without_vertices_exit_two(capsys, tmp_path, key):
    doc = builtin_doc(capsys, "box-m1")
    doc[key] = [[0, 1]] if key == "hyperedges" else [1]
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "search-model", str(path))
    assert code == 2
    assert err.startswith(f"parse error: $.{key}:")
