"""CLI verbs, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kscheck
from kscheck import cli
from kscheck.cli import Report, main

SINGLE_EDGE = {
    "name": "single-edge",
    "vertices": [
        {"label": "a", "operator": "ZI"},
        {"label": "b", "operator": "IZ"},
        {"label": "c", "operator": "ZZ"},
    ],
    "hyperedges": [[0, 1, 2]],
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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        monkeypatch.setattr(cli, "min_violation_fraction", second_search)
        code, out, _ = run(capsys, "search-model", "box-m1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdicts"]["satisfiable"] is True
        assert doc["verdicts"]["min_violation_fraction"] == "0"


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

    def test_inadmissible_tuple_exit_six(self, capsys):
        code, _, err = run(capsys, "ghz", "ghz", "--tuple", "+1,+1,+1,+1")
        assert code == 6

    def test_wrong_type_exit_six(self, capsys):
        code, _, err = run(
            capsys, "ghz", "peres-mermin", "--realization", "spin"
        )
        assert code == 6


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

    def test_malformed_realization_blocks_exit_two(self, capsys, tmp_path):
        assoc = {"a": ["a"], "b": ["b"], "c": ["c"]}
        blocks = {
            "assoc": {"assoc": [["a"], ["b"], ["c"]]},
            "function_tags": {"assoc": assoc, "function_tags": 7},
            "function_tags[0]": {
                "assoc": assoc,
                "function_tags": [{"vertex": ["a"], "measurement": "a", "tag": "t"}],
            },
        }
        for n, (key, block) in enumerate(blocks.items()):
            path = tmp_path / f"bad{n}.json"
            path.write_text(json.dumps({**SINGLE_EDGE, "realizations": {"r": block}}))
            for verb in ("verify", "classify", "search-model"):
                code, _, err = run(capsys, verb, str(path))
                assert code == 2, (key, verb)
                assert f"$.realizations.r.{key}:" in err

    def test_closed_pipe_exits_quietly(self):
        src = str(Path(kscheck.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "kscheck.cli", "catalog", "peres-mermin", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader goes away before the report is written
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err

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

    def test_seed_flag_accepted_and_inert(self, capsys):
        _, out1, _ = run(capsys, "verify", "peres-mermin", "--json", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "peres-mermin", "--json", "--seed", "99")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("timing_s")
        doc2.pop("timing_s")
        assert doc1 == doc2
