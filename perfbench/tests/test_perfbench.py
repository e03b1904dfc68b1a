"""Tests of the benchmark itself: deterministic inputs, a strict oracle.

    python3 -m pytest perfbench/tests
"""

import copy
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

def _snapshot(workload):
    return [(case.name, case.doc, [(c.verb, c.options, c.expect) for c in case.calls])
            for case in workload.cases]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    assert _snapshot(first) == _snapshot(again)
    order_a = [(c.name, k.verb) for c, k in first.round_calls(random.Random(3))]
    order_b = [(c.name, k.verb) for c, k in again.round_calls(random.Random(3))]
    assert order_a == order_b


@pytest.mark.parametrize("name", ["qubits", "wide"])
def test_seed_changes_the_generated_inputs(name):
    docs = {json.dumps([c.doc for c in workloads.build(name, seed).cases]) for seed in range(4)}
    assert len(docs) > 1


def test_written_files_carry_scenario_and_answers(tmp_path):
    workload = workloads.build("wide", 1)
    workload.write(tmp_path)
    case = workload.cases[0]
    assert json.loads(Path(case.scenario).read_text()) == case.doc
    expected = json.loads((tmp_path / f"{case.name}.expected.json").read_text())
    assert [e["expect"]["min_violation_fraction"] for e in expected[1:]] == ["0"]
    assert case.size == {"qubits": 3, "vertices": 19, "edges": 9, "bytes": Path(case.scenario).stat().st_size}


def _brute_force_witnesses(n, edges, signs):
    out = []
    for values in itertools.product((1, -1), repeat=n):
        if all(_product(values, e) == s for e, s in zip(edges, signs)):
            out.append(values)
    return out


def _product(values, edge):
    p = 1
    for v in edge:
        p *= values[v]
    return p


@pytest.mark.parametrize("kind", ["pm", "ghz"])
def test_block_answers_follow_from_the_construction(kind):
    words, edges = workloads.BLOCKS[kind]
    signs = [workloads.edge_sign([words[v] for v in e]) for e in edges]
    assert sorted(signs) == [-1] + [1] * (len(edges) - 1)
    assert not _brute_force_witnesses(len(words), edges, signs)
    for dropped in range(len(edges)):
        kept = [k for k in range(len(edges)) if k != dropped]
        found = _brute_force_witnesses(len(words), [edges[k] for k in kept], [signs[k] for k in kept])
        assert len(found) == workloads.WITNESSES_ONE_EDGE_DROPPED[kind]


def test_placement_and_relabelling_keep_every_sign():
    rng = random.Random(11)
    for _ in range(20):
        positions, shifts = rng.sample(range(5), 3), [rng.randrange(3) for _ in range(5)]
        placed = [workloads._place(w, positions, shifts, 5) for w in workloads.GHZ_WORDS]
        for e in workloads.GHZ_EDGES:
            assert workloads.edge_sign([placed[v] for v in e]) == workloads.edge_sign(
                [workloads.GHZ_WORDS[v] for v in e])


def _wide_sat_report(case):
    """A correct verify report built block by block, without kscheck."""
    constraints = case.calls[0].expect["witnesses_satisfy"]
    labels, edges, signs = constraints["labels"], constraints["edges"], constraints["signs"]
    blocks = sorted({label.split("_")[0] for label in labels})
    per_block = []
    for block in blocks:
        members = [v for v, label in enumerate(labels) if label.startswith(block + "_")]
        local = {v: k for k, v in enumerate(members)}
        block_edges = [[local[v] for v in e] for e in edges if e[0] in local]
        block_signs = [s for e, s in zip(edges, signs) if e[0] in local]
        found = _brute_force_witnesses(len(members), block_edges, block_signs)
        per_block.append([{members[k]: x for k, x in enumerate(w)} for w in found])
    witnesses = []
    for combo in itertools.product(*per_block):
        merged = {}
        for part in combo:
            merged.update(part)
        witnesses.append([merged[v] for v in range(len(labels))])
    return {"verdicts": {"satisfiable": True, "witness_count": len(witnesses)}, "witnesses": witnesses}


@pytest.fixture(scope="module")
def wide_sat():
    case = workloads.wide_case(random.Random(2), "wide-sat", ("pm", "ghz"), True,
                               ("verify", "robustness", "search-model"))
    return case, _wide_sat_report(case)


def test_oracle_accepts_the_right_witnesses(wide_sat):
    case, report = wide_sat
    assert report["verdicts"]["witness_count"] == 1024
    assert oracle.check_report(report, case.calls[0].expect) is None


def test_oracle_rejects_a_tampered_witness_count(wide_sat):
    case, report = wide_sat
    bad = copy.deepcopy(report)
    bad["verdicts"]["witness_count"] = 1023
    assert "witness_count" in oracle.check_report(bad, case.calls[0].expect)
    bad = copy.deepcopy(report)
    bad["witnesses"].pop()
    assert "witnesses listed" in oracle.check_report(bad, case.calls[0].expect)


def test_oracle_rejects_a_witness_that_breaks_an_edge(wide_sat):
    case, report = wide_sat
    bad = copy.deepcopy(report)
    bad["witnesses"][5][0] *= -1
    assert "breaks edge" in oracle.check_report(bad, case.calls[0].expect)


def test_oracle_rejects_repeated_witnesses(wide_sat):
    case, report = wide_sat
    bad = copy.deepcopy(report)
    bad["witnesses"][1] = list(bad["witnesses"][0])
    assert "repeats" in oracle.check_report(bad, case.calls[0].expect)


def test_oracle_checks_model_states_against_the_edges(wide_sat):
    case, report = wide_sat
    search = case.calls[2]
    states = [",".join("+1" if x == 1 else "-1" for x in w) for w in report["witnesses"]]
    good = {"verdicts": {"satisfiable": True, "min_violation_fraction": "0", "model_states": states}}
    assert oracle.check_report(good, search.expect) is None
    states[3] = states[3].replace("+1", "-1", 1) if "+1" in states[3] else states[3].replace("-1", "+1", 1)
    assert oracle.check_report(good, search.expect) is not None


def test_oracle_rejects_wrong_verdicts_and_broken_calls():
    expect = dict(workloads.PAPER_CALLS[0][1])
    good = {"verdicts": {"satisfiable": False, "witness_count": 0, "certificate": "parity"},
            "certificate": {"kind": "parity"}}
    assert oracle.check(0, json.dumps(good).encode(), expect) is None
    assert oracle.check(1, json.dumps(good).encode(), expect) == "exit code 1"
    assert "not JSON" in oracle.check(0, json.dumps(good).encode()[:-5], expect)
    flipped = copy.deepcopy(good)
    flipped["verdicts"]["satisfiable"] = True
    assert "satisfiable" in oracle.check(0, json.dumps(flipped).encode(), expect)
    robust = {"min_violation_fraction": "1/5"}
    assert "min_violation_fraction" in oracle.check_report(
        {"verdicts": {"min_violation_fraction": "1/6"}}, robust)


def test_unsat_union_fraction_counts_one_edge_per_block():
    case = workloads.build("wide", 3).cases[-1]
    assert case.size["edges"] == 12
    assert case.calls[0].expect["min_violation_fraction"] == "1/6"
    mixed = workloads.wide_case(random.Random(0), "mixed", ("pm", "ghz"), False, ("robustness",))
    assert mixed.calls[0].expect["min_violation_fraction"] == "2/11"


def test_self_time_subtracts_children():
    spans = [[0, None, "call", 0.0, 10.0, None], [1, 0, "a", 1.0, 5.0, None],
             [2, 1, "b", 2.0, 3.0, None], [3, 1, "b", 3.5, 4.0, None]]
    assert layers.self_times(spans) == pytest.approx({"call": 6.0, "a": 2.5, "b": 1.5})


def test_every_workload_and_layer_metric_is_in_benchmark_json():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert list(layers.UNITS) == list(layers.PER_LAYER)


def test_qubits_seed_keeps_the_letter_counts():
    """The seed moves letters between qubits but keeps how many of each
    there are, so the matrix work of a call does not depend on the seed."""
    def counts(seed):
        words = [v["operator"] for case in workloads.build("qubits", seed).cases for v in case.doc["vertices"]]
        return sorted("".join(words).count(letter) for letter in "XYZ")
    assert len({tuple(counts(seed)) for seed in range(8)}) == 1
