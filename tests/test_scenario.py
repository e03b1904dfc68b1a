"""Scenario files: parsing, diagnostics, round-trips."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from kscheck import boxes, catalog
from kscheck.cli import Report, main
from kscheck.errors import InvalidGraphError, ScenarioParseError
from kscheck.operational import Realization
from kscheck.scenario import BUILTIN_NAMES, Scenario, builtin_scenario, load_scenario
from kscheck.scenario_json import parse_scenario, scenario_to_dict

from dense_oracle import ComplexMatrix, exact_matrix

MINIMAL_GRAPH = {
    "name": "single-edge",
    "vertices": [
        {"label": "a", "operator": "+ZI"},
        {"label": "b", "operator": "IZ"},
        {"label": "c", "operator": "ZZ"},
    ],
    "hyperedges": [[0, 1, 2]],
}


class TestParsing:
    def test_minimal_graph(self):
        scenario = parse_scenario(MINIMAL_GRAPH, digest="test")
        assert scenario.graph is not None
        assert scenario.graph.edge_signs == (1,)

    def test_unknown_builtin_or_file(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("no-such-thing")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(MINIMAL_GRAPH))
        scenario = load_scenario(str(path))
        assert scenario.graph.labels == ("a", "b", "c")
        assert scenario.digest != ""

    @pytest.mark.parametrize("builtin", [True, False])
    def test_file_digest_is_sha256(self, tmp_path, monkeypatch, builtin):
        """The digest is SHA-256 of the file's bytes, from hashlib where the
        interpreter has no builtin SHA-256 module."""
        if not builtin:
            for name in ("_sha2", "_sha256"):
                monkeypatch.setitem(sys.modules, name, None)  # import raises
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(MINIMAL_GRAPH))
        digest = load_scenario(str(path)).digest
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_bad_json_is_positioned(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(str(path))
        assert err.value.path == "$"

    def test_unreadable_input_is_a_parse_error(self, unreadable_input):
        path, reason = unreadable_input
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert err.value.path == "$"
        assert reason in err.value.reason

    def test_bad_operator_text_is_a_parse_error(self):
        doc = {
            "name": "x",
            "vertices": [
                {"label": "a", "operator": "+ZQ"},
                {"label": "b", "operator": "IZ"},
            ],
            "hyperedges": [[0, 1]],
        }
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert "vertices" in err.value.path

    def test_structurally_invalid_graph_keeps_its_class(self):
        doc = {
            "name": "x",
            "vertices": [
                {"label": "a", "operator": "ZI"},
                {"label": "b", "operator": "IZ"},
            ],
            "hyperedges": [[0, 1]],  # product ZZ, not a signed identity
        }
        with pytest.raises(InvalidGraphError):
            parse_scenario(doc, digest="test")

    def test_boolean_vertex_index_is_a_parse_error(self):
        doc = {**MINIMAL_GRAPH, "hyperedges": [[False, True, 2]]}
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert err.value.path == "$.hyperedges[0]"

    def test_repeated_vertex_index_is_an_invalid_graph(self):
        doc = {**MINIMAL_GRAPH, "hyperedges": [[0, 1, 2], [0, 0, 1, 2]]}
        with pytest.raises(InvalidGraphError, match=r"edge \[0, 0, 1, 2\] repeats a vertex"):
            parse_scenario(doc, digest="test")

    def test_vertex_missing_field(self):
        doc = {"name": "x", "vertices": [{"label": "a"}]}
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert err.value.path == "$.vertices[0]"

    def test_bad_probability_string(self):
        doc = {
            "name": "x",
            "tables": {
                "measurements": [
                    {"label": "coin", "outcomes": [["heads", 1], ["tails", -1]]}
                ],
                "preparations": ["r"],
                "comeasurable": [],
                "entries": [
                    {
                        "measurements": ["coin"],
                        "preparation": "r",
                        "distribution": {"heads": "one-half", "tails": "1/2"},
                    }
                ],
            },
        }
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert "distribution" in err.value.path

    def test_models_require_tables(self):
        doc = {"name": "x", "models": {"m": {"ontic_states": ["l"]}}}
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert err.value.path == "$.models"

    def test_states_require_graph(self):
        doc = {"name": "x", "states": {"s": {"vector": [1, 0]}}}
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc, digest="test")

    def test_state_vector_form(self):
        doc = dict(MINIMAL_GRAPH)
        doc["states"] = {"psi": {"vector": [1, 0, 0, 0]}}
        scenario = parse_scenario(doc, digest="test")
        assert scenario.states["psi"].dim == 4

    def test_exact_density_stays_exact(self):
        doc = dict(MINIMAL_GRAPH)
        doc["states"] = {
            "mixed": {
                "density": [
                    [["1/4", "0"], 0, 0, 0],
                    [0, ["1/4", "0"], 0, 0],
                    [0, 0, ["1/4", "0"], 0],
                    [0, 0, 0, ["1/4", "0"]],
                ]
            }
        }
        scenario = parse_scenario(doc, digest="test")
        assert exact_matrix(scenario.states["mixed"]) is not None

    def test_repeated_density_strings_parse_alike(self):
        doc = dict(MINIMAL_GRAPH)
        doc["states"] = {
            "mixed": {"density": [[["1/4", "0"] if r == c else "0" for c in range(4)]
                                  for r in range(4)]},
            "bad": {"density": [["1/4" if r == c else "0" for c in range(4)] for r in range(4)]},
        }
        doc["states"]["bad"]["density"][2][3] = "1/0"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert err.value.path == "$.states.bad.density[2][3]"
        assert err.value.reason == "not a rational number: '1/0'"
        del doc["states"]["bad"]
        exact = exact_matrix(parse_scenario(doc, digest="test").states["mixed"])
        assert exact == ComplexMatrix.identity(4).scale(Fraction(1, 4))

    @pytest.mark.parametrize(
        "density, reason",
        [
            ([["1/2", "1/2"], ["0", "1/2"]], "hermitian"),
            ([["1/2", ["0", "1/4"]], [["0", "1/4"], "1/2"]], "hermitian"),
            ([["1", "0"], ["0", "1"]], "unit trace"),
            ([["3/2", "0"], ["0", "-1/2"]], "positive semidefinite"),
            ([["1/2", "1"], ["1", "1/2"]], "positive semidefinite"),
        ],
    )
    def test_invalid_exact_density_is_positioned(self, density, reason):
        # the 2x2 block in the corner of a two-qubit state
        padded = [row + ["0", "0"] for row in density] + [["0"] * 4 for _ in range(2)]
        doc = dict(MINIMAL_GRAPH)
        doc["states"] = {"bad": {"density": padded}}
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, digest="test")
        assert err.value.path == "$.states.bad"
        assert reason in err.value.reason


def eager_builtin(name: str) -> Scenario:
    """The built-in with every block built at once, in plain dicts."""
    digest = f"builtin:{name}"
    if name == "peres-mermin":
        return Scenario(
            name,
            digest,
            catalog.peres_mermin_graph(),
            dict(catalog.pm_states()),
            {
                "full": catalog.pm_full_realization(),
                "spin": catalog.pm_spin_realization(),
                "hyperedge": catalog.pm_hyperedge_realization(),
            },
        )
    if name == "ghz":
        return Scenario(
            name,
            digest,
            catalog.ghz_graph(),
            dict(catalog.ghz_states()),
            {
                "full": catalog.ghz_full_realization(),
                "standard": catalog.ghz_standard_realization(),
            },
        )
    if name == "army":
        return Scenario(name, digest, theory=boxes.army_theory())
    fixture = {"box-m1": boxes.box_m1, "box-m2": boxes.box_m2, "box-m3": boxes.box_m3}[name]()
    return Scenario(
        name, digest, theory=fixture.theory, models={name.replace("box-", ""): fixture.model}
    )


# every catalog builder a built-in's states or realizations read
BLOCK_BUILDERS = (
    "_maximally_mixed",
    "pm_z00_state",
    "pm_full_realization",
    "pm_spin_realization",
    "pm_hyperedge_realization",
    "ghz_state",
    "ghz_full_realization",
    "ghz_standard_realization",
)


class TestBuiltinsRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_lazy_blocks_equal_eager_ones(self, name):
        lazy, eager = builtin_scenario(name), eager_builtin(name)
        assert lazy == eager
        assert eager == lazy

    def test_names_build_nothing(self, monkeypatch):
        built = []
        for attr in BLOCK_BUILDERS:
            monkeypatch.setattr(catalog, attr, lambda *_, attr=attr: built.append(attr))
        pm, ghz = builtin_scenario("peres-mermin"), builtin_scenario("ghz")
        assert (len(pm.states), sorted(pm.states)) == (2, ["mixed", "z00"])
        assert (len(pm.realizations), list(pm.realizations)) == (3, ["full", "spin", "hyperedge"])
        assert list(ghz.realizations.keys()) == ["full", "standard"]
        assert "spin" in pm.realizations and "spin" not in ghz.realizations
        assert "ghz" in ghz.states and "z00" not in ghz.states
        assert pm.states and ghz.realizations
        assert built == []
        ghz.realizations["standard"]
        assert built == ["ghz_standard_realization"]
        pm.states["mixed"], pm.states["z00"]
        assert built == ["ghz_standard_realization", "_maximally_mixed", "pm_z00_state"]

    def test_file_realizations_build_on_first_read(self, tmp_path, monkeypatch):
        """A file's realizations are checked at load and built when read;
        each equals the eager ``Realization.build`` of its block."""
        doc = {
            **MINIMAL_GRAPH,
            "realizations": {
                "tagged": {
                    "assoc": {"a": ["m"], "b": ["m"], "c": ["n"]},
                    "comeasurable": [["m", "n"]],
                    "function_tags": [
                        {"vertex": "a", "measurement": "m", "tag": "f1"},
                        {"vertex": "b", "measurement": "m", "tag": "f2"},
                    ],
                },
                "plain": {
                    "assoc": {"a": ["a"], "b": ["b"], "c": ["c", "d"]},
                    "comeasurable": [["a", "b"], ["b", "d"]],
                },
            },
        }
        path = tmp_path / "realizations.json"
        path.write_text(json.dumps(doc))
        eager_build = Realization.build
        built = []
        monkeypatch.setattr(
            Realization, "build", lambda *args: built.append(args) or eager_build(*args)
        )
        realizations = load_scenario(str(path)).realizations
        assert (len(realizations), list(realizations)) == (2, ["tagged", "plain"])
        assert "plain" in realizations and "full" not in realizations
        assert built == []
        labels = [v["label"] for v in doc["vertices"]]
        for name, block in doc["realizations"].items():
            eager = eager_build(
                [set(block["assoc"][label]) for label in labels],
                [set(members) for members in block["comeasurable"]],
                {
                    (labels.index(tag["vertex"]), tag["measurement"]): tag["tag"]
                    for tag in block.get("function_tags", [])
                },
            )
            assert realizations[name] == eager
        assert realizations["tagged"] is realizations["tagged"]
        assert len(built) == 2

    def test_spin_realization_loads_no_realization_module(self, child_env):
        script = """
import json, sys
from kscheck.scenario import builtin_scenario
spin = builtin_scenario("peres-mermin").realizations["spin"]
print(json.dumps([len(spin.assoc), "kscheck.realization" in sys.modules]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [9, False]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_catalog_json_is_the_eager_dump(self, capsys, name):
        assert main(["catalog", name, "--json"]) == 0
        out = capsys.readouterr().out
        entry = catalog.CATALOG[name]
        expected = Report(
            command="catalog",
            inputs={"source": name, "digest": f"builtin:{name}"},
            verdicts={"name": entry.name, "kind": entry.kind, "summary": entry.summary,
                      "scenario": scenario_to_dict(eager_builtin(name))},
            timing_s=json.loads(out)["timing_s"],
        )
        assert out == expected.to_json() + "\n"

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_serialize_parse_cycle(self, name):
        original = builtin_scenario(name)
        doc = json.loads(json.dumps(scenario_to_dict(original)))
        reparsed = parse_scenario(doc, digest="test")
        if original.graph is not None:
            assert reparsed.graph.vertices == original.graph.vertices
            assert reparsed.graph.hyperedges == original.graph.hyperedges
            assert reparsed.graph.edge_signs == original.graph.edge_signs
            for rname, realization in original.realizations.items():
                assert reparsed.realizations[rname].assoc == realization.assoc
                assert (
                    reparsed.realizations[rname].comeasurable
                    == realization.comeasurable
                )
            for sname, state in original.states.items():
                exact = exact_matrix(state)
                if exact is not None:
                    assert exact_matrix(reparsed.states[sname]) == exact
                    # the rows written from the numerators are the oracle matrix's
                    assert doc["states"][sname]["density"] == [
                        [[str(v.re), str(v.im)] for v in row] for row in exact.rows
                    ]
        if original.theory is not None:
            assert reparsed.theory.family == original.theory.family
            assert reparsed.theory.tables == original.theory.tables
        for mname, model in original.models.items():
            assert reparsed.models[mname].responses == model.responses
            assert (
                reparsed.models[mname].prep_distributions
                == model.prep_distributions
            )
