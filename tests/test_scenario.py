"""Scenario files: parsing, diagnostics, round-trips."""

import json

import pytest

from kscheck.errors import InvalidGraphError, ScenarioParseError
from kscheck.scenario import (
    builtin_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)

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

    def test_bad_json_is_positioned(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(str(path))
        assert err.value.path == "$"

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
        assert scenario.states["mixed"].exact is not None

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


class TestBuiltinsRoundTrip:
    @pytest.mark.parametrize(
        "name", ["peres-mermin", "ghz", "box-m1", "box-m2", "box-m3", "army"]
    )
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
                if state.exact is not None:
                    assert reparsed.states[sname].exact == state.exact
        if original.theory is not None:
            assert reparsed.theory.family == original.theory.family
            assert reparsed.theory.tables == original.theory.tables
        for mname, model in original.models.items():
            assert reparsed.models[mname].responses == model.responses
            assert (
                reparsed.models[mname].prep_distributions
                == model.prep_distributions
            )
