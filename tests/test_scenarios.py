import dataclasses
import json
import re

import pytest

from reservoirplan import cli, formulation, scenarios
from reservoirplan.formulation import build_deterministic, build_proposed
from reservoirplan.model import (Scenario, ScenarioValidationError,
                                 validate_scenario)
from reservoirplan.pwl import PwlFunction, hinge
from reservoirplan.scenarios import (BUILTINS, SWEEP_PARAMETERS, _SLOPE_FIELDS,
                                     ScenarioParseError, SweepConfig,
                                     _with_slope, builtin_angpuang,
                                     builtin_simple, expand_sweep,
                                     load_scenario, load_sweep_config,
                                     resolve_scenario, save_scenario,
                                     scenario_from_dict, scenario_to_dict,
                                     sweep_scenario)


def test_round_trip_builtins(tmp_path):
    for name, factory in BUILTINS.items():
        scenario = factory()
        path = tmp_path / f"{name}.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded == scenario


def test_missing_horizon_named_in_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    doc = scenario_to_dict(builtin_simple(1))
    del doc["horizon"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match="horizon"):
        load_scenario(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"horizon\": 3,\n  oops\n}")
    with pytest.raises(ScenarioParseError, match="line 3"):
        load_scenario(path)


def test_probability_sum_violation_forwarded(tmp_path):
    doc = scenario_to_dict(builtin_simple(1))
    for entry in doc["distributions"]:
        if entry["reservoirs"] == [1] and entry["periods"] == [2]:
            entry["support"] = [[0.0, 0.5], [1.0, 0.4]]
            break
    path = tmp_path / "badprob.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError, match="sums to 0.9"):
        load_scenario(path)


def test_broadcast_entries_and_overrides():
    doc = {
        "name": "broadcast",
        "horizon": 2,
        "reservoirs": [
            {"id": 1, "max_volume": 10, "initial_volume": 2,
             "final_min_volume": 1},
            {"id": 2, "max_volume": 10, "initial_volume": 2,
             "final_min_volume": 1},
        ],
        "links": [{"from": 1, "to": 2, "capacity": 3}],
        "functions": [
            {"role": "profit", "reservoirs": "all", "periods": "all",
             "breakpoints": [[0, 0], [4, 4]], "left_slope": 1,
             "right_slope": 0, "shape": ["concave", "nondecreasing"]},
            {"role": "risk", "reservoirs": "all", "periods": "all",
             "breakpoints": [[0, 0]], "left_slope": 0, "right_slope": 2,
             "shape": ["convex", "nondecreasing"]},
            {"role": "transfer-cost", "links": "all", "periods": "all",
             "breakpoints": [[0, 0]], "left_slope": 0.25, "right_slope": 0.25},
            # Later entry overrides reservoir 1, period 2.
            {"role": "risk", "reservoirs": [1], "periods": [2],
             "breakpoints": [[0, 0]], "left_slope": 0, "right_slope": 5,
             "shape": ["convex", "nondecreasing"]},
        ],
        "distributions": [
            {"reservoirs": "all", "periods": "all",
             "support": [[0.0, 0.5], [2.0, 0.5]]},
        ],
        "penalty": 500.0,
    }
    scenario = scenario_from_dict(doc)
    assert validate_scenario(scenario).ok
    assert scenario.shortfall_risk[(1, 2)].right_slope == 5
    assert scenario.shortfall_risk[(2, 2)].right_slope == 2
    assert scenario.overflow_penalty[(2, 1)] == 500.0


def test_builtin_simple_documented_constants():
    for case in (1, 2):
        scenario = builtin_simple(case)
        assert scenario.horizon == 3
        assert scenario.num_reservoirs == 2
        for spec in scenario.reservoirs:
            assert spec.max_volume == 10.0
            assert spec.initial_volume == 1.0
            assert spec.final_min_volume == 1.0
        capacities = {(l.source, l.target): l.capacity for l in scenario.links}
        assert capacities == {(1, 2): 5.0, (2, 1): 5.0}
        assert validate_scenario(scenario).ok


def test_builtin_simple_reservoir2_dry_at_t2():
    for case in (1, 2):
        dist = builtin_simple(case).inflow[(2, 2)]
        assert dist.support == ((0.0, 1.0),)


def test_builtin_simple_case1_conservative_case2_aggressive():
    one, two = builtin_simple(1), builtin_simple(2)
    assert one.shortfall_risk[(1, 1)].max_cut_slope() > \
        two.shortfall_risk[(1, 1)].max_cut_slope()
    assert one.transfer_cost[(1, 2, 1)].max_cut_slope() > \
        two.transfer_cost[(1, 2, 1)].max_cut_slope()
    # Reservoir 1 likely sees above-normal inflow at t=1 in both cases.
    for scenario in (one, two):
        surge = scenario.inflow[(1, 1)]
        base = scenario.inflow[(1, 2)]
        assert surge.mean() > base.mean()
        top_value, top_prob = surge.support[-1]
        assert top_prob > 0.5


def test_builtin_angpuang_documented_constants():
    scenario = builtin_angpuang()
    assert scenario.horizon == 6
    assert scenario.num_reservoirs == 8
    assert all(l.capacity == 2.5 for l in scenario.links)
    for key, f in scenario.shortfall_risk.items():
        assert f.max_cut_slope() == 2.5
    for key, f in scenario.transfer_cost.items():
        assert f.max_cut_slope() == 0.25
    for key, f in scenario.release_profit.items():
        assert f.max_cut_slope() == 1.0
    assert validate_scenario(scenario).ok


def test_builtin_angpuang_structure():
    scenario = builtin_angpuang()
    big = {1, 4, 8}
    for spec in scenario.reservoirs:
        if spec.id in big:
            assert spec.max_volume > 10
        else:
            assert spec.max_volume <= 5
    # Every small reservoir is linked (both ways) to at least one big one.
    for small in set(scenario.ids()) - big:
        partners = {l.source for l in scenario.links if l.target == small}
        assert partners & big
        partners = {l.target for l in scenario.links if l.source == small}
        assert partners & big
    # Late periods are certainly (near) zero inflow.
    for n in scenario.ids():
        for t in range(3, 7):
            dist = scenario.inflow[(n, t)]
            assert len(dist.support) == 1
            assert dist.support[0][0] <= 0.1


def test_resolve_builtin_and_unknown():
    assert resolve_scenario("builtin:simple1").name == "simple1"
    with pytest.raises(ScenarioParseError, match="unknown builtin"):
        resolve_scenario("builtin:nope")


def test_expand_sweep_transfer_cost():
    config = SweepConfig(scenario="builtin:angpuang",
                         parameter="transfer-cost-slope",
                         grid=(0.25, 0.5, 1.0, 2.0), reps=10, seed=0)
    variants = expand_sweep(config)
    assert len(variants) == 4
    base = builtin_angpuang()
    for value, variant in zip(config.grid, variants):
        for key, f in variant.transfer_cost.items():
            assert f.max_cut_slope() == pytest.approx(value)
        # Only the swept parameter changed.
        assert variant.release_profit == base.release_profit
        assert variant.shortfall_risk == base.shortfall_risk
        assert variant.inflow == base.inflow
        assert validate_scenario(variant).ok


def test_expand_sweep_initial_volume_fraction_boundary():
    config = SweepConfig(scenario="builtin:angpuang",
                         parameter="initial-volume-fraction",
                         grid=(1.0,), reps=10, seed=0)
    variant = expand_sweep(config)[0]
    for spec in variant.reservoirs:
        assert spec.initial_volume == spec.max_volume
        assert spec.final_min_volume == spec.max_volume
    assert validate_scenario(variant).ok


def test_empty_grid_rejected():
    config = SweepConfig(scenario="builtin:simple1", parameter="risk-slope",
                         grid=(), reps=10, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        expand_sweep(config)


def test_inadmissible_grid_value_reported_with_index():
    config = SweepConfig(scenario="builtin:simple1",
                         parameter="initial-volume-fraction",
                         grid=(0.5, 1.5), reps=10, seed=0)
    with pytest.raises(ValueError, match=r"grid\[1\]"):
        expand_sweep(config)


def test_sweep_config_file_round_trip(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "scenario": "builtin:angpuang",
        "parameter": "risk-slope",
        "grid": [0.5, 2.5, 5.0],
        "reps": 20,
        "seed": 7,
    }))
    config = load_sweep_config(path)
    assert config.parameter == "risk-slope"
    assert config.grid == (0.5, 2.5, 5.0)
    assert config.reps == 20 and config.seed == 7


def test_generated_scenarios_validate_after_sweep():
    for parameter in ("transfer-cost-slope", "risk-slope", "profit-slope"):
        config = SweepConfig(scenario="builtin:simple2", parameter=parameter,
                             grid=(0.5, 2.0), reps=5, seed=0)
        for variant in expand_sweep(config):
            assert validate_scenario(variant).ok


def test_shipped_example_files_load():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent / "scenarios"
    scenario = load_scenario(root / "example_two_reservoir.json")
    assert scenario.horizon == 3
    assert validate_scenario(scenario).ok
    # Broadcast entry overridden for reservoir 2, period 3.
    assert scenario.release_profit[(2, 3)].breakpoints[-1] == (5.0, 5.0)
    assert scenario.release_profit[(1, 3)].breakpoints[-1] == (3.0, 3.0)
    config = load_sweep_config(root / "example_sweep.json")
    assert config.parameter == "transfer-cost-slope"
    assert len(config.grid) == 5


def _first_transfer_cost(doc):
    return next(e for e in doc["functions"] if e["role"] == "transfer-cost")


@pytest.mark.parametrize("field,edit", [
    ("id", lambda doc: doc["reservoirs"][1].update(id=2.5)),
    ("id", lambda doc: doc["reservoirs"][1].update(id=True)),
    ("id", lambda doc: doc["reservoirs"][1].update(id="2")),
    ("from", lambda doc: doc["links"][0].update({"from": 1.9})),
    ("to", lambda doc: doc["links"][0].update(to=2.0)),
    ("links", lambda doc: _first_transfer_cost(doc).update(links=[[1.0, 2]])),
    ("links", lambda doc: _first_transfer_cost(doc).update(links=[[1, "2"]])),
    ("reservoir", lambda doc: doc["penalty"]["overrides"][0].update(
        reservoir=1.0)),
    ("period", lambda doc: doc["penalty"]["overrides"][0].update(period=False)),
    ("horizon", lambda doc: doc.update(horizon=True)),
    ("horizon", lambda doc: doc.update(horizon=3.0)),
], ids=["id_float", "id_bool", "id_string", "from_float", "to_float",
        "links_float", "links_string", "penalty_reservoir_float",
        "penalty_period_bool", "horizon_bool", "horizon_float"])
def test_integer_fields_are_not_truncated_or_coerced(field, edit, tmp_path):
    # Each of these used to parse (2.5 as 2, true as 1, "2" as 2) and the
    # scenario then validated.
    doc = scenario_to_dict(builtin_simple(1))
    edit(doc)
    with pytest.raises(ScenarioParseError, match=f"'{field}' must be an integer"):
        scenario_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match=f"{path}: .*'{field}'"):
        load_scenario(path)


def _first_profit(doc):
    return next(e for e in doc["functions"] if e["role"] == "profit")


@pytest.mark.parametrize("where,field,edit", [
    ("reservoirs[0]", "max_volume",
     lambda doc: doc["reservoirs"][0].update(max_volume=True)),
    ("reservoirs[1]", "initial_volume",
     lambda doc: doc["reservoirs"][1].update(initial_volume=None)),
    ("links[0]", "capacity", lambda doc: doc["links"][0].update(capacity="5")),
    ("functions[0]", "breakpoints",
     lambda doc: _first_profit(doc).update(breakpoints=[[0.0, 0.0], ["1", 1]])),
    ("functions[0]", "left_slope",
     lambda doc: _first_profit(doc).update(left_slope="1")),
    ("functions[0]", "right_slope",
     lambda doc: _first_profit(doc).update(right_slope=[0.0])),
    ("distributions[0]", "support",
     lambda doc: doc["distributions"][0].update(
         support=[[0.0, "0.15"], [1.0, 0.45], [2.0, 0.4]])),
    ("distributions[0]", "support",
     lambda doc: doc["distributions"][0].update(support=[[{}, 1.0]])),
    ("penalty.overrides[0]", "value",
     lambda doc: doc["penalty"]["overrides"][0].update(value="5")),
    ("penalty", "default", lambda doc: doc["penalty"].update(default=False)),
    ("top level", "penalty", lambda doc: doc.update(penalty="5")),
    ("reservoirs[0]", "max_volume",
     lambda doc: doc["reservoirs"][0].update(max_volume=10 ** 400)),
], ids=["max_volume_bool", "initial_volume_null", "capacity_string",
        "breakpoint_string", "left_slope_string", "right_slope_list",
        "probability_string", "support_value_object", "penalty_value_string",
        "penalty_default_bool", "penalty_string", "max_volume_huge_integer"])
def test_number_fields_are_not_coerced(where, field, edit, tmp_path):
    # Each of these used to load: true as 1.0 and "5" as 5.0.
    doc = scenario_to_dict(builtin_simple(1))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match=re.escape(
            f"{path}: {where}: '{field}' must be a number, got ")):
        load_scenario(path)


@pytest.mark.parametrize("where,field,edit", [
    ("top level", "name", lambda doc: doc.update(name=None)),
    ("top level", "name", lambda doc: doc.update(name=1)),
    ("reservoirs[0]", "provenance",
     lambda doc: doc["reservoirs"][0].update(provenance=["x"])),
    ("links[1]", "provenance",
     lambda doc: doc["links"][1].update(provenance=False)),
    ("functions[0]", "provenance",
     lambda doc: _first_profit(doc).update(provenance={"source": "paper"})),
    ("distributions[0]", "provenance",
     lambda doc: doc["distributions"][0].update(provenance=None)),
], ids=["name_null", "name_number", "reservoir_provenance_list",
        "link_provenance_bool", "function_provenance_object",
        "distribution_provenance_null"])
def test_string_fields_are_not_coerced(where, field, edit, tmp_path):
    # Each of these used to load: null as 'None' and ["x"] as "['x']".
    doc = scenario_to_dict(builtin_simple(1))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match=re.escape(
            f"{path}: {where}: '{field}' must be a string, got ")):
        load_scenario(path)


def test_missing_string_fields_keep_their_defaults():
    doc = scenario_to_dict(builtin_simple(1))
    del doc["name"]
    for entry in (doc["reservoirs"][0], doc["links"][0],
                  doc["functions"][0], doc["distributions"][0]):
        del entry["provenance"]
    scenario = scenario_from_dict(doc)
    assert scenario.name == "scenario"
    assert scenario.reservoirs[0].provenance == "unspecified"
    assert scenario.links[0].provenance == "unspecified"
    assert scenario.release_profit[(1, 1)].provenance == "unspecified"
    assert scenario.inflow[(1, 1)].provenance == "unspecified"


@pytest.mark.parametrize("field,value", [
    ("scenario", None), ("scenario", ["builtin:simple1"]),
    ("parameter", 1.0), ("parameter", None),
], ids=["scenario_null", "scenario_list", "parameter_number", "parameter_null"])
def test_sweep_strings_are_not_coerced(field, value, tmp_path):
    # A null parameter used to be reported as the unknown parameter 'None'.
    doc = {"scenario": "builtin:simple1", "parameter": "risk-slope",
           "grid": [1.0], field: value}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match=re.escape(
            f"{path}: sweep config: '{field}' must be a string, "
            f"got {value!r}")):
        load_sweep_config(path)


def test_shape_must_be_a_list_of_flags():
    # "concave" used to be split into the flags c, o, n, ...
    doc = scenario_to_dict(builtin_simple(1))
    _first_profit(doc)["shape"] = "concave"
    with pytest.raises(ScenarioParseError, match=re.escape(
            "functions[0]: 'shape' must be a list of flags, got 'concave'")):
        scenario_from_dict(doc)


_MISSING = object()


@pytest.mark.parametrize("value,accepted", [
    (True, True), (False, True), (_MISSING, True),
    ("false", False), ("true", False), (0, False), (1, False), (None, False),
], ids=["true", "false", "missing", "string_false", "string_true", "zero",
        "one", "null"])
def test_physical_sim_must_be_a_json_bool(value, accepted, tmp_path):
    # "false" used to load as physical_sim=True.
    doc = scenario_to_dict(builtin_simple(1))
    if value is _MISSING:
        del doc["physical_sim"]
    else:
        doc["physical_sim"] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    if not accepted:
        with pytest.raises(ScenarioParseError, match=re.escape(
                f"{path}: top level: 'physical_sim' must be true or false, "
                f"got {value!r}")):
            load_scenario(path)
        return
    scenario = load_scenario(path)
    assert scenario.physical_sim is (value is True)
    saved = tmp_path / "saved.json"
    save_scenario(scenario, saved)
    assert json.loads(saved.read_text())["physical_sim"] is (value is True)
    assert load_scenario(saved) == scenario


def test_index_lists_refuse_bools():
    doc = scenario_to_dict(builtin_simple(1))
    doc["functions"][0]["reservoirs"] = [True]
    with pytest.raises(ScenarioParseError, match="list of integers"):
        scenario_from_dict(doc)


def _add_function(doc, role, **target):
    entry = next(e for e in doc["functions"] if e["role"] == role)
    doc["functions"].append({**entry, **target})
    return f"functions[{len(doc['functions']) - 1}]"


def _add_distribution(doc, **target):
    doc["distributions"].append({**doc["distributions"][0], **target})
    return f"distributions[{len(doc['distributions']) - 1}]"


def _add_override(doc, **target):
    doc["penalty"]["overrides"].append({"reservoir": 1, "period": 1,
                                        "value": 5.0, **target})
    return f"penalty.overrides[{len(doc['penalty']['overrides']) - 1}]"


@pytest.mark.parametrize("add,message", [
    (lambda doc: _add_function(doc, "risk", reservoirs=[99]),
     "'reservoirs' has 99, not a reservoir id 1..2"),
    (lambda doc: _add_function(doc, "profit", periods=[7]),
     "'periods' has 7, not a period 1..3"),
    (lambda doc: _add_function(doc, "transfer-cost", links=[[1, 1]]),
     "'links' has [1, 1], not a link"),
    (lambda doc: _add_distribution(doc, periods=[0]),
     "'periods' has 0, not a period 1..3"),
    (lambda doc: _add_override(doc, reservoir=9, period=9),
     "'reservoir' has 9, not a reservoir id 1..2"),
    (lambda doc: _add_override(doc, period=4),
     "'period' has 4, not a period 1..3"),
], ids=["risk_reservoir", "profit_period", "transfer_cost_link",
        "distribution_period", "penalty_reservoir", "penalty_period"])
def test_entries_outside_the_network_are_refused(add, message, tmp_path,
                                                 capsys):
    # Each of these used to be dropped: the file loaded and `plan` exited 0.
    doc = scenario_to_dict(builtin_simple(1))
    where = add(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match=re.escape(
            f"{path}: {where}: {message}")):
        load_scenario(path)
    assert cli.main(["plan", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"{where}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("reps", 2.7), ("reps", True), ("reps", "10"),
    ("seed", 1.5), ("seed", "7"), ("seed", False),
])
def test_sweep_reps_and_seed_must_be_integers(field, value, tmp_path):
    # reps=2.7 and seed=1.5 used to run as reps=2, seed=1.
    doc = {"scenario": "builtin:simple1", "parameter": "risk-slope",
           "grid": [1.0], "reps": 10, "seed": 0, field: value}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError,
                       match=f"{path}: sweep config: '{field}' must be an integer"):
        load_sweep_config(path)


def test_sweep_negative_seed_and_default_reps_still_load(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"scenario": "builtin:simple1",
                                "parameter": "risk-slope", "grid": [1.0],
                                "seed": -3}))
    config = load_sweep_config(path)
    assert (config.reps, config.seed) == (100, -3)


@pytest.mark.parametrize("text,message", [
    ('"12"', "'grid' must be an array of numbers, got '12'"),
    ('{"0": 1.0}', "'grid' must be an array of numbers"),
    ("[true]", "grid[0] must be a finite number, got True"),
    ('[1.0, "0.5"]', "grid[1] must be a finite number, got '0.5'"),
    ("[1.0, 2.0, NaN]", "grid[2] must be a finite number, got nan"),
    ("[Infinity]", "grid[0] must be a finite number, got inf"),
    ("[0.5, 1e400]", "grid[1] must be a finite number, got inf"),
    ("[[1.0]]", "grid[0] must be a finite number, got [1.0]"),
    ("[1" + "0" * 400 + "]", "grid[0] must be a finite number, got 1000"),
], ids=["string", "object", "bool", "numeric-string", "nan", "infinity",
        "float-overflow", "nested", "integer-overflow"])
def test_sweep_grid_must_be_an_array_of_finite_numbers(text, message, tmp_path):
    # "12" used to run as the grid [1.0, 2.0], true as 1.0 and "0.5" as 0.5;
    # NaN, Infinity and 1e400 failed later without naming the grid value.
    path = tmp_path / "sweep.json"
    path.write_text('{"scenario": "builtin:simple1", "parameter": "risk-slope", '
                    f'"grid": {text}}}')
    with pytest.raises(ScenarioParseError,
                       match=re.escape(f"{path}: sweep config: {message}")):
        load_sweep_config(path)


def test_sweep_grid_keeps_integers_and_floats(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text('{"scenario": "builtin:simple1", "parameter": "risk-slope", '
                    '"grid": [1, 2.5, 1e-3]}')
    grid = load_sweep_config(path).grid
    assert grid == (1.0, 2.5, 1e-3)
    assert all(type(value) is float for value in grid)


def _per_key_sweep(base, parameter, value):
    """The grid point made key by key: the reference for `sweep_scenario`."""
    name = f"{base.name}[{parameter}={value:g}]"
    if parameter == "initial-volume-fraction":
        return dataclasses.replace(base, name=name, reservoirs=tuple(
            dataclasses.replace(r, initial_volume=value * r.max_volume,
                                final_min_volume=value * r.max_volume)
            for r in base.reservoirs))
    field = _SLOPE_FIELDS[parameter]
    return dataclasses.replace(base, name=name, **{field: {
        k: _with_slope(f, value) for k, f in getattr(base, field).items()}})


def _angpuang_and_round_trip(tmp_path):
    path = tmp_path / "angpuang.json"
    save_scenario(builtin_angpuang(), path)
    return {"builtin": builtin_angpuang(), "json": load_scenario(path)}


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_sweep_scenario_equals_per_key_reference(parameter, tmp_path):
    for label, base in _angpuang_and_round_trip(tmp_path).items():
        for value in (0.5, 0.75, 2.5):
            variant = sweep_scenario(base, parameter, value)
            reference = _per_key_sweep(base, parameter, value)
            for field in dataclasses.fields(Scenario):
                assert getattr(variant, field.name) == \
                    getattr(reference, field.name), (label, field.name)
            field = _SLOPE_FIELDS.get(parameter)
            if field is None:
                continue
            # One rescaled object per distinct base function, shared by
            # every key that held an equal function.
            swept = getattr(variant, field).values()
            distinct = set(getattr(base, field).values())
            assert len({id(f) for f in swept}) == len(distinct), label


def test_sweep_rescales_each_distinct_function_once(monkeypatch, tmp_path):
    calls = []
    rescale = scenarios._with_slope
    monkeypatch.setattr(scenarios, "_with_slope",
                        lambda f, value: calls.append(f) or rescale(f, value))
    for label, base in _angpuang_and_round_trip(tmp_path).items():
        for parameter, field in _SLOPE_FIELDS.items():
            calls.clear()
            sweep_scenario(base, parameter, 1.5)
            assert len(calls) == len(set(getattr(base, field).values())), \
                (label, parameter)


def test_angpuang_build_derives_each_distinct_term_once(monkeypatch, tmp_path):
    # One cost function serves all 84 link-periods, two profit values the
    # 48 release terms, three (risk, range, support) triples the 48 inflow
    # terms and one penalty at two capacities the 48 volumes, whether keys
    # share objects or hold equal copies. The penalty's hinge is built once.
    calls, hinges = [], []
    pieces = PwlFunction.pieces
    monkeypatch.setattr(PwlFunction, "pieces",
                        lambda f, *args: calls.append(f) or pieces(f, *args))
    monkeypatch.setattr(formulation, "hinge",
                        lambda slope: hinges.append(slope) or hinge(slope))
    for label, scenario in _angpuang_and_round_trip(tmp_path).items():
        assert len(set(scenario.overflow_penalty.values())) == 1
        for build, most in ((build_proposed, 8), (build_deterministic, 5)):
            calls.clear()
            hinges.clear()
            build(scenario)
            assert 0 < len(calls) <= most, (label, build.__name__)
            assert len(hinges) == 1, (label, build.__name__)
