"""File schemas, report serialization, and the command-line front end."""

import argparse
import contextlib
import io
import json
import re
from fractions import Fraction
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskcal.cli as cli
import riskcal.lift
from riskcal import ConditionalUtility, default_probes, validate
from riskcal.cli import build_parser, main
from riskcal.io import (
    SchemaError,
    emit_report_csv,
    emit_report_text,
    load_space_file,
    load_utility_file,
    packaged_data_path,
    parse_space,
    parse_utility,
)
from reference import parse_report, parse_report_csv

SPACE_FILES = ["space_4.json", "space_8.json", "space_12.json", "space_product_64.json"]
UTILITY_FILES = [
    "utility_expectation.json",
    "utility_es_quarter.json",
    "utility_es_half.json",
    "utility_power_half.json",
    "utility_scenario.json",
    "utility_product_8x8.json",
]


def data(name: str) -> str:
    return str(packaged_data_path(name))


# ------------------------------------------------------------- space schema

def test_parse_space_golden():
    space, filt = parse_space(
        '{"masses": [[1, 4], [1, 4], [1, 4], [1, 4]], "f1_blocks": [[0, 1], [2, 3]]}'
    )
    assert space.mass == (Fraction(1, 4),) * 4
    assert filt.f1.blocks == ((0, 1), (2, 3))
    assert filt.f0.blocks == ((0, 1, 2, 3),)


def test_parse_space_integer_masses_and_labels():
    space, _ = parse_space(
        '{"masses": [1], "f1_blocks": [[0]], "labels": ["only"]}'
    )
    assert space.mass == (Fraction(1),)
    assert space.outcomes == ("only",)


def test_parse_space_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown keys") as ei:
        parse_space('{"masses": [[1, 1]], "f1_blocks": [[0]], "extra": 1}')
    assert ei.value.field == "extra"


def test_parse_space_missing_keys_name_the_field():
    with pytest.raises(SchemaError) as ei:
        parse_space('{"f1_blocks": [[0]]}')
    assert ei.value.field == "masses"
    with pytest.raises(SchemaError) as ei:
        parse_space('{"masses": [[1, 1]]}')
    assert ei.value.field == "f1_blocks"


def test_parse_space_bad_rational_entries():
    with pytest.raises(SchemaError) as ei:
        parse_space('{"masses": [[1, 0]], "f1_blocks": [[0]]}')
    assert "zero denominator" in str(ei.value)
    assert ei.value.field == "masses[0]"
    with pytest.raises(SchemaError) as ei:
        parse_space('{"masses": ["x"], "f1_blocks": [[0]]}')
    assert ei.value.field == "masses[0]"


def test_parse_space_bad_labels():
    with pytest.raises(SchemaError) as ei:
        parse_space('{"masses": [[1, 1]], "f1_blocks": [[0]], "labels": ["a", "b"]}')
    assert ei.value.field == "labels"


def test_json_syntax_error_carries_line():
    with pytest.raises(SchemaError) as ei:
        parse_space('{\n  "masses": oops\n}')
    assert ei.value.line == 2
    assert "not valid JSON" in str(ei.value)


# ----------------------------------------------------------- utility schema

def test_parse_utility_all_kinds():
    assert parse_utility('{"utility": {"kind": "expectation"}}').describe() == "expectation"
    assert parse_utility('{"utility": {"kind": "es", "alpha": [1, 2]}}').describe() == "es(1/2)"
    assert parse_utility('{"utility": {"kind": "power", "alpha": 0.5}}').describe() == "power(0.5)"
    pw = parse_utility(
        '{"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.25], [1, 1]]}}'
    )
    assert pw.describe() == "piecewise[3 knots]"
    sc = parse_utility(
        '{"utility": {"kind": "scenario", "measures": [[[1, 2], [1, 2]], [0.25, 0.75]]}}'
    )
    assert sc.describe() == "scenario[2]"
    assert sc.scenarios.measures[0] == (Fraction(1, 2), Fraction(1, 2))
    pr = parse_utility('{"utility": {"kind": "product", "k_alpha": 2, "k_x": 4}}')
    assert pr.describe() == "product(2x4)"


def test_parse_utility_unknown_kind():
    with pytest.raises(SchemaError) as ei:
        parse_utility('{"utility": {"kind": "entropic"}}')
    assert ei.value.field == "utility.kind"
    assert "entropic" in str(ei.value)


def test_parse_utility_missing_pieces():
    with pytest.raises(SchemaError) as ei:
        parse_utility('{"nope": 1}')
    assert ei.value.field == "utility"
    with pytest.raises(SchemaError) as ei:
        parse_utility('{"utility": {"kind": "es"}}')
    assert ei.value.field == "utility.alpha"
    with pytest.raises(SchemaError) as ei:
        parse_utility('{"utility": {"kind": "power", "alpha": "big"}}')
    assert ei.value.field == "utility.alpha"
    with pytest.raises(SchemaError) as ei:
        parse_utility('{"utility": {"kind": "product", "k_alpha": 2.5, "k_x": 4}}')
    assert ei.value.field == "utility.k_alpha"


@pytest.mark.parametrize("sizes,field", [
    ({"k_alpha": 8, "k_x": True}, "utility.k_x"),
    ({"k_alpha": 8, "k_x": 2.5}, "utility.k_x"),
    ({"k_alpha": 8}, "utility.k_x"),
    ({"k_alpha": "8", "k_x": True}, "utility.k_alpha"),
])
def test_parse_utility_names_the_bad_product_size(sizes, field):
    with pytest.raises(SchemaError, match="product needs integer k_alpha and k_x") as ei:
        parse_utility(json.dumps({"utility": {"kind": "product", **sizes}}))
    assert ei.value.field == field


def test_parse_utility_wraps_construction_errors():
    # slopes 1.5 then 0.5: not convex, rejected by the distortion constructor
    with pytest.raises(SchemaError, match="convex") as ei:
        parse_utility('{"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.75], [1, 1]]}}')
    assert ei.value.field == "utility"
    with pytest.raises(SchemaError) as ei:
        parse_utility('{"utility": {"kind": "scenario", "measures": [[[1, 2], [1, 4]]]}}')
    assert ei.value.field == "utility"


# --------------------------------------------------------- packaged examples

@pytest.mark.parametrize("name", SPACE_FILES)
def test_shipped_spaces_validate(name):
    space, filt = load_space_file(data(name))
    assert validate(space, filt).ok


@pytest.mark.parametrize("name", UTILITY_FILES)
def test_shipped_utilities_parse(name):
    with open(data(name), "r", encoding="utf-8") as fh:
        parse_utility(fh.read())


# ------------------------------------------------------------ report formats

def test_emit_report_text_is_canonical():
    doc = {"b": 1, "a": [1.5, True], "nested": {"z": 0.1, "y": "s"}}
    text = emit_report_text(doc)
    assert text == '{\n  "a": [\n    1.5,\n    true\n  ],\n  "b": 1,\n  "nested": {\n    "y": "s",\n    "z": 0.1\n  }\n}\n'
    assert emit_report_text(doc) == text


def test_emit_report_csv_cells():
    rows = [{"a": 0.1, "b": True, "c": "word"}, {"a": 2.0, "b": False, "c": 3}]
    text = emit_report_csv(rows, ["a", "b", "c"])
    assert text == "a,b,c\n0.1,true,word\n2.0,false,3\n"


def test_parse_report_round_trip():
    doc = {"command": "eval", "seed": 1729, "tolerance": 1e-9, "values": [0.25, -1.0]}
    text = emit_report_text(doc)
    parsed = parse_report(text)
    assert parsed == doc
    assert emit_report_text(parsed) == text


def test_parse_report_requires_header_keys():
    for missing in ("command", "seed", "tolerance"):
        doc = {"command": "eval", "seed": 1, "tolerance": 0.1}
        del doc[missing]
        with pytest.raises(SchemaError) as ei:
            parse_report(emit_report_text(doc))
        assert ei.value.field == missing


def test_parse_report_refuses_a_json_array():
    with pytest.raises(SchemaError, match="report must be a JSON object"):
        parse_report("[1, 2]")


def test_parse_report_csv_round_trip():
    text = emit_report_csv([{"probe_id": 0, "gap": 0.5}], ["probe_id", "gap"])
    rows = parse_report_csv(text)
    assert rows == [{"probe_id": "0", "gap": "0.5"}]
    assert float(rows[0]["gap"]) == 0.5
    with pytest.raises(SchemaError):
        parse_report_csv("")


# -------------------------------------------------------------- CLI plumbing

def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_ok(capsys):
    code, out, err = run_cli(["validate", "--space", data("space_8.json")], capsys)
    assert code == 0 and err == ""
    doc = parse_report(out)
    assert doc["ok"] is True
    assert doc["outcomes"] == 8
    assert doc["conditional_resolution"] == 4
    assert doc["f1_blocks"] == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_cli_validate_decides_resolution_of_a_long_ramp_quickly(tmp_path, capsys):
    # one block with masses proportional to 1..32: 528 splits into 16 pairs summing to 33
    ramp = tmp_path / "ramp_32.json"
    ramp.write_text(json.dumps({"masses": [[k, 528] for k in range(1, 33)], "f1_blocks": [list(range(32))]}))
    start = perf_counter()
    code, out, _ = run_cli(["validate", "--space", str(ramp)], capsys)
    assert perf_counter() - start < 1.0
    assert code == 0
    assert parse_report(out)["conditional_resolution"] == 16


def test_cli_validate_decides_resolution_of_a_block_whose_searches_revisit_dead_states(tmp_path, capsys):
    # one block of 40 masses w/720: n = 15 (room 48) has no split, and the existence
    # search exhausted it in about 45 s until it remembered the states that held none
    w = [29, 37, 33, 3, 14, 18, 12, 8, 23, 17, 25, 1, 31, 7, 3, 10, 40, 30, 3, 10,
         39, 20, 8, 17, 20, 10, 31, 33, 5, 22, 2, 20, 22, 13, 9, 20, 10, 30, 18, 17]
    h40 = tmp_path / "h40.json"
    h40.write_text(json.dumps({"masses": [[k, 720] for k in w], "f1_blocks": [list(range(40))]}))
    start = perf_counter()
    code, out, _ = run_cli(["validate", "--space", str(h40)], capsys)
    assert perf_counter() - start < 5.0
    assert code == 0
    assert parse_report(out)["conditional_resolution"] == 12


def test_cli_lift_grids_a_block_whose_canonical_split_runs_out_of_budget(tmp_path, capsys):
    # the same 40 masses: the canonical split at n = 12 runs out of budget, and the grid
    # takes the existence search's 12-way split instead of refusing
    w = [29, 37, 33, 3, 14, 18, 12, 8, 23, 17, 25, 1, 31, 7, 3, 10, 40, 30, 3, 10,
         39, 20, 8, 17, 20, 10, 31, 33, 5, 22, 2, 20, 22, 13, 9, 20, 10, 30, 18, 17]
    h40 = tmp_path / "h40.json"
    h40.write_text(json.dumps({"masses": [[k, 720] for k in w], "f1_blocks": [list(range(40))]}))
    start = perf_counter()
    code, out, err = run_cli(["lift", "--space", str(h40), "--utility", data("utility_es_half.json"),
                              "--f", ",".join(["1"] * 40), "--g", ",".join(["0"] * 40)], capsys)
    assert perf_counter() - start < 5.0
    assert code == 0 and err == ""
    doc = parse_report(out)
    assert doc["grid_n"] == doc["diagnostics"]["resolution_used"] == 12


# one block of 60 masses w/1440: every n from 24 up is refuted at once, but the
# search at n = 20 runs out of budget undecided (it ran for minutes unbudgeted)
H60 = [25, 25, 40, 14, 24, 19, 36, 36, 27, 7, 13, 20, 13, 32, 9, 24, 7, 28, 14, 12,
       23, 40, 13, 36, 40, 40, 40, 11, 40, 40, 12, 26, 15, 8, 40, 27, 25, 26, 40, 19,
       11, 20, 15, 25, 21, 18, 40, 13, 38, 29, 35, 27, 30, 19, 38, 14, 7, 4, 38, 12]


def _h60(tmp_path) -> str:
    h60 = tmp_path / "h60.json"
    h60.write_text(json.dumps({"masses": [[k, 1440] for k in H60], "f1_blocks": [list(range(60))]}))
    return str(h60)


def test_cli_validate_reports_a_resolution_its_search_could_not_decide_as_null(tmp_path, capsys):
    start = perf_counter()
    code, out, err = run_cli(["validate", "--space", _h60(tmp_path)], capsys)
    assert perf_counter() - start < 5.0
    assert code == 0 and err == ""
    doc = parse_report(out)
    assert doc["ok"] is True and doc["conditional_resolution"] is None  # unknown, where 0 would claim no split
    _, decided, _ = run_cli(["validate", "--space", data("space_8.json")], capsys)
    assert doc.keys() == parse_report(decided).keys()


@pytest.mark.parametrize("grid_n, where", [
    ([], "before the conditional resolution was decided"),
    (["--grid-n", "20"], "the 20-way split search on F1 block 0 "),
])
def test_cli_lift_refuses_a_grid_whose_split_search_runs_out_of_budget(grid_n, where, tmp_path, capsys):
    f, g = ",".join(["1"] * 60), ",".join(["0"] * 60)
    start = perf_counter()
    code, out, err = run_cli(["lift", "--space", _h60(tmp_path), "--utility", data("utility_es_half.json"),
                              "--f", f, "--g", g, *grid_n], capsys)
    assert perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("input error: resolution unavailable: search budget: ") and where in err


def test_cli_lift_names_the_block_that_cannot_split(tmp_path, capsys):
    # block 0 (uniform) splits 4 ways; block 1, masses 2:2:1:1, splits 2 and 3 ways only
    space = tmp_path / "two_blocks.json"
    space.write_text(json.dumps({
        "masses": [[1, 8]] * 4 + [[1, 6], [1, 6], [1, 12], [1, 12]],
        "f1_blocks": [[0, 1, 2, 3], [4, 5, 6, 7]],
    }))
    code, out, err = run_cli(
        ["lift", "--space", str(space), "--utility", data("utility_es_half.json"),
         "--f", "1,1,1,1,0,0,0,0", "--g", "0,0,0,0,-1,-1,-1,-1", "--grid-n", "4"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "F1 block 1 (4, 5, 6, 7) admits no 4-way equal-conditional-mass split" in err


def test_cli_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad_space.json"
    bad.write_text('{"masses": [[1, 2], [1, 2], [1, 2]], "f1_blocks": [[0, 1], [2]]}')
    code, out, _ = run_cli(["validate", "--space", str(bad)], capsys)
    assert code == 2
    doc = parse_report(out)
    assert doc["ok"] is False
    assert any("mass sum 3/2" in v for v in doc["violations"])


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("index", [99, -1])
def test_cli_validate_reports_out_of_range_block_index(index, fmt, tmp_path, capsys):
    # 99 used to raise IndexError in the resolution search; -1 wrapped to the last mass
    bad = tmp_path / "bad_index.json"
    bad.write_text(json.dumps({"masses": [[1, 4]] * 4, "f1_blocks": [[0, 1], [2, index]]}))
    code, out, err = run_cli(["validate", "--space", str(bad), "--format", fmt], capsys)
    assert code == 2 and err == ""
    violation = f"f1 block 1 references outcome {index} outside 0..3"
    if fmt == "csv":
        assert {"index": "0", "violation": violation} in parse_report_csv(out)
    else:
        doc = parse_report(out)
        assert doc["ok"] is False and violation in doc["violations"]
        assert doc["conditional_resolution"] == 0


def test_cli_validate_names_an_outcome_repeated_inside_one_block(tmp_path, capsys):
    repeat = tmp_path / "repeat_in_block.json"
    repeat.write_text(json.dumps({"masses": [[1, 4]] * 4, "f1_blocks": [[0, 0, 1], [2, 3]]}))
    code, out, err = run_cli(["validate", "--space", str(repeat)], capsys)
    assert code == 2 and err == ""
    assert parse_report(out)["violations"] == ["f1: outcome 0 appears more than once in block 0"]


def test_cli_validate_answers_a_block_longer_than_the_recursion_limit(tmp_path, capsys):
    flat = tmp_path / "flat_1030.json"
    flat.write_text(json.dumps({"masses": [[1, 1030]] * 1030, "f1_blocks": [list(range(1030))]}))
    code, out, err = run_cli(["validate", "--space", str(flat)], capsys)
    assert code == 0 and err == ""
    assert parse_report(out)["conditional_resolution"] == 1030


def test_cli_validate_names_utility(capsys):
    code, out, _ = run_cli(
        ["validate", "--space", data("space_4.json"), "--utility", data("utility_es_half.json")],
        capsys,
    )
    assert code == 0
    assert parse_report(out)["utility"] == "es(1/2)"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_cli_validate_checks_utility_against_space(fmt, capsys):
    # the same check eval makes: 8-entry measures on a 4-outcome space
    code, out, err = run_cli(
        ["validate", "--space", data("space_4.json"), "--utility", data("utility_scenario.json"),
         "--format", fmt],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == "input error: measure 0 has 8 entries for 4 outcomes\n"
    code, out, _ = run_cli(
        ["validate", "--space", data("space_8.json"), "--utility", data("utility_scenario.json")], capsys
    )
    assert code == 0 and parse_report(out)["utility"] == "scenario[3]"


def test_cli_eval_text_and_counts(capsys):
    code, out, _ = run_cli(
        ["eval", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"),
         "--probes", "10"],
        capsys,
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["command"] == "eval" and doc["seed"] == 1729 and doc["probes"] == 10
    assert doc["variant"] == "es(1/2)"
    assert len(doc["values"]) == 11  # ladder probe plus the seeded draws
    assert doc["min"] == min(doc["values"]) and doc["max"] == max(doc["values"])


def test_cli_eval_csv_shape(capsys):
    code, out, _ = run_cli(
        ["eval", "--space", data("space_4.json"), "--utility", data("utility_expectation.json"),
         "--probes", "5", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input_id,variant,value"
    assert len(lines) == 7
    assert lines[1].startswith("0,expectation,")


def test_cli_eval_rejects_mismatched_scenario(capsys):
    code, out, err = run_cli(
        ["eval", "--space", data("space_4.json"), "--utility", data("utility_scenario.json")],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:")
    assert "8 entries for 4 outcomes" in err


def test_cli_eval_rejects_invalid_space(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"masses": [[1, 2], [1, 2], [1, 2]], "f1_blocks": [[0, 1], [2]]}')
    code, _, err = run_cli(
        ["eval", "--space", str(bad), "--utility", data("utility_expectation.json")], capsys
    )
    assert code == 2
    assert "invalid space" in err and "mass sum 3/2" in err


def test_cli_tc_check_exit_codes(capsys):
    code, out, _ = run_cli(
        ["tc-check", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"),
         "--probes", "20"],
        capsys,
    )
    assert code == 1
    doc = parse_report(out)
    assert doc["consistent"] is False
    assert doc["max_gap"] >= 0.5 - 1e-12
    assert doc["witness"] == [0.0, 1.0, 2.0, 4.0] or doc["max_gap"] > 0.5

    code, out, _ = run_cli(
        ["tc-check", "--space", data("space_4.json"), "--utility", data("utility_expectation.json"),
         "--probes", "20"],
        capsys,
    )
    assert code == 0
    assert parse_report(out)["consistent"] is True


def test_cli_tc_check_csv(capsys):
    code, out, _ = run_cli(
        ["tc-check", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"),
         "--probes", "3", "--format", "csv"],
        capsys,
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "probe_id,direct,recomposed,gap"
    assert len(lines) == 5
    assert lines[1].split(",")[:1] == ["0"]


def test_cli_cone_check(capsys):
    code, out, _ = run_cli(
        ["cone-check", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"),
         "--probes", "15"],
        capsys,
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["acceptable_probes"] >= 1
    assert 0 <= doc["feasible_count"] <= doc["acceptable_probes"]
    assert doc["verdicts"][0]["probe_id"] == 0 and doc["verdicts"][0]["feasible"] is True


@pytest.mark.parametrize("space_name", ["space_12.json", "space_product_64.json"])
def test_cli_cone_check_beyond_enumeration_size(space_name, capsys):
    # 12 and 64 outcomes are past any core enumeration; the core bound needs none
    code, out, err = run_cli(
        ["cone-check", "--space", data(space_name), "--utility", data("utility_es_half.json")],
        capsys,
    )
    assert code == 0 and err == ""
    doc = parse_report(out)
    space, filtration = load_space_file(packaged_data_path(space_name))
    cu = ConditionalUtility(load_utility_file(packaged_data_path("utility_es_half.json")), space, filtration)
    acceptable = [
        pid for pid, x in enumerate(default_probes(space, 200, 1729))
        if cu.base.evaluate(x, cu.space, cu.filtration) >= 0.0
    ]
    assert acceptable
    assert [v["probe_id"] for v in doc["verdicts"]] == acceptable
    assert doc["acceptable_probes"] == len(acceptable)
    assert all(isinstance(v["feasible"], bool) for v in doc["verdicts"])


def test_cli_lift_text(capsys):
    code, out, _ = run_cli(
        ["lift", "--space", data("space_8.json"), "--utility", data("utility_es_half.json"),
         "--f", "1,1,1,1,0,0,0,0", "--g", "0,0,0,0,-1,-1,-1,-1"],
        capsys,
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["m"] == 1.0
    assert doc["grid_n"] == 4
    assert len(doc["xi"]) == 8 and len(doc["eta"]) == 8
    assert len(doc["geometry"]) == 2
    assert doc["diagnostics"]["snap_error"] <= 0.5
    assert max(doc["diagnostics"]["err_f"]) <= 1e-9


def test_cli_lift_csv_columns(capsys):
    code, out, _ = run_cli(
        ["lift", "--space", data("space_8.json"), "--utility", data("utility_es_half.json"),
         "--f", "1,1,1,1,0,0,0,0", "--g", "0,0,0,0,-1,-1,-1,-1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "block,f,g,x_x,x_y,y_x,y_y,lambda_target,lambda_achieved"
    assert len(lines) == 3


def test_cli_lift_rejects_unmeasurable_payoff(capsys):
    code, _, err = run_cli(
        ["lift", "--space", data("space_8.json"), "--utility", data("utility_es_half.json"),
         "--f", "1,0,1,0,1,0,1,0", "--g", "0,0,0,0,0,0,0,0"],
        capsys,
    )
    assert code == 2
    assert "constant on every F1 block" in err


def test_cli_lift_rejects_wrong_length(capsys):
    code, _, err = run_cli(
        ["lift", "--space", data("space_8.json"), "--utility", data("utility_es_half.json"),
         "--f", "1,2,3", "--g", "0,0,0,0,0,0,0,0"],
        capsys,
    )
    assert code == 2
    assert "3 entries for 8 outcomes" in err


@pytest.mark.parametrize("flag", ["--f", "--g"])
@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_cli_lift_rejects_non_finite_payoff(flag, bad, capsys):
    values = {"--f": ["1"] * 6 + ["0"] * 6, "--g": ["0"] * 6 + ["1"] * 6}
    values[flag] = [bad] * 6 + values[flag][6:]
    code, out, err = run_cli(
        ["lift", "--space", data("space_12.json"), "--utility", data("utility_es_half.json"),
         "--f=" + ",".join(values["--f"]), "--g=" + ",".join(values["--g"]), "--format", "csv"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "finite" in err


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_cli_tc_check_rejects_non_finite_or_negative_tol(tol, fmt, capsys):
    # a NaN tolerance let every gap pass: exit 0 beside a CSV gap of 0.5
    with pytest.raises(SystemExit) as exc:
        main(["tc-check", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"),
              "--tol", tol, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "argument --tol" in captured.err


@pytest.mark.parametrize("command,flag,value,kind", [("tc-check", "--tol", "abc", "float"),
                                                     ("eval", "--probes", "many", "int")])
def test_cli_refuses_a_flag_value_of_the_wrong_type(command, flag, value, kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--space", data("space_4.json"), "--utility", data("utility_es_half.json"), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert captured.err.endswith(f"error: argument {flag}: invalid {kind} value: '{value}'\n")


def test_cli_tc_check_accepts_zero_tol(capsys):
    code, _, _ = run_cli(
        ["tc-check", "--space", data("space_4.json"), "--utility", data("utility_expectation.json"),
         "--probes", "5", "--tol", "0"],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("flag,value", [("--seed", "7"), ("--probes", "5")])
def test_cli_demo_multiperiod_takes_no_probe_flags(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "multiperiod", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {flag}" in err


def test_cli_demo_incompatibility_values(capsys):
    code, out, _ = run_cli(["demo", "incompatibility", "--probes", "5"], capsys)
    assert code == 0
    doc = parse_report(out)
    assert doc["tc_gap_exhibit"]["crafted_gap"] == pytest.approx(0.5, abs=1e-9)
    assert doc["tc_gap_exhibit"]["max_gap"] >= 0.5 - 1e-12
    assert doc["additivity_exhibit"]["a_value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["additivity_exhibit"]["snap_error"] == 0.0
    assert doc["product_linearity"]["flat_max_error"] <= doc["product_linearity"]["flat_tolerance"]
    assert doc["product_linearity"]["nonflat_gap"] > doc["product_linearity"]["flat_tolerance"]


def test_cli_demo_multiperiod_values(capsys):
    code, out, _ = run_cli(["demo", "multiperiod"], capsys)
    assert code == 0
    doc = parse_report(out)
    stages = {lvl["stage"]: lvl["value"] for lvl in doc["levels"]}
    assert stages["direct"] == pytest.approx(1.75, abs=1e-12)
    assert stages["collapse_level2"] == pytest.approx(1.0, abs=1e-12)
    assert stages["collapse_level1"] == pytest.approx(0.0, abs=1e-12)
    assert doc["total_gap"] == pytest.approx(1.75, abs=1e-12)


def test_cli_demo_csv(capsys):
    code, out, _ = run_cli(["demo", "multiperiod", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stage,value,gap_from_previous"
    assert len(lines) == 4


def test_cli_reports_are_deterministic(tmp_path, capsys):
    argv = ["eval", "--space", data("space_8.json"), "--utility", data("utility_power_half.json"),
            "--probes", "25"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    parse_report(first.read_text())


def test_cli_out_writes_file_only(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["validate", "--space", data("space_4.json"), "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert parse_report(target.read_text())["ok"] is True


def test_cli_bad_json_file_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    code, _, err = run_cli(
        ["eval", "--space", str(broken), "--utility", data("utility_expectation.json")], capsys
    )
    assert code == 2
    assert err.startswith("input error:") and "not valid JSON" in err


def test_cli_tc_check_rejects_nan_piecewise_knot(tmp_path, capsys):
    # NaN fails every comparison, so only an explicit finiteness check stops it
    bad = tmp_path / "nan_knot.json"
    bad.write_text('{"utility": {"kind": "piecewise", "knots": [[0, 0], [NaN, 0.25], [1, 1]]}}')
    code, out, err = run_cli(
        ["tc-check", "--space", data("space_4.json"), "--utility", str(bad), "--probes", "20"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "finite" in err


def test_cli_eval_rejects_nan_scenario_entry(tmp_path, capsys):
    bad = tmp_path / "nan_measure.json"
    bad.write_text(
        '{"utility": {"kind": "scenario", "measures": '
        '[[NaN, 0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]]}}'
    )
    code, out, err = run_cli(
        ["eval", "--space", data("space_4.json"), "--utility", str(bad), "--probes", "5"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "non-finite" in err


@pytest.mark.parametrize("command", [["validate"], ["tc-check", "--probes", "5"]], ids=["validate", "tc-check"])
def test_cli_refuses_an_exact_negative_scenario_entry_above_float_slack(command, tmp_path, capsys):
    # -1/10**13 lies above the float slack of -1e-12, and was accepted with "ok": true
    bad = tmp_path / "tiny_negative.json"
    row = [[-1, 10**13], [1, 4], [1, 4], [5 * 10**12 + 1, 10**13]]
    bad.write_text(json.dumps({"utility": {"kind": "scenario", "measures": [row]}}))
    code, out, err = run_cli([*command, "--space", data("space_4.json"), "--utility", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err == "input error: measure 0 has a negative entry (field 'utility')\n"


def test_emit_report_text_rejects_non_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            emit_report_text({"command": "eval", "seed": 1, "tolerance": 1e-9, "max": bad})


def test_parser_defaults():
    args = build_parser().parse_args(
        ["tc-check", "--space", "s.json", "--utility", "u.json"]
    )
    assert args.probes == 200 and args.seed == 1729 and args.fmt == "text"
    assert args.tol == 1e-9
    args = build_parser().parse_args(["demo", "incompatibility"])
    assert args.probes == 50


def test_cli_tc_check_beyond_ladder_size_exits_two(tmp_path, capsys):
    # the crafted ladder's top rung 2**1028 is not a float64
    space = tmp_path / "space_1030.json"
    space.write_text(json.dumps({"masses": [[1, 1030]] * 1030, "f1_blocks": [list(range(1030))]}))
    code, out, err = run_cli(
        ["tc-check", "--space", str(space), "--utility", data("utility_es_half.json"), "--probes", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "1025 outcomes" in err


# ------------------------------------------------------ CLI flag contract

REMOVED_FLAGS = [
    ("validate", "--probes", "7"), ("validate", "--seed", "7"),
    ("validate", "--grid-n", "2"), ("validate", "--tol", "0.5"),
    ("eval", "--grid-n", "2"), ("eval", "--tol", "0.5"),
    ("lift", "--probes", "7"), ("lift", "--seed", "7"), ("lift", "--tol", "0.5"),
    ("tc-check", "--grid-n", "2"),
    ("cone-check", "--grid-n", "2"), ("cone-check", "--tol", "0.5"),
    ("demo", "--grid-n", "2"), ("demo", "--tol", "0.5"),
]


def _contract_base(command):
    space, es = ["--space", data("space_4.json")], ["--utility", data("utility_es_half.json")]
    return {
        "validate": ["validate", *space],
        "eval": ["eval", *space, *es, "--probes", "5"],
        "lift": ["lift", *space, *es, "--f", "1,1,0,0", "--g", "0,0,1,1"],
        "tc-check": ["tc-check", *space, *es, "--probes", "5"],
        "cone-check": ["cone-check", *space, *es, "--probes", "20"],
        "demo": ["demo", "incompatibility"],
    }[command]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_cli_rejects_flags_the_command_does_not_read(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_contract_base(command) + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {flag}" in err


# (command, extra argv moving one flag off the base value); argparse keeps the
# last occurrence of a repeated flag
KEPT_FLAGS = [
    ("validate", ["--space", data("space_8.json")]),
    ("validate", ["--utility", data("utility_es_half.json")]),
    ("eval", ["--space", data("space_8.json")]),
    ("eval", ["--utility", data("utility_power_half.json")]),
    ("eval", ["--probes", "6"]),
    ("eval", ["--seed", "7"]),
    ("lift", ["--space", data("space_8.json"), "--f", "1,1,1,1,0,0,0,0", "--g", "0,0,0,0,1,1,1,1"]),
    ("lift", ["--utility", data("utility_expectation.json")]),
    ("lift", ["--f", "2,2,0,0"]),
    ("lift", ["--g", "0,0,2,2"]),
    ("lift", ["--grid-n", "1"]),
    ("tc-check", ["--space", data("space_8.json")]),
    ("tc-check", ["--utility", data("utility_expectation.json")]),
    ("tc-check", ["--probes", "6"]),
    ("tc-check", ["--seed", "7"]),
    ("tc-check", ["--tol", "0.6"]),
    ("cone-check", ["--space", data("space_8.json")]),
    ("cone-check", ["--utility", data("utility_expectation.json")]),
    ("cone-check", ["--probes", "40"]),
    ("cone-check", ["--seed", "7"]),
    ("demo", ["--probes", "5"]),
    ("demo", ["--seed", "7"]),
] + [(c, ["--format", "csv"]) for c in ("validate", "eval", "lift", "tc-check", "cone-check", "demo")]


def _report_body(out):
    """The report without the header fields that only echo the command line."""
    if not out.startswith("{"):
        return out
    doc = parse_report(out)
    for key in ("seed", "probes", "tolerance", "inputs"):
        doc.pop(key)
    return doc


@pytest.mark.parametrize("command,extra", KEPT_FLAGS, ids=lambda v: v if isinstance(v, str) else v[0])
def test_cli_every_kept_flag_changes_the_report(command, extra, capsys):
    base = _contract_base(command)
    code, out, _ = run_cli(base, capsys)
    moved_code, moved_out, _ = run_cli(base + extra, capsys)
    assert (moved_code, _report_body(moved_out)) != (code, _report_body(out))


@pytest.mark.parametrize("command", ["validate", "eval", "lift", "tc-check", "cone-check", "demo"])
def test_cli_out_moves_the_report(command, tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(_contract_base(command), capsys)
    assert run_cli(_contract_base(command) + ["--out", str(target)], capsys) == (code, "", "")
    assert target.read_text() == out


def test_cli_demo_which_changes_the_report(capsys):
    _, incompatibility, _ = run_cli(["demo", "incompatibility"], capsys)
    _, multiperiod, _ = run_cli(["demo", "multiperiod"], capsys)
    assert _report_body(incompatibility) != _report_body(multiperiod)


@pytest.mark.parametrize("command", ["validate", "lift", "demo"])
def test_cli_header_keeps_defaults_of_flags_not_taken(command, capsys):
    code, out, _ = run_cli(_contract_base(command), capsys)
    assert code == 0
    doc = parse_report(out)
    assert (doc["seed"], doc["tolerance"]) == (1729, 1e-9)
    assert doc["probes"] == (50 if command == "demo" else 200)


# -------------------------------------------- file errors and probe counts

def _file_error_argv(command, case, tmp_path):
    """(argv, the path its one stderr line must name) for one unreadable
    input or unwritable --out."""
    missing = str(tmp_path / "missing.json")
    space, es = data("space_4.json"), data("utility_es_half.json")
    extra = ["--probes", "5"] if command == "tc-check" else []
    argv, path = {
        "missing_space": (["--space", missing, "--utility", es], missing),
        "space_is_directory": (["--space", str(tmp_path), "--utility", es], str(tmp_path)),
        "missing_utility": (["--space", space, "--utility", missing], missing),
        "unwritable_out": (["--space", space, "--utility", es, "--out", str(tmp_path / "no_dir" / "r.json")],
                           str(tmp_path / "no_dir" / "r.json")),
    }[case]
    return [command, *argv, *extra], path


@pytest.mark.parametrize("case", ["missing_space", "space_is_directory", "missing_utility", "unwritable_out"])
@pytest.mark.parametrize("command", ["validate", "tc-check"])
def test_cli_file_errors_exit_two_naming_the_path(command, case, tmp_path, capsys):
    # tc-check's exit 1 means "gap found", so a crash must not read as one
    argv, path = _file_error_argv(command, case, tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and path in err and "Traceback" not in err


@pytest.mark.parametrize("grid_n", [["--grid-n", "2"], []], ids=["grid-n-2", "default"])
def test_cli_lift_on_a_block_longer_than_the_recursion_limit(grid_n, tmp_path, capsys):
    flat = tmp_path / "flat_1030.json"
    flat.write_text(json.dumps({"masses": [[1, 1030]] * 1030, "f1_blocks": [list(range(1030))]}))
    code, out, err = run_cli(
        ["lift", "--space", str(flat), "--utility", data("utility_es_half.json"),
         "--f", ",".join(["1"] * 1030), "--g", ",".join(["0"] * 1030), *grid_n],
        capsys,
    )
    assert code == 0 and err == ""
    assert parse_report(out)["grid_n"] == (2 if grid_n else 1030)


@pytest.mark.parametrize("command", ["eval", "tc-check", "cone-check", "demo"])
@pytest.mark.parametrize("flag", ["--probes", "--seed"])
def test_cli_rejects_negative_probes_and_seed(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_contract_base(command) + [flag, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert f"argument {flag}: must be an integer >= 0, got '-1'" in captured.err


def test_cli_probes_zero_audits_the_crafted_ladder_alone(capsys):
    code, out, _ = run_cli(_contract_base("tc-check")[:-2] + ["--probes", "0"], capsys)
    doc = parse_report(out)
    assert code == 1 and doc["probes"] == 0 and len(doc["per_vector"]) == 1


# ------------------------------------------------------------ shared parser

# valid commands, removed flags, bad --tol and --probes, --help, an unknown
# command and demo with no exhibit
PARSER_POOL = [
    _contract_base("validate"),
    _contract_base("eval")[:-1] + ["3"],
    _contract_base("tc-check")[:-1] + ["3"],
    _contract_base("lift") + ["--format", "csv"],
    _contract_base("cone-check")[:-1] + ["5"],
    ["demo", "multiperiod"],
    _contract_base("validate") + ["--probes", "7"],
    _contract_base("lift") + ["--tol", "0.5"],
    _contract_base("tc-check") + ["--tol", "nan"],
    _contract_base("tc-check") + ["--tol", "-1"],
    _contract_base("eval") + ["--probes", "-2"],
    ["--help"],
    ["lift", "--help"],
    ["demo", "multiperiod", "--help"],
    ["frobnicate"],
    ["demo"],
    [],
]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(PARSER_POOL), min_size=1, max_size=6))
def test_shared_parser_reports_as_a_fresh_parser_per_call(argvs):
    shared = [_run_in_process(argv) for argv in argvs]
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = [_run_in_process(argv) for argv in argvs]
    assert shared == fresh


def test_main_builds_the_parser_at_most_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "riskcal":  # the root; subcommand parsers are "riskcal <name>"
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (_contract_base("validate"), _contract_base("lift"), _contract_base("validate")):
        assert run_cli(argv, capsys)[0] == 0
    assert len(built) <= 1


# ------------------------------------------------------ malformed input files

MALFORMED_UTILITIES = {
    "knots_not_pairs": {"kind": "piecewise", "knots": [0, 1]},
    "knot_null": {"kind": "piecewise", "knots": [None]},
    "knot_coordinate_null": {"kind": "piecewise", "knots": [[0, 0], [1, None]]},
    "scenario_entry_string": {"kind": "scenario", "measures": [["a", 0.5, 0.25, 0.25]]},
    "scenario_entry_null": {"kind": "scenario", "measures": [[None, 0.5, 0.25, 0.25]]},
    "scenario_entry_object": {"kind": "scenario", "measures": [[{}, 0.5, 0.25, 0.25]]},
    "scenario_entries_boolean": {"kind": "scenario", "measures": [[True, False, False, False]]},
    "power_alpha_boolean": {"kind": "power", "alpha": True},
    "power_alpha_beyond_float": {"kind": "power", "alpha": 10 ** 400},
    "product_size_boolean": {"kind": "product", "k_alpha": True, "k_x": 4},
}
MALFORMED_SPACES = {
    "mass_boolean": {"masses": [True], "f1_blocks": [[0]]},
    "mass_pair_boolean": {"masses": [[True, 1]], "f1_blocks": [[0]]},
    "block_index_boolean": {"masses": [1], "f1_blocks": [[False]]},
}


def _assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(MALFORMED_UTILITIES))
@pytest.mark.parametrize("command", [["validate"], ["tc-check", "--probes", "5"]], ids=["validate", "tc-check"])
def test_cli_malformed_utility_exits_two(command, case, tmp_path, capsys):
    # tc-check's exit 1 means "gap found", so a malformed file must not crash into it
    bad = tmp_path / "utility.json"
    bad.write_text(json.dumps({"utility": MALFORMED_UTILITIES[case]}))
    code, out, err = run_cli([*command, "--space", data("space_4.json"), "--utility", str(bad)], capsys)
    _assert_input_error(code, out, err)


@pytest.mark.parametrize("case", sorted(MALFORMED_SPACES))
def test_cli_malformed_space_exits_two(case, tmp_path, capsys):
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps(MALFORMED_SPACES[case]))
    _assert_input_error(*run_cli(["validate", "--space", str(bad)], capsys))


_LEAF = st.none() | st.booleans() | st.integers() | st.integers(-1, 4) | st.floats() | st.text(max_size=2)
_JSON = st.recursive(
    _LEAF,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=10,
)
# numbers, pairs, vectors and matrices, with wrong leaves among the right ones
_FIELD = _LEAF | st.lists(_LEAF | st.lists(_LEAF, max_size=3), max_size=5) | _JSON
_UTILITY_KEYS = ("alpha", "knots", "measures", "k_alpha", "k_x")


@pytest.mark.parametrize("kind", [None, "expectation", "es", "power", "piecewise", "scenario", "product"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_utility_returns_or_raises_a_value_error(kind, data):
    # kind None: any JSON document; otherwise a utility of that kind with arbitrary fields
    doc = data.draw(_JSON if kind is None else st.fixed_dictionaries(
        {"utility": st.fixed_dictionaries({"kind": st.just(kind), **{key: _FIELD for key in _UTILITY_KEYS}})}
    ))
    try:
        parse_utility(json.dumps(doc))
    except ValueError:  # SchemaError included
        pass


@settings(max_examples=300, deadline=None)
@given(_JSON | st.fixed_dictionaries({"masses": _FIELD, "f1_blocks": _FIELD}, optional={"labels": _FIELD}))
def test_parse_space_returns_or_raises_a_value_error(doc):
    try:
        parse_space(json.dumps(doc))
    except ValueError:  # SchemaError included
        pass


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("space", ["space_4.json", "space_8.json"])
def test_cli_validate_checks_product_utility_against_space(space, fmt, capsys):
    # the same refusal eval gives on this pair
    argv = ["--space", data(space), "--utility", data("utility_product_8x8.json")]
    expected = ["eval", *argv, "--probes", "3"]
    _, _, eval_err = run_cli(expected, capsys)
    code, out, err = run_cli(["validate", *argv, "--format", fmt], capsys)
    _assert_input_error(code, out, err)
    assert err == eval_err and "product grid mismatch" in err
    code, out, _ = run_cli(
        ["validate", "--space", data("space_product_64.json"), "--utility", data("utility_product_8x8.json")],
        capsys,
    )
    assert code == 0 and parse_report(out)["utility"] == "product(8x8)"


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("utility,described", [
    ("utility_product_8x8.json", "product(8x8)"),
    ("utility_scenario.json", "scenario[3]"),
])
def test_cli_validate_lists_an_invalid_space_beside_its_utility(utility, described, fmt, tmp_path, capsys):
    # neither utility fits 4 outcomes, but the space's own violations come first
    bad = tmp_path / "bad_index_99.json"
    bad.write_text(json.dumps({"masses": [[1, 4]] * 4, "f1_blocks": [[0, 1], [2, 99]]}))
    code, out, err = run_cli(
        ["validate", "--space", str(bad), "--utility", data(utility), "--format", fmt], capsys
    )
    assert code == 2 and err == ""
    violation = "f1 block 1 references outcome 99 outside 0..3"
    if fmt == "csv":
        assert {"index": "0", "violation": violation} in parse_report_csv(out)
    else:
        doc = parse_report(out)
        assert doc["ok"] is False and violation in doc["violations"]
        assert doc["utility"] == described


def test_cli_validate_refuses_a_malformed_utility_beside_an_invalid_space(tmp_path, capsys):
    bad = tmp_path / "bad_index_99.json"
    bad.write_text(json.dumps({"masses": [[1, 4]] * 4, "f1_blocks": [[0, 1], [2, 99]]}))
    utility = tmp_path / "utility.json"
    utility.write_text(json.dumps({"utility": {"kind": "product", "k_alpha": 8, "k_x": True}}))
    code, out, err = run_cli(["validate", "--space", str(bad), "--utility", str(utility)], capsys)
    _assert_input_error(code, out, err)
    assert "field 'utility.k_x'" in err


# ------------------------------------------------------------ lift edge cases

def test_cli_lift_zero_payoffs_give_zero_geometry(capsys):
    argv = ["lift", "--space", data("space_8.json"), "--utility", data("utility_es_half.json"),
            "--f", ",".join(["0"] * 8), "--g", ",".join(["0"] * 8)]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    doc = parse_report(out)
    assert doc["m"] == 0.0
    assert [[r[k] for k in ("x_x", "x_y", "y_x", "y_y")] for r in doc["geometry"]] == [[0.0] * 4] * 2
    code, out, err = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0 and err == ""
    rows = parse_report_csv(out)
    assert len(rows) == 2
    assert all(r[k] == "0.0" for r in rows for k in ("f", "g", "x_x", "x_y", "y_x", "y_y"))


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_lift_rejects_a_grid_resolution_below_one(n, capsys):
    code, out, err = run_cli(_contract_base("lift") + ["--grid-n", n], capsys)
    _assert_input_error(code, out, err)
    assert f"resolution n must be positive, got {n}" in err


def test_cli_lift_checks_the_payoffs_before_the_grid(capsys):
    # space_12 has no 5-way grid; the malformed --f is the refusal
    code, out, err = run_cli(
        ["lift", "--space", data("space_12.json"), "--utility", data("utility_es_half.json"),
         "--grid-n", "5", "--f=oops", "--g=" + ",".join(["0"] * 12)],
        capsys,
    )
    _assert_input_error(code, out, err)
    assert "--f must be comma-separated numbers" in err


@pytest.mark.parametrize("f,g,message", [
    ("oops", "0,0,0,0,0,0,0,0", "--f must be comma-separated numbers"),
    ("1,1,1,1,0,0,0,0", "0,0,0", "--g has 3 entries for 8 outcomes"),
    ("1,0,1,0,1,0,1,0", "0,0,0,0,0,0,0,0", "f and g must be constant on every F1 block"),
])
def test_cli_lift_refuses_bad_payoffs_without_building_the_grid(f, g, message, capsys):
    with mock.patch.object(cli, "build_uniform_grid", side_effect=AssertionError("grid built")):
        code, out, err = run_cli(
            ["lift", "--space", data("space_8.json"), "--utility", data("utility_es_half.json"),
             "--f", f, "--g", g],
            capsys,
        )
    _assert_input_error(code, out, err)
    assert message in err


def test_cli_lift_of_a_scenario_base_reproduces_f_and_g_within_the_snap_error(capsys):
    code, out, err = run_cli(
        ["lift", "--space", data("space_8.json"), "--utility", data("utility_scenario.json"),
         "--f", "1,1,1,1,0,0,0,0", "--g", "0,0,0,0,0.5,0.5,0.5,0.5"],
        capsys,
    )
    assert code == 0 and err == ""
    doc = parse_report(out)
    diag = doc["diagnostics"]
    for row, err_f, err_g, err_sum in zip(doc["geometry"], diag["err_f"], diag["err_g"], diag["err_sum"]):
        bound = (row["y_x"] - row["x_x"]) * diag["snap_error"] + 1e-12  # d times the snap error; twice on xi + eta
        assert err_f <= bound and err_g <= bound and err_sum <= 2 * bound


def test_cli_lift_places_each_block_on_the_boundary_once(capsys):
    assert not hasattr(cli, "geometry_xyl")
    with mock.patch.object(riskcal.lift, "geometry_xyl", wraps=riskcal.lift.geometry_xyl) as spy:
        code, out, _ = run_cli(
            ["lift", "--space", data("space_12.json"), "--utility", data("utility_es_half.json"),
             "--f", ",".join(["1"] * 6 + ["0"] * 6), "--g", ",".join(["0"] * 6 + ["1"] * 6)],
            capsys,
        )
    assert code == 0 and spy.call_count == 2
    assert [r["y_x"] for r in parse_report(out)["geometry"]] == [1.0, 1.0]


# ------------------------------------------------------------ main() fuzz

@pytest.mark.parametrize("command", [["validate"], ["tc-check", "--probes", "5"]], ids=["validate", "tc-check"])
def test_cli_refuses_ragged_scenario_measures_at_parse_time(command, tmp_path, capsys):
    ragged = tmp_path / "utility.json"
    ragged.write_text(json.dumps({"utility": {"kind": "scenario", "measures": [[[1, 4]] * 4, [[1, 3]] * 3]}}))
    code, out, err = run_cli([*command, "--space", data("space_4.json"), "--utility", str(ragged)], capsys)
    _assert_input_error(code, out, err)
    assert err == "input error: measure 1 has 3 entries, measure 0 has 4 (field 'utility')\n"


def _mostly(good):
    """`good` seven times in eight, else a junk field."""
    return st.integers(0, 7).flatmap(lambda k: _FIELD if k == 7 else good)


@st.composite
def _fuzz_documents(draw):
    """A space document of 1-6 outcomes, a utility document and F1-measurable
    --f/--g payoffs: mostly well formed, with junk in any field."""
    n = draw(st.integers(1, 6))
    weights = draw(st.just([1] * n) | st.lists(st.integers(1, 4), min_size=n, max_size=n)
                   | st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    space = {
        "masses": draw(_mostly(st.just([[w, sum(weights) or 1] for w in weights]))),
        "f1_blocks": draw(_mostly(st.just(blocks) | st.lists(st.lists(st.integers(-1, n), max_size=n), max_size=3))),
    }
    measure = st.lists(st.integers(0, 3), min_size=max(n - 1, 1), max_size=n + 1).map(
        lambda w: [[v, sum(w) or 1] for v in w]
    )
    pair = st.lists(st.integers(-1, 4), min_size=2, max_size=2)
    utility = draw(_mostly(st.one_of(
        st.just({"kind": "expectation"}),
        st.builds(lambda a: {"kind": "es", "alpha": a}, _mostly(pair)),
        st.builds(lambda a: {"kind": "power", "alpha": a}, _mostly(st.floats(-0.5, 1.5))),
        st.builds(lambda k: {"kind": "piecewise", "knots": [[0, 0], k, [1, 1]]},
                  _mostly(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2))),
        st.builds(lambda m: {"kind": "scenario", "measures": m}, st.lists(_mostly(measure), min_size=1, max_size=3)),
        st.builds(lambda a, x: {"kind": "product", "k_alpha": a, "k_x": x}, st.integers(0, 3), st.integers(0, 3)),
    )))
    per_block = st.lists(st.floats(-3, 3), min_size=3, max_size=3)
    f, g = draw(per_block), draw(per_block)
    return space, {"utility": utility}, [f[b] for b in labels], [g[b] for b in labels]


@settings(max_examples=150, deadline=None)
@given(_fuzz_documents())
def test_main_answers_generated_documents_without_a_traceback(tmp_path_factory, case):
    space_doc, utility_doc, f, g = case
    work = tmp_path_factory.getbasetemp() / "main_fuzz"
    work.mkdir(exist_ok=True)
    space, utility = work / "space.json", work / "utility.json"
    space.write_text(json.dumps(space_doc))
    utility.write_text(json.dumps(utility_doc))
    files = ["--space", str(space), "--utility", str(utility)]
    for argv in (
        ["validate", *files],
        ["eval", *files, "--probes", "3"],
        ["tc-check", *files, "--probes", "3"],
        ["cone-check", *files, "--probes", "3"],
        ["lift", *files, "--f=" + ",".join(map(repr, f)), "--g=" + ",".join(map(repr, g))],  # "-1e-05" is no flag
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in ((0, 1, 2) if argv[0] == "tc-check" else (0, 2)), argv
        assert "Traceback" not in err
        if code == 2 and (argv[0] != "validate" or err):  # validate lists a space's violations on stdout
            _assert_input_error(code, out, err)
        else:
            assert err == "" and out, argv


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
@pytest.mark.parametrize("f,g", [("-1,-1,0,0", "0,0,1,1"), ("-1e-05,-1e-05,0,0", "-.5,-.5,0,0")])
def test_cli_lift_takes_a_space_separated_vector_that_starts_negative(f, g, fmt, capsys):
    base = ["lift", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"), *fmt]
    joined = run_cli([*base, f"--f={f}", f"--g={g}"], capsys)
    assert joined[0] == 0 and joined[1]
    assert run_cli([*base, "--f", f, "--g", g], capsys) == joined


def test_cli_lift_still_refuses_a_flag_without_its_value(capsys):
    argv = ["lift", "--space", data("space_4.json"), "--utility", data("utility_es_half.json"), "--f", "--g", "0,0,1,1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --f: expected one argument" in capsys.readouterr().err
    # only lift has --f and --g; elsewhere --f abbreviates --format and is left to argparse
    assert cli._attach_vectors(["eval", "--f", "-1"]) == ["eval", "--f", "-1"]


@pytest.mark.parametrize("utility", ["utility_es_half.json", "utility_expectation.json", "utility_power_half.json"])
def test_cli_cone_check_on_a_block_whose_float_mass_underflows(utility, tmp_path, capsys):
    t = 10**400  # block [0, 3] has mass 2 / t, which is 0.0 in float64
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"masses": [[1, t], [t - 2, 2 * t], [t - 2, 2 * t], [1, t]],
                                 "f1_blocks": [[0, 3], [1, 2]]}))
    code, out, err = run_cli(["cone-check", "--space", str(space), "--utility", data(utility), "--probes", "3"], capsys)
    assert code == 0 and err == ""
    assert parse_report(out)["verdicts"]


# -------------------------------------------------------- unknown utility keys

UNKNOWN_UTILITY_KEYS = {  # a misspelt or extra key was dropped: the first validated as es(1/2) with exit 0
    "misspelt_field": ({"utility": {"kind": "es", "alpha": [1, 2], "alpah": [1, 4]}}, ["alpah"], "utility.alpah"),
    "top_level": ({"utility": {"kind": "es", "alpha": [1, 2]}, "note": "x"}, ["note"], "note"),
    "another_kinds_field": ({"utility": {"kind": "product", "k_alpha": 2, "k_x": 2, "alpha": 0.5}}, ["alpha"],
                            "utility.alpha"),
    "two_fields": ({"utility": {"kind": "expectation", "measures": [], "knots": 1}}, ["knots", "measures"],
                   "utility.knots"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_UTILITY_KEYS))
def test_parse_utility_refuses_unknown_keys(case):
    doc, keys, field = UNKNOWN_UTILITY_KEYS[case]
    with pytest.raises(SchemaError, match=re.escape(f"unknown keys {keys} (field {field!r})") + "$") as ei:
        parse_utility(json.dumps(doc))
    assert ei.value.field == field


def test_parse_utility_names_a_bad_field_before_an_unknown_key():
    with pytest.raises(SchemaError, match="^expected") as ei:
        parse_utility(json.dumps({"utility": {"kind": "es", "alpha": "half", "alpah": [1, 4]}}))
    assert ei.value.field == "utility.alpha"
    with pytest.raises(SchemaError, match="^unknown utility kind"):
        parse_utility(json.dumps({"utility": {"kind": "ess", "alpha": [1, 2]}, "note": "x"}))


@pytest.mark.parametrize("case", sorted(UNKNOWN_UTILITY_KEYS))
@pytest.mark.parametrize("command", [["validate"], ["eval"], ["tc-check", "--probes", "5"]])
def test_cli_refuses_a_utility_file_with_unknown_keys(command, case, tmp_path, capsys):
    doc, keys, field = UNKNOWN_UTILITY_KEYS[case]
    path = tmp_path / "utility.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([*command, "--space", data("space_4.json"), "--utility", str(path)], capsys)
    _assert_input_error(code, out, err)
    assert err == f"input error: unknown keys {keys} (field {field!r})\n"


# ------------------------------------------------------ duplicate JSON keys

# json.loads lets the last of a repeated key win: the first file validated as es(1/4) with exit 0,
# the second with its second F1 partition
DUPLICATE_KEYS = {
    "utility_field": ("utility", '{"utility": {"kind": "es", "alpha": [1, 2], "alpha": [1, 4]}}', "alpha"),
    "utility_top_level": ("utility", '{"utility": {"kind": "expectation"}, "utility": {"kind": "es", "alpha": [1, 2]}}',
                          "utility"),
    "space_f1_blocks": ("space", '{"masses": [[1, 4], [1, 4], [1, 4], [1, 4]], "f1_blocks": [[0, 1], [2, 3]], '
                                 '"f1_blocks": [[0, 1, 2, 3]]}', "f1_blocks"),
    "space_inside_a_list": ("space", '{"masses": [[1, 2], {"n": 1, "n": 2}], "f1_blocks": [[0, 1]]}', "n"),
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_KEYS))
def test_parsers_refuse_a_repeated_key_at_any_depth(case):
    kind, text, key = DUPLICATE_KEYS[case]
    parse = parse_space if kind == "space" else parse_utility
    with pytest.raises(SchemaError, match=re.escape(f"duplicate key {key!r}") + "$"):
        parse(text)


def test_parse_report_refuses_a_repeated_key():
    with pytest.raises(SchemaError, match=r"^duplicate key 'seed'$"):
        parse_report('{"command": "eval", "seed": 1, "seed": 2, "tolerance": 1e-9}')


def test_parsers_still_take_the_same_key_in_different_objects():
    space, filt = parse_space('{"masses": [[1, 2], [1, 2]], "f1_blocks": [[0], [1]], "labels": ["a", "b"]}')
    assert filt.f1.blocks == ((0,), (1,))
    u = parse_utility('{"utility": {"kind": "scenario", "measures": [[[1, 2], [1, 2]], [[1, 4], [3, 4]]]}}')
    assert u.scenarios.size == 2


@pytest.mark.parametrize("case", sorted(DUPLICATE_KEYS))
@pytest.mark.parametrize("command", [["validate"], ["eval"], ["tc-check", "--probes", "5"]])
def test_cli_refuses_a_file_with_a_repeated_key(command, case, tmp_path, capsys):
    kind, text, key = DUPLICATE_KEYS[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    files = {"space": data("space_4.json"), "utility": data("utility_es_half.json"), kind: str(path)}
    code, out, err = run_cli([*command, "--space", files["space"], "--utility", files["utility"]], capsys)
    _assert_input_error(code, out, err)
    assert err == f"input error: duplicate key {key!r}\n"
