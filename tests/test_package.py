"""The package namespace and the defaults: each is declared in one place."""

import argparse
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskcal
import riskcal.cli as cli
import riskcal.conditional
import riskcal.io
import riskcal.lift
import riskcal.space
import riskcal.utility
from riskcal.conditional import DEFAULT_PROBES, DEFAULT_SEED, DEMO_PROBES, GAP_TOL, default_probes
from riskcal.io import packaged_data_path, parse_report

MODULES = [riskcal.space, riskcal.utility, riskcal.conditional, riskcal.lift, riskcal.io]
SRC = Path(__file__).resolve().parents[1] / "src"


def test_riskcal_all_is_the_modules_all_in_order():
    assert riskcal.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(riskcal.__all__)) == len(riskcal.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_riskcal_binds_each_module_name_to_the_module_object(module):
    for name in module.__all__:
        assert getattr(riskcal, name) is getattr(module, name), name


def test_import_riskcal_loads_no_cli_argparse_numpy_or_resources():
    # -S leaves site-packages off sys.path and runs no .pth file, which may import resources
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, riskcal; print(*(m in sys.modules for m in "
         "('riskcal.cli', 'argparse', 'numpy', 'importlib.resources')))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"] * 4


def _leaf_parsers(parser, path=()):
    """(command words, parser) for every runnable subcommand."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield path, parser
        return
    for name, sub in actions[0].choices.items():
        yield from _leaf_parsers(sub, (*path, name))


def test_every_parser_default_is_the_declared_constant():
    leaves = dict(_leaf_parsers(cli.build_parser.__wrapped__()))
    assert set(leaves) == {("validate",), ("eval",), ("lift",), ("tc-check",), ("cone-check",),
                           ("demo", "incompatibility"), ("demo", "multiperiod")}
    for path, parser in leaves.items():
        assert parser.get_default("probes") == (DEMO_PROBES if path[0] == "demo" else DEFAULT_PROBES), path
        assert parser.get_default("seed") == DEFAULT_SEED, path
        assert parser.get_default("tol") == GAP_TOL, path


def test_default_probes_defaults_are_the_declared_constants():
    params = inspect.signature(default_probes).parameters
    assert params["count"].default == DEFAULT_PROBES
    assert params["seed"].default == DEFAULT_SEED


def _data(name):
    return str(packaged_data_path(name))


@pytest.mark.parametrize("argv,probes", [
    (["validate", "--space", _data("space_4.json")], DEFAULT_PROBES),
    (["lift", "--space", _data("space_4.json"), "--utility", _data("utility_es_half.json"),
      "--f", "1,1,0,0", "--g", "0,0,1,1"], DEFAULT_PROBES),
    (["eval", "--space", _data("space_4.json"), "--utility", _data("utility_es_half.json")], DEFAULT_PROBES),
    (["demo", "multiperiod"], DEMO_PROBES),
    (["demo", "incompatibility"], DEMO_PROBES),
], ids=["validate", "lift", "eval", "multiperiod", "incompatibility"])
def test_report_headers_carry_the_declared_defaults(argv, probes, capsys):
    assert cli.main(argv) == 0
    doc = parse_report(capsys.readouterr().out)
    assert (doc["probes"], doc["seed"], doc["tolerance"]) == (probes, DEFAULT_SEED, GAP_TOL)
