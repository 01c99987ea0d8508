"""The package namespace and the defaults: each is declared in one place."""

import argparse
import ast
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
from riskcal.io import packaged_data_path
from reference import parse_report

MODULES = [riskcal.space, riskcal.utility, riskcal.conditional, riskcal.lift, riskcal.io]
SRC = Path(__file__).resolve().parents[1] / "src"


def test_riskcal_all_is_the_modules_all_in_order():
    assert riskcal.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(riskcal.__all__)) == len(riskcal.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_riskcal_binds_each_module_name_to_the_module_object(module):
    for name in module.__all__:
        assert getattr(riskcal, name) is getattr(module, name), name


def _traced_names() -> set[str]:
    """The names perfbench/tracing.py's LAYERS wraps by getattr; the file is parsed, not run."""
    tree = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    return {fn for fns in layers.values() for fn in fns}


def _names_read(node, enclosing=frozenset()):
    """Each name the tree reads, as a Name or an attribute, outside the defs and classes that bind it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing |= {node.name}
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    if name is not None and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _names_read(child, enclosing)


PACKAGE_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted((SRC / "riskcal").glob("*.py"))}


def test_every_public_name_is_read_by_the_package_or_traced():
    # a name that only tests reach lives in tests/reference.py; LAYERS' names stay, as the tracer wraps them
    read = {name for tree in PACKAGE_TREES.values() for name in _names_read(tree)}
    assert [name for name in riskcal.__all__ if name not in read | _traced_names()] == []


def test_no_package_module_imports_the_test_references():
    for file, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # `from . import x` names its module in the alias
                modules = [node.module] if node.module else [alias.name for alias in node.names]
            else:
                continue
            assert not [m for m in modules if m.split(".")[0] in ("reference", "tests")], file


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
