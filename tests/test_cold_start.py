"""Import cost of a riskcal process: numpy loads only when a command draws probes."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter; prints, after each stage, whether numpy is loaded.
SCRIPT = r"""
import contextlib, io, json, sys
import riskcal, riskcal.cli
from riskcal.io import packaged_data_path

def data(name):
    return str(packaged_data_path(name))

stages = [["import", None, "numpy" in sys.modules]]
space, es = data("space_4.json"), data("utility_es_half.json")
for argv in (
    ["validate", "--space", space],
    ["lift", "--space", space, "--utility", es, "--f", "1,1,0,0", "--g", "0,0,1,1"],
    ["demo", "multiperiod"],
    ["tc-check", "--space", space, "--utility", es, "--probes", "5"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = riskcal.cli.main(argv)
    stages.append([argv[0] if argv[0] != "demo" else "demo " + argv[1], code, "numpy" in sys.modules])
print(json.dumps(stages))
"""


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_numpy_loads_only_at_the_first_probe_draw():
    run = _fresh("-c", SCRIPT)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [
        ["import", None, False],
        ["validate", 0, False],
        ["lift", 0, False],
        ["demo multiperiod", 0, False],
        ["tc-check", 1, True],
    ]


def test_import_without_site_packages_loads_neither_numpy_nor_resources():
    # -S leaves site-packages (numpy among them) off sys.path and runs no .pth file
    run = _fresh("-S", "-c", "import sys, riskcal.cli; "
                 "print('numpy' in sys.modules, 'importlib.resources' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]
