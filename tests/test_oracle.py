"""Differential test of the probe commands against perfbench/oracle.py.

The oracle recomputes every report without importing riskcal (a numpy
float64 path, plus the Fraction path for the crafted ladder), so it is an
independent slow path for `tc-check`, `cone-check` and `eval`. Each drawn
space and base is written as JSON files, each command runs in-process
through `cli.main`, and `Checker.check` must raise no `Mismatch`.
`validate` and `lift` stay out: the oracle reads their answers from its
recorded reference, which holds only the benchmark's spaces.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskcal import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import Checker, Mismatch, Space, Utility  # noqa: E402
from workloads import Command, Inputs, _piecewise_doc, space_doc  # noqa: E402

PROBES = 20


@st.composite
def _cases(draw):
    """A space of 2..24 outcomes with integer masses 1..9 over their sum,
    1-4 F1 blocks of shuffled outcomes in a drawn order, and the utility
    document of an es(a/b), power, expectation or convex piecewise base."""
    n = draw(st.integers(2, 24))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    masses = [Fraction(w, sum(weights)) for w in weights]
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(4, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = draw(st.permutations([list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]))
    kind = draw(st.sampled_from(["es", "power", "expectation", "piecewise"]))
    if kind == "es":
        b = draw(st.integers(1, 8))
        utility = {"utility": {"kind": "es", "alpha": [draw(st.integers(1, b)), b]}}
    elif kind == "power":
        utility = {"utility": {"kind": "power", "alpha": draw(st.floats(0.0, 1.0))}}
    elif kind == "piecewise":
        utility = _piecewise_doc(np.random.default_rng(draw(st.integers(0, 2**31 - 1))))
    else:
        utility = {"utility": {"kind": "expectation"}}
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=3, max_size=3))
    fmt = draw(st.sampled_from(["text", "csv"]))
    return space_doc(masses, blocks), utility, seeds, fmt


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cases())
def test_probe_commands_match_the_oracle(tmp_path, case):
    space, utility, seeds, fmt = case
    space_path, utility_path = tmp_path / "space.json", tmp_path / "utility.json"
    space_path.write_text(json.dumps(space), encoding="utf-8")
    utility_path.write_text(json.dumps(utility), encoding="utf-8")
    paths = {"space": str(space_path), "utility": str(utility_path)}
    commands = [
        Command(argv=[kind, "--space", paths["space"], "--utility", paths["utility"], "--probes", str(PROBES),
                      "--seed", str(seed), *extra],
                kind=kind, space="space", utility="utility", probes=PROBES, seed=seed, fmt=fmt)
        for (kind, extra), seed in zip([("tc-check", ()), ("cone-check", ()), ("eval", ("--format", fmt))], seeds)
    ]
    inputs = Inputs({"space": Space.from_doc(space)}, {"space": paths["space"]},
                    {"utility": Utility.from_doc(utility)}, {"utility": paths["utility"]}, commands, {})
    checker = Checker(inputs, {})
    for cmd in commands:
        code, out, err = _run(cmd.argv)
        try:
            checker.check(cmd, code, out)
        except Mismatch as e:
            pytest.fail(f"riskcal {' '.join(cmd.argv)} (exit {code}{'; ' + err.strip() if err else ''}): {e}")
