"""Seeded input generation and the command list of each workload.

Every workload is a fixed list of `riskcal` CLI argv lists. The inputs that
vary with the workload seed (synthetic spaces, the piecewise utility, lift
vectors, per-command probe seeds) are written as JSON files into a work
directory; the program only ever sees their paths and the argv.

The seed changes the values of the inputs, never the amount of work: the
generated spaces keep their outcome counts, block layouts and mass ramps, and
each `cone-check` gets a probe seed whose number of acceptable probes (one
core enumeration each at the seed commit) is fixed per command. That keeps a
run's cost the same across seeds, so the spread between seeds measures the
machine, not the inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracle import Space, Utility, acceptable_count, probe_matrix

WORKLOADS = ("tc_distortion", "cone_check", "grid_lift")

# Probe count of the timed audit commands of tc_distortion.
TC_PROBES = 200
# Grid-able ramps for `lift` and the search-heavy ramps for `validate`:
# block masses proportional to 1..k, two blocks.
LIFT_RAMPS = (11, 12)
VALIDATE_RAMPS = (12, 13)

SHIPPED_SPACES = ("space_4", "space_8", "space_12", "space_product_64")


@dataclass
class Command:
    """One CLI call plus what the reference check needs to know about it."""

    argv: list[str]
    kind: str  # tc-check | eval | cone-check | validate | lift | demo
    space: str | None = None  # key into Inputs.spaces
    utility: str | None = None  # key into Inputs.utilities
    probes: int = 0
    seed: int = 0
    fmt: str = "text"
    f: list[float] = field(default_factory=list)  # lift, block values
    g: list[float] = field(default_factory=list)
    demo: str | None = None

    @property
    def audited_probes(self) -> int:
        """Probes `tc_gap` audits when the command answers."""
        if self.kind in ("tc-check", "cone-check"):
            return self.probes + 1
        if self.demo == "incompatibility":
            return 51  # the demo's default 50 probes plus the crafted ladder
        return 0


@dataclass
class Inputs:
    """Everything a workload needs: parsed spaces/utilities and the commands."""

    spaces: dict[str, Space]
    space_paths: dict[str, str]
    utilities: dict[str, Utility]
    utility_paths: dict[str, str]
    commands: list[Command]
    structure: dict[str, str]  # space key -> reference structure key


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def space_doc(masses: list[Fraction], blocks: list[list[int]]) -> dict:
    return {"masses": [[m.numerator, m.denominator] for m in masses], "f1_blocks": blocks}


def _random_space(rng, n: int, block_sizes: list[int]) -> tuple[list[Fraction], list[list[int]]]:
    """Masses 1..n (over their sum) in a seeded order. Reordering outcomes only
    permutes the core vertices, so their number, and with it the enumeration
    and decomposition cost, is the same for every seed."""
    weights = [int(w) for w in rng.permutation(np.arange(1, n + 1))]
    total = sum(weights)
    masses = [Fraction(w, total) for w in weights]
    blocks, start = [], 0
    for size in block_sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    return masses, blocks


def ramp_space(rng, k: int) -> tuple[list[Fraction], list[list[int]]]:
    """Two blocks of k outcomes with masses proportional to 1..k, listed in that
    order; the seed only sets the block weights, which leaves the
    equal-split search (scale free) unchanged."""
    bw = [int(w) for w in rng.integers(1, 6, size=2)]
    wsum = sum(bw)
    ramp = k * (k + 1) // 2
    masses, blocks = [], []
    for j, w in enumerate(bw):
        masses += [Fraction(w * i, wsum * ramp) for i in range(1, k + 1)]
        blocks.append(list(range(j * k, (j + 1) * k)))
    return masses, blocks


def _piecewise_doc(rng) -> dict:
    """Piecewise-linear interpolation of p^e, e in [1.6, 2.4], at three
    jittered interior knots: convex, and close enough to one shape that the
    share of acceptable probes barely moves with the seed."""
    e = float(rng.uniform(1.6, 2.4))
    xs = [0.25, 0.5, 0.75] + rng.uniform(-0.05, 0.05, size=3)
    knots = [[0.0, 0.0]] + [[float(x), float(x) ** e] for x in xs] + [[1.0, 1.0]]
    return {"utility": {"kind": "piecewise", "knots": knots}}


def _cone_seed(rng, space: Space, base, probes: int, target: int) -> int:
    """First derived probe seed whose probe set has exactly `target`
    acceptable probes (the crafted ladder included)."""
    for _ in range(10000):
        s = int(rng.integers(0, 2**31))
        if acceptable_count(space, base, probe_matrix(space.n, probes, s)) == target:
            return s
    raise RuntimeError(f"no probe seed with {target} acceptable probes")


def build(workload: str, seed: int, work: Path, data: Path) -> Inputs:
    """Generate the inputs of `workload` (one of WORKLOADS) for `seed` under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])

    spaces: dict[str, Space] = {}
    space_paths: dict[str, str] = {}
    structure: dict[str, str] = {}
    for name in SHIPPED_SPACES:
        path = data / f"{name}.json"
        spaces[name] = Space.from_doc(json.loads(path.read_text(encoding="utf-8")))
        space_paths[name] = str(path)
        structure[name] = name

    def add_space(key: str, masses, blocks, struct: str | None = None):
        doc = space_doc(masses, blocks)
        space_paths[key] = _write(work / f"{key}.json", doc)
        spaces[key] = Space.from_doc(doc)
        if struct:
            structure[key] = struct

    utilities: dict[str, Utility] = {}
    utility_paths: dict[str, str] = {}
    for name in ("es_half", "es_quarter", "power_half", "expectation", "product_8x8", "scenario"):
        path = data / f"utility_{name}.json"
        utilities[name] = Utility.from_doc(json.loads(path.read_text(encoding="utf-8")))
        utility_paths[name] = str(path)
    pw = _piecewise_doc(rng)
    utility_paths["piecewise"] = _write(work / "utility_piecewise.json", pw)
    utilities["piecewise"] = Utility.from_doc(pw)

    def cli(kind, space, utility, *extra, **kw):
        argv = [kind, "--space", space_paths[space], "--utility", utility_paths[utility], *extra]
        return Command(argv=argv, kind=kind, space=space, utility=utility, **kw)

    def seed_int() -> int:
        return int(rng.integers(0, 2**31))

    commands: list[Command] = []
    if workload == "tc_distortion":
        for sp in ("space_8", "space_12", "space_product_64"):
            for ut in ("es_half", "power_half", "expectation", "piecewise"):
                s = seed_int()
                commands.append(cli("tc-check", sp, ut, "--probes", str(TC_PROBES), "--seed", str(s),
                                    probes=TC_PROBES, seed=s))
                s = seed_int()
                fmt = "csv" if sp == "space_12" else "text"
                commands.append(cli("eval", sp, ut, "--probes", str(TC_PROBES), "--seed", str(s),
                                    "--format", fmt, probes=TC_PROBES, seed=s, fmt=fmt))
        s = seed_int()
        commands.append(cli("eval", "space_product_64", "product_8x8", "--probes", str(TC_PROBES),
                            "--seed", str(s), probes=TC_PROBES, seed=s))

    elif workload == "cone_check":
        add_space("gen6a", *_random_space(rng, 6, [3, 3]))
        add_space("gen6b", *_random_space(rng, 6, [2, 2, 2]))
        add_space("gen7a", *_random_space(rng, 7, [3, 4]))
        add_space("gen7b", *_random_space(rng, 7, [2, 5]))
        # (space, utility, probes, acceptable probes = core enumerations)
        plan = [("space_4", "es_half", 100, 14), ("space_4", "power_half", 100, 31),
                ("space_4", "expectation", 100, 50), ("space_4", "piecewise", 100, 22),
                ("gen6a", "es_half", 40, 4), ("gen6b", "power_half", 40, 11),
                ("gen6b", "es_half", 40, 4), ("gen6a", "piecewise", 40, 8),
                ("gen7a", "es_half", 20, 2), ("gen7b", "es_half", 20, 2),
                ("gen7a", "power_half", 20, 6), ("gen7b", "piecewise", 20, 4),
                ("space_8", "es_half", 8, 1),
                # refused at the seed commit: more than 8 outcomes
                ("space_12", "es_half", 20, 1)]
        for sp, ut, k, target in plan:
            s = _cone_seed(rng, spaces[sp], utilities[ut], k, target)
            commands.append(cli("cone-check", sp, ut, "--probes", str(k), "--seed", str(s), probes=k, seed=s))
        for kind in ("cone-check", "tc-check"):
            s = seed_int()
            commands.append(cli(kind, "space_8", "scenario", "--probes", "200", "--seed", str(s),
                                probes=200, seed=s))

    else:  # grid_lift
        for k in sorted(set(LIFT_RAMPS + VALIDATE_RAMPS)):
            add_space(f"ramp{k}", *ramp_space(rng, k), struct=f"ramp{k}")
        add_space("flat3x6", *flat_space(rng), struct="flat3x6")
        for sp, ut in (("space_4", "es_quarter"), ("space_8", "es_half"),
                       ("space_12", "power_half"), ("space_product_64", "product_8x8")):
            commands.append(cli("validate", sp, ut))
        for k, ut in zip(VALIDATE_RAMPS, ("es_half", "piecewise")):
            commands.append(cli("validate", f"ramp{k}", ut))
        lifts = [("space_12", "es_half"), ("space_12", "power_half"), ("flat3x6", "piecewise")]
        lifts += [(f"ramp{k}", ut) for k, ut in zip(LIFT_RAMPS, ("power_half", "es_half"))]
        for sp, ut in lifts:
            nb = len(spaces[sp].blocks)
            f = [round(float(v), 4) for v in rng.uniform(-1.0, 1.0, size=nb)]
            g = [round(float(v), 4) for v in rng.uniform(-1.0, 1.0, size=nb)]
            fv = _expand(f, spaces[sp])
            gv = _expand(g, spaces[sp])
            # `--f=` form: a value list may start with a minus sign
            commands.append(cli("lift", sp, ut, "--f=" + ",".join(map(repr, fv)),
                                "--g=" + ",".join(map(repr, gv)), f=f, g=g))
        for which in ("incompatibility", "multiperiod"):
            commands.append(Command(argv=["demo", which], kind="demo", demo=which))

    return Inputs(spaces, space_paths, utilities, utility_paths, commands, structure)


def flat_space(rng) -> tuple[list[Fraction], list[list[int]]]:
    """Three blocks of six equal masses each, seeded block weights."""
    bw = [int(w) for w in rng.integers(1, 6, size=3)]
    wsum = sum(bw)
    masses = [Fraction(w, 6 * wsum) for w in bw for _ in range(6)]
    return masses, [list(range(j * 6, (j + 1) * 6)) for j in range(3)]


def _expand(block_values: list[float], space: Space) -> list[float]:
    out = [0.0] * space.n
    for v, block in zip(block_values, space.blocks):
        for i in block:
            out[i] = v
    return out
