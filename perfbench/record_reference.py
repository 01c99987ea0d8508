"""Write reference.json: the facts the oracle cannot derive cheaply.

    python3 perfbench/record_reference.py

Run it at the commit whose behaviour is the reference (the seed commit of
the benchmark). It records, by running the program itself:

* `resolution`: `conditional_resolution` of every space structure the
  workloads use (shipped spaces, mass ramps 1..k, the flat 3x6 space);
* `ranks`: per block, the equal-split rank of each position for the
  structures that `lift` runs on;
* `demo`: the two demo reports, which take no seeded input.

Generated structures are recorded from one representative instance; the
workload seed only rescales block masses, which neither the resolution nor
the equal-split search depends on.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import riskcal.cli as cli
    from riskcal.io import load_space_file, packaged_data_path, parse_space
    from riskcal.space import build_uniform_grid, conditional_resolution

    import workloads

    structures = {}
    for name in workloads.SHIPPED_SPACES:
        structures[name] = load_space_file(packaged_data_path(f"{name}.json"))
    rng = np.random.default_rng(0)
    for k in sorted(set(workloads.LIFT_RAMPS + workloads.VALIDATE_RAMPS)):
        doc = workloads.space_doc(*workloads.ramp_space(rng, k))
        structures[f"ramp{k}"] = parse_space(json.dumps(doc))
    structures["flat3x6"] = parse_space(json.dumps(workloads.space_doc(*workloads.flat_space(rng))))

    lifted = {"space_12", "flat3x6"} | {f"ramp{k}" for k in workloads.LIFT_RAMPS}
    reference = {"resolution": {}, "ranks": {}, "demo": {}}
    for name, (space, filtration) in structures.items():
        res = conditional_resolution(space, filtration)
        reference["resolution"][name] = res
        if name in lifted:
            grid = build_uniform_grid(space, filtration, res)
            reference["ranks"][name] = [[grid.ranks[i] for i in b] for b in filtration.f1.blocks]
    for which in ("incompatibility", "multiperiod"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["demo", which])
        if code != 0:
            raise SystemExit(f"demo {which} exited {code}")
        reference["demo"][which] = json.loads(out.getvalue())
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps(reference["resolution"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
