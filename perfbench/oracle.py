"""Reference answers for every benchmark command, computed without riskcal.

The benchmark's inputs change with its seed, so the reference for a command
is recomputed here for each run rather than looked up. Values come from a
vectorised float64 path (sort, cumulative mass, distortion, difference, dot
product). The crafted ladder probe, whose sup norm reaches 2^(n-2) and whose
gap alone decides `tc-check` verdicts, is also evaluated on the scalar
Fraction path the seed commit uses, so verdicts near the CLI tolerance are
reproduced exactly. Core bounds for `cone-check` come from Dinkelbach's
iteration on greedy core vertices, which needs no permutation enumeration and
so also answers spaces the seed commit rejects.

Facts that would need the program's own exponential searches (the conditional
resolution and the equal-split ranks of each space structure, and the two
seed-independent demo reports) are read from reference.json, which
record_reference.py writes by running the program at the seed commit.

Comparison rules: integers, booleans, strings, witness vectors and verdicts
must match exactly; floats must agree within 1e-12 times the sup norm of the
probe they come from (1e-12 times max(1, |reference|) for demo reports). A
verdict whose reference lies within float noise of its threshold, or a
witness among probes whose gaps tie within float noise, accepts any of the
tied answers; such cases are counted as ambiguous.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from fractions import Fraction

import numpy as np

REL_TOL = 1e-12
CLI_TOL = 1e-9
CONE_TOL = 1e-12
DEFAULT_SEED = 1729
EPS = float(np.finfo(float).eps)


class Space:
    """Outcome masses (exact and float64) and the F1 blocks of a space file."""

    def __init__(self, masses: list[Fraction], blocks: list[list[int]]):
        self.masses = masses
        self.blocks = blocks
        self.n = len(masses)
        self.mf = np.array([float(m) for m in masses])

    @classmethod
    def from_doc(cls, doc: dict) -> "Space":
        return cls([Fraction(a, b) for a, b in doc["masses"]], [list(b) for b in doc["f1_blocks"]])


class Utility:
    """One utility file: a distortion, a scenario set or the product example."""

    def __init__(self, kind: str, alpha=None, knots=None, measures=None, k_alpha=0, k_x=0):
        self.kind = kind
        self.alpha = alpha
        self.knots = knots
        self.measures = measures
        self.k_alpha = k_alpha
        self.k_x = k_x
        if knots:
            self.xs = np.array([k[0] for k in knots])
            self.ys = np.array([k[1] for k in knots])
        if measures:
            self.qf = np.array([[float(v) for v in q] for q in measures])

    @classmethod
    def from_doc(cls, doc: dict) -> "Utility":
        u = doc["utility"]
        kind = u["kind"]
        if kind == "es":
            return cls("es", alpha=Fraction(*u["alpha"]))
        if kind == "power":
            return cls("power", alpha=float(u["alpha"]))
        if kind == "piecewise":
            return cls("piecewise", knots=[(float(p), float(y)) for p, y in u["knots"]])
        if kind == "scenario":
            rows = [tuple(Fraction(*v) if isinstance(v, list) else v for v in q) for q in u["measures"]]
            return cls("scenario", measures=rows)
        if kind == "product":
            return cls("product", k_alpha=u["k_alpha"], k_x=u["k_x"])
        return cls("expectation")

    @property
    def is_distortion(self) -> bool:
        return self.kind in ("expectation", "es", "power", "piecewise")

    def describe(self) -> str:
        if self.kind == "es":
            return f"es({self.alpha})"
        if self.kind == "power":
            return f"power({self.alpha})"
        if self.kind == "piecewise":
            return f"piecewise[{len(self.knots)} knots]"
        if self.kind == "scenario":
            return f"scenario[{len(self.measures)}]"
        if self.kind == "product":
            return f"product({self.k_alpha}x{self.k_x})"
        return "expectation"

    def psi_exact(self, p):
        """The distortion exactly as the seed commit evaluates it."""
        if self.kind == "expectation":
            return p
        if self.kind == "es":
            q = (Fraction(p) - (1 - self.alpha)) / self.alpha
            return q if q > 0 else Fraction(0)
        if self.kind == "power":
            return float(p) ** (1.0 + self.alpha)
        pf = float(p)
        xs = [k[0] for k in self.knots]
        j = min(bisect_right(xs, pf), len(xs) - 1)
        (p0, y0), (p1, y1) = self.knots[j - 1], self.knots[j]
        return y0 + (y1 - y0) * (pf - p0) / (p1 - p0)

    def psi(self, p: np.ndarray) -> np.ndarray:
        if self.kind == "expectation":
            return p
        if self.kind == "es":
            a = float(self.alpha)
            return np.maximum(0.0, (p - (1.0 - a)) / a)
        if self.kind == "power":
            return p ** (1.0 + self.alpha)
        return np.interp(p, self.xs, self.ys)


# ---------------------------------------------------------------- evaluation


def probe_matrix(n: int, count: int, seed: int, nonnegative: bool = False) -> np.ndarray:
    """The CLI's probe list: crafted ladder, then `count` seeded uniform rows."""
    rng = np.random.default_rng(seed)
    ladder = [0.0] + [float(2**k) for k in range(n - 1)]
    rows = rng.uniform(0.0 if nonnegative else -1.0, 1.0, size=(count, n))
    return np.vstack([np.array(ladder)[None, :], rows])


def choquet(x: np.ndarray, mf: np.ndarray, u: Utility) -> np.ndarray:
    """Choquet integral of each row of x; equal values need no merging because
    the sum telescopes over them."""
    order = np.argsort(-x, axis=1, kind="stable")
    xs = np.take_along_axis(x, order, axis=1)
    w = u.psi(np.cumsum(mf[order], axis=1))
    return (xs * np.diff(w, axis=1, prepend=0.0)).sum(axis=1)


def scenario_min(x: np.ndarray, qf: np.ndarray) -> np.ndarray:
    return (x @ qf.T).min(axis=1)


def product_eval(x: np.ndarray, space: Space, u: Utility) -> np.ndarray:
    total = np.zeros(x.shape[0])
    row_m = np.full(u.k_x, 1.0 / u.k_x)
    for r, block in enumerate(space.blocks):
        total += choquet(x[:, block], row_m, Utility("power", alpha=(r + 0.5) / u.k_alpha))
    return total / u.k_alpha


def evaluate(x: np.ndarray, space: Space, u: Utility) -> np.ndarray:
    if u.is_distortion:
        return choquet(x, space.mf, u)
    if u.kind == "scenario":
        return scenario_min(x, u.qf)
    return product_eval(x, space, u)


def blockwise(x: np.ndarray, space: Space, u: Utility) -> np.ndarray:
    """Conditional value of each row on each F1 block, spread over the block."""
    y = np.empty_like(x)
    for block in space.blocks:
        xb = x[:, block]
        if u.is_distortion:
            mb = space.mf[block]
            v = choquet(xb, mb / mb.sum(), u)
        else:
            best = None
            for q, qrow in zip(u.measures, u.qf):
                total = sum(q[i] for i in block)
                if float(total) <= 0.0:
                    continue
                e = xb @ (qrow[block] / float(total))
                best = e if best is None else np.minimum(best, e)
            if best is None:
                mb = space.mf[block]
                best = xb @ mb / mb.sum()
            v = best
        y[:, block] = v[:, None]
    return y


def choquet_exact(values, masses, u: Utility, exact: bool = False):
    """Scalar Choquet integral with exact cumulative masses, as the seed commit
    computes it; with `exact`, the sum itself is a Fraction too."""
    mass_at: dict = {}
    for v, m in zip(values, masses):
        mass_at[v] = mass_at.get(v, Fraction(0)) + m
    total = Fraction(0) if exact else 0.0
    s = Fraction(0)
    prev = u.psi_exact(s)
    for v in sorted(mass_at, reverse=True):
        s += mass_at[v]
        cur = u.psi_exact(s)
        total += Fraction(v) * Fraction(cur - prev) if exact else v * float(cur - prev)
        prev = cur
    return total


def blockwise_exact(values, space: Space, u: Utility) -> list[float]:
    out = [0.0] * space.n
    for block in space.blocks:
        bm = sum((space.masses[i] for i in block), Fraction(0))
        v = choquet_exact([values[i] for i in block], [space.masses[i] / bm for i in block], u)
        for i in block:
            out[i] = v
    return out


def acceptable_count(space: Space, u: Utility, x: np.ndarray) -> int:
    return int((evaluate(x, space, u) >= 0.0).sum())


def _noise(x: np.ndarray) -> np.ndarray:
    """Float-noise bound for a value computed from each probe row."""
    return 64 * x.shape[1] * EPS * np.abs(x).max(axis=1)


def audit(space: Space, u: Utility, x: np.ndarray):
    """direct, recomposed, gap and noise bound per probe, as tc_gap defines them."""
    direct = evaluate(x, space, u)
    recomposed = evaluate(blockwise(x, space, u), space, u)
    noise = _noise(x)
    if u.is_distortion:  # the ladder on the seed commit's exact path
        ladder = list(x[0])
        direct[0] = choquet_exact(ladder, space.masses, u)
        recomposed[0] = choquet_exact(blockwise_exact(ladder, space, u), space.masses, u)
        noise[0] = 0.0
    return direct, recomposed, np.abs(direct - recomposed), noise


def _greedy_vertex(y: np.ndarray, mf: np.ndarray, u: Utility) -> np.ndarray:
    """Core vertex minimising E_Q[y]: marginal masses along descending y."""
    order = np.argsort(-y, kind="stable")
    q = np.empty_like(mf)
    q[order] = np.diff(u.psi(np.cumsum(mf[order])), prepend=0.0)
    return q


def core_bound(x: np.ndarray, block: list[int], space: Space, u: Utility) -> float:
    """min over core measures Q with Q(A) > 0 of E_Q[x | A] (Dinkelbach)."""
    if u.kind == "scenario":
        caps = [
            float(qrow[block] @ x[block]) / float(qrow[block].sum())
            for qrow in u.qf
            if float(qrow[block].sum()) > 0.0
        ]
        return min(caps) if caps else float(x[block].max())
    mb = space.mf[block]
    t = float(mb @ x[block] / mb.sum())
    scale = float(np.abs(x).max()) or 1.0
    for _ in range(200):
        y = np.zeros(space.n)
        y[block] = x[block] - t
        q = _greedy_vertex(y, space.mf, u)
        if float(q[block] @ y[block]) >= -EPS * scale:
            break
        t_next = float(q[block] @ x[block]) / float(q[block].sum())
        if t_next >= t:
            break
        t = t_next
    return t


def core_bound_exact(x: list[Fraction], block: list[int], space: Space, u: Utility) -> Fraction:
    """core_bound in rational arithmetic (distortion bases only)."""
    t = sum(space.masses[i] * x[i] for i in block) / sum(space.masses[i] for i in block)
    while True:
        y = [x[i] - t if i in block else Fraction(0) for i in range(space.n)]
        q = [Fraction(0)] * space.n
        s, prev = Fraction(0), Fraction(u.psi_exact(Fraction(0)))
        for i in sorted(range(space.n), key=lambda i: -y[i]):
            s += space.masses[i]
            cur = Fraction(u.psi_exact(s))
            q[i], prev = cur - prev, cur
        if sum(q[i] * y[i] for i in block) >= 0:
            return t
        t = sum(q[i] * x[i] for i in block) / sum(q[i] for i in block)


def cone_verdict(x: np.ndarray, space: Space, u: Utility, exact: bool = False) -> tuple[bool, bool]:
    """(feasible, ambiguous) for one acceptable probe; `exact` evaluates the
    bounds and the value of eta in rational arithmetic."""
    sup = float(np.abs(x).max())
    if exact:
        xf = [Fraction(v) for v in x]
        eta = [Fraction(0)] * space.n
        for block in space.blocks:
            cap = core_bound_exact(xf, block, space, u)
            for i in block:
                eta[i] = cap
        value = float(choquet_exact(eta, space.masses, u, exact=True))
        noise = 4 * space.n * EPS * sup
    else:
        eta = np.empty(space.n)
        for block in space.blocks:
            eta[block] = core_bound(x, block, space, u)
        value = float(evaluate(eta[None, :], space, u)[0])
        noise = 64 * space.n * EPS * sup
    return value >= -CONE_TOL, abs(value + CONE_TOL) <= noise


# ---------------------------------------------------------------- checking


class Mismatch(Exception):
    pass


def _close(a, b, scale: float, where: str) -> None:
    if not isinstance(a, float) or not isinstance(b, (float, int)) or isinstance(b, bool):
        raise Mismatch(f"{where}: expected float, got {a!r}")
    if not abs(a - float(b)) <= REL_TOL * scale:
        raise Mismatch(f"{where}: {a!r} differs from reference {b!r}")


def _same(a, b, where: str) -> None:
    if type(a) is not type(b) or a != b:
        raise Mismatch(f"{where}: {a!r} != reference {b!r}")


def _keys(doc: dict, expected: set, where: str) -> None:
    if set(doc) != expected:
        raise Mismatch(f"{where}: keys {sorted(doc)} != {sorted(expected)}")


def compare_tree(got, ref, where: str = "report") -> None:
    """Structural comparison used for stored reports."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            raise Mismatch(f"{where}: expected object")
        _keys(got, set(ref), where)
        for k in ref:
            compare_tree(got[k], ref[k], f"{where}.{k}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise Mismatch(f"{where}: expected list of {len(ref)}")
        for i, (g, r) in enumerate(zip(got, ref)):
            compare_tree(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        _close(got, ref, max(1.0, abs(ref)), where)
    else:
        _same(got, ref, where)


def _header(doc: dict, cmd, inputs, seed: int, probes: int) -> None:
    _same(doc.get("command"), cmd.argv[0], "command")
    _same(doc.get("seed"), seed, "seed")
    _same(doc.get("probes"), probes, "probes")
    _same(doc.get("tolerance"), CLI_TOL, "tolerance")
    want = {"space": inputs.space_paths[cmd.space], "utility": inputs.utility_paths[cmd.utility]}
    _same(doc.get("inputs"), want, "inputs")


class Checker:
    """Checks one command's exit code and report against the reference."""

    def __init__(self, inputs, reference: dict):
        self.inputs = inputs
        self.ref = reference
        self.ambiguous = 0

    def _space_u(self, cmd):
        return self.inputs.spaces[cmd.space], self.inputs.utilities[cmd.utility]

    def is_seed_rejection(self, cmd, code: int, err: str) -> bool:
        """The documented seed-commit refusal: cone-check on more than 8 outcomes."""
        if cmd.kind != "cone-check":
            return False
        space, u = self._space_u(cmd)
        return space.n > 8 and u.is_distortion and code == 2 and "space too large" in err

    def check(self, cmd, code: int, out: str) -> None:
        if cmd.kind == "eval" and cmd.fmt == "csv":
            return self._eval_csv(cmd, code, out)
        try:
            doc = json.loads(out)
        except ValueError as e:
            raise Mismatch(f"exit {code}, report is not JSON: {e}") from e
        getattr(self, "_" + cmd.kind.replace("-", "_"))(cmd, code, doc)

    # -- per command kind

    def _tc_check(self, cmd, code, doc):
        space, u = self._space_u(cmd)
        x = probe_matrix(space.n, cmd.probes, cmd.seed)
        direct, recomposed, gap, noise = audit(space, u, x)
        _header(doc, cmd, self.inputs, cmd.seed, cmd.probes)
        _keys(doc, {"command", "seed", "probes", "tolerance", "inputs", "max_gap", "witness",
                    "consistent", "per_vector"}, "tc-check")
        sup = np.abs(x).max(axis=1)
        self._rows(doc["per_vector"], direct, recomposed, gap, sup)
        top = int(np.argmax(gap))
        tied = gap >= gap[top] - (noise + noise[top])
        _close(doc["max_gap"], float(gap[top]), float(sup[tied].max()), "max_gap")
        witness = doc["witness"]
        if not any(list(x[i]) == witness for i in np.flatnonzero(tied)):
            raise Mismatch("witness is not a probe attaining the maximum gap")
        if tied.sum() > 1:
            self.ambiguous += 1
        consistent = bool(gap[top] <= CLI_TOL)
        if abs(gap[top] - CLI_TOL) <= noise[tied].max():
            self.ambiguous += 1
            consistent = doc["consistent"]
        _same(doc["consistent"], consistent, "consistent")
        _same(code, 0 if consistent else 1, "exit code")

    def _rows(self, rows, direct, recomposed, gap, sup):
        if not isinstance(rows, list) or len(rows) != len(gap):
            raise Mismatch(f"per_vector has {len(rows)} rows, reference {len(gap)}")
        for i, row in enumerate(rows):
            _keys(row, {"probe_id", "direct", "recomposed", "gap"}, f"per_vector[{i}]")
            _same(row["probe_id"], i, f"per_vector[{i}].probe_id")
            for name, ref in (("direct", direct), ("recomposed", recomposed), ("gap", gap)):
                _close(row[name], float(ref[i]), float(sup[i]), f"per_vector[{i}].{name}")

    def _eval_values(self, cmd):
        space, u = self._space_u(cmd)
        x = probe_matrix(space.n, cmd.probes, cmd.seed, nonnegative=(u.kind == "product"))
        return evaluate(x, space, u), np.abs(x).max(axis=1), u

    def _eval(self, cmd, code, doc):
        values, sup, u = self._eval_values(cmd)
        _same(code, 0, "exit code")
        _header(doc, cmd, self.inputs, cmd.seed, cmd.probes)
        _keys(doc, {"command", "seed", "probes", "tolerance", "inputs", "variant", "values",
                    "max", "min"}, "eval")
        _same(doc["variant"], u.describe(), "variant")
        got = doc["values"]
        if len(got) != len(values):
            raise Mismatch(f"{len(got)} values, reference {len(values)}")
        for i, v in enumerate(got):
            _close(v, float(values[i]), float(sup[i]), f"values[{i}]")
        _close(doc["max"], float(values.max()), float(sup.max()), "max")
        _close(doc["min"], float(values.min()), float(sup.max()), "min")

    def _eval_csv(self, cmd, code, out):
        values, sup, u = self._eval_values(cmd)
        _same(code, 0, "exit code")
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != ["input_id", "variant", "value"] or len(rows) != len(values) + 1:
            raise Mismatch("csv header or row count differs from reference")
        for i, (pid, variant, value) in enumerate(rows[1:]):
            _same(pid, str(i), f"row {i} input_id")
            _same(variant, u.describe(), f"row {i} variant")
            _close(float(value), float(values[i]), float(sup[i]), f"row {i} value")

    def _cone_check(self, cmd, code, doc):
        space, u = self._space_u(cmd)
        x = probe_matrix(space.n, cmd.probes, cmd.seed)
        direct, _, gap, noise = audit(space, u, x)
        _same(code, 0, "exit code")
        _header(doc, cmd, self.inputs, cmd.seed, cmd.probes)
        _keys(doc, {"command", "seed", "probes", "tolerance", "inputs", "acceptable_probes",
                    "feasible_count", "verdicts", "max_gap"}, "cone-check")
        sup = np.abs(x).max(axis=1)
        top = int(np.argmax(gap))
        tied = gap >= gap[top] - (noise + noise[top])
        _close(doc["max_gap"], float(gap[top]), float(sup[tied].max()), "max_gap")
        verdicts = doc["verdicts"]
        listed = {}
        for v in verdicts:
            _keys(v, {"probe_id", "feasible"}, "verdict")
            listed[v["probe_id"]] = v["feasible"]
        for i in range(len(x)):
            unsure = abs(direct[i]) <= noise[i]
            if unsure:
                self.ambiguous += 1
            if i not in listed:
                if direct[i] >= 0.0 and not unsure:
                    raise Mismatch(f"acceptable probe {i} has no verdict")
                continue
            if direct[i] < 0.0 and not unsure:
                raise Mismatch(f"probe {i} is not acceptable but has a verdict")
            feasible, vague = cone_verdict(x[i], space, u, exact=(i == 0 and u.is_distortion))
            if vague:
                self.ambiguous += 1
            elif listed[i] is not feasible:
                raise Mismatch(f"probe {i}: feasible={listed[i]}, reference {feasible}")
        if [v["probe_id"] for v in verdicts] != sorted(listed):
            raise Mismatch("verdicts are not in probe order")
        _same(doc["acceptable_probes"], len(verdicts), "acceptable_probes")
        _same(doc["feasible_count"], sum(1 for v in verdicts if v["feasible"] is True), "feasible_count")

    def _validate(self, cmd, code, doc):
        space, u = self._space_u(cmd)
        _same(code, 0, "exit code")
        _header(doc, cmd, self.inputs, DEFAULT_SEED, 200)
        want = {
            "ok": True,
            "violations": [],
            "outcomes": space.n,
            "f1_blocks": space.blocks,
            "conditional_resolution": self.ref["resolution"][self.inputs.structure[cmd.space]],
            "utility": u.describe(),
        }
        _keys(doc, {"command", "seed", "probes", "tolerance", "inputs", *want}, "validate")
        for k, v in want.items():
            _same(doc[k], v, k)

    def _lift(self, cmd, code, doc):
        space, u = self._space_u(cmd)
        struct = self.inputs.structure[cmd.space]
        n = self.ref["resolution"][struct]
        ranks = [0] * space.n
        for block, block_ranks in zip(space.blocks, self.ref["ranks"][struct]):
            for i, r in zip(block, block_ranks):
                ranks[i] = r
        want = lift_report(space, u, n, ranks, cmd.f, cmd.g)
        _same(code, 0, "exit code")
        _header(doc, cmd, self.inputs, DEFAULT_SEED, 200)
        _keys(doc, {"command", "seed", "probes", "tolerance", "inputs", *want}, "lift")
        scale = max(1.0, want["m"])
        for k in ("grid_n", "b_indices"):
            _same(doc[k], want[k], k)
        _close(doc["m"], want["m"], scale, "m")
        for k in ("xi", "eta"):
            if len(doc[k]) != space.n:
                raise Mismatch(f"{k} has {len(doc[k])} entries")
            for i, (a, b) in enumerate(zip(doc[k], want[k])):
                _close(a, b, scale, f"{k}[{i}]")
        if len(doc["geometry"]) != len(want["geometry"]):
            raise Mismatch("geometry row count differs")
        for row, ref in zip(doc["geometry"], want["geometry"]):
            _keys(row, set(ref), "geometry row")
            _same(row["block"], ref["block"], "geometry.block")
            for k in ref:
                if k != "block":
                    _close(row[k], ref[k], scale, f"geometry[{ref['block']}].{k}")
        d, w = doc["diagnostics"], want["diagnostics"]
        _keys(d, set(w), "diagnostics")
        _same(d["resolution_used"], w["resolution_used"], "resolution_used")
        _close(d["snap_error"], w["snap_error"], scale, "snap_error")
        for k in ("err_f", "err_g", "err_sum"):
            if len(d[k]) != len(w[k]):
                raise Mismatch(f"{k} length differs")
            for a, b in zip(d[k], w[k]):
                _close(a, b, scale, k)

    def _demo(self, cmd, code, doc):
        _same(code, 0, "exit code")
        compare_tree(doc, self.ref["demo"][cmd.demo], f"demo {cmd.demo}")


def _geometry(x: float, y: float, m: float):
    d = (m - x) + (y + m)
    if d <= 0.0:
        return (x, y), (x, y), 0.0
    lam = (y + m) / d
    return (min(x - y - m, m), -m), (m, max(y + m - x, -m)), min(max(lam, 0.0), 1.0)


def lift_report(space: Space, u: Utility, n: int, ranks: list[int], f: list[float], g: list[float]) -> dict:
    """Expected body of a `lift` report for block values f and g."""
    m = max(max(abs(v) for v in f), max(abs(v) for v in g))
    psi_table = [float(u.psi_exact(Fraction(k, n))) for k in range(n + 1)]
    xi = [0.0] * space.n
    eta = [0.0] * space.n
    member = [False] * space.n
    geometry = []
    snap = 0.0
    for bi, (block, fv, gv) in enumerate(zip(space.blocks, f, g)):
        big_x, big_y, lam = _geometry(fv, gv, m)
        best_k, best_err = 0, abs(psi_table[0] - lam)
        for k in range(1, n + 1):
            err = abs(psi_table[k] - lam)
            if err < best_err:
                best_k, best_err = k, err
        for i in block:
            member[i] = ranks[i] <= best_k
            xi[i], eta[i] = big_y if member[i] else big_x
        snap = max(snap, abs(lam - psi_table[best_k]))
        geometry.append({
            "block": bi, "f": fv, "g": gv, "lambda_target": lam, "lambda_achieved": psi_table[best_k],
            "x_x": big_x[0], "x_y": big_x[1], "y_x": big_y[0], "y_y": big_y[1],
        })
    u_xi = blockwise_exact(xi, space, u)
    u_eta = blockwise_exact(eta, space, u)
    u_sum = blockwise_exact([a + b for a, b in zip(xi, eta)], space, u)
    firsts = [b[0] for b in space.blocks]
    return {
        "m": m,
        "grid_n": n,
        "xi": xi,
        "eta": eta,
        "b_indices": [i for i in range(space.n) if member[i]],
        "geometry": geometry,
        "diagnostics": {
            "err_f": [abs(u_xi[i] - fv) for i, fv in zip(firsts, f)],
            "err_g": [abs(u_eta[i] - gv) for i, gv in zip(firsts, g)],
            "err_sum": [abs(u_sum[i] - fv - gv) for i, fv, gv in zip(firsts, f, g)],
            "snap_error": snap,
            "resolution_used": n,
        },
    }
