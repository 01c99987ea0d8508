"""File schemas and report serialization.

Input files are small JSON documents. A space file carries exact rational
masses plus the intermediate-period blocks:

    {"masses": [[1, 8], [1, 8], ...], "f1_blocks": [[0, 1, 2, 3], [4, 5, 6, 7]]}

A utility file wraps one utility description:

    {"utility": {"kind": "es", "alpha": [1, 2]}}
    {"utility": {"kind": "expectation"}}
    {"utility": {"kind": "power", "alpha": 0.5}}
    {"utility": {"kind": "piecewise", "knots": [[0, 0], [0.5, 0.25], [1, 1]]}}
    {"utility": {"kind": "scenario", "measures": [[[1, 8], ...], ...]}}
    {"utility": {"kind": "product", "k_alpha": 8, "k_x": 8}}

Scenario measure entries may be [num, den] pairs or plain numbers. Schema
violations raise SchemaError carrying the offending field (and the line for
JSON syntax errors), which the CLI turns into exit status 2.

Reports are emitted either as canonical JSON text (sorted keys, two-space
indent, trailing newline) or as CSV with a fixed header; both forms re-parse
with parse_report / parse_report_csv, and identical inputs produce identical
bytes.

packaged_data_path imports importlib.resources when it is called, so only
the demos, which read the packaged example files, pay for that import.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from fractions import Fraction

from .space import Filtration, OutcomeSpace
from .utility import CoherentUtility, DistortionFunction, ScenarioSet

__all__ = [
    "SchemaError",
    "parse_space",
    "parse_utility",
    "load_space_file",
    "load_utility_file",
    "packaged_data_path",
    "emit_report_text",
    "emit_report_csv",
    "parse_report",
    "parse_report_csv",
]


class SchemaError(ValueError):
    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if field:
            where.append(f"field {field!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e.msg}", line=e.lineno) from e


def _rational(value, field: str) -> Fraction:
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, int) for v in value):
        if value[1] == 0:
            raise SchemaError("zero denominator", field=field)
        return Fraction(value[0], value[1])
    if isinstance(value, int):
        return Fraction(value)
    raise SchemaError(f"expected [num, den] pair, got {value!r}", field=field)


def parse_space(text: str) -> tuple[OutcomeSpace, Filtration]:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("space file must be a JSON object")
    unknown = set(doc) - {"masses", "f1_blocks", "labels"}
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}", field=sorted(unknown)[0])
    if "masses" not in doc:
        raise SchemaError("missing key", field="masses")
    if "f1_blocks" not in doc:
        raise SchemaError("missing key", field="f1_blocks")
    masses_raw = doc["masses"]
    if not isinstance(masses_raw, list) or not masses_raw:
        raise SchemaError("must be a nonempty list", field="masses")
    masses = [_rational(m, field=f"masses[{i}]") for i, m in enumerate(masses_raw)]
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(masses) or not all(isinstance(s, str) for s in labels):
            raise SchemaError("labels must list one string per outcome", field="labels")
    space = OutcomeSpace.from_masses(masses, labels=labels)
    blocks_raw = doc["f1_blocks"]
    if not isinstance(blocks_raw, list) or not blocks_raw:
        raise SchemaError("must be a nonempty list of index lists", field="f1_blocks")
    for j, b in enumerate(blocks_raw):
        if not isinstance(b, list) or not b or not all(isinstance(i, int) for i in b):
            raise SchemaError("block must be a nonempty list of integers", field=f"f1_blocks[{j}]")
    filtration = Filtration.two_period(space, blocks_raw)
    return space, filtration


def parse_utility(text: str) -> CoherentUtility:
    doc = _load_json(text)
    if not isinstance(doc, dict) or "utility" not in doc:
        raise SchemaError("missing key", field="utility")
    u = doc["utility"]
    if not isinstance(u, dict) or "kind" not in u:
        raise SchemaError("missing key", field="utility.kind")
    kind = u["kind"]
    try:
        if kind == "expectation":
            return CoherentUtility.from_distortion(DistortionFunction.expectation())
        if kind == "es":
            return CoherentUtility.from_distortion(
                DistortionFunction.es(_rational(u.get("alpha"), field="utility.alpha"))
            )
        if kind == "power":
            a = u.get("alpha")
            if not isinstance(a, (int, float)):
                raise SchemaError("power alpha must be a number", field="utility.alpha")
            return CoherentUtility.from_distortion(DistortionFunction.power(float(a)))
        if kind == "piecewise":
            knots = u.get("knots")
            if not isinstance(knots, list):
                raise SchemaError("piecewise needs a knots list", field="utility.knots")
            return CoherentUtility.from_distortion(DistortionFunction.piecewise(knots))
        if kind == "scenario":
            measures = u.get("measures")
            if not isinstance(measures, list) or not measures:
                raise SchemaError("scenario needs a nonempty measures list", field="utility.measures")
            rows = []
            for qi, q in enumerate(measures):
                if not isinstance(q, list):
                    raise SchemaError("measure must be a list", field=f"utility.measures[{qi}]")
                rows.append([
                    _rational(v, field=f"utility.measures[{qi}][{vi}]") if isinstance(v, list) else v
                    for vi, v in enumerate(q)
                ])
            return CoherentUtility.from_scenarios(ScenarioSet.of(rows))
        if kind == "product":
            ka, kx = u.get("k_alpha"), u.get("k_x")
            if not isinstance(ka, int) or not isinstance(kx, int):
                raise SchemaError("product needs integer k_alpha and k_x", field="utility.k_alpha")
            return CoherentUtility.product_example(ka, kx)
    except SchemaError:
        raise
    except ValueError as e:
        raise SchemaError(str(e), field="utility") from e
    raise SchemaError(f"unknown utility kind {kind!r}", field="utility.kind")


def load_space_file(path) -> tuple[OutcomeSpace, Filtration]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space(fh.read())


def load_utility_file(path) -> CoherentUtility:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_utility(fh.read())


def packaged_data_path(name: str):
    """Path to one of the example files shipped inside the package."""
    from importlib import resources  # only the demos read packaged files

    return resources.files("riskcal").joinpath("data", name)


def emit_report_text(report: dict) -> str:
    """Canonical JSON text; a non-finite float raises ValueError, since NaN
    and Infinity are not JSON."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_report_csv(rows: list[dict], columns: list[str]) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return str(v).lower()
    return v


def parse_report(text: str) -> dict:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("report must be a JSON object")
    for key in ("command", "seed", "tolerance"):
        if key not in doc:
            raise SchemaError("missing report key", field=key)
    return doc


def parse_report_csv(text: str) -> list[dict]:
    rows = list(csv.reader(_stdio.StringIO(text)))
    if not rows:
        raise SchemaError("empty CSV report")
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]
