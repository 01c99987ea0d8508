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

Scenario measure entries may be [num, den] pairs or plain numbers; JSON
true and false are never numbers. Both file kinds refuse unknown keys, and
every JSON document read here refuses a key repeated in one object.
Schema violations raise SchemaError carrying the offending field (and the
line for JSON syntax errors), which the CLI turns into exit status 2.

Reports are emitted either as canonical JSON text (sorted keys, two-space
indent, trailing newline) or as CSV with a fixed header; both forms re-parse
with the report parsers of tests/reference.py, and identical inputs produce
identical bytes.

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
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e.msg}", line=e.lineno) from e


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key, which json.loads would let the last one win."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of `kinds`; JSON true and false load as bools, which Python counts as ints."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _rational(value, field: str) -> Fraction:
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v, int) for v in value):
        if value[1] == 0:
            raise SchemaError("zero denominator", field=field)
        return Fraction(value[0], value[1])
    if _is_number(value, int):
        return Fraction(value)
    raise SchemaError(f"expected [num, den] pair, got {value!r}", field=field)


def _refuse_unknown(doc: dict, known, prefix: str = "") -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise SchemaError(f"unknown keys {unknown}", field=prefix + unknown[0])


def parse_space(text: str) -> tuple[OutcomeSpace, Filtration]:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("space file must be a JSON object")
    _refuse_unknown(doc, ("masses", "f1_blocks", "labels"))
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
        if not isinstance(b, list) or not b or not all(_is_number(i, int) for i in b):
            raise SchemaError("block must be a nonempty list of integers", field=f"f1_blocks[{j}]")
    filtration = Filtration.two_period(space, blocks_raw)
    return space, filtration


# each utility kind's fields beside "kind"
_KIND_FIELDS = {"expectation": (), "es": ("alpha",), "power": ("alpha",), "piecewise": ("knots",),
                "scenario": ("measures",), "product": ("k_alpha", "k_x")}


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
            utility = CoherentUtility.from_distortion(DistortionFunction.expectation())
        elif kind == "es":
            utility = CoherentUtility.from_distortion(
                DistortionFunction.es(_rational(u.get("alpha"), field="utility.alpha"))
            )
        elif kind == "power":
            a = u.get("alpha")
            if not _is_number(a):
                raise SchemaError("power alpha must be a number", field="utility.alpha")
            utility = CoherentUtility.from_distortion(DistortionFunction.power(float(a)))
        elif kind == "piecewise":
            knots = u.get("knots")
            if not isinstance(knots, list):
                raise SchemaError("piecewise needs a knots list", field="utility.knots")
            for ki, knot in enumerate(knots):
                if not (isinstance(knot, list) and len(knot) == 2 and all(_is_number(v) for v in knot)):
                    raise SchemaError("knot must be a [p, psi(p)] pair of numbers", field=f"utility.knots[{ki}]")
            utility = CoherentUtility.from_distortion(DistortionFunction.piecewise(knots))
        elif kind == "scenario":
            measures = u.get("measures")
            if not isinstance(measures, list) or not measures:
                raise SchemaError("scenario needs a nonempty measures list", field="utility.measures")
            rows = []
            for qi, q in enumerate(measures):
                if not isinstance(q, list):
                    raise SchemaError("measure must be a list", field=f"utility.measures[{qi}]")
                rows.append([
                    v if _is_number(v) else _rational(v, field=f"utility.measures[{qi}][{vi}]")
                    for vi, v in enumerate(q)
                ])
            utility = CoherentUtility.from_scenarios(ScenarioSet.of(rows))
        elif kind == "product":
            ka, kx = u.get("k_alpha"), u.get("k_x")
            for key, size in (("k_alpha", ka), ("k_x", kx)):
                if not _is_number(size, int):
                    raise SchemaError("product needs integer k_alpha and k_x", field=f"utility.{key}")
            utility = CoherentUtility.product_example(ka, kx)
        else:
            raise SchemaError(f"unknown utility kind {kind!r}", field="utility.kind")
    except SchemaError:
        raise
    except (ValueError, OverflowError) as e:  # OverflowError: an integer beyond float range
        raise SchemaError(str(e), field="utility") from e
    _refuse_unknown(doc, ("utility",))  # after the fields, so that a bad field is named as such
    _refuse_unknown(u, ("kind", *_KIND_FIELDS[kind]), prefix="utility.")
    return utility


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
