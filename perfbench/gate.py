"""Correctness gate: read a run's gated outputs and compare them with the
stored reference (perfbench/reference.json).

A reference entry is {"value": v, "rtol": r} (|got - v| <= r |v|),
{"value": v, "atol": a}, {"max": m} (got <= m) or {"equals": x}.
CSV cells are parsed strictly: a float column cell that is not a plain
decimal literal is a bad cell and has no value.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

_FLOAT = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_BOOL = {"true": True, "false": False}

SCAN_FLOAT_COLUMNS = (
    "eps", "seminorm_p_pow", "lpstar_pow", "excess", "deficit",
    "t_star", "sup_full", "c_infty",
)
SCAN_GATED = ("seminorm_p_pow", "lpstar_pow", "sup_full", "below_c_infty")
SCAN_META = ("excess_slope", "deficit_slope", "sem_reference", "lp_reference")


def strict_float(cell: str):
    """The value of a plain decimal literal, or None for anything else
    (np.float64(...), nan, inf, blanks, underscores)."""
    return float(cell) if _FLOAT.fullmatch(cell) else None


def bad_cells(csv_text: str, float_columns=SCAN_FLOAT_COLUMNS) -> int:
    """Number of cells in float_columns that strict_float rejects."""
    rows = csv.DictReader(io.StringIO(csv_text))
    return sum(
        1
        for row in rows
        for name in float_columns
        if name in row and strict_float(row[name]) is None
    )


def solve_outputs(out_dir: Path) -> dict:
    plus = json.loads((out_dir / "solution_plus.json").read_text())
    minus = json.loads((out_dir / "solution_minus.json").read_text())
    return {
        "S_d": plus.get("S_d"),
        "S_ab_d": plus.get("S_ab_d"),
        "J_plus": plus.get("energy"),
        "J_minus": minus.get("energy"),
        "c_infty": plus.get("checks", {}).get("c_infty"),
        "d0": plus.get("checks", {}).get("d0_bound"),
    }


def scan_outputs(out_dir: Path):
    """(gated outputs, bad cell count) of a bubble-scan output directory.
    Row outputs are keyed "eps=<eps cell>/<column>"."""
    text = (out_dir / "bubble_scan.csv").read_text()
    out = {}
    for row in csv.DictReader(io.StringIO(text)):
        for name in SCAN_GATED:
            cell = row.get(name, "")
            value = _BOOL.get(cell) if name == "below_c_infty" else strict_float(cell)
            out[f"eps={row.get('eps')}/{name}"] = value
    meta = json.loads((out_dir / "bubble_scan.meta.json").read_text())
    for name in SCAN_META:
        out[name] = meta.get(name)
    return out, bad_cells(text)


def _within(spec: dict, got) -> bool:
    if "equals" in spec:
        return got == spec["equals"]
    if isinstance(got, bool) or not isinstance(got, (int, float)) or math.isnan(got):
        return False
    if "max" in spec:
        return got <= spec["max"]
    slack = spec.get("rtol", 0.0) * abs(spec["value"]) + spec.get("atol", 0.0)
    return abs(got - spec["value"]) <= slack


def compare(reference: dict, outputs: dict) -> list:
    """Messages for every reference entry the outputs miss or leave."""
    errors = []
    for key, spec in reference.items():
        got = outputs.get(key)
        if got is None:
            errors.append(f"{key}: missing")
        elif not _within(spec, got):
            errors.append(f"{key}: {got!r} outside {spec}")
    return errors
