"""Report serialization: canonical JSON, CSV summaries, plot-data series.

Serialization is canonical — fixed key order, fixed float handling — so
identical runs produce byte-identical files and a parsed report re-dumps
to the exact input bytes. Non-finite floats (exact-zero probabilities in
log space) become JSON nulls.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

from .checker import CheckReport
from .probmodel import ModelRow

SCHEMA_VERSION = 1

MODEL_CSV_COLUMNS = ("n", "k", "domain_size", "damping_c", "ln_P_exact", "log10_f", "log10_tail")


def _clean(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def dump_json(obj: dict) -> str:
    return json.dumps(_clean(obj), indent=2, allow_nan=False) + "\n"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_report_dict(report: CheckReport, header: dict) -> dict:
    """Check report as a JSON-ready dict; field names are frozen."""
    out: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    out.update(header)
    out["spec"] = report.set_spec.to_dict() if report.set_spec else None
    out["lo"] = report.lo
    out["hi"] = report.hi
    out["failures"] = list(report.failures)
    out["threshold_N0"] = report.threshold_n0
    out["buckets"] = [
        {
            "lo": b.lo,
            "hi": b.hi,
            "sampled": b.sampled,
            "min_reps": b.min_reps,
            "mean_reps": b.mean_reps,
        }
        for b in report.buckets
    ]
    out["wall_ms"] = report.wall_ms
    return out


def check_report_csv(report: CheckReport, header_lines: list[str]) -> str:
    """CSV summary, one bucket per row; '#' lines carry the run header."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lo", "hi", "sampled", "min_reps", "mean_reps"])
    for b in report.buckets:
        writer.writerow([b.lo, b.hi, b.sampled, b.min_reps, repr(b.mean_reps)])
    return buf.getvalue()


def model_table_csv(rows: list[ModelRow], header_lines: list[str]) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MODEL_CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.n,
                r.k,
                r.domain_size,
                repr(r.damping_c),
                "" if r.ln_p_exact is None or not math.isfinite(r.ln_p_exact) else repr(r.ln_p_exact),
                repr(r.log10_f),
                "" if r.log10_tail is None else repr(r.log10_tail),
            ]
        )
    return buf.getvalue()


def model_table_dict(rows: list[ModelRow], header: dict) -> dict:
    out: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    out.update(header)
    out["rows"] = [
        {
            "n": r.n,
            "k": r.k,
            "domain_size": r.domain_size,
            "damping_c": r.damping_c,
            "ln_P_exact": r.ln_p_exact,
            "log10_f": r.log10_f,
            "log10_tail": r.log10_tail,
        }
        for r in rows
    ]
    return out


def plot_data_csv(series: list[tuple[str, float, float]]) -> str:
    """Long-format numeric series: one (series, x, y) row per point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "x", "y"])
    for name, x, y in series:
        writer.writerow([name, x, y])
    return buf.getvalue()


def plot_series_from_report(path: str) -> list[tuple[str, float, float]]:
    """Extract plottable series from any report this tool writes.

    Check reports yield the per-bucket minimum representation counts plus
    a failures series (empty when the range is clean); deviation reports
    yield the |rank_Q - rank_P| series; model tables (JSON or CSV) yield
    n vs log10 f(n).
    """
    if path.endswith(".csv"):
        return _series_from_model_csv(path)
    doc = load_json(path)
    try:
        if "buckets" in doc:
            mins = [("bucket_min_reps", b["lo"], b["min_reps"]) for b in doc["buckets"]]
            return mins + [("failures", n, 1) for n in doc.get("failures", [])]
        if "series" in doc:
            return [("deviation", n, dev) for n, dev in doc["series"]]
        if "rows" in doc:
            return [("log10_f", r["n"], r["log10_f"]) for r in doc["rows"]]
    except (TypeError, KeyError, ValueError):
        pass  # JSON that is not one of the shapes above
    raise ValueError(f"{path}: unrecognized report shape")


def _series_from_model_csv(path: str) -> list[tuple[str, float, float]]:
    series: list[tuple[str, float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(rows)
    if reader.fieldnames is None or "log10_f" not in reader.fieldnames:
        raise ValueError(f"{path}: not a model table (no log10_f column)")
    for row in reader:
        series.append(("log10_f", float(row["n"]), float(row["log10_f"])))
    return series
