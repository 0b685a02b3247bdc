"""Report formats: canonical JSON documents and CSV tables.

Serialization is canonical — fixed key order, fixed float handling — so
identical runs produce byte-identical files and a parsed report re-dumps
to the exact input bytes. Non-finite floats (exact-zero probabilities in
log space) become JSON nulls and empty CSV cells. What each report holds
is up to its command; this module owns only the formats, and reads any
report back as plot-data series.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Iterable, Sequence

SCHEMA_VERSION = 1


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


def document(header: dict, **fields: Any) -> str:
    """A JSON report: the schema version, the run header, then the fields in order."""
    return dump_json({"schema_version": SCHEMA_VERSION, **header, **fields})


def table_csv(header_lines: Iterable[str], columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """A CSV report: one '#' line per header line, the column names, one line per row."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_clean(list(rows)))
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
