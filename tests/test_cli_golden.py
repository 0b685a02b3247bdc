"""Golden test of the CLI's output bytes: every command, both formats, spec files.

Each case runs its steps in one fresh directory and compares, with
tests/golden/<case>.txt, the exit status and stdout of every command and
the bytes of every file left in the directory. Paths are relative so that
no temporary directory reaches a report; only wall_ms is blanked. After an
intended output change, regenerate the expected files and review the diff:

    PYTHONPATH=src:tests python -c "import test_cli_golden as g; g.regenerate()"
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest

from primesim.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
_WALL_MS = re.compile(r'"wall_ms": [-+0-9.eE]+')

TINY_SET = "limit=60\n2\n"  # only 4 is a sum: every even from 6 fails

# case name -> steps; a step is an argv list, or ("write", file name, text)
CASES: dict[str, list] = {
    "sieve-summary": [["sieve", "--limit", "20000"]],
    "sieve-out": [["sieve", "--limit", "1000", "--out", "p.txt"]],
    "gen-set-perturbed": [
        ["gen-set", "--kind", "perturbed", "--limit", "1000", "--seed", "7",
         "--out", "q.txt", "--deviation-report", "dev.json"],
    ],
    "gen-set-shifted": [
        ["gen-set", "--kind", "shifted", "--limit", "300", "--shift", "3",
         "--out", "s.txt", "--deviation-report", "dev.json"],
    ],
    "check-primes-json": [
        ["check", "--set", "primes", "--limit", "20000", "--lo", "4", "--hi", "20000",
         "--bucket-width", "4000"],
    ],
    "check-primes-csv": [
        ["check", "--set", "primes", "--limit", "20000", "--lo", "1000", "--hi", "20000",
         "--sample-stride", "100", "--format", "csv", "--out", "r.csv"],
    ],
    "check-slow": [
        ["check", "--set", "primes", "--limit", "2000", "--lo", "4", "--hi", "2000",
         "--sample-stride", "1", "--bucket-width", "500", "--out", "r.json"],
    ],
    "check-perturbed-kind": [
        ["check", "--set", "perturbed", "--limit", "10000", "--seed", "3",
         "--lo", "4", "--hi", "10000", "--format", "csv"],
    ],
    "check-shifted-kind": [
        ["check", "--set", "shifted", "--limit", "5000", "--shift", "1",
         "--lo", "4", "--hi", "5000"],
    ],
    "check-file": [
        ["gen-set", "--kind", "perturbed", "--limit", "5000", "--seed", "11", "--out", "q.txt"],
        ["check", "--set", "file", "--path", "q.txt", "--lo", "4", "--hi", "5000",
         "--workers", "2", "--bucket-width", "1500", "--out", "r.json"],
        ["check", "--set", "file", "--path", "q.txt", "--lo", "4", "--hi", "5000",
         "--format", "csv"],
    ],
    "check-spec-file-allow-below": [
        ("write", "tiny.txt", TINY_SET),
        ("write", "spec.txt", "kind=file\npath=tiny.txt\n"),
        ["check", "--set", "spec.txt", "--lo", "4", "--hi", "120"],
        ["check", "--set", "spec.txt", "--lo", "4", "--hi", "120", "--allow-below", "200",
         "--format", "csv"],
    ],
    "check-spec-file-primes": [
        ("write", "spec.txt", "# a spec\nkind=primes\nlimit=3000\n"),
        ["check", "--set", "spec.txt", "--lo", "100", "--hi", "3000", "--sample-stride", "7"],
    ],
    "anb": [
        ["anb", "--set", "primes", "--limit", "10000", "--n", "10"],
        ["anb", "--set", "perturbed", "--limit", "1000", "--seed", "2", "--n", "100",
         "--out", "anb.json"],
    ],
    "prob-single": [["prob", "--n", "10000"]],
    "prob-pmax": [["prob", "--n", "10000", "--pmax", "3"]],
    "prob-c-from-pmax": [["prob", "--n", "10000", "--c-from-pmax", "5", "--format", "csv"]],
    "prob-c": [
        ["prob", "--n", "10000", "--c", "2.5"],
        ["prob", "--n", "10000", "--pmax", "2", "--c", "1.5"],
    ],
    "prob-grid": [
        ["prob", "--n", "1000", "--n-max", "20000", "--n-step", "1000", "--format", "csv",
         "--out", "model.csv"],
        ["prob", "--n", "1000", "--n-max", "1050"],
    ],
    "tail": [
        ["tail", "--from", "20000"],
        ["tail", "--from", "20000", "--c", "3.75", "--out", "tail.json"],
    ],
    "report-check": [
        ("write", "tiny.txt", TINY_SET),
        ["check", "--set", "file", "--path", "tiny.txt", "--lo", "4", "--hi", "120",
         "--out", "check.json"],
        ["report", "--in", "check.json"],
    ],
    "report-deviation": [
        ["gen-set", "--kind", "perturbed", "--limit", "300", "--seed", "3",
         "--out", "q.txt", "--deviation-report", "dev.json"],
        ["report", "--in", "dev.json", "--out", "plot.csv"],
    ],
    "report-model": [
        ["prob", "--n", "1000", "--n-max", "5000", "--n-step", "500", "--pmax", "2",
         "--out", "model.json"],
        ["report", "--in", "model.json"],
        ["prob", "--n", "1000", "--n-max", "5000", "--n-step", "1000", "--format", "csv",
         "--out", "model.csv"],
        ["report", "--in", "model.csv"],
    ],
}


def _blank(text: str) -> str:
    return _WALL_MS.sub('"wall_ms": 0', text)


def render(steps: list, workdir: Path) -> str:
    """Run the steps inside workdir; one text record of statuses, stdout and files."""
    parts = []
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for step in steps:
            if isinstance(step, tuple):
                _, name, text = step
                Path(name).write_text(text, encoding="utf-8")
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(step))
            parts.append(
                f"$ primesim {' '.join(step)}\nexit {code}\n--- stdout\n{_blank(out.getvalue())}"
            )
    finally:
        os.chdir(old)
    for path in sorted(workdir.iterdir()):
        parts.append(f"--- file {path.name}\n{_blank(path.read_bytes().decode())}")
    return "".join(parts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    expected = (GOLDEN_DIR / f"{case}.txt").read_bytes().decode()
    assert render(CASES[case], tmp_path) == expected


def regenerate() -> None:
    """Rewrite every expected file from the current CLI."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, steps in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record = render(steps, Path(tmp))
        (GOLDEN_DIR / f"{case}.txt").write_bytes(record.encode())
