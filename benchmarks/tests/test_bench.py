"""Tests of the benchmark itself, at limit 1e4.

Every workload must run and report exactly the metrics BENCHMARK.json
names, and every gate must reject a deliberately corrupted output.

    python3 -m pytest benchmarks/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import gates  # noqa: E402
import jobs  # noqa: E402
from primesim.cli import main as primesim_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "check-primes-2e7": bench.CheckWorkload(limit=10_000, workers=1, perturbed=False),
    "pipeline-perturbed-1e7": bench.CheckWorkload(limit=10_000, workers=2, perturbed=True),
    "model-mc": bench.ModelWorkload(m=10_000, table_hi=10_000, trials=2_000),
}
LIMIT = 10_000
SEED = 3


def rng():
    return np.random.default_rng(SEED)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(bench.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(SMALL))
def test_workload_runs(name, trace, tmp_path):
    result = bench.run_benchmark(name, SMALL[name], SEED, 0.0, trace, out_dir=tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == (3 if trace else 1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    record = json.loads((tmp_path / f"{name}-seed{SEED}-trace{int(trace)}.json").read_text())
    assert record["environment"]["seed"] == SEED
    assert not any(p.name.startswith("work-") for p in tmp_path.iterdir())


def test_traced_counts_repeat_exactly(tmp_path):
    counts = ("checker.scan_probes", "checker.pair_count_calls", "checker.pair_count_bytes",
              "numset.file_bytes")
    runs = [
        bench.run_benchmark("pipeline-perturbed-1e7", SMALL["pipeline-perturbed-1e7"], SEED, 0.0,
                            True, out_dir=tmp_path)["metrics"]
        for _ in range(2)
    ]
    assert all(runs[0][c]["value"] == runs[1][c]["value"] > 0 for c in counts)
    spans = json.loads((tmp_path / f"pipeline-perturbed-1e7-seed{SEED}-spans.json").read_text())
    assert {"name", "start", "end", "parent", "workload", "run_id"} <= set(spans[0])


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "model-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_prime_sieve_matches_trial_division():
    expected = [n for n in range(2, 2000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert np.flatnonzero(gates.prime_flags(1999)).tolist() == expected


# --- check reports ------------------------------------------------------------


@pytest.fixture(scope="module")
def primes_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("check") / "report.json"
    argv = ["check", "--set", "primes", "--limit", str(LIMIT), "--lo", "4", "--hi", str(LIMIT),
            "--out", str(out)]
    assert primesim_main(argv) == 0
    return json.loads(out.read_text()), gates.SetOracle.primes(LIMIT)


@pytest.fixture(scope="module")
def perturbed(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    q, dev, out = d / "q.txt", d / "dev.json", d / "report.json"
    assert primesim_main(["gen-set", "--kind", "perturbed", "--limit", str(LIMIT), "--seed",
                          str(SEED), "--out", str(q), "--deviation-report", str(dev)]) == 0
    assert primesim_main(["check", "--set", "file", "--path", str(q), "--lo", "4", "--hi",
                          str(LIMIT), "--workers", "2", "--out", str(out)]) == 0
    return q, json.loads(dev.read_text()), json.loads(out.read_text())


def gate_report(report, oracle, status=0):
    return gates.check_report(report, oracle, lo=4, hi=LIMIT, status=status, rng=rng())


def test_check_gate_accepts_real_reports(primes_report, perturbed):
    assert gate_report(*primes_report) == []
    q, _, report = perturbed
    assert report["failures"]  # a perturbed set misses some small evens
    assert gate_report(report, gates.SetOracle.from_file(str(q))) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(failures=[10], threshold_N0=10),  # 10 = 3 + 7
    lambda r: r.update(threshold_N0=8),
    lambda r: [b.update(min_reps=b["min_reps"] + 1) for b in r["buckets"]],
    lambda r: [b.update(mean_reps=b["mean_reps"] * 1.01) for b in r["buckets"]],
    lambda r: r["buckets"][-1].update(hi=LIMIT - 2),
    lambda r: r.update(hi=LIMIT - 2),
])
def test_check_gate_rejects_corrupted_report(primes_report, corrupt):
    report, oracle = primes_report
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert gate_report(bad, oracle)


def test_check_gate_rejects_wrong_exit_status(primes_report):
    assert gate_report(*primes_report, status=1)


def test_check_gate_rejects_a_hidden_failure(perturbed):
    q, _, report = perturbed
    bad = copy.deepcopy(report)
    bad["failures"] = bad["failures"][1:]
    bad["threshold_N0"] = bad["failures"][-1] if bad["failures"] else 2
    assert gate_report(bad, gates.SetOracle.from_file(str(q)))


# --- perturbed set and deviation report -------------------------------------------


def test_set_gate_accepts_real_set(perturbed):
    q, dev, _ = perturbed
    assert gates.perturbed_set(gates.SetOracle.from_file(str(q)), dev, LIMIT) == []


def test_set_gate_rejects_wrong_deviation(perturbed):
    q, dev, _ = perturbed
    bad = dict(dev, max_deviation=3)
    assert gates.perturbed_set(gates.SetOracle.from_file(str(q)), bad, LIMIT)


def test_set_gate_rejects_moved_element(perturbed, tmp_path):
    q, dev, _ = perturbed
    oracle = gates.SetOracle.from_file(str(q))
    elements = oracle.elements.copy()
    elements[100] += 2 if elements[100] + 2 < elements[101] else -2
    assert gates.perturbed_set(gates.SetOracle(elements, oracle.limit), dev, LIMIT)


# --- model results --------------------------------------------------------------


@pytest.fixture(scope="module")
def model():
    wl = SMALL["model-mc"]
    return jobs.model_mc(SEED, wl.m, wl.table_hi, wl.trials)


def gate_model(res):
    wl = SMALL["model-mc"]
    return gates.model_results(res, m=wl.m, table_hi=wl.table_hi, trials=wl.trials, rng=rng())


def test_model_gate_accepts_real_results(model):
    assert gate_model(model) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["exact"].update(ln_p=r["exact"]["ln_p"] * (1 + 1e-8)),
    lambda r: r["refs"].update(log10_f_1e4=r["refs"]["log10_f_1e4"] - 1.0),
    lambda r: r["refs"].update(log10_tail_5e4=r["refs"]["log10_tail_5e4"] + 1e-3),
    lambda r: [row.__setitem__(6, row[6] + 1e-3) for row in r["rows"]],
    lambda r: r["rows"][5].__setitem__(4, r["rows"][5][4] * (1 + 1e-8)),
    lambda r: r["rows"].pop(),
    lambda r: [cell.__setitem__(3, 1.0 - cell[3]) for cell in r["mc"][-5:]],
    lambda r: r["mc"][0].__setitem__(4, 1),
])
def test_model_gate_rejects_corrupted_results(model, corrupt):
    bad = copy.deepcopy(model)
    corrupt(bad)
    assert gate_model(bad)
