#!/usr/bin/env python3
"""End-to-end benchmark of primesim, with a separate traced per-layer run.

    python3 benchmarks/bench.py --workload check-primes-2e7 --seed 1 --seconds 20 --trace 0

Run it from the root of a primesim checkout; every job is a fresh child
process that imports primesim from this checkout's src/. With --trace 0 the
benchmark sets up the workload several times, repeats the timed job for
--seconds, gates every output against its own oracles (gates.py) and
reports the end-to-end metrics. With --trace 1 it runs the job once
untraced and once with every public primesim function wrapped in a span
(jobs.py), and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A summary goes to standard error; the full record, with the run
environment, and the spans go to benchmarks/out/.

Exit status: 0 when every output passed its gates, 1 when one did not,
2 when the benchmark could not run (no src/primesim here, a child that
crashed during set-up, the time limit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gates

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
TIME_LIMIT_S = 170.0  # every gated run must end within 180 s
SETUP_REPEATS = {"import": 9, "gen-set": 5}
MODULES = ("numset", "simsets", "checker", "probmodel", "reports", "cli")


@dataclass(frozen=True)
class CheckWorkload:
    """`primesim check` of every even in [4, limit].

    The set is the primes up to limit or, when perturbed, a set that
    `primesim gen-set` writes during set-up and the job reads from file.
    """

    limit: int
    workers: int
    perturbed: bool
    time_limit_s: float = TIME_LIMIT_S


@dataclass(frozen=True)
class ModelWorkload:
    """The model's public functions in one child process (jobs.model_mc)."""

    m: int
    table_hi: int
    trials: int
    time_limit_s: float = TIME_LIMIT_S


WORKLOADS = {
    "check-primes-2e7": CheckWorkload(limit=20_000_000, workers=1, perturbed=False),
    "pipeline-perturbed-1e7": CheckWorkload(limit=10_000_000, workers=2, perturbed=True),
    "model-mc": ModelWorkload(m=10**9, table_hi=1_000_000, trials=25_000),
}
# Desk scale, outside the gated set: about 200 s and 450 MB per job.
OPT_IN = {
    "check-primes-1e8": CheckWorkload(
        limit=100_000_000, workers=1, perturbed=False, time_limit_s=3600.0
    ),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    stderr: str


class Run:
    """One benchmark invocation: a work directory, a deadline and the child processes."""

    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + workload.time_limit_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.rng = np.random.default_rng(seed)
        self.oracle: gates.SetOracle | None = None  # built after the timed jobs

    def path(self, name: str) -> str:
        return str(self.work / name)

    def child(self, argv: list[str]) -> Child:
        """Run argv to completion; peak RSS is this child's own, from wait4.

        A child started by vfork begins with this process's peak RSS, so
        the benchmark builds its oracles only after the timed jobs.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached")
        with open(self.path("stderr.txt"), "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-2000:]
        if time.monotonic() > self.deadline:
            raise BenchError(f"time limit reached in {argv[1:4]}")
        cpu = usage.ru_utime + usage.ru_stime
        return Child(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, tail)

    def jobs_py(self, spec: dict) -> tuple[Child, dict | None]:
        """Run benchmarks/jobs.py on spec; returns the child and its outcome file."""
        spec = dict(spec, outcome=self.path("outcome.json"), spans=self.path("spans.json"))
        with open(self.path("spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        child = self.child([PY, str(BENCH / "jobs.py"), self.path("spec.json")])
        if child.status != 0:
            return child, None
        with open(spec["outcome"], encoding="utf-8") as fh:
            return child, json.load(fh)

    def spans(self) -> list[list]:
        with open(self.path("spans.json"), encoding="utf-8") as fh:
            return json.load(fh)


@dataclass
class Job:
    """One job: its child, exit status, output body (timings removed) and problems."""

    child: Child
    status: int
    body: object
    problems: list[str]
    report_wall_s: float | None = None


def is_perturbed(workload) -> bool:
    return isinstance(workload, CheckWorkload) and workload.perturbed


# --- check workloads -------------------------------------------------------


def gen_set_argv(r: Run) -> list[str]:
    return [
        "gen-set", "--kind", "perturbed", "--limit", str(r.wl.limit), "--seed", str(r.seed),
        "--out", r.path("q.txt"), "--deviation-report", r.path("dev.json"),
    ]


def check_argv(r: Run, out: str) -> list[str]:
    if r.wl.perturbed:
        target = ["--set", "file", "--path", r.path("q.txt")]
    else:
        target = ["--set", "primes", "--limit", str(r.wl.limit)]
    return ["check", *target, "--lo", "4", "--hi", str(r.wl.limit),
            "--workers", str(r.wl.workers), "--out", out]


def set_oracle(r: Run) -> gates.SetOracle:
    if r.oracle is None:
        if r.wl.perturbed:
            r.oracle = gates.SetOracle.from_file(r.path("q.txt"))
        else:
            r.oracle = gates.SetOracle.primes(r.wl.limit)
    return r.oracle


def setup_gates(r: Run) -> list[str]:
    if not is_perturbed(r.wl):
        return []
    with open(r.path("dev.json"), encoding="utf-8") as fh:
        dev = json.load(fh)
    return gates.perturbed_set(set_oracle(r), dev, r.wl.limit)


def setup(r: Run) -> tuple[list[float], list[str]]:
    """Set up several times; returns the wall times and the set-up's problems."""
    perturbed = is_perturbed(r.wl)
    if perturbed:
        argv, repeats = [PY, "-m", "primesim.cli", *gen_set_argv(r)], SETUP_REPEATS["gen-set"]
    else:
        argv, repeats = [PY, "-c", "import primesim"], SETUP_REPEATS["import"]
    walls, digests = [], set()
    for _ in range(repeats):
        child = r.child(argv)
        if child.status != 0:
            raise BenchError(f"set-up exited {child.status}: {child.stderr}")
        walls.append(child.wall_s)
        if perturbed:
            digests.add(tuple(_digest(r.path(f)) for f in ("q.txt", "dev.json")))
    return walls, ["gen-set output differs between identical runs"] if len(digests) > 1 else []


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_job(child: Child, status: int, out: str) -> Job:
    if status not in (0, 1):
        return Job(child, status, None, [f"check exited {status}: {child.stderr}"])
    try:
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        wall_ms = report.pop("wall_ms")
    except (OSError, ValueError, KeyError) as exc:
        return Job(child, status, None, [f"unreadable report: {exc}"])
    return Job(child, status, report, [], wall_ms / 1000.0)


def gate_check(r: Run, job: Job) -> list[str]:
    return gates.check_report(
        job.body, set_oracle(r), lo=4, hi=r.wl.limit, status=job.status, rng=r.rng
    )


# --- model workload --------------------------------------------------------


def model_spec(r: Run) -> dict:
    return {"job": "model-mc", "seed": r.seed, "m": r.wl.m,
            "table_hi": r.wl.table_hi, "trials": r.wl.trials}


def model_job(child: Child, outcome: dict | None) -> Job:
    if outcome is None:
        return Job(child, child.status, None, [f"model job exited {child.status}: {child.stderr}"])
    return Job(child, outcome["status"], outcome["results"], [])


def gate_model(r: Run, job: Job) -> list[str]:
    wl = r.wl
    return gates.model_results(job.body, m=wl.m, table_hi=wl.table_hi, trials=wl.trials, rng=r.rng)


# --- shared flow ------------------------------------------------------------


def run_job(r: Run) -> Job:
    """One untraced job in a fresh child process."""
    if isinstance(r.wl, CheckWorkload):
        out = r.path("report.json")
        child = r.child([PY, "-m", "primesim.cli", *check_argv(r, out)])
        return check_job(child, child.status, out)
    return model_job(*r.jobs_py(model_spec(r)))


def gate_jobs(r: Run, jobs: list[Job], setup_problems: list[str]) -> None:
    """Gate the first readable output in full; every other job must repeat it exactly."""
    gate = gate_check if isinstance(r.wl, CheckWorkload) else gate_model
    reference, ref_problems = None, []
    for job in jobs:
        job.problems += setup_problems
        if job.body is None:
            continue
        if reference is None:
            reference, ref_problems = job, gate(r, job)
            job.problems += ref_problems
        elif (job.body, job.status) != (reference.body, reference.status):
            job.problems.append("output differs from the first job's")
        else:
            job.problems += ref_problems


def timed(r: Run, seconds: float) -> tuple[dict, list[Job], dict]:
    """Set up, then run jobs while the next one is expected to end within seconds."""
    setup_walls, setup_problems = setup(r)
    jobs = []
    t0 = time.perf_counter()
    while not jobs or (
        time.perf_counter() - t0 + statistics.median(j.child.wall_s for j in jobs) <= seconds
    ):
        jobs.append(run_job(r))
    gate_jobs(r, jobs, setup_problems + setup_gates(r))
    samples = {
        "setup_s": setup_walls,
        "wall_s": [j.child.wall_s for j in jobs],
        "peak_rss_mb": [j.child.rss_mb for j in jobs],
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    samples["cpu_s"] = [j.child.cpu_s for j in jobs]
    return metrics, jobs, samples


# --- traced run ---------------------------------------------------------------


PER_LAYER_UNITS = {
    "numset.sieve_s": "s", "numset.save_s": "s", "numset.file_bytes": "bytes",
    "numset.load_s": "s", "numset.reversed_words_s": "s",
    "simsets.perturb_s": "s", "simsets.similarity_s": "s",
    "checker.check_range_s": "s", "checker.scan_s": "s", "checker.scan_probes": "count",
    "checker.pair_count_s": "s", "checker.pair_count_calls": "count",
    "checker.pair_count_bytes": "bytes", "checker.workers2_speedup": "x",
    "probmodel.exact_prob_s": "s", "probmodel.exact_prob_heap_mb": "MB",
    "probmodel.model_table_s": "s", "probmodel.mc_s": "s", "probmodel.mc_trials_per_s": "1/s",
    "probmodel.mc_cells_within_4sigma": "ratio",
    "reports.dump_s": "s", "reports.report_bytes": "bytes", "cli.overhead_s": "s",
    **{f"{m}.heap_peak_mb": "MB" for m in MODULES},
    "trace.overhead_s": "s", "job.evens_per_s": "1/s", "job.counts_per_s": "1/s",
    "job.error_rate": "ratio",
}


class SpanIndex:
    """Totals over span records of one traced run (set-up and job)."""

    def __init__(self, records: list[dict]):
        self.records = records
        self.by_id = {s["id"]: s for s in records}

    def ancestors(self, s: dict):
        while s["parent"] is not None:
            s = self.by_id[s["parent"]]
            yield s["name"]

    def spans(self, name: str, outside: str | None = None) -> list[dict]:
        """Spans called name that are not nested in a span called name or outside."""
        return [
            s for s in self.records
            if s["name"] == name and not any(a in (name, outside) for a in self.ancestors(s))
        ]

    def seconds(self, name: str, outside: str | None = None) -> float:
        return sum((s["end"] - s["start"] for s in self.spans(name, outside)), 0.0)

    def heap_mb(self, module: str) -> float:
        return max(
            (s["heap_mb"] for s in self.records if s["name"].startswith(module + ".")), default=0.0
        )


def traced(r: Run) -> tuple[dict, list[Job], dict, list[dict]]:
    """An untraced job, then the job in a timed pass with spans and in a heap pass.

    The pipeline's gen-set runs in both passes first. Metrics of layers a
    workload never calls read 0.
    """
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    is_check = isinstance(r.wl, CheckWorkload)
    records = {"spans": [], "heap": []}
    if is_perturbed(r.wl):
        for mode in records:
            child, outcome = r.jobs_py({"job": "cli", "argv": gen_set_argv(r), "trace": mode})
            if outcome is None or outcome["status"] != 0:
                raise BenchError(f"traced gen-set exited {child.status}: {child.stderr}")
            records[mode] += label_spans(r.spans(), f"setup-{mode}")
        values["numset.file_bytes"] = os.path.getsize(r.path("q.txt"))
    plain = run_job(r)
    jobs, outcomes = [plain], {}
    for mode in records:
        if is_check:
            spec = {"job": "cli", "argv": check_argv(r, r.path("traced.json")), "trace": mode}
            if mode == "spans":
                spec["extras"] = {
                    "set": r.path("q.txt") if r.wl.perturbed else "primes", "limit": r.wl.limit,
                    "range": [4, r.wl.limit], "workers": [1, 2] if r.wl.workers > 1 else [],
                }
        else:
            spec = dict(model_spec(r), trace=mode)
        child, outcome = r.jobs_py(spec)
        if outcome is None:
            raise BenchError(f"traced job exited {child.status}: {child.stderr}")
        outcomes[mode] = child, outcome
        jobs.append(check_job(child, outcome["status"], r.path("traced.json")) if is_check
                    else model_job(child, outcome))
        records[mode] += label_spans(r.spans(), f"job-{mode}")
    gate_jobs(r, jobs, setup_gates(r))
    idx, heap = SpanIndex(records["spans"]), SpanIndex(records["heap"])
    for name, fn in (("numset.sieve_s", "numset.primes_up_to"), ("numset.save_s", "numset.save_set"),
                     ("numset.load_s", "numset.load_set"),
                     ("numset.reversed_words_s", "numset.reversed_words"),
                     ("simsets.perturb_s", "simsets.perturb_primes"),
                     ("simsets.similarity_s", "simsets.similarity"),
                     ("checker.check_range_s", "checker.check_range"),
                     ("checker.scan_s", "checker.minimal_representations"),
                     ("reports.dump_s", "reports.dump_json"),
                     ("probmodel.model_table_s", "probmodel.model_table"),
                     ("probmodel.mc_s", "probmodel.monte_carlo_disjoint")):
        values[name] = idx.seconds(fn)
    for m in MODULES:
        values[f"{m}.heap_peak_mb"] = heap.heap_mb(m)
    child, outcome = outcomes["spans"]
    if is_check:
        check_layers(r, values, idx, plain, outcome["extras"], jobs[1])
    else:
        model_layers(values, idx, heap, plain)
    values["trace.overhead_s"] = child.wall_s - outcome["tail_s"] - plain.child.wall_s
    values["job.error_rate"] = sum(bool(j.problems) for j in jobs) / len(jobs)
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    return metrics, jobs, {k: [v] for k, v in values.items()}, records["spans"] + records["heap"]


def label_spans(spans: list[list], phase: str) -> list[dict]:
    """Span records from jobs.py, with ids made unique across the run's children."""
    return [
        {"id": f"{phase}:{i}", "name": name, "parent": None if parent < 0 else f"{phase}:{parent}",
         "start": start, "end": end, "heap_mb": heap, "arg": arg}
        for i, name, parent, start, end, heap, arg in spans
    ]


def check_layers(r: Run, values: dict, idx: SpanIndex, plain: Job, extras: dict,
                 traced_job: Job) -> None:
    if plain.body is not None and extras["scan_failures"] != plain.body["failures"]:
        traced_job.problems.append("minimal_representations failures differ from the report's")
    set_limit = r.wl.limit + 1 if r.wl.perturbed else r.wl.limit
    counts = idx.spans("checker.pair_count")
    values["checker.scan_probes"] = extras["scan_probes"]
    values["checker.pair_count_s"] = sum(s["end"] - s["start"] for s in counts)
    values["checker.pair_count_calls"] = len(counts)
    values["checker.pair_count_bytes"] = sum(window_bytes(s["arg"], set_limit) for s in counts)
    values["reports.report_bytes"] = os.path.getsize(r.path("report.json"))
    walls = extras["check_range_s"]
    if walls:
        values["checker.workers2_speedup"] = walls["1"] / walls["2"]
    if plain.body is not None:
        wall = plain.child.wall_s
        values["cli.overhead_s"] = wall - plain.report_wall_s
        values["job.evens_per_s"] = ((r.wl.limit - 4) // 2 + 1) / wall
        values["job.counts_per_s"] = sum(b["sampled"] for b in plain.body["buckets"]) / wall


def window_bytes(even: int, limit: int) -> int:
    """Bytes pair_count reads for one even: two windows of ceil(window / 64) words."""
    window = even // 2 - max(1, even - limit) + 1
    return 16 * -(-window // 64) if window > 0 else 0


def model_layers(values: dict, idx: SpanIndex, heap: SpanIndex, plain: Job) -> None:
    exact = idx.spans("probmodel.exact_disjoint_prob", outside="probmodel.model_table")
    values["probmodel.exact_prob_s"] = sum(s["end"] - s["start"] for s in exact)
    exact = heap.spans("probmodel.exact_disjoint_prob", outside="probmodel.model_table")
    values["probmodel.exact_prob_heap_mb"] = max((s["heap_mb"] for s in exact), default=0.0)
    if plain.body is not None:
        mc = plain.body["mc"]
        values["probmodel.mc_trials_per_s"] = sum(cell[4] for cell in mc) / values["probmodel.mc_s"]
        values["probmodel.mc_cells_within_4sigma"] = gates.mc_within(mc) / len(mc)


# --- entry point ---------------------------------------------------------------


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
        "note": "every working set fits in L3; DRAM-bound behaviour is not measured",
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_size() -> str | None:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            pass
    return None


def _steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_benchmark(name: str, workload, seed: int, seconds: float, trace: bool,
                  out_dir: Path = OUT) -> dict:
    """Run one workload; writes the full record (and spans) to out_dir, returns the result line."""
    if not (SRC / "primesim" / "__init__.py").is_file():
        raise BenchError(f"no primesim source at {SRC}; run from the root of a primesim checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir))
    steal = _steal_s()
    try:
        r = Run(workload, seed, work)
        if trace:
            metrics, jobs, samples, records = traced(r)
        else:
            metrics, jobs, samples = timed(r, seconds)
            records = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(bool(j.problems) for j in jobs)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": environment(seed), "result": result,
        "error_rate": failed / len(jobs), "samples": samples,
        "steal_s": _steal_s() - steal,
        "problems": sorted({p for j in jobs for p in j.problems}),
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if records:
        run_id = uuid.uuid4().hex
        for span in records:
            span.update(workload=name, run_id=run_id)
        with open(out_dir / f"{name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(records, fh)
    _summary(record)
    return result


def _summary(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{result['attempted']} jobs, {result['failed']} failed, "
          f"error_rate {record['error_rate']:.3g}, steal {record['steal_s']:.2f} s", file=sys.stderr)
    for name, m in result["metrics"].items():
        v = record["samples"][name]
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} n={len(v)} "
              f"min={min(v):.6g} max={max(v):.6g}", file=sys.stderr)
    for p in record["problems"]:
        print(f"  PROBLEM: {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *OPT_IN])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = {**WORKLOADS, **OPT_IN}[args.workload]
    try:
        result = run_benchmark(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
