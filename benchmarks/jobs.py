"""Child-process side of the benchmark: the model-mc job and the traced runner.

    python3 benchmarks/jobs.py SPEC.json

SPEC.json names one job, {"job": "cli", "argv": [...]} for an in-process
`primesim` command or {"job": "model-mc", ...}, and the files to write the
outcome and the spans to. With "trace" set, the runner first wraps every
public function of primesim's modules in a span (see Tracer). "spans"
records times only, and then makes the measurements listed under "extras";
"heap" also records each span's tracemalloc heap peak, which slows
allocation-heavy code too much to time it in the same pass. The outcome
holds the exit status, the job's results and "tail_s", the time spent
after the job, which the caller subtracts from the process's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np

MODULES = ("numset", "simsets", "checker", "probmodel", "reports", "cli")
SPAN_CAPACITY = 1 << 20
MC_KS = (0, 1, 2, 3, 5, 7, 10)
MC_MS = (4, 10, 20, 30, 40, 50)


def model_mc(seed: int, m: int, table_hi: int, trials: int) -> dict:
    """The model workload: exact probability at m, the model table, the Monte Carlo grid."""
    from primesim import exact_disjoint_prob, log_f, model_table, monte_carlo_disjoint, tail_integral

    k = round(m / math.log(m))
    out = {"exact": {"m": m, "k": k, "ln_p": exact_disjoint_prob(m, k, k).ln_value}}
    out["refs"] = {
        "log10_f_1e4": log_f(10_000).log10,
        "log10_f_4e4": log_f(40_000).log10,
        "log10_tail_2e4": tail_integral(20_000).log10,
        "log10_tail_5e4": tail_integral(50_000).log10,
    }
    rows = model_table(range(1000, table_hi + 1, 1000), p_max=3)
    out["rows"] = [
        [r.n, r.k, r.domain_size, r.damping_c, r.ln_p_exact, r.log10_f, r.log10_tail] for r in rows
    ]
    out["mc"] = []
    for mm in MC_MS:
        for k1 in MC_KS:
            for k2 in MC_KS:
                if k1 <= mm and k2 <= mm:
                    res = monte_carlo_disjoint(mm, k1, k2, trials, seed)
                    out["mc"].append([mm, k1, k2, res.frequency, res.trials])
    return out


class Tracer:
    """Spans around calls into primesim, kept in preallocated arrays.

    A span holds its name, start and end (seconds since the tracer
    started), its parent span, the first int among the call's positional
    arguments and, when heap is set, its heap peak: the tracemalloc peak
    during the span above the traced heap at its start. The peak counter
    is global, so every open span takes the peak before a new span resets
    it. The arrays are allocated up front so that recording spans adds
    nothing to the heap peaks it measures.
    """

    def __init__(self, heap: bool):
        self.heap = heap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = np.zeros(SPAN_CAPACITY, dtype=np.int32)
        self._parent = np.full(SPAN_CAPACITY, -1, dtype=np.int32)
        self._arg = np.full(SPAN_CAPACITY, -1, dtype=np.int64)
        self._time = np.zeros((SPAN_CAPACITY, 3))  # start, end, heap MB
        self._count = 0
        self._open: dict[int, list[int]] = {}  # span -> [heap at start, peak]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._t0 = time.perf_counter()
        self.enabled = True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, args: tuple) -> int:
        stack = self._stack()
        outer = stack or self._main  # a pool thread's spans hang off the main thread's
        with self._lock:
            i = self._count
            if i == SPAN_CAPACITY:
                raise RuntimeError(f"more than {SPAN_CAPACITY} spans")
            self._count += 1
            if self.heap:
                current, peak = tracemalloc.get_traced_memory()
                for mem in self._open.values():
                    mem[1] = max(mem[1], peak)
                tracemalloc.reset_peak()
                self._open[i] = [current, current]
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            self._name[i] = self._name_ids[name]
            self._parent[i] = outer[-1] if outer else -1
            self._arg[i] = next((a for a in args if type(a) is int), -1)
        stack.append(i)
        self._time[i, 0] = time.perf_counter() - self._t0
        return i

    def _exit(self, i: int) -> None:
        end = time.perf_counter() - self._t0
        self._stack().pop()
        self._time[i, 1] = end
        if self.heap:
            with self._lock:
                base, peak = self._open.pop(i)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            self._time[i, 2] = max(0, peak - base) / 2**20

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._enter(name, ())
        try:
            yield
        finally:
            self._exit(i)

    @contextlib.contextmanager
    def paused(self):
        """Run untraced: no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._enter(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i)

        return traced

    def install(self) -> None:
        """Wrap every public function of primesim's modules, wherever it is bound."""
        import primesim
        from primesim.numset import NumberSet

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"primesim.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and attr[0] != "_":
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if mod is primesim or name.startswith("primesim."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])
        NumberSet.reversed_words = self.wrap("numset.reversed_words", NumberSet.reversed_words)

    def records(self) -> list[list]:
        """[id, name, parent, start, end, heap_mb, first int arg] per span."""
        n = self._count
        return [
            [i, self.names[name], parent, start, end, heap, arg]
            for i, name, parent, (start, end, heap), arg in zip(
                range(n),
                self._name[:n].tolist(),
                self._parent[:n].tolist(),
                self._time[:n].tolist(),
                self._arg[:n].tolist(),
            )
        ]


def run_job(spec: dict) -> tuple[int, dict | None]:
    if spec["job"] == "cli":
        from primesim import cli

        return cli.main(spec["argv"]), None
    return 0, model_mc(spec["seed"], spec["m"], spec["table_hi"], spec["trials"])


def run_extras(extras: dict, tracer: Tracer) -> dict:
    """Per-layer measurements made after a traced check job, on the same set and range."""
    from primesim import checker, numset

    with tracer.paused():
        if extras["set"] == "primes":
            setQ = numset.primes_up_to(extras["limit"])
        else:
            setQ = numset.load_set(extras["set"])
    lo, hi = extras["range"]
    q1 = checker.minimal_representations(setQ, lo, hi)
    failures = np.arange(lo, hi + 2, 2, dtype=np.int64)[q1 == 0]
    probes = np.searchsorted(setQ.elements, q1[q1 > 0], side="right").sum()
    probes += np.searchsorted(setQ.elements, failures // 2, side="right").sum()
    out = {"scan_failures": failures.tolist(), "scan_probes": int(probes), "check_range_s": {}}
    with tracer.paused():
        for workers in extras["workers"]:
            t0 = time.perf_counter()
            checker.check_range(setQ, lo, hi, workers=workers)
            out["check_range_s"][workers] = time.perf_counter() - t0
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        if spec["trace"] == "heap":
            tracemalloc.start()
        tracer = Tracer(heap=spec["trace"] == "heap")
        tracer.install()
    with tracer.span("bench.job") if tracer else contextlib.nullcontext():
        status, results = run_job(spec)
    t1 = time.perf_counter()
    outcome = {"status": status, "results": results}
    if tracer:
        if "extras" in spec:
            with tracer.span("bench.extras"):
                outcome["extras"] = run_extras(spec["extras"], tracer)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)
    outcome["tail_s"] = time.perf_counter() - t1
    with open(spec["outcome"], "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
