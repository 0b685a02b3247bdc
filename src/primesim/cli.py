"""Command-line front end: reproducible experiment runs with persisted reports.

Exit status: 0 on success, 1 when a check run finds failures at or above
the --allow-below threshold, 2 on usage or input errors. Every report
embeds the run configuration (minus runtime-only knobs like --workers,
which must not change report bytes) and the tool version.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import __version__
from .checker import BUCKET_WIDTH, SAMPLE_STRIDE, a_set, b_set, check_range, disjoint, find_representation
from .errors import DomainError, SetFormatError
from .numset import DEFAULT_SEGMENT_SIZE, primes_up_to, save_set
from .probmodel import coefficient_c, model_table, tail_integral
from .reports import (
    SCHEMA_VERSION,
    check_report_csv,
    check_report_dict,
    dump_json,
    model_table_csv,
    model_table_dict,
    plot_data_csv,
    plot_series_from_report,
)
from .simsets import SetSpec, build, deviation_series, similarity

_KINDS = ("primes", "perturbed", "shifted", "file")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; identical configs give identical reports."""

    command: str
    spec: SetSpec | None = None
    lo: int | None = None
    hi: int | None = None
    output: str | None = None
    fmt: str = "json"
    workers: int = 1
    slow_mode: bool = False
    allow_below: int = 42
    bucket_width: int = BUCKET_WIDTH
    sample_stride: int = SAMPLE_STRIDE
    n: int | None = None
    n_max: int | None = None
    n_step: int | None = None
    p_max: int | None = None
    c_from_pmax: int | None = None
    damping_c: float | None = None
    tail_from: int | None = None
    limit: int | None = None
    segment_size: int = DEFAULT_SEGMENT_SIZE
    input_path: str | None = None
    plot_data: bool = False
    deviation_report: str | None = None

    _HEADER_FIELDS = {
        "sieve": ("limit",),
        "gen-set": (),
        "check": ("lo", "hi", "fmt", "slow_mode", "allow_below", "bucket_width", "sample_stride"),
        "anb": ("n",),
        "prob": ("n", "n_max", "n_step", "p_max", "c_from_pmax", "damping_c", "fmt"),
        "tail": ("tail_from", "damping_c"),
        "report": (),
    }

    def header(self) -> dict:
        """Experiment-identity fields embedded in every report.

        Excludes --workers and --out: report bodies must be byte-identical
        for any worker count, and the destination is not part of the
        experiment. --segment-size is likewise invisible in the output.
        """
        cfg: dict[str, object] = {"command": self.command}
        for key in self._HEADER_FIELDS[self.command]:
            value = getattr(self, key)
            if value is not None:
                cfg[key] = value
        if self.spec is not None:
            cfg["spec"] = self.spec.to_dict()
        return {"version": __version__, "config": cfg}

    def header_lines(self) -> list[str]:
        header = self.header()
        lines = [f"primesim {header['version']}"]
        for key, value in header["config"].items():
            if key == "spec":
                lines.extend(
                    f"spec.{k}={v}" for k, v in value.items()  # type: ignore[union-attr]
                )
            else:
                lines.append(f"{key}={value}")
        return lines


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from_args(args: argparse.Namespace) -> SetSpec:
    """Resolve --set: a kind name plus inline flags, or a spec-file path."""
    token = args.set
    if token in _KINDS:
        spec = SetSpec(
            kind=token,
            limit=args.limit,
            seed=args.seed,
            shift_t=args.shift,
            path=args.path,
        )
    elif os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            spec = SetSpec.from_text(fh.read())
    else:
        raise DomainError(
            f"--set must be one of {_KINDS} or an existing spec file, got {token!r}"
        )
    spec.validate()
    return spec


def _run_sieve(config: RunConfig) -> int:
    ns = primes_up_to(config.limit, config.segment_size)
    if config.output:
        save_set(ns, config.output, header_comments=config.header_lines())
    else:
        doc = config.header()
        doc["limit"] = ns.limit
        doc["count"] = len(ns)
        sys.stdout.write(dump_json({"schema_version": SCHEMA_VERSION, **doc}))
    return 0


def _run_gen_set(config: RunConfig) -> int:
    ns = build(config.spec)
    save_set(ns, config.output, header_comments=config.header_lines())
    if config.deviation_report:
        primes = primes_up_to(min(ns.limit, config.spec.limit or ns.limit))
        report = similarity(ns, primes, step=1)
        grid, devs = deviation_series(ns, primes)
        doc = config.header()
        doc_out = {
            "schema_version": SCHEMA_VERSION,
            **doc,
            "spec": config.spec.to_dict(),
            "max_deviation": report.max_deviation,
            "bound_c": report.bound_c,
            "samples": report.samples,
            "witness_n": report.witness_n,
            "series": [[int(n), int(d)] for n, d in zip(grid, devs)],
        }
        with open(config.deviation_report, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc_out))
    return 0


def _run_check(config: RunConfig) -> int:
    ns = build(config.spec)
    report = check_range(
        ns,
        config.lo,
        config.hi,
        workers=config.workers,
        slow_mode=config.slow_mode,
        bucket_width=config.bucket_width,
        sample_stride=config.sample_stride,
        set_spec=config.spec,
    )
    if config.fmt == "csv":
        _emit(config, check_report_csv(report, config.header_lines()))
    else:
        _emit(config, dump_json(check_report_dict(report, config.header())))
    blocking = [n for n in report.failures if n >= config.allow_below]
    return 1 if blocking else 0


def _run_anb(config: RunConfig) -> int:
    ns = build(config.spec)
    n = config.n
    a = a_set(ns, n)
    b = b_set(ns, n)
    rep = find_representation(ns, 2 * n)
    doc = {
        "schema_version": SCHEMA_VERSION,
        **config.header(),
        "n": n,
        "a_members": a.members.tolist(),
        "b_members": b.members.tolist(),
        "a_size": len(a),
        "b_size": len(b),
        "disjoint": disjoint(a, b),
        "representation": list(rep) if rep else None,
    }
    _emit(config, dump_json(doc))
    return 0


def _run_prob(config: RunConfig) -> int:
    damping = config.damping_c
    if config.c_from_pmax is not None:
        damping = coefficient_c(config.c_from_pmax)
    if config.n_max is not None:
        step = config.n_step or max(1, (config.n_max - config.n) // 100)
        ns = range(config.n, config.n_max + 1, step)
    else:
        ns = [config.n]
    rows = model_table(ns, p_max=config.p_max, damping_c=damping)
    if config.fmt == "csv":
        _emit(config, model_table_csv(rows, config.header_lines()))
    else:
        _emit(config, dump_json(model_table_dict(rows, config.header())))
    return 0


def _run_tail(config: RunConfig) -> int:
    lp = tail_integral(config.tail_from, config.damping_c)
    doc = {
        "schema_version": SCHEMA_VERSION,
        **config.header(),
        "from": config.tail_from,
        "damping_c": config.damping_c,
        "ln_tail": lp.ln_value,
        "log10_tail": lp.log10,
    }
    _emit(config, dump_json(doc))
    return 0


def _run_report(config: RunConfig) -> int:
    if not config.plot_data:
        raise DomainError("report currently supports --plot-data only")
    series = plot_series_from_report(config.input_path)
    _emit(config, plot_data_csv(series))
    return 0


_RUNNERS = {
    "sieve": _run_sieve,
    "gen-set": _run_gen_set,
    "check": _run_check,
    "anb": _run_anb,
    "prob": _run_prob,
    "tail": _run_tail,
    "report": _run_report,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved run; returns the process exit status."""
    try:
        return _RUNNERS[config.command](config)
    except (DomainError, SetFormatError, ValueError, OSError) as exc:
        print(f"primesim {config.command}: {exc}", file=sys.stderr)
        return 2


def _add_set_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--set", required=True, help="set kind (inline flags) or spec file")
    sub.add_argument("--limit", type=int, help="universe limit for inline specs")
    sub.add_argument("--seed", type=int, help="seed for perturbed sets")
    sub.add_argument("--shift", type=int, help="translation for shifted sets")
    sub.add_argument("--path", help="set file for kind=file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primesim",
        description="Prime-similar sets, Goldbach-style verification, log-space model evaluation",
    )
    parser.add_argument("--version", action="version", version=f"primesim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sieve", help="sieve primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE)
    p.add_argument("--out", help="write the set file here (default: JSON summary to stdout)")

    p = subs.add_parser("gen-set", help="construct a set and write it to a file")
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--shift", type=int)
    p.add_argument("--path")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--deviation-report",
        help="also write a JSON similarity-vs-primes report (exhaustive scan)",
    )

    p = subs.add_parser("check", help="verify even numbers in a range")
    _add_set_args(p)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--allow-below", type=int, default=42,
                   help="failures below this even number do not affect exit status")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--slow", action="store_true", help="count representations for every even")
    p.add_argument("--bucket-width", type=int, default=BUCKET_WIDTH)
    p.add_argument("--sample-stride", type=int, default=SAMPLE_STRIDE)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report destination (default stdout)")

    p = subs.add_parser("anb", help="materialize the distance sets at a midpoint")
    _add_set_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = subs.add_parser("prob", help="evaluate the disjointness model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pmax", type=int, choices=(2, 3), help="residue-filter the slot domain")
    p.add_argument("--c-from-pmax", type=int, help="damping coefficient from primes up to here")
    p.add_argument("--c", type=float, help="explicit damping coefficient")
    p.add_argument("--n-max", type=int, help="evaluate a grid up to here")
    p.add_argument("--n-step", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = subs.add_parser("tail", help="tail integral of the damping bound")
    p.add_argument("--from", dest="tail_from", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--out")

    p = subs.add_parser("report", help="re-emit a report as plot data")
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--plot-data", action="store_true")
    p.add_argument("--out")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "sieve":
        if args.limit is None or args.limit < 2:
            raise DomainError("sieve needs --limit >= 2")
        return RunConfig(
            command=command,
            limit=args.limit,
            segment_size=args.segment_size,
            output=args.out,
        )
    if command == "gen-set":
        spec = SetSpec(
            kind=args.kind,
            limit=args.limit,
            seed=args.seed,
            shift_t=args.shift,
            path=args.path,
        )
        spec.validate()
        return RunConfig(
            command=command,
            spec=spec,
            output=args.out,
            deviation_report=args.deviation_report,
        )
    if command == "check":
        spec = _spec_from_args(args)
        return RunConfig(
            command=command,
            spec=spec,
            lo=args.lo,
            hi=args.hi,
            allow_below=args.allow_below,
            workers=args.workers,
            slow_mode=args.slow,
            bucket_width=args.bucket_width,
            sample_stride=args.sample_stride,
            fmt=args.format,
            output=args.out,
        )
    if command == "anb":
        spec = _spec_from_args(args)
        return RunConfig(command=command, spec=spec, n=args.n, output=args.out)
    if command == "prob":
        return RunConfig(
            command=command,
            n=args.n,
            n_max=args.n_max,
            n_step=args.n_step,
            p_max=args.pmax,
            c_from_pmax=args.c_from_pmax,
            damping_c=args.c,
            fmt=args.format,
            output=args.out,
        )
    if command == "tail":
        return RunConfig(
            command=command,
            tail_from=args.tail_from,
            damping_c=args.c,
            output=args.out,
        )
    if command == "report":
        return RunConfig(
            command=command,
            input_path=args.input_path,
            plot_data=args.plot_data,
            output=args.out,
        )
    raise DomainError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (DomainError, ValueError) as exc:
        print(f"primesim: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
