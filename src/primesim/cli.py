"""Command-line front end: reproducible experiment runs with persisted reports.

Exit status: 0 on success, 1 when a check run finds failures at or above
the --allow-below threshold, 2 on usage or input errors. Each argparse
dest is named after the report-header key it fills, so one table,
_HEADER_KEYS, decides which parsed arguments every report of a command
embeds, next to the resolved set spec and the tool version.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .checker import BUCKET_WIDTH, SAMPLE_STRIDE, a_set, b_set, check_range, disjoint, find_representation
from .errors import DomainError
from .numset import primes_up_to, save_set
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

# Report-header keys per command, in output order; the set spec follows them.
# --workers and --out stay out: report bodies must be byte-identical for any
# worker count, and the destination is not part of the experiment.
_HEADER_KEYS = {
    "sieve": ("limit",),
    "gen-set": (),
    "check": ("lo", "hi", "fmt", "slow_mode", "allow_below", "bucket_width", "sample_stride"),
    "anb": ("n",),
    "prob": ("n", "n_max", "n_step", "p_max", "c_from_pmax", "damping_c", "fmt"),
    "tail": ("tail_from", "damping_c"),
    "report": (),
}


def _header(args: argparse.Namespace) -> dict:
    """Experiment-identity fields embedded in every report."""
    cfg: dict[str, object] = {"command": args.command}
    for key in _HEADER_KEYS[args.command]:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if args.spec is not None:
        cfg["spec"] = args.spec.to_dict()
    return {"version": __version__, "config": cfg}


def _header_lines(args: argparse.Namespace) -> list[str]:
    header = _header(args)
    lines = [f"primesim {header['version']}"]
    for key, value in header["config"].items():
        if key == "spec":
            lines.extend(
                f"spec.{k}={v}" for k, v in value.items()  # type: ignore[union-attr]
            )
        else:
            lines.append(f"{key}={value}")
    return lines


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from_args(args: argparse.Namespace) -> SetSpec:
    """Resolve --set (gen-set: --kind): a kind name plus inline flags, or a spec-file path."""
    token = args.set
    if token in _KINDS:
        return SetSpec(
            kind=token,
            limit=args.limit,
            seed=args.seed,
            shift_t=args.shift,
            path=args.path,
        )
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return SetSpec.from_text(fh.read())
    raise DomainError(
        f"--set must be one of {_KINDS} or an existing spec file, got {token!r}"
    )


def _run_sieve(args: argparse.Namespace) -> int:
    ns = primes_up_to(args.limit)
    if args.out:
        save_set(ns, args.out, header_comments=_header_lines(args))
    else:
        doc = _header(args)
        doc["limit"] = ns.limit
        doc["count"] = len(ns)
        sys.stdout.write(dump_json({"schema_version": SCHEMA_VERSION, **doc}))
    return 0


def _run_gen_set(args: argparse.Namespace) -> int:
    ns = build(args.spec)
    save_set(ns, args.out, header_comments=_header_lines(args))
    if args.deviation_report:
        primes = primes_up_to(min(ns.limit, args.spec.limit or ns.limit))
        report = similarity(ns, primes, step=1)
        grid, devs = deviation_series(ns, primes)
        doc_out = {
            "schema_version": SCHEMA_VERSION,
            **_header(args),
            "spec": args.spec.to_dict(),
            "max_deviation": report.max_deviation,
            "bound_c": report.bound_c,
            "samples": report.samples,
            "witness_n": report.witness_n,
            "series": [[int(n), int(d)] for n, d in zip(grid, devs)],
        }
        with open(args.deviation_report, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc_out))
    return 0


def _run_check(args: argparse.Namespace) -> int:
    ns = build(args.spec)
    report = check_range(
        ns,
        args.lo,
        args.hi,
        workers=args.workers,
        slow_mode=args.slow_mode,
        bucket_width=args.bucket_width,
        sample_stride=args.sample_stride,
        set_spec=args.spec,
    )
    if args.fmt == "csv":
        _emit(args, check_report_csv(report, _header_lines(args)))
    else:
        _emit(args, dump_json(check_report_dict(report, _header(args))))
    blocking = [n for n in report.failures if n >= args.allow_below]
    return 1 if blocking else 0


def _run_anb(args: argparse.Namespace) -> int:
    ns = build(args.spec)
    n = args.n
    a = a_set(ns, n)
    b = b_set(ns, n)
    rep = find_representation(ns, 2 * n)
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_header(args),
        "n": n,
        "a_members": a.members.tolist(),
        "b_members": b.members.tolist(),
        "a_size": len(a),
        "b_size": len(b),
        "disjoint": disjoint(a, b),
        "representation": list(rep) if rep else None,
    }
    _emit(args, dump_json(doc))
    return 0


def _run_prob(args: argparse.Namespace) -> int:
    if args.n_step is not None and args.n_step < 1:
        raise DomainError("--n-step must be >= 1")
    damping = args.damping_c
    if args.c_from_pmax is not None:
        damping = coefficient_c(args.c_from_pmax)
    if args.n_max is not None:
        step = args.n_step or max(1, (args.n_max - args.n) // 100)
        ns = range(args.n, args.n_max + 1, step)
    else:
        ns = [args.n]
    rows = model_table(ns, p_max=args.p_max, damping_c=damping)
    if args.fmt == "csv":
        _emit(args, model_table_csv(rows, _header_lines(args)))
    else:
        _emit(args, dump_json(model_table_dict(rows, _header(args))))
    return 0


def _run_tail(args: argparse.Namespace) -> int:
    lp = tail_integral(args.tail_from, args.damping_c)
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_header(args),
        "from": args.tail_from,
        "damping_c": args.damping_c,
        "ln_tail": lp.ln_value,
        "log10_tail": lp.log10,
    }
    _emit(args, dump_json(doc))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    if not args.plot_data:
        raise DomainError("report currently supports --plot-data only")
    series = plot_series_from_report(args.input_path)
    _emit(args, plot_data_csv(series))
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
    p.add_argument("--out", help="write the set file here (default: JSON summary to stdout)")

    p = subs.add_parser("gen-set", help="construct a set and write it to a file")
    # dest "set", like --set of check and anb, so one resolver builds every spec
    p.add_argument("--kind", dest="set", choices=_KINDS, required=True)
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
    p.add_argument("--slow", dest="slow_mode", action="store_true",
                   help="count representations for every even")
    p.add_argument("--bucket-width", type=int, default=BUCKET_WIDTH)
    p.add_argument("--sample-stride", type=int, default=SAMPLE_STRIDE)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report destination (default stdout)")

    p = subs.add_parser("anb", help="materialize the distance sets at a midpoint")
    _add_set_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = subs.add_parser("prob", help="evaluate the disjointness model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pmax", dest="p_max", type=int, choices=(2, 3),
                   help="residue-filter the slot domain")
    p.add_argument("--c-from-pmax", type=int, help="damping coefficient from primes up to here")
    p.add_argument("--c", dest="damping_c", metavar="C", type=float,
                   help="explicit damping coefficient")
    p.add_argument("--n-max", type=int, help="evaluate a grid up to here")
    p.add_argument("--n-step", type=int)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = subs.add_parser("tail", help="tail integral of the damping bound")
    p.add_argument("--from", dest="tail_from", type=int, required=True)
    p.add_argument("--c", dest="damping_c", metavar="C", type=float, default=1.0)
    p.add_argument("--out")

    p = subs.add_parser("report", help="re-emit a report as plot data")
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--plot-data", action="store_true")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse, resolve the set spec once, dispatch; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        args.spec = _spec_from_args(args) if "set" in args else None
        return _RUNNERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"primesim {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
