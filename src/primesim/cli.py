"""Command-line front end: reproducible experiment runs with persisted reports.

Exit status: 0 on success, 1 when a check run finds failures at or above
the --allow-below threshold, 2 on usage or input errors, 3 when a numeric
self-check fails: the FFT counts' rounding residual or their pair_count
spot-check (ArithmeticError), or the tail integrand's monotonicity
(RuntimeError). Each argparse dest is named after the report-header key
it fills, so one table, _HEADER_KEYS, decides which parsed arguments
every report of a command embeds, next to the resolved set spec and the
tool version.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple

from . import __version__
from .checker import BUCKET_WIDTH, SAMPLE_STRIDE, a_set, b_set, check_range, disjoint, find_representation, validate_layout
from .errors import DomainError
from .numset import primes_up_to, save_set
from .probmodel import coefficient_c, model_table, tail_integral
from .reports import document, plot_series_from_report, table_csv
from .simsets import KINDS, SetSpec, build, similarity

# The inline flag of each SetSpec field but kind: (flag, type, help).
_SET_FLAGS = {
    "limit": ("--limit", int, "universe limit for inline specs"),
    "seed": ("--seed", int, "seed for perturbed sets"),
    "shift_t": ("--shift", int, "translation for shifted sets"),
    "path": ("--path", str, "set file for kind=file"),
}

# Rows in one prob table; a row near n = 1e6 takes about 1 ms.
PROB_MAX_ROWS = 10_000
# Largest row n of a prob table: one row at n = 1e9 takes about 0.6 s.
PROB_MAX_N = 10**9
# Largest --c-from-pmax: the exact product over primes to 1e5 takes about 0.4 s.
PROB_MAX_C_PMAX = 100_000

# Table columns in BucketStats and ModelRow field order; JSON rows use them as keys.
BUCKET_COLUMNS = ("lo", "hi", "sampled", "min_reps", "mean_reps")
MODEL_COLUMNS = ("n", "k", "domain_size", "damping_c", "ln_P_exact", "log10_f", "log10_tail")

# Report-header keys per command, in output order; the set spec follows them.
# --workers and --out stay out: report bodies must be byte-identical for any
# worker count, and the destination is not part of the experiment.
_HEADER_KEYS = {
    "sieve": ("limit",),
    "gen-set": (),
    "check": ("lo", "hi", "fmt", "allow_below", "bucket_width", "sample_stride"),
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
    if token in KINDS:
        return SetSpec(kind=token, **{field: getattr(args, flag[2:]) for field, (flag, *_) in _SET_FLAGS.items()})
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return SetSpec.from_text(fh.read())
    raise DomainError(
        f"--set must be one of {tuple(KINDS)} or an existing spec file, got {token!r}"
    )


def _valid_spec(args: argparse.Namespace) -> SetSpec:
    """args.spec, validated, with a missing or extra field named by its flag; a spec file was validated, by its keys, when read."""
    args.spec.validate({field: flag for field, (flag, *_) in _SET_FLAGS.items()})
    return args.spec


def _run_sieve(args: argparse.Namespace) -> int:
    ns = primes_up_to(args.limit)
    if args.out:
        save_set(ns, args.out, header_comments=_header_lines(args))
    else:
        sys.stdout.write(document(_header(args), limit=ns.limit, count=len(ns)))
    return 0


def _run_gen_set(args: argparse.Namespace) -> int:
    spec = _valid_spec(args)
    # The report compares with the primes up to the spec's limit, the ones a
    # primes, perturbed or shifted set is built from, so one sieve serves
    # both. Below 3, build refuses the limit or sieves a few numbers itself.
    primes = None
    if args.deviation_report and spec.kind != "file" and spec.limit >= 3:
        primes = primes_up_to(spec.limit)
    ns = build(spec, primes)
    save_set(ns, args.out, header_comments=_header_lines(args))
    if args.deviation_report:
        if primes is None:
            # similarity reads n <= min(limits), so for limit 1 the primes to 2 act as the primes to 1
            primes = primes_up_to(max(2, min(ns.limit, spec.limit or ns.limit)))
        with open(args.deviation_report, "w", encoding="utf-8") as fh:
            fh.write(document(_header(args), spec=args.spec.to_dict(), **asdict(similarity(ns, primes))))
    return 0


def _run_check(args: argparse.Namespace) -> int:
    layout = {"workers": args.workers, "bucket_width": args.bucket_width, "sample_stride": args.sample_stride}

    def flagged(run, *where):
        """run(*where, **layout), its refusal naming the flags the user typed, not the keywords."""
        try:
            return run(*where, **layout)
        except DomainError as exc:
            text = str(exc)
            for key in layout:
                text = text.replace(key, f"--{key.replace('_', '-')}")
            raise DomainError(text) from None

    flagged(validate_layout, args.lo, args.hi)  # before the set is built
    report = flagged(check_range, build(_valid_spec(args)), args.lo, args.hi)
    rows = [astuple(b) for b in report.buckets]
    if args.fmt == "csv":
        _emit(args, table_csv(_header_lines(args), BUCKET_COLUMNS, rows))
    else:
        _emit(args, document(
            _header(args),
            spec=args.spec.to_dict(),
            lo=report.lo,
            hi=report.hi,
            failures=report.failures,
            threshold_N0=report.threshold_n0,
            buckets=[dict(zip(BUCKET_COLUMNS, row)) for row in rows],
            wall_ms=report.wall_ms,
        ))
    blocking = [n for n in report.failures if n >= args.allow_below]
    return 1 if blocking else 0


def _run_anb(args: argparse.Namespace) -> int:
    ns = build(_valid_spec(args))
    n = args.n
    a = a_set(ns, n)
    b = b_set(ns, n)
    rep = find_representation(ns, 2 * n)
    _emit(args, document(
        _header(args),
        n=n,
        a_members=a.members.tolist(),
        b_members=b.members.tolist(),
        a_size=len(a),
        b_size=len(b),
        disjoint=disjoint(a, b),
        representation=list(rep) if rep else None,
    ))
    return 0


def _run_prob(args: argparse.Namespace) -> int:
    if args.n_step is not None and args.n_step < 1:
        raise DomainError("--n-step must be >= 1")
    damping = args.damping_c
    if args.c_from_pmax is not None:
        if args.c_from_pmax > PROB_MAX_C_PMAX:
            raise DomainError(f"--c-from-pmax {args.c_from_pmax} is above the cap of {PROB_MAX_C_PMAX}")
        damping = coefficient_c(args.c_from_pmax)
    if args.n_max is not None:
        if args.n_max < args.n:
            raise DomainError(f"--n-max {args.n_max} is below --n {args.n}")
        step = args.n_step or max(1, (args.n_max - args.n) // 100)
        ns = range(args.n, args.n_max + 1, step)
        if len(ns) > PROB_MAX_ROWS:
            raise DomainError(
                f"--n to --n-max in steps of {step} gives {len(ns)} rows; the cap is {PROB_MAX_ROWS}"
            )
    else:
        ns = [args.n]
    n_top = max(ns, default=0)
    if n_top > PROB_MAX_N:
        raise DomainError(f"--n or --n-max gives a row at n = {n_top}, above the cap of {PROB_MAX_N}")
    rows = [astuple(r) for r in model_table(ns, p_max=args.p_max, damping_c=damping)]
    if args.fmt == "csv":
        _emit(args, table_csv(_header_lines(args), MODEL_COLUMNS, rows))
    else:
        _emit(args, document(_header(args), rows=[dict(zip(MODEL_COLUMNS, row)) for row in rows]))
    return 0


def _run_tail(args: argparse.Namespace) -> int:
    lp = tail_integral(args.tail_from, args.damping_c)
    _emit(args, document(
        _header(args),
        **{"from": args.tail_from},
        damping_c=args.damping_c,
        ln_tail=lp.ln_value,
        log10_tail=lp.log10,
    ))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    series = plot_series_from_report(args.input_path)
    _emit(args, table_csv([], ("series", "x", "y"), series))
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


def _add_set_args(sub: argparse.ArgumentParser, flag: str, **how) -> None:
    # dest "set" for gen-set's --kind too, so one resolver builds every spec
    sub.add_argument(flag, dest="set", required=True, **how)
    for name, kind, text in _SET_FLAGS.values():
        sub.add_argument(name, type=kind, help=text)


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
    _add_set_args(p, "--kind", choices=tuple(KINDS))
    p.add_argument("--out", required=True)
    p.add_argument(
        "--deviation-report",
        help="also write a JSON similarity-vs-primes report (exhaustive scan)",
    )

    p = subs.add_parser("check", help="verify even numbers in a range")
    _add_set_args(p, "--set", help="set kind (inline flags) or spec file")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--allow-below", type=int, default=42,
                   help="failures below this even number do not affect exit status")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted (at least 1) and has no effect: the check runs in one thread, and only "
                        "the counts' transforms use a second one")
    p.add_argument("--bucket-width", type=int, default=BUCKET_WIDTH,
                   help="width of the report's buckets, a reporting choice that leaves the check's work "
                        "alone; at most 10,000 buckets (exit 2 past that)")
    p.add_argument("--sample-stride", type=int, default=SAMPLE_STRIDE, metavar="N",
                   help="count representations of every N-th even of a bucket, every even for 1; "
                        "counts run at step gcd(2N, bucket width), and a step whose count needs over "
                        "1 GiB is refused (exit 2), as 1 is past a limit of about 1.6e7, so keep the "
                        "bucket width a multiple of 2N")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report destination (default stdout)")

    p = subs.add_parser("anb", help="materialize the distance sets at a midpoint")
    _add_set_args(p, "--set", help="set kind (inline flags) or spec file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = subs.add_parser("prob", help="evaluate the disjointness model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pmax", dest="p_max", type=int, choices=(2, 3),
                   help="residue-filter the slot domain")
    damping = p.add_mutually_exclusive_group()
    damping.add_argument("--c-from-pmax", type=int, help="damping coefficient from primes up to here")
    damping.add_argument("--c", dest="damping_c", metavar="C", type=float,
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
    except (ArithmeticError, RuntimeError) as exc:
        print(f"primesim {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
