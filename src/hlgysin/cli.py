"""Command-line front end: compute classes, run verifier suites, print tables.

Output is deterministic byte-for-byte for fixed flags (and seed, for
randomized suites): nothing is printed until the full result string is
built, and verification lines omit wall-clock timings on stdout (timed
lines go to the report file under --out instead).

Exit codes: 0 success / all checks passed; 1 a verification failed or a
computation was impossible (a divisibility finding); 2 malformed input,
unknown identity or an --out path that cannot be written; 3 permutation
bound exceeded: n > 8, a resource limit of this front end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .hallittlewood import (
    gaussian_binomial,
    hall_littlewood_p,
    hall_littlewood_r,
    schur_p_coset,
    schur_s,
    t_factorial,
)
from .identities import IDENTITY_SUITES, InstanceFamily, run_suite
from .polyring import NotDivisibleError
from .symgroup import BoundExceededError, ensure_within_bound


def _sequence(text):
    if text.strip() in ("", "()"):
        return ()
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("sequence entries must be nonnegative")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hlgysin",
        description="Exact Hall-Littlewood classes and Gysin push-forward checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    compute = sub.add_parser("compute", help="print one polynomial")
    compute.add_argument(
        "--kind",
        required=True,
        choices=["r", "p", "schur-s", "schur-p", "gaussian", "v"],
    )
    compute.add_argument("--n", type=int)
    compute.add_argument("--lambda", dest="lam", type=_sequence)
    compute.add_argument("--nu", type=_sequence)
    compute.add_argument("--m", type=int)
    compute.add_argument("--a", type=int)
    compute.add_argument("--b", type=int)
    compute.add_argument("--format", choices=["text", "latex", "json"], default="text")
    compute.add_argument("--out", help="also write the output to this file")

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("--identity", required=True)
    verify.add_argument("--n-min", type=int, default=1)
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--q", type=int, help="restrict suites to one q")
    verify.add_argument("--entry-max", type=int, default=2)
    verify.add_argument("--mode", choices=["exhaustive", "randomized"], default="exhaustive")
    verify.add_argument(
        "--count", type=int, default=0,
        help="instances to draw in randomized mode (0, the default, draws 50); "
        "exhaustive mode does not read it",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", help="directory for the timed report and witness dumps")

    table = sub.add_parser("table", help="print a family of polynomials")
    table.add_argument("--kind", required=True, choices=["v", "gaussian", "p", "r"])
    table.add_argument("--n", type=int)
    table.add_argument("--entry-max", type=int, default=1)
    table.add_argument("--m-max", type=int)
    table.add_argument("--a-max", type=int)
    table.add_argument("--b-max", type=int)
    table.add_argument("--format", choices=["text", "latex", "json"], default="text")
    table.add_argument("--out", help="also write the output to this file")
    # each command rejects its own flags through its own parser, so the
    # usage line and the error prefix name the subcommand
    for command in (compute, verify, table):
        command.set_defaults(subparser=command)
    return parser


def _require(parser, condition, message):
    if not condition:
        parser.error(message)


def _render(poly, fmt, kind, params):
    if fmt == "text":
        return poly.to_text()
    if fmt == "latex":
        return poly.to_latex()
    return json.dumps(
        {"kind": kind, "params": params, "terms": poly.to_json_terms()}, indent=2
    )


def _emit(output, out):
    """Write output to the file out, when given, then print it."""
    if out:
        Path(out).write_text(output + "\n")
    print(output)
    return 0


def _cmd_compute(parser, args):
    kind = args.kind
    if kind in ("r", "p"):
        _require(parser, args.n is not None and args.lam is not None,
                 f"--n and --lambda are required for kind {kind}")
        _require(parser, args.n >= 1, "--n must be positive")
        _require(parser, len(args.lam) == args.n,
                 f"--lambda must have exactly n={args.n} entries")
        ensure_within_bound(args.n)
        func = hall_littlewood_r if kind == "r" else hall_littlewood_p
        poly = func(args.n, args.lam)
        params = {"n": args.n, "lambda": list(args.lam)}
    elif kind == "schur-s":
        _require(parser, args.n is not None and args.lam is not None,
                 "--n and --lambda are required for kind schur-s")
        _require(parser, args.n >= 0, "--n must be nonnegative")
        poly = schur_s(args.lam, args.n)
        params = {"n": args.n, "lambda": list(args.lam)}
    elif kind == "schur-p":
        _require(parser, args.n is not None and args.nu is not None,
                 "--n and --nu are required for kind schur-p")
        _require(parser, args.n >= 1, "--n must be positive")
        ensure_within_bound(args.n)
        poly = schur_p_coset(args.nu, args.n)
        params = {"n": args.n, "nu": list(args.nu)}
    elif kind == "gaussian":
        _require(parser, args.a is not None and args.b is not None,
                 "--a and --b are required for kind gaussian")
        _require(parser, args.a >= 0 and args.b >= 0, "--a and --b must be nonnegative")
        poly = gaussian_binomial(args.a, args.b)
        params = {"a": args.a, "b": args.b}
    else:  # v
        _require(parser, args.m is not None, "--m is required for kind v")
        _require(parser, args.m >= 0, "--m must be nonnegative")
        poly = t_factorial(args.m)
        params = {"m": args.m}
    return _emit(_render(poly, args.format, kind, params), args.out)


def _cmd_verify(parser, args):
    _require(parser, args.n_min >= 1, "--n-min must be positive")
    _require(parser, args.n_max >= args.n_min, "--n-max must be at least --n-min")
    _require(parser, args.q is None or args.q >= 1, "--q must be positive")
    _require(parser, args.entry_max >= 0, "--entry-max must be nonnegative")
    _require(parser, args.count >= 0, "--count must be nonnegative")
    if args.identity not in IDENTITY_SUITES:
        print(
            f"unknown identity {args.identity!r}; choose from "
            f"{', '.join(sorted(IDENTITY_SUITES))}",
            file=sys.stderr,
        )
        return 2
    ensure_within_bound(args.n_max)
    family = InstanceFamily(
        n_range=(args.n_min, args.n_max),
        q_range=(args.q, args.q) if args.q is not None else None,
        entry_bound=args.entry_max,
        mode=args.mode,
        count=args.count or (50 if args.mode == "randomized" else 0),
        seed=args.seed,
    )
    if args.out:
        # made before the run: a bad path exits 2 at once, and a failure
        # found by the run keeps exit 1 and its witness file
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_suite(args.identity, family)
    lines = [report.line(include_elapsed=False) for report in reports]
    print("\n".join(lines) if lines else "no instances")
    failures = [report for report in reports if not report.passed]
    if args.out:
        timed = "\n".join(report.line(include_elapsed=True) for report in reports)
        (out_dir / "report.txt").write_text(timed + "\n")
        for report in failures:
            witness_file = out_dir / f"witness-{report.instance_key()}.txt"
            witness_file.write_text(
                report.line(include_elapsed=True)
                + "\nwitness = "
                + report.witness.to_text()
                + "\n"
            )
    return 1 if failures else 0


def _cmd_table(parser, args):
    fmt = args.format
    rows = []
    records = []
    if args.kind == "v":
        _require(parser, args.m_max is not None, "--m-max is required for kind v")
        _require(parser, args.m_max >= 0, "--m-max must be nonnegative")
        for m in range(args.m_max + 1):
            records.append(("v", {"m": m}, t_factorial(m), f"m={m}"))
    elif args.kind == "gaussian":
        _require(parser, args.a_max is not None and args.b_max is not None,
                 "--a-max and --b-max are required for kind gaussian")
        _require(parser, args.a_max >= 0 and args.b_max >= 0,
                 "--a-max and --b-max must be nonnegative")
        for a in range(args.a_max + 1):
            for b in range(args.b_max + 1):
                records.append(
                    ("gaussian", {"a": a, "b": b}, gaussian_binomial(a, b), f"a={a} b={b}")
                )
    else:  # p | r
        _require(parser, args.n is not None, f"--n is required for kind {args.kind}")
        _require(parser, args.n >= 1, "--n must be positive")
        _require(parser, args.entry_max >= 0, "--entry-max must be nonnegative")
        ensure_within_bound(args.n)
        func = hall_littlewood_p if args.kind == "p" else hall_littlewood_r
        for lam in itertools.product(range(args.entry_max + 1), repeat=args.n):
            label = "lambda=(" + ",".join(str(e) for e in lam) + ")"
            try:
                poly = func(args.n, lam)
            except NotDivisibleError:
                poly = None
            records.append((args.kind, {"n": args.n, "lambda": list(lam)}, poly, label))

    if fmt == "json":
        payload = [
            {
                "kind": kind,
                "params": params,
                "terms": poly.to_json_terms() if poly is not None else None,
            }
            for kind, params, poly, _ in records
        ]
        output = json.dumps(payload, indent=2)
    else:
        for _, _, poly, label in records:
            if poly is None:
                rows.append(f"{label}: undefined (normalizer does not divide)")
            elif fmt == "latex":
                rows.append(f"{label}: {poly.to_latex()}")
            else:
                rows.append(f"{label}: {poly.to_text()}")
        output = "\n".join(rows)
    return _emit(output, args.out)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "compute":
            return _cmd_compute(args.subparser, args)
        if args.subcommand == "verify":
            return _cmd_verify(args.subparser, args)
        return _cmd_table(args.subparser, args)
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except NotDivisibleError as exc:
        print(f"not divisible: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
