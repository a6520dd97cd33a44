"""Command-line driver for the quartic count.

Subcommands:

* ``count`` — evaluate the localization sum (default weights reproduce
  the count 6028452 bit-exactly);
* ``fixed-points`` — dump the fixed-point data (126 records with
  ``--h3-only``, 504 otherwise) as text or JSON;
* ``verify`` — run the invariant suite of `quartics.checks` and report
  pass/fail per check.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
141 (128 + SIGPIPE) when the reader closes stdout early.
Informational notes go to stderr; stdout carries only the results, so
JSON output is always parseable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import bott, fixedpoints
from .checks import run_checks
from .fixedpoints import FixedPoint, census
from .repring import LaurentMonomial

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INVALID_CONFIG = 2
EXIT_BROKEN_PIPE = 141


def _fraction_json(value):
    return int(value) if value.denominator == 1 else str(value)


def _print_json(payload) -> None:
    import json  # here alone, so that runs without --json and the dump never load it
    print(json.dumps(payload, indent=2))


def _resolve_weights(args, points: Sequence[FixedPoint]) -> tuple[tuple[int, ...], int | None]:
    """Weight vector for a run: explicit, seeded search, or the default.

    Returns (weights, attempts); attempts is None unless a search ran.
    Explicit weights that specialize some tangent character to zero are
    a configuration error, reported with the offending point and
    monomial.
    """
    if args.weights is not None:
        weights = tuple(args.weights)
        if (error := bott.zero_weight_error(points, weights)) is not None:
            raise ConfigError(error)
        return weights, None
    if args.seed is not None:
        lo, hi = args.range or bott.DEFAULT_RANGE
        return bott.random_weight_search(args.seed, lo, hi, points)
    return bott.DEFAULT_WEIGHTS, None


class ConfigError(Exception):
    """Invalid run configuration; maps to exit code 2."""


def cmd_count(args) -> int:
    """Evaluate the localization sum and print its value."""
    points = fixedpoints.assemble_h4(fixedpoints.enumerate_h3())
    weights, attempts = _resolve_weights(args, points)
    result = bott.bott_sum(points, weights, keep_terms=args.show_terms)
    if args.json:
        payload = {"value": _fraction_json(result.value), "weights": list(weights)}
        if args.seed is not None:
            payload["seed"] = args.seed
            payload["attempts"] = attempts
        if args.show_terms:
            payload["terms"] = [
                {"point": label, "term": _fraction_json(term)}
                for label, term in result.per_point_terms
            ]
        _print_json(payload)
    else:
        print(f"weights: {' '.join(map(str, weights))}", file=sys.stderr)
        if attempts is not None:
            print(f"attempts: {attempts}", file=sys.stderr)
        if args.show_terms:
            for label, term in result.per_point_terms:
                print(f"{term}\t{label}")
        print(result.value)
    return EXIT_OK


def _render(characters: Sequence[LaurentMonomial]) -> str:
    """A character tuple as a sum, with multiplicities as coefficients."""
    terms = fixedpoints.multiplicities(characters)
    return " + ".join(str(m) if k == 1 else f"{k}*{m}" for m, k in terms)


def cmd_fixed_points(args) -> int:
    """Dump the fixed points in canonical order."""
    points = fixedpoints.enumerate_h3()
    if not args.h3_only:
        points = fixedpoints.assemble_h4(points)
    counts = census(points)
    summary = " ".join(f"{stage}={n}" for stage, n in counts.items())
    per_hyperplane = "" if args.h3_only else " (126 per hyperplane x 4)"
    counts_line = f"counts: {summary} total={len(points)}{per_hyperplane}"
    if args.json:
        print(counts_line, file=sys.stderr)
        records = [fixedpoints.fixed_point_record(p) for p in points]
        print("[", ",\n".join(records), "]", sep="\n")
    else:
        print(counts_line)
        for index, point in enumerate(points, 1):
            where = "" if point.hyperplane is None else f" (hyperplane {point.hyperplane})"
            print(f"[{index}] {point.stage}{where}")
            print(f"  ideal:   {', '.join(map(str, point.ideal))}")
            print(f"  tangent: {_render(point.tangent)}")
            print(f"  fiber:   {_render(point.fiber)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Run the invariant suite; any failing check exits nonzero."""
    lo, hi = args.range or bott.DEFAULT_RANGE
    results = run_checks(args.seed if args.seed is not None else 0, lo, hi)
    if args.json:
        _print_json([r._asdict() for r in results])
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    print(f"all {len(results)} checks passed", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
#  Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartics",
        description=(
            "Count rational quartic curves on a sextic Calabi-Yau hypersurface "
            "in P(2,1,1,1,1) by exact Bott localization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--seed", type=int, help="seed for the random weight search")
    search.add_argument(
        "--range", nargs=2, type=int, metavar=("LO", "HI"),
        help="inclusive sampling range for random weights (default %d %d)" % bott.DEFAULT_RANGE,
    )
    json_ = argparse.ArgumentParser(add_help=False)
    json_.add_argument("--json", action="store_true", help="emit JSON on stdout")

    p_count = sub.add_parser(
        "count", parents=[search, json_], help="evaluate the localization count"
    )
    p_count.add_argument(
        "--weights", nargs=5, type=int, metavar=("W0", "W1", "W2", "W3", "W4"),
        help="explicit one-parameter subgroup (default %d %d %d %d %d)" % bott.DEFAULT_WEIGHTS,
    )
    p_count.add_argument(
        "--show-terms", action="store_true",
        help="include the per-fixed-point summands",
    )
    p_count.set_defaults(func=cmd_count)

    p_fp = sub.add_parser("fixed-points", parents=[json_], help="dump the fixed-point data")
    p_fp.add_argument(
        "--h3-only", action="store_true",
        help="dump the 126 points of the P(2,1,1,1) component only",
    )
    p_fp.set_defaults(func=cmd_fixed_points)

    p_verify = sub.add_parser("verify", parents=[search, json_], help="run the invariant suite")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _check_args(args) -> None:
    """Reject out-of-range option values before any point is built."""
    if getattr(args, "weights", None) is not None and args.seed is not None:
        raise ConfigError("--weights and --seed exclude each other")
    if args.command == "count" and args.range is not None and args.seed is None:
        raise ConfigError("--range applies to count only with --seed")
    if getattr(args, "range", None) is not None:
        try:
            bott.check_range(*args.range)
        except ValueError as exc:
            raise ConfigError(exc) from None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (ConfigError, bott.WeightSearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except BrokenPipeError:
        # The reader is gone; send what is still buffered to devnull so
        # that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
