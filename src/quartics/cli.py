"""Command-line driver for the quartic count.

Subcommands:

* ``count`` — evaluate the localization sum (default weights reproduce
  the count 6028452 bit-exactly);
* ``fixed-points`` — dump the fixed-point data (126 records with
  ``--h3-only``, 504 otherwise) as text or JSON;
* ``verify`` — run the full invariant suite and report pass/fail per
  check.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
141 (128 + SIGPIPE) when the reader closes stdout early.
Informational notes go to stderr; stdout carries only the results, so
JSON output is always parseable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from . import bott, fixedpoints
from .fixedpoints import FixedPoint, census

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INVALID_CONFIG = 2
EXIT_BROKEN_PIPE = 141

#: Number of random weight vectors exercised by the verify suite.
VERIFY_SEED_COUNT = 10

#: Inclusive sampling range of the random weight search when `--range`
#: is not given.
DEFAULT_RANGE = (1, 10_000)


def _fraction_json(value):
    return int(value) if value.denominator == 1 else str(value)


def _resolve_weights(args, points: Sequence[FixedPoint]) -> tuple[tuple[int, ...], int | None]:
    """Weight vector for a run: explicit, seeded search, or the default.

    Returns (weights, attempts); attempts is None unless a search ran.
    Explicit weights that specialize some tangent character to zero are
    a configuration error, reported with the offending point and
    monomial.
    """
    if args.weights is not None:
        weights = tuple(args.weights)
        bad = bott.find_zero_weight(points, weights)
        if bad is not None:
            point, monomial = bad
            raise ConfigError(
                f"weights {weights} give zero weight on tangent monomial "
                f"{monomial} at fixed point {point.label}"
            )
        return weights, None
    if args.seed is not None:
        lo, hi = args.range or DEFAULT_RANGE
        return _search_weights(args.seed, lo, hi, points)
    return bott.DEFAULT_WEIGHTS, None


def _search_weights(
    seed: int, lo: int, hi: int, points: Sequence[FixedPoint]
) -> tuple[tuple[int, ...], int]:
    """`bott.random_weight_search`, with an exhausted budget as a ConfigError."""
    try:
        return bott.random_weight_search(seed, lo, hi, points)
    except RuntimeError as exc:
        raise ConfigError(f"--range {lo} {hi}: {exc}") from None


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
        print(json.dumps(payload, indent=2))
    else:
        print(f"weights: {' '.join(map(str, weights))}", file=sys.stderr)
        if attempts is not None:
            print(f"attempts: {attempts}", file=sys.stderr)
        if args.show_terms:
            for label, term in result.per_point_terms:
                print(f"{term}\t{label}")
        print(result.value)
    return EXIT_OK


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
        print(json.dumps(records, indent=2))
    else:
        print(counts_line)
        for index, point in enumerate(points, 1):
            where = "" if point.hyperplane is None else f" (hyperplane {point.hyperplane})"
            print(f"[{index}] {point.stage}{where}")
            print(f"  ideal:   {', '.join(str(g) for g in point.ideal.generators)}")
            print(f"  tangent: {point.tangent}")
            print(f"  fiber:   {point.fiber}")
    return EXIT_OK


# ---------------------------------------------------------------------------
#  The verification suite.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def run_checks(
    base_seed: int = 0, lo: int = DEFAULT_RANGE[0], hi: int = DEFAULT_RANGE[1]
) -> list[CheckResult]:
    """Run every invariant check."""
    stage1 = fixedpoints.stage1_centers()
    stage2 = fixedpoints.stage2_centers()
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        results.append(CheckResult(name, ok, detail))

    h3 = fixedpoints.enumerate_h3()
    h4 = fixedpoints.assemble_h4(h3)

    counts = census(h3)
    ok = (
        len(h3) == 126
        and counts == {"grassmannian": 12, "blowup1": 42, "blowup2": 72}
        and len(h4) == 504
        and all(
            sum(1 for p in h4 if p.hyperplane == i) == 126 for i in range(1, 5)
        )
    )
    check(
        "census",
        ok,
        f"{counts['grassmannian']}/{counts['blowup1']}/{counts['blowup2']} = "
        f"{len(h3)} points, {len(h4)} after hyperplane assembly",
    )

    dims3 = {p.tangent.dimension for p in h3}
    dims4 = {p.tangent.dimension for p in h4}
    check(
        "tangent-dimensions",
        dims3 == {10} and dims4 == {13},
        f"tangent sums {sorted(dims3)} on 126 points, {sorted(dims4)} on 504",
    )

    ranks = {p.fiber.dimension for p in h4}
    check(
        "fiber-ranks",
        ranks == {13},
        f"degree-6 fiber sums {sorted(ranks)} on all 504 points",
    )

    clean = all(
        not any(m.is_trivial() for m in p.tangent)
        and all(k >= 1 for _, k in p.tangent.items())
        and all(k >= 1 for _, k in p.fiber.items())
        for p in h3 + h4
    )
    check(
        "tangent-characters",
        clean,
        "no trivial character, all multiplicities >= 1",
    )

    # At every center, the ambient tangent minus the center tangent is the
    # stored normal space: 6 distinct degree-0 characters of multiplicity 1.
    for name, centers, ambient, source in (
        ("stage1-tables", stage1, fixedpoints.grassmann_tangent, "Hom(I, V[2]/I)"),
        ("stage2-tables", stage2,
         lambda base: fixedpoints.stage2_composed_tangent(base, stage1),
         "the blow-up composition"),
    ):
        bad = []
        for c in centers:
            normal = ambient(c.base_ideal) - c.tangent_to_center
            lines = normal.items()
            if normal != c.normal_basis or len(lines) != 6 or any(
                k != 1 or m.degree for m, k in lines
            ):
                bad.append(c.base_ideal)
        check(
            name,
            not bad,
            f"{source} minus the center tangent is the stored normal space, "
            f"6 distinct degree-0 characters, at {len(centers)} centers"
            if not bad
            else f"mismatch at {bad}",
        )

    mismatches = []
    directions = 0
    for center in stage1 + stage2:
        mismatches.extend(fixedpoints.center_oracle_agreement(center))
        directions += len(center.normal_basis)
    check(
        "flat-limit-oracle",
        not mismatches,
        f"flat limits match closed-form ideals in {directions} directions"
        if not mismatches
        else f"{len(mismatches)} mismatches, first: {mismatches[0]}",
    )

    failing = [p.ideal for p in h3 if not fixedpoints.lemma_injectivity_check(p.ideal)]
    check(
        "injectivity-lemma",
        not failing,
        "cubic-multiplier condition holds for all 126 ideals"
        if not failing
        else f"fails at {failing[:3]}",
    )

    degenerate = all(
        not bott.validate_weights(h4, w)
        for w in ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    )
    check(
        "degenerate-weights",
        degenerate,
        "(0,0,0,0,0) and (1,1,1,1,1) are rejected",
    )

    reference = bott.bott_sum(h4, bott.DEFAULT_WEIGHTS).value
    values = set()
    for seed in range(base_seed, base_seed + VERIFY_SEED_COUNT):
        w, _ = _search_weights(seed, lo, hi, h4)
        values.add(bott.bott_sum(h4, w).value)
    ok = values == {reference} and reference.denominator == 1
    check(
        "weight-independence",
        ok,
        f"{VERIFY_SEED_COUNT} random weight vectors in [{lo}, {hi}] all give {reference}"
        if ok
        else f"values {sorted(values)} vs default {reference}",
    )

    return results


def cmd_verify(args) -> int:
    """Run the invariant suite; any failing check exits nonzero."""
    lo, hi = args.range or DEFAULT_RANGE
    try:
        results = run_checks(args.seed if args.seed is not None else 0, lo, hi)
    except (ValueError, RuntimeError) as exc:
        # A build that breaks one of its own invariants fails the suite.
        results = [CheckResult("build", False, f"{type(exc).__name__}: {exc}")]
    if args.json:
        print(
            json.dumps(
                [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
                indent=2,
            )
        )
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
        help="inclusive sampling range for random weights (default %d %d)" % DEFAULT_RANGE,
    )
    json_ = argparse.ArgumentParser(add_help=False)
    json_.add_argument("--json", action="store_true", help="emit JSON on stdout")

    p_count = sub.add_parser(
        "count", parents=[search, json_], help="evaluate the localization count"
    )
    p_count.add_argument(
        "--weights", nargs=5, type=int, metavar=("W0", "W1", "W2", "W3", "W4"),
        help="explicit one-parameter subgroup (default 267 4 17 55 160)",
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
        lo, hi = args.range
        if hi - lo + 1 < bott.MIN_RANGE_WIDTH:
            raise ConfigError(
                f"--range {lo} {hi} holds fewer than {bott.MIN_RANGE_WIDTH} integers; "
                f"no narrower range has a usable weight vector"
            )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except BrokenPipeError:
        # The reader is gone; send what is still buffered to devnull so
        # that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
