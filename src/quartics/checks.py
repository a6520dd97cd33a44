"""The invariant suite that ``quartics verify`` reports: the table `CHECKS`
of (name, check) pairs, each check a function from one `Build` to (ok, detail).

`run_checks` alone turns a ``ValueError`` or ``RuntimeError`` into a failed
result, named ``build`` when the build raised, else after the check that
raised, so the other checks still report.  Every layer is reached through
its module attributes (``fixedpoints.enumerate_h3``, ``bott.bott_sum``, ...)
at call time, so a caller that replaces one of them sees every call.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial

from . import bott, fixedpoints

#: Number of random weight vectors exercised by the verify suite.
VERIFY_SEED_COUNT = 10


class CheckResult(namedtuple("CheckResult", "name ok detail")):
    """A check's `name`, whether it passed (the bool `ok`) and its `detail`."""

    __slots__ = ()


class Build(namedtuple("Build", "h3 h4 stage1 stage2 seeds lo hi")):
    """What the checks share: the points, the centers and the weight search:
    lists of `FixedPoint` (`h3`, `h4`) and of `BlowupCenterDatum` (`stage1`,
    `stage2`), a `range` of `seeds` and the search range [`lo`, `hi`]."""

    __slots__ = ()


def _census(b: Build) -> tuple[bool, str]:
    counts = fixedpoints.census(b.h3)
    ok = (counts == dict(zip(fixedpoints.STAGES, (12, 42, 72)))
          and Counter(p.hyperplane for p in b.h4) == dict.fromkeys(range(1, 5), 126))
    return ok, (
        f"{'/'.join(map(str, counts.values()))} = "
        f"{len(b.h3)} points, {len(b.h4)} after hyperplane assembly"
    )


def _tangent_dimensions(b: Build) -> tuple[bool, str]:
    dims3 = {len(p.tangent) for p in b.h3}
    dims4 = {len(p.tangent) for p in b.h4}
    detail = f"tangent sums {sorted(dims3)} on {len(b.h3)} points, {sorted(dims4)} on {len(b.h4)}"
    return dims3 == {10} and dims4 == {13}, detail


def _fiber_ranks(b: Build) -> tuple[bool, str]:
    ranks = {len(p.fiber) for p in b.h4}
    return ranks == {13}, f"degree-6 fiber sums {sorted(ranks)} on all {len(b.h4)} points"


def _tangent_characters(b: Build) -> tuple[bool, str]:
    # The build rejects a negative multiplicity, so only a trivial
    # character, the zero exponent tuple of the point's ring, can be wrong here.
    bad = next((p for p in b.h3 + b.h4 if (0,) * len(p.ideal[0]) in p.tangent), None)
    if bad is None:
        return True, "no trivial character, all multiplicities >= 1"
    m = next(m for m in bad.tangent if m.is_trivial())
    return False, f"tangent character {m} with multiplicity {bad.tangent.count(m)} at {bad.label}"


def _center_tables(centers, ambient, source: str) -> tuple[bool, str]:
    """At every center, the ambient tangent minus the center tangent is the
    stored normal space: 6 distinct degree-0 characters of multiplicity 1."""
    bad = []
    for c in centers:
        normal = ambient(c.base_ideal)
        normal.subtract(c.tangent_to_center)  # keeps what `-` would drop
        stored = Counter(c.normal_basis)
        off = next((m for m in sorted(normal.keys() | stored.keys(), reverse=True)
                    if (normal[m], stored[m]) not in ((0, 0), (1, 1))), None)
        if off is not None:
            bad.append(f"{c.base_ideal}: {off} has multiplicity {normal[off]} in "
                       f"{source} minus the center tangent, {stored[off]} stored")
        elif len(c.normal_basis) != 6 or any(m.degree for m in c.normal_basis):
            bad.append(f"{c.base_ideal}: not 6 degree-0 characters")
    if bad:
        return False, f"mismatch at {'; '.join(bad)}"
    return True, (f"{source} minus the center tangent is the stored normal space, "
                  f"6 distinct degree-0 characters, at {len(centers)} centers")


def _stage1_tables(b: Build) -> tuple[bool, str]:
    return _center_tables(b.stage1, fixedpoints.grassmann_tangent, "Hom(I, V[2]/I)")


def _stage2_tables(b: Build) -> tuple[bool, str]:
    ambient = partial(fixedpoints.stage2_composed_tangent, stage1=b.stage1)
    return _center_tables(b.stage2, ambient, "the blow-up composition")


def _flat_limit_oracle(b: Build) -> tuple[bool, str]:
    mismatches = []
    directions = 0
    for center in b.stage1 + b.stage2:
        mismatches += [(center.base_ideal, *m) for m in fixedpoints.center_oracle_agreement(center)]
        directions += len(center.normal_basis)
    if not mismatches:
        return True, f"flat limits match closed-form ideals in {directions} directions"
    base, mu, limit, closed = mismatches[0]
    closed = "no closed form" if closed is None else f"closed form {closed}"
    plural = "" if len(mismatches) == 1 else "es"
    return False, (f"{len(mismatches)} mismatch{plural}, first: center {base}, "
                   f"direction {mu}: flat limit {limit}, {closed}")


def _injectivity_lemma(b: Build) -> tuple[bool, str]:
    failing = [p.ideal for p in b.h3 if not fixedpoints.lemma_injectivity_check(p.ideal)]
    if failing:
        return False, f"fails at {', '.join(map(str, failing[:3]))}"
    return True, f"cubic-multiplier condition holds for all {len(b.h3)} ideals"


def _degenerate_weights(b: Build) -> tuple[bool, str]:
    accepted = [w for w in ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1)) if bott.validate_weights(b.h4, w)]
    if accepted:
        return False, f"{' and '.join(map(str, accepted))} accepted"
    return True, "(0,0,0,0,0) and (1,1,1,1,1) are rejected"


def _weight_independence(b: Build) -> tuple[bool, str]:
    if (zero := bott.zero_weight_error(b.h4, bott.DEFAULT_WEIGHTS)) is not None:
        return False, zero
    reference = bott.bott_sum(b.h4, bott.DEFAULT_WEIGHTS).value
    for seed in b.seeds:
        w, _ = bott.random_weight_search(seed, b.lo, b.hi, b.h4)
        if (value := bott.bott_sum(b.h4, w).value) != reference:
            return False, f"seed {seed}: weights {w} give {value}, default {reference}"
    detail = f"{len(b.seeds)} random weight vectors in [{b.lo}, {b.hi}] all give {reference}"
    if reference.denominator != 1:
        return False, f"{detail}, which is not an integer"
    return True, detail


#: The suite in report order.  `bott` holds the compiled form of one point
#: sequence, so a check that calls it stays next to the others on the same points.
CHECKS = (
    ("census", _census),
    ("tangent-dimensions", _tangent_dimensions),
    ("fiber-ranks", _fiber_ranks),
    ("tangent-characters", _tangent_characters),
    ("stage1-tables", _stage1_tables),
    ("stage2-tables", _stage2_tables),
    ("flat-limit-oracle", _flat_limit_oracle),
    ("injectivity-lemma", _injectivity_lemma),
    ("degenerate-weights", _degenerate_weights),
    ("weight-independence", _weight_independence),
)


def run_checks(
    base_seed: int = 0, lo: int = bott.DEFAULT_RANGE[0], hi: int = bott.DEFAULT_RANGE[1]
) -> list[CheckResult]:
    """Build the points once, then run every check of `CHECKS` on them and the centers."""
    try:
        h3 = fixedpoints.enumerate_h3()
        build = Build(h3, fixedpoints.assemble_h4(h3), fixedpoints.stage1_centers(),
                      fixedpoints.stage2_centers(),
                      range(base_seed, base_seed + VERIFY_SEED_COUNT), lo, hi)
    except (ValueError, RuntimeError) as exc:
        # A build that breaks one of its own invariants fails the suite.
        return [CheckResult("build", False, f"{type(exc).__name__}: {exc}")]
    results = []
    for name, check in CHECKS:
        try:
            results.append(CheckResult(name, *check(build)))
        except (ValueError, RuntimeError) as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
