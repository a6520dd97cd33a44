"""The invariant suite that ``quartics verify`` reports, one result per check.

Every layer is reached through its module attributes (``fixedpoints.enumerate_h3``,
``bott.bott_sum``, ...), so a caller that replaces one of them sees every call.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bott, fixedpoints

#: Number of random weight vectors exercised by the verify suite.
VERIFY_SEED_COUNT = 10


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def run_checks(
    base_seed: int = 0, lo: int = bott.DEFAULT_RANGE[0], hi: int = bott.DEFAULT_RANGE[1]
) -> list[CheckResult]:
    """Run every invariant check."""
    stage1 = fixedpoints.stage1_centers()
    stage2 = fixedpoints.stage2_centers()
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        results.append(CheckResult(name, ok, detail))

    h3 = fixedpoints.enumerate_h3()
    h4 = fixedpoints.assemble_h4(h3)

    counts = fixedpoints.census(h3)
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

    dims3 = {len(p.tangent) for p in h3}
    dims4 = {len(p.tangent) for p in h4}
    check(
        "tangent-dimensions",
        dims3 == {10} and dims4 == {13},
        f"tangent sums {sorted(dims3)} on 126 points, {sorted(dims4)} on 504",
    )

    ranks = {len(p.fiber) for p in h4}
    check(
        "fiber-ranks",
        ranks == {13},
        f"degree-6 fiber sums {sorted(ranks)} on all 504 points",
    )

    # The build rejects a negative multiplicity, so only a trivial
    # character can be wrong here.
    bad_character = next(
        (f"tangent character {m} with multiplicity {p.tangent.count(m)} at {p.label}"
         for p in h3 + h4
         for m in p.tangent
         if m.is_trivial()),
        "",
    )
    check(
        "tangent-characters",
        not bad_character,
        bad_character or "no trivial character, all multiplicities >= 1",
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
            normal = ambient(c.base_ideal)
            normal.subtract(c.tangent_to_center)  # keeps what `-` would drop
            stored = c.normal_basis
            off = next((m for m in sorted(normal.keys() | stored.keys(), reverse=True)
                        if (normal[m], stored[m]) not in ((0, 0), (1, 1))), None)
            if off is not None:
                bad.append(f"{c.base_ideal}: {off} has multiplicity {normal[off]} in "
                           f"{source} minus the center tangent, {stored[off]} stored")
            elif stored.total() != 6 or any(m.degree for m in stored if stored[m]):
                bad.append(f"{c.base_ideal}: not 6 degree-0 characters")
        check(
            name,
            not bad,
            f"{source} minus the center tangent is the stored normal space, "
            f"6 distinct degree-0 characters, at {len(centers)} centers"
            if not bad
            else f"mismatch at {'; '.join(bad)}",
        )

    mismatches = []
    directions = 0
    for center in stage1 + stage2:
        mismatches += [(center.base_ideal, *m) for m in fixedpoints.center_oracle_agreement(center)]
        directions += len(+center.normal_basis)
    detail = f"flat limits match closed-form ideals in {directions} directions"
    if mismatches:
        base, mu, limit, closed = mismatches[0]
        closed = "no closed form" if closed is None else f"closed form {closed}"
        plural = "" if len(mismatches) == 1 else "es"
        detail = (f"{len(mismatches)} mismatch{plural}, first: center {base}, "
                  f"direction {mu}: flat limit {limit}, {closed}")
    check("flat-limit-oracle", not mismatches, detail)

    failing = [p.ideal for p in h3 if not fixedpoints.lemma_injectivity_check(p.ideal)]
    check(
        "injectivity-lemma",
        not failing,
        "cubic-multiplier condition holds for all 126 ideals"
        if not failing
        else f"fails at {failing[:3]}",
    )

    accepted = [w for w in ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1)) if bott.validate_weights(h4, w)]
    check(
        "degenerate-weights",
        not accepted,
        "(0,0,0,0,0) and (1,1,1,1,1) are rejected"
        if not accepted
        else f"{' and '.join(map(str, accepted))} accepted",
    )

    if (zero := bott.find_zero_weight(h4, bott.DEFAULT_WEIGHTS)) is not None:
        detail = (f"weights {bott.DEFAULT_WEIGHTS} give zero weight on tangent monomial "
                  f"{zero[1]} at fixed point {zero[0].label}")
        check("weight-independence", False, detail)
        return results
    reference = bott.bott_sum(h4, bott.DEFAULT_WEIGHTS).value
    values = set()
    for seed in range(base_seed, base_seed + VERIFY_SEED_COUNT):
        w, _ = bott.random_weight_search(seed, lo, hi, h4)
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
