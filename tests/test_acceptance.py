"""Acceptance suite: one test and one reported line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to see a pass/fail line
per criterion; each test also prints an ``ACCEPTANCE`` summary line
(visible with ``-s`` or ``-rA``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from quartics import checks, cli
from quartics.bott import (
    DEFAULT_WEIGHTS,
    bott_sum,
    random_weight_search,
    validate_weights,
)
from quartics.fixedpoints import (
    STAGE_BLOWUP1,
    STAGE_BLOWUP2,
    STAGE_GRASSMANNIAN,
    census,
    center_oracle_agreement,
    lemma_injectivity_check,
    stage1_centers,
    stage2_centers,
    stage2_composed_tangent,
)
from quartics.repring import invariant_sections


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS — {text}")


def test_criterion_1_headline_count(capsys, h4_points):
    """`count` with the default weights outputs exactly 6028452."""
    assert cli.main(["count"]) == 0
    assert capsys.readouterr().out.strip() == "6028452"
    assert bott_sum(h4_points, DEFAULT_WEIGHTS).value == Fraction(6028452)
    with capsys.disabled():
        _report(1, "default-weight count is exactly 6028452")


def test_criterion_2_fixed_point_census(h3_points, h4_points):
    """126 points split 12/42/72; hyperplane assembly yields 504."""
    assert len(h3_points) == 126
    assert census(h3_points) == {
        STAGE_GRASSMANNIAN: 12,
        STAGE_BLOWUP1: 42,
        STAGE_BLOWUP2: 72,
    }
    assert len(h4_points) == 504
    _report(2, "census 12/42/72 = 126 and 504 after assembly")


def test_criterion_3_dimension_and_rank_invariants(h3_points, h4_points):
    """Tangent sums 10 resp. 13; degree-6 fiber sums 13 on all 504 points."""
    assert {len(p.tangent) for p in h3_points} == {10}
    assert {len(p.tangent) for p in h4_points} == {13}
    assert {len(p.fiber) for p in h4_points} == {13}
    _report(3, "tangent sums 10/13 and fiber rank 13 everywhere")


def test_criterion_4_weight_independence(h4_points):
    """Ten random usable weight vectors from [1, 10^4] all give 6028452."""
    for seed in range(10):
        weights, _ = random_weight_search(seed, 1, 10_000, h4_points)
        # Validation, not runtime division failure, rejects bad vectors.
        assert validate_weights(h4_points, weights)
        assert bott_sum(h4_points, weights).value == Fraction(6028452)
    _report(4, "10 random weight vectors from [1, 10000] all give 6028452")


def test_criterion_5_flattening_oracle_equivalence():
    """Flat limits match the closed-form ideals in all 126 directions
    (114 retained fixed points plus 12 common-factor discards)."""
    directions = 0
    for center in stage1_centers() + stage2_centers():
        assert center_oracle_agreement(center) == []
        directions += len(center.normal_basis)
    assert directions == 126
    _report(5, "flat-limit oracle reproduces every closed-form blow-up ideal")


def test_criterion_6_center_table_consistency():
    """At every center the ambient tangent (Hom(I, V[2]/I) at stage 1, the
    blow-up tangent composition at stage 2) is the center tangent plus the
    normal space, term for term, and the normal space is 6 distinct
    degree-0 characters of multiplicity 1."""
    v2 = invariant_sections(3, 2)
    stage1 = stage1_centers()
    for center in stage1 + stage2_centers():
        gens = center.base_ideal
        if center.stage == STAGE_BLOWUP1:
            # The ring product V[2]·I* - I·I*.
            ambient = Counter(q / g for q in v2 for g in gens)
            ambient.subtract(h / g for h in gens for g in gens)
        else:
            ambient = stage2_composed_tangent(center.base_ideal, stage1)
        assert Counter(center.tangent_to_center + center.normal_basis) == ambient
        normal = center.normal_basis
        assert len(set(normal)) == len(normal) == 6
        assert all(m.degree == 0 for m in normal)
    _report(6, "center tables match independent tangent computations")


def test_criterion_7_lemma_pass(h3_points):
    """The cubic-multiplier condition holds for all 126 ideals."""
    assert all(lemma_injectivity_check(p.ideal) for p in h3_points)
    _report(7, "injectivity lemma holds for all 126 ideals")


def test_criterion_8_sanity_negatives(capsys, h4_points):
    """Degenerate weight vectors are rejected; dumps are byte-identical."""
    assert not validate_weights(h4_points, (0, 0, 0, 0, 0))
    assert not validate_weights(h4_points, (1, 1, 1, 1, 1))
    runs = []
    for _ in range(2):
        assert cli.main(["fixed-points", "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    with capsys.disabled():
        _report(8, "degenerate weights rejected; dumps byte-identical")


def test_criterion_9_verify_suite():
    """`checks.run_checks` reports exactly the ten named checks, in order,
    all passing."""
    results = checks.run_checks()
    assert [r.name for r in results] == [
        "census",
        "tangent-dimensions",
        "fiber-ranks",
        "tangent-characters",
        "stage1-tables",
        "stage2-tables",
        "flat-limit-oracle",
        "injectivity-lemma",
        "degenerate-weights",
        "weight-independence",
    ]
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    _report(9, "the verify suite passes its ten named checks")
