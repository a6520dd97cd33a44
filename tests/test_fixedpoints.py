from __future__ import annotations

from itertools import permutations

import pytest

from conftest import fixed_point_from_record, parse_monomial
from quartics import fixedpoints
from quartics.bott import DEFAULT_WEIGHTS, bott_sum, validate_weights
from quartics.fixedpoints import (
    PERM_H,
    STAGE_BLOWUP1,
    STAGE_BLOWUP2,
    STAGE_GRASSMANNIAN,
    BlowupCenterDatum,
    FixedPoint,
    assemble_h4,
    blowup_fixed_points,
    blowup_point_tangent,
    census,
    center_oracle_agreement,
    enumerate_h3,
    fiber_rep,
    fixed_point_record,
    grassmann_fixed_points,
    lemma_injectivity_check,
    limit_ideal_oracle,
    stage1_centers,
    stage2_centers,
    stage2_composed_tangent,
)
from quartics.repring import (
    LaurentMonomial,
    MonomialIdeal,
    RepElement,
    ideal_twist,
    invariant_sections,
)


def mono(text: str, nvars: int = 4) -> LaurentMonomial:
    return parse_monomial(text, nvars)


def ideal(*texts: str) -> MonomialIdeal:
    return MonomialIdeal(map(mono, texts))


def permute_ideal(I: MonomialIdeal, images: tuple[int, int, int]) -> MonomialIdeal:
    return MonomialIdeal(g.remap((0, *images), 4) for g in I.generators)


# ---------------------------------------------------------------------------
#  Grassmannian stage
# ---------------------------------------------------------------------------


def test_grassmannian_census():
    points = grassmann_fixed_points()
    assert len(points) == 12
    assert all(p.stage == STAGE_GRASSMANNIAN for p in points)
    assert all(len(p.ideal.generators) == 2 for p in points)


def test_grassmannian_pairs_have_disjoint_support():
    expected = {
        ideal("x0^2", "x1^2"), ideal("x0^2", "x2^2"), ideal("x0^2", "x3^2"),
        ideal("x1^2", "x2^2"), ideal("x1^2", "x3^2"), ideal("x2^2", "x3^2"),
        ideal("x0^2", "x1*x2"), ideal("x0^2", "x1*x3"), ideal("x0^2", "x2*x3"),
        ideal("x1^2", "x2*x3"), ideal("x2^2", "x1*x3"), ideal("x3^2", "x1*x2"),
    }
    assert {p.ideal for p in grassmann_fixed_points()} == expected
    # Pairs sharing a variable belong to the blow-up center, not here.
    assert ideal("x1^2", "x1*x2") not in expected


def test_grassmannian_tangent_terms():
    point = next(
        p for p in grassmann_fixed_points() if p.ideal == ideal("x0^2", "x1^2")
    )
    assert point.tangent.dimension == 10
    terms = dict(point.tangent.items())
    assert terms[mono("x2^2*x0^-2")] == 1
    assert terms[mono("x2*x3*x1^-2")] == 1


def test_grassmannian_orbits_under_cyclic_relabeling():
    ideals = {p.ideal for p in grassmann_fixed_points()}
    orbits = set()
    for I in ideals:
        orbit = frozenset(permute_ideal(I, images) for images in [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
        assert orbit <= ideals
        orbits.add(orbit)
    assert sorted(len(o) for o in orbits) == [3, 3, 3, 3]


# ---------------------------------------------------------------------------
#  Blow-up center tables
# ---------------------------------------------------------------------------


def test_stage1_center_census():
    centers = stage1_centers()
    assert len(centers) == 9
    assert all(len(c.normal_basis) == 6 for c in centers)
    assert all(c.tangent_to_center.dimension == 4 for c in centers)


def test_stage1_pencil_table():
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1*x2", "x1*x3")
    )
    assert set(center.normal_basis) == {
        mono("x0^2*x1^-1*x2^-1"), mono("x0^2*x1^-1*x3^-1"),
        mono("x2*x1^-1"), mono("x3*x1^-1"),
        mono("x3^2*x1^-1*x2^-1"), mono("x2^2*x1^-1*x3^-1"),
    }
    assert center.lcm_base == mono("x1*x2*x3")


def test_stage1_tables_match_ambient_tangent():
    # The derived center tangent and normal space split Hom(I, V[2]/I)
    # at every first-stage center.
    v2 = RepElement.from_monomials(invariant_sections(3, 2))
    for center in stage1_centers():
        gens = RepElement.from_monomials(center.base_ideal.generators)
        ambient = (v2 - gens) * gens.dual()
        assert center.tangent_to_center + center.normal_basis == ambient, center.base_ideal
    # The double-line center (x1^2, x1*x2), term for term.
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1^2", "x1*x2")
    )
    assert center.tangent_to_center == RepElement(
        [(mono("x3*x1^-1"), 2), (mono("x3*x2^-1"), 1), (mono("x2*x1^-1"), 1)]
    )
    assert set(center.normal_basis) == {
        mono("x0^2*x1^-2"), mono("x0^2*x1^-1*x2^-1"), mono("x2^2*x1^-2"),
        mono("x3^2*x1^-2"), mono("x3^2*x1^-1*x2^-1"), mono("x2*x3*x1^-2"),
    }
    assert center.lcm_base == mono("x1^2*x2")


# The second-stage centers as typed rows (base ideal, lcm_base, tangent to
# the center) at the identity labeling of x1,x2,x3: the two candidate
# families from the type (x1^2, x1*x2) whose lifted generator keeps the
# common factor x1.  The twelve centers are these rows under the six
# relabelings of x1,x2,x3.
STAGE2_ROWS = (
    (("x1^2", "x1*x2", "x1*x3^2"), "x1*x2*x3^2",
     ("x3*x1^-1", "x2*x1^-1", "x3*x2^-1", "x0^2*x3^-2")),
    (("x1^2", "x1*x2", "x0^2*x1"), "x0^2*x1*x2",
     ("x3*x1^-1", "x2*x1^-1", "x3*x2^-1", "x3^2*x0^-2")),
)


def test_stage2_centers_match_typed_rows():
    typed = set()
    for gens, lcm, tangent in STAGE2_ROWS:
        for images in permutations((1, 2, 3)):
            perm = (0, *images)
            typed.add((
                MonomialIdeal(mono(g).remap(perm, 4) for g in gens),
                mono(lcm).remap(perm, 4),
                RepElement.from_monomials(mono(t).remap(perm, 4) for t in tangent),
            ))
    derived = [(c.base_ideal, c.lcm_base, c.tangent_to_center) for c in stage2_centers()]
    assert len(typed) == len(derived) == 12
    assert set(derived) == typed


def test_stage2_center_census():
    centers = stage2_centers()
    assert len(centers) == 12
    assert all(len(c.normal_basis) == 6 for c in centers)
    assert all(c.tangent_to_center.dimension == 4 for c in centers)


def test_stage2_tables_match_blowup_composition():
    # Second-stage centers are points of the first exceptional divisor;
    # their tangent-plus-normal sum must agree term for term with the
    # blow-up tangent decomposition over the parent first-stage center.
    stage1 = stage1_centers()
    for center in stage2_centers():
        assert stage2_composed_tangent(center.base_ideal, stage1) == (
            center.tangent_to_center + center.normal_basis
        )


def test_stage2_cusp_table_terms():
    center = next(
        c
        for c in stage2_centers()
        if c.base_ideal == ideal("x1^2", "x1*x2", "x1*x3^2")
    )
    expected = RepElement(
        [
            (mono("x3*x1^-1"), 2),
            (mono("x2*x1^-1"), 2),
            (mono("x3*x2^-1"), 1),
            (mono("x0^2*x3^-2"), 1),
            (mono("x3^2*x1^-1*x2^-1"), 1),
            (mono("x2^3*x1^-1*x3^-2"), 1),
            (mono("x2^2*x1^-1*x3^-1"), 1),
            (mono("x0^2*x2*x1^-1*x3^-2"), 1),
        ]
    )
    assert center.tangent_to_center + center.normal_basis == expected


def test_stage2_excluded_directions_stay_in_center_tangent():
    # Directions that would keep the common factor x1 (x3/x2 and
    # x0^2/x3^2) are part of the center's own tangent space, not of the
    # normal basis used to produce fixed points.
    center = next(
        c
        for c in stage2_centers()
        if c.base_ideal == ideal("x1^2", "x1*x2", "x1*x3^2")
    )
    for excluded in [mono("x3*x2^-1"), mono("x0^2*x3^-2")]:
        assert excluded not in center.normal_basis
        assert excluded in center.tangent_to_center


# ---------------------------------------------------------------------------
#  Exceptional-divisor fixed points
# ---------------------------------------------------------------------------


def test_blowup_points_of_pencil_center():
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1*x2", "x1*x3")
    )
    points = blowup_fixed_points(center)
    new_gens = {p.ideal.generators[-1] for p in points} | {
        g for p in points for g in p.ideal.generators
    }
    expected_new = {
        mono("x0^2*x2"), mono("x0^2*x3"), mono("x2^3"),
        mono("x2^2*x3"), mono("x2*x3^2"), mono("x3^3"),
    }
    assert len(points) == 6
    assert expected_new <= new_gens
    assert all(p.stage == STAGE_BLOWUP1 for p in points)
    assert all(p.tangent.dimension == 10 for p in points)


def test_blowup_discards_common_factor_candidates():
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1^2", "x1*x2")
    )
    points = blowup_fixed_points(center)
    assert len(points) == 4  # two of six candidates keep the factor x1
    produced = {p.ideal for p in points}
    assert ideal("x1^2", "x1*x2", "x1*x3^2") not in produced
    assert ideal("x1^2", "x1*x2", "x0^2*x1") not in produced
    # The discarded candidates are exactly the second-stage center bases.
    stage2_bases = {c.base_ideal for c in stage2_centers()}
    assert ideal("x1^2", "x1*x2", "x1*x3^2") in stage2_bases
    assert ideal("x1^2", "x1*x2", "x0^2*x1") in stage2_bases
    candidates = [
        MonomialIdeal((*c.base_ideal.generators, c.lcm_base * mu))
        for c in stage1_centers()
        for mu in c.normal_basis
    ]
    discarded = [I for I in candidates if I.has_common_factor()]
    assert len(discarded) == 12
    assert set(discarded) == stage2_bases


def test_blowup_points_of_cusp_center():
    center = next(
        c
        for c in stage2_centers()
        if c.base_ideal == ideal("x1^2", "x1*x2", "x1*x3^2")
    )
    points = blowup_fixed_points(center)
    assert len(points) == 6
    fourth_gens = {
        (set(p.ideal.generators) - set(center.base_ideal.generators)).pop()
        for p in points
    }
    assert fourth_gens == {
        mono("x2*x3^3"), mono("x2^2*x3^2"), mono("x3^4"),
        mono("x2^4"), mono("x2^3*x3"), mono("x0^2*x2^2"),
    }


def test_blowup_empty_normal_basis_returns_nothing():
    center = stage1_centers()[0]
    degenerate = BlowupCenterDatum(
        base_ideal=center.base_ideal,
        tangent_to_center=center.tangent_to_center,
        normal_basis=RepElement(),
        lcm_base=center.lcm_base,
        stage=center.stage,
    )
    assert blowup_fixed_points(degenerate) == []


def test_blowup_rejects_inconsistent_center_data():
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1*x2", "x1*x3")
    )
    broken = BlowupCenterDatum(
        base_ideal=center.base_ideal,
        tangent_to_center=center.tangent_to_center,
        # lcm * mu has a negative exponent
        normal_basis=RepElement.from_monomials([mono("x2^2*x1^-2")]),
        lcm_base=center.lcm_base,
        stage=center.stage,
    )
    with pytest.raises(ValueError):
        blowup_fixed_points(broken)


def test_blowup_point_tangent_requires_normal_direction():
    center = stage1_centers()[0]
    with pytest.raises(ValueError):
        blowup_point_tangent(center, mono("x0^2*x2^-1*x3^-1"))


# ---------------------------------------------------------------------------
#  Flat-limit oracle
# ---------------------------------------------------------------------------


def test_oracle_lifts_single_syzygy():
    base = ideal("x1*x2", "x1*x3")
    limit = limit_ideal_oracle(base, mono("x0^2*x1^-1*x2^-1"))
    assert limit == ideal("x1*x2", "x1*x3", "x0^2*x3")


def test_oracle_trivial_direction_is_identity():
    base = ideal("x1*x2", "x1*x3")
    assert limit_ideal_oracle(base, mono("1")) == base


def test_oracle_requires_degree_zero_direction():
    with pytest.raises(ValueError):
        limit_ideal_oracle(ideal("x1*x2", "x1*x3"), mono("x2"))


def test_oracle_needs_distinct_scalars():
    # The direction x2/x1 moves the pair (x1*x2, x1*x3) to the point with
    # extra generator x2^2*x3.  With equal perturbation scalars the family
    # degenerates to a coordinate change along the blow-up center and no
    # new generator appears, so the iteration must use distinct scalars.
    base = ideal("x1*x2", "x1*x3")
    limit = limit_ideal_oracle(base, mono("x2*x1^-1"))
    assert limit == ideal("x1*x2", "x1*x3", "x2^2*x3")


def test_oracle_reproduces_stage1_discards():
    # Directions discarded at the first stage flow into the second-stage
    # center ideals; the oracle computes the same closed form for them.
    base = ideal("x1^2", "x1*x2")
    assert limit_ideal_oracle(base, mono("x3^2*x1^-1*x2^-1")) == ideal(
        "x1^2", "x1*x2", "x1*x3^2"
    )
    assert limit_ideal_oracle(base, mono("x0^2*x1^-1*x2^-1")) == ideal(
        "x1^2", "x1*x2", "x0^2*x1"
    )


def test_oracle_excluded_stage2_directions_lift():
    # At a second-stage center the two tangent directions that stay inside
    # the common-factor locus leave the ideal unchanged: every syzygy of
    # the perturbed family already lifts.
    base = ideal("x1^2", "x1*x2", "x1*x3^2")
    assert limit_ideal_oracle(base, mono("x3*x2^-1")) == base
    assert limit_ideal_oracle(base, mono("x0^2*x3^-2")) == base


def test_oracle_agrees_with_closed_forms_everywhere():
    total = 0
    for center in stage1_centers() + stage2_centers():
        assert center_oracle_agreement(center) == []
        total += len(center.normal_basis)
    assert total == 126  # 54 first-stage and 72 second-stage directions


def test_oracle_catches_mutated_center_table():
    # Fault injection: corrupt one normal direction of a first-stage
    # center and the flat limit no longer matches the closed-form ideal.
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1*x2", "x1*x3")
    )
    mutated = BlowupCenterDatum(
        base_ideal=center.base_ideal,
        tangent_to_center=center.tangent_to_center,
        normal_basis=center.normal_basis
        - RepElement.from_monomials([mono("x0^2*x1^-1*x2^-1")])
        + RepElement.from_monomials([mono("x0^2*x2^-1*x3^-1")]),
        lcm_base=center.lcm_base,
        stage=center.stage,
    )
    mismatches = center_oracle_agreement(mutated)
    assert mismatches
    direction, limit, closed_form = mismatches[0]
    assert direction == mono("x0^2*x2^-1*x3^-1")
    assert limit != closed_form


# ---------------------------------------------------------------------------
#  Full enumeration of the P(2,1,1,1) component
# ---------------------------------------------------------------------------


def test_h3_census(h3_points):
    assert len(h3_points) == 126
    assert census(h3_points) == {
        STAGE_GRASSMANNIAN: 12,
        STAGE_BLOWUP1: 42,
        STAGE_BLOWUP2: 72,
    }


def test_h3_ideals_are_distinct(h3_points):
    assert len({p.ideal for p in h3_points}) == 126


def test_h3_tangent_dimensions(h3_points):
    assert {p.tangent.dimension for p in h3_points} == {10}


def test_h3_no_trivial_tangent_character(h3_points):
    assert not any(m.is_trivial() for p in h3_points for m in p.tangent)


def test_h3_multiplicities_positive(h3_points):
    for p in h3_points:
        assert all(k >= 1 for _, k in p.tangent.items())
        assert all(k == 1 for _, k in p.fiber.items())


def test_h3_orbit_partition(h3_points):
    # The 126 ideals are closed under relabeling x1,x2,x3; orbit sizes are
    # 3 at the Grassmannian stage and 6 at both blow-up stages.
    ideals = {p.ideal: p.stage for p in h3_points}
    orbits: dict[str, set[frozenset]] = {s: set() for s in ideals.values()}
    for I, stage in ideals.items():
        orbit = frozenset(
            permute_ideal(I, images) for images in permutations((1, 2, 3))
        )
        assert set(orbit) <= set(ideals), I
        orbits[stage].add(orbit)
    assert sorted(len(o) for o in orbits[STAGE_GRASSMANNIAN]) == [3, 3, 3, 3]
    assert sorted(len(o) for o in orbits[STAGE_BLOWUP1]) == [6] * 7
    assert sorted(len(o) for o in orbits[STAGE_BLOWUP2]) == [6] * 12


def test_h3_lemma_holds_everywhere(h3_points):
    assert all(lemma_injectivity_check(p.ideal) for p in h3_points)


def test_h3_canonical_order_is_stable(h3_points):
    assert [p.ideal for p in h3_points] == [p.ideal for p in enumerate_h3()]
    keys = [p.sort_key() for p in h3_points]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
#  Assembly over the dual projective space
# ---------------------------------------------------------------------------


def test_h4_census(h4_points):
    assert len(h4_points) == 504
    for i in range(1, 5):
        assert sum(1 for p in h4_points if p.hyperplane == i) == 126


def test_h4_dimensions(h4_points):
    assert {p.tangent.dimension for p in h4_points} == {13}
    assert {p.fiber.dimension for p in h4_points} == {13}


def test_h4_ideals_are_distinct(h4_points):
    assert len({p.ideal for p in h4_points}) == 504


def test_h4_hyperplane_generator_and_fiber(h4_points):
    for p in h4_points:
        x_i = mono(f"x{p.hyperplane}", 5)
        assert x_i in p.ideal.generators
        # Monomials divisible by x_i lie in the ideal, so the fiber of a
        # point spanning {x_i = 0} has no term involving that character.
        assert all(m[p.hyperplane] == 0 for m in p.fiber)


def test_h4_tangent_contains_hyperplane_directions(h4_points):
    point = next(p for p in h4_points if p.hyperplane == 2)
    for j in (1, 3, 4):
        assert dict(point.tangent.items()).get(mono(f"x{j}*x2^-1", 5), 0) >= 1


def test_assemble_rejects_wrong_input_size(h3_points):
    with pytest.raises(ValueError):
        assemble_h4(h3_points[:10])


#: A second hyperplane table: each hyperplane's weight-one characters in
#: reverse cyclic order.
ALT_PERM_H = {1: (0, 4, 3, 2), 2: (0, 1, 4, 3), 3: (0, 2, 1, 4), 4: (0, 3, 2, 1)}


def test_relabeled_assembly_gives_the_same_count(h3_points, monkeypatch):
    # The hyperplane/character correspondence is a convention: any
    # bijective relabeling of the weight-one characters yields the same
    # localization value.  In fact the 126 points are closed under
    # relabeling x1,x2,x3 and all attached data is equivariant, so the
    # assembled point set is identical and the sum follows.
    default = assemble_h4(h3_points)
    monkeypatch.setattr(fixedpoints, "PERM_H", ALT_PERM_H)
    relabeled = assemble_h4(h3_points)
    assert set(relabeled) == set(default)
    assert validate_weights(relabeled, DEFAULT_WEIGHTS)
    assert (
        bott_sum(relabeled, DEFAULT_WEIGHTS).value
        == bott_sum(default, DEFAULT_WEIGHTS).value
    )


def test_assembly_reads_the_hyperplane_table_when_called(h3_points, h4_points, monkeypatch):
    # Every valid table gives the same 504 points, so only an invalid one
    # shows which table `assemble_h4` read: this one lands hyperplane 1's
    # points on x1.  Those 126 points all change and the other 378 do not;
    # a table bound when the module was imported would change none.
    monkeypatch.setattr(fixedpoints, "PERM_H", {**PERM_H, 1: PERM_H[4]})
    moved = assemble_h4(h3_points)
    on_1 = [p for p in moved if p.hyperplane == 1]
    assert len(on_1) == 126
    assert not set(on_1) & set(h4_points)
    assert [p for p in moved if p.hyperplane != 1] == [p for p in h4_points if p.hyperplane != 1]


def _direct_h4(h3_points):
    """Oracle for `assemble_h4`: each point re-embedded on its own, its
    tangent remapped as a whole and its fiber computed from its ideal."""
    linear = invariant_sections(4, 1)
    points = []
    for i, x_i in enumerate(linear, start=1):
        perm = fixedpoints.PERM_H[i]
        dual = RepElement.from_monomials(x_j / x_i for x_j in linear if x_j != x_i)
        for p in h3_points:
            ideal = MonomialIdeal([*(g.remap(perm, 5) for g in p.ideal.generators), x_i])
            tangent = RepElement((m.remap(perm, 5), k) for m, k in p.tangent.items()) + dual
            points.append(FixedPoint(p.stage, ideal, tangent, fiber_rep(ideal), i))
    return sorted(points, key=FixedPoint.sort_key)


@pytest.mark.parametrize("perm_h", [PERM_H, ALT_PERM_H], ids=["default", "relabeled"])
def test_assembly_matches_direct_construction(h3_points, perm_h, monkeypatch):
    monkeypatch.setattr(fixedpoints, "PERM_H", perm_h)
    assembled, direct = assemble_h4(h3_points), _direct_h4(h3_points)
    assert len(assembled) == len(direct) == 504
    for got, want in zip(assembled, direct):
        for field in ("stage", "hyperplane", "ideal", "tangent", "fiber"):
            assert getattr(got, field) == getattr(want, field), (want.label, field)


# ---------------------------------------------------------------------------
#  Fiber spaces and the embedding lemma
# ---------------------------------------------------------------------------


def test_fiber_rep_examples():
    # The fiber of (x0^2, x1^2) consists of the 13 invariant sextics with
    # no x0 and at most one x1.
    assert set(fiber_rep(ideal("x0^2", "x1^2"))) == {
        LaurentMonomial((0, e1, e2, 6 - e1 - e2))
        for e1 in (0, 1)
        for e2 in range(7 - e1)
    }
    assert fiber_rep(ideal("x0^2", "x1", "x2", "x3")) == RepElement()


def test_fiber_rank_thirteen_at_degree_six(h3_points):
    assert {fiber_rep(p.ideal).dimension for p in h3_points} == {13}


def test_fiber_rep_is_sections_minus_twist(h3_points, h4_points):
    for p in [*h3_points, *h4_points]:
        n = p.ideal.nvars - 1
        sections = invariant_sections(n, 6)
        twist = ideal_twist(p.ideal, 6)
        assert p.fiber == (
            RepElement.from_monomials(sections) - RepElement.from_monomials(twist)
        ), p.ideal
        assert {k for _, k in p.fiber.items()} == {1}
        assert len(p.fiber) + len(twist) == len(sections) == {3: 50, 4: 130}[n]


def test_lemma_injectivity_examples():
    assert lemma_injectivity_check(ideal("x1*x2", "x1*x3", "x0^2*x2"))
    # All invariant quartics, with every invariant cubic outside: each
    # multiplier x_i m is a quartic inside the ideal, so the check fails.
    quartics_ideal = MonomialIdeal(invariant_sections(3, 4))
    assert not lemma_injectivity_check(quartics_ideal)


# ---------------------------------------------------------------------------
#  Serialization round trip
# ---------------------------------------------------------------------------


def test_fixed_point_record_round_trip(h3_points, h4_points):
    for p in list(h3_points)[:5] + list(h4_points)[:5]:
        record = fixed_point_record(p)
        assert fixed_point_from_record(record) == p
