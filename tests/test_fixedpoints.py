from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HAND_IDEALS, fixed_point_from_record, parse_monomial, record_dict, remap
from quartics import fixedpoints
from quartics.fixedpoints import (
    STAGE_BLOWUP1,
    STAGE_BLOWUP2,
    STAGE_GRASSMANNIAN,
    STAGES,
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
    grassmann_tangent,
    lemma_injectivity_check,
    limit_ideal_oracle,
    stage1_centers,
    stage2_centers,
    stage2_composed_tangent,
)
from quartics.repring import (
    LaurentMonomial,
    MonomialIdeal,
    ideal_twist,
    invariant_sections,
)


def mono(text: str, nvars: int = 4) -> LaurentMonomial:
    return parse_monomial(text, nvars)


def ideal(*texts: str) -> MonomialIdeal:
    return MonomialIdeal(map(mono, texts))


def permute_ideal(I: MonomialIdeal, images: tuple[int, int, int]) -> MonomialIdeal:
    return MonomialIdeal(remap(g, (0, *images), 4) for g in I)


def ambient_tangent(I: MonomialIdeal) -> Counter[LaurentMonomial]:
    """Oracle for Hom(I, V[2]/I): the ring product V[2]·I* - I·I*."""
    ambient = Counter(q / g for q in invariant_sections(3, 2) for g in I)
    ambient.subtract(h / g for h in I for g in I)
    return ambient


# ---------------------------------------------------------------------------
#  Grassmannian stage
# ---------------------------------------------------------------------------


def test_grassmannian_census():
    points = grassmann_fixed_points()
    assert len(points) == 12
    assert all(p.stage == STAGE_GRASSMANNIAN for p in points)
    assert all(len(p.ideal) == 2 for p in points)


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


def test_grassmannian_pencils_split_into_points_and_stage1_bases():
    # G(2, V[2]) has 21 coordinate pencils.  The 12 without a common factor
    # are the Grassmannian points; the 9 with one are the stage-1 center
    # bases, built independently as products l*W.  The two derivations
    # cover the pencils once each: 12 = 21 - 9.
    pencils = {MonomialIdeal(pair) for pair in combinations(invariant_sections(3, 2), 2)}
    points = [p.ideal for p in grassmann_fixed_points()]
    bases = [c.base_ideal for c in stage1_centers()]
    assert (len(pencils), len(points), len(bases)) == (21, 12, 9)
    assert set(points).isdisjoint(bases)
    assert set(points) | set(bases) == pencils
    assert {I for I in pencils if I.has_common_factor()} == set(bases)


def test_grassmannian_tangent_terms():
    point = next(
        p for p in grassmann_fixed_points() if p.ideal == ideal("x0^2", "x1^2")
    )
    assert len(point.tangent) == 10
    terms = Counter(point.tangent)
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


def canonical(characters: tuple[LaurentMonomial, ...]) -> bool:
    return characters == tuple(sorted(characters, reverse=True))


def test_stage1_center_census():
    # Each center is an immutable, hashable record of canonical tuples.
    centers = stage1_centers()
    assert len(set(centers)) == 9
    assert all(len(c.normal_basis) == 6 for c in centers)
    assert all(len(c.tangent_to_center) == 4 for c in centers)
    assert all(canonical(c.normal_basis) and canonical(c.tangent_to_center) for c in centers)


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
    centers = stage1_centers()
    for center in centers:
        ambient = ambient_tangent(center.base_ideal)
        assert Counter(center.tangent_to_center + center.normal_basis) == ambient, center.base_ideal
    # The Grassmannian point (x0^2, x1^2) is one more input: 5 residual
    # quadrics times 2 dual generators.
    for I in [*(c.base_ideal for c in centers), ideal("x0^2", "x1^2")]:
        assert grassmann_tangent(I) == ambient_tangent(I), I
    assert ambient_tangent(ideal("x0^2", "x1^2")).total() == 10
    # The double-line center (x1^2, x1*x2), term for term.
    center = next(
        c for c in centers if c.base_ideal == ideal("x1^2", "x1*x2")
    )
    assert Counter(center.tangent_to_center) == Counter(
        {mono("x3*x1^-1"): 2, mono("x3*x2^-1"): 1, mono("x2*x1^-1"): 1}
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
    # Each tangent is compared as the character tuple in canonical order
    # that the center stores.
    typed = set()
    for gens, lcm, tangent in STAGE2_ROWS:
        for images in permutations((1, 2, 3)):
            perm = (0, *images)
            typed.add((
                MonomialIdeal(remap(mono(g), perm, 4) for g in gens),
                remap(mono(lcm), perm, 4),
                tuple(sorted((remap(mono(t), perm, 4) for t in tangent), reverse=True)),
            ))
    derived = [(c.base_ideal, c.lcm_base, c.tangent_to_center) for c in stage2_centers()]
    assert len(typed) == len(derived) == 12
    assert set(derived) == typed


def test_stage2_center_census():
    centers = stage2_centers()
    assert len(set(centers)) == 12
    assert all(len(c.normal_basis) == 6 for c in centers)
    assert all(len(c.tangent_to_center) == 4 for c in centers)
    assert all(canonical(c.normal_basis) and canonical(c.tangent_to_center) for c in centers)


def test_stage2_tables_match_blowup_composition():
    # Second-stage centers are points of the first exceptional divisor;
    # their tangent-plus-normal sum must agree term for term with the
    # blow-up tangent decomposition over the parent first-stage center.
    stage1 = stage1_centers()
    for center in stage2_centers():
        assert stage2_composed_tangent(center.base_ideal, stage1) == Counter(
            center.tangent_to_center + center.normal_basis
        )


def test_stage2_cusp_table_terms():
    center = next(
        c
        for c in stage2_centers()
        if c.base_ideal == ideal("x1^2", "x1*x2", "x1*x3^2")
    )
    expected = Counter(
        {
            mono("x3*x1^-1"): 2,
            mono("x2*x1^-1"): 2,
            mono("x3*x2^-1"): 1,
            mono("x0^2*x3^-2"): 1,
            mono("x3^2*x1^-1*x2^-1"): 1,
            mono("x2^3*x1^-1*x3^-2"): 1,
            mono("x2^2*x1^-1*x3^-1"): 1,
            mono("x0^2*x2*x1^-1*x3^-2"): 1,
        }
    )
    assert Counter(center.tangent_to_center + center.normal_basis) == expected


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
    new_gens = {g for p in points for g in p.ideal}
    expected_new = {
        mono("x0^2*x2"), mono("x0^2*x3"), mono("x2^3"),
        mono("x2^2*x3"), mono("x2*x3^2"), mono("x3^3"),
    }
    assert len(points) == 6
    assert expected_new <= new_gens
    assert all(p.stage == STAGE_BLOWUP1 for p in points)
    assert all(len(p.tangent) == 10 for p in points)


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
        MonomialIdeal((*c.base_ideal, c.lcm_base * mu))
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
    fourth_gens = {(set(p.ideal) - set(center.base_ideal)).pop() for p in points}
    assert fourth_gens == {
        mono("x2*x3^3"), mono("x2^2*x3^2"), mono("x3^4"),
        mono("x2^4"), mono("x2^3*x3"), mono("x0^2*x2^2"),
    }


def test_blowup_empty_normal_basis_returns_nothing():
    degenerate = stage1_centers()[0]._replace(normal_basis=())
    assert blowup_fixed_points(degenerate) == []


def test_blowup_rejects_inconsistent_center_data():
    center = next(
        c for c in stage1_centers() if c.base_ideal == ideal("x1*x2", "x1*x3")
    )
    # lcm * mu has a negative exponent
    broken = center._replace(normal_basis=(mono("x2^2*x1^-2"),))
    with pytest.raises(ValueError):
        blowup_fixed_points(broken)


def test_blowup_point_tangent_requires_normal_direction():
    center = stage1_centers()[0]
    with pytest.raises(ValueError):
        blowup_point_tangent(center, mono("x0^2*x2^-1*x3^-1"))


def test_normal_space_difference_rejects_a_negative_multiplicity():
    # Counter `-` would drop the missing character without a word.
    a = Counter([mono("x1*x2^-1"), mono("x3*x2^-1")])
    assert fixedpoints._difference(a, Counter([mono("x3*x2^-1")])) == Counter([mono("x1*x2^-1")])
    with pytest.raises(ValueError, match=r"negative multiplicity at x0\^2: -1"):
        fixedpoints._difference(a, Counter([mono("x0^2"), mono("x1*x2^-1")]))
    with pytest.raises(ValueError, match=r"negative multiplicity at x2\^-1\*x3: -1"):
        fixedpoints._difference(a, Counter({mono("x3*x2^-1"): 2}))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stage2_composed_tangent(ideal("x1^2", "x1*x2"), stage1_centers()),
         "no unique parent center for (x1^2, x1*x2)"),
        # The parent (x1^2, x1*x2) is unique, but two generators are new.
        (lambda: stage2_composed_tangent(
            ideal("x1^2", "x1*x2", "x1*x3^2", "x0^2*x1"), stage1_centers()),
         "expected one extra generator in (x0^2*x1, x1^2, x1*x2, x1*x3^2)"),
        (lambda: invariant_sections(0, 1), "need at least two characters, got n=0"),
        (lambda: invariant_sections(3, -1), "negative degree: -1"),
        (lambda: lemma_injectivity_check(MonomialIdeal([mono("x1", 5)])),
         "expected four characters: (x1)"),
    ],
    ids=["no-parent", "two-extra", "one-character", "negative-degree", "five-characters"],
)
def test_guards_name_their_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
    normal = Counter(center.normal_basis)
    normal[mono("x0^2*x1^-1*x2^-1")] -= 1
    normal[mono("x0^2*x2^-1*x3^-1")] += 1
    mutated = center._replace(normal_basis=fixedpoints._characters(normal))
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
    assert {len(p.tangent) for p in h3_points} == {10}


def test_h3_no_trivial_tangent_character(h3_points):
    assert not any(m.is_trivial() for p in h3_points for m in p.tangent)


def test_h3_multiplicities_positive(h3_points):
    # A point repeats each character by its multiplicity, in canonical
    # order; each fiber section occurs once.
    for p in h3_points:
        assert list(p.tangent) == sorted(p.tangent, reverse=True), p.label
        assert list(p.fiber) == sorted(set(p.fiber), reverse=True), p.label


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
    # The points themselves, tangents and fibers included, are closed under
    # the same relabelings.  `assemble_h4` rests on this: it embeds x1, x2,
    # x3 in order into each hyperplane, and any other order would give the
    # same 504 points.
    points = {(p.stage, p.ideal, p.tangent, p.fiber) for p in h3_points}
    for images in permutations((1, 2, 3)):
        perm = (0, *images)

        def carry(characters):
            return tuple(sorted((remap(m, perm, 4) for m in characters), reverse=True))

        relabeled = {
            (stage, permute_ideal(I, images), carry(tangent), carry(fiber))
            for stage, I, tangent, fiber in points
        }
        assert relabeled == points, images


def test_h3_lemma_holds_everywhere(h3_points):
    assert all(lemma_injectivity_check(p.ideal) for p in h3_points)


def nested_order_key(point: FixedPoint) -> tuple:
    """The canonical point order spelled out, the oracle for
    `FixedPoint.sort_key`: hyperplane, stage, then the generators with
    negated exponents as a tuple of tuples."""
    return (
        point.hyperplane or 0,
        STAGES.index(point.stage),
        tuple(tuple(-e for e in g) for g in point.ideal),
    )


def test_h3_canonical_order_is_stable(h3_points, h4_points):
    assert [p.ideal for p in h3_points] == [p.ideal for p in enumerate_h3()]
    for points in (h3_points, h4_points):
        keys = list(map(nested_order_key, points))
        assert all(a < b for a, b in zip(keys, keys[1:]))


# ---------------------------------------------------------------------------
#  Assembly over the dual projective space
# ---------------------------------------------------------------------------


def test_h4_census(h4_points):
    assert len(h4_points) == 504
    for i in range(1, 5):
        assert sum(1 for p in h4_points if p.hyperplane == i) == 126


def test_h4_dimensions(h4_points):
    assert {len(p.tangent) for p in h4_points} == {13}
    assert {len(p.fiber) for p in h4_points} == {13}


def test_h4_ideals_are_distinct(h4_points):
    assert len({p.ideal for p in h4_points}) == 504


def test_h4_hyperplane_generator_and_fiber(h4_points):
    for p in h4_points:
        x_i = mono(f"x{p.hyperplane}", 5)
        assert x_i in p.ideal
        # Monomials divisible by x_i lie in the ideal, so the fiber of a
        # point spanning {x_i = 0} has no term involving that character.
        assert all(m[p.hyperplane] == 0 for m in p.fiber)


def test_h4_tangent_contains_hyperplane_directions(h4_points):
    point = next(p for p in h4_points if p.hyperplane == 2)
    for j in (1, 3, 4):
        assert mono(f"x{j}*x2^-1", 5) in point.tangent


def test_assemble_rejects_wrong_input_size(h3_points):
    with pytest.raises(ValueError):
        assemble_h4(h3_points[:10])


#: Two hyperplane tables, index i -> where the four P(2,1,1,1) characters
#: (x0, x1, x2, x3) land among the five of P(2,1,1,1,1): the weight-one
#: characters other than x_i in cyclic order, and in reverse cyclic order.
CYCLIC_PERM_H = {1: (0, 2, 3, 4), 2: (0, 3, 4, 1), 3: (0, 4, 1, 2), 4: (0, 1, 2, 3)}
ALT_PERM_H = {1: (0, 4, 3, 2), 2: (0, 1, 4, 3), 3: (0, 2, 1, 4), 4: (0, 3, 2, 1)}


def _direct_h4(h3_points, perm_h):
    """Oracle for `assemble_h4`: each point re-embedded on its own along the
    hyperplane table `perm_h`, its tangent remapped as a representation and
    its fiber computed from its ideal."""
    linear = invariant_sections(4, 1)
    points = []
    for i, x_i in enumerate(linear, start=1):
        perm = perm_h[i]
        dual = Counter(x_j / x_i for x_j in linear if x_j != x_i)
        for p in h3_points:
            ideal = MonomialIdeal([*(remap(g, perm, 5) for g in p.ideal), x_i])
            carried = Counter(remap(m, perm, 5) for m in p.tangent)
            tangent = tuple(sorted((carried + dual).elements(), reverse=True))
            points.append(FixedPoint(p.stage, ideal, tangent, fiber_rep(ideal), i))
    return sorted(points, key=nested_order_key)


@pytest.mark.parametrize("perm_h", [CYCLIC_PERM_H, ALT_PERM_H], ids=["cyclic", "relabeled"])
def test_assembly_matches_direct_construction(h3_points, h4_points, perm_h):
    # Neither table agrees with the zero insertion of `assemble_h4` on all
    # four hyperplanes, so the match also shows that the relabeling changes
    # no point and no position.
    direct = _direct_h4(h3_points, perm_h)
    assert len(h4_points) == len(direct) == 504
    for got, want in zip(h4_points, direct):
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
    assert fiber_rep(ideal("x0^2", "x1", "x2", "x3")) == ()


def test_fiber_rank_thirteen_at_degree_six(h3_points):
    assert {len(fiber_rep(p.ideal)) for p in h3_points} == {13}


def test_fiber_rep_is_sections_minus_twist(h3_points, h4_points):
    for p in [*h3_points, *h4_points]:
        n = p.ideal.nvars - 1
        sections = invariant_sections(n, 6)
        twist = ideal_twist(p.ideal, 6)
        rest = Counter(sections) - Counter(twist)
        assert p.fiber == tuple(sorted(rest.elements(), reverse=True)), p.ideal
        assert len(set(p.fiber)) == len(p.fiber)
        assert len(p.fiber) + len(twist) == len(sections) == {3: 50, 4: 130}[n]


def test_twist_and_fiber_hold_the_section_objects(h3_points, h4_points):
    # A slice and a fiber are read off the bits of a mask over the section
    # space, so they yield the very objects of `invariant_sections`.
    for p in [*h3_points, *h4_points]:
        canonical = {m: m for m in invariant_sections(p.ideal.nvars - 1, 6)}
        for m in [*ideal_twist(p.ideal, 6), *fiber_rep(p.ideal)]:
            assert m is canonical[m], (p.ideal, m)


def _scan_lemma(I: MonomialIdeal) -> bool:
    """Oracle for `lemma_injectivity_check`: every invariant cubic scanned
    with `MonomialIdeal.contains`, its multiples by x1, x2, x3 too."""
    linear = invariant_sections(3, 1)
    return not any(
        not I.contains(m) and all(I.contains(x * m) for x in linear)
        for m in invariant_sections(3, 3)
    )


def test_lemma_matches_the_contains_scan(h3_points):
    # The lemma fails at the all-quartics ideal and at each cubic's ideal
    # of x1 m, x2 m, x3 m, where m alone is outside.
    linear = invariant_sections(3, 1)
    failing = [MonomialIdeal(invariant_sections(3, 4)),
               *(MonomialIdeal(x * m for x in linear) for m in invariant_sections(3, 3))]
    holding = [*(p.ideal for p in h3_points), *HAND_IDEALS]
    assert [lemma_injectivity_check(I) for I in holding] == [_scan_lemma(I) for I in holding]
    assert all(map(_scan_lemma, holding)) and len(failing) == 14
    assert [lemma_injectivity_check(I) for I in failing] == list(map(_scan_lemma, failing))
    assert not any(map(_scan_lemma, failing))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([m for k in (2, 3, 4) for m in invariant_sections(3, k)]),
                min_size=1, max_size=5))
def test_lemma_matches_the_contains_scan_on_random_ideals(generators):
    I = MonomialIdeal(generators)
    assert lemma_injectivity_check(I) == _scan_lemma(I), I


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
        assert fixed_point_from_record(json.loads(fixed_point_record(p))) == p


@pytest.mark.parametrize("space", ["h3", "h4"])
def test_fixed_point_records_join_to_the_json_encoder_bytes(space, h3_points, h4_points):
    # The h3 records carry `"hyperplane": null`, the h4 records an integer.
    points = h3_points if space == "h3" else h4_points
    text = "\n".join(["[", ",\n".join(map(fixed_point_record, points)), "]"])
    assert text == json.dumps([record_dict(p) for p in points], indent=2)
