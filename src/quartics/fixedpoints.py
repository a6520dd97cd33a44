"""Torus-fixed points of the Hilbert-scheme component of rational quartics.

The quartics in P(2,1,1,1) (coordinates x0..x3, x0 of weight two) are
parameterized by a smooth compactification built in three stages:

* a Grassmannian of pencils of invariant quadrics — its fixed points are
  the 12 unordered pairs of invariant quadric monomials with disjoint
  variable support;
* a first blow-up along the locus of pencils with a common linear factor
  — each center point contributes one candidate fixed point per normal
  direction, with a third ideal generator obtained by lifting the syzygy
  of the base pair;
* a second blow-up along the locus where the first blow-up still leaves
  a common factor — contributing a fourth generator the same way.

This yields 126 fixed points (12 + 42 + 72), each a monomial ideal with a
10-dimensional tangent representation.  A quartic in P(2,1,1,1,1) spans an
invariant hyperplane {x_i = 0}, i in 1..4, so the component for the full
space fibers over the dual projective 3-space: re-embedding the 126 points
into each hyperplane and adding the hyperplane's tangent directions gives
504 fixed points with 13-dimensional tangent spaces and 13-dimensional
fibers of the pushed-forward degree-6 bundle.

Blow-up tangent spaces follow the standard decomposition at a fixed point
x_xi of the exceptional divisor over a center point x:

    T(x_xi) = T_center(x) + L_xi + T_{P(N*)}(x_xi)
            = T_center(x) + {xi} + sum over other normal characters eta of
              {eta * xi^-1}

where the normal space N(x) is the ambient tangent minus T_center(x): six
degree-0 semiinvariant characters of multiplicity one.  Stage-1 centers
are derived from the pencils l*W they parameterize, stage-2 centers from
the flags l in W with a quadric q on the line {W = 0}.  `limit_ideal_oracle`
recomputes every blown-up ideal from first principles as a flat limit.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, permutations, product
from typing import Iterable, NamedTuple, Sequence

from .repring import (
    LaurentMonomial,
    MonomialIdeal,
    RepElement,
    ideal_twist,
    invariant_sections,
    section_map,
)

STAGE_GRASSMANNIAN = "grassmannian"
STAGE_BLOWUP1 = "blowup1"
STAGE_BLOWUP2 = "blowup2"
STAGES = (STAGE_GRASSMANNIAN, STAGE_BLOWUP1, STAGE_BLOWUP2)

#: Twisting degree of the fibers: the Calabi-Yau hypersurface has weighted
#: degree 6, so curve counts come from the degree-6 bundle.
DEGREE = 6

#: Hyperplane index -> where the four P(2,1,1,1) characters (x0,x1,x2,x3)
#: land among the five P(2,1,1,1,1) characters.  The hyperplane {x_i = 0}
#: receives the remaining weight-one coordinates in cyclic order.  Any
#: table that fixes x0 and sends x1,x2,x3 onto the three weight-one
#: characters other than x_i yields the same localization sum.
PERM_H: dict[int, tuple[int, int, int, int]] = {
    1: (0, 2, 3, 4),
    2: (0, 3, 4, 1),
    3: (0, 4, 1, 2),
    4: (0, 1, 2, 3),
}


class _FixedPointFields(NamedTuple):
    stage: str
    ideal: MonomialIdeal
    tangent: RepElement
    fiber: RepElement
    hyperplane: int | None = None


class FixedPoint(_FixedPointFields):
    """A torus-fixed point with its ideal, tangent and fiber data.

    `hyperplane` is None for points of the P(2,1,1,1) component and the
    index i of the invariant hyperplane {x_i = 0} after assembly into
    P(2,1,1,1,1).  The `*_characters` properties are cached on first use
    in the instance dict, which this subclass of the field tuple adds; they
    are not fields, so equality, hashing, repr and the dump ignore them.
    """

    @cached_property
    def fiber_characters(self) -> tuple[LaurentMonomial, ...]:
        """`fiber.characters()`, computed once per point for the Bott sum."""
        return self.fiber.characters()

    @cached_property
    def tangent_characters(self) -> tuple[LaurentMonomial, ...]:
        """`tangent.characters()`, computed once per point for the Bott sum."""
        return self.tangent.characters()

    @property
    def label(self) -> str:
        prefix = f"h{self.hyperplane}:" if self.hyperplane is not None else ""
        return f"{prefix}{self.stage}:{self.ideal}"

    def sort_key(self) -> tuple:
        return (
            self.hyperplane if self.hyperplane is not None else 0,
            STAGES.index(self.stage),
            self.ideal.sort_key(),
        )


class BlowupCenterDatum(NamedTuple):
    """Tangent/normal data at one torus-fixed point of a blow-up center.

    `normal_basis` is the normal space, the ambient tangent minus
    `tangent_to_center`: degree-0 semiinvariant characters, one candidate
    fixed point per character.  `lcm_base` is the least common multiple of
    the generator pair whose syzygy is lifted, so the candidate fixed point
    in direction mu acquires the new generator lcm_base * mu.  `stage` tags
    the stage of the points this center produces.
    """

    base_ideal: MonomialIdeal
    tangent_to_center: RepElement
    normal_basis: RepElement
    lcm_base: LaurentMonomial
    stage: str


# ---------------------------------------------------------------------------
#  Stage 0: the Grassmannian of invariant quadric pencils.
# ---------------------------------------------------------------------------


def grassmann_tangent(span: MonomialIdeal) -> RepElement:
    """Tangent to the Grassmannian of V[d] at the span S of the generators,
    all of degree d: Hom(S, V[d]/S) = (V[d] - S) * dual(S)."""
    gens = RepElement.from_monomials(span.generators)
    sections = invariant_sections(span.nvars - 1, span.generators[0].degree)
    return (RepElement.from_monomials(sections) - gens) * gens.dual()


def grassmann_fixed_points() -> list[FixedPoint]:
    """The 12 fixed points of the Grassmannian stage: the unordered pairs
    of invariant quadric monomials with disjoint support.

    Pairs of invariant quadrics sharing a variable lie in the first
    blow-up center and are excluded here.
    """
    points = []
    for a, b in combinations(invariant_sections(3, 2), 2):
        if a.gcd(b).is_trivial():
            ideal = MonomialIdeal([a, b])
            points.append(
                FixedPoint(
                    stage=STAGE_GRASSMANNIAN,
                    ideal=ideal,
                    tangent=grassmann_tangent(ideal),
                    fiber=fiber_rep(ideal),
                )
            )
    return points


# ---------------------------------------------------------------------------
#  Blow-up centers.
# ---------------------------------------------------------------------------


def stage1_centers() -> list[BlowupCenterDatum]:
    """Fixed points of the first blow-up center (3 + 6 = 9 of them).

    The center is the locus P(V[1]) x G(2, V[1]) of pencils l*W with a
    common linear factor; its fixed points are the coordinate pairs
    (l, W), 3 with l outside W and 6 with l inside W.  The center's
    tangent is Hom(l, V[1]/l) + Hom(W, V[1]/W), and its normal space is
    the rest of the Grassmannian tangent Hom(l*W, V[2]/l*W).

    >>> center = next(c for c in stage1_centers() if str(c.base_ideal) == "(x1*x2, x1*x3)")
    >>> print(center.tangent_to_center)
    x1*x3^-1 + x1*x2^-1 + x1^-1*x2 + x1^-1*x3
    >>> print(center.normal_basis)
    x0^2*x1^-1*x3^-1 + x0^2*x1^-1*x2^-1 + x1^-1*x2^2*x3^-1 + x1^-1*x2 + x1^-1*x3 + x1^-1*x2^-1*x3^2
    """
    linear = invariant_sections(3, 1)
    return [_stage1_center(ell, pair) for ell, pair in product(linear, combinations(linear, 2))]


def _stage1_center(ell: LaurentMonomial, pencil: Sequence[LaurentMonomial]) -> BlowupCenterDatum:
    """The stage-1 center of the pencil ell*W, W spanned by `pencil`."""
    base = MonomialIdeal(ell * w for w in pencil)
    line, span = MonomialIdeal([ell]), MonomialIdeal(pencil)
    tangent = grassmann_tangent(line) + grassmann_tangent(span)
    lcm = base.generators[0].lcm(base.generators[1])
    normal = grassmann_tangent(base) - tangent
    return BlowupCenterDatum(base, tangent, normal, lcm, STAGE_BLOWUP1)


def stage2_centers() -> list[BlowupCenterDatum]:
    """Fixed points of the second blow-up center (6 + 6 = 12 of them).

    Each is a flag l in W = <l, w> of linear forms and an invariant quadric
    q on the line L = {l = w = 0}: base ideal l*(l, w, q), center tangent
    Hom(l, V[1]/l) + Hom(W/l, V[1]/W) + Hom(q, V_L[2]/q).  The ambient
    tangent is the blow-up tangent over the stage-1 center l*W along q/(l*w).

    >>> center = next(c for c in stage2_centers() if str(c.base_ideal) == "(x1^2, x1*x2, x1*x3^2)")
    >>> print(center.tangent_to_center)
    x0^2*x3^-2 + x2^-1*x3 + x1^-1*x2 + x1^-1*x3
    >>> print(center.lcm_base)
    x1*x2*x3^2
    """
    linear = invariant_sections(3, 1)
    centers = []
    for ell, w in permutations(linear, 2):
        parent = _stage1_center(ell, (ell, w))
        on_line = [p for p in invariant_sections(3, 2) if p.gcd(ell * w).is_trivial()]
        for q in on_line:
            base = MonomialIdeal([ell * ell, ell * w, ell * q])
            lines = [u / w for u in linear if u not in (ell, w)] + [p / q for p in on_line if p != q]
            tangent = grassmann_tangent(MonomialIdeal([ell])) + RepElement.from_monomials(lines)
            normal = blowup_point_tangent(parent, q / (ell * w)) - tangent
            centers.append(BlowupCenterDatum(base, tangent, normal, ell * w * q, STAGE_BLOWUP2))
    return centers


# ---------------------------------------------------------------------------
#  Points on the exceptional divisors.
# ---------------------------------------------------------------------------


def blowup_point_tangent(
    center: BlowupCenterDatum, direction: LaurentMonomial
) -> RepElement:
    """Tangent space at the fixed point of the exceptional divisor.

    Composes the center's tangent space, the normal line along
    `direction`, and the tangent space of the projectivized normal space
    (one line eta * direction^-1 per other normal character eta).
    """
    if direction not in center.normal_basis:
        raise ValueError(f"{direction} is not a normal direction of {center.base_ideal}")
    lines = [direction]
    lines.extend(
        eta / direction for eta in center.normal_basis if eta != direction
    )
    return center.tangent_to_center + RepElement.from_monomials(lines)


def blowup_fixed_points(center: BlowupCenterDatum) -> list[FixedPoint]:
    """Fixed points of the exceptional divisor over one center point.

    One candidate per normal direction mu: the ideal acquires the new
    generator center.lcm_base * mu.  Candidates whose generators still share a
    common variable factor lie in the next blow-up center and are dropped
    from this stage's output.
    """
    points = []
    for mu in center.normal_basis:
        new_gen = center.lcm_base * mu
        if not new_gen.is_regular():
            raise ValueError(
                f"inconsistent center data: {center.lcm_base} * {mu} has a "
                f"negative exponent"
            )
        ideal = MonomialIdeal(center.base_ideal.generators + (new_gen,))
        if ideal.has_common_factor():
            continue
        points.append(
            FixedPoint(
                stage=center.stage,
                ideal=ideal,
                tangent=blowup_point_tangent(center, mu),
                fiber=fiber_rep(ideal),
            )
        )
    return points


# ---------------------------------------------------------------------------
#  Flat limits: the flattening iteration, used as an independent oracle
#  for the closed-form blown-up ideals.
# ---------------------------------------------------------------------------


def limit_ideal_oracle(base: MonomialIdeal, direction: LaurentMonomial) -> MonomialIdeal:
    """Flat limit at t=0 of the family perturbing `base` along `direction`.

    The family moves each generator m to m + t c mu m (mu = `direction`, a
    degree-0 Laurent monomial) whenever mu * m is an ordinary monomial, with
    generic pairwise-distinct scalars c; generators whose perturbation would
    need a negative exponent stay put.  Distinct scalars matter: equal ones
    can degenerate the family to a coordinate change along the blow-up
    center and miss the limit point.

    Iteration, to first order in t: for every pair of current generators,
    the lifted syzygy leaves a remainder t * q; monomials of q divisible by
    a current generator cancel against it.  A surviving remainder must be a
    single monomial g — it is adjoined to the generators (with unknown
    first-order term, i.e. treated as unperturbed) and the loop repeats.
    First-order limits adjoin generators of degree at most one above the
    largest generator degree of `base`; higher remainders are second-order
    artifacts of the truncation and are skipped.  The remainder of a pair
    is always the single monomial direction * lcm of the pair, so no
    multi-monomial case arises.
    """
    if direction.degree != 0:
        raise ValueError(f"direction must have degree 0: {direction}")
    degree_bound = 1 + max(g.degree for g in base.generators)

    # generator -> scalar coefficient of its first-order term c * mu * m;
    # 0 encodes both "no perturbation possible" and "unknown" (adjoined).
    coeffs: dict[LaurentMonomial, int] = {}
    for position, gen in enumerate(base.generators):
        perturbed = direction * gen
        coeffs[gen] = position + 1 if perturbed.is_regular() else 0

    while True:
        gens = list(coeffs)
        ideal = MonomialIdeal(gens)
        adjoined = None
        for gi, gj in combinations(gens, 2):
            lcm = gi.lcm(gj)
            # t-coefficient of the lifted syzygy (lcm/gi)*gi(t) - (lcm/gj)*gj(t):
            # both contributions sit on the single monomial direction * lcm.
            net = coeffs[gi] - coeffs[gj]
            if net == 0:
                continue
            remainder = direction * lcm
            if ideal.contains(remainder):
                continue  # cancels against a current generator
            if remainder.degree > degree_bound:
                continue  # beyond the first-order truncation
            adjoined = remainder
            break
        if adjoined is None:
            return ideal
        coeffs = {g: c for g, c in coeffs.items() if not adjoined.divides(g)}
        coeffs[adjoined] = 0


def stage2_composed_tangent(
    base: MonomialIdeal, stage1: Sequence[BlowupCenterDatum]
) -> RepElement:
    """Ambient tangent at the second-stage center with base ideal `base`.

    A second-stage center point sits on the exceptional divisor of the
    first blow-up: its base ideal extends a first-stage base by one
    generator lcm * xi.  Locating that parent center and direction, the
    ambient tangent follows from the blow-up tangent decomposition.  The
    search among `stage1` cross-checks `stage2_centers`, which knows each
    parent from its flag.
    """
    parents = [
        c for c in stage1 if set(c.base_ideal.generators) < set(base.generators)
    ]
    if len(parents) != 1:
        raise ValueError(f"no unique parent center for {base}")
    parent = parents[0]
    extra = [g for g in base.generators if g not in parent.base_ideal.generators]
    if len(extra) != 1:
        raise ValueError(f"expected one extra generator in {base}")
    direction = extra[0] / parent.lcm_base
    return blowup_point_tangent(parent, direction)


def center_oracle_agreement(
    center: BlowupCenterDatum,
) -> list[tuple[LaurentMonomial, MonomialIdeal, MonomialIdeal]]:
    """Mismatches between flat limits and closed-form blown-up ideals.

    Runs `limit_ideal_oracle` for every normal direction of the center and
    compares with base + lcm_base * mu (discarded common-factor candidates
    included).  Returns a list of (direction, oracle ideal, closed form),
    empty when the center data is consistent; the closed form is None when
    lcm_base * mu has a negative exponent.
    """
    mismatches = []
    for mu in center.normal_basis:
        new_gen = center.lcm_base * mu
        closed_form = None
        if new_gen.is_regular():
            closed_form = MonomialIdeal(center.base_ideal.generators + (new_gen,))
        limit = limit_ideal_oracle(center.base_ideal, mu)
        if limit != closed_form:
            mismatches.append((mu, limit, closed_form))
    return mismatches


# ---------------------------------------------------------------------------
#  Full enumerations.
# ---------------------------------------------------------------------------


def enumerate_h3() -> list[FixedPoint]:
    """All 126 fixed points of the P(2,1,1,1) component (12 + 42 + 72)."""
    points = grassmann_fixed_points()
    for center in stage1_centers() + stage2_centers():
        points.extend(blowup_fixed_points(center))
    points.sort(key=FixedPoint.sort_key)
    seen: set[MonomialIdeal] = set()
    for point in points:
        if point.ideal in seen:
            raise RuntimeError(f"duplicate fixed-point ideal: {point.ideal}")
        seen.add(point.ideal)
    return points


def assemble_h4(h3: Sequence[FixedPoint]) -> list[FixedPoint]:
    """The 504 fixed points of the P(2,1,1,1,1) component.

    Re-embeds each of the 126 points into each invariant hyperplane
    {x_i = 0}, i in 1..4, along `PERM_H`; the ideal gains the generator
    x_i, the tangent space gains the hyperplane's three directions
    x_j / x_i (j in 1..4, j != i), and the fiber is recomputed in the
    five-character ring.  The remapped generators and x_i make up one
    ideal, reduced once.  The 126 points share most of their characters,
    so each hyperplane remaps each distinct character once, into one map,
    and each tangent is one dict of carried terms plus the directions.
    """
    if len(h3) != 126:
        raise ValueError(f"expected the 126 fixed points, got {len(h3)}")
    characters = {m for point in h3 for m in chain(point.ideal.generators, point.tangent)}
    tangents = [point.tangent.items() for point in h3]
    points = []
    linear = invariant_sections(4, 1)  # x1..x4
    for i, x_i in enumerate(linear, start=1):
        carried = {m: m.remap(PERM_H[i], 5) for m in characters}
        directions = dict.fromkeys((x_j / x_i for x_j in linear if x_j != x_i), 1)
        for point, terms in zip(h3, tangents):
            ideal = MonomialIdeal([*map(carried.__getitem__, point.ideal.generators), x_i])
            # A carried character has exponent 0 at x_i and a direction has
            # -1 there, so the two parts of the tangent share no key.
            tangent = {carried[m]: k for m, k in terms} | directions
            points.append(
                FixedPoint(
                    stage=point.stage,
                    ideal=ideal,
                    tangent=RepElement(tangent),
                    fiber=fiber_rep(ideal),
                    hyperplane=i,
                )
            )
    points.sort(key=FixedPoint.sort_key)
    return points


def fiber_rep(I: MonomialIdeal) -> RepElement:
    """Sections of the twisted structure sheaf: V[DEGREE] minus the ideal slice.

    Spanned by the invariant degree-6 monomials not lying in the ideal,
    each with multiplicity 1: the sections that the twist does not hold.
    """
    twist = ideal_twist(I, DEGREE)
    return RepElement.from_monomials(section_map(I.nvars - 1, DEGREE).keys() - twist)


def lemma_injectivity_check(I: MonomialIdeal) -> bool:
    """Check the cubic-multiplier condition used to embed curves.

    True iff there is no invariant degree-3 monomial m outside I with all
    of x1 m, x2 m, x3 m inside I.  Holds for every fixed-point ideal of
    the P(2,1,1,1) component.
    """
    if I.nvars != 4:
        raise ValueError(f"expected four characters: {I}")
    multipliers = invariant_sections(3, 1)
    for m in invariant_sections(3, 3):
        if I.contains(m):
            continue
        if all(I.contains(x * m) for x in multipliers):
            return False
    return True


def census(points: Iterable[FixedPoint]) -> dict[str, int]:
    """Point counts per stage, in stage order."""
    counts = {stage: 0 for stage in STAGES}
    for point in points:
        counts[point.stage] += 1
    return counts


# ---------------------------------------------------------------------------
#  Serialization of fixed points (the dump schema used by the CLI).
# ---------------------------------------------------------------------------


def fixed_point_record(point: FixedPoint) -> dict:
    """JSON-ready record: ideal and fiber as monomial strings in canonical
    order, tangent as (monomial, multiplicity) pairs."""
    return {
        "stage": point.stage,
        "hyperplane": point.hyperplane,
        "ideal": [str(g) for g in point.ideal.generators],
        "tangent": [
            {"monomial": str(m), "multiplicity": k} for m, k in point.tangent.items()
        ],
        "fiber": [str(m) for m in point.fiber.support()],
    }
