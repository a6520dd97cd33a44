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
space fibers over the dual projective 3-space.  Inserting x_i's zero
exponent into each character embeds the 126 points into {x_i = 0}; they
are closed under permutations of x1, x2, x3, so no relabeling convention
is needed.  Adding the hyperplane's tangent directions gives 504 fixed
points with 13-dimensional tangent spaces and 13-dimensional fibers of
the pushed-forward degree-6 bundle.

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

import operator
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations, product, starmap
from typing import Iterable, NamedTuple, Sequence

from .repring import LaurentMonomial, MonomialIdeal, ideal_twist, invariant_sections, twist_mask

STAGE_GRASSMANNIAN = "grassmannian"
STAGE_BLOWUP1 = "blowup1"
STAGE_BLOWUP2 = "blowup2"
STAGES = (STAGE_GRASSMANNIAN, STAGE_BLOWUP1, STAGE_BLOWUP2)

#: Twisting degree of the fibers: the Calabi-Yau hypersurface has weighted
#: degree 6, so curve counts come from the degree-6 bundle.
DEGREE = 6


class FixedPoint(NamedTuple):
    """A torus-fixed point with its ideal and the characters of its tangent
    space and of its fiber.

    `tangent` and `fiber` hold each character repeated by its multiplicity,
    in canonical (descending) order: the lists whose weight products make
    the point's Bott term.  `hyperplane` is None for points of the
    P(2,1,1,1) component and the index i of the invariant hyperplane
    {x_i = 0} after assembly into P(2,1,1,1,1).
    """

    stage: str
    ideal: MonomialIdeal
    tangent: tuple[LaurentMonomial, ...]
    fiber: tuple[LaurentMonomial, ...]
    hyperplane: int | None = None

    @property
    def label(self) -> str:
        prefix = f"h{self.hyperplane}:" if self.hyperplane is not None else ""
        return f"{prefix}{self.stage}:{self.ideal}"

    def sort_key(self) -> tuple:
        # The ideal's exponents are negated so that an ascending sort lists
        # ideals in the descending-lexicographic convention of monomial
        # terms ((x0^2, x1^2) before (x2^2, x3^2)).  Every generator has
        # nvars exponents, so the flat exponents order as the generators do.
        return (
            self.hyperplane or 0,
            STAGES.index(self.stage),
            tuple(map(operator.neg, chain.from_iterable(self.ideal))),
        )


class BlowupCenterDatum(NamedTuple):
    """Tangent/normal data at one torus-fixed point of a blow-up center.

    An immutable record of tuples, built once and shared by every build.
    `tangent_to_center` and `normal_basis` hold each character repeated by
    its multiplicity, in canonical (descending) order, as `FixedPoint.tangent`
    does.  `normal_basis` is the normal space, the ambient tangent minus
    `tangent_to_center`: degree-0 semiinvariant characters, one candidate
    fixed point per character.  `lcm_base` is the least common multiple of
    the generator pair whose syzygy is lifted, so the candidate fixed point
    in direction mu acquires the new generator lcm_base * mu.  `stage` tags
    the stage of the points this center produces.
    """

    base_ideal: MonomialIdeal
    tangent_to_center: tuple[LaurentMonomial, ...]
    normal_basis: tuple[LaurentMonomial, ...]
    lcm_base: LaurentMonomial
    stage: str


# ---------------------------------------------------------------------------
#  Stage 0: the Grassmannian of invariant quadric pencils.
# ---------------------------------------------------------------------------


def grassmann_tangent(span: MonomialIdeal) -> Counter[LaurentMonomial]:
    """Tangent to the Grassmannian of V[d] at the span S of the generators,
    all of degree d: Hom(S, V[d]/S), one character q/g per section q
    outside S and generator g."""
    sections = invariant_sections(span.nvars - 1, span[0].degree)
    return Counter(q / g for q in sections if q not in span for g in span)


def _difference(
    a: Counter[LaurentMonomial], b: Counter[LaurentMonomial]
) -> Counter[LaurentMonomial]:
    """a - b, rejecting the negative multiplicity that Counter `-` would drop."""
    if not b <= a:
        m = next(m for m in sorted(a.keys() | b.keys(), reverse=True) if b[m] > a[m])
        raise ValueError(f"negative multiplicity at {m}: {a[m] - b[m]}")
    return a - b


def _characters(rep: Counter[LaurentMonomial]) -> tuple[LaurentMonomial, ...]:
    """Each character repeated by its multiplicity, in canonical order."""
    return tuple(sorted(rep.elements(), reverse=True))


def _fixed_point(
    stage: str,
    ideal: MonomialIdeal,
    tangent: Iterable[LaurentMonomial],
    hyperplane: int | None = None,
) -> FixedPoint:
    """The one constructor of the enumerated points: the tangent characters,
    each repeated by its multiplicity, in canonical order, and the fiber of
    `ideal`."""
    tangent = tuple(sorted(tangent, reverse=True))
    return FixedPoint(stage, ideal, tangent, fiber_rep(ideal), hyperplane)


def grassmann_fixed_points() -> list[FixedPoint]:
    """The 12 fixed points of the Grassmannian stage: the unordered pairs
    of invariant quadric monomials with disjoint support.

    Pairs of invariant quadrics sharing a variable lie in the first
    blow-up center and are excluded here.
    """
    pairs = map(MonomialIdeal, combinations(invariant_sections(3, 2), 2))
    return [
        _fixed_point(STAGE_GRASSMANNIAN, ideal, grassmann_tangent(ideal).elements())
        for ideal in pairs
        if not ideal.has_common_factor()
    ]


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
    >>> [str(m) for m in center.tangent_to_center]
    ['x1*x3^-1', 'x1*x2^-1', 'x1^-1*x2', 'x1^-1*x3']
    >>> [str(m) for m in center.normal_basis]  # doctest: +NORMALIZE_WHITESPACE
    ['x0^2*x1^-1*x3^-1', 'x0^2*x1^-1*x2^-1', 'x1^-1*x2^2*x3^-1',
     'x1^-1*x2', 'x1^-1*x3', 'x1^-1*x2^-1*x3^2']
    """
    return list(_tower()[0])


def _stage1_center(ell: LaurentMonomial, pencil: Sequence[LaurentMonomial]) -> BlowupCenterDatum:
    """The stage-1 center of the pencil ell*W, W spanned by `pencil`."""
    base = MonomialIdeal(ell * w for w in pencil)
    line, span = MonomialIdeal([ell]), MonomialIdeal(pencil)
    tangent = grassmann_tangent(line) + grassmann_tangent(span)
    lcm = base[0].lcm(base[1])
    normal = _difference(grassmann_tangent(base), tangent)
    return BlowupCenterDatum(base, _characters(tangent), _characters(normal), lcm, STAGE_BLOWUP1)


def stage2_centers() -> list[BlowupCenterDatum]:
    """Fixed points of the second blow-up center (6 + 6 = 12 of them).

    Each is a flag l in W = <l, w> of linear forms and an invariant quadric
    q on the line L = {l = w = 0}: base ideal l*(l, w, q), center tangent
    Hom(l, V[1]/l) + Hom(W/l, V[1]/W) + Hom(q, V_L[2]/q).  The ambient
    tangent is the blow-up tangent over the stage-1 center l*W along q/(l*w).

    >>> center = next(c for c in stage2_centers() if str(c.base_ideal) == "(x1^2, x1*x2, x1*x3^2)")
    >>> [str(m) for m in center.tangent_to_center]
    ['x0^2*x3^-2', 'x2^-1*x3', 'x1^-1*x2', 'x1^-1*x3']
    >>> print(center.lcm_base)
    x1*x2*x3^2
    """
    return list(_tower()[1])


@lru_cache(maxsize=None)
def _tower() -> tuple[tuple[BlowupCenterDatum, ...], tuple[BlowupCenterDatum, ...]]:
    """The 9 stage-1 and 12 stage-2 centers, built once; stage 2 finds each parent by its ideal."""
    linear = invariant_sections(3, 1)
    stage1 = tuple(starmap(_stage1_center, product(linear, combinations(linear, 2))))
    parents = {c.base_ideal: c for c in stage1}
    stage2 = []
    for ell, w in permutations(linear, 2):
        parent = parents[MonomialIdeal([ell * ell, ell * w])]
        on_line = [p for p in invariant_sections(3, 2) if p.gcd(ell * w).is_trivial()]
        for q in on_line:
            base = MonomialIdeal([ell * ell, ell * w, ell * q])
            lines = [u / w for u in linear if u not in (ell, w)] + [p / q for p in on_line if p != q]
            tangent = grassmann_tangent(MonomialIdeal([ell])) + Counter(lines)
            normal = _difference(blowup_point_tangent(parent, q / (ell * w)), tangent)
            stage2.append(BlowupCenterDatum(base, _characters(tangent), _characters(normal),
                                            ell * w * q, STAGE_BLOWUP2))
    return stage1, tuple(stage2)


# ---------------------------------------------------------------------------
#  Points on the exceptional divisors.
# ---------------------------------------------------------------------------


def blowup_point_tangent(
    center: BlowupCenterDatum, direction: LaurentMonomial
) -> Counter[LaurentMonomial]:
    """Tangent space at the fixed point of the exceptional divisor.

    Composes the center's tangent space, the normal line along
    `direction`, and the tangent space of the projectivized normal space
    (one line eta * direction^-1 per other normal character eta).
    """
    normal = center.normal_basis
    if direction not in normal:
        raise ValueError(f"{direction} is not a normal direction of {center.base_ideal}")
    lines = (eta / direction for eta in normal if eta != direction)
    return Counter(chain(center.tangent_to_center, (direction,), lines))


def blowup_fixed_points(center: BlowupCenterDatum) -> list[FixedPoint]:
    """Fixed points of the exceptional divisor over one center point.

    One candidate per normal direction mu: the ideal acquires the new
    generator center.lcm_base * mu.  Candidates whose generators still share a
    common variable factor lie in the next blow-up center and are dropped
    from this stage's output.
    """
    points = []
    for mu in center.normal_basis:
        ideal = _blowup_ideal(center, mu)
        if ideal is None:
            raise ValueError(
                f"inconsistent center data: {center.lcm_base} * {mu} has a "
                f"negative exponent"
            )
        if ideal.has_common_factor():
            continue
        points.append(
            _fixed_point(center.stage, ideal, blowup_point_tangent(center, mu).elements())
        )
    return points


def _blowup_ideal(center: BlowupCenterDatum, mu: LaurentMonomial) -> MonomialIdeal | None:
    """The closed-form ideal of the candidate in direction mu: the base ideal
    and lcm_base * mu, or None when that generator has a negative exponent."""
    new_gen = center.lcm_base * mu
    if not new_gen.is_regular():
        return None
    return MonomialIdeal(center.base_ideal + (new_gen,))


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
    degree_bound = 1 + max(g.degree for g in base)

    # generator -> scalar coefficient of its first-order term c * mu * m;
    # 0 encodes both "no perturbation possible" and "unknown" (adjoined).
    coeffs: dict[LaurentMonomial, int] = {}
    for position, gen in enumerate(base):
        perturbed = direction * gen
        coeffs[gen] = position + 1 if perturbed.is_regular() else 0

    while True:
        gens = list(coeffs)
        ideal = MonomialIdeal(gens)
        adjoined = None
        for gi, gj in combinations(gens, 2):
            # t-coefficient of the lifted syzygy (lcm/gi)*gi(t) - (lcm/gj)*gj(t):
            # both contributions sit on the single monomial direction * lcm.
            if coeffs[gi] == coeffs[gj]:
                continue
            remainder = direction * gi.lcm(gj)
            if remainder.degree > degree_bound:
                continue  # beyond the first-order truncation
            if ideal.contains(remainder):
                continue  # cancels against a current generator
            adjoined = remainder
            break
        if adjoined is None:
            return ideal
        coeffs = {g: c for g, c in coeffs.items() if not adjoined.divides(g)}
        coeffs[adjoined] = 0


def stage2_composed_tangent(
    base: MonomialIdeal, stage1: Sequence[BlowupCenterDatum]
) -> Counter[LaurentMonomial]:
    """Ambient tangent at the second-stage center with base ideal `base`.

    A second-stage center point sits on the exceptional divisor of the
    first blow-up: its base ideal extends a first-stage base by one
    generator lcm * xi.  Locating that parent center and direction, the
    ambient tangent follows from the blow-up tangent decomposition.  This
    search by generator subsets among `stage1` cross-checks `stage2_centers`,
    which finds each parent l*<l, w> by the base ideal its flag names.
    """
    parents = [c for c in stage1 if set(c.base_ideal) < set(base)]
    if len(parents) != 1:
        raise ValueError(f"no unique parent center for {base}")
    parent = parents[0]
    extra = [g for g in base if g not in parent.base_ideal]
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
        closed_form = _blowup_ideal(center, mu)
        limit = limit_ideal_oracle(center.base_ideal, mu)
        if limit != closed_form:
            mismatches.append((mu, limit, closed_form))
    return mismatches


# ---------------------------------------------------------------------------
#  Full enumerations.
# ---------------------------------------------------------------------------


def enumerate_h3() -> list[FixedPoint]:
    """All 126 fixed points of the P(2,1,1,1) component (12 + 42 + 72): the
    Grassmannian's, then those over `stage1_centers` and `stage2_centers`,
    looked up at call time, so a replaced center list reaches the points."""
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

    Embeds each of the 126 points into each invariant hyperplane
    {x_i = 0}, i in 1..4, by inserting x_i's zero exponent into every
    character, as the hyperplane's coordinates are x0..x4 without x_i;
    no other order of x1, x2, x3 would change the points.  The ideal gains
    the generator x_i, the tangent space the hyperplane's three directions
    x_j / x_i (j != i), and the fiber is recomputed in the five-character
    ring.  The carried generators and x_i need no reduction: the embedding
    keeps x0 exponents and divisibility, and x_i neither divides nor is
    divided by a nonconstant generator without x_i.
    Each hyperplane carries each distinct character of the 126 points once,
    into one map, and takes its directions Hom(x_i, V[1]/x_i) once from
    `grassmann_tangent`; each tangent is the carried characters and the
    directions, sorted.
    The points come out by hyperplane, 1..4, each in the order of `h3`: for
    `enumerate_h3`'s output, the canonical order, so they are not sorted again.
    """
    if len(h3) != 126:
        counts = " ".join(f"{stage}={n}" for stage, n in census(h3).items())
        raise ValueError(f"expected the 126 fixed points, got {len(h3)} ({counts})")
    characters = {m for point in h3 for m in chain(point.ideal, point.tangent)}
    points = []
    linear = invariant_sections(4, 1)  # x1..x4
    for i, x_i in enumerate(linear, start=1):
        carried = {m: tuple.__new__(LaurentMonomial, (*m[:i], 0, *m[i:])) for m in characters}
        directions = tuple(grassmann_tangent(MonomialIdeal([x_i])).elements())
        for point in h3:
            gens = sorted([*map(carried.__getitem__, point.ideal), x_i], reverse=True)
            ideal = tuple.__new__(MonomialIdeal, gens)
            tangent = chain(map(carried.__getitem__, point.tangent), directions)
            points.append(_fixed_point(point.stage, ideal, tangent, i))
    return points


def fiber_rep(I: MonomialIdeal) -> tuple[LaurentMonomial, ...]:
    """Sections of the twisted structure sheaf: V[DEGREE] minus the ideal slice.

    The invariant degree-6 monomials not lying in the ideal, the sections
    whose bits the slice's mask leaves clear, in canonical order.
    """
    return tuple(ideal_twist(I, DEGREE).complement())


def lemma_injectivity_check(I: MonomialIdeal) -> bool:
    """Check the cubic-multiplier condition used to embed curves.

    True iff there is no invariant degree-3 monomial m outside I with all
    of x1 m, x2 m, x3 m inside I, tested on I's masks of degrees 3 and 4.
    Holds for every fixed-point ideal of the P(2,1,1,1) component.
    """
    if I.nvars != 4:
        raise ValueError(f"expected four characters: {I}")
    cubics, quartics = twist_mask(I, 3), twist_mask(I, 4)
    return not any(not cubics & bit and multiples & quartics == multiples
                   for bit, multiples in _cubic_multiples())


@lru_cache(maxsize=None)
def _cubic_multiples() -> tuple[tuple[int, int], ...]:
    """Each invariant cubic m's bit in V[3] with the mask in V[4] of its
    multiples by x1, x2, x3, the quartic sections that m divides."""
    ideals = [MonomialIdeal([m]) for m in invariant_sections(3, 3)]
    return tuple((twist_mask(I, 3), twist_mask(I, 4)) for I in ideals)


def census(points: Iterable[FixedPoint]) -> dict[str, int]:
    """Point counts per stage, in stage order."""
    counts = {stage: 0 for stage in STAGES}
    for point in points:
        counts[point.stage] += 1
    return counts


# ---------------------------------------------------------------------------
#  Serialization of fixed points (the dump schema used by the CLI).
# ---------------------------------------------------------------------------


def multiplicities(characters: Sequence[LaurentMonomial]) -> list[tuple[LaurentMonomial, int]]:
    """(character, multiplicity) pairs of a canonical character tuple, in its order
    (equal characters are adjacent there, and a Counter keeps insertion order)."""
    return list(Counter(characters).items())


@lru_cache(maxsize=None)
def _json_string(m: LaurentMonomial) -> str:
    """A character as a JSON string; its rendering (x, digits, ^, -, *) needs no escapes."""
    return f'"{m}"'


@lru_cache(maxsize=None)
def _tangent_entry(m: LaurentMonomial, k: int) -> str:
    """A (character, multiplicity) pair as its tangent entry of the dump."""
    return f'{{\n        "monomial": {_json_string(m)},\n        "multiplicity": {k}\n      }}'


def fixed_point_record(point: FixedPoint) -> str:
    """The point's element of the JSON dump, the text `json.dumps` writes
    with indent=2 for its record at depth 1: ideal and fiber as monomial
    strings in canonical order, tangent as (monomial, multiplicity) pairs."""
    sep = ",\n      "
    tangent = sep.join(starmap(_tangent_entry, multiplicities(point.tangent)))
    hyperplane = "null" if point.hyperplane is None else point.hyperplane
    return (
        f'  {{\n    "stage": "{point.stage}",\n    "hyperplane": {hyperplane},\n'
        f'    "ideal": [\n      {sep.join(map(_json_string, point.ideal))}\n    ],\n'
        f'    "tangent": [\n      {tangent}\n    ],\n'
        f'    "fiber": [\n      {sep.join(map(_json_string, point.fiber))}\n    ]\n  }}'
    )
