"""Weight specialization and the exact Bott localization sum.

A one-parameter subgroup of the torus is an integer vector w = (w0..w4);
it sends the character lambda_0^p0 ... lambda_4^p4 to the integer weight
p0 w0 + ... + p4 w4.  A weight vector is usable when it specializes every
tangent character of every fixed point to a nonzero integer — the bad
vectors form a finite union of hyperplanes, so random vectors work and
the localization sum is independent of the choice.

The count itself is Bott's formula: the integral of the top Chern class
of the degree-6 bundle equals the sum over fixed points of

    (product of fiber weights) / (product of tangent weights),

evaluated here in exact big-integer rational arithmetic.  No floating
point appears anywhere: products of 13 weights of size up to 10^4
overflow 64-bit integers.  Each point holds its fiber and tangent
characters as tuples, each character repeated by its multiplicity; a sum
specializes each distinct character once, and adds the 504 terms over
one common denominator, the lcm L of the tangent products:
sum n_p / d_p = (sum n_p * (L / d_p)) / L, with a single gcd at the end.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .fixedpoints import FixedPoint
from .repring import LaurentMonomial

#: The default one-parameter subgroup; the headline count 6028452 is
#: reproduced bit-exactly with these weights.
DEFAULT_WEIGHTS: tuple[int, int, int, int, int] = (267, 4, 17, 55, 160)

#: Rejection-sampling attempt budget for the random weight search.
ATTEMPT_BUDGET = 100_000

#: Inclusive sampling range of the random weight search when none is given.
DEFAULT_RANGE = (1, 10_000)

#: Fewest integers a sampling range must hold.  Every tangent character
#: has degree 0, so shifting a range leaves its usable vectors unchanged;
#: no five distinct integers from [1, 10] are usable, and some from
#: [1, 11] are, so every range of at least 11 integers contains usable ones.
MIN_RANGE_WIDTH = 11

WeightVector = Sequence[int]


class WeightSearchExhausted(RuntimeError):
    """`ATTEMPT_BUDGET` draws from [lo, hi] in a row gave no usable vector."""

    def __init__(self, lo: int, hi: int):
        super().__init__(f"no usable weight vector within {ATTEMPT_BUDGET} attempts")
        self.lo, self.hi = lo, hi


class LocalizationResult(NamedTuple):
    """Value of the localization sum, optionally with per-point summands."""

    value: Fraction
    per_point_terms: tuple[tuple[str, Fraction], ...] | None = None


def weight_of(m: LaurentMonomial, w: WeightVector) -> int:
    """Specialize a character to an integer: the dot product sum(p_i w_i).

    >>> weight_of(LaurentMonomial((0, -1, 1, 0, 0)), (267, 4, 17, 55, 160))
    13
    """
    if len(m) != len(w):
        raise ValueError(f"monomial has {len(m)} characters but {len(w)} weights are given")
    return sum(map(operator.mul, m, w))


def _tangent_characters(points: Iterable[FixedPoint]) -> set[LaurentMonomial]:
    """The distinct tangent characters of the points; usability depends on these alone."""
    return set().union(*(p.tangent for p in points))


def find_zero_weight(
    points: Sequence[FixedPoint], w: WeightVector
) -> tuple[FixedPoint, LaurentMonomial] | None:
    """First (fixed point, tangent monomial) specializing to weight 0.  The
    points are walked only to name the witness once a distinct character fails."""
    if all(weight_of(m, w) for m in _tangent_characters(points)):
        return None
    return next(
        (p, m) for p in points for m in p.tangent if not weight_of(m, w)
    )


def validate_weights(points: Sequence[FixedPoint], w: WeightVector) -> bool:
    """True iff every tangent character of every point has nonzero weight."""
    return find_zero_weight(points, w) is None


def random_weight_search(
    seed: int,
    lo: int,
    hi: int,
    points: Sequence[FixedPoint],
) -> tuple[tuple[int, ...], int]:
    """Deterministic rejection sampling for a usable weight vector.

    Draws five distinct integers uniformly from [lo, hi] until the vector
    passes `validate_weights`, tested once per distinct tangent character;
    returns (weights, attempts).  The same seed always returns the same
    vector.  Raises ValueError for a range of fewer than `MIN_RANGE_WIDTH`
    integers and `WeightSearchExhausted` once `ATTEMPT_BUDGET` draws have
    failed.
    """
    if hi - lo + 1 < MIN_RANGE_WIDTH:
        raise ValueError(f"range [{lo}, {hi}] holds fewer than {MIN_RANGE_WIDTH} integers")
    characters = _tangent_characters(points)
    rng = random.Random(seed)
    for attempt in range(1, ATTEMPT_BUDGET + 1):
        w = tuple(rng.sample(range(lo, hi + 1), 5))
        if all(weight_of(m, w) for m in characters):
            return w, attempt
    raise WeightSearchExhausted(lo, hi)


def bott_sum(
    points: Iterable[FixedPoint], w: WeightVector, keep_terms: bool = False
) -> LocalizationResult:
    """Bott's localization sum in exact rational arithmetic.

    Sums (product of fiber weights) / (product of tangent weights) over the
    fixed points, each weight repeated by its multiplicity, with the lcm of
    the tangent products as the common denominator.  `w` must pass
    `validate_weights` first; a zero tangent product raises.  Exact
    arithmetic makes the result independent of summation order.
    """
    specialized: dict[LaurentMonomial, int] = {}

    def weight(m: LaurentMonomial) -> int:
        value = specialized.get(m)
        if value is None:
            value = specialized[m] = weight_of(m, w)
        return value

    numerators: list[int] = []
    denominators: list[int] = []
    labels: list[str] = []
    for point in points:
        denominator = math.prod(map(weight, point.tangent))
        if denominator == 0:
            raise ZeroDivisionError(
                f"zero tangent weight at {point.label}; weights {tuple(w)} are invalid"
            )
        numerators.append(math.prod(map(weight, point.fiber)))
        denominators.append(denominator)
        if keep_terms:
            labels.append(point.label)
    common = math.lcm(*denominators)
    value = Fraction(sum(n * (common // d) for n, d in zip(numerators, denominators)), common)
    if not keep_terms:
        return LocalizationResult(value)
    terms = zip(labels, map(Fraction, numerators, denominators))
    return LocalizationResult(value, tuple(terms))
