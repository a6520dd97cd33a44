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
characters as tuples, each character repeated by its multiplicity.

A point sequence is compiled once: its distinct characters (395 on the
504 points), the set of its distinct tangent characters (280), each
point's tangent and fiber as positions into the characters, and the
points grouped by hyperplane.  One compiled form is held, and a call
reuses it when it passes the same point objects in the same order, so a
sweep over weight vectors builds nothing.  A sum specializes each
distinct character once and multiplies by position.  It adds each
group's terms over that group's own common denominator, the lcm L_g of
its tangent products, sum n_p / d_p = (sum n_p * (L_g / d_p)) / L_g, then
adds the group sums the same way over the lcm of the L_g, with a single
gcd at the end.  Every tangent in hyperplane i holds the three directions
x_j / x_i, and its other characters use four of the five weights, so L_g
has about half the bits of the lcm of all 504 products (a median of
about 600 against 1150 for weights up to 10^4; 126 points drawn at
random give about 990), and the lcm and the quotients L_g / d_p cost
less by as much.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import count
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
#: A usable vector's first four weights are usable on the 126 points, which hyperplane 4 carries.
MIN_RANGE_WIDTH = 11

WeightVector = Sequence[int]


class WeightSearchExhausted(Exception):
    """`ATTEMPT_BUDGET` draws from [lo, hi] in a row gave no usable vector;
    the message names the range as the command line's ``--range LO HI``."""


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


class _Compiled(NamedTuple):
    """A point sequence with its characters numbered; `tangents[i]` and
    `fibers[i]` are point i's characters as positions into `characters`.
    `groups` holds the indices of the points of each hyperplane, in
    first-seen order; the points without one make one group.  Usability
    depends on `tangent_characters` alone."""

    points: tuple[FixedPoint, ...]
    characters: tuple[LaurentMonomial, ...]
    tangent_characters: frozenset[LaurentMonomial]
    tangents: tuple[tuple[int, ...], ...]
    fibers: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]


_held = _Compiled((), (), frozenset(), (), (), ())


def _compile(points: Iterable[FixedPoint]) -> _Compiled:
    """The compiled form of the points, reused while the same point objects
    come in the same order; the held tuple keeps that identity test sound."""
    global _held
    points = tuple(points)
    held = _held
    if len(held.points) == len(points) and all(map(operator.is_, held.points, points)):
        return held
    # A character gets the next position when first seen, hashed once per occurrence.
    positions: defaultdict[LaurentMonomial, int] = defaultdict(count().__next__)
    tangents = tuple(tuple(map(positions.__getitem__, p.tangent)) for p in points)
    tangent_characters = frozenset(positions)
    fibers = tuple(tuple(map(positions.__getitem__, p.fiber)) for p in points)
    groups: defaultdict[int | None, list[int]] = defaultdict(list)
    for index, point in enumerate(points):
        groups[point.hyperplane].append(index)
    _held = _Compiled(points, tuple(positions), tangent_characters, tangents, fibers,
                      tuple(map(tuple, groups.values())))
    return _held


def _usable(compiled: _Compiled, w: WeightVector) -> bool:
    """True iff `w` gives every distinct tangent character a nonzero weight."""
    return all(weight_of(m, w) for m in compiled.tangent_characters)


def zero_weight_error(points: Sequence[FixedPoint], w: WeightVector) -> str | None:
    """None when `w` is usable, else a message naming the first (fixed point,
    tangent character) of weight 0.  The points are walked in order only to
    name that witness once a distinct character fails."""
    compiled = _compile(points)
    if _usable(compiled, w):
        return None
    point, m = next((p, m) for p in compiled.points for m in p.tangent if not weight_of(m, w))
    return (f"weights {tuple(w)} give zero weight on tangent monomial {m} "
            f"at fixed point {point.label}")


def validate_weights(points: Sequence[FixedPoint], w: WeightVector) -> bool:
    """True iff every tangent character of every point has nonzero weight."""
    return _usable(_compile(points), w)


def check_range(lo: int, hi: int) -> None:
    """Raise ValueError unless [lo, hi] holds at least `MIN_RANGE_WIDTH`
    integers and at most `sys.maxsize`, the most `random.sample` draws from.
    The message names the range as the command line's ``--range LO HI``."""
    if hi - lo + 1 < MIN_RANGE_WIDTH:
        raise ValueError(f"--range {lo} {hi} holds fewer than {MIN_RANGE_WIDTH} integers; "
                         f"no narrower range has a usable weight vector")
    if hi - lo + 1 > sys.maxsize:
        raise ValueError(f"--range {lo} {hi} holds more than {sys.maxsize} integers, "
                         f"too many to sample from")


def random_weight_search(
    seed: int,
    lo: int,
    hi: int,
    points: Sequence[FixedPoint],
) -> tuple[tuple[int, ...], int]:
    """Deterministic rejection sampling for a usable weight vector.

    Draws distinct integers uniformly from [lo, hi], one per character
    coordinate of the points (five when there are none), until the vector
    passes the test of `validate_weights`, once per distinct tangent
    character; returns (weights, attempts).  The same seed always returns
    the same vector.  Raises `check_range`'s ValueError for a range too
    narrow or too wide and `WeightSearchExhausted` once `ATTEMPT_BUDGET`
    draws have failed.
    """
    check_range(lo, hi)
    compiled = _compile(points)
    size = len(next(iter(compiled.characters), DEFAULT_WEIGHTS))
    rng = random.Random(seed)
    for attempt in range(1, ATTEMPT_BUDGET + 1):
        w = tuple(rng.sample(range(lo, hi + 1), size))
        if _usable(compiled, w):
            return w, attempt
    raise WeightSearchExhausted(
        f"--range {lo} {hi}: no usable weight vector within {ATTEMPT_BUDGET} attempts")


def bott_sum(
    points: Iterable[FixedPoint], w: WeightVector, keep_terms: bool = False
) -> LocalizationResult:
    """Bott's localization sum in exact rational arithmetic.

    Sums (product of fiber weights) / (product of tangent weights) over the
    fixed points, each weight repeated by its multiplicity.  The points of
    one hyperplane, or all those without one, are added over the lcm of
    their tangent products, and the group sums over the lcm of those lcms.
    Each distinct character of the compiled points (reused for the same
    point objects in the same order) is specialized once, and products are
    taken over positions.  `w` must pass `validate_weights` first; a zero
    tangent product raises with the message of `zero_weight_error`.
    Exact arithmetic makes the result independent of summation order.
    """
    compiled = _compile(points)
    weight = [weight_of(m, w) for m in compiled.characters].__getitem__
    denominators = [math.prod(map(weight, t)) for t in compiled.tangents]
    if 0 in denominators:
        raise ZeroDivisionError(zero_weight_error(compiled.points, w))
    numerators = [math.prod(map(weight, f)) for f in compiled.fibers]
    sums, lcms = [], []
    for group in compiled.groups:
        lcms.append(common := math.lcm(*map(denominators.__getitem__, group)))
        sums.append(sum(numerators[i] * (common // denominators[i]) for i in group))
    common = math.lcm(*lcms)
    value = Fraction(sum(s * (common // d) for s, d in zip(sums, lcms)), common)
    if not keep_terms:
        return LocalizationResult(value)
    terms = zip((p.label for p in compiled.points), map(Fraction, numerators, denominators))
    return LocalizationResult(value, tuple(terms))
