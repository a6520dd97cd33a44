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

evaluated here in exact big-integer rational arithmetic, which `bott_sum`
alone imports, so a run without a sum never loads `fractions`.  No
floating point appears anywhere: products of 13 weights of size up to
10^4 overflow 64-bit integers.  Each point holds its fiber and tangent
characters as tuples, each character repeated by its multiplicity.

A point sequence is compiled once.  Its distinct characters (395 on the
504 points) take positions, the tangent characters (280) first.  These
form 140 pairs {x, -x}, and w(-x) = -w(x), so a weight vector takes 255
dot products: one key of each pair and the 115 fiber characters that are
no tangent character, each set stored column by column and specialized
with one `map` per coordinate.  One `map(operator.neg, ...)` and a gather
put all 395 weights in place.  A usability test reads the keys alone, and
a sum that follows it with an equal vector reuses them.  The points are
grouped by hyperplane, and each point's characters become
`operator.itemgetter` gathers of positions into the specialized list.  A
group's shared positions are the distinct ones that every one of its
tangents holds, found as a set intersection and each taken once: on the
504 points, the three directions x_j / x_i of hyperplane i.  Each point
keeps a gather of its other ten tangent positions and one of its fiber.
One compiled form is held, and a call reuses it when it passes the same
point objects in the same order, so a sweep over weight vectors builds
nothing.

A sum multiplies each group's shared weights once, into s_g, and the rest
of each tangent into r_p, so d_p = s_g * r_p.  The group's terms are added
over D_g * s_g: sum n_p / d_p = (sum n_p * (D_g / r_p)) / (D_g * s_g).
D_g is the product of the group's `denominator` gather, built once per
compiled sequence.  It holds the keys of the rest tangent characters, a
character and its negation under one key, each key repeated as many times
as the point that holds it most often holds it.  Since |w(-x)| = |w(x)|,
D_g is a multiple of every r_p up to sign.  The group sums are then added
as fractions.  On the 504 points each D_g has 72 factors, 12 of them
repeated.  For weights up to 10^4 it has a median of about 900 bits,
against about 560 for the lcm of the group's r_p, and s_g about 35; one
product of 72 factors costs less than the lcm of 126 products that it
replaces.  Without merging a character with its negation, D_g would have
about 1580 bits, and the quotients D_g / r_p would cost more than the lcm
saves.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter, defaultdict, namedtuple
from itertools import accumulate, chain, compress, count, repeat
from typing import TYPE_CHECKING

from .fixedpoints import FixedPoint
from .repring import LaurentMonomial

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Iterable, Sequence

    WeightVector = Sequence[int]
    #: A function from the list of character weights to the tuple of some of them.
    _Gather = Callable[[Sequence[int]], tuple[int, ...]]

#: The default one-parameter subgroup; the headline count 6028452 is
#: reproduced bit-exactly with these weights.
DEFAULT_WEIGHTS: tuple[int, int, int, int, int] = (267, 4, 17, 55, 160)

#: Rejection-sampling attempt budget for the random weight search.
ATTEMPT_BUDGET = 100_000

#: Inclusive sampling range of the random weight search when none is given.
DEFAULT_RANGE = (1, 10_000)

#: Fewest integers a sampling range must hold: the narrowest width with a
#: usable vector on the 504 points.  Every tangent character has degree 0,
#: so shifting a range leaves its usable vectors unchanged; no five
#: distinct integers from [1, 10] are usable on the 504 points, and some
#: from [1, 11] are.  Other points can do with less: 768 ordered four
#: distinct integers from [1, 10] are usable on the 126 points.
MIN_RANGE_WIDTH = 11


class WeightSearchExhausted(Exception):
    """`ATTEMPT_BUDGET` draws from [lo, hi] in a row gave no usable vector;
    the message names the range as the command line's ``--range LO HI``."""


class LocalizationResult(namedtuple("LocalizationResult", "value per_point_terms",
                                    defaults=(None,))):
    """Value of the localization sum, a `Fraction`, optionally with the
    per-point summands, a tuple of (label, `Fraction`) pairs, else None."""

    __slots__ = ()


def weight_of(m: LaurentMonomial, w: WeightVector) -> int:
    """Specialize a character to an integer: the dot product sum(p_i w_i).

    >>> weight_of(LaurentMonomial((0, -1, 1, 0, 0)), (267, 4, 17, 55, 160))
    13
    """
    if len(m) != len(w):
        raise ValueError(f"monomial has {len(m)} characters but {len(w)} weights are given")
    return sum(map(operator.mul, m, w))


def _gather(positions: Iterable[int]) -> _Gather:
    """The function from a sequence to the tuple of its items at `positions`;
    `itemgetter` takes no empty list and returns a single item bare."""
    positions = tuple(positions)
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda weights: tuple(map(weights.__getitem__, positions))


class _Group(namedtuple("_Group", "indices shared tangents denominator fibers")):
    """The points of one hyperplane, or all those without one, as `_Gather`s
    from the list of character weights: `shared` gathers the tangent
    positions that every point of the group holds, and `tangents[k]` the
    other tangent positions of point `indices[k]`, `fibers[k]` its fiber.
    `denominator` gathers the keys of those other positions, each as many
    times as the point that holds it most often holds it; its product is a
    multiple of every `tangents[k]` product up to sign.  `indices`,
    `tangents` and `fibers` are tuples."""

    __slots__ = ()


class _Compiled(namedtuple("_Compiled", "points key_columns fiber_columns expand groups")):
    """A tuple of `points` with the characters its weights come from, stored
    column by column in tuples of int tuples: `key_columns[j]` holds
    coordinate j of one character of each pair {x, -x} of tangent
    characters, the two of which vanish together, so usability depends on
    them alone, and `fiber_columns[j]` of each fiber character that is no
    tangent character.  The `_Gather` `expand` puts the negated key
    weights, the key weights and the fiber weights at the positions that
    the gathers of `groups`, a tuple of `_Group`, read.  `groups` holds
    the hyperplanes in first-seen order; the points without one make one group."""

    __slots__ = ()


_held = _Compiled((), (), (), _gather(()), ())

#: The last weight vector specialized on the keys of `_held`, as a tuple,
#: and its key weights; replaced with `_held` by None, which equals no vector.
_held_keys: tuple[tuple[int, ...] | None, list[int]] = (None, [])


def _compile(points: Iterable[FixedPoint]) -> _Compiled:
    """The compiled form of the points, reused while the same point objects
    come in the same order; the held tuple keeps that identity test sound.
    Each character is hashed once per occurrence, and the keys and `expand`
    are integer remaps of its position.  Each group's `denominator` comes
    from one count of its (point, key) pairs.  Raises ValueError when the
    characters differ in length."""
    global _held, _held_keys
    points = tuple(points)
    held = _held
    if len(held.points) == len(points) and all(map(operator.is_, held.points, points)):
        return held
    # A character gets the next position when first seen, hashed once per occurrence.
    positions: defaultdict[LaurentMonomial, int] = defaultdict(count().__next__)
    tangents = [tuple(map(positions.__getitem__, p.tangent)) for p in points]
    tangent_count = len(positions)
    fibers = [_gather(map(positions.__getitem__, p.fiber)) for p in points]
    if len(lengths := set(map(len, positions))) > 1:
        raise ValueError(f"characters of {sorted(lengths)} coordinates are mixed")
    columns = tuple(zip(*positions))
    # A tangent character and its negation share a key, the lower of their
    # positions; `key_of` and `is_key` stop at the last tangent character.
    negations = zip(*(map(operator.neg, column) for column in columns))
    found = map(positions.get, negations, range(tangent_count))
    key_of = [j if j < i else i for i, j in enumerate(found)]
    is_key = list(map(operator.eq, key_of, count()))
    key_columns = tuple(tuple(compress(column, is_key)) for column in columns)
    # `expand` reads the keys' weights negated, then the keys', then the
    # other fiber characters': key k sits at size + rank[k], and the other
    # character of its pair at rank[k].
    rank = list(accumulate(is_key, initial=-1))[1:]
    size = sum(is_key)
    expand = [rank[k] + size * key for k, key in zip(key_of, is_key)]
    expand += range(2 * size, 2 * size + len(positions) - tangent_count)
    members: defaultdict[int | None, list[int]] = defaultdict(list)
    for index, point in enumerate(points):
        members[point.hyperplane].append(index)
    groups = []
    for indices in members.values():
        group = list(map(tangents.__getitem__, indices))
        shared = set(group[0]).intersection(*group[1:])
        rests = []
        for tangent in group:
            rest = list(tangent)
            for c in shared:
                rest.remove(c)
            rests.append(rest)
        # Most (point, key) pairs occur once: each key starts at 1, raised by repeated pairs.
        owners = chain.from_iterable(map(repeat, range(len(rests)), map(len, rests)))
        pairs = Counter(zip(owners, map(key_of.__getitem__, chain.from_iterable(rests))))
        most = Counter(dict.fromkeys(map(operator.itemgetter(1), pairs), 1))
        for (_, key), n in pairs.items():
            if n > 1 and n > most[key]:
                most[key] = n
        groups.append(_Group(tuple(indices), _gather(shared), tuple(map(_gather, rests)),
                             _gather(most.elements()), tuple(map(fibers.__getitem__, indices))))
    fiber_columns = tuple(column[tangent_count:] for column in columns)
    _held = _Compiled(points, key_columns, fiber_columns, _gather(expand), tuple(groups))
    _held_keys = (None, [])
    return _held


def _specialize(columns: Sequence[Sequence[int]], w: WeightVector) -> list[int]:
    """The weight of each character stored in `columns`, one `map` per coordinate."""
    if columns and len(columns) != len(w):
        raise ValueError(f"characters have {len(columns)} coordinates "
                         f"but {len(w)} weights are given")
    scaled = [map(operator.mul, column, repeat(x)) for column, x in zip(columns, w)]
    return list(map(sum, zip(*scaled)))


def _key_weights(compiled: _Compiled, w: tuple[int, ...]) -> list[int]:
    """The weights of the key characters of `compiled`, which `_compile` has
    just returned, held for the next call with an equal `w`."""
    global _held_keys
    held_w, keys = _held_keys
    if held_w != w:
        keys = _specialize(compiled.key_columns, w)
        _held_keys = (w, keys)
    return keys


def _weights(compiled: _Compiled, w: WeightVector) -> tuple[int, ...]:
    """The weight of each distinct character of `compiled`, by position: the
    key weights negated, the key weights and the fiber weights, in place."""
    keys = _key_weights(compiled, tuple(w))
    fibers = _specialize(compiled.fiber_columns, w)
    return compiled.expand([*map(operator.neg, keys), *keys, *fibers])


def _usable(compiled: _Compiled, w: WeightVector) -> bool:
    """True iff `w` gives every distinct tangent character a nonzero weight,
    read off the key weights alone, since w(-x) = -w(x); they stay held for
    a sum that follows with an equal `w`."""
    return all(_key_weights(compiled, tuple(w)))


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
                         f"no narrower range has a usable weight vector on the 504 points")
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
    import random  # here alone, so that a run without a search never loads it

    check_range(lo, hi)
    compiled = _compile(points)
    size = len(compiled.key_columns) or len(DEFAULT_WEIGHTS)
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
    one hyperplane, or all those without one, are added over their shared
    tangent product times the product of their group's `denominator`, a
    multiple of every point's other tangent product, and the group sums
    are added as fractions.  The compiled points are reused for the same
    point objects in the same order, and the key weights for a `w` equal
    to the last one specialized on them, as by `validate_weights` just
    before.  `w` must pass `validate_weights` first; a zero tangent
    product raises with the message of `zero_weight_error`.  Exact
    arithmetic makes the result independent of summation order.
    """
    from fractions import Fraction  # here alone, so that a run without a sum never loads it

    compiled = _compile(points)
    weights = _weights(compiled, w)
    value = Fraction(0)
    terms: list[Fraction] = [Fraction(0)] * len(compiled.points) if keep_terms else []
    for group in compiled.groups:
        shared = math.prod(group.shared(weights))
        rests = [math.prod(gather(weights)) for gather in group.tangents]
        if not shared or 0 in rests:
            raise ZeroDivisionError(zero_weight_error(compiled.points, w))
        numerators = [math.prod(gather(weights)) for gather in group.fibers]
        common = math.prod(group.denominator(weights))
        value += Fraction(sum(n * (common // r) for n, r in zip(numerators, rests)), common * shared)
        if keep_terms:
            for i, r, n in zip(group.indices, rests, numerators):
                terms[i] = Fraction(n, shared * r)
    labels = (p.label for p in compiled.points)
    return LocalizationResult(value, tuple(zip(labels, terms)) if keep_terms else None)
