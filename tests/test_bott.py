from __future__ import annotations

import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_monomial
from quartics import bott
from quartics.bott import (
    DEFAULT_WEIGHTS,
    MIN_RANGE_WIDTH,
    bott_sum,
    random_weight_search,
    validate_weights,
    weight_of,
    zero_weight_error,
)
from quartics.fixedpoints import FixedPoint, STAGE_GRASSMANNIAN, fiber_rep, grassmann_tangent
from quartics.repring import LaurentMonomial, MonomialIdeal, invariant_sections


def mono(text: str, nvars: int = 5) -> LaurentMonomial:
    return parse_monomial(text, nvars)


# ---------------------------------------------------------------------------
#  Weight specialization
# ---------------------------------------------------------------------------


def test_weight_of_examples():
    assert weight_of(mono("x2*x1^-1"), DEFAULT_WEIGHTS) == 13
    assert weight_of(mono("1"), DEFAULT_WEIGHTS) == 0
    assert weight_of(mono("x0^2*x1^-1*x2^-1"), DEFAULT_WEIGHTS) == 513


def test_weight_of_requires_one_weight_per_character(h4_points):
    for nvars in (4, 6):
        with pytest.raises(ValueError):
            weight_of(mono("x2*x1^-1", nvars), DEFAULT_WEIGHTS)
    for w in (DEFAULT_WEIGHTS[:4], DEFAULT_WEIGHTS + (1,)):
        with pytest.raises(ValueError):
            bott_sum(h4_points, w)
        with pytest.raises(ValueError):
            validate_weights(h4_points, w)


# ---------------------------------------------------------------------------
#  Validation and the random search
# ---------------------------------------------------------------------------


def test_default_weights_are_valid(h4_points):
    assert validate_weights(h4_points, DEFAULT_WEIGHTS)


def test_degenerate_weights_are_rejected(h4_points):
    assert not validate_weights(h4_points, (0, 0, 0, 0, 0))
    assert not validate_weights(h4_points, (1, 1, 1, 1, 1))


def test_validate_weights_agrees_with_the_witness_search(h4_points):
    rng = random.Random(0)
    vectors = [DEFAULT_WEIGHTS, (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)]
    vectors += [tuple(rng.randint(1, 11) for _ in range(5)) for _ in range(50)]
    verdicts = [validate_weights(h4_points, w) for w in vectors]
    assert verdicts == [zero_weight_error(h4_points, w) is None for w in vectors]
    assert verdicts[:3] == [True, False, False]
    assert verdicts.count(False) > len(vectors) // 2


def _walk_for_zero_weight(points, w):
    """The witness search over every point, without the distinct-character test first."""
    for point in points:
        for monomial in point.tangent:
            if weight_of(monomial, w) == 0:
                return point, monomial
    return None


def _witness_message(w, witness):
    """`zero_weight_error`'s text for a (point, monomial) witness, None for none."""
    if witness is None:
        return None
    point, monomial = witness
    return (f"weights {tuple(w)} give zero weight on tangent monomial {monomial} "
            f"at fixed point {point.label}")


def test_zero_weight_error_matches_the_walk(h4_points):
    rng = random.Random(3)
    vectors = [DEFAULT_WEIGHTS, (0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (3, 1, 4, 1, 5)]
    vectors += [tuple(rng.randint(1, 11) for _ in range(5)) for _ in range(50)]
    walked = [_walk_for_zero_weight(h4_points, w) for w in vectors]
    errors = [zero_weight_error(h4_points, w) for w in vectors]
    assert errors == [_witness_message(w, witness) for w, witness in zip(vectors, walked)]
    assert errors[0] is None
    assert all(error is not None for error in errors[1:4])
    # The CLI's error message names these two witnesses.
    assert [(p.label, str(m)) for p, m in walked[2:4]] == [
        ("h1:grassmannian:(x0^2, x1, x2^2)", "x2^-1*x3"),
        ("h1:grassmannian:(x0^2, x1, x2^2)", "x1^-1*x3"),
    ]


def test_zero_weight_error_names_the_witness(h4_points):
    # One text for `count --weights` and for the verify suite; any sequence
    # of weights is named as a tuple.
    assert zero_weight_error(h4_points, DEFAULT_WEIGHTS) is None
    assert zero_weight_error(h4_points, [1, 1, 1, 1, 1]) == (
        "weights (1, 1, 1, 1, 1) give zero weight on tangent monomial x2^-1*x3 "
        "at fixed point h1:grassmannian:(x0^2, x1, x2^2)"
    )
    # The named monomial is a tangent character of weight 0 at the named point.
    point = next(p for p in h4_points if p.label == "h1:grassmannian:(x0^2, x1, x2^2)")
    monomial = next(m for m in point.tangent if str(m) == "x2^-1*x3")
    assert weight_of(monomial, (1, 1, 1, 1, 1)) == 0


def test_random_weight_search_is_deterministic(h4_points):
    first = random_weight_search(42, 1, 10_000, h4_points)
    second = random_weight_search(42, 1, 10_000, h4_points)
    assert first == second
    # Pinned draws in the narrowest usable range, where most draws fail.
    assert [random_weight_search(seed, 1, 11, h4_points) for seed in range(4)] == [
        ((11, 2, 5, 1, 10), 2089),
        ((11, 10, 2, 1, 5), 559),
        ((11, 10, 5, 1, 2), 1348),
        ((1, 7, 11, 10, 2), 1780),
    ]


def test_random_weight_search_postconditions(h4_points):
    for seed in range(3):
        weights, attempts = random_weight_search(seed, 1, 10_000, h4_points)
        assert validate_weights(h4_points, weights)
        assert len(set(weights)) == 5
        assert all(1 <= w <= 10_000 for w in weights)
        assert 1 <= attempts <= 100


def test_random_weight_search_draws_one_weight_per_character(h3_points, h4_points):
    # The 126 points have four characters, so the search draws four weights.
    for hi in (10_000, MIN_RANGE_WIDTH):
        weights, attempts = random_weight_search(0, 1, hi, h3_points)
        assert len(set(weights)) == len(weights) == 4
        assert validate_weights(h3_points, weights)
        assert random_weight_search(0, 1, hi, h3_points) == (weights, attempts)
    # MIN_RANGE_WIDTH holds on them: a usable vector's first four weights
    # are usable on the 126 points, whose copies in hyperplane 4 carry
    # their characters.  The four are pinned usable draws from [1, 11].
    for w in [(11, 2, 5, 1, 10), (11, 10, 2, 1, 5), (11, 10, 5, 1, 2), (1, 7, 11, 10, 2)]:
        assert validate_weights(h4_points, w) and validate_weights(h3_points, w[:4])
    # An empty sequence keeps drawing five, every draw usable.
    assert random_weight_search(0, 1, 10_000, []) == random_weight_search(0, 1, 10_000, h4_points)


def test_random_weight_search_range_too_small(h4_points):
    for hi in (4, MIN_RANGE_WIDTH - 1):
        with pytest.raises(ValueError):
            random_weight_search(0, 1, hi, h4_points)


def test_random_weight_search_range_too_wide(h4_points):
    # `random.sample` cannot draw from more than sys.maxsize integers; the
    # range is rejected by name before any draw.
    with pytest.raises(ValueError, match=r"^--range 1 100000000000000000000 holds more than"):
        random_weight_search(0, 1, 10**20, h4_points)
    assert random_weight_search(0, 1, sys.maxsize, h4_points)[1] >= 1


def test_random_weight_search_exhaustion(h4_points, monkeypatch):
    # In [1, 11] only 48 of 55440 ordered vectors are usable; seed 0 draws
    # none of them in its first ten attempts.
    monkeypatch.setattr(bott, "ATTEMPT_BUDGET", 10)
    message = r"^--range 1 11: no usable weight vector within 10 attempts$"
    with pytest.raises(bott.WeightSearchExhausted, match=message):
        random_weight_search(0, 1, MIN_RANGE_WIDTH, h4_points)


def test_min_range_width_is_the_narrowest_usable_range(h4_points):
    characters = {tuple(m) for p in h4_points for m in p.tangent}
    # Degree 0 makes usability invariant under shifting the range, so
    # ranges starting at 1 stand for all ranges of their width.
    assert all(sum(c) == 0 for c in characters)

    def usable(w):
        return all(sum(e * x for e, x in zip(c, w)) != 0 for c in characters)

    narrow = range(1, MIN_RANGE_WIDTH)
    assert not any(usable(w) for w in permutations(narrow, 5))
    wide = range(1, MIN_RANGE_WIDTH + 1)
    w = next(w for w in permutations(wide, 5) if usable(w))
    assert validate_weights(h4_points, w)


def test_min_range_width_holds_for_the_504_points_only(h3_points, h4_points):
    # Narrower ranges have usable vectors on the 126 points, so the
    # message names the points its width is the narrowest for.
    narrow = range(1, MIN_RANGE_WIDTH)
    usable = [w for w in permutations(narrow, 4) if validate_weights(h3_points, w)]
    assert len(usable) == 768
    message = (r"^--range 1 10 holds fewer than 11 integers; "
               r"no narrower range has a usable weight vector on the 504 points$")
    for points in (h3_points, h4_points):
        with pytest.raises(ValueError, match=message):
            random_weight_search(0, 1, MIN_RANGE_WIDTH - 1, points)


# ---------------------------------------------------------------------------
#  The localization sum
# ---------------------------------------------------------------------------


def characters(*terms: tuple[str, int]) -> tuple[LaurentMonomial, ...]:
    """Each monomial repeated by its multiplicity."""
    return tuple(mono(text) for text, k in terms for _ in range(k))


def _synthetic_point(tangent, fiber=None) -> FixedPoint:
    return FixedPoint(
        stage=STAGE_GRASSMANNIAN,
        ideal=MonomialIdeal([mono("x0^2"), mono("x1^2")]),
        tangent=tangent,
        fiber=tangent if fiber is None else fiber,
    )


def test_bott_sum_fiber_equals_tangent():
    tangent = characters(("x2*x1^-1", 2), ("x0^2*x3^-1*x4^-1", 1))
    result = bott_sum([_synthetic_point(tangent)], DEFAULT_WEIGHTS)
    assert result.value == Fraction(1)


def test_bott_sum_zero_denominator_raises(h4_points):
    # The sum's error is the message of `zero_weight_error`, the one witness walk.
    w = (1, 1, 1, 1, 1)
    point = _synthetic_point(characters(("x2*x1^-1", 1)))
    with pytest.raises(ZeroDivisionError) as excinfo:
        bott_sum([point], w)
    assert str(excinfo.value) == zero_weight_error([point], w)
    assert str(excinfo.value).endswith(f"at fixed point {point.label}")
    # Many points have a zero tangent weight here; the first in the given order is named.
    for order in (h4_points, h4_points[::-1]):
        first = next(p for p in order if not all(weight_of(m, w) for m in p.tangent))
        with pytest.raises(ZeroDivisionError) as excinfo:
            bott_sum(order, w)
        assert str(excinfo.value) == zero_weight_error(order, w)
        assert str(excinfo.value).endswith(f"at fixed point {first.label}")


def _numerator(fiber, w) -> Fraction:
    """The Bott sum of one point with an empty tangent: its fiber weight product."""
    return bott_sum([_synthetic_point((), fiber)], w).value


def test_prod_weights_examples():
    assert _numerator(characters(("x2*x1^-1", 2)), DEFAULT_WEIGHTS) == 169
    assert _numerator((), DEFAULT_WEIGHTS) == 1
    with_trivial = characters(("1", 1), ("x2", 1))
    assert _numerator(with_trivial, DEFAULT_WEIGHTS) == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ),
)
def test_bott_sum_numerator_is_multiplicative(terms1, terms2):
    r1 = tuple(LaurentMonomial(e) for e, k in terms1 for _ in range(k))
    r2 = tuple(LaurentMonomial(e) for e, k in terms2 for _ in range(k))
    w = (7, 3, -2, 5, 11)
    assert _numerator(r1 + r2, w) == _numerator(r1, w) * _numerator(r2, w)


def _oracle_bott_sum(points, w):
    """The sum as one `Fraction` per point, weights raised to their multiplicities,
    added one by one."""

    def product(characters) -> int:
        return math.prod(weight_of(m, w) ** k for m, k in Counter(characters).items())

    total = Fraction(0)
    terms = []
    for point in points:
        term = Fraction(product(point.fiber), product(point.tangent))
        total += term
        terms.append((point.label, term))
    return total, tuple(terms)


def test_bott_sum_matches_the_per_point_oracle(h4_points):
    vectors = [DEFAULT_WEIGHTS]
    vectors += [random_weight_search(seed, 1, 10_000, h4_points)[0] for seed in range(20)]
    for w in vectors:
        result = bott_sum(h4_points, w, keep_terms=True)
        assert (result.value, result.per_point_terms) == _oracle_bott_sum(h4_points, w)
        assert bott_sum(h4_points, w) == result._replace(per_point_terms=None)


def _in_five_characters(point: FixedPoint) -> FixedPoint:
    """An h3 point with x4's zero exponent appended to every character; it
    keeps `hyperplane=None`, so it sums in a group of its own."""

    def carried(characters):
        return tuple(LaurentMonomial((*m, 0)) for m in characters)

    return point._replace(
        ideal=MonomialIdeal(carried(point.ideal)),
        tangent=carried(point.tangent),
        fiber=carried(point.fiber),
    )


@pytest.mark.parametrize("arrangement", ["h3", "h3+h4", "h4-reversed", "empty"])
def test_grouped_sum_matches_the_per_point_oracle(arrangement, h3_points, h4_points):
    # The sum adds each hyperplane's points over their own denominator; the
    # points without a hyperplane form one group, and groups come in
    # first-seen order.  The value is a Fraction even with no group to add.
    points, groups = {
        "h3": (h3_points, [126]),
        "h3+h4": ([*map(_in_five_characters, h3_points), *h4_points], [126] * 5),
        "h4-reversed": (h4_points[::-1], [126] * 4),
        "empty": ([], []),
    }[arrangement]
    assert [len(group.indices) for group in bott._compile(points).groups] == groups
    vectors = [DEFAULT_WEIGHTS]
    vectors += [random_weight_search(seed, 1, 10_000, h4_points)[0] for seed in range(5)]
    for w in vectors:
        # The h3 characters are the hyperplane-4 ones without x4.
        w = w[:4] if arrangement == "h3" else w
        result = bott_sum(points, w, keep_terms=True)
        assert type(result.value) is Fraction
        assert (result.value, result.per_point_terms) == _oracle_bott_sum(points, w)


#: Characters the synthetic points draw from, so that points share some.
_POOL = [mono(t) for t in
         ("x1*x2^-1", "x2*x1^-1", "x2*x3^-1", "x0^2*x1^-1*x4^-1", "x3^-1*x4", "x0*x2^-1")]
_characters = st.lists(
    st.sampled_from(_POOL)
    | st.builds(LaurentMonomial, st.lists(st.integers(-2, 2), min_size=5, max_size=5)),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_characters, _characters, st.sampled_from([None, 1, 2])), max_size=6),
    st.sampled_from([None, 1, 2]),
    st.sampled_from(_POOL),
    st.lists(st.integers(-12, 12), min_size=5, max_size=5),
)
def test_shared_factor_sum_matches_the_per_point_oracle(drawn, doubled, twice, w):
    # Every tangent of the group `doubled` gains two copies of `twice`, so the
    # group shares it whatever else it draws.  Every group's denominator holds
    # no surplus factor, which the sum alone would not show.  A weight vector
    # that vanishes on a tangent character raises the error of
    # `zero_weight_error`.
    points = []
    for tangent, fiber, hyperplane in drawn:
        tangent = (*tangent, twice, twice) if hyperplane == doubled else tuple(tangent)
        points.append(_synthetic_point(tangent, tuple(fiber))._replace(hyperplane=hyperplane))
    compiled = bott._compile(points)
    characters = _characters_of(points)
    assert _expanded_characters(compiled) == tuple(characters)
    for group in compiled.groups:
        denominator = Counter(group.denominator(range(len(characters))))
        assert denominator == _denominator_oracle(points, group, characters)
    try:
        expected = _oracle_bott_sum(points, w)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError) as excinfo:
            bott_sum(points, w)
        assert str(excinfo.value) == zero_weight_error(points, w) is not None
        return
    result = bott_sum(points, w, keep_terms=True)
    assert (result.value, result.per_point_terms) == expected
    assert bott_sum(points, w).value == expected[0]
    assert validate_weights(points, w)


def test_zero_weight_on_a_shared_character_names_the_first_point():
    # `shared` vanishes at w and every point of hyperplane 1 holds it; the
    # error names the first point in the caller's order, and its first
    # tangent character of weight 0.
    w = (1, 2, 2, 3, 5)
    shared, other = mono("x1*x2^-1"), mono("x0^2*x3^-1*x4^-1")
    assert (weight_of(shared, w), weight_of(other, w)) == (0, -6)
    ideals = [MonomialIdeal([mono("x0^2"), mono(f"x{k}^2")]) for k in (1, 2, 3)]
    first = _synthetic_point((other, shared))._replace(ideal=ideals[0], hyperplane=1)
    second = _synthetic_point((shared, shared, other))._replace(ideal=ideals[1], hyperplane=1)
    elsewhere = _synthetic_point((other,))._replace(ideal=ideals[2], hyperplane=2)
    for order, named in [((elsewhere, first, second), first), ((second, elsewhere, first), second)]:
        with pytest.raises(ZeroDivisionError) as excinfo:
            bott_sum(order, w)
        assert str(excinfo.value) == _witness_message(w, (named, shared))
        assert str(excinfo.value) == zero_weight_error(order, w)


def test_characters_of_mixed_lengths_are_rejected():
    four, five = mono("x1*x2^-1", 4), mono("x1*x2^-1")
    for tangent, fiber in [((four, five), ()), ((five,), (four,)), ((four,), (five,))]:
        points = [_synthetic_point(tangent, fiber)]
        for call in (bott_sum, validate_weights):
            with pytest.raises(ValueError, match=r"^characters of \[4, 5\] coordinates are mixed$"):
                call(points, DEFAULT_WEIGHTS)


def _line_points() -> list[FixedPoint]:
    """The 24 fixed points of the degree-1 curves on P(2,1,1,1,1), a
    P^3-bundle over G(2, V[1]): the ideals (S, m), S two of x1..x4 and m one
    of x0^2, u^2, u*v, v^2 for the other two linear forms u and v."""
    linear = invariant_sections(4, 1)
    points = []
    for span in combinations(linear, 2):
        u, v = (x for x in linear if x not in span)
        quadrics = (mono("x0^2"), u * u, u * v, v * v)
        for m in quadrics:
            ideal = MonomialIdeal([*span, m])
            tangent = grassmann_tangent(MonomialIdeal(span))
            tangent.update(p / m for p in quadrics if p != m)
            points.append(FixedPoint(
                stage=STAGE_GRASSMANNIAN,
                ideal=ideal,
                tangent=tuple(sorted(tangent.elements(), reverse=True)),
                fiber=fiber_rep(ideal),
            ))
    return points


def test_bott_sum_counts_the_lines():
    # A second space through the same layers: 7884 lines on the sextic.
    points = _line_points()
    assert len(points) == 24
    assert {(len(p.tangent), len(p.fiber)) for p in points} == {(7, 7)}
    vectors = [DEFAULT_WEIGHTS]
    vectors += [random_weight_search(seed, 1, 10_000, points)[0] for seed in range(5)]
    assert [bott_sum(points, w).value for w in vectors] == [Fraction(7884)] * 6


def test_bott_sum_headline_value(h4_points):
    result = bott_sum(h4_points, DEFAULT_WEIGHTS)
    assert result.value == Fraction(6028452)
    assert result.per_point_terms is None


def test_bott_sum_keeps_terms_when_asked(h4_points):
    result = bott_sum(h4_points, DEFAULT_WEIGHTS, keep_terms=True)
    assert len(result.per_point_terms) == 504
    assert sum(term for _, term in result.per_point_terms) == result.value


def test_bott_sum_is_summation_order_invariant(h4_points):
    bott_sum(h4_points, DEFAULT_WEIGHTS)
    shuffled = list(h4_points)
    random.Random(7).shuffle(shuffled)
    result = bott_sum(shuffled, DEFAULT_WEIGHTS, keep_terms=True)
    assert result.value == Fraction(6028452)
    # The terms come in the shuffled order, not in that of the points summed before.
    assert result.per_point_terms == _oracle_bott_sum(shuffled, DEFAULT_WEIGHTS)[1]


def _characters_of(points) -> list[LaurentMonomial]:
    """The distinct characters of the points by position: in first-seen
    order, every tangent character before the other fiber characters."""
    tangent = (m for p in points for m in p.tangent)
    fiber = (m for p in points for m in p.fiber)
    return list(dict.fromkeys(chain(tangent, fiber)))


def _negated(m: LaurentMonomial) -> LaurentMonomial:
    return LaurentMonomial(map(operator.neg, m))


def _expanded_characters(compiled) -> tuple[LaurentMonomial, ...]:
    """The compiled form's `expand` applied to its characters in the order of
    the weights it reads: the keys negated, the keys, the fiber characters."""
    keys = [LaurentMonomial(c) for c in zip(*compiled.key_columns)]
    fibers = [LaurentMonomial(c) for c in zip(*compiled.fiber_columns)]
    return compiled.expand([*map(_negated, keys), *keys, *fibers])


def test_bott_sum_specializes_each_distinct_character_once(h4_points):
    # One character of each pair {x, -x} of tangent characters is a key, and
    # the fiber columns hold the fiber characters that are no tangent
    # character; `expand` puts their weights, and the keys' negated, at the
    # positions of the 395 distinct characters, which specialize to
    # `weight_of` of each.
    compiled = bott._compile(h4_points)
    characters = _characters_of(h4_points)
    occurrences = Counter(m for p in h4_points for m in p.tangent + p.fiber)
    assert (len(occurrences), occurrences.total()) == (395, 13104)
    assert Counter(characters) == Counter(occurrences.keys())
    assert _expanded_characters(compiled) == tuple(characters)
    # The 280 distinct tangent characters take the first positions.
    tangent = {m for p in h4_points for m in p.tangent}
    assert len(tangent) == 280 and set(characters[:280]) == tangent
    # The key columns hold one character of each of the 140 pairs {x, -x}.
    keys = [LaurentMonomial(c) for c in zip(*compiled.key_columns)]
    negated = set(map(_negated, keys))
    assert len(keys) == len(negated) == 140 and negated.isdisjoint(keys)
    assert negated | set(keys) == tangent
    # The fiber columns hold the 115 other characters.
    fibers = [LaurentMonomial(c) for c in zip(*compiled.fiber_columns)]
    assert len(fibers) == 115 and fibers == characters[280:]
    for w in (DEFAULT_WEIGHTS, (1, 1, 1, 1, 1), (-3, 0, 7, 2, -9)):
        assert bott._specialize(compiled.key_columns, w) == [weight_of(m, w) for m in keys]
        assert bott._specialize(compiled.fiber_columns, w) == [weight_of(m, w) for m in fibers]
        assert bott._weights(compiled, w) == tuple(weight_of(m, w) for m in characters)
    assert bott_sum(h4_points, DEFAULT_WEIGHTS).value == Fraction(6028452)


def test_each_new_weight_vector_takes_255_dot_products(h4_points, monkeypatch):
    # 140 for the keys, which the usability test reads and the sum that
    # follows it with an equal vector reuses, and 115 for the fiber
    # characters.
    products = []
    specialize = bott._specialize

    def counted(columns, w):
        weights = specialize(columns, w)
        products.append(len(weights))
        return weights

    monkeypatch.setattr(bott, "_specialize", counted)
    vectors = [random_weight_search(seed, 1, 10_000, h4_points)[0] for seed in range(3)]
    products.clear()
    assert validate_weights(h4_points, vectors[0])
    assert bott_sum(h4_points, list(vectors[0])).value == 6028452
    assert products == [140, 115]
    products.clear()
    assert bott_sum(h4_points, vectors[1]).value == 6028452
    assert bott_sum(h4_points, vectors[1]).value == 6028452
    assert products == [140, 115, 115]
    products.clear()
    assert zero_weight_error(h4_points, vectors[2]) is None
    assert bott_sum(h4_points, vectors[2]).value == 6028452
    assert products == [140, 115]


def test_each_hyperplane_shares_its_three_directions(h4_points):
    # Every tangent in hyperplane i holds the directions x_j / x_i, which
    # the compiled form multiplies once per group.
    compiled = bott._compile(h4_points)
    characters = _characters_of(h4_points)
    linear = invariant_sections(4, 1)
    for i, group in enumerate(compiled.groups, start=1):
        assert {h4_points[k].hyperplane for k in group.indices} == {i}
        directions = {x / linear[i - 1] for x in linear if x != linear[i - 1]}
        assert set(group.shared(characters)) == directions
        assert {len(gather(characters)) for gather in group.tangents} == {10}


def _denominator_oracle(points, group, characters) -> Counter:
    """The keys of a group's rest tangent characters, a character and its
    negation merged into the lower of their positions, each key repeated by
    the largest multiplicity one point gives it."""
    position = {m: i for i, m in enumerate(characters)}

    def key(m):
        return min(position[m], position.get(LaurentMonomial(map(operator.neg, m)), position[m]))

    shared = Counter(group.shared(characters))
    most = Counter()
    for k in group.indices:
        rest = Counter(points[k].tangent) - shared
        most |= Counter(map(key, rest.elements()))
    return most


@pytest.mark.parametrize("which", ["h3", "h4"])
def test_denominator_holds_each_merged_key_at_its_largest_multiplicity(which, h3_points, h4_points):
    points = {"h3": h3_points, "h4": h4_points}[which]
    compiled = bott._compile(points)
    characters = _characters_of(points)
    assert len(compiled.groups) == {"h3": 1, "h4": 4}[which]
    for group in compiled.groups:
        expected = _denominator_oracle(points, group, characters)
        assert Counter(group.denominator(range(len(characters)))) == expected
        if which == "h4":
            # 72 factors: 45 keys once, 9 twice and 3 three times.
            assert expected.total() == 72
            assert sorted(Counter(expected.values()).items()) == [(1, 45), (2, 9), (3, 3)]


def _negation_points() -> list[FixedPoint]:
    """Three points of one hyperplane: one holds chi twice and -chi once,
    another -chi twice, and the third neither."""
    chi, negated, other = mono("x1*x2^-1"), mono("x2*x1^-1"), mono("x0^2*x3^-1*x4^-1")
    ideals = [MonomialIdeal([mono("x0^2"), mono(f"x{k}^2")]) for k in (1, 2, 3)]
    tangents = [(chi, chi, negated), (negated, negated), (other,)]
    fibers = [characters(("x3*x4^-1", 3)), characters(("x0^2*x1^-2", 2)), (chi,)]
    return [_synthetic_point(tangent, fiber)._replace(ideal=ideal, hyperplane=1)
            for tangent, fiber, ideal in zip(tangents, fibers, ideals)]


def test_a_character_and_its_negation_share_one_key():
    # The key of chi appears 3 times; the third point holds neither chi nor
    # -chi, so the group shares no direction.
    points = _negation_points()
    chi, other = points[0].tangent[0], points[2].tangent[0]
    (group,) = bott._compile(points).groups
    assert Counter(group.denominator(range(3))) == {0: 3, 2: 1}
    for w in (DEFAULT_WEIGHTS, (7, 3, -2, 5, 11), (-5, 8, 1, 9, 2)):
        assert validate_weights(points, w)
        result = bott_sum(points, w, keep_terms=True)
        assert (result.value, result.per_point_terms) == _oracle_bott_sum(points, w)
    w = (1, 2, 2, 3, 5)
    assert (weight_of(chi, w), weight_of(other, w)) == (0, -6)
    assert not validate_weights(points, w)
    with pytest.raises(ZeroDivisionError) as excinfo:
        bott_sum(points, w)
    assert str(excinfo.value) == zero_weight_error(points, w) is not None


#: Five 30-digit weights, the same with two of them negated, and the
#: weights of the command line example of mixed widths.
_WIDE = [
    (123456789012345678901234567890, 987654321098765432109876543210,
     314159265358979323846264338327, 271828182845904523536028747135,
     161803398874989484820458683436),
    (-123456789012345678901234567890, 987654321098765432109876543210,
     -314159265358979323846264338327, 271828182845904523536028747135,
     161803398874989484820458683436),
    (1000000000000000000000000000007, 3, 999999999999999999999, 123456789012345678901234567, 55),
]


@pytest.mark.parametrize("which", ["h4", "negation"])
def test_sum_is_exact_beyond_64_bits_and_with_negative_weights(which, h4_points):
    # Every weight, product and sum is a Python integer, so no fixed width
    # bounds them; (7, 3, -2, 5, 11) is usable on the synthetic points alone.
    points = {"h4": h4_points, "negation": _negation_points()}[which]
    vectors = _WIDE + ([] if which == "h4" else [(7, 3, -2, 5, 11)])
    for w in vectors:
        assert validate_weights(points, w)
        result = bott_sum(points, w, keep_terms=True)
        assert (result.value, result.per_point_terms) == _oracle_bott_sum(points, w)
    for w in _WIDE:
        assert max(map(abs, bott._weights(bott._compile(points), w))) > 2**64
    if which == "h4":
        assert {bott_sum(points, w).value for w in _WIDE} == {Fraction(6028452)}


def test_held_key_weights_are_never_stale(h4_points):
    # A sum reuses the key weights of the usability test before it only for
    # the same points and an equal vector.
    points = list(h4_points)
    w, w2 = (random_weight_search(seed, 1, 10_000, points)[0] for seed in (0, 1))
    # Another vector.
    assert validate_weights(points, w)
    assert bott_sum(points, w2).value == _oracle_bott_sum(points, w2)[0]
    # A list changed in place between the two calls, to a usable and to an unusable vector.
    vector = list(w)
    assert validate_weights(points, vector)
    vector[:] = w2
    assert bott_sum(points, vector).value == _oracle_bott_sum(points, w2)[0]
    assert validate_weights(points, vector)
    vector[:] = (1, 1, 1, 1, 1)
    with pytest.raises(ZeroDivisionError) as excinfo:
        bott_sum(points, vector)
    assert str(excinfo.value) == zero_weight_error(points, vector) is not None
    # A point replaced in place between the two calls, with a tangent
    # character that no other point holds, which moves the positions after it.
    novel = mono("x0^5*x1^-4*x2^-3*x3^-2*x4^-1")
    assert novel not in _characters_of(points) and weight_of(novel, w) != 0
    assert validate_weights(points, w)
    points[250] = _synthetic_point((novel, *characters(("x2*x3^-1", 2))), characters(("x2*x1^-1", 3)))
    assert bott_sum(points, w).value == _oracle_bott_sum(points, w)[0]
    # An empty vector just after a compile, when no vector is held yet.
    bott_sum(h4_points, w)
    with pytest.raises(ValueError, match="^characters have 5 coordinates but 0 weights are given$"):
        validate_weights(points, ())
    # A vector that the usability test rejects.
    w = (1, 1, 1, 1, 1)
    assert not validate_weights(points, w)
    with pytest.raises(ZeroDivisionError) as excinfo:
        bott_sum(points, w)
    assert str(excinfo.value) == zero_weight_error(points, w) is not None


def test_compiled_points_are_reused_only_for_the_same_points(h4_points):
    points = list(h4_points)
    bott_sum(points, DEFAULT_WEIGHTS)
    held = bott._held
    assert validate_weights(points, DEFAULT_WEIGHTS)
    bott_sum(list(points), DEFAULT_WEIGHTS)
    assert bott._held is held
    assert len(held.key_columns[0]) == 140
    assert len(held.fiber_columns[0]) == 115
    assert len(held.expand(range(395))) == 395

    # A point replaced in place, the length kept: zero at `w` only on the new character.
    w, _ = random_weight_search(0, 1, 10_000, points)
    character = LaurentMonomial((0, w[2], -w[1], 0, 0))
    assert weight_of(character, w) == 0 and weight_of(character, DEFAULT_WEIGHTS) != 0
    points[250] = _synthetic_point((character,) * 2, characters(("x2*x1^-1", 3)))
    result = bott_sum(points, DEFAULT_WEIGHTS, keep_terms=True)
    assert bott._held is not held
    assert (result.value, result.per_point_terms) == _oracle_bott_sum(points, DEFAULT_WEIGHTS)
    assert zero_weight_error(points, w) == _witness_message(w, (points[250], character))
    assert not validate_weights(points, w)


def test_bott_sum_weight_independent(h4_points):
    for seed in (11, 12, 13):
        weights, _ = random_weight_search(seed, 1, 10_000, h4_points)
        assert bott_sum(h4_points, weights).value == Fraction(6028452)
