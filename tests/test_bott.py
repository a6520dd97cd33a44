from __future__ import annotations

import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_monomial
from quartics import bott
from quartics.bott import (
    DEFAULT_WEIGHTS,
    MIN_RANGE_WIDTH,
    bott_sum,
    find_zero_weight,
    random_weight_search,
    validate_weights,
    weight_of,
)
from quartics.fixedpoints import FixedPoint, STAGE_GRASSMANNIAN, fixed_point_record
from quartics.repring import LaurentMonomial, MonomialIdeal, RepElement


def mono(text: str, nvars: int = 5) -> LaurentMonomial:
    return parse_monomial(text, nvars)


# ---------------------------------------------------------------------------
#  Weight specialization
# ---------------------------------------------------------------------------


def test_weight_of_examples():
    assert weight_of(mono("x2*x1^-1"), DEFAULT_WEIGHTS) == 13
    assert weight_of(mono("1"), DEFAULT_WEIGHTS) == 0
    assert weight_of(mono("x0^2*x1^-1*x2^-1"), DEFAULT_WEIGHTS) == 513


def test_weight_of_requires_one_weight_per_character():
    for nvars in (4, 6):
        with pytest.raises(ValueError):
            weight_of(mono("x2*x1^-1", nvars), DEFAULT_WEIGHTS)


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
    assert verdicts == [find_zero_weight(h4_points, w) is None for w in vectors]
    assert verdicts[:3] == [True, False, False]
    assert verdicts.count(False) > len(vectors) // 2


def _walk_for_zero_weight(points, w):
    """The witness search over `tangent.items()` rather than the cached characters."""
    for point in points:
        for monomial, _ in point.tangent.items():
            if weight_of(monomial, w) == 0:
                return point, monomial
    return None


def test_find_zero_weight_matches_the_walk(h4_points):
    rng = random.Random(3)
    vectors = [DEFAULT_WEIGHTS, (0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (3, 1, 4, 1, 5)]
    vectors += [tuple(rng.randint(1, 11) for _ in range(5)) for _ in range(50)]
    witnesses = [find_zero_weight(h4_points, w) for w in vectors]
    assert witnesses == [_walk_for_zero_weight(h4_points, w) for w in vectors]
    assert witnesses[0] is None
    assert all(witness is not None for witness in witnesses[1:4])
    # The CLI's error message names these two witnesses.
    assert [(p.label, str(m)) for p, m in witnesses[2:4]] == [
        ("h1:grassmannian:(x0^2, x1, x2^2)", "x2^-1*x3"),
        ("h1:grassmannian:(x0^2, x1, x2^2)", "x1^-1*x3"),
    ]


def test_find_zero_weight_names_the_witness(h4_points):
    point, monomial = find_zero_weight(h4_points, (1, 1, 1, 1, 1))
    assert monomial in point.tangent
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


def test_random_weight_search_range_too_small(h4_points):
    for hi in (4, MIN_RANGE_WIDTH - 1):
        with pytest.raises(ValueError):
            random_weight_search(0, 1, hi, h4_points)


def test_random_weight_search_exhaustion(h4_points, monkeypatch):
    # In [1, 11] only 48 of 55440 ordered vectors are usable; seed 0 draws
    # none of them in its first ten attempts.
    monkeypatch.setattr(bott, "ATTEMPT_BUDGET", 10)
    with pytest.raises(bott.WeightSearchExhausted, match="within 10 attempts") as excinfo:
        random_weight_search(0, 1, MIN_RANGE_WIDTH, h4_points)
    assert (excinfo.value.lo, excinfo.value.hi) == (1, MIN_RANGE_WIDTH)


def test_min_range_width_is_the_narrowest_usable_range(h4_points):
    characters = {tuple(m) for p in h4_points for m, _ in p.tangent.items()}
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


# ---------------------------------------------------------------------------
#  The localization sum
# ---------------------------------------------------------------------------


def _synthetic_point(tangent: RepElement, fiber: RepElement | None = None) -> FixedPoint:
    return FixedPoint(
        stage=STAGE_GRASSMANNIAN,
        ideal=MonomialIdeal([mono("x0^2"), mono("x1^2")]),
        tangent=tangent,
        fiber=tangent if fiber is None else fiber,
    )


def test_bott_sum_fiber_equals_tangent():
    rep = RepElement([(mono("x2*x1^-1"), 2), (mono("x0^2*x3^-1*x4^-1"), 1)])
    result = bott_sum([_synthetic_point(rep)], DEFAULT_WEIGHTS)
    assert result.value == Fraction(1)


def test_bott_sum_zero_denominator_raises():
    point = _synthetic_point(RepElement([(mono("x2*x1^-1"), 1)]))
    with pytest.raises(ZeroDivisionError, match=re.escape(point.label)):
        bott_sum([point], (1, 1, 1, 1, 1))


def test_bott_sum_rejects_negative_multiplicity():
    rep = RepElement([(mono("x2*x1^-1"), 2), (mono("x0^2*x3^-1*x4^-1"), -1)])
    with pytest.raises(ValueError, match="negative multiplicity"):
        bott_sum([_synthetic_point(rep)], DEFAULT_WEIGHTS)


def _numerator(fiber: RepElement, w) -> Fraction:
    """The Bott sum of one point with an empty tangent: its fiber weight product."""
    return bott_sum([_synthetic_point(RepElement(), fiber)], w).value


def test_prod_weights_examples():
    squared = RepElement([(mono("x2*x1^-1"), 2)])
    assert _numerator(squared, DEFAULT_WEIGHTS) == 169
    assert _numerator(RepElement(), DEFAULT_WEIGHTS) == 1
    with_trivial = RepElement([(mono("1"), 1), (mono("x2"), 1)])
    assert _numerator(with_trivial, DEFAULT_WEIGHTS) == 0


def test_prod_weights_rejects_negative_multiplicity():
    with pytest.raises(ValueError, match="negative multiplicity"):
        _numerator(RepElement([(mono("x2"), -1)]), DEFAULT_WEIGHTS)


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
    r1 = RepElement((LaurentMonomial(e), k) for e, k in terms1)
    r2 = RepElement((LaurentMonomial(e), k) for e, k in terms2)
    w = (7, 3, -2, 5, 11)
    assert _numerator(r1 + r2, w) == _numerator(r1, w) * _numerator(r2, w)


def _oracle_bott_sum(points, w):
    """The sum as one `Fraction` per point, weights raised to their multiplicities,
    added one by one."""

    def product(r: RepElement) -> int:
        return math.prod(weight_of(m, w) ** k for m, k in r.items())

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


def test_bott_sum_headline_value(h4_points):
    result = bott_sum(h4_points, DEFAULT_WEIGHTS)
    assert result.value == Fraction(6028452)
    assert result.per_point_terms is None


def test_bott_sum_keeps_terms_when_asked(h4_points):
    result = bott_sum(h4_points, DEFAULT_WEIGHTS, keep_terms=True)
    assert len(result.per_point_terms) == 504
    assert sum(term for _, term in result.per_point_terms) == result.value


def test_bott_sum_is_summation_order_invariant(h4_points):
    shuffled = list(h4_points)
    random.Random(7).shuffle(shuffled)
    assert bott_sum(shuffled, DEFAULT_WEIGHTS).value == Fraction(6028452)


def test_bott_sum_weight_independent(h4_points):
    for seed in (11, 12, 13):
        weights, _ = random_weight_search(seed, 1, 10_000, h4_points)
        assert bott_sum(h4_points, weights).value == Fraction(6028452)


# ---------------------------------------------------------------------------
#  The characters each point caches for the sum
# ---------------------------------------------------------------------------


def test_cached_characters_repeat_each_term_by_its_multiplicity(h4_points):
    for point in h4_points:
        assert Counter(point.fiber_characters) == dict(point.fiber.items())
        assert Counter(point.tangent_characters) == dict(point.tangent.items())
        assert list(point.tangent_characters) == sorted(point.tangent_characters, reverse=True)


def test_cached_characters_are_not_part_of_the_point(h4_points):
    names = list(FixedPoint._fields)
    assert names == ["stage", "ideal", "tangent", "fiber", "hyperplane"]
    for point in h4_points[::50]:
        fresh = FixedPoint(point.stage, point.ideal, point.tangent, point.fiber, point.hyperplane)
        compiled = (point.fiber_characters, point.tangent_characters)
        assert "tangent_characters" not in vars(fresh)
        assert (fresh, hash(fresh), repr(fresh)) == (point, hash(point), repr(point))
        assert fixed_point_record(fresh) == fixed_point_record(point)
        assert (fresh.fiber_characters, fresh.tangent_characters) == compiled
    assert list(FixedPoint._fields) == names
