from __future__ import annotations

import operator
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HAND_IDEALS, parse_monomial, remap
from quartics import repring
from quartics.fixedpoints import _characters, _difference
from quartics.repring import (
    LaurentMonomial,
    MonomialIdeal,
    ideal_twist,
    invariant_sections,
)


def mono(text: str, nvars: int = 4) -> LaurentMonomial:
    return parse_monomial(text, nvars)


def rep(*texts: str) -> Counter[LaurentMonomial]:
    return Counter(map(mono, texts))


def ideal(*texts: str) -> MonomialIdeal:
    return MonomialIdeal(map(mono, texts))


# ---------------------------------------------------------------------------
#  LaurentMonomial basics
# ---------------------------------------------------------------------------


def test_render_and_parse_round_trip():
    # Canonical rendering lists factors in character-index order.
    for text in ["1", "x0^2*x1^-1", "x1*x2*x3", "x2^3", "x0^2*x1^-1*x2*x3^-2"]:
        m = mono(text)
        assert str(m) == text
        assert parse_monomial(str(m), 4) == m
    # Parsing accepts factors in any order.
    assert mono("x2*x1^-1") == mono("x1^-1*x2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_monomial("x0^2*y1", 4)
    with pytest.raises(ValueError):
        parse_monomial("x7", 4)
    # Non-integer exponents raise instead of truncating.
    for exps in [(1.5, 0, -1, 0), ("2", 0, 0, 0)]:
        with pytest.raises(TypeError):
            LaurentMonomial(exps)


def test_monomial_arithmetic():
    a, b = mono("x1*x2"), mono("x1*x3")
    assert a * b == mono("x1^2*x2*x3")
    assert a / b == mono("x2*x3^-1")
    assert (a / b).degree == 0
    assert a.lcm(b) == mono("x1*x2*x3")
    assert a.gcd(b) == mono("x1")
    assert mono("x1").divides(a)
    assert not a.divides(b)


def test_monomial_is_its_exponent_tuple():
    m = mono("x0^2*x1^-1")
    assert m == (2, -1, 0, 0) == tuple(m)
    assert hash(m) == hash(tuple(m))
    for name in ("exps", "degree", "x"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)


def test_ideal_is_its_generator_tuple():
    gens = [mono("x1*x3"), mono("x1^2*x2"), mono("x1*x2")]
    I = MonomialIdeal(gens)
    assert I == MonomialIdeal(reversed(gens)) == _pairwise_reduction(gens)
    assert I == (mono("x1*x2"), mono("x1*x3"))
    assert hash(I) == hash(tuple(I))
    for name in ("generators", "nvars", "x"):
        with pytest.raises(AttributeError):
            setattr(I, name, ())
    # `in` asks for a generator, `contains` for a member of the ideal.
    assert mono("x1*x2") in I
    assert mono("x1^2*x2") not in I
    assert I.contains(mono("x1^2*x2"))
    # An ideal has at least one generator, which fixes its ring.
    with pytest.raises(ValueError, match="empty ideal"):
        MonomialIdeal([])


def test_monomial_queries():
    assert mono("1").is_trivial()
    assert mono("x0^2*x1").is_regular()
    assert not mono("x2*x1^-1").is_regular()
    assert mono("x0^2*x3").is_invariant()
    assert not mono("x0*x3").is_invariant()
    assert mono("x0^-2*x2^2").is_invariant()


def test_mixed_ring_sizes_error():
    # Every binary operation names both lengths, its own first.
    for op in (operator.mul, operator.truediv, LaurentMonomial.divides,
               LaurentMonomial.lcm, LaurentMonomial.gcd):
        with pytest.raises(ValueError, match=r"^mismatched character count: 4 vs 5$"):
            op(mono("x1", 4), mono("x1", 5))
        with pytest.raises(ValueError, match=r"^mismatched character count: 5 vs 4$"):
            op(mono("x1", 5), mono("x1", 4))
    with pytest.raises(ValueError, match=r"^mismatched character counts: \[4, 5\]$"):
        MonomialIdeal([mono("x1", 4), mono("x2", 5)])
    for small, large in ((4, 5), (5, 4)):
        with pytest.raises(ValueError, match=rf"^mismatched character count: {small} vs {large}$"):
            MonomialIdeal([mono("x1", small)]).contains(mono("x1", large))


# ---------------------------------------------------------------------------
#  Representations: Counters of characters
# ---------------------------------------------------------------------------


def test_rep_add_collects_multiplicities():
    a = rep("x1*x2^-1")
    assert _characters(a + a) == (mono("x1*x2^-1"),) * 2
    assert (a + a).total() == 2


def test_rep_from_a_dict_drops_zero_multiplicities():
    assert _characters(Counter({mono("x1*x2^-1"): 2, mono("x3"): 0})) == (mono("x1*x2^-1"),) * 2


def test_rep_from_monomials_counts_repeats():
    assert _characters(rep("x1", "x2", "x1")) == (mono("x1"), mono("x1"), mono("x2"))


def test_rep_add_cancellation():
    a, b = rep("x1*x2^-1"), rep("x3*x2^-1", "x1*x2^-1")
    assert _difference(a, a) == Counter()
    assert _difference(a + b, b) == a


def test_rep_canonical_term_order():
    characters = _characters(Counter(reversed(invariant_sections(3, 2))))
    assert [str(m) for m in characters] == [
        "x0^2", "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2",
    ]


# ---------------------------------------------------------------------------
#  Invariant sections
# ---------------------------------------------------------------------------


def test_invariant_sections_degree_one():
    assert [str(m) for m in invariant_sections(3, 1)] == ["x1", "x2", "x3"]


def test_invariant_sections_quadrics():
    assert len(invariant_sections(3, 2)) == 7


def test_invariant_sections_sextics():
    # 28 + 15 + 6 + 1 monomials with x0-exponent 0, 2, 4, 6.
    assert len(invariant_sections(3, 6)) == 50
    assert len(invariant_sections(4, 6)) == 130


def test_invariant_sections_against_brute_force():
    for n, m in product(range(1, 5), range(9)):
        expected = {
            exps
            for exps in product(range(m + 1), repeat=n + 1)
            if sum(exps) == m and exps[0] % 2 == 0
        }
        computed = {tuple(mm) for mm in invariant_sections(n, m)}
        assert computed == expected, (n, m)


def test_invariant_sections_all_multiplicity_one():
    for m in range(7):
        sections = invariant_sections(4, m)
        assert len(set(sections)) == len(sections)


def test_invariant_sections_strictly_descending():
    # `assemble_h4` numbers the hyperplanes {x_i = 0} by position in V[1],
    # and `grassmann_tangent` lifts the tuple with multiplicity one, so the
    # order must be the canonical one, with no section twice.
    for n, m in product((3, 4), range(7)):
        sections = invariant_sections(n, m)
        assert all(a > b for a, b in zip(sections, sections[1:])), (n, m)


# ---------------------------------------------------------------------------
#  Monomial ideals and twists
# ---------------------------------------------------------------------------


def test_ideal_reduction_and_ordering():
    I = ideal("x1*x2", "x1^2*x2", "x1*x3")
    assert [str(g) for g in I] == ["x1*x2", "x1*x3"]


def _pairwise_reduction(gens):
    """Oracle for the generator tuple of a `MonomialIdeal`: drop every
    generator that a different one divides, then sort descending."""
    distinct = set(gens)
    return tuple(sorted(
        (g for g in distinct if not any(h != g and h.divides(g) for h in distinct)),
        reverse=True,
    ))


#: Invariant monomials of degree at most 3: small enough that random lists
#: repeat generators, hold equal-degree pairs and have divisibilities.
SMALL_INVARIANT = [m for d in range(4) for m in invariant_sections(3, d)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SMALL_INVARIANT), min_size=1, max_size=7), st.data())
def test_ideal_reduction_matches_pairwise_divisibility(gens, data):
    # One generator is listed twice, and one of equal degree to it joins.
    first = gens[0]
    twin = data.draw(st.sampled_from(invariant_sections(3, first.degree)))
    gens = [*gens, first, twin]
    assert MonomialIdeal(gens) == _pairwise_reduction(gens)
    assert MonomialIdeal(reversed(gens)) == _pairwise_reduction(gens)


def test_ideal_rejects_negative_and_noninvariant():
    with pytest.raises(ValueError):
        MonomialIdeal([mono("x2*x1^-1")])
    with pytest.raises(ValueError):
        ideal("x0*x1")


def test_ideal_membership_and_common_factor():
    I = ideal("x1*x2", "x1*x3")
    assert I.contains(mono("x1^2*x2"))
    assert not I.contains(mono("x1^2"))
    assert I.has_common_factor()
    assert ideal("x0^2*x1", "x0^2*x2").has_common_factor()
    assert not ideal("x0^2", "x1^2").has_common_factor()
    # Pairwise common factors are not enough: the gcd runs over all generators.
    assert not ideal("x1*x2", "x1*x3", "x2*x3").has_common_factor()


def test_ideal_twist_deduplicates():
    twist = ideal_twist(ideal("x1*x2", "x1*x3"), 3)
    assert {str(m) for m in twist} == {
        "x1^2*x2", "x1*x2^2", "x1*x2*x3", "x1^2*x3", "x1*x3^2",
    }
    assert len(twist) == 5


def test_ideal_twist_single_generator():
    assert [str(m) for m in ideal_twist(ideal("x0^2"), 2)] == ["x0^2"]


def test_ideal_twist_monotone():
    multipliers = invariant_sections(3, 1)
    for ideal in HAND_IDEALS:
        for k in range(2, 7):
            grown = {m * x for m in ideal_twist(ideal, k) for x in multipliers}
            assert grown <= ideal_twist(ideal, k + 1)


def test_ideal_twist_rejects_bad_input():
    # An empty ideal has no ring, so it cannot be built, and no slice has
    # negative degree, where a bare union of the sets of multiples would be
    # empty.
    with pytest.raises(ValueError):
        ideal_twist(MonomialIdeal([]), 6)
    with pytest.raises(ValueError):
        ideal_twist(ideal("x1*x2", "x1*x3"), -1)


def _scan_twist(I: MonomialIdeal, k: int) -> frozenset[LaurentMonomial]:
    """Oracle for `ideal_twist`: every invariant degree-k section in I."""
    return frozenset(m for m in invariant_sections(I.nvars - 1, k) if I.contains(m))


def test_ideal_twist_matches_scan(h3_points, h4_points):
    for p in [*h3_points, *h4_points]:
        assert ideal_twist(p.ideal, 6) == _scan_twist(p.ideal, 6), p.ideal
    # Start from an empty cache and alternate rings and degrees, so that a
    # set of multiples cached for one of them would be served to the next
    # if the key missed the character count or the degree.  Degrees 0 and
    # 1 lie below some generators, whose sets must then be empty.
    # Each hand ideal is also carried into the five-character ring, with
    # x1, x2, x3 landing on three of x1..x4 in some order.
    perms = ((0, 2, 3, 4), (0, 3, 4, 1), (0, 4, 1, 2), (0, 1, 2, 3))
    repring._multiples.cache_clear()
    repring._section_bits.cache_clear()
    for k in range(8):
        for ideal in HAND_IDEALS:
            for I in [ideal, *(MonomialIdeal(remap(g, perm, 5) for g in ideal) for perm in perms)]:
                assert ideal_twist(I, k) == _scan_twist(I, k), (I, k)


def test_slice_is_a_set_of_the_section_objects(h3_points, h4_points):
    # Against the scanned frozenset: the order of iteration, len, ==, <= and
    # >= both ways, and the mixin operators, which return frozensets.
    for I, k in [*((p.ideal, 6) for p in [*h3_points[::9], *h4_points[::37]]),
                 *((I, k) for I in HAND_IDEALS for k in range(5))]:
        twist, scan = ideal_twist(I, k), _scan_twist(I, k)
        sections = invariant_sections(I.nvars - 1, k)
        assert list(twist) == [m for m in sections if m in scan], (I, k)
        assert all(a is b for a, b in zip(twist, (m for m in sections if m in scan)))
        assert len(twist) == len(scan) == twist.mask.bit_count()
        assert twist == scan and scan == twist and not twist != scan
        assert twist <= scan <= twist and twist >= scan >= twist
        assert set(twist) - {sections[0]} <= twist
        assert twist - scan == frozenset() and twist | scan == scan
        assert tuple(twist.complement()) == tuple(m for m in sections if m not in scan)
        assert twist.complement() == frozenset(sections) - scan
    # A degree below every generator gives the empty slice.
    empty = ideal_twist(ideal("x1^2", "x1*x2", "x0^2*x2"), 1)
    assert (len(empty), list(empty), empty == frozenset()) == (0, [], True)
    assert tuple(empty.complement()) == invariant_sections(3, 1)


def test_slice_holds_no_monomial_outside_its_space():
    I = ideal("x1*x2", "x1*x3")
    twist = ideal_twist(I, 3)
    assert mono("x1^2*x2") in twist and (0, 2, 1, 0) in twist
    outside = [
        mono("x2^3"),                         # a section of V[3] outside I
        mono("x0*x1*x2"),                     # in I, but not Gamma-invariant
        mono("x1*x2"),                        # in I, of degree 2
        mono("x1^2*x2*x3"),                   # in I, of degree 4
        remap(mono("x1^2*x2"), (0, 1, 2, 3), 5),  # in the slice's image, in five characters
        mono("x1^3*x2^-1"),                   # degree 3, not regular
    ]
    for m in outside:
        assert m not in twist, m
    assert None not in twist and "x1^2*x2" not in twist
    assert twist == _scan_twist(I, 3) != frozenset(outside)


# ---------------------------------------------------------------------------
#  Representation properties on random inputs
# ---------------------------------------------------------------------------

monomials = st.builds(
    LaurentMonomial,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
reps = st.dictionaries(monomials, st.integers(min_value=0, max_value=3), max_size=4).map(Counter)


@settings(max_examples=60, deadline=None)
@given(reps, reps)
def test_ring_operations_match_a_dict_model(a, b):
    # + and the guarded difference against sums over plain dicts.
    total = {m: a[m] + b[m] for m in a.keys() | b.keys() if a[m] + b[m]}
    assert dict(a + b) == total
    assert dict(_difference(a + b, b)) == {m: k for m, k in a.items() if k}


@settings(max_examples=60, deadline=None)
@given(reps, reps)
def test_add_preserves_dimension(a, b):
    assert (a + b).total() == a.total() + b.total()


@settings(max_examples=60, deadline=None)
@given(reps)
def test_support_is_the_reversed_tuple_order(a):
    # The canonical order is descending lexicographic on plain exponent
    # tuples, each character repeated by its multiplicity.
    characters = _characters(a)
    assert list(characters) == sorted(characters, key=tuple, reverse=True)
    assert Counter(characters) == a
