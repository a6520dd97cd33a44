from __future__ import annotations

import operator
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_monomial
from quartics import repring
from quartics.fixedpoints import PERM_H
from quartics.repring import (
    LaurentMonomial,
    MonomialIdeal,
    RepElement,
    ideal_twist,
    invariant_sections,
)


def mono(text: str, nvars: int = 4) -> LaurentMonomial:
    return parse_monomial(text, nvars)


def rep(*texts: str, nvars: int = 4) -> RepElement:
    return RepElement.from_monomials(mono(t, nvars) for t in texts)


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
    # Non-integer exponents and multiplicities raise instead of truncating.
    for exps in [(1.5, 0, -1, 0), ("2", 0, 0, 0)]:
        with pytest.raises(TypeError):
            LaurentMonomial(exps)
    with pytest.raises(TypeError):
        RepElement([(mono("x1*x2^-1"), 1.5)])
    with pytest.raises(TypeError):
        RepElement({mono("x1*x2^-1"): 1.5})


def test_monomial_arithmetic():
    a, b = mono("x1*x2"), mono("x1*x3")
    assert a * b == mono("x1^2*x2*x3")
    assert a / b == mono("x2*x3^-1")
    assert (a / b).degree == 0
    assert a.lcm(b) == mono("x1*x2*x3")
    assert a.gcd(b) == mono("x1")
    assert mono("x1").divides(a)
    assert not a.divides(b)
    assert rep("x0^2*x1^-1").dual() == rep("x0^-2*x1")


def test_monomial_is_its_exponent_tuple():
    m = mono("x0^2*x1^-1")
    assert m == (2, -1, 0, 0) == tuple(m)
    assert hash(m) == hash(tuple(m))
    for name in ("exps", "degree", "x"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)


def test_monomial_queries():
    assert mono("1").is_trivial()
    assert mono("x0^2*x1").is_regular()
    assert not mono("x2*x1^-1").is_regular()
    assert mono("x0^2*x3").is_invariant()
    assert not mono("x0*x3").is_invariant()
    assert mono("x0^-2*x2^2").is_invariant()


def test_mixed_ring_sizes_error():
    for op in (operator.mul, operator.truediv, LaurentMonomial.divides,
               LaurentMonomial.lcm, LaurentMonomial.gcd):
        with pytest.raises(ValueError):
            op(mono("x1", 4), mono("x1", 5))
        with pytest.raises(ValueError):
            op(mono("x1", 5), mono("x1", 4))
    with pytest.raises(ValueError):
        rep("x1", nvars=4) + rep("x1", nvars=5)
    with pytest.raises(ValueError):
        rep("x1", nvars=4) * rep("x1", nvars=5)
    with pytest.raises(ValueError):
        rep("x1", nvars=4) - rep("x1", nvars=5)
    # A zero multiplicity does not hide a term of the wrong ring, given as
    # pairs or as a dict.
    with pytest.raises(ValueError):
        RepElement([(mono("x1", 4), 1), (mono("x1", 5), 0)])
    with pytest.raises(ValueError):
        RepElement({mono("x1", 4): 1, mono("x1", 5): 0})
    with pytest.raises(ValueError):
        MonomialIdeal([mono("x1", 4), mono("x2", 5)])


# ---------------------------------------------------------------------------
#  RepElement arithmetic
# ---------------------------------------------------------------------------


def test_rep_add_collects_multiplicities():
    a = rep("x1*x2^-1")
    assert dict((a + a).items()) == {mono("x1*x2^-1"): 2}
    assert (a + a).dimension == 2


def test_rep_from_a_dict_drops_zero_multiplicities():
    a = RepElement({mono("x1*x2^-1"): 2, mono("x3"): 0})
    assert a.items() == [(mono("x1*x2^-1"), 2)]
    assert mono("x3") not in a and len(a) == 1
    assert a == RepElement({mono("x1*x2^-1"): 2})


def test_rep_from_monomials_counts_repeats():
    assert RepElement.from_monomials([mono("x1"), mono("x2"), mono("x1")]).items() == [
        (mono("x1"), 2),
        (mono("x2"), 1),
    ]


def test_rep_add_cancellation():
    a = rep("x1*x2^-1")
    assert a + RepElement({mono("x1*x2^-1"): -1}) == RepElement()
    assert rep("x1") - rep("x1") == RepElement()


def test_rep_mul_distributes():
    left = rep("x1", "x2")
    right = rep("x0^-2")
    assert left * right == rep("x1*x0^-2", "x2*x0^-2")


def test_rep_dual_examples():
    assert rep("x1*x2").dual() == rep("x1^-1*x2^-1")
    a = rep("x1*x2", "x1*x3")
    assert a.dual() == rep("x1^-1*x2^-1", "x1^-1*x3^-1")
    assert a.dual().dual() == a


def test_grassmannian_tangent_dimension():
    # Hom(I, V[2]/I) at the pair (x0^2, x1^2): 5 residual quadrics times
    # 2 dual generators.
    ideal = rep("x0^2", "x1^2")
    tangent = (RepElement.from_monomials(invariant_sections(3, 2)) - ideal) * ideal.dual()
    assert tangent.dimension == 10
    assert len(tangent) == 10


def test_rep_rendering():
    r = RepElement([(mono("x3*x1^-1"), 2), (mono("x2*x1^-1"), 1)])
    assert str(r) == "x1^-1*x2 + 2*x1^-1*x3"
    assert str(RepElement()) == "0"
    assert str(rep("x1") - rep("x0^2")) == "-x0^2 + x1"


def test_rep_canonical_term_order():
    support = RepElement.from_monomials(reversed(invariant_sections(3, 2))).support()
    assert [str(m) for m in support] == [
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
    assert [str(g) for g in I.generators] == ["x1*x2", "x1*x3"]


def _pairwise_reduction(gens):
    """Oracle for `MonomialIdeal.generators`: drop every generator that a
    different one divides, then sort descending."""
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
    assert MonomialIdeal(gens).generators == _pairwise_reduction(gens)
    assert MonomialIdeal(reversed(gens)).generators == _pairwise_reduction(gens)


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


def test_ideal_twist_holds_the_section_objects(h4_points):
    # The slices share V[6]'s own objects, so unions and differences of
    # them match members by identity.
    for n in (3, 4):
        ids = set(map(id, invariant_sections(n, 6)))
        for I in [*HAND_IDEALS, *(p.ideal for p in h4_points[::40])]:
            if I.nvars == n + 1:
                assert set(map(id, ideal_twist(I, 6))) <= ids, I


def test_ideal_twist_single_generator():
    assert [str(m) for m in ideal_twist(ideal("x0^2"), 2)] == ["x0^2"]


HAND_IDEALS = [
    ideal("x1*x2", "x1*x3"),
    ideal("x0^2", "x1^2"),
    ideal("x1^2", "x1*x2", "x0^2*x2"),
]


def test_ideal_twist_monotone():
    multipliers = invariant_sections(3, 1)
    for ideal in HAND_IDEALS:
        for k in range(2, 7):
            grown = {m * x for m in ideal_twist(ideal, k) for x in multipliers}
            assert grown <= ideal_twist(ideal, k + 1)


def test_ideal_twist_rejects_bad_input():
    # An empty ideal has no ring, and no slice has negative degree; a bare
    # union of the sets of multiples would be empty in both cases.
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
    repring._multiples.cache_clear()
    for k in range(8):
        for ideal in HAND_IDEALS:
            for I in [ideal, *(MonomialIdeal(g.remap(perm, 5) for g in ideal.generators) for perm in PERM_H.values())]:
                assert ideal_twist(I, k) == _scan_twist(I, k), (I, k)


# ---------------------------------------------------------------------------
#  Algebraic properties on random inputs
# ---------------------------------------------------------------------------

monomials = st.builds(
    LaurentMonomial,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
reps = st.builds(
    RepElement,
    st.lists(
        st.tuples(monomials, st.integers(min_value=-3, max_value=3)),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(reps, reps)
def test_rep_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(reps, reps, reps)
def test_rep_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(reps, reps, reps)
def test_rep_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(reps, reps)
def test_dual_is_multiplicative_involution(a, b):
    assert (a * b).dual() == a.dual() * b.dual()
    assert a.dual().dual() == a


@settings(max_examples=60, deadline=None)
@given(reps, reps)
def test_ring_operations_match_a_dict_model(a, b):
    # +, - and * against sums and a convolution over plain dicts.
    def model(pairs):
        acc = {}
        for m, k in pairs:
            acc[m] = acc.get(m, 0) + k
        return {m: k for m, k in acc.items() if k}

    x, y = a.items(), b.items()
    expected = {
        "+": model(x + y),
        "-": model(x + [(m, -k) for m, k in y]),
        "*": model((m1 * m2, k1 * k2) for m1, k1 in x for m2, k2 in y),
    }
    for op, result in (("+", a + b), ("-", a - b), ("*", a * b)):
        terms = dict(result.items())
        assert terms == expected[op], op
        assert 0 not in terms.values(), op
        assert len(result) == len(terms), op


@settings(max_examples=60, deadline=None)
@given(reps, reps)
def test_add_preserves_dimension(a, b):
    assert (a + b).dimension == a.dimension + b.dimension


@settings(max_examples=60, deadline=None)
@given(reps)
def test_support_is_the_reversed_tuple_order(a):
    # The canonical order is descending lexicographic on plain exponent tuples.
    terms = dict(a.items())
    assert a.support() == sorted(terms, key=tuple, reverse=True)
    assert [m for m, _ in a.items()] == a.support()
