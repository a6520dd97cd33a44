"""Characters of a diagonal torus, monomial ideals and invariant sections.

A diagonal torus T = (C*)^(n+1) acts on homogeneous coordinates x0..xn.
Its characters are Laurent monomials in the coordinate characters
lambda_0..lambda_n; a character is its integer exponent vector
(`LaurentMonomial`, a tuple of exponents).  A finite-dimensional
T-representation splits into one-dimensional character spaces, so it is
a multiset of characters: a `collections.Counter` of Laurent monomials.
Sums are Counter `+`.  Only a difference can go negative: the normal
spaces taken out of ambient tangent spaces go through one guard in
`fixedpoints` that rejects a negative multiplicity, which Counter `-`
would silently drop.

The ambient geometry is the weighted projective space P(2,1,...,1),
realized as the quotient of ordinary projective n-space by the order-two
group Gamma that negates x0.  Sections of O(m) on the quotient correspond
to degree-m monomials with even x0-exponent (Gamma-invariant monomials,
as tested by `LaurentMonomial.is_invariant`); `invariant_sections` gives
the space V[m] they span as its tuple of monomials in canonical order.

Torus-fixed curves have monomial graded ideals; a monomial ideal
(`MonomialIdeal`) is the tuple of its reduced generators.  The degree-k
slice of such an ideal, the set of sections of V[k] lying in it, is
`ideal_twist`: the union of the sections each generator divides, which
are the generator times the sections of the complementary degree.  Those
sets hold the very objects of `invariant_sections`, so set operations on
slices and sections match keys by identity and stored hash, comparing no
tuples.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce
from itertools import filterfalse


class LaurentMonomial(tuple):
    """A Laurent monomial in the characters lambda_0..lambda_n.

    The monomial is its integer exponent vector, a tuple: equality,
    hashing and immutability are the tuple's own, and the canonical
    (descending lexicographic) order of terms is the tuple order reversed.
    The length is the number of characters of the ambient torus, and
    mixing lengths in arithmetic is an error.

    >>> m = LaurentMonomial((2, -1, 0, 0))
    >>> str(m)
    'x0^2*x1^-1'
    >>> m * LaurentMonomial((0, 1, 0, 0))
    LaurentMonomial('x0^2')
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[int]) -> "LaurentMonomial":
        return super().__new__(cls, map(operator.index, exps))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree (sum of exponents; may be negative or zero)."""
        return sum(self)

    def is_regular(self) -> bool:
        """True when all exponents are >= 0 (an ordinary monomial)."""
        return min(self) >= 0

    def is_trivial(self) -> bool:
        """True for the trivial character (all exponents zero)."""
        return not any(self)

    def is_invariant(self) -> bool:
        """True when the monomial is fixed by Gamma: its x0-exponent is even."""
        return self[0] % 2 == 0

    # -- arithmetic ----------------------------------------------------

    def _require_same_ring(self, other: "LaurentMonomial") -> None:
        if len(self) != len(other):
            raise ValueError(
                f"mismatched character count: {len(self)} vs {len(other)}"
            )

    # A product, quotient, lcm or gcd of two monomials has integer exponents
    # already, so it builds its tuple without the conversion in __new__.
    # Each operation tests the lengths inline and calls the guard only to raise.

    def __mul__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        if len(self) != len(other):
            self._require_same_ring(other)
        return tuple.__new__(LaurentMonomial, map(operator.add, self, other))

    def __truediv__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        if len(self) != len(other):
            self._require_same_ring(other)
        return tuple.__new__(LaurentMonomial, map(operator.sub, self, other))

    def divides(self, other: "LaurentMonomial") -> bool:
        """True when other/self has no negative exponent."""
        if len(self) != len(other):
            self._require_same_ring(other)
        return all(map(operator.le, self, other))

    def lcm(self, other: "LaurentMonomial") -> "LaurentMonomial":
        if len(self) != len(other):
            self._require_same_ring(other)
        return tuple.__new__(LaurentMonomial, map(max, self, other))

    def gcd(self, other: "LaurentMonomial") -> "LaurentMonomial":
        if len(self) != len(other):
            self._require_same_ring(other)
        return tuple.__new__(LaurentMonomial, map(min, self, other))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        factors = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(self)
            if e
        ]
        return "*".join(factors) if factors else "1"

    def __repr__(self) -> str:
        return f"LaurentMonomial('{self}')"


class MonomialIdeal(tuple):
    """A monomial ideal, the tuple of its reduced generators.

    Generators are ordinary (nonnegative-exponent) monomials; the
    constructor drops any generator divisible by another, so no generator
    divides a different one, and keeps the rest in canonical order.
    Equality, hashing and immutability are the tuple's own: `g in I` asks
    whether g is a generator, `I.contains(m)` whether m lies in the ideal.
    Ideals of Gamma-fixed curves have all generators Gamma-invariant;
    this is checked.

    >>> I = MonomialIdeal([LaurentMonomial((0, 1, 1, 0)), LaurentMonomial((0, 1, 0, 1))])
    >>> str(I)
    '(x1*x2, x1*x3)'
    >>> I.contains(LaurentMonomial((0, 2, 1, 0)))
    True
    """

    __slots__ = ()

    def __new__(cls, generators: Iterable[LaurentMonomial]) -> "MonomialIdeal":
        gens = list(dict.fromkeys(generators))
        if not gens:
            raise ValueError("empty ideal has no ring context")
        counts = set(map(len, gens))
        if len(counts) > 1:
            raise ValueError(f"mismatched character counts: {sorted(counts)}")
        if (bad := next(filterfalse(LaurentMonomial.is_regular, gens), None)) is not None:
            raise ValueError(f"ideal generator has a negative exponent: {bad}")
        if (bad := next(filterfalse(LaurentMonomial.is_invariant, gens), None)) is not None:
            raise ValueError(f"ideal generator is not Gamma-invariant: {bad}")
        # Walking up in degree, a generator is dropped when a kept one
        # divides it.  Only a kept one of lower degree ever does: a divisor
        # of equal degree is the generator itself, and duplicates are gone.
        reduced: list[LaurentMonomial] = []
        for g in sorted(gens, key=sum):
            for h in reduced:
                if all(map(operator.le, h, g)):
                    break
            else:
                reduced.append(g)
        reduced.sort(reverse=True)
        return super().__new__(cls, reduced)

    # -- queries -----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self[0])

    def contains(self, monomial: LaurentMonomial) -> bool:
        if len(self[0]) != len(monomial):
            self[0]._require_same_ring(monomial)
        return any(all(map(operator.le, g, monomial)) for g in self)

    def has_common_factor(self) -> bool:
        """True when all generators share a nontrivial monomial factor."""
        return not reduce(LaurentMonomial.gcd, self).is_trivial()

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"


# ---------------------------------------------------------------------------
#  Invariant section spaces and ideal twists.
# ---------------------------------------------------------------------------


def _degree_monomials(nvars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors of the given length summing to `degree`, descending."""
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in _degree_monomials(nvars - 1, degree - head):
            yield (head,) + tail


@lru_cache(maxsize=None)
def invariant_sections(n: int, m: int) -> tuple[LaurentMonomial, ...]:
    """The Gamma-invariant subspace V[m] of the degree-m sections.

    Returns the degree-m monomials in x0..xn whose x0-exponent is even,
    i.e. the sections of O(m) on the quotient P(2,1,...,1), in canonical
    order.  Computed by direct combinatorial enumeration.

    >>> len(invariant_sections(3, 2))
    7
    >>> [str(m) for m in invariant_sections(3, 1)]
    ['x1', 'x2', 'x3']
    """
    if n < 1:
        raise ValueError(f"need at least two characters, got n={n}")
    if m < 0:
        raise ValueError(f"negative degree: {m}")
    return tuple(
        mono
        for mono in map(LaurentMonomial, _degree_monomials(n + 1, m))
        if mono.is_invariant()
    )


@lru_cache(maxsize=None)
def _interned(n: int, k: int) -> dict[LaurentMonomial, LaurentMonomial]:
    return {m: m for m in invariant_sections(n, k)}


@lru_cache(maxsize=None)
def _multiples(g: LaurentMonomial, k: int) -> frozenset[LaurentMonomial]:
    """The degree-k invariant sections divisible by the invariant monomial g.

    A section is divisible by g iff its quotient by g is an invariant
    section of degree k - deg g, so these are g times the sections of
    that degree; there are none when deg g > k.  Each product is swapped
    for the equal object of `invariant_sections(n, k)` (see the module).
    """
    n, d = len(g) - 1, g.degree
    if d > k:
        return frozenset()
    canonical, cofactors = _interned(n, k), invariant_sections(n, k - d)
    return frozenset(canonical[tuple(map(operator.add, g, q))] for q in cofactors)


def ideal_twist(I: MonomialIdeal, k: int) -> frozenset[LaurentMonomial]:
    """The degree-k slice of the ideal inside the invariant ring.

    Returns the set of invariant degree-k monomials lying in I, the union
    of the cached sets of multiples of its generators; the tests keep the
    scan of every section with `MonomialIdeal.contains` as its oracle.
    The largest set goes first, so it is copied whole, not inserted again.

    >>> I = MonomialIdeal([LaurentMonomial((2, 0, 0, 0))])
    >>> [str(m) for m in ideal_twist(I, 2)]
    ['x0^2']
    """
    if k < 0:
        raise ValueError(f"negative degree: {k}")
    return frozenset().union(*sorted((_multiples(g, k) for g in I), key=len, reverse=True))
