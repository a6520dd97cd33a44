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
slice of such an ideal, the sections of V[k] lying in it, is an `int`
mask whose bit j stands for the j-th section in canonical order: the OR
over the generators of the cached mask of the sections each divides
(`twist_mask`).  `ideal_twist` wraps it in a read-only `Slice`, a set
whose `in` reads one bit and whose iteration yields the objects of
`invariant_sections`.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Set
from functools import lru_cache, reduce
from itertools import chain, compress, filterfalse, repeat


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


@lru_cache(maxsize=None)
def _degree_monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given length summing to `degree`, descending."""
    if nvars == 1:
        return ((degree,),)
    return tuple(chain.from_iterable(
        map(operator.add, repeat((head,)), _degree_monomials(nvars - 1, degree - head))
        for head in range(degree, -1, -1)))


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
    # Even x0-exponents only, from the top; the exponents are integers already.
    return tuple(tuple.__new__(LaurentMonomial, (head,) + tail)
                 for head in range(m - m % 2, -1, -2) for tail in _degree_monomials(n, m - head))


@lru_cache(maxsize=None)
def _section_bits(n: int, k: int) -> dict[LaurentMonomial, int]:
    """Each section of V[k], in canonical order, with its bit 1 << j."""
    return {m: 1 << j for j, m in enumerate(invariant_sections(n, k))}


@lru_cache(maxsize=None)
def _multiples(g: LaurentMonomial, k: int) -> int:
    """The mask of the degree-k invariant sections divisible by the invariant
    monomial g: g times the sections of degree k - deg g, none when deg g > k.
    Distinct cofactors give distinct products, so their bits add as an OR."""
    n, d = len(g) - 1, g.degree
    if d > k:
        return 0
    bits, cofactors = _section_bits(n, k), invariant_sections(n, k - d)
    products = map(tuple, map(map, repeat(operator.add), repeat(g), cofactors))
    return sum(map(bits.__getitem__, products))


def twist_mask(I: MonomialIdeal, k: int) -> int:
    """The mask over `invariant_sections(n, k)` of the degree-k slice of I."""
    if k < 0:
        raise ValueError(f"negative degree: {k}")
    return reduce(operator.or_, [_multiples(g, k) for g in I])


class Slice(Set):
    """A read-only set of sections of V[k]: the tuple of `invariant_sections`,
    in canonical order, and the mask of the sections held.  A monomial of
    another degree or ring, or not invariant, is not held."""

    __slots__ = ("sections", "mask")
    _DIGITS = bytes.maketrans(b"01", b"\0\1")

    def __init__(self, sections: tuple[LaurentMonomial, ...], mask: int) -> None:
        self.sections, self.mask = sections, mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, m: object) -> bool:
        return m in self.sections and bool(self.mask >> self.sections.index(m) & 1)

    def __iter__(self) -> Iterator[LaurentMonomial]:
        # The binary digits of the mask, lowest first, select the sections.
        digits = format(self.mask, f"0{len(self.sections)}b")[::-1].encode().translate(self._DIGITS)
        return compress(self.sections, digits)

    def complement(self) -> Slice:
        """The sections of the same space outside the slice."""
        return Slice(self.sections, self.mask ^ ((1 << len(self.sections)) - 1))

    @classmethod
    def _from_iterable(cls, it: Iterable[LaurentMonomial]) -> frozenset[LaurentMonomial]:
        return frozenset(it)


def ideal_twist(I: MonomialIdeal, k: int) -> Slice:
    """The degree-k slice of the ideal inside the invariant ring.

    Returns the invariant degree-k monomials lying in I as a `Slice` over
    `invariant_sections(n, k)` with the mask of `twist_mask`; the tests
    keep the scan of every section with `MonomialIdeal.contains` as its
    oracle.

    >>> I = MonomialIdeal([LaurentMonomial((2, 0, 0, 0))])
    >>> [str(m) for m in ideal_twist(I, 2)]
    ['x0^2']
    """
    return Slice(invariant_sections(I.nvars - 1, k), twist_mask(I, k))
