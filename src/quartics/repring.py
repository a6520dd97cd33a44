"""Exact arithmetic in the representation ring of a diagonal torus.

A diagonal torus T = (C*)^(n+1) acts on homogeneous coordinates x0..xn.
Its characters are Laurent monomials in the coordinate characters
lambda_0..lambda_n; a character is its integer exponent vector
(`LaurentMonomial`, a tuple of exponents).  A finite-dimensional
T-representation splits into one-dimensional character spaces, so it is
faithfully described by a finite formal integer combination of Laurent
monomials (`RepElement`).
Differences of representations are meaningful intermediate values, hence
multiplicities may be negative.

The ambient geometry is the weighted projective space P(2,1,...,1),
realized as the quotient of ordinary projective n-space by the order-two
group Gamma that negates x0.  Sections of O(m) on the quotient correspond
to degree-m monomials with even x0-exponent (Gamma-invariant monomials,
as tested by `LaurentMonomial.is_invariant`); `invariant_sections` gives
the space V[m] they span as its tuple of monomials in canonical order.

Torus-fixed curves have monomial graded ideals (`MonomialIdeal`); the
degree-k slice of such an ideal, the set of sections of V[k] lying in it,
is `ideal_twist`: the union of the sections each generator divides, which
are the generator times the sections of the complementary degree.  All
values are immutable and all operations are pure.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce
from itertools import chain


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
        return all(e >= 0 for e in self)

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

    # A product or quotient of two monomials has integer exponents already,
    # so it builds its tuple without the conversion in __new__.

    def __mul__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        self._require_same_ring(other)
        return tuple.__new__(LaurentMonomial, map(operator.add, self, other))

    def __truediv__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        self._require_same_ring(other)
        return tuple.__new__(LaurentMonomial, map(operator.sub, self, other))

    def divides(self, other: "LaurentMonomial") -> bool:
        """True when other/self has no negative exponent."""
        self._require_same_ring(other)
        return all(map(operator.le, self, other))

    def lcm(self, other: "LaurentMonomial") -> "LaurentMonomial":
        self._require_same_ring(other)
        return LaurentMonomial(map(max, self, other))

    def gcd(self, other: "LaurentMonomial") -> "LaurentMonomial":
        self._require_same_ring(other)
        return LaurentMonomial(map(min, self, other))

    def remap(self, perm: Sequence[int], nvars: int) -> "LaurentMonomial":
        """Carry the monomial into a ring of `nvars` characters, where
        character i becomes character perm[i]."""
        exps = [0] * nvars
        for i, e in zip(perm, self, strict=True):
            exps[i] += e
        return LaurentMonomial(exps)

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


class RepElement:
    """An element of the representation ring: monomial -> multiplicity.

    Stores only nonzero multiplicities.  Supports ring arithmetic (+, -, *)
    and dualization (inverting every character).  The empty element is the
    zero of the ring and is compatible with any character count.

    >>> a = RepElement({LaurentMonomial((0, 1, -1, 0)): 1})
    >>> (a + a).dimension
    2
    >>> (a - a) == RepElement()
    True
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[LaurentMonomial, int] | Iterable[tuple[LaurentMonomial, int]] = (),
    ):
        # A mapping has one multiplicity per monomial already; pairs from
        # ring operations accumulate.  The character count is checked before
        # zeros are dropped, so a cancelled term still counts.
        if isinstance(terms, Mapping):
            acc = dict(zip(terms, map(operator.index, terms.values())))
        else:
            acc = {}
            for monomial, mult in terms:
                acc[monomial] = acc.get(monomial, 0) + operator.index(mult)
        counts = set(map(len, acc))
        if len(counts) > 1:
            raise ValueError(f"mismatched character counts: {sorted(counts)}")
        if 0 in acc.values():
            acc = {m: k for m, k in acc.items() if k}
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RepElement is immutable")

    @classmethod
    def from_monomials(cls, monomials: Iterable[LaurentMonomial]) -> "RepElement":
        """Sum of the given monomials, each occurrence with multiplicity 1."""
        return cls(Counter(monomials))

    # -- queries ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Total multiplicity (virtual dimension; may be negative)."""
        return sum(self._terms.values())

    def __contains__(self, monomial: LaurentMonomial) -> bool:
        return monomial in self._terms

    def items(self) -> list[tuple[LaurentMonomial, int]]:
        """Terms in canonical order: descending lexicographic on exponents."""
        # Fixed once, for deterministic serialization and test comparison.
        return sorted(self._terms.items(), reverse=True)

    def support(self) -> list[LaurentMonomial]:
        """Monomials with nonzero multiplicity, in canonical order."""
        return sorted(self._terms, reverse=True)

    def characters(self) -> tuple[LaurentMonomial, ...]:
        """Each monomial repeated by its multiplicity, in canonical order.

        Only an actual representation has such a list: a negative
        multiplicity raises ValueError.
        """
        items = self.items()
        for monomial, mult in items:
            if mult < 0:
                raise ValueError(f"negative multiplicity at {monomial}: {mult}")
        return tuple(m for m, k in items for _ in range(k))

    def __iter__(self) -> Iterator[LaurentMonomial]:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RepElement") -> "RepElement":
        return RepElement(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "RepElement") -> "RepElement":
        return RepElement(
            chain(self._terms.items(), ((m, -k) for m, k in other._terms.items()))
        )

    def __mul__(self, other: "RepElement") -> "RepElement":
        return RepElement(
            (m1 * m2, k1 * k2)
            for m1, k1 in self._terms.items()
            for m2, k2 in other._terms.items()
        )

    def dual(self) -> "RepElement":
        """Invert every character; multiplicities are preserved."""
        return RepElement((LaurentMonomial(-e for e in m), k) for m, k in self._terms.items())

    # -- identity and rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RepElement) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for monomial, mult in self.items():
            body = str(monomial)
            if abs(mult) != 1:
                body = f"{abs(mult)}*{body}"
            if not parts:
                parts.append(body if mult > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if mult > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RepElement({self})"


class MonomialIdeal:
    """A monomial ideal given by a reduced finite generator set.

    Generators are ordinary (nonnegative-exponent) monomials; the
    constructor drops any generator divisible by another, so no generator
    divides a different one.  Ideals of Gamma-fixed curves have all
    generators Gamma-invariant; this is checked.

    >>> I = MonomialIdeal([LaurentMonomial((0, 1, 1, 0)), LaurentMonomial((0, 1, 0, 1))])
    >>> str(I)
    '(x1*x2, x1*x3)'
    >>> I.contains(LaurentMonomial((0, 2, 1, 0)))
    True
    """

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[LaurentMonomial]):
        gens = list(dict.fromkeys(generators))
        counts = set(map(len, gens))
        if len(counts) > 1:
            raise ValueError(f"mismatched character counts: {sorted(counts)}")
        if gens and min(map(min, gens)) < 0:
            bad = next(g for g in gens if not g.is_regular())
            raise ValueError(f"ideal generator has a negative exponent: {bad}")
        if any(g[0] & 1 for g in gens):
            bad = next(g for g in gens if not g.is_invariant())
            raise ValueError(f"ideal generator is not Gamma-invariant: {bad}")
        # Walking up in degree, a generator is dropped when a kept one
        # divides it.  Only a kept one of lower degree ever does: a divisor
        # of equal degree is the generator itself, and duplicates are gone.
        reduced: list[LaurentMonomial] = []
        for g in sorted(gens, key=sum):
            if not any(all(map(operator.le, h, g)) for h in reduced):
                reduced.append(g)
        reduced.sort(reverse=True)
        object.__setattr__(self, "generators", tuple(reduced))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MonomialIdeal is immutable")

    # -- queries -----------------------------------------------------------

    @property
    def nvars(self) -> int:
        if not self.generators:
            raise ValueError("empty ideal has no ring context")
        return len(self.generators[0])

    def contains(self, monomial: LaurentMonomial) -> bool:
        return any(g.divides(monomial) for g in self.generators)

    def has_common_factor(self) -> bool:
        """True when all generators share a nontrivial monomial factor."""
        return not reduce(LaurentMonomial.gcd, self.generators).is_trivial()

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical comparison key fixing a deterministic point order.

        Exponents are negated so that an ascending sort lists ideals in
        the same descending-lexicographic convention as monomial terms
        ((x0^2, x1^2) before (x2^2, x3^2)).
        """
        return tuple(tuple(map(operator.neg, g)) for g in self.generators)

    # -- identity and rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

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
def section_map(n: int, k: int) -> dict[LaurentMonomial, LaurentMonomial]:
    """V[k] as a map from each of its sections to itself.

    Looking a monomial up returns the section object that V[k] holds, so
    sets built from it share their members with every other such set.
    """
    return {m: m for m in invariant_sections(n, k)}


@lru_cache(maxsize=None)
def _multiples(g: LaurentMonomial, k: int) -> frozenset[LaurentMonomial]:
    """The degree-k invariant sections divisible by the invariant monomial g.

    A section is divisible by g iff its quotient by g is an invariant
    section of degree k - deg g, so these are g times the sections of
    that degree; there are none when deg g > k.  The members are V[k]'s
    own section objects, from `section_map`.
    """
    n, d = len(g) - 1, g.degree
    if d > k:
        return frozenset()
    # A monomial is its exponent tuple, so the plain tuple g*q finds it.
    sections = section_map(n, k)
    return frozenset(
        sections[tuple(map(operator.add, g, q))] for q in invariant_sections(n, k - d)
    )


def ideal_twist(I: MonomialIdeal, k: int) -> frozenset[LaurentMonomial]:
    """The degree-k slice of the ideal inside the invariant ring.

    Returns the set of invariant degree-k monomials lying in I, the union
    of the cached sets of multiples of its generators; the tests keep the
    scan of every section with `MonomialIdeal.contains` as its oracle.

    >>> I = MonomialIdeal([LaurentMonomial((2, 0, 0, 0))])
    >>> [str(m) for m in ideal_twist(I, 2)]
    ['x0^2']
    """
    if k < 0:
        raise ValueError(f"negative degree: {k}")
    if not I.generators:
        raise ValueError("empty ideal has no ring context")
    return frozenset().union(*(_multiples(g, k) for g in I.generators))
