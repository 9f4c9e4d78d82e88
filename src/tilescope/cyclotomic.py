"""Cyclotomic divisibility of mask polynomials, exact over the integers.

The mask polynomial of a finite integer set A is ``sum of x**a`` over
``a`` in A (after translating the minimum to 0).  Which cyclotomic
polynomials divide it controls both tiling and spectral structure, so
everything here is integer-exact and no decision uses floating point.

Divisibility works on the mask reduced mod ``x**s - 1``, which Phi_s
divides: the counts of A's residues mod s.  One rule covers every order
(de Bruijn; Lam-Leung): Phi_s divides the mask exactly when the counts
vanish under the product over primes p | s of ``p - (sum of the shifts by
t*s/p, t < p)``.  For a prime power that is one factor, which says the
counts are equal along every coset of s/p.  No polynomial is ever built:
the dense division of the whole mask, with the polynomial arithmetic it
needs, is the test oracle ``oracles.divides_oracle``.

The prime-power support of A, computed once by :func:`support`, carries
everything the Coven-Meyerowitz / Laba conditions need.  Since
Phi_{p**k}(1) = p, only primes dividing #A can enter it.  (T1) equates
#A with the product of the primes under the support, (T2) asks for
divisibility at products of coprime support entries, and together they
yield the spectrum ``{sum of k_s / s}`` in the cyclic group of order
lcm(support).  Each support decides (T2) in both readings, testing each
distinct product of its entries once, and builds its spectrum once, from
integers over lcm(support); it caches both on itself, and the spectrum
keeps those integers as its numerators.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .core import frozen


def prime_power_root(n: int) -> int | None:
    """The prime p when n = p**a with a >= 1, else None."""
    primes = _prime_divisors(n)
    return primes[0] if len(primes) == 1 else None


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _divides(vals: Iterable[int], s: int, primes: Sequence[int]) -> bool:
    """Whether Phi_s divides the mask; ``primes`` are the primes of s.

    At a d-th root of unity, d | s, the factor for p is p unless d divides
    s/p, where it is 0, so the product keeps exactly the primitive s-th
    roots.  A factor's shifts stay in a class mod s/p, so the last factor
    gives zero exactly when the counts are constant along each class.
    """
    counts = Counter(v % s for v in vals)
    *earlier, last = primes
    for p in earlier:
        q = s // p
        class_sums = Counter()
        for r, c in counts.items():
            class_sums[r % q] += c
        counts = {
            r: v
            for r0, total in class_sums.items()
            for r in range(r0, s, q)
            if (v := p * counts.get(r, 0) - total)
        }
    q = s // last
    return all(counts.get((r + q) % s, 0) == c for r, c in counts.items())


def divides(s: int, a: Iterable[int]) -> bool:
    """Whether the s-th cyclotomic polynomial divides the mask of the set.

    Read from the residue counts by :func:`_divides`; the oracle is
    ``oracles.divides_oracle``.
    """
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    vals = set(a)
    if not vals:
        raise ValueError("mask polynomial of an empty set")
    return _divides(vals, s, _prime_divisors(s))


@frozen
class PrimePowerSupport:
    """The prime powers whose cyclotomic polynomials divide a set's mask.

    ``values`` is the set itself, sorted; the (T1)/(T2) conditions and the
    Laba spectrum are read from the entries together with it.
    """

    entries: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(sorted(set(self.entries)))
        for e in entries:
            if prime_power_root(e) is None:
                raise ValueError(f"{e} is not a prime power > 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(prime_power_root(e) for e in self.entries)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.entries) if self.entries else 1

    @property
    def prime_product(self) -> int:
        return math.prod(self.primes)

    @property
    def t1(self) -> bool:
        """Size condition: #A equals the product of the support's primes."""
        return len(self.values) == self.prime_product

    def t2(self, strict: bool = False) -> bool:
        """Divisibility at products of support entries for distinct primes.

        For every subset of the support of size >= 2 whose entries are
        powers of pairwise distinct primes, the cyclotomic polynomial of the
        product must divide the mask.  ``strict=True`` widens the subsets to
        all combinations of distinct entries (powers of one prime included),
        a literal reading that is strictly harder to satisfy.  Each reading
        depends only on the distinct products, so each distinct product is
        tested once, whichever subsets reach it.
        """
        return self._t2_readings[strict]

    @cached_property
    def _t2_readings(self) -> tuple[bool, bool]:
        # (relaxed, strict) from one pass: ``coprime`` holds the products of
        # at most one entry per prime, ``several`` those of two or more entries
        coprime, single, several = {1}, set(), set()
        for e, p in zip(self.entries, self.primes):
            coprime |= {x * e for x in coprime if x % p}
            several |= {x * e for x in single | several}
            single.add(e)
        coprime -= single | {1}  # a failure here fails both readings
        relaxed = all(divides(s, self.values) for s in coprime)
        return relaxed, relaxed and all(divides(s, self.values) for s in several - coprime)

    def spectrum(self) -> "RationalSpectrum":
        """The explicit spectrum ``{sum of k_s / s mod 1}`` of a (T1)+(T2) set.

        One term per support entry s = p**alpha with k_s ranging over
        0..p-1; the sums are reduced into [0, 1) and are pairwise distinct,
        giving exactly #A elements with common denominator lcm(support).
        """
        if not self.t1:
            raise ValueError(f"(T1) fails for {list(self.values)}")
        if not self.t2():
            raise ValueError(f"(T2) fails for {list(self.values)}")
        return self._spectrum

    @cached_property
    def _spectrum(self) -> "RationalSpectrum":
        # the sums as integers over n = lcm(support): k_s / s = k_s * (n/s) / n
        n = self.lcm
        terms = [[k * (n // s) for k in range(p)] for s, p in zip(self.entries, self.primes)]
        spectrum = RationalSpectrum(tuple({sum(ks) % n for ks in product(*terms)}), n)
        assert len(spectrum) == len(self.values)
        return spectrum


def support(a: Iterable[int]) -> PrimePowerSupport:
    """All prime powers s with the s-th cyclotomic dividing the mask of A.

    A divisor must have degree phi(s) at most the mask degree, and
    Phi_{p**k}(1) = p must divide A(1) = #A, so testing the powers of the
    primes of #A with phi(s) <= max(A) - min(A) is exhaustive.
    """
    vals = sorted(set(a))
    if not vals:
        raise ValueError("support of an empty set")
    span = vals[-1] - vals[0]
    found = []
    for p in _prime_divisors(len(vals)):
        s = p
        while s // p * (p - 1) <= span:
            if _divides(vals, s, (p,)):
                found.append(s)
            s *= p
    return PrimePowerSupport(tuple(found), tuple(vals))


def check_t1(a: Iterable[int]) -> bool:
    """Size condition: #A equals the product of the support's primes."""
    return support(a).t1


def check_t2(a: Iterable[int], strict: bool = False) -> bool:
    """(T2) for the set; see :meth:`PrimePowerSupport.t2`."""
    return support(a).t2(strict)


@frozen
class RationalSpectrum:
    """A finite set of rationals in [0, 1) with a common denominator.

    Stored as the integer numerators over ``denominator``; ``elements``,
    iteration and ``len`` read them as fractions.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        nums = tuple(sorted(set(self.numerators)))
        if len(nums) != len(self.numerators):
            raise ValueError("spectrum elements must be distinct")
        if nums and not (0 <= nums[0] and nums[-1] < self.denominator):
            raise ValueError(f"numerators outside [0, {self.denominator})")
        object.__setattr__(self, "numerators", nums)

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def __iter__(self):
        return iter(self.elements)

    def scaled(self, factor: int) -> tuple[int, ...]:
        """The elements multiplied by an integer factor, when all are integers."""
        out = []
        for v in self.numerators:
            q, r = divmod(v * factor, self.denominator)
            if r:
                raise ValueError(f"{Fraction(v, self.denominator)} * {factor} is not an integer")
            out.append(q)
        return tuple(sorted(out))


def laba_spectrum(a: Iterable[int]) -> RationalSpectrum:
    """The explicit spectrum of a (T1)+(T2) set.

    See :meth:`PrimePowerSupport.spectrum`; raises ValueError when (T1) or
    (T2) fails.
    """
    return support(a).spectrum()


def vanishes_at(a: Iterable[int], m: int, n: int) -> bool:
    """Whether the exponential sum of A at frequency m/n is exactly zero.

    The sum is the mask evaluated at a primitive (n/gcd(m,n))-th root of
    unity, so it vanishes iff m != 0 and the matching cyclotomic
    polynomial divides the mask.  No floating point is involved.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= m < n:
        raise ValueError(f"m must lie in [0, {n}), got {m}")
    if m == 0:
        return False
    return divides(n // math.gcd(m, n), a)
