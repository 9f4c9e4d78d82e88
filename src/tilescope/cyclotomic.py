"""Exact mask-polynomial algebra over the integers.

The mask polynomial of a finite integer set A is ``sum of x**a`` over
``a`` in A (after translating the minimum to 0).  Which cyclotomic
polynomials divide it controls both tiling and spectral structure, so
everything here is integer-exact and no decision uses floating point.

Divisibility works on the mask reduced mod ``x**s - 1``, which Phi_s
divides: the counts of A's residues mod s.  One rule covers every order
(de Bruijn; Lam-Leung): Phi_s divides the mask exactly when the counts
vanish under the product over primes p | s of ``p - (sum of the shifts by
t*s/p, t < p)``.  For a prime power that is one factor, which says the
counts are equal along every coset of s/p.  The dense division of the
whole mask is kept as the test oracle :func:`divides_oracle`.

The prime-power support of A, computed once by :func:`support`, carries
everything the Coven-Meyerowitz / Laba conditions need.  Since
Phi_{p**k}(1) = p, only primes dividing #A can enter it.  (T1) equates
#A with the product of the primes under the support, (T2) asks for
divisibility at products of coprime support entries, and together they
yield the spectrum ``{sum of k_s / s}`` in the cyclic group of order
lcm(support).  Each support decides (T2) in both readings and builds its
spectrum once, from integers over lcm(support), and caches both on itself;
the spectrum keeps those integers as its numerators.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .core import frozen


@frozen
class IntPolynomial:
    """Integer polynomial as a coefficient tuple, lowest degree first.

    No trailing zeros; the zero polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", c[:n])

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "IntPolynomial":
        exps = sorted(set(exponents))
        if not exps:
            return cls.zero()
        if exps[0] < 0:
            raise ValueError(f"negative exponent {exps[0]}")
        coeffs = [0] * (exps[-1] + 1)
        for e in exps:
            coeffs[e] = 1
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def divmod_monic(
        self, divisor: "IntPolynomial"
    ) -> tuple["IntPolynomial", "IntPolynomial"]:
        """Exact division by a monic divisor over Z."""
        if divisor.is_zero or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - d - 1, -1, -1):
            q = rem[i + d]
            if q:
                quot[i] = q
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem[:d]))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            mag = "" if abs(c) == 1 and e > 0 else str(abs(c))
            var = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
            terms.append((c < 0, mag + var))
        out = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, t in terms[1:]:
            out += (" - " if neg else " + ") + t
        return out


def prime_power_root(n: int) -> int | None:
    """The prime p when n = p**a with a >= 1, else None."""
    primes = _prime_divisors(n)
    return primes[0] if len(primes) == 1 else None


def euler_phi(n: int) -> int:
    out = n
    for p in _prime_divisors(n):
        out = out // p * (p - 1)
    return out


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


@lru_cache(maxsize=None)
def cyclotomic_poly(s: int) -> IntPolynomial:
    """The s-th cyclotomic polynomial, exactly.

    Prime powers use the closed form ``1 + x**q + ... + x**((p-1)q)`` with
    ``q = s / p``; otherwise ``x**s - 1`` is divided by the product of the
    cyclotomic polynomials of the proper divisors.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s == 1:
        return IntPolynomial((-1, 1))
    p = prime_power_root(s)
    if p is not None:
        q = s // p
        coeffs = [0] * ((p - 1) * q + 1)
        for j in range(p):
            coeffs[j * q] = 1
        return IntPolynomial(tuple(coeffs))
    x_s_minus_1 = IntPolynomial((-1,) + (0,) * (s - 1) + (1,))
    divisor = IntPolynomial.one()
    for d in range(1, s):
        if s % d == 0:
            divisor = divisor * cyclotomic_poly(d)
    quot, rem = x_s_minus_1.divmod_monic(divisor)
    assert rem.is_zero
    return quot


def mask_poly(a: Iterable[int]) -> IntPolynomial:
    """0/1 mask polynomial of a set, translated so the minimum maps to x**0.

    Divisibility by any cyclotomic polynomial of order >= 2 is invariant
    under the translation.
    """
    vals = sorted(set(a))
    if not vals:
        raise ValueError("mask polynomial of an empty set")
    return IntPolynomial.from_exponents(v - vals[0] for v in vals)


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
    """Whether the s-th cyclotomic polynomial divides the mask of the set."""
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    vals = set(a)
    if not vals:
        raise ValueError("mask polynomial of an empty set")
    return _divides(vals, s, _prime_divisors(s))


def divides_oracle(s: int, a: Iterable[int]) -> bool:
    """:func:`divides` by dense division of the whole mask; the test oracle."""
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    _, rem = mask_poly(a).divmod_monic(cyclotomic_poly(s))
    return rem.is_zero


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

    @property
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
        a literal reading that is strictly harder to satisfy.
        """
        return self._t2_readings[strict]

    @cached_property
    def _t2_readings(self) -> tuple[bool, bool]:
        # (relaxed, strict): only a failing subset of distinct primes fails both
        strict = True
        for k in range(2, len(self.entries) + 1):
            for combo in combinations(self.entries, k):
                distinct = len({prime_power_root(e) for e in combo}) == k
                if (distinct or strict) and not divides(math.prod(combo), self.values):
                    if distinct:
                        return False, False
                    strict = False
        return True, strict

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
        terms = [[k * (n // s) for k in range(prime_power_root(s))] for s in self.entries]
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
