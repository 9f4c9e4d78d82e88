"""Reference implementations: the slow paths the fast ones are tested against.

Each routine here decides what a fast path in a layer module decides, by
the direct construction the fast path replaced, and the test suite holds
the two to the same answers.  No command imports this module; it imports
the layers, and no layer imports it.

- :func:`divides_oracle` divides the whole mask by Phi_s, against the
  residue-count rule of :func:`~tilescope.cyclotomic.divides`; it carries
  the dense polynomial arithmetic :class:`IntPolynomial`,
  :func:`cyclotomic_poly`, :func:`mask_poly` and :func:`euler_phi`.
- :func:`collision_oracle` runs the eager witness searches on every carry,
  against :meth:`~tilescope.tiling.CarryAutomaton.find_collision`.
- :func:`approx_oracle` places one hull copy per expansion value, against
  the recursion of :func:`~tilescope.geometry.approx`.
- :func:`unitarity_residual` measures M*M - I in floating point, against
  the exact :func:`~tilescope.spectral.is_hadamard`.

Some references stay in their layer, because callers outside the package
bind them there: ``tiling.is_tile_oracle`` is imported from
``tilescope.tiling`` by the benchmark's gate and workloads, and the
benchmark tracer wraps ``geometry.intervals_json``, the one-line views
``check_t1``, ``check_t2`` and ``laba_spectrum`` of ``cyclotomic``, and
the chain functions of ``tiling`` in their home modules.  The acceptance
tests and the demos use the views and the chain as well.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .core import DigitSet, _check_level, frozen
from .cyclotomic import _prime_divisors, prime_power_root
from .geometry import IntervalUnion, _merge
from .tiling import TileWitness, _carry_bound, _searches, _witness


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

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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


def euler_phi(n: int) -> int:
    out = n
    for p in _prime_divisors(n):
        out = out // p * (p - 1)
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
    coeffs = [0] * (vals[-1] - vals[0] + 1)
    for v in vals:
        coeffs[v - vals[0]] = 1
    return IntPolynomial(tuple(coeffs))


def divides_oracle(s: int, a: Iterable[int]) -> bool:
    """:func:`~tilescope.cyclotomic.divides` by dense division of the whole mask."""
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    _, rem = mask_poly(a).divmod_monic(cyclotomic_poly(s))
    return rem.is_zero


def collision_oracle(d: DigitSet) -> TileWitness | None:
    """Reference for :meth:`~tilescope.tiling.CarryAutomaton.find_collision`.

    Runs :func:`~tilescope.tiling._searches` over every carry and picks the
    carry of least total length, then least value.  Its cost tracks the
    span, not the reachable carries.
    """
    bound = _carry_bound(d)
    states = range(-bound, bound + 1)
    pred, dist_f, step_b, dist_b = _searches(d.base, d.digits, states)
    best: int | None = None
    best_len = 0
    for c in states:
        if (c, True) in dist_f and c in dist_b:
            total = dist_f[(c, True)] + dist_b[c]
            if best is None or total < best_len or (total == best_len and c < best):
                best, best_len = c, total
    if best is None:
        return None
    return _witness(d.base, best, pred, step_b)


def approx_oracle(d: DigitSet, level: int) -> IntervalUnion:
    """:func:`~tilescope.geometry.approx` by the per-value construction.

    Enumerates every digit string of length ``level``, places one hull
    copy at its value ``sum(d_i * b**i)`` and merges; ``b**level`` work.
    """
    _check_level(d.base, level)
    b = d.base
    weights = [(b - 1) * b**i for i in range(level)]
    values = {sum(w * x for w, x in zip(weights, s)) for s in product(d.digits, repeat=level)}
    lo, hi = d.digits[0], d.digits[-1]
    return IntervalUnion(
        level, b**level * (b - 1), _merge([(v + lo, v + hi) for v in sorted(values)])
    )


def unitarity_residual(n: int, a: Sequence[int], ell: Sequence[int]) -> float:
    """Max entrywise deviation of M*M from the identity, in floating point.

    Cross-validation only: exact truth comes from
    :func:`~tilescope.spectral.is_hadamard`.
    """
    sa, sl = sorted(set(a)), sorted(set(ell))
    cols = [
        [cmath.exp(2j * cmath.pi * (x * c % n) / n) for x in sa] for c in sl
    ]
    worst = 0.0
    for i, u in enumerate(cols):
        for j, v in enumerate(cols):
            entry = sum(p.conjugate() * q for p, q in zip(u, v)) / len(sa)
            worst = max(worst, abs(entry - (i == j)))
    return worst
