"""Hadamard triples and spectral data for decomposed digit sets.

``(N, A, L)`` is a Hadamard triple when the root-of-unity matrix
``exp(2*pi*i*a*l/N) / sqrt(#A)`` indexed by A x L is unitary, i.e. #A ==
#L and every distinct pair of columns is orthogonal.  Columns l and l' are
orthogonal exactly when Phi_s divides the mask of A, for the order
s = N / gcd(l' - l, N).  :func:`is_hadamard` scans L's orders once and
decides the triple with one exact divisibility test per distinct order.
The floating-point unitarity residual, ``oracles.unitarity_residual``, is
its cross-check, never the decision procedure.

From a complete 1-stage decomposition this module assembles the two
scaled spectra L1 (from the representatives) and L2 (from the blocks).
Every verdict is read from a fact already decided, so no pair is scanned
and no divisibility is tested here: each part triple holds by its
(T1)/(T2) flags, and every joint triple by the counting identity, L1 + L2
a complete residue system mod the modulus.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import direct_sum_complete, frozen
from .cyclotomic import RationalSpectrum, divides
from .skewform import SkewDecomposition

# Level cap for truncated spectra: the pair verification is quadratic in
# the number of spectrum points.
MAX_TRUNCATION_POINTS = 1 << 10


class SpectralConditionError(ValueError):
    """A decomposition part fails (T1)/(T2), or block supports disagree.

    ``part_flags`` maps part labels ("A", "B0", "B1", ...) to their
    (t1, t2) pairs.
    """

    def __init__(self, message: str, part_flags: dict[str, tuple[bool, bool]]):
        self.part_flags = part_flags
        super().__init__(message)


def is_hadamard(n: int, a: Iterable[int], ell: Iterable[int]) -> bool:
    """Exact Hadamard-triple test for (n, A, L); L not distinct mod n fails.

    One scan of L's pairs collects their orders, then one divisibility
    test per distinct order decides A.  Cross-checked in floating point by
    ``oracles.unitarity_residual``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    sl, a = sorted(set(ell)), set(a)
    orders = {n // math.gcd(cc - c, n) for i, c in enumerate(sl) for cc in sl[i + 1:]}
    return len(a) == len(sl) and 1 not in orders and all(divides(s, a) for s in sorted(orders))


@frozen
class AnLaiReport:
    """Spectral-hypothesis data for a 1-stage decomposition.

    ``modulus`` is the decomposition base; L1 and L2 are the spectra of
    the representatives and of the first block, scaled up to the modulus.
    ``lcm_a`` / ``lcm_b`` record the intermediate cyclic orders before
    rescaling.  Condition (i) covers the part triples, which hold by the
    parts' (T1)/(T2) flags; condition (ii) the joint triples per block,
    and the counting identity asks L1 + L2 to be a complete residue system
    of exactly ``modulus`` sums; it is also every joint verdict (see
    :func:`build_spectral_data`).
    """

    modulus: int
    decomposition: SkewDecomposition
    support_a: tuple[int, ...]
    support_b: tuple[int, ...]
    lcm_a: int
    lcm_b: int
    l1: tuple[int, ...]
    l2: tuple[int, ...]
    hadamard_a: bool
    hadamard_b: tuple[bool, ...]
    hadamard_joint: tuple[bool, ...]
    counting_identity: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.hadamard_a
            and all(self.hadamard_b)
            and all(self.hadamard_joint)
            and self.counting_identity
        )


def build_spectral_data(dec: SkewDecomposition) -> AnLaiReport:
    """Assemble and exactly verify the spectral hypotheses of a decomposition.

    Requires a 1-stage decomposition (lift first otherwise).  Every part
    must satisfy (T1) and (T2) and all blocks must share one support;
    violations raise :class:`SpectralConditionError` with per-part flags.
    An incomplete decomposition then raises ``ValueError``.  No pair is
    scanned and no divisibility tested: every verdict follows from those
    checks.

    Each part triple (n, A, L1) and (n, B_j, L2) holds by the part's flags
    (Laba 2002).  Two points of the spectrum {sum of k_s / s} differ by a
    rational whose order is the product, over the primes where they
    differ, of the largest support entry s = p**a with k_s changed: the
    lower terms of that prime have smaller denominators.  So every pair
    order is one support entry, whose Phi_s divides the mask by
    definition, or a product of entries for distinct primes, which (T2)
    covers; and (T1) makes #L equal to the part's size.

    Each joint triple (n, A + B_j, L1 + L2) holds exactly when L1 + L2 is
    complete mod n, the counting identity: Phi_s divides the mask of the
    complete A + B_j for every s | n, s > 1 (Laba 2002), and the pair
    orders of L1 + L2 divide n, so only order 1 or a size mismatch can
    fail it, that is, n = #A * #B_0 = #L1 * #L2 sums not distinct mod n.
    """
    if dec.stage != 1:
        raise ValueError("spectral data needs a 1-stage decomposition; lift first")
    n = dec.base
    supports = dec.supports
    labels = {"A": dec.A} | {f"B{j}": b for j, b in enumerate(dec.Bs)}
    part_flags = {k: (supports[p].t1, supports[p].t2()) for k, p in labels.items()}
    bad = sorted(k for k, flags in part_flags.items() if not all(flags))
    if bad:
        raise SpectralConditionError(
            f"(T1)/(T2) fails for parts {bad}", part_flags
        )
    supports_b = [supports[b].entries for b in dec.Bs]
    if len(set(supports_b)) != 1:
        raise SpectralConditionError(
            f"blocks have differing supports {sorted(set(supports_b))}", part_flags
        )
    if not dec.complete:
        raise ValueError(f"some A + B_j is not a complete residue system mod {n}")
    supp_a, supp_b = supports[dec.A], supports[dec.Bs[0]]
    l1 = supp_a.spectrum().scaled(n)
    l2 = supp_b.spectrum().scaled(n)
    counting = direct_sum_complete(l1, l2, n)
    return AnLaiReport(
        modulus=n,
        decomposition=dec,
        support_a=supp_a.entries,
        support_b=supp_b.entries,
        lcm_a=supp_a.lcm,
        lcm_b=supp_b.lcm,
        l1=l1,
        l2=l2,
        hadamard_a=all(part_flags["A"]),
        hadamard_b=tuple(all(part_flags[f"B{j}"]) for j in range(len(dec.Bs))),
        hadamard_joint=(counting,) * len(dec.Bs),
        counting_identity=counting,
    )


def truncated_spectrum(
    values: Iterable[int], base: int, c: Iterable[int], levels: int
) -> RationalSpectrum | None:
    """Exact level-``levels`` spectrum from a uniform Hadamard complement.

    Returns None unless (base, values, C) is a Hadamard triple.  When it
    is, the spectrum is ``(C + base*C + ... + base**(levels-1)*C) /
    base**levels`` reduced into [0, 1), and every distinct pair is
    verified orthogonal against the equally expanded digit values; that
    verification cannot fail for a genuine triple, so a failure raises.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    vals, cs = sorted(set(values)), sorted(set(c))
    # as in the expansion cap, the bit length bounds the levels before any power
    if levels >= MAX_TRUNCATION_POINTS.bit_length() or base**levels > MAX_TRUNCATION_POINTS:
        raise ValueError(f"{levels} levels of base {base} put the spectrum over the cap")
    if not is_hadamard(base, vals, cs):
        return None
    modulus = base**levels
    expanded = _iterated_sumset(vals, base, levels)
    points = _iterated_sumset(cs, base, levels)
    spectrum = RationalSpectrum(tuple({p % modulus for p in points}), modulus)
    # C injects mod base, so its level sums stay distinct mod base**levels
    assert len(spectrum) == len(cs) ** levels
    if not is_hadamard(modulus, expanded, spectrum.numerators):
        raise RuntimeError("level expansion of a Hadamard triple lost orthogonality")
    return spectrum


def _iterated_sumset(values: list[int], base: int, levels: int) -> list[int]:
    out = set(values)
    for i in range(1, levels):
        step = base**i
        out = {v + step * w for v in out for w in values}
    return sorted(out)
