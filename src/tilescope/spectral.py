"""Hadamard triples and spectral data for decomposed digit sets.

``(N, A, L)`` is a Hadamard triple when the root-of-unity matrix
``exp(2*pi*i*a*l/N) / sqrt(#A)`` indexed by A x L is unitary, i.e. #A ==
#L and every distinct pair of columns is orthogonal.  Columns l and l' are
orthogonal exactly when Phi_s divides the mask of A, for the order
s = N / gcd(l' - l, N), so each distinct order is decided once, exactly;
the floating-point unitarity residual exists only as a cross-check, never
as the decision procedure.

From a verified 1-stage decomposition this module assembles the two
scaled spectra L1 (from the representatives) and L2 (from the blocks),
checks the Hadamard conditions part by part and jointly, and checks the
counting identity #(L1 + L2) == modulus with a complete residue system.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import residues_mod
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
    """Exact Hadamard-triple test for (n, A, L); L not distinct mod n fails."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    sa, sl = sorted(set(a)), sorted(set(ell))
    if len(sa) != len(sl):
        return False
    orders = {n // math.gcd(cc - c, n) for i, c in enumerate(sl) for cc in sl[i + 1:]}
    return 1 not in orders and all(divides(s, sa) for s in sorted(orders))


@dataclass(frozen=True)
class HadamardTriple:
    n: int
    a: tuple[int, ...]
    ell: tuple[int, ...]
    verified: bool

    @classmethod
    def make(cls, n: int, a: Iterable[int], ell: Iterable[int]) -> "HadamardTriple":
        sa, sl = tuple(sorted(set(a))), tuple(sorted(set(ell)))
        return cls(n, sa, sl, is_hadamard(n, sa, sl))


def unitarity_residual(n: int, a: Sequence[int], ell: Sequence[int]) -> float:
    """Max entrywise deviation of M*M from the identity, in floating point.

    Cross-validation only: exact truth comes from :func:`is_hadamard`.
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


@dataclass(frozen=True)
class AnLaiReport:
    """Spectral-hypothesis data for a 1-stage decomposition.

    ``modulus`` is the decomposition base; L1 and L2 are the spectra of
    the representatives and of the first block, scaled up to the modulus.
    ``lcm_a`` / ``lcm_b`` record the intermediate cyclic orders before
    rescaling.  Condition (i) covers the part triples, condition (ii) the
    joint triples per block, and the counting identity asks L1 + L2 to be
    a complete residue system of exactly ``modulus`` sums.
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
    """
    if dec.stage != 1:
        raise ValueError("spectral data needs a 1-stage decomposition; lift first")
    n = dec.base
    supports = dec.supports
    labels = {"A": dec.A} | {f"B{j}": b for j, b in enumerate(dec.Bs)}
    part_flags = {k: (supports[p].t1, supports[p].t2()) for k, p in labels.items()}
    bad = sorted(k for k, (t1, t2) in part_flags.items() if not (t1 and t2))
    if bad:
        raise SpectralConditionError(
            f"(T1)/(T2) fails for parts {bad}", part_flags
        )
    supports_b = [supports[b].entries for b in dec.Bs]
    if len(set(supports_b)) != 1:
        raise SpectralConditionError(
            f"blocks have differing supports {sorted(set(supports_b))}", part_flags
        )
    supp_a, supp_b = supports[dec.A], supports[dec.Bs[0]]
    l1 = supp_a.spectrum().scaled(n)
    l2 = supp_b.spectrum().scaled(n)
    sums = _sumset(l1, l2)
    blocks = dict.fromkeys(dec.Bs)  # equal blocks give equal triples: check each once
    part_ok = {b: is_hadamard(n, b, l2) for b in blocks}
    joint_ok = {b: is_hadamard(n, [x + u for x in dec.A for u in b], sums) for b in blocks}
    counting = len(sums) == n and residues_mod(sums, n) == tuple(range(n))
    return AnLaiReport(
        modulus=n,
        decomposition=dec,
        support_a=supp_a.entries,
        support_b=supp_b.entries,
        lcm_a=supp_a.lcm,
        lcm_b=supp_b.lcm,
        l1=l1,
        l2=l2,
        hadamard_a=is_hadamard(n, dec.A, l1),
        hadamard_b=tuple(part_ok[b] for b in dec.Bs),
        hadamard_joint=tuple(joint_ok[b] for b in dec.Bs),
        counting_identity=counting,
    )


def _sumset(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted({x + y for x in a for y in b}))


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
    vals, cs = sorted(set(values)), sorted(set(c))
    if base**levels > MAX_TRUNCATION_POINTS:
        raise ValueError(
            f"{levels} levels give {base**levels} spectrum points, over the cap"
        )
    if not is_hadamard(base, vals, cs):
        return None
    modulus = base**levels
    expanded = _iterated_sumset(vals, base, levels)
    points = _iterated_sumset(cs, base, levels)
    elements = tuple(sorted({Fraction(p, modulus) % 1 for p in points}))
    spectrum = RationalSpectrum(elements, modulus)
    # C injects mod base, so its level sums stay distinct mod base**levels
    assert len(spectrum) == len(cs) ** levels
    if not is_hadamard(modulus, expanded, [int(e * modulus) for e in spectrum]):
        raise RuntimeError("level expansion of a Hadamard triple lost orthogonality")
    return spectrum


def _iterated_sumset(values: list[int], base: int, levels: int) -> list[int]:
    out = set(values)
    for i in range(1, levels):
        step = base**i
        out = {v + step * w for v in out for w in values}
    return sorted(out)
