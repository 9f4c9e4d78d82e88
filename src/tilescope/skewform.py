"""Residue-class decompositions of digit sets (skew product form).

A digit set E of size equal to the modulus ``base`` is in m-stage skew
product form when it splits as a union of blocks ``a_j + base**m * B_j``
with every ``A + B_j`` a complete residue system mod ``base``, where
``A = {a_j}``.  The blocks are forced to be exactly the residue classes
of E mod ``base`` (A must inject mod base, and each block is constant mod
``base**m``), which makes detection canonical: no search over
representatives is needed, and success is independent of which class
member plays a_j.

Detection, the least-stage search over digit expansions, verification,
stage lifting, and the two classical generators (product form and weak
product form) live here; a decomposition owns the supports of its parts.
"""

from __future__ import annotations

from itertools import product
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .core import (
    DigitSet,
    ExpandedDigits,
    direct_sum_complete,
    expand,
    residue_mask,
    translates_cover_exactly,
)
from .cyclotomic import PrimePowerSupport, support


@dataclass(frozen=True)
class SkewDecomposition:
    """A digit set split into residue-class blocks a_j + base**stage * B_j."""

    base: int
    stage: int
    A: tuple[int, ...]
    Bs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.stage < 1:
            raise ValueError(f"stage must be >= 1, got {self.stage}")
        if len(self.A) != len(self.Bs):
            raise ValueError("A and Bs must be index-aligned")
        if len(set(self.A)) != len(self.A):
            raise ValueError("representatives must be distinct")

    @property
    def s(self) -> int:
        return len(self.A)

    @property
    def modulus(self) -> int:
        """The block scale base**stage."""
        return self.base**self.stage

    def blocks(self) -> list[tuple[int, ...]]:
        """The represented blocks a_j + base**stage * B_j, index-aligned."""
        return [
            tuple(sorted(a + self.modulus * u for u in b))
            for a, b in zip(self.A, self.Bs)
        ]

    def digit_values(self) -> tuple[int, ...]:
        """All represented digits, sorted."""
        return tuple(sorted(v for block in self.blocks() for v in block))

    @cached_property
    def supports(self) -> dict[tuple[int, ...], PrimePowerSupport]:
        """The support of A and of each distinct B_j, keyed by the part; built once."""
        return {part: support(part) for part in dict.fromkeys((self.A, *self.Bs))}


def skew_decompose(
    values: Iterable[int], base: int, stage: int
) -> SkewDecomposition | None:
    """Extract the skew product form of a digit set, if it has one.

    Splits the values into residue classes mod ``base``; each class must
    be constant mod ``base**stage``, the class sizes must all be equal,
    and ``A + B_j`` must be a complete residue system mod ``base`` for
    every class.  Representatives are the class minima.  Returns None
    when any condition fails.
    """
    vals = sorted(set(values))
    if len(vals) != base:
        raise ValueError(f"expected {base} values, got {len(vals)}")
    modulus = base**stage
    classes: dict[int, list[int]] = {}
    for v in vals:
        classes.setdefault(v % base, []).append(v)
    size = None
    decomposed: list[tuple[int, tuple[int, ...]]] = []
    for cls in classes.values():
        a = cls[0]
        if any((v - a) % modulus != 0 for v in cls):
            return None
        if size is None:
            size = len(cls)
        elif len(cls) != size:
            return None
        decomposed.append((a, tuple((v - a) // modulus for v in cls)))
    decomposed.sort()
    reps = tuple(a for a, _ in decomposed)
    # one A-mask shared across all class checks; classes can be numerous
    mask = residue_mask(reps, base)
    for _, b in decomposed:
        if not translates_cover_exactly(mask, len(reps), b, base):
            return None
    return SkewDecomposition(base, stage, reps, tuple(b for _, b in decomposed))


def least_stage(
    d: DigitSet, m_max: int
) -> tuple[ExpandedDigits, SkewDecomposition] | None:
    """Least m <= m_max with D_m in 1-stage skew product form at base b**m.

    Returns the level-m expansion (built by :func:`~tilescope.core.expand`)
    with its decomposition, or None when a level collides first or no
    level up to m_max decomposes.

    Such an m also stabilizes the chain J_k = D_k + b**k * Z.  Let D_m be
    the blocks a_j + B*B_j with B = b**m and every A + B_j complete mod B.
    Then J_m = A + B*Z, so J_2m = D_m + B*J_m is the union of the
    a_j + B*(B_j + A + B*Z) = a_j + B*Z, which is J_m; the chain decreases,
    so J_(m+1) = J_m and the tiling set built from the level values always
    passes its self-replication check.  The converse, that J_(m+1) = J_m
    only where D_m decomposes, is what acceptance criterion 4 tests on
    every base-4 tile with digits in [0, 20], stage by stage.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    for m in range(1, m_max + 1):
        level = expand(d, m)
        if level.collisions:
            return None
        dec = skew_decompose(level.values, d.base**m, 1)
        if dec is not None:
            return level, dec
    return None


def verify_decomposition(dec: SkewDecomposition, values: Iterable[int]) -> bool:
    """Re-check every structural invariant of ``dec`` against ``values``."""
    vals = sorted(set(values))
    blocks = dec.blocks()
    union = [v for block in blocks for v in block]
    if len(set(union)) != len(union) or sorted(union) != vals:
        return False
    if len({a % dec.base for a in dec.A}) != dec.s:
        return False
    for b in dec.Bs:
        if dec.s * len(b) != dec.base:
            return False
        if not direct_sum_complete(dec.A, b, dec.base):
            return False
    return True


def lift_stage(dec: SkewDecomposition) -> SkewDecomposition:
    """Convert an m-stage decomposition into a 1-stage one for level-m digits.

    The expansion of the represented digit set to level m splits along
    index tuples: representatives become a + b*a' + ... over all tuples,
    and each block is the matching weighted sumset of the B's.  The
    output is verified against the actual level-m expansion; failure
    there is an internal error, not an input condition.
    """
    m = dec.stage
    source = DigitSet(dec.base, dec.digit_values())
    lifted: list[tuple[int, tuple[int, ...]]] = []
    for tup in product(range(dec.s), repeat=m):
        a = sum(dec.base**i * dec.A[j] for i, j in enumerate(tup))
        sums = {0}
        for i, j in enumerate(tup):
            step = dec.base**i
            sums = {u + step * v for u in sums for v in dec.Bs[j]}
        lifted.append((a, tuple(sorted(sums))))
    lifted.sort()
    out = SkewDecomposition(
        base=dec.base**m,
        stage=1,
        A=tuple(a for a, _ in lifted),
        Bs=tuple(b for _, b in lifted),
    )
    target = expand(source, m).values
    if not verify_decomposition(out, target):
        raise RuntimeError(
            f"stage lift produced an invalid decomposition for {list(source.digits)}"
        )
    return out


def gen_product_form(a_list: list[Iterable[int]], base: int) -> DigitSet:
    """Digit set ``A_0 + base*A_1 + base**2*A_2 + ...`` from factor sets.

    The unscaled factors must sum directly to a complete residue system
    mod ``base``; the scaled positions then never collide.
    """
    factors = [sorted(set(a)) for a in a_list]
    if not factors:
        raise ValueError("need at least one factor set")
    card = 1
    for f in factors:
        card *= len(f)
    unscaled = {sum(tup) % base for tup in product(*factors)}
    if card != base or len(unscaled) != base:
        raise ValueError(
            f"factor sets do not sum to a complete residue system mod {base}"
        )
    values = {
        sum(base**j * x for j, x in enumerate(tup)) for tup in product(*factors)
    }
    # completeness forces each factor to inject mod base, so the scaled
    # positions cannot collide
    assert len(values) == base
    return DigitSet(base, tuple(sorted(values)))


def gen_weak_product_form(
    a: Iterable[int],
    b: Iterable[int],
    m: int,
    offsets: Mapping[tuple[int, int], int] | None = None,
) -> DigitSet:
    """Digit set ``a_j + base**m * u + base**(m+1) * x[a_j, u]`` over A x B.

    ``base`` is #A * #B and A + B must be a complete residue system mod
    base.  ``offsets`` maps (a_j, u) pairs to arbitrary integers x,
    defaulting to 0.  The result is always an m-stage skew product form
    (each block stays congruent to a_j + base**m * B mod base**(m+1)),
    hence a tile digit set, and no offset choice can make values collide.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    sa, sb = sorted(set(a)), sorted(set(b))
    base = len(sa) * len(sb)
    if base < 2:
        raise ValueError("A and B must multiply to a base >= 2")
    if not direct_sum_complete(sa, sb, base):
        raise ValueError(f"A + B is not a complete residue system mod {base}")
    offsets = offsets or {}
    values = {
        aj + base**m * u + base ** (m + 1) * offsets.get((aj, u), 0)
        for aj in sa
        for u in sb
    }
    # values stay distinct mod base**(m+1) whatever the offsets: A and B
    # both inject mod base, so a + base**m * u already separates pairs
    assert len(values) == base
    return DigitSet(base, tuple(sorted(values)))
