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
from operator import ge
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from .core import (
    DigitSet,
    ExpandedDigits,
    _check_level,
    _sums_complete,
    direct_sum_complete,
    expand,
    frozen,
)
from .tiling import collision_level

if TYPE_CHECKING:
    from .cyclotomic import PrimePowerSupport


@frozen
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
    def complete(self) -> bool:
        """Whether each A + B_j, with multiplicity, hits every residue mod base once."""
        return _sums_complete(self.A, dict.fromkeys(self.Bs), self.base)

    @cached_property
    def supports(self) -> dict[tuple[int, ...], PrimePowerSupport]:
        """The support of A and of each distinct B_j, keyed by the part; built once."""
        # imported here, so that search, which never asks, loads no cyclotomic
        from .cyclotomic import support

        return {part: support(part) for part in dict.fromkeys((self.A, *self.Bs))}


def skew_decompose(
    values: Iterable[int], base: int, stage: int
) -> SkewDecomposition | None:
    """Extract the skew product form of a digit set, if it has one.

    Splits the values into residue classes mod ``base``; each class must
    be constant mod ``base**stage``, the class sizes must all be equal,
    and the result must be :attr:`~SkewDecomposition.complete`.
    Representatives are the class minima.  Returns None otherwise.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    vals = tuple(values)
    if any(map(ge, vals, vals[1:])):  # not ascending: sort and de-duplicate
        vals = tuple(sorted(set(vals)))
    if len(vals) != base:
        raise ValueError(f"expected {base} values, got {len(vals)}")
    # equal class sizes need a class count dividing base; most sets stop here
    count = len(set(map(base.__rmod__, vals)))
    if base % count:
        return None
    size = base // count
    modulus = base**stage
    by_class = sorted(vals, key=base.__rmod__)  # stable: ascending in each class
    decomposed: list[tuple[int, tuple[int, ...]]] = []
    for i in range(0, base, size):
        cls = by_class[i : i + size]
        a = cls[0]
        if cls[-1] % base != a % base:
            return None  # classes of unequal sizes
        if any((v - a) % modulus != 0 for v in cls):
            return None
        decomposed.append((a, tuple((v - a) // modulus for v in cls)))
    decomposed.sort()
    reps = tuple(a for a, _ in decomposed)
    dec = SkewDecomposition(base, stage, reps, tuple(b for _, b in decomposed))
    return dec if dec.complete else None


# ``least_stage`` with no hint: the collision level is not known yet
_UNKNOWN = object()


def least_stage(
    d: DigitSet, m_max: int, collides_at: int | None | object = _UNKNOWN
) -> tuple[ExpandedDigits, SkewDecomposition] | None:
    """Least m <= m_max with D_m in 1-stage skew product form at base b**m.

    Returns the level-m expansion with its decomposition, or None when a
    level collides first or no level up to m_max decomposes.  The work cap
    is checked at each level as it is reached, never up front for m_max.

    ``collides_at`` is the first colliding level L, or None when no level
    collides (a tile).  ``search`` and ``analyze`` know it from the carry
    automaton and pass it; with no hint, L comes from
    :func:`~tilescope.tiling.collision_level`, so the set must fit that
    automaton's state cap.  Only the levels below min(m_max + 1, L) are
    tried, since a colliding level has fewer than b**m values and cannot
    decompose, and neither can any level above it (collisions never heal).
    When L <= m_max, the cap is checked for level L without expanding it,
    so an over-cap level raises the same error at the same level as a walk
    that expands every level up to the first collision.  A wrong hint of
    None on a non-tile ends the walk at the first colliding level that is
    expanded, with None, as that walk does.

    Most levels are ruled out before their values exist.  The first test
    of :func:`skew_decompose` at base b**m is that the residue classes of
    D_m mod b**m number a divisor of b**m, and those classes need only the
    residues R_m = D_m mod b**m, built level by level as
    R_m = {(x + b*r) mod b**m : x in D, r in R_(m-1)}, since x + b*v mod
    b**m depends on v only mod b**(m-1).  A level is expanded
    (:func:`~tilescope.core.expand`, from the highest level built so far)
    and decomposed only when #R_m divides b**m.

    Such an m also stabilizes the chain J_k = D_k + b**k * Z.  Let D_m be
    the blocks a_j + B*B_j with B = b**m and every A + B_j complete mod B.
    Then J_m = A + B*Z, so J_2m = D_m + B*J_m is the union of the
    a_j + B*(B_j + A + B*Z) = a_j + B*Z, which is J_m; the chain decreases,
    so J_(m+1) = J_m and the tiling set built from the level values always
    passes its self-replication check.  The converse, that J_(m+1) = J_m
    only where D_m decomposes, is what acceptance criterion 4 tests on
    every base-4 tile with digits in [0, 20], stage by stage.

    The answer is invariant under the reflection D -> c - D, c = max D.
    Level m of c - D is c*(1 + b + ... + b**(m-1)) - D_m, so it collides
    exactly when D_m does, and its residue classes mod b**m are those of
    D_m reflected: class minima become the constant minus class maxima,
    each B_j becomes max B_j - B_j, and A' + B'_j is congruent to a
    constant minus (A + B_j) mod b**m, complete exactly when A + B_j is.
    ``search`` classifies one set of each reflection pair on this basis.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if collides_at is _UNKNOWN:
        collides_at = collision_level(d)
    top = m_max if collides_at is None else min(m_max, collides_at - 1)
    base, digits = d.base, d.digits
    residues = {0}  # R_0
    level = None
    for m in range(1, top + 1):
        _check_level(base, m)
        modulus = base**m
        residues = {(x + br) % modulus for br in [base * r for r in residues] for x in digits}
        if modulus % len(residues):
            continue  # skew_decompose's class-count test fails at this level
        level = expand(d, m, below=level)
        if level.collisions:
            return None  # a wrong hint: collisions never heal, so no level decomposes
        dec = skew_decompose(level.values, modulus, 1)
        if dec is not None:
            return level, dec
    if top < m_max:
        # the colliding level is not expanded, but its cap still applies
        _check_level(base, collides_at)
    return None


def verify_decomposition(dec: SkewDecomposition, values: Iterable[int]) -> bool:
    """Re-check every structural invariant of ``dec`` against ``values``."""
    vals = sorted(set(values))
    blocks = dec.blocks()
    union = [v for block in blocks for v in block]
    if len(set(union)) != len(union) or sorted(union) != vals:
        return False
    return dec.complete  # which includes A injecting mod base


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
    mod ``base``, each sum counted as often as it arises; the scaled
    positions then never collide.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    factors = [sorted(set(a)) for a in a_list]
    if not factors:
        raise ValueError("need at least one factor set")
    rest = [sum(tup) for tup in product(*factors[1:])]
    if not _sums_complete(factors[0], [rest], base):
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
