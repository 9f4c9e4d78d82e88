"""Exact integer foundations: digit sets, digit expansions, periodic sets.

Everything in this module is plain integer (or ``fractions.Fraction``)
arithmetic.  A digit set is a base ``b`` together with ``b`` distinct
integers; its level-``k`` expansion is the sumset
``D + b*D + ... + b**(k-1)*D``.  Fully periodic subsets of the integers
are stored as (period, residues) pairs.  All values are immutable and
every operation is pure, so everything here is safe to share across
workers without synchronization.

``PeriodicSet.density`` is the one place that makes a ``Fraction``, and
it imports the class on each call: ``fractions`` brings ``decimal`` and
``numbers`` with it, and every CLI launch imports this module, so the
parser, ``--help`` and ``search`` never load them.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Collection, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    Behaves as ``@dataclass(frozen=True)`` on a class whose fields have no
    defaults: ``__init__`` takes the fields by position or by keyword and
    raises TypeError on a missing or extra argument, then runs
    ``__post_init__`` if the class has one; instances are equal only to
    instances of the same class with equal fields, hash as the tuple of
    their fields and repr as ``Name(field=value, ...)``; assigning or
    deleting an attribute raises AttributeError; ``__match_args__`` lists
    the fields.  Pickling and ``functools.cached_property`` work as on any
    class with an instance dict.  The methods are closures over the field
    names: a launch neither imports ``dataclasses`` (which pulls in
    ``inspect`` and ``ast``) nor compiles generated source for each class.
    """
    names = tuple(cls.__annotations__)
    arity = len(names)
    fields = attrgetter(*names)
    key = fields if arity > 1 else lambda self: (fields(self),)
    post_init = hasattr(cls, "__post_init__")
    setter = object.__setattr__
    usage = f"{cls.__qualname__}() takes {arity} arguments ({', '.join(names)})"

    def __init__(self, *args, **kwargs):
        # each field exactly once: the counts agree and every name not given
        # by position is a keyword; testing ``args`` first spares the usual
        # all-keyword call an empty zip and slice
        if len(args) + len(kwargs) != arity:
            raise TypeError(usage)
        if args:
            for name, value in zip(names, args):
                setter(self, name, value)
        if kwargs:
            try:
                for name in names[len(args) :] if args else names:
                    setter(self, name, kwargs[name])
            except KeyError:
                raise TypeError(usage) from None
        if post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


# Exit codes of every command: a completed analysis, a usage error, and no
# skew stage up to --mmax
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# Cap on the number of formal digit strings an expansion may touch.
# Python integers never wrap, so the only failure mode is unbounded work;
# this keeps it an explicit, early error.
MAX_EXPANSION_TERMS = 1 << 24


class ExpansionLimitError(ValueError):
    """Raised when a requested expansion level exceeds the work cap."""

    def __init__(self, base: int, level: int, max_level: int):
        self.base = base
        self.level = level
        self.max_level = max_level
        super().__init__(
            f"level {level} too large for base {base}: "
            f"at most {max_level} levels fit the work cap"
        )


def max_expansion_level(base: int, cap: int | None = None) -> int:
    """Largest level k with base**k <= ``cap``, by default the work cap."""
    cap = MAX_EXPANSION_TERMS if cap is None else cap  # read at call time
    k, n = 0, base
    while n <= cap:
        n *= base
        k += 1
    return k


def _check_level(base: int, level: int, cap: int | None = None) -> None:
    """The one level rule: level >= 1 and base**level <= ``cap``, by default the work cap.

    Every level of every command passes here: expansion levels, stages,
    cover levels and the levels of a truncated spectrum.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    cap = MAX_EXPANSION_TERMS if cap is None else cap
    # base >= 2, so no level from the cap's bit length on fits: the power
    # below stays small however large the level asked for
    if level >= cap.bit_length() or base**level > cap:
        raise ExpansionLimitError(base, level, max_expansion_level(base, cap))


@frozen
class DigitSet:
    """A base b together with b distinct integer digits, stored sorted.

    A digit set is *normalized* when 0 is a digit and the digits have no
    common factor; analysis routines work on normalized sets and
    :func:`normalize` reduces any raw digit list to one.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        raw = tuple(self.digits)
        if len(set(raw)) != len(raw):
            raise ValueError(f"duplicate digits in {list(raw)}")
        if len(raw) != self.base:
            raise ValueError(
                f"expected {self.base} digits, got {len(raw)}: {list(raw)}"
            )
        object.__setattr__(self, "digits", tuple(sorted(raw)))

    @property
    def span(self) -> int:
        return self.digits[-1] - self.digits[0]

    @property
    def is_normalized(self) -> bool:
        return self.digits[0] == 0 and math.gcd(*self.digits) == 1

    def __iter__(self):
        return iter(self.digits)


@frozen
class ExpandedDigits:
    """Distinct values of a level-k digit expansion."""

    base: int
    level: int
    values: tuple[int, ...]

    @property
    def collisions(self) -> int:
        """Digit strings that repeat a value: b**level - #values."""
        return self.base**self.level - len(self.values)


def normalize(digits: Iterable[int], base: int) -> tuple[DigitSet, int, int]:
    """Translate and rescale a raw digit list to normalized form.

    Returns ``(digit_set, offset, scale)`` where the input equals
    ``offset + scale * digit_set``.  Tiling and decomposition structure is
    invariant under this affine change, so analysis runs on the result.
    """
    raw = DigitSet(base, tuple(digits))
    offset = raw.digits[0]
    shifted = [d - offset for d in raw.digits]
    scale = math.gcd(*shifted)
    return DigitSet(base, tuple(d // scale for d in shifted)), offset, scale


def expand(
    d: DigitSet, level: int, below: ExpandedDigits | None = None
) -> ExpandedDigits:
    """Distinct values of D + b*D + ... + b**(level-1)*D.

    Level k is D + b*D_(k-1), built from the one below; ``below``, an
    expansion of ``d`` at a lower level, saves rebuilding the levels up to
    it, so a caller walking up the levels pays one step per level.

    Raises :class:`ExpansionLimitError` instead of attempting more than
    ``MAX_EXPANSION_TERMS`` formal sums.
    """
    _check_level(d.base, level)
    values, reached = (d.digits, 1) if below is None else (below.values, below.level)
    if reached > level:
        raise ValueError(f"cannot build level {level} from level {reached}")
    for _ in range(reached, level):
        values = {dd + d.base * v for v in values for dd in d.digits}
    return ExpandedDigits(d.base, level, tuple(sorted(values)))


def residues_mod(values: Iterable[int], period: int) -> tuple[int, ...]:
    """Sorted distinct residues of ``values`` modulo ``period``."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    return tuple(sorted({v % period for v in values}))


def _sums_complete(
    a: Collection[int], blocks: Collection[Collection[int]], period: int
) -> bool:
    """Whether A + B hits every residue mod ``period`` exactly once, for every block B.

    Sums count with multiplicity, so #A * #B must be ``period``; that test
    comes first and builds nothing.  A's residues are packed into the bits
    of one int, built once for all the blocks.  Each block rotates that
    mask once per element; a rotation meeting the bits set so far is a
    repeated residue, and ``period`` sums with none repeated hit them all.
    """
    count = len(a)
    for b in blocks:
        if count * len(b) != period:
            return False  # too few or too many sums
    mask = 0
    for x in a:
        mask |= 1 << (x % period)
    if mask.bit_count() != count:
        return False  # A already collides mod period
    full = (1 << period) - 1
    for b in blocks:
        acc = 0
        for y in b:
            r = y % period
            rot = mask if r == 0 else ((mask << r) | (mask >> (period - r))) & full
            if acc & rot:
                return False
            acc |= rot
    return True


def direct_sum_complete(a: Iterable[int], b: Iterable[int], period: int) -> bool:
    """Whether A + B hits every residue class mod ``period`` exactly once.

    True iff #A * #B == period and the pairwise sums are pairwise
    incongruent, with A and B read as sets; symmetric in A and B and
    invariant under translating either summand.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    return _sums_complete(set(a), [set(b)], period)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


@frozen
class PeriodicSet:
    """A fully periodic subset of Z: ``residues + period * Z``.

    Canonical form has the smallest possible period; :meth:`reduce`
    produces it, and equality of canonical forms is plain structural
    equality.
    """

    period: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        res = tuple(self.residues)
        if not res:
            raise ValueError("a periodic set needs at least one residue")
        if len(set(res)) != len(res):
            raise ValueError(f"duplicate residues in {list(res)}")
        if any(r < 0 or r >= self.period for r in res):
            raise ValueError(f"residues {list(res)} out of range [0, {self.period})")
        object.__setattr__(self, "residues", tuple(sorted(res)))

    @classmethod
    def integers(cls) -> "PeriodicSet":
        return cls(1, (0,))

    @classmethod
    def from_values(cls, values: Iterable[int], period: int) -> "PeriodicSet":
        return cls(period, residues_mod(values, period))

    def __contains__(self, n: int) -> bool:
        return n % self.period in set(self.residues)

    def density(self) -> Fraction:
        """Fraction of integers covered: #residues / period."""
        from fractions import Fraction

        return Fraction(len(self.residues), self.period)

    def expand_to(self, period: int) -> tuple[int, ...]:
        """Residues of the same set modulo a multiple of the period."""
        if period % self.period != 0:
            raise ValueError(f"{period} is not a multiple of period {self.period}")
        reps = period // self.period
        return tuple(
            sorted(r + i * self.period for r in self.residues for i in range(reps))
        )

    def reduce(self) -> "PeriodicSet":
        """Smallest-period representation of the same subset of Z."""
        n = len(self.residues)
        # the last divisor, the period itself, always returns
        for p in _divisors(self.period):
            cosets = self.period // p
            if n % cosets != 0:
                continue
            buckets: dict[int, int] = {}
            for r in self.residues:
                buckets[r % p] = buckets.get(r % p, 0) + 1
            if all(c == cosets for c in buckets.values()):
                return PeriodicSet(p, tuple(sorted(buckets)))


def tile_measure(j: PeriodicSet) -> Fraction:
    """Lebesgue measure of a tile from its tiling set: 1 / density."""
    return 1 / j.density()
