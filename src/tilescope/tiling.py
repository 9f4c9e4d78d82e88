"""Exact tile decisions and self-replicating tiling sets.

A digit set is a tile digit set iff every level of its digit expansion is
collision free.  That infinite family of conditions reduces to a finite
reachability question: track the running carry of a pair of digit strings
with equal value.  Carries are bounded by ``span // (base - 1)``, so the
walk space is a finite automaton and the decision is exact for all levels
at once, with a two-string certificate when it fails.

The module also builds the decreasing chain of periodic sets obtained by
iterating ``J -> b*J + D`` from Z, finds the exponent where it stabilizes,
and turns the stable entry into a verified self-replicating tiling set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DigitSet,
    ExpandedDigits,
    ExpansionLimitError,
    PeriodicSet,
    expand,
    max_expansion_level,
    residues_mod,
)

# Residue chains stay small for tiles, but guard against runaway growth on
# adversarial inputs.
MAX_CHAIN_RESIDUES = 1 << 22
# Carry automata hold 2*bound + 1 states.  The cap admits base 3
# {0, 1, 1000002}, 1000003 states, whose walk peaks near 1.3 GB of memory.
MAX_AUTOMATON_STATES = 1 << 21


@dataclass(frozen=True)
class TileWitness:
    """Two distinct equal-value digit strings certifying a collision.

    Strings are least-significant digit first: ``value == sum(left[i] *
    base**i)`` and the same for ``right``.
    """

    base: int
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.left)

    @property
    def value(self) -> int:
        return sum(d * self.base**i for i, d in enumerate(self.left))

    def is_valid_for(self, d: DigitSet) -> bool:
        digits = set(d.digits)
        return (
            self.base == d.base
            and len(self.left) == len(self.right)
            and self.left != self.right
            and all(x in digits for x in self.left + self.right)
            and self.value == sum(x * self.base**i for i, x in enumerate(self.right))
        )


class CarryAutomaton:
    """Finite-state walk space of carries for equal-value digit string pairs.

    States are carries c with |c| <= span // (base - 1).  An edge
    (c, d, e) -> c' exists when c + d - e is divisible by the base, with
    c' = (c + d - e) // base; it is nontrivial when d != e.  A collision
    in some expansion level exists iff a closed walk 0 -> 0 uses at least
    one nontrivial edge.
    """

    def __init__(self, d: DigitSet):
        self.base = d.base
        self.digits = d.digits
        self.bound = d.span // (d.base - 1)
        if 2 * self.bound + 1 > MAX_AUTOMATON_STATES:
            raise ValueError(
                f"carry automaton needs {2 * self.bound + 1} states, over the cap "
                f"{MAX_AUTOMATON_STATES}"
            )
        self.states = tuple(range(-self.bound, self.bound + 1))
        fwd: dict[int, list[tuple[int, int, int]]] = {c: [] for c in self.states}
        rev: dict[int, list[tuple[int, int, int]]] = {c: [] for c in self.states}
        for c in self.states:
            for x in d.digits:
                for y in d.digits:
                    t = c + x - y
                    if t % d.base == 0:
                        nxt = t // d.base
                        assert -self.bound <= nxt <= self.bound
                        fwd[c].append((x, y, nxt))
                        rev[nxt].append((x, y, c))
        self._fwd = fwd
        self._rev = rev

    def find_collision(self) -> TileWitness | None:
        """Shortest closed walk 0 -> 0 through a nontrivial edge, if any."""
        # Forward: shortest paths over (carry, used-nontrivial-edge) pairs.
        start = (0, False)
        pred: dict[tuple[int, bool], tuple[tuple[int, bool], int, int] | None]
        pred = {start: None}
        dist_f = {start: 0}
        queue = deque([start])
        while queue:
            c, flag = queue.popleft()
            for x, y, nxt in self._fwd[c]:
                state = (nxt, flag or x != y)
                if state not in pred:
                    pred[state] = ((c, flag), x, y)
                    dist_f[state] = dist_f[(c, flag)] + 1
                    queue.append(state)
        # Backward: shortest continuation from each carry to 0 along any edges.
        dist_b = {0: 0}
        step_b: dict[int, tuple[int, int, int]] = {}
        bqueue = deque([0])
        while bqueue:
            c = bqueue.popleft()
            for x, y, prev in self._rev[c]:
                if prev not in dist_b:
                    dist_b[prev] = dist_b[c] + 1
                    step_b[prev] = (x, y, c)
                    bqueue.append(prev)
        best: int | None = None
        best_len = 0
        for c in self.states:
            if (c, True) in dist_f and c in dist_b:
                total = dist_f[(c, True)] + dist_b[c]
                if best is None or total < best_len or (total == best_len and c < best):
                    best, best_len = c, total
        if best is None:
            return None
        left: list[int] = []
        right: list[int] = []
        state = (best, True)
        while pred[state] is not None:
            prev_state, x, y = pred[state]  # type: ignore[misc]
            left.append(x)
            right.append(y)
            state = prev_state
        left.reverse()
        right.reverse()
        c = best
        while c != 0:
            x, y, c = step_b[c]
            left.append(x)
            right.append(y)
        return TileWitness(self.base, tuple(left), tuple(right))


def is_tile(d: DigitSet) -> tuple[bool, TileWitness | None]:
    """Decide exactly whether d is a tile digit set.

    Returns ``(True, None)`` or ``(False, witness)`` with a shortest pair
    of distinct equal-value digit strings.  The decision covers every
    expansion level, not a truncation, and is invariant under translating
    or rescaling the digits.
    """
    witness = CarryAutomaton(d).find_collision()
    return witness is None, witness


def is_tile_oracle(d: DigitSet, k_max: int) -> bool:
    """Brute-force check that levels 1..k_max are collision free.

    Independent of the automaton: enumerates distinct expansion values
    level by level.  Collisions never heal, so the loop stops at the first
    shortfall.
    """
    if k_max > max_expansion_level(d.base):
        raise ExpansionLimitError(d.base, k_max, max_expansion_level(d.base))
    values = set(d.digits)
    for k in range(1, k_max + 1):
        if k > 1:
            values = {dd + d.base * v for v in values for dd in d.digits}
        if len(values) != d.base**k:
            return False
    return True


@dataclass(frozen=True)
class ReplicatingChain:
    """Entries J_0 = Z, J_k = b*J_{k-1} + D, each stored in canonical form."""

    base: int
    entries: tuple[PeriodicSet, ...]

    def __len__(self) -> int:
        return len(self.entries)


def _chain_step(d: DigitSet, prev: PeriodicSet) -> PeriodicSet:
    period = d.base * prev.period
    if d.base * len(prev.residues) > MAX_CHAIN_RESIDUES:
        raise ValueError(f"chain residue count exceeds cap at period {period}")
    res = {(d.base * r + dd) % period for r in prev.residues for dd in d.digits}
    return PeriodicSet(period, tuple(sorted(res))).reduce()


def replicating_chain(d: DigitSet, k_max: int) -> ReplicatingChain:
    """The first k_max steps of the chain, plus the starting entry Z."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    entries = [PeriodicSet.integers()]
    for _ in range(k_max):
        entries.append(_chain_step(d, entries[-1]))
    return ReplicatingChain(d.base, tuple(entries))


def stabilization_exponent(d: DigitSet, m_max: int = 12) -> int | None:
    """Smallest m <= m_max with J_{m+1} == J_m, or None if none is found.

    None means inconclusive within the bound, not a verdict: the bound is
    a search cap, and no effective a-priori bound is known.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    j = replicating_chain(d, m_max + 1).entries
    return next((m for m in range(1, m_max + 1) if j[m + 1] == j[m]), None)


def self_replicating_tiling(d: DigitSet, m: int) -> PeriodicSet:
    """The tiling set ``(expansion values at level m) + b**m * Z``, reduced.

    Requires m to be a stabilization exponent; the result is re-verified
    and a non-stabilizing m is rejected.
    """
    return _tiling_set(d, expand(d, m))


def _tiling_set(d: DigitSet, level: ExpandedDigits) -> PeriodicSet:
    """``level.values + b**level * Z`` reduced, verified self-replicating."""
    j = PeriodicSet.from_values(level.values, d.base**level.level).reduce()
    if not verify_self_replicating(j, d):
        raise ValueError(
            f"m={level.level} is not a stabilization exponent for {list(d.digits)}"
        )
    return j


def verify_self_replicating(j: PeriodicSet, d: DigitSet) -> bool:
    """Exact check that b*J + D equals J, compared modulo b * period."""
    period = d.base * j.period
    stepped = residues_mod(
        (d.base * r + dd for r in j.residues for dd in d.digits), period
    )
    return stepped == j.expand_to(period)


def tile_measure(j: PeriodicSet) -> Fraction:
    """Lebesgue measure of a tile from its tiling set: 1 / density."""
    return 1 / j.density()
