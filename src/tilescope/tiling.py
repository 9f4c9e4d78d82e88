"""Exact tile decisions and self-replicating tiling sets.

A digit set is a tile digit set iff every level of its digit expansion is
collision free.  That infinite family of conditions reduces to a finite
reachability question: track the running carry of a pair of digit strings
with equal value.  Carries are bounded by ``span // (base - 1)``, so the
walk space is a finite automaton and the decision is exact for all levels
at once, with a two-string certificate when it fails.  The automaton is
explored on demand from carry 0, so its cost tracks the carries reached,
not the span; the eager search over every carry is kept as
``collision_oracle``.

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
# Carry automata span 2*bound + 1 states.  The cap admits base 3
# {0, 1, 1000002}, 1000003 states; its search visits 86622 forward states
# and the whole process peaks at 41 MB resident (CPython 3.11, x86-64).
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
    """Walk space of carries for equal-value digit string pairs, explored on demand.

    States are carries c with |c| <= span // (base - 1); ``states`` is that
    range, and its length is what the cap bounds.  An edge (c, x, y) -> c'
    exists when c + x - y is divisible by the base, with
    c' = (c + x - y) // base; it is nontrivial when x != y.  A collision in
    some expansion level exists iff a closed walk 0 -> 0 uses at least one
    nontrivial edge.

    No table is built: carry c takes its edges from the digit pairs with
    x - y = -c (mod b), and only carries reached from 0 are visited.  A
    standard digit set reaches carry 0 alone.

    :meth:`find_collision` returns the witness of the eager search kept in
    :func:`collision_oracle`, for these reasons.  The forward breadth-first
    search over (carry, used-nontrivial) visits states in the eager order
    and stops when (0, True) is discovered, at depth L; layers below L are
    complete.  A walk (0, False) -> (c, True) followed by a walk c -> 0 is a
    walk to (0, True), so ``dist_f(c, True) + dist_b(c) >= L``, with
    equality at c = 0: L is the least total, the witness level, and the
    eager tie-break picks the least c with ``dist_f(c, True) + dist_b(c) ==
    L``.  Each such c lies in ``T = {c : fd(c) + dist_b(c) <= L}``, fd being
    the forward depth of c under either flag.  T is closed under the
    backward search's choices: if c is in T, every carry u that competes to
    discover c (an edge c -> u with ``dist_b(u) == dist_b(c) - 1``) has
    ``fd(u) <= fd(c) + 1`` and so is in T, and so is the chosen one.  Every
    c in T other than 0 has ``dist_b(c) >= 1``, hence ``fd(c) <= L - 1``
    (discovered before the stop) and ``dist_b(c) <= L - 1`` (as
    ``fd(c) >= 1``).  By induction on the depth, a backward search from
    0 entering only discovered carries and stopped at depth L - 1 reaches
    each carry of T at its full distance, from the same successor through
    the same digit pair, in the same relative order.  A carry outside T
    totals more than L at any distance the restricted search gives it, so
    it is never picked.
    """

    def __init__(self, d: DigitSet):
        self.base = d.base
        self.digits = d.digits
        self.bound = _carry_bound(d)
        self.states = range(-self.bound, self.bound + 1)
        # The first pair (x, y) in digit order of each difference x - y; pairs
        # with one difference lead to the same state, so only the first counts.
        first: dict[int, tuple[int, int]] = {}
        for x in d.digits:
            for y in d.digits:
                first.setdefault(x - y, (x, y))
        self._first = first
        # pairs[r]: those pairs with x - y = r (mod b), in digit order
        self._pairs: list[list[tuple[int, int]]] = [[] for _ in range(d.base)]
        for delta, pair in first.items():
            self._pairs[delta % d.base].append(pair)

    def _forward(self) -> tuple[int, dict, dict] | None:
        """Breadth-first search from (0, False) until (0, True) is discovered.

        Returns None when it never is (a tile), else ``(L, pred, depth)``:
        L is the depth of (0, True), and ``pred``/``depth`` hold each
        discovered (carry, used-nontrivial) state's first discovery and
        depth.  Layers below L are complete.
        """
        base, pairs = self.base, self._pairs
        start = (0, False)
        pred: dict[tuple[int, bool], tuple[tuple[int, bool], int, int] | None]
        pred = {start: None}
        depth = {start: 0}
        layer = [start]
        level = 0
        while layer:
            level += 1
            next_layer = []
            for state in layer:
                c, used = state
                for x, y in pairs[-c % base]:
                    new = ((c + x - y) // base, used or x != y)
                    if new not in pred:
                        pred[new] = (state, x, y)
                        depth[new] = level
                        if new == (0, True):
                            return level, pred, depth
                        next_layer.append(new)
            layer = next_layer
        return None

    def _backward(
        self, level: int, carries: set[int]
    ) -> tuple[dict[int, int], dict[int, tuple[int, int, int]]]:
        """Breadth-first search from carry 0 along reversed edges, to depth
        ``level - 1``, entering only ``carries``.

        The predecessors of c are p = b*c - x + y, taken in order of p and
        then digit order, as in the eager reverse table.  Forward-discovered
        carries lie within the bound, so ``carries`` also enforces it.
        """
        # p = b*c - (x - y) increases as x - y decreases
        steps = [(delta, x, y) for delta, (x, y) in sorted(self._first.items())[::-1]]
        dist_b = {0: 0}
        step_b: dict[int, tuple[int, int, int]] = {}
        layer = [0]
        for k in range(1, level):
            next_layer = []
            for c in layer:
                bc = self.base * c
                for delta, x, y in steps:
                    p = bc - delta
                    if p in carries and p not in dist_b:
                        dist_b[p] = k
                        step_b[p] = (x, y, c)
                        next_layer.append(p)
            layer = next_layer
        return dist_b, step_b

    def find_collision(self) -> TileWitness | None:
        """Shortest closed walk 0 -> 0 through a nontrivial edge, if any."""
        found = self._forward()
        if found is None:
            return None
        level, pred, depth = found
        dist_b, step_b = self._backward(level, {c for c, _ in pred})
        best = min(c for c, k in dist_b.items() if depth.get((c, True)) == level - k)
        return _witness(self.base, best, pred, step_b)


def _carry_bound(d: DigitSet) -> int:
    """The largest carry magnitude, checked against the state cap."""
    bound = d.span // (d.base - 1)
    if 2 * bound + 1 > MAX_AUTOMATON_STATES:
        raise ValueError(
            f"carry automaton needs {2 * bound + 1} states, over the cap "
            f"{MAX_AUTOMATON_STATES}"
        )
    return bound


def _witness(base: int, best: int, pred: dict, step_b: dict) -> TileWitness:
    """The forward path to (best, True), then the backward steps to 0."""
    left: list[int] = []
    right: list[int] = []
    state = (best, True)
    while pred[state] is not None:
        prev_state, x, y = pred[state]
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
    return TileWitness(base, tuple(left), tuple(right))


def is_tile(d: DigitSet) -> tuple[bool, TileWitness | None]:
    """Decide exactly whether d is a tile digit set.

    Returns ``(True, None)`` or ``(False, witness)`` with a shortest pair
    of distinct equal-value digit strings.  The decision covers every
    expansion level, not a truncation, and is invariant under translating
    or rescaling the digits.
    """
    witness = CarryAutomaton(d).find_collision()
    return witness is None, witness


def collision_level(d: DigitSet) -> int | None:
    """The first colliding expansion level, or None for a tile.

    The level of :func:`is_tile`'s witness, from the forward search alone.
    """
    found = CarryAutomaton(d)._forward()
    return None if found is None else found[0]


def collision_oracle(d: DigitSet) -> TileWitness | None:
    """Reference for :meth:`CarryAutomaton.find_collision`.

    Builds the forward and reverse edge tables of every carry, runs both
    searches to completion, and picks the carry of least total length,
    then least value.  Its cost tracks the span, not the reachable carries.
    """
    bound = _carry_bound(d)
    states = range(-bound, bound + 1)
    fwd: dict[int, list[tuple[int, int, int]]] = {c: [] for c in states}
    rev: dict[int, list[tuple[int, int, int]]] = {c: [] for c in states}
    for c in states:
        for x in d.digits:
            for y in d.digits:
                t = c + x - y
                if t % d.base == 0:
                    nxt = t // d.base
                    assert -bound <= nxt <= bound
                    fwd[c].append((x, y, nxt))
                    rev[nxt].append((x, y, c))
    # Forward: shortest paths over (carry, used-nontrivial-edge) pairs.
    start = (0, False)
    pred: dict[tuple[int, bool], tuple[tuple[int, bool], int, int] | None]
    pred = {start: None}
    dist_f = {start: 0}
    queue = deque([start])
    while queue:
        c, flag = queue.popleft()
        for x, y, nxt in fwd[c]:
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
        for x, y, prev in rev[c]:
            if prev not in dist_b:
                dist_b[prev] = dist_b[c] + 1
                step_b[prev] = (x, y, c)
                bqueue.append(prev)
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
