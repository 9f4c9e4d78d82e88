"""Exact tile decisions and self-replicating tiling sets.

A digit set is a tile digit set iff every level of its digit expansion is
collision free.  That infinite family of conditions reduces to a finite
reachability question: track the running carry of a pair of digit strings
with equal value.  Carries are bounded by ``span // (base - 1)``, so the
walk space is a finite automaton and the decision is exact for all levels
at once, with a two-string certificate when it fails.  The automaton is
explored on demand by two breadth-first searches, forward from carry 0
and backward into it, that each go about half the witness level deep and
stop where they meet; their cost tracks the carries within that distance,
not the span.  The eager search over every carry is kept as
``collision_oracle``.

The module also builds the decreasing chain of periodic sets obtained by
iterating ``J -> b*J + D`` from Z, finds the exponent where it stabilizes,
and turns the stable entry into a verified self-replicating tiling set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property

from .core import (
    DigitSet,
    ExpandedDigits,
    ExpansionLimitError,
    PeriodicSet,
    expand,
    frozen,
    max_expansion_level,
    residues_mod,
)

# Residue chains stay small for tiles, but guard against runaway growth on
# adversarial inputs.
MAX_CHAIN_RESIDUES = 1 << 22
# Carry automata span 2*bound + 1 states.  The cap admits base 3
# {0, 1, 2000004}, 2000005 states; its two searches discover 980 forward
# and 729 backward carries in about 1 ms, and the process peaks at 16 MB
# resident, as much as importing tilescope takes (CPython 3.11, x86-64).
MAX_AUTOMATON_STATES = 1 << 21


@frozen
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

    No table is built, and no digit pair is kept until a witness needs
    one: an edge depends on its pair only through the difference x - y, so
    carry c takes its successors (c + x - y) / b from the differences
    congruent to -c mod b, and its predecessors p = b*c - (x - y) from the
    differences within ``bound`` of b*c.  Trivial edges map carry 0 to 0,
    so only carry 0 is ever in the "no nontrivial edge yet" state, and
    after the first nontrivial step a state is a plain int carry.  Let
    f(c) be the length of the shortest walk from 0 to c starting with a
    nontrivial step, g(c) that of the shortest walk from c to 0, and
    L = f(0), the witness level.

    The search is bidirectional and layered: forward layers
    F_i = {f == i} from F_1 (the nonzero differences divisible by b, over
    b), backward layers B_j = {g == j} from B_0 = {0}, one layer per round
    on the side whose next layer is cheaper.  A walk to c followed by one
    back to 0 is a closed walk through a nontrivial edge, so
    f(c) + g(c) >= L for every c.  On a shortest closed walk
    0, c_1, ..., c_L = 0, each c_i has f <= i and g <= L - i, hence f = i
    and g = L - i.  So while rf + rb < L (rf, rb the depths searched) no
    carry has f <= rf and g <= rb, and both frontiers hold a carry of the
    walk, c_rf and c_(L-rb); at rf + rb = L, c_rf lies in F_rf and B_rb,
    and every carry in both has f = rf and g = rb.  The
    first meeting therefore gives L = rf + rb and the meeting carries
    F_rf & B_rb; a frontier that empties before any meeting means a tile.

    :meth:`find_collision` returns the witness of the eager search kept in
    :func:`collision_oracle`: the least c with f(c) + g(c) == L, reached
    by the forward path of first discovery (over (carry, used-nontrivial)
    states, digit pairs in digit order) and left by the backward path of
    first discovery (predecessors in order of p, then digit order).  The
    candidates form S = {c : f(c) + g(c) == L}, the carries on some
    shortest closed walk, with S_i = S & F_i.  S_rf is the meeting set; a
    p in F_i is in S_i iff it has an edge into S_(i+1), and a u in B_(L-i)
    is in S_i iff it has an edge from S_(i-1), by the same sum argument.
    S is closed under both searches' choices.  A carry p competing to
    discover c in S_i forward (p in F_(i-1), an edge p -> c) has
    g(p) <= g(c) + 1, so p is in S; a carry u competing to discover c
    backward (u in B_(g(c)-1), an edge c -> u) has f(u) <= f(c) + 1, so u
    is in S.  By induction on the layer, a search restricted to S reaches
    each carry of S at its full depth, from the same parent through the
    same digit pair, in the same relative order, so the two searches
    restricted to S reproduce the eager predecessors and backward steps on
    every candidate, and with them the witness.
    """

    def __init__(self, d: DigitSet):
        self.base = d.base
        self.digits = d.digits
        self.bound = _carry_bound(d)
        self.states = range(-self.bound, self.bound + 1)
        # An edge depends on its digit pair only through x - y, so both
        # searches need only the differences, ascending and by residue mod b.
        self._deltas = sorted({x - y for x in d.digits for y in d.digits})
        self._groups: list[list[int]] = [[] for _ in range(d.base)]
        for delta in self._deltas:
            self._groups[delta % d.base].append(delta)

    @cached_property
    def _first(self) -> dict[int, tuple[int, int]]:
        """The first pair (x, y) in digit order of each difference x - y.

        Pairs with one difference lead to the same state, so only the first
        counts; the witness needs it, the searches do not.
        """
        first: dict[int, tuple[int, int]] = {}
        for x in self.digits:
            for y in self.digits:
                first.setdefault(x - y, (x, y))
        return first

    @cached_property
    def _pairs(self) -> list[list[tuple[int, int]]]:
        """``_pairs[r]``: the pairs of ``_first`` with x - y = r (mod b), in digit order."""
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.base)]
        for delta, pair in self._first.items():
            pairs[delta % self.base].append(pair)
        return pairs

    def _window(self, c: int) -> range:
        """Indices in ``_deltas`` of the delta with |b*c - delta| <= bound."""
        bc, deltas = self.base * c, self._deltas
        return range(
            bisect_left(deltas, bc - self.bound), bisect_right(deltas, bc + self.bound)
        )

    def _meet(self) -> tuple[list[set[int]], list[set[int]], set[int]] | None:
        """Expand the forward and backward layers until they meet.

        Returns None for a tile, else ``(forward, backward, meet)``:
        ``forward[i]`` is F_i (``forward[0]`` is {0}, the start before any
        nontrivial step), ``backward[j]`` is B_j, and ``meet`` is
        F_rf & B_rb for the last layers of each, so L = rf + rb.
        """
        base, groups, deltas = self.base, self._groups, self._deltas
        f = {delta // base for delta in groups[0] if delta}
        b = {0}
        forward, backward = [{0}, f], [b]
        f_seen, b_seen = set(f), {0}
        while f and b:
            # cost of the next layer: frontier size times edges per carry,
            # about #deltas / b forward and #deltas / (b - 1) backward
            if len(f) * (base - 1) <= len(b) * base:
                layer = {(c + delta) // base for c in f for delta in groups[-c % base]}
                f = layer - f_seen
                f_seen |= f
                forward.append(f)
            else:
                layer = set()
                for c in b:
                    bc = base * c
                    for k in self._window(c):
                        layer.add(bc - deltas[k])
                b = layer - b_seen
                b_seen |= b
                backward.append(b)
            meet = f & b
            if meet:
                return forward, backward, meet
        return None

    def find_collision(self) -> TileWitness | None:
        """Shortest closed walk 0 -> 0 through a nontrivial edge, if any."""
        met = self._meet()
        if met is None:
            return None
        forward, backward, meet = met
        candidates = self._candidates(forward, backward, meet)
        pred = self._forward_within(candidates)
        step_b = self._backward_within(candidates)
        return _witness(self.base, min(candidates), pred, step_b)

    def _candidates(
        self, forward: list[set[int]], backward: list[set[int]], meet: set[int]
    ) -> set[int]:
        """S, the carries c with f(c) + g(c) == L, from the meeting carries."""
        base, groups, deltas = self.base, self._groups, self._deltas
        rf, level = len(forward) - 1, len(forward) + len(backward) - 2
        found = set(meet)
        layer = meet
        for i in range(rf - 1, 0, -1):
            # predecessors in F_i of the carries of S_(i+1)
            layer = {
                p
                for c in layer
                for p in (base * c - deltas[k] for k in self._window(c))
                if p in forward[i]
            }
            found |= layer
        layer = meet
        for i in range(rf + 1, level + 1):
            # successors in B_(L-i) of the carries of S_(i-1)
            layer = {
                u
                for c in layer
                for u in ((c + delta) // base for delta in groups[-c % base])
                if u in backward[level - i]
            }
            found |= layer
        return found

    def _forward_within(self, carries: set[int]) -> dict:
        """Forward search from (0, False) entering only ``carries``.

        Returns the first discovery of each, keyed by (carry, True) with
        (0, False) as the root, as in :func:`collision_oracle`.
        """
        base, pairs = self.base, self._pairs
        left = set(carries)
        root = (0, False)
        pred: dict = {root: None}
        layer = []
        for x, y in pairs[0]:
            c = (x - y) // base
            if x != y and c in left:
                left.remove(c)
                pred[(c, True)] = (root, x, y)
                layer.append(c)
        while layer:
            next_layer = []
            for c in layer:
                for x, y in pairs[-c % base]:
                    n = (c + x - y) // base
                    if n in left:
                        left.remove(n)
                        pred[(n, True)] = ((c, True), x, y)
                        next_layer.append(n)
            layer = next_layer
        return pred

    def _backward_within(self, carries: set[int]) -> dict[int, tuple[int, int, int]]:
        """Backward search from carry 0 entering only ``carries``.

        The predecessors of c are p = b*c - (x - y), taken in order of p,
        as in the eager reverse table; returns each one's first step.
        """
        deltas = self._deltas
        pairs = [self._first[delta] for delta in deltas]
        left = carries - {0}
        step_b: dict[int, tuple[int, int, int]] = {}
        layer = [0]
        while layer:
            next_layer = []
            for c in layer:
                bc = self.base * c
                # p = b*c - delta increases as delta decreases
                for k in reversed(self._window(c)):
                    p = bc - deltas[k]
                    if p in left:
                        left.remove(p)
                        step_b[p] = (*pairs[k], c)
                        next_layer.append(p)
            layer = next_layer
        return step_b


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

    The level of :func:`is_tile`'s witness, from where the two searches
    meet, without rebuilding the witness.
    """
    met = CarryAutomaton(d)._meet()
    return None if met is None else len(met[0]) + len(met[1]) - 2


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


@frozen
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
