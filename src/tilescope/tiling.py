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
not the span.  The witness comes from one pair of eager searches,
``_searches``: ``find_collision`` runs it on the carries of the shortest
closed walks, and the reference ``oracles.collision_oracle`` on every
carry.

The module also builds the decreasing chain of periodic sets obtained by
iterating ``J -> b*J + D`` from Z, finds the exponent where it stabilizes,
and turns the stable entry into a verified self-replicating tiling set.
No command builds the chain: ``least_stage`` settles the stage, and the
chain is its independent check in the tests.  It stays here, beside the
brute-force ``is_tile_oracle``, since the benchmark binds both in this
module; the other references live in ``oracles``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Sequence

from .core import DigitSet, PeriodicSet, _check_level, expand, frozen

# Residue chains stay small for tiles, but guard against runaway growth on
# adversarial inputs.
MAX_CHAIN_RESIDUES = 1 << 22
# Carry automata span 2*bound + 1 states.  The cap admits base 3
# {0, 1, 2000004}, 2000005 states; its two searches discover 980 forward
# and 729 backward carries in about 1 ms, and the process peaks at 16 MB
# resident, as much as importing tilescope takes (CPython 3.11, x86-64).
# The same cap bounds the b**2 digit pairs, whose differences the automaton
# and the witness searches build, so b <= 1448: `analyze` of a random
# base-1448 set with digits up to 10**9 takes about 2 s and 270 MB.
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
    range, and the cap bounds its length and the base**2 digit pairs.  An
    edge (c, x, y) -> c' exists when c + x - y is divisible by the base,
    with c' = (c + x - y) // base; it is nontrivial when x != y.  A
    collision in some expansion level exists iff a closed walk 0 -> 0 uses
    at least one nontrivial edge.

    The meeting search builds no table and keeps no digit pair: an edge
    depends on its pair only through the difference x - y, so carry c
    takes its successors (c + x - y) / b from the differences congruent
    to -c mod b, and its predecessors p = b*c - (x - y) from the
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
    ``oracles.collision_oracle``: the least c with f(c) + g(c) == L, reached
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
    same digit pair, in the same relative order.  So :func:`_searches` run
    on S alone, the oracle's own searches, gives the eager predecessors
    and backward steps on every candidate, and with them the witness.
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
        """Shortest closed walk 0 -> 0 through a nontrivial edge, if any.

        Its oracle is ``oracles.collision_oracle``, which must return the
        same witness.
        """
        met = self._meet()
        if met is None:
            return None
        carries = sorted(self._candidates(*met))
        pred, _, step_b, _ = _searches(self.base, self.digits, carries)
        return _witness(self.base, carries[0], pred, step_b)

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


def _carry_bound(d: DigitSet) -> int:
    """The largest carry magnitude, once the states and digit pairs pass the cap."""
    bound = d.span // (d.base - 1)
    if 2 * bound + 1 > MAX_AUTOMATON_STATES:
        raise ValueError(
            f"carry automaton needs {2 * bound + 1} states, over the cap "
            f"{MAX_AUTOMATON_STATES}"
        )
    if d.base**2 > MAX_AUTOMATON_STATES:
        raise ValueError(
            f"carry automaton needs {d.base**2} digit pairs, over the cap "
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


def _searches(
    base: int, digits: tuple[int, ...], states: Sequence[int]
) -> tuple[dict, dict, dict, dict]:
    """The eager forward and backward searches over the carries ``states``.

    ``states`` is ascending and holds carry 0; edges to carries outside it
    are dropped.  Builds the forward and reverse edge tables between them,
    digit pairs in digit order, then searches breadth first over (carry,
    used-nontrivial-edge) pairs from (0, False), and backward from carry 0
    along any edges, predecessors in order of carry.  Returns
    ``(pred, dist_f, step_b, dist_b)``: each forward state's first
    discovery and depth, and each carry's first step towards 0 and its
    distance.  ``oracles.collision_oracle`` runs it on every carry,
    :meth:`CarryAutomaton.find_collision` on the candidates S alone.
    """
    # carry c takes the pairs with x - y = -c (mod b), in digit order
    groups: list[list[tuple[int, int]]] = [[] for _ in range(base)]
    for x in digits:
        for y in digits:
            groups[(x - y) % base].append((x, y))
    fwd: dict[int, list[tuple[int, int, int]]] = {c: [] for c in states}
    rev: dict[int, list[tuple[int, int, int]]] = {c: [] for c in states}
    for c in states:
        for x, y in groups[-c % base]:
            nxt = (c + x - y) // base
            if nxt in rev:
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
    return pred, dist_f, step_b, dist_b


def is_tile_oracle(d: DigitSet, k_max: int) -> bool:
    """Brute-force check that levels 1..k_max are collision free.

    Independent of the automaton: enumerates distinct expansion values
    level by level.  Collisions never heal, so the loop stops at the first
    shortfall.  The reference for :func:`is_tile` on truncations.
    """
    _check_level(d.base, k_max)
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
    j = PeriodicSet.from_values(expand(d, m).values, d.base**m).reduce()
    if not verify_self_replicating(j, d):
        raise ValueError(f"m={m} is not a stabilization exponent for {list(d.digits)}")
    return j


def verify_self_replicating(j: PeriodicSet, d: DigitSet) -> bool:
    """Exact check that b*J + D equals J: one chain step, in canonical form."""
    return _chain_step(d, j) == j.reduce()

