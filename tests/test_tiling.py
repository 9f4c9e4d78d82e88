"""Tile decisions, witness certificates, chains, and tiling sets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_expand, digit_sets
from tilescope import (
    CarryAutomaton,
    DigitSet,
    PeriodicSet,
    collision_level,
    collision_oracle,
    is_tile,
    is_tile_oracle,
    replicating_chain,
    self_replicating_tiling,
    stabilization_exponent,
    tile_measure,
    verify_self_replicating,
)
from tilescope import tiling
from tilescope.cli import enumerate_normalized
from tilescope.tiling import MAX_AUTOMATON_STATES, _searches

TWELVE = (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)


def contains_all(big: PeriodicSet, small: PeriodicSet) -> bool:
    period = math.lcm(big.period, small.period)
    return set(small.expand_to(period)) <= set(big.expand_to(period))


class TestIsTile:
    def test_product_form_is_tile(self):
        assert is_tile(DigitSet(4, (0, 1, 8, 9))) == (True, None)

    @pytest.mark.parametrize("base", range(2, 10))
    def test_standard_sets_are_tiles(self, base):
        assert is_tile(DigitSet(base, tuple(range(base))))[0]

    def test_collision_witness(self):
        tile, witness = is_tile(DigitSet(4, (0, 1, 2, 5)))
        assert not tile
        assert witness.is_valid_for(DigitSet(4, (0, 1, 2, 5)))
        assert witness.level == 2 and witness.value == 5
        assert sorted([witness.left, witness.right]) == [(1, 1), (5, 0)]

    def test_witness_deterministic(self):
        d = DigitSet(5, (0, 1, 2, 3, 7))
        assert is_tile(d) == is_tile(d)

    def test_translation_and_scale_invariant(self):
        assert is_tile(DigitSet(4, (3, 5, 19, 21)))[0]  # 3 + 2*{0,1,8,9}
        assert not is_tile(DigitSet(4, (0, 2, 4, 10)))[0]  # 2*{0,1,2,5}

    def test_exhaustive_base3_matches_oracle(self):
        for digits in enumerate_normalized(3, 9):
            d = DigitSet(3, digits)
            assert is_tile(d)[0] == is_tile_oracle(d, 7), digits

    @settings(max_examples=60)
    @given(digit_sets(max_base=5, max_digit=24))
    def test_matches_truncated_oracle(self, d):
        tile, witness = is_tile(d)
        if tile:
            assert is_tile_oracle(d, 5)
        else:
            assert not is_tile_oracle(d, witness.level)


def signed_digit_sets(max_base=12, reach=40):
    """Digit sets with negative, translated and non-normalized digits."""
    return st.integers(2, max_base).flatmap(
        lambda b: st.tuples(
            st.lists(st.integers(-reach, reach), min_size=b, max_size=b, unique=True),
            st.integers(-50, 50),
            st.integers(1, 3),
        ).map(lambda t: DigitSet(b, tuple(t[1] + t[2] * x for x in t[0])))
    )


def full_backward(d: DigitSet) -> tuple[dict, dict]:
    """Backward search from carry 0 over every carry, from the edge definition.

    The predecessors of c are the carries p = b*c - x + y within the bound,
    taken in order of p, then x, then y.
    """
    bound = d.span // (d.base - 1)
    dist, step, layer, k = {0: 0}, {}, [0], 0
    while layer:
        k += 1
        next_layer = []
        for c in layer:
            preds = sorted(
                (d.base * c - x + y, x, y) for x in d.digits for y in d.digits
            )
            for p, x, y in preds:
                if abs(p) <= bound and p not in dist:
                    dist[p], step[p] = k, (x, y, c)
                    next_layer.append(p)
        layer = next_layer
    return dist, step


def full_forward(d: DigitSet) -> tuple[dict, dict]:
    """Forward search over (carry, used-nontrivial) from (0, False), to completion.

    The edges of carry c are the pairs (x, y) with b | c + x - y, taken in
    digit order.  Returns each state's first discovery and its depth.
    """
    start = (0, False)
    pred, depth, layer, k = {start: None}, {start: 0}, [start], 0
    while layer:
        k += 1
        next_layer = []
        for state in layer:
            c, used = state
            for x in d.digits:
                for y in d.digits:
                    if (c + x - y) % d.base == 0:
                        new = ((c + x - y) // d.base, used or x != y)
                        if new not in pred:
                            pred[new], depth[new] = (state, x, y), k
                            next_layer.append(new)
        layer = next_layer
    return pred, depth


def wide_digit_sets():
    """Digit sets in bases 2-6 with spans 10^3-10^5, half with a shared residue."""
    return st.tuples(
        st.integers(2, 6), st.integers(1_000, 100_000), st.randoms(use_true_random=False)
    ).map(lambda t: _wide_set(*t))


def _wide_set(base, span, rng):
    digits = {0, span}
    if base > 2 and rng.random() < 0.5:  # a digit congruent to the span collides
        digits.add(span % base + base * rng.randrange(span // base))
    while len(digits) < base:
        digits.add(rng.randrange(span))
    return DigitSet(base, tuple(digits))


# the non-tiles of passes 0-1 of the analyze-wide benchmark under seed 21
WIDE_NON_TILES = [
    (0, 2291, 10_001),
    (0, 11_251, 20_002),
    (0, 44_029, 60_001),
    (0, 12_085, 20_002),
    (0, 17_014, 60_001),
    (0, 4_478, 10_001),
]


class TestOnDemandAutomaton:
    def check_against_oracle(self, d):
        w = collision_oracle(d)
        assert is_tile(d) == (w is None, w)
        assert collision_level(d) == (None if w is None else w.level)

    @settings(max_examples=300, deadline=None)
    @given(signed_digit_sets())
    def test_witness_matches_oracle(self, d):
        self.check_against_oracle(d)

    # the last three are where collision_level's level-2 exit settles most sets
    @pytest.mark.parametrize("base, bound", [(3, 30), (4, 14), (5, 14), (6, 12), (7, 12)])
    def test_exhaustive_witness_matches_oracle(self, base, bound):
        for digits in enumerate_normalized(base, bound):
            self.check_against_oracle(DigitSet(base, digits))

    @settings(max_examples=200, deadline=None)
    @given(signed_digit_sets(max_base=7, reach=25))
    def test_restricted_backward_search(self, d):
        # S, the carries with f + g == L, holds every witness candidate and
        # its competitors in both searches; there the searches run on S
        # alone must agree with the full ones, and the layers that met must
        # be the full searches' layers.
        automaton = CarryAutomaton(d)
        met = automaton._meet()
        full_pred, full_depth = full_forward(d)
        full_dist, full_step = full_backward(d)
        if met is None:
            assert (0, True) not in full_depth
            return
        forward, backward, meet = met
        level = len(forward) + len(backward) - 2
        assert full_depth[(0, True)] == level
        for i, layer in enumerate(forward[1:], 1):
            assert layer == {c for (c, used), k in full_depth.items() if used and k == i}
        for j, layer in enumerate(backward):
            assert layer == {c for c, k in full_dist.items() if k == j}
        s = automaton._candidates(forward, backward, meet)
        assert s == {
            c
            for (c, used), k in full_depth.items()
            if used and c in full_dist and k + full_dist[c] == level
        }
        pred, _, step, _ = _searches(d.base, d.digits, sorted(s))
        assert len(pred) == len(s) + 1 and len(step) == len(s) - 1
        for c in s:
            assert pred[(c, True)] == full_pred[(c, True)], c
            assert step.get(c) == full_step.get(c), c
        # over every carry, the oracle's searches are the edge definition's
        bound = automaton.bound
        searched = _searches(d.base, d.digits, range(-bound, bound + 1))
        assert searched == (full_pred, full_depth, full_step, full_dist)

    def test_wide_three_digit_set(self):
        d = DigitSet(3, (0, 1, 1_000_002))
        assert len(CarryAutomaton(d).states) == 1_000_003
        tile, witness = is_tile(d)
        assert not tile and witness.is_valid_for(d)
        assert witness.level == collision_level(d) == 14

    def test_cap_checked_by_every_entry(self):
        over_cap = [
            DigitSet(3, (0, 1, 1 << 22)),
            # complete residue systems, which collision_level's digit exit
            # would call tiles: the state cap and the digit-pair cap come first
            DigitSet(3, (0, 1, (1 << 22) + 1)),
            DigitSet(1449, tuple(range(1449))),
        ]
        for d in over_cap:
            for fn in (is_tile, collision_level, collision_oracle):
                with pytest.raises(ValueError, match="carry automaton needs"):
                    fn(d)

    def test_automaton_only_past_the_digit_exits(self, monkeypatch):
        # collision_level reads complete residue systems (tiles) and level-2
        # collisions from the digits; only the other sets build an automaton
        built = []
        init = CarryAutomaton.__init__

        def counting(automaton, d):
            built.append(d.digits)
            init(automaton, d)

        monkeypatch.setattr(CarryAutomaton, "__init__", counting)
        corpus = [DigitSet(6, digits) for digits in enumerate_normalized(6, 12)]
        for d in corpus:
            collision_level(d)
        past_exits = [
            d.digits
            for d in corpus
            if sorted(x % 6 for x in d.digits) != list(range(6)) and is_tile_oracle(d, 2)
        ]
        assert built == past_exits
        assert 0 < len(built) < len(corpus) == 786

    @settings(max_examples=8, deadline=None)
    @given(wide_digit_sets())
    def test_wide_span_matches_oracle(self, d):
        # at spans of 10^3-10^5 the two searches meet far from either end
        self.check_against_oracle(d)

    @pytest.mark.parametrize("digits", WIDE_NON_TILES)
    def test_wide_non_tiles_match_oracle(self, digits):
        self.check_against_oracle(DigitSet(3, digits))

    def test_near_the_state_cap(self):
        d = DigitSet(3, (0, 1, 2_000_004))
        assert len(CarryAutomaton(d).states) == 2_000_005 < MAX_AUTOMATON_STATES
        tile, witness = is_tile(d)
        assert not tile and witness.is_valid_for(d)
        assert witness.level == collision_level(d) == 14

    def test_over_the_cap_before_any_search(self, monkeypatch):
        def no_search(self):
            raise AssertionError("search started over the cap")

        monkeypatch.setattr(CarryAutomaton, "_meet", no_search)
        d = DigitSet(2, (0, 2_097_151))
        for fn in (is_tile, collision_level):
            with pytest.raises(ValueError, match="carry automaton needs 4194303 states"):
                fn(d)

    def test_digit_pairs_over_the_cap_before_any_search(self, monkeypatch):
        def no_search(self):
            raise AssertionError("search started over the cap")

        monkeypatch.setattr(CarryAutomaton, "_meet", no_search)
        # 1448**2 pairs fit the cap and 1449**2 do not, whatever the span
        assert tiling._carry_bound(DigitSet(1448, tuple(range(1448)))) == 1
        d = DigitSet(1449, tuple(range(1449)))
        for fn in (is_tile, collision_level):
            with pytest.raises(
                ValueError,
                match="carry automaton needs 2099601 digit pairs, over the cap 2097152",
            ):
                fn(d)

    def test_witness_search_skips_the_range(self, monkeypatch):
        # the witness is rebuilt from S alone, never from all 1 000 003 states
        calls = []

        def recording(base, digits, states):
            calls.append(states)
            return _searches(base, digits, states)

        monkeypatch.setattr(tiling, "_searches", recording)
        d = DigitSet(3, (0, 1, 1_000_002))
        automaton = CarryAutomaton(d)
        assert not is_tile(d)[0]
        assert calls == [sorted(automaton._candidates(*automaton._meet()))]
        assert len(calls[0]) < 5_000

    def test_search_size_tracks_the_walk(self):
        # 1 000 003 states, of which the two searches discover under 5 000
        forward, backward, _ = CarryAutomaton(DigitSet(3, (0, 1, 1_000_002)))._meet()
        assert sum(map(len, forward)) + sum(map(len, backward)) < 5_000


class TestIsTileOracle:
    def test_examples(self):
        assert is_tile_oracle(DigitSet(4, (0, 1, 8, 9)), 6)
        assert not is_tile_oracle(DigitSet(4, (0, 1, 2, 5)), 2)
        assert is_tile_oracle(DigitSet(2, (0, 1)), 10)

    @pytest.mark.parametrize("k_max", [0, -5])
    def test_level_below_one_rejected(self, k_max):
        with pytest.raises(ValueError, match="level must be >= 1"):
            is_tile_oracle(DigitSet(4, (0, 1, 8, 9)), k_max)


class TestWitnessMinimality:
    def test_witness_length_is_first_colliding_level(self):
        from tilescope import expand

        for digits in enumerate_normalized(4, 12):
            d = DigitSet(4, digits)
            tile, witness = is_tile(d)
            if tile:
                continue
            first = next(k for k in range(1, 9) if expand(d, k).collisions)
            assert witness.level == first, digits
            assert witness.is_valid_for(d)


class TestReplicatingChain:
    def test_product_form_chain(self):
        chain = replicating_chain(DigitSet(4, (0, 1, 8, 9)), 2)
        assert chain.entries[0] == PeriodicSet.integers()
        assert chain.entries[1] == PeriodicSet(4, (0, 1))
        assert chain.entries[2] == PeriodicSet(4, (0, 1))

    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_standard_chain_is_integers(self, base):
        chain = replicating_chain(DigitSet(base, tuple(range(base))), 4)
        assert all(e == PeriodicSet.integers() for e in chain.entries)

    def test_twelve_digit_first_entry(self):
        chain = replicating_chain(DigitSet(12, TWELVE), 1)
        entry = chain.entries[1]
        # canonical form of {0,1,4,5,8,9} + 12Z
        assert entry == PeriodicSet(4, (0, 1))
        assert set(entry.expand_to(12)) == {0, 1, 4, 5, 8, 9}

    @settings(max_examples=40)
    @given(digit_sets(max_base=4, max_digit=16), st.integers(2, 4))
    def test_nested_with_nonincreasing_density(self, d, k):
        chain = replicating_chain(d, k)
        for bigger, smaller in zip(chain.entries, chain.entries[1:]):
            assert contains_all(bigger, smaller)
            assert smaller.density() <= bigger.density()

    @settings(max_examples=40)
    @given(digit_sets(max_base=4, max_digit=16), st.integers(1, 4))
    def test_matches_direct_expansion_residues(self, d, k):
        chain = replicating_chain(d, k)
        direct = PeriodicSet.from_values(
            brute_expand(d.digits, d.base, k), d.base**k
        ).reduce()
        assert chain.entries[k] == direct


class TestStabilization:
    def test_product_form(self):
        assert stabilization_exponent(DigitSet(4, (0, 1, 8, 9)), 8) == 1

    def test_twelve_digit_set(self):
        assert stabilization_exponent(DigitSet(12, TWELVE), 8) == 1

    @pytest.mark.parametrize("base", [2, 3, 5, 8])
    def test_standard_sets(self, base):
        assert stabilization_exponent(DigitSet(base, tuple(range(base))), 8) == 1

    def test_two_stage_set(self):
        assert stabilization_exponent(DigitSet(4, (0, 1, 32, 33)), 8) == 2

    def test_bound_respected(self):
        assert stabilization_exponent(DigitSet(4, (0, 1, 32, 33)), 1) is None


class TestSelfReplicatingTiling:
    def test_product_form(self):
        assert self_replicating_tiling(DigitSet(4, (0, 1, 8, 9)), 1) == PeriodicSet(
            4, (0, 1)
        )

    def test_twelve_digit_set(self):
        j = self_replicating_tiling(DigitSet(12, TWELVE), 1)
        assert set(j.expand_to(12)) == {0, 1, 4, 5, 8, 9}
        assert 0 in j

    def test_standard_binary(self):
        assert self_replicating_tiling(DigitSet(2, (0, 1)), 1) == PeriodicSet.integers()

    def test_rejects_non_stabilizing_level(self):
        with pytest.raises(ValueError, match="not a stabilization exponent"):
            self_replicating_tiling(DigitSet(4, (0, 1, 32, 33)), 1)


class TestVerifySelfReplicating:
    def test_product_form(self):
        assert verify_self_replicating(PeriodicSet(4, (0, 1)), DigitSet(4, (0, 1, 8, 9)))

    def test_standard(self):
        assert verify_self_replicating(PeriodicSet.integers(), DigitSet(4, (0, 1, 2, 3)))

    def test_wrong_pair(self):
        assert not verify_self_replicating(
            PeriodicSet(4, (0, 1)), DigitSet(4, (0, 1, 2, 3))
        )


class TestTileMeasure:
    def test_examples(self):
        assert tile_measure(PeriodicSet(4, (0, 1))) == 2
        assert tile_measure(PeriodicSet.integers()) == 1
        assert tile_measure(PeriodicSet(12, (0, 1, 4, 5, 8, 9))) == 2
        assert tile_measure(PeriodicSet(3, (0, 2))) == Fraction(3, 2)


class TestTilesEndToEnd:
    def test_base_six_equivalence(self):
        # tile status, the truncated oracle, and decomposition existence
        # agree on a second composite base
        from tilescope import expand, skew_decompose

        for digits in enumerate_normalized(6, 10):
            d = DigitSet(6, digits)
            tile = is_tile(d)[0]
            assert tile == is_tile_oracle(d, 6), digits
            m_found = None
            for m in (1, 2, 3, 4):
                level = expand(d, m)
                if level.collisions:
                    break
                if skew_decompose(level.values, 6**m, 1) is not None:
                    m_found = m
                    break
            assert tile == (m_found is not None), digits

    def test_corpus_tiling_sets_verify(self):
        for digits in enumerate_normalized(4, 12):
            d = DigitSet(4, digits)
            if not is_tile(d)[0]:
                continue
            m = stabilization_exponent(d, 8)
            assert m is not None, digits
            j = self_replicating_tiling(d, m)
            assert verify_self_replicating(j, d), digits
            assert 0 in j
            # densities settle once the chain stabilizes
            chain = replicating_chain(d, m + 2)
            assert chain.entries[m] == chain.entries[m + 1] == chain.entries[m + 2]
