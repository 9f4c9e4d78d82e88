"""Tile decisions, witness certificates, chains, and tiling sets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_expand
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
from tilescope.cli import enumerate_normalized

TWELVE = (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)


def digit_sets(max_base=5, max_digit=24):
    return st.integers(2, max_base).flatmap(
        lambda b: st.lists(
            st.integers(0, max_digit), min_size=b, max_size=b, unique=True
        ).map(lambda ds: DigitSet(b, tuple(ds)))
    )


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
    @given(digit_sets())
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


class TestOnDemandAutomaton:
    def check_against_oracle(self, d):
        w = collision_oracle(d)
        assert is_tile(d) == (w is None, w)
        assert collision_level(d) == (None if w is None else w.level)

    @settings(max_examples=300, deadline=None)
    @given(signed_digit_sets())
    def test_witness_matches_oracle(self, d):
        self.check_against_oracle(d)

    @pytest.mark.parametrize("base, bound", [(3, 30), (4, 14)])
    def test_exhaustive_witness_matches_oracle(self, base, bound):
        for digits in enumerate_normalized(base, bound):
            self.check_against_oracle(DigitSet(base, digits))

    @settings(max_examples=200, deadline=None)
    @given(signed_digit_sets(max_base=7, reach=25))
    def test_restricted_backward_search(self, d):
        # Carries with fd + dist_b <= L, fd the forward depth under either
        # flag, hold every witness candidate and its competitors; there the
        # restricted backward search must agree with the full one.
        automaton = CarryAutomaton(d)
        found = automaton._forward()
        if found is None:
            return
        level, pred, depth = found
        dist, step = automaton._backward(level, {c for c, _ in pred})
        full_dist, full_step = full_backward(d)
        fd: dict[int, int] = {}
        for (c, _), k in depth.items():
            fd[c] = min(fd.get(c, k), k)
        assert max(dist.values()) <= level - 1
        for c in fd:
            if c in full_dist and fd[c] + full_dist[c] <= level:
                assert dist[c] == full_dist[c], c
                assert step.get(c) == full_step.get(c), c
        for c, k in dist.items():
            assert k >= full_dist[c]

    def test_wide_three_digit_set(self):
        d = DigitSet(3, (0, 1, 1_000_002))
        assert len(CarryAutomaton(d).states) == 1_000_003
        tile, witness = is_tile(d)
        assert not tile and witness.is_valid_for(d)
        assert witness.level == collision_level(d) == 14

    def test_cap_checked_by_every_entry(self):
        d = DigitSet(3, (0, 1, 1 << 22))
        for fn in (is_tile, collision_level, collision_oracle):
            with pytest.raises(ValueError, match="carry automaton needs"):
                fn(d)


class TestIsTileOracle:
    def test_examples(self):
        assert is_tile_oracle(DigitSet(4, (0, 1, 8, 9)), 6)
        assert not is_tile_oracle(DigitSet(4, (0, 1, 2, 5)), 2)
        assert is_tile_oracle(DigitSet(2, (0, 1)), 10)


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
