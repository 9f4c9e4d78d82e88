"""Digit sets, expansions, residue algebra, and periodic sets."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_expand, digit_sets
import tilescope.core
from tilescope import (
    DigitSet,
    ExpansionLimitError,
    PeriodicSet,
    approx,
    approx_oracle,
    covers,
    direct_sum_complete,
    expand,
    is_tile_oracle,
    max_expansion_level,
    measure_report,
    normalize,
    residues_mod,
    truncated_spectrum,
)
from tilescope.cli import main
from tilescope.core import _check_level
from tilescope.geometry import iter_covers
from tilescope.report import _MEASURE_VALUE_CAP, default_k_max


def periodic_sets(max_period=48):
    return st.integers(1, max_period).flatmap(
        lambda p: st.sets(st.integers(0, p - 1), min_size=1, max_size=p).map(
            lambda rs: PeriodicSet(p, tuple(rs))
        )
    )


class TestDigitSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            DigitSet(3, (0, 1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 digits"):
            DigitSet(4, (0, 1, 2))

    def test_rejects_tiny_base(self):
        with pytest.raises(ValueError, match="base"):
            DigitSet(1, (0,))

    def test_sorts_digits(self):
        assert DigitSet(3, (7, 0, 2)).digits == (0, 2, 7)


class TestNormalize:
    def test_already_normalized(self):
        d, offset, scale = normalize([0, 1, 8, 9], 4)
        assert (d.digits, offset, scale) == ((0, 1, 8, 9), 0, 1)

    def test_shift_and_scale(self):
        d, offset, scale = normalize([2, 4, 18, 20], 4)
        assert (d.digits, offset, scale) == ((0, 1, 8, 9), 2, 2)

    def test_shift_only(self):
        d, offset, scale = normalize([5, 6], 2)
        assert (d.digits, offset, scale) == ((0, 1), 5, 1)

    @given(digit_sets(max_base=6, max_digit=30))
    def test_idempotent_and_reconstructs(self, d):
        norm, offset, scale = normalize(list(d.digits), d.base)
        assert norm.is_normalized
        again, off2, sc2 = normalize(list(norm.digits), d.base)
        assert again == norm and off2 == 0 and sc2 == 1
        assert tuple(offset + scale * x for x in norm.digits) == d.digits


class TestExpand:
    def test_standard_binary(self):
        got = expand(DigitSet(2, (0, 1)), 3)
        assert got.values == tuple(range(8))
        assert got.collisions == 0

    def test_level_two_product_form(self):
        got = expand(DigitSet(4, (0, 1, 8, 9)), 2)
        assert list(got.values) == brute_expand([0, 1, 8, 9], 4, 2)
        assert got.values == (
            0, 1, 4, 5, 8, 9, 12, 13, 32, 33, 36, 37, 40, 41, 44, 45,
        )
        assert got.collisions == 0

    def test_collisions_counted(self):
        got = expand(DigitSet(4, (0, 1, 2, 5)), 2)
        assert got.collisions == 16 - len(brute_expand([0, 1, 2, 5], 4, 2))
        assert got.collisions >= 1

    def test_level_one_is_digit_set(self):
        d = DigitSet(4, (0, 1, 2, 5))
        got = expand(d, 1)
        assert got.values == d.digits and got.collisions == 0

    @given(digit_sets(max_base=4, max_digit=12), st.integers(1, 4))
    def test_matches_brute_enumeration(self, d, k):
        assert list(expand(d, k).values) == brute_expand(d.digits, d.base, k)

    @given(digit_sets(max_base=4, max_digit=12), st.integers(2, 5))
    def test_collisions_never_heal(self, d, k):
        assert len(expand(d, k).values) <= d.base * len(expand(d, k - 1).values)

    def test_level_cap(self):
        assert max_expansion_level(4) == 12
        with pytest.raises(ExpansionLimitError, match="at most 12 levels"):
            expand(DigitSet(4, (0, 1, 2, 3)), 13)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError, match=">= 1"):
            expand(DigitSet(2, (0, 1)), 0)

    def test_negative_digits(self):
        got = expand(DigitSet(2, (-1, 0)), 2)
        assert got.values == (-3, -2, -1, 0) and got.collisions == 0


class TestExpandFromBelow:
    @given(digit_sets(max_base=4, max_digit=12), st.integers(1, 4))
    def test_each_level_from_the_one_below(self, d, top):
        level = None
        for m in range(1, top + 1):
            level = expand(d, m, below=level)
            assert list(level.values) == brute_expand(d.digits, d.base, m)
            assert level == expand(d, m)

    def test_rejects_a_higher_level_below(self):
        d = DigitSet(2, (0, 1))
        with pytest.raises(ValueError, match="cannot build level 2 from level 3"):
            expand(d, 2, below=expand(d, 3))

    def test_cap_checked_at_the_level_asked(self):
        d = DigitSet(5, (0, 1, 2, 3, 4))
        below = expand(d, max_expansion_level(5))
        with pytest.raises(ExpansionLimitError, match="level 11 too large for base 5"):
            expand(d, 11, below=below)


UNIT = DigitSet(2, (0, 1))

# every entry point that takes a level -> (a call at a level, or the argv
# the level is appended to; the largest level of base 2 its cap lets through)
LEVEL_ENTRY_POINTS = {
    "expand": (lambda k: expand(UNIT, k), 24),  # 2**24 terms
    "iter_covers": (lambda k: list(iter_covers(UNIT, k)), 24),
    "covers": (lambda k: covers(UNIT, k), 24),
    "approx": (lambda k: approx(UNIT, k), 24),
    "measure_report": (lambda k: measure_report(UNIT, k), 24),
    "is_tile_oracle": (lambda k: is_tile_oracle(UNIT, k), 24),
    "approx_oracle": (lambda k: approx_oracle(UNIT, k), 24),
    # 2**10 spectrum points
    "truncated_spectrum": (lambda k: truncated_spectrum([0, 1], 2, [0, 1], k), 10),
    "analyze_kmax": (["analyze", "-b", "2", "-d", "0,1", "--kmax"], 24),
    "render_k": (["render", "-b", "2", "-d", "0,1", "-k"], 24),
}


class TestLevelRule:
    """``core._check_level`` bounds every level of every command, with one message each way."""

    @pytest.mark.parametrize("step", ["0", "-1", "over"])
    @pytest.mark.parametrize("entry", list(LEVEL_ENTRY_POINTS))
    def test_level_rule(self, capsys, entry, step):
        call, top = LEVEL_ENTRY_POINTS[entry]
        if step == "over":
            level = top + 1
            error = ExpansionLimitError
            message = f"level {level} too large for base 2: at most {top} levels fit the work cap"
        else:
            level = int(step)
            error = ValueError
            message = f"level must be >= 1, got {level}"
        if isinstance(call, list):  # a command: exit 2 and one error line
            code = main([*call, str(level)])
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {message}\n")
        else:
            with pytest.raises(error) as raised:
                call(level)
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "entry", [name for name, (call, _) in LEVEL_ENTRY_POINTS.items() if callable(call)]
    )
    def test_huge_level_refused_without_its_power(self, entry):
        call, top = LEVEL_ENTRY_POINTS[entry]
        start = time.perf_counter()
        with pytest.raises(ExpansionLimitError, match=f"at most {top} levels fit"):
            call(10**11)
        assert time.perf_counter() - start < 2

    def test_work_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(tilescope.core, "MAX_EXPANSION_TERMS", 3**3)
        assert max_expansion_level(3) == 3
        _check_level(3, 3)
        with pytest.raises(ExpansionLimitError, match="at most 3 levels fit"):
            _check_level(3, 4)

    def test_default_measure_levels(self):
        for base in [*range(2, 201), 20_001]:
            # the loop default_k_max replaced
            k = 1
            while base ** (k + 1) <= _MEASURE_VALUE_CAP and k < 6:
                k += 1
            assert default_k_max(base) == k, base


class TestResiduesMod:
    def test_product_form(self):
        assert residues_mod([0, 1, 8, 9], 4) == (0, 1)

    def test_twelve_digit_set(self):
        big = [0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80]
        assert residues_mod(big, 12) == (0, 1, 4, 5, 8, 9)

    def test_empty(self):
        assert residues_mod([], 5) == ()


class TestDirectSumComplete:
    def test_product_form_factors(self):
        assert direct_sum_complete([0, 1], [0, 2], 4)

    def test_twelve_digit_factors(self):
        assert direct_sum_complete([0, 1, 4, 8, 9, 17], [0, 6], 12)

    def test_collision(self):
        assert not direct_sum_complete([0, 2], [0, 2], 4)

    @given(
        st.sets(st.integers(-10, 10), min_size=1, max_size=4),
        st.sets(st.integers(-10, 10), min_size=1, max_size=4),
        st.integers(1, 16),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    def test_symmetric_and_translation_invariant(self, a, b, p, ta, tb):
        base = direct_sum_complete(a, b, p)
        assert direct_sum_complete(b, a, p) == base
        assert direct_sum_complete([x + ta for x in a], [y + tb for y in b], p) == base


class TestPeriodicSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PeriodicSet(4, (0, 4))

    def test_density_of_integers(self):
        assert PeriodicSet.integers().density() == 1

    def test_density_half(self):
        assert PeriodicSet(4, (0, 1)).density() == Fraction(1, 2)

    def test_density_survives_representation(self):
        assert PeriodicSet(16, (0, 1, 4, 5, 8, 9, 12, 13)).density() == Fraction(1, 2)

    def test_reduce_collapses_cosets(self):
        assert PeriodicSet(16, (0, 1, 4, 5, 8, 9, 12, 13)).reduce() == PeriodicSet(
            4, (0, 1)
        )

    def test_reduce_fixed_point(self):
        assert PeriodicSet(4, (0, 1)).reduce() == PeriodicSet(4, (0, 1))

    def test_reduce_to_integers(self):
        assert PeriodicSet(6, tuple(range(6))).reduce() == PeriodicSet.integers()

    @given(periodic_sets())
    def test_reduce_idempotent_and_faithful(self, ps):
        small = ps.reduce()
        assert small.reduce() == small
        assert small.density() == ps.density()
        assert all((n in small) == (n in ps) for n in range(-60, 60))

    @given(periodic_sets(max_period=24), st.integers(1, 4))
    def test_expand_to_round_trips(self, ps, factor):
        period = ps.period * factor
        lifted = PeriodicSet(period, ps.expand_to(period))
        assert lifted.reduce() == ps.reduce()
