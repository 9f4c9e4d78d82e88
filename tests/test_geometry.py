"""Interval covers, measure convergence, and plot emission."""

import json
import pathlib
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digit_sets
from tilescope import (
    DigitSet,
    ExpansionLimitError,
    IntervalUnion,
    PeriodicSet,
    approx,
    approx_oracle,
    covers,
    hull,
    intervals_json,
    intervals_json_text,
    measure_report,
    tower_svg,
)


class TestHull:
    def test_unit_interval(self):
        assert hull(DigitSet(2, (0, 1))) == (0, 1)

    def test_product_form(self):
        assert hull(DigitSet(4, (0, 1, 8, 9))) == (0, 3)

    def test_standard(self):
        assert hull(DigitSet(4, (0, 1, 2, 3))) == (0, 1)

    def test_unnormalized(self):
        assert hull(DigitSet(2, (3, 5))) == (3, 5)


class TestApprox:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_full_binary_stays_unit(self, k):
        union = approx(DigitSet(2, (0, 1)), k)
        assert union.intervals == ((Fraction(0), Fraction(1)),)

    def test_product_form_level_one(self):
        union = approx(DigitSet(4, (0, 1, 8, 9)), 1)
        assert union.intervals == (
            (Fraction(0), Fraction(1)),
            (Fraction(2), Fraction(3)),
        )
        assert union.total_length == 2

    def test_product_form_stabilizes(self):
        assert approx(DigitSet(4, (0, 1, 8, 9)), 4).total_length == 2

    def test_non_tile_shrinks_below_measure_one(self):
        # hand-merged level-3 cover of the colliding set
        assert approx(DigitSet(4, (0, 1, 2, 5)), 3).total_length == Fraction(23, 24)

    @settings(max_examples=40)
    @given(digit_sets(max_base=5, max_digit=20), st.integers(1, 3))
    def test_nested_and_monotone(self, d, k):
        outer, inner = approx(d, k), approx(d, k + 1)
        assert outer.covers(inner)
        assert inner.total_length <= outer.total_length

    @settings(max_examples=40)
    @given(digit_sets(max_base=5, max_digit=20), st.integers(1, 4))
    def test_exact_denominators(self, d, k):
        union = approx(d, k)
        bound = d.base**k * (d.base - 1)
        for lo, hi in union.intervals:
            assert bound % lo.denominator == 0
            assert bound % hi.denominator == 0


class TestMeasureReport:
    def test_product_form(self):
        mr = measure_report(DigitSet(4, (0, 1, 8, 9)), 6, PeriodicSet(4, (0, 1)))
        assert mr.lengths == (2,) * 6
        assert mr.target == 2 and mr.gap == 0

    def test_standard_constant_one(self):
        mr = measure_report(DigitSet(4, (0, 1, 2, 3)), 3, PeriodicSet.integers())
        assert mr.lengths == (1, 1, 1) and mr.gap == 0

    def test_lengths_never_undershoot_target(self):
        d = DigitSet(4, (0, 1, 8, 25))
        mr = measure_report(d, 6, PeriodicSet(4, (0, 1)))
        assert all(length >= mr.target for length in mr.lengths)
        assert mr.lengths == tuple(sorted(mr.lengths, reverse=True))

    def test_without_target(self):
        mr = measure_report(DigitSet(4, (0, 1, 2, 5)), 3)
        assert mr.target is None and mr.gap is None


class TestEmission:
    def test_intervals_json_shape(self):
        d = DigitSet(4, (0, 1, 8, 9))
        payload = intervals_json(d, [approx(d, k) for k in (1, 2)])
        assert payload["base"] == 4 and payload["digits"] == [0, 1, 8, 9]
        level1 = payload["levels"][0]
        assert level1["k"] == 1
        assert level1["intervals"] == [[0, 1, 1, 1], [2, 1, 3, 1]]
        assert level1["total_length"] == [2, 1]
        json.dumps(payload)  # JSON-serializable

    def test_tower_svg_parses(self):
        d = DigitSet(4, (0, 1, 8, 9))
        svg = tower_svg(d, [approx(d, k) for k in (1, 2, 3)], width=640, height=360)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"
        assert root.attrib["width"] == "640"
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        # background plus two rectangles per level once merged
        assert len(rects) == 1 + 2 * 3


class TestCovers:
    @settings(max_examples=80)
    @given(digit_sets(max_base=5, max_digit=30, min_digit=-30), st.integers(1, 4))
    def test_recursion_matches_per_value_oracle(self, d, k_max):
        # signed digits: negative, unnormalized and common-factor sets
        unions = covers(d, k_max)
        assert [u.level for u in unions] == list(range(1, k_max + 1))
        for k, union in enumerate(unions, start=1):
            assert union == approx_oracle(d, k)

    @pytest.mark.parametrize("level", [0, -1])
    @pytest.mark.parametrize(
        "build", [covers, approx, measure_report], ids=lambda f: f.__name__
    )
    def test_level_below_one_refused(self, build, level):
        with pytest.raises(ValueError, match=f"level must be >= 1, got {level}"):
            build(DigitSet(2, (0, 1)), level)

    def test_cap_checked_before_level_one(self):
        d = DigitSet(3, (0, 1, 2))
        start = time.perf_counter()
        for build in (
            lambda: covers(d, 40),
            lambda: approx(d, 40),
            lambda: measure_report(d, 40),
        ):
            with pytest.raises(ExpansionLimitError, match="level 40 too large"):
                build()
        assert time.perf_counter() - start < 1


class TestGoldenTowers:
    """The towers of demos/06_render_towers.py, against the committed output."""

    OUTPUT = pathlib.Path(__file__).resolve().parents[1] / "demos" / "output"

    @pytest.mark.parametrize(
        "name, base, digits, levels",
        [
            ("product_form", 4, (0, 1, 8, 9), 5),
            ("non_tile", 4, (0, 1, 2, 5), 5),
            ("two_stage", 4, (0, 1, 32, 33), 5),
        ],
    )
    def test_bytes_match(self, name, base, digits, levels):
        d = DigitSet(base, digits)
        unions = covers(d, levels)
        svg = tower_svg(d, unions, width=900, height=300)
        payload = json.dumps(intervals_json(d, unions), indent=2) + "\n"
        assert svg.encode() == (self.OUTPUT / f"{name}.svg").read_bytes()
        assert payload.encode() == (self.OUTPUT / f"{name}.json").read_bytes()


def _with_level(d, top):
    # a level in 1..top with at most 2**14 hull copies, so the oracles stay quick:
    # base 12 reaches level 3, base 5 level 6
    cap = 1
    while cap < top and d.base ** (cap + 1) <= 1 << 14:
        cap += 1
    return st.tuples(st.just(d), st.integers(1, cap))


def _dumped(d, unions):
    return json.dumps(intervals_json(d, unions), indent=2) + "\n"


class TestJsonText:
    @settings(max_examples=120)
    @given(
        digit_sets(max_base=12, max_digit=59, min_digit=-30).flatmap(lambda d: _with_level(d, 6))
    )
    def test_matches_indented_dumps(self, case):
        d, k = case
        unions = covers(d, k)
        assert intervals_json_text(d, unions) == _dumped(d, unions)

    def test_empty_lists(self):
        d = DigitSet(2, (0, 1))
        for unions in ([], [IntervalUnion(1, 2, ())]):
            assert intervals_json_text(d, unions) == _dumped(d, unions)

    @pytest.mark.parametrize("name", ["product_form", "non_tile", "two_stage"])
    def test_reproduces_demo_output(self, name):
        expected = (TestGoldenTowers.OUTPUT / f"{name}.json").read_bytes()
        tower = json.loads(expected)
        d = DigitSet(tower["base"], tuple(tower["digits"]))
        assert intervals_json_text(d, covers(d, len(tower["levels"]))).encode() == expected


class TestSvgRects:
    @settings(max_examples=60)
    @given(
        digit_sets(max_base=6, max_digit=59, min_digit=-30).flatmap(lambda d: _with_level(d, 5)),
        st.integers(81, 2000),
        st.integers(1, 2000),
    )
    def test_rects_from_exact_arithmetic(self, case, width, extra_height):
        d, k = case
        height = 80 + 4 * k + extra_height
        unions = covers(d, k)
        h0, h1 = hull(d)
        plot_w, band_h = width - 80, (height - 80) / k
        expected = []
        for row, u in enumerate(unions):
            y, h = "%.2f" % (40 + row * band_h + 2), "%.2f" % (band_h - 4)
            for lo, hi in u.intervals:
                x = 40 + float((lo - h0) / (h1 - h0)) * plot_w
                w = max(40 + float((hi - h0) / (h1 - h0)) * plot_w - x, 0.5)
                expected.append(("%.2f" % x, y, "%.2f" % w, h))
        root = ET.fromstring(tower_svg(d, unions, width=width, height=height))
        rects = [
            (el.get("x"), el.get("y"), el.get("width"), el.get("height"))
            for el in root.iter("{http://www.w3.org/2000/svg}rect")
        ]
        assert rects[0] == ("0", "0", str(width), str(height))
        assert rects[1:] == expected
