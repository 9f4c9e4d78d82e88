"""Interval-union outer approximations of the attractor of a digit set.

The attractor of ``x -> (x + d) / b`` over the digits lies inside the
hull ``[min/(b-1), max/(b-1)]``.  It is the fixed point of those maps
(Hutchinson), so each cover follows from the one before: the level-``k``
cover is ``merge(union_d (Cover_{k-1} + d) / b)``, starting from the hull
at level 0.  That is the same point set as one hull copy per level-``k``
expansion value, so a level costs one sort-and-merge of ``b`` times the
previous level's merged intervals, not ``b**k`` expansion values; that
per-value construction is the test oracle ``oracles.approx_oracle``.

Endpoints are integer numerators over the common denominator
``b**k * (b - 1)``; the copy for digit ``d`` shifts every numerator by
``d * b**(k-1) * (b - 1)``.  The approximations are nested, their total
lengths are non-increasing, and for a tile they never undershoot the
exact measure ``1 / density`` of a verified tiling set.

``iter_covers`` yields the levels one by one and keeps only the newest;
``covers`` is the list of them.  The two writers stream: each takes the
levels, their count and a text sink, and writes the header, then each
level in slices of ``_SLICE`` intervals, then the footer, so neither the
tower nor the document has to be whole in memory.  ``write_intervals_json``
fills one text template per interval, with each endpoint reduced by one
``gcd``, and gives the bytes of ``json.dumps(intervals_json(...),
indent=2)``; the dict view ``intervals_json`` is its test oracle, kept
here because the benchmark tracer wraps it in this module.
``write_tower_svg`` fills one rectangle template per band, with
coordinates from one correctly rounded ``int / int`` division per
endpoint, the only floats in this module.  ``intervals_json_text`` and
``tower_svg`` are their string forms, written to an ``io.StringIO``.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import gcd, lcm
from typing import TextIO

from .core import DigitSet, PeriodicSet, _check_level, frozen, tile_measure

Interval = tuple[Fraction, Fraction]
Bounds = tuple[int, int]

# Intervals formatted into one string and written at a time: about 40 KB
# of text, enough to amortise the write.  Slices of 2048 (about 170 KB)
# left the render benchmark's peak RSS about 1 MB higher.
_SLICE = 512


@frozen
class IntervalUnion:
    """Disjoint, sorted closed intervals ``[lo / denominator, hi / denominator]``."""

    level: int
    denominator: int
    bounds: tuple[Bounds, ...]

    def __post_init__(self):
        for (alo, ahi), (blo, bhi) in zip(self.bounds, self.bounds[1:]):
            assert alo <= ahi and ahi < blo, "intervals must be disjoint and sorted"

    @property
    def intervals(self) -> tuple[Interval, ...]:
        den = self.denominator
        return tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in self.bounds)

    @property
    def total_length(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self.bounds), self.denominator)

    def covers(self, other: "IntervalUnion") -> bool:
        """Whether every interval of ``other`` lies inside this union."""
        common = lcm(self.denominator, other.denominator)
        mine_scale = common // self.denominator
        other_scale = common // other.denominator
        mine = iter(self.bounds)
        cur = next(mine, None)
        for lo, hi in other.bounds:
            lo, hi = lo * other_scale, hi * other_scale
            while cur is not None and cur[1] * mine_scale < lo:
                cur = next(mine, None)
            if cur is None or not (cur[0] * mine_scale <= lo and hi <= cur[1] * mine_scale):
                return False
        return True


def hull(d: DigitSet) -> Interval:
    """Fixed interval containing the attractor: ``[min, max] / (b - 1)``."""
    return Fraction(d.digits[0], d.base - 1), Fraction(d.digits[-1], d.base - 1)


def _merge(pieces: list[Bounds]) -> tuple[Bounds, ...]:
    # Pieces sorted by lower end; touching intervals merge, which leaves
    # the total length unchanged.
    merged: list[Bounds] = []
    cur_lo, cur_hi = pieces[0]
    for lo, hi in pieces:
        if lo > cur_hi:
            merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    merged.append((cur_lo, cur_hi))
    return tuple(merged)


def iter_covers(d: DigitSet, k_max: int) -> Iterator[IntervalUnion]:
    """Outer covers of levels ``1..k_max``, each built from the one before.

    Only the newest level is kept: the previous one is dropped as soon as
    the caller lets go of it.  The level rule of every command,
    ``core._check_level`` (``k_max >= 1``, and ``b**k_max`` within
    ``MAX_EXPANSION_TERMS``), runs before level 1 is built.
    """
    _check_level(d.base, k_max)
    den = d.base - 1
    bounds: tuple[Bounds, ...] = ((d.digits[0], d.digits[-1]),)
    for level in range(1, k_max + 1):
        shifts = [digit * den for digit in d.digits]
        pieces = [(lo + s, hi + s) for s in shifts for lo, hi in bounds]
        pieces.sort()
        bounds = _merge(pieces)
        den *= d.base
        yield IntervalUnion(level, den, bounds)


def covers(d: DigitSet, k_max: int) -> list[IntervalUnion]:
    """Every level of :func:`iter_covers`, in a list."""
    return list(iter_covers(d, k_max))


def approx(d: DigitSet, level: int) -> IntervalUnion:
    """Level-``level`` outer cover: one hull copy per expansion value, merged.

    The top level of :func:`iter_covers`; the per-value construction is its
    oracle, ``oracles.approx_oracle``.
    """
    for union in iter_covers(d, level):
        pass
    return union


@frozen
class MeasureReport:
    """Covered lengths per level, against the exact tile measure if known."""

    lengths: tuple[Fraction, ...]
    target: Fraction | None

    @property
    def gap(self) -> Fraction | None:
        return None if self.target is None else self.lengths[-1] - self.target


def measure_report(
    d: DigitSet, k_max: int, tiling_set: PeriodicSet | None = None
) -> MeasureReport:
    """Lengths of the level-1..k_max covers, with the 1/density target if given."""
    lengths = tuple(u.total_length for u in iter_covers(d, k_max))
    target = None if tiling_set is None else tile_measure(tiling_set)
    return MeasureReport(lengths, target)


def _reduced(n: int, den: int) -> tuple[int, int]:
    g = gcd(n, den)
    return n // g, den // g


def intervals_json(d: DigitSet, unions: list[IntervalUnion]) -> dict:
    """JSON-ready structure: per level, intervals as [lo_num, lo_den, hi_num, hi_den].

    The dict view of :func:`write_intervals_json`, and its test oracle.
    """
    return {
        "base": d.base,
        "digits": list(d.digits),
        "levels": [
            {
                "k": u.level,
                "intervals": [
                    [*_reduced(lo, u.denominator), *_reduced(hi, u.denominator)]
                    for lo, hi in u.bounds
                ],
                "total_length": [
                    u.total_length.numerator,
                    u.total_length.denominator,
                ],
            }
            for u in unions
        ],
    }


# The layout of json.dumps(intervals_json(...), indent=2); an empty list
# is written "[]" at every depth
_JSON_INTERVAL = (
    "        [\n          %d,\n          %d,\n          %d,\n          %d\n        ]"
)
_JSON_TOTAL = ',\n      "total_length": [\n        %d,\n        %d\n      ]\n    }'


def write_intervals_json(
    d: DigitSet, levels: Iterable[IntervalUnion], count: int, sink: TextIO
) -> None:
    """Write ``json.dumps(intervals_json(d, list(levels)), indent=2) + "\\n"``.

    ``count`` is the number of levels.  Each endpoint is reduced by one
    ``gcd`` and formatted into a template, so neither the dict view nor the
    pure-Python indented encoder runs; one slice of intervals is text at a
    time.
    """
    digits = ",\n".join(["    %d" % x for x in d.digits])
    sink.write(
        '{\n  "base": %d,\n  "digits": [\n%s\n  ],\n  "levels": %s'
        % (d.base, digits, "[\n" if count else "[]")
    )
    level_sep = ""
    for u in levels:
        sink.write('%s    {\n      "k": %d,\n      "intervals": ' % (level_sep, u.level))
        level_sep = ",\n"
        den, bounds, sep = u.denominator, u.bounds, "[\n"
        for start in range(0, len(bounds), _SLICE):
            sink.write(sep)
            sink.write(",\n".join([
                _JSON_INTERVAL
                % (lo // (g := gcd(lo, den)), den // g, hi // (h := gcd(hi, den)), den // h)
                for lo, hi in bounds[start : start + _SLICE]
            ]))
            sep = ",\n"
        length = u.total_length
        sink.write(
            ("\n      ]" if bounds else "[]") + _JSON_TOTAL % (length.numerator, length.denominator)
        )
    sink.write("\n  ]\n}\n" if count else "\n}\n")


def intervals_json_text(d: DigitSet, unions: list[IntervalUnion]) -> str:
    """:func:`write_intervals_json` of ``unions``, as a string."""
    sink = io.StringIO()
    write_intervals_json(d, unions, len(unions), sink)
    return sink.getvalue()


def write_tower_svg(
    d: DigitSet,
    levels: Iterable[IntervalUnion],
    count: int,
    sink: TextIO,
    width: int = 800,
    height: int = 400,
) -> None:
    """Write a static SVG 1.1 tower plot: one horizontal band per level.

    ``count`` is the number of levels, which fixes the band height.  The x
    axis is linear over the hull; each interval becomes one rectangle in
    its level's band, and one slice of rectangles is text at a time.
    """
    margin = 40
    plot_w = width - 2 * margin
    band_h = (height - 2 * margin) / max(count, 1)
    bm1 = d.base - 1

    sink.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
    )
    for row, u in enumerate(levels):
        # x = margin + (n / den - min/(b-1)) / (span/(b-1)) * plot_w, with one
        # exact int/int division, which rounds correctly like float(Fraction).
        origin = d.digits[0] * u.denominator
        scale = d.span * u.denominator
        y = margin + row * band_h
        sink.write(
            f'<text x="{margin - 32:.2f}" y="{y + band_h / 2:.2f}" '
            f'font-size="12" dominant-baseline="middle">k={u.level}</text>\n'
        )
        rect = '<rect x="%%.2f" y="%.2f" width="%%.2f" height="%.2f" fill="#4878a8"/>\n' % (
            y + 2,
            band_h - 4,
        )
        bounds = u.bounds
        for start in range(0, len(bounds), _SLICE):
            rects = []
            for lo, hi in bounds[start : start + _SLICE]:
                x = margin + (lo * bm1 - origin) / scale * plot_w
                w = margin + (hi * bm1 - origin) / scale * plot_w - x
                rects.append(rect % (x, max(w, 0.5)))
            sink.write("".join(rects))
    sink.write("</svg>\n")


def tower_svg(
    d: DigitSet, unions: list[IntervalUnion], width: int = 800, height: int = 400
) -> str:
    """:func:`write_tower_svg` of ``unions``, as a string."""
    sink = io.StringIO()
    write_tower_svg(d, unions, len(unions), sink, width, height)
    return sink.getvalue()
