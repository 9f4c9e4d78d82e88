"""Interval-union outer approximations of the attractor of a digit set.

The attractor of ``x -> (x + d) / b`` over the digits lies inside the
hull ``[min/(b-1), max/(b-1)]``.  It is the fixed point of those maps
(Hutchinson), so each cover follows from the one before: the level-``k``
cover is ``merge(union_d (Cover_{k-1} + d) / b)``, starting from the hull
at level 0.  That is the same point set as one hull copy per level-``k``
expansion value, so a level costs one sort-and-merge of ``b`` times the
previous level's merged intervals, not ``b**k`` expansion values.

Endpoints are integer numerators over the common denominator
``b**k * (b - 1)``; the copy for digit ``d`` shifts every numerator by
``d * b**(k-1) * (b - 1)``.  The approximations are nested, their total
lengths are non-increasing, and for a tile they never undershoot the
exact measure ``1 / density`` of a verified tiling set.

Both writers work from those integer bounds.  ``intervals_json_text``
fills one text template per interval, with each endpoint reduced by one
``gcd``, and gives the bytes of ``json.dumps(intervals_json(...),
indent=2)``; the dict view ``intervals_json`` is its test oracle.
``tower_svg`` fills one rectangle template per band, with coordinates
from one correctly rounded ``int / int`` division per endpoint, the only
floats in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .core import DigitSet, PeriodicSet, _check_level
from .tiling import tile_measure

Interval = tuple[Fraction, Fraction]
Bounds = tuple[int, int]


@dataclass(frozen=True)
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


def covers(d: DigitSet, k_max: int) -> list[IntervalUnion]:
    """Outer covers of levels ``1..k_max``, each built from the one before.

    The work cap of :func:`~tilescope.core.expand` (``b**k_max`` within
    ``MAX_EXPANSION_TERMS``) is checked before level 1 is built.
    """
    if k_max < 1:
        return []
    _check_level(d.base, k_max)
    den = d.base - 1
    bounds: tuple[Bounds, ...] = ((d.digits[0], d.digits[-1]),)
    unions = []
    for level in range(1, k_max + 1):
        shifts = [digit * den for digit in d.digits]
        bounds = _merge(sorted([(lo + s, hi + s) for s in shifts for lo, hi in bounds]))
        den *= d.base
        unions.append(IntervalUnion(level, den, bounds))
    return unions


def approx(d: DigitSet, level: int) -> IntervalUnion:
    """Level-``level`` outer cover: one hull copy per expansion value, merged."""
    _check_level(d.base, level)
    return covers(d, level)[-1]


def approx_oracle(d: DigitSet, level: int) -> IntervalUnion:
    """:func:`approx` by the per-value construction, as a test oracle.

    Enumerates every digit string of length ``level``, places one hull
    copy at its value ``sum(d_i * b**i)`` and merges; ``b**level`` work.
    """
    _check_level(d.base, level)
    b = d.base
    weights = [(b - 1) * b**i for i in range(level)]
    values = {sum(w * x for w, x in zip(weights, s)) for s in product(d.digits, repeat=level)}
    lo, hi = d.digits[0], d.digits[-1]
    return IntervalUnion(
        level, b**level * (b - 1), _merge([(v + lo, v + hi) for v in sorted(values)])
    )


@dataclass(frozen=True)
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
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    lengths = tuple(u.total_length for u in covers(d, k_max))
    target = None if tiling_set is None else tile_measure(tiling_set)
    return MeasureReport(lengths, target)


def _reduced(n: int, den: int) -> tuple[int, int]:
    g = gcd(n, den)
    return n // g, den // g


def intervals_json(d: DigitSet, unions: list[IntervalUnion]) -> dict:
    """JSON-ready structure: per level, intervals as [lo_num, lo_den, hi_num, hi_den].

    The dict view of :func:`intervals_json_text`, and its test oracle.
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


# The layout of json.dumps(intervals_json(...), indent=2), one template per
# nesting depth; an empty list is written "[]" there as well.
_JSON_INTERVAL = (
    "        [\n          %d,\n          %d,\n          %d,\n          %d\n        ]"
)
_JSON_LEVEL = (
    '    {\n      "k": %d,\n      "intervals": %s,\n'
    '      "total_length": [\n        %d,\n        %d\n      ]\n    }'
)


def _json_list(items: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def intervals_json_text(d: DigitSet, unions: list[IntervalUnion]) -> str:
    """``json.dumps(intervals_json(d, unions), indent=2) + "\\n"``, written directly.

    Each endpoint is reduced by one ``gcd`` and formatted into a template,
    so neither the dict view nor the pure-Python indented encoder runs.
    """
    levels = []
    for u in unions:
        den = u.denominator
        intervals = [
            _JSON_INTERVAL
            % (lo // (g := gcd(lo, den)), den // g, hi // (h := gcd(hi, den)), den // h)
            for lo, hi in u.bounds
        ]
        length = u.total_length
        levels.append(
            _JSON_LEVEL
            % (u.level, _json_list(intervals, "      "), length.numerator, length.denominator)
        )
    digits = _json_list(["    %d" % x for x in d.digits], "  ")
    return '{\n  "base": %d,\n  "digits": %s,\n  "levels": %s\n}\n' % (
        d.base,
        digits,
        _json_list(levels, "  "),
    )


def tower_svg(
    d: DigitSet, unions: list[IntervalUnion], width: int = 800, height: int = 400
) -> str:
    """Static SVG 1.1 tower plot: one horizontal band per level.

    The x axis is linear over the hull; each interval becomes one
    rectangle in its level's band.
    """
    margin = 40
    plot_w = width - 2 * margin
    band_h = (height - 2 * margin) / max(len(unions), 1)
    bm1 = d.base - 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for row, u in enumerate(unions):
        # x = margin + (n / den - min/(b-1)) / (span/(b-1)) * plot_w, with one
        # exact int/int division, which rounds correctly like float(Fraction).
        origin = d.digits[0] * u.denominator
        scale = d.span * u.denominator
        y = margin + row * band_h
        parts.append(
            f'<text x="{margin - 32:.2f}" y="{y + band_h / 2:.2f}" '
            f'font-size="12" dominant-baseline="middle">k={u.level}</text>'
        )
        rect = '<rect x="%%.2f" y="%.2f" width="%%.2f" height="%.2f" fill="#4878a8"/>' % (
            y + 2,
            band_h - 4,
        )
        for lo, hi in u.bounds:
            x = margin + (lo * bm1 - origin) / scale * plot_w
            w = margin + (hi * bm1 - origin) / scale * plot_w - x
            parts.append(rect % (x, max(w, 0.5)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
