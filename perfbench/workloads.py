"""Seeded input generators for the four benchmark workloads.

Every workload is a list of passes.  A pass is a fixed, stated amount of
work: a list of CLI argument vectors that the program receives as-is.
Pass ``j`` of a run is drawn from ``random.Random(f"{workload}:{seed}:{j}")``,
so the same seed always gives the same inputs, and no input repeats
inside a run (a cache keyed by the input cannot turn later passes into
lookups).

Each generator draws from fixed strata (a fixed count per base, per span
or per cover shape), and the seed chooses only the digits inside each
stratum.  That keeps the cost of a pass, and so every end-to-end metric,
steady across seeds, while the inputs themselves change.  Spans are
capped per stratum: a single set with span 2000-5000 takes 2-5 s to
analyse and would dominate a whole run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from tilescope.core import DigitSet
from tilescope.skewform import gen_product_form, gen_weak_product_form
from tilescope.tiling import is_tile_oracle


@dataclass(frozen=True)
class Item:
    """One CLI command: its argv, its kind, and how many items it counts as."""

    argv: tuple[str, ...]
    kind: str  # "tile", "non_tile", "corpus" or "tower"
    weight: int = 1  # items of work: sets classified, for a search corpus


def _digits_arg(digits) -> str:
    return "--digits=" + ",".join(str(x) for x in sorted(digits))


def _analyze(base: int, digits, kind: str) -> Item:
    return Item(("analyze", "-b", str(base), _digits_arg(digits), "--json"), kind)


# --- analyze-small -----------------------------------------------------------
#
# WHY: the everyday call, 100 sets per pass in bases 2-12 with span <= 150.
# The tiles run the whole pipeline: geometry dominates them, while the
# cyclotomic and spectral layers run on small masks.  The non-tiles stop
# at the tile check after about 1 ms, so they expose the cli/report glue.
# Tiles are 60% of a pass, not half, and the cheap base-2/3 tiles fill
# the ranks around the middle, so that the median item falls inside one
# stratum and not on the steep step between non-tiles and tiles.

# The median item is a base-3 tile, whose cost grows with its span; one
# tile per span on this grid keeps the median's span, and so its cost,
# the same for every seed.  The spans are primes, so that every draw of
# the inner digit is already normalized.
SMALL_BASE3_SPANS = (11, 23, 31, 41, 53, 61, 71, 83, 97, 101, 113, 127, 131, 149, 151)
# Tiles per base.  The cover levels of a tile grow as base**k <= 20000, so
# bases 5, 7, 9, 10 and 11 cost the most; their counts are low so that one
# pass stays a few seconds long.
SMALL_TILES = {2: 5, 3: len(SMALL_BASE3_SPANS), 4: 7, 5: 3, 6: 3, 7: 2, 8: 7, 9: 3, 10: 3, 11: 2, 12: 10}
# Base 2 has no normalized non-tiles: {0, 1} is the only normalized set.
SMALL_NON_TILES = {b: 4 for b in range(3, 13)}
SMALL_SPAN = 150


def _crs_lift(rng: random.Random, base: int, residues, max_value: int) -> list[int]:
    """Each residue r lifted to r + base*t with r + base*t <= max_value."""
    return [r + base * rng.randint(0, (max_value - r) // base) for r in residues]


def _factorizations(n: int) -> list[list[int]]:
    """Ordered factorizations of n into factors >= 2."""
    if n == 1:
        return [[]]
    out = []
    for f in range(2, n + 1):
        if n % f == 0:
            out += [[f] + rest for rest in _factorizations(n // f)]
    return out


def _small_product_form(rng: random.Random, base: int) -> DigitSet | None:
    """A stage-1 tile A_0 + b*A_1 + ..., with radix factors lifted mod b."""
    sizes = rng.choice(_factorizations(base))
    if base ** (len(sizes) - 1) * (base - 1) > SMALL_SPAN:
        sizes = [base]
    # lifts up to a limit that keeps the span within SMALL_SPAN
    limit = max(SMALL_SPAN // sum(base**j for j in range(len(sizes))), base - 1)
    stride, factors = 1, []
    for n in sizes:
        factors.append(_crs_lift(rng, base, [stride * i for i in range(n)], limit))
        stride *= n
    d = gen_product_form(factors, base)
    return d if d.span <= SMALL_SPAN else None


def _small_weak_product_form(rng: random.Random, base: int) -> DigitSet | None:
    """A stage-1 or stage-2 tile a + b**m*u + b**(m+1)*x over A x B."""
    n = rng.choice([f for f in range(2, base) if base % f == 0])
    a = _crs_lift(rng, base, range(n), base - 1)
    b = [n * i for i in range(base // n)]
    m = 2 if base**3 <= SMALL_SPAN and rng.random() < 0.5 else 1
    room = (SMALL_SPAN - max(a) - base**m * max(b)) // base ** (m + 1)
    offsets = {(x, u): rng.randint(0, max(room, 0)) for x in a for u in b}
    d = gen_weak_product_form(a, b, m, offsets)
    return d if d.span <= SMALL_SPAN else None


def _normalized(base: int, draw) -> DigitSet:
    """The first draw whose digits have no common factor, so the span stays."""
    for _ in range(1000):
        digits = (0, *draw())
        if math.gcd(*digits) == 1:
            return DigitSet(base, digits)
    raise ValueError(f"no normalized draw in base {base}")


def _crs_with_span(rng: random.Random, base: int, span: int) -> DigitSet:
    """A complete residue system mod base from 0 to span: a stage-1 tile."""
    top = span % base
    return _normalized(
        base,
        lambda: (*_crs_lift(rng, base, [r for r in range(1, base) if r != top], span), span),
    )


def _small_tile(rng: random.Random, base: int) -> DigitSet:
    composite = any(base % f == 0 for f in range(2, base))
    while True:
        if composite and rng.random() < 0.5:
            d = _small_weak_product_form(rng, base)
        else:
            d = _small_product_form(rng, base)
        if d is not None:
            return d


def _small_non_tile(rng: random.Random, base: int) -> DigitSet:
    """Random normalized digits whose expansion collides within a few levels."""
    levels = max(2, int(math.log(4096, base)))
    while True:
        span = rng.randint(base, SMALL_SPAN)
        rest = rng.sample(range(1, span), base - 2) + [span]
        if math.gcd(*rest) != 1:
            continue
        d = DigitSet(base, (0, *rest))
        if not is_tile_oracle(d, levels):
            return d


def analyze_small(rng: random.Random) -> list[Item]:
    items = []
    for base, count in SMALL_TILES.items():
        if base == 3:
            tiles = [_crs_with_span(rng, base, span) for span in SMALL_BASE3_SPANS]
        else:
            tiles = [_small_tile(rng, base) for _ in range(count)]
        for tile in tiles:
            shift = rng.randint(0, 20)
            items.append(_analyze(base, [x + shift for x in tile], "tile"))
    for base, count in SMALL_NON_TILES.items():
        for _ in range(count):
            items.append(_analyze(base, _small_non_tile(rng, base).digits, "non_tile"))
    rng.shuffle(items)
    return items


# --- analyze-wide ------------------------------------------------------------
#
# WHY: cost should track the mathematics, not the size of the digits.  The
# base-3 and base-4 tiles with spans 300-700 spend their time in the
# cyclotomic support, divisibility and spectral layers.  The base-3
# non-tiles with spans 10**4 - 6*10**4 spend it in the carry automaton,
# whose size grows with the span.

# Of the 11 sets, the three at span 403 rank 5-7 by cost and the two at
# span 601 rank 10-11, so the median and the 90th percentile item each
# fall inside one stratum, never on the edge between two.
WIDE_TILE_SPANS_3 = (301, 403, 403, 403, 505, 601, 601)
WIDE_TILE_SPANS_4 = (305,)
WIDE_NON_TILE_SPANS = (10_001, 20_002, 60_001)


def _wide_non_tile(rng: random.Random, span: int) -> DigitSet:
    """{0, a, span} with a = span mod 3: two digits share a residue."""
    return _normalized(3, lambda: (span % 3 + 3 * rng.randint(1, span // 3 - 1), span))


def analyze_wide(rng: random.Random) -> list[Item]:
    items = [_analyze(3, _crs_with_span(rng, 3, s).digits, "tile") for s in WIDE_TILE_SPANS_3]
    items += [_analyze(4, _crs_with_span(rng, 4, s).digits, "tile") for s in WIDE_TILE_SPANS_4]
    items += [
        _analyze(3, _wide_non_tile(rng, s).digits, "non_tile") for s in WIDE_NON_TILE_SPANS
    ]
    rng.shuffle(items)
    return items


# --- search --------------------------------------------------------------------
#
# WHY: many tiny automata plus staged expand/skew_decompose probes, and no
# cyclotomic, spectral or geometry work at all, so it is the no-change
# control for those layers.  One corpus per base, five per pass, so that the
# median corpus is always the same base.  The seed picks the bound of the
# two largest corpora from a narrow range; the bounds of bases 5-7 stay
# fixed, because there one step doubles the corpus.

SEARCH_BOUNDS = {3: (60, 64), 4: (33, 35), 5: (14, 14), 6: (12, 12), 7: (12, 12)}


def _corpus_size(base: int, bound: int) -> int:
    """Normalized sets in [0, bound]: 0 plus base-1 others with gcd 1.

    Counted by Mobius inversion over the common divisor, independently of
    the program's enumeration, so the gate can compare the two counts.
    """
    total = 0
    for g in range(1, bound + 1):
        total += _mobius(g) * math.comb(bound // g, base - 1)
    return total


def _mobius(n: int) -> int:
    """The Mobius function of n >= 1."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def search(rng: random.Random) -> list[Item]:
    items = []
    for base, (lo, hi) in SEARCH_BOUNDS.items():
        bound = rng.randint(lo, hi)
        argv = ("search", "-b", str(base), "--bound", str(bound), "--json")
        items.append(Item(argv, "corpus", _corpus_size(base, bound)))
    rng.shuffle(items)
    return items


# --- render ----------------------------------------------------------------------
#
# WHY: the only workload that reaches cover levels analyze never does, with
# interval emission and memory that grows with the level, and with no
# tiling or cyclotomic work.  Half the towers merge into few intervals
# (product forms such as base 4 {0,1,8,9}); half stay fragmented (complete
# residue systems with lifted digits, such as base 3 {0,1,5}).  Every tower
# has base**k values at its top level, so a fixed (base, k) per stratum
# fixes its cost.

RENDER_MERGED = (4, 8)  # base, k
RENDER_FRAGMENTED = (3, 10)


def _render(base: int, digits, k: int, fmt: str) -> Item:
    argv = ("render", "-b", str(base), _digits_arg(digits), "-k", str(k), "--format", fmt)
    return Item(argv, "tower")


def render(rng: random.Random) -> list[Item]:
    base, k = RENDER_MERGED
    # product form {0, 1} + 4*{0, c}: {0, 1} + {0, c} is complete mod 4
    c = 2 + 4 * rng.randint(0, 3)
    merged = (0, 1, 4 * c, 4 * c + 1)
    fbase, fk = RENDER_FRAGMENTED
    fragmented = _normalized(
        fbase, lambda: (1 + 3 * rng.randint(0, 3), 2 + 3 * rng.randint(1, 4))
    ).digits
    items = [
        _render(base, merged, k, fmt) for fmt in ("json", "svg")
    ] + [_render(fbase, fragmented, fk, fmt) for fmt in ("json", "svg")]
    rng.shuffle(items)
    return items


GENERATORS = {
    "analyze-small": analyze_small,
    "analyze-wide": analyze_wide,
    "search": search,
    "render": render,
}


def make_pass(workload: str, seed: int, index: int) -> list[Item]:
    """The argv list of pass ``index`` of ``workload`` under ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}:{index}"))
