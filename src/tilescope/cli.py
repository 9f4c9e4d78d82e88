"""Command-line surface: analyze, search, render.

Exit codes: 0 for a completed analysis (tile or not), 2 for parse or
validation errors and for an --out path that cannot be opened, 3 when no
level up to --mmax is in skew product form (inconclusive).  ``search``
emits one JSON line per digit set followed by a summary line; the worker
count comes from --workers, overridden by the ``TILESCOPE_WORKERS``
environment variable, and is clamped to the number of cores.

``search`` classifies one set of each reflection pair.  D -> c - D with
c = max D maps the normalized corpus onto itself and keeps every record
field but the digits: T(b, c - D) = c/(b-1) - T(b, D); level m of c - D
is a constant minus D_m, so the equal-value digit strings of one map onto
those of the other and the collision levels agree; and the skew form of
each level carries over (class minima become a constant minus class
maxima, each B_j becomes max B_j - B_j, and A' + B'_j is congruent to a
constant minus A + B_j mod b**m).  So only sets with ``digits <= mirror``
are classified, serially or in the pool, and each other record is its
mirror's, which comes earlier in corpus order, with the digits replaced.
A set's stage search stops below its collision level, which the carry
automaton has already found, and never expands that level.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from itertools import combinations
from typing import Any, TextIO

from .core import EXIT_OK, EXIT_USAGE, DigitSet, _check_level
from .skewform import least_stage
from .tiling import collision_level

MAX_SEARCH_SETS = 500_000
MAX_SEARCH_BASE = 12
MAX_SEARCH_BOUND = 64
# Largest ``render`` width and height: far past any display, far inside the
# float range the SVG coordinates are computed in
MAX_CANVAS = 1_000_000


def _parse_digits(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise ValueError(f"digits must be comma-separated integers, got {text!r}")


def enumerate_normalized(base: int, bound: int) -> list[tuple[int, ...]]:
    """All normalized digit sets in [0, bound]: 0 included, gcd 1, sorted."""
    if bound < base - 1:
        return []
    out = []
    for rest in combinations(range(1, bound + 1), base - 1):
        if math.gcd(*rest) == 1:
            out.append((0,) + rest)
    return out


def count_normalized(base: int, bound: int) -> int:
    """``len(enumerate_normalized(base, bound))``, without enumerating.

    Mobius inversion over the gcd g of the nonzero digits: the
    (base-1)-subsets of the multiples of g in [1, bound] number
    C(bound // g, base - 1).
    """
    mobius = [0, 1] + [0] * (bound - 1)
    for g in range(1, bound + 1):
        for m in range(2 * g, bound + 1, g):
            mobius[m] -= mobius[g]
    return sum(mobius[g] * math.comb(bound // g, base - 1) for g in range(1, bound + 1))


def _search_record(args: tuple[tuple[int, ...], int, int]) -> dict[str, Any]:
    digits, base, m_max = args
    d = DigitSet(base, digits)
    witness_level = collision_level(d)
    tile = witness_level is None
    found = least_stage(d, m_max, collides_at=witness_level)
    m_found = None if found is None else found[0].level
    if tile:
        status = "tile" if m_found is not None else "inconclusive"
    else:
        status = "non_tile"
    return {
        "digits": list(digits),
        "tile": tile,
        "m": m_found,
        "witness_level": witness_level,
        "status": status,
        "violation": (not tile) and m_found is not None,
    }


def _check_search(base: int, bound: int, m_max: int) -> None:
    """Reject bad arguments and a corpus over the cap, before any set is listed."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if base > MAX_SEARCH_BASE:
        raise ValueError(f"search base {base} exceeds the default cap {MAX_SEARCH_BASE}")
    if bound > MAX_SEARCH_BOUND:
        raise ValueError(f"search bound {bound} exceeds the default cap {MAX_SEARCH_BOUND}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    count = count_normalized(base, bound)
    if count > MAX_SEARCH_SETS:
        raise ValueError(
            f"{count} digit sets exceed the search cap {MAX_SEARCH_SETS}; "
            f"lower the bound"
        )


def run_search(
    base: int, bound: int, m_max: int, workers: int
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    _check_search(base, bound, m_max)
    corpus = enumerate_normalized(base, bound)
    # D and its reflection max D - D share every field but the digits, and
    # the smaller of the two comes first in corpus order: classify that one
    mirrors = [tuple(digits[-1] - x for x in reversed(digits)) for digits in corpus]
    jobs = [(digits, base, m_max) for digits, mirror in zip(corpus, mirrors) if digits <= mirror]
    workers = min(workers, os.cpu_count() or 1)  # a fork pool starts all workers at once
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs import it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            classified = list(
                pool.map(_search_record, jobs, chunksize=max(len(jobs) // (4 * workers), 1))
            )
    else:
        classified = [_search_record(job) for job in jobs]
    by_digits = {job[0]: record for job, record in zip(jobs, classified)}
    records = [
        by_digits[digits] if digits <= mirror else {**by_digits[mirror], "digits": list(digits)}
        for digits, mirror in zip(corpus, mirrors)
    ]
    tiles = [r for r in records if r["status"] == "tile"]
    summary = {
        "command": "search",
        "base": base,
        "bound": bound,
        "m_max": m_max,
        "count": len(records),
        "tiles": len(tiles),
        "non_tiles": sum(r["status"] == "non_tile" for r in records),
        "inconclusive": sum(r["status"] == "inconclusive" for r in records),
        "max_m": max((r["m"] for r in tiles), default=None),
        "violations": [r["digits"] for r in records if r["violation"]],
    }
    return records, summary


def _cmd_analyze(args: argparse.Namespace, out: TextIO) -> int:
    # report, and the spectral layer under it, load only when analyze runs
    from .report import analyze_digit_set, render_text, report_to_json

    report, code = analyze_digit_set(
        args.base,
        _parse_digits(args.digits),
        m_max=args.mmax,
        k_max=args.kmax,
        strict_t2=args.strict_t2,
    )
    out.write(report_to_json(report) if args.json else render_text(report))
    return code


def _cmd_search(args: argparse.Namespace, out: TextIO) -> int:
    env = os.environ.get("TILESCOPE_WORKERS")
    try:
        workers = args.workers if env is None else int(env)
    except ValueError:
        raise ValueError(f"TILESCOPE_WORKERS must be an integer, got {env!r}") from None
    # arguments and cap, then --out, then the corpus: a rejected search
    # leaves --out as it was, and a path that cannot be opened costs no work
    _check_search(args.base, args.bound, args.mmax)
    sink = open(args.out, "w") if args.out else out
    try:
        records, summary = run_search(args.base, args.bound, args.mmax, workers)
        if args.json:
            _write_records(records, sink)
            sink.write(json.dumps({"summary": summary}) + "\n")
        else:
            sink.write(
                f"base {summary['base']}, bound {summary['bound']}: "
                f"{summary['count']} sets, {summary['tiles']} tiles, "
                f"{summary['non_tiles']} non-tiles, "
                f"{summary['inconclusive']} inconclusive\n"
            )
            sink.write(f"max stage among tiles: {summary['max_m']}\n")
            sink.write(f"violations: {summary['violations']}\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def _write_records(records: list[dict[str, Any]], sink: TextIO) -> None:
    """Each record as ``json.dumps(record)``, one per line.

    Every field after ``digits`` takes one of a handful of values across a
    corpus, so each distinct tail is encoded once and only the digits per
    record.  Lines are written one by one: joined, the whole output would
    sit in memory at once.
    """
    tails: dict[tuple, str] = {}
    for record in records:
        key = (
            record["tile"], record["m"], record["witness_level"],
            record["status"], record["violation"],
        )
        tail = tails.get(key)
        if tail is None:
            rest = {k: v for k, v in record.items() if k != "digits"}
            tail = tails[key] = json.dumps(rest)[1:]
        sink.write('{"digits": [%s], %s\n' % (", ".join(map(str, record["digits"])), tail))


def _cmd_render(args: argparse.Namespace, out: TextIO) -> int:
    if args.k < 1:
        raise ValueError(f"level must be >= 1, got {args.k}")
    d = DigitSet(args.base, tuple(_parse_digits(args.digits)))
    # 40-px margins on each side, and bands more than the 4-px gap high
    if not (80 < args.width <= MAX_CANVAS and 80 + 4 * args.k < args.height <= MAX_CANVAS):
        raise ValueError(
            f"width must be > 80 and height > {80 + 4 * args.k} for {args.k} levels, "
            f"both at most {MAX_CANVAS}, got {args.width}x{args.height}"
        )
    # cap, then --out, then covers: a failed check neither truncates --out nor costs work
    _check_level(d.base, args.k)
    # search never loads geometry
    from .geometry import iter_covers, write_intervals_json, write_tower_svg

    sink = open(args.out, "w") if args.out else out
    try:
        # one level and one slice of its text in memory at a time
        levels = iter_covers(d, args.k)
        if args.format == "svg":
            write_tower_svg(d, levels, args.k, sink, width=args.width, height=args.height)
        else:
            write_intervals_json(d, levels, args.k, sink)
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="tilescope",
        description="Exact analysis of integer digit sets: tiling, "
        "decomposition, and spectral structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full analysis of one digit set")
    p_analyze.add_argument("-b", "--base", type=int, required=True)
    p_analyze.add_argument(
        "-d", "--digits", required=True, help="comma-separated integers"
    )
    p_analyze.add_argument("--mmax", type=int, default=12)
    p_analyze.add_argument("--kmax", type=int, default=None)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument(
        "--strict-t2",
        action="store_true",
        help="gate spectra on the literal (T2) reading as well",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_search = sub.add_parser(
        "search", help="classify every normalized digit set up to a bound"
    )
    p_search.add_argument("-b", "--base", type=int, required=True)
    p_search.add_argument("--bound", type=int, required=True)
    p_search.add_argument("--mmax", type=int, default=6)
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--json", action="store_true")
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=_cmd_search)

    p_render = sub.add_parser(
        "render", help="emit the interval tower as SVG or JSON"
    )
    p_render.add_argument("-b", "--base", type=int, required=True)
    p_render.add_argument("-d", "--digits", required=True)
    p_render.add_argument("-k", type=int, default=4)
    p_render.add_argument("--format", choices=("svg", "json"), default="svg")
    p_render.add_argument("--out", default=None)
    p_render.add_argument("--width", type=int, default=800)
    p_render.add_argument("--height", type=int, default=400)
    p_render.set_defaults(func=_cmd_render)
    return parser


def _attach_digit_lists(argv: list[str]) -> list[str]:
    """Spell ``-d -7,0,3`` as ``-d=-7,0,3``; argparse reads ``--d`` up to ``--digits`` alike.

    argparse reads a token that starts with '-' and is not a single number
    as an option.  No option starts with '-' and a digit, so the token can
    only be the digit list.
    """
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"-d|--d(i(g(i(ts?)?)?)?)?", out[-1]) and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _attach_digit_lists(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
