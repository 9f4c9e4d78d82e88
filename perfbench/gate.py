"""Correctness gate: exact invariants per output, and the recorded digests.

Runs outside the timed region.  ``check_item`` returns None for a correct
output, or the reason it is wrong.  Every wrong output counts as a failed
item.  The digests in ``digests.json`` are those of pass 0 under the
default seed: the byte-identical contract, checked in every run.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from tilescope.cli import enumerate_normalized
from tilescope.core import DigitSet
from tilescope.tiling import is_tile_oracle

DIGESTS = Path(__file__).with_name("digests.json")
ORACLE_VALUES = 4096  # brute-force levels go up to base**level <= this


def item_digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:16]


def pass_digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out)
    return h.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def digest_mismatches(workload: str, outputs: list[bytes]) -> set[int]:
    """Indices of default-seed pass-0 outputs whose bytes differ from the record."""
    record = load_digests()["workloads"][workload]
    if pass_digest(outputs) == record["sha256"]:
        return set()
    if len(outputs) != len(record["items"]):
        return set(range(len(outputs)))
    return {i for i, (out, want) in enumerate(zip(outputs, record["items"])) if item_digest(out) != want}


def _arg(argv, flag: str) -> str:
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    raise KeyError(flag)


def _check_analyze(item, out: str) -> str | None:
    rep = json.loads(out)
    base = int(_arg(item.argv, "-b"))
    digits = rep["normalization"]["digits"]
    tile = rep["tile"]
    if tile["is_tile"] != (item.kind == "tile"):
        return f"expected {item.kind}, got is_tile={tile['is_tile']}"
    if item.kind == "non_tile":
        w = tile["witness"]
        left, right = w["left"], w["right"]
        allowed = set(digits)
        if left == right or len(left) != len(right) or len(left) != w["level"]:
            return "witness strings are not two distinct strings of one level"
        if not allowed.issuperset(left + right):
            return "witness uses a non-digit"
        values = {sum(x * base**i for i, x in enumerate(s)) for s in (left, right)}
        if values != {w["value"]}:
            return "witness strings differ in value"
        return None
    levels = max(1, int(math.log(ORACLE_VALUES, base)))
    if not is_tile_oracle(DigitSet(base, tuple(digits)), levels):
        return f"oracle finds a collision within {levels} levels"
    if rep["stopped_after"] is not None or not rep["decomposition"]["verified"]:
        return "tile report is incomplete or its decomposition is unverified"
    if Fraction(rep["measure_report"]["gap"]) < 0:
        return "cover length undershoots the tile measure"
    return None


def _check_search(item, out: str) -> str | None:
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]["summary"]
    records = lines[:-1]
    expected = len(enumerate_normalized(int(_arg(item.argv, "-b")), int(_arg(item.argv, "--bound"))))
    if not summary["count"] == len(records) == expected == item.weight:
        return f"count {summary['count']} with {len(records)} records, expected {expected}"
    if summary["violations"] or any(r["violation"] for r in records):
        return f"violations {summary['violations']}"
    if summary["tiles"] + summary["non_tiles"] + summary["inconclusive"] != expected:
        return "status counts do not add up"
    return None


def _check_render(item, out: str) -> str | None:
    k = int(_arg(item.argv, "-k"))
    if _arg(item.argv, "--format") == "svg":
        if not (out.startswith("<svg") and out.endswith("</svg>\n")):
            return "not a complete svg document"
        if [f">k={j}</text>" in out for j in range(1, k + 1)] != [True] * k:
            return "svg lacks a band per level"
        return None
    levels = json.loads(out)["levels"]
    if [lv["k"] for lv in levels] != list(range(1, k + 1)):
        return "json lacks a level"
    lengths = [Fraction(*lv["total_length"]) for lv in levels]
    if any(b > a for a, b in zip(lengths, lengths[1:])):
        return "total lengths increase"
    return None


CHECKS = {"analyze": _check_analyze, "search": _check_search, "render": _check_render}


def check_item(item, code: int, out: bytes, err: str) -> str | None:
    """None when the command's output is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    if err:
        return f"unexpected stderr: {err.strip()[-200:]}"
    try:
        return CHECKS[item.argv[0]](item, out.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
