"""Shared fixtures, strategies and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: expansion
is enumerated positionally rather than incrementally, and cyclic-group
tilings are found by backtracking complement search.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import strategies as st

from tilescope.cli import enumerate_normalized
from tilescope.core import DigitSet


def digit_sets(*, max_base: int, max_digit: int, min_digit: int = 0):
    """Digit sets of base 2..max_base with distinct digits in [min_digit, max_digit]."""
    return st.integers(2, max_base).flatmap(
        lambda b: st.lists(
            st.integers(min_digit, max_digit), min_size=b, max_size=b, unique=True
        ).map(lambda ds: DigitSet(b, tuple(ds)))
    )


def brute_expand(digits, base: int, level: int) -> list[int]:
    """Every value of a length-``level`` digit string, by direct enumeration."""
    return sorted(
        {
            sum(d * base**i for i, d in enumerate(tup))
            for tup in product(sorted(digits), repeat=level)
        }
    )


def find_tiling_complement(a, n: int) -> list[int] | None:
    """A set C with A + C covering Z_n exactly once, by backtracking.

    At each step the smallest uncovered residue is covered; every translate
    that can cover it is tried, so the search is complete.
    """
    residues = sorted({x % n for x in a})
    if len(residues) != len(set(a)) or n % len(residues) != 0:
        return None
    size = n // len(residues)

    def extend(covered: frozenset[int], chosen: tuple[int, ...]):
        if len(chosen) == size:
            return list(chosen)
        x = min(set(range(n)) - covered)
        for r in residues:
            c = (x - r) % n
            block = {(c + s) % n for s in residues}
            if len(block) == len(residues) and not (block & covered):
                got = extend(covered | block, chosen + (c,))
                if got is not None:
                    return got
        return None

    return extend(frozenset(), ())


@pytest.fixture(scope="session")
def b4_corpus() -> list[tuple[int, ...]]:
    """Every normalized 4-digit set inside [0, 20]."""
    return enumerate_normalized(4, 20)
