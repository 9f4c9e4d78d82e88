"""Detection, verification, lifting, and generation of decompositions."""

import math
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tilescope.core
import tilescope.skewform
from conftest import brute_expand
from tilescope import (
    DigitSet,
    ExpansionLimitError,
    PeriodicSet,
    SkewDecomposition,
    collision_level,
    direct_sum_complete,
    expand,
    gen_product_form,
    gen_weak_product_form,
    is_tile,
    least_stage,
    lift_stage,
    normalize,
    self_replicating_tiling,
    skew_decompose,
    stabilization_exponent,
    verify_decomposition,
)
from tilescope.cli import enumerate_normalized

TWELVE = (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)


class TestSkewDecompose:
    def test_product_form(self):
        dec = skew_decompose({0, 1, 8, 9}, 4, 1)
        assert dec.A == (0, 1)
        assert dec.Bs == ((0, 2), (0, 2))

    def test_twelve_digit_set(self):
        dec = skew_decompose(TWELVE, 12, 1)
        assert dec.A == (0, 1, 4, 8, 9, 17)
        blocks = dict(zip(dec.A, dec.Bs))
        assert blocks[0] == blocks[4] == blocks[8] == (0, 6)
        assert blocks[1] == blocks[9] == blocks[17] == (0, 2)

    def test_unequal_class_sizes(self):
        assert skew_decompose({0, 1, 2, 5}, 4, 1) is None

    def test_incomplete_residue_sum(self):
        # classes are balanced but {0,1} + {0,1} collides mod 4
        assert skew_decompose({0, 1, 4, 5}, 4, 1) is None

    def test_stage_two(self):
        dec = skew_decompose({0, 1, 32, 33}, 4, 2)
        assert dec == SkewDecomposition(4, 2, (0, 1), ((0, 2), (0, 2)))
        assert skew_decompose({0, 1, 32, 33}, 4, 1) is None

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError, match="expected 4 values"):
            skew_decompose({0, 1, 2}, 4, 1)

    @pytest.mark.parametrize("base", [0, 1])
    def test_base_below_two_rejected(self, base):
        with pytest.raises(ValueError, match="base must be >= 2"):
            skew_decompose([], base, 1)

    def test_representative_independence(self):
        dec = skew_decompose(TWELVE, 12, 1)
        # swap each representative for the other member of its class
        alt_a, alt_bs = [], []
        for a, b in zip(dec.A, dec.Bs):
            shift = b[-1]
            alt_a.append(a + 12 * shift)
            alt_bs.append(tuple(sorted(u - shift for u in b)))
        alt = SkewDecomposition(12, 1, tuple(alt_a), tuple(alt_bs))
        assert verify_decomposition(alt, TWELVE)

    @settings(max_examples=40)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 1), st.sampled_from([0, 2])),
            st.integers(-2, 2),
            max_size=4,
        ),
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    )
    def test_any_class_member_works_as_representative(self, offsets, shifts):
        d = gen_weak_product_form([0, 1], [0, 2], 1, offsets)
        dec = skew_decompose(d.digits, 4, 1)
        assert dec is not None
        # moving a_j along its class shifts B_j the other way
        alt = SkewDecomposition(
            4,
            1,
            tuple(a + 4 * t for a, t in zip(dec.A, shifts)),
            tuple(
                tuple(sorted(u - t for u in b)) for b, t in zip(dec.Bs, shifts)
            ),
        )
        assert verify_decomposition(alt, d.digits) == verify_decomposition(
            dec, d.digits
        )


class TestVerifyDecomposition:
    def test_twelve_digit_set(self):
        assert verify_decomposition(skew_decompose(TWELVE, 12, 1), TWELVE)

    def test_product_form(self):
        dec = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 2)))
        assert verify_decomposition(dec, {0, 1, 8, 9})

    def test_incomplete_sum_rejected(self):
        dec = SkewDecomposition(4, 1, (0, 1), ((0, 1), (0, 1)))
        assert not verify_decomposition(dec, {0, 1, 4, 5})

    def test_wrong_values_rejected(self):
        dec = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 2)))
        assert not verify_decomposition(dec, {0, 1, 8, 13})


class TestLiftStage:
    def test_single_stage_is_identity(self):
        dec = skew_decompose({0, 1, 8, 9}, 4, 1)
        assert lift_stage(dec) == dec

    def test_weak_product_identity(self):
        dec = skew_decompose({0, 1, 8, 25}, 4, 1)
        assert dec.Bs == ((0, 2), (0, 6))
        assert lift_stage(dec) == dec

    def test_two_stage_lift(self):
        d = DigitSet(4, (0, 1, 32, 33))
        lifted = lift_stage(skew_decompose(d.digits, 4, 2))
        assert lifted.base == 16 and lifted.stage == 1
        assert verify_decomposition(lifted, expand(d, 2).values)
        assert lifted == skew_decompose(expand(d, 2).values, 16, 1)

    @settings(max_examples=30)
    @given(
        st.integers(2, 3),
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(0, 2),
            max_size=4,
        ),
    )
    def test_generated_two_stage_lifts(self, half, offsets):
        a = list(range(half))
        b = [half * i for i in range(half)]
        keyed = {(a[i % half], b[k % half]): v for (i, k), v in offsets.items()}
        d = gen_weak_product_form(a, b, 2, keyed)
        dec = skew_decompose(d.digits, d.base, 2)
        assert dec is not None
        lifted = lift_stage(dec)
        assert verify_decomposition(lifted, expand(d, 2).values)


class TestGenProductForm:
    def test_product_form(self):
        assert gen_product_form([[0, 1], [0, 2]], 4).digits == (0, 1, 8, 9)

    def test_standard(self):
        assert gen_product_form([list(range(6))], 6).digits == tuple(range(6))

    def test_swapped_factors(self):
        assert gen_product_form([[0, 2], [0, 1]], 4).digits == (0, 2, 4, 6)

    @pytest.mark.parametrize(
        "factors, base, match",
        [
            ([[0, 1], [0, 1]], 4, "complete residue system"),  # a repeated sum
            # 4 sums, though the distinct ones are complete
            ([[0], [0, 1], [0, 1]], 3, "complete residue system"),
            ([[0, 1]], 4, "complete residue system"),  # too few sums
            ([[0, 4], [0, 2]], 4, "complete residue system"),  # a factor collides
            # base 0 is refused before any arithmetic mod base
            ([[]], 0, "base must be"),
            ([[0], []], 0, "base must be"),
            ([[0]], 0, "base must be"),
        ],
        ids=[
            "repeated-sum",
            "sizes-exceed-base",
            "too-few-sums",
            "factor-collides",
            "base-zero-empty",
            "base-zero-empty-rest",
            "base-zero",
        ],
    )
    def test_incomplete_factors_rejected(self, factors, base, match):
        with pytest.raises(ValueError, match=match):
            gen_product_form(factors, base)

    def test_results_are_tiles(self):
        for factors, base in [
            ([[0, 1], [0, 2]], 4),
            ([[0, 2], [0, 1]], 4),
            ([[0, 1, 2], [0, 3]], 6),
            ([[0, 1], [0, 2], [0, 4]], 8),
        ]:
            assert is_tile(gen_product_form(factors, base))[0]


class TestGenWeakProductForm:
    def test_zero_offsets_give_product_form(self):
        assert gen_weak_product_form([0, 1], [0, 2], 1).digits == (0, 1, 8, 9)

    def test_single_offset(self):
        d = gen_weak_product_form([0, 1], [0, 2], 1, {(1, 2): 1})
        assert d.digits == (0, 1, 8, 25)
        dec = skew_decompose(d.digits, 4, 1)
        assert dict(zip(dec.A, dec.Bs))[1] == (0, 6)

    def test_two_stage(self):
        assert gen_weak_product_form([0, 1], [0, 2], 2).digits == (0, 1, 32, 33)

    def test_incomplete_pair_rejected(self):
        with pytest.raises(ValueError, match="complete residue system"):
            gen_weak_product_form([0, 1], [0, 4], 2)

    @settings(max_examples=40)
    @given(
        st.integers(1, 3),
        st.dictionaries(
            st.tuples(st.integers(0, 1), st.sampled_from([0, 2])),
            st.integers(-2, 2),
            max_size=4,
        ),
    )
    def test_generated_sets_are_decomposable_tiles(self, m, offsets):
        d = gen_weak_product_form([0, 1], [0, 2], m, offsets)
        assert is_tile(d)[0]
        dec = skew_decompose(d.digits, 4, m)
        assert dec is not None and verify_decomposition(dec, d.digits)


class TestTilePropertyOfDecomposables:
    def test_stage_one_decomposition_implies_tile(self, b4_corpus):
        # sufficiency of the decomposition, checked against the automaton
        for digits in b4_corpus:
            if max(digits) > 14:
                continue
            if skew_decompose(digits, 4, 1) is not None:
                assert is_tile(DigitSet(4, digits))[0], digits

    def test_decomposition_matches_brute_expansion(self):
        d = DigitSet(4, (0, 1, 32, 33))
        values = brute_expand(d.digits, 4, 2)
        dec = skew_decompose(values, 16, 1)
        assert sorted(dec.digit_values()) == values
        assert all(direct_sum_complete(dec.A, b, 16) for b in dec.Bs)


def _factorizations(n: int, parts: int) -> list[tuple[int, ...]]:
    """Ordered factorizations of n into ``parts`` factors, each >= 1."""
    if parts == 1:
        return [(n,)]
    return [
        (f,) + rest
        for f in range(1, n + 1)
        if n % f == 0
        for rest in _factorizations(n // f, parts - 1)
    ]


@st.composite
def staged_tiles(draw) -> DigitSet:
    """Normalized product-form or weak-product-form tiles, bases 2-12.

    The factor sets are the digit blocks {0, 1, .., n_0 - 1},
    n_0 * {0, .., n_1 - 1}, ... of a complete residue system, each
    element moved by its own multiple of the base and the whole set
    multiplied by a unit mod the base.
    """
    base = draw(st.integers(2, 12))
    stages = draw(st.integers(1, 3))
    weak = draw(st.booleans())
    splits = _factorizations(base, 2 if weak else stages)
    sizes = draw(st.sampled_from([f for f in splits if 1 not in f] or splits))
    unit = draw(st.sampled_from([u for u in range(1, base) if math.gcd(u, base) == 1]))
    shift = st.integers(-1, 2)
    factors, step = [], 1
    for size in sizes:
        factors.append([unit * step * j + base * draw(shift) for j in range(size)])
        step *= size
    if weak:
        a, b = factors
        offsets = draw(
            st.dictionaries(st.tuples(st.sampled_from(a), st.sampled_from(b)), shift)
        )
        d = gen_weak_product_form(a, b, stages, offsets)
    else:
        d = gen_product_form(factors, base)
    return normalize(d.digits, base)[0]


class TestLeastStage:
    def test_product_form(self):
        level, dec = least_stage(DigitSet(4, (0, 1, 8, 9)), 6)
        assert level.level == 1 and level.values == (0, 1, 8, 9)
        assert dec == skew_decompose((0, 1, 8, 9), 4, 1)

    def test_two_stage(self):
        d = DigitSet(4, (0, 1, 32, 33))
        level, dec = least_stage(d, 6)
        assert level == expand(d, 2)
        assert dec.base == 16 and dec.stage == 1
        assert verify_decomposition(dec, level.values)
        assert least_stage(d, 1) is None

    def test_non_tile_stops_at_the_collision(self):
        assert least_stage(DigitSet(4, (0, 1, 2, 5)), 12) is None

    @pytest.mark.parametrize("m_max", [0, -2])
    def test_stage_bound_checked(self, m_max):
        with pytest.raises(ValueError, match=f"m_max must be >= 1, got {m_max}"):
            least_stage(DigitSet(2, (0, 1)), m_max)

    @settings(max_examples=150, deadline=None)
    @given(staged_tiles())
    def test_matches_the_chain_on_tiles(self, d):
        found = least_stage(d, 6)
        assert found is not None
        assert found[0].level == stabilization_exponent(d, 6)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda b: st.lists(
                st.integers(0, 40), min_size=b, max_size=b, unique=True
            ).map(lambda ds: DigitSet(b, tuple(ds)))
        )
    )
    def test_none_on_non_tiles(self, d):
        tile, _ = is_tile(d)
        found = least_stage(d, 4)
        if tile:
            assert found is None or found[0].level == stabilization_exponent(d, 4)
        else:
            assert found is None


@st.composite
def weak_product_tiles(draw) -> DigitSet:
    """Normalized weak product forms in bases 2-8, with random offsets."""
    base = draw(st.integers(2, 8))
    size_a = draw(st.sampled_from([f for f in range(1, base + 1) if base % f == 0]))
    unit = draw(st.sampled_from([u for u in range(1, base) if math.gcd(u, base) == 1]))
    shift = st.integers(-1, 2)
    a = [unit * j + base * draw(shift) for j in range(size_a)]
    b = [unit * size_a * j + base * draw(shift) for j in range(base // size_a)]
    offsets = draw(st.dictionaries(st.tuples(st.sampled_from(a), st.sampled_from(b)), shift))
    d = gen_weak_product_form(a, b, draw(st.integers(1, 3)), offsets)
    return normalize(d.digits, base)[0]


def random_sets():
    """Digit sets of random digits in [0, 40], bases 2-8: mostly non-tiles."""
    return st.integers(2, 8).flatmap(
        lambda b: st.lists(st.integers(0, 40), min_size=b, max_size=b, unique=True).map(
            lambda ds: DigitSet(b, tuple(ds))
        )
    )


class TestStopLevel:
    """``least_stage`` told the collision level answers as without the hint."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weak_product_tiles(), random_sets()), st.integers(1, 4))
    def test_same_answer_with_the_collision_level(self, d, m_max):
        assert least_stage(d, m_max, collides_at=collision_level(d)) == least_stage(d, m_max)

    def test_collision_level_is_never_expanded(self, monkeypatch):
        d = DigitSet(3, (0, 1, 15))
        assert collision_level(d) == 4
        reached = []

        def recording(d, level, below=None):
            reached.append(level)
            return tilescope.core.expand(d, level, below)

        monkeypatch.setattr(tilescope.skewform, "expand", recording)
        assert least_stage(d, 6, collides_at=4) is None
        assert 4 not in reached

    @pytest.mark.parametrize("m_max", [3, 4, 6])
    def test_cap_at_the_collision_level(self, monkeypatch, m_max):
        # level 4 collides and is the first level over the cap
        d = DigitSet(3, (0, 1, 15))
        monkeypatch.setattr(tilescope.core, "MAX_EXPANSION_TERMS", 3**3)
        outcomes = []
        for hint in ({}, {"collides_at": 4}):
            try:
                outcomes.append(least_stage(d, m_max, **hint))
            except ExpansionLimitError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]
        if m_max >= 4:
            assert outcomes[0] == "level 4 too large for base 3: at most 3 levels fit the work cap"
        else:
            assert outcomes[0] is None


def least_stage_by_expansion(d: DigitSet, m_max: int):
    """Stage search by expansion alone: the reference for ``least_stage``.

    Every level is expanded from the one below and handed to
    ``skew_decompose``; the walk stops at the first colliding level.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    level = None
    for m in range(1, m_max + 1):
        level = expand(d, m, below=level)
        if level.collisions:
            return None
        dec = skew_decompose(level.values, d.base**m, 1)
        if dec is not None:
            return level, dec
    return None


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its ValueError."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


class TestLeastStageOracle:
    """``least_stage`` rules levels out by their residue class count first."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(weak_product_tiles(), random_sets()),
        st.integers(1, 5),
        st.integers(1, 6),
    )
    def test_matches_expansion(self, d, m_max, cap_level):
        expected = outcome(least_stage_by_expansion, d, m_max)
        found = outcome(least_stage, d, m_max)
        assert found == expected
        if isinstance(found, tuple) and isinstance(found[1], SkewDecomposition):
            level, dec = found  # what ``analyze`` reports as verified, unchecked
            assert verify_decomposition(dec, level.values)
            # ``analyze`` builds the tiling set from A, unchecked: block j is
            # a_j + b**m * B_j, so D_m + b**m * Z = A + b**m * Z, and
            # self_replicating_tiling raises unless that set self-replicates
            j = PeriodicSet.from_values(dec.A, d.base**level.level).reduce()
            assert j == self_replicating_tiling(d, level.level)
        assert outcome(least_stage, d, m_max, collision_level(d)) == expected
        with pytest.MonkeyPatch.context() as mp:
            # levels above cap_level are over the work cap
            mp.setattr(tilescope.core, "MAX_EXPANSION_TERMS", d.base**cap_level)
            capped = outcome(least_stage_by_expansion, d, m_max)
            assert outcome(least_stage, d, m_max) == capped
            assert outcome(least_stage, d, m_max, collision_level(d)) == capped

    def test_levels_ruled_out_are_not_expanded(self, monkeypatch):
        # {0,1,32,33}: level 1 has 2 classes mod 4, a divisor, but no skew
        # form; level 2 decomposes, built from level 1
        d = DigitSet(4, (0, 1, 32, 33))
        reached = []

        def recording(d, level, below=None):
            reached.append((level, None if below is None else below.level))
            return tilescope.core.expand(d, level, below)

        monkeypatch.setattr(tilescope.skewform, "expand", recording)
        assert least_stage(d, 6)[0].level == 2
        assert reached == [(1, None), (2, 1)]
        reached.clear()
        # {0,1,9,10} first collides at level 4, and #R_1, #R_2, #R_3 are
        # 3, 10 and 36: none divides its modulus, so no level is expanded
        d = DigitSet(4, (0, 1, 9, 10))
        assert collision_level(d) == 4
        assert least_stage(d, 6) is None
        assert reached == []

    def test_a_wrong_hint_stops_at_the_first_collision(self):
        # collides_at=None claims a tile; on a non-tile, the first colliding
        # level expanded answers None, as the walk that expands every level
        # does; these four pass the class-count test at a colliding level
        wrong = [(0, 3, 20), (0, 4, 19), (0, 15, 19), (0, 17, 20)]
        sets = map(partial(DigitSet, 3), enumerate_normalized(3, 30))
        non_tiles = [d for d in sets if collision_level(d) is not None]
        assert {d.digits for d in non_tiles} >= set(wrong)
        for d in non_tiles:
            assert outcome(least_stage, d, 8, None) == outcome(least_stage_by_expansion, d, 8)


def brute_complete(dec: SkewDecomposition) -> bool:
    """The definition: for each block, every (a + u) mod base is hit once."""
    return all(
        sorted((a + u) % dec.base for a in dec.A for u in b) == list(range(dec.base))
        for b in dec.Bs
    )


@st.composite
def perturbed_decompositions(draw) -> SkewDecomposition:
    """Stage-1 decompositions built complete from A + B = Z_base, then
    perturbed per distinct block: grown, shrunk, given a duplicate element
    or a colliding one.  Blocks repeat, since each is drawn from a pool."""
    base = draw(st.integers(2, 12))
    s = draw(st.sampled_from([f for f in range(1, base + 1) if base % f == 0]))
    shift = st.integers(-2, 2)
    a = tuple(j + base * draw(shift) for j in range(s))
    block = st.lists(shift, min_size=base // s, max_size=base // s).map(
        lambda ts: tuple(s * k + base * t for k, t in enumerate(ts))
    )

    def perturb(b):
        kind = draw(st.sampled_from(["keep", "grow", "shrink", "duplicate", "collide"]))
        if kind == "grow":
            return b + (draw(st.integers(-20, 20)),)
        if kind == "shrink":
            return b[:-1]
        if kind == "duplicate":
            return b[:-1] + (b[0],)
        if kind == "collide":
            return b[:-1] + (b[-1] + draw(st.integers(1, base - 1)),)
        return b

    pool = [perturb(b) for b in draw(st.lists(block, min_size=1, max_size=3))]
    return SkewDecomposition(base, 1, a, tuple(draw(st.sampled_from(pool)) for _ in a))


@st.composite
def random_decompositions(draw) -> SkewDecomposition:
    """Stage-1 decompositions of arbitrary parts: A may collide mod base."""
    base = draw(st.integers(2, 8))
    a = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=4, unique=True))
    blocks = st.lists(st.integers(-10, 10), max_size=4).map(tuple)
    return SkewDecomposition(base, 1, tuple(a), tuple(draw(blocks) for _ in a))


def decompose_by_definition(values, base: int, stage: int) -> SkewDecomposition | None:
    """Equal residue classes mod base, each constant mod base**stage, with
    class minima as A, and every A + B_j complete."""
    classes: dict[int, list[int]] = {}
    for v in sorted(set(values)):
        classes.setdefault(v % base, []).append(v)
    modulus = base**stage
    if len({len(c) for c in classes.values()}) != 1:
        return None
    if any((v - c[0]) % modulus for c in classes.values() for v in c):
        return None
    parts = sorted((c[0], tuple((v - c[0]) // modulus for v in c)) for c in classes.values())
    dec = SkewDecomposition(base, stage, *map(tuple, zip(*parts)))
    return dec if brute_complete(dec) else None


@st.composite
def staged_value_sets(draw) -> tuple[tuple[int, ...], int, int]:
    """Weak product forms at stages 1-3, one digit moved at random or not,
    with a stage to decompose at that need not be theirs."""
    d = draw(weak_product_tiles())
    values = list(d.digits)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        values[i] += draw(st.integers(1, 200))
        assume(len(set(values)) == len(values))
    return tuple(values), d.base, draw(st.integers(1, 3))


class TestComplete:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(perturbed_decompositions(), random_decompositions()))
    @example(SkewDecomposition(4, 1, (0, 1), ((0, 0), (0, 2))))  # a duplicate element
    @example(SkewDecomposition(4, 1, (0, 1), ((0, 2, 2), (0, 2))))  # and the wrong size
    def test_matches_brute_enumeration(self, dec):
        assert dec.complete == brute_complete(dec)

    def test_repeated_block_checked_once(self, monkeypatch):
        seen = []

        def recording(a, blocks, period):
            seen.extend(blocks)
            return tilescope.core._sums_complete(a, blocks, period)

        monkeypatch.setattr(tilescope.skewform, "_sums_complete", recording)
        dec = skew_decompose(TWELVE, 12, 1)
        assert dec.complete and seen == [(0, 6), (0, 2)]
        assert verify_decomposition(dec, TWELVE) and len(seen) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(staged_value_sets(), random_sets().map(lambda d: (d.digits, d.base, 1))))
    def test_skew_decompose_matches_definition(self, case):
        values, base, stage = case
        assert skew_decompose(values, base, stage) == decompose_by_definition(
            values, base, stage
        )
