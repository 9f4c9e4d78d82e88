"""Hadamard triples and assembled spectral data."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tilescope import (
    SkewDecomposition,
    SpectralConditionError,
    build_spectral_data,
    divides_oracle,
    expand,
    gen_weak_product_form,
    is_hadamard,
    least_stage,
    lift_stage,
    skew_decompose,
    truncated_spectrum,
    unitarity_residual,
    DigitSet,
)

TWELVE = (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)

small_sets = st.sets(st.integers(0, 15), min_size=1, max_size=5)


# (A, B) with A + B complete mod #A * #B, and the largest stage m whose
# modulus (#A * #B)**m stays within 144
WEAK_FACTORS = [
    ([0, 1], [0, 2], 3),
    ([0, 1], [0, 2, 4], 2),
    ([0, 3], [0, 1, 2], 2),
    ([0, 1, 2, 3], [0, 4], 2),
    ([0, 1, 2], [0, 3, 6], 2),
    ([0, 1, 2], [0, 3, 6, 9], 2),
    ([0, 1, 2, 3], [0, 4, 8], 2),
]


def hadamard_by_pairs(n, a, ell):
    """The definition: #A == #L, and every pair of L has an order s > 1
    at which Phi_s divides the mask of A."""
    sa, sl = sorted(set(a)), sorted(set(ell))
    if len(sa) != len(sl):
        return False
    decided = {}
    for i, c in enumerate(sl):
        for cc in sl[i + 1:]:
            s = n // math.gcd(cc - c, n)
            if s == 1:
                return False
            if s not in decided:
                decided[s] = divides_oracle(s, sa)
            if not decided[s]:
                return False
    return True


@st.composite
def corpus_triples(draw):
    """A part, block or joint triple of a weak product form's spectral data."""
    a, b, top = draw(st.sampled_from(WEAK_FACTORS))
    pairs = st.tuples(st.sampled_from(a), st.sampled_from(b))
    offsets = draw(st.dictionaries(pairs, st.integers(-2, 2), max_size=3))
    d = gen_weak_product_form(a, b, draw(st.integers(1, top)), offsets)
    _, dec = least_stage(d, top)
    try:
        rep = build_spectral_data(dec)
    except SpectralConditionError:
        return None
    block = draw(st.sampled_from(dec.Bs))
    joint = (
        [x + u for x in dec.A for u in block],
        [x + y for x in rep.l1 for y in rep.l2],
    )
    part, spectrum = draw(st.sampled_from([(dec.A, rep.l1), (block, rep.l2), joint]))
    return rep.modulus, part, spectrum


@st.composite
def hadamard_cases(draw):
    """(n, A, L): about half genuine triples, some L with points congruent mod n."""
    triple = draw(corpus_triples()) if draw(st.integers(0, 2)) else None
    if triple is None:
        n = draw(st.integers(2, 144))
        a = draw(st.sets(st.integers(-60, 200), min_size=1, max_size=8))
        ell = draw(st.lists(st.integers(-60, 200), min_size=len(a), max_size=len(a)))
    else:
        n, a, ell = triple
        t, u = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
        a, ell = [x + t for x in a], [c + u for c in ell]
    ell = list(ell)
    if len(ell) > 1:
        i, j = draw(st.permutations(range(len(ell))))[:2]
        k, move = draw(st.integers(-2, 2)), draw(st.integers(0, 2))
        if move == 1:
            ell[i] += k * n  # same residue, same verdict
        elif move == 2:
            ell[i] = ell[j] + k * n  # two points congruent mod n
    return n, a, ell


class TestIsHadamard:
    @settings(max_examples=300, deadline=None)
    @given(hadamard_cases())
    def test_matches_per_pair_definition(self, case):
        n, a, ell = case
        assert is_hadamard(n, a, ell) == hadamard_by_pairs(n, a, ell)

    def test_congruent_points_are_not_orthogonal(self):
        assert not is_hadamard(4, [0, 1], [0, 4])

    def test_basic_pair(self):
        assert is_hadamard(4, [0, 1], [0, 2])

    def test_full_fourier_matrix(self):
        assert is_hadamard(4, [0, 1, 2, 3], [0, 1, 2, 3])

    def test_non_vanishing_pair(self):
        assert not is_hadamard(4, [0, 2], [0, 2])

    def test_size_mismatch(self):
        assert not is_hadamard(4, [0, 1], [0])

    def test_residue_collapse_breaks_it(self):
        assert not is_hadamard(4, [0, 1, 8, 9], [0, 1, 2, 3])

    @settings(max_examples=60)
    @given(st.integers(2, 12), small_sets, small_sets)
    def test_two_sided(self, n, a, ell):
        assert is_hadamard(n, a, ell) == is_hadamard(n, ell, a)

    @settings(max_examples=60)
    @given(st.integers(2, 12), small_sets, small_sets, st.integers(-9, 9))
    def test_translation_invariant(self, n, a, ell, t):
        base = is_hadamard(n, a, ell)
        assert is_hadamard(n, [x + t for x in a], ell) == base
        assert is_hadamard(n, a, [c + t for c in ell]) == base

    @settings(max_examples=60)
    @given(st.integers(2, 10), small_sets, small_sets)
    def test_float_residual_agrees(self, n, a, ell):
        if len(set(a)) != len(set(ell)):
            return
        residual = unitarity_residual(n, sorted(a), sorted(ell))
        if is_hadamard(n, a, ell):
            assert residual < 1e-9
        else:
            assert residual > 1e-2

    def test_residue_collapse(self):
        # collapsing mod n is harmless while the set stays distinct mod n
        assert is_hadamard(4, [0, 5], [0, 2])
        assert is_hadamard(4, [0, 1], [0, 2])
        # a collapse with collisions must land on false via the size check
        assert not is_hadamard(4, [0, 4], [0, 2])
        assert not is_hadamard(4, [0], [0, 2])


@st.composite
def weak_decompositions(draw):
    """least_stage decompositions of weak product forms, stages 1-4, modulus <= 256."""
    a, b, _ = draw(st.sampled_from(WEAK_FACTORS))
    size = len(a) * len(b)
    top = max(m for m in range(1, 5) if size**m <= 256)
    pairs = st.tuples(st.sampled_from(a), st.sampled_from(b))
    offsets = draw(st.dictionaries(pairs, st.integers(-2, 2), max_size=3))
    d = gen_weak_product_form(a, b, draw(st.integers(1, top)), offsets)
    return least_stage(d, top)[1]


@st.composite
def hand_built_decompositions(draw):
    """Stage-1 decompositions whose parts pass (T1)/(T2) with one block
    support, although A + B_j need not be complete: those must be refused.

    {t, t + k, ..., t + (p - 1)k} for a prime p has the one support entry
    p**(v + 1), v the p-adic valuation of k, so blocks whose steps share
    that valuation share their support.
    """
    p, q = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    t = st.integers(-6, 6)

    def progression(size, step):
        start = draw(t)
        return tuple(start + i * step for i in range(size))

    k = draw(st.integers(1, 12))
    step = draw(st.integers(1, 12))
    units = st.integers(1, 5).filter(lambda u: u % q)
    a = progression(p, k)
    bs = tuple(progression(q, step * draw(units)) for _ in range(p))

    def entry(prime, v):
        return prime if v % prime else prime * entry(prime, v // prime)

    n = math.lcm(entry(p, k), entry(q, step)) * draw(st.sampled_from([1, 2, 3]))
    return SkewDecomposition(n, 1, a, bs)


class TestBuildSpectralData:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(weak_decompositions(), hand_built_decompositions()))
    @example(SkewDecomposition(4, 1, (0, 1), ((0, 1), (0, 3))))  # A + B_0 collides
    def test_verdicts_match_per_triple_test(self, dec):
        try:
            rep = build_spectral_data(dec)
        except SpectralConditionError:
            assume(False)
        except ValueError as err:
            # parts pass (T1)/(T2) with one block support, but dec is incomplete
            assert not dec.complete and "not a complete residue system" in str(err)
            return
        assert dec.complete
        n, sums = rep.modulus, [x + y for x in rep.l1 for y in rep.l2]
        assert rep.hadamard_a == is_hadamard(n, dec.A, rep.l1)
        assert rep.hadamard_b == tuple(is_hadamard(n, b, rep.l2) for b in dec.Bs)
        assert rep.hadamard_joint == tuple(
            is_hadamard(n, [x + u for x in dec.A for u in b], sums) for b in dec.Bs
        )

    def test_no_pair_scan_and_no_divisibility_test(self, monkeypatch):
        from tilescope import cyclotomic, spectral

        d = gen_weak_product_form([0, 1], [0, 2], 4, {(1, 2): 1})
        _, dec = least_stage(d, 4)
        assert len(set(dec.Bs)) == 16
        for supp in dec.supports.values():
            supp.t2()  # the records decide (T2) before the spectral layer reads it

        def no_test(*args):
            raise AssertionError("build_spectral_data decided a verdict a second time")

        monkeypatch.setattr(spectral, "is_hadamard", no_test)
        monkeypatch.setattr(spectral, "divides", no_test)
        monkeypatch.setattr(cyclotomic, "divides", no_test)
        rep = build_spectral_data(dec)
        assert rep.hadamard_a and rep.hadamard_b == (True,) * 16 and rep.all_ok

    def test_product_form(self):
        rep = build_spectral_data(skew_decompose({0, 1, 8, 9}, 4, 1))
        assert rep.support_a == (2,) and rep.support_b == (4,)
        assert rep.lcm_a == 2 and rep.lcm_b == 4
        assert rep.l1 == (0, 2) and rep.l2 == (0, 1)
        assert rep.all_ok

    def test_twelve_digit_set(self):
        rep = build_spectral_data(skew_decompose(TWELVE, 12, 1))
        assert rep.support_a == (2, 3) and rep.support_b == (4,)
        assert rep.l1 == (0, 2, 4, 6, 8, 10) and rep.l2 == (0, 3)
        assert rep.hadamard_a and all(rep.hadamard_b) and all(rep.hadamard_joint)
        assert rep.counting_identity and rep.all_ok

    def test_standard_set(self):
        rep = build_spectral_data(skew_decompose({0, 1, 2, 3}, 4, 1))
        assert rep.l1 == (0, 1, 2, 3) and rep.l2 == (0,)
        assert rep.all_ok

    def test_weak_product_blocks_share_support(self):
        rep = build_spectral_data(skew_decompose({0, 1, 8, 25}, 4, 1))
        assert rep.support_b == (4,)
        assert rep.all_ok

    def test_lifted_two_stage(self):
        dec = lift_stage(skew_decompose({0, 1, 32, 33}, 4, 2))
        rep = build_spectral_data(dec)
        assert rep.modulus == 16 and rep.all_ok

    def test_rejects_multi_stage(self):
        dec = skew_decompose({0, 1, 32, 33}, 4, 2)
        with pytest.raises(ValueError, match="1-stage"):
            build_spectral_data(dec)

    def test_support_mismatch_reported(self):
        dec = SkewDecomposition(4, 1, (0, 1), ((0, 2), (0, 1)))
        with pytest.raises(SpectralConditionError, match="differing supports"):
            build_spectral_data(dec)

    def test_condition_failure_reports_parts(self):
        dec = SkewDecomposition(6, 1, (0, 1, 3), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(SpectralConditionError) as err:
            build_spectral_data(dec)
        assert err.value.part_flags["A"] == (False, True)


class TestTruncatedSpectrum:
    def test_full_digit_system(self):
        spec = truncated_spectrum([0, 1, 2, 3], 4, [0, 1, 2, 3], 2)
        assert spec.denominator == 16
        assert spec.elements == tuple(Fraction(k, 16) for k in range(16))

    def test_no_uniform_complement(self):
        assert truncated_spectrum([0, 1, 8, 9], 4, [0, 1, 2, 3], 2) is None

    def test_wrong_complement_scale(self):
        assert truncated_spectrum([0, 1, 8, 9], 16, [0, 4, 8, 12], 1) is None

    def test_block_pair_levels(self):
        # (4, {0,2}, {0,1}) is Hadamard; three levels stay orthogonal
        spec = truncated_spectrum([0, 2], 4, [0, 1], 3)
        assert spec is not None and len(spec) == 8
        assert spec.denominator == 64


class TestResidualScale:
    def test_known_triples(self):
        assert unitarity_residual(4, [0, 1], [0, 2]) < 1e-12
        assert unitarity_residual(12, [0, 1, 4, 8, 9, 17], [0, 2, 4, 6, 8, 10]) < 1e-9
        assert unitarity_residual(4, [0, 2], [0, 2]) > 1e-2
        assert unitarity_residual(16, [0, 1, 8, 9], [0, 4, 8, 12]) > 1e-2


class TestCorpusSpectralData:
    @pytest.mark.parametrize("base,bound", [(4, 16), (6, 12), (12, 14)])
    def test_every_stabilized_tile_passes(self, base, bound):
        from tilescope import is_tile, stabilization_exponent
        from tilescope.cli import enumerate_normalized

        tiles = 0
        for digits in enumerate_normalized(base, bound):
            d = DigitSet(base, digits)
            if not is_tile(d)[0]:
                continue
            m = stabilization_exponent(d, 6)
            if m is None:
                continue
            dec = skew_decompose(expand(d, m).values, base**m, 1)
            assert dec is not None, digits
            rep = build_spectral_data(dec)
            assert rep.all_ok, digits
            tiles += 1
        assert tiles > 0
