"""Mask polynomials, cyclotomic divisibility, (T1)/(T2), and spectra."""

import cmath
import functools
import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import find_tiling_complement
from tilescope import cyclotomic, oracles
from tilescope.cli import enumerate_normalized, main
from tilescope.core import DigitSet
from tilescope.skewform import gen_weak_product_form, least_stage
from tilescope import (
    IntPolynomial,
    analyze_digit_set,
    check_t1,
    check_t2,
    cyclotomic_poly,
    divides,
    divides_oracle,
    euler_phi,
    laba_spectrum,
    mask_poly,
    prime_power_root,
    support,
    vanishes_at,
)

small_sets = st.sets(st.integers(0, 24), min_size=1, max_size=6)
# negative, repeated and unsorted elements, spans up to 120
raw_sets = st.lists(st.integers(-40, 80), min_size=1, max_size=10)


@st.composite
def divisor_cases(draw):
    """(s, A), where A is often a multiple of Phi_s."""
    s = draw(st.integers(2, 100))
    a = draw(raw_sets)
    if draw(st.booleans()):
        # Phi_s divides 1 + x**(s/q) + ... + x**((q-1)s/q) for a prime q | s
        q = min(p for p in range(2, s + 1) if s % p == 0)
        a = [x + j * (s // q) for x in a for j in range(q)]
    return s, a


def exp_sum(a, m: int, n: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * x * m / n) for x in a)


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_degree(self):
        assert IntPolynomial.zero().degree == -1

    def test_arithmetic(self):
        p = IntPolynomial((1, 1))
        q = IntPolynomial((-1, 1))
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - q).coeffs == (2,)

    def test_divmod_monic(self):
        # (x^4 - 1) = (x^2 + 1)(x^2 - 1)
        quot, rem = IntPolynomial((-1, 0, 0, 0, 1)).divmod_monic(
            IntPolynomial((1, 0, 1))
        )
        assert quot.coeffs == (-1, 0, 1) and rem.is_zero

    def test_divmod_remainder(self):
        quot, rem = IntPolynomial((1, 1, 1)).divmod_monic(IntPolynomial((1, 1)))
        assert quot.coeffs == (0, 1) and rem.coeffs == (1,)

    def test_str(self):
        assert str(IntPolynomial((1, 0, -1, 2))) == "2x^3 - x^2 + 1"


class TestCyclotomicPoly:
    def test_first(self):
        assert str(cyclotomic_poly(1)) == "x - 1"

    def test_sixteenth(self):
        assert cyclotomic_poly(16).coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 1)

    def test_sixth(self):
        assert cyclotomic_poly(6).coeffs == (1, -1, 1)

    def test_twelfth(self):
        assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)

    def test_degrees_are_totients(self):
        for n in range(1, 40):
            assert cyclotomic_poly(n).degree == euler_phi(n)

    def test_product_over_divisors(self):
        # product of all cyclotomics of divisors > 1 equals 1 + x + ... + x^(n-1)
        for n in range(2, 65):
            prod = IntPolynomial.one()
            for d in range(2, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_poly(d)
            assert prod.coeffs == (1,) * n, n


class TestMaskPoly:
    def test_product_form(self):
        assert mask_poly([0, 1, 8, 9]).coeffs == (1, 1, 0, 0, 0, 0, 0, 0, 1, 1)

    def test_singleton(self):
        assert mask_poly([0]).coeffs == (1,)

    def test_pair(self):
        assert mask_poly([0, 6]).coeffs == (1, 0, 0, 0, 0, 0, 1)

    def test_translates_to_zero(self):
        assert mask_poly([5, 11]) == mask_poly([0, 6])

    @given(small_sets)
    def test_counts_elements_at_one(self, a):
        assert mask_poly(a)(1) == len(a)


class TestDivides:
    def test_product_form_divisors(self):
        assert divides(2, [0, 1, 8, 9])
        assert divides(16, [0, 1, 8, 9])
        assert not divides(4, [0, 1, 8, 9])

    @given(small_sets, st.integers(2, 20), st.integers(-30, 30))
    def test_translation_invariant(self, a, s, t):
        assert divides(s, a) == divides(s, [x + t for x in a])

    @given(small_sets, st.integers(2, 24))
    def test_matches_float_evaluation(self, a, s):
        value = abs(exp_sum(a, 1, s))
        assert divides(s, a) == (value < 1e-8)

    @settings(max_examples=400)
    @given(divisor_cases())
    def test_matches_dense_division(self, case):
        s, a = case
        assert divides(s, a) == divides_oracle(s, a)

    def test_equal_residue_counts(self):
        # every residue mod 4 once, then 0 and 2 (one coset of 2) once more
        a = [0, 1, 2, 3, 4, 6]
        assert divides(4, a) and divides_oracle(4, a)
        assert not divides(4, a + [5]) and not divides_oracle(4, a + [5])
        with pytest.raises(ValueError, match="empty set"):
            divides(4, [])


class TestNoDenseDivision:
    """Every decision in ``analyze`` runs on residue counts alone."""

    @pytest.mark.parametrize(
        "base, digits",
        [
            # (T2) and the part triples reach the composite order 6
            ("12", "0,1,4,8,9,17,25,33,41,72,76,80"),
            # stage 4: the part triples of 16 blocks at modulus 256
            ("4", "0,1,512,1537"),
        ],
    )
    def test_analyze_never_divides_densely(self, capsys, monkeypatch, base, digits):
        argv = ["analyze", "-b", base, "-d", digits, "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def dense(*args):
            raise AssertionError("a decision reached the dense division")

        monkeypatch.setattr(oracles, "cyclotomic_poly", dense)
        monkeypatch.setattr(IntPolynomial, "divmod_monic", dense)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestSupport:
    def test_product_form(self):
        assert support([0, 1, 8, 9]).entries == (2, 16)

    def test_block_pair(self):
        assert support([0, 6]).entries == (4,)

    @pytest.mark.parametrize("base", range(2, 17))
    def test_standard_sets(self, base):
        # independent oracle: prime powers dividing the base
        expected = []
        q = 2
        while q <= base:
            if prime_power_root(q) is not None and base % q == 0:
                expected.append(q)
            q += 1
        assert support(range(base)).entries == tuple(expected)

    def test_lcm_and_primes(self):
        supp = support([0, 1, 8, 9])
        assert supp.lcm == 16 and supp.primes == (2, 2) and supp.prime_product == 4

    @settings(max_examples=300)
    @given(raw_sets)
    def test_matches_dense_scan(self, a):
        # every prime power whose cyclotomic polynomial could divide the mask
        span = max(a) - min(a)
        expected = tuple(
            s
            for s in range(2, 2 * span + 2)
            if prime_power_root(s) is not None
            and euler_phi(s) <= span
            and divides_oracle(s, a)
        )
        supp = support(a)
        assert supp.entries == expected
        assert supp.values == tuple(sorted(set(a)))


class TestSupportOnce:
    """``analyze`` derives each set's support once per analysis."""

    @pytest.mark.parametrize(
        "base, digits",
        [(12, [0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80]), (4, [0, 1, 8, 9])],
    )
    def test_support_calls_per_analysis(self, monkeypatch, base, digits):
        calls = []

        def counted(a):
            calls.append(tuple(a))
            return support(a)

        # every pipeline module that binds it; the decomposition imports it
        # from cyclotomic when it builds its supports
        for module in ("cyclotomic", "report"):
            monkeypatch.setattr(f"tilescope.{module}.support", counted)
        report, _ = analyze_digit_set(base, digits)
        cyclo = report["cyclotomic"]
        parts = {tuple(cyclo["A"]["set"])} | {tuple(b["set"]) for b in cyclo["B"]}
        full = {tuple(cyclo["full"]["set"])}
        assert report["spectral"]["all_ok"] is True
        assert len(calls) == len(full | parts)


@functools.cache
def corpus_parts() -> list[tuple[int, ...]]:
    """The A and B_j parts of the least-stage decompositions of small corpora."""
    parts = set()
    for base, bound in ((4, 16), (6, 12), (8, 12), (9, 12), (12, 16)):
        for digits in enumerate_normalized(base, bound):
            found = least_stage(DigitSet(base, digits), 3)
            if found is not None:
                parts.update((found[1].A, *found[1].Bs))
    return sorted(parts)


@st.composite
def progression_sums(draw):
    """Sums of progressions {0, t, ..., (p-1)t}: supports with several entries."""
    out = {draw(st.integers(-20, 20))}
    for _ in range(draw(st.integers(1, 3))):
        p, t = draw(st.sampled_from([2, 3])), draw(st.integers(1, 12))
        out = {x + j * t for x in out for j in range(p)}
    return sorted(out)


def t2_by_definition(supp, strict: bool) -> bool:
    """(T2) subset by subset, strict or over powers of distinct primes."""
    for k in range(2, len(supp.entries) + 1):
        for combo in combinations(supp.entries, k):
            distinct = len({prime_power_root(e) for e in combo}) == k
            if (strict or distinct) and not divides_oracle(math.prod(combo), supp.values):
                return False
    return True


class TestSupportRecord:
    """One support decides (T2) and builds its spectrum as the definitions say."""

    @settings(max_examples=300, deadline=None)
    @given(raw_sets | progression_sums() | st.deferred(lambda: st.sampled_from(corpus_parts())))
    def test_matches_definitions(self, a):
        supp = support(a)
        relaxed, strict = t2_by_definition(supp, False), t2_by_definition(supp, True)
        assert (supp.t2(), supp.t2(strict=True)) == (relaxed, strict)
        if not (supp.t1 and relaxed):
            with pytest.raises(ValueError):
                supp.spectrum()
            return
        sums = {
            sum((Fraction(k, s) for k, s in zip(ks, supp.entries)), Fraction(0)) % 1
            for ks in product(*(range(prime_power_root(s)) for s in supp.entries))
        }
        assert supp.spectrum().elements == tuple(sorted(sums))
        assert supp.spectrum() is supp.spectrum()


@st.composite
def hand_built_records(draw):
    """(entries, values): prime powers whose products stay small enough for
    the dense oracle, with 2 * 16 = 4 * 8 and 2 * 4 = 8 reaching one product
    by two subsets, over sets whose masks they may or may not divide."""
    entries = draw(
        st.sets(st.sampled_from([2, 4, 8, 16, 3, 9]), max_size=5).filter(
            lambda e: math.prod(e) <= 1024
        )
    )
    # Phi_s divides 1 + x + ... + x**(k - 1) exactly when s | k: every
    # product divides the product of all entries, every coprime one the lcm
    top = math.prod(entries)
    sizes = st.sampled_from([top, math.lcm(*entries)]) | st.sampled_from(
        [k for k in range(1, top + 1) if top % k == 0]
    )
    values = sizes.map(range) if draw(st.booleans()) else raw_sets | progression_sums()
    return tuple(entries), tuple(draw(values))


class TestT2ByDistinctProducts:
    """(T2) tests each distinct product of support entries once."""

    @settings(max_examples=300, deadline=None)
    @given(hand_built_records())
    def test_hand_built_records_match_definition(self, record):
        # entries need not divide the mask: the readings test them anyway
        supp = cyclotomic.PrimePowerSupport(*record)
        relaxed, strict = t2_by_definition(supp, False), t2_by_definition(supp, True)
        assert (supp.t2(), supp.t2(strict=True)) == (relaxed, strict)

    @pytest.mark.parametrize(
        "entries, values, expected",
        [
            # Phi_s divides 1 + x + ... + x**(k - 1) exactly when s | k
            ((2, 4, 8, 16), range(32), (True, False)),  # 4 * 16 = 64 does not divide
            ((2, 4, 8, 16), range(1024), (True, True)),
            ((2, 3, 4), range(12), (True, False)),  # 2 * 4 = 8 does not divide
            ((2, 3, 4), range(24), (True, True)),
            ((2, 3, 9), range(12), (False, False)),  # 2 * 9 = 18 does not divide
            # mask Phi_16 * Phi_32 * Phi_64: 2 * 4 reaches the entry 8, untested alone
            ((2, 4, 8), range(0, 64, 8), (True, False)),
        ],
    )
    def test_hand_built_examples(self, entries, values, expected):
        supp = cyclotomic.PrimePowerSupport(entries, tuple(values))
        assert (supp.t2(), supp.t2(strict=True)) == expected

    def test_one_divisibility_test_per_distinct_product(self, monkeypatch):
        d = gen_weak_product_form([0, 1], [0, 2], 6, {(1, 2): 1})
        _, dec = least_stage(d, 6)
        tested, divides_once = [], cyclotomic.divides

        def counted(s, a):
            tested.append(s)
            return divides_once(s, a)

        monkeypatch.setattr(cyclotomic, "divides", counted)
        for part in dec.supports:
            supp = support(part)
            products = {
                math.prod(combo)
                for k in range(2, len(supp) + 1)
                for combo in combinations(supp.entries, k)
            }
            tested.clear()
            supp.t2(), supp.t2(strict=True)
            assert len(tested) == len(set(tested)) and set(tested) <= products
        assert len(supp) == 6 and len(products) < 2**6 - 6 - 1


class TestConditions:
    def test_t1_product_form(self):
        assert check_t1([0, 1, 8, 9])

    def test_t1_twelve_digit_reps(self):
        assert support([0, 1, 4, 8, 9, 17]).entries == (2, 3)
        assert check_t1([0, 1, 4, 8, 9, 17])

    def test_t1_fails_without_divisors(self):
        assert support([0, 1, 3]).entries == ()
        assert not check_t1([0, 1, 3])

    def test_t2_single_prime_is_vacuous(self):
        assert check_t2([0, 1, 8, 9])

    def test_t2_two_primes(self):
        assert check_t2([0, 1, 4, 8, 9, 17])

    def test_t2_standard(self):
        assert check_t2([0, 1, 2, 3])

    def test_t2_strict_reading_differs(self):
        # support {2, 4}: the literal reading demands a divisor of degree
        # phi(8) = 4, impossible for a cubic mask
        assert check_t2([0, 1, 2, 3], strict=True) is False
        assert check_t2([0, 1, 2, 3]) is True

    def test_t2_strict_agrees_on_single_prime_power(self):
        assert check_t2([0, 1], strict=True)


class TestLabaSpectrum:
    def test_binary(self):
        spec = laba_spectrum([0, 1])
        assert spec.elements == (Fraction(0), Fraction(1, 2))
        assert spec.denominator == 2

    def test_product_form(self):
        spec = laba_spectrum([0, 1, 8, 9])
        assert spec.elements == (
            Fraction(0),
            Fraction(1, 16),
            Fraction(1, 2),
            Fraction(9, 16),
        )
        assert spec.denominator == 16

    def test_twelve_digit_reps(self):
        spec = laba_spectrum([0, 1, 4, 8, 9, 17])
        assert spec.elements == tuple(Fraction(k, 6) for k in range(6))
        assert spec.denominator == 6

    def test_singleton(self):
        spec = laba_spectrum([0])
        assert spec.elements == (Fraction(0),) and spec.denominator == 1

    def test_requires_conditions(self):
        with pytest.raises(ValueError, match=r"\(T1\) fails"):
            laba_spectrum([0, 1, 3])

    def test_pairwise_orthogonal(self):
        for a in ([0, 1, 8, 9], [0, 1, 4, 8, 9, 17], [0, 1, 2, 3], [0, 6]):
            spec = laba_spectrum(a)
            n = spec.denominator
            points = spec.scaled(n)
            assert len(points) == len(set(a))
            for i, p in enumerate(points):
                for q in points[i + 1:]:
                    assert vanishes_at(a, (q - p) % n, n)


class TestVanishesAt:
    def test_binary(self):
        assert vanishes_at([0, 1], 1, 2)

    def test_product_form(self):
        assert vanishes_at([0, 1, 8, 9], 8, 16)
        assert not vanishes_at([0, 1, 8, 9], 4, 16)

    def test_zero_frequency(self):
        assert not vanishes_at([0, 1], 0, 2)

    @given(small_sets, st.integers(2, 24))
    def test_matches_float_sum(self, a, n):
        for m in range(n):
            assert vanishes_at(a, m, n) == (abs(exp_sum(a, m, n)) < 1e-8), (a, m, n)


class TestCyclicTilingSanity:
    """Sets that tile a cyclic group satisfy both conditions."""

    def _tiles_somewhere(self, a) -> bool:
        for factor in range(1, 7):
            if find_tiling_complement(a, len(a) * factor) is not None:
                return True
        return False

    def test_complement_search_finds_known_tilings(self):
        assert find_tiling_complement([0, 1, 8, 9], 16) is not None
        assert find_tiling_complement([0, 2], 4) == [0, 1]
        assert find_tiling_complement([0, 2], 6) is None

    def test_small_tiling_sets_satisfy_conditions(self):
        from itertools import combinations

        checked = 0
        for size in (2, 3, 4):
            for rest in combinations(range(1, 13), size - 1):
                a = (0,) + rest
                if self._tiles_somewhere(a):
                    assert check_t1(a), a
                    assert check_t2(a), a
                    laba_spectrum(a)
                    checked += 1
        assert checked > 60
