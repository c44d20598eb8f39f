import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalfib.fib import (
    bloom_wall_check,
    check_identities,
    entry_point,
    fib,
    fib_mod_data,
    fib_pair_mod,
    fib_via_binomials,
    lucas,
    period_exactness_check,
    pisano_period,
)
from pascalfib.report import FAIL, HYPOTHESIS_NOT_MET, PASS

from oracles import entry_point_naive, fib_naive, pisano_naive, primes_below

PRIMES_UNDER_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
PRIMES_UNDER_10K = primes_below(10_000)

# `pascalfib.fib` the attribute is the function; the module is in sys.modules.
fib_module = importlib.import_module("pascalfib.fib")


class TestSequences:
    def test_fib_values(self):
        assert fib(10) == 55
        assert fib(0) == 0
        assert fib(1) == 1

    def test_fib_against_naive_loop(self):
        for k in range(0, 200, 7):
            assert fib(k) == fib_naive(k)

    def test_exact_values_across_the_table_edge(self):
        for k in (*range(120, 140), 500, 1000):
            assert fib(k) == fib_naive(k), k

    def test_fib_rejects_negative(self):
        with pytest.raises(ValueError):
            fib(-1)

    def test_lucas_values(self):
        assert lucas(0) == 2
        assert lucas(1) == 1
        assert lucas(2) == 3
        assert lucas(6) == 18

    @given(st.integers(1, 200))
    def test_lucas_is_fib_neighbor_sum(self, k):
        assert lucas(k) == fib(k - 1) + fib(k + 1)


class TestFibPairMod:
    def test_entry_point_neighborhood(self):
        # F_7 = 13, F_8 = 21.
        assert fib_pair_mod(7, 13) == (0, 8)

    def test_zero_index(self):
        assert fib_pair_mod(0, 9) == (0, 1)

    def test_against_naive_iteration(self):
        for m in (2, 6, 13, 97, 1000):
            a, b = 0, 1
            for k in range(1001):
                assert fib_pair_mod(k, m) == (a, b)
                a, b = b, (a + b) % m

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fib_pair_mod(-1, 5)
        with pytest.raises(ValueError):
            fib_pair_mod(3, 1)

    @given(st.integers(0, 300), st.integers(2, 100))
    def test_matches_exact_sequence(self, k, m):
        assert fib_pair_mod(k, m) == (fib(k) % m, fib(k + 1) % m)


class TestEntryPointAndPeriod:
    def test_quoted_values(self):
        assert entry_point(2) == 3
        assert entry_point(5) == 5
        assert entry_point(13) == 7
        assert pisano_period(2) == 3
        assert pisano_period(5) == 20

    def test_against_naive_scan(self):
        for m in range(2, 60):
            assert entry_point(m) == entry_point_naive(m)
            assert pisano_period(m) == pisano_naive(m)

    def test_entry_point_divides_period_up_to_1000(self):
        for m in range(2, 1001):
            data = fib_mod_data(m)
            assert data.pisano_period % data.entry_point == 0

    def test_freyd_bound_up_to_1000(self):
        for m in range(2, 1001):
            assert pisano_period(m) <= 6 * m

    def test_entry_point_fib_is_zero_and_predecessor_invertible(self):
        for p in PRIMES_UNDER_100:
            e = entry_point(p)
            assert fib(e) % p == 0
            assert fib(e - 1) % p != 0

    @settings(max_examples=200)
    @given(st.sampled_from(PRIMES_UNDER_10K))
    def test_prime_fast_paths_match_scans(self, p):
        assert entry_point(p) == entry_point_naive(p)
        assert pisano_period(p) == pisano_naive(p)

    def test_primes_skip_the_scans(self, monkeypatch):
        def no_scan(m):
            raise AssertionError(f"scanned modulo {m}")
        monkeypatch.setattr(fib_module, "_mod_data", {})
        monkeypatch.setattr(fib_module, "_entry_point_scan", no_scan)
        monkeypatch.setattr(fib_module, "_pisano_scan", no_scan)
        assert fib_mod_data(4157) == fib_module.FibModData(4157, 297, 1188)
        # 2^31 - 1 = 2 mod 5 has entry point p + 1 = 2^31 and period 2(p + 1).
        assert fib_mod_data(2**31 - 1) == fib_module.FibModData(2**31 - 1, 2**31, 2**32)

    def test_entry_point_falls_back_to_scan(self, monkeypatch):
        # F_p = (5|p) mod p is never 0 for p != 5, so starting from p
        # fails the F_N = 0 confirmation and the scan must answer.
        scanned = []
        scan = fib_module._entry_point_scan
        monkeypatch.setattr(fib_module, "_mod_data", {})
        monkeypatch.setattr(fib_module, "_bloom_wall_multiple", lambda p: p)
        monkeypatch.setattr(fib_module, "_entry_point_scan",
                            lambda m: scanned.append(m) or scan(m))
        assert entry_point(4157) == 297
        assert pisano_period(4157) == pisano_naive(4157)
        assert scanned == [4157]

    def test_memoization_returns_same_object(self):
        assert fib_mod_data(37) is fib_mod_data(37)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            entry_point(1)


class TestEntryPointCongruences:
    # Congruences that make the scalar-power theorem tick.
    @pytest.mark.parametrize("p", PRIMES_UNDER_100)
    def test_neighbors_agree_at_entry_point(self, p):
        e = entry_point(p)
        assert (fib(e - 1) - fib(e + 1)) % p == 0

    @pytest.mark.parametrize("p", PRIMES_UNDER_100)
    def test_double_entry_point(self, p):
        e = entry_point(p)
        assert fib(2 * e - 1) ** 2 % p == 1
        assert fib(2 * e) % p == 0

    def test_fib_divisibility(self):
        for m in range(1, 31):
            for s in range(1, 11):
                assert fib(s * m) % fib(m) == 0


class TestBloomWall:
    def test_residue_one_class(self):
        report = bloom_wall_check(11)
        assert report.residue_mod5 == 1
        assert report.period == 10
        assert report.passed

    def test_residue_three_class(self):
        report = bloom_wall_check(13)
        assert report.entry_point == 7
        assert report.period == 28
        assert report.passed

    def test_excluded_primes(self):
        with pytest.raises(ValueError):
            bloom_wall_check(5)
        with pytest.raises(ValueError):
            bloom_wall_check(2)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            bloom_wall_check(21)

    def test_all_primes_under_200(self):
        for p in PRIMES_UNDER_100 + (101, 103, 107, 109, 113, 127, 131, 137,
                                     139, 149, 151, 157, 163, 167, 173, 179,
                                     181, 191, 193, 197, 199):
            if p in (2, 5):
                continue
            assert bloom_wall_check(p).passed, p


class TestFibViaBinomials:
    def test_small_values(self):
        assert fib_via_binomials(1) == 1
        assert fib_via_binomials(5) == 5  # sum 5 + 50 + 25 = 80 = 2**4 * 5

    def test_matches_fib_up_to_200(self):
        for j in range(1, 201):
            assert fib_via_binomials(j) == fib(j)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fib_via_binomials(0)


class TestIdentities:
    def test_cassini_hand_values(self):
        report = check_identities(3)
        assert report.passed  # 1*3 - 4 = -1 = (-1)**3

    def test_sum_of_squares_hand_values(self):
        report = check_identities(4)
        assert report.passed  # F_7 = 13 = 4 + 9

    def test_up_to_500(self):
        assert all(check_identities(e).passed for e in range(1, 501))


class TestPeriodExactness:
    def test_p3_hits_p_plus_1_branch(self):
        report = period_exactness_check(3)
        assert report.branch == "entry-point-is-p-plus-1"
        assert report.period == 8
        assert report.verdict == PASS

    def test_hypothesis_not_met(self):
        # entry_point(29) = 14 != 28 and 29 = 4 mod 5 needs e = 28.
        report = period_exactness_check(29)
        assert report.verdict == HYPOTHESIS_NOT_MET

    def test_scan_under_500(self):
        primes = [p for p in range(3, 500)
                  if p != 5 and all(p % q for q in range(2, int(p**0.5) + 1))]
        branches = {"entry-point-is-p-minus-1": [], "entry-point-is-p-plus-1": []}
        for p in primes:
            report = period_exactness_check(p)
            assert report.verdict != FAIL, p
            if report.verdict == PASS:
                branches[report.branch].append(p)
        # Both hypothesis branches are exercised in this range.
        assert 11 in branches["entry-point-is-p-minus-1"]
        assert 3 in branches["entry-point-is-p-plus-1"]
        assert branches["entry-point-is-p-minus-1"]
        assert branches["entry-point-is-p-plus-1"]

    def test_excluded_primes(self):
        with pytest.raises(ValueError):
            period_exactness_check(5)
        with pytest.raises(ValueError):
            period_exactness_check(2)
