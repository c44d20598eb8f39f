import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalfib import modorder
from pascalfib.core import ModMatrix, mat_mod
from pascalfib.fib import entry_point
from pascalfib.modorder import (
    matrix_order_mod,
    verify_left_order,
    verify_order_bound,
    verify_pminus1,
    verify_pplus1,
    verify_scalar_power,
)
from pascalfib.pascal import build_left, build_right
from pascalfib.report import HYPOTHESIS_NOT_MET, PASS

from oracles import matrix_order_by_divisors, primes_below

TEST_PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES_UNDER_10K = primes_below(10_000)
PRIMES_UNDER_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class TestMatrixOrderMod:
    def test_left_3_mod_2(self):
        assert matrix_order_mod(mat_mod(build_left(3), 2), 2) == 2

    def test_right_4_mod_13_tightness_witness(self):
        assert matrix_order_mod(mat_mod(build_right(4), 13), 28) == 28

    def test_identity_has_order_one(self):
        assert matrix_order_mod(ModMatrix.identity(5, 7), 12) == 1

    def test_non_annihilating_bound_rejected(self):
        with pytest.raises(ValueError, match="annihilating"):
            matrix_order_mod(mat_mod(build_right(3), 5), 7)

    def test_singular_matrix_rejected(self):
        singular = ModMatrix(2, 3, ((1, 2), (2, 1)))  # det = 1 - 4 = 0 mod 3
        with pytest.raises(ValueError, match="singular"):
            matrix_order_mod(singular, 6)

    def test_order_divides_any_annihilating_bound(self):
        m = mat_mod(build_right(5), 11)
        e = entry_point(11)
        order = matrix_order_mod(m, 4 * e)
        assert (4 * e) % order == 0
        assert modpow_is_identity(m, order)
        for d in range(1, order):
            if order % d == 0 and d != order:
                assert not modpow_is_identity(m, d)


    @settings(max_examples=100)
    @given(st.sampled_from(PRIMES_UNDER_10K), st.integers(1, 6),
           st.sampled_from(("left", "right")))
    def test_factor_removal_matches_divisor_walk(self, p, n, kind):
        if kind == "left":
            m, bound = mat_mod(build_left(n), p), p
        else:
            m, bound = mat_mod(build_right(n), p), 4 * entry_point(p)
        assert matrix_order_mod(m, bound) == matrix_order_by_divisors(m, bound)


def modpow_is_identity(m, e):
    from pascalfib.core import modmat_pow
    return modmat_pow(m, e) == ModMatrix.identity(m.n, m.p)


class TestLeftOrder:
    def test_n2_p2(self):
        report = verify_left_order(2, 2)
        assert report.order == 2
        assert report.passed

    def test_n5_p7(self):
        report = verify_left_order(5, 7)
        assert report.order == 7
        assert report.passed

    def test_n1_excluded(self):
        with pytest.raises(ValueError):
            verify_left_order(1, 3)

    @pytest.mark.parametrize("p", PRIMES_UNDER_100)
    def test_order_is_exactly_p_on_grid(self, p):
        for n in range(2, 9):
            report = verify_left_order(n, p)
            assert report.order == p
            assert report.theorem_checks["closed-form-offdiagonal"].verdict == PASS


class TestScalarPower:
    def test_n4_p13(self):
        # e = 7; (-1)**(3*7) * F_6 = -8 = 5 mod 13.
        report = verify_scalar_power(4, 13)
        assert report.theorem_checks["signed-scalar-even"].values["scalar"] == 5
        assert report.passed

    def test_n3_p2(self):
        report = verify_scalar_power(3, 2)
        assert report.passed

    def test_n2_p5(self):
        # R_2**5 = [[3,0],[0,3]] mod 5.
        report = verify_scalar_power(2, 5)
        assert report.theorem_checks["signed-scalar-even"].values["scalar"] == 3
        assert report.passed

    @pytest.mark.parametrize("p", TEST_PRIMES)
    def test_grid(self, p):
        for n in range(2, 9):
            report = verify_scalar_power(n, p)
            assert report.passed, (n, p)
            # Cross-module consistency: the exponent bound is 4 * entry point.
            assert report.witness_exponent_bound == 4 * entry_point(p)


class TestConditionalTheorems:
    def test_pminus1_holds_at_11(self):
        for n in range(2, 9):
            report = verify_pminus1(n, 11)
            assert report.theorem_checks["p-minus-1-identity"].verdict == PASS

    def test_pminus1_hypothesis_not_met_at_13(self):
        report = verify_pminus1(4, 13)
        assert report.theorem_checks["p-minus-1-identity"].verdict == HYPOTHESIS_NOT_MET

    def test_pminus1_hypothesis_not_met_at_2(self):
        report = verify_pminus1(4, 2)
        assert report.theorem_checks["p-minus-1-identity"].verdict == HYPOTHESIS_NOT_MET

    @pytest.mark.parametrize("p", (2, 3, 7, 13))
    def test_pplus1_holds_where_hypothesis_does(self, p):
        for n in range(2, 9):
            report = verify_pplus1(n, p)
            assert report.theorem_checks["p-plus-1-identity"].verdict == PASS, (n, p)

    def test_pplus1_hypothesis_not_met_at_11(self):
        report = verify_pplus1(3, 11)
        assert report.theorem_checks["p-plus-1-identity"].verdict == HYPOTHESIS_NOT_MET


class TestOrderBound:
    def test_n4_p13_met_exactly(self):
        report = verify_order_bound(4, 13)
        assert report.order == 28
        assert report.theorem_checks["within-2p-plus-2"].verdict == PASS
        assert report.theorem_checks["tightness-even-dimension"].verdict == PASS

    def test_n3_p11(self):
        report = verify_order_bound(3, 11)
        assert report.order <= 24
        assert report.theorem_checks["within-2p-plus-2"].verdict == PASS

    def test_n2_p2(self):
        report = verify_order_bound(2, 2)
        assert report.order == 3
        assert report.theorem_checks["within-2p-plus-2"].verdict == PASS
        # Tightness needs an odd prime: mod 2 the sign argument collapses.
        assert (report.theorem_checks["tightness-even-dimension"].verdict
                == HYPOTHESIS_NOT_MET)

    def test_p5_even_dimension_is_the_documented_exception(self):
        # Recorded empirically: order(R_2k mod 5) = 20 > 12 = 2(p+1).
        for n in (2, 4, 6, 8):
            report = verify_order_bound(n, 5)
            assert report.order == 20
            assert (report.theorem_checks["within-2p-plus-2"].verdict
                    == HYPOTHESIS_NOT_MET)

    def test_p5_odd_dimension_stays_small(self):
        for n in (3, 5, 7):
            report = verify_order_bound(n, 5)
            assert report.order <= 12

    @pytest.mark.parametrize("p", (3, 7, 13, 17))
    def test_tightness_met_for_even_dimensions(self, p):
        for n in (2, 4, 6, 8):
            report = verify_order_bound(n, p)
            assert report.order == 2 * (p + 1), (n, p)
            assert report.theorem_checks["tightness-even-dimension"].verdict == PASS

    @pytest.mark.parametrize("n", (2, 4))
    def test_tightness_not_claimed_below_maximal_period(self, n):
        # 4157 = 2 mod 5 has e = 297 < p + 1, so the period is 1188, not
        # 2(p + 1) = 8316, and the order 1188 is below the bound.
        report = verify_order_bound(n, 4157)
        assert report.order == 1188
        assert report.passed
        assert (report.theorem_checks["tightness-even-dimension"].verdict
                == HYPOTHESIS_NOT_MET)

    @pytest.mark.parametrize("p", TEST_PRIMES)
    def test_fourth_power_bound_on_grid(self, p):
        e = entry_point(p)
        for n in range(2, 9):
            report = verify_order_bound(n, p)
            assert (4 * e) % report.order == 0


class TestRightOrderMemo:
    def test_one_order_search_per_n_p_under_threads(self, monkeypatch):
        searches = Counter()
        search = modorder.matrix_order_mod

        def counted(m, bound):
            searches[(m.n, m.p)] += 1
            return search(m, bound)

        monkeypatch.setattr(modorder, "_right_orders", {})
        monkeypatch.setattr(modorder, "matrix_order_mod", counted)
        grid = [(n, p) for n in range(2, 6) for p in (7, 11, 13, 29)]
        laws = (verify_scalar_power, verify_pminus1, verify_pplus1, verify_order_bound)
        orders = {}

        def work(shift):
            for n, p in grid[shift:] + grid[:shift]:
                for law in laws:
                    orders.setdefault((n, p), set()).add(law(n, p).order)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert searches == Counter(dict.fromkeys(grid, 1))
        assert all(len(found) == 1 for found in orders.values())
