import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pascalfib import cli, core, fib, modorder
from pascalfib.core import ModMatrix, mat_mod
from pascalfib.fib import entry_point
from pascalfib.modorder import (
    BoundNotAnnihilating,
    matrix_order_mod,
    verify_left_order,
    verify_order_bound,
    verify_pminus1,
    verify_pplus1,
    verify_scalar_power,
)
from pascalfib.pascal import build_left, build_right
from pascalfib.report import FAIL, HYPOTHESIS_NOT_MET, PASS

import oracles
from oracles import (
    matrix_from_rows,
    matrix_order_by_divisors,
    modmat_pow_slow,
    prime_factors_naive,
    primes_below,
    right_order_reports_slow,
    verify_left_order_slow,
)

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
        # A singular matrix never reaches the identity, so the search fails
        # its first check and the determinant names the cause.
        p = 2**31 - 1
        top = [[(7**(5 * i + j) + i) % p for j in range(5)] for i in range(4)]
        rank_four = top + [[(x + 3 * y) % p for x, y in zip(top[0], top[2])]]
        cases = [
            (ModMatrix(2, 3, ((1, 2), (2, 1))), 6),  # det = 1 - 4 = 0 mod 3
            (ModMatrix(3, 7, ((0, 0, 0),) * 3), 12),  # zero
            (ModMatrix(2, 7, ((1, 1), (0, 0))), 12),  # idempotent
            (ModMatrix(3, 11, ((0, 1, 5), (0, 0, 1), (0, 0, 0))), 40),  # nilpotent
            (ModMatrix(5, p, tuple(map(tuple, rank_four))), 2**31 - 2),
            # det = 2: nonzero, but a zero divisor mod 4.
            (ModMatrix(2, 4, ((2, 0), (0, 1))), 4),
        ]
        for m, bound in cases:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"^matrix is singular modulo {m.p}$"):
                matrix_order_mod(m, bound)
            assert time.perf_counter() - start < 1.0

    def test_composite_modulus(self):
        # The modulus need not be prime: R_6 mod 12 has order 24 = 2 e(12).
        m = mat_mod(build_right(6), 12)
        assert matrix_order_mod(m, 48) == 24 == matrix_order_by_divisors(m, 48)

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


class TestSquaredUpChain:
    """The bound's power is squared up from its odd part; the orders
    found match the ascending divisor walk whatever the bound's 2s."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.sampled_from(PRIMES_UNDER_100),
           st.sampled_from(("left", "right")), st.integers(0, 6), st.sampled_from((1, 3, 5, 9)))
    @example(4, 13, "right", 2, 1)
    @example(3, 47, "right", 6, 1)
    @example(5, 7, "left", 0, 9)
    @example(2, 2, "left", 1, 3)
    def test_bound_of_each_2_adic_valuation(self, n, p, kind, twos, odd):
        m = mat_mod((build_left if kind == "left" else build_right)(n), p)
        order = matrix_order_by_divisors(m, p if kind == "left" else 4 * entry_point(p))
        own_twos = (order & -order).bit_length() - 1
        assume(own_twos <= twos)
        bound = (order >> own_twos) * odd << twos
        assert matrix_order_mod(m, bound) == matrix_order_by_divisors(m, bound) == order
        for q in set(prime_factors_naive(order)):
            short = bound
            while short % order == 0:
                short //= q
            with pytest.raises(BoundNotAnnihilating, match="^bound is not annihilating$"):
                matrix_order_mod(m, short)

    @pytest.mark.parametrize("twos", range(7))
    def test_singular_matrix_at_each_2_adic_valuation(self, twos):
        for m in (ModMatrix(2, 7, ((1, 1), (0, 0))),
                  ModMatrix(3, 11, ((0, 1, 5), (0, 0, 1), (0, 0, 0)))):
            with pytest.raises(ValueError, match=f"^matrix is singular modulo {m.p}$") as info:
                matrix_order_mod(m, 3 << twos)
            assert type(info.value) is ValueError


def modpow_is_identity(m, e):
    from pascalfib.core import modmat_pow
    return modmat_pow(m, e) == ModMatrix.identity(m.n, m.p)


class TestCheckResult:
    def test_values_have_no_default(self):
        with pytest.raises(TypeError):
            modorder.CheckResult(PASS)

    def test_reports_share_no_values_dict(self):
        first = verify_left_order(3, 7).theorem_checks["closed-form-offdiagonal"]
        second = verify_left_order(4, 7).theorem_checks["closed-form-offdiagonal"]
        assert first.values == second.values == {}
        assert first.values is not second.values


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

    @pytest.mark.parametrize("verify", [verify_left_order, verify_scalar_power])
    def test_composite_p_refused(self, verify):
        # ModMatrix takes any modulus; the theorems' verifiers take primes.
        with pytest.raises(ValueError, match="^9 is not prime$"):
            verify(4, 9)

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
    def test_pplus1_hypothesis_evaluated_once_per_fill(self, monkeypatch):
        # p | F_{p+1} is evaluated by the memo fill alone; verify_pplus1
        # reads it from the facts, as verify_pminus1 reads its own.
        calls = Counter()
        real = modorder.fib_pair_mod

        def counted(k, m):
            calls[(k, m)] += 1
            return real(k, m)

        monkeypatch.setattr(modorder, "_right_orders", {})
        monkeypatch.setattr(modorder, "fib_pair_mod", counted)
        primes = (7, 11, 13)
        for _ in range(2):
            verdicts = [verify_pplus1(n, p).theorem_checks["p-plus-1-identity"].verdict
                        for n in (2, 3, 4) for p in primes]
        assert [calls[(p + 1, p)] for p in primes] == [3, 3, 3]
        assert verdicts == [PASS, HYPOTHESIS_NOT_MET, PASS] * 3

    def test_one_order_per_n_p_under_threads(self, monkeypatch):
        # Threads that fill the same (n, p) at once may each run the
        # order search, but every law in every thread reads one order.
        monkeypatch.setattr(modorder, "_right_orders", {})
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
        assert all(len(found) == 1 for found in orders.values())

    def test_a_memo_hit_calls_no_is_prime(self, monkeypatch):
        # n and p are checked when the memo misses; only valid (n, p)
        # are stored, so a hit checks nothing again.
        monkeypatch.setattr(modorder, "_right_orders", {})
        right_order_reports(4, 13)
        calls = []
        real = core.is_prime
        for module in (core, fib, modorder):
            monkeypatch.setattr(module, "is_prime", lambda p: calls.append(p) or real(p))
        reports = right_order_reports(4, 13)
        assert calls == []
        assert all(report.passed for report in reports.values())

    def test_order_grid_campaign_is_prime_calls(self, monkeypatch, capsys):
        # The seed-1 order-grid campaign: primality is checked where input
        # enters and where a theorem needs a prime, never per matrix built.
        monkeypatch.setattr(modorder, "_right_orders", {})
        monkeypatch.setattr(fib, "_mod_data", {})
        calls = []
        real = core.is_prime
        for module in (core, fib, modorder, cli):
            monkeypatch.setattr(module, "is_prime", lambda p: calls.append(p) or real(p))
        assert cli.main([
            "verify", "--laws", "mod2,left-order,scalar-power,p-minus-1,p-plus-1,"
            "order-bound,bloom-wall,period-exactness", "--n", "2..8", "--primes",
            "2,3,5,1567,5081,5519,7121,7219,8467,8563,9067"]) == 0
        capsys.readouterr()
        assert len(calls) <= 200

    def test_invalid_n_or_p_is_refused_and_not_stored(self, monkeypatch):
        monkeypatch.setattr(modorder, "_right_orders", {})
        for law in RIGHT_LAWS.values():
            for n, p in ((1, 13), (4, 15), (4, 1)):
                with pytest.raises(ValueError):
                    law(n, p)
        assert modorder._right_orders == {}

    def test_memo_holds_no_matrix(self, monkeypatch):
        # The ladder is dropped after the fill; only integers, booleans
        # and None stay behind.
        monkeypatch.setattr(modorder, "_right_orders", {})
        for p in (2, 5, 11, 13):
            right_order_reports(6, p)
        facts = list(modorder._right_orders.values())
        assert len(facts) == 4
        assert all(type(x) in (int, bool, type(None)) for fact in facts for x in fact)


RIGHT_LAWS = {"scalar-power": verify_scalar_power, "p-minus-1": verify_pminus1,
              "p-plus-1": verify_pplus1, "order-bound": verify_order_bound}


def right_order_reports(n, p):
    return {name: law(n, p) for name, law in RIGHT_LAWS.items()}


def _count_modmat_mul(monkeypatch):
    """Count the modular multiplies modorder makes, in counter[0]."""
    counter = [0]
    real = modorder.modmat_mul

    def counted(a, b):
        counter[0] += 1
        return real(a, b)

    monkeypatch.setattr(modorder, "modmat_mul", counted)
    return counter


class TestLadderMatchesSlowPath:
    """The five order reports, with every power read off one ladder per
    (n, p), against one slow power per exponent in tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.sampled_from(PRIMES_UNDER_10K))
    @example(2, 2)
    @example(3, 2)
    @example(4, 5)
    @example(5, 5)
    @example(4, 13)
    @example(2, 4157)
    def test_five_reports(self, n, p):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modorder, "_right_orders", {})
            assert right_order_reports(n, p) == right_order_reports_slow(n, p)
            assert verify_left_order(n, p) == verify_left_order_slow(n, p)

    def test_false_fourth_power_premise(self, monkeypatch):
        wrong_entry_point_at_13(monkeypatch)
        reports = right_order_reports(4, 13)
        assert reports == right_order_reports_slow(4, 13, e=8)
        assert reports["scalar-power"].theorem_checks["scalar-form"].verdict == FAIL

    def test_same_n_p_from_every_law_at_once(self, monkeypatch):
        # Five threads, one law each, walk the same (n, p) grid in step,
        # so fills and reads of one (n, p) race under a 1 us switch interval.
        monkeypatch.setattr(modorder, "_right_orders", {})
        grid = [(n, p) for p in (2, 5, 7, 11, 13, 29, 4157) for n in range(2, 6)]
        expected = {(n, p): {**right_order_reports_slow(n, p),
                             "left-order": verify_left_order_slow(n, p)}
                    for n, p in grid}
        laws = {**RIGHT_LAWS, "left-order": verify_left_order}
        seen = {name: {} for name in laws}

        def work(name):
            for n, p in grid:
                seen[name][(n, p)] = laws[name](n, p)

        threads = [threading.Thread(target=work, args=(name,)) for name in laws]
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
        assert set(modorder._right_orders) == set(grid)
        for name in laws:
            assert seen[name] == {key: reports[name] for key, reports in expected.items()}


def _left_power_cost(p):
    """Products that make L^p from the rungs: a squaring per bit below
    the top one and a multiply per set bit past the first."""
    return p.bit_length() - 1 + bin(p).count("1") - 1


LEFT_PRIMES = (2, 3, 5, 7, 11, 13)


class TestLeftHeldPower:
    """verify_left_order, with L_n^p read off the held L_N^p mod p, against
    one slow power per call in tests/oracles.py, in any call order. The
    held power serves n <= N at its own p alone: every other call makes
    its own ladder and is held in its place."""

    @staticmethod
    def check_calls(mp, calls, held=None):
        muls = _count_modmat_mul(mp)
        for n, p in calls:
            before = muls[0]
            assert verify_left_order(n, p) == verify_left_order_slow(n, p)
            if held is not None and held[1] == p and held[0] >= n:
                assert muls[0] == before
            else:
                assert muls[0] - before == _left_power_cost(p)
                held = (n, p)
            left = mat_mod(build_left(held[0]), p)
            assert modorder._left_held == (p, modmat_pow_slow(left, p))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 9), st.sampled_from(LEFT_PRIMES)),
                    min_size=1, max_size=12))
    @example([(n, 7) for n in range(2, 10)])
    @example([(n, 7) for n in range(9, 1, -1)])
    @example([(n, p) for n in range(9, 1, -1) for p in (5, 7)])
    @example([(n, p) for p in (5, 7, 5) for n in range(9, 1, -1)])
    def test_any_call_order(self, calls):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modorder, "_left_held", None)
            self.check_calls(mp, calls)

    def test_after_order_left(self, monkeypatch, capsys):
        # `order left 6 7` holds L_6^7: 7 = 0b111 takes 4 products.
        monkeypatch.setattr(modorder, "_left_held", None)
        assert cli.main(["order", "left", "6", "7"]) == 0
        capsys.readouterr()
        self.check_calls(monkeypatch, [(5, 7), (6, 7), (8, 7), (3, 5), (2, 7), (8, 7)],
                         held=(6, 7))

    def test_campaign_after_order_left(self, monkeypatch, capsys):
        args = ["verify", "--laws", "left-order", "--n", "2..9", "--primes",
                "13,5,7", "--format", "json"]
        monkeypatch.setattr(modorder, "_left_held", None)
        fresh = cli.main(args), capsys.readouterr()
        for order_args in (["order", "left", "4", "13"], ["order", "left", "9", "5"]):
            assert cli.main(order_args) == 0
            capsys.readouterr()
            assert (cli.main(args), capsys.readouterr()) == fresh
        assert fresh[0] == 0


class TestModularMultiplyCounts:
    def test_order_right_4_13(self, monkeypatch):
        # R_4 mod 13: e = 7, 4e = 28 = 7 * 2**2, and 13 = 3 mod 5, so the
        # p-plus-1 law needs R^14. The odd part first: rungs R^2, R^4
        # take 2 squarings and R^7 = R R^2 R^4 takes 2 multiplies. R^14
        # and R^28 take 2 squarings. Factor removal tries R^(28/2) =
        # R^14, held (it is -I, so the order keeps its 2s), and
        # R^(28/7) = R^4, a rung. R^e = R^7 is held too, and so is
        # R^(p+1), read at 14 mod the order 28. In all 2 + 2 + 2 = 6.
        monkeypatch.setattr(modorder, "_right_orders", {})
        muls = _count_modmat_mul(monkeypatch)
        assert cli.main(["order", "right", "4", "13"]) == 0
        assert muls[0] == 6

    def test_order_right_4_89(self, monkeypatch):
        # R_4 mod 89: e = 11 and 4e = 44 = 11 * 2**2. R^11 = R R^2 R^8
        # takes 3 squarings and 2 multiplies, and R^22, R^44 take 2 more
        # squarings. Factor removal tries R^22, held, and R^4, a rung:
        # the order is 44. 89 = 4 mod 5, so the p-minus-1 law asks for
        # R^88 = R^(8e), off the chain; 88 % 44 = 0 decides it with no
        # product. Made from the rungs it took 5 more, 12 in all.
        monkeypatch.setattr(modorder, "_right_orders", {})
        muls = _count_modmat_mul(monkeypatch)
        reports = right_order_reports(4, 89)
        assert reports["p-minus-1"].theorem_checks["p-minus-1-identity"].verdict == PASS
        assert all(report.passed for report in reports.values())
        assert muls[0] == 7

    def test_order_right_4_47(self, monkeypatch):
        # R_4 mod 47: e = 16 and 4e = 64, squared up from R in 6
        # squarings. Factor removal tries R^32 = I, held, then R^16 = -I:
        # the order is 32. 47 = 2 mod 5, so the p-plus-1 law asks for
        # R^48 = R^(3e); 48 mod 32 = 16 reads the held R^e. Made from
        # the rungs, R^48 = R^16 R^32 took 1 more multiply, 7 in all.
        monkeypatch.setattr(modorder, "_right_orders", {})
        muls = _count_modmat_mul(monkeypatch)
        reports = right_order_reports(4, 47)
        assert reports["p-plus-1"].theorem_checks["p-plus-1-identity"].verdict == PASS
        assert all(report.passed for report in reports.values())
        assert muls[0] == 6

    def test_four_right_laws_at_4_13_share_one_ladder(self, monkeypatch):
        # The same 6 as `order right 4 13`: the one fill per (n, p)
        # makes every power the four laws read.
        monkeypatch.setattr(modorder, "_right_orders", {})
        muls = _count_modmat_mul(monkeypatch)
        reports = right_order_reports(4, 13)
        assert all(report.passed for report in reports.values())
        assert muls[0] == 6
        right_order_reports(4, 13)
        assert muls[0] == 6

    def test_left_order_4_13(self, monkeypatch):
        # 13 = 0b1101: rungs L^2, L^4, L^8 take 3 squarings and
        # L^13 = L L^4 L^8 takes 2; the one factor, 13, leaves L^1 = L.
        monkeypatch.setattr(modorder, "_left_held", None)
        muls = _count_modmat_mul(monkeypatch)
        assert verify_left_order(4, 13).order == 13
        assert muls[0] == 5

    def test_left_order_campaign_at_13_makes_one_ladder(self, monkeypatch, capsys):
        # n runs 8 down to 2 at p = 13: L_8^13 takes the 5 products of
        # L_4^13 above, and every smaller L_n^13 is its leading block.
        monkeypatch.setattr(modorder, "_left_held", None)
        muls = _count_modmat_mul(monkeypatch)
        assert cli.main(["verify", "--laws", "left-order", "--n", "2..8",
                         "--primes", "13"]) == 0
        capsys.readouterr()
        assert muls[0] == 5

    def test_order_grid_campaign(self, monkeypatch, capsys):
        # The seed-1 order-grid campaign of bench/workloads.py. It made
        # 3188 products while each power came from the rungs alone and
        # each left-order check made its own L_n^p, and 1575 while
        # R_n^(p-1) and R_n^(p+1) came from the rungs.
        monkeypatch.setattr(modorder, "_right_orders", {})
        monkeypatch.setattr(modorder, "_left_held", None)
        muls = _count_modmat_mul(monkeypatch)
        assert cli.main([
            "verify", "--laws", "mod2,left-order,scalar-power,p-minus-1,p-plus-1,"
            "order-bound,bloom-wall,period-exactness", "--n", "2..8", "--primes",
            "2,3,5,1567,5081,5519,7121,7219,8467,8563,9067"]) == 0
        capsys.readouterr()
        assert muls[0] == 1442


class TestFactsComeFromTheMatrix:
    """Each fact is read off powers of the matrix the fill is given. With
    R_4 swapped for a 4-cycle P (order 4, so 4e still annihilates it),
    every law whose predicted power P is not fails."""

    @pytest.fixture(autouse=True)
    def four_cycle(self, monkeypatch):
        cycle = matrix_from_rows([[0, 1, 0, 0], [0, 0, 1, 0],
                                       [0, 0, 0, 1], [1, 0, 0, 0]])
        monkeypatch.setattr(modorder, "_right_orders", {})
        monkeypatch.setattr(modorder, "build_right", lambda n: cycle)

    def test_p_minus_1(self):
        # 11 | F_10, and P^10 = P^2 != I.
        report = verify_pminus1(4, 11)
        assert report.order == 4
        assert report.theorem_checks["p-minus-1-identity"].verdict == FAIL

    def test_p_plus_1_and_scalar_power(self):
        # 13 | F_14 and e = 7: neither P^14 = P^2 nor P^7 = P^3 is scalar.
        assert verify_order_bound(4, 13).order == 4
        assert verify_pplus1(4, 13).theorem_checks["p-plus-1-identity"].verdict == FAIL
        checks = verify_scalar_power(4, 13).theorem_checks
        assert checks["scalar-form"].verdict == FAIL
        assert checks["signed-scalar-even"].verdict == FAIL
        assert checks["fourth-power-identity"].verdict == PASS


def wrong_entry_point_at_13(monkeypatch):
    """Make the fourth-power premise false at p = 13: R_4**32 != I there."""
    monkeypatch.setattr(modorder, "_right_orders", {})
    monkeypatch.setattr(modorder, "entry_point",
                        lambda p: 8 if p == 13 else entry_point(p))


class TestFalseFourthPowerTheorem:
    """R_n**(4e) != I is a failed theorem, reported, not a usage error."""

    def test_direct_misuse_still_raises(self):
        with pytest.raises(BoundNotAnnihilating):
            matrix_order_mod(mat_mod(build_right(4), 13), 32)

    @pytest.mark.parametrize("law", [verify_scalar_power, verify_pminus1,
                                     verify_pplus1, verify_order_bound])
    def test_every_right_order_law_fails(self, law, monkeypatch):
        wrong_entry_point_at_13(monkeypatch)
        report = law(4, 13)
        assert not report.passed
        assert report.order is None
        assert report.witness_exponent_bound == 32
        assert report.theorem_checks["fourth-power-identity"].verdict == FAIL

    def test_other_primes_are_unaffected(self, monkeypatch):
        wrong_entry_point_at_13(monkeypatch)
        assert verify_order_bound(4, 11).passed
        assert verify_order_bound(4, 11).order == 10


class TestFalseLeftOrderTheorem:
    """L_n**p != I is a failed order-equals-p with no order, not a usage
    error. R_n stands in for L_n, in the library and in the oracle."""

    @pytest.fixture(autouse=True)
    def right_for_left(self, monkeypatch):
        monkeypatch.setattr(modorder, "build_left", build_right)
        monkeypatch.setattr(oracles, "build_left", build_right)
        monkeypatch.setattr(modorder, "_left_held", None)

    @pytest.mark.parametrize("n, p", [(3, 7), (2, 5), (4, 13), (6, 2)])
    def test_matches_slow_path(self, n, p):
        report = verify_left_order(n, p)
        assert report == verify_left_order_slow(n, p)
        assert report.order is None
        assert not report.passed
        assert report.theorem_checks == {
            "order-equals-p": modorder.CheckResult(FAIL, {}),
            "closed-form-offdiagonal": modorder.CheckResult(PASS, {})}
