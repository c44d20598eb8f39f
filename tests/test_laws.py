import sys
import threading
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import mat_pow_slow
from pascalfib import cli, core, laws, spectra
from pascalfib.core import mat_pow
from pascalfib.fib import fib
from pascalfib.laws import (
    verify_border_formulas,
    verify_fib_recurrence,
    verify_row_propagation,
)
from pascalfib.pascal import build_left, build_right, left_inverse, right_inverse
from pascalfib.report import FAIL, PASS


@pytest.fixture(autouse=True)
def nothing_held(monkeypatch):
    """Start each test with no power held, so call counts do not depend
    on the tests that ran before."""
    monkeypatch.setattr(laws, "_held", None)


SQUARE = cli.LAW_REGISTRY["square-recurrence"].check
CUBE = cli.LAW_REGISTRY["cube-recurrence"].check
ROW_EXPANSION = cli.LAW_REGISTRY["row-expansion"].check


class TestSquareRecurrence:
    """The square recurrence is the Fibonacci-coefficient recurrence at e = 2."""

    def test_n2_hand_computed(self):
        # R_2**2 = [[1,1],[1,2]]: cell (2,2): 2 = 1 + 2 - 1.
        report = verify_fib_recurrence(2, 2)
        assert report.passed
        assert report.checked_cells == 1
        assert SQUARE(n=2) == (PASS, None)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_zero_failures(self, n):
        assert SQUARE(n=n) == (PASS, None)
        assert verify_fib_recurrence(n, 2).checked_cells == (n - 1) * (n - 1)

    def test_n1_precondition(self):
        with pytest.raises(ValueError):
            SQUARE(n=1)


class TestCubeRecurrence:
    """The cube recurrence is the Fibonacci-coefficient recurrence at e = 3."""

    def test_n2_hand_computed(self):
        # R_2**3 = [[1,2],[2,3]]: cell (2,2): 3 = 4 + 3 - 4.
        report = verify_fib_recurrence(2, 3)
        assert report.passed
        assert report.checked_cells == 1
        assert CUBE(n=2) == (PASS, None)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_zero_failures(self, n):
        assert CUBE(n=n) == (PASS, None)
        assert verify_fib_recurrence(n, 3).checked_cells == (n - 1) * (n - 1)


class TestFibRecurrence:
    def test_e1_degenerates_to_pascal_recurrence(self):
        assert verify_fib_recurrence(6, 1).passed

    def test_e2_matches_square_coefficients(self):
        # (F_1, F_2, F_3) = (1, 1, 2): the square recurrence's coefficients.
        assert (fib(1), fib(2), fib(3)) == (1, 1, 2)
        assert verify_fib_recurrence(3, 2).passed

    def test_e3_matches_cube_coefficients(self):
        # (F_2, F_3, F_4) = (1, 2, 3): the cube recurrence's coefficients.
        assert (fib(2), fib(3), fib(4)) == (1, 2, 3)
        assert verify_fib_recurrence(3, 3).passed

    @pytest.mark.parametrize("n", range(2, 11))
    def test_grid_zero_failures(self, n):
        for e in range(1, 13):
            report = verify_fib_recurrence(n, e)
            assert report.passed, (n, e, report.failures[:3])
            assert report.checked_cells == (n - 1) * (n - 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_fib_recurrence(1, 2)
        with pytest.raises(ValueError):
            verify_fib_recurrence(3, 0)


class TestBorderFormulas:
    def test_n2_e5_fibonacci_corner(self):
        report = verify_border_formulas(2, 5)
        assert report.passed
        a = mat_pow(build_right(2), 5)
        assert (oracles.entry(a, 1, 1), oracles.entry(a, 1, 2)) == (3, 5)

    def test_e1_concentrates_on_last_column(self):
        # At e = 1 the first-row form is nonzero only at j = n.
        report = verify_border_formulas(5, 1)
        assert report.passed

    @pytest.mark.parametrize("n", range(1, 13))
    def test_grid_zero_failures(self, n):
        for e in range(1, 13):
            report = verify_border_formulas(n, e)
            assert report.passed, (n, e)
            assert report.checked_cells == 2 * n - 1

    def test_corner_is_checked_once(self, monkeypatch):
        # R_3**2 has first column (1, 1, 1); with (1, 1) and (2, 1) bumped
        # by one, each wrong cell is listed once, row-major.
        monkeypatch.setattr(laws, "power", _corrupt_power([(0, 0, 1), (1, 0, 1)]))
        report = verify_border_formulas(3, 2)
        assert report.failures == ((1, 1, 2, 1), (2, 1, 2, 1))
        assert report.checked_cells == 5
        assert cli.LAW_REGISTRY["border-formulas"].check(n=3, e=2) == (
            FAIL, {"i": 1, "j": 1, "lhs": "2", "rhs": "1", "failing_cells": 2})


class TestRowExpansion:
    """The row expansions of R_n**2 and R_n**3 are row propagation at e = 2, 3."""

    def test_n2_hand_computed(self):
        assert ROW_EXPANSION(n=2) == (PASS, None)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_full_grid_zero_failures(self, n):
        assert ROW_EXPANSION(n=n) == (PASS, None)
        assert cli._row_expansion(n).checked_cells == 2 * (n - 1) * n

    def test_j1_base_case(self):
        # Empty sums: first column follows b[i+1][1] = b[i][1].
        b = mat_pow(build_right(4), 2)
        for i in range(1, 4):
            assert oracles.entry(b, i + 1, 1) == oracles.entry(b, i, 1)


class TestRowPropagation:
    def test_e2_n2_hand_computed(self):
        report = verify_row_propagation(2, 2)
        assert report.passed

    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_grid_zero_failures(self, n):
        for e in range(2, 11):
            report = verify_row_propagation(n, e)
            assert report.passed, (n, e)
            assert report.checked_cells == (n - 1) * n

    def test_e1_rejected(self):
        with pytest.raises(ValueError):
            verify_row_propagation(4, 1)


class TestReportShape:
    def test_failure_witnesses_pinpoint_cells(self, monkeypatch):
        # Cell (3, 4) of R_6**2 bumped by one: the square recurrence fails
        # there first, then where the cell enters the right-hand side, at
        # (3, 5), (4, 4) and (4, 5).
        true = oracles.entry(mat_pow(build_right(6), 2), 3, 4)
        monkeypatch.setattr(laws, "power", _corrupt_power([(2, 3, 1)]))
        verdict, witness = SQUARE(n=6)
        assert verdict == FAIL
        assert (witness["i"], witness["j"], witness["lhs"]) == (3, 4, str(true + 1))
        assert witness["failing_cells"] == 4
        assert [cell[:2] for cell in verify_fib_recurrence(6, 2).failures] == [
            (3, 4), (3, 5), (4, 4), (4, 5)]

    def test_checked_cells_matches_declared_range(self):
        report = verify_fib_recurrence(7, 4)
        assert report.checked_cells == 36


# ---------------------------------------------------------------------------
# the power walk and the row-indexed loops against their slow paths


def _base(kind: str, n: int):
    return build_left(n) if kind == "left" else build_right(n)


def _slow_power(kind: str, n: int, e: int):
    """L_n**e or R_n**e from the slow kernels; negative e through the
    closed-form inverse, so no library inverse enters."""
    if e >= 0:
        return mat_pow_slow(_base(kind, n), e)
    inverse = left_inverse(n) if kind == "left" else right_inverse(n)
    return mat_pow_slow(inverse, -e)


def _in_threads(count: int, target) -> list:
    """target() run in `count` fresh threads at once; their results in order."""
    results: list = [None] * count
    errors: list = []

    def body(k: int) -> None:
        try:
            results[k] = target()
        except Exception as exc:  # raised again in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(k,)) for k in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    if errors:
        raise errors[0]
    return results


def _count_calls(monkeypatch, module, name) -> list[int]:
    """Replace module.name by a wrapper that counts its calls in counter[0]."""
    counter = [0]
    real = getattr(module, name)

    def counted(*args):
        counter[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return counter


def _count_backward_shifts(monkeypatch) -> list[int]:
    """Count the backward Taylor shifts, one per inverse of L_n or R_n
    that core.mat_pow makes, in counter[0]."""
    counter = [0]
    real = core._taylor_shift

    def counted(a, reverse, backward=False):
        counter[0] += backward
        return real(a, reverse, backward)

    monkeypatch.setattr(core, "_taylor_shift", counted)
    return counter


def _count_everywhere(monkeypatch, name) -> list[int]:
    """Count the calls of core.name through every pascalfib module that
    binds it, core itself included, in counter[0]."""
    real = getattr(core, name)
    counter = _count_calls(monkeypatch, core, name)
    counted = getattr(core, name)
    for module in list(sys.modules.values()):
        if (module is not core and module.__name__.startswith("pascalfib")
                and getattr(module, name, None) is real):
            monkeypatch.setattr(module, name, counted)
    return counter


def _start_afresh(monkeypatch, counters) -> None:
    """Drop the held power and zero the counters, as before a new run."""
    monkeypatch.setattr(laws, "_held", None)
    for counter in counters:
        counter[0] = 0


@st.composite
def power_requests(draw):
    """A run of (kind, n, e) requests, n <= 6 and e in -6..12: steps up
    (the walk), repeats, steps down, jumps in e, and base switches."""
    kinds = st.sampled_from(("left", "right"))
    dims = st.integers(1, 6)
    exps = st.integers(-6, 12)
    kind, n, e = draw(kinds), draw(dims), draw(exps)
    requests = [(kind, n, e)]
    moves = ("up", "up", "up", "repeat", "down", "jump", "switch")
    for move in draw(st.lists(st.sampled_from(moves), max_size=16)):
        if move == "up":
            e = min(e + 1, 12)
        elif move == "down":
            e = max(e - 1, -6)
        elif move == "jump":
            e = draw(exps)
        elif move == "switch":
            kind, n = draw(kinds), draw(dims)
        requests.append((kind, n, e))
    return requests


class TestPowerWalk:
    @given(power_requests())
    def test_matches_slow_powers_in_two_threads(self, requests):
        expected = [_slow_power(*request) for request in requests]

        def walk():
            return [laws.power(_base(kind, n), e) for kind, n, e in requests]

        # Both threads walk at once and share what the process holds.
        assert _in_threads(2, walk) == [expected, expected]

    def test_stress_many_threads_walk_shared_bases(self):
        # More threads than cores, switching often, all walking the same
        # two base objects; every result must still be the true power.
        bases = [("left", 5), ("right", 5)]
        expected = [_slow_power(kind, n, e) for kind, n in bases for e in range(-3, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _in_threads(6, lambda: [
                laws.power(_base(kind, n), e) for kind, n in bases for e in range(-3, 9)])
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 6

    def test_walk_costs_one_multiply_per_step(self, monkeypatch):
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        muls = _count_calls(monkeypatch, laws, "mat_mul")
        inverses = _count_backward_shifts(monkeypatch)
        left = build_left(5)
        for e in range(-4, 5):
            laws.power(left, e)
        assert (pows[0], muls[0], inverses[0]) == (1, 8, 1)

    def test_holds_one_power_of_the_last_base(self, monkeypatch):
        # Each base switch drops the power held for the other base, so
        # every request below starts again from mat_pow.
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        for n in (2, 3, 4):
            laws.power(build_left(n), 2)
            laws.power(build_right(n), 3)
        base, e, held, sums = laws._held
        assert base is build_right(4) and (e, sums) == (3, None)
        assert held == mat_pow_slow(build_right(4), 3)
        laws.power(build_left(4), 2)
        assert pows[0] == 7

    def test_an_equal_but_distinct_base_is_not_stepped_from(self):
        right = build_right(3)
        copy = oracles.matrix_from_rows(right.rows)
        skewed = oracles.matrix_from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])

        laws.power(right, 2)
        assert (laws.power(copy, 3), laws.power(skewed, 4)) == (
            mat_pow_slow(right, 3), mat_pow_slow(skewed, 4))


class TestLeftBlocks:
    """A held power of a built L_N serves every L_n, n <= N, as its
    leading block."""

    @pytest.mark.parametrize("wide", range(1, 9))
    def test_blocks_match_slow_powers(self, monkeypatch, wide):
        # L_N**e held at e or at e - 1: each L_n**e is read off it, with
        # no power of L_n made.
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        left = build_left(wide)
        for e in range(-6, 9):
            for n in range(1, wide + 1):
                expected = _slow_power("left", n, e)
                for held_at in (e - 1, e):
                    monkeypatch.setattr(laws, "_held", None)
                    laws.power(left, held_at)
                    before = pows[0]
                    assert laws.power(build_left(n), e) == expected, (n, e, held_at)
                    assert pows[0] == before

    def test_a_wider_power_is_held_in_place_of_the_block(self):
        laws.power(build_left(6), 3)
        laws.power(build_left(4), 3)
        laws.power(build_left(2), 4)
        assert laws._held[:2] == (build_left(6), 4)

    def test_a_narrower_or_distant_power_does_not_serve(self, monkeypatch):
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        laws.power(build_left(3), 2)
        laws.power(build_left(5), 2)
        laws.power(build_left(4), 4)
        assert pows[0] == 3

    @pytest.mark.parametrize("wide, n, e, i, j", [
        (6, 4, -3, 2, 1), (8, 8, 5, 8, 8), (5, 2, 0, 1, 2), (7, 3, 7, 3, 3),
        (6, 6, -6, 4, 2), (6, 4, 2, 5, 1)])
    def test_bumped_cell_of_the_held_power(self, monkeypatch, wide, n, e, i, j):
        # Cell (i, j) of the held L_N**e bumped by one: the (n, e) check
        # fails there if the cell is in the n x n block, and passes if not.
        rows = [list(row) for row in _slow_power("left", wide, e).rows]
        rows[i - 1][j - 1] += 1
        monkeypatch.setattr(laws, "_held", (
            build_left(wide), e, oracles.matrix_from_rows(rows), None))
        verdict, witness = cli._check_left_closed_form(n, e)
        first = oracles.left_closed_form_slow(n, e)
        if i > n or j > n:
            assert (first, verdict, witness) == (None, PASS, None)
        else:
            assert first[:2] == (i, j)
            _, _, lhs, rhs = first
            assert (verdict, witness) == (
                FAIL, {"i": i, "j": j, "lhs": str(lhs), "rhs": str(rhs)})


class TestWalkPowerSums:
    """The traces tr(R_n**k), k = 1..n, that laws.power keeps beside a walk
    from R_n**1, and the characteristic polynomial spectra makes of them."""

    @staticmethod
    def _slow_sums(right):
        return tuple(oracles.trace(mat_pow_slow(right, k)) for k in range(1, right.n + 1))

    @pytest.mark.parametrize("n", range(1, 19))
    def test_walked_sums_give_charpoly(self, monkeypatch, n):
        # R_n and then R_{n-1} walked over e 1..n: each walk's sums are
        # read right after it, while it is the one held, and the second
        # walk drops the first's.
        walked = [build_right(k) for k in (n, n - 1) if k]
        for right in walked:
            for e in range(1, n + 1):
                laws.power(right, e)
            charpolys = _count_everywhere(monkeypatch, "charpoly")
            assert laws.power_sums(right) == self._slow_sums(right)
            report = spectra.check_eigen_conjecture(right.n)
            assert (report.passed, charpolys[0]) == (True, 0)
            assert report.computed_charpoly == core.charpoly(right)
            assert report.computed_charpoly == oracles.charpoly_faddeev_leverrier(right)
        if n > 1:
            assert laws.power_sums(walked[0]) is None

    @pytest.mark.parametrize("start", [-3, 0, 1])
    def test_a_walk_through_one_keeps_n_sums(self, start):
        # A walk that steps through R_n**1 holds the sums from there on,
        # and keeps n of them past e = n.
        right = build_right(4)
        for e in range(start, 4):
            laws.power(right, e)
            assert laws.power_sums(right) is None
        for e in range(4, 9):
            laws.power(right, e)
            assert laws.power_sums(right) == self._slow_sums(right)

    @pytest.mark.parametrize("restart", [2, 6])
    def test_a_restart_drops_the_sums(self, monkeypatch, restart):
        # R_5 walked over 1..3 and then from a step down (2) or a jump (6)
        # to 8: that walk did not step up from R_5**1, so it holds no
        # sums, and eigen-conjecture at 5 takes charpoly instead.
        right = build_right(5)
        for e in chain(range(1, 4), range(restart, 9)):
            laws.power(right, e)
        assert laws.power_sums(right) is None
        charpolys = _count_everywhere(monkeypatch, "charpoly")
        report = spectra.check_eigen_conjecture(5)
        assert (report.passed, charpolys[0]) == (True, 1)

    def test_the_sums_leave_with_the_walk(self):
        right = build_right(3)
        for e in range(1, 4):
            laws.power(right, e)
        laws.power(build_right(4), 2)
        laws.power(build_left(4), 2)
        assert laws.power_sums(right) is None


def _corrupt_power(cells):
    """A stand-in for laws.power whose result has `delta` added at the
    0-based cells (i mod n, j mod n), in order."""
    def power(base, e):
        rows = [list(row) for row in mat_pow(base, e).rows]
        for i, j, delta in cells:
            rows[i % base.n][j % base.n] += delta
        return oracles.matrix_from_rows(rows)
    return power


# (fast, slow) pairs taking (n, e). The square and cube recurrences and
# the row expansions of R_n**2 and R_n**3 are checked by the general
# verifiers at e = 2 and 3; their oracles keep the paper's special forms.
CELL_LAWS = [
    (lambda n, e: verify_fib_recurrence(n, 2),
     lambda n, e: oracles.verify_square_recurrence_slow(n)),
    (lambda n, e: verify_fib_recurrence(n, 3),
     lambda n, e: oracles.verify_cube_recurrence_slow(n)),
    (lambda n, e: cli._row_expansion(n),
     lambda n, e: oracles.verify_row_expansion_23_slow(n)),
    (verify_fib_recurrence, oracles.verify_fib_recurrence_slow),
    (verify_border_formulas, oracles.verify_border_formulas_slow),
    (verify_row_propagation, oracles.verify_row_propagation_slow),
]

corruptions = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5),
              st.integers(-3, 3).filter(bool)), max_size=4)


class TestRowIndexedLoops:
    """The row-indexed loops report exactly what the entry() loops report,
    on true powers and on powers with corrupted cells."""

    @given(n=st.integers(2, 6), e=st.integers(2, 20), cells=corruptions)
    def test_cell_laws_match_entry_loops(self, n, e, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "power", _corrupt_power(cells))
            for k, (fast, slow) in enumerate(CELL_LAWS):
                expected = slow(n, e)
                # The law ids differ where a general verifier stands in.
                assert fast(n, e)._replace(law_id=expected.law_id) == expected, k

    @given(n=st.integers(1, 6), e=st.integers(-6, 10), cells=corruptions)
    def test_left_closed_form_matches_entry_loop(self, n, e, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "power", _corrupt_power(cells))
            verdict, witness = cli._check_left_closed_form(n, e)
            first = oracles.left_closed_form_slow(n, e)
        if first is None:
            assert (verdict, witness) == (PASS, None)
        else:
            i, j, lhs, rhs = first
            assert (verdict, witness) == (
                FAIL, {"i": i, "j": j, "lhs": str(lhs), "rhs": str(rhs)})

    def test_corruption_is_seen(self):
        # Cell (3, 2) of R_4**3 bumped: both loops flag the same cells.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "power", _corrupt_power([(2, 1, 1)]))
            fast = verify_row_propagation(4, 3)
            assert not fast.passed
            assert fast == oracles.verify_row_propagation_slow(4, 3)


class TestCampaignPowerCounts:
    """Known kernel counts of a walked campaign, each run from nothing held."""

    def test_fib_recurrence_walk(self, monkeypatch):
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        muls = _count_calls(monkeypatch, laws, "mat_mul")
        cfg = cli.CampaignConfig(("fib-recurrence",), n_range=(4, 4), e_range=(1, 10))
        report = cli.run_campaign(cfg)
        assert report["summary"] == {"pass": 10, "fail": 0}
        assert (pows[0], muls[0]) == (1, 9)

    def test_exact_grid_campaign(self, monkeypatch):
        # The exact laws over n 2..18 and e -8..18.
        # - mat_mul: 29 for one walk of L_18, whose blocks serve
        #   left-closed-form at every n (mat_pow(L_18, -8) squares the
        #   backward shift of I three times, then 26 steps to e = 18);
        #   289 for the R walks, 17 steps from R_n**1 = R_n to R_n**18
        #   for each of 17 n; and 68 for inverse-closed-forms, 4 per n:
        #   386. The square, cube and row-expansion laws ask for R_n**2
        #   and R_n**3 inside the walk, and eigen-conjecture reads its
        #   power sums off it. Before they did, 68 products restarted
        #   R_n**2 and R_n**3 (4 per n) and charpoly made 72
        #   (ceil(n/2) - 1 per n): 526.
        # - mat_pow: 2 for L_18**-8 (it powers the inverse), and one
        #   mat_pow(R_n, 1) per n: 19. Before, square-recurrence and
        #   row-expansion each restarted at R_n**2: 53.
        # - One backward shift, for L_18**-8, and no charpoly call (17).
        # A passing campaign runs the same jobs in the same order under
        # fail-fast, so the counts are the same with it.
        counters = [_count_everywhere(monkeypatch, "mat_mul"),
                    _count_everywhere(monkeypatch, "mat_pow"),
                    _count_backward_shifts(monkeypatch),
                    _count_everywhere(monkeypatch, "charpoly")]
        names = ("left-closed-form", "square-recurrence", "cube-recurrence",
                 "fib-recurrence", "border-formulas", "row-expansion",
                 "row-propagation", "inverse-closed-forms", "eigen-conjecture",
                 "identities", "hardy-wright")
        for fail_fast in (False, True):
            _start_afresh(monkeypatch, counters)
            cfg = cli.CampaignConfig(names, n_range=(2, 18), e_range=(-8, 18),
                                     fail_fast=fail_fast)
            report = cli.run_campaign(cfg)
            assert report["summary"]["fail"] == 0
            assert [counter[0] for counter in counters] == [386, 19, 1, 0], fail_fast

    @pytest.mark.parametrize("names, e_hi, charpolys", [
        (("eigen-conjecture",), 18, 17),
        (("fib-recurrence", "eigen-conjecture"), 18, 0),
        (("eigen-conjecture", "fib-recurrence"), 18, 0),
        (("fib-recurrence", "eigen-conjecture"), 10, 8)])
    def test_eigen_conjecture_reads_the_walk(self, monkeypatch, names, e_hi, charpolys):
        # eigen-conjecture at n runs after the R_n walk, whatever the
        # request order and with or without fail-fast, and calls charpoly
        # only where no walk from R_n**1 reached R_n**n: every n alone,
        # and n 11..18 for e <= 10.
        counter = _count_everywhere(monkeypatch, "charpoly")
        for fail_fast in (False, True):
            _start_afresh(monkeypatch, [counter])
            cfg = cli.CampaignConfig(names, n_range=(2, 18), e_range=(1, e_hi),
                                     fail_fast=fail_fast)
            report = cli.run_campaign(cfg)
            assert report["summary"]["fail"] == 0
            assert counter[0] == charpolys, fail_fast

    def test_cell_laws_share_one_power(self, monkeypatch):
        # Three cell laws at one (n, e) ask for R_5**7 in a row: the
        # first computes it, the other two get the held matrix.
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        muls = _count_calls(monkeypatch, laws, "mat_mul")
        cfg = cli.CampaignConfig(
            ("fib-recurrence", "border-formulas", "row-propagation"),
            n_range=(5, 5), e_range=(7, 7))
        report = cli.run_campaign(cfg)
        assert report["summary"] == {"pass": 3, "fail": 0}
        assert (pows[0], muls[0]) == (1, 0)

    def test_thread_pool_walks_as_the_serial_run_does(self, monkeypatch):
        # --threads 2 runs the same loop, so each n walks e 1..10 with
        # 1 mat_pow either way.
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        serial = cli.CampaignConfig(("fib-recurrence",), n_range=(2, 4), e_range=(1, 10))
        pooled = cli.CampaignConfig(("fib-recurrence",), n_range=(2, 4), e_range=(1, 10),
                                    threads=2)
        report = cli.run_campaign(serial)
        serial_pows = pows[0]
        assert cli.run_campaign(pooled) == report
        assert serial_pows == pows[0] - serial_pows == 3

    def test_cell_laws_share_the_walk(self, monkeypatch):
        # Run point by point, the three laws at each (n, e) ask for one
        # R_n**e in a row, so they cost what fib-recurrence alone costs.
        pows = _count_calls(monkeypatch, laws, "mat_pow")
        muls = _count_calls(monkeypatch, laws, "mat_mul")
        counts = []
        for names in (("fib-recurrence",),
                      ("fib-recurrence", "border-formulas", "row-propagation")):
            cfg = cli.CampaignConfig(names, n_range=(2, 4), e_range=(1, 10))
            before = (pows[0], muls[0])
            report = cli.run_campaign(cfg)
            assert report["summary"]["fail"] == 0
            counts.append((pows[0] - before[0], muls[0] - before[1]))
        assert counts[0] == counts[1] == (3, 27)

    def test_left_and_right_walks_add_up(self, monkeypatch):
        # left-closed-form runs first and walks L_4 alone, reading L_2**e
        # and L_3**e off it; the cell laws then walk each R_n**e. So each
        # walk costs what it costs on its own, and L is inverted once
        # per campaign, not once per n.
        counters = [_count_calls(monkeypatch, laws, "mat_pow"),
                    _count_calls(monkeypatch, laws, "mat_mul"),
                    _count_backward_shifts(monkeypatch)]
        cells = ("fib-recurrence", "border-formulas", "row-propagation")
        costs = []
        for names in (cells, ("left-closed-form",), cells + ("left-closed-form",)):
            cfg = cli.CampaignConfig(names, n_range=(2, 4), e_range=(-4, 4))
            before = [counter[0] for counter in counters]
            report = cli.run_campaign(cfg)
            assert report["summary"]["fail"] == 0
            costs.append([counter[0] - b for counter, b in zip(counters, before)])
        assert costs[1] == [1, 8, 1]
        assert costs[2] == [x + y for x, y in zip(costs[0], costs[1])]

    def test_left_closed_form_inverts_once(self, monkeypatch):
        inverses = _count_backward_shifts(monkeypatch)
        cfg = cli.CampaignConfig(("left-closed-form",), n_range=(5, 5),
                                 e_range=(-4, 4))
        report = cli.run_campaign(cfg)
        assert report["summary"] == {"pass": 9, "fail": 0}
        assert inverses[0] == 1
