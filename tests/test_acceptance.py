"""Acceptance suite: one test per exit criterion, exact arithmetic only.

Every test prints a single PASS line on success (run with -s to see
them); a failure shows the offending parameters in the assert message.
"""

from pascalfib import cli, laws, modorder, pascal, spectra
from pascalfib.core import (
    ExactMatrix,
    ModMatrix,
    mat_mod,
    mat_mul,
    mat_pow,
    modmat_pow,
)
from pascalfib.fib import (
    bloom_wall_check,
    check_identities,
    entry_point,
    fib,
    fib_pair_mod,
    fib_via_binomials,
    pisano_period,
)
from pascalfib.pascal import (
    build_left,
    build_right,
    left_inverse,
    left_power_entry,
    right_inverse,
)
from pascalfib.report import PASS

PRIMES_UNDER_200 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199)

ORDER_GRID_PRIMES = (2, 3, 5, 7, 11, 13)


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {text}")


def test_criterion_01_mod2_identities():
    for n in range(2, 65):
        ident = ModMatrix.identity(n, 2)
        assert modmat_pow(mat_mod(build_left(n), 2), 2) == ident, n
        assert modmat_pow(mat_mod(build_right(n), 2), 3) == ident, n
    report(1, "L_n^2 = I and R_n^3 = I mod 2 for n in 2..64")


def left_closed_form_holds(n: int, e: int, entry_fn=left_power_entry) -> bool:
    power = mat_pow(build_left(n), e)
    return all(power.entry(i, j) == entry_fn(e, i, j)
               for i in range(1, n + 1) for j in range(1, n + 1))


def test_criterion_02_left_power_closed_form():
    for n in range(1, 13):
        for e in range(-3, 11):
            assert left_closed_form_holds(n, e), (n, e)
    report(2, "L_n^e entries equal e^(i-j) C(i-1, j-1) for n <= 12, e in -3..10")


def test_criterion_03_square_and_cube_recurrences():
    for n in range(2, 11):
        square = laws.verify_square_recurrence(n)
        cube = laws.verify_cube_recurrence(n)
        assert square.passed and square.checked_cells == (n - 1) ** 2, n
        assert cube.passed and cube.checked_cells == (n - 1) ** 2, n
    report(3, "square/cube recurrences have zero failing cells for n <= 10")


def test_criterion_04_fib_recurrence_over_integers():
    for n in range(2, 11):
        for e in range(1, 13):
            rep = laws.verify_fib_recurrence(n, e)
            assert rep.passed, (n, e, rep.failures[:3])
            assert rep.checked_cells == (n - 1) ** 2
    report(4, "Fibonacci-coefficient recurrence exact over Z for n <= 10, e <= 12")


def test_criterion_05_border_formulas():
    for n in range(1, 13):
        for e in range(1, 13):
            rep = laws.verify_border_formulas(n, e)
            assert rep.passed, (n, e, rep.failures[:3])
    report(5, "first row/column closed forms exact for n <= 12, e <= 12")


def test_criterion_06_entry_points_periods_bloom_wall():
    assert entry_point(2) == 3
    assert entry_point(5) == 5
    assert pisano_period(5) == 20
    assert entry_point(13) == 7
    for p in PRIMES_UNDER_200:
        if p in (2, 5):
            continue
        rep = bloom_wall_check(p)
        assert rep.passed, p
        if p % 5 in (1, 4):
            assert (p - 1) % rep.period == 0, p
        else:
            assert (p + 1) % rep.entry_point == 0, p
            assert (2 * (p + 1)) % rep.period == 0, p
    report(6, "quoted entry points/periods and Bloom-Wall divisibility, p < 200")


def test_criterion_07_order_theorems():
    for p in ORDER_GRID_PRIMES:
        e = entry_point(p)
        for n in range(2, 9):
            left = modorder.verify_left_order(n, p)
            assert left.order == p, (n, p)
            assert left.passed, (n, p)
            rm = mat_mod(build_right(n), p)
            assert modmat_pow(rm, 4 * e) == ModMatrix.identity(n, p), (n, p)
    assert modorder.matrix_order_mod(mat_mod(build_right(4), 13), 28) == 28
    # The 2(p+1) bound holds wherever its divisibility argument applies
    # (p != 5); at p = 5 the recorded exception is order 4e = 20 in even
    # dimensions, with odd dimensions staying within the bound.
    for p in (2, 3, 7, 11, 13):
        for n in range(2, 9):
            rep = modorder.verify_order_bound(n, p)
            assert rep.order <= 2 * (p + 1), (n, p, rep.order)
    for n in range(2, 9):
        rep = modorder.verify_order_bound(n, 5)
        if n % 2 == 0:
            assert rep.order == 20, (n, rep.order)
        else:
            assert rep.order <= 12, (n, rep.order)
    report(7, "order(L_n) = p; R_n^(4e) = I; order(R_4 mod 13) = 28; "
              "2(p+1) bound (p = 5 exception pinned)")


def test_criterion_08_scalar_congruences():
    for p in ORDER_GRID_PRIMES:
        for n in range(2, 9):
            rep = modorder.verify_scalar_power(n, p)
            assert rep.passed, (n, p, rep.theorem_checks)
    report(8, "entry-point power of R_n is the predicted signed scalar matrix")


def test_criterion_09_conditional_theorems():
    assert fib(10) % 11 == 0
    for n in range(2, 9):
        rep = modorder.verify_pminus1(n, 11)
        assert rep.theorem_checks["p-minus-1-identity"].verdict == PASS, n
    for p in (2, 3, 7, 13):
        assert fib(p + 1) % p == 0
        for n in range(2, 9):
            rep = modorder.verify_pplus1(n, p)
            assert rep.theorem_checks["p-plus-1-identity"].verdict == PASS, (n, p)
    report(9, "R_n^(p-1) = I at p = 11; R_n^(p+1) = +-I at p in {2, 3, 7, 13}")


def test_criterion_10_inverse_closed_forms():
    for n in range(1, 33):
        ident = ExactMatrix.identity(n)
        left, right = build_left(n), build_right(n)
        linv, rinv = left_inverse(n), right_inverse(n)
        assert mat_mul(left, linv) == ident, n
        assert mat_mul(linv, left) == ident, n
        assert mat_mul(right, rinv) == ident, n
        assert mat_mul(rinv, right) == ident, n
    report(10, "closed-form inverses are exact two-sided inverses for n <= 32")


def test_criterion_11_eigenvalue_conjecture():
    for n in range(1, 17):
        rep = spectra.check_eigen_conjecture(n)
        assert rep.passed, (
            f"counterexample at n={n}, first mismatch at degree "
            f"{rep.first_mismatch_degree}: computed "
            f"{rep.computed_charpoly.coeffs} vs conjectured "
            f"{rep.conjectured_charpoly.coeffs}")
    report(11, "charpoly(R_n) equals the Lucas-quadratic product for n in 1..16")


def test_criterion_12_identity_suite():
    for e in range(1, 501):
        assert check_identities(e).passed, e
    for j in range(1, 201):
        assert fib_via_binomials(j) == fib(j), j
    report(12, "Cassini, sum-of-squares (e <= 500), Hardy-Wright (j <= 200)")


class TestCriterion13MutationAudit:
    """Corrupting one coefficient in any closed form must trip a check.

    Each case monkeypatches a single dependency of a closed form and
    asserts that the corresponding verifier (which recomputes its power
    matrix through core.mat_pow) now reports a failure.
    """

    def test_left_power_exponent_corruption(self):
        corrupted = lambda e, i, j: left_power_entry(e, i, j) * (2 if i > j else 1)
        assert not left_closed_form_holds(5, 3, corrupted)

    def test_fib_recurrence_coefficient_corruption(self, monkeypatch):
        monkeypatch.setattr(laws, "fib", lambda k: fib(k) + (k == 5))
        rep = laws.verify_fib_recurrence(6, 5)
        assert not rep.passed

    def test_border_formula_binomial_corruption(self, monkeypatch):
        monkeypatch.setattr(laws, "binomial",
                            lambda a, b: pascal.binomial(a, b) + (b == 2))
        rep = laws.verify_border_formulas(6, 4)
        assert not rep.passed

    def test_row_propagation_fib_corruption(self, monkeypatch):
        monkeypatch.setattr(laws, "fib", lambda k: fib(k) + (k == 4))
        rep = laws.verify_row_propagation(6, 5)
        assert not rep.passed

    def test_inverse_single_entry_corruption(self):
        bumped = [list(row) for row in left_inverse(5).rows]
        bumped[2][1] += 1
        corrupt = ExactMatrix.from_rows(bumped)
        assert mat_mul(build_left(5), corrupt) != ExactMatrix.identity(5)

    def test_right_inverse_single_entry_corruption(self):
        bumped = [list(row) for row in right_inverse(6).rows]
        bumped[0][3] -= 1
        corrupt = ExactMatrix.from_rows(bumped)
        assert mat_mul(build_right(6), corrupt) != ExactMatrix.identity(6)

    def test_conjectured_charpoly_lucas_corruption(self, monkeypatch):
        from pascalfib.fib import lucas
        monkeypatch.setattr(spectra, "lucas", lambda m: lucas(m) + (m == 3))
        rep = spectra.check_eigen_conjecture(4)
        assert not rep.passed
        assert rep.first_mismatch_degree is not None

    def test_scalar_power_fib_corruption(self, monkeypatch):
        def corrupted(k, m):
            a, b = fib_pair_mod(k, m)
            return (a + (k == 6)) % m, b
        monkeypatch.setattr(modorder, "fib_pair_mod", corrupted)
        rep = modorder.verify_scalar_power(4, 13)
        assert not rep.passed

    def test_left_order_closed_form_corruption(self, monkeypatch):
        monkeypatch.setattr(modorder, "left_power_entry",
                            lambda e, i, j: left_power_entry(e, i, j)
                            + (i == 3 and j == 1))
        rep = modorder.verify_left_order(4, 7)
        assert rep.theorem_checks["closed-form-offdiagonal"].verdict != PASS

    def test_audit_summary(self):
        report(13, "single-coefficient corruptions are caught by the "
                   "dual-route checks")


def test_cli_campaign_surfaces_match_acceptance():
    # The same grids drive the CLI verify command with exit code 0.
    code = cli.main(["verify", "--laws", "mod2", "--n", "2..64",
                     "--format", "json"])
    assert code == 0
    code = cli.main(["verify", "--laws",
                     "fib-recurrence,border-formulas,eigen-conjecture",
                     "--n", "2..10", "--e", "1..12", "--format", "json"])
    assert code == 0
