import pytest

from pascalfib.core import IntPolynomial, charpoly, det
from pascalfib.fib import lucas
from pascalfib.pascal import build_right
from pascalfib.report import PASS
from pascalfib.spectra import check_eigen_conjecture, conjectured_charpoly

from oracles import trace


class TestConjecturedCharpoly:
    def test_n1_empty_product(self):
        assert conjectured_charpoly(1) == IntPolynomial((-1, 1))

    def test_n2_golden_ratio_pair(self):
        assert conjectured_charpoly(2) == IntPolynomial((-1, -1, 1))

    def test_n3_expanded_by_hand(self):
        # (x + 1)(x^2 - 3x + 1); trace cross-check: -1 + 3 = 2 = tr(R_3).
        assert conjectured_charpoly(3) == IntPolynomial((1, -2, -2, 1))
        assert trace(build_right(3)) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            conjectured_charpoly(0)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_monic_of_degree_n(self, n):
        poly = conjectured_charpoly(n)
        assert poly.degree == n
        assert poly.coeffs[-1] == 1

    @pytest.mark.parametrize("n", range(1, 17))
    def test_trace_consistency(self, n):
        # Necessary condition, cheaper than the full comparison.
        poly = conjectured_charpoly(n)
        assert poly.coeffs[n - 1] == -trace(build_right(n))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_constant_term_vs_det(self, n):
        poly = conjectured_charpoly(n)
        assert poly.coeffs[0] == (-1) ** n * det(build_right(n))

    def test_middle_coefficients_are_lucas_numbers(self):
        # n = 4 = 2k with k = 2: quadratics x^2 + L_1 x - 1 and x^2 - L_3 x - 1.
        expected = (IntPolynomial((-1, lucas(1), 1))
                    * IntPolynomial((-1, -lucas(3), 1)))
        assert conjectured_charpoly(4) == expected


class TestConjectureCheck:
    @pytest.mark.parametrize("n", (2, 3))
    def test_small_cases(self, n):
        report = check_eigen_conjecture(n)
        assert report.verdict == PASS
        assert report.first_mismatch_degree is None

    @pytest.mark.parametrize("n", range(1, 17))
    def test_campaign_range(self, n):
        report = check_eigen_conjecture(n)
        assert report.verdict == PASS, (
            n, report.computed_charpoly, report.conjectured_charpoly)
        assert report.parity == ("even" if n % 2 == 0 else "odd")
        assert report.computed_charpoly == charpoly(build_right(n))

    def test_mismatch_reporting_shape(self):
        # Feed the comparison a wrong polynomial through a stand-in to
        # confirm a mismatch would surface with a degree pointer.
        computed = charpoly(build_right(4))
        wrong = IntPolynomial(computed.coeffs[:2] + (computed.coeffs[2] + 1,)
                              + computed.coeffs[3:])
        diff = next(d for d in range(5) if computed.coeffs[d] != wrong.coeffs[d])
        assert diff == 2
