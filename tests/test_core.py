import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalfib.core import (
    ExactMatrix,
    IntPolynomial,
    ModMatrix,
    charpoly,
    det,
    is_prime,
    mat_mod,
    mat_mul,
    mat_pow,
    modmat_mul,
    modmat_pow,
    prime_factors,
    unimodular_inverse,
)
from pascalfib.pascal import build_left, build_right

from oracles import (
    charpoly_cofactor,
    det_permanent_expansion,
    poly_at_matrix,
    prime_factors_naive,
)

R2 = ExactMatrix.from_rows([[0, 1], [1, 1]])


def small_matrices(max_n=4, max_abs=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_abs, max_abs), min_size=n, max_size=n),
            min_size=n, max_size=n).map(ExactMatrix.from_rows))


def unimodular_matrices(max_n=4):
    # Products of integer shears have determinant 1 exactly.
    def build(args):
        n, shears = args
        m = ExactMatrix.identity(n)
        for i, j, c in shears:
            if i % n != j % n:
                shear = ExactMatrix.from_fn(
                    n, lambda a, b: int(a == b) + (c if (a - 1, b - 1) ==
                                                   (i % n, j % n) else 0))
                m = mat_mul(m, shear)
        return m
    return st.tuples(
        st.integers(2, max_n),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                           st.integers(-3, 3)), max_size=6),
    ).map(build)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix(2, ((1, 2, 3), (4, 5, 6)))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            ExactMatrix(0, ())

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            ExactMatrix(1, ((1.5,),))

    def test_entry_is_one_based(self):
        assert R2.entry(1, 2) == 1
        assert R2.entry(2, 2) == 1
        with pytest.raises(IndexError):
            R2.entry(0, 1)

    def test_modmatrix_requires_prime(self):
        with pytest.raises(ValueError):
            ModMatrix(1, 4, ((1,),))

    def test_modmatrix_requires_canonical_residues(self):
        with pytest.raises(ValueError):
            ModMatrix(1, 5, ((5,),))
        with pytest.raises(ValueError):
            ModMatrix(1, 5, ((-1,),))


class TestMatMul:
    def test_identity_absorbs(self):
        a = build_left(3)
        assert mat_mul(ExactMatrix.identity(3), a) == a

    def test_r2_squared_hand_multiplied(self):
        assert mat_mul(R2, R2) == ExactMatrix.from_rows([[1, 1], [1, 2]])

    def test_zero_annihilates(self):
        a = build_right(3)
        assert mat_mul(a, ExactMatrix.zero(3)) == ExactMatrix.zero(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(build_left(2), build_left(3))


class TestMatPow:
    def test_r2_fifth_power(self):
        # Fibonacci corner values: F_4, F_5, F_6.
        assert mat_pow(R2, 5) == ExactMatrix.from_rows([[3, 5], [5, 8]])

    def test_zeroth_power_is_identity(self):
        assert mat_pow(build_right(4), 0) == ExactMatrix.identity(4)

    def test_negative_power_uses_unimodular_inverse(self):
        expected = ExactMatrix.from_rows([[1, 0, 0], [-1, 1, 0], [1, -2, 1]])
        assert mat_pow(build_left(3), -1) == expected

    def test_negative_power_requires_unimodular(self):
        with pytest.raises(ValueError):
            mat_pow(ExactMatrix.from_rows([[2]]), -1)

    @given(small_matrices(max_n=3, max_abs=3), st.integers(0, 8), st.integers(0, 8))
    def test_power_additivity(self, a, e, f):
        assert mat_pow(a, e + f) == mat_mul(mat_pow(a, e), mat_pow(a, f))


class TestModMatrix:
    def test_mat_mod_reduces_entrywise(self):
        reduced = mat_mod(build_left(3), 2)
        assert reduced.rows == ((1, 0, 0), (1, 1, 0), (1, 0, 1))

    def test_mat_mod_canonical_residue(self):
        assert mat_mod(ExactMatrix.from_rows([[-1]]), 5).rows == ((4,),)

    def test_mat_mod_already_reduced(self):
        assert mat_mod(R2, 2).rows == ((0, 1), (1, 1))

    def test_mat_mod_rejects_composite(self):
        with pytest.raises(ValueError):
            mat_mod(R2, 6)

    def test_left_square_identity_mod_2(self):
        m = mat_mod(build_left(4), 2)
        assert modmat_pow(m, 2) == ModMatrix.identity(4, 2)

    def test_right_cube_identity_mod_2(self):
        m = mat_mod(build_right(4), 2)
        assert modmat_pow(m, 3) == ModMatrix.identity(4, 2)

    def test_zeroth_power(self):
        m = mat_mod(build_right(3), 7)
        assert modmat_pow(m, 0) == ModMatrix.identity(3, 7)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            modmat_pow(mat_mod(R2, 3), -1)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            modmat_mul(mat_mod(R2, 3), mat_mod(R2, 5))

    @given(small_matrices(max_n=3, max_abs=5), st.integers(0, 10),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_reduction_commutes_with_powering(self, a, e, p):
        assert mat_mod(mat_pow(a, e), p) == modmat_pow(mat_mod(a, p), e)


class TestPrimeFactors:
    @given(st.integers(1, 3000))
    def test_matches_naive(self, x):
        assert list(prime_factors(x)) == prime_factors_naive(x)

    def test_documented_limit(self):
        assert prime_factors(2**31 - 1) == (2**31 - 1,)
        assert prime_factors(2**31) == (2,)
        # 4(p - 1) at the prime p = 2^31 - 19 = 2^4 * 3^2 * 59652323.
        assert prime_factors(4 * (2**31 - 20)) == (2, 3, 59652323)
        assert is_prime(59652323)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)


class TestDet:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_left_matrix_is_unitriangular(self, n):
        assert det(build_left(n)) == 1

    def test_r2_cofactor(self):
        assert det(R2) == -1

    def test_r3_cofactor(self):
        assert det(build_right(3)) == -1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_oracle_on_right_matrices(self, n):
        assert det(build_right(n)) == det_permanent_expansion(build_right(n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_right_det_sign_law(self, n):
        # Empirical law recorded from the oracle scan: the sign has
        # period 4 in n (+ + - - ...), i.e. det R_n = (-1)**(n//2).
        assert det(build_right(n)) == (-1) ** (n // 2)

    def test_singular_matrix(self):
        assert det(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_zero_pivot_needs_row_swap(self):
        assert det(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1

    @given(small_matrices(max_n=5, max_abs=4))
    def test_matches_permutation_oracle(self, a):
        assert det(a) == det_permanent_expansion(a)


class TestCharpoly:
    def test_r2(self):
        # x^2 - tr x + det with tr = 1, det = -1.
        assert charpoly(R2) == IntPolynomial((-1, -1, 1))

    def test_identity(self):
        assert charpoly(ExactMatrix.identity(2)) == IntPolynomial((1, -2, 1))

    def test_r3_cofactor_expansion(self):
        assert charpoly(build_right(3)) == IntPolynomial((1, -2, -2, 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_cofactor_oracle(self, n):
        m = build_right(n)
        assert charpoly(m) == charpoly_cofactor(m)

    def test_monic_of_degree_n(self):
        for n in (1, 3, 6):
            poly = charpoly(build_right(n))
            assert poly.degree == n and poly.is_monic()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cayley_hamilton_on_pascal_matrices(self, n):
        for m in (build_left(n), build_right(n)):
            assert poly_at_matrix(charpoly(m), m) == ExactMatrix.zero(n)

    @given(small_matrices(max_n=4, max_abs=4))
    def test_cayley_hamilton(self, a):
        assert poly_at_matrix(charpoly(a), a) == ExactMatrix.zero(a.n)

    @given(small_matrices(max_n=4, max_abs=4))
    def test_constant_term_vs_det(self, a):
        assert charpoly(a).coeffs[0] == (-1) ** a.n * det(a)


class TestUnimodularInverse:
    def test_identity(self):
        assert unimodular_inverse(ExactMatrix.identity(4)) == ExactMatrix.identity(4)

    def test_left_matrix_closed_form(self):
        expected = ExactMatrix.from_rows([[1, 0, 0], [-1, 1, 0], [1, -2, 1]])
        assert unimodular_inverse(build_left(3)) == expected

    def test_r2(self):
        assert unimodular_inverse(R2) == ExactMatrix.from_rows([[-1, 1], [1, 0]])

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            unimodular_inverse(ExactMatrix.from_rows([[2, 0], [0, 1]]))

    @given(unimodular_matrices())
    def test_two_sided_inverse(self, a):
        inv = unimodular_inverse(a)
        ident = ExactMatrix.identity(a.n)
        assert mat_mul(a, inv) == ident
        assert mat_mul(inv, a) == ident


class TestIntPolynomial:
    def test_normalizes_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()

    def test_degree(self):
        assert IntPolynomial((5,)).degree == 0
        assert IntPolynomial(()).degree == -1

    def test_evaluation(self):
        assert IntPolynomial((-1, -1, 1))(5) == 19

    def test_multiplication(self):
        # (x + 1)(x^2 - 3x + 1) = x^3 - 2x^2 - 2x + 1
        assert (IntPolynomial((1, 1)) * IntPolynomial((1, -3, 1))
                == IntPolynomial((1, -2, -2, 1)))


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
        for k in range(45):
            assert is_prime(k) == (k in primes)

    def test_larger_values(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)
        assert not is_prime(1_000_003 * 1_000_033)
