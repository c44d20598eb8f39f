import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pascalfib import core
from pascalfib.core import (
    ExactMatrix,
    IntPolynomial,
    ModMatrix,
    charpoly,
    charpoly_from_power_sums,
    det,
    is_prime,
    mat_mod,
    mat_mul,
    mat_pow,
    modmat_mul,
    modmat_pow,
    prime_factors,
    strip_prime_factors,
)
from pascalfib.pascal import build_left, build_right, left_inverse, right_inverse

from oracles import (
    binomial_triangle,
    charpoly_cofactor,
    charpoly_faddeev_leverrier,
    det_permanent_expansion,
    entry,
    inverse_faddeev_leverrier,
    mat_mul_slow,
    mat_pow_slow,
    matrix_from_rows,
    modmat_mul_slow,
    modmat_pow_slow,
    poly_at_matrix,
    prime_factors_naive,
    trace,
    zero_matrix,
)

R2 = matrix_from_rows([[0, 1], [1, 1]])


def small_matrices(max_n=4, max_abs=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_abs, max_abs), min_size=n, max_size=n),
            min_size=n, max_size=n).map(matrix_from_rows))


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
        a = ExactMatrix.from_fn(2, lambda i, j: 10 * i + j)
        assert a.rows == ((11, 12), (21, 22))
        assert entry(a, 1, 2) == 12
        with pytest.raises(IndexError):
            entry(a, 0, 1)

    def test_modmatrix_requires_canonical_residues(self):
        with pytest.raises(ValueError):
            ModMatrix(1, 5, ((5,),))
        with pytest.raises(ValueError):
            ModMatrix(1, 5, ((-1,),))


class TestPublicConstructorsValidate:
    """Products skip validation, so every way in from outside must keep it."""

    @pytest.mark.parametrize("build", [
        lambda: ExactMatrix(2, ((1, 2), (3, 4.0))),
        lambda: ExactMatrix.from_fn(2, lambda i, j: i / j),
        lambda: ExactMatrix(2, ((1, 2), (3, "4"))),
        lambda: ModMatrix(1, 7.0, ((1,),)),
    ])
    def test_non_int_entries(self, build):
        with pytest.raises(ValueError, match="exact integer"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: ModMatrix(2, 7, ((0, 1), (7, 1))),
        lambda: ModMatrix(2, 7, ((0, 1), (-1, 1))),
        lambda: ModMatrix(1, 7, ((1.0,),)),
    ])
    def test_out_of_range_residues(self, build):
        with pytest.raises(ValueError, match="residues"):
            build()

    # Matrix arithmetic needs no prime: a composite modulus builds.
    @pytest.mark.parametrize("build", [
        lambda: ModMatrix(1, 9, ((1,),)),
        lambda: ModMatrix.identity(3, 4),
        lambda: ModMatrix(3, 91, ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
        lambda: mat_mod(R2, 2**31 + 1),
    ])
    def test_composite_modulus(self, build):
        m = build()
        assert modmat_mul(m, m) == modmat_mul_slow(m, m)

    @pytest.mark.parametrize("build", [
        lambda: ModMatrix(1, 1, ((0,),)),
        lambda: ModMatrix.identity(3, 0),
        lambda: mat_mod(R2, -7),
        lambda: mat_mod(R2, 0),
    ])
    def test_modulus_below_two(self, build):
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: ExactMatrix.identity(0),
        lambda: ModMatrix.identity(0, 7),
        lambda: ModMatrix.identity(-1, 1),
    ])
    def test_identity_of_dimension_below_one(self, build):
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            build()

    # identity and mat_mod make their own entries and skip the per-entry
    # check, so each must give what the validated constructor gives.
    @pytest.mark.parametrize("p", [2, 12, 2**31 - 1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_trusted_builds_equal_validated_ones(self, n, p):
        def same(built, validated):
            return type(built) is type(validated) and built == validated

        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert same(ExactMatrix.identity(n), ExactMatrix(n, ident))
        assert same(ModMatrix.identity(n, p), ModMatrix(n, p, ident))
        for a in (build_left(n), build_right(n), left_inverse(n), right_inverse(n),
                  mat_pow(build_right(n), 64)):
            residues = tuple(tuple(x % p for x in row) for row in a.rows)
            assert same(mat_mod(a, p), ModMatrix(n, p, residues))


class TestValuesAreNotSequences:
    """The NamedTuple value types neither concatenate nor repeat."""

    VALUES = [R2, ModMatrix.identity(2, 7), IntPolynomial((1, 2))]

    @pytest.mark.parametrize("value", VALUES)
    def test_no_concatenation(self, value):
        with pytest.raises(TypeError):
            value + value

    @pytest.mark.parametrize("value", VALUES)
    def test_no_repetition_from_the_left(self, value):
        with pytest.raises(TypeError):
            2 * value

    @pytest.mark.parametrize("value", VALUES[:2])
    def test_no_repetition_from_the_right(self, value):
        with pytest.raises(TypeError):
            value * 2

    def test_polynomials_still_multiply(self):
        assert IntPolynomial((1, 1)) * IntPolynomial((-1, 1)) == IntPolynomial((-1, 0, 1))

    def test_trusted_constructors_give_equal_values(self):
        assert mat_mul(R2, R2) == ExactMatrix(2, ((1, 1), (1, 2)))
        assert modmat_mul(mat_mod(R2, 7), mat_mod(R2, 7)) == ModMatrix(2, 7, ((1, 1), (1, 2)))
        assert type(mat_mul(R2, R2)) is ExactMatrix


def mod_matrices(max_n=6):
    def build(args):
        n, p, seed = args
        return ModMatrix(n, p, tuple(tuple((seed * (7 * i + j) ** 3 + i) % p
                                           for j in range(n)) for i in range(n)))
    return st.tuples(st.integers(1, max_n),
                     st.sampled_from([2, 3, 13, 65537, 2**31 - 1]),
                     st.integers(0, 2**31)).map(build)


ONE_BY_ONE = matrix_from_rows([[-3]])


class TestKernelsMatchSlowPaths:
    """mat_mul/modmat_mul and the lowest-set-bit powers against the
    generator products and identity-start powers in tests/oracles.py."""

    @given(small_matrices(max_n=6, max_abs=9), st.integers(0, 2**20))
    @example(ONE_BY_ONE, 5)
    def test_mat_mul(self, a, shift):
        b = matrix_from_rows([[x + shift for x in row] for row in reversed(a.rows)])
        assert mat_mul(a, b) == mat_mul_slow(a, b)

    @given(mod_matrices())
    @example(ModMatrix(1, 13, ((12,),)))
    def test_modmat_mul(self, a):
        b = ModMatrix(a.n, a.p, tuple(reversed(a.rows)))
        assert modmat_mul(a, b) == modmat_mul_slow(a, b)

    @given(small_matrices(max_n=6, max_abs=3), st.integers(0, 40))
    @example(ONE_BY_ONE, 0)
    @example(ONE_BY_ONE, 1)
    @example(ONE_BY_ONE, 2)
    @example(ONE_BY_ONE, 40)
    @example(R2, 0)
    @example(R2, 1)
    @example(R2, 2)
    def test_mat_pow(self, a, e):
        power = mat_pow(a, e)
        assert power == mat_pow_slow(a, e)
        assert all(type(x) is int for row in power.rows for x in row)

    @given(mod_matrices(), st.integers(0, 40))
    @example(ModMatrix(1, 13, ((12,),)), 0)
    @example(ModMatrix(1, 13, ((12,),)), 1)
    @example(ModMatrix(1, 13, ((12,),)), 2)
    @example(ModMatrix(2, 2, ((0, 1), (1, 1))), 2)
    def test_modmat_pow(self, a, e):
        assert modmat_pow(a, e) == modmat_pow_slow(a, e)

    @given(st.sampled_from([build_left, build_right]), st.integers(1, 8),
           st.integers(1, 12))
    def test_negative_powers(self, build, n, e):
        a = build(n)
        assert mat_pow(a, -e) == mat_pow_slow(mat_pow(a, -1), e)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_pascal_powers(self, n):
        for e in range(0, 41):
            assert mat_pow(build_right(n), e) == mat_pow_slow(build_right(n), e)
            m = mat_mod(build_right(n), 13)
            assert modmat_pow(m, e) == modmat_pow_slow(m, e)


def _next_prime(x):
    while not is_prime(x):
        x += 1
    return x


class TestPackedModularMultiply:
    """modmat_mul packs rows into slots of (n * (p - 1)**2).bit_length()
    bits; the generator product in tests/oracles.py packs nothing. The
    slot width does not use primality, so the moduli include the
    composite 2147483566 = 2 * 1073741783."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 2147483566])
    def test_every_slot_at_its_largest_sum(self, n, p):
        # All entries p - 1, so every slot sums to n * (p - 1)**2, which
        # fills the slot width exactly.
        a = ModMatrix(n, p, ((p - 1,) * n,) * n)
        assert modmat_mul(a, a) == modmat_mul_slow(a, a)

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 2147483566])
    def test_largest_slots_next_to_zero_slots(self, n, p):
        # Rows of b alternate p - 1 and 0, so a carry out of a full slot
        # would show in the empty slot above it.
        a = ModMatrix(n, p, ((p - 1,) * n,) * n)
        b = ModMatrix(n, p, tuple(tuple((p - 1) * ((i + j) % 2) for j in range(n))
                                  for i in range(n)))
        assert modmat_mul(a, b) == modmat_mul_slow(a, b)
        assert modmat_mul(b, a) == modmat_mul_slow(b, a)

    @given(st.data(), st.integers(1, 8), st.integers(2, 2**31 - 1).map(_next_prime))
    def test_random_residues(self, data, n, p):
        residues = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
        a, b = (ModMatrix(n, p, tuple(tuple(data.draw(st.lists(
                    residues, min_size=n, max_size=n))) for _ in range(n)))
                for _ in range(2))
        assert modmat_mul(a, b) == modmat_mul_slow(a, b)


def _signed_entries(bits):
    """Entries of magnitude below 2**bits, the extremes drawn often."""
    top = 2**bits - 1
    return st.one_of(st.integers(-top, top), st.sampled_from([0, top, -top]))


def _signed_matrix(data, n, bits):
    return ExactMatrix(n, tuple(tuple(data.draw(st.lists(
        _signed_entries(bits), min_size=n, max_size=n))) for _ in range(n)))


def _transpose(m):
    return ExactMatrix(m.n, tuple(zip(*m.rows)))


class TestPackedExactMultiply:
    """mat_mul against the generator product in tests/oracles.py: by
    Pascal's rule when the right factor comes from build_left or
    build_right, by dot products otherwise."""

    # Shrinking matrices of big ints takes minutes; the parametrized
    # cases below are the small witnesses, so these skip the shrink.
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data(), st.integers(1, 9), st.integers(0, 64), st.integers(65, 1200))
    def test_small_times_huge_and_back(self, data, n, small, huge):
        a = _signed_matrix(data, n, small)
        b = _signed_matrix(data, n, huge)
        assert mat_mul(a, b) == mat_mul_slow(a, b)
        assert mat_mul(b, a) == mat_mul_slow(b, a)

    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data(), st.integers(1, 12), st.integers(0, 300), st.integers(0, 300))
    def test_random_signed_factors(self, data, n, a_bits, b_bits):
        a, b = _signed_matrix(data, n, a_bits), _signed_matrix(data, n, b_bits)
        assert mat_mul(a, b) == mat_mul_slow(a, b)

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_zero_factors(self, n):
        zero, m = zero_matrix(n), mat_pow(build_right(n), -5)
        for a, b in ((zero, zero), (zero, m), (m, zero),
                     (zero, build_left(n)), (zero, build_right(n))):
            assert mat_mul(a, b) == mat_mul_slow(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 63, 64])
    @pytest.mark.parametrize("small, big",
                             [(1, 1), (3, 3), (2, 200), (60, 500), (31, 1000)])
    def test_largest_slots_next_to_zero_slots(self, n, small, big):
        # Every column of b is +, 0 or - its largest entry, and each row
        # of a one sign, so every entry of a @ b is n * max|a| * max|b|
        # in magnitude, or 0, with positive, zero and negative entries
        # side by side.
        ma, mb = 2**small - 1, 2**big - 1
        a = ExactMatrix(n, tuple(((-1) ** i * ma,) * n for i in range(n)))
        b = ExactMatrix(n, tuple(tuple((1, 0, -1)[k % 3] * mb for k in range(n))
                                 for _ in range(n)))
        for x, y in ((a, b), (b, a), (_transpose(b), _transpose(a))):
            assert mat_mul(x, y) == mat_mul_slow(x, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 18, 48, 64])
    def test_pascal_walk_steps(self, n):
        # The walk steps P @ M, with negative and positive powers P, and
        # M @ M, against the slow product of an unmarked copy of M.
        for m in (build_left(n), build_right(n)):
            plain = ExactMatrix(n, m.rows)
            assert mat_mul(m, m) == mat_mul_slow(plain, plain)
            for e in (-9, -1, 2, 13):
                power = mat_pow(m, e)
                assert mat_mul(power, m) == mat_mul_slow(power, plain)
                assert mat_mul(m, power) == mat_mul_slow(plain, power)

    @settings(max_examples=30, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.sampled_from([1, 2, 3, 7, 18, 48, 64]), st.integers(0, 300), st.randoms())
    def test_signed_factor_times_pascal(self, n, bits, rnd):
        # Drawn from a seeded Random: n**2 draws of the data would
        # overrun Hypothesis's buffer at n = 64.
        top = 2**bits - 1
        a = ExactMatrix(n, tuple(
            tuple(rnd.choice((0, top, -top, rnd.randint(-top, top))) for _ in range(n))
            for _ in range(n)))
        for m in (build_left(n), build_right(n)):
            assert mat_mul(a, m) == mat_mul_slow(a, ExactMatrix(n, m.rows))


class TestPascalMarker:
    """build_left and build_right return core's marked subclasses, which
    mat_mul multiplies by with Pascal's rule; nothing else is marked."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_builders_return_marked_values(self, n):
        left, right = build_left(n), build_right(n)
        assert type(left) is core._LeftPascal
        assert type(right) is core._RightPascal
        assert left == ExactMatrix.from_fn(n, lambda i, j: binomial_triangle(i - 1, j - 1))
        assert right == ExactMatrix.from_fn(n, lambda i, j: binomial_triangle(i - 1, n - j))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_results_are_unmarked(self, n):
        ident = ExactMatrix.identity(n)
        for m in (build_left(n), build_right(n)):
            values = [mat_mul(m, m), mat_mul(ident, m), mat_mul(m, ident)]
            values += [mat_pow(m, e) for e in (-3, -1, 0, 2, 5)]
            assert all(type(v) is ExactMatrix for v in values)
        assert type(left_inverse(n)) is ExactMatrix
        assert type(right_inverse(n)) is ExactMatrix
        # The one power that is the base itself.
        assert mat_pow(build_right(n), 1) is build_right(n)

    @pytest.mark.parametrize("build", [build_left, build_right])
    def test_only_a_marked_right_factor_takes_pascals_rule(self, monkeypatch, build):
        m = build(7)
        power = mat_pow(m, 3)
        plain = ExactMatrix(7, m.rows)
        calls = []
        real = core._taylor_shift
        monkeypatch.setattr(core, "_taylor_shift",
                            lambda a, reverse: calls.append(reverse) or real(a, reverse))
        assert mat_mul(power, plain) == mat_mul(power, m)
        assert mat_mul(m, power) == mat_mul(plain, power)
        assert calls == [build is build_right]


class TestMatMul:
    def test_identity_absorbs(self):
        a = build_left(3)
        assert mat_mul(ExactMatrix.identity(3), a) == a

    def test_r2_squared_hand_multiplied(self):
        assert mat_mul(R2, R2) == matrix_from_rows([[1, 1], [1, 2]])

    def test_zero_annihilates(self):
        a = build_right(3)
        assert mat_mul(a, zero_matrix(3)) == zero_matrix(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(build_left(2), build_left(3))


class TestMatPow:
    def test_r2_fifth_power(self):
        # Fibonacci corner values: F_4, F_5, F_6.
        assert mat_pow(R2, 5) == matrix_from_rows([[3, 5], [5, 8]])

    def test_zeroth_power_is_identity(self):
        assert mat_pow(build_right(4), 0) == ExactMatrix.identity(4)

    def test_negative_power_uses_unimodular_inverse(self):
        # (-2)**(i-j) * C(i-1, j-1), the power closed form at e = -2.
        expected = matrix_from_rows([[1, 0, 0], [-2, 1, 0], [4, -4, 1]])
        assert mat_pow(build_left(3), -2) == expected

    def test_negative_power_requires_unimodular(self):
        with pytest.raises(ValueError):
            mat_pow(matrix_from_rows([[2]]), -1)

    @given(small_matrices(max_n=3, max_abs=3), st.integers(0, 8), st.integers(0, 8))
    def test_power_additivity(self, a, e, f):
        assert mat_pow(a, e + f) == mat_mul(mat_pow(a, e), mat_pow(a, f))

    @pytest.mark.parametrize("power, mul_name, base", [
        (mat_pow, "mat_mul", build_right(3)),
        (modmat_pow, "modmat_mul", mat_mod(build_right(3), 7))])
    def test_square_and_multiply_count(self, monkeypatch, power, mul_name, base):
        # bit_length(e) - 1 squarings and popcount(e) - 1 multiplies.
        calls = []
        mul = getattr(core, mul_name)
        monkeypatch.setattr(core, mul_name, lambda a, b: calls.append(1) or mul(a, b))
        for e in range(1, 131):
            calls.clear()
            power(base, e)
            assert len(calls) == e.bit_length() + bin(e).count("1") - 2


class TestModMatrix:
    def test_mat_mod_reduces_entrywise(self):
        reduced = mat_mod(build_left(3), 2)
        assert reduced.rows == ((1, 0, 0), (1, 1, 0), (1, 0, 1))

    def test_mat_mod_canonical_residue(self):
        assert mat_mod(matrix_from_rows([[-1]]), 5).rows == ((4,),)

    def test_mat_mod_already_reduced(self):
        assert mat_mod(R2, 2).rows == ((0, 1), (1, 1))

    def test_power_mod_a_composite(self):
        m = mat_mod(build_right(6), 12)
        assert modmat_pow(m, 24) == mat_mod(mat_pow_slow(build_right(6), 24), 12)

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


class TestStripPrimeFactors:
    @given(st.integers(1, 3000), st.data())
    def test_finds_the_least_divisor_that_holds(self, bound, data):
        divisors = [d for d in range(1, bound + 1) if bound % d == 0]
        d = data.draw(st.sampled_from(divisors))
        assert strip_prime_factors(bound, lambda k: k % d == 0) == d

    def test_call_order(self):
        # 12 = 2^2 * 3 with the least holding divisor 3: strip 2 while
        # 6 and 3 hold, then try 3 once more at 1.
        calls = []
        assert strip_prime_factors(12, lambda k: calls.append(k) or k % 3 == 0) == 3
        assert calls == [6, 3, 1]


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
        assert det(matrix_from_rows([[1, 2], [2, 4]])) == 0

    def test_zero_pivot_needs_row_swap(self):
        assert det(matrix_from_rows([[0, 1], [1, 0]])) == -1

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
            assert poly.degree == n and poly.coeffs[-1] == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cayley_hamilton_on_pascal_matrices(self, n):
        for m in (build_left(n), build_right(n)):
            assert poly_at_matrix(charpoly(m), m) == zero_matrix(n)

    @given(small_matrices(max_n=4, max_abs=4))
    def test_cayley_hamilton(self, a):
        assert poly_at_matrix(charpoly(a), a) == zero_matrix(a.n)

    @given(small_matrices(max_n=4, max_abs=4))
    def test_constant_term_vs_det(self, a):
        assert charpoly(a).coeffs[0] == (-1) ** a.n * det(a)

    @given(small_matrices(max_n=7, max_abs=9))
    @example(ONE_BY_ONE)
    @example(zero_matrix(1))
    @example(zero_matrix(5))
    def test_matches_faddeev_leverrier(self, a):
        assert charpoly(a) == charpoly_faddeev_leverrier(a)

    @given(small_matrices(max_n=4, max_abs=9))
    def test_matches_cofactor_expansion(self, a):
        assert charpoly(a) == charpoly_cofactor(a)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_pascal_matrices_match_faddeev_leverrier(self, n):
        for m in (build_left(n), build_right(n)):
            assert charpoly(m) == charpoly_faddeev_leverrier(m)

    @given(small_matrices(max_n=6, max_abs=9))
    @example(ONE_BY_ONE)
    @example(zero_matrix(4))
    def test_newton_step_on_slow_traces(self, a):
        sums = [trace(mat_pow_slow(a, k)) for k in range(1, a.n + 1)]
        assert charpoly_from_power_sums(sums) == charpoly_faddeev_leverrier(a)

    def test_newton_step_refuses_sums_of_no_matrix(self):
        # p_1 = 1, p_2 = 0: c_0 = -(c_1 p_1 + p_2) / 2 = 1/2.
        with pytest.raises(ArithmeticError):
            charpoly_from_power_sums((1, 0))

    @pytest.mark.parametrize("n", [1, 2, 17, 48])
    def test_makes_n_products(self, monkeypatch, n):
        # a^2 .. a^ceil(n/2), one product each.
        calls = _count_mat_mul(monkeypatch)
        charpoly(build_right(n))
        assert len(calls) == (n + 1) // 2 - 1


def _count_mat_mul(monkeypatch) -> list[None]:
    """Record each call of core.mat_mul, the name the kernels call it by."""
    calls = []
    real = core.mat_mul

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(core, "mat_mul", counted)
    return calls


class TestUnimodularInverse:
    """The inverses of L_n and R_n, as mat_pow(M, -1) makes them by the
    backward Taylor shift of I."""

    def test_left_matrix_closed_form(self):
        expected = matrix_from_rows([[1, 0, 0], [-1, 1, 0], [1, -2, 1]])
        assert mat_pow(build_left(3), -1) == expected

    def test_r2(self):
        assert mat_pow(build_right(2), -1) == matrix_from_rows([[-1, 1], [1, 0]])

    @pytest.mark.parametrize("n", range(1, 17))
    def test_pascal_matrices_match_faddeev_leverrier(self, n):
        for m in (build_left(n), build_right(n)):
            assert mat_pow(m, -1) == inverse_faddeev_leverrier(m)

    def test_pascal_matrices_at_n_64_match_closed_forms(self):
        assert mat_pow(build_left(64), -1) == left_inverse(64)
        assert mat_pow(build_right(64), -1) == right_inverse(64)

    @pytest.mark.parametrize("n", [1, 2, 17, 48])
    def test_makes_no_products(self, monkeypatch, n):
        calls = _count_mat_mul(monkeypatch)
        mat_pow(build_right(n), -1)
        assert calls == []


def _slow_inverse(build, n):
    """Faddeev-LeVerrier where it is quick, the signed-binomial closed
    forms above n = 18."""
    if n <= 18:
        return inverse_faddeev_leverrier(build(n))
    return left_inverse(n) if build is build_left else right_inverse(n)


class TestBackwardTaylorShift:
    """mat_pow(M, -e) for the built L_n and R_n powers the backward
    Taylor shift of I; nothing else has a negative power."""

    @pytest.mark.parametrize("build", [build_left, build_right])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 18, 48, 64])
    def test_matches_slow_powers_of_the_inverse(self, build, n):
        inverse = _slow_inverse(build, n)
        for e in (1, 2, 9, 64):
            assert mat_pow(build(n), -e) == mat_pow_slow(inverse, e)

    @pytest.mark.parametrize("build", [build_left, build_right])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 18, 48, 64])
    def test_two_sided_inverse(self, build, n):
        m = build(n)
        inverse = mat_pow(m, -1)
        ident = ExactMatrix.identity(n)
        assert type(inverse) is ExactMatrix
        assert mat_mul(m, inverse) == ident
        assert mat_mul(inverse, m) == ident

    @pytest.mark.parametrize("build", [build_left, build_right])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_unmarked_copy_has_no_negative_power(self, build, n):
        plain = ExactMatrix(n, build(n).rows)
        with pytest.raises(ValueError, match="negative powers"):
            mat_pow(plain, -1)
        assert mat_pow(plain, 0) == ExactMatrix.identity(n)


class TestIntPolynomial:
    def test_normalizes_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()

    def test_degree(self):
        assert IntPolynomial((5,)).degree == 0
        assert IntPolynomial(()).degree == -1

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
