import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalfib.core import ExactMatrix, mat_mod, mat_mul, mat_pow, modmat_pow
from pascalfib import pascal
from pascalfib.core import ModMatrix
from pascalfib.pascal import (
    binomial,
    build_left,
    build_right,
    left_inverse,
    left_power_rows,
    right_inverse,
)
from oracles import binomial_triangle, entry, left_power_entry, matrix_from_rows


class TestBinomial:
    def test_basic_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_out_of_triangle_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 40), st.integers(1, 39))
    def test_pascal_recurrence(self, a, b):
        assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


class TestAgainstTriangle:
    """math.comb against the slow path it replaced: a triangle grown by addition."""

    def test_binomial_in_and_around_the_triangle(self):
        for a in range(131):
            for b in range(-2, a + 3):
                assert binomial(a, b) == binomial_triangle(a, b), (a, b)

    def test_builders_up_to_n_64(self):
        for n in range(1, 65):
            assert build_left(n) == ExactMatrix.from_fn(
                n, lambda i, j: binomial_triangle(i - 1, j - 1)), n
            assert build_right(n) == ExactMatrix.from_fn(
                n, lambda i, j: binomial_triangle(i - 1, n - j)), n


class TestBuilders:
    def test_left_1(self):
        assert build_left(1) == matrix_from_rows([[1]])

    def test_left_3(self):
        assert build_left(3) == matrix_from_rows(
            [[1, 0, 0], [1, 1, 0], [1, 2, 1]])

    def test_left_square_mod_2(self):
        m = mat_mod(build_left(2), 2)
        assert modmat_pow(m, 2) == ModMatrix.identity(2, 2)

    def test_right_2(self):
        assert build_right(2) == matrix_from_rows([[0, 1], [1, 1]])

    def test_right_3(self):
        assert build_right(3) == matrix_from_rows(
            [[0, 0, 1], [0, 1, 1], [1, 2, 1]])

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_right_is_column_reversed_left(self, n):
        left = build_left(n)
        right = build_right(n)
        assert right.rows == tuple(tuple(reversed(row)) for row in left.rows)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_right_satisfies_pascal_recurrence_inside(self, n):
        r = build_right(n)
        for i in range(2, n + 1):
            for j in range(2, n + 1):
                assert entry(r, i, j - 1) == entry(r, i - 1, j - 1) + entry(r, i - 1, j)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            build_left(0)
        with pytest.raises(ValueError):
            build_right(0)

    @pytest.mark.parametrize("build", [build_left, build_right])
    def test_built_once_per_n(self, build):
        assert build(7) is build(7)

    @pytest.mark.parametrize("build, memo", [(build_left, "_lefts"),
                                             (build_right, "_rights")])
    def test_two_threads_get_one_value(self, build, memo, monkeypatch):
        monkeypatch.setattr(pascal, memo, {})
        start = threading.Barrier(2)
        results = []

        def worker():
            start.wait()
            results.append([build(n) for n in range(1, 40)])

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        first, second = results
        assert first == second
        assert all(x is y for x, y in zip(first, second))
        assert first[-1] == ExactMatrix.from_fn(
            39, lambda i, j: binomial(i - 1, j - 1 if build is build_left else 39 - j))


class TestLeftPowerEntry:
    """Single entries and whole powers of left_power_rows' closed form."""

    def test_brute_forced_value(self):
        # L_4**3 entry (4, 2), cross-checked against mat_pow below.
        assert tuple(left_power_rows(4, 3))[3][1] == 27
        assert entry(mat_pow(build_left(4), 3), 4, 2) == 27

    @pytest.mark.parametrize("e", [-2, 0, 1, 7])
    def test_diagonal_is_one(self, e):
        rows = tuple(left_power_rows(5, e))
        for i in (1, 2, 5):
            assert rows[i - 1][i - 1] == 1

    def test_inverse_entry(self):
        assert tuple(left_power_rows(3, -1))[2][0] == 1

    def test_above_diagonal_is_zero(self):
        assert tuple(left_power_rows(5, 9))[1][4] == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_mat_pow_for_positive_exponents(self, n):
        for e in range(1, 11):
            assert mat_pow(build_left(n), e).rows == tuple(left_power_rows(n, e)), e

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_mat_pow_for_negative_exponents(self, n):
        for e in (-3, -2, -1):
            assert mat_pow(build_left(n), e).rows == tuple(left_power_rows(n, e)), e

    @pytest.mark.parametrize("n", range(1, 10))
    def test_exponent_minus_one_reproduces_left_inverse(self, n):
        assert left_inverse(n).rows == tuple(left_power_rows(n, -1))


class TestLeftPowerRows:
    """left_power_rows cuts L_n**e out of the last table it built at e."""

    @pytest.mark.parametrize("dims", [(8, 5, 3, 1), (1, 3, 5, 8), (4, 8, 2, 6, 1)])
    def test_rows_match_the_entry_closed_form(self, monkeypatch, dims):
        monkeypatch.setattr(pascal, "_left_rows", (0, 0, ()))
        for e in range(-6, 9):
            for n in dims:
                assert list(left_power_rows(n, e)) == [
                    tuple(left_power_entry(e, i, j) for j in range(1, n + 1))
                    for i in range(1, n + 1)], (n, e)

    def test_one_table_per_e_in_descending_n(self, monkeypatch):
        monkeypatch.setattr(pascal, "_left_rows", (0, 0, ()))
        builds = []
        real = pascal.comb
        monkeypatch.setattr(pascal, "comb", lambda a, b: builds.append(a) or real(a, b))
        for n in (6, 4, 1):
            list(left_power_rows(n, 3))
        assert len(builds) == 6 * 7 // 2


class TestInverses:
    def test_left_inverse_3(self):
        assert left_inverse(3) == matrix_from_rows(
            [[1, 0, 0], [-1, 1, 0], [1, -2, 1]])

    def test_right_inverse_2(self):
        assert right_inverse(2) == matrix_from_rows([[-1, 1], [1, 0]])

    def test_right_inverse_definitional(self):
        assert mat_mul(build_right(5), right_inverse(5)) == ExactMatrix.identity(5)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_two_sided_exact_inverses(self, n):
        ident = ExactMatrix.identity(n)
        assert mat_mul(build_left(n), left_inverse(n)) == ident
        assert mat_mul(left_inverse(n), build_left(n)) == ident
        assert mat_mul(build_right(n), right_inverse(n)) == ident
        assert mat_mul(right_inverse(n), build_right(n)) == ident


class TestMod2Identities:
    @pytest.mark.parametrize("n", range(2, 33))
    def test_left_square_right_cube(self, n):
        ident = ModMatrix.identity(n, 2)
        assert modmat_pow(mat_mod(build_left(n), 2), 2) == ident
        assert modmat_pow(mat_mod(build_right(n), 2), 3) == ident
