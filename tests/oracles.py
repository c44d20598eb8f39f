"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares an algorithm with the library code it checks:
binomials come from a Pascal triangle grown row by row by addition,
and the closed form of L_n**e entry by entry from those binomials,
determinants from the permutation expansion, characteristic
polynomials from cofactor expansion over polynomial entries and from
the Faddeev-LeVerrier trace recursion, unimodular inverses from that
recursion too, Fibonacci data from naive iteration, matrix orders from
one power per divisor of the bound, matrix products from a generator
of x * y over zip whose results are re-validated by the public
constructors, and powers by binary exponentiation that multiplies into
the identity.
These are the slow paths that the library's math.comb binomials,
closed-form rows of L_n**e, prime fast paths, factor-removal order
search, power-sum characteristic polynomial, Pascal-rule products and
inverses, packed modular products and trusted-constructor kernels are
tested against.

The order-law verifiers take every matrix power afresh with the slow
power and every Fibonacci value, entry point and period by iteration,
so they share neither the library's ladder of repeated squares nor its
packed modular multiply nor its fast-doubling residues.

The cell-law verifiers at the end are the laws' loops written cell by
cell: every cell read through the bounds-checked entry(), every sum
summed afresh. They take their power matrix from laws.power at call
time, like the fast loops, so a test that swaps that helper feeds the
same matrix to both. Slow on purpose; only run at small sizes.
"""

from itertools import permutations, product

from pascalfib import laws
from pascalfib.core import ExactMatrix, IntPolynomial, ModMatrix
from pascalfib.fib import fib
from pascalfib.modorder import CheckResult, OrderReport
from pascalfib.report import FAIL, HYPOTHESIS_NOT_MET, PASS
from pascalfib.pascal import build_left, build_right

# Rows 0, 1, ... of Pascal's triangle, each made from the one above it.
_triangle: list[tuple[int, ...]] = [(1,)]


def binomial_triangle(a: int, b: int) -> int:
    """C(a, b) read off the triangle, grown by addition up to row a; zero
    for b outside [0, a]."""
    if a < 0:
        raise ValueError("binomial row index must be nonnegative")
    while len(_triangle) <= a:
        prev = _triangle[-1]
        _triangle.append((1, *(prev[k - 1] + prev[k] for k in range(1, len(prev))), 1))
    return _triangle[a][b] if 0 <= b <= a else 0


def left_power_entry(e: int, i: int, j: int) -> int:
    """Entry (i, j), 1-based, of L**e by the closed form
    e**(i-j) * C(i-1, j-1), zero above the diagonal, with the binomial
    read off the triangle."""
    return e ** (i - j) * binomial_triangle(i - 1, j - 1) if j <= i else 0


def det_permanent_expansion(m: ExactMatrix) -> int:
    """Determinant as the signed sum over all permutations."""
    n = m.n
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        sign = -1 if inversions % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        total += sign * prod
    return total


def _poly_det(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    if len(rows) == 1:
        return rows[0][0]
    total = IntPolynomial(())
    sign = 1
    for col in range(len(rows)):
        minor = [[row[c] for c in range(len(rows)) if c != col]
                 for row in rows[1:]]
        term = rows[0][col] * _poly_det(minor)
        if sign < 0:
            term = IntPolynomial(tuple(-c for c in term.coeffs))
        total = IntPolynomial(tuple(
            (total.coeffs[k] if k < len(total.coeffs) else 0)
            + (term.coeffs[k] if k < len(term.coeffs) else 0)
            for k in range(max(len(total.coeffs), len(term.coeffs), 1))))
        sign = -sign
    return total


def charpoly_cofactor(m: ExactMatrix) -> IntPolynomial:
    """det(xI - m) by Laplace expansion over polynomial entries."""
    rows = [[IntPolynomial((-m.rows[i][j], 1) if i == j else (-m.rows[i][j],))
             for j in range(m.n)] for i in range(m.n)]
    return _poly_det(rows)


def matrix_from_rows(rows) -> ExactMatrix:
    """ExactMatrix from any square iterable of integer rows."""
    rows = tuple(tuple(row) for row in rows)
    return ExactMatrix(len(rows), rows)


def entry(m: ExactMatrix | ModMatrix, i: int, j: int) -> int:
    """Entry at row i, column j (1-based); IndexError outside 1..n."""
    if not (1 <= i <= m.n and 1 <= j <= m.n):
        raise IndexError(f"index ({i}, {j}) outside 1..{m.n}")
    return m.rows[i - 1][j - 1]


def scalar_mod(n: int, p: int, s: int) -> ModMatrix:
    """The scalar matrix (s mod p) * I, checked by the ModMatrix constructor."""
    s %= p
    return ModMatrix(n, p, tuple(tuple(s if i == j else 0 for j in range(n))
                                 for i in range(n)))


def zero_matrix(n: int) -> ExactMatrix:
    """The n x n zero matrix."""
    return ExactMatrix(n, tuple((0,) * n for _ in range(n)))


def trace(m: ExactMatrix) -> int:
    """Sum of the diagonal entries."""
    return sum(m.rows[i][i] for i in range(m.n))


def _plus_scalar(m: ExactMatrix, c: int) -> ExactMatrix:
    """m + c * I."""
    return ExactMatrix(m.n, tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                                  for i, row in enumerate(m.rows)))


def poly_at_matrix(poly: IntPolynomial, m: ExactMatrix) -> ExactMatrix:
    """Evaluate an integer polynomial at a matrix argument (Horner)."""
    acc = zero_matrix(m.n)
    for c in reversed(poly.coeffs):
        acc = _plus_scalar(mat_mul_slow(acc, m), c)
    return acc


def charpoly_faddeev_leverrier(m: ExactMatrix) -> IntPolynomial:
    """det(xI - m) by the Faddeev-LeVerrier trace recursion, in n slow
    products: with M_1 = I and M_{k+1} = m M_k + c_{n-k} I, the
    coefficient c_{n-k} is -tr(m M_k) / k, a division exact over Z."""
    n = m.n
    c = [0] * (n + 1)
    c[n] = 1
    aux = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        prod = mat_mul_slow(m, aux)
        c[n - k], r = divmod(-trace(prod), k)
        assert r == 0, "trace recursion division was not exact"
        aux = _plus_scalar(prod, c[n - k])
    return IntPolynomial(c)


def inverse_faddeev_leverrier(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a unimodular matrix by the Faddeev-LeVerrier trace
    recursion, in n slow products: with M_1 = I, c_{n-k} = -tr(m M_k) / k
    and M_{k+1} = m M_k + c_{n-k} I, the last step gives m M_n = -c_0 I,
    so the inverse is -c_0 M_n when c_0 = +-1."""
    n = m.n
    aux = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        prod = mat_mul_slow(m, aux)
        c, r = divmod(-trace(prod), k)
        assert r == 0, "trace recursion division was not exact"
        if k < n:
            aux = _plus_scalar(prod, c)
    if c not in (1, -1):
        raise ValueError("not unimodular over the integers")
    return ExactMatrix(n, tuple(tuple(-c * x for x in row) for row in aux.rows))


def fib_naive(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def entry_point_naive(m: int) -> int:
    a, b = 0, 1
    k = 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if a == 0:
            return k


def pisano_naive(m: int) -> int:
    a, b = 0, 1
    k = 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if (a, b) == (0, 1):
            return k


def primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = [True] * limit
    sieve[:2] = [False] * min(2, limit)
    for q in range(2, int(limit ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, limit, q))
    return [q for q, flag in enumerate(sieve) if flag]


def prime_factors_naive(x: int) -> list[int]:
    return [q for q in range(2, x + 1)
            if x % q == 0 and all(q % r for r in range(2, q))]


def matrix_order_by_divisors(m: ModMatrix, exponent_bound: int) -> int:
    """Least divisor d of exponent_bound with m**d = I, tried in ascending order."""
    ident = ModMatrix.identity(m.n, m.p)
    return next(d for d in range(1, exponent_bound + 1)
                if exponent_bound % d == 0 and modmat_pow_slow(m, d) == ident)


def mat_mul_slow(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact product, every result checked by the ExactMatrix constructor."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    cols = tuple(zip(*b.rows))
    rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a.rows)
    return ExactMatrix(a.n, rows)


def modmat_mul_slow(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    """Product mod p, every result checked by the ModMatrix constructor."""
    if a.n != b.n or a.p != b.p:
        raise ValueError("dimension or modulus mismatch")
    p = a.p
    cols = tuple(zip(*b.rows))
    rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                 for row in a.rows)
    return ModMatrix(a.n, p, rows)


def mat_pow_slow(a: ExactMatrix, e: int) -> ExactMatrix:
    """a**e for e >= 0, multiplying into the identity bit by bit."""
    result, base = ExactMatrix.identity(a.n), a
    while e:
        if e & 1:
            result = mat_mul_slow(result, base)
        e >>= 1
        if e:
            base = mat_mul_slow(base, base)
    return result


def modmat_pow_slow(a: ModMatrix, e: int) -> ModMatrix:
    """a**e mod p for e >= 0, multiplying into the identity bit by bit."""
    result, base = ModMatrix.identity(a.n, a.p), a
    while e:
        if e & 1:
            result = modmat_mul_slow(result, base)
        e >>= 1
        if e:
            base = modmat_mul_slow(base, base)
    return result


# ---------------------------------------------------------------------------
# order-law verifiers, one slow power per exponent


def _reduce(m: ExactMatrix, p: int) -> ModMatrix:
    return ModMatrix(m.n, p, tuple(tuple(x % p for x in row) for row in m.rows))


def _order_slow(m: ModMatrix, exponent_bound: int) -> int | None:
    """Factor removal from exponent_bound with a fresh slow power per
    exponent tried; None if exponent_bound does not annihilate m."""
    ident = ModMatrix.identity(m.n, m.p)
    if modmat_pow_slow(m, exponent_bound) != ident:
        return None
    order = exponent_bound
    for q in prime_factors_naive(exponent_bound):
        while order % q == 0 and modmat_pow_slow(m, order // q) == ident:
            order //= q
    return order


def _neg_one_pow(exponent: int, p: int) -> int:
    return 1 if exponent % 2 == 0 else (p - 1) % p


def verify_left_order_slow(n: int, p: int) -> OrderReport:
    order = _order_slow(_reduce(build_left(n), p), p)
    offdiag = all(binomial_triangle(i - 1, j - 1) * p ** (i - j) % p == 0
                  for i in range(1, n + 1) for j in range(1, i))
    return OrderReport("left", n, p, order, p, {
        "order-equals-p": CheckResult(PASS if order == p else FAIL,
                                      {} if order is None else {"order": order}),
        "closed-form-offdiagonal": CheckResult(PASS if offdiag else FAIL, {}),
    })


def right_order_reports_slow(n: int, p: int, e: int | None = None) -> dict[str, OrderReport]:
    """The reports of scalar-power, p-minus-1, p-plus-1 and order-bound,
    keyed by law id, each matrix power taken afresh by modmat_pow_slow.

    e defaults to the entry point of p by scan; a wrong e shows the
    reports of a false fourth-power premise.
    """
    if e is None:
        e = entry_point_naive(p)
    rm = _reduce(build_right(n), p)
    order = _order_slow(rm, 4 * e)
    failure = OrderReport("right", n, p, None, 4 * e, {
        "fourth-power-identity": CheckResult(FAIL, {"entry_point": e})})

    def report(checks: dict[str, CheckResult]) -> OrderReport:
        return OrderReport("right", n, p, order, 4 * e, checks)

    re = modmat_pow_slow(rm, e)
    f_prev = fib_naive(e - 1) % p
    generic = pow(f_prev, n - 1, p)
    if n % 2 == 0:
        refined = _neg_one_pow((n // 2 + 1) * e, p) * f_prev % p
        refined_id = "signed-scalar-even"
    else:
        refined = _neg_one_pow((n - 1) // 2 * e, p)
        refined_id = "signed-scalar-odd"
    reports = {"scalar-power": report({
        "scalar-form": CheckResult(
            PASS if re == scalar_mod(n, p, generic) else FAIL,
            {"entry_point": e, "scalar": generic}),
        refined_id: CheckResult(
            PASS if re == scalar_mod(n, p, refined) else FAIL, {"scalar": refined}),
        "fourth-power-identity": CheckResult(PASS if order is not None else FAIL, {}),
    })}
    if order is None:
        return {**reports, "p-minus-1": failure, "p-plus-1": failure,
                "order-bound": failure}

    if fib_naive(p - 1) % p:
        pminus1 = CheckResult(HYPOTHESIS_NOT_MET, {})
    else:
        ok = modmat_pow_slow(rm, p - 1) == ModMatrix.identity(n, p)
        pminus1 = CheckResult(PASS if ok else FAIL, {})
    reports["p-minus-1"] = report({"p-minus-1-identity": pminus1})

    if fib_naive(p + 1) % p:
        pplus1 = CheckResult(HYPOTHESIS_NOT_MET, {})
    else:
        scalar = 1 if n % 2 == 1 else (p - 1) % p
        ok = modmat_pow_slow(rm, p + 1) == scalar_mod(n, p, scalar)
        pplus1 = CheckResult(PASS if ok else FAIL, {"scalar": scalar})
    reports["p-plus-1"] = report({"p-plus-1-identity": pplus1})

    bound = {"order": order, "bound": 2 * (p + 1)}
    if p == 5:
        within = CheckResult(HYPOTHESIS_NOT_MET, {"order": order})
    else:
        within = CheckResult(PASS if order <= 2 * (p + 1) else FAIL, bound)
    if p % 5 in (2, 3) and n % 2 == 0 and pisano_naive(p) == 2 * (p + 1):
        tight = CheckResult(PASS if order == 2 * (p + 1) else FAIL, bound)
    else:
        tight = CheckResult(HYPOTHESIS_NOT_MET, {"order": order})
    reports["order-bound"] = report({"within-2p-plus-2": within,
                                     "tightness-even-dimension": tight})
    return reports


# ---------------------------------------------------------------------------
# cell-law verifiers, one entry() per cell


def _right_power(n: int, e: int) -> ExactMatrix:
    return laws.power(build_right(n), e)


def verify_square_recurrence_slow(n: int) -> laws.CellLawReport:
    b = _right_power(n, 2)
    checked = 0
    failures = []
    for i in range(2, n + 1):
        for j in range(1, n):
            lhs = entry(b, i, j + 1)
            rhs = entry(b, i - 1, j + 1) + 2 * entry(b, i - 1, j) - entry(b, i, j)
            checked += 1
            if lhs != rhs:
                failures.append((i, j + 1, lhs, rhs))
    return laws.CellLawReport("square-recurrence", n, 2, checked, tuple(failures))


def verify_cube_recurrence_slow(n: int) -> laws.CellLawReport:
    c = _right_power(n, 3)
    checked = 0
    failures = []
    for i in range(1, n):
        for j in range(2, n + 1):
            lhs = entry(c, i + 1, j)
            rhs = 2 * entry(c, i, j) + 3 * entry(c, i, j - 1) - 2 * entry(c, i + 1, j - 1)
            checked += 1
            if lhs != rhs:
                failures.append((i + 1, j, lhs, rhs))
    return laws.CellLawReport("cube-recurrence", n, 3, checked, tuple(failures))


def verify_fib_recurrence_slow(n: int, e: int) -> laws.CellLawReport:
    a = _right_power(n, e)
    f_prev, f_cur, f_next = fib(e - 1), fib(e), fib(e + 1)
    checked = 0
    failures = []
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            lhs = f_prev * entry(a, i, j)
            rhs = (f_cur * entry(a, i - 1, j)
                   + f_next * entry(a, i - 1, j - 1)
                   - f_cur * entry(a, i, j - 1))
            checked += 1
            if lhs != rhs:
                failures.append((i, j, lhs, rhs))
    return laws.CellLawReport("fib-recurrence", n, e, checked, tuple(failures))


def verify_border_formulas_slow(n: int, e: int) -> laws.CellLawReport:
    a = _right_power(n, e)
    f_prev, f_cur = fib(e - 1), fib(e)
    checked = 0
    failures = []
    for j in range(1, n + 1):
        lhs = entry(a, 1, j)
        rhs = binomial_triangle(n - 1, j - 1) * f_prev ** (n - j) * f_cur ** (j - 1)
        checked += 1
        if lhs != rhs:
            failures.append((1, j, lhs, rhs))
    for i in range(2, n + 1):
        lhs = entry(a, i, 1)
        rhs = f_prev ** (n - i) * f_cur ** (i - 1)
        checked += 1
        if lhs != rhs:
            failures.append((i, 1, lhs, rhs))
    return laws.CellLawReport("border-formulas", n, e, checked, tuple(failures))


def verify_row_expansion_23_slow(n: int) -> laws.CellLawReport:
    b = _right_power(n, 2)
    c = _right_power(n, 3)
    checked = 0
    failures = []
    for i in range(1, n):
        for j in range(1, n + 1):
            lhs = entry(b, i + 1, j)
            rhs = entry(b, i, j) - sum((-1) ** k * entry(b, i, j - k)
                                      for k in range(1, j))
            checked += 1
            if lhs != rhs:
                failures.append((i + 1, j, lhs, rhs))
            lhs = entry(c, i + 1, j)
            rhs = 2 * entry(c, i, j) + sum((-1) ** k * 2 ** (k - 1) * entry(c, i, j - k)
                                          for k in range(1, j))
            checked += 1
            if lhs != rhs:
                failures.append((i + 1, j, lhs, rhs))
    return laws.CellLawReport("row-expansion-23", n, None, checked, tuple(failures))


def verify_row_propagation_slow(n: int, e: int) -> laws.CellLawReport:
    a = _right_power(n, e)
    f_prev, f_cur = fib(e - 1), fib(e)
    checked = 0
    failures = []
    for i in range(1, n):
        for j in range(1, n + 1):
            lhs = f_prev ** j * entry(a, i + 1, j)
            rhs = f_cur * f_prev ** (j - 1) * entry(a, i, j) - sum(
                (-1) ** (k + e) * f_cur ** (k - 1) * f_prev ** (j - 1 - k)
                * entry(a, i, j - k)
                for k in range(1, j))
            checked += 1
            if lhs != rhs:
                failures.append((i + 1, j, lhs, rhs))
    return laws.CellLawReport("row-propagation", n, e, checked, tuple(failures))


def left_closed_form_slow(n: int, e: int) -> tuple[int, int, int, int] | None:
    """The first cell (i, j, lhs, rhs) where L_n**e differs from
    e**(i-j) C(i-1, j-1), or None."""
    power = laws.power(build_left(n), e)
    for i, j in product(range(1, n + 1), repeat=2):
        lhs, rhs = entry(power, i, j), left_power_entry(e, i, j)
        if lhs != rhs:
            return i, j, lhs, rhs
    return None
