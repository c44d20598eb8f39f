"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares an algorithm with the library: determinants come
from the permutation expansion, characteristic polynomials from
cofactor expansion over polynomial entries, Fibonacci data from naive
iteration, matrix orders from one power per divisor of the bound.
The last two are the slow paths that the library's prime fast paths
and factor-removal order search are tested against.
Slow on purpose; only run at small sizes.
"""

from itertools import permutations

from pascalfib.core import (
    ExactMatrix,
    IntPolynomial,
    ModMatrix,
    mat_add,
    mat_mul,
    mat_scale,
    modmat_pow,
)


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


def poly_at_matrix(poly: IntPolynomial, m: ExactMatrix) -> ExactMatrix:
    """Evaluate an integer polynomial at a matrix argument (Horner)."""
    acc = ExactMatrix.zero(m.n)
    for c in reversed(poly.coeffs):
        acc = mat_add(mat_mul(acc, m), mat_scale(ExactMatrix.identity(m.n), c))
    return acc


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
                if exponent_bound % d == 0 and modmat_pow(m, d) == ident)
