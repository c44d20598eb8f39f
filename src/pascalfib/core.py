"""Exact dense linear algebra over the integers and over prime fields.

Matrices here are small (n <= 64), square, immutable, and hold Python
ints, so nothing ever rounds or overflows. Public accessors are 1-based
(row i, column j with 1 <= i, j <= n); storage is a plain row-major
tuple of tuples.

The two nontrivial algorithms are fraction-free. Determinants use
Bareiss elimination, whose intermediate divisions are exact by
construction. Characteristic polynomials use the Faddeev-LeVerrier
trace recursion, whose division by the step index k is likewise exact
over the integers; the final auxiliary matrix of that recursion is the
adjugate up to sign, which hands us the exact integer inverse of a
unimodular matrix for free.

Everything in this module is a pure function on immutable values, so
instances may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every input below 3.3e24."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_factors(x: int) -> tuple[int, ...]:
    """Distinct prime factors of x >= 1 in ascending order, by trial
    division: at most about sqrt(x) / 2 steps (46 341 below 2^33)."""
    if x < 1:
        raise ValueError("only positive integers have prime factors")
    factors = []
    q = 2
    while q * q <= x:
        if x % q == 0:
            factors.append(q)
            while x % q == 0:
                x //= q
        q += 1 if q == 2 else 2
    if x > 1:
        factors.append(x)
    return tuple(factors)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable square matrix of arbitrary-precision integers."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.rows) != self.n or any(len(row) != self.n for row in self.rows):
            raise ValueError(f"entries do not form an {self.n}x{self.n} square")
        if any(not isinstance(x, int) for row in self.rows for x in row):
            raise ValueError("entries must be exact integers")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "ExactMatrix":
        tup = tuple(tuple(row) for row in rows)
        return cls(len(tup), tup)

    @classmethod
    def from_fn(cls, n: int, fn: Callable[[int, int], int]) -> "ExactMatrix":
        """Build from a 1-based entry function fn(i, j)."""
        return cls(n, tuple(tuple(fn(i, j) for j in range(1, n + 1))
                            for i in range(1, n + 1)))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "ExactMatrix":
        return cls(n, tuple((0,) * n for _ in range(n)))

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j (1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


@dataclass(frozen=True)
class ModMatrix:
    """Immutable square matrix of residues modulo a prime p."""

    n: int
    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if len(self.rows) != self.n or any(len(row) != self.n for row in self.rows):
            raise ValueError(f"entries do not form an {self.n}x{self.n} square")
        if any(not isinstance(x, int) or not 0 <= x < self.p
               for row in self.rows for x in row):
            raise ValueError(f"entries must be residues in [0, {self.p})")

    @classmethod
    def identity(cls, n: int, p: int) -> "ModMatrix":
        return cls(n, p, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def scalar(cls, n: int, p: int, s: int) -> "ModMatrix":
        """The scalar matrix (s mod p) * I."""
        s %= p
        return cls(n, p, tuple(tuple(s if i == j else 0 for j in range(n))
                               for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial: coeffs[k] multiplies x**k.

    Trailing zero coefficients are stripped at construction, so the
    leading coefficient is nonzero unless the polynomial is zero
    (represented by an empty coefficient tuple).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if any(not isinstance(c, int) for c in coeffs):
            raise ValueError("coefficients must be exact integers")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        return cls(tuple(coeffs))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    cols = tuple(zip(*b.rows))
    rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a.rows)
    return ExactMatrix(a.n, rows)


def mat_pow(a: ExactMatrix, e: int) -> ExactMatrix:
    """a**e by binary exponentiation; a**0 = I.

    Negative exponents are defined only for unimodular matrices, whose
    inverse stays integral.
    """
    if e < 0:
        return mat_pow(unimodular_inverse(a), -e)
    result = ExactMatrix.identity(a.n)
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def mat_scale(a: ExactMatrix, s: int) -> ExactMatrix:
    return ExactMatrix(a.n, tuple(tuple(s * x for x in row) for row in a.rows))


def mat_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return ExactMatrix(a.n, tuple(tuple(x + y for x, y in zip(ra, rb))
                                  for ra, rb in zip(a.rows, b.rows)))


def mat_mod(a: ExactMatrix, p: int) -> ModMatrix:
    """Entrywise reduction into canonical residues [0, p); p must be prime."""
    return ModMatrix(a.n, p, tuple(tuple(x % p for x in row) for row in a.rows))


def modmat_mul(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    if a.n != b.n or a.p != b.p:
        raise ValueError("dimension or modulus mismatch")
    p = a.p
    cols = tuple(zip(*b.rows))
    rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                 for row in a.rows)
    return ModMatrix(a.n, p, rows)


def modmat_pow(a: ModMatrix, e: int) -> ModMatrix:
    """a**e mod p by binary exponentiation; e must be nonnegative."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = ModMatrix.identity(a.n, a.p)
    base = a
    while e:
        if e & 1:
            result = modmat_mul(result, base)
        e >>= 1
        if e:
            base = modmat_mul(base, base)
    return result


def det(a: ExactMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = a.n
    m = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                # Exact by the Desnanot-Jacobi identity behind Bareiss.
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def _faddeev_leverrier(a: ExactMatrix) -> tuple[tuple[int, ...], ExactMatrix]:
    """One sweep of the trace recursion.

    Returns (c, M) where c are the ascending coefficients of the monic
    characteristic polynomial det(xI - a) and M is the final auxiliary
    matrix, satisfying a @ M == -c[0] * I.
    """
    n = a.n
    c = [0] * (n + 1)
    c[n] = 1
    am = ExactMatrix.zero(n)
    m = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        m = mat_add(am, mat_scale(ExactMatrix.identity(n), c[n - k + 1]))
        am = mat_mul(a, m)
        t = am.trace()
        q, r = divmod(-t, k)
        if r:
            raise ArithmeticError("trace recursion division was not exact")
        c[n - k] = q
    return tuple(c), m


def charpoly(a: ExactMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - a), exact coefficients."""
    c, _ = _faddeev_leverrier(a)
    return IntPolynomial(c)


def unimodular_inverse(a: ExactMatrix) -> ExactMatrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    c, m = _faddeev_leverrier(a)
    c0 = c[0]
    # det a = (-1)**n * c0; unimodularity means |c0| == 1.
    if c0 not in (1, -1):
        raise ValueError("not unimodular over the integers")
    # a @ m == -c0 * I, so the inverse is m / (-c0) == -c0 * m.
    return mat_scale(m, -c0)
