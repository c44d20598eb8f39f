"""Exact dense linear algebra over the integers and modulo m >= 2.

Matrices here are small (n <= 64), square, immutable, and hold Python
ints, so nothing ever rounds or overflows. Storage is a plain row-major
tuple of tuples; from_fn's entry function is 1-based (row i, column j
with 1 <= i, j <= n).

The nontrivial algorithms are fraction-free. Determinants come from
Bareiss elimination, whose intermediate divisions are exact by
construction. Characteristic polynomials come from LeVerrier's power
sums tr(a^k), k <= n, and Newton's identities, whose division by k is
likewise exact over the integers; charpoly_from_power_sums is that
last step alone, for a caller that already holds the traces. Each
trace is one inner product of a^ceil(k/2) with the transpose of
a^floor(k/2), so ceil(n/2) - 1 products suffice, half the n of the
Faddeev-LeVerrier recursion, which the tests keep as an oracle.

The value types are `typing.NamedTuple` records, not dataclasses, so a
fresh process does not import `dataclasses` (and with it `inspect`,
`ast` and `dis`). Each one's `__new__` validates, and none concatenates
or repeats like a tuple: `+`, and `*` with an int, raise TypeError.

Validation happens at the API edge. The public constructors (the
classes themselves, `from_fn`, `identity`) and `mat_mod` check the
shape, that entries are ints, and for `ModMatrix` that the modulus is
an int of at least 2 and entries are residues. Matrix arithmetic mod m needs no
prime, so no constructor tests primality: the callers whose theorems
need a prime (`cli`, the `modorder` and `fib` verifiers) check it with
`is_prime` where their input enters. Products, powers and inverses of
matrices that were already validated are built through the trusted
constructors `_exact` and `_mod` (plain `tuple.__new__`), which check
nothing, so a product costs only its arithmetic.

Exact and modular powers share one square-and-multiply loop, `_power`,
and differ only in the product they pass it and in what they do with
e <= 0. The order searches in `modorder` do not use it: their ladder
keeps every square it makes across the exponents of one search.

The modular product uses Kronecker substitution: each row of the right
factor is packed into one Python int, so a row of the product is n
big-int scalar multiplies instead of n dot products.

The exact product multiplies by L_n and R_n with Pascal's rule. Row i
of P @ L_n holds the coefficients of f(t + 1) where row i of P holds
those of f(t), so the product is a Taylor shift by one: n(n - 1)/2
column additions and no multiplies (Call and Velleman, "Pascal's
matrices", Amer. Math. Monthly 100, 1993). P @ R_n is the same shift
with its columns reversed. The pascal builders return L_n and R_n as
the private subclasses `_LeftPascal` and `_RightPascal`, equal to the
plain matrices of the same entries, and mat_mul takes the shift when
its right factor is one of them: in every walk step and in every
charpoly product a^j a of a Pascal matrix. What mat_mul returns is a
plain ExactMatrix, so every other product takes the n^2 dot products.
The same shift run backwards, by one subtraction per step, gives
f(t - 1) and so P @ L_n^-1; reversing P's columns first gives
P @ R_n^-1. mat_pow takes a negative power of L_n or R_n as a power of
that shift of I, and of no other matrix.

Everything in this module is a pure function on immutable values, so
instances may be shared freely across threads.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Callable, Iterable, NamedTuple, TypeVar

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


def strip_prime_factors(bound: int, holds: Callable[[int], bool]) -> int:
    """Factor removal: divide each prime q of bound out, in ascending order,
    while q divides what is left, N, and holds(N // q). When holds is true
    exactly on the multiples of a divisor d of bound, this returns d."""
    for q in prime_factors(bound):
        while bound % q == 0 and holds(bound // q):
            bound //= q
    return bound


class _ExactFields(NamedTuple):
    n: int
    rows: tuple[tuple[int, ...], ...]


class ExactMatrix(_ExactFields):
    """Immutable square matrix of arbitrary-precision integers."""

    __slots__ = ()
    # A value, not a sequence: no tuple concatenation or repetition.
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "ExactMatrix":
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"entries do not form an {n}x{n} square")
        if any(not isinstance(x, int) for row in rows for x in row):
            raise ValueError("entries must be exact integers")
        return tuple.__new__(cls, (n, rows))

    @classmethod
    def from_fn(cls, n: int, fn: Callable[[int, int], int]) -> "ExactMatrix":
        """Build from a 1-based entry function fn(i, j)."""
        return cls(n, tuple(tuple(fn(i, j) for j in range(1, n + 1))
                            for i in range(1, n + 1)))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return _exact(n, _identity_rows(n))


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _validate_modulus(p: int) -> None:
    if not isinstance(p, int):
        raise ValueError("modulus must be an exact integer")
    if p < 2:
        raise ValueError("modulus must be at least 2")


class _ModFields(NamedTuple):
    n: int
    p: int
    rows: tuple[tuple[int, ...], ...]


class ModMatrix(_ModFields):
    """Immutable square matrix of residues modulo p >= 2; p need not be prime."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, n: int, p: int, rows: tuple[tuple[int, ...], ...]) -> "ModMatrix":
        if n < 1:
            raise ValueError("dimension must be at least 1")
        _validate_modulus(p)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"entries do not form an {n}x{n} square")
        if any(not isinstance(x, int) or not 0 <= x < p for row in rows for x in row):
            raise ValueError(f"entries must be residues in [0, {p})")
        return tuple.__new__(cls, (n, p, rows))

    @staticmethod
    def identity(n: int, p: int) -> "ModMatrix":
        rows = _identity_rows(n)
        _validate_modulus(p)
        return _mod(n, p, rows)


def _exact(n: int, rows: tuple[tuple[int, ...], ...]) -> ExactMatrix:
    """ExactMatrix from rows already known to be an n x n grid of ints."""
    return tuple.__new__(ExactMatrix, (n, rows))


def _mod(n: int, p: int, rows: tuple[tuple[int, ...], ...]) -> ModMatrix:
    """ModMatrix from rows already known to be n x n residues mod p >= 2."""
    return tuple.__new__(ModMatrix, (n, p, rows))


class _PolynomialFields(NamedTuple):
    coeffs: tuple[int, ...]


class IntPolynomial(_PolynomialFields):
    """Dense integer polynomial: coeffs[k] multiplies x**k.

    Trailing zero coefficients are stripped at construction, so the
    leading coefficient is nonzero unless the polynomial is zero
    (represented by an empty coefficient tuple).
    """

    __slots__ = ()
    # __mul__ below multiplies polynomials; no tuple concatenation or
    # repetition by an int.
    __add__ = __rmul__ = None

    def __new__(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        coeffs = tuple(coeffs)
        if any(not isinstance(c, int) for c in coeffs):
            raise ValueError("coefficients must be exact integers")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return tuple.__new__(cls, (coeffs,))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

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


class _LeftPascal(ExactMatrix):
    """L_n as pascal.build_left returns it; mat_mul multiplies by it with
    Pascal's rule. Only that builder constructs one."""

    __slots__ = ()


class _RightPascal(ExactMatrix):
    """R_n as pascal.build_right returns it; see _LeftPascal."""

    __slots__ = ()


def _taylor_shift(a: ExactMatrix, reverse: bool, backward: bool = False) -> ExactMatrix:
    """a @ L_n, or a @ R_n when reverse is set, by Pascal's rule; with
    backward set, a @ L_n^-1, or a @ R_n^-1.

    Row i of a holds the coefficients of f(t) = sum_k a[i][k] t**k, and
    row i of a @ L_n those of f(t + 1). Pass i = 0 .. n - 2 adds
    coefficient k + 1 into coefficient k for k from n - 2 down to i
    (Horner's scheme at t + 1), so n(n - 1)/2 steps in all, each one
    column added into its left neighbour for every row at once. The
    backward shift subtracts instead, which gives f(t - 1), the
    coefficients of a @ L_n^-1. R_n is L_n with its columns reversed,
    so a @ R_n reverses the columns after the shift, and a @ R_n^-1,
    R_n^-1 being L_n^-1 with its rows reversed, reverses them before.
    """
    n = a.n
    step = operator.sub if backward else operator.add
    cols = list(zip(*a.rows))
    if reverse and backward:
        cols.reverse()
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            cols[k] = tuple(map(step, cols[k], cols[k + 1]))
    if reverse and not backward:
        cols.reverse()
    return _exact(n, tuple(zip(*cols)))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product.

    When b is the L_n or R_n that the pascal builders return, a's rows
    are Taylor-shifted by one (_taylor_shift); every other product takes
    the n**2 dot products of a's rows and b's columns.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if type(b) is _LeftPascal or type(b) is _RightPascal:
        return _taylor_shift(a, type(b) is _RightPascal)
    mul = operator.mul
    cols = tuple(zip(*b.rows))
    return _exact(a.n, tuple(tuple(sum(map(mul, row, col)) for col in cols)
                             for row in a.rows))


_M = TypeVar("_M", ExactMatrix, ModMatrix)


def _power(a: _M, e: int, mul: Callable[[_M, _M], _M]) -> _M:
    """a**e for e >= 1 by square-and-multiply with the product mul.

    The product starts at the lowest set bit of e, so a power takes
    popcount(e) - 1 multiplies and bit_length(e) - 1 squarings.
    """
    while not e & 1:
        a = mul(a, a)
        e >>= 1
    result = a
    e >>= 1
    while e:
        a = mul(a, a)
        if e & 1:
            result = mul(result, a)
        e >>= 1
    return result


def mat_pow(a: ExactMatrix, e: int) -> ExactMatrix:
    """a**e by binary exponentiation; a**0 = I.

    A negative exponent is defined only for the L_n and R_n that the
    pascal builders return, and raises ValueError for any other matrix:
    a**e is then (a^-1)**-e, with a^-1 the backward Taylor shift of I
    (_taylor_shift).
    """
    if e < 0:
        if type(a) is not _LeftPascal and type(a) is not _RightPascal:
            raise ValueError("negative powers are defined only for the built L_n and R_n")
        inverse = _taylor_shift(ExactMatrix.identity(a.n), type(a) is _RightPascal,
                                backward=True)
        return mat_pow(inverse, -e)
    if e == 0:
        return ExactMatrix.identity(a.n)
    return _power(a, e, mat_mul)


def mat_mod(a: ExactMatrix, p: int) -> ModMatrix:
    """Entrywise reduction into canonical residues [0, p); p must be an
    int of at least 2, which is checked before any entry is reduced."""
    _validate_modulus(p)
    return _mod(a.n, p, tuple(tuple(x % p for x in row) for row in a.rows))


def modmat_mul(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    """Product mod p by Kronecker substitution.

    Row j of b becomes one int holding b[j][k] in the k-th slot of
    `width` bits, so row i of the product is the single sum of
    a[i][j] * packed[j]. A slot then holds the dot product of row i and
    column k, at most n * (p - 1)**2 < 2**width, so no slot carries into
    the next one and each is read back with shift, mask and % p.
    """
    if a.n != b.n or a.p != b.p:
        raise ValueError("dimension or modulus mismatch")
    n, p = a.n, a.p
    width = (n * (p - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    packed = []
    for row in b.rows:
        acc = 0
        for x in reversed(row):
            acc = acc << width | x
        packed.append(acc)
    mul = operator.mul
    rows = []
    for row in a.rows:
        acc = sum(map(mul, row, packed))
        cells = []
        for _ in range(n):
            cells.append((acc & mask) % p)
            acc >>= width
        rows.append(tuple(cells))
    return _mod(n, p, tuple(rows))


def modmat_pow(a: ModMatrix, e: int) -> ModMatrix:
    """a**e mod p by binary exponentiation; e must be nonnegative."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return ModMatrix.identity(a.n, a.p)
    return _power(a, e, modmat_mul)


def det(a: ExactMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Step k swaps a nonzero pivot into m[k][k] and sets every entry right
    of column k in the rows below it to (m[i][j] * pivot - m[i][k] *
    m[k][j]) // the last pivot. Each such division is exact by the
    Desnanot-Jacobi identity. Columns up to k are left as they are,
    since no later step reads them. A column with no pivot makes the
    matrix singular: the loop stops and returns 0.
    """
    m = [list(row) for row in a.rows]
    n = a.n
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        tail_k = m[k][k + 1:]
        for row_i in m[k + 1:]:
            mik = row_i[k]
            row_i[k + 1:] = [(x * pkk - mik * y) // prev
                             for x, y in zip(row_i[k + 1:], tail_k)]
        prev = pkk
    return sign * prev


def charpoly(a: ExactMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - a), exact coefficients.

    LeVerrier's power sums: the traces p_k = tr(a^k) for k <= n go
    through charpoly_from_power_sums. Each trace is one flat inner
    product, p_k = <a^ceil(k/2), (a^floor(k/2))^T>, so a^2 .. a^ceil(n/2)
    suffice: ceil(n/2) - 1 products a^j a, with two powers held at a
    time. Powers of a commute with a, so a^j a is a a^j, and for a
    Pascal matrix it takes Pascal's rule (mat_mul). A campaign that
    walks R_n^k for every k <= n already holds these traces, and
    spectra reads them off that walk instead of calling this.
    """
    n = a.n
    mul = operator.mul
    flat = chain.from_iterable
    half = (n + 1) // 2
    sums = [0] * n
    # The transpose of a^(j-1), flattened; a^0 = I is its own transpose.
    prev_t = tuple(flat(ExactMatrix.identity(n).rows))
    power = a
    for j in range(1, half + 1):
        cur = tuple(flat(power.rows))
        cur_t = tuple(flat(zip(*power.rows)))
        sums[2 * j - 2] = sum(map(mul, cur, prev_t))
        if 2 * j <= n:
            sums[2 * j - 1] = sum(map(mul, cur, cur_t))
        if j < half:
            prev_t = cur_t
            power = mat_mul(power, a)
    return charpoly_from_power_sums(sums)


def charpoly_from_power_sums(sums: Iterable[int]) -> IntPolynomial:
    """The monic degree-n polynomial whose roots have the power sums
    sums = (p_1, .., p_n), p_k = tr(a^k) for a matrix a: its
    characteristic polynomial.

    Newton's identities, k c_{n-k} = -sum_{i<=k} c_{n-k+i} p_i with
    c_n = 1, give the coefficients from the top down; each division by
    k is exact over the integers when the sums are a matrix's traces,
    and ArithmeticError is raised when one is not.
    """
    p = tuple(sums)
    n = len(p)
    c = [0] * (n + 1)
    c[n] = 1
    for k in range(1, n + 1):
        q, r = divmod(-sum(c[n - k + i] * p[i - 1] for i in range(1, k + 1)), k)
        if r:
            raise ArithmeticError("Newton identity division was not exact")
        c[n - k] = q
    return IntPolynomial(c)
