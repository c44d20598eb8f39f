"""Exact verification of the eigenvalue pattern of the column-justified
Pascal matrix.

The eigenvalues of R_n are signed powers of the golden ratio phi and
its conjugate: for n = 2k the pairs
{(-1)**(k+i) phi**(2i-1), (-1)**(k+i) phibar**(2i-1)} for i = 1..k, and
for n = 2k+1 additionally the lone eigenvalue (-1)**k with even powers
2i in the pairs. The reason (Carlitz, Fibonacci Quarterly 3, 1965):
row i of R_n holds the coefficients of y**(n-i) * (x+y)**(i-1) on the
monomials x**(n-j) * y**(j-1), j = 1..n, that is, the image of
x**(n-i) * y**(i-1) under x -> y, y -> x + y. So R_n is the (n-1)-st
symmetric power of Q = R_2 = [[0, 1], [1, 1]], whose eigenvalues are
phi and phibar, and its eigenvalues are
phi**(n-1-k) * phibar**k = (-1)**k * phi**(n-1-2k) for k = 0..n-1.

No floating point is needed to check this: since
phi * phibar = -1 and phi**m + phibar**m = L_m (the Lucas numbers),
each conjugate pair is exactly the root set of the integer quadratic

    x**2 - (+-L_m) x + (-1)**m,

so the spectrum determines a monic integer polynomial that must equal
the characteristic polynomial coefficient for coefficient.

The computed side is charpoly(R_n) from its power sums tr(R_n**k),
k = 1..n, by Newton's identities (core.charpoly_from_power_sums). A
campaign checks n right after the R_n walk, which laws.power still
holds: when it stepped from R_n**1 to R_n**n, laws.power_sums reads the
traces off it, and otherwise core.charpoly makes them. Either way the
powers come from mat_mul and mat_pow alone, never from the conjectured
spectrum. By the same identities, a closed form for tr(R_n**e) at
e = 1..n would imply the conjecture at n; the check stays independent.
"""

from __future__ import annotations

from typing import NamedTuple

from . import laws
from .core import IntPolynomial, charpoly, charpoly_from_power_sums
from .fib import lucas
from .pascal import build_right
from .report import FAIL, PASS


class ConjectureReport(NamedTuple):
    n: int
    parity: str
    computed_charpoly: IntPolynomial
    conjectured_charpoly: IntPolynomial
    verdict: str
    first_mismatch_degree: int | None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def conjectured_charpoly(n: int) -> IntPolynomial:
    """Product of the integer quadratics induced by the conjectured
    eigenvalue pairs (plus the linear factor x - (-1)**k for odd n)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    k, odd = divmod(n, 2)
    if odd:
        poly = IntPolynomial((-((-1) ** k), 1))
        middle = lambda i: (-1) ** (k + i) * lucas(2 * i)
        pair_product = 1
    else:
        poly = IntPolynomial.one()
        middle = lambda i: (-1) ** (k + i) * lucas(2 * i - 1)
        pair_product = -1
    for i in range(1, k + 1):
        poly = poly * IntPolynomial((pair_product, -middle(i), 1))
    return poly


def check_eigen_conjecture(n: int) -> ConjectureReport:
    """Compare charpoly(R_n) with the conjectured polynomial, exactly.

    charpoly(R_n) comes from the power sums of the one walk that
    laws.power holds, when that walk stepped from R_n**1 to R_n**n, and
    from core.charpoly otherwise. A mismatch, which the symmetric-power
    argument rules out, would point to a fault in charpoly or in the
    product, and is reported with the lowest differing coefficient
    degree, never silenced.
    """
    right = build_right(n)
    sums = laws.power_sums(right)
    computed = charpoly(right) if sums is None else charpoly_from_power_sums(sums)
    conjectured = conjectured_charpoly(n)
    if computed == conjectured:
        return ConjectureReport(n, "even" if n % 2 == 0 else "odd",
                                computed, conjectured, PASS, None)
    width = max(len(computed.coeffs), len(conjectured.coeffs))
    mismatch = next(d for d in range(width)
                    if (computed.coeffs[d] if d < len(computed.coeffs) else 0)
                    != (conjectured.coeffs[d] if d < len(conjectured.coeffs) else 0))
    return ConjectureReport(n, "even" if n % 2 == 0 else "odd",
                            computed, conjectured, FAIL, mismatch)
