"""Multiplicative orders of the Pascal matrices modulo primes, and the
congruence theorems that pin them down.

The order of the left matrix mod p is exactly p (for n >= 2). For the
right matrix, the entry point e of p in the Fibonacci sequence gives
R_n**e = s * I mod p for an explicit scalar s, hence R_n**(4e) = I, so
the exact order is found by factor removal: starting from the
annihilating exponent N = 4e, each prime q dividing N is stripped for
as long as M**(N/q) = I, which takes O(omega(N) * log N) powers rather
than one per divisor. The powers come from one ladder per order
computation. With N = 2**a * m, m odd, M**N is M**m, a product of the
ladder's repeated squares M**(2**k), squared a times, and the ladder
keeps every M**(m * 2**j) on the way; so the powers N/2, N/4, ... that
strip the 2s are already made. Every other power is a product of the
repeated squares.

The right-matrix laws read R_n mod p at e, 4e and the factor-removal
exponents, all made once by one ladder per (n, p), R_n**e among them
on the chain squared up to 4e. The search verifies R_n**order = I, so
R_n**(p-1) = I exactly when the order divides p - 1, and R_n**(p+1)
is the ladder's power at (p + 1) mod the order. One fill per (n, p)
compares these powers with their closed forms for all four laws, and
the memo keeps the four reports, which hold no matrix; each
right-matrix verifier looks its report up. Should R_n**(4e) = I itself
fail, every right-matrix theorem reports that as a failed
fourth-power-identity check, with no order. Fibonacci values enter
only as residues, by fast doubling mod p.

L_N is lower triangular, so for n <= N the leading n x n block of
L_N**p mod p is L_n**p mod p. One L_N**p per prime, held from the last
left-order check, seeds the ladder of every smaller n at that prime.

Two edge cases discovered by direct computation are handled explicitly
and surface as hypothesis-not-met rather than failures:

* p = 5: the 2(p+1) order bound fails in even dimensions, where the
  order is 4e = 20 > 12. The divisibility argument behind the bound
  needs p != 5 (it comes from the p = +-1 / +-2 mod 5 dichotomy).
* Bound tightness (order exactly 2(p+1) in even dimensions) is only
  claimed where the Pisano period is 2(p+1). A prime in the +-2 mod 5
  class can have a smaller entry point (p = 4157: e = 297), and then
  the order divides 4e < 2(p+1). This also excludes p = 2, where
  -I = I and even dimensions have order 3, with period 3.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .core import (ExactMatrix, ModMatrix, _mod, det, is_prime, mat_mod, modmat_mul,
                   strip_prime_factors)
from .fib import entry_point, fib_pair_mod, pisano_period
from .pascal import build_left, build_right, left_power_rows
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS


class CheckResult(NamedTuple):
    """Verdict for one named theorem check, with its computed scalars."""

    verdict: str
    values: dict[str, int]


class OrderReport(NamedTuple):
    """Theorem checks for one (kind, n, p). order is None when the
    theorem's annihilating exponent turned out not to annihilate, so no
    order was searched for."""

    matrix_kind: str
    n: int
    p: int
    order: int | None
    witness_exponent_bound: int
    theorem_checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.verdict != FAIL for c in self.theorem_checks.values())


class BoundNotAnnihilating(ValueError):
    """The exponent bound given to matrix_order_mod is not annihilating."""


class _Ladder:
    """Powers of one matrix m mod m.p, prime or not, read off its
    repeated squares.

    The rung m**(2**k) is made by squaring the rung below it, the first
    time an exponent needs it, and m**e is the product of the rungs at
    the set bits of e. Every power made is kept under its exponent, so a
    power asked for again costs nothing; `held` gives powers already
    known, under their exponents. A ladder serves one order computation
    and is dropped with it.
    """

    def __init__(self, m: ModMatrix, held: dict[int, ModMatrix] | None = None) -> None:
        self.identity = ModMatrix.identity(m.n, m.p)
        self._powers = {0: self.identity, 1: m, **(held or {})}

    def power(self, e: int) -> ModMatrix:
        """m**e for e >= 0."""
        powers = self._powers
        result = powers.get(e)
        if result is None:
            bit, rest = 1, e
            while rest:
                rung = powers.get(bit)
                if rung is None:
                    half = powers[bit >> 1]
                    rung = powers[bit] = modmat_mul(half, half)
                if rest & bit:
                    result = rung if result is None else modmat_mul(result, rung)
                    rest ^= bit
                bit <<= 1
            powers[e] = result
        return result

    def squared_up(self, e: int) -> ModMatrix:
        """m**e for e >= 1, as m**k for the odd part k of e, squared until
        it reaches e. Every m**(k * 2**j) on the way is kept."""
        powers = self._powers
        k = e // (e & -e)
        result = self.power(k)
        while k < e:
            k <<= 1
            if k not in powers:
                powers[k] = modmat_mul(result, result)
            result = powers[k]
        return result


def _order(ladder: _Ladder, exponent_bound: int) -> int | None:
    """Least annihilating exponent of the ladder's matrix, by factor
    removal from the exponent bound, or None if the bound does not
    annihilate it. The bound's power is squared up from its odd part,
    so the chain holds every exponent that stripping the 2s tries."""
    ident = ladder.identity
    if ladder.squared_up(exponent_bound) != ident:
        return None
    return strip_prime_factors(exponent_bound, lambda k: ladder.power(k) == ident)


def matrix_order_mod(m: ModMatrix, exponent_bound: int) -> int:
    """Exact multiplicative order of the matrix m mod m.p, prime or not,
    given an annihilating exponent.

    The order divides exponent_bound, so each prime factor q is removed
    from the bound while m**(bound/q) is still the identity; what is
    left is the least annihilating exponent. The powers come from one
    ladder of repeated squares of m, and the bound's power is squared up
    from its odd part.

    A matrix whose determinant shares a factor with the modulus is not
    invertible, so no power of it is the identity and its search stops
    at the first check; only then is the determinant read, to tell such
    a singular m from a bound that is not annihilating.
    """
    if exponent_bound < 1:
        raise ValueError("exponent bound must be positive")
    order = _order(_Ladder(m), exponent_bound)
    if order is None:
        if gcd(det(ExactMatrix(m.n, m.rows)), m.p) != 1:
            raise ValueError(f"matrix is singular modulo {m.p}")
        raise BoundNotAnnihilating("bound is not annihilating")
    return order


def _scalar_of(m: ModMatrix) -> int | None:
    """s where m = s * I, or None if m is not a scalar matrix."""
    n, s = m.n, m.rows[0][0]
    scalar = tuple(tuple(s if i == j else 0 for j in range(n)) for i in range(n))
    return s if m.rows == scalar else None


# (p, L_N**p mod p) from the last left-order ladder made, or None. The
# record is immutable and rebound whole, so a thread that reads a stale
# one still reads a true power.
_left_held: tuple[int, ModMatrix] | None = None


def _left_ladder(n: int, p: int) -> _Ladder:
    """The ladder of L_n mod p, holding L_n**p.

    If the held L_N**p is at p with N >= n, L_n**p is its leading n x n
    block, and the ladder starts from it. Otherwise the ladder makes
    L_n**p from its rungs, and that power is held in place of the last.
    """
    global _left_held
    lm, held = mat_mod(build_left(n), p), _left_held
    if held is not None and held[0] == p and held[1].n >= n:
        return _Ladder(lm, {p: _mod(n, p, tuple(row[:n] for row in held[1].rows[:n]))})
    ladder = _Ladder(lm)
    _left_held = (p, ladder.power(p))
    return ladder


def verify_left_order(n: int, p: int) -> OrderReport:
    """Assert that the left matrix has order exactly p modulo p (n >= 2).

    The search starts from L_n**p, read off one held L_N**p mod p where
    it can be (see `_left_ladder`): a campaign that asks for n
    descending at each prime makes one ladder per prime.

    A second, independent confirmation comes from the power closed
    form: every off-diagonal entry of the p-th power is divisible by p.
    Should L_n**p = I itself fail, no order is searched for, and
    order-equals-p fails with none.
    """
    if n < 2:
        raise ValueError("the order theorem requires n >= 2 (L_1 has order 1)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = _order(_left_ladder(n, p), p)
    offdiag = all(x % p == 0 for i, row in enumerate(left_power_rows(n, p))
                  for j, x in enumerate(row) if i != j)
    checks = {
        "order-equals-p": CheckResult(PASS if order == p else FAIL,
                                      {} if order is None else {"order": order}),
        "closed-form-offdiagonal": CheckResult(PASS if offdiag else FAIL, {}),
    }
    return OrderReport("left", n, p, order, p, checks)


# (n, p) -> the reports of the four right-matrix laws, keyed by law id.
# No matrix is kept, so the memo stays small however many (n, p) a
# campaign visits. The reports depend on (n, p) alone, so two threads
# that fill the same (n, p) at once store equal values.
_right_orders: dict[tuple[int, int], dict[str, OrderReport]] = {}


def _right_order_reports(n: int, p: int) -> dict[str, OrderReport]:
    """The reports of scalar-power, p-minus-1, p-plus-1 and order-bound
    at (n, p), every power read off one ladder of R_n mod p. Only valid
    (n, p) are stored, so n and p are checked on a miss alone."""
    reports = _right_orders.get((n, p))
    if reports is not None:
        return reports
    if n < 2:
        raise ValueError("right-matrix theorems require n >= 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ladder = _Ladder(mat_mod(build_right(n), p))
    e = entry_point(p)
    order = _order(ladder, 4 * e)

    def report(checks: dict[str, CheckResult]) -> OrderReport:
        return OrderReport("right", n, p, order, 4 * e, checks)

    scalar_e = _scalar_of(ladder.power(e))
    f_prev = fib_pair_mod(e - 1, p)[0]
    generic = pow(f_prev, n - 1, p)
    if n % 2 == 0:
        refined = pow(-1, (n // 2 + 1) * e, p) * f_prev % p
        refined_id = "signed-scalar-even"
    else:
        refined = pow(-1, (n - 1) // 2 * e, p)
        refined_id = "signed-scalar-odd"
    reports = {"scalar-power": report({
        "scalar-form": CheckResult(PASS if scalar_e == generic else FAIL,
                                   {"entry_point": e, "scalar": generic}),
        refined_id: CheckResult(PASS if scalar_e == refined else FAIL, {"scalar": refined}),
        # The order search found R_n**(4e) = I exactly when it found an order.
        "fourth-power-identity": CheckResult(PASS if order is not None else FAIL, {}),
    })}
    if order is None:
        failure = report({"fourth-power-identity": CheckResult(FAIL, {"entry_point": e})})
        reports.update(dict.fromkeys(("p-minus-1", "p-plus-1", "order-bound"), failure))
    else:
        # The search verified R_n**order = I, so R_n**(p-1) = I exactly
        # when the order divides p - 1, and R_n**(p+1) is the ladder's
        # power at (p + 1) mod the order.
        if fib_pair_mod(p - 1, p)[0]:  # p does not divide F_{p-1}
            pminus1 = CheckResult(HYPOTHESIS_NOT_MET, {})
        else:
            pminus1 = CheckResult(PASS if (p - 1) % order == 0 else FAIL, {})
        if fib_pair_mod(p + 1, p)[0]:  # p does not divide F_{p+1}
            pplus1 = CheckResult(HYPOTHESIS_NOT_MET, {})
        else:
            scalar = 1 if n % 2 == 1 else (p - 1) % p
            pplus1 = CheckResult(
                PASS if _scalar_of(ladder.power((p + 1) % order)) == scalar else FAIL,
                {"scalar": scalar})
        if p == 5:
            within = CheckResult(HYPOTHESIS_NOT_MET, {"order": order})
        else:
            within = CheckResult(PASS if order <= 2 * (p + 1) else FAIL,
                                 {"order": order, "bound": 2 * (p + 1)})
        if p % 5 in (2, 3) and n % 2 == 0 and pisano_period(p) == 2 * (p + 1):
            tight = CheckResult(PASS if order == 2 * (p + 1) else FAIL,
                                {"order": order, "bound": 2 * (p + 1)})
        else:
            tight = CheckResult(HYPOTHESIS_NOT_MET, {"order": order})
        reports["p-minus-1"] = report({"p-minus-1-identity": pminus1})
        reports["p-plus-1"] = report({"p-plus-1-identity": pplus1})
        reports["order-bound"] = report({"within-2p-plus-2": within,
                                         "tightness-even-dimension": tight})
    _right_orders[(n, p)] = reports
    return reports


def verify_scalar_power(n: int, p: int) -> OrderReport:
    """Check that R_n**e is the predicted scalar matrix at the entry point e.

    The generic form is F_{e-1}**(n-1) * I; the sign-refined form is
    (-1)**((k+1)e) * F_{e-1} * I for n = 2k and (-1)**(ke) * I for
    n = 2k+1. Also asserts the fourth-power identity R_n**(4e) = I.
    """
    return _right_order_reports(n, p)["scalar-power"]


def verify_pminus1(n: int, p: int) -> OrderReport:
    """If p | F_{p-1}, assert R_n**(p-1) = I mod p, which holds exactly
    when the order of R_n divides p - 1."""
    return _right_order_reports(n, p)["p-minus-1"]


def verify_pplus1(n: int, p: int) -> OrderReport:
    """If p | F_{p+1}, assert R_n**(p+1) = I (odd n) or -I (even n) mod p."""
    return _right_order_reports(n, p)["p-plus-1"]


def verify_order_bound(n: int, p: int) -> OrderReport:
    """Compute the exact order of R_n mod p and check it against 2(p+1).

    The bound check excludes p = 5 (see the module notes: even
    dimensions have order 20 > 12 there). The tightness check asserts
    order == 2(p+1) exactly, and applies only with n even to primes in
    the +-2 mod 5 class whose Pisano period is 2(p+1).
    """
    return _right_order_reports(n, p)["order-bound"]
