"""Multiplicative orders of the Pascal matrices modulo primes, and the
congruence theorems that pin them down.

The order of the left matrix mod p is exactly p (for n >= 2). For the
right matrix, the entry point e of p in the Fibonacci sequence gives
R_n**e = s * I mod p for an explicit scalar s, hence R_n**(4e) = I, so
the exact order is found by factor removal: starting from the
annihilating exponent N = 4e, each prime q dividing N is stripped for
as long as M**(N/q) = I, which takes O(omega(N) * log N) powers rather
than one per divisor. The right-matrix order is computed once per
(n, p) and shared by every theorem check that reports it. Fibonacci
values enter only as residues, by fast doubling mod p.

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

import threading
from dataclasses import dataclass, field

from .core import ModMatrix, is_prime, mat_mod, modmat_pow, prime_factors
from .fib import entry_point, fib_pair_mod, pisano_period
from .pascal import build_left, build_right, left_power_entry
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS


@dataclass(frozen=True)
class CheckResult:
    """Verdict for one named theorem check, with its computed scalars."""

    verdict: str
    values: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class OrderReport:
    matrix_kind: str
    n: int
    p: int
    order: int
    witness_exponent_bound: int
    theorem_checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.verdict != FAIL for c in self.theorem_checks.values())


def _is_invertible(m: ModMatrix) -> bool:
    # Gaussian elimination over the field Z/p.
    a = [list(row) for row in m.rows]
    p = m.p
    for col in range(m.n):
        pivot = next((r for r in range(col, m.n) if a[r][col]), None)
        if pivot is None:
            return False
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], p - 2, p)
        for r in range(col + 1, m.n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return True


def matrix_order_mod(m: ModMatrix, exponent_bound: int) -> int:
    """Exact multiplicative order of m, given an annihilating exponent.

    The order divides exponent_bound, so each prime factor q is removed
    from the bound while m**(bound/q) is still the identity; what is
    left is the least annihilating exponent.
    """
    if exponent_bound < 1:
        raise ValueError("exponent bound must be positive")
    if not _is_invertible(m):
        raise ValueError(f"matrix is singular modulo {m.p}")
    ident = ModMatrix.identity(m.n, m.p)
    if modmat_pow(m, exponent_bound) != ident:
        raise ValueError("bound is not annihilating")
    order = exponent_bound
    for q in prime_factors(exponent_bound):
        while order % q == 0 and modmat_pow(m, order // q) == ident:
            order //= q
    return order


def _neg_one_pow(exponent: int, p: int) -> int:
    """(-1)**exponent as a canonical residue mod p."""
    return 1 if exponent % 2 == 0 else (p - 1) % p


def verify_left_order(n: int, p: int) -> OrderReport:
    """Assert that the left matrix has order exactly p modulo p (n >= 2).

    A second, independent confirmation comes from the power closed
    form: every off-diagonal entry of the p-th power is divisible by p.
    """
    if n < 2:
        raise ValueError("the order theorem requires n >= 2 (L_1 has order 1)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    lm = mat_mod(build_left(n), p)
    order = matrix_order_mod(lm, p)
    offdiag = all(left_power_entry(p, i, j) % p == 0
                  for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    checks = {
        "order-equals-p": CheckResult(PASS if order == p else FAIL,
                                      {"order": order}),
        "closed-form-offdiagonal": CheckResult(PASS if offdiag else FAIL),
    }
    return OrderReport("left", n, p, order, p, checks)


# (n, p) -> (entry point, order of R_n mod p). Only integers are kept,
# so the memo stays small however many (n, p) a campaign visits; the
# lock makes each order search run once even under --threads.
_right_orders: dict[tuple[int, int], tuple[int, int]] = {}
_right_orders_lock = threading.Lock()


def _right_order_data(n: int, p: int) -> tuple[ModMatrix, int, int]:
    if n < 2:
        raise ValueError("right-matrix theorems require n >= 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rm = mat_mod(build_right(n), p)
    with _right_orders_lock:
        data = _right_orders.get((n, p))
        if data is None:
            e = entry_point(p)
            data = _right_orders[(n, p)] = (e, matrix_order_mod(rm, 4 * e))
    return (rm, *data)


def verify_scalar_power(n: int, p: int) -> OrderReport:
    """Check that R_n**e is the predicted scalar matrix at the entry point e.

    The generic form is F_{e-1}**(n-1) * I; the sign-refined form is
    (-1)**((k+1)e) * F_{e-1} * I for n = 2k and (-1)**(ke) * I for
    n = 2k+1. Also asserts the fourth-power identity R_n**(4e) = I.
    """
    rm, e, order = _right_order_data(n, p)
    re = modmat_pow(rm, e)
    f_prev = fib_pair_mod(e - 1, p)[0]
    generic = pow(f_prev, n - 1, p)
    if n % 2 == 0:
        k = n // 2
        refined = _neg_one_pow((k + 1) * e, p) * f_prev % p
        refined_id = "signed-scalar-even"
    else:
        k = (n - 1) // 2
        refined = _neg_one_pow(k * e, p)
        refined_id = "signed-scalar-odd"
    fourth = modmat_pow(rm, 4 * e) == ModMatrix.identity(n, p)
    checks = {
        "scalar-form": CheckResult(
            PASS if re == ModMatrix.scalar(n, p, generic) else FAIL,
            {"entry_point": e, "scalar": generic}),
        refined_id: CheckResult(
            PASS if re == ModMatrix.scalar(n, p, refined) else FAIL,
            {"scalar": refined}),
        "fourth-power-identity": CheckResult(PASS if fourth else FAIL),
    }
    return OrderReport("right", n, p, order, 4 * e, checks)


def verify_pminus1(n: int, p: int) -> OrderReport:
    """If p | F_{p-1}, assert R_n**(p-1) = I mod p."""
    rm, e, order = _right_order_data(n, p)
    if fib_pair_mod(p - 1, p)[0] != 0:
        checks = {"p-minus-1-identity": CheckResult(HYPOTHESIS_NOT_MET)}
    else:
        ok = modmat_pow(rm, p - 1) == ModMatrix.identity(n, p)
        checks = {"p-minus-1-identity": CheckResult(PASS if ok else FAIL)}
    return OrderReport("right", n, p, order, 4 * e, checks)


def verify_pplus1(n: int, p: int) -> OrderReport:
    """If p | F_{p+1}, assert R_n**(p+1) = I (odd n) or -I (even n) mod p."""
    rm, e, order = _right_order_data(n, p)
    if fib_pair_mod(p + 1, p)[0] != 0:
        checks = {"p-plus-1-identity": CheckResult(HYPOTHESIS_NOT_MET)}
    else:
        scalar = 1 if n % 2 == 1 else (p - 1) % p
        ok = modmat_pow(rm, p + 1) == ModMatrix.scalar(n, p, scalar)
        checks = {"p-plus-1-identity": CheckResult(PASS if ok else FAIL,
                                                   {"scalar": scalar})}
    return OrderReport("right", n, p, order, 4 * e, checks)


def verify_order_bound(n: int, p: int) -> OrderReport:
    """Compute the exact order of R_n mod p and check it against 2(p+1).

    The bound check excludes p = 5 (see the module notes: even
    dimensions have order 20 > 12 there). The tightness check asserts
    order == 2(p+1) exactly, and applies only with n even to primes in
    the +-2 mod 5 class whose Pisano period is 2(p+1).
    """
    rm, e, order = _right_order_data(n, p)
    if p == 5:
        bound_check = CheckResult(HYPOTHESIS_NOT_MET, {"order": order})
    else:
        bound_check = CheckResult(PASS if order <= 2 * (p + 1) else FAIL,
                                  {"order": order, "bound": 2 * (p + 1)})
    if p % 5 in (2, 3) and n % 2 == 0 and pisano_period(p) == 2 * (p + 1):
        tight_check = CheckResult(PASS if order == 2 * (p + 1) else FAIL,
                                  {"order": order, "bound": 2 * (p + 1)})
    else:
        tight_check = CheckResult(HYPOTHESIS_NOT_MET, {"order": order})
    checks = {
        "within-2p-plus-2": bound_check,
        "tightness-even-dimension": tight_check,
    }
    return OrderReport("right", n, p, order, 4 * e, checks)
