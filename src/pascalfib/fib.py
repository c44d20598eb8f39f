"""Fibonacci and Lucas numbers and their structure modulo an integer.

Exact values F_k come from a table built at import for every index a
campaign asks for (k < 130 covers the laws, Lucas numbers and the
identities at |e| <= 64); larger indices are computed by exact fast
doubling and not cached, so memory does not grow with the index.
Modular values never go through exact ones: fib_pair_mod reduces
modulo m at every doubling step.

Two modular quantities drive everything downstream: the entry point of
a modulus m (the least k > 0 with m | F_k, also called the rank of
apparition) and the Pisano period (the least k > 0 with F_k = 0 and
F_{k+1} = 1 mod m). For a prime p other than 2 and 5 both come from
fast doubling in O(sqrt(p)) steps at most:

* entry point: F_N = 0 mod p is confirmed for N = p - (5|p), then
  prime factors q are stripped from N while F_{N/q} stays 0 mod p.
  p | F_k exactly when the entry point divides k, so what is left is
  the entry point. Should the confirmation fail, the forward scan
  answers instead, which keeps the Bloom-Wall check a real test.
* Pisano period: pi(p) = e * ord_p(F_{e+1}) (Vinson 1963), with the
  multiplicative order found by factor removal over p - 1 (Fermat), so
  the period is not derived from the Bloom-Wall bound it is checked
  against.

Composite moduli and p = 2, 5 use forward iteration with the classical
6m period bound as a hard safety stop. Both quantities are memoized
per modulus since verification campaigns query them repeatedly.

Also here: the Bloom-Wall divisibility checks, the period-exactness
corollary, the Hardy-Wright binomial formula for F_j, and the Cassini /
sum-of-squares identities, all verified in exact integer arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .core import is_prime, strip_prime_factors
from .pascal import binomial
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS


def _fib_table(size: int) -> tuple[int, ...]:
    values = [0, 1]
    while len(values) < size:
        values.append(values[-1] + values[-2])
    return tuple(values)


# F_0 .. F_129: read-only, so safe to share across threads.
_FIB_TABLE = _fib_table(130)


def fib(k: int) -> int:
    """Exact F_k with F_0 = 0, F_1 = 1."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k < len(_FIB_TABLE):
        return _FIB_TABLE[k]
    a, b = 0, 1  # exact fast doubling, as in fib_pair_mod
    for bit in bin(k)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def lucas(k: int) -> int:
    """Exact L_k with L_0 = 2, L_1 = 1; equals F_{k-1} + F_{k+1}."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return 2
    return fib(k - 1) + fib(k + 1)


def fib_pair_mod(k: int, m: int) -> tuple[int, int]:
    """(F_k mod m, F_{k+1} mod m) by fast doubling, O(log k) steps."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a, b = 0, 1  # (F_0, F_1)
    for bit in bin(k)[2:]:
        c = a * (2 * b - a) % m        # F_{2t}
        d = (a * a + b * b) % m        # F_{2t+1}
        if bit == "1":
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a, b


@dataclass(frozen=True)
class FibModData:
    """Entry point and Pisano period of the Fibonacci sequence mod m."""

    m: int
    entry_point: int
    pisano_period: int


_mod_data: dict[int, FibModData] = {}
_mod_data_lock = threading.Lock()


def fib_mod_data(m: int) -> FibModData:
    """Memoized per-modulus data, computed once per modulus."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    with _mod_data_lock:
        data = _mod_data.get(m)
        if data is None:
            if m in (2, 5) or not is_prime(m):
                data = FibModData(m, _entry_point_scan(m), _pisano_scan(m))
            else:
                e = _entry_point_prime(m)
                data = FibModData(m, e, _pisano_prime(m, e))
            _mod_data[m] = data
    return data


def entry_point(m: int) -> int:
    """Least k > 0 with m | F_k."""
    return fib_mod_data(m).entry_point


def pisano_period(m: int) -> int:
    """Least k > 0 with (F_k, F_{k+1}) = (0, 1) mod m."""
    return fib_mod_data(m).pisano_period


def _bloom_wall_multiple(p: int) -> int:
    """p - (5|p): the multiple of the entry point that Bloom-Wall predicts."""
    return p - 1 if p % 5 in (1, 4) else p + 1


def _entry_point_prime(p: int) -> int:
    n = _bloom_wall_multiple(p)
    if fib_pair_mod(n, p)[0] != 0:
        return _entry_point_scan(p)
    return strip_prime_factors(n, lambda k: fib_pair_mod(k, p)[0] == 0)


def _pisano_prime(p: int, e: int) -> int:
    # (F_e, F_{e+1}) = (0, s), so the sequence restarts scaled by s
    # every e steps and returns to (0, 1) after e * ord_p(s) steps.
    s = fib_pair_mod(e, p)[1]
    return e * strip_prime_factors(p - 1, lambda k: pow(s, k, p) == 1)


def _entry_point_scan(m: int) -> int:
    a, b = 0, 1
    for k in range(1, 6 * m + 1):
        a, b = b, (a + b) % m
        if a == 0:
            return k
    raise ArithmeticError(f"no Fibonacci zero modulo {m} within 6m steps")


def _pisano_scan(m: int) -> int:
    a, b = 0, 1
    for k in range(1, 6 * m + 1):
        a, b = b, (a + b) % m
        if a == 0 and b == 1:
            return k
    raise ArithmeticError(f"Fibonacci period modulo {m} exceeds the 6m bound")


@dataclass(frozen=True)
class BloomWallReport:
    """Divisibility checks on the entry point and period of a prime.

    The residues 1, 4 mod 5 form one class (often written +-1) and the
    residues 2, 3 the other (written +-2 or +-3 interchangeably).
    """

    p: int
    residue_mod5: int
    entry_point: int
    period: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def bloom_wall_check(p: int) -> BloomWallReport:
    """Check the Bloom-Wall divisibilities for an odd prime p != 5."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 5):
        raise ValueError("the Bloom-Wall theorem excludes p = 2 and p = 5")
    e = entry_point(p)
    period = pisano_period(p)
    r = p % 5
    if r in (1, 4):
        checks = (("period-divides-p-minus-1", (p - 1) % period == 0),)
    else:
        checks = (
            ("entry-point-divides-p-plus-1", (p + 1) % e == 0),
            ("period-divides-2p-plus-2", (2 * (p + 1)) % period == 0),
        )
    return BloomWallReport(p, r, e, period, checks)


def fib_via_binomials(j: int) -> int:
    """F_j from the Hardy-Wright binomial sum.

    Computes 2**(j-1) * F_j = sum over odd t of 5**((t-1)/2) * C(j, t)
    as an integer, then performs the single exact division by 2**(j-1),
    so no modular inverse of 2 is ever needed.
    """
    if j < 1:
        raise ValueError("index must be positive")
    scaled = sum(5 ** ((t - 1) // 2) * binomial(j, t) for t in range(1, j + 1, 2))
    q, r = divmod(scaled, 1 << (j - 1))
    if r:
        raise ArithmeticError(f"binomial sum for j={j} not divisible by 2**(j-1)")
    return q


@dataclass(frozen=True)
class IdentityReport:
    """Exact pass/fail of the classical identities at one index."""

    e: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def check_identities(e: int) -> IdentityReport:
    """Verify Cassini's identity and F_{2e-1} = F_{e-1}**2 + F_e**2."""
    if e < 1:
        raise ValueError("index must be positive")
    cassini = fib(e - 1) * fib(e + 1) - fib(e) ** 2 == (-1) ** e
    halving = fib(2 * e - 1) == fib(e - 1) ** 2 + fib(e) ** 2
    return IdentityReport(e, (("cassini", cassini), ("sum-of-squares", halving)))


@dataclass(frozen=True)
class PeriodExactnessReport:
    """Outcome of the exact-period corollary at one prime.

    branch names which hypothesis applied: "entry-point-is-p-minus-1"
    asserts period == p - 1, "entry-point-is-p-plus-1" asserts
    period == 2(p + 1), and "none" means neither hypothesis held.
    """

    p: int
    entry_point: int
    period: int
    branch: str
    verdict: str


def period_exactness_check(p: int) -> PeriodExactnessReport:
    """If the entry point hits its Bloom-Wall bound, pin the exact period."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 5):
        raise ValueError("excluded prime")
    e = entry_point(p)
    period = pisano_period(p)
    r = p % 5
    if r in (1, 4) and e == p - 1:
        verdict = PASS if period == p - 1 else FAIL
        return PeriodExactnessReport(p, e, period, "entry-point-is-p-minus-1", verdict)
    if r in (2, 3) and e == p + 1:
        verdict = PASS if period == 2 * (p + 1) else FAIL
        return PeriodExactnessReport(p, e, period, "entry-point-is-p-plus-1", verdict)
    return PeriodExactnessReport(p, e, period, "none", HYPOTHESIS_NOT_MET)
