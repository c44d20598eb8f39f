"""Fibonacci and Lucas numbers and their structure modulo an integer.

Exact values F_k come from a table built at import for every index a
campaign asks for (k < 130 covers the laws, Lucas numbers and the
identities at |e| <= 64); larger indices are computed by exact fast
doubling and not cached, so memory does not grow with the index.
Modular values never go through exact ones: fib_pair_mod reduces
modulo m at every doubling step.

Two modular quantities drive everything downstream: the entry point of
a modulus m (the least k > 0 with m | F_k, the rank of apparition) and
the Pisano period (the least k > 0 with (F_k, F_{k+1}) = (0, 1) mod m).
Every modulus takes one path. Wall's bounds (Wall 1960) give a multiple
B of the period: the lcm over the prime powers q^k || m of
q^(k-1) * b(q), where b(q) is q - 1 for q = +-1 mod 5, 2(q + 1) for
q = +-2 mod 5, 3 for q = 2 and 20 for q = 5. Fast doubling confirms
(F_B, F_{B+1}) = (0, 1) mod m. The pair is (0, 1) at k exactly when the
period divides k, and F_k = 0 exactly when the entry point does, so
stripping prime factors from B while the pair holds leaves the period,
and stripping them from the period while F_k = 0 leaves the entry
point. Should the confirmation fail, one forward scan answers instead,
with the classical 6m period bound as a hard stop, so the Bloom-Wall
and period-exactness checks still test the bounds B is built from.
Both quantities are memoized per modulus.

Also here: the Bloom-Wall divisibility checks, the period-exactness
corollary, the Hardy-Wright binomial formula for F_j, and the Cassini /
sum-of-squares identities, all verified in exact integer arithmetic.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .core import is_prime, prime_factors, strip_prime_factors
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


class FibModData(NamedTuple):
    """Entry point and Pisano period of the Fibonacci sequence mod m."""

    m: int
    entry_point: int
    pisano_period: int


# m -> its data. Each value depends on m alone, so two threads that
# fill the same m at once store equal values.
_mod_data: dict[int, FibModData] = {}


def fib_mod_data(m: int) -> FibModData:
    """Memoized per-modulus data."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    data = _mod_data.get(m)
    if data is None:
        data = _mod_data[m] = FibModData(m, *_entry_point_and_period(m))
    return data


def entry_point(m: int) -> int:
    """Least k > 0 with m | F_k."""
    return fib_mod_data(m).entry_point


def pisano_period(m: int) -> int:
    """Least k > 0 with (F_k, F_{k+1}) = (0, 1) mod m."""
    return fib_mod_data(m).pisano_period


def _period_multiple(m: int) -> int:
    """Wall's multiple of the Pisano period of m (see the module docstring)."""
    multiple = 1
    for q in prime_factors(m):
        power = q  # q^k, the largest power of q dividing m
        while m % (power * q) == 0:
            power *= q
        b = {2: 3, 5: 20}.get(q, q - 1 if q % 5 in (1, 4) else 2 * (q + 1))
        multiple = lcm(multiple, power // q * b)
    return multiple


def _entry_point_and_period(m: int) -> tuple[int, int]:
    multiple = _period_multiple(m)
    if fib_pair_mod(multiple, m) != (0, 1):
        return _scan(m)
    period = strip_prime_factors(multiple, lambda k: fib_pair_mod(k, m) == (0, 1))
    return strip_prime_factors(period, lambda k: fib_pair_mod(k, m)[0] == 0), period


def _scan(m: int) -> tuple[int, int]:
    """(entry point, period) by forward iteration."""
    a, b = 0, 1
    entry = 0
    for k in range(1, 6 * m + 1):
        a, b = b, (a + b) % m
        if a == 0:
            entry = entry or k
            if b == 1:
                return entry, k
    raise ArithmeticError(f"Fibonacci period modulo {m} exceeds the 6m bound")


class BloomWallReport(NamedTuple):
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


class IdentityReport(NamedTuple):
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


class PeriodExactnessReport(NamedTuple):
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
