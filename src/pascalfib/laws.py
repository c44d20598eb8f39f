"""Exact cell-by-cell verifiers for the recurrences and closed forms
satisfied by powers of the column-justified Pascal matrix.

Every verifier takes its power matrix from `power`, which computes it
with core.mat_mul and core.mat_pow only, and compares the law's
prediction against it, so the law under test shares no code with its
oracle beyond plain matrix multiplication. `power` holds one matrix
per process: the last power it made, which it hands back when asked
again and steps up with one multiply instead of starting again, with
the traces tr(base**k), k = 1..n, of its walk when that stepped up from
base**1. `power_sums` hands them to spectra, whose Newton step turns
them into charpoly(R_n) without a product of its own. A campaign walks
one base at a time: it runs the cell laws point by point, so at each
(n, e) they ask for one R_n**e in a row, and e rises by one from point
to point. L_n is lower triangular, so for n <= N the leading n x n
block of L_N**e is L_n**e, for every integer e. `power` reads L_n**e
off a held L_N**e, stepped once if it was at e - 1, and a campaign asks
for the left powers first, e ascending and n descending within each e,
so one walk of the largest L_N serves every n. All comparisons are
integer equalities; reports carry every failing cell as an
(i, j, lhs, rhs) witness, in row-major order.

Index ranges: the Fibonacci-coefficient recurrence comes with its
stated range; the paper's square and cube recurrences are it at e = 2
and 3, over the same cells. Row propagation comes with none, nor do
the row expansions of R_n**2 and R_n**3 that it gives at e = 2 and 3,
so its range was discovered by scanning the full grid 1 <= i <= n-1,
1 <= j <= n for n <= 8 (and exponents 2..10); no cell fails anywhere
on that grid, and boundary columns are covered by the empty-sum
convention at j = 1, so the verifier below pins the full grid.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .core import ExactMatrix, _exact, _LeftPascal, mat_mul, mat_pow
from .fib import fib
from .pascal import binomial, build_right


class CellLawReport(NamedTuple):
    """Outcome of checking one law over its declared index range."""

    law_id: str
    n: int
    e: int | None
    checked_cells: int
    failures: tuple[tuple[int, int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# The (base, e, base**e, sums) that `power` last returned, or None.
# sums holds tr(base**k) for k = 1..min(e, n) when the walk to e passed
# through e = 1 one multiply at a time, and None otherwise. The record is
# immutable and `power` rebinds it whole, so a thread that reads a stale
# record still steps from a true power and true traces.
_held: tuple[ExactMatrix, int, ExactMatrix, tuple[int, ...] | None] | None = None


def power(base: ExactMatrix, e: int) -> ExactMatrix:
    """base**e, for any e that core.mat_pow accepts.

    If the power held for the same base object is at e, the result is
    that power again; at e - 1 it is that power times base: one
    multiply, and no inverse for negative e. For a built L_n, a power
    held for a built L_N with N > n serves too: the result is the
    leading n x n block of power(L_N, e), which L_n's lower
    triangularity makes equal to L_n**e, and L_N stays held in place of
    L_n. Otherwise it is core.mat_pow(base, e). Only the last power is
    held, with the traces of its walk (see power_sums); the
    build_left/build_right memos hand out one object per n, so the
    walks keep their bases.
    """
    global _held
    held = _held
    if held is None or not e - 1 <= held[1] <= e or not _serves(held[0], base):
        result, sums = mat_pow(base, e), None
    elif held[0] is not base:
        n = base.n
        return _exact(n, tuple(row[:n] for row in power(held[0], e).rows[:n]))
    elif held[1] == e:
        return held[2]
    else:
        result, sums = mat_mul(held[2], base), held[3]
        if sums is not None and e <= base.n:
            sums += (_trace(result),)
    if e == 1 and sums is None:
        sums = (_trace(result),)
    _held = (base, e, result, sums)
    return result


def power_sums(base: ExactMatrix) -> tuple[int, ...] | None:
    """The power sums tr(base**k), k = 1..n, of the walk `power` holds,
    or None when it holds no walk of this base object that stepped from
    base**1 up to base**n one multiply at a time. They are read off the
    powers the walk made, so they cost n additions per step and no
    product of their own."""
    held = _held
    if held is None or held[0] is not base or held[3] is None or held[1] < base.n:
        return None
    return held[3]


def _trace(m: ExactMatrix) -> int:
    return sum(row[i] for i, row in enumerate(m.rows))


def _serves(held: ExactMatrix, base: ExactMatrix) -> bool:
    """Whether a power of `held` gives the same power of `base`: the
    same object, or built L_N and L_n with N > n."""
    return held is base or (type(held) is _LeftPascal and type(base) is _LeftPascal
                            and held.n > base.n)


def _right_power(n: int, e: int) -> ExactMatrix:
    return power(build_right(n), e)


# The loops below index the row tuples of a power 0-based: rows[i][j] is
# the cell (i + 1, j + 1) of the docstrings, and witnesses are 1-based.


def verify_fib_recurrence(n: int, e: int) -> CellLawReport:
    """Check the Fibonacci-coefficient recurrence on R_n**e over the integers:

        F_{e-1} a[i][j] = F_e a[i-1][j] + F_{e+1} a[i-1][j-1] - F_e a[i][j-1]

    for 2 <= i, j <= n. At e = 1 this degenerates to the Pascal
    recurrence itself (F_0 = 0, F_1 = F_2 = 1). At e = 2 and 3 it is
    the paper's square and cube recurrence, with coefficients
    (F_1, F_2, F_3) = (1, 1, 2) and (F_2, F_3, F_4) = (1, 2, 3).
    """
    if n < 2:
        raise ValueError("recurrence range is empty for n < 2")
    if e < 1:
        raise ValueError("exponent must be positive")
    rows = _right_power(n, e).rows
    f_prev, f_cur, f_next = fib(e - 1), fib(e), fib(e + 1)
    failures = []
    for i in range(1, n):
        up, row = rows[i - 1], rows[i]
        for j in range(1, n):
            lhs = f_prev * row[j]
            rhs = f_cur * (up[j] - row[j - 1]) + f_next * up[j - 1]
            if lhs != rhs:
                failures.append((i + 1, j + 1, lhs, rhs))
    return CellLawReport("fib-recurrence", n, e, (n - 1) ** 2, tuple(failures))


def verify_border_formulas(n: int, e: int) -> CellLawReport:
    """Check the closed forms for the first row and column of R_n**e:

        a[1][j] = C(n-1, j-1) * F_{e-1}**(n-j) * F_e**(j-1)
        a[i][1] = F_{e-1}**(n-i) * F_e**(i-1)

    under the 0**0 == 1 convention. The two agree at the corner (1, 1),
    which the first row covers, so the column is checked from row 2 on
    and checked_cells counts 2n - 1, each cell once, in row-major order.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if e < 1:
        raise ValueError("exponent must be positive")
    rows = _right_power(n, e).rows
    f_prev, f_cur = fib(e - 1), fib(e)
    prev_pows = [f_prev ** k for k in range(n)]
    cur_pows = [f_cur ** k for k in range(n)]
    failures = []
    for j in range(n):
        lhs = rows[0][j]
        rhs = binomial(n - 1, j) * prev_pows[n - 1 - j] * cur_pows[j]
        if lhs != rhs:
            failures.append((1, j + 1, lhs, rhs))
    for i in range(1, n):
        lhs = rows[i][0]
        rhs = prev_pows[n - 1 - i] * cur_pows[i]
        if lhs != rhs:
            failures.append((i + 1, 1, lhs, rhs))
    return CellLawReport("border-formulas", n, e, 2 * n - 1, tuple(failures))


def verify_row_propagation(n: int, e: int) -> CellLawReport:
    """Check the general previous-row expansion of R_n**e, cleared of
    denominators (multiply through by F_{e-1}**(j-1)):

        F_{e-1}**j a[i+1][j] = F_e F_{e-1}**(j-1) a[i][j] - T_j,
        T_j = sum_{k=1}^{j-1} (-1)**(k+e) F_e**(k-1) F_{e-1}**(j-1-k) a[i][j-k]

    over the full grid 1 <= i <= n-1, 1 <= j <= n (empirically
    failure-free). Undefined at e = 1, where F_0 = 0 makes the original
    fraction singular. At e = 2 and 3, where F_{e-1} = 1, it is the
    paper's row expansion of R_n**2 and of R_n**3.

    The sum is carried along the row, T_1 = 0 and
    T_{j+1} = -F_e T_j + (-1)**(1+e) F_{e-1}**(j-1) a[i][j]. That gives
    the same integers as summing each T_j afresh, in O(n**2) steps per
    check instead of O(n**3). Each cell's u = F_{e-1}**(j-1) a[i][j] is
    formed once: it is T's term and F_e's factor in row i, and the lhs
    of row i is F_{e-1} times it, so every other product is by F_{e-1},
    F_e or the sign.
    """
    if n < 2:
        raise ValueError("expansion range is empty for n < 2")
    if e < 2:
        raise ValueError("undefined at e = 1 (F_0 = 0 divides in the original form)")
    rows = _right_power(n, e).rows
    f_prev, f_cur = fib(e - 1), fib(e)
    sign = -1 if e % 2 == 0 else 1  # (-1)**(1+e)
    prev_pows = [f_prev ** j for j in range(n)]
    failures = []
    scaled = list(map(mul, prev_pows, rows[0]))
    for i in range(2, n + 1):
        scaled_down = list(map(mul, prev_pows, rows[i - 1]))
        tail = 0
        for j, (u, u_down) in enumerate(zip(scaled, scaled_down), 1):
            lhs = f_prev * u_down
            rhs = f_cur * u - tail
            if lhs != rhs:
                failures.append((i, j, lhs, rhs))
            tail = sign * u - f_cur * tail
        scaled = scaled_down
    return CellLawReport("row-propagation", n, e, (n - 1) * n, tuple(failures))
