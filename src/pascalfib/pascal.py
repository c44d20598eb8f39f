"""Builders and closed forms for the two square Pascal matrices.

The left-justified matrix L_n has entry (i, j) equal to C(i-1, j-1);
the column-justified matrix R_n has entry (i, j) equal to C(i-1, n-j)
and is L_n with its columns reversed. Both are unimodular, so their
inverses are integer matrices with simple signed-binomial closed forms,
and every integer power of L_n has the closed form e**(i-j) * C(i-1, j-1).

The 0**0 == 1 convention is used throughout (Python's ** already does
this), which makes exponent 0 and diagonal entries uniform. Binomials
come from math.comb. The state kept is the built L_n and R_n, and the
closed-form rows of L_N**e for the last e that left_power_rows served.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .core import ExactMatrix, _LeftPascal, _RightPascal


def binomial(a: int, b: int) -> int:
    """Exact C(a, b); zero for b outside [0, a] (math.comb gives 0 for
    b > a). The matrix identities verified elsewhere lean on those
    vanishing boundary terms."""
    if a < 0:
        raise ValueError("binomial row index must be nonnegative")
    return comb(a, b) if b >= 0 else 0


# n -> L_n and n -> R_n, each built once. The values are immutable, so
# every caller may share them. They are core's marked subclasses, by
# which core.mat_mul multiplies with Pascal's rule. setdefault hands
# every caller the same object even when two threads build the same n
# at once.
_lefts: dict[int, ExactMatrix] = {}
_rights: dict[int, ExactMatrix] = {}


def build_left(n: int) -> ExactMatrix:
    """The n x n left-justified Pascal matrix, entry (i, j) = C(i-1, j-1)."""
    left = _lefts.get(n)
    if left is None:
        if n < 1:
            raise ValueError("dimension must be at least 1")
        left = _lefts.setdefault(
            n, _LeftPascal.from_fn(n, lambda i, j: binomial(i - 1, j - 1)))
    return left


def build_right(n: int) -> ExactMatrix:
    """The n x n column-justified Pascal matrix, entry (i, j) = C(i-1, n-j)."""
    right = _rights.get(n)
    if right is None:
        if n < 1:
            raise ValueError("dimension must be at least 1")
        right = _rights.setdefault(
            n, _RightPascal.from_fn(n, lambda i, j: binomial(i - 1, n - j)))
    return right


# (e, N, rows of L_N**e) as left_power_rows last built them. For n <= N
# the rows of L_n**e are the first n rows of L_N**e, each cut to n
# cells, and a campaign asks for each e (left-order: each p) with n
# descending, so one table per e serves every n. The tuple is rebound
# whole.
_left_rows: tuple[int, int, tuple[tuple[int, ...], ...]] = (0, 0, ())


def left_power_rows(n: int, e: int) -> Iterator[tuple[int, ...]]:
    """Rows 1..n of the e-th power of the n x n left Pascal matrix by
    the closed form e**(i-j) * C(i-1, j-1), valid for any integer e
    under the 0**0 == 1 convention; zero above the diagonal.

    The rows are cut from the table of the last wider or equal N asked
    for at the same e; otherwise the table is built for N = n, with each
    e**k made once, and kept in place of the last one.
    """
    global _left_rows
    if n < 1:
        raise ValueError("dimension must be at least 1")
    held_e, wide, rows = _left_rows
    if held_e != e or wide < n:
        pows = [e ** k for k in range(n)]
        rows = tuple(tuple(pows[i - j] * comb(i, j) for j in range(i + 1))
                     + (0,) * (n - 1 - i) for i in range(n))
        _left_rows = (e, n, rows)
    return (row[:n] for row in rows[:n])


def left_inverse(n: int) -> ExactMatrix:
    """Closed-form inverse of the left matrix: (-1)**(i+j) * C(i-1, j-1)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return ExactMatrix.from_fn(
        n, lambda i, j: (-1) ** (i + j) * binomial(i - 1, j - 1))


def right_inverse(n: int) -> ExactMatrix:
    """Closed-form inverse of the right matrix: (-1)**(n+i+j+1) * C(n-i, j-1)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return ExactMatrix.from_fn(
        n, lambda i, j: (-1) ** (n + i + j + 1) * binomial(n - i, j - 1))
