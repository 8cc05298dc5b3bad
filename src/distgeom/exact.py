"""Exact linear algebra over the rationals.

Every routine clears denominators once, scaling its input by the least
common multiple L of the denominators, and then runs one integer kernel:
Bareiss's fraction-free elimination (Math. Comp. 22, 1968).  Each entry
the kernel writes is a minor of the scaled input, so its divisions are
exact and no Fraction is built inside a loop; a Fraction appears only in a
determinant that is not integral.  The determinants, ranks, kernel vectors
and definiteness verdicts computed here are therefore certificates rather
than floating-point judgements.  Inputs are plain nested sequences of
int/Fraction scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

VERDICT_PD = "positive-definite"
VERDICT_PSD = "positive-semidefinite"
VERDICT_INDEFINITE = "indefinite"


def _integral(rows) -> tuple[list[list[int]], int]:
    """(L * rows as new lists of ints, L), L the lcm of the entry denominators."""
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    if scale == 1:
        return [list(map(int, row)) for row in rows], 1
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _square(m, name: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{name} requires a square matrix")
    return n


def _bareiss_step(m, r: int, c: int, prev: int):
    """Pivot on m[r][c]: rows below r, columns right of c, in place.

    Entry (i, j) becomes (p m[i][j] - m[i][c] m[r][j]) / prev with p the
    pivot and prev the previous one, which is again a minor of the input,
    so the division is exact.  Column c below the pivot is left stale;
    nothing reads it again.
    """
    top = m[r]
    pivot = top[c]
    tail = top[c + 1:]
    for i in range(r + 1, len(m)):
        row = m[i]
        lead = row[c]
        row[c + 1:] = [(pivot * a - lead * b) // prev for a, b in zip(row[c + 1:], tail)]


def _echelon(m) -> tuple[list[int], int]:
    """Fraction-free row echelon form of the int matrix m, in place.

    Returns the pivot columns, pivot k sitting in row k, and the sign of
    the row permutation.  Left of its pivot a row holds stale entries.
    """
    pivots, sign, prev = [], 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        _bareiss_step(m, r, c, prev)
        prev = m[r][c]
        pivots.append(c)
    return pivots, sign


def det(rows) -> int | Fraction:
    """Determinant of a square rational matrix, det(L A) / L^n."""
    m, scale = _integral(rows)
    n = _square(m, "determinant")
    if n == 0:
        return 1
    pivots, sign = _echelon(m)
    if len(pivots) < n:
        return 0
    value = sign * m[-1][-1]
    quot, rem = divmod(value, scale**n)
    return Fraction(value, scale**n) if rem else quot


def rank(rows) -> int:
    """Exact rank: the number of pivots of the integer echelon form."""
    return len(_echelon(_integral(rows)[0])[0])


def _primitive(vec: list[int]) -> list[int]:
    """Divide an int vector by its content, first nonzero entry positive."""
    unit = math.gcd(*vec)
    if next(v for v in vec if v) < 0:
        unit = -unit
    return [v // unit for v in vec]


def nullspace_vector(rows):
    """One nonzero kernel vector of a square rational matrix, or None.

    The first free column f of the echelon form is 1 in the vector and
    the other free columns are 0.  The pivot part is solved by back
    substitution scaled by D, the last pivot before f: the determinant of
    the f x f block the pivots span, so by Cramer's rule every quotient is
    exact.  The vector is normalized to coprime integer entries with the
    first nonzero entry positive, so results are deterministic.
    """
    m = _integral(rows)[0]
    n = _square(m, "nullspace_vector")
    pivots = _echelon(m)[0]
    if len(pivots) == n:
        return None
    f = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
    d = m[f - 1][f - 1] if f else 1
    vec = [0] * n
    vec[f] = d
    for c in reversed(range(f)):
        row = m[c]
        vec[c] = -(d * row[f] + sum(row[j] * vec[j] for j in range(c + 1, f))) // row[c]
    return _primitive(vec)


def psd_verdict(rows) -> tuple[str, int]:
    """Exact definiteness of a symmetric rational matrix.

    Repeatedly pivots on a strictly positive diagonal entry (moved to the
    front by a symmetric swap) with the Bareiss step.  The pivots so far
    are positive leading minors, so each entry keeps the sign of the
    Schur complement entry it scales: the matrix is positive semidefinite
    exactly when no negative diagonal ever appears and every
    all-zero-diagonal remainder is the zero matrix.  Returns (verdict,
    rank); for semidefinite matrices the rank equals the number of
    positive pivots, for indefinite ones from a fresh echelon form.
    """
    m = _integral(rows)[0]
    n = _square(m, "psd_verdict")
    r, prev = 0, 1
    while r < n:
        diag = [m[i][i] for i in range(r, n)]
        p = next((i for i, v in enumerate(diag, r) if v > 0), None)
        if min(diag) < 0 or (p is None and any(any(row[r:]) for row in m[r:])):
            return VERDICT_INDEFINITE, rank(rows)
        if p is None:
            break
        m[r], m[p] = m[p], m[r]
        for row in m:
            row[r], row[p] = row[p], row[r]
        _bareiss_step(m, r, r, prev)
        prev = m[r][r]
        r += 1
    return (VERDICT_PD if r == n else VERDICT_PSD), r
