"""Exact linear algebra against a Fraction Gaussian-elimination oracle.

The oracle below shares no code with `distgeom.exact`: it eliminates over
`Fraction` with partial pivoting on the first nonzero entry, reads the
kernel vector off the reduced row echelon form, and decides
semidefiniteness from principal minors.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from distgeom import exact

# ------------------------------------------------------------------ oracle


def _rref(rows):
    """Reduced row echelon form over Fraction and its pivot columns."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def oracle_det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    value = Fraction(1)
    for col in range(n):
        p = next((i for i in range(col, n) if m[i][col] != 0), None)
        if p is None:
            return Fraction(0)
        if p != col:
            m[col], m[p] = m[p], m[col]
            value = -value
        value *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return value


def oracle_rank(rows):
    return len(_rref(rows)[1])


def oracle_kernel_vector(rows):
    """First free column set to 1, other free columns 0, then made
    coprime-integral with its first nonzero entry positive."""
    n = len(rows)
    m, pivots = _rref(rows)
    if len(pivots) == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in enumerate(pivots):
        vec[col] = -m[row][free]
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = math.gcd(*ints)
    sign = 1 if next(v for v in ints if v) > 0 else -1
    return [sign * v // g for v in ints]


def oracle_psd(rows):
    """(verdict, rank) from principal minors: PSD iff all are >= 0, PD iff
    the leading ones are > 0 (Sylvester's criterion)."""
    n = len(rows)
    rank = oracle_rank(rows)
    if all(
        oracle_det([[rows[i][j] for j in idx] for i in idx]) >= 0
        for k in range(1, n + 1)
        for idx in itertools.combinations(range(n), k)
    ):
        verdict = exact.VERDICT_PD if rank == n else exact.VERDICT_PSD
        return verdict, rank
    return exact.VERDICT_INDEFINITE, rank


# --------------------------------------------------------------- generators


def _rational(rng, dens=(1, 2, 3, 5, 7, 12)):
    if rng.random() < 0.25:
        return 0
    return Fraction(rng.randint(-9, 9), rng.choice(dens))


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _low_rank(rng, nrows, ncols, k):
    a = [[_rational(rng) for _ in range(k)] for _ in range(nrows)]
    b = [[_rational(rng) for _ in range(ncols)] for _ in range(k)]
    if k == 0:
        return [[0] * ncols for _ in range(nrows)]
    return _product(a, b)


def _gram(rng, n, k):
    """A^T A for a random k x n A: PSD of rank at most k."""
    a = [[_rational(rng) for _ in range(n)] for _ in range(k)]
    if k == 0:
        return [[0] * n for _ in range(n)]
    return _product(list(map(list, zip(*a))), a)


def _symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = _rational(rng)
    return m


def _square_cases(seed, count=120):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        if rng.random() < 0.4:
            yield [[_rational(rng) for _ in range(n)] for _ in range(n)]
        else:
            yield _low_rank(rng, n, n, rng.randint(0, n))


def _symmetric_cases(seed, count=120):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        kind = rng.random()
        if kind < 0.5:
            m = _gram(rng, n, rng.randint(0, n))
            if rng.random() < 0.3:
                i = rng.randrange(n)
                m[i][i] -= Fraction(1, rng.choice((1, 3, 8)))
            yield m
        else:
            yield _symmetric(rng, n)


HUGE = 10**200
HUGE_MATRIX = [[HUGE + 1, HUGE, 3], [HUGE, HUGE - 7, 1], [3, 1, 2 * HUGE]]
# Pairwise-coprime denominators: the common scale is their product.
COPRIME_MATRIX = [
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
    [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)],
    [Fraction(1, 17), Fraction(1, 19), Fraction(1, 23)],
]


# -------------------------------------------------------------------- tests


class TestDeterminant:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_matrices_match_the_oracle(self, seed):
        for rows in _square_cases(seed):
            value = exact.det(rows)
            assert value == oracle_det(rows), rows
            assert type(value) is (int if oracle_det(rows).denominator == 1 else Fraction)

    def test_empty_and_single_entry(self):
        assert exact.det([]) == 1 and type(exact.det([])) is int
        assert exact.det([[Fraction(6, 3)]]) == 2 and type(exact.det([[Fraction(6, 3)]])) is int
        assert exact.det([[Fraction(-2, 3)]]) == Fraction(-2, 3)
        assert exact.det([[0]]) == 0

    def test_huge_integers(self):
        assert exact.det(HUGE_MATRIX) == oracle_det(HUGE_MATRIX)
        assert exact.det([[HUGE, 1], [1, HUGE]]) == HUGE * HUGE - 1

    def test_coprime_denominators(self):
        value = exact.det(COPRIME_MATRIX)
        assert value == oracle_det(COPRIME_MATRIX) and type(value) is Fraction

    def test_row_swap_sign(self):
        assert exact.det([[0, 1], [1, 0]]) == -1
        assert exact.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exact.det([[1, 2]])
        with pytest.raises(ValueError):
            exact.det([[1, 2], [3]])


class TestRank:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_rectangular_matrices_match_the_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = _low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            assert exact.rank(rows) == oracle_rank(rows), rows

    def test_edges(self):
        assert exact.rank([]) == 0
        assert exact.rank([[]]) == 0
        assert exact.rank([[0, 0], [0, 0]]) == 0
        assert exact.rank([[Fraction(1, 3)]]) == 1
        assert exact.rank(HUGE_MATRIX) == 3
        assert exact.rank([[HUGE, HUGE + 1], [2 * HUGE, 2 * HUGE + 2]]) == 1
        assert exact.rank(COPRIME_MATRIX) == 3


class TestNullspaceVector:
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_random_matrices_match_the_oracle(self, seed):
        for rows in _square_cases(seed):
            vec = exact.nullspace_vector(rows)
            assert vec == oracle_kernel_vector(rows), rows
            if vec is not None:
                assert all(type(v) is int for v in vec)
                assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)

    def test_edges(self):
        assert exact.nullspace_vector([]) is None
        assert exact.nullspace_vector([[0]]) == [1]
        assert exact.nullspace_vector([[Fraction(2, 3)]]) is None
        assert exact.nullspace_vector([[0, 0], [0, 0]]) == [1, 0]
        # First column is free only after the second one: kernel (2, -1).
        assert exact.nullspace_vector([[1, 2], [2, 4]]) == [2, -1]
        assert exact.nullspace_vector([[HUGE, HUGE], [1, 1]]) == [1, -1]
        singular = [row[:] for row in COPRIME_MATRIX]
        singular[2] = [a + b for a, b in zip(singular[0], singular[1])]
        vec = exact.nullspace_vector(singular)
        assert vec == oracle_kernel_vector(singular)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in singular)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exact.nullspace_vector([[1, 2]])


class TestPsdVerdict:
    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_random_symmetric_matrices_match_the_oracle(self, seed):
        for rows in _symmetric_cases(seed):
            assert exact.psd_verdict(rows) == oracle_psd(rows), rows

    @pytest.mark.parametrize("k", range(6))
    def test_semidefinite_of_every_rank(self, k):
        rng = random.Random(100 + k)
        for _ in range(10):
            rows = _gram(rng, 5, k)
            expected = oracle_psd(rows)
            assert expected[0] != exact.VERDICT_INDEFINITE
            assert exact.psd_verdict(rows) == expected

    def test_positive_definite(self):
        rows = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        assert exact.psd_verdict(rows) == (exact.VERDICT_PD, 3)
        assert exact.psd_verdict([[Fraction(1, 7)]]) == (exact.VERDICT_PD, 1)

    def test_indefinite_reports_the_rank(self):
        assert exact.psd_verdict([[1, 2], [2, 1]]) == (exact.VERDICT_INDEFINITE, 2)
        assert exact.psd_verdict([[-1]]) == (exact.VERDICT_INDEFINITE, 1)
        # A negative Schur complement: the diagonal starts positive.
        assert exact.psd_verdict([[1, 2, 0], [2, 3, 0], [0, 0, 0]]) == (
            exact.VERDICT_INDEFINITE,
            2,
        )

    def test_all_zero_diagonal_remainder(self):
        # After pivoting on the 1, the remainder has a zero diagonal with a
        # nonzero off-diagonal pair: indefinite.
        rows = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
        assert exact.psd_verdict(rows) == oracle_psd(rows) == (exact.VERDICT_INDEFINITE, 3)
        assert exact.psd_verdict([[0, 3], [3, 0]]) == (exact.VERDICT_INDEFINITE, 2)
        # A zero remainder is semidefinite.
        assert exact.psd_verdict([[1, 1, 0], [1, 1, 0], [0, 0, 0]]) == (
            exact.VERDICT_PSD,
            1,
        )
        assert exact.psd_verdict([[0, 0], [0, 0]]) == (exact.VERDICT_PSD, 0)

    def test_empty_and_single_entry(self):
        assert exact.psd_verdict([]) == (exact.VERDICT_PD, 0)
        assert exact.psd_verdict([[0]]) == (exact.VERDICT_PSD, 0)

    def test_huge_integers(self):
        rows = [[HUGE, HUGE - 1], [HUGE - 1, HUGE]]
        assert exact.psd_verdict(rows) == (exact.VERDICT_PD, 2)
        rows = [[HUGE, HUGE + 1], [HUGE + 1, HUGE]]
        assert exact.psd_verdict(rows) == (exact.VERDICT_INDEFINITE, 2)
        rows = [[HUGE, HUGE], [HUGE, HUGE]]
        assert exact.psd_verdict(rows) == (exact.VERDICT_PSD, 1)

    def test_coprime_denominators(self):
        d = [Fraction(1, p) for p in (2, 3, 5, 7, 11)]
        gram = [[a * b for b in d] for a in d]
        assert exact.psd_verdict(gram) == (exact.VERDICT_PSD, 1)
        hilbert = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
        assert exact.psd_verdict(hilbert) == (exact.VERDICT_PD, 5)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exact.psd_verdict([[1, 2]])
