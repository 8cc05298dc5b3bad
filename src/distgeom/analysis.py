"""Numeric and exact analysis of the matrix families.

Covers determinants in both scalar regimes, definiteness verdicts,
membership of a distance vector in the cone of vectors realizable by
actual point configurations, spectral reconstruction of a configuration
from distances, simplex volumes, and the quadratic / biquadratic / quartic
forms attached to the matrix families.

The numeric regime uses IEEE doubles with a relative tolerance; the exact
regime turns the same questions into exact rational computations whose
answers are certificates.  The regime is chosen by the scalars of the
input, never by implicit conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import exact
from .builders import (
    GenericEntryTable, cayley_menger, nbody_matrix, reduced_edm, w_matrix,
)
from .core import (
    DimensionMismatch,
    DistanceVector,
    NotEmbeddableError,
    PairSpace,
    PointConfiguration,
    alpha_values,
)
from .exact import VERDICT_INDEFINITE, VERDICT_PD, VERDICT_PSD
from .scalars import all_exact, is_symbolic, np, rational, rows_of, to_double

MEMBER_INTERIOR = "interior"
MEMBER_BOUNDARY = "boundary"
MEMBER_OUTSIDE = "outside"


def _classify(rows) -> str:
    if any(is_symbolic(v) for row in rows for v in row):
        return "symbolic"
    return "exact" if all(all_exact(row) for row in rows) else "numeric"


def determinant(matrix):
    """Determinant in the regime of the entries.

    Polynomial entries use exact symbolic expansion, rational entries use
    fraction-free elimination, and float entries use LU factorization,
    which raises OverflowError when the result is not a finite double.
    """
    rows = rows_of(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant requires a square matrix")
    regime = _classify(rows)
    if regime == "symbolic":
        from .polys import poly_det

        return poly_det(rows)
    if regime == "exact":
        return exact.det(rows)
    if n == 0:
        return 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.linalg.det(_doubles(rows)))
    if not math.isfinite(value):
        raise OverflowError("numeric determinant is not a finite double")
    return value


def _doubles(rows) -> list[list[float]]:
    """rows as lists of doubles; ValueError for entries no finite double
    holds.  Lists, not an array, so that a refusal never loads numpy."""
    return [[to_double(v, "matrix entry") for v in row] for row in rows]


@dataclass(frozen=True)
class DefinitenessReport:
    """Verdict on a symmetric matrix, with supporting evidence.

    `min_eigenvalue` is a float certificate (informational in the exact
    regime, decisive in the numeric one); it is None for exact matrices
    whose entries or eigenvalues do not fit finite doubles or whose nonzero
    entries underflow to 0.0.  `rank` counts
    positive pivots for semidefinite exact matrices and thresholded
    eigenvalues otherwise.
    """

    verdict: str
    min_eigenvalue: float | None
    rank: int
    tol: float
    exact_regime: bool


def _float_min_eigenvalue(rows) -> float | None:
    """Smallest eigenvalue of an exact matrix in doubles, or None as
    DefinitenessReport describes."""
    try:
        a = _doubles(rows)
    except ValueError:
        return None
    if any(v and not d for row, doubles in zip(rows, a) for v, d in zip(row, doubles)):
        return None
    eig = float(np.linalg.eigvalsh(a)[0])
    return eig if math.isfinite(eig) else None


def definiteness(matrix, tol: float = 1e-10) -> DefinitenessReport:
    """Classify a symmetric matrix as PD / PSD / indefinite.

    The exact regime pivots on positive diagonal entries and inspects
    Schur complements, which decides semidefiniteness exactly even for
    singular matrices.  The numeric regime thresholds eigenvalues at
    tol * max(|lambda|, 1).
    """
    rows = rows_of(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("definiteness requires a square matrix")
    if n == 0:
        return DefinitenessReport(VERDICT_PD, math.inf, 0, tol, True)
    if _classify(rows) == "exact":
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i + 1, n)):
            raise ValueError("matrix is not symmetric")
        verdict, rank = exact.psd_verdict(rows)
        return DefinitenessReport(verdict, _float_min_eigenvalue(rows), rank, tol, True)
    a = np.array(_doubles(rows))
    scale = float(np.max(np.abs(a)))
    if not np.allclose(a, a.T, atol=tol * max(scale, 1.0), rtol=0.0):
        raise ValueError("matrix is not symmetric beyond tolerance")
    a = (a + a.T) / 2.0
    eigs = np.linalg.eigvalsh(a)
    thr = tol * max(float(np.max(np.abs(eigs))), 1.0)
    min_eig = float(eigs[0])
    if min_eig > thr:
        verdict, rank = VERDICT_PD, n
    elif min_eig >= -thr:
        verdict, rank = VERDICT_PSD, int(np.count_nonzero(eigs > thr))
    else:
        verdict, rank = VERDICT_INDEFINITE, int(np.count_nonzero(np.abs(eigs) > thr))
    return DefinitenessReport(verdict, min_eig, rank, tol, False)


def _integer_reduced(r: DistanceVector):
    """(L M as int rows, L, psd_verdict(rows)) for an exact vector, memoized
    on r: L is the common denominator of r's squares, M = 2G is
    `reduced_edm` at the last base point, built on r.integral()."""
    if r.reduced_memo is None:
        rows = reduced_edm(r.integral(), r.n - 1).to_lists()
        r.reduced_memo = rows, r.scaled_squares[0], exact.psd_verdict(rows)
    return r.reduced_memo


MEMBERSHIP = {VERDICT_PD: MEMBER_INTERIOR, VERDICT_PSD: MEMBER_BOUNDARY,
              VERDICT_INDEFINITE: MEMBER_OUTSIDE}


def cone_membership(r: DistanceVector, tol: float = 1e-10) -> str:
    """Locate a distance vector relative to the realizable cone.

    The reduced matrix at the last base point is positive definite exactly
    for interior vectors (realizable in no affine subspace of dimension
    n-2), semidefinite on the boundary, and indefinite outside, in which
    case no point configuration realizes r.  Exact vectors take the exact
    pivoting verdict on the shared integer reduced matrix, with no float
    eigenvalue.
    """
    if r.is_exact():
        return MEMBERSHIP[_integer_reduced(r)[2][0]]
    return MEMBERSHIP[definiteness(reduced_edm(r, r.n - 1), tol).verdict]


@dataclass(frozen=True)
class EmbeddingResult:
    """A reconstructed configuration plus the round-trip distance error."""

    config: PointConfiguration
    d: int
    residual: float

    def to_json_dict(self) -> dict:
        return {**self.config.to_json_dict(), "residual": self.residual}


def embed(r: DistanceVector, tol: float = 1e-10) -> EmbeddingResult:
    """Reconstruct points from distances by spectral factorization.

    Factor the reduced matrix M = Q diag(lambda) Q^T, keep the eigenvalues
    above tol * max(|lambda|, 1), and read points off the rows of
    sqrt(lambda/2) Q^T with the last point pinned at the origin.  The
    minimal embedding dimension is the count of retained eigenvalues.
    Exact vectors read M off the shared integer reduced matrix L M as
    doubles v / L, each rounded once, as float(Fraction) would; the
    residual reads given exact distances (p, q) as p / q the same way.  Distance
    vectors outside the cone are refused, with the smallest float eigenvalue
    attached to the error: exact vectors by the exact verdict that
    `cone_membership` reads, float vectors by that eigenvalue below -tol * max.
    """
    n = r.n
    if n == 1:
        return EmbeddingResult(PointConfiguration([()]), 0, 0.0)
    verdict = None
    if r.is_exact():
        rows, scale, (verdict, _) = _integer_reduced(r)
        try:
            m = np.array([[v / scale for v in row] for row in rows])
        except OverflowError:
            raise ValueError("matrix entry is not a finite double") from None
        if not m.all() and any(v and not v / scale for row in rows for v in row):
            raise ValueError("nonzero matrix entry underflows to 0.0 in doubles")
    else:
        m = np.array(_doubles(reduced_edm(r, n - 1).to_lists()))
    m = (m + m.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(m)
    thr = tol * max(float(np.max(np.abs(eigvals))), 1.0)
    min_eig = float(eigvals[0])
    outside = verdict == VERDICT_INDEFINITE if verdict else min_eig < -thr
    if outside:
        raise NotEmbeddableError(
            "distance vector lies outside the realizable cone "
            f"(eigenvalue {min_eig:.6g})",
            min_eig,
        )
    order = np.argsort(eigvals)[::-1]
    kept = [int(i) for i in order if float(eigvals[i]) > thr]
    d = len(kept)
    diffs = np.zeros((d, n - 1))
    for row, i in enumerate(kept):
        diffs[row] = math.sqrt(float(eigvals[i]) / 2.0) * eigvecs[:, i]
    points = [tuple(float(x) for x in diffs[:, col]) for col in range(n - 1)]
    points.append((0.0,) * d)
    given = [p / q for p, q in r.ratios] if r.ratios else [float(v) for v in r.values]
    scale = max(given, default=0.0) or 1.0
    residual = 0.0
    for (p, q), v in zip(combinations(points, 2), given):
        back = math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
        residual = max(residual, abs(back - v) / scale)
    return EmbeddingResult(PointConfiguration(points), d, residual)


def simplex_volume_sq(r: DistanceVector, tol: float = 1e-10):
    """Squared (n-1)-volume of the simplex with the given edge lengths.

    For exact vectors V^2 = det M / (2^(n-1) ((n-1)!)^2), read off the
    shared integer reduced matrix L M: 0 on the boundary, and
    det(L M) / L^(n-1) in the interior.  Float vectors divide the bordered
    squared-distance determinant by (-1)^n 2^(n-1) ((n-1)!)^2.  Distance
    vectors outside the realizable cone are refused.
    """
    n = r.n
    divisor = 2 ** (n - 1) * math.factorial(n - 1) ** 2
    if not r.is_exact():
        if cone_membership(r, tol) == MEMBER_OUTSIDE:
            raise NotEmbeddableError("no simplex realizes this distance vector", math.nan)
        return determinant(cayley_menger(r)) / ((-1) ** n * divisor)
    rows, scale, (verdict, _) = _integer_reduced(r)
    if verdict == VERDICT_INDEFINITE:
        raise NotEmbeddableError("no simplex realizes this distance vector", math.nan)
    if verdict == VERDICT_PSD:
        return 0
    return rational(exact.det(rows), scale ** (n - 1) * divisor)


def edm_quadratic_form(r: DistanceVector, x):
    """x^T D x where D is the squared-distance matrix."""
    x = list(x)
    if len(x) != r.n:
        raise DimensionMismatch("vector length must equal n")
    total = 0
    for p in r.space.pairs:
        total = total + 2 * r.sq(p.i, p.j) * x[p.i] * x[p.j]
    return total


def reduced_quadratic_form(r: DistanceVector, k: int, x):
    """x-hat^T M_k x-hat, dropping coordinate k of x."""
    x = list(x)
    if len(x) != r.n:
        raise DimensionMismatch("vector length must equal n")
    m = reduced_edm(r, k)
    others = [i for i in range(r.n) if i != k]
    total = 0
    for a, i in enumerate(others):
        for b, j in enumerate(others):
            total = total + m[a, b] * x[i] * x[j]
    return total


def mass_quadratic_form(alpha, x):
    """sum_i alpha_i x_i^2."""
    values = alpha_values(alpha)
    x = list(x)
    if len(x) != len(values):
        raise DimensionMismatch("vector length must equal n")
    total = 0
    for a, xi in zip(values, x):
        total = total + a * xi * xi
    return total


def gram_quadratic_form(cfg: PointConfiguration, x):
    """Squared norm of sum_i x_i p_i (the Gram form of the configuration)."""
    x = list(x)
    if len(x) != cfg.n:
        raise DimensionMismatch("vector length must equal n")
    total = 0
    for m in range(cfg.d):
        coord = 0
        for i in range(cfg.n):
            coord = coord + x[i] * cfg.points[i][m]
        total = total + coord * coord
    return total


def pair_products(x, n: int) -> list:
    """The pair-indexed vector (x_i * x_j) over the C(n,2) pairs."""
    x = list(x)
    if len(x) != n:
        raise DimensionMismatch("vector length must equal n")
    return [x[p.i] * x[p.j] for p in PairSpace(n).pairs]


def biquadratic_form(s: GenericEntryTable, t: GenericEntryTable, x, y):
    """Double pair sum of w entries weighted by x_i x_j y_k y_l."""
    if s.n != t.n:
        raise DimensionMismatch("both entry tables must have the same n")
    w = w_matrix(s, t)
    zx = pair_products(x, s.n)
    zy = pair_products(y, s.n)
    total = 0
    for a, row in enumerate(w.data):
        for b, entry in enumerate(row):
            total = total + entry * zx[a] * zy[b]
    return total


def nbody_quartic_form(alpha, r: DistanceVector, x):
    """Quartic pair form z^T B z with z the pair products of x."""
    b = nbody_matrix(alpha, r)
    z = pair_products(x, r.n)
    total = 0
    for a, row in enumerate(b.data):
        for c, entry in enumerate(row):
            total = total + entry * z[a] * z[c]
    return total
