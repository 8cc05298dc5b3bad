"""Randomized and structural verification suites.

Each suite checks one family of identities or classifications on seeded
random samples and returns a result object with human-readable lines.
The command-line `verify` subcommand and the acceptance tests both run
these, so a (suite, seed, samples) triple always means the same checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact, sampling
from .analysis import (
    MEMBER_OUTSIDE,
    VERDICT_PD,
    biquadratic_form,
    cone_membership,
    edm_quadratic_form,
    embed,
    gram_quadratic_form,
    mass_quadratic_form,
    nbody_quartic_form,
    reduced_quadratic_form,
    simplex_volume_sq,
)
from .builders import (
    GenericEntryTable,
    bordered,
    cayley_menger,
    lift_reduced,
    nbody_matrix,
    reduced_edm,
)
from .core import (
    DistanceVector,
    NotEmbeddableError,
    PairSpace,
    PointConfiguration,
    affine_rank,
    distances,
    elementary_symmetric,
)
from .factorization import (
    annihilates,
    heron_check,
    kernel_witness,
    nbody_sigma_value,
    pair_table,
    sign_dictionary,
    specialized_w,
    symbolic_entry_table,
)
from .polys import poly_det


@dataclass
class SuiteResult:
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _result(name: str, failures: list[str], summary: str, checks: int) -> SuiteResult:
    """Fail on any failure, and also when the suite checked nothing."""
    if failures:
        return SuiteResult(name, False, failures)
    if checks <= 0:
        return SuiteResult(name, False, [f"{name}: no checks ran"])
    return SuiteResult(name, True, [summary])


def _require_points(n_max: int, least: int = 2):
    if n_max < least:
        raise ValueError(f"n_max must be at least {least}, got {n_max}")


def signs_suite(
    seed: int = 0, samples: int = 200, singular_samples: int = 50, n_max: int = 6
) -> SuiteResult:
    """Positivity of the interaction matrix and the exact sign ladder.

    For nonsingular configurations with positive mass parameters: the
    interaction matrix is exactly positive definite, and the exact values
    satisfy det B > 0, e_{n-1} > 0, (-1)^n delta > 0 and (-1)^n sigma > 0.
    Constructed singular configurations make det B exactly zero.
    """
    _require_points(n_max)
    rng = random.Random(seed)
    failures: list[str] = []
    ns = [n for n in range(2, n_max + 1)]
    for idx in range(samples):
        n = ns[idx % len(ns)]
        cfg = sampling.random_nonsingular_configuration(rng, n)
        r = distances(cfg)
        alpha = sampling.random_positive_alpha(rng, n)
        rows = nbody_matrix(alpha, r).to_lists()
        if exact.psd_verdict(rows)[0] != VERDICT_PD:
            failures.append(f"sample {idx}: n={n} interaction matrix not positive definite")
            continue
        det_b = exact.det(rows)
        delta = exact.det(cayley_menger(r).to_lists())
        e_val = elementary_symmetric(n - 1, alpha)
        sign = -1 if n % 2 else 1
        if not (det_b > 0 and e_val > 0 and sign * delta > 0):
            failures.append(f"sample {idx}: n={n} sign ladder failed")
            continue
        sigma = Fraction(det_b) / (Fraction(e_val) * Fraction(delta))
        if not sign * sigma > 0:
            failures.append(f"sample {idx}: n={n} quotient sign failed")
    for idx in range(singular_samples):
        n = ns[idx % len(ns)]
        cfg = sampling.random_singular_configuration(rng, n)
        r = distances(cfg)
        alpha = sampling.random_positive_alpha(rng, n)
        if exact.det(nbody_matrix(alpha, r).to_lists()) != 0:
            failures.append(f"singular sample {idx}: n={n} det B is not zero")
    return _result(
        "signs",
        failures,
        f"{samples} nonsingular + {singular_samples} singular samples over "
        f"n <= {n_max}: positive definite, sign ladder exact, singular "
        f"determinants vanish",
        samples + singular_samples,
    )


def cmdk_suite(seed: int = 0, samples: int = 100, n_max: int = 7) -> SuiteResult:
    """The bordered determinant equals (-1)^n times every reduced
    determinant, exactly, for every base point."""
    _require_points(n_max)
    rng = random.Random(seed)
    failures: list[str] = []
    checked = 0
    for n in range(2, n_max + 1):
        for idx in range(samples):
            cfg = sampling.random_configuration(rng, n, max(n - 1, 1))
            r = distances(cfg)
            delta = exact.det(cayley_menger(r).to_lists())
            sign = -1 if n % 2 else 1
            for k in range(n):
                reduced = exact.det(reduced_edm(r, k).to_lists())
                checked += 1
                if sign * reduced != delta:
                    failures.append(
                        f"n={n} sample {idx} base {k}: reduced determinant mismatch"
                    )
    return _result(
        "cmdk",
        failures,
        f"{checked} exact base-point reductions agree over n <= {n_max}",
        checked,
    )


def roundtrip_suite(
    seed: int = 0, samples: int = 100, n_max: int = 8, tol: float = 1e-9
) -> SuiteResult:
    """Spectral embedding reproduces distances and the affine rank.

    Also checks that the canonical non-realizable triple (1, 1, 3) is
    classified outside and refused by the embedding with a negative
    eigenvalue certificate.
    """
    _require_points(n_max)
    rng = random.Random(seed)
    failures: list[str] = []
    checked = 1  # the non-realizable triple below
    for idx in range(samples):
        n = rng.randint(2, n_max)
        d = rng.randint(1, min(n - 1, 4))
        cfg = sampling.random_float_configuration(rng, n, d)
        if affine_rank(cfg) != d:
            continue
        checked += 1
        result = embed(distances(cfg))
        if result.d != d:
            failures.append(f"sample {idx}: n={n} expected d={d}, got {result.d}")
            continue
        if result.residual > tol:
            failures.append(
                f"sample {idx}: n={n} residual {result.residual:.3e} > {tol:.0e}"
            )
    bad = DistanceVector(3, [1, 1, 3])
    if cone_membership(bad) != MEMBER_OUTSIDE:
        failures.append("triple (1,1,3) not classified outside")
    try:
        embed(bad)
        failures.append("triple (1,1,3) was embedded but is not realizable")
    except NotEmbeddableError as exc:
        if not exc.min_eigenvalue < 0:
            failures.append("refusal certificate lacks a negative eigenvalue")
    return _result(
        "roundtrip",
        failures,
        f"{samples} spectral round trips within {tol:.0e} over n <= {n_max}; "
        "non-realizable triple refused",
        checked,
    )


def _random_distance_entries(rng: random.Random, n: int) -> DistanceVector:
    """Arbitrary positive rational entries, not necessarily realizable."""
    size = PairSpace(n).size
    return DistanceVector(
        n, [Fraction(rng.randint(1, 9), rng.randint(1, 2)) for _ in range(size)]
    )


def forms_suite(seed: int = 0, samples: int = 100, tol: float = 1e-9) -> SuiteResult:
    """The quadratic, biquadratic and quartic form identities.

    On the zero-sum hyperplane: the squared-distance form equals minus
    every reduced form (any entries), and is nonpositive for realizable
    distances; the generalized biquadratic form splits as a product of two
    bilinear forms; the interaction quartic equals twice mass form times
    Gram form (exactly, and in floats to tolerance); the interaction
    matrix is the mass-weighted sum of lifted reduced matrices, both as
    matrices and as quadratic forms in arbitrary pair vectors.
    """
    rng = random.Random(seed)
    failures: list[str] = []

    for idx in range(samples):
        n = rng.randint(2, 5)
        r = _random_distance_entries(rng, n)
        x = sampling.random_hyperplane_vector(rng, n)
        q = edm_quadratic_form(r, x)
        for k in range(n):
            if q != -reduced_quadratic_form(r, k, x):
                failures.append(f"reduced-form sample {idx}: n={n} base {k} mismatch")
                break

    for idx in range(samples):
        n = rng.randint(2, 6)
        cfg = sampling.random_configuration(rng, n, max(n - 1, 1))
        x = sampling.random_hyperplane_vector(rng, n)
        if edm_quadratic_form(distances(cfg), x) > 0:
            failures.append(f"nonpositivity sample {idx}: n={n} positive value")

    for idx in range(samples):
        n = rng.randint(2, 4)
        s = sampling.random_entry_table(rng, n)
        t = sampling.random_entry_table(rng, n)
        x = sampling.random_hyperplane_vector(rng, n)
        y = sampling.random_hyperplane_vector(rng, n)
        lhs = biquadratic_form(s, t, x, y)
        xs = sum(x[i] * s.get(i, j) * y[j] for i in range(n) for j in range(n))
        xt = sum(x[i] * t.get(i, j) * y[j] for i in range(n) for j in range(n))
        if lhs != xs * xt:
            failures.append(f"biquadratic sample {idx}: n={n} split mismatch")

    for idx in range(samples):
        n = rng.randint(2, 5)
        cfg = sampling.random_configuration(rng, n, max(n - 1, 1))
        alpha = sampling.random_positive_alpha(rng, n)
        x = sampling.random_hyperplane_vector(rng, n)
        r = distances(cfg)
        lhs = nbody_quartic_form(alpha, r, x)
        rhs = 2 * mass_quadratic_form(alpha, x) * gram_quadratic_form(cfg, x)
        if lhs != rhs:
            failures.append(f"quartic sample {idx}: n={n} exact mismatch")
            continue
        f_cfg = [[float(v) for v in p] for p in cfg.points]
        f_alpha = [float(a) for a in alpha]
        f_x = [float(v) for v in x]
        fc = PointConfiguration(f_cfg)
        f_lhs = nbody_quartic_form(f_alpha, distances(fc), f_x)
        f_rhs = 2 * mass_quadratic_form(f_alpha, f_x) * gram_quadratic_form(fc, f_x)
        if abs(f_lhs - f_rhs) > tol * max(1.0, abs(f_lhs), abs(f_rhs)):
            failures.append(f"quartic sample {idx}: n={n} float mismatch")

    for idx in range(samples):
        n = rng.randint(2, 5)
        r = _random_distance_entries(rng, n)
        alpha = sampling.random_positive_alpha(rng, n)
        b = nbody_matrix(alpha, r)
        size = PairSpace(n).size
        total = [[0] * size for _ in range(size)]
        for k in range(n):
            lifted = lift_reduced(reduced_edm(r, k), n, k)
            for a in range(size):
                for c in range(size):
                    total[a][c] += alpha[k] * lifted[a, c]
        if any(
            total[a][c] != b[a, c] for a in range(size) for c in range(size)
        ):
            failures.append(f"lift sample {idx}: n={n} matrix sum mismatch")
            continue
        z = sampling.random_vector(rng, size)
        lhs = sum(
            b[a, c] * z[a] * z[c] for a in range(size) for c in range(size)
        )
        rhs = 0
        space = PairSpace(n)
        for k in range(n):
            mk = reduced_edm(r, k)
            others = [i for i in range(n) if i != k]
            zk = [z[space.index(i, k)] for i in others]
            rhs += alpha[k] * sum(
                mk[a, c] * zk[a] * zk[c]
                for a in range(len(others))
                for c in range(len(others))
            )
        if lhs != rhs:
            failures.append(f"lift sample {idx}: n={n} quadratic sum mismatch")

    return _result(
        "forms",
        failures,
        f"{samples} samples per identity family, all satisfied",
        5 * samples,
    )


def menger_suite(seed: int = 0, samples: int = 100, n_max: int = 6) -> SuiteResult:
    """Squared simplex volume from distances matches the Gram oracle.

    Both sides are exact rationals here, so agreement is exact; the unit
    equilateral triangle case pins the value 3/16.
    """
    _require_points(n_max)
    rng = random.Random(seed)
    failures: list[str] = []
    for idx in range(samples):
        n = rng.randint(2, n_max)
        cfg = sampling.random_nonsingular_configuration(rng, n)
        r = distances(cfg)
        vol_sq = simplex_volume_sq(r)
        base = cfg.points[-1]
        diffs = [
            [cfg.points[i][m] - base[m] for m in range(cfg.d)]
            for i in range(n - 1)
        ]
        gram = [
            [sum(a * b for a, b in zip(u, v)) for v in diffs] for u in diffs
        ]
        oracle = Fraction(exact.det(gram)) / math.factorial(n - 1) ** 2
        if vol_sq != oracle:
            failures.append(f"sample {idx}: n={n} volume mismatch")
    if simplex_volume_sq(DistanceVector(3, [1, 1, 1])) != Fraction(3, 16):
        failures.append("unit equilateral triangle volume is not 3/16")
    return _result(
        "menger",
        failures,
        f"{samples} exact volume agreements over n <= {n_max}; "
        "equilateral case pinned",
        samples + 1,
    )


def signdict_suite(seed: int = 0, samples: int = 25) -> SuiteResult:
    """Sign conventions of the generalized-to-interaction reduction.

    Symbolic for n <= 4 (entrywise negation, determinant sign, quotient
    sign); exact rational spot checks at random data for n = 5, 6.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    for n in (2, 3, 4):
        report = sign_dictionary(n)
        if not report.ok:
            failures.append(f"n={n}: symbolic sign dictionary failed: {report}")
    for n in (5, 6):
        for idx in range(samples):
            cfg = sampling.random_nonsingular_configuration(rng, n)
            r = distances(cfg)
            alpha = sampling.random_positive_alpha(rng, n)
            w, entrywise_ok = specialized_w(alpha, r)
            if not entrywise_ok:
                failures.append(f"n={n} sample {idx}: entrywise reduction failed")
                continue
            # det B = sigma * e * delta, so det W = (-1)^C(n,2) det B checks
            # both the determinant sign and the quotient sign.
            delta = exact.det(cayley_menger(r).to_lists())
            det_b = nbody_sigma_value(alpha, r) * elementary_symmetric(n - 1, alpha) * delta
            if exact.det(w.to_lists()) != (-1) ** PairSpace(n).size * det_b:
                failures.append(f"n={n} sample {idx}: determinant or quotient sign failed")
    return _result(
        "signdict",
        failures,
        "symbolic n <= 4 plus exact spot checks at n = 5, 6",
        3 + 2 * samples,
    )


def heron_suite() -> SuiteResult:
    report = heron_check()
    return SuiteResult("heron", report.ok, [report.detail])


def kernel_suite(seed: int = 0, samples: int = 20, n_max: int = 5) -> SuiteResult:
    """Kernel witnesses from singular tables annihilate the generalized
    matrix for arbitrary second tables, exactly."""
    _require_points(n_max, 3)
    rng = random.Random(seed)
    failures: list[str] = []
    for idx in range(samples):
        n = rng.randint(3, n_max)
        s = sampling.random_singular_entry_table(rng, n)
        try:
            z = kernel_witness(s)
        except ValueError:
            failures.append(f"sample {idx}: singular table refused")
            continue
        for _ in range(3):
            t = sampling.random_entry_table(rng, n)
            if not annihilates(s, t, z):
                failures.append(f"sample {idx}: witness fails to annihilate")
                break
    try:
        kernel_witness(
            GenericEntryTable.from_distance_vector(DistanceVector(3, [3, 4, 5]))
        )
        failures.append("nonsingular table accepted")
    except ValueError:
        pass
    return _result(
        "kernel",
        failures,
        f"{samples} singular tables annihilated; nonsingular refused",
        samples + 1,
    )


def content_suite(n_values=(2, 3, 4)) -> SuiteResult:
    """The bordered generic-table determinant has unit content."""
    failures: list[str] = []
    for n in n_values:
        det_cs = poly_det(bordered(symbolic_entry_table(pair_table(n), n, "s")))
        if det_cs.content() != 1:
            failures.append(f"n={n}: content {det_cs.content()} != 1")
    return _result(
        "content",
        failures,
        f"unit content for n in {tuple(n_values)}",
        len(n_values),
    )

