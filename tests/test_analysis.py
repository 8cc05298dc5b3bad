"""Determinants, definiteness, cone membership, embedding, volumes, forms."""

import math
import random
from fractions import Fraction

import pytest

from distgeom import (
    VERDICT_INDEFINITE,
    VERDICT_PD,
    VERDICT_PSD,
    DistanceVector,
    Matrix,
    NotEmbeddableError,
    PointConfiguration,
    affine_rank,
    cayley_menger,
    cone_membership,
    definiteness,
    determinant,
    distances,
    edm_quadratic_form,
    embed,
    exact,
    gram_quadratic_form,
    mass_quadratic_form,
    nbody_quartic_form,
    pair_products,
    reduced_quadratic_form,
    simplex_volume_sq,
)
from distgeom import sampling
from distgeom.analysis import biquadratic_form
from distgeom.builders import GenericEntryTable, nbody_matrix, reduced_edm


class TestDeterminant:
    def test_exact_and_float_agree(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            d_exact = determinant(Matrix(rows))
            d_float = determinant(Matrix([[float(v) for v in row] for row in rows]))
            assert d_float == pytest.approx(float(d_exact), rel=1e-9, abs=1e-9)

    def test_symbolic_dispatch(self):
        from distgeom.polys import VarTable, variables

        (x,) = variables(VarTable(["x"]))
        assert determinant(Matrix([[x, 1], [1, x]])) == x**2 - 1

    def test_non_square_rejected(self):
        with pytest.raises(Exception):
            determinant([[1, 2, 3], [4, 5, 6]])


class TestDefiniteness:
    def test_exact_classifications(self):
        cases = [
            ([[2, 1], [1, 2]], VERDICT_PD, 2),
            ([[1, 1], [1, 1]], VERDICT_PSD, 1),
            ([[1, 2], [2, 1]], VERDICT_INDEFINITE, 2),
            ([[0, 0], [0, 0]], VERDICT_PSD, 0),
            # A zero diagonal with off-diagonal coupling is indefinite even
            # though every leading principal minor is >= 0.
            ([[0, 0], [0, -1]], VERDICT_INDEFINITE, 1),
            ([[0, 1], [1, 0]], VERDICT_INDEFINITE, 2),
        ]
        for rows, verdict, rank in cases:
            report = definiteness(Matrix(rows))
            assert report.verdict == verdict, rows
            assert report.rank == rank, rows
            assert report.exact_regime

    def test_exact_verdict_without_a_double_eigenvalue(self):
        # Entries past the double range leave the informational float
        # eigenvalue out; the exact verdict is unaffected.
        for rows, verdict in [
            ([[10**400, 0], [0, 1]], VERDICT_PD),
            ([[1, Fraction(10**400, 3)], [Fraction(10**400, 3), 1]], VERDICT_INDEFINITE),
        ]:
            report = definiteness(Matrix(rows))
            assert report.verdict == verdict
            assert report.min_eigenvalue is None
        assert definiteness(Matrix([[2, 1], [1, 2]])).min_eigenvalue == pytest.approx(1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            definiteness(Matrix([[0, 1], [2, 0]]))
        with pytest.raises(ValueError):
            definiteness(Matrix([[0.0, 1.0], [2.0, 0.0]]))

    def test_float_agrees_with_exact_on_gram_matrices(self):
        rng = random.Random(42)
        for _ in range(10):
            n = rng.randint(2, 5)
            cfg = sampling.random_configuration(rng, n, n)
            gram = [
                [
                    sum(a * b for a, b in zip(cfg.points[i], cfg.points[j]))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            exact_report = definiteness(Matrix(gram))
            float_report = definiteness(
                Matrix([[float(v) for v in row] for row in gram])
            )
            assert float_report.verdict == exact_report.verdict

    def test_empty_matrix_is_definite(self):
        assert definiteness(Matrix([])).verdict == VERDICT_PD


class TestConeMembership:
    def test_anchor_triangles(self):
        assert cone_membership(DistanceVector(3, [1, 1, 1])) == "interior"
        assert cone_membership(DistanceVector(3, [1, 1, 2])) == "boundary"
        assert cone_membership(DistanceVector(3, [1, 1, 3])) == "outside"

    def test_single_point(self):
        assert cone_membership(DistanceVector(1, [])) == "interior"

    def test_verdict_is_base_point_independent(self):
        # The chosen base point is an implementation detail: all reduced
        # matrices must classify identically.
        rng = random.Random(43)
        vectors = [
            distances(sampling.random_nonsingular_configuration(rng, 4, 3)),
            DistanceVector(4, [1, 1, 1, 1, 1, 1]),
            DistanceVector(3, [1, 1, 2]),
            DistanceVector(3, [1, 1, 3]),
        ]
        for r in vectors:
            verdicts = set()
            for k in range(r.n):
                report = definiteness(reduced_edm(r, k))
                verdicts.add(report.verdict)
            assert len(verdicts) == 1

    def test_realizable_vectors_are_members(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(2, 6)
            cfg = sampling.random_configuration(rng, n, rng.randint(1, n - 1))
            assert cone_membership(distances(cfg)) in ("interior", "boundary")


class TestEmbed:
    def test_roundtrip_random_configurations(self):
        rng = random.Random(45)
        for _ in range(20):
            n = rng.randint(2, 7)
            d = rng.randint(1, min(4, n - 1))
            cfg = sampling.random_float_configuration(rng, n, d)
            r = distances(cfg)
            result = embed(r)
            assert result.residual <= 1e-9
            assert result.d <= d
            back = distances(result.config)
            for p in r.space.pairs:
                assert float(back.get(p.i, p.j)) == pytest.approx(
                    float(r.get(p.i, p.j)), rel=1e-7, abs=1e-7
                )

    def test_dimension_matches_affine_rank(self):
        rng = random.Random(46)
        for _ in range(10):
            cfg = sampling.random_full_rank_configuration(rng, 4, 2)
            result = embed(distances(cfg))
            assert result.d == affine_rank(cfg) == 2

    def test_degenerate_triangle_embeds_on_a_line(self):
        result = embed(DistanceVector(3, [1, 1, 2]))
        assert result.d == 1
        assert result.residual <= 1e-9

    def test_outside_vector_is_refused_with_eigenvalue(self):
        with pytest.raises(NotEmbeddableError) as info:
            embed(DistanceVector(3, [1, 1, 3]))
        assert info.value.min_eigenvalue < 0

    def test_trivial_cases(self):
        assert embed(DistanceVector(1, [])).d == 0
        coincident = embed(DistanceVector(3, [0, 0, 0]))
        assert coincident.d == 0
        assert coincident.residual == 0.0

    def test_result_json(self):
        doc = embed(DistanceVector(2, [1])).to_json_dict()
        assert doc["n"] == 2 and doc["d"] == 1
        assert doc["residual"] <= 1e-12


class TestSimplexVolume:
    def test_unit_triangle(self):
        assert simplex_volume_sq(DistanceVector(3, [1, 1, 1])) == Fraction(3, 16)

    def test_right_triangle_area(self):
        # Legs 3 and 4: area 6, squared 36.
        assert simplex_volume_sq(DistanceVector(3, [3, 5, 4])) == 36

    def test_unit_regular_tetrahedron(self):
        assert simplex_volume_sq(DistanceVector(4, [1] * 6)) == Fraction(1, 72)

    def test_segment_length(self):
        assert simplex_volume_sq(DistanceVector(2, [Fraction(5, 2)])) == Fraction(25, 4)

    def test_matches_gram_determinant(self):
        rng = random.Random(47)
        for _ in range(15):
            n = rng.randint(2, 5)
            cfg = sampling.random_configuration(rng, n, n - 1)
            gram = [
                [
                    sum(
                        (a - c) * (b - d)
                        for a, c, b, d in zip(
                            cfg.points[i],
                            cfg.points[n - 1],
                            cfg.points[j],
                            cfg.points[n - 1],
                        )
                    )
                    for j in range(n - 1)
                ]
                for i in range(n - 1)
            ]
            oracle = Fraction(exact.det(gram), math.factorial(n - 1) ** 2)
            assert simplex_volume_sq(distances(cfg)) == oracle

    def test_outside_vector_refused(self):
        with pytest.raises(NotEmbeddableError):
            simplex_volume_sq(DistanceVector(3, [1, 1, 3]))


class TestForms:
    def test_quartic_anchor(self):
        # Unit triangle, x = (1, -1, 0): z = (-1, 0, 0), z^T B z = B_00 = 4.
        value = nbody_quartic_form([1, 1, 1], DistanceVector(3, [1, 1, 1]), [1, -1, 0])
        assert value == 4

    def test_pair_products_order(self):
        assert pair_products([2, 3, 5], 3) == [6, 10, 15]

    def test_edm_form_vanishes_on_basis_vectors(self):
        r = DistanceVector(3, [1, 2, 3])
        assert edm_quadratic_form(r, [1, 0, 0]) == 0

    def test_forms_match_matrix_products(self):
        rng = random.Random(48)
        for _ in range(10):
            n = rng.randint(2, 5)
            cfg = sampling.random_configuration(rng, n, 2)
            r = distances(cfg)
            x = sampling.random_vector(rng, n)
            d_rows = [[r.sq(i, j) for j in range(n)] for i in range(n)]
            oracle = sum(
                d_rows[i][j] * x[i] * x[j] for i in range(n) for j in range(n)
            )
            assert edm_quadratic_form(r, x) == oracle
            k = rng.randrange(n)
            m = reduced_edm(r, k)
            others = [i for i in range(n) if i != k]
            oracle_k = sum(
                m[a, b] * x[i] * x[j]
                for a, i in enumerate(others)
                for b, j in enumerate(others)
            )
            assert reduced_quadratic_form(r, k, x) == oracle_k

    def test_mass_and_gram_forms(self):
        assert mass_quadratic_form([2, 3], [1, -1]) == 5
        cfg = PointConfiguration([(1, 0), (0, 1), (1, 1)])
        # x = (1, 1, -1): combination is (0, 0), so the form vanishes.
        assert gram_quadratic_form(cfg, [1, 1, -1]) == 0
        assert gram_quadratic_form(cfg, [1, 0, 0]) == 1

    def test_biquadratic_matches_quartic_specialization(self):
        rng = random.Random(49)
        n = 4
        cfg = sampling.random_configuration(rng, n, 3)
        r = distances(cfg)
        alpha = sampling.random_positive_alpha(rng, n)
        x = sampling.random_vector(rng, n)
        s = GenericEntryTable.from_distance_vector(r)
        t = GenericEntryTable.diagonal(list(alpha))
        assert biquadratic_form(s, t, x, x) == -nbody_quartic_form(alpha, r, x)

    def test_nbody_quartic_matches_matrix(self):
        rng = random.Random(50)
        for _ in range(10):
            n = rng.randint(2, 5)
            cfg = sampling.random_configuration(rng, n, 2)
            r = distances(cfg)
            alpha = sampling.random_positive_alpha(rng, n)
            x = sampling.random_vector(rng, n)
            z = pair_products(x, n)
            b = nbody_matrix(alpha, r)
            oracle = sum(
                b[a, c] * z[a] * z[c]
                for a in range(len(z))
                for c in range(len(z))
            )
            assert nbody_quartic_form(alpha, r, x) == oracle
