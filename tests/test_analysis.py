"""Determinants, definiteness, cone membership, embedding, volumes, forms."""

import json
import math
import random
import sys
import types
from fractions import Fraction
from itertools import combinations

import numpy
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

    def test_exact_verdict_without_an_underflowed_eigenvalue(self):
        # Nonzero entries of 1e-600 are 0.0 as doubles: the float eigenvalue
        # read 0.0 for this positive definite matrix.
        tiny = Fraction(1, 10**600)
        report = definiteness(reduced_edm(DistanceVector(3, [Fraction(1, 10**300)] * 3), 2))
        assert (report.verdict, report.rank, report.min_eigenvalue) == (VERDICT_PD, 2, None)
        assert definiteness(Matrix([[tiny, 0], [0, 1]])).min_eigenvalue is None
        assert definiteness(Matrix([[1, 0], [0, 0]])).min_eigenvalue == 0.0

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

    def test_residual_matches_a_distances_oracle(self):
        rng = random.Random(48)
        cases = [DistanceVector(3, [1, 1, 2]), DistanceVector(4, [1] * 6)]
        for _ in range(10):
            n = rng.randint(2, 6)
            d = rng.randint(1, n - 1)
            cases.append(distances(sampling.random_configuration(rng, n, d)))
            cases.append(distances(sampling.random_float_configuration(rng, n, d)))
            cases.append(DistanceVector(n, [rng.randint(1, 3) for _ in range(n * (n - 1) // 2)]))
        embedded = 0
        for r in cases:
            try:
                result = embed(r)
            except NotEmbeddableError:
                continue
            embedded += 1
            back = distances(result.config)
            scale = max(float(v) for v in r.values) or 1.0
            oracle = max(
                abs(float(back.get(p.i, p.j)) - float(r.get(p.i, p.j))) / scale
                for p in r.space.pairs
            )
            assert result.residual == oracle
        assert embedded >= 20

    def test_exact_residual_reads_given_distances_as_float_fractions(self):
        # Near-regular simplices with repeated vertices: interior and boundary
        # vectors with rational distances p/q, each read as float(Fraction).
        rng = random.Random(1403)
        for _ in range(60):
            n = rng.randint(2, 10)
            rank = rng.randint(1, n - 1)
            edges = {pair: Fraction(1000 + rng.randint(-10, 10), 1000)
                     for pair in combinations(range(rank + 1), 2)}
            vertex = list(range(rank + 1)) + [rng.randrange(rank + 1) for _ in range(n - rank - 1)]
            rng.shuffle(vertex)
            pairs = list(combinations(range(n), 2))
            dist = [edges.get(tuple(sorted((vertex[i], vertex[j]))), Fraction(0)) for i, j in pairs]
            doc = {"n": n, "r": {f"{i + 1},{j + 1}": f"{v.numerator}/{v.denominator}"
                                 for (i, j), v in zip(pairs, dist)}}
            result = embed(DistanceVector.from_json(json.dumps(doc)))
            assert result.d == rank
            given = [float(v) for v in dist]
            scale = max(given) or 1.0
            oracle = 0.0
            for (p, q), v in zip(combinations(result.config.points, 2), given):
                back = math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
                oracle = max(oracle, abs(back - v) / scale)
            assert result.residual.hex() == oracle.hex()

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


def _fraction_det(rows) -> Fraction:
    """Gaussian elimination over Fractions (oracle, shares no code with exact)."""
    m = [[Fraction(v) for v in row] for row in rows]
    value = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            value = -value
        value *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return value


def _rational_points(rng, n, rank):
    """n rational points in Q^(n-1) whose affine span has dimension <= rank."""
    dim = max(n - 1, 1)
    basis = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)]
             for _ in range(rank)]
    base = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)]
    points = []
    for _ in range(n):
        coef = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank)]
        points.append([base[m] + sum(c * b[m] for c, b in zip(coef, basis))
                       for m in range(dim)])
    return points


def _gram_volume_sq(points) -> Fraction:
    """det(edge Gram matrix) / ((n-1)!)^2, edges taken from the first point."""
    n = len(points)
    edges = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in edges] for u in edges]
    return _fraction_det(gram) / math.factorial(n - 1) ** 2


def _squared_distances(points):
    n = len(points)
    return [
        sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]


class TestSharedIntegerReducedMatrix:
    """One integer reduced matrix and one PSD elimination per exact vector."""

    def _count(self, monkeypatch, owner, name, calls):
        plain = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return plain(*args, **kwargs)

        # Patch every distgeom module that holds the function by name.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("distgeom") and (
                vars(module).get(name) is plain
            ):
                monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize(
        "doc, label",
        [
            ('{"n": 4, "r": {"1,2": 1, "1,3": 1, "1,4": 1, "2,3": 1, "2,4": 1, '
             '"3,4": "11/10"}}', "interior"),
            ('{"n": 4, "r": {"1,2": 1, "1,3": 2, "1,4": "1/2", "2,3": 1, "2,4": "1/2", '
             '"3,4": "3/2"}}', "boundary"),
            ('{"n": 4, "r": {"1,2": 1, "1,3": 1, "1,4": 1, "2,3": 1, "2,4": 1, '
             '"3,4": "5/2"}}', "outside"),
        ],
    )
    def test_one_elimination_per_request(self, monkeypatch, doc, label):
        from distgeom import builders

        calls = dict.fromkeys(("psd_verdict", "det", "reduced_edm"), 0)
        self._count(monkeypatch, exact, "psd_verdict", calls)
        self._count(monkeypatch, exact, "det", calls)
        self._count(monkeypatch, builders, "reduced_edm", calls)
        r = DistanceVector.from_json(doc)
        assert cone_membership(r) == label
        if label != "outside":
            embed(r)
            # Five unit edges and one edge e: V^2 = e^2 (3 - e^2) / 144.
            e2 = Fraction(121, 100)
            volume = e2 * (3 - e2) / 144 if label == "interior" else 0
            assert simplex_volume_sq(r) == volume
        assert calls == {
            "psd_verdict": 1,
            "det": 1 if label == "interior" else 0,
            "reduced_edm": 1,
        }

    def test_volume_matches_gram_oracle(self):
        rng = random.Random(71)
        for n in range(1, 8):
            for rank in range(n):
                for _ in range(3):
                    points = _rational_points(rng, n, rank)
                    r = DistanceVector.from_squared(n, _squared_distances(points))
                    oracle = _gram_volume_sq(points)
                    assert simplex_volume_sq(r) == oracle
                    assert type(simplex_volume_sq(r)) is (
                        int if oracle.denominator == 1 else Fraction
                    )
                    expected = "interior" if oracle else "boundary"
                    assert cone_membership(r) == expected

    def test_outside_vectors_are_refused(self):
        rng = random.Random(72)
        for n in range(3, 8):
            sq = _squared_distances(_rational_points(rng, n, n - 1))
            # sq_12 past (r_13 + r_23)^2 <= 4 max(sq_13, sq_23) breaks the
            # triangle inequality on the first three points.
            sq[0] = 4 * max(sq[1], sq[n - 1]) + 1
            r = DistanceVector.from_squared(n, sq)
            assert cone_membership(r) == "outside"
            with pytest.raises(NotEmbeddableError):
                simplex_volume_sq(r)

    def test_embed_doubles_equal_float_of_fraction_entries(self, monkeypatch):
        from distgeom import analysis

        seen = []

        class Spy:
            def __getattr__(self, name):
                return getattr(numpy, name)

        spy = Spy()
        spy.linalg = types.SimpleNamespace(
            eigh=lambda a: seen.append(a.copy()) or numpy.linalg.eigh(a)
        )
        monkeypatch.setattr(analysis, "np", spy)
        rng = random.Random(73)
        for n in range(2, 8):
            points = _rational_points(rng, n, n - 1)
            points = [[x + Fraction(10**20 + 1, 3 * 7**k) for x in p]
                      for k, p in enumerate(points)]
            r = DistanceVector.from_squared(n, _squared_distances(points))
            embed(r)
            expected = numpy.array(
                [[float(Fraction(v)) for v in row]
                 for row in reduced_edm(r, n - 1).to_lists()]
            )
            assert seen[-1].tobytes() == expected.tobytes()


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
