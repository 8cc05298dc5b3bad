"""Matrix family constructions: entries, labels, and independent oracles."""

import json
import random
from fractions import Fraction

import pytest

from distgeom import (
    DimensionMismatch,
    DistanceVector,
    GenericEntryTable,
    Matrix,
    PairSpace,
    bordered,
    cayley_menger,
    distances,
    edm,
    exact,
    lift_reduced,
    nbody_matrix,
    reduced_edm,
    w_matrix,
)
from distgeom import sampling


def _random_distance_vector(rng, n):
    cfg = sampling.random_configuration(rng, n, n - 1)
    return distances(cfg)


class TestMatrix:
    def test_shape_and_indexing(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m[1, 0] == 3

    def test_symmetry(self):
        assert Matrix([[0, 5], [5, 0]]).is_symmetric()
        assert not Matrix([[0, 5], [4, 0]]).is_symmetric()
        assert not Matrix([[1, 2, 3], [4, 5, 6]]).is_symmetric()

    def test_matvec(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.matvec([1, -1]) == [-1, -1]
        with pytest.raises(DimensionMismatch):
            m.matvec([1, 2, 3])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2], [3]])

    def test_json_includes_labels(self):
        m = Matrix([[0, 1], [1, 0]], row_labels=["1", "2"], col_labels=["1", "2"])
        doc = m.to_json_dict()
        assert doc["rows"] == 2 and doc["cols"] == 2
        assert doc["labels"]["rows"] == ["1", "2"]
        assert doc["entries"] == [[0, 1], [1, 0]]
        json.dumps(doc)  # must be serializable as-is


class TestGenericEntryTable:
    def test_square_enforced(self):
        with pytest.raises(DimensionMismatch):
            GenericEntryTable([[1, 2]])

    def test_diagonal(self):
        t = GenericEntryTable.diagonal([5, 7])
        assert t.get(0, 0) == 5 and t.get(1, 1) == 7
        assert t.get(0, 1) == 0

    def test_json_roundtrip(self):
        t = GenericEntryTable([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        back = GenericEntryTable.from_json_dict(t.to_json_dict())
        assert back.entries == t.entries

    def test_from_json_validates_shape(self):
        with pytest.raises(Exception):
            GenericEntryTable.from_json_dict({"n": 2, "entries": [[0, 1]]})


class TestEdmAndBordered:
    def test_edm_squares_entries(self):
        m = edm(DistanceVector(3, [3, 7, 4]))
        assert m.to_lists() == [[0, 9, 49], [9, 0, 16], [49, 16, 0]]
        assert m.row_labels == ("1", "2", "3")

    def test_bordered_shape_and_corner(self):
        m = cayley_menger(DistanceVector(2, [2]))
        assert m.to_lists() == [[0, 4, 1], [4, 0, 1], [1, 1, 0]]
        assert m.row_labels == ("1", "2", "*")

    def test_frozen_three_point_determinant(self):
        # Unit triangle: value pinned by direct cofactor arithmetic.
        m = cayley_menger(DistanceVector(3, [1, 1, 1]))
        assert exact.det(m.to_lists()) == -3

    def test_right_triangle_determinant(self):
        m = cayley_menger(DistanceVector(3, [3, 4, 5]))
        assert exact.det(m.to_lists()) == -576


class TestReducedEdm:
    def test_equals_twice_gram_of_differences(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 6)
            cfg = sampling.random_configuration(rng, n, rng.randint(1, 3))
            r = distances(cfg)
            for k in range(n):
                m = reduced_edm(r, k)
                others = [i for i in range(n) if i != k]
                for a, i in enumerate(others):
                    for b, j in enumerate(others):
                        di = [x - y for x, y in zip(cfg.points[i], cfg.points[k])]
                        dj = [x - y for x, y in zip(cfg.points[j], cfg.points[k])]
                        gram = sum(x * y for x, y in zip(di, dj))
                        assert m[a, b] == 2 * gram

    def test_diagonal_and_symmetry(self):
        rng = random.Random(32)
        r = _random_distance_vector(rng, 5)
        m = reduced_edm(r, 2)
        assert m.is_symmetric()
        others = [0, 1, 3, 4]
        for a, i in enumerate(others):
            assert m[a, a] == 2 * r.sq(i, 2)
        assert m.row_labels == ("1", "2", "4", "5")

    def test_base_point_bounds(self):
        r = DistanceVector(3, [1, 1, 1])
        with pytest.raises(DimensionMismatch):
            reduced_edm(r, 3)
        with pytest.raises(DimensionMismatch):
            reduced_edm(r, -1)


class TestNBodyMatrix:
    def test_unit_example(self):
        m = nbody_matrix([1, 1, 1], DistanceVector(3, [1, 1, 1]))
        assert m.to_lists() == [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
        assert m.row_labels == ("1,2", "1,3", "2,3")

    def test_entry_rules(self):
        rng = random.Random(33)
        n = 5
        r = _random_distance_vector(rng, n)
        alpha = sampling.random_positive_alpha(rng, n)
        m = nbody_matrix(alpha, r)
        space = PairSpace(n)
        for a, p in enumerate(space.pairs):
            for b, q in enumerate(space.pairs):
                shared = {p.i, p.j} & {q.i, q.j}
                if p == q:
                    assert m[a, b] == 2 * (alpha[p.i] + alpha[p.j]) * r.sq(p.i, p.j)
                elif not shared:
                    assert m[a, b] == 0
                else:
                    (s,) = shared
                    u = ({p.i, p.j} - shared).pop()
                    v = ({q.i, q.j} - shared).pop()
                    assert m[a, b] == alpha[s] * (r.sq(s, u) + r.sq(s, v) - r.sq(u, v))

    def test_symmetric(self):
        rng = random.Random(34)
        for n in (3, 4, 5):
            r = _random_distance_vector(rng, n)
            alpha = sampling.random_positive_alpha(rng, n)
            assert nbody_matrix(alpha, r).is_symmetric()

    def test_mass_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            nbody_matrix([1, 1], DistanceVector(3, [1, 1, 1]))


class TestWMatrix:
    def test_entries_match_bordered_minor_products(self):
        # Independent oracle: each entry is the product of two 3 x 3
        # bordered determinants det [[s_ik, s_jk, 1], [s_il, s_jl, 1],
        # [1, 1, 0]] (and the same for t).
        rng = random.Random(35)
        n = 4
        s = sampling.random_entry_table(rng, n)
        t = sampling.random_entry_table(rng, n)
        w = w_matrix(s, t)
        space = PairSpace(n)
        for a, p in enumerate(space.pairs):
            for b, q in enumerate(space.pairs):
                i, j, k, l = p.i, p.j, q.i, q.j
                s_det = exact.det(
                    [[s.get(i, k), s.get(j, k), 1], [s.get(i, l), s.get(j, l), 1], [1, 1, 0]]
                )
                t_det = exact.det(
                    [[t.get(i, k), t.get(j, k), 1], [t.get(i, l), t.get(j, l), 1], [1, 1, 0]]
                )
                assert w[a, b] == s_det * t_det

    def test_representative_choice_does_not_matter(self):
        rng = random.Random(36)
        n = 4
        s = sampling.random_entry_table(rng, n)
        t = sampling.random_entry_table(rng, n)
        w = w_matrix(s, t)
        space = PairSpace(n)
        for a, p in enumerate(space.pairs):
            for b, q in enumerate(space.pairs):
                # Swap the row pair's representative from (i,j) to (j,i).
                i, j, k, l = p.j, p.i, q.i, q.j
                t_part = t.get(j, k) + t.get(i, l) - t.get(i, k) - t.get(j, l)
                s_part = s.get(j, k) + s.get(i, l) - s.get(i, k) - s.get(j, l)
                assert w[a, b] == t_part * s_part

    def test_table_sizes_must_match(self):
        with pytest.raises(DimensionMismatch):
            w_matrix(GenericEntryTable([[0]]), GenericEntryTable([[0, 1], [1, 0]]))


class TestLiftReduced:
    def test_placement(self):
        rng = random.Random(37)
        n, k = 4, 1
        r = _random_distance_vector(rng, n)
        mk = reduced_edm(r, k)
        lifted = lift_reduced(mk, n, k)
        space = PairSpace(n)
        assert lifted.shape == (space.size, space.size)
        others = [i for i in range(n) if i != k]
        # Pair rows touching k carry the reduced matrix; all else is zero.
        for a in range(space.size):
            for b in range(space.size):
                p, q = space.pairs[a], space.pairs[b]
                if k in (p.i, p.j) and k in (q.i, q.j):
                    i = p.i if p.j == k else p.j
                    j = q.i if q.j == k else q.j
                    assert lifted[a, b] == mk[others.index(i), others.index(j)]
                else:
                    assert lifted[a, b] == 0

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            lift_reduced(Matrix([[1]]), 4, 0)
