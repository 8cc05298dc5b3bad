"""Domain-type tests: pair indexing, distances, configurations, masses."""

import inspect
import json
import math
import random
import re
import time
import types
from fractions import Fraction
from itertools import combinations

import pytest

from distgeom import (
    DimensionMismatch,
    DistanceVector,
    InputFormatError,
    MassParams,
    PairIndex,
    PairSpace,
    PointConfiguration,
    affine_rank,
    distances,
    elementary_symmetric,
    is_singular,
)
from distgeom import sampling
from distgeom.scalars import MAX_EXPONENT, parse_ratio


class TestPairIndex:
    def test_canonicalizes_order(self):
        assert PairIndex(2, 0) == PairIndex(0, 2)
        assert PairIndex(2, 0).i == 0
        assert PairIndex(2, 0).j == 2

    def test_rejects_equal_and_negative(self):
        with pytest.raises(ValueError):
            PairIndex(1, 1)
        with pytest.raises(ValueError):
            PairIndex(-1, 2)

    def test_label_is_one_based(self):
        assert PairIndex(0, 1).label == "1,2"
        assert PairIndex(2, 4).label == "3,5"

    def test_sorts_lexicographically(self):
        pairs = [PairIndex(1, 2), PairIndex(0, 2), PairIndex(0, 1)]
        assert sorted(pairs) == [PairIndex(0, 1), PairIndex(0, 2), PairIndex(1, 2)]


class TestPairSpace:
    def test_enumeration_matches_combinations(self):
        for n in range(1, 9):
            space = PairSpace(n)
            expected = [PairIndex(i, j) for i, j in combinations(range(n), 2)]
            assert list(space.pairs) == expected
            assert space.size == n * (n - 1) // 2

    def test_rank_matches_pair_order(self):
        space = PairSpace(7)
        for k, pair in enumerate(space.pairs):
            assert space.rank(pair) == k

    def test_rank_rejects_foreign_pair(self):
        with pytest.raises(ValueError):
            PairSpace(3).rank(PairIndex(0, 5))


class TestDistanceVector:
    def test_from_sequence_in_pair_order(self):
        r = DistanceVector(3, [3, 7, 4])
        assert r.get(0, 1) == 3
        assert r.get(1, 0) == 3
        assert r.get(2, 1) == 4
        assert r.sq(0, 2) == 49
        assert r.get(1, 1) == 0
        assert r.sq(2, 2) == 0

    def test_from_mapping(self):
        r = DistanceVector(3, {(1, 0): 3, (0, 2): 7, (2, 1): 4})
        assert r.values == (3, 7, 4)

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            DistanceVector(3, [1, 2])
        with pytest.raises(DimensionMismatch):
            DistanceVector(3, {(0, 1): 1})

    def test_mapping_with_a_pair_twice_rejected(self):
        with pytest.raises(InputFormatError):
            DistanceVector(3, {(0, 1): 1, (1, 0): 2, (0, 2): 1})
        with pytest.raises(InputFormatError):
            DistanceVector(3, {PairIndex(0, 1): 1, (1, 0): 2, (1, 2): 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistanceVector(2, [-1])
        with pytest.raises(ValueError):
            DistanceVector.from_squared(2, [Fraction(-1, 2)])

    def test_exact_squares_from_rational_distances(self):
        r = DistanceVector(2, [Fraction(3, 2)])
        assert r.sq(0, 1) == Fraction(9, 4)

    def test_exact_root_recovered_from_perfect_square(self):
        r = DistanceVector.from_squared(2, [Fraction(9, 4)])
        assert r.get(0, 1) == Fraction(3, 2)

    def test_irrational_root_falls_back_to_float(self):
        r = DistanceVector.from_squared(2, [2])
        assert r.get(0, 1) == pytest.approx(math.sqrt(2))
        assert r.sq(0, 1) == 2

    def test_json_roundtrip_exact(self):
        r = DistanceVector(3, [Fraction(1, 3), 2, Fraction(7, 2)])
        doc = json.loads(r.to_json())
        assert doc["r"]["1,2"] == "1/3"
        assert doc["r"]["1,3"] == 2
        back = DistanceVector.from_json(r.to_json())
        assert back == r

    def test_json_rejects_bad_labels(self):
        with pytest.raises(InputFormatError):
            DistanceVector.from_json_dict({"n": 3, "r": {"1,2": 1, "1,4": 1, "2,3": 1}})
        with pytest.raises(InputFormatError):
            DistanceVector.from_json_dict({"n": 2, "r": {"nope": 1}})

    def test_json_decimal_is_exact_in_exact_mode(self):
        back = DistanceVector.from_json('{"n": 2, "r": {"1,2": 0.1}}', exact=True)
        assert back.get(0, 1) == Fraction(1, 10)


def _literal(rng) -> str:
    """A seeded numeric literal of any form Fraction(str) knows, or nearly."""
    digits = lambda: "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 4)))
    body = rng.choice([
        digits(),
        digits() + "/" + digits(),
        digits() + "." + digits(),
        digits() + rng.choice([".", ""]) + digits() + rng.choice("eE")
        + rng.choice(["", "+", "-"]) + digits(),
        digits() + "_" + digits(),
        "".join(rng.choice("0123456789+-/.eE_ \u0663\uff13") for _ in range(rng.randint(1, 6))),
    ])
    pad = lambda: rng.choice(["", " ", "\t", "\n "])
    return pad() + rng.choice(["", "+", "-"]) + body + pad()


def _exponent(text) -> int:
    """Magnitude of the digits after a literal's last e/E, underscores
    dropped; 0 when it has none."""
    tail = re.search(r"[eE][+-]?([\d_]+)\s*$", text)
    digits = tail.group(1).replace("_", "") if tail else ""
    return int(digits) if digits else 0


def _fraction_or_none(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


class TestExactInput:
    """Exact literals become reduced (num, den) pairs and vectors ints over L."""

    def test_parser_matches_fraction_on_this_interpreter(self):
        rng = random.Random(1401)
        accepted = 0
        for _ in range(20000):
            text = _literal(rng)
            if _exponent(text) > MAX_EXPONENT:
                with pytest.raises(ValueError, match="exponent"):
                    parse_ratio(text)
                continue
            want = _fraction_or_none(text)
            if want is None:
                with pytest.raises(ValueError, match="not a number"):
                    parse_ratio(text)
                continue
            accepted += 1
            num, den = parse_ratio(text)
            assert (type(num), type(den)) == (int, int)
            assert (num, den) == (want.numerator, want.denominator), text
        assert accepted > 5000

    @pytest.mark.parametrize("text", ["1/0", "", "/", "1/-2", "nan", "inf", "1e", "--1"])
    def test_parser_refusals(self, text):
        with pytest.raises(ValueError, match="not a number"):
            parse_ratio(text)

    @pytest.mark.parametrize(
        "text", ["1e4301", "-2.5E-4301", "1e10000000", "1_0e1_000_000_0", "\uff11e10000000"]
    )
    def test_exponents_past_the_limit_are_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            parse_ratio(text)
        assert time.perf_counter() - start < 1.0

    def test_exponents_up_to_the_limit_are_exact(self):
        assert parse_ratio("1e200") == (10**200, 1)
        assert parse_ratio(f"-3e-{MAX_EXPONENT}") == (-3, 10**MAX_EXPONENT)

    @pytest.mark.parametrize(
        "text, pair",
        [("7", (7, 1)), (" -3/4 ", (-3, 4)), ("0.25", (1, 4)), ("1e-3", (1, 1000)),
         ("+06/4", (3, 2)), ("-0", (0, 1)), ("2.5E2", (250, 1)), (".5", (1, 2))],
    )
    def test_parser_forms(self, text, pair):
        assert parse_ratio(text) == pair

    def test_from_json_keeps_ints_over_one_denominator(self):
        r = DistanceVector.from_json('{"n": 3, "r": {"1,2": "1/2", "2,3": 1, "1,3": "2/6"}}')
        assert r.ratios == ((1, 2), (1, 3), (1, 1))
        assert r.scaled_squares == (36, (9, 4, 36))
        assert r.integral().squared_values == (9, 4, 36)

    def test_from_json_matches_fraction_vectors(self):
        rng = random.Random(1402)
        for _ in range(200):
            n = rng.randint(1, 12)
            literals, raw = [], []
            for _ in range(n * (n - 1) // 2):
                form = rng.randrange(5)
                num, den = rng.randint(0, 2000), rng.choice([1, 1, 2, 7, 1000])
                text = [str(num), f"{num}/{den}", f"{num / 8}", f"{num}e-3", f"+{num}"][form]
                literals.append(text)
                # JSON ints and decimal literals go unquoted half of the time.
                raw.append(text if form in (0, 2) and rng.random() < 0.5 else json.dumps(text))
            labels = [f"{i + 1},{j + 1}" for i, j in combinations(range(n), 2)]
            body = ", ".join(f'"{label}": {v}' for label, v in zip(labels, raw))
            got = DistanceVector.from_json(f'{{"n": {n}, "r": {{{body}}}}}')
            want = DistanceVector(n, [Fraction(s) for s in literals])
            for attr in ("squared_values", "values"):
                assert getattr(got, attr) == getattr(want, attr)
                assert [type(v) for v in getattr(got, attr)] == [
                    type(v) for v in getattr(want, attr)
                ]
            for i in range(n):
                for j in range(n):
                    assert got.get(i, j) == want.get(i, j)
                    assert type(got.get(i, j)) is type(want.get(i, j))
            assert got.to_json() == want.to_json()
            assert got == want and hash(got) == hash(want)
            assert got.is_exact() and want.is_exact()


class TestPointConfiguration:
    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatch):
            PointConfiguration([(0, 0), (1,)])

    def test_json_roundtrip(self):
        cfg = PointConfiguration([(Fraction(1, 2), 0), (1, 1)])
        back = PointConfiguration.from_json(cfg.to_json())
        assert back == cfg
        assert back.points[0][0] == Fraction(1, 2)

    def test_json_requires_matching_counts(self):
        with pytest.raises(InputFormatError):
            PointConfiguration.from_json_dict({"n": 2, "d": 1, "points": [[0]]})
        with pytest.raises(InputFormatError):
            PointConfiguration.from_json_dict({"n": 1, "d": 2, "points": [[0]]})

    def test_transformed_applies_map_and_shift(self):
        cfg = PointConfiguration([(1, 0), (0, 1)])
        rotated = cfg.transformed([(0, -1), (1, 0)], (10, 0))
        assert rotated.points == ((10, 1), (9, 0))


class TestDistances:
    def test_collinear_integer_points_give_exact_distances(self):
        cfg = PointConfiguration([(0,), (3,), (7,)])
        assert distances(cfg).values == (3, 7, 4)

    def test_matches_bruteforce_norms(self):
        rng = random.Random(20250815)
        for _ in range(25):
            n = rng.randint(2, 6)
            d = rng.randint(1, 4)
            cfg = sampling.random_configuration(rng, n, d)
            r = distances(cfg)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = sum(
                        (a - b) ** 2 for a, b in zip(cfg.points[i], cfg.points[j])
                    )
                    assert r.sq(i, j) == expected

    def test_rigid_motion_preserves_distances_exactly(self):
        # Rational rotation from the (3,4,5) triple, plus a translation.
        rng = random.Random(7)
        rot = [
            (Fraction(3, 5), Fraction(-4, 5)),
            (Fraction(4, 5), Fraction(3, 5)),
        ]
        for _ in range(20):
            cfg = sampling.random_configuration(rng, 5, 2)
            moved = cfg.transformed(rot, (Fraction(9, 7), -3))
            assert distances(moved) == distances(cfg)

    def test_permuting_coordinates_preserves_distances(self):
        rng = random.Random(8)
        perm = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
        for _ in range(10):
            cfg = sampling.random_configuration(rng, 4, 3)
            assert distances(cfg.transformed(perm)) == distances(cfg)


class TestSingularity:
    def test_coplanar_points_in_three_space(self):
        cfg = PointConfiguration(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        )
        assert affine_rank(cfg) == 2
        assert is_singular(cfg)

    def test_simplex_is_nonsingular(self):
        cfg = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        assert not is_singular(cfg)

    def test_single_point_is_nonsingular(self):
        assert not is_singular(PointConfiguration([(5, 5)]))

    def test_two_coincident_points_are_singular(self):
        cfg = PointConfiguration([(1, 2), (1, 2)])
        assert is_singular(cfg)

    def test_float_rank_uses_relative_threshold(self):
        cfg = PointConfiguration(
            [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-14)]
        )
        assert is_singular(cfg)

    def test_embedding_dimension_bound(self):
        # Four points in the plane always lie in a 2-dimensional span.
        rng = random.Random(11)
        for _ in range(10):
            cfg = sampling.random_configuration(rng, 4, 2)
            assert affine_rank(cfg) <= 2
            assert is_singular(cfg)


class TestElementarySymmetric:
    def test_frozen_value(self):
        # Oracle: 2*3 + 2*5 + 3*5 = 31.
        assert elementary_symmetric(2, [2, 3, 5]) == 31

    def test_matches_subset_enumeration(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 7)
            values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for k in range(n + 1):
                oracle = sum(
                    math.prod(combo) for combo in combinations(values, k)
                )
                assert elementary_symmetric(k, values) == oracle

    def test_bounds(self):
        assert elementary_symmetric(0, [4, 5]) == 1
        with pytest.raises(ValueError):
            elementary_symmetric(3, [4, 5])
        with pytest.raises(ValueError):
            elementary_symmetric(-1, [4, 5])


class TestMassParams:
    def test_from_masses_is_exact_inverse(self):
        params = MassParams.from_masses([2, Fraction(1, 3), 5])
        assert params.alpha == (Fraction(1, 2), 3, Fraction(1, 5))
        for m, a in zip([2, Fraction(1, 3), 5], params.alpha):
            assert m * a == 1

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            MassParams.from_masses([1, 0])

    def test_needs_entries(self):
        with pytest.raises(DimensionMismatch):
            MassParams(())


class TestPublicNames:
    def test_star_import_binds_exactly_all_and_no_module(self):
        import distgeom

        namespace = {}
        exec("from distgeom import *", namespace)
        namespace.pop("__builtins__")
        assert namespace and sorted(namespace) == sorted(distgeom.__all__)
        assert not [v for v in namespace.values() if isinstance(v, types.ModuleType)]

    def test_removed_names_are_gone(self):
        import distgeom
        from distgeom import Matrix, sign_dictionary, suites

        assert not hasattr(distgeom, "w_matches_minus_nbody")
        assert not hasattr(distgeom.factorization, "w_matches_minus_nbody")
        for name in ("row", "transpose", "map"):
            assert not hasattr(Matrix, name)
        assert not hasattr(PairSpace, "unrank")
        assert "long_running" not in inspect.signature(sign_dictionary).parameters
        assert "tol" not in inspect.signature(suites.signs_suite).parameters
