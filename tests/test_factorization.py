"""Symbolic determinant splits, sign conventions, and kernel witnesses."""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from distgeom import (
    DistanceVector,
    GenericEntryTable,
    ResourceCapError,
    annihilates,
    distances,
    factor_nbody,
    factor_w,
    heron_check,
    kernel_witness,
    nbody_sigma_value,
    sign_dictionary,
    symbolic_cm_det,
    symbolic_nbody_det,
)
from distgeom import polys, sampling
from distgeom.core import VerificationError
from distgeom.factorization import (
    _certified_split,
    distance_table,
    mass_distance_table,
    pair_table,
    specialize_to_masses_and_distances,
    specialized_w,
    symbolic_bordered_masses_det,
)
from distgeom.polys import SparsePoly, VarTable

GOLDENS = Path(__file__).parent / "goldens" / "v1"


def _golden(name: str) -> str:
    return (GOLDENS / name).read_text().strip()


class TestVariableTables:
    def test_layouts(self):
        assert mass_distance_table(3).names == (
            "a_1", "a_2", "a_3", "r_1_2", "r_1_3", "r_2_3",
        )
        assert mass_distance_table(3, equal_masses=True).names == (
            "a", "r_1_2", "r_1_3", "r_2_3",
        )
        assert distance_table(3).names == ("r_1_2", "r_1_3", "r_2_3")
        assert pair_table(2).names == (
            "s_1_1", "s_1_2", "s_2_1", "s_2_2",
            "t_1_1", "t_1_2", "t_2_1", "t_2_2",
        )


class TestSymbolicDeterminants:
    def test_two_point_bordered(self):
        assert symbolic_cm_det(2).to_text() == "2 * r_1_2"

    def test_three_point_bordered_is_the_six_term_polynomial(self):
        delta = symbolic_cm_det(3)
        table = delta.table
        r12, r13, r23 = (SparsePoly.variable(table, v) for v in table.names)
        expected = (
            r12**2 + r13**2 + r23**2
            - 2 * r12 * r13 - 2 * r12 * r23 - 2 * r13 * r23
        )
        assert delta == expected
        assert len(delta.terms) == 6

    def test_bordered_det_evaluates_to_frozen_anchors(self):
        delta = symbolic_cm_det(3)
        assert delta.evaluate({"r_1_2": 1, "r_1_3": 1, "r_2_3": 1}) == -3
        assert delta.evaluate({"r_1_2": 9, "r_1_3": 25, "r_2_3": 16}) == -576

    def test_bordered_det_is_homogeneous(self):
        for n in (2, 3, 4):
            delta = symbolic_cm_det(n)
            assert delta.degrees_in(range(len(delta.table))) == {n - 1}

    def test_interaction_det_is_bihomogeneous(self):
        for n in (2, 3, 4):
            table = mass_distance_table(n)
            det = symbolic_nbody_det(n, table=table)
            pairs = n * (n - 1) // 2
            assert det.degrees_in(range(n)) == {pairs}
            assert det.degrees_in(range(n, len(table))) == {pairs}

    def test_bordered_mass_det_is_minus_elementary_symmetric(self):
        # Independent oracle: -e_{n-1} expanded from subsets directly.
        from itertools import combinations
        from math import prod

        for n in (2, 3, 4, 5):
            det = symbolic_bordered_masses_det(n)
            table = det.table
            alphas = [SparsePoly.variable(table, f"a_{i + 1}") for i in range(n)]
            oracle = SparsePoly.zero(table)
            for combo in combinations(alphas, n - 1):
                oracle = oracle + prod(combo)
            assert det == -oracle


class TestFactorNBody:
    def test_two_bodies(self):
        cert = factor_nbody(2)
        assert cert.verified
        assert cert.quotient == 1
        e, delta = cert.factors
        assert e.to_text() == "1 * a_1 + 1 * a_2"
        assert delta.to_text() == "2 * r_1_2"

    def test_three_bodies_quotient(self):
        cert = factor_nbody(3)
        assert cert.verified
        assert cert.quotient.to_text() == (
            "-2 * a_1 * r_2_3 + -2 * a_2 * r_1_3 + -2 * a_3 * r_1_2"
        )

    def test_product_reassembles_determinant(self):
        for n in (2, 3, 4):
            cert = factor_nbody(n)
            product = cert.quotient
            for factor in cert.factors:
                product = product * factor
            assert product == cert.lhs

    def test_quotient_uses_both_variable_classes(self):
        for n in (3, 4):
            cert = factor_nbody(n)
            used = cert.quotient.used_vars()
            assert used & set(range(n)), "no mass variable appears"
            assert used & set(range(n, len(cert.lhs.table))), "no distance variable appears"

    def test_quotient_bidegree(self):
        # deg(lhs) = (p, p) with p = C(n,2); the split removes degree
        # (n-1, 0) and (0, n-1), so the quotient has bidegree (p-n+1, p-n+1).
        for n in (3, 4):
            cert = factor_nbody(n)
            pairs = n * (n - 1) // 2
            assert cert.quotient.degrees_in(range(n)) == {pairs - n + 1}
            assert cert.quotient.degrees_in(
                range(n, len(cert.lhs.table))
            ) == {pairs - n + 1}

    def test_equal_masses(self):
        cert = factor_nbody(3, equal_masses=True)
        assert cert.verified
        e, delta = cert.factors
        assert e.to_text() == "3 * a^2"
        assert cert.quotient.evaluate({"a": 1, "r_1_2": 1, "r_1_3": 1, "r_2_3": 1}) == -6

    def test_golden_quotients(self):
        assert factor_nbody(2).quotient.to_text() == _golden("sigma_n2.txt")
        assert factor_nbody(3).quotient.to_text() == _golden("sigma_n3.txt")
        assert factor_nbody(4).quotient.to_text() == _golden("sigma_n4.txt")

    def test_certificate_json(self):
        doc = factor_nbody(2).to_json_dict()
        assert doc["family"] == "nbody" and doc["n"] == 2
        assert doc["vars"] == ["a_1", "a_2", "r_1_2"]
        assert doc["quotient"] == "1"
        assert doc["verified"] is True
        assert len(doc["factors"]) == 2


def _random_terms(rng, nvars, size, max_exp, max_coeff):
    terms = {}
    while len(terms) < size:
        exp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exp] = rng.choice([-1, 1]) * rng.randint(1, max_coeff)
    return terms


@pytest.fixture(scope="module")
def packed_case():
    """An integer lhs = f1 * f2 * q that int64 arrays hold: f1 has one
    term, f2 has 40."""
    table = VarTable(["w", "x", "y", "z"])
    rng = random.Random(2024)
    f1 = SparsePoly(table, {(2, 0, 1, 0): -3})
    f2 = SparsePoly(table, _random_terms(rng, 4, 40, 4, 9))
    q = SparsePoly(table, _random_terms(rng, 4, 1000, 25, 99))
    lhs = f1 * f2 * q
    assert polys._int64_layout([[lhs]]) is not None
    return lhs, f1, f2, q


def _packed(lhs):
    """lhs on int64 arrays in its own layout, as det B reaches divide_out."""
    layout = polys._int64_layout([[lhs]])
    return polys._PackedPoly(lhs.table, layout, layout.pack(lhs.terms))


def _split(lhs, factors):
    try:
        return _certified_split("test", 0, lhs, factors)
    except VerificationError as exc:
        return str(exc)


def _accumulate_calls(monkeypatch) -> list:
    """Record each int64 accumulate call: a re-multiplication on the arrays."""
    calls = []
    step = polys._Int64Layout.accumulate
    monkeypatch.setattr(
        polys._Int64Layout, "accumulate", staticmethod(lambda p: calls.append(1) or step(p))
    )
    return calls


def _both_paths(monkeypatch, lhs, factors):
    """The certificate or error text on the int64 route (lhs packed, if it
    is not already) and on the dict route (lhs as a plain SparsePoly), and
    the number of int64 accumulate calls the int64 route made."""
    with monkeypatch.context() as patch:
        calls = _accumulate_calls(patch)
        packed = _split(lhs if type(lhs) is polys._PackedPoly else _packed(lhs), factors)
    return packed, _split(SparsePoly._raw(lhs.table, lhs.terms), factors), len(calls)


def _dict_path_calls(monkeypatch) -> list:
    """Record each factor the dict route's heap division gets."""
    calls = []
    divide = polys._Packing.divide
    spy = lambda self, num, factor: calls.append(factor) or divide(self, num, factor)
    monkeypatch.setattr(polys._Packing, "divide", spy)
    return calls


class TestPackedCertificate:
    """A large integer certificate stays on int64 arrays from lhs to the
    re-multiplication; the dict route is the reference."""

    def test_same_certificate_on_both_paths(self, monkeypatch, packed_case):
        lhs, f1, f2, q = packed_case
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2])
        assert calls == 1
        assert packed == plain
        assert packed.quotient.terms == q.terms
        assert {type(c) for c in packed.quotient.terms.values()} == {int}
        assert packed.to_json_dict() == plain.to_json_dict()

    @pytest.mark.parametrize("bad", ["monomial", "monomial-past-degree", "multi-term"])
    def test_non_dividing_factor_has_the_same_error(self, monkeypatch, packed_case, bad):
        lhs, f1, f2, _ = packed_case
        table = lhs.table
        if bad == "monomial":
            factors = [SparsePoly(table, {(0, 0, 0, 1): 1}), f2]
        elif bad == "monomial-past-degree":
            factors = [SparsePoly(table, {(0, 0, 0, 40): 1}), f2]
        else:
            factors = [f1, f2 + 1]
        packed, plain, _ = _both_paths(monkeypatch, lhs, factors)
        assert packed == plain
        assert packed.startswith("test: factor ") and packed.endswith("does not divide exactly")

    def test_failed_comparison_has_the_same_error(self, monkeypatch, packed_case):
        # The last quotient gains 1 at its largest key: on the int64 route
        # in the level division's arrays, on the dict route in the heap's.
        lhs, f1, f2, _ = packed_case
        divide, heap_divide, corrupted = polys._Int64Layout.divide, polys._Packing.divide, []

        def int64_off_by_one(layout, packed, factor):
            quotient = divide(layout, packed, factor)
            if factor is f2:
                keys, coeffs = quotient
                coeffs[keys.argmax()] += 1
                corrupted.append("int64")
            return quotient

        def heap_off_by_one(packing, num, factor):
            quotient = heap_divide(packing, num, factor)
            if factor is f2:
                quotient[max(quotient)] += 1
                corrupted.append("heap")
            return quotient

        monkeypatch.setattr(polys._Int64Layout, "divide", int64_off_by_one)
        monkeypatch.setattr(polys._Packing, "divide", heap_off_by_one)
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2])
        assert calls == 1
        assert corrupted == ["int64", "heap"]
        assert packed == plain == "test: re-multiplication check failed"

    def test_one_term_coefficient_that_does_not_divide(self, monkeypatch, packed_case):
        # The quotient needs Fractions: the whole certificate reruns on the
        # dict route, the re-multiplication of a Fraction quotient too.
        lhs, f1, f2, q = packed_case
        f7 = SparsePoly(lhs.table, {(2, 0, 1, 0): 7})
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f7, f2])
        assert calls == 0
        assert packed == plain
        assert packed.quotient == q.scale(Fraction(-3, 7))

    @pytest.mark.parametrize("bound", ["key", "coefficient"])
    def test_bound_past_int64_takes_the_dict_path(self, monkeypatch, packed_case, bound):
        # No int64 layout holds such an lhs, so it reaches divide_out as a
        # plain SparsePoly and the dict route certifies it.
        lhs, f1, f2, q = packed_case
        if bound == "key":
            # w -> w^k is a ring map; the radix product passes 2^63.
            k = 2**50
            image = lambda p: SparsePoly(p.table, {(k * e[0],) + e[1:]: c for e, c in p.terms.items()})
            lhs, f1, f2, q = map(image, (lhs, f1, f2, q))
        else:
            lhs, f1, q = lhs.scale(2**62), f1.scale(2**31), q.scale(2**31)
        assert polys._int64_layout([[lhs]]) is None
        calls = _accumulate_calls(monkeypatch)
        assert _split(lhs, [f1, f2]).quotient == q
        assert calls == []

    def test_carrying_digit_sum_takes_the_dict_comparison(self, monkeypatch, packed_case):
        # Divisions that succeed leave deg_v P + deg_v Q = deg_v lhs below
        # the radix, so the last quotient gains a term w^(radix_w - 1) on
        # both routes to make the int64 digit sum carry; the int64 route
        # then compares nothing on its arrays and reruns on the dict route.
        lhs, f1, f2, _ = packed_case
        top = int(polys._int64_layout([[lhs]]).radices[0]) - 1
        divide, heap_divide = polys._Int64Layout.divide, polys._Packing.divide

        def int64_with_top_digit(layout, packed, factor):
            quotient = divide(layout, packed, factor)
            if factor is f2:
                quotient = tuple(map(polys.np.append, quotient, (top * layout.places[0], 1)))
            return quotient

        def heap_with_top_digit(packing, num, factor):
            quotient = heap_divide(packing, num, factor)
            if factor is f2:
                quotient.update(packing.pack({(top, 0, 0, 0): 1}))
            return quotient

        monkeypatch.setattr(polys._Int64Layout, "divide", int64_with_top_digit)
        monkeypatch.setattr(polys._Packing, "divide", heap_with_top_digit)
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2])
        assert packed == plain == "test: re-multiplication check failed"
        assert calls == 0

    def test_norm_bound_past_int64_takes_the_dict_comparison(self, monkeypatch, packed_case):
        # Scale q until |f1 f2|_1 |q|_1 reaches 2^63 while lhs, whose terms
        # partly cancel, still packs and both divisions stay on int64.
        lhs, f1, f2, q = packed_case
        norm = lambda p: sum(map(abs, p.terms.values()))
        scale = (1 << 63) // (norm(f1 * f2) * norm(q)) + 1
        lhs, q = lhs.scale(scale), q.scale(scale)
        assert norm(lhs) < 1 << 63 <= norm(f1 * f2) * norm(q)
        divide, divided = polys._Int64Layout.divide, []
        monkeypatch.setattr(
            polys._Int64Layout, "divide", lambda *args: divided.append(1) or divide(*args)
        )
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2])
        assert calls == 0 and len(divided) == 2
        assert packed == plain
        assert packed.quotient == q


@pytest.mark.parametrize("family", ["nbody", "w"])
def test_certificate_packs_lhs_once_and_decodes_only_the_quotient(monkeypatch, family):
    # The dict route packs lhs once and keeps every division, the
    # re-multiplication and the comparison packed: neither lhs nor the
    # middle quotient is ever decoded.
    cert = factor_nbody(4) if family == "nbody" else factor_w(3)
    lhs, factors = cert.lhs, list(cert.factors)
    middle = polys.exact_divide(lhs, factors[0])
    packed, unpacked = [], []
    pack, unpack = polys._Packing.pack, polys._Packing.unpack
    monkeypatch.setattr(polys._Packing, "pack", lambda s, t: packed.append(len(t)) or pack(s, t))
    monkeypatch.setattr(
        polys._Packing, "unpack", lambda s, t: unpacked.append(len(t)) or unpack(s, t)
    )
    assert polys.divide_out(lhs, factors) == (cert.quotient, None)
    assert packed.count(len(lhs.terms)) == 1
    assert unpacked[-1] == len(cert.quotient.terms)
    assert not {len(lhs.terms), len(middle.terms)} & set(unpacked)


@pytest.fixture(scope="module")
def equal_five():
    """The equal-mass n = 5 certificate, whose lhs is det B still packed."""
    cert = factor_nbody(5, equal_masses=True, long_running=True)
    assert type(cert.lhs) is polys._PackedPoly
    return cert


class TestPackedDeterminant:
    """det B stays packed from the minors expansion to the comparison with
    the re-multiplied product."""

    def test_one_decode_and_no_read_of_lhs_exponents(self, monkeypatch):
        decoded, read = [], []
        unpack, exponents = polys._Int64Layout.unpack, polys._exponents
        monkeypatch.setattr(
            polys._Int64Layout, "unpack", lambda self, p: decoded.append(len(p[0])) or unpack(self, p)
        )
        monkeypatch.setattr(polys, "_exponents", lambda e, n: read.append(len(e)) or exponents(e, n))
        cert = factor_nbody(5, equal_masses=True, long_running=True)
        assert cert.verified and decoded == [3815] == [len(cert.quotient.terms)]
        assert read and max(read) < 64063
        assert cert.quotient.to_text() == _golden("sigma_n5_equal.txt")
        assert cert.to_json_dict()["lhs_terms"] == 64063 and decoded == [3815]

    def test_forged_lhs_fails_the_re_multiplication(self, monkeypatch, equal_five):
        # One coefficient of det B off by 1.  The divisions are handed the
        # genuine arrays, so only the comparison can see the forgery.
        lhs = equal_five.lhs
        keys, coeffs = lhs.packed
        coeffs = coeffs.copy()
        coeffs[len(coeffs) // 2] += 1
        forged = polys._PackedPoly(lhs.table, lhs.layout, (keys, coeffs))
        divide = polys._Int64Layout.divide
        genuine = lambda packed: lhs.packed if packed is forged.packed else packed
        monkeypatch.setattr(
            polys._Int64Layout, "divide", lambda layout, packed, f: divide(layout, genuine(packed), f)
        )
        calls = _accumulate_calls(monkeypatch)
        assert _split(forged, list(equal_five.factors)) == "test: re-multiplication check failed"
        assert calls == [1]
        assert _split(lhs, list(equal_five.factors)).quotient == equal_five.quotient

    def test_non_dividing_factor_has_the_dict_path_text(self, monkeypatch, equal_five):
        e4, delta = equal_five.factors
        packed, plain, _ = _both_paths(monkeypatch, equal_five.lhs, [delta + 1, e4])
        assert packed == plain
        assert packed.startswith("test: factor ") and packed.endswith("does not divide exactly")


class TestLevelDivision:
    """The int64 division of the packed route, level by level: every shipped
    factor takes it, and each way out agrees with the dict route."""

    def test_goldens_through_the_packed_route(self, monkeypatch):
        certs = [
            (factor_nbody(2), "sigma_n2.txt"),
            (factor_nbody(3), "sigma_n3.txt"),
            (factor_nbody(4), "sigma_n4.txt"),
            (factor_w(2), "z_n2.txt"),
            (factor_w(3), "z_n3.txt"),
        ]
        equal = factor_nbody(3, equal_masses=True)
        handed = _dict_path_calls(monkeypatch)
        divide, divided = polys._Int64Layout.divide, []
        monkeypatch.setattr(
            polys._Int64Layout, "divide", lambda *args: divided.append(1) or divide(*args)
        )
        for cert, golden in certs:
            quotient, failed = polys.divide_out(_packed(cert.lhs), list(cert.factors))
            assert failed is None
            assert quotient.to_text() == _golden(golden)
            assert {type(c) for c in quotient.terms.values()} == {int}
        assert polys.divide_out(_packed(equal.lhs), list(equal.factors)) == (equal.quotient, None)
        assert len(divided) == 12 and handed == []

    def test_lead_failing_the_weight_test_takes_the_dict_path(self, monkeypatch):
        # Lead x*y: L.L = 2 = L.(y^2), so x*y is not the whole top form.
        table = VarTable(["x", "y"])
        rng = random.Random(211)
        x, y = (SparsePoly.variable(table, v) for v in table.names)
        factor = x * y + y**2
        q = SparsePoly(table, _random_terms(rng, 2, 40, 9, 50))
        handed = _dict_path_calls(monkeypatch)
        packed, plain, _ = _both_paths(monkeypatch, factor * q, [factor])
        assert len(handed) == 2  # the int64 route's fallback, then the dict route
        assert packed == plain
        assert packed.quotient == q

    def test_multi_term_lead_coefficient_that_does_not_divide(self, monkeypatch):
        # Coefficients 1..6 of q: 7 * c_L divides no bucket, so the first
        # level sends the certificate to the dict route, and q / 7 needs
        # Fractions.
        table = VarTable(["x", "y", "z"])
        rng = random.Random(212)
        f = SparsePoly(table, _random_terms(rng, 3, 12, 3, 9))
        q = SparsePoly(table, {e: abs(c) % 6 + 1 for e, c in _random_terms(rng, 3, 60, 6, 9).items()})
        handed = _dict_path_calls(monkeypatch)
        packed, plain, _ = _both_paths(monkeypatch, f * q, [f.scale(7)])
        assert len(handed) == 2  # the int64 route's fallback, then the dict route
        assert packed == plain
        assert packed.quotient == q.scale(Fraction(1, 7))

    def test_partial_quotient_past_the_degree_limit(self, monkeypatch):
        # F = x + y, lhs = F q + x^11 y^11 with q's degrees at most 10: the
        # top level's digit y^11 passes radix_y - 1 - deg_y F = 10.
        table = VarTable(["x", "y"])
        rng = random.Random(213)
        x, y = (SparsePoly.variable(table, v) for v in table.names)
        q = SparsePoly(table, _random_terms(rng, 2, 50, 10, 50))
        lhs = (x + y) * q + x**11 * y**11
        handed = _dict_path_calls(monkeypatch)
        packed, plain, _ = _both_paths(monkeypatch, lhs, [x + y])
        assert handed == [x + y]  # only the dict route's own call
        assert packed == plain == "test: factor '1 * x + 1 * y' does not divide exactly"

    def test_coefficient_bound_past_int64_takes_the_dict_path(self, monkeypatch):
        # lhs = 3 * 2^60 (x^5 - y^5) has 1-norm 1.5 * 2^62, so its own layout
        # fits; max|lhs| + |F|_1 max|q| = 9 * 2^60 passes 2^63 at level one.
        table = VarTable(["x", "y"])
        x, y = (SparsePoly.variable(table, v) for v in table.names)
        factor = 3 * x - 3 * y
        q = sum((x**i * y ** (4 - i) for i in range(5)), SparsePoly.zero(table)).scale(2**60)
        lhs = factor * q
        assert polys._int64_layout([[lhs]]) is not None
        handed = _dict_path_calls(monkeypatch)
        packed, plain, _ = _both_paths(monkeypatch, lhs, [factor])
        assert len(handed) == 2  # the int64 route's fallback, then the dict route
        assert packed == plain
        assert packed.quotient == q

    def test_random_divisions_match_the_dict_path(self, monkeypatch):
        # Exact, non-dividing, and Fraction quotients (f / 2 f), some past
        # the first level; a few leads fail the weight test.
        rng = random.Random(214)
        table = VarTable(["x", "y", "z"])
        for _ in range(40):
            f = SparsePoly(table, _random_terms(rng, 3, rng.randint(1, 8), 4, 9))
            q = SparsePoly(table, _random_terms(rng, 3, 25, 5, 20))
            for lhs, factor in [(f * q, f), (f * q + 1, f), (f * q, f.scale(2))]:
                packed, plain, _ = _both_paths(monkeypatch, lhs, [factor])
                assert packed == plain

    @pytest.mark.parametrize(
        "cause", ["fraction-factor", "weight-test", "coefficient-bound", "carrying-product"]
    )
    def test_fallback_reruns_the_certificate_on_the_dict_route(self, monkeypatch, cause):
        # Each cause sends the int64 route back to lhs, decoded, on the dict
        # route: the same certificate, and the same error text for an lhs
        # the factor does not divide; the arrays never re-multiply.
        table = VarTable(["x", "y"])
        x, y = (SparsePoly.variable(table, v) for v in table.names)
        q = SparsePoly(table, _random_terms(random.Random(215), 2, 30, 6, 50))
        factor = x + 2 * y
        if cause == "fraction-factor":
            factor, q = factor.scale(Fraction(1, 2)), q.scale(2)
        elif cause == "weight-test":
            factor = x * y + y**2
        elif cause == "coefficient-bound":  # as in the test above
            factor = 3 * x - 3 * y
            q = sum((x**i * y ** (4 - i) for i in range(5)), SparsePoly.zero(table)).scale(2**60)
        else:
            divide = polys._Int64Layout.divide

            def with_top_digit(layout, packed, f):  # makes the product's x digit carry
                out = divide(layout, packed, f)
                top = (layout.radices[0] - 1) * layout.places[0]
                return out and tuple(map(polys.np.append, out, (top, 1)))

            monkeypatch.setattr(polys._Int64Layout, "divide", with_top_digit)
        lhs = factor * q
        handed = _dict_path_calls(monkeypatch)
        packed, plain, calls = _both_paths(monkeypatch, lhs, [factor])
        assert len(handed) == 2 and calls == 0  # the fallback, then the dict route
        assert packed == plain and packed.quotient == q
        packed, plain, calls = _both_paths(monkeypatch, lhs + x**3 * y**9, [factor])
        assert packed == plain == f"test: factor {factor.to_text()[:80]!r} does not divide exactly"
        assert calls == 0


@pytest.mark.skipif(
    os.environ.get("DISTGEOM_LONG_TESTS") != "1", reason="set DISTGEOM_LONG_TESTS=1 to run"
)
def test_generic_five_body_certificate():
    """factor_nbody(5) with generic masses: the full certificate, and sigma
    against `nbody_sigma_value` (the Bareiss kernel, no shared expansion
    code) at 3 seeded rational points.  About 12 s and a peak RSS of
    1.04 GB on a 2-core x86-64 box (Python 3.11, numpy 2.4)."""
    cert = factor_nbody(5, long_running=True)
    assert cert.verified
    assert len(cert.quotient.terms) == 34680
    rng = random.Random(55)
    for _ in range(3):
        r = distances(sampling.random_nonsingular_configuration(rng, 5, 4))
        alpha = sampling.random_positive_alpha(rng, 5)
        point = {f"a_{i + 1}": a for i, a in enumerate(alpha)}
        point.update({f"r_{i + 1}_{j + 1}": r.sq(i, j) for i in range(5) for j in range(i + 1, 5)})
        assert cert.quotient.evaluate(point) == nbody_sigma_value(alpha, r)


class TestFactorW:
    def test_two_points_quotient_is_one(self):
        cert = factor_w(2)
        assert cert.verified
        assert cert.quotient == 1
        assert cert.quotient.to_text() == _golden("z_n2.txt")

    def test_three_points(self):
        cert = factor_w(3)
        assert cert.verified
        assert cert.quotient.to_text() == _golden("z_n3.txt")
        product = cert.quotient
        for factor in cert.factors:
            product = product * factor
        assert product == cert.lhs

    def test_factor_content_is_one(self):
        cert = factor_w(3)
        det_cs, det_ct = cert.factors
        assert det_cs.content() == 1
        assert det_ct.content() == 1

    def test_specialized_lhs_matches_interaction_determinant(self):
        # Sending s to squared distances and t to the diagonal mass table
        # turns the generalized matrix into the entrywise negation of the
        # interaction matrix, so determinants match up to (-1)^C(n,2).
        for n in (2, 3):
            cert = factor_w(n)
            target = mass_distance_table(n)
            specialized = specialize_to_masses_and_distances(cert.lhs, n, target)
            nbody = symbolic_nbody_det(n, table=target)
            pairs = n * (n - 1) // 2
            assert specialized == (nbody if pairs % 2 == 0 else -nbody)


class TestCaps:
    def test_nbody_default_cap(self):
        with pytest.raises(ResourceCapError):
            symbolic_nbody_det(6)
        with pytest.raises(ResourceCapError):
            factor_nbody(6, long_running=True)

    def test_nbody_long_running_gate(self):
        with pytest.raises(ResourceCapError) as info:
            factor_nbody(5)
        assert "long" in str(info.value).lower() or "5" in str(info.value)

    def test_w_caps(self):
        with pytest.raises(ResourceCapError) as info:
            factor_w(4)
        assert "long_running" in str(info.value)
        with pytest.raises(ResourceCapError):
            factor_w(5, long_running=True)

    def test_lower_bounds(self):
        # The cap is checked before the pair space, which refuses n < 1.
        for n in (1, 0, -3):
            with pytest.raises(ResourceCapError):
                factor_nbody(n)
            with pytest.raises(ResourceCapError):
                factor_nbody(n, equal_masses=True)
            with pytest.raises(ResourceCapError):
                factor_w(n)


class TestSignDictionary:
    def test_symbolic_range(self):
        for n in (2, 3, 4):
            report = sign_dictionary(n)
            assert report.ok, report
            assert report.entrywise_ok and report.det_ok and report.quotient_ok

    def test_capped_above_four(self):
        with pytest.raises(ResourceCapError):
            sign_dictionary(5)

    def test_numeric_spot_check(self):
        rng = random.Random(61)
        for n in (5, 6):
            cfg = sampling.random_nonsingular_configuration(rng, n, n - 1)
            r = distances(cfg)
            alpha = sampling.random_positive_alpha(rng, n)
            assert specialized_w(alpha, r)[1]


class TestSigmaValue:
    def test_unit_triangle(self):
        # det B = 54, e_2 = 3, delta = -3: quotient -6, matching the
        # three-body closed form -2(a_1 r_23 + a_2 r_13 + a_3 r_12).
        sigma = nbody_sigma_value([1, 1, 1], DistanceVector(3, [1, 1, 1]))
        assert sigma == -6

    def test_matches_three_body_closed_form(self):
        rng = random.Random(62)
        for _ in range(10):
            cfg = sampling.random_nonsingular_configuration(rng, 3, 2)
            r = distances(cfg)
            alpha = sampling.random_positive_alpha(rng, 3)
            sigma = nbody_sigma_value(alpha, r)
            closed = -2 * (
                alpha[0] * r.sq(1, 2) + alpha[1] * r.sq(0, 2) + alpha[2] * r.sq(0, 1)
            )
            assert sigma == closed

    def test_sign_alternates_with_n(self):
        rng = random.Random(63)
        for n in (3, 4, 5):
            cfg = sampling.random_nonsingular_configuration(rng, n, n - 1)
            r = distances(cfg)
            alpha = sampling.random_positive_alpha(rng, n)
            sigma = nbody_sigma_value(alpha, r)
            assert (-1) ** n * sigma > 0

    def test_rejects_float_input(self):
        with pytest.raises(ValueError):
            nbody_sigma_value([1.0, 1.0, 1.0], DistanceVector(3, [1.5, 1.5, 1.5]))


class TestHeron:
    def test_identity_holds(self):
        report = heron_check()
        assert report.ok
        assert "match" in report.detail


class TestKernelWitness:
    def test_collinear_example(self):
        # Distances 1, 2, 1 on a line: squared entries 1, 4, 1.
        s = GenericEntryTable([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        z = kernel_witness(s)
        assert z == [-2, 1, -2]

    def test_witness_annihilates_any_second_table(self):
        rng = random.Random(64)
        s = GenericEntryTable([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        z = kernel_witness(s)
        for _ in range(10):
            t = sampling.random_entry_table(rng, 3)
            assert annihilates(s, t, z)

    def test_random_singular_tables(self):
        rng = random.Random(65)
        for _ in range(10):
            s = sampling.random_singular_entry_table(rng, rng.randint(3, 5))
            z = kernel_witness(s)
            t = sampling.random_entry_table(rng, s.n)
            assert annihilates(s, t, z)

    def test_nonsingular_table_refused(self):
        # Unit triangle distances: the bordered table has determinant -3.
        s = GenericEntryTable([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError):
            kernel_witness(s)

    def test_float_entries_refused(self):
        s = GenericEntryTable([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            kernel_witness(s)
