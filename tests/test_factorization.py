"""Symbolic determinant splits, sign conventions, and kernel witnesses."""

import inspect
import math
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
from distgeom import exact, factorization, polys, sampling
from distgeom.builders import bordered, reduced_edm, w_matrix
from distgeom.core import VerificationError
from distgeom.factorization import (
    _certified_split,
    distance_table,
    mass_distance_table,
    pair_table,
    pencil_quotient,
    specialize_to_masses_and_distances,
    specialized_w,
    symbolic_bordered_masses_det,
    symbolic_entry_table,
    symbolic_masses,
    symbolic_squared_distances,
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
    """lhs on int64 arrays in its own layout, as det B reaches remultiplies."""
    layout = polys._int64_layout([[lhs]])
    return polys._PackedPoly(lhs.table, layout, layout.pack(lhs.terms))


def _split(lhs, factors, quotient):
    try:
        return _certified_split("test", 0, lhs, factors, quotient)
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


def _both_paths(monkeypatch, lhs, factors, quotient):
    """The certificate or error text on the int64 route (lhs packed, if it
    is not already) and on the dict route (lhs as a plain SparsePoly), and
    the number of int64 accumulate calls the int64 route made."""
    with monkeypatch.context() as patch:
        calls = _accumulate_calls(patch)
        packed = _split(lhs if type(lhs) is polys._PackedPoly else _packed(lhs), factors, quotient)
    return packed, _split(SparsePoly._raw(lhs.table, lhs.terms), factors, quotient), len(calls)


def _plus_one_at_lead(q):
    """q with 1 added to its leading coefficient."""
    return q + SparsePoly(q.table, {q.leading_term()[0]: 1})


class TestPackedCertificate:
    """A large integer certificate stays on int64 arrays from lhs to the
    re-multiplication; the dict route is the reference."""

    def test_same_certificate_on_both_paths(self, monkeypatch, packed_case):
        lhs, f1, f2, q = packed_case
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2], q)
        assert calls == 1
        assert packed == plain and packed.verified
        assert packed.to_json_dict() == plain.to_json_dict()

    @pytest.mark.parametrize("bad", ["monomial", "monomial-past-degree", "multi-term"])
    def test_non_dividing_factor_has_the_same_error(self, monkeypatch, packed_case, bad):
        # The genuine quotient with a factor that does not divide lhs: both
        # routes refuse the split with the same text.
        lhs, f1, f2, q = packed_case
        table = lhs.table
        if bad == "monomial":
            factors = [SparsePoly(table, {(0, 0, 0, 1): 1}), f2]
        elif bad == "monomial-past-degree":
            factors = [SparsePoly(table, {(0, 0, 0, 40): 1}), f2]
        else:
            factors = [f1, f2 + 1]
        packed, plain, _ = _both_paths(monkeypatch, lhs, factors, q)
        assert packed == plain == "test: re-multiplication check failed"

    def test_failed_comparison_has_the_same_error(self, monkeypatch, packed_case):
        # The quotient gains 1 at its leading term: the one re-multiplication
        # on the arrays, and the dict route's, both see it.
        lhs, f1, f2, q = packed_case
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2], _plus_one_at_lead(q))
        assert calls == 1
        assert packed == plain == "test: re-multiplication check failed"

    def test_zero_quotient_or_factor_fails_on_both_paths(self, monkeypatch, packed_case):
        # A zero product leaves no keys to sum on the arrays; it is not lhs.
        lhs, f1, f2, q = packed_case
        zero = SparsePoly.zero(lhs.table)
        for factors, quotient in [([f1, f2], zero), ([f1, zero], q)]:
            packed, plain, calls = _both_paths(monkeypatch, lhs, factors, quotient)
            assert calls == 1
            assert packed == plain == "test: re-multiplication check failed"

    def test_one_term_coefficient_that_does_not_divide(self, monkeypatch, packed_case):
        # The quotient needs Fractions: no int64 layout holds it, so the
        # whole re-multiplication reruns on the dict route.
        lhs, f1, f2, q = packed_case
        f7 = SparsePoly(lhs.table, {(2, 0, 1, 0): 7})
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f7, f2], q.scale(Fraction(-3, 7)))
        assert calls == 0
        assert packed == plain and packed.verified

    @pytest.mark.parametrize("bound", ["key", "coefficient"])
    def test_bound_past_int64_takes_the_dict_path(self, monkeypatch, packed_case, bound):
        # No int64 layout holds such an lhs, so it reaches remultiplies as a
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
        assert _split(lhs, [f1, f2], q).verified
        assert _split(lhs, [f1, f2], _plus_one_at_lead(q)) == "test: re-multiplication check failed"
        assert calls == []

    def test_carrying_digit_sum_takes_the_dict_comparison(self, monkeypatch, packed_case):
        # A quotient term w^(radix_w - 1) would make the product's w digit
        # carry on lhs's arrays, so the int64 route compares nothing there
        # and reruns on the dict route, which rejects the quotient.
        lhs, f1, f2, q = packed_case
        top = int(polys._int64_layout([[lhs]]).radices[0]) - 1
        wrong = q + SparsePoly(lhs.table, {(top, 0, 0, 0): 1})
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2], wrong)
        assert packed == plain == "test: re-multiplication check failed"
        assert calls == 0

    def test_norm_bound_past_int64_takes_the_dict_comparison(self, monkeypatch, packed_case):
        # Scale q until |f1 f2|_1 |q|_1 reaches 2^63 while lhs, whose terms
        # partly cancel, still packs on int64 arrays.
        lhs, f1, f2, q = packed_case
        norm = lambda p: sum(map(abs, p.terms.values()))
        scale = (1 << 63) // (norm(f1 * f2) * norm(q)) + 1
        lhs, q = lhs.scale(scale), q.scale(scale)
        assert norm(lhs) < 1 << 63 <= norm(f1 * f2) * norm(q)
        packed, plain, calls = _both_paths(monkeypatch, lhs, [f1, f2], q)
        assert calls == 0
        assert packed == plain and packed.verified


@pytest.mark.parametrize("family, lhs_terms", [("nbody", 4524), ("w", 7866)])
def test_certificate_never_packs_or_decodes_lhs(monkeypatch, family, lhs_terms):
    # lhs leaves the minors expansion packed, and the re-multiplication and
    # the comparison read it so: across the whole certificate neither lhs
    # nor lhs divided by one factor is packed or decoded.
    packed, unpacked = [], []
    pack, unpack = polys._Packing.pack, polys._Packing.unpack
    with monkeypatch.context() as patch:
        patch.setattr(polys._Packing, "pack", lambda s, t: packed.append(len(t)) or pack(s, t))
        patch.setattr(polys._Packing, "unpack", lambda s, t: unpacked.append(len(t)) or unpack(s, t))
        cert = factor_nbody(4) if family == "nbody" else factor_w(3)
        assert cert.to_json_dict()["lhs_terms"] == lhs_terms
    assert type(cert.lhs) is polys._PackedPoly and cert.lhs.term_count() == lhs_terms
    middle = polys.exact_divide(cert.lhs, cert.factors[0])
    assert len(cert.lhs.terms) == lhs_terms and len(cert.quotient.terms) in packed
    assert not {lhs_terms, len(middle.terms)} & set(packed + unpacked)


@pytest.mark.parametrize("degree", [200, 300])
def test_factor_past_the_slots_reruns_on_a_wide_layout(degree):
    # A dict-layout det has 1-byte slots, sized for itself alone; a factor
    # or quotient of higher degree cannot pack there and must not set a
    # guard bit or overflow a slot, but take the wide rerun that a plain lhs
    # takes, which rejects a wrong quotient instead of aliasing lhs.
    table = VarTable(["x", "y"])
    x, y = (SparsePoly.variable(table, name) for name in table.names)
    det = polys.poly_det([[x, y], [y, x]])
    factor = SparsePoly(table, {(degree, 0): 1, (0, degree): -1})
    assert type(det) is polys._PackedPoly and det.layout.top == 127
    with pytest.raises(polys._Unfit):
        det.layout.fit(factor)
    plain = SparsePoly._raw(table, dict(det.terms))
    wrong = x + y + x**degree  # the quotient of x - y but for one term
    for lhs in (det, plain):
        assert polys.remultiplies(lhs, [x - y], x + y)
        assert not polys.remultiplies(lhs, [x - y], wrong)
        assert not polys.remultiplies(lhs, [factor], x + y)
        # A zero factor leaves the product degree at -1: a plain lhs still
        # packs in slots that hold the quotient, so the rerun ends.
        assert not polys.remultiplies(lhs, [x - y, SparsePoly.zero(table)], wrong)
    fresh = polys.poly_det([[x, y], [y, x]])
    text = "test: re-multiplication check failed"
    assert _split(fresh, [x - y], wrong) == _split(plain, [x - y], wrong) == text


@pytest.fixture(scope="module")
def equal_five():
    """The equal-mass n = 5 certificate, whose lhs is det B still packed."""
    cert = factor_nbody(5, equal_masses=True, long_running=True)
    assert type(cert.lhs) is polys._PackedPoly
    return cert


class TestPackedDeterminant:
    """det B stays packed from the minors expansion to the comparison with
    the re-multiplied product."""

    def test_no_decode_and_no_read_of_lhs_exponents(self, monkeypatch):
        decoded, read = [], []
        unpack, exponents = polys._Int64Layout.unpack, polys._exponents
        monkeypatch.setattr(
            polys._Int64Layout, "unpack", lambda self, p: decoded.append(len(p[0])) or unpack(self, p)
        )
        monkeypatch.setattr(polys, "_exponents", lambda e, n: read.append(len(e)) or exponents(e, n))
        cert = factor_nbody(5, equal_masses=True, long_running=True)
        assert cert.verified and decoded == []
        assert read and max(read) < 64063
        assert cert.quotient.to_text() == _golden("sigma_n5_equal.txt")
        assert cert.to_json_dict()["lhs_terms"] == 64063 and decoded == []

    def test_forged_lhs_fails_the_re_multiplication(self, monkeypatch, equal_five):
        # One coefficient of det B off by 1, against the genuine quotient:
        # only the comparison can see the forgery.
        lhs = equal_five.lhs
        keys, coeffs = lhs.packed
        coeffs = coeffs.copy()
        coeffs[len(coeffs) // 2] += 1
        forged = polys._PackedPoly(lhs.table, lhs.layout, (keys, coeffs))
        factors, quotient = list(equal_five.factors), equal_five.quotient
        calls = _accumulate_calls(monkeypatch)
        assert _split(forged, factors, quotient) == "test: re-multiplication check failed"
        assert calls == [1]
        assert _split(lhs, factors, quotient).verified

    def test_non_dividing_factor_has_the_dict_path_text(self, monkeypatch, equal_five):
        e4, delta = equal_five.factors
        packed, plain, _ = _both_paths(monkeypatch, equal_five.lhs, [delta + 1, e4], equal_five.quotient)
        assert packed == plain == "test: re-multiplication check failed"


class TestLevelDivision:
    """The packed route's one re-multiplication: every golden quotient
    takes it, and each way out agrees with the dict route."""

    def test_goldens_through_the_packed_route(self, monkeypatch):
        certs = [
            (factor_nbody(2), "sigma_n2.txt"),
            (factor_nbody(3), "sigma_n3.txt"),
            (factor_nbody(4), "sigma_n4.txt"),
            (factor_w(2), "z_n2.txt"),
            (factor_w(3), "z_n3.txt"),
        ]
        calls = _accumulate_calls(monkeypatch)
        for cert, golden in certs:
            quotient = SparsePoly.parse_text(cert.lhs.table, _golden(golden))
            assert polys.remultiplies(_packed(cert.lhs), list(cert.factors), quotient)
            assert not polys.remultiplies(_packed(cert.lhs), list(cert.factors), quotient + 1)
        equal = factor_nbody(3, equal_masses=True)
        assert polys.remultiplies(_packed(equal.lhs), list(equal.factors), equal.quotient)
        assert len(calls) == 11

    def test_multi_term_lead_coefficient_that_does_not_divide(self, monkeypatch):
        # Coefficients 1..6 of q: 7 * c_L divides none of lhs's coefficients,
        # so the quotient q / 7 needs Fractions, which no int64 layout holds,
        # and the certificate reruns on the dict route.
        table = VarTable(["x", "y", "z"])
        rng = random.Random(212)
        f = SparsePoly(table, _random_terms(rng, 3, 12, 3, 9))
        q = SparsePoly(table, {e: abs(c) % 6 + 1 for e, c in _random_terms(rng, 3, 60, 6, 9).items()})
        packed, plain, calls = _both_paths(monkeypatch, f * q, [f.scale(7)], q.scale(Fraction(1, 7)))
        assert calls == 0
        assert packed == plain and packed.verified

    def test_coefficient_bound_past_int64_takes_the_dict_path(self, monkeypatch):
        # lhs = 3 * 2^60 (x^5 - y^5) has 1-norm 1.5 * 2^62, so its own layout
        # fits; |F|_1 |q|_1 = 30 * 2^60 passes 2^63, so the arrays cannot
        # re-multiply and the dict route certifies it.
        table = VarTable(["x", "y"])
        x, y = (SparsePoly.variable(table, v) for v in table.names)
        factor = 3 * x - 3 * y
        q = sum((x**i * y ** (4 - i) for i in range(5)), SparsePoly.zero(table)).scale(2**60)
        lhs = factor * q
        assert polys._int64_layout([[lhs]]) is not None
        packed, plain, calls = _both_paths(monkeypatch, lhs, [factor], q)
        assert calls == 0
        assert packed == plain and packed.verified

    def test_random_remultiplications_match_the_dict_path(self, monkeypatch):
        # Right, wrong, and Fraction quotients (f / 2 f), some past lhs's
        # own radices or with a digit sum that carries.
        rng = random.Random(214)
        table = VarTable(["x", "y", "z"])
        for _ in range(40):
            f = SparsePoly(table, _random_terms(rng, 3, rng.randint(1, 8), 4, 9))
            q = SparsePoly(table, _random_terms(rng, 3, 25, 5, 20))
            lhs = f * q
            stray = SparsePoly(table, _random_terms(rng, 3, 1, 9, 9))
            for factor, quotient in [(f, q), (f, q + 1), (f.scale(2), q.scale(Fraction(1, 2))),
                                     (f, q + stray), (f, _plus_one_at_lead(q))]:
                packed, plain, _ = _both_paths(monkeypatch, lhs, [factor], quotient)
                assert packed == plain

    @pytest.mark.parametrize("cause", ["fraction-factor", "coefficient-bound", "carrying-product"])
    def test_fallback_reruns_the_certificate_on_the_dict_route(self, monkeypatch, cause):
        # Each cause sends the int64 route back to lhs, decoded, on the dict
        # route: the same certificate, and the same error text for a wrong
        # quotient.  Only the right quotient of a carrying-product case
        # re-multiplies on the arrays; its wrong one carries.
        table = VarTable(["x", "y"])
        x, y = (SparsePoly.variable(table, v) for v in table.names)
        q = SparsePoly(table, _random_terms(random.Random(215), 2, 30, 6, 50))
        factor = x + 2 * y
        wrong = q + x**3 * y**9
        if cause == "fraction-factor":
            factor, q, wrong = factor.scale(Fraction(1, 2)), q.scale(2), wrong.scale(2)
        elif cause == "coefficient-bound":  # as in the test above
            factor = 3 * x - 3 * y
            q = sum((x**i * y ** (4 - i) for i in range(5)), SparsePoly.zero(table)).scale(2**60)
            wrong = q + x**3 * y
        lhs = factor * q
        if cause == "carrying-product":  # a quotient term whose x digit carries
            top = int(polys._int64_layout([[lhs]]).radices[0]) - 1
            wrong = q + x**top
        assert polys._int64_layout([[lhs]]) is not None
        packed, plain, calls = _both_paths(monkeypatch, lhs, [factor], q)
        assert packed == plain and packed.verified
        assert calls == (1 if cause == "carrying-product" else 0)
        packed, plain, calls = _both_paths(monkeypatch, lhs, [factor], wrong)
        assert packed == plain == "test: re-multiplication check failed"
        assert calls == 0


@pytest.mark.skipif(
    os.environ.get("DISTGEOM_LONG_TESTS") != "1", reason="set DISTGEOM_LONG_TESTS=1 to run"
)
def test_generic_five_body_certificate():
    """factor_nbody(5) with generic masses: the full certificate, and sigma
    against `nbody_sigma_value` (the Bareiss kernel, no shared expansion
    code) at 3 seeded rational points.  About 10 s, a peak RSS of 1.02 GB
    and a tracemalloc live peak of 0.81 GB on a 2-core x86-64 box (Python
    3.11, numpy 2.4)."""
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


def _nbody_pencil(n, equal_masses=False):
    """(S', T', table) for sigma_n: S' = 2G at base point n, and T' =
    diag(alpha_1..alpha_{n-1}) + alpha_n J."""
    table = mass_distance_table(n, equal_masses)
    alpha = symbolic_masses(table, n, equal_masses).alpha
    mass = [[alpha[-1] + (alpha[a] if a == b else 0) for b in range(n - 1)] for a in range(n - 1)]
    return reduced_edm(symbolic_squared_distances(table, n), n - 1), mass, table


def _w_pencil(n):
    """(S', T', table) for Z_n: the double differences u_ab - u_an - u_nb +
    u_nn of the generic tables s and t."""
    table = pair_table(n)
    pencil = []
    for prefix in "st":
        u = symbolic_entry_table(table, n, prefix).entries
        pencil.append([[u[a][b] - u[a][n - 1] - u[n - 1][b] + u[n - 1][n - 1]
                        for b in range(n - 1)] for a in range(n - 1)])
    return (*pencil, table)


def _off_int64(monkeypatch):
    """Make every int64 step of `polys` raise."""
    def refuse(*args):
        raise AssertionError("the int64 layer ran")

    monkeypatch.setattr(polys._Int64Layout, "accumulate", staticmethod(refuse))
    monkeypatch.setattr(polys, "_dense_level", refuse)
    monkeypatch.setattr(polys, "_int64_layout", refuse)


def _at(poly, point):
    """poly at a rational point (one value per variable), in integers: each
    term is brought over the common denominator prod_k b_k^(deg_k poly)."""
    point = [Fraction(v) for v in point]
    degrees = [max(column) for column in zip(*poly.terms)]
    common = math.prod(v.denominator**d for v, d in zip(point, degrees))
    total = 0
    for exp, c in poly.terms.items():
        num, den = c, 1
        for v, e in zip(point, exp):
            if e:
                num, den = num * v.numerator**e, den * v.denominator**e
        total += num * (common // den)
    return Fraction(total, common)


class TestPencilQuotient:
    """sigma_n = (-1)^n H and Z_n = H from the (n-1) x (n-1) pencil, called
    directly: an oracle that never expands det B or det W."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_orlando_on_a_diagonal_pencil(self, m):
        # q(mu) = prod (mu + l_i): H_{m-1} = prod_{i<j} (l_i + l_j).  From
        # m = 4 on, the Hurwitz matrix reads c_k at negative k.
        table = VarTable([f"l_{i + 1}" for i in range(m)])
        l = [SparsePoly.variable(table, name) for name in table.names]
        x = [[l[a] if a == b else SparsePoly.zero(table) for b in range(m)] for a in range(m)]
        y = [[SparsePoly.const(table, int(a == b)) for b in range(m)] for a in range(m)]
        pairs = [l[i] + l[j] for i in range(m) for j in range(i + 1, m)]
        assert pencil_quotient(x, y, table) == math.prod(pairs, start=SparsePoly.const(table, 1))

    @pytest.mark.parametrize("n, equal_masses, golden", [
        (2, False, "sigma_n2.txt"), (3, False, "sigma_n3.txt"),
        (4, False, "sigma_n4.txt"), (5, True, "sigma_n5_equal.txt"),
    ])
    def test_sigma_goldens(self, monkeypatch, n, equal_masses, golden):
        _off_int64(monkeypatch)
        h = pencil_quotient(*_nbody_pencil(n, equal_masses))
        assert (h if n % 2 == 0 else -h).to_text() == _golden(golden)

    @pytest.mark.parametrize("n, golden", [(2, "z_n2.txt"), (3, "z_n3.txt")])
    def test_z_goldens(self, monkeypatch, n, golden):
        _off_int64(monkeypatch)
        assert pencil_quotient(*_w_pencil(n)).to_text() == _golden(golden)

    def test_generic_sigma_5_matches_bareiss_off_int64(self, monkeypatch):
        # nbody_sigma_value divides exact.det(B) by e_4 and the bordered
        # determinant (Bareiss), sharing no code with `polys`.
        _off_int64(monkeypatch)
        sigma = -pencil_quotient(*_nbody_pencil(5))
        assert len(sigma.terms) == 34680
        rng = random.Random(55)
        for _ in range(3):
            r = distances(sampling.random_nonsingular_configuration(rng, 5, 4))
            alpha = sampling.random_positive_alpha(rng, 5)
            assert _at(sigma, [*alpha, *r.squared_values]) == nbody_sigma_value(alpha, r)

    def test_z4_past_the_w_cap(self):
        """Z_4, which factor_w refuses, exactly at 3 seeded rational table
        pairs against det W / (det C_s det C_t).  If Z_4 were wrong, det W -
        det C_s det C_t Z_4 would be a nonzero polynomial of degree at most
        12 in the 32 entries.  Each entry is a / b with a uniform in
        [-2^20, 2^20) and b in [1, 2^10], so it takes any one value with
        probability at most 2^-21 (at most one a per b), and by
        Schwartz-Zippel a point is a root with probability at most 12 / 2^21
        < 6e-6; all three, below 2e-16."""
        with pytest.raises(ResourceCapError):
            factor_w(4)
        z = pencil_quotient(*_w_pencil(4))
        assert len(z.terms) == 61344 and z.degree() == 6
        rng = random.Random(44)
        entry = lambda: Fraction(rng.randrange(-2**20, 2**20), rng.randint(1, 2**10))
        for _ in range(3):
            s, t = (GenericEntryTable([[entry() for _ in range(4)] for _ in range(4)]) for _ in "st")
            det_cs, det_ct = (exact.det(bordered(u).to_lists()) for u in (s, t))
            assert det_cs and det_ct
            det_w = exact.det(w_matrix(s, t).to_lists())
            assert _at(z, [v for u in (s, t) for row in u.entries for v in row]) == det_w / (det_cs * det_ct)


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

    def test_w_caps(self, monkeypatch):
        # One cap, with no opt-in past it; refused before any expansion.
        assert "long_running" not in inspect.signature(factor_w).parameters
        monkeypatch.setattr(factorization, "poly_det", None)
        for n in (4, 5):
            with pytest.raises(ResourceCapError) as info:
                factor_w(n)
            assert str(info.value) == f"generalized determinant capped at 2 <= n <= 3, got {n}"
        with pytest.raises(TypeError):
            factor_w(4, long_running=True)

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
