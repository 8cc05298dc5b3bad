"""Sparse polynomial arithmetic: ring laws, division, determinants, text form."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from distgeom import exact, polys
from distgeom.factorization import symbolic_nbody_det
from distgeom.polys import SparsePoly, VarTable, exact_divide, poly_det, variables


def _random_poly(rng, table, max_terms=5, max_exp=3, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in table.names)
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[exp] = terms.get(exp, 0) + coeff
    return SparsePoly(table, terms)


class TestVarTable:
    def test_lookup(self):
        table = VarTable(["x", "y"])
        assert table.index("y") == 1
        assert "x" in table and "z" not in table
        with pytest.raises(KeyError):
            table.index("z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VarTable(["x", "x"])

    def test_mixed_tables_rejected(self):
        x = SparsePoly.variable(VarTable(["x"]), "x")
        y = SparsePoly.variable(VarTable(["y"]), "y")
        with pytest.raises(ValueError):
            x + y


class TestArithmetic:
    def setup_method(self):
        self.table = VarTable(["x", "y"])
        self.x, self.y = variables(self.table)

    def test_difference_of_squares(self):
        x, y = self.x, self.y
        assert (x + y) * (x - y) == x * x - y * y

    def test_additive_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            p = _random_poly(rng, self.table)
            assert (p + (-p)).is_zero()
            assert p - p == 0

    def test_distributivity_on_random_samples(self):
        rng = random.Random(2)
        for _ in range(20):
            p = _random_poly(rng, self.table)
            q = _random_poly(rng, self.table)
            s = _random_poly(rng, self.table)
            assert p * (q + s) == p * q + p * s

    def test_scalar_mixing(self):
        x = self.x
        assert 2 * x + x * 3 == x.scale(5)
        assert (x + 1) - 1 == x
        assert 1 - x == -(x - 1)
        p = x * Fraction(1, 2) + Fraction(1, 2)
        assert p + p == x + 1

    def test_scalar_products_store_integral_coefficients_as_int(self):
        x, y = self.x, self.y
        p = (x.scale(Fraction(1, 2)) + y.scale(Fraction(3, 4))) * 4
        assert p.terms == {(1, 0): 2, (0, 1): 3}
        assert {type(c) for c in p.terms.values()} == {int}
        q = x * Fraction(6, 2)
        assert {type(c) for c in q.terms.values()} == {int}
        r = (x + y) * Fraction(1, 2)
        assert {type(c) for c in r.terms.values()} == {Fraction}

    def test_polynomial_products_and_sums_store_integral_coefficients_as_int(self):
        x, y = self.x, self.y
        half_x = x.scale(Fraction(1, 2))
        product = half_x * y.scale(2)
        assert product.terms == {(1, 1): 1}
        assert type(product.terms[(1, 1)]) is int
        total = half_x + half_x
        assert total.terms == {(1, 0): 1}
        assert type(total.terms[(1, 0)]) is int
        difference = x.scale(Fraction(3, 2)) - half_x
        assert difference.terms == {(1, 0): 1}
        assert type(difference.terms[(1, 0)]) is int
        mixed = (half_x + y) * (x.scale(2) + y.scale(Fraction(1, 3)))
        assert {type(c) for c in mixed.terms.values()} == {int, Fraction}
        assert mixed.terms[(2, 0)] == 1 and type(mixed.terms[(2, 0)]) is int
        assert mixed.terms[(0, 2)] == Fraction(1, 3)

    def test_power(self):
        x, y = self.x, self.y
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
        assert (x - y) ** 0 == 1
        with pytest.raises(ValueError):
            x ** -1

    def test_degree_of_product_adds(self):
        rng = random.Random(3)
        for _ in range(20):
            p = _random_poly(rng, self.table)
            q = _random_poly(rng, self.table)
            if p.is_zero() or q.is_zero():
                assert (p * q).is_zero()
            else:
                assert (p * q).degree() == p.degree() + q.degree()

    def test_leading_term_is_graded_lexicographic(self):
        x, y = self.x, self.y
        # Total degree wins first, then lex on exponents.
        p = x * y**2 + x**2 * y + x + y**2
        exp, coeff = p.leading_term()
        assert exp == (2, 1) and coeff == 1
        with pytest.raises(ValueError):
            SparsePoly.zero(self.table).leading_term()

    def test_degree_bookkeeping(self):
        x, y = self.x, self.y
        p = x**3 * y + y**2
        assert p.degree() == 4
        assert p.used_vars() == {0, 1}
        assert p.degrees_in([0]) == {3, 0}
        assert p.degrees_in([0, 1]) == {4, 2}
        assert SparsePoly.zero(self.table).degree() == -1


class TestEvaluateAndSubstitute:
    def setup_method(self):
        self.table = VarTable(["x", "y"])
        self.x, self.y = variables(self.table)

    def test_evaluation_is_ring_homomorphism(self):
        rng = random.Random(4)
        for _ in range(20):
            p = _random_poly(rng, self.table)
            q = _random_poly(rng, self.table)
            at = {"x": Fraction(rng.randint(-4, 4), 3), "y": rng.randint(-4, 4)}
            assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)
            assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)

    def test_unused_variables_need_no_value(self):
        p = self.x**2 + 1
        assert p.evaluate({"x": 3}) == 10

    def test_missing_value_is_an_error(self):
        with pytest.raises(ValueError):
            (self.x + self.y).evaluate({"x": 1})

    def test_substitute_polynomial_images(self):
        target = VarTable(["u"])
        (u,) = variables(target)
        p = self.x**2 - self.y
        image = p.substitute({"x": u + 1, "y": 2 * u}, target)
        assert image == u**2 + 1

    def test_substitute_scalars_matches_evaluate(self):
        rng = random.Random(5)
        target = VarTable([])
        for _ in range(10):
            p = _random_poly(rng, self.table)
            at = {"x": rng.randint(-3, 3), "y": Fraction(rng.randint(-3, 3), 2)}
            image = p.substitute(at, target)
            assert image == SparsePoly.const(target, p.evaluate(at))

    def test_scalar_images_give_a_constant_on_the_target(self):
        target = VarTable(["u", "v"])
        image = (self.x * self.y + 3).substitute({"x": 2, "y": 5}, target)
        assert isinstance(image, SparsePoly) and image.table == target
        assert image == SparsePoly.const(target, 13)

    def test_zero_polynomial_gives_zero_on_the_target(self):
        target = VarTable(["u"])
        image = SparsePoly.zero(self.table).substitute({}, target)
        assert isinstance(image, SparsePoly) and image.table == target
        assert image.is_zero()

    def test_fraction_images(self):
        target = VarTable(["u"])
        (u,) = variables(target)
        half = Fraction(1, 2)
        image = (self.x**2 * self.y - self.y).substitute({"x": half * u, "y": half}, target)
        assert image == Fraction(1, 8) * u**2 - half
        assert image.terms == {(2,): Fraction(1, 8), (0,): -half}

    def test_missing_image_is_an_error(self):
        target = VarTable(["u"])
        (u,) = variables(target)
        with pytest.raises(ValueError, match="no value assigned to variable 'y'"):
            (self.x + self.y).substitute({"x": u}, target)

    def test_image_on_another_table_is_an_error(self):
        target, other = VarTable(["u"]), VarTable(["w"])
        (w,) = variables(other)
        with pytest.raises(ValueError, match="wrong variable table"):
            (self.x + 1).substitute({"x": w}, target)


class TestContent:
    def test_integer_gcd(self):
        table = VarTable(["x", "y"])
        x, y = variables(table)
        assert (6 * x + 9 * y).content() == 3
        assert (x - y).content() == 1
        assert SparsePoly.zero(table).content() == 0

    def test_fractions_are_cleared_first(self):
        table = VarTable(["x"])
        (x,) = variables(table)
        p = x.scale(Fraction(1, 2)) + Fraction(3, 2)
        assert p.content() == 1
        q = x.scale(Fraction(4, 3)) + Fraction(8, 3)
        assert q.content() == 4


class TestExactDivide:
    def setup_method(self):
        self.table = VarTable(["x", "y"])
        self.x, self.y = variables(self.table)

    def test_difference_of_squares_quotient(self):
        x, y = self.x, self.y
        assert exact_divide(x**2 - y**2, x + y) == x - y

    def test_non_divisor_returns_none(self):
        x, y = self.x, self.y
        assert exact_divide(x**2 + y, x + y) is None
        assert exact_divide(x, y) is None

    def test_zero_cases(self):
        x = self.x
        assert exact_divide(SparsePoly.zero(self.table), x) == 0
        with pytest.raises(ZeroDivisionError):
            exact_divide(x, SparsePoly.zero(self.table))

    def test_random_products_divide_back(self):
        rng = random.Random(6)
        checked = 0
        while checked < 30:
            p = _random_poly(rng, self.table, max_terms=4)
            q = _random_poly(rng, self.table, max_terms=4)
            if p.is_zero() or q.is_zero():
                continue
            assert exact_divide(p * q, q) == p
            checked += 1

    def test_fractional_leading_coefficients(self):
        x = self.x
        assert exact_divide(x**2 - 1, x.scale(2) + 2) == x.scale(Fraction(1, 2)) - Fraction(1, 2)

    def test_non_unit_leading_coefficient_quotient_types(self):
        x, y = self.x, self.y
        # Integral quotient coefficients come back as int; the others as Fraction.
        q = exact_divide((x.scale(2) + 1) * (x.scale(3) + y), x.scale(3) + y)
        assert q.terms == {(1, 0): 2, (0, 0): 1}
        assert {type(c) for c in q.terms.values()} == {int}
        q = exact_divide((x.scale(Fraction(1, 2)) + 1) * (x.scale(2) + 3), x.scale(2) + 3)
        assert q.terms == {(1, 0): Fraction(1, 2), (0, 0): 1}
        assert type(q.terms[(1, 0)]) is Fraction
        assert type(q.terms[(0, 0)]) is int

    def test_unit_leading_coefficient_quotient_types(self):
        # 7/3 - 1/3 leaves Fraction(2, 1) in the remainder: it must come
        # back as the int 2.
        x, y = self.x, self.y
        q = exact_divide((x.scale(Fraction(1, 3)) + y.scale(2)) * (x + y), x + y)
        assert q.terms == {(1, 0): Fraction(1, 3), (0, 1): 2}
        assert type(q.terms[(0, 1)]) is int


class TestPolyDet:
    def test_methods_agree_on_random_matrices(self):
        table = VarTable(["x", "y", "z"])
        rng = random.Random(7)
        for _ in range(8):
            n = rng.randint(1, 3)
            rows = [
                [_random_poly(rng, table, max_terms=2, max_exp=1, max_coeff=3) for _ in range(n)]
                for _ in range(n)
            ]
            oracle = _oracle_det([[e.terms for e in row] for row in rows], 3)
            assert poly_det(rows).terms == oracle

    def test_matches_scalar_determinant_under_evaluation(self):
        table = VarTable(["x", "y"])
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(1, 4)
            rows = [
                [_random_poly(rng, table, max_terms=2, max_exp=1, max_coeff=2) for _ in range(n)]
                for _ in range(n)
            ]
            det_poly = poly_det(rows)
            at = {"x": Fraction(rng.randint(-3, 3), 2), "y": rng.randint(-3, 3)}
            evaluated = [[entry.evaluate(at) for entry in row] for row in rows]
            assert det_poly.evaluate(at) == exact.det(evaluated)

    def test_repeated_rows_vanish(self):
        table = VarTable(["x", "y"])
        x, y = variables(table)
        rows = [[x, y, 1], [y, x, 1], [x, y, 1]]
        assert poly_det(rows).is_zero()

    def test_accepts_plain_numbers(self):
        assert poly_det([[1, 2], [3, 4]]) == -2
        table = VarTable(["x"])
        (x,) = variables(table)
        assert poly_det([[x, 1], [1, x]]) == x**2 - 1

    def test_integral_coefficients_come_back_as_int(self):
        table = VarTable(["x", "y"])
        x, y = variables(table)
        half_x = x.scale(Fraction(1, 2))
        det = poly_det([[half_x, y], [y, x.scale(2)]])
        assert det.terms == {(2, 0): 1, (0, 2): -1}
        assert {type(c) for c in det.terms.values()} == {int}
        mixed = poly_det([[half_x, y], [y, x]])
        assert mixed.terms == {(2, 0): Fraction(1, 2), (0, 2): -1}
        assert type(mixed.terms[(0, 2)]) is int

    def test_empty_and_nonsquare(self):
        assert poly_det([]) == 1
        with pytest.raises(ValueError):
            poly_det([[1, 2]])
        with pytest.raises(ValueError):
            poly_det([[1], [2], [3]][:2] + [[1, 2]])


def _oracle_mul(p: dict, q: dict) -> dict:
    """Product of two exponent-tuple term dicts, term by term."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _oracle_add(p: dict, q: dict, sign: int) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _oracle_det(rows, width: int) -> dict:
    """Cofactor expansion along the first row, on exponent-tuple term dicts."""
    if not rows:
        return {(0,) * width: 1}
    total = {}
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        piece = _oracle_mul(entry, _oracle_det(minor, width))
        total = _oracle_add(total, piece, -1 if j % 2 else 1)
    return total


class TestPackedKernelEdges:
    """Inputs that exercise the packed-monomial layout inside the kernels."""

    def setup_method(self):
        self.table = VarTable(["x", "y", "z"])
        self.x, self.y, self.z = variables(self.table)

    @pytest.mark.parametrize("big", [128, 200, 300, 40000, 2**40])
    def test_wide_exponents_multiply(self, big):
        # Degree bounds from 128 up need slots wider than one byte.
        x, y = self.x, self.y
        p = x**3 * y + 2 * y
        q = SparsePoly(self.table, {(big, 0, 1): 1, (0, 1, 0): -3})
        assert (p * q).terms == _oracle_mul(p.terms, q.terms)
        assert (p * q).leading_term() == ((big + 3, 1, 1), 1)

    @pytest.mark.parametrize("big", [100, 130, 300, 40000, 2**40])
    def test_wide_exponents_divide(self, big):
        x, y, z = self.x, self.y, self.z
        lead = SparsePoly(self.table, {(big, 0, 0): 1})
        assert exact_divide(lead * lead - y * y, lead - y) == lead + y
        assert exact_divide(lead * z, x * y) is None
        assert exact_divide(lead * x + 1, lead) is None

    def test_wide_exponents_determinant(self):
        x, y, z = self.x, self.y, self.z
        high = SparsePoly(self.table, {(130, 0, 0): 1})
        rows = [[high, y, 0], [z, high, x], [1, 0, high]]
        expected = high**3 - y * (z * high - x)
        assert poly_det(rows) == expected

    def test_degrees_past_the_widest_slot_are_refused(self):
        huge = SparsePoly(self.table, {(2**63, 0, 0): 1})
        with pytest.raises(OverflowError):
            huge * self.x

    def test_negative_exponents_are_refused(self):
        with pytest.raises(ValueError):
            SparsePoly(self.table, {(1, -1, 0): 1})
        with pytest.raises(ValueError):
            SparsePoly.parse_text(self.table, "1 * x^-1")

    def test_zero_variable_table(self):
        table = VarTable([])
        three, four = SparsePoly.const(table, 3), SparsePoly.const(table, 4)
        assert (three * four).terms == {(): 12}
        assert exact_divide(three * four, four) == 3
        assert exact_divide(three, four) == Fraction(3, 4)
        assert poly_det([[three, 1], [four, 2]]) == 2
        assert poly_det([[three, four], [three, four]]).is_zero()
        empty = poly_det([])
        assert empty.table == table and empty.terms == {(): 1}

    def test_negative_non_leading_exponent_is_not_divisible(self):
        x, y, z = self.x, self.y, self.z
        # The leading variable's exponent and the total degree both allow
        # the step; only y (or z) would go negative, which the guard bit
        # has to catch.
        assert exact_divide(x**2, x * y) is None
        assert exact_divide(x**3 * z, x * y * z) is None
        assert exact_divide(x**2 * y, x * z) is None
        assert exact_divide(x**2 * y + y**3, x * y - z**2) is None

    def test_fraction_leading_coefficients(self):
        x, y, z = self.x, self.y, self.z
        den = x.scale(Fraction(2, 3)) + y.scale(Fraction(-1, 5)) + 1
        quot = x * y - z.scale(Fraction(7, 2))
        num = quot * den
        assert exact_divide(num, den) == quot
        assert exact_divide(num, quot) == den
        assert exact_divide(num + x**3, den) is None
        assert (den * den).terms == _oracle_mul(den.terms, den.terms)

    def test_random_products_match_tuple_oracle(self):
        rng = random.Random(11)
        for max_exp in (1, 3, 60, 150, 300):
            for _ in range(15):
                p = _random_poly(rng, self.table, max_terms=6, max_exp=max_exp)
                q = _random_poly(rng, self.table, max_terms=6, max_exp=max_exp)
                assert (p * q).terms == _oracle_mul(p.terms, q.terms)

    def test_random_determinants_match_cofactor_oracle(self):
        rng = random.Random(12)
        for max_exp in (1, 2, 70):
            for _ in range(6):
                n = rng.randint(1, 4)
                rows = [
                    [
                        _random_poly(rng, self.table, max_terms=3, max_exp=max_exp)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                oracle = _oracle_det([[e.terms for e in row] for row in rows], 3)
                assert poly_det(rows).terms == oracle


def _int64_calls(monkeypatch) -> list:
    """Record each call of an int64 step: the sorted accumulate step as its
    product count, a dense level of the minors expansion as "dense"."""
    calls = []
    step, dense = polys._Int64Layout.accumulate, polys._dense_level
    spy = lambda products: calls.append(len(products)) or step(products)
    monkeypatch.setattr(polys._Int64Layout, "accumulate", staticmethod(spy))
    monkeypatch.setattr(polys, "_dense_level", lambda *args: calls.append("dense") or dense(*args))
    return calls


def _dict_step_only(monkeypatch):
    monkeypatch.setattr(polys, "_INT64_MIN_ROWS", float("inf"))


def _int_matrix(seed: int, m: int):
    table = VarTable(["x", "y"])
    rng = random.Random(seed)
    return [
        [_random_poly(rng, table, max_terms=2, max_exp=1, max_coeff=3) for _ in range(m)]
        for _ in range(m)
    ]


class TestInt64Accumulate:
    """Large integer determinants and products sum on int64 arrays when the
    bounds allow it; the dict step is the reference."""

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_determinants_match_the_dict_step(self, monkeypatch, m):
        rows = _int_matrix(20 + m, m)
        calls = _int64_calls(monkeypatch)
        fast = poly_det(rows)
        assert calls and len(fast.terms) > 20
        _dict_step_only(monkeypatch)
        assert fast.terms == poly_det(rows).terms
        assert {type(c) for c in fast.terms.values()} == {int}

    def test_zero_variable_determinant(self, monkeypatch):
        rows = [[(i + 1) * (j + 2) % 7 + (i == j) for j in range(8)] for i in range(8)]
        calls = _int64_calls(monkeypatch)
        assert poly_det(rows).terms == {(): exact.det(rows)}
        assert calls

    def test_large_products_match_the_dict_step(self, monkeypatch):
        # A certificate's re-multiplication is the int64 step's one large
        # product: here 420 x 380 terms, against the same lhs on dicts.
        table = VarTable(["w", "x", "y", "z"])
        rng = random.Random(31)
        factors = []
        for size in (420, 380):
            terms = {}
            while len(terms) < size:
                exp = tuple(rng.randint(0, 9) for _ in table.names)
                terms[exp] = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            factors.append(SparsePoly(table, terms))
        p, q = factors
        lhs = p * q
        layout = polys._int64_layout([[lhs]])
        packed = polys._PackedPoly(lhs.table, layout, layout.pack(lhs.terms))
        calls = _int64_calls(monkeypatch)
        assert polys.remultiplies(packed, [p], q) and calls == [1]
        assert not polys.remultiplies(packed, [p], q + 1) and calls == [1, 1]
        assert polys.remultiplies(lhs, [p], q) and not polys.remultiplies(lhs, [p], q + 1)
        assert calls == [1, 1]

    # Each matrix is a ring image of one the int64 step takes, so its
    # determinant is known; none may reach the int64 step.
    @pytest.mark.parametrize("cause", ["fraction", "key-bound", "coefficient-bound"])
    def test_fallback_to_the_dict_step(self, monkeypatch, cause):
        rows = _int_matrix(40, 8)
        calls = _int64_calls(monkeypatch)
        base = poly_det(rows)
        assert calls
        calls.clear()
        table = base.table
        if cause == "fraction":
            image = lambda e: e.scale(Fraction(1, 2))
            expected = base.scale(Fraction(1, 2**8))
        elif cause == "key-bound":
            # x -> x^k, y -> y^k: radices near 8k each, product past 2^63.
            k = 2**40
            image = lambda e: SparsePoly(table, {(k * a, k * b): c for (a, b), c in e.terms.items()})
            expected = image(base)
        else:
            image = lambda e: e.scale(2**10)
            expected = base.scale(2**80)
            assert max(abs(c) for c in expected.terms.values()) >= 2**63
        assert poly_det([[image(e) for e in row] for row in rows]) == expected
        assert calls == []

    def test_large_product_with_a_fraction_falls_back(self, monkeypatch):
        table = VarTable(["x", "y"])
        p = SparsePoly(table, {(i, j): 1 for i in range(2) for j in range(2)})
        q = SparsePoly(table, {(i, j): i - j for i in range(190) for j in range(190)})
        q = q + SparsePoly(table, {(0, 0): Fraction(1, 3)})
        calls = _int64_calls(monkeypatch)
        lhs = p * q
        assert lhs.terms == _oracle_mul(p.terms, q.terms)
        assert polys._int64_layout([[lhs]]) is None  # so no int64 lhs reaches remultiplies
        assert polys.remultiplies(lhs, [p], q) and not polys.remultiplies(lhs, [p], q + 1)
        assert calls == []


def _poly_matrix(seed: int, m: int, names=("x", "y", "z"), density=1.0):
    """Entries of up to two terms of degree up to 1 in each variable, each
    zero with probability 1 - density."""
    table = VarTable(list(names))
    rng = random.Random(seed)
    return [
        [
            _random_poly(rng, table, max_terms=2, max_exp=1) if rng.random() < density else 0
            for _ in range(m)
        ]
        for _ in range(m)
    ]


def _dict_det(monkeypatch, rows) -> dict:
    with monkeypatch.context() as patch:
        _dict_step_only(patch)
        return poly_det(rows).terms


class TestDenseMinors:
    """The dense first phase of the int64 minors expansion and its handoff
    to the sorted accumulate step; the dict step is the reference."""

    def test_seeded_matrices_match_the_dict_step(self, monkeypatch):
        # Non-homogeneous entries over three and four variables, with some
        # zero entries: a wrong Laplace sign changes the terms.  A nonzero
        # result comes back packed, and a fresh, undecoded copy of it must
        # act as the dict step's result under ==, to_text, repr and -.
        nonzero, calls = 0, _int64_calls(monkeypatch)
        for seed in range(64):
            m, names = 8 + seed % 3, ("w", "x", "y", "z")[seed % 2:]
            rows = _poly_matrix(100 + seed, m, names, density=0.6)
            calls.clear()
            det = poly_det(rows)
            assert "dense" in calls, seed
            plain = SparsePoly._raw(det.table, _dict_det(monkeypatch, rows))
            assert det.terms == plain.terms, seed
            nonzero += bool(plain)
            if plain:
                fresh = lambda: polys._PackedPoly(det.table, det.layout, det.packed)
                assert fresh() == plain and plain == fresh(), seed
                assert fresh().to_text() == plain.to_text() and repr(fresh()) == repr(plain), seed
                assert -fresh() == -plain and (-fresh()).to_text() == (-plain).to_text(), seed
        assert nonzero >= 40

    def test_handoff_at_every_level(self, monkeypatch):
        m = 9
        rows = _poly_matrix(7, m)
        expected = _dict_det(monkeypatch, rows)
        assert len(expected) > 100
        dense, budget, seen = polys._dense_level, polys._DENSE_CELLS, []

        def spy(minors, nonzero, r):  # hands off at r == level
            polys._DENSE_CELLS = -1 if r == level else budget
            seen.append(type(out := dense(minors, nonzero, r)))
            return out

        monkeypatch.setattr(polys, "_DENSE_CELLS", budget)
        monkeypatch.setattr(polys, "_dense_level", spy)
        calls = _int64_calls(monkeypatch)
        for level in range(m + 1):
            seen.clear()
            calls.clear()
            assert poly_det(rows).terms == expected, level
            assert seen == [tuple] * level + [dict], level
            assert calls.count("dense") == level + 1  # the sorted step takes the rest
            assert len(calls) > level + 1 or level == m, level

    def test_zero_rows_and_vanishing_minors(self, monkeypatch):
        table = VarTable(["x", "y", "z"])
        x, y, z = variables(table)
        calls = _int64_calls(monkeypatch)
        for k in (0, 4, 7):
            rows = _poly_matrix(50 + k, 8)
            rows[k] = [SparsePoly.zero(table)] * 8
            calls.clear()
            assert poly_det(rows).is_zero() and "dense" in calls
        # Rows 0 and 1 agree up to x + y on columns 0-2, so each minor of
        # theirs inside those columns vanishes; the determinant does not.
        rows = _poly_matrix(60, 8)
        rows[0][:3] = [x + 1, y - 2 * z, 3 * x * z - y]
        rows[1][:3] = [(x + y) * e for e in rows[0][:3]]
        levels = []
        dense = polys._dense_level
        monkeypatch.setattr(
            polys, "_dense_level", lambda *args: levels.append(out := dense(*args)) or out
        )
        fast = poly_det(rows)
        assert fast.terms == _dict_det(monkeypatch, rows) and not fast.is_zero()
        masks = levels[1][0]
        assert not {0b011, 0b101, 0b110} & set(masks) and 0b1001 in masks
        # Two equal columns: every full minor vanishes.
        rows = _poly_matrix(61, 8)
        for row in rows:
            row[5] = row[2]
        assert poly_det(rows).is_zero()

    def test_equal_mass_five_body_matrix_stays_dense(self, monkeypatch):
        calls = _int64_calls(monkeypatch)
        det = symbolic_nbody_det(5, equal_masses=True, long_running=True)
        assert len(det.terms) == 64063
        assert calls == ["dense"] * 11  # ten rows, then the full minor


class TestPackedResult:
    """copy, deepcopy and a pickle round trip of an undecoded determinant,
    on int64 arrays or a packed-int dict, give a polynomial equal to it, as
    for any SparsePoly."""

    @pytest.mark.parametrize("source", ["equal-mass-det-b-5", "seeded-8-rows", "det-b-4"])
    def test_copy_and_pickle(self, monkeypatch, source):
        if source == "seeded-8-rows":
            rows = _poly_matrix(3, 8)
            det, expected = poly_det(rows), _dict_det(monkeypatch, rows)
        else:
            n = 5 if source == "equal-mass-det-b-5" else 4
            det = symbolic_nbody_det(n, equal_masses=n == 5, long_running=n == 5)
            assert isinstance(det.layout, polys._Int64Layout if n == 5 else polys._Packing)
            expected = polys._PackedPoly(det.table, det.layout, det.packed).terms
        assert type(det) is polys._PackedPoly and len(expected) > 100
        roundtrip = lambda p: pickle.loads(pickle.dumps(p))
        for clone in (copy.copy, copy.deepcopy, roundtrip):
            out = clone(polys._PackedPoly(det.table, det.layout, det.packed))
            assert out.terms == expected and out == det and out.table == det.table


class TestTextRoundtrip:
    def test_known_renderings(self):
        table = VarTable(["x", "y"])
        x, y = variables(table)
        assert (x**2 - 2 * x * y + 1).to_text() == "1 * x^2 + -2 * x * y + 1"
        assert SparsePoly.zero(table).to_text() == "0"
        assert x.scale(Fraction(1, 3)).to_text() == "1/3 * x"

    def test_roundtrip_on_random_polynomials(self):
        table = VarTable(["a_1", "r_1_2", "r_2_3"])
        rng = random.Random(9)
        for _ in range(25):
            p = _random_poly(rng, table)
            assert SparsePoly.parse_text(table, p.to_text()) == p

    def test_roundtrip_with_fractional_coefficients(self):
        table = VarTable(["x"])
        (x,) = variables(table)
        p = x.scale(Fraction(-7, 3)) + Fraction(2, 5)
        assert SparsePoly.parse_text(table, p.to_text()) == p

    def test_rendering_order_is_descending_graded_lex(self):
        table = VarTable(["x", "y"])
        x, y = variables(table)
        p = y**2 + x * y + x
        assert p.to_text() == "1 * x * y + 1 * y^2 + 1 * x"
