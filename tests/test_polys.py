"""Sparse polynomial arithmetic: ring laws, division, determinants, text form."""

import random
from fractions import Fraction

import pytest

from distgeom import exact
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
            dets = [poly_det(rows, method=m) for m in ("minors", "bareiss", "cofactor")]
            assert dets[0] == dets[1] == dets[2]

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
