"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent tuples (one nonnegative integer per
variable of a shared variable table) to nonzero int/Fraction coefficients.
The representation is canonical -- zero coefficients are never stored -- so
equality is structural.  Leading terms, division and serialization all use
the graded lexicographic order induced by the variable table.

The text format is deterministic: terms in descending graded-lex order,
each rendered as "coeff * name^e * ..." with "^1" omitted, joined by
" + " (negative terms keep their sign on the coefficient).

Exponent tuples are the public form: `terms`, `leading_term`,
`sorted_terms`, `evaluate`, `to_text` and `parse_text` all speak tuples.
The three hot kernels -- polynomial multiplication, `exact_divide` and
the minors expansion inside `poly_det` -- convert to a packed form on
entry and back on exit.  A packed monomial is one int: the exponents sit
in equal byte-aligned slots in variable-table order (first variable most
significant) below one more slot holding the total degree.  The slot
width is chosen from a degree bound the operation reads off its inputs,
so no exponent ever reaches the top (guard) bit of its slot.  Then int
order is graded-lex order, multiplying two monomials adds their ints, and
the divisor's leading monomial divides monomial `k` exactly when
`d = k - lead` has `d >= 0` and no guard bit set (Monagan & Pearce,
"Sparse polynomial division using a heap", JSC 2011).
"""

from __future__ import annotations

import heapq
import math
import struct
from fractions import Fraction
from functools import lru_cache


class VarTable:
    """Ordered, unique variable names shared by a family of polynomials."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        self._index = {name: k for k, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r}")
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, VarTable):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({list(self.names)!r})"


def _grlex_key(exp):
    return (sum(exp), exp)


def _is_number(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


# Slot width in bytes -> struct code of one unsigned big-endian slot.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Packing:
    """Conversion between exponent tuples and packed ints for one layout."""

    __slots__ = ("guard", "_pack", "_unpack", "_size")

    def __init__(self, nvars: int, slot_bytes: int):
        code = _SLOT_CODES[slot_bytes]
        bits = 8 * slot_bytes
        self.guard = sum(1 << (bits * k + bits - 1) for k in range(nvars))
        self._pack = struct.Struct(f">{nvars + 1}{code}").pack
        self._unpack = struct.Struct(f">{slot_bytes}x{nvars}{code}").unpack
        self._size = slot_bytes * (nvars + 1)

    def pack(self, terms: dict) -> dict:
        pack, from_bytes = self._pack, int.from_bytes
        return {from_bytes(pack(sum(e), *e), "big"): c for e, c in terms.items()}

    def unpack(self, terms: dict) -> dict:
        unpack, size = self._unpack, self._size
        return {unpack(k.to_bytes(size, "big")): c for k, c in terms.items()}


@lru_cache(maxsize=None)
def _layout(nvars: int, slot_bytes: int) -> _Packing:
    return _Packing(nvars, slot_bytes)


def _packing(nvars: int, degree_bound: int) -> _Packing:
    """The narrowest layout whose slots hold every degree up to the bound."""
    for slot_bytes in _SLOT_CODES:
        if degree_bound < 1 << (8 * slot_bytes - 1):
            return _layout(nvars, slot_bytes)
    raise OverflowError(f"degree bound {degree_bound} exceeds the packed range")


def _mul_add(small: dict, large: dict, acc: dict, sign: int = 1):
    """acc += sign * small * large, all on packed term dicts."""
    get = acc.get
    for k1, c1 in small.items():
        c1 *= sign
        for k2, c2 in large.items():
            k = k1 + k2
            total = get(k, 0) + c1 * c2
            if total:
                acc[k] = total
            else:
                del acc[k]


class SparsePoly:
    """Immutable-by-convention sparse polynomial over a variable table."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms=None):
        self.table = table
        clean = {}
        width = len(table)
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError("exponent tuple width does not match table")
            if exp and min(exp) < 0:
                raise ValueError("exponents must be nonnegative")
            if isinstance(coeff, Fraction) and coeff.denominator == 1:
                coeff = coeff.numerator
            if coeff:
                clean[exp] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, table: VarTable, terms: dict) -> "SparsePoly":
        # Trusted constructor: terms already canonical (no zeros).
        self = cls.__new__(cls)
        self.table = table
        self.terms = terms
        return self

    @classmethod
    def zero(cls, table: VarTable) -> "SparsePoly":
        return cls._raw(table, {})

    @classmethod
    def const(cls, table: VarTable, value) -> "SparsePoly":
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator
        if not value:
            return cls.zero(table)
        return cls._raw(table, {(0,) * len(table): value})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "SparsePoly":
        exp = [0] * len(table)
        exp[table.index(name)] = 1
        return cls._raw(table, {tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_table(self, other: "SparsePoly"):
        if self.table != other.table:
            raise ValueError("polynomials live on different variable tables")

    def __add__(self, other):
        if _is_number(other):
            other = SparsePoly.const(self.table, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_table(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            total = out.get(exp, 0) + coeff
            if total:
                out[exp] = total
            else:
                out.pop(exp, None)
        return SparsePoly._raw(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if _is_number(other):
            other = SparsePoly.const(self.table, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_number(other):
            if not other:
                return SparsePoly.zero(self.table)
            return SparsePoly._raw(
                self.table, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_table(other)
        if not self.terms or not other.terms:
            return SparsePoly.zero(self.table)
        packing = _packing(len(self.table), self.degree() + other.degree())
        small, large = packing.pack(self.terms), packing.pack(other.terms)
        if len(small) > len(large):
            small, large = large, small
        out: dict = {}
        _mul_add(small, large, out)
        return SparsePoly._raw(self.table, packing.unpack(out))

    __rmul__ = __mul__

    def scale(self, value) -> "SparsePoly":
        return self * value

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = SparsePoly.const(self.table, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.table == other.table and self.terms == other.terms
        if _is_number(other):
            if not other:
                return not self.terms
            return self.terms == {(0,) * len(self.table): other} or self.terms == {
                (0,) * len(self.table): Fraction(other)
            }
        return NotImplemented

    __hash__ = None

    def leading_term(self):
        """(exponent tuple, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def used_vars(self) -> set[int]:
        used = set()
        for exp in self.terms:
            for k, e in enumerate(exp):
                if e:
                    used.add(k)
        return used

    def degrees_in(self, var_indices) -> set[int]:
        """Set of per-term total degrees restricted to the given variables."""
        idx = tuple(var_indices)
        return {sum(exp[k] for k in idx) for exp in self.terms}

    def evaluate(self, assignment: dict):
        """Evaluate at name->scalar; every used variable must be assigned."""
        values = {}
        for k in self.used_vars():
            name = self.table.names[k]
            if name not in assignment:
                raise ValueError(f"no value assigned to variable {name!r}")
            values[k] = assignment[name]
        total = 0
        for exp, coeff in self.terms.items():
            term = coeff
            for k, e in enumerate(exp):
                if e:
                    term = term * values[k] ** e
            total = total + term
        return total

    def substitute(self, mapping: dict, target: VarTable) -> "SparsePoly":
        """Map every used variable to a scalar or polynomial over `target`."""
        images = {}
        for k in self.used_vars():
            name = self.table.names[k]
            if name not in mapping:
                raise ValueError(f"no substitution for variable {name!r}")
            image = mapping[name]
            if not isinstance(image, SparsePoly):
                image = SparsePoly.const(target, image)
            elif image.table != target:
                raise ValueError("substitution image on the wrong variable table")
            images[k] = image
        total = SparsePoly.zero(target)
        for exp, coeff in self.terms.items():
            term = SparsePoly.const(target, coeff)
            for k, e in enumerate(exp):
                for _ in range(e):
                    term = term * images[k]
            total = total + term
        return total

    def content(self) -> int:
        """gcd of the coefficients after clearing denominators; 0 for zero."""
        if not self.terms:
            return 0
        denom_lcm = 1
        for coeff in self.terms.values():
            den = coeff.denominator if isinstance(coeff, Fraction) else 1
            denom_lcm = denom_lcm * den // math.gcd(denom_lcm, den)
        g = 0
        for coeff in self.terms.values():
            g = math.gcd(g, abs(int(coeff * denom_lcm)))
        return g

    def sorted_terms(self):
        """Terms in descending graded-lex order (the serialization order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for exp, coeff in self.sorted_terms():
            parts = [str(coeff)]
            for k, e in enumerate(exp):
                if e == 1:
                    parts.append(self.table.names[k])
                elif e > 1:
                    parts.append(f"{self.table.names[k]}^{e}")
            rendered.append(" * ".join(parts))
        return " + ".join(rendered)

    @classmethod
    def parse_text(cls, table: VarTable, text: str) -> "SparsePoly":
        text = text.strip()
        if text == "0":
            return cls.zero(table)
        terms: dict = {}
        for chunk in text.split(" + "):
            factors = [f.strip() for f in chunk.split("*")]
            exp = [0] * len(table)
            coeff = None
            for factor in factors:
                if coeff is None and (factor.lstrip("-")[:1].isdigit()):
                    coeff = Fraction(factor)
                    continue
                name, _, power = factor.partition("^")
                exp[table.index(name)] += int(power) if power else 1
            coeff = Fraction(1) if coeff is None else coeff
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + coeff
        return cls(table, terms)

    def __repr__(self):
        return f"SparsePoly({self.to_text()!r})"


def variables(table: VarTable) -> list[SparsePoly]:
    return [SparsePoly.variable(table, name) for name in table.names]


def exact_divide(num: SparsePoly, den: SparsePoly):
    """Exact quotient num/den, or None when den does not divide num.

    Multivariate division by a single divisor under graded-lex order: the
    current leading monomial of the remainder must be divisible by the
    divisor's leading monomial at every step, so non-divisibility fails
    fast.  The division runs on packed monomials (see the module
    docstring): the remainder is a dict keyed by packed ints with a heap
    of its keys, and the divisibility test is the guard-bit test.  The
    quotient comes back with exponent tuples and is verified by one
    multiplication before returning.
    """
    if not isinstance(num, SparsePoly) or not isinstance(den, SparsePoly):
        raise TypeError("exact_divide expects two polynomials")
    num._check_table(den)
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return SparsePoly.zero(num.table)
    packing = _packing(len(num.table), max(num.degree(), den.degree()))
    guard = packing.guard
    remainder = packing.pack(num.terms)
    den_terms = packing.pack(den.terms)
    den_key = max(den_terms)
    den_coeff = den_terms.pop(den_key)
    den_rest = list(den_terms.items())
    heap = [-k for k in remainder]
    heapq.heapify(heap)
    get, push, pop = remainder.get, heapq.heappush, heapq.heappop
    quotient: dict = {}
    while heap:
        key = -pop(heap)
        coeff = remainder.pop(key, 0)
        if not coeff:
            continue
        shift = key - den_key
        if shift < 0 or shift & guard:
            return None
        q_coeff = Fraction(coeff) / den_coeff if den_coeff != 1 else coeff
        if isinstance(q_coeff, Fraction) and q_coeff.denominator == 1:
            q_coeff = q_coeff.numerator
        # Leading monomials strictly decrease, so every shift is new.
        quotient[shift] = q_coeff
        for k, c in den_rest:
            target = shift + k
            old = get(target)
            if old is None:
                remainder[target] = -q_coeff * c
                push(heap, -target)
            else:
                total = old - q_coeff * c
                if total:
                    remainder[target] = total
                else:
                    del remainder[target]
    result = SparsePoly._raw(num.table, packing.unpack(quotient))
    if result * den != num:
        return None
    return result


def _entry_rows(matrix):
    if hasattr(matrix, "to_lists"):
        return matrix.to_lists()
    return [list(row) for row in matrix]


def _normalize_symbolic(rows):
    table = None
    for row in rows:
        for entry in row:
            if isinstance(entry, SparsePoly):
                table = entry.table
                break
        if table is not None:
            break
    if table is None:
        table = VarTable([])
    out = []
    for row in rows:
        out_row = []
        for entry in row:
            if isinstance(entry, SparsePoly):
                if entry.table != table:
                    raise ValueError("matrix entries on mixed variable tables")
                out_row.append(entry)
            else:
                out_row.append(SparsePoly.const(table, entry))
        out.append(out_row)
    return out, table


def _det_minors(rows, table: VarTable) -> SparsePoly:
    # Laplace expansion row by row, memoizing minors on column subsets
    # (bitmask-keyed), so each column-subset minor is computed once and
    # every multiplication pairs a small entry with one growing minor.
    # Every minor's degree is at most the sum of its rows' largest entry
    # degrees, which sizes the packed slots.
    n = len(rows)
    bound = sum(max(0, *(entry.degree() for entry in row)) for row in rows)
    packing = _packing(len(table), bound)
    level: dict = {0: {0: 1}}
    for r in range(n):
        row = rows[r]
        nonzero = [(j, packing.pack(row[j].terms)) for j in range(n) if row[j].terms]
        nxt: dict = {}
        for mask, minor in level.items():
            if not minor:
                continue
            for j, entry in nonzero:
                bit = 1 << j
                if mask & bit:
                    continue
                sign = -1 if ((mask & (bit - 1)).bit_count() + r) & 1 else 1
                acc = nxt.get(mask | bit)
                if acc is None:
                    acc = {}
                    nxt[mask | bit] = acc
                _mul_add(entry, minor, acc, sign)
        level = nxt
    full = (1 << n) - 1
    return SparsePoly._raw(table, packing.unpack(level.get(full, {})))


def _det_bareiss(rows, table: VarTable) -> SparsePoly:
    m = [list(row) for row in rows]
    n = len(m)
    sign = 1
    prev = SparsePoly.const(table, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return SparsePoly.zero(table)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * m[i][j] - m[i][k] * m[k][j]
                if k == 0:
                    m[i][j] = num
                else:
                    quot = exact_divide(num, prev)
                    if quot is None:
                        raise ArithmeticError("fraction-free step failed to divide")
                    m[i][j] = quot
            m[i][k] = SparsePoly.zero(table)
        prev = pivot
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def _det_cofactor(rows, table: VarTable) -> SparsePoly:
    n = len(rows)
    if n == 0:
        return SparsePoly.const(table, 1)
    if n == 1:
        return rows[0][0]
    total = SparsePoly.zero(table)
    for j in range(n):
        entry = rows[0][j]
        if not entry.terms:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        piece = entry * _det_cofactor(minor, table)
        total = total + (-piece if j % 2 else piece)
    return total


def poly_det(matrix, method: str = "auto") -> SparsePoly:
    """Determinant of a square matrix of polynomials.

    Methods: "minors" (memoized Laplace expansion, the default workhorse:
    it multiplies small entries into growing minors instead of multiplying
    two large intermediate polynomials), "bareiss" (fraction-free
    elimination with exact polynomial division), and "cofactor" (naive
    expansion, intended as a cross-check on small sizes).  All methods
    agree exactly.  The minors expansion packs every entry once and keeps
    all minors as packed-monomial dicts (see the module docstring); the
    result comes back with exponent tuples like every other polynomial.
    """
    rows = _entry_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("poly_det requires a square matrix")
    symbolic, table = _normalize_symbolic(rows)
    if method == "auto":
        method = "minors"
    if method == "minors":
        return _det_minors(symbolic, table)
    if method == "bareiss":
        return _det_bareiss(symbolic, table)
    if method == "cofactor":
        return _det_cofactor(symbolic, table)
    raise ValueError(f"unknown determinant method {method!r}")
