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
The hot kernels -- polynomial multiplication and the minors expansion
inside `poly_det` -- and the public `exact_divide`, which nothing in the
package calls, convert to a packed form on entry and back on exit.  A
packed monomial is one int: the exponents sit in equal byte-aligned
slots in variable-table order (first variable most significant) below
one more slot holding the total degree.  The slot width is chosen from
a degree bound the operation reads off its inputs, so no exponent
ever reaches the top (guard) bit of its slot.  Then int
order is graded-lex order, multiplying two monomials adds their ints, and
the divisor's leading monomial divides monomial `k` exactly when
`d = k - lead` has `d >= 0` and no guard bit set (Monagan & Pearce,
"Sparse polynomial division using a heap", JSC 2011).

Large integer work -- a determinant of 8 or more rows and its
certificate -- runs on int64 arrays instead when bounds read off the
inputs prove no key or partial sum reaches 2^63: mixed-radix monomial
keys (Kronecker substitution; von zur Gathen & Gerhard, "Modern Computer
Algebra", 8.4), one stable sort, and `np.add.reduceat` over runs of equal
keys.  A determinant first builds its levels of minors as dense tables by
scatter-adds (`_dense_level`).  A determinant comes back packed in either
layout (`_PackedPoly`, decoded only when read), and both, `_Packing` and
`_Int64Layout`, offer `pack`, `accumulate`, `reproduces` and `unpack`, so a
certificate's one re-multiplication (`remultiplies`) runs in lhs's layout
and never decodes lhs.
"""

from __future__ import annotations

import heapq
import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .scalars import is_exact, np, rows_of


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


def _canonical(coeff):
    """Integral Fractions become ints, as every stored coefficient is."""
    if isinstance(coeff, Fraction) and coeff.denominator == 1:
        return coeff.numerator
    return coeff


# Slot width in bytes -> struct code of one unsigned big-endian slot.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Packing:
    """Conversion between exponent tuples and packed ints for one layout."""

    __slots__ = ("guard", "top", "_pack", "_unpack", "_size")

    def __init__(self, nvars: int, slot_bytes: int):
        code = _SLOT_CODES[slot_bytes]
        bits = 8 * slot_bytes
        self.guard = sum(1 << (bits * k + bits - 1) for k in range(nvars))
        self.top = (1 << (bits - 1)) - 1  # the largest degree a slot holds
        self._pack = struct.Struct(f">{nvars + 1}{code}").pack
        self._unpack = struct.Struct(f">{slot_bytes}x{nvars}{code}").unpack
        self._size = slot_bytes * (nvars + 1)

    def pack(self, terms: dict) -> dict:
        pack, from_bytes = self._pack, int.from_bytes
        return {from_bytes(pack(sum(e), *e), "big"): c for e, c in terms.items()}

    def unpack(self, terms: dict) -> dict:
        unpack, size = self._unpack, self._size
        return {unpack(k.to_bytes(size, "big")): c for k, c in terms.items()}

    def __reduce__(self):  # struct methods do not pickle; rebuild from the shape
        slot_bytes = (self.top.bit_length() + 1) // 8
        return _layout, (self._size // slot_bytes - 1, slot_bytes)

    def fit(self, poly: SparsePoly) -> dict:
        if poly.degree() > self.top:
            raise _Unfit  # a slot would reach its guard bit or overflow
        return self.pack(poly.terms)

    @staticmethod
    def accumulate(products) -> dict:
        """Sum of sign * small * large over (small, large, sign) triples."""
        acc: dict = {}
        get = acc.get
        for small, large, sign in products:
            for k1, c1 in small.items():
                c1 *= sign
                for k2, c2 in large.items():
                    k = k1 + k2
                    total = get(k, 0) + c1 * c2
                    if total:
                        acc[k] = total
                    else:
                        del acc[k]
        return acc

    def divide(self, num: dict, factor: SparsePoly):
        """The packed quotient num / factor, or None when factor does not
        divide, by the heap division `exact_divide` describes; num is kept."""
        if not factor.terms:
            raise ZeroDivisionError("polynomial division by zero")
        (den_key, den_coeff), *den_rest = sorted(self.fit(factor).items(), reverse=True)
        remainder, guard = dict(num), self.guard
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
            if den_coeff == 1:
                q_coeff = coeff if type(coeff) is int else _canonical(coeff)
            elif type(coeff) is int and type(den_coeff) is int:
                q_coeff, rem = divmod(coeff, den_coeff)
                if rem:
                    q_coeff = Fraction(coeff, den_coeff)
            else:
                q_coeff = _canonical(Fraction(coeff) / den_coeff)
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
        return quotient

    def reproduces(self, lhs: dict, product, quotient) -> bool:
        """Whether product * quotient is lhs, whatever the quotient's origin.
        `fit` holds every slot of both at most `top`, so a slot sum stays
        below 2^bits and never carries; a sum past a guard bit is a key that
        lhs does not have."""
        return self.accumulate([(self.fit(product), self.fit(quotient), 1)]) == lhs


@lru_cache(maxsize=None)
def _layout(nvars: int, slot_bytes: int) -> _Packing:
    return _Packing(nvars, slot_bytes)


def _packing(nvars: int, degree_bound: int) -> _Packing:
    """The narrowest layout whose slots hold every degree up to the bound."""
    for slot_bytes in _SLOT_CODES:
        if degree_bound < 1 << (8 * slot_bytes - 1):
            return _layout(nvars, slot_bytes)
    raise OverflowError(f"degree bound {degree_bound} exceeds the packed range")


# Rows from which int64 arrays pay for numpy: det B at n = 5 (10 x 10).
_INT64_MIN_ROWS = 8


class _Unfit(Exception):
    """lhs's layout cannot carry a certificate step (a bound or a degree)."""


class _Int64Layout:
    """int64 keys and coefficients: a monomial's key is sum(e_v * place_v),
    where place_v is the product of the radices after variable v."""

    __slots__ = ("places", "radices")

    def __init__(self, radices):
        places = [math.prod(radices[v + 1:]) for v in range(len(radices))]
        self.places = np.array(places, dtype=np.int64)
        self.radices = np.array(radices, dtype=np.int64)

    def pack(self, terms: dict):
        """(keys, coeffs) sorted by key, as `accumulate` returns them."""
        keys = _exponents(terms, len(self.places)) @ self.places
        order = keys.argsort(kind="stable")
        return keys[order], np.array(list(terms.values()), dtype=np.int64)[order]

    def unpack(self, packed) -> dict:
        keys, coeffs = packed
        columns = (keys[:, None] // self.places % self.radices).T.tolist()  # zip(*): fast tuples
        return dict(zip(zip(*columns) if columns else [()] * len(keys), coeffs.tolist()))

    @staticmethod
    def accumulate(products):
        """Sum of sign * small * large over (small, large, sign) triples, as
        (keys, coeffs) sorted by key without zeros; None when it is zero."""
        return _sum_runs(  # no local names: the unsorted arrays die in _sum_runs
            np.concatenate([np.add.outer(a[0], b[0]).ravel() for a, b, _ in products]),
            np.concatenate([np.multiply.outer(s * a[1], b[1]).ravel() for a, b, s in products]),
        )

    def reproduces(self, lhs, product, quotient) -> bool:
        """Whether product * quotient is lhs; `_Unfit` unless their own
        layout fits in this one: max deg_v P + max deg_v Q < radix_v (no
        digit carries), |P|_1 |Q|_1 < 2^63 (no sum overflows)."""
        fit = _int64_layout([[product], [quotient]])
        if fit is None or (fit.radices > self.radices).any():
            raise _Unfit
        got = self.accumulate([(self.pack(product.terms), self.pack(quotient.terms), 1)])
        return got is not None and all(map(np.array_equal, got, lhs))


def _sum_runs(keys, coeffs):
    """(keys, coeffs) with equal keys summed and zeros dropped, None if all
    cancel; the keys come as sorted runs, which a stable sort merges."""
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)  # first of each run of equal keys
    first[:1] = True  # a slice: zero products leave no keys
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return (keys[starts[keep]], sums[keep]) if keep.any() else None


def _exponents(exps, nvars: int):
    """The exponent tuples as the rows of an int64 array."""
    flat = np.fromiter(chain.from_iterable(exps), np.int64, len(exps) * nvars)
    return flat.reshape(len(exps), nvars)


def _int64_layout(rows):
    """The int64 layout for products of one polynomial from each row, or
    None unless every coefficient is an int and both bounds stay below 2^63."""
    nvars = len(rows[0][0].table)
    radices, coeff_bound = [1] * nvars, 1
    for row in rows:
        coeffs = [coeff for poly in row for coeff in poly.terms.values()]
        if not set(map(type, coeffs)) <= {int}:
            return None
        try:
            exps = _exponents([exp for poly in row for exp in poly.terms], nvars)
        except OverflowError:
            return None
        radices = [radix + top for radix, top in zip(radices, exps.max(0, initial=0).tolist())]
        # Coefficients: every coefficient of a product over a subset R of
        # the rows, and every partial sum of its term products, is at most
        # the product over R of the rows' coefficient 1-norms (max(., 1)
        # keeps a zero row from hiding the rows before it).
        coeff_bound *= max(sum(map(abs, coeffs)), 1)
    # Keys: a product's degree in v is at most the sum over rows of the
    # row's largest degree in v, below radix v, so digits never carry and
    # every key is below the product of the radices.
    if max(math.prod(radices), coeff_bound) >= 1 << 63:
        return None
    return _Int64Layout(radices)


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
            coeff = _canonical(coeff)
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
        value = _canonical(value)
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
        if is_exact(other):
            other = SparsePoly.const(self.table, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_table(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            total = _canonical(out.get(exp, 0) + coeff)
            if total:
                out[exp] = total
            else:
                out.pop(exp, None)
        return SparsePoly._raw(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if is_exact(other):
            other = SparsePoly.const(self.table, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_exact(other):
            if not other:
                return SparsePoly.zero(self.table)
            return SparsePoly._raw(
                self.table, {e: _canonical(c * other) for e, c in self.terms.items()}
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
        out = packing.accumulate([(small, large, 1)])
        if any(type(c) is Fraction for c in self.terms.values()) or any(
            type(c) is Fraction for c in other.terms.values()
        ):
            out = {k: _canonical(c) for k, c in out.items()}
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
        if is_exact(other):
            if not other:
                return not self.terms
            return self.terms == {(0,) * len(self.table): other}
        return NotImplemented

    __hash__ = None

    def leading_term(self):
        """(exponent tuple, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def term_count(self) -> int:
        """The number of terms (a packed result counts without decoding)."""
        return len(self.terms)

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
        if any(isinstance(v, SparsePoly) and v.table != target for v in mapping.values()):
            raise ValueError("substitution image on the wrong variable table")
        value = self.evaluate(mapping)
        return value if isinstance(value, SparsePoly) else SparsePoly.const(target, value)

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


class _PackedPoly(SparsePoly):
    """A SparsePoly held packed in `layout` (int64 (keys, coeffs) sorted by
    key, or a packed-int dict), which `remultiplies` reads; `terms` is decoded
    on first access and cached, so every public behaviour is a SparsePoly's."""

    __slots__ = ("layout", "packed")

    def __init__(self, table: VarTable, layout: _Int64Layout, packed):
        self.table, self.layout, self.packed = table, layout, packed

    def term_count(self) -> int:
        return len(self.packed if type(self.packed) is dict else self.packed[0])

    def __getattr__(self, name):
        # Reached only for a missing attribute: `terms` before its first read.
        if name != "terms":
            raise AttributeError(name)
        self.terms = self.layout.unpack(self.packed)
        return self.terms


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
    loop ends only once the remainder is empty with every leading term
    divided, which proves num == quotient * den, so no re-multiplication
    follows.  The quotient comes back with exponent tuples.
    """
    if not isinstance(num, SparsePoly) or not isinstance(den, SparsePoly):
        raise TypeError("exact_divide expects two polynomials")
    num._check_table(den)
    packing = _packing(len(num.table), max(num.degree(), den.degree()))
    quotient = packing.divide(packing.pack(num.terms), den)
    return None if quotient is None else SparsePoly._raw(num.table, packing.unpack(quotient))


def remultiplies(lhs: SparsePoly, factors, quotient: SparsePoly) -> bool:
    """Whether the product of the factors times the quotient is lhs, by one
    re-multiplication compared with lhs in lhs's layout.

    A determinant arrives packed (int64 arrays or a packed-int dict); any
    other lhs is packed here once, in slots for itself, the product and the
    quotient.  lhs is never decoded.  The one fallback reruns the check on
    a plain lhs if lhs's layout cannot carry it.
    """
    product = math.prod(factors, start=SparsePoly.const(lhs.table, 1))
    if isinstance(lhs, _PackedPoly):
        layout, packed = lhs.layout, lhs.packed
    else:
        layout = _packing(len(lhs.table), max(lhs.degree(), product.degree(), quotient.degree()))
        packed = layout.pack(lhs.terms)
    try:
        return layout.reproduces(packed, product, quotient)
    except _Unfit:
        return remultiplies(SparsePoly._raw(lhs.table, lhs.terms), factors, quotient)


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


_DENSE_CELLS = 1 << 22  # cells of one dense level of the minors (32 MB)
_DENSE_CHUNK = 1 << 17  # cells of one scatter's temporaries


def _dense_level(level, nonzero, r):
    """Minors over rows 0..r as a dense (masks, universe, table), or those
    of `level` as {mask: (keys, coeffs)} if no table follows or it would
    pass `_DENSE_CELLS`.  Table row i holds the minor on masks[i] at the
    sorted keys U_r (U_0 = {0}, U_{r+1} = U_r + row r's keys).  Term (t, c)
    of entry j adds c * sign * T[mask] at row mask | bit j, columns
    searchsorted(U_{r+1}, U_r + t); `np.add.at` sums repeated cells.  Each
    cell is a partial sum of signed term products of one minor, and each
    key one of its keys, so `_int64_layout`'s bounds hold for both.
    """
    masks, universe, table = level
    steps = np.unique(np.concatenate([universe[:0], *(keys for _, (keys, _) in nonzero)]))
    grown = np.sort(np.add.outer(steps, universe), None, kind="stable")  # merges sorted runs
    grown = grown[np.diff(grown, prepend=-1) != 0]  # keys are nonnegative
    targets = sorted({m | 1 << j for m in masks for j, _ in nonzero if not m >> j & 1})
    if not targets or len(targets) * len(grown) > _DENSE_CELLS:
        return {m: (universe[nz], row[nz]) for m, row, nz in zip(masks, table, table != 0)}
    cells = {t: np.searchsorted(grown, universe + t) for t in steps.tolist()}
    index = {m: i * len(grown) for i, m in enumerate(targets)}
    out, chunk = np.zeros((len(targets), len(grown)), np.int64), 1 + _DENSE_CHUNK // len(universe)
    for j, (keys, coeffs) in nonzero:
        src = [i for i, m in enumerate(masks) if not m >> j & 1]
        for lo in range(0, len(src), chunk):
            part = src[lo:lo + chunk]
            signs = [((masks[i] & ((1 << j) - 1)).bit_count() + r) & 1 for i in part]
            minors = table[part] * (1 - 2 * np.array(signs))[:, None]
            base = np.array([index[masks[i] | 1 << j] for i in part])[:, None]
            for t, c in zip(keys.tolist(), coeffs.tolist()):
                np.add.at(out.reshape(-1), (base + cells[t]).ravel(), (c * minors).ravel())
    if not (keep := out.any(1)).all():  # drop vanishing minors, copying only then
        targets, out = [m for m, k in zip(targets, keep.tolist()) if k], out[keep]
    return targets, grown, out


def _det_minors(rows, table: VarTable) -> SparsePoly:
    # Laplace expansion row by row, memoizing minors on column subsets
    # (bitmask-keyed), so each column-subset minor is computed once and
    # every multiplication pairs a small entry with one growing minor.
    # A large integer matrix whose int64 bounds fit runs on dense tables up
    # to the cell budget (`_dense_level`).  After that, or without int64,
    # each level sums the (entry, minor, sign) products of every new minor
    # in one accumulate step.  Every minor's degree is at most the sum of
    # its rows' largest entry degrees, which sizes the packed slots.
    n = len(rows)
    layout = _int64_layout(rows) if n >= _INT64_MIN_ROWS else None
    if layout is None:
        bound = sum(max(0, *(entry.degree() for entry in row)) for row in rows)
        layout = _packing(len(table), bound)
        level = {0: layout.pack({(0,) * len(table): 1})}
    else:
        level = ([0], np.zeros(1, np.int64), np.ones((1, 1), np.int64))
    for r in range(n):
        nonzero = [(j, layout.pack(entry.terms)) for j, entry in enumerate(rows[r]) if entry.terms]
        if type(level) is tuple and type(level := _dense_level(level, nonzero, r)) is tuple:
            continue
        products: dict = {}
        for mask, minor in level.items():
            if not minor:
                continue
            for j, entry in nonzero:
                bit = 1 << j
                if mask & bit:
                    continue
                sign = -1 if ((mask & (bit - 1)).bit_count() + r) & 1 else 1
                products.setdefault(mask | bit, []).append((entry, minor, sign))
        level = {mask: layout.accumulate(triples) for mask, triples in products.items()}
        del products  # frees the previous level's minors before the next level
    if type(level) is tuple:  # the dense phase ran to the last row
        level = _dense_level(level, [], n)
    minor = level.get((1 << n) - 1)
    if minor and Fraction in {type(c) for e in chain(*rows) for c in e.terms.values()}:
        minor = {k: _canonical(c) for k, c in minor.items()}
    return _PackedPoly(table, layout, minor) if minor else SparsePoly.zero(table)


def poly_det(matrix) -> SparsePoly:
    """Determinant of a square matrix of polynomials.

    Memoized Laplace expansion: it multiplies small entries into growing
    minors instead of multiplying two large intermediate polynomials.  The
    expansion packs every entry once and keeps the minors packed: dense
    int64 tables, int64 arrays or packed-monomial dicts (see the module
    docstring).  A nonzero result stays packed in that layout and decodes
    its exponent tuples on first access; `remultiplies` reads it packed.
    """
    rows = rows_of(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("poly_det requires a square matrix")
    return _det_minors(*_normalize_symbolic(rows))
