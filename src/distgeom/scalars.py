"""Scalar regime helpers shared across the package.

Two scalar regimes are supported everywhere: IEEE doubles for numeric work
and arbitrary-precision rationals (`int` / `fractions.Fraction`) for exact
work.  Nothing in the package converts implicitly between the two; callers
pick a regime by the scalars they pass in, and the helpers here classify
values and serialize them in a stable way.  Non-integer rationals travel
through JSON as "p/q" strings.

Only the numeric regime and large symbolic products need numpy, so the
package reaches it through `np` below, which imports numpy on first
attribute access: other exact work never pays for loading it.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import types
from fractions import Fraction

Number = int | float | Fraction


class _LazyModule(types.ModuleType):
    """Stand-in for a module that imports it on first attribute access.

    Each attribute read through the stand-in is cached on it, so later
    reads cost a plain attribute lookup.
    """

    def __getattr__(self, name):
        value = getattr(importlib.import_module(self.__name__), name)
        setattr(self, name, value)
        return value


np = _LazyModule("numpy")

# Largest exponent magnitude of a literal: CPython's default int digit limit.
MAX_EXPONENT = 4300


def is_exact(value) -> bool:
    """True for scalars that carry no rounding error (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def is_symbolic(value) -> bool:
    """True for a `polys.SparsePoly`.  None exists before that module is
    loaded, so the class is read from sys.modules, never imported here."""
    polys = sys.modules.get(f"{__package__}.polys")
    return polys is not None and isinstance(value, polys.SparsePoly)


def rows_of(matrix) -> list[list]:
    """The rows of a `builders.Matrix` or of any sequence of rows, as new lists."""
    return matrix.to_lists() if hasattr(matrix, "to_lists") else [list(row) for row in matrix]


def _unsigned(text: str) -> str:
    return text[1:] if text[:1] in ("+", "-") else text


def parse_ratio(text: str) -> tuple[int, int]:
    """Reduced (num, den), den > 0, of an exact literal: "7", "-3/4", "0.25"
    or "1e-3", with surrounding whitespace.  A literal with any character
    outside ASCII 0-9 + - / . e E goes to Fraction(str) unchanged, so each
    interpreter accepts exactly what Fraction does.  An exponent past
    MAX_EXPONENT is refused.  Raises ValueError."""
    s = text.strip()
    if "e" in s or "E" in s:  # checked before any power of ten is formed
        exp = _unsigned(s[max(s.rfind("e"), s.rfind("E")) + 1:].replace("_", "")).lstrip("0")
        if exp.isdecimal() and (len(exp) > 9 or int(exp) > MAX_EXPONENT):
            raise ValueError(f"exponent of {text!r} is past the limit of {MAX_EXPONENT}")
    try:
        if s.strip("0123456789+-/.eE"):
            value = Fraction(s)
            return value.numerator, value.denominator
        num, slash, den = _unsigned(s).partition("/")
        mantissa, e, exp = num.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        if not (whole + frac).isdigit() or (e and not _unsigned(exp).isdigit()) or (
                slash and not (num.isdigit() and den.isdigit() and int(den))):
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}") from None
    shift = (int(exp) if e else 0) - len(frac)
    p, q = int(whole + frac) * 10 ** max(shift, 0), int(den or 1) * 10 ** max(-shift, 0)
    g = math.gcd(p, q)
    return (-p if s[:1] == "-" else p) // g, q // g


def parse_number(text: str, exact: bool) -> Number:
    """Parse "7", "-3/4" or "0.25" into the requested regime; decimal text
    converts to the exact regime without rounding."""
    num, den = parse_ratio(text)
    return rational(num, den) if exact else to_double(Fraction(num, den), repr(text))


def rational(num: int, den: int) -> int | Fraction:
    """num/den as an int when it is integral, else as a Fraction."""
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def to_double(value, shown: str = "number") -> float:
    """float(value), refusing what no finite double holds.

    Raises ValueError for NaN, infinities and values past the double range
    (where float() itself would raise OverflowError or return inf).
    """
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{shown} is not a finite double")
    return result


def coerce_json_number(value, exact: bool) -> Number:
    """Normalize a decoded JSON scalar (number or "p/q" string)."""
    if isinstance(value, str):
        return parse_number(value, exact)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, float)):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, float) and exact:
        return rational(*to_double(value).as_integer_ratio())
    return value if exact else to_double(value)


def json_ratio(value) -> tuple[int, int]:
    """coerce_json_number(value, True) as a reduced (num, den) pair."""
    if isinstance(value, str):
        return parse_ratio(value)
    return coerce_json_number(value, True).as_integer_ratio()


def format_number(value: Number):
    """Render a scalar as a JSON-ready value (int, float, or "p/q")."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return value.numerator if isinstance(value, Fraction) else value


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    return to_double(text, repr(text))


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("a JSON object repeats a key")
    return obj


def loads_with_exact_numbers(text: str, exact: bool):
    """json.loads with decimal literals kept exact in the exact regime.

    The parse_float hook sees the raw literal text, so "0.1" becomes the
    rational 1/10 instead of the nearest double; in the numeric regime it
    refuses literals past the double range.  `NaN`, `Infinity` and
    `-Infinity` are refused in both regimes, and so is an object that
    repeats a key.  Refusals raise ValueError.
    """
    parse_float = (lambda t: Fraction(*parse_ratio(t))) if exact else _finite_float
    return json.loads(text, parse_float=parse_float, parse_constant=_refuse_constant,
                      object_pairs_hook=_unique_keys)


def exact_sqrt(value):
    """Square root of a nonnegative int/Fraction, or None if irrational."""
    frac = Fraction(value)
    if frac < 0:
        raise ValueError("square root of a negative value")
    num_root, den_root = math.isqrt(frac.numerator), math.isqrt(frac.denominator)
    if num_root * num_root != frac.numerator or den_root * den_root != frac.denominator:
        return None
    return rational(num_root, den_root)
