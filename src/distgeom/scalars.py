"""Scalar regime helpers shared across the package.

Two scalar regimes are supported everywhere: IEEE doubles for numeric work
and arbitrary-precision rationals (`int` / `fractions.Fraction`) for exact
work.  Nothing in the package converts implicitly between the two; callers
pick a regime by the scalars they pass in, and the helpers here classify
values and serialize them in a stable way.  Non-integer rationals travel
through JSON as "p/q" strings.

Only the numeric regime needs numpy, so the package reaches it through
`np` below, which imports numpy on first attribute access: exact work
never pays for loading it.
"""

from __future__ import annotations

import importlib
import json
import math
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


def is_exact(value) -> bool:
    """True for scalars that carry no rounding error (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def parse_number(text: str, exact: bool) -> Number:
    """Parse "7", "-3/4" or "0.25" into the requested regime.

    Fraction accepts both rational and terminating-decimal literals, so the
    exact regime converts decimal text without rounding.
    """
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {text!r}") from exc
    if not exact:
        return to_double(value, repr(text))
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
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, str):
        return parse_number(value, exact)
    if isinstance(value, (int, Fraction)):
        if exact:
            return value
        return to_double(value)
    if isinstance(value, float):
        value = to_double(value)
        if exact:
            frac = Fraction(value)
            return frac.numerator if frac.denominator == 1 else frac
        return value
    raise ValueError(f"not a number: {value!r}")


def format_number(value: Number):
    """Render a scalar as a JSON-ready value (int, float, or "p/q")."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    return value


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
    parse_float = Fraction if exact else _finite_float
    return json.loads(text, parse_float=parse_float, parse_constant=_refuse_constant,
                      object_pairs_hook=_unique_keys)


def exact_sqrt(value):
    """Square root of a nonnegative int/Fraction, or None if irrational."""
    frac = Fraction(value)
    if frac < 0:
        raise ValueError("square root of a negative value")
    num_root = math.isqrt(frac.numerator)
    den_root = math.isqrt(frac.denominator)
    if num_root * num_root != frac.numerator:
        return None
    if den_root * den_root != frac.denominator:
        return None
    root = Fraction(num_root, den_root)
    return root.numerator if root.denominator == 1 else root
