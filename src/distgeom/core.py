"""Domain types: unordered pair indexing, distances, points, masses.

Index conventions are fixed once, here.  Point and pair indices are
0-based throughout the Python API; the serialization boundary (JSON keys,
matrix labels, the command line) renders them 1-based, so the pair of the
first two points appears as "1,2".  Unordered pairs are enumerated
lexicographically: {0,1}, {0,2}, ..., {0,n-1}, {1,2}, ...

Distance data is stored through its squared values: for rational input,
exact ints over one common denominator, even when distances are irrational.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import exact
from .scalars import (
    all_exact,
    coerce_json_number,
    exact_sqrt,
    format_number,
    is_exact,
    json_ratio,
    loads_with_exact_numbers,
    np,
    rational,
)


class DistgeomError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(DistgeomError):
    """Inputs disagree about n, d, or a vector length."""


class InputFormatError(DistgeomError):
    """A JSON document or CLI value does not match the expected schema."""


class ResourceCapError(DistgeomError):
    """A symbolic computation exceeds the configured size cap."""


class NotEmbeddableError(DistgeomError):
    """A distance vector lies outside the squared-distance cone.

    Carries the violating (most negative) eigenvalue as a certificate.
    """

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class VerificationError(DistgeomError):
    """An identity that is supposed to hold exactly failed to verify."""


@dataclass(frozen=True, order=True)
class PairIndex:
    """Unordered pair {i, j} of distinct point indices, stored with i < j."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("pair indices must be distinct")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        if self.i < 0:
            raise ValueError("pair indices must be nonnegative")

    @property
    def label(self) -> str:
        return f"{self.i + 1},{self.j + 1}"


@functools.lru_cache(maxsize=4096)
def _label_points(label: str, n: int) -> tuple[int, int]:
    """The 0-based points (i, j), i < j, of a 1-based "i,j" pair label."""
    try:
        i, j = sorted(int(p) for p in label.split(","))
    except ValueError:
        raise InputFormatError(f"pair label {label!r} is not of the form 'i,j'") from None
    if not (1 <= i and j <= n) or i == j:
        raise InputFormatError(f"pair label {label!r} out of range for n={n}")
    return i - 1, j - 1


def json_natural(obj: dict, field: str, least: int) -> int:
    """obj[field] as an int >= least; JSON booleans and floats are refused."""
    value = obj[field]
    if type(value) is not int or value < least:
        raise InputFormatError(f'field "{field}" must be an integer >= {least}')
    return value


class PairSpace:
    """Lexicographic enumeration of the C(n,2) unordered pairs on n points."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("pair space needs n >= 1")
        self.n = n
        self._pairs = tuple(PairIndex(i, j) for i, j in combinations(range(n), 2))
        # Both orders of every point pair -> its rank: one lookup, no PairIndex.
        self._index = {}
        for k, pair in enumerate(self._pairs):
            self._index[pair.i, pair.j] = self._index[pair.j, pair.i] = k

    @property
    def size(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self) -> tuple[PairIndex, ...]:
        return self._pairs

    def rank(self, pair: PairIndex) -> int:
        return self.index(pair.i, pair.j)

    def index(self, i: int, j: int) -> int:
        """Rank of the pair {i, j} given by two distinct point indices."""
        k = self._index.get((i, j))
        if k is None:
            raise ValueError(f"pair {(i, j)} not in a space on {self.n} points")
        return k

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


@functools.lru_cache(maxsize=64)
def pair_space(n: int) -> PairSpace:
    """The shared PairSpace on n points; it is never mutated."""
    return PairSpace(n)


class DistanceVector:
    """Interpoint distances for n points, stored through squared values.

    Built either from distances themselves (`DistanceVector(n, values)`) or
    from squared distances (`DistanceVector.from_squared`).  An all-exact
    vector keeps its squares as `scaled_squares` = (L, ints L r^2 in pair
    order) over one common denominator L, and given distances as reduced
    (num, den) `ratios`; the ints and Fractions the accessors return are
    built from these on first use.  Other vectors keep both None.
    """

    def __init__(self, n: int, values):
        self._store(n, self._as_sequence(values, n), True)

    @staticmethod
    def _as_sequence(values, n: int) -> list:
        """values in pair order, counted before the pair space is built; a
        dict is keyed by PairIndex or (i, j)."""
        if not isinstance(values, dict):
            values = list(values)
        size = n * (n - 1) // 2
        if len(values) != size:
            raise DimensionMismatch(f"expected {size} pair entries, got {len(values)}")
        if not isinstance(values, dict):
            return values
        space = pair_space(n)
        seq = [None] * size
        for key, v in values.items():
            i, j = (key.i, key.j) if isinstance(key, PairIndex) else key
            k = space.index(i, j)
            if seq[k] is not None:
                raise InputFormatError(f"pair {i + 1},{j + 1} given twice")
            seq[k] = v
        return seq

    @classmethod
    def from_squared(cls, n: int, squared) -> "DistanceVector":
        self = cls.__new__(cls)
        self._store(n, cls._as_sequence(squared, n), False)
        return self

    def _store(self, n: int, seq, given: bool, ratios=None):
        """Store seq (or its reduced (num, den) ratios): the distances when
        given, else their squares.  Refuses negative values, float squares
        that are NaN, infinite or 0.0 for a nonzero distance."""
        what = "distances" if given else "squared distances"
        if ratios is None and all_exact(seq):
            ratios = [(v.numerator, v.denominator) for v in seq]
        if ratios is not None:
            if any(p < 0 for p, _ in ratios):
                raise ValueError(f"{what} must be nonnegative")
            # The square of a reduced p/q is the reduced p^2/q^2, so L is
            # the square of the lcm of the given denominators.
            k = 2 if given else 1
            scale = math.lcm(*(q for _, q in ratios)) ** k
            scaled = tuple(p**k * (scale // q**k) for p, q in ratios)
            self._r, self._sq = None, scaled if scale == 1 else None
            self.scaled_squares, self.ratios = (scale, scaled), tuple(ratios) if given else None
        else:
            if any((is_exact(v) or isinstance(v, float)) and v < 0 for v in seq):
                raise ValueError(f"{what} must be nonnegative")
            sq = tuple(v * v for v in seq) if given else tuple(seq)
            if any(isinstance(v, float) and not math.isfinite(v) for v in sq):
                raise ValueError("squared distances must be finite doubles")
            if given and any(type(s) is float and v and not s for v, s in zip(seq, sq)):
                raise ValueError("a nonzero distance squares to 0.0 in doubles")
            self._r, self._sq = tuple(seq) if given else None, sq
            self.scaled_squares = self.ratios = None
        # analysis memoizes the integer reduced matrix of exact vectors in reduced_memo.
        self.n, self.space, self.reduced_memo = n, pair_space(n), None

    def integral(self) -> "DistanceVector":
        """The vector of squares L r^2 for an exact vector, L its common denominator."""
        twin = copy.copy(self)
        scaled = self.scaled_squares[1]
        twin._r, twin._sq, twin.scaled_squares = None, scaled, (1, scaled)
        twin.ratios = twin.reduced_memo = None
        return twin

    def get(self, i: int, j: int):
        """Distance between points i and j (0 when i == j)."""
        return 0 if i == j else self.values[self.space.index(i, j)]

    def sq(self, i: int, j: int):
        """Squared distance between points i and j (0 when i == j)."""
        return 0 if i == j else (self._sq or self.squared_values)[self.space.index(i, j)]

    @property
    def squared_values(self) -> tuple:
        if self._sq is None:
            scale, scaled = self.scaled_squares
            self._sq = tuple(rational(v, scale) for v in scaled)
        return self._sq

    @property
    def values(self) -> tuple:
        """The given distances, or the roots of the given squares: exact
        where rational, else float."""
        if self._r is None and self.ratios is not None:
            self._r = tuple(rational(p, q) for p, q in self.ratios)
        elif self._r is None:
            sq = self.squared_values
            roots = [exact_sqrt(v) if self.scaled_squares or is_exact(v) else None for v in sq]
            self._r = tuple(math.sqrt(float(v)) if t is None else t for v, t in zip(sq, roots))
        return self._r

    def is_exact(self) -> bool:
        return self.scaled_squares is not None

    def __eq__(self, other):
        if not isinstance(other, DistanceVector):
            return NotImplemented
        return self.n == other.n and self.squared_values == other.squared_values

    def __hash__(self):
        return hash((self.n, self.squared_values))

    def __repr__(self):
        return f"DistanceVector(n={self.n}, r={list(self.values)!r})"

    def to_json_dict(self) -> dict:
        pairs = self.space.pairs
        return {"n": self.n, "r": {p.label: format_number(v) for p, v in zip(pairs, self.values)}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict, exact: bool = True) -> "DistanceVector":
        if not isinstance(obj, dict) or "n" not in obj or "r" not in obj:
            raise InputFormatError('distance JSON must have fields "n" and "r"')
        n = json_natural(obj, "n", 1)
        if not isinstance(obj["r"], dict):
            raise InputFormatError('field "r" must be an object keyed by pair labels')
        entries = {}
        for label, value in obj["r"].items():
            pair = _label_points(label, n)
            if pair in entries:
                raise InputFormatError(f"pair label {label!r} repeats a pair")
            try:
                entries[pair] = json_ratio(value) if exact else coerce_json_number(value, False)
            except ValueError as exc:
                raise InputFormatError(f'bad value for pair "{label}": {value!r}') from exc
        seq, self = cls._as_sequence(entries, n), cls.__new__(cls)
        self._store(n, seq, True, seq if exact else None)
        return self

    @classmethod
    def from_json(cls, text: str, exact: bool = True) -> "DistanceVector":
        return cls.from_json_dict(_loads(text, exact), exact)


class PointConfiguration:
    """n labelled points in d-dimensional space."""

    def __init__(self, points):
        pts = [tuple(p) for p in points]
        if not pts:
            raise DimensionMismatch("a configuration needs at least one point")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise DimensionMismatch("all points must share one dimension")
        self.points, self.n, self.d = tuple(pts), len(pts), d

    def is_exact(self) -> bool:
        return all(all_exact(p) for p in self.points)

    def transformed(self, matrix, shift=None) -> "PointConfiguration":
        """Apply the linear map `matrix` then translate by `shift`."""
        rows = [tuple(row) for row in matrix]
        if any(len(row) != self.d for row in rows):
            raise DimensionMismatch("map width must equal the point dimension")
        shift = (0,) * len(rows) if shift is None else tuple(shift)
        if len(shift) != len(rows):
            raise DimensionMismatch("shift length must equal the map height")
        return PointConfiguration(
            tuple(sum(row[m] * p[m] for m in range(self.d)) + s for row, s in zip(rows, shift))
            for p in self.points
        )

    def __eq__(self, other):
        if not isinstance(other, PointConfiguration):
            return NotImplemented
        return self.points == other.points

    def __repr__(self):
        return f"PointConfiguration(n={self.n}, d={self.d})"

    def to_json_dict(self) -> dict:
        points = [[format_number(x) for x in p] for p in self.points]
        return {"n": self.n, "d": self.d, "points": points}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict, exact: bool = True) -> "PointConfiguration":
        for field in ("n", "d", "points"):
            if not isinstance(obj, dict) or field not in obj:
                raise InputFormatError(f'point JSON must have field "{field}"')
        n, d = json_natural(obj, "n", 0), json_natural(obj, "d", 0)
        points = obj["points"]
        if not isinstance(points, list) or len(points) != n:
            raise InputFormatError('field "points" must list exactly n points')
        parsed = []
        for p in points:
            if not isinstance(p, list) or len(p) != d:
                raise InputFormatError("every point must list exactly d coordinates")
            try:
                parsed.append([coerce_json_number(x, exact) for x in p])
            except ValueError as exc:
                raise InputFormatError(f"bad coordinate in point {p!r}") from exc
        return cls(parsed)

    @classmethod
    def from_json(cls, text: str, exact: bool = True) -> "PointConfiguration":
        return cls.from_json_dict(_loads(text, exact), exact)


def _loads(text: str, exact: bool):
    try:
        return loads_with_exact_numbers(text, exact)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


@dataclass(frozen=True)
class MassParams:
    """Inverse-mass parameters alpha_1..alpha_n.

    Only numeric values are validated; symbolic entries pass through so the
    same builders serve the polynomial regime.
    """

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        if not self.alpha:
            raise DimensionMismatch("mass parameters need at least one entry")

    @classmethod
    def from_masses(cls, masses) -> "MassParams":
        values = []
        for m in masses:
            if m == 0:
                raise ValueError("masses must be nonzero")
            values.append(Fraction(1, 1) / m if is_exact(m) else 1.0 / m)
        return cls(tuple(values))


def alpha_values(alpha) -> tuple:
    """Accept MassParams or a plain sequence of alpha scalars."""
    return alpha.alpha if isinstance(alpha, MassParams) else tuple(alpha)


def distances(cfg: PointConfiguration) -> DistanceVector:
    """Interpoint distances of a configuration.

    Squared distances are computed exactly for rational coordinates; the
    unsquared entries are exact whenever the root is rational and float
    otherwise.
    """
    sq = []
    for p, q in combinations(cfg.points, 2):
        diffs = [a - b for a, b in zip(p, q)]
        if any(isinstance(d, float) and d and not d * d for d in diffs):
            raise ValueError("a nonzero coordinate difference squares to 0.0 in doubles")
        sq.append(sum(d * d for d in diffs))
    return DistanceVector.from_squared(cfg.n, sq)


def _difference_columns(cfg: PointConfiguration):
    """Columns p_i - p_last for i < n-1, as a d x (n-1) row-major matrix."""
    base = cfg.points[-1]
    return [[cfg.points[i][m] - base[m] for i in range(cfg.n - 1)] for m in range(cfg.d)]


def affine_rank(cfg: PointConfiguration, tol: float = 1e-10) -> int:
    """Dimension of the affine span of the points."""
    if cfg.n == 1:
        return 0
    diffs = _difference_columns(cfg)
    if cfg.is_exact():
        return exact.rank(diffs)
    a = np.array([[float(x) for x in row] for row in diffs], dtype=float)
    sing = np.linalg.svd(a, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int(np.count_nonzero(sing > tol * sing[0]))


def is_singular(cfg: PointConfiguration, tol: float = 1e-10) -> bool:
    """True when the points lie in an affine subspace of dimension <= n-2.

    Exact coordinates get an exact rank computation; float coordinates use
    singular values with the relative threshold `tol`.
    """
    return affine_rank(cfg, tol) <= cfg.n - 2


def elementary_symmetric(k: int, alpha) -> object:
    """Elementary symmetric polynomial e_k evaluated on the alpha values.

    Works for any scalar type with + and *, so it also builds symbolic
    polynomials when handed polynomial variables.
    """
    values = alpha_values(alpha)
    n = len(values)
    if not (0 <= k <= n):
        raise ValueError(f"e_{k} undefined for {n} values")
    acc = [1] + [0] * k
    for value in values:
        for j in range(min(k, len(acc) - 1), 0, -1):
            acc[j] = acc[j] + value * acc[j - 1]
    return acc[k]
