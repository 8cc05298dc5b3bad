"""Domain types: unordered pair indexing, distances, points, masses.

Index conventions are fixed once, here.  Point and pair indices are
0-based throughout the Python API; the serialization boundary (JSON keys,
matrix labels, the command line) renders them 1-based, so the pair of the
first two points appears as "1,2".  Unordered pairs are enumerated
lexicographically: {0,1}, {0,2}, ..., {0,n-1}, {1,2}, ...

Distance data is stored through its squared values, which stay exact for
rational inputs even when the distances themselves are irrational.
"""

from __future__ import annotations

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
    loads_with_exact_numbers,
    np,
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

    def unrank(self, k: int) -> PairIndex:
        return self._pairs[k]

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
    from squared distances (`DistanceVector.from_squared`).  The squared
    accessor is always exact for rational input; the unsquared accessor
    falls back to a float square root when the exact root is irrational.
    """

    def __init__(self, n: int, values):
        seq = self._as_sequence(values, n)
        self._store(n, tuple(seq), tuple(v * v for v in seq))

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
        self._store(n, None, tuple(cls._as_sequence(squared, n)))
        return self

    def _store(self, n: int, r, sq: tuple):
        """Refuse negative values, float squares that are NaN or past the
        double range, and nonzero distances whose float square is 0.0; r is
        None for a vector given by its squares."""
        what = "distances" if r is not None else "squared distances"
        for v in sq if r is None else r:
            if (is_exact(v) or isinstance(v, float)) and v < 0:
                raise ValueError(f"{what} must be nonnegative")
        if any(isinstance(v, float) and not math.isfinite(v) for v in sq):
            raise ValueError("squared distances must be finite doubles")
        if r is not None and any(type(s) is float and v and not s for v, s in zip(r, sq)):
            raise ValueError("a nonzero distance squares to 0.0 in doubles")
        self.n = n
        self.space = pair_space(n)
        self._r = r
        self._sq = sq
        self._exact = all_exact(sq)
        # analysis memoizes the integer reduced matrix of exact vectors here.
        self.reduced_memo = None

    def get(self, i: int, j: int):
        """Distance between points i and j (0 when i == j)."""
        if i == j:
            return 0
        if self._r is not None:
            return self._r[self.space.index(i, j)]
        sq = self._sq[self.space.index(i, j)]
        if is_exact(sq):
            root = exact_sqrt(sq)
            if root is not None:
                return root
        return math.sqrt(float(sq))

    def sq(self, i: int, j: int):
        """Squared distance between points i and j (0 when i == j)."""
        if i == j:
            return 0
        return self._sq[self.space.index(i, j)]

    @property
    def squared_values(self) -> tuple:
        return self._sq

    @property
    def values(self) -> tuple:
        return tuple(self.get(p.i, p.j) for p in self.space.pairs)

    def is_exact(self) -> bool:
        return self._exact

    def __eq__(self, other):
        if not isinstance(other, DistanceVector):
            return NotImplemented
        return self.n == other.n and self._sq == other._sq

    def __hash__(self):
        return hash((self.n, self._sq))

    def __repr__(self):
        return f"DistanceVector(n={self.n}, r={list(self.values)!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": {p.label: format_number(self.get(p.i, p.j)) for p in self.space.pairs},
        }

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
                entries[pair] = coerce_json_number(value, exact)
            except ValueError as exc:
                raise InputFormatError(f'bad value for pair "{label}": {value!r}') from exc
        return cls(n, entries)

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
        self.points = tuple(pts)
        self.n = len(pts)
        self.d = d

    def is_exact(self) -> bool:
        return all(all_exact(p) for p in self.points)

    def transformed(self, matrix, shift=None) -> "PointConfiguration":
        """Apply the linear map `matrix` then translate by `shift`."""
        rows = [tuple(row) for row in matrix]
        if any(len(row) != self.d for row in rows):
            raise DimensionMismatch("map width must equal the point dimension")
        out_d = len(rows)
        if shift is None:
            shift = (0,) * out_d
        shift = tuple(shift)
        if len(shift) != out_d:
            raise DimensionMismatch("shift length must equal the map height")
        moved = []
        for p in self.points:
            image = tuple(
                sum(row[m] * p[m] for m in range(self.d)) + shift[a]
                for a, row in enumerate(rows)
            )
            moved.append(image)
        return PointConfiguration(moved)

    def __eq__(self, other):
        if not isinstance(other, PointConfiguration):
            return NotImplemented
        return self.points == other.points

    def __repr__(self):
        return f"PointConfiguration(n={self.n}, d={self.d})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "points": [[format_number(x) for x in p] for p in self.points],
        }

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

    @property
    def n(self) -> int:
        return len(self.alpha)

    @classmethod
    def from_masses(cls, masses) -> "MassParams":
        values = []
        for m in masses:
            if m == 0:
                raise ValueError("masses must be nonzero")
            if is_exact(m):
                values.append(Fraction(1, 1) / m)
            else:
                values.append(1.0 / m)
        return cls(tuple(values))

    def is_exact(self) -> bool:
        return all_exact(self.alpha)


def alpha_values(alpha) -> tuple:
    """Accept MassParams or a plain sequence of alpha scalars."""
    if isinstance(alpha, MassParams):
        return alpha.alpha
    return tuple(alpha)


def distances(cfg: PointConfiguration) -> DistanceVector:
    """Interpoint distances of a configuration.

    Squared distances are computed exactly for rational coordinates; the
    unsquared entries are exact whenever the root is rational and float
    otherwise.
    """
    sq = []
    for p, q in combinations(cfg.points, 2):
        sq.append(sum((a - b) * (a - b) for a, b in zip(p, q)))
    return DistanceVector.from_squared(cfg.n, sq)


def _difference_columns(cfg: PointConfiguration):
    """Columns p_i - p_last for i < n-1, as a d x (n-1) row-major matrix."""
    base = cfg.points[-1]
    return [
        [cfg.points[i][m] - base[m] for i in range(cfg.n - 1)]
        for m in range(cfg.d)
    ]


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
