"""Constructors for the matrix families used throughout the package.

Every builder is generic over the scalar type of its inputs: exact
rationals, floats and sparse polynomials all work, and nothing converts
between regimes behind the caller's back.  Matrices are immutable dense
containers with optional row/column labels; labels use the 1-based
rendering ("3" for a point, "1,2" for a pair).
"""

from __future__ import annotations

import json

from .core import (
    DimensionMismatch,
    DistanceVector,
    InputFormatError,
    PairSpace,
    alpha_values,
    json_natural,
)
from .polys import SparsePoly
from .scalars import coerce_json_number, format_number


class Matrix:
    """Immutable dense matrix with optional row/column labels."""

    __slots__ = ("data", "nrows", "ncols", "row_labels", "col_labels")

    def __init__(self, data, row_labels=None, col_labels=None):
        rows = tuple(tuple(row) for row in data)
        self.data = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(row) != self.ncols for row in rows):
            raise DimensionMismatch("matrix rows must share one length")
        if row_labels is not None:
            row_labels = tuple(row_labels)
            if len(row_labels) != self.nrows:
                raise DimensionMismatch("one label per row required")
        if col_labels is not None:
            col_labels = tuple(col_labels)
            if len(col_labels) != self.ncols:
                raise DimensionMismatch("one label per column required")
        self.row_labels = row_labels
        self.col_labels = col_labels

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def to_lists(self) -> list[list]:
        return [list(row) for row in self.data]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def matvec(self, vec) -> list:
        vec = list(vec)
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length must equal the column count")
        return [
            sum(entry * x for entry, x in zip(row, vec) if not _is_zero(entry))
            for row in self.data
        ]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def to_json_dict(self) -> dict:
        entries = []
        symbolic = None
        for row in self.data:
            out_row = []
            for value in row:
                if isinstance(value, SparsePoly):
                    symbolic = value.table
                    out_row.append(value.to_text())
                else:
                    out_row.append(format_number(value))
            entries.append(out_row)
        doc = {
            "rows": self.nrows,
            "cols": self.ncols,
            "labels": {
                "rows": list(self.row_labels) if self.row_labels else None,
                "cols": list(self.col_labels) if self.col_labels else None,
            },
            "entries": entries,
        }
        if symbolic is not None:
            doc["vars"] = list(symbolic.names)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _is_zero(value) -> bool:
    if isinstance(value, SparsePoly):
        return value.is_zero()
    return value == 0


class GenericEntryTable:
    """A full n x n table of scalars s_ij, no symmetry assumed."""

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("entry table must be square")
        if n < 1:
            raise DimensionMismatch("entry table needs n >= 1")
        self.n = n
        self.entries = rows

    def get(self, i: int, j: int):
        return self.entries[i][j]

    @classmethod
    def from_distance_vector(cls, r: DistanceVector) -> "GenericEntryTable":
        """Squared-distance table: entries r_ij^2, zero diagonal."""
        return cls([[r.sq(i, j) for j in range(r.n)] for i in range(r.n)])

    @classmethod
    def diagonal(cls, values, zero=0) -> "GenericEntryTable":
        values = list(values)
        n = len(values)
        return cls(
            [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [[format_number(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, exact: bool = True) -> "GenericEntryTable":
        if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
            raise InputFormatError('entry-table JSON must have fields "n" and "entries"')
        n = json_natural(obj, "n", 0)
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != n:
            raise InputFormatError('field "entries" must list exactly n rows')
        parsed = []
        for row in entries:
            if not isinstance(row, list) or len(row) != n:
                raise InputFormatError("every entry row must list exactly n values")
            try:
                parsed.append([coerce_json_number(v, exact) for v in row])
            except ValueError as exc:
                raise InputFormatError(f"bad entry value in row {row!r}") from exc
        return cls(parsed)


def point_labels(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def pair_labels(n: int) -> list[str]:
    return [p.label for p in PairSpace(n).pairs]


def edm(r: DistanceVector) -> Matrix:
    """Matrix of squared distances: entry (i,j) is r_ij^2, zero diagonal."""
    labels = point_labels(r.n)
    return Matrix(
        [[r.sq(i, j) for j in range(r.n)] for i in range(r.n)],
        row_labels=labels,
        col_labels=labels,
    )


def bordered(h: GenericEntryTable) -> Matrix:
    """Border an n x n table with a row and column of ones and corner zero."""
    n = h.n
    rows = [list(h.entries[i]) + [1] for i in range(n)]
    rows.append([1] * n + [0])
    labels = point_labels(n) + ["*"]
    return Matrix(rows, row_labels=labels, col_labels=labels)


def cayley_menger(r: DistanceVector) -> Matrix:
    """Squared-distance matrix bordered by ones: (n+1) x (n+1)."""
    return bordered(GenericEntryTable.from_distance_vector(r))


def reduced_edm(r: DistanceVector, k: int) -> Matrix:
    """(n-1) x (n-1) matrix m_ij = r_ik^2 + r_jk^2 - r_ij^2 over points != k.

    Equals twice the Gram matrix of the differences p_i - p_k whenever r
    comes from an actual configuration; the diagonal is 2 r_ik^2.
    """
    n = r.n
    if not (0 <= k < n):
        raise DimensionMismatch(f"base point {k} out of range for n={n}")
    others = [i for i in range(n) if i != k]
    to_k = [r.sq(i, k) for i in others]
    rows = [[None] * (n - 1) for _ in others]
    for a, i in enumerate(others):
        rows[a][a] = to_k[a] + to_k[a]
        for b in range(a + 1, n - 1):
            rows[a][b] = rows[b][a] = to_k[a] + to_k[b] - r.sq(i, others[b])
    labels = [str(i + 1) for i in others]
    return Matrix(rows, row_labels=labels, col_labels=labels)


def nbody_matrix(alpha, r: DistanceVector) -> Matrix:
    """Pair-indexed interaction matrix over C(n,2) unordered pairs.

    Diagonal entry for pair {i,j}: 2 (alpha_i + alpha_j) r_ij^2.  Two pairs
    sharing exactly the point s contribute alpha_s (r_su^2 + r_sv^2 -
    r_uv^2) where u, v are the unshared points.  Disjoint pairs give zero.
    """
    values = alpha_values(alpha)
    n = r.n
    if len(values) != n:
        raise DimensionMismatch(
            f"expected {n} mass parameters, got {len(values)}"
        )
    space = PairSpace(n)
    rows = []
    for p in space.pairs:
        row = []
        for q in space.pairs:
            if p == q:
                row.append(2 * (values[p.i] + values[p.j]) * r.sq(p.i, p.j))
                continue
            shared = {p.i, p.j} & {q.i, q.j}
            if not shared:
                row.append(0)
                continue
            (s,) = shared
            u = p.j if p.i == s else p.i
            v = q.j if q.i == s else q.i
            row.append(values[s] * (r.sq(s, u) + r.sq(s, v) - r.sq(u, v)))
        rows.append(row)
    labels = pair_labels(n)
    return Matrix(rows, row_labels=labels, col_labels=labels)


def w_matrix(s: GenericEntryTable, t: GenericEntryTable) -> Matrix:
    """Pair-indexed product matrix built from two generic entry tables.

    With canonical representatives i<j and k<l, the entry at (pair {i,j},
    pair {k,l}) is (t_jk + t_il - t_ik - t_jl) * (s_jk + s_il - s_ik -
    s_jl).  The value does not depend on the representative chosen.
    """
    if s.n != t.n:
        raise DimensionMismatch("both entry tables must have the same n")
    n = s.n
    space = PairSpace(n)
    rows = []
    for p in space.pairs:
        i, j = p.i, p.j
        row = []
        for q in space.pairs:
            k, l = q.i, q.j
            t_part = t.get(j, k) + t.get(i, l) - t.get(i, k) - t.get(j, l)
            s_part = s.get(j, k) + s.get(i, l) - s.get(i, k) - s.get(j, l)
            row.append(t_part * s_part)
        rows.append(row)
    labels = pair_labels(n)
    return Matrix(rows, row_labels=labels, col_labels=labels)


def lift_reduced(mk: Matrix, n: int, k: int) -> Matrix:
    """Embed a base-point-k reduced matrix into pair-indexed coordinates.

    Entry (a,b) of the (n-1) x (n-1) input lands at (pair {i,k}, pair
    {j,k}) where i, j run over the points other than k in ascending order;
    all other entries are zero.
    """
    if mk.shape != (n - 1, n - 1):
        raise DimensionMismatch("lift expects an (n-1) x (n-1) matrix")
    if not (0 <= k < n):
        raise DimensionMismatch(f"base point {k} out of range for n={n}")
    space = PairSpace(n)
    others = [i for i in range(n) if i != k]
    size = space.size
    rows = [[0] * size for _ in range(size)]
    for a, i in enumerate(others):
        ra = space.index(i, k)
        for b, j in enumerate(others):
            rb = space.index(j, k)
            rows[ra][rb] = mk[a, b]
    labels = pair_labels(n)
    return Matrix(rows, row_labels=labels, col_labels=labels)
