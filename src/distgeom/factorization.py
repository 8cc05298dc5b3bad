"""Symbolic determinant factorizations, verified exactly.

The determinant of the pair-indexed interaction matrix on n points splits
as e_{n-1}(alpha) times the bordered squared-distance determinant times a
mixed quotient; the determinant of the generalized pair-product matrix
splits as the product of the two bordered table determinants times a
quotient.  Both quotients come from one (n-1) x (n-1) pencil
(`pencil_quotient`), each split is proved by one exact re-multiplication,
and both are packaged as certificates.

Also here: the reduction of the generalized matrix to the interaction
matrix, entrywise and through the generalized split run on the
specialized tables (`sign_dictionary`), the classical three-point
determinant identity in unsquared distances, and exact kernel witnesses
for singular tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .builders import (
    GenericEntryTable,
    bordered,
    cayley_menger,
    nbody_matrix,
    reduced_edm,
    w_matrix,
)
from .core import (
    DistanceVector,
    MassParams,
    PairSpace,
    ResourceCapError,
    VerificationError,
    alpha_values,
    elementary_symmetric,
)
from .polys import SparsePoly, VarTable, poly_det, remultiplies
from .scalars import all_exact, rows_of

SYMBOLIC_CAP = 5
W_CAP = 3


def mass_distance_table(n: int, equal_masses: bool = False) -> VarTable:
    """Variable table holding the mass symbols and squared-distance atoms.

    One symbol per mass parameter ("a_1".."a_n", or a single "a" when all
    masses are equal) followed by one atom "r_i_j" per unordered pair; the
    atoms stand for squared distances.
    """
    if equal_masses:
        names = ["a"]
    else:
        names = [f"a_{i + 1}" for i in range(n)]
    names += [f"r_{p.i + 1}_{p.j + 1}" for p in PairSpace(n).pairs]
    return VarTable(names)


def distance_table(n: int) -> VarTable:
    """Variable table with only the squared-distance atoms."""
    return VarTable(f"r_{p.i + 1}_{p.j + 1}" for p in PairSpace(n).pairs)


def mass_table(n: int) -> VarTable:
    return VarTable(f"a_{i + 1}" for i in range(n))


def pair_table(n: int) -> VarTable:
    """Variable table for two generic n x n tables: all s_i_j then t_i_j."""
    names = [f"s_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    names += [f"t_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    return VarTable(names)


def symbolic_masses(table: VarTable, n: int, equal_masses: bool = False) -> MassParams:
    if equal_masses:
        var = SparsePoly.variable(table, "a")
        return MassParams((var,) * n)
    return MassParams(
        tuple(SparsePoly.variable(table, f"a_{i + 1}") for i in range(n))
    )


def symbolic_squared_distances(table: VarTable, n: int) -> DistanceVector:
    return DistanceVector.from_squared(
        n,
        [
            SparsePoly.variable(table, f"r_{p.i + 1}_{p.j + 1}")
            for p in PairSpace(n).pairs
        ],
    )


def symbolic_entry_table(table: VarTable, n: int, prefix: str) -> GenericEntryTable:
    return GenericEntryTable(
        [
            [SparsePoly.variable(table, f"{prefix}_{i + 1}_{j + 1}") for j in range(n)]
            for i in range(n)
        ]
    )


def _nbody_cap(n: int, long_running: bool):
    if not 2 <= n <= SYMBOLIC_CAP:
        raise ResourceCapError(
            "symbolic interaction determinant capped at "
            f"2 <= n <= {SYMBOLIC_CAP}, got {n}"
        )
    if n == SYMBOLIC_CAP and not long_running:
        raise ResourceCapError(
            f"n = {n} is a long computation; pass long_running=True to proceed"
        )


def symbolic_nbody_det(
    n: int,
    equal_masses: bool = False,
    long_running: bool = False,
    table: VarTable | None = None,
) -> SparsePoly:
    """Fully symbolic determinant of the pair-indexed interaction matrix.

    Guarded by a size cap of 5, checked before any table is built; n at
    the cap itself requires long_running=True because the expansion is large.
    """
    _nbody_cap(n, long_running)
    if table is None:
        table = mass_distance_table(n, equal_masses)
    alpha = symbolic_masses(table, n, equal_masses)
    r = symbolic_squared_distances(table, n)
    return poly_det(nbody_matrix(alpha, r))


def symbolic_cm_det(n: int) -> SparsePoly:
    """Determinant of the bordered squared-distance matrix, symbolically."""
    if n < 2:
        raise ValueError("the bordered distance determinant needs n >= 2")
    r = symbolic_squared_distances(distance_table(n), n)
    return poly_det(cayley_menger(r))


def symbolic_bordered_masses_det(n: int) -> SparsePoly:
    """Determinant of the ones-bordered diagonal mass matrix, symbolically."""
    if n < 1:
        raise ValueError("the bordered mass determinant needs n >= 1")
    table = mass_table(n)
    alpha = symbolic_masses(table, n)
    zero = SparsePoly.zero(table)
    diag = GenericEntryTable.diagonal(list(alpha.alpha), zero=zero)
    return poly_det(bordered(diag))


@dataclass(frozen=True)
class FactorizationCertificate:
    """A verified split lhs = (product of factors) * quotient.

    `verified` records that the quotient, taken from the pencil
    (`pencil_quotient`), times the product of the factors was multiplied
    out symbolically and compared to lhs.
    """

    family: str
    n: int
    lhs: SparsePoly
    factors: tuple
    quotient: SparsePoly
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "vars": list(self.lhs.table.names),
            "lhs_terms": self.lhs.term_count(),
            "factors": [f.to_text() for f in self.factors],
            "quotient": self.quotient.to_text(),
            "verified": self.verified,
        }


def pencil_quotient(x, y, table: VarTable) -> SparsePoly:
    """The Hurwitz determinant H_{m-1} = det[c_{2i-j}] over i, j = 1..m-1 of
    q(mu) = det(x + mu y) = sum_k c_k mu^k (c_k = 0 outside 0..m), for m x m
    polynomial matrices x and y on `table`; 1 when m < 2.

    Both certificates take their quotient from it, with m = n - 1 and point
    n as the base.  Sketch: with u_p = e_i - e_j, W_pq = (u_p^T T u_q)(u_p^T
    S u_q) = (u_p (x) u_p)^T (T (x) S)(u_q (x) u_q), and the C(n,2) vectors
    u_p (x) u_p are a basis of Sym^2(R^m).  So det W is a constant times the
    determinant of X -> (S X T^T + T X S^T)/2 on symmetric X, with S and T
    reduced to S' and T'.  For C = T'^-1 S' that is det T'^(m+1) prod_{i<=j}
    (l_i + l_j)/2 over C's eigenvalues l, and Orlando's formula (Math. Ann.
    71, 1911; Gantmacher, The Theory of Matrices II, ch. XV) turns
    prod_{i<j} (l_i + l_j) into H_{m-1} / det T'^(m-1).  The constants: Z =
    H for S' and T' the double differences u_ab - u_an - u_nb + u_nn of W's
    tables, and sigma = (-1)^n H for S' = 2G and T' = diag(alpha_1..alpha_m)
    + alpha_n J.  Both were found at seeded points, not proved, so each
    certificate proves its own quotient by one re-multiplication.
    """
    rows = list(zip(rows_of(x), rows_of(y)))
    m = len(rows)
    if m < 2:
        return SparsePoly.const(table, 1)
    lifted = VarTable((*table.names, "mu"))
    lift = lambda p, k: {(*e, k): c for e, c in p.terms.items()}
    pencil = [[SparsePoly._raw(lifted, lift(a, 0) | lift(b, 1)) for a, b in zip(*row)]
              for row in rows]
    coeffs = [{} for _ in range(m + 1)]
    for (*e, k), c in poly_det(pencil).terms.items():
        coeffs[k][tuple(e)] = c
    c = lambda k: SparsePoly._raw(table, coeffs[k] if 0 <= k <= m else {})
    return c(1) if m == 2 else poly_det([[c(2 * i - j) for j in range(1, m)] for i in range(1, m)])


def _certified_split(family: str, n: int, lhs, factors, quotient) -> FactorizationCertificate:
    if not remultiplies(lhs, factors, quotient):
        raise VerificationError(f"{family}: re-multiplication check failed")
    return FactorizationCertificate(family, n, lhs, tuple(factors), quotient, True)


def factor_nbody(
    n: int, equal_masses: bool = False, long_running: bool = False
) -> FactorizationCertificate:
    """Split the interaction determinant into e_{n-1} times the bordered
    distance determinant times a mixed quotient, all exactly."""
    _nbody_cap(n, long_running)
    table = mass_distance_table(n, equal_masses)
    alpha = symbolic_masses(table, n, equal_masses).alpha
    r = symbolic_squared_distances(table, n)
    lhs = poly_det(nbody_matrix(alpha, r))
    factors = [elementary_symmetric(n - 1, alpha), poly_det(cayley_menger(r))]
    mass = [[alpha[-1] + alpha[a] if a == b else alpha[-1] for b in range(n - 1)]
            for a in range(n - 1)]
    h = pencil_quotient(reduced_edm(r, n - 1), mass, table)
    return _certified_split("nbody", n, lhs, factors, -h if n % 2 else h)


def _w_split(n: int, s: GenericEntryTable, t: GenericEntryTable, table: VarTable):
    lhs = poly_det(w_matrix(s, t))
    factors = [poly_det(bordered(s)), poly_det(bordered(t))]
    x, y = ([[u[a][b] - u[a][-1] - u[-1][b] + u[-1][-1] for b in range(n - 1)]
             for a in range(n - 1)] for u in (s.entries, t.entries))
    return _certified_split("w", n, lhs, factors, pencil_quotient(x, y, table))


def factor_w(n: int) -> FactorizationCertificate:
    """Split the generalized pair-product determinant into the two bordered
    table determinants times a quotient, over fully generic tables.  Capped
    at n = 3 before any table is built: n = 4 would need 2^64 keys."""
    if not 2 <= n <= W_CAP:
        raise ResourceCapError(
            f"generalized determinant capped at 2 <= n <= {W_CAP}, got {n}"
        )
    table = pair_table(n)
    s = symbolic_entry_table(table, n, "s")
    t = symbolic_entry_table(table, n, "t")
    return _w_split(n, s, t, table)


@dataclass(frozen=True)
class SignDictionaryReport:
    """Exact reduction of the generalized matrix to the interaction matrix.

    The generalized split runs on the specialized tables (s the
    squared-distance table, t the diagonal mass table) by `factor_w`'s own
    route, so its quotient is proved by re-multiplication.  entrywise_ok:
    the specialized generalized matrix is the entrywise negative of the
    interaction matrix.  det_ok: its determinant equals (-1)^(C(n,2)) times
    the interaction determinant.  quotient_ok: the interaction quotient
    equals (-1)^(C(n,2)+1) times the specialized generalized quotient.
    """

    n: int
    entrywise_ok: bool
    det_ok: bool
    quotient_ok: bool

    @property
    def ok(self) -> bool:
        return self.entrywise_ok and self.det_ok and self.quotient_ok


def sign_dictionary(n: int) -> SignDictionaryReport:
    """Verify, exactly and symbolically, the sign conventions relating the
    generalized pair-product matrix to the interaction matrix (2 <= n <= 4)."""
    if not 2 <= n <= 4:
        raise ResourceCapError(f"sign dictionary is symbolic and capped at n <= 4, got {n}")
    cert = factor_nbody(n)
    table = cert.lhs.table
    alpha = symbolic_masses(table, n)
    r = symbolic_squared_distances(table, n)
    spec = _w_split(n, GenericEntryTable.from_distance_vector(r),
                    GenericEntryTable.diagonal(alpha.alpha), table)
    entrywise_ok = specialized_w(alpha, r)[1]
    odd = PairSpace(n).size % 2
    det_ok = spec.lhs == (-cert.lhs if odd else cert.lhs)
    quotient_ok = cert.quotient == (spec.quotient if odd else -spec.quotient)
    return SignDictionaryReport(n, entrywise_ok, det_ok, quotient_ok)


def specialized_w(alpha, r: DistanceVector):
    """(W, W == -B entrywise) for W built from s = the squared-distance
    table and t = diag(alpha), and B the interaction matrix of (alpha, r).

    Works in the regime of the inputs: exact, float or symbolic.
    """
    values = alpha_values(alpha)
    w = w_matrix(
        GenericEntryTable.from_distance_vector(r), GenericEntryTable.diagonal(values)
    )
    b = nbody_matrix(values, r)
    return w, all(w[a, c] == -b[a, c] for a in range(w.nrows) for c in range(w.ncols))


def nbody_sigma_value(alpha, r: DistanceVector):
    """The mixed quotient evaluated at numeric data: det B / (e_{n-1} delta).

    Exact for rational input.  Raises ZeroDivisionError when the
    configuration data makes a factor vanish (degenerate input).
    """
    values = alpha_values(alpha)
    n = r.n
    if not all_exact(r.squared_values) or not all_exact(values):
        raise ValueError("sigma evaluation expects exact rational input")
    delta = exact.det(cayley_menger(r).to_lists())
    big_det = exact.det(nbody_matrix(values, r).to_lists())
    e_val = elementary_symmetric(n - 1, values)
    sigma = Fraction(big_det) / (Fraction(e_val) * Fraction(delta))
    return sigma.numerator if sigma.denominator == 1 else sigma


@dataclass(frozen=True)
class IdentityReport:
    name: str
    ok: bool
    detail: str


def heron_check() -> IdentityReport:
    """Check the three-point bordered determinant against the classical
    product of signed perimeter terms, in unsquared distance variables."""
    d_table = VarTable(["d_1_2", "d_1_3", "d_2_3"])
    d12, d13, d23 = (SparsePoly.variable(d_table, name) for name in d_table.names)
    product = -(
        (d12 + d13 + d23)
        * (-d12 + d13 + d23)
        * (d12 - d13 + d23)
        * (d12 + d13 - d23)
    )
    delta = symbolic_cm_det(3)
    squared = delta.substitute(
        {"r_1_2": d12 * d12, "r_1_3": d13 * d13, "r_2_3": d23 * d23}, d_table
    )
    ok = squared == product
    if not ok:
        raise VerificationError("three-point determinant identity failed")
    detail = f"{len(squared.terms)} expanded terms match the signed product"
    return IdentityReport("heron", True, detail)


def kernel_witness(s: GenericEntryTable) -> list:
    """Exact pair-product kernel vector for a singular bordered table.

    Solves the bordered system exactly, takes the point part x of the
    solution, and returns z with z_{ij} = x_i x_j in pair order; z then
    annihilates the generalized matrix built from s and any second table.
    Nonsingular tables are refused.
    """
    for row in s.entries:
        if not all_exact(row):
            raise ValueError("kernel witness expects exact rational entries")
    c_s = bordered(s).to_lists()
    if exact.det(c_s) != 0:
        raise ValueError("bordered table is nonsingular; no kernel witness exists")
    solution = exact.nullspace_vector(c_s)
    if solution is None:
        raise VerificationError("singular bordered table yielded no kernel vector")
    x = solution[: s.n]
    if all(v == 0 for v in x):
        raise VerificationError("kernel vector has zero point part")
    return [x[p.i] * x[p.j] for p in PairSpace(s.n).pairs]


def annihilates(s: GenericEntryTable, t: GenericEntryTable, z) -> bool:
    """True when the generalized matrix of (s, t) maps z to zero exactly."""
    w = w_matrix(s, t)
    return all(v == 0 for v in w.matvec(z))
