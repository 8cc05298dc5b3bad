"""Acceptance gate: twelve end-to-end checks with pinned tolerances.

Each test prints exactly one line, "ACCEPTANCE <nn> <slug>: PASS|FAIL",
plus the wall-clock time.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they happen.  Oracles here are deliberately
independent: hand-written polynomials, subset enumerations, and Gram
determinants rather than the library's own factorization output.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

from distgeom import (
    DistanceVector,
    cayley_menger,
    exact,
    factor_nbody,
    factor_w,
    heron_check,
    simplex_volume_sq,
    symbolic_cm_det,
    symbolic_nbody_det,
)
from distgeom.factorization import (
    mass_distance_table,
    symbolic_bordered_masses_det,
    symbolic_masses,
)
from distgeom.polys import SparsePoly, VarTable
from distgeom.suites import (
    cmdk_suite,
    content_suite,
    forms_suite,
    kernel_suite,
    menger_suite,
    roundtrip_suite,
    signdict_suite,
    signs_suite,
)

GOLDENS = Path(__file__).parent / "goldens" / "v1"

# One line per criterion; echoed in the terminal summary by conftest.py
# so the results survive output capture.
RESULT_LINES: list[str] = []


def _golden(name: str) -> str:
    return (GOLDENS / name).read_text().strip()


def _record(line: str):
    RESULT_LINES.append(line)
    print(line)


@contextmanager
def criterion(num: int, slug: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _record(f"ACCEPTANCE {num:02d} {slug}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _record(
            f"ACCEPTANCE {num:02d} {slug}: FAIL ({elapsed:.2f}s over {budget:.0f}s budget)"
        )
        raise AssertionError(
            f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"
        )
    _record(f"ACCEPTANCE {num:02d} {slug}: PASS ({elapsed:.2f}s)")


def _vars(table: VarTable, *names):
    return tuple(SparsePoly.variable(table, name) for name in names)


def test_01_three_body_triple_product():
    # The 3-point interaction determinant equals the product of three
    # hand-written factors: the elementary symmetric polynomial e_2, the
    # six-term bordered-distance determinant, and the mixed linear form.
    with criterion(1, "three-body-triple-product", budget=1.0):
        table = mass_distance_table(3)
        a1, a2, a3, r12, r13, r23 = _vars(
            table, "a_1", "a_2", "a_3", "r_1_2", "r_1_3", "r_2_3"
        )
        lhs = symbolic_nbody_det(3, table=table)
        e2 = a1 * a2 + a1 * a3 + a2 * a3
        delta3 = (
            r12**2 + r13**2 + r23**2
            - 2 * r12 * r13 - 2 * r12 * r23 - 2 * r13 * r23
        )
        sigma3 = -2 * (a1 * r23 + a2 * r13 + a3 * r12)
        assert lhs == e2 * delta3 * sigma3


def test_02_three_point_determinant_and_heron():
    # delta^(3) is exactly the six-term symmetric polynomial, and after
    # substituting squared lengths it is minus the product of the four
    # signed perimeter terms.
    with criterion(2, "three-point-determinant-heron", budget=1.0):
        delta = symbolic_cm_det(3)
        table = delta.table
        r12, r13, r23 = _vars(table, "r_1_2", "r_1_3", "r_2_3")
        assert delta == (
            r12**2 + r13**2 + r23**2
            - 2 * r12 * r13 - 2 * r12 * r23 - 2 * r13 * r23
        )
        d_table = VarTable(["d_1_2", "d_1_3", "d_2_3"])
        d12, d13, d23 = _vars(d_table, "d_1_2", "d_1_3", "d_2_3")
        squared = delta.substitute(
            {"r_1_2": d12 * d12, "r_1_3": d13 * d13, "r_2_3": d23 * d23}, d_table
        )
        product = -(
            (d12 + d13 + d23)
            * (-d12 + d13 + d23)
            * (d12 - d13 + d23)
            * (d12 + d13 - d23)
        )
        assert squared == product
        assert heron_check().ok


def test_03_four_body_split_and_equal_mass_five():
    # The 4-point split must come back verified inside the budget; the
    # 5-point equal-mass case runs under the long-running opt-in and must
    # match its golden file byte for byte.
    with criterion(3, "four-and-five-body-split", budget=20.0):
        cert4 = factor_nbody(4)
        assert cert4.verified
        product = cert4.quotient
        for factor in cert4.factors:
            product = product * factor
        assert product == cert4.lhs
        assert cert4.quotient.to_text() == _golden("sigma_n4.txt")
        cert5 = factor_nbody(5, equal_masses=True, long_running=True)
        assert cert5.verified
        assert cert5.quotient.to_text() == _golden("sigma_n5_equal.txt")


def test_04_generic_table_split():
    # Fully generic tables: the 2-point quotient is literally 1 and the
    # 3-point split is verified by exact division and re-multiplication.
    with criterion(4, "generic-table-split", budget=120.0):
        cert2 = factor_w(2)
        assert cert2.verified
        assert cert2.quotient == 1
        cert3 = factor_w(3)
        assert cert3.verified
        assert cert3.quotient.to_text() == _golden("z_n3.txt")
        product = cert3.quotient
        for factor in cert3.factors:
            product = product * factor
        assert product == cert3.lhs


def test_05_bordered_mass_determinant():
    # det of the ones-bordered diagonal mass table is minus e_{n-1},
    # with the oracle expanded from (n-1)-subsets directly.
    with criterion(5, "bordered-mass-determinant", budget=5.0):
        for n in range(2, 7):
            det = symbolic_bordered_masses_det(n)
            table = det.table
            alphas = [SparsePoly.variable(table, f"a_{i + 1}") for i in range(n)]
            oracle = SparsePoly.zero(table)
            for combo in combinations(alphas, n - 1):
                oracle = oracle + prod(combo)
            assert det == -oracle


def test_06_sign_dictionary():
    # Entrywise negation, determinant parity, and quotient parity between
    # the generic-table matrix and the interaction matrix: symbolic for
    # n <= 4, exact rational spot checks for n = 5, 6.
    with criterion(6, "sign-dictionary"):
        result = signdict_suite(seed=0, samples=25)
        assert result.ok, result.lines


def test_07_reduced_determinant_identity():
    # delta^(n) = (-1)^n det M_k for every base point k, exactly, on 100
    # rational configurations per n up to n = 7.
    with criterion(7, "reduced-determinant-identity", budget=30.0):
        result = cmdk_suite(seed=0, samples=100, n_max=7)
        assert result.ok, result.lines


def test_08_sign_ladder():
    # 200 nonsingular configurations with positive masses: interaction
    # matrix exactly positive definite and the exact sign ladder holds;
    # 50 singular configurations: the interaction determinant is exactly
    # zero.
    with criterion(8, "sign-ladder", budget=60.0):
        result = signs_suite(seed=0, samples=200, singular_samples=50, n_max=6)
        assert result.ok, result.lines


def test_09_embedding_roundtrip():
    # 100 configurations up to n = 8 reconstruct with relative distance
    # error at most 1e-9 and recover the affine rank; the (1,1,3)
    # pseudo-triangle is classified outside and refused.
    with criterion(9, "embedding-roundtrip", budget=30.0):
        result = roundtrip_suite(seed=0, samples=100, n_max=8, tol=1e-9)
        assert result.ok, result.lines


def test_10_quadratic_form_identities():
    # The five form identities on the zero-sum hyperplane, 100 samples
    # each: exact in the rational regime and to 1e-9 in floats.
    with criterion(10, "quadratic-form-identities", budget=30.0):
        result = forms_suite(seed=0, samples=100, tol=1e-9)
        assert result.ok, result.lines


def test_11_simplex_volumes():
    # Squared volumes from distances match the Gram-determinant oracle on
    # 100 rational simplices up to n = 6, and the unit triangle pins 3/16.
    with criterion(11, "simplex-volumes"):
        assert simplex_volume_sq(DistanceVector(3, [1, 1, 1])) == Fraction(3, 16)
        result = menger_suite(seed=0, samples=100, n_max=6)
        assert result.ok, result.lines


def test_12_generic_factor_content():
    # The bordered generic-table determinants are primitive (content 1)
    # for n = 2, 3, 4, so the splits carry no hidden constant factor.
    with criterion(12, "generic-factor-content"):
        result = content_suite()
        assert result.ok, result.lines


def test_positive_alpha_interior_witness():
    # Companion spot check tying criteria 6 and 8 together at one point:
    # the unit triangle with unit masses.  det B = 54, e_2 = 3,
    # delta = -3, so the mixed quotient is -6 and every sign in the
    # ladder is as predicted for n = 3.
    b_rows = [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
    assert exact.det(b_rows) == 54
    assert exact.det(cayley_menger(DistanceVector(3, [1, 1, 1])).to_lists()) == -3
    assert Fraction(54, 3 * -3) == -6


def test_kernel_witnesses():
    # Companion check: singular tables yield exact annihilating pair
    # vectors for every choice of second table.
    result = kernel_suite(seed=0, samples=20, n_max=5)
    assert result.ok, result.lines
