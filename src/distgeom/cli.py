"""Command-line interface.

Exit codes: 0 success; 1 negative verification or membership result;
2 input parse error; 3 dimension mismatch; 4 resource cap exceeded.

Outputs are deterministic for a fixed (input, seed, mode) triple: JSON
documents are emitted with stable key order and exact rationals are
rendered as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import (
    MEMBER_BOUNDARY,
    MEMBER_INTERIOR,
    MEMBER_OUTSIDE,
    VERDICT_INDEFINITE,
    VERDICT_PD,
    VERDICT_PSD,
    definiteness,
    determinant,
    embed,
)
from .builders import (
    GenericEntryTable,
    cayley_menger,
    edm,
    nbody_matrix,
    reduced_edm,
    w_matrix,
)
from .core import (
    DimensionMismatch,
    DistanceVector,
    InputFormatError,
    NotEmbeddableError,
    PointConfiguration,
    ResourceCapError,
    VerificationError,
    distances,
)
from .factorization import factor_nbody, factor_w
from .scalars import format_number, loads_with_exact_numbers, parse_number
from . import suites

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_RESOURCE = 4

SUITE_DEFAULT_SAMPLES = {
    "signs": 200,
    "cmdk": 100,
    "roundtrip": 100,
    "forms": 100,
    "menger": 100,
    "signdict": 25,
    "kernel": 20,
    "heron": 0,
    "content": 0,
}


def _infer_n_from_pairs(count: int) -> int:
    n = (1 + math.isqrt(1 + 8 * count)) // 2
    if n < 2 or n * (n - 1) // 2 != count:
        raise InputFormatError(
            f"{count} values do not fill the pair list of any n"
        )
    return n


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _load_distance_vector(args, exact: bool) -> DistanceVector:
    given = [
        name
        for name in ("r", "input", "points")
        if getattr(args, name, None)
    ]
    if len(given) != 1:
        raise InputFormatError(
            "provide exactly one of --r, --input (distance JSON), "
            "--points (configuration JSON)"
        )
    if args.r:
        values = [parse_number(tok, exact) for tok in args.r.split(",")]
        return DistanceVector(_infer_n_from_pairs(len(values)), values)
    if args.input:
        return DistanceVector.from_json(_read_text(args.input), exact)
    cfg = PointConfiguration.from_json(_read_text(args.points), exact)
    return distances(cfg)


def _load_entry_table(path: str, exact: bool) -> GenericEntryTable:
    text = _read_text(path)
    try:
        doc = loads_with_exact_numbers(text, exact)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return GenericEntryTable.from_json_dict(doc, exact)


def _build_matrix(args, exact: bool):
    kind = args.kind
    if kind == "w":
        if not args.s or not args.t:
            raise InputFormatError("kind 'w' needs --s and --t entry-table files")
        return w_matrix(
            _load_entry_table(args.s, exact), _load_entry_table(args.t, exact)
        )
    r = _load_distance_vector(args, exact)
    if kind == "edm":
        return edm(r)
    if kind == "cm":
        return cayley_menger(r)
    if kind == "redm":
        if args.k is None:
            raise InputFormatError("kind 'redm' needs --k (1-based base point)")
        if not 1 <= args.k <= r.n:
            raise DimensionMismatch(f"--k {args.k} out of range for n={r.n}")
        return reduced_edm(r, args.k - 1)
    if kind == "nbody":
        if not args.alpha:
            raise InputFormatError("kind 'nbody' needs --alpha")
        alpha = [parse_number(tok, exact) for tok in args.alpha.split(",")]
        return nbody_matrix(alpha, r)
    raise InputFormatError(f"unknown kind {kind!r}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_build(args) -> int:
    matrix = _build_matrix(args, args.mode == "exact")
    _emit(json.dumps(matrix.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_det(args) -> int:
    matrix = _build_matrix(args, args.mode == "exact")
    value = determinant(matrix)
    rendered = format_number(value)
    _emit(rendered if isinstance(rendered, str) else repr(rendered), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    r = _load_distance_vector(args, args.mode == "exact")
    if r.n == 1:
        doc = {"membership": MEMBER_INTERIOR, "min_eigenvalue": None, "rank": 0}
        _emit(json.dumps(doc), args.out)
        return EXIT_OK
    report = definiteness(reduced_edm(r, r.n - 1), args.tol)
    membership = {
        VERDICT_PD: MEMBER_INTERIOR,
        VERDICT_PSD: MEMBER_BOUNDARY,
        VERDICT_INDEFINITE: MEMBER_OUTSIDE,
    }[report.verdict]
    min_eig = report.min_eigenvalue
    doc = {
        "membership": membership,
        "min_eigenvalue": None if math.isinf(min_eig) else min_eig,
        "rank": report.rank,
    }
    _emit(json.dumps(doc), args.out)
    return EXIT_OK if membership != MEMBER_OUTSIDE else EXIT_NEGATIVE


def _cmd_embed(args) -> int:
    r = _load_distance_vector(args, args.mode == "exact")
    try:
        result = embed(r, args.tol)
    except NotEmbeddableError as exc:
        doc = {"error": "outside", "min_eigenvalue": exc.min_eigenvalue}
        sys.stderr.write(json.dumps(doc) + "\n")
        return EXIT_NEGATIVE
    _emit(json.dumps(result.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_factor(args) -> int:
    if args.family == "nbody":
        cert = factor_nbody(
            args.n,
            equal_masses=args.equal_masses,
            long_running=args.long_running,
        )
    else:
        cert = factor_w(args.n, long_running=args.long_running)
    _emit(json.dumps(cert.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    samples = args.samples
    if samples is None:
        samples = SUITE_DEFAULT_SAMPLES[args.suite]
    name = args.suite
    if name == "signs":
        result = suites.signs_suite(
            seed=args.seed,
            samples=samples,
            n_max=6 if args.n is None else args.n,
            tol=args.tol,
        )
    elif name == "cmdk":
        result = suites.cmdk_suite(
            seed=args.seed, samples=samples, n_max=7 if args.n is None else args.n
        )
    elif name == "roundtrip":
        result = suites.roundtrip_suite(
            seed=args.seed, samples=samples, n_max=8 if args.n is None else args.n
        )
    elif name == "forms":
        result = suites.forms_suite(seed=args.seed, samples=samples)
    elif name == "menger":
        result = suites.menger_suite(
            seed=args.seed, samples=samples, n_max=6 if args.n is None else args.n
        )
    elif name == "signdict":
        result = suites.signdict_suite(seed=args.seed, samples=samples)
    elif name == "heron":
        result = suites.heron_suite()
    elif name == "kernel":
        result = suites.kernel_suite(
            seed=args.seed, samples=samples, n_max=5 if args.n is None else args.n
        )
    else:
        result = suites.content_suite()
    for line in result.lines:
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{result.name}: {'pass' if result.ok else 'fail'}\n")
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def _add_distance_inputs(parser: argparse.ArgumentParser):
    parser.add_argument("--r", help="comma-separated distances in pair order")
    parser.add_argument("--input", help="distance-vector JSON file")
    parser.add_argument("--points", help="point-configuration JSON file")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--mode", choices=("exact", "numeric"), default="exact",
        help="scalar regime for parsed values (default exact)",
    )
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="relative tolerance for numeric verdicts")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distgeom",
        description="Distance-geometry matrices, cone certification, "
        "and exact determinant factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct one of the matrix families")
    p_build.add_argument("kind", choices=("edm", "cm", "redm", "nbody", "w"))
    _add_distance_inputs(p_build)
    p_build.add_argument("--alpha", help="comma-separated mass parameters")
    p_build.add_argument("--k", type=int, help="base point index (1-based)")
    p_build.add_argument("--s", help="first entry-table JSON file (kind w)")
    p_build.add_argument("--t", help="second entry-table JSON file (kind w)")
    _add_common(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_det = sub.add_parser("det", help="determinant of one of the matrix families")
    p_det.add_argument("kind", choices=("edm", "cm", "redm", "nbody", "w"))
    _add_distance_inputs(p_det)
    p_det.add_argument("--alpha", help="comma-separated mass parameters")
    p_det.add_argument("--k", type=int, help="base point index (1-based)")
    p_det.add_argument("--s", help="first entry-table JSON file (kind w)")
    p_det.add_argument("--t", help="second entry-table JSON file (kind w)")
    _add_common(p_det)
    p_det.set_defaults(func=_cmd_det)

    p_check = sub.add_parser(
        "check", help="classify a distance vector against the realizable cone"
    )
    _add_distance_inputs(p_check)
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_embed = sub.add_parser(
        "embed", help="reconstruct a point configuration from distances"
    )
    _add_distance_inputs(p_embed)
    _add_common(p_embed)
    p_embed.set_defaults(func=_cmd_embed)

    p_factor = sub.add_parser(
        "factor", help="symbolic determinant factorization certificate"
    )
    p_factor.add_argument("--n", type=int, required=True)
    p_factor.add_argument(
        "--family", choices=("nbody", "w"), default="nbody",
        help="which determinant to factor (default nbody)",
    )
    p_factor.add_argument(
        "--equal-masses", action="store_true",
        help="use a single shared mass symbol",
    )
    p_factor.add_argument(
        "--long-running", action="store_true",
        help="allow the large symbolic cases",
    )
    _add_common(p_factor)
    p_factor.set_defaults(func=_cmd_factor)

    p_verify = sub.add_parser("verify", help="run a randomized verification suite")
    p_verify.add_argument(
        "suite",
        choices=(
            "signs",
            "cmdk",
            "roundtrip",
            "forms",
            "menger",
            "signdict",
            "heron",
            "kernel",
            "content",
        ),
    )
    p_verify.add_argument("--n", type=int, help="largest point count to sample")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument(
        "--long-running", action="store_true",
        help="allow the large symbolic cases",
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except DimensionMismatch as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIMENSION
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except VerificationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NEGATIVE
    except NotEmbeddableError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NEGATIVE
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
