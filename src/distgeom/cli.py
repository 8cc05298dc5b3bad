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

from .analysis import MEMBER_OUTSIDE, MEMBERSHIP, definiteness, determinant, embed
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

def _infer_n_from_pairs(count: int) -> int:
    n = (1 + math.isqrt(1 + 8 * count)) // 2
    if n < 2 or n * (n - 1) // 2 != count:
        raise InputFormatError(
            f"{count} values do not fill the pair list of any n"
        )
    return n


def _tolerance(text: str) -> float:
    """--tol: a finite, nonnegative double."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and nonnegative, got {text!r}"
        )
    return value


def _samples(text: str) -> int:
    """--samples: a nonnegative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"need a nonnegative integer, got {text!r}")
    return int(text)


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
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
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


def _emit(render, out: str | None):
    """Write render()'s text to --out or stdout.  An exact int past
    CPython's int-to-str digit limit is a resource cap, not bad input."""
    try:
        text = render()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceCapError(f"result has an integer past the {limit}-digit print limit") from None
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise InputFormatError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _cmd_build(args) -> int:
    matrix = _build_matrix(args, args.mode == "exact")
    _emit(lambda: json.dumps(matrix.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_det(args) -> int:
    matrix = _build_matrix(args, args.mode == "exact")
    try:
        value = determinant(matrix)
    except OverflowError as exc:
        raise InputFormatError(f"{exc}; use --mode exact") from exc
    _emit(lambda: str(format_number(value)), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    r = _load_distance_vector(args, args.mode == "exact")
    report = definiteness(reduced_edm(r, r.n - 1), args.tol)
    membership = MEMBERSHIP[report.verdict]
    min_eig = report.min_eigenvalue
    doc = {
        "membership": membership,
        "min_eigenvalue": None if min_eig is None or math.isinf(min_eig) else min_eig,
        "rank": report.rank,
    }
    _emit(lambda: json.dumps(doc), args.out)
    return EXIT_OK if membership != MEMBER_OUTSIDE else EXIT_NEGATIVE


def _cmd_embed(args) -> int:
    r = _load_distance_vector(args, args.mode == "exact")
    try:
        result = embed(r, args.tol)
    except NotEmbeddableError as exc:
        doc = {"error": "outside", "min_eigenvalue": exc.min_eigenvalue}
        sys.stderr.write(json.dumps(doc) + "\n")
        return EXIT_NEGATIVE
    _emit(lambda: json.dumps(result.to_json_dict()), args.out)
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
    _emit(lambda: json.dumps(cert.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    given = {"seed": args.seed, "samples": args.samples, "n_max": args.n}
    options = {k: given[k] for k in suites.SUITES[args.suite] if given[k] is not None}
    result = getattr(suites, f"{args.suite}_suite")(**options)
    verdict = f"{result.name}: {'pass' if result.ok else 'fail'}"
    _emit(lambda: "\n".join([*result.lines, verdict]), args.out)
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
    parser.add_argument("--tol", type=_tolerance, default=1e-10,
                        help="relative tolerance for numeric verdicts")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distgeom",
        description="Distance-geometry matrices, cone certification, "
        "and exact determinant factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, func, summary in (
        ("build", _cmd_build, "construct one of the matrix families"),
        ("det", _cmd_det, "determinant of one of the matrix families"),
    ):
        p_matrix = sub.add_parser(verb, help=summary)
        p_matrix.add_argument("kind", choices=("edm", "cm", "redm", "nbody", "w"))
        _add_distance_inputs(p_matrix)
        p_matrix.add_argument("--alpha", help="comma-separated mass parameters")
        p_matrix.add_argument("--k", type=int, help="base point index (1-based)")
        p_matrix.add_argument("--s", help="first entry-table JSON file (kind w)")
        p_matrix.add_argument("--t", help="second entry-table JSON file (kind w)")
        _add_common(p_matrix)
        p_matrix.set_defaults(func=func)

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
    p_verify.add_argument("suite", choices=tuple(suites.SUITES))
    p_verify.add_argument("--n", type=int, help="largest point count to sample")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=_samples)
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_EXIT_CODES = {  # the class of an error a verb raises -> its exit code
    InputFormatError: EXIT_PARSE, ValueError: EXIT_PARSE, KeyError: EXIT_PARSE,
    DimensionMismatch: EXIT_DIMENSION, ResourceCapError: EXIT_RESOURCE,
    VerificationError: EXIT_NEGATIVE, NotEmbeddableError: EXIT_NEGATIVE,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
