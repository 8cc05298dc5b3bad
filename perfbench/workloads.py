"""The four workloads: seeded inputs, the calls into distgeom, and the
reference each output is checked against.

An operation is one request a user of the library or the CLI would make.
Its `run` makes only the calls into distgeom and is what gets timed; its
`check` compares the output with a reference that shares no code with
the package (goldens, the generator's labels, a Gram-determinant oracle,
expected exit codes) and returns a reason string when the output is
wrong.  Every workload is a list of passes over a fixed set of operation
kinds, so runs of different length keep the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path


class Op:
    __slots__ = ("kind", "run", "check", "known_defect")

    def __init__(self, kind, run, check, known_defect=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_defect = known_defect


def golden(root: Path, name: str) -> str:
    return (root / "tests" / "goldens" / "v1" / name).read_text().strip()


# ---------------------------------------------------------------- oracles


def exact_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions (oracle only)."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class DistanceCase:
    """A labelled distance vector built from known points.

    Points are vertices of a near-regular simplex (every edge within 1% of
    1, so its Gram matrix stays positive definite for up to 12 points),
    repeats of those vertices, or rational points on a line.  Unsquared
    distances are rational by construction, and the affine rank, the
    cone label and the Gram matrix come from the construction, not from
    the distances the program sees.
    """

    def __init__(self, n, dist, label, rank, gram):
        self.n = n
        self.dist = dist  # {(i, j): Fraction}, i < j, 0-based
        self.label = label
        self.rank = rank
        self.gram = gram  # edge Gram matrix from point 0, or None outside

    def pairs(self):
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]

    def sq(self, i, j) -> Fraction:
        if i == j:
            return Fraction(0)
        return self.dist[min(i, j), max(i, j)] ** 2

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "r": {f"{i + 1},{j + 1}": _fmt(self.dist[i, j]) for i, j in self.pairs()},
        }
        return json.dumps(doc)

    def r_arg(self) -> str:
        return ",".join(_fmt(self.dist[p]) for p in self.pairs())

    def volume_sq(self) -> Fraction:
        """Squared (n-1)-volume from the generating Gram matrix."""
        if self.rank < self.n - 1:
            return Fraction(0)
        return exact_det(self.gram) / math.factorial(self.n - 1) ** 2


def _simplex_edges(rng, vertices):
    return {
        (a, b): Fraction(1000 + rng.randint(-10, 10), 1000)
        for a in range(vertices)
        for b in range(a + 1, vertices)
    }


def distance_case(rng: random.Random, n: int, label: str) -> DistanceCase:
    if label == "boundary":
        rank = rng.randint(1, n - 2)
    else:
        rank = n - 1
    if rank == 1 and label == "boundary":
        xs = rng.sample(range(-40, 41), n)
        coords = [Fraction(x, 7) for x in xs]
        dist = {
            (i, j): abs(coords[i] - coords[j]) for i in range(n) for j in range(i + 1, n)
        }
        gram = [
            [(coords[i] - coords[0]) * (coords[j] - coords[0]) for j in range(1, n)]
            for i in range(1, n)
        ]
        return DistanceCase(n, dist, label, rank, gram)
    edges = _simplex_edges(rng, rank + 1)

    def vsq(a, b):
        return Fraction(0) if a == b else edges[min(a, b), max(a, b)] ** 2

    vertex = list(range(rank + 1)) + [
        rng.randrange(rank + 1) for _ in range(n - rank - 1)
    ]
    rng.shuffle(vertex)
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = vertex[i], vertex[j]
            dist[i, j] = Fraction(0) if a == b else edges[min(a, b), max(a, b)]
    v0 = vertex[0]
    gram = [
        [
            (vsq(vertex[i], v0) + vsq(vertex[j], v0) - vsq(vertex[i], vertex[j])) / 2
            for j in range(1, n)
        ]
        for i in range(1, n)
    ]
    if label == "outside":
        # One edge longer than any two others together breaks the
        # triangle inequality, so no configuration realizes the vector.
        i, j = sorted(rng.sample(range(n), 2))
        dist[i, j] = Fraction(5, 2)
        gram = None
    return DistanceCase(n, dist, label, rank, gram)


def _distance_error(case: DistanceCase, points) -> float:
    scale = float(max(case.dist.values()))
    worst = 0.0
    for i, j in case.pairs():
        got = math.dist(points[i], points[j])
        worst = max(worst, abs(got - float(case.dist[i, j])) / scale)
    return worst


# ------------------------------------------------------------- factorings


class Factoring:
    """Symbolic certificates checked byte for byte against goldens."""

    warmup = True

    def __init__(self, root: Path, jobs):
        from distgeom import factorization

        self.fz = factorization
        # The inputs are fixed, so the seed changes nothing here; the order
        # is fixed too, because what ran just before changes the latency
        # of the small certificates.
        self.jobs = [
            (kind, family, kwargs, golden(root, name))
            for kind, family, kwargs, name in jobs
        ]

    def next_pass(self):
        return [self._op(*job) for job in self.jobs]

    def _op(self, kind, family, kwargs, expected):
        def run():
            return getattr(self.fz, family)(**kwargs)

        def check(cert):
            if not cert.verified:
                return "certificate not verified"
            if cert.quotient.to_text() != expected:
                return "quotient differs from golden"
            return None

        return Op(kind, run, check)


def factor_n5eq(root, seed, in_process, workdir):
    wl = Factoring(
        root,
        [
            (
                "nbody5eq",
                "factor_nbody",
                {"n": 5, "equal_masses": True, "long_running": True},
                "sigma_n5_equal.txt",
            )
        ],
    )
    wl.warmup = False
    return wl


def factor_small(root, seed, in_process, workdir):
    return Factoring(
        root,
        [
            ("nbody2", "factor_nbody", {"n": 2}, "sigma_n2.txt"),
            ("nbody3", "factor_nbody", {"n": 3}, "sigma_n3.txt"),
            ("nbody4", "factor_nbody", {"n": 4}, "sigma_n4.txt"),
            ("w2", "factor_w", {"n": 2}, "z_n2.txt"),
            ("w3", "factor_w", {"n": 3}, "z_n3.txt"),
        ],
    )


# ---------------------------------------------------------------- certify

CERTIFY_SIZES = range(3, 13)
LABELS = ("interior", "boundary", "outside")
CERTIFY_COPIES = 2


class Certify:
    """Distance-vector JSON requests: parse, classify, embed, measure.

    The pool is stratified, CERTIFY_COPIES documents for every (n, label),
    so the mix of sizes and verdicts is the same for every seed.
    """

    warmup = True

    def __init__(self, root: Path, seed: int, in_process, workdir):
        from distgeom import analysis, core

        self.analysis = analysis
        self.core = core
        rng = random.Random(seed)
        self.cases = [
            distance_case(rng, n, label)
            for n in CERTIFY_SIZES
            for label in LABELS
            for _ in range(CERTIFY_COPIES)
        ]
        rng.shuffle(self.cases)
        self.volumes = [c.volume_sq() if c.gram is not None else None for c in self.cases]

    def next_pass(self):
        return [self._op(case, vol) for case, vol in zip(self.cases, self.volumes)]

    def _op(self, case: DistanceCase, volume):
        text = case.to_json()
        an = self.analysis
        core = self.core

        def run():
            r = core.DistanceVector.from_json(text)
            verdict = an.cone_membership(r)
            if verdict == "outside":
                return verdict, None, None
            return verdict, an.embed(r), an.simplex_volume_sq(r)

        def check(result):
            verdict, emb, vol = result
            if verdict != case.label:
                return f"verdict {verdict}, expected {case.label}"
            if emb is None:
                return None
            if emb.d != case.rank:
                return f"embedding dimension {emb.d}, expected {case.rank}"
            if not emb.residual <= 1e-9:
                return f"embedding residual {emb.residual}"
            error = _distance_error(case, emb.config.points)
            if not error <= 1e-9:
                return f"embedded distances off by {error}"
            if Fraction(vol) != volume:
                return "volume differs from the Gram oracle"
            return None

        return Op(f"{case.label}-n{case.n}", run, check)


# ---------------------------------------------------------------- cli-cold

# Malformed inputs that ROADMAP lists as robustness defects.  The expected
# outcome is a refusal: exit 1-4, one `error:` line, no traceback; the
# huge-but-valid 1e200 vector may instead be answered correctly.
PROBE_FILES = {
    "nan.json": '{"n": 3, "r": {"1,2": NaN, "1,3": 1, "2,3": 1}}',
    "inf.json": '{"n": 3, "r": {"1,2": Infinity, "1,3": 1, "2,3": 1}}',
    "list.json": '{"n": 3, "r": [1, 1, 1]}',
}


def _refused(code, out, err):
    if "Traceback" in err:
        return "traceback"
    if not 1 <= code <= 4:
        return f"exit {code}, expected 1-4"
    lines = [line for line in err.splitlines() if line.strip()]
    if len(lines) == 1 and lines[0].startswith("error:"):
        return None
    tail = out.strip().splitlines()[-1:] if out.strip() else []
    if code == 1 and not lines and tail and tail[0].endswith(": fail"):
        return None
    return "no one-line error: message"


class CliCold:
    """Fresh `python -m distgeom.cli` processes, one at a time.

    Each pass runs the six verbs on small seeded inputs, then the six
    malformed inputs.  With in_process=True the same argv lists are
    replayed through `distgeom.cli.main` in this interpreter, which is how
    the traced run sees inside the CLI.
    """

    warmup = True

    def __init__(self, root: Path, seed: int, in_process: bool, workdir: Path):
        self.rng = random.Random(seed)
        self.in_process = in_process
        self.workdir = workdir
        self.sigma_n3 = golden(root, "sigma_n3.txt")
        for name, text in PROBE_FILES.items():
            (workdir / name).write_text(text + "\n")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _invoke(self, argv):
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "distgeom.cli", *argv],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=self.workdir,
                timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr
        from distgeom import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def _op(self, kind, argv, check, known_defect=False):
        def checked(result):
            code, out, err = result
            if not known_defect and "Traceback" in err:
                return "traceback"
            return check(code, out, err)

        return Op(kind, lambda: self._invoke(argv), checked, known_defect)

    def next_pass(self):
        rng = self.rng
        ops = []

        build = distance_case(rng, rng.choice((3, 4, 5)), "interior")
        k = rng.randrange(build.n)

        def check_build(code, out, err):
            if code != 0:
                return f"exit {code}"
            entries = json.loads(out)["entries"]
            others = [i for i in range(build.n) if i != k]
            want = [
                [build.sq(i, k) + build.sq(j, k) - build.sq(i, j) for j in others]
                for i in others
            ]
            got = [[Fraction(str(v)) for v in row] for row in entries]
            return None if got == want else "reduced matrix differs"

        argv = ["build", "redm", "--r", build.r_arg(), "--k", str(k + 1)]
        ops.append(self._op("build", argv, check_build))

        det = distance_case(rng, rng.choice((3, 4, 5)), rng.choice(LABELS))

        def check_det(code, out, err):
            if code != 0:
                return f"exit {code}"
            n = det.n
            cm = [[det.sq(i, j) for j in range(n)] + [1] for i in range(n)]
            cm.append([1] * n + [0])
            return None if Fraction(out.strip()) == exact_det(cm) else "determinant differs"

        ops.append(self._op("det", ["det", "cm", "--r", det.r_arg()], check_det))

        chk = distance_case(rng, rng.choice((3, 4, 5)), rng.choice(LABELS))

        def check_check(code, out, err):
            want_code = 1 if chk.label == "outside" else 0
            if code != want_code:
                return f"exit {code}, expected {want_code}"
            got = json.loads(out)["membership"]
            return None if got == chk.label else f"membership {got}, expected {chk.label}"

        ops.append(self._op("check", ["check", "--r", chk.r_arg()], check_check))

        emb = distance_case(rng, rng.choice((3, 4, 5)), rng.choice(LABELS[:2]))

        def check_embed(code, out, err):
            if code != 0:
                return f"exit {code}"
            doc = json.loads(out)
            if doc["d"] != emb.rank:
                return f"dimension {doc['d']}, expected {emb.rank}"
            error = _distance_error(emb, doc["points"])
            return None if error <= 1e-9 else f"embedded distances off by {error}"

        ops.append(self._op("embed", ["embed", "--r", emb.r_arg()], check_embed))

        def check_factor(code, out, err):
            if code != 0:
                return f"exit {code}"
            doc = json.loads(out)
            if not doc["verified"]:
                return "certificate not verified"
            return None if doc["quotient"] == self.sigma_n3 else "quotient differs from golden"

        ops.append(self._op("factor", ["factor", "--n", "3"], check_factor))

        seed = str(rng.randrange(1 << 16))

        def check_verify(code, out, err):
            if code != 0:
                return f"exit {code}"
            return None if out.strip().endswith("cmdk: pass") else "suite did not pass"

        ops.append(
            self._op(
                "verify",
                ["verify", "cmdk", "--samples", "5", "--n", "5", "--seed", seed],
                check_verify,
            )
        )

        def check_huge(code, out, err):
            if code == 0 and "Traceback" not in err:
                got = json.loads(out).get("membership")
                return None if got == "interior" else f"membership {got}"
            return _refused(code, out, err)

        nan = str(self.workdir / "nan.json")
        inf = str(self.workdir / "inf.json")
        lst = str(self.workdir / "list.json")
        probes = [
            ("defect-huge", ["check", "--r", "1e200,1e200,1e200"], check_huge),
            ("defect-nan", ["embed", "--mode", "numeric", "--input", nan], _refused),
            ("defect-inf", ["check", "--input", inf], _refused),
            ("defect-list", ["check", "--input", lst], _refused),
            ("defect-signs-n1", ["verify", "signs", "--n", "1"], _refused),
            ("defect-cmdk-n1", ["verify", "cmdk", "--n", "1"], _refused),
        ]
        for kind, argv, check in probes:
            ops.append(self._op(kind, argv, check, known_defect=True))
        return ops


WORKLOADS = {
    "factor-n5eq": factor_n5eq,
    "factor-small": factor_small,
    "certify": Certify,
    "cli-cold": CliCold,
}
