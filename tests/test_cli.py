"""Command-line interface: outputs, exit codes, file IO, determinism."""

import argparse
import inspect
import json
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from distgeom import exact, factorization, sampling, suites
from distgeom.cli import SUITES, build_parser, main
from distgeom.suites import signs_suite

GOLDENS = Path(__file__).parent / "goldens" / "v1"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_nbody_unit_example(self, capsys):
        code, out, _ = _run(
            capsys, "build", "nbody", "--alpha", "1,1,1", "--r", "1,1,1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
        assert doc["labels"]["rows"] == ["1,2", "1,3", "2,3"]

    def test_cm_from_inline_distances(self, capsys):
        code, out, _ = _run(capsys, "build", "cm", "--r", "3,7,4")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == 4
        assert doc["entries"][0] == [0, 9, 49, 1]
        assert doc["labels"]["rows"][-1] == "*"

    def test_redm_uses_one_based_k(self, capsys):
        code, out, _ = _run(capsys, "build", "redm", "--r", "1,1,1", "--k", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"]["rows"] == ["1", "2"]
        assert doc["entries"] == [[2, 1], [1, 2]]

    def test_w_from_table_files(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        t = tmp_path / "t.json"
        s.write_text(json.dumps({"n": 2, "entries": [[0, 1], [1, 0]]}))
        t.write_text(json.dumps({"n": 2, "entries": [[5, 0], [0, 7]]}))
        code, out, _ = _run(capsys, "build", "w", "--s", str(s), "--t", str(t))
        assert code == 0
        doc = json.loads(out)
        # Single pair {1,2}: entry (t_21+t_12-t_11-t_22)(s_21+s_12-s_11-s_22)
        # = (0+0-5-7)(1+1-0-0) = -24.
        assert doc["entries"] == [[-24]]

    def test_fractional_distances_stay_exact(self, capsys):
        code, out, _ = _run(capsys, "build", "edm", "--r", "1/2,1/2,1/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"][0][1] == "1/4"

    def test_output_is_deterministic(self, capsys):
        _, first, _ = _run(capsys, "build", "cm", "--r", "1,1,1")
        _, second, _ = _run(capsys, "build", "cm", "--r", "1,1,1")
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "matrix.json"
        code, out, _ = _run(
            capsys, "build", "edm", "--r", "1,1,1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["rows"] == 3


class TestDet:
    def test_exact_value(self, capsys):
        code, out, _ = _run(capsys, "det", "cm", "--r", "1,1,1")
        assert code == 0
        assert out.strip() == "-3"

    def test_exact_fraction_rendering(self, capsys):
        code, out, _ = _run(capsys, "det", "cm", "--r", "1/2,1/2,1/2")
        assert code == 0
        assert out.strip() == "-3/16"

    def test_numeric_mode(self, capsys):
        code, out, _ = _run(capsys, "det", "cm", "--r", "1,1,1", "--mode", "numeric")
        assert code == 0
        assert float(out) == pytest.approx(-3.0, abs=1e-9)

    def test_points_input(self, capsys, tmp_path):
        cfg = tmp_path / "points.json"
        cfg.write_text(json.dumps({"n": 3, "d": 1, "points": [[0], [3], [7]]}))
        code, out, _ = _run(capsys, "det", "cm", "--points", str(cfg))
        assert code == 0
        assert out.strip() == "0"


class TestCheck:
    def test_interior(self, capsys):
        code, out, _ = _run(capsys, "check", "--r", "1,1,1")
        assert code == 0
        assert json.loads(out)["membership"] == "interior"

    def test_huge_exact_values_keep_the_exact_verdict(self, capsys):
        # Squared entries of 1e400 fit no double, so the informational
        # eigenvalue is absent while the exact verdict stands.
        code, out, err = _run(capsys, "check", "--r", "1e200,1e200,1e200")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["membership"] == "interior"
        assert doc["min_eigenvalue"] is None
        assert doc["rank"] == 2

    def test_boundary(self, capsys):
        code, out, _ = _run(capsys, "check", "--r", "1,1,2")
        doc = json.loads(out)
        assert code == 0
        assert doc["membership"] == "boundary"
        assert doc["rank"] == 1

    def test_outside_exits_one(self, capsys):
        code, out, _ = _run(capsys, "check", "--r", "1,1,3")
        assert code == 1
        assert json.loads(out)["membership"] == "outside"

    def test_distance_json_input(self, capsys, tmp_path):
        doc = {"n": 3, "r": {"1,2": 1, "1,3": 1, "2,3": 1}}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(capsys, "check", "--input", str(path))
        assert code == 0
        assert json.loads(out)["membership"] == "interior"


class TestEmbed:
    def test_interior_roundtrip(self, capsys):
        code, out, _ = _run(capsys, "embed", "--r", "1,1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["d"] == 2
        assert doc["residual"] <= 1e-9

    def test_outside_reports_eigenvalue_on_stderr(self, capsys):
        code, out, err = _run(capsys, "embed", "--r", "1,1,3")
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "outside"
        assert doc["min_eigenvalue"] < 0

    # The float eigenvalue of this vector, about -1.6e-12, lies inside
    # tol * max, so exact `embed` printed d = 1 points and exited 0 while
    # exact `check` called the vector outside.
    @pytest.mark.parametrize("r", ["1,1,2.000000000001", "1,1,2000000000001/1000000000000"])
    def test_exact_embed_refuses_what_check_calls_outside(self, capsys, r):
        code, out, _ = _run(capsys, "check", "--r", r)
        assert (code, json.loads(out)["membership"]) == (1, "outside")
        code, out, err = _run(capsys, "embed", "--r", r)
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "outside"
        assert -1e-11 < doc["min_eigenvalue"] < 0

    # The last case has a float eigenvalue of about 1.6e-12, below
    # tol * max: exact `embed` takes d from the exact rank that `check`
    # prints, not from the float threshold.
    @pytest.mark.parametrize("r, membership, d", [
        ("1,1,2", "boundary", 1), ("0,0,0", "boundary", 0),
        ("1,1,1.999999999999", "interior", 2),
    ], ids=["1,1,2-1", "0,0,0-0", "1,1,1.999999999999-2"])
    def test_exact_embed_accepts_the_boundary(self, capsys, r, membership, d):
        code, out, _ = _run(capsys, "check", "--r", r)
        assert (code, json.loads(out)["membership"]) == (0, membership)
        assert json.loads(out)["rank"] == d
        code, out, _ = _run(capsys, "embed", "--r", r)
        doc = json.loads(out)
        assert code == 0 and doc["d"] == d and doc["residual"] < 1e-12


class TestFactor:
    def test_three_body_matches_golden(self, capsys):
        code, out, _ = _run(capsys, "factor", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        golden = (GOLDENS / "sigma_n3.txt").read_text().strip()
        assert doc["quotient"] == golden

    def test_w_family(self, capsys):
        code, out, _ = _run(capsys, "factor", "--n", "2", "--family", "w")
        assert code == 0
        doc = json.loads(out)
        assert doc["quotient"] == "1"
        assert doc["family"] == "w"

    def test_equal_masses_flag(self, capsys):
        code, out, _ = _run(capsys, "factor", "--n", "3", "--equal-masses")
        assert code == 0
        assert "a_1" not in json.loads(out)["vars"]

    def test_over_cap_exits_four(self, capsys):
        for n in ("7", "1", "0", "-3"):
            code, _, err = _run(capsys, "factor", "--n", n)
            assert code == 4
            assert err.startswith("error: symbolic interaction determinant capped")

    def test_long_running_gate_exits_four(self, capsys):
        code, _, _ = _run(capsys, "factor", "--n", "5")
        assert code == 4

    # W has one cap: --long-running (n-body n = 5 only) does not lift it, and
    # the refusal comes before any expansion.
    @pytest.mark.parametrize("extra", [(), ("--long-running",)])
    def test_w_past_its_cap_is_refused_before_expanding(self, capsys, monkeypatch, extra):
        def expand(matrix):
            raise AssertionError("poly_det reached past the W cap")

        monkeypatch.setattr(factorization, "poly_det", expand)
        code, out, err = _run(capsys, "factor", "--family", "w", "--n", "4", *extra)
        assert (code, out) == (4, "")
        assert err.splitlines() == ["error: generalized determinant capped at 2 <= n <= 3, got 4"]


class TestVerify:
    def test_heron(self, capsys):
        code, out, _ = _run(capsys, "verify", "heron")
        assert code == 0
        assert out.strip().endswith("heron: pass")

    def test_content(self, capsys):
        code, out, _ = _run(capsys, "verify", "content")
        assert code == 0
        assert "content: pass" in out

    def test_small_sampled_suite(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "cmdk", "--samples", "3", "--n", "4", "--seed", "7"
        )
        assert code == 0
        assert "cmdk: pass" in out

    def test_tol_sets_the_roundtrip_tolerance(self, capsys):
        args = ("verify", "roundtrip", "--samples", "5")
        code, default, _ = _run(capsys, *args)
        assert code == 0 and "within 1e-09" in default
        code, out, _ = _run(capsys, *args, "--tol", "1e-3")
        assert code == 0
        assert out == default.replace("within 1e-09", "within 1e-03")

    @pytest.mark.parametrize("name", list(SUITES))
    def test_tol_reaches_exactly_the_suites_that_take_one(self, capsys, monkeypatch, name):
        calls = []
        monkeypatch.setattr(
            suites, f"{name}_suite", lambda **kw: calls.append(kw) or suites.SuiteResult(name, True)
        )
        assert _run(capsys, "verify", name, "--tol", "0.5")[0] == 0
        assert _run(capsys, "verify", name)[0] == 0
        with_tol, without = calls
        assert with_tol.get("tol") == (0.5 if "tol" in SUITES[name] else None)
        assert "tol" not in without

    @pytest.mark.parametrize("name", ["heron", "content"])
    def test_samples_and_n_are_ignored_by_suites_without_them(self, capsys, name):
        plain = _run(capsys, "verify", name)
        assert plain[0] == 0
        assert _run(capsys, "verify", name, "--samples", "3") == plain
        assert _run(capsys, "verify", name, "--n", "3") == plain

    def test_seeded_runs_are_reproducible(self, capsys):
        args = ("verify", "signs", "--samples", "5", "--n", "4", "--seed", "11")
        _, first, _ = _run(capsys, *args)
        _, second, _ = _run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("suite", ["signs", "cmdk", "roundtrip", "menger", "kernel"])
    @pytest.mark.parametrize("n", ["1", "0"])
    def test_fewer_than_two_points_exits_two(self, capsys, suite, n):
        code, out, err = _run(capsys, "verify", suite, "--n", n, "--samples", "3")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "n_max" in lines[0]

    @pytest.mark.parametrize("suite", ["cmdk", "forms"])
    def test_suite_that_checked_nothing_fails(self, capsys, suite):
        code, out, _ = _run(capsys, "verify", suite, "--samples", "0", "--n", "3")
        assert code == 1
        assert f"{suite}: no checks ran" in out
        assert out.strip().endswith(f"{suite}: fail")

    def test_choices_are_the_registry_keys(self):
        (sub,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
        assert list(suite.choices) == list(SUITES)

    @pytest.mark.parametrize("name", list(SUITES))
    def test_registry_options_are_suite_parameters(self, name):
        params = inspect.signature(getattr(suites, f"{name}_suite")).parameters
        assert set(SUITES[name]) <= set(params)

    # The CLI passes --seed always, so its default must be the one each
    # suite function declares; --samples and --n only when given.
    @pytest.mark.parametrize("name", list(SUITES))
    def test_cli_defaults_are_the_suite_defaults(self, capsys, monkeypatch, name):
        suite = getattr(suites, f"{name}_suite")
        options = {"samples": 2} if "samples" in SUITES[name] else {}
        result = suite(**options)
        verdict = f"{name}: {'pass' if result.ok else 'fail'}"
        argv = ["verify", name] + [f"--{k}={v}" for k, v in options.items()]
        calls = []
        monkeypatch.setattr(
            suites, f"{name}_suite", lambda **kw: calls.append(kw) or suite(**kw)
        )
        assert _run(capsys, *argv) == (
            0 if result.ok else 1, "\n".join([*result.lines, verdict]) + "\n", ""
        )
        (passed,) = calls
        params = inspect.signature(suite).parameters
        assert {k: v for k, v in passed.items() if k not in options} == {
            k: params[k].default for k in passed if k not in options
        }

    def test_signdict_suite_fails_on_a_wrong_sigma(self, monkeypatch):
        sigma = suites.nbody_sigma_value
        monkeypatch.setattr(suites, "nbody_sigma_value", lambda alpha, r: sigma(alpha, r) + 1)
        result = suites.signdict_suite(samples=1)
        assert not result.ok
        assert sum("quotient sign failed" in line for line in result.lines) == 2

    def test_signs_suite_fails_on_a_nonsingular_singular_sample(self, monkeypatch):
        # From n = 7 a nonsingular det B sits below 1e-8 of its Hadamard
        # bound, so only the exact zero test can tell it from a singular one.
        monkeypatch.setattr(
            sampling, "random_singular_configuration", sampling.random_nonsingular_configuration
        )
        result = signs_suite(samples=0, singular_samples=6, n_max=7)
        assert not result.ok
        assert [line.split(":")[1] for line in result.lines] == [
            f" n={n} det B is not zero" for n in range(2, 8)
        ]

    def test_signs_suite_fails_on_a_wrong_definiteness_verdict(self, monkeypatch):
        # Every sample answered PSD, rank one short: each must fail on its own.
        monkeypatch.setattr(exact, "psd_verdict", lambda rows: (exact.VERDICT_PSD, len(rows) - 1))
        result = signs_suite(samples=5, singular_samples=0, n_max=3)
        assert not result.ok
        assert result.lines == [
            f"sample {idx}: n={2 + idx % 2} interaction matrix not positive definite"
            for idx in range(5)
        ]

    def test_signs_suite_without_samples_fails(self):
        result = signs_suite(samples=0, singular_samples=0, n_max=3)
        assert not result.ok
        assert result.lines == ["signs: no checks ran"]


class TestErrorPaths:
    def test_wrong_pair_count_exits_two(self, capsys):
        code, _, err = _run(capsys, "check", "--r", "1,1")
        assert code == 2
        assert "error" in err

    def test_unparseable_number_exits_two(self, capsys):
        code, _, _ = _run(capsys, "check", "--r", "1,1,zebra")
        assert code == 2

    def test_invalid_json_exits_two_with_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "r": {')
        code, _, err = _run(capsys, "check", "--input", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = _run(capsys, "check", "--input", "/nonexistent/r.json")
        assert code == 2

    def test_k_out_of_range_exits_three(self, capsys):
        code, _, _ = _run(capsys, "build", "redm", "--r", "1,1,1", "--k", "4")
        assert code == 3

    def test_missing_alpha_exits_two(self, capsys):
        code, _, _ = _run(capsys, "build", "nbody", "--r", "1,1,1")
        assert code == 2

    def test_conflicting_inputs_exit_two(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"n": 2, "r": {"1,2": 1}}))
        code, _, _ = _run(
            capsys, "check", "--r", "1,1,1", "--input", str(path)
        )
        assert code == 2

    def test_negative_distance_exits_two(self, capsys):
        code, _, _ = _run(capsys, "check", "--r", "1,1,-2")
        assert code == 2


def _one_error_line(code, out, err):
    lines = err.splitlines()
    return code == 2 and out == "" and len(lines) == 1 and lines[0].startswith("error:")


class TestNonFiniteAndMalformedInput:
    NAN_DOC = '{"n": 3, "r": {"1,2": NaN, "1,3": 1, "2,3": 1}}'
    INF_DOC = '{"n": 3, "r": {"1,2": Infinity, "1,3": 1, "2,3": 1}}'
    LIST_DOC = '{"n": 3, "r": [1, 1, 1]}'

    # `embed --mode numeric` on the NaN document used to answer d = 0.
    @pytest.mark.parametrize("verb", ["check", "embed"])
    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    @pytest.mark.parametrize(
        "doc",
        [NAN_DOC, INF_DOC, INF_DOC.replace("Infinity", "-Infinity")],
        ids=["nan", "inf", "neg-inf"],
    )
    def test_non_finite_json_exits_two(self, capsys, tmp_path, doc, mode, verb):
        path = tmp_path / "r.json"
        path.write_text(doc)
        code, out, err = _run(capsys, verb, "--mode", mode, "--input", str(path))
        assert _one_error_line(code, out, err)
        assert "non-finite" in err

    def test_non_finite_entry_table_exits_two(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        s.write_text('{"n": 2, "entries": [[0, NaN], [1, 0]]}')
        code, out, err = _run(capsys, "build", "w", "--s", str(s), "--t", str(s))
        assert _one_error_line(code, out, err)
        assert "non-finite number NaN" in err

    def test_r_as_list_exits_two(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(self.LIST_DOC)
        code, out, err = _run(capsys, "check", "--input", str(path))
        assert _one_error_line(code, out, err)
        assert '"r"' in err

    def test_numeric_literal_past_double_range_exits_two(self, capsys):
        code, out, err = _run(capsys, "check", "--mode", "numeric", "--r", "1e999,1,1")
        assert _one_error_line(code, out, err)
        assert "'1e999' is not a finite double" in err

    def test_numeric_json_literal_past_double_range_exits_two(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"n": 3, "r": {"1,2": 1e999, "1,3": 1, "2,3": 1}}')
        code, out, err = _run(
            capsys, "embed", "--mode", "numeric", "--input", str(path)
        )
        assert _one_error_line(code, out, err)

    @pytest.mark.parametrize(
        "argv",
        [
            # Squares past the double range.
            ("check", "--mode", "numeric", "--r", "1e200,1e200,1e200"),
            ("embed", "--mode", "numeric", "--r", "1e200,1e200,1e200"),
            # Finite squares whose reduced-matrix entries overflow.
            ("check", "--mode", "numeric", "--r", "1e154,1e154,1e154"),
            ("embed", "--mode", "numeric", "--r", "1e154,1e154,1e154"),
            # Exact input that the float embedding cannot hold.
            ("embed", "--r", "1e200,1e200,1e200"),
        ],
    )
    def test_values_past_the_double_range_exit_two(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert _one_error_line(code, out, err)
        assert "finite double" in err

    # The equilateral vector's largest eigenvalue, about 2.25e308, is no
    # finite double, so neither a threshold nor coordinates read off it
    # mean anything; exact `check` needs no eigenvalue for its verdict.
    # Both vectors overflow a symmetrization (m + m^T) / 2 to NaN.
    @pytest.mark.parametrize("r, verb, mode, expected", [
        ("8.66e153,8.66e153,8.66e153", "check", "exact", 0),
        ("8.66e153,8.66e153,8.66e153", "check", "numeric", 2),
        ("8.66e153,8.66e153,8.66e153", "embed", "exact", 2),
        ("8.66e153,8.66e153,8.66e153", "embed", "numeric", 2),
        ("8.66e153,8.66e153,1", "check", "exact", 0),
        ("8.66e153,8.66e153,1", "check", "numeric", 0),
        ("8.66e153,8.66e153,1", "embed", "exact", 0),
        ("8.66e153,8.66e153,1", "embed", "numeric", 0),
    ])
    def test_eigenvalues_near_the_double_range_print_no_nan(self, capsys, r, verb, mode, expected):
        code, out, err = _run(capsys, verb, "--mode", mode, "--r", r)
        assert code == expected
        if code == 2:
            assert _one_error_line(code, out, err)
            assert "not a finite double" in err
        else:
            assert err == "" and "NaN" not in out and "Infinity" not in out

    # Squares below the double range: numeric `check` answered "boundary"
    # and exact `embed` answered d = 0 with residual 1.0, both exit 0.
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--mode", "numeric", "--r", "1e-300,1e-300,1e-300"),
            ("embed", "--mode", "numeric", "--r", "1e-300,1e-300,1e-300"),
            ("embed", "--r", "1e-300,1e-300,1e-300"),
        ],
    )
    def test_values_below_the_double_range_exit_two(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert _one_error_line(code, out, err)
        assert "0.0 in doubles" in err

    def test_exact_mode_keeps_tiny_literals(self, capsys):
        code, out, _ = _run(capsys, "check", "--r", "1e-300,1e-300,1e-300")
        assert code == 0
        doc = json.loads(out)
        assert (doc["membership"], doc["rank"]) == ("interior", 2)
        # The reduced matrix underflows in doubles: no float eigenvalue, where
        # "min_eigenvalue": 0.0 was reported.
        assert doc["min_eigenvalue"] is None

    # Coordinates 1e-300 apart: numeric `check` answered "boundary", rank 0,
    # and numeric `embed` answered d = 0, both exit 0.
    @pytest.mark.parametrize("verb", ["check", "embed"])
    def test_point_differences_below_the_double_range_exit_two(self, capsys, tmp_path, verb):
        path = tmp_path / "points.json"
        path.write_text('{"n": 3, "d": 2, "points": [[0, 0], [1e-300, 0], [0, 1e-300]]}')
        code, out, err = _run(capsys, verb, "--mode", "numeric", "--points", str(path))
        assert _one_error_line(code, out, err)
        assert "0.0 in doubles" in err
        code, out, _ = _run(capsys, "check", "--points", str(path))
        assert code == 0
        assert json.loads(out) == {"membership": "interior", "min_eigenvalue": None, "rank": 2}

    # A ten-character exponent stalled the parser on 10 ** exponent.
    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_exponent_past_the_limit_exits_two_at_once(self, capsys, tmp_path, mode):
        path = tmp_path / "r.json"
        path.write_text('{"n": 2, "r": {"1,2": 1e10000000}}')
        start = time.perf_counter()
        huge = ",".join(["1e10000000"] * 3)
        code, out, err = _run(capsys, "check", "--mode", mode, "--r", huge)
        assert _one_error_line(code, out, err)
        assert "exponent of '1e10000000' is past the limit" in err
        code, out, err = _run(capsys, "check", "--mode", mode, "--input", str(path))
        assert _one_error_line(code, out, err)
        assert time.perf_counter() - start < 1.0

    # Results past CPython's int-to-str digit limit were computed and then
    # refused under the parse-error code with Python's own message.
    @pytest.mark.parametrize(
        "argv", [("det", "cm", "--r", "1e1500,1e1500,1e1500"), ("build", "edm", "--r", "1e2200,1,1")]
    )
    def test_results_too_long_to_print_exit_four(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            f"error: result has an integer past the {sys.get_int_max_str_digits()}-digit print limit"
        ]

    def test_exact_mode_keeps_huge_literals(self, capsys):
        code, out, _ = _run(capsys, "det", "edm", "--r", "1e999")
        assert code == 0
        assert out.strip() == str(-(10 ** 3996))

    # Finite entries (1e308) whose LU product overflows: this printed -inf
    # with exit 0 and a numpy overflow warning.
    def test_numeric_det_overflow_exits_two(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(
                capsys, "det", "cm", "--mode", "numeric", "--r", "1e154,1e154,1e154"
            )
        assert _one_error_line(code, out, err)
        assert "--mode exact" in err
        code, out, _ = _run(capsys, "det", "cm", "--r", "1e154,1e154,1e154")
        assert code == 0
        assert out.strip() == str(-3 * 10 ** 616)


class TestJsonBoundary:
    def _check(self, capsys, tmp_path, doc, *argv):
        path = tmp_path / "doc.json"
        path.write_text(doc)
        return _run(capsys, *argv, str(path))

    # `{"n": true, "r": {}}` answered interior with exit 0; n and d must
    # be JSON integers.
    @pytest.mark.parametrize(
        "doc, argv",
        [
            ('{"n": true, "r": {}}', ("check", "--input")),
            ('{"n": false, "r": {}}', ("check", "--input")),
            ('{"n": true, "d": 1, "points": [[0]]}', ("check", "--points")),
            ('{"n": 2, "d": true, "points": [[0], [1]]}', ("check", "--points")),
            ('{"n": 1.0, "r": {}}', ("check", "--input")),
        ],
    )
    def test_non_integer_counts_exit_two(self, capsys, tmp_path, doc, argv):
        code, out, err = self._check(capsys, tmp_path, doc, *argv)
        assert _one_error_line(code, out, err)

    def test_boolean_entry_table_size_exits_two(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        s.write_text('{"n": true, "entries": [[0]]}')
        code, out, err = _run(capsys, "build", "w", "--s", str(s), "--t", str(s))
        assert _one_error_line(code, out, err)

    # The last of two entries for one pair silently won.
    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 3, "r": {"1,2": 1, "2,1": 5, "1,3": 1}}',
            '{"n": 3, "r": {"1,2": 1, " 1,2": 5, "1,3": 1}}',
            '{"n": 3, "r": {"1,2": 1, "1,2": 5, "1,3": 1, "2,3": 1}}',
        ],
        ids=["reversed", "spaced", "same-key"],
    )
    def test_pair_given_twice_exits_two(self, capsys, tmp_path, doc):
        code, out, err = self._check(capsys, tmp_path, doc, "check", "--input")
        assert _one_error_line(code, out, err)
        assert "repeat" in err

    # `{"n": 100000, "r": {}}` hung building a 5e9-pair space.
    def test_pair_count_is_compared_before_the_pair_space_is_built(
        self, capsys, tmp_path, monkeypatch
    ):
        from distgeom import core

        def refuse(n):
            raise AssertionError(f"pair space on {n} points built")

        monkeypatch.setattr(core, "PairSpace", refuse)
        code, out, err = self._check(
            capsys, tmp_path, '{"n": 100000, "r": {}}', "check", "--input"
        )
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: expected 4999950000 pair entries, got 0"]


class TestOutputAndSamples:
    # An unwritable --out ended in a FileNotFoundError traceback, exit 1.
    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = _run(capsys, "check", "--r", "1,1,1", "--out", str(target))
        assert _one_error_line(code, out, err)
        assert "cannot write" in err

    # `verify` printed to stdout and never wrote the --out file.
    def test_verify_writes_out_file(self, capsys, tmp_path):
        target = tmp_path / "x.txt"
        argv = ("verify", "cmdk", "--samples", "2", "--n", "3")
        code, out, err = _run(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        _, expected, _ = _run(capsys, *argv)
        assert target.read_text() == expected
        assert expected.endswith("cmdk: pass\n")

    # `verify signs --samples -1` reported "-1 nonsingular ... pass".
    @pytest.mark.parametrize("samples", ["-1", "-100", "x"])
    def test_bad_samples_are_refused_at_parse_time(self, capsys, samples):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "signs", f"--samples={samples}"])
        captured = capsys.readouterr()
        assert exc_info.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--samples" in errors[0]


_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, "show this help message and exit")
_KIND = ((), "kind", None, ("edm", "cm", "redm", "nbody", "w"), None)
_INPUTS = (
    (("--r",), "r", None, None, "comma-separated distances in pair order"),
    (("--input",), "input", None, None, "distance-vector JSON file"),
    (("--points",), "points", None, None, "point-configuration JSON file"),
)
_MATRIX = (
    (("--alpha",), "alpha", None, None, "comma-separated mass parameters"),
    (("--k",), "k", None, None, "base point index (1-based)"),
    (("--s",), "s", None, None, "first entry-table JSON file (kind w)"),
    (("--t",), "t", None, None, "second entry-table JSON file (kind w)"),
)
_MODE = (
    ("--mode",), "mode", "exact", ("exact", "numeric"),
    "scalar regime for parsed values (default exact)",
)
_TOL_HELP = "relative tolerance for numeric verdicts"
_OUT = (("--out",), "out", None, None, "write output to this file instead of stdout")
_COMMON = (_MODE, (("--tol",), "tol", 1e-10, None, _TOL_HELP), _OUT)


class TestOptionSurface:
    """Every option of every verb, as the parser holds it: a change to
    any `--help` text shows here first.  The rendered `--help` itself is
    not pinned, since argparse lays it out differently across Python
    versions."""

    VERBS = {
        "build": (
            "construct one of the matrix families",
            (_HELP, _KIND, *_INPUTS, *_MATRIX, *_COMMON),
        ),
        "det": (
            "determinant of one of the matrix families",
            (_HELP, _KIND, *_INPUTS, *_MATRIX, *_COMMON),
        ),
        "check": (
            "classify a distance vector against the realizable cone",
            (_HELP, *_INPUTS, *_COMMON),
        ),
        "embed": (
            "reconstruct a point configuration from distances",
            (_HELP, *_INPUTS, *_COMMON),
        ),
        "factor": ("symbolic determinant factorization certificate", (
            _HELP,
            (("--n",), "n", None, None, None),
            (
                ("--family",), "family", "nbody", ("nbody", "w"),
                "which determinant to factor (default nbody)",
            ),
            (("--equal-masses",), "equal_masses", False, None, "use a single shared mass symbol"),
            (("--long-running",), "long_running", False, None, "allow the large symbolic cases"),
            *_COMMON,
        )),
        "verify": ("run a randomized verification suite", (
            _HELP,
            ((), "suite", None, (
                "signs", "cmdk", "roundtrip", "forms", "menger", "signdict", "heron",
                "kernel", "content",
            ), None),
            (("--n",), "n", None, None, "largest point count to sample"),
            (("--seed",), "seed", 0, None, None),
            (("--samples",), "samples", None, None, None),
            _MODE,
            (("--tol",), "tol", None, None, _TOL_HELP),  # None: each suite keeps its own
            _OUT,
        )),
    }

    @staticmethod
    def _surface(parser):
        return tuple(
            (tuple(a.option_strings), a.dest, a.default,
             None if a.choices is None else tuple(a.choices), a.help)
            for a in parser._actions
            if not isinstance(a, argparse._SubParsersAction)
        )

    def test_every_verb_and_option_is_pinned(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert self._surface(parser) == (_HELP,)
        assert [(a.dest, a.help) for a in sub._choices_actions] == [
            (verb, summary) for verb, (summary, _) in self.VERBS.items()
        ]
        for verb, (_, options) in self.VERBS.items():
            assert self._surface(sub.choices[verb]) == options, verb


class TestTolerance:
    # `check --mode numeric --tol nan` answered "outside" for an
    # equilateral triangle, and `embed --tol nan` answered d = 0.
    @pytest.mark.parametrize("verb", ["check", "embed"])
    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-0.5", "-1e-10", "abc"])
    def test_bad_tolerance_is_refused_at_parse_time(self, capsys, verb, mode, tol):
        with pytest.raises(SystemExit) as exc_info:
            main([verb, "--mode", mode, "--r", "1,1,1", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert exc_info.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--tol" in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("tol", ["0", "1e-6"])
    def test_finite_nonnegative_tolerance_is_accepted(self, capsys, tol):
        code, out, _ = _run(
            capsys, "check", "--mode", "numeric", "--r", "1,1,1", "--tol", tol
        )
        assert code == 0
        assert json.loads(out)["membership"] == "interior"


IMPORT_PROBE = """
import contextlib, io, sys
from distgeom import factorization
from distgeom.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

run("build", "redm", "--r", "1,1,1", "--k", "1")
run("det", "cm", "--r", "1,1,1")
run("factor", "--n", "3")
run("factor", "--n", "4")
run("factor", "--family", "w", "--n", "3")
run("verify", "cmdk", "--samples", "2")
run("verify", "signs", "--samples", "5")
with contextlib.redirect_stderr(io.StringIO()):
    factorization.poly_det = None  # W past its cap must stop before expanding
    assert main(["factor", "--family", "w", "--n", "4", "--long-running"]) == 4
assert "numpy" not in sys.modules, "an exact subcommand loaded numpy"
run("embed", "--r", "1,1,1")
assert "numpy" in sys.modules, "embed ran without numpy"
"""


def _fresh_python(code, *argv) -> str:
    """stdout of `code` run with `argv` in a fresh interpreter on src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_subcommands_do_not_import_numpy():
    _fresh_python(IMPORT_PROBE)


COLD_PROBE = """
import contextlib, io, json, sys
argv, out = sys.argv[1:], io.StringIO()
if argv == ["bare"]:
    import distgeom
    code = None
else:
    from distgeom.cli import build_parser, main
    build_parser()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv) if argv else None
print(json.dumps({
    "code": code,
    "out": out.getvalue(),
    "loaded": sorted(name for name in sys.modules if name.startswith("distgeom.")),
    "numpy": "numpy" in sys.modules,
}))
"""

_LAYERS = {"analysis", "builders", "polys", "factorization", "suites", "sampling"}
_SYMBOLIC = {"polys", "factorization", "suites", "sampling"}


class TestColdImports:
    """What one fresh interpreter has loaded after one step: each verb
    compiles only the modules it runs."""

    @staticmethod
    def _probe(*argv):
        doc = json.loads(_fresh_python(COLD_PROBE, *argv))
        doc["loaded"] = {name.split(".", 1)[1] for name in doc["loaded"]}
        return doc

    def test_bare_package_import_loads_no_submodule(self):
        assert self._probe("bare")["loaded"] == set()

    def test_parser_and_a_refused_input_load_no_layer(self, tmp_path):
        listed = tmp_path / "list.json"
        listed.write_text('{"n": 3, "r": [1, 1, 1]}')
        parser_only = self._probe()
        refused = self._probe("check", "--input", str(listed))
        assert refused["code"] == 2
        for doc in (parser_only, refused):
            assert not doc["loaded"] & _LAYERS, doc["loaded"]

    @pytest.mark.parametrize("argv, absent", [
        (("build", "redm", "--r", "1,1,1", "--k", "1"), _SYMBOLIC),
        (("det", "cm", "--r", "1,1,1"), _SYMBOLIC),
        (("factor", "--n", "3"), {"analysis", "suites", "sampling"}),
    ], ids=["build", "det", "factor"])
    def test_verb_loads_only_what_it_runs(self, argv, absent):
        doc = self._probe(*argv)
        assert doc["code"] == 0
        assert not doc["loaded"] & absent, doc["loaded"]

    def test_exact_boundary_check_loads_no_numpy(self):
        doc = self._probe("check", "--r", "1,1,2")
        assert doc["code"] == 0
        assert json.loads(doc["out"]) == {"membership": "boundary", "min_eigenvalue": 0.0, "rank": 1}
        assert not doc["numpy"]

    def test_exact_check_past_the_double_range_loads_no_numpy(self):
        doc = self._probe("check", "--r", "1e200,1e200,1e200")
        assert doc["code"] == 0
        assert json.loads(doc["out"])["min_eigenvalue"] is None
        assert not doc["numpy"]


class TestVerbsAgree:
    """Seeded exact vectors through `check`, `embed` and `det cm`: collinear,
    coplanar and perturbed integer configurations in R^(n-1), given as
    `--points`, and random integer distances, given as `--r`, most of
    which lie outside the cone."""

    @staticmethod
    def _inputs(rng, tmp_path):
        for k in range(64):
            n = rng.randint(3, 7)
            base, u, v = ([rng.randint(-5, 5) for _ in range(n - 1)] for _ in range(3))
            points = []
            for _ in range(n):
                s, t = rng.randint(-4, 4), rng.randint(-4, 4) if k % 4 else 0
                points.append([a + s * b + t * c for a, b, c in zip(base, u, v)])
            if k % 4 == 3:
                points = [[x + rng.randint(-1, 1) for x in p] for p in points]
            path = tmp_path / f"points{k}.json"
            path.write_text(json.dumps({"n": n, "d": n - 1, "points": points}))
            yield n, ("--points", str(path))
        for _ in range(16):
            n = rng.randint(3, 6)
            yield n, ("--r", ",".join(str(rng.randint(1, 9)) for _ in range(n * (n - 1) // 2)))

    def test_check_embed_and_det_state_one_fact(self, capsys, tmp_path):
        seen = set()
        for n, source in self._inputs(random.Random(36), tmp_path):
            code, out, _ = _run(capsys, "check", *source)
            doc = json.loads(out)
            membership, min_eig, rank = doc["membership"], doc["min_eigenvalue"], doc["rank"]
            seen.add(membership)
            assert code == (1 if membership == "outside" else 0)
            sign = {"interior": 1, "boundary": 0, "outside": -1}[membership]
            assert (min_eig > 0) - (min_eig < 0) == sign, (source, doc)
            assert sign or repr(min_eig) == "0.0", (source, doc)
            code, out, err = _run(capsys, "embed", *source)
            if membership == "outside":
                assert (code, out, json.loads(err)["error"]) == (1, "", "outside"), source
            else:
                assert (code, json.loads(out)["d"]) == (0, rank), source
            code, out, _ = _run(capsys, "det", "cm", *source)
            assert code == 0
            assert (Fraction(out.strip()) == 0) == (rank < n - 1), (source, doc)
        assert seen == {"interior", "boundary", "outside"}


class TestFuzz:
    """Seeded random argv lists and JSON documents through `main`: every run
    ends in exit code 0-4 with no traceback, whatever the input.  Each
    choice takes a well-formed value most of the time, so that runs get
    past the parser as well as into it."""

    # (well-formed, malformed) pools.
    TOKENS = (["1", "2", "3/2", "0.5", " 2 ", "1e-3", "7"], [
        "0", "-1", "1e4301", "3e-4300", "-1e-4300", "1" * 5000, "0." + "7" * 4400,
        "nan", "NaN", "inf", "-Infinity", "1/0", "abc", "", "1e999", "0x10",
        "1_000", "٣", "--1", "1e", "/",
    ])
    VALUES = (["1", "2", "2.5", '"2/3"', "1e-3", "3"], [
        "0", "-0", "-1", "1e4301", "3e-4300", "1e-400", "NaN", "Infinity",
        "-Infinity", '"x"', '"1e4301"', "null", "true", "[1]", "{}",
        "1" * 5000, "0." + "3" * 5000,
    ])
    SIZES = (["2", "3", "3", "4"], ["0", "1", "-1", "1.5", "1e4301", "100000", '"3"', "true"])
    INTS = (["1", "2", "3", "4"], ["-1", "0", "5", "6", "2.5", "x", "", "1e3", "9" * 30])
    TOLS = (["1e-10", "1e-6", "0"], ["nan", "inf", "-1", "x", "1e-400", "1e400"])

    @staticmethod
    def _pick(rng, pools):
        return rng.choice(pools[0] if rng.random() < 0.8 else pools[1])

    def _doc(self, rng, kind):
        n = self._pick(rng, self.SIZES)
        size = int(n) if n in self.SIZES[0] and rng.random() < 0.8 else rng.randint(0, 4)
        value = lambda: self._pick(rng, self.VALUES)
        if kind == "distance":
            labels = [f"{i},{j}" for j in range(2, size + 1) for i in range(1, j)]
            if rng.random() < 0.2:
                labels = rng.sample(labels + ["1,1", "0,2", "a", "2,1"], rng.randint(0, 4))
            body = ", ".join(f'"{label}": {value()}' for label in labels)
            return f'{{"n": {n}, "r": {{{body}}}}}'
        width = rng.randint(1, 3) if kind == "points" else size
        rows = ["[" + ", ".join(value() for _ in range(width)) + "]" for _ in range(size)]
        if kind == "points":
            return f'{{"n": {n}, "d": {width}, "points": [{", ".join(rows)}]}}'
        return f'{{"n": {n}, "entries": [{", ".join(rows)}]}}'

    def _file(self, rng, tmp_path, kind):
        path = tmp_path / f"doc{rng.randrange(10**9)}.json"
        text = self._doc(rng, kind) if rng.random() < 0.9 else rng.choice(["", "{", "[]", "null"])
        path.write_text(text)
        return str(path)

    def _argv(self, rng, tmp_path):
        pick = lambda pools: self._pick(rng, pools)
        tokens = lambda: ",".join(pick(self.TOKENS) for _ in range(rng.choice([1, 3, 3, 6])))
        verb = rng.choice(["build", "det", "check", "embed", "factor", "verify"])
        argv = [verb]
        if verb in ("build", "det"):
            kind = rng.choice(["edm", "cm", "redm", "nbody", "w", "bogus"])
            argv.append(kind)
            if rng.random() < 0.6:
                argv += ["--alpha", tokens()]
            if rng.random() < 0.5:
                argv += ["--k", pick(self.INTS)]
            for flag in ("--s", "--t"):
                if kind == "w" and rng.random() < 0.8:
                    argv += [flag, self._file(rng, tmp_path, "table")]
        if verb in ("build", "det", "check", "embed"):
            source = rng.choice(["--r", "--r", "--input", "--points", None])
            if source == "--r":
                argv += ["--r", tokens()]
            elif source is not None:
                kind = "distance" if source == "--input" else "points"
                argv += [source, self._file(rng, tmp_path, kind)]
        if verb == "factor":
            argv += ["--n", pick(self.INTS), "--family", pick((["nbody", "w"], ["z"]))]
            if rng.random() < 0.5:
                argv.append("--equal-masses")
        if verb == "verify":
            argv.append(pick((list(SUITES), ["nope"])))
            argv += ["--n", pick((["2", "3", "4"], ["-1", "0", "1", "2.5", "x"]))]
            argv += ["--samples", pick((["0", "1", "2"], ["-1", "1.5", "x", ""]))]
            argv += ["--seed", pick((["0", "7", "-5"], ["x"]))]
        if rng.random() < 0.5:
            argv += ["--mode", pick((["exact", "numeric"], ["float"]))]
        if rng.random() < 0.4:
            argv += ["--tol", pick(self.TOLS)]
        if rng.random() < 0.1:
            argv += ["--out", str(tmp_path / pick((["o.txt"], ["missing/o.txt"])))]
        return argv

    def test_random_inputs_end_in_an_exit_code(self, capsys, tmp_path):
        rng = random.Random(20)
        for _ in range(400):
            argv = self._argv(rng, tmp_path)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in range(5), argv
            assert "Traceback" not in err, argv
