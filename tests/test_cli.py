"""Command-line interface: outputs, exit codes, file IO, determinism."""

import json
from pathlib import Path

import pytest

from distgeom.cli import main
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
        code, _, err = _run(capsys, "factor", "--n", "7")
        assert code == 4
        assert "error" in err

    def test_long_running_gate_exits_four(self, capsys):
        code, _, _ = _run(capsys, "factor", "--n", "5")
        assert code == 4
        code, _, _ = _run(capsys, "factor", "--n", "4", "--family", "w")
        assert code == 4


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

    def test_seeded_runs_are_reproducible(self, capsys):
        args = ("verify", "signs", "--samples", "5", "--n", "4", "--seed", "11")
        _, first, _ = _run(capsys, *args)
        _, second, _ = _run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("suite", ["signs", "cmdk"])
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
