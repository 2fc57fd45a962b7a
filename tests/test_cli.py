import json
import subprocess
import sys

import pytest

from strange_segments.cli import build_parser, main

from conftest import unit_document


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRate:
    def test_limit_curve_example(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, _ = run_cli(capsys, ["rate", "--model", path, "--x", "1.0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,x,lambda_star"
        k, x, v = lines[1].split(",")
        assert k == "limit" and float(x) == 1.0 and float(v) == pytest.approx(0.5, abs=1e-10)

    def test_segment_curves(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, _ = run_cli(capsys, ["rate", "--model", path, "--x", "1.0", "--k", "0", "--limit"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        values = {row[0]: float(row[2]) for row in rows}
        assert values["limit"] == pytest.approx(0.5, abs=1e-10)
        assert values["0"] == pytest.approx(0.375, abs=1e-8)


class TestSegments:
    def test_inject_example(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, _ = run_cli(
            capsys,
            ["segments", "--model", path, "--inject", "1,-1,1,1,-1",
             "--set", "above", "--a", "0.5", "--r", "2"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "statistic,value,k,l"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["T"][1] == "4" and rows["T"][2] == "2" and rows["T"][3] == "4"
        assert rows["R"][1] == "4"  # witness (0, 4): average 0.6 > 0.5

    def test_seeded_path(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, _ = run_cli(
            capsys,
            ["segments", "--model", path, "--seed", "7", "--t-max", "50",
             "--set", "above", "--a", "0.5"],
        )
        assert code == 0
        assert out.splitlines()[1].startswith("R,")

    def test_below_and_interval_sets(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, _ = run_cli(
            capsys,
            ["segments", "--model", path, "--inject", "1,-1,1,1,-1",
             "--set", "below", "--a", "-0.5", "--r", "1"],
        )
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        assert rows["T"][1] == "2"  # first step with average below -0.5 ends at l=2
        code, out, _ = run_cli(
            capsys,
            ["segments", "--model", path, "--inject", "1,-1,1,1,-1",
             "--set", "interval", "--a", "0.2", "--b", "0.7"],
        )
        assert code == 0
        assert out.splitlines()[1].startswith("R,")

    def test_needs_path_source(self, capsys, model_file):
        path = model_file(unit_document())
        code, _, err = run_cli(capsys, ["segments", "--model", path, "--set", "above", "--a", "1.0"])
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "path_source"


class TestValidationErrors:
    def test_zero_phi_exits_1(self, capsys, model_file):
        doc = unit_document(phi=[{"lag": 0, "value": 0.5}, {"lag": 1, "value": -0.5}])
        path = model_file(doc)
        code, _, err = run_cli(capsys, ["rate", "--model", path, "--x", "1.0"])
        assert code == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert record["invariant"] == "phi_total_nonzero"

    def test_unknown_key_exits_1(self, capsys, model_file):
        doc = unit_document()
        doc["extra_knob"] = 3
        path = model_file(doc)
        code, _, err = run_cli(capsys, ["rate", "--model", path, "--x", "1.0"])
        assert code == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["invariant"] == "unknown_key"
        assert "extra_knob" in record["message"]

    def test_unknown_flag_exits_1(self, capsys, model_file):
        path = model_file(unit_document())
        code, _, err = run_cli(capsys, ["rate", "--model", path, "--x", "1.0", "--frobnicate"])
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "usage"

    def test_missing_seed_exits_1(self, capsys, model_file):
        path = model_file(unit_document())
        code, _, err = run_cli(capsys, ["simulate", "--model", path, "--t-max", "10"])
        assert code == 1

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["rate", "--model", str(bad), "--x", "1.0"])
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "json_syntax"


class TestNumericalErrors:
    def test_bracket_failure_exits_2(self, capsys, model_file, recwarn):
        # degenerate covariance: the limit curve is flat, so no slope reaches 1
        doc = unit_document(innovations={"type": "gaussian", "cov": [[0.0]]})
        path = model_file(doc)
        code, _, err = run_cli(capsys, ["rate", "--model", path, "--x", "1.0"])
        assert code == 2
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "numerical"
        assert "steepness" in record["message"]


class TestSimulateCsv:
    def test_columns_and_rerun_identical(self, capsys, model_file):
        path = model_file(unit_document(noise={"type": "gaussian_noise", "var": 1.0}))
        argv = ["simulate", "--model", path, "--seed", "11", "--t-max", "25", "--record-steps"]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        code, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "t,N,S,D"
        assert lines[1] == "0,0,0,"
        assert len(lines) == 27


class TestOutputsAndManifest:
    def test_manifest_written_and_replay_identical(self, tmp_path, capsys, model_file):
        path = model_file(unit_document())
        out1 = tmp_path / "run1"
        argv = ["verify-uldp", "--model", path, "--seed", "5", "--t", "10",
                "--k-grid", "0,1", "--samples", "5000", "--set", "above", "--a", "0.4",
                "--out", str(out1)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "run1.manifest.json").read_text())
        assert manifest["subcommand"] == "verify-uldp"
        assert manifest["master_seed"] == 5
        assert set(manifest["outputs"]) == {"run1.csv", "run1.summary.json"}

        out2 = tmp_path / "run2"
        assert main(["replay", "--manifest", str(tmp_path / "run1.manifest.json"),
                     "--out", str(out2)]) == 0
        assert (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
        assert (tmp_path / "run1.summary.json").read_bytes() == (tmp_path / "run2.summary.json").read_bytes()

    def test_replay_detects_model_change(self, tmp_path, capsys, model_file):
        path = model_file(unit_document())
        out1 = tmp_path / "r1"
        assert main(["rate", "--model", path, "--x", "1.0", "--out", str(out1)]) == 0
        with open(path, "w") as fh:
            json.dump(unit_document(alpha=2.0), fh)
        code, _, err = run_cli(
            capsys, ["replay", "--manifest", str(tmp_path / "r1.manifest.json"), "--out", str(tmp_path / "r2")]
        )
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "input_digest_mismatch"

    def test_worker_count_does_not_change_outputs(self, tmp_path, model_file):
        path = model_file(unit_document())
        outs = []
        for tag, workers in (("w1", "1"), ("w2", "2")):
            prefix = tmp_path / tag
            assert main(["verify-strong-law", "--model", path, "--seed", "9", "--cp", "1.0",
                         "--replicates", "6", "--r-grid", "2,3", "--t-grid", "16",
                         "--initial-horizon", "64", "--noise-mode", "off",
                         "--workers", workers, "--out", str(prefix)]) == 0
            outs.append((prefix.with_name(tag + ".csv").read_bytes(),
                         prefix.with_name(tag + ".summary.json").read_bytes()))
        assert outs[0] == outs[1]


class TestChecksInSummary:
    def test_strong_law_band_and_trend_checks(self, tmp_path, model_file):
        path = model_file(unit_document())
        prefix = tmp_path / "chk"
        assert main(["verify-strong-law", "--model", path, "--seed", "3", "--cp", "1.0",
                     "--replicates", "6", "--r-grid", "2,3,4", "--t-grid", "16",
                     "--initial-horizon", "64", "--noise-mode", "off",
                     "--band", "3,0.0,5.0", "--trend", "2,4", "--out", str(prefix)]) == 0
        summary = json.loads((tmp_path / "chk.summary.json").read_text())
        assert summary["checks"]["median_band_r3"]["pass"] is True
        assert "trend_r4_closer_than_r2" in summary["checks"]

    def test_uldp_ordering_check_present(self, tmp_path, model_file):
        path = model_file(unit_document())
        prefix = tmp_path / "u"
        assert main(["verify-uldp", "--model", path, "--seed", "2", "--t", "8",
                     "--k-grid", "0,1", "--samples", "4000", "--set", "above", "--a", "0.5",
                     "--band", "0,1000", "--out", str(prefix)]) == 0
        summary = json.loads((tmp_path / "u.summary.json").read_text())
        assert "exponents_nondecreasing_in_k" in summary["checks"]
        assert summary["checks"]["exponent_band_k0"]["pass"] is True


class TestPlan:
    def test_plan_output(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, _ = run_cli(capsys, ["plan", "--model", path, "--r-target", "10",
                                        "--horizon", "148"])
        assert code == 0
        plan = json.loads(out)
        assert plan["capacity_headroom"] == pytest.approx(0.99972, abs=1e-4)
        assert plan["warning"] is None


class TestHygiene:
    def test_every_flag_documented(self):
        import argparse

        stack = [build_parser()]
        while stack:
            parser = stack.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    stack.extend(action.choices.values())
                elif action.dest != "help":
                    assert action.help, f"undocumented flag {action.option_strings or action.dest}"

    def test_log_env_does_not_change_results(self, capsys, model_file, monkeypatch):
        path = model_file(unit_document())
        argv = ["rate", "--model", path, "--x", "0.7,1.3"]
        _, out_plain, _ = run_cli(capsys, argv)
        monkeypatch.setenv("STRANGE_SEGMENTS_LOG", "DEBUG")
        _, out_debug, _ = run_cli(capsys, argv)
        assert out_plain == out_debug

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "strange_segments.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("rate", "simulate", "segments", "verify-strong-law", "verify-uldp", "plan"):
            assert sub in proc.stdout
