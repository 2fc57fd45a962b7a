import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strange_segments import ModelValidationError, WorkloadPath, load_model, simulate
from strange_segments import cli, experiments
from strange_segments.cli import _fmt, _path_csv_lines, build_parser, main
from strange_segments.segments import _SET_KINDS
from strange_segments.simulator import _NOISE_MODES, PathConfig

from conftest import unit_document

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_in_worker(args):
    """A strong-law replicate that fails, naming the process it ran in."""
    raise ModelValidationError("worker_probe", f"raised in process {os.getpid()}")


def run_fresh(argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter, where no parser was built yet."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "strange_segments.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


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


    def test_negative_offset_names_its_invariant(self, capsys, model_file):
        path = model_file(unit_document())
        code, out, err = run_cli(capsys, ["rate", "--model", path, "--x", "1.0", "--k=-1"])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "validation" and record["invariant"] == "window_offset"


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

    @pytest.mark.parametrize("extra", [
        ["--seed", "3"],
        ["--t-max", "99"],
        ["--noise-mode", "aggregate"],
        ["--t-max", "99", "--noise-mode", "aggregate"],
    ])
    def test_inject_refuses_sampled_path_flags(self, capsys, extra):
        # an injected path is noise-free and as long as the input, so these
        # flags would only be recorded in the manifest, never used
        argv = ["segments", "--model", str(MODELS / "unit_noisy.json"), "--inject=1,2,3,4",
                "--set", "above", "--a", "0.5", *extra]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "path_source"

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "1", "--t-max", "10"],
        ["segments", "--seed", "1", "--t-max", "10", "--set", "above", "--a", "0.5"],
        ["verify-strong-law", "--seed", "1", "--cp", "1.0"],
        ["verify-uldp", "--seed", "1", "--t", "4", "--samples", "10", "--set", "above", "--a", "0.5"],
    ])
    def test_literal_noise_mode_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[:1] + ["--model", str(MODELS / "unit_noisy.json")]
                                 + argv[1:] + ["--noise-mode", "literal"])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "usage"

    def test_missing_seed_exits_1(self, capsys, model_file):
        path = model_file(unit_document())
        code, _, err = run_cli(capsys, ["simulate", "--model", path, "--t-max", "10"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["rate", "--x", "1.0", "--root-tol", "nan"],
        ["rate", "--x", "1.0", "--quad-tol", "inf"],
        ["rate", "--x", "nan"],
        ["rate", "--x", "1.0,inf"],
        ["segments", "--inject", "1,nan,2,3", "--set", "above", "--a", "0.5"],
        ["segments", "--inject", "1,2,3", "--set", "above", "--a", "nan"],
        ["segments", "--inject", "1,2,3", "--set", "interval", "--a", "0", "--b", "inf"],
        ["verify-strong-law", "--seed", "1", "--cp", "nan"],
    ])
    def test_non_finite_numbers_exit_1(self, capsys, model_file, argv):
        path = model_file(unit_document())
        code, out, err = run_cli(capsys, argv[:1] + ["--model", path] + argv[1:])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "number_list"

    @pytest.mark.parametrize("argv", [
        ["rate", "--x", ""],
        ["rate", "--x", " , "],
        ["rate", "--x", "1.0", "--k", ""],
        ["segments", "--inject", "", "--set", "above", "--a", "0.5"],
    ])
    def test_empty_number_lists_exit_1(self, capsys, model_file, argv):
        path = model_file(unit_document())
        code, out, err = run_cli(capsys, argv[:1] + ["--model", path] + argv[1:])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "number_list"

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


def per_row_csv(path, record_steps):
    """The simulate CSV as it was first written, one `_fmt` call per cell."""
    lines = ["t,N,S,D" if record_steps else "t,N,S"]
    for t in range(path.t_max + 1):
        row = [str(t), str(int(path.N[t])), _fmt(float(path.S[t]))]
        if record_steps:
            row.append("" if t == 0 else _fmt(float(path.D[t])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestSimulateExport:
    """The block-formatted export against the per-row oracle, byte for byte."""

    @pytest.mark.parametrize("model", ["unit_noisy.json", "two_group.json"])
    @pytest.mark.parametrize("record_steps", [False, True])
    def test_cli_bytes_match_per_row_oracle(self, tmp_path, monkeypatch, model, record_steps):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 64)  # several blocks and a ragged last one
        argv = ["simulate", "--model", str(MODELS / model), "--seed", "19", "--t-max", "300",
                "--out", str(tmp_path / "sim")]
        assert main(argv + (["--record-steps"] if record_steps else [])) == 0
        spec, _ = load_model(str(MODELS / model))
        path = simulate(spec, PathConfig(t_max=300, seed=19, record_steps=record_steps))
        data = (tmp_path / "sim.csv").read_bytes()
        assert data == per_row_csv(path, record_steps).encode()
        assert data.splitlines()[1] == (b"0,0,0," if record_steps else b"0,0,0")

    def test_default_block_boundary(self):
        spec, _ = load_model(str(MODELS / "two_group.json"))
        t_max = cli._CSV_BLOCK_ROWS + 1  # rows 1..t_max fill one block and start the next
        path = simulate(spec, PathConfig(t_max=t_max, seed=4, record_steps=True))
        text = (b"\n".join(_path_csv_lines(path, True)) + b"\n").decode()
        assert text == per_row_csv(path, True)

    @pytest.mark.parametrize("record_steps", [False, True])
    def test_extreme_values(self, monkeypatch, record_steps):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        d = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e17, -1e17, 123456789012345680.0,
                      0.1, 1e-5, 1e16, 2.0**-1074])
        s = np.concatenate([[0.0], np.array([-0.0, 1e-300, 1e17, -0.0, 1e-310, 1e17 + 16,
                                             -1e-300, 0.3, 9.999999999999999e16, -1e-4, 1e-5,
                                             7.0])])
        n = np.arange(len(s), dtype=np.int64) * 10**12
        path = WorkloadPath(S=s, N=n, D=np.concatenate([[0.0], d]))
        text = (b"\n".join(_path_csv_lines(path, record_steps)) + b"\n").decode()
        assert text == per_row_csv(path, record_steps)
        assert {"-0", "1e-300", "1e+17"} <= set(text.replace("\n", ",").split(","))


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

    @pytest.mark.parametrize("mode", ["sometimes", "literal"])
    def test_replay_refuses_unknown_noise_mode(self, tmp_path, capsys, mode):
        # replay bypasses the parser's choices; the run's config must refuse the
        # mode instead of running without noise
        assert main(["verify-uldp", "--model", str(MODELS / "unit_noisy.json"), "--seed", "1",
                     "--t", "10", "--samples", "200", "--set", "above", "--a", "0.4",
                     "--out", str(tmp_path / "run1")]) == 0
        manifest = json.loads((tmp_path / "run1.manifest.json").read_text())
        manifest["config"]["noise_mode"] = mode
        (tmp_path / "edited.manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, ["replay", "--manifest", str(tmp_path / "edited.manifest.json"),
                                          "--out", str(tmp_path / "run2")])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "noise_mode"
        assert not (tmp_path / "run2.csv").exists()

    @pytest.mark.parametrize("key, value, invariant", [
        ("samples", "200", "replay_config"),
        ("workers", "2", "replay_config"),
        ("t", 10.5, "replay_config"),
        ("set", "sideways", "set"),
        ("limit", True, "replay_config"),  # a key the subcommand does not have
    ])
    def test_replay_refuses_config_the_parser_would_refuse(self, tmp_path, capsys, key, value,
                                                           invariant):
        assert main(["verify-uldp", "--model", str(MODELS / "unit_noisy.json"), "--seed", "1",
                     "--t", "10", "--samples", "200", "--set", "above", "--a", "0.4",
                     "--out", str(tmp_path / "run1")]) == 0
        manifest = json.loads((tmp_path / "run1.manifest.json").read_text())
        manifest["config"][key] = value
        (tmp_path / "edited.manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, ["replay", "--manifest", str(tmp_path / "edited.manifest.json"),
                                          "--out", str(tmp_path / "run2")])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "validation" and record["invariant"] == invariant
        assert not (tmp_path / "run2.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["rate", "--x=-0.8,0.3", "--k", "0,2.5", "--limit", "--root-tol", "1e-11"],
        ["segments", "--set", "interval", "--a=-0.5", "--b", "0.5", "--inject", "1,-2,3,0.5"],
        ["verify-strong-law", "--seed", "3", "--cp", "1.0", "--replicates", "2", "--r-grid", "2,3",
         "--t-grid", "16", "--initial-horizon", "64", "--horizon-cap", "4096", "--noise-mode", "off",
         "--band", "2,0.0,5.0", "--band", "3,0.0,5.0", "--trend", "2,3"],
        ["plan", "--r-target", "12", "--horizon", "100000"],
    ])
    def test_replay_reparses_every_kind_of_flag(self, tmp_path, capsys, argv):
        model = str(MODELS / "unit.json")
        assert main(argv[:1] + ["--model", model] + argv[1:] + ["--out", str(tmp_path / "run1")]) == 0
        assert main(["replay", "--manifest", str(tmp_path / "run1.manifest.json"),
                     "--out", str(tmp_path / "run2")]) == 0
        first = json.loads((tmp_path / "run1.manifest.json").read_text())
        again = json.loads((tmp_path / "run2.manifest.json").read_text())
        assert again["config"] == first["config"]
        for name in first["outputs"]:
            assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("run1", "run2")).read_bytes()

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


class TestCheckSpecsBeforeRun:
    STRONG = ["verify-strong-law", "--seed", "1", "--cp", "1.0", "--replicates", "2",
              "--r-grid", "2,4", "--t-grid", "16", "--noise-mode", "off"]
    ULDP = ["verify-uldp", "--seed", "1", "--t", "4", "--samples", "100", "--set", "above",
            "--a", "0.5", "--k-grid", "0"]
    SEGMENTS = ["segments", "--inject=1,2,3", "--set", "above", "--a", "0.5"]

    @pytest.mark.parametrize("argv, invariant", [
        (STRONG + ["--band", "7,0,1"], "band"),
        (STRONG + ["--band", "2,0.3"], "band"),
        (STRONG + ["--band", "2,0,1,5"], "band"),
        (STRONG + ["--band", "2,nan,1"], "number_list"),
        (STRONG + ["--band", "2,0,inf"], "number_list"),
        (STRONG + ["--band", "2.0,0,1"], "number_list"),
        (STRONG + ["--band", "2,0,1", "--band", "3,0,1"], "band"),
        (STRONG + ["--band", "2,0,0.01", "--band", "2,0,5"], "band"),
        (STRONG + ["--trend", "2,9"], "trend"),
        (STRONG + ["--trend", "4"], "trend"),
        (STRONG + ["--trend", "2,x"], "number_list"),
        (STRONG + ["--r-grid", "2,12,12"], "r_grid"),
        (ULDP + ["--band", "1,25"], "band"),
        (ULDP + ["--band", "0"], "band"),
        (ULDP + ["--band", "0,10", "--band", "0,50"], "band"),
        (ULDP + ["--k-grid", "0,0.5", "--band", "0.5,10", "--band", "1/2,50"], "band"),  # one offset
        (ULDP + ["--band", "0,nan"], "number_list"),
        (ULDP + ["--band", "zero,25"], "number_list"),
        (ULDP + ["--k-grid", "0,0.0,1"], "k_grid"),
        (ULDP + ["--a=-0.5", "--band", "0,10"], "band"),  # predicted exponent 0 at offset 0
        (ULDP + ["--t", "1", "--k-grid", "0,0.5"], "k_grid"),  # the window (0.5, 1.5] is empty
        (ULDP + ["--noise-mode", "aggregate"], "noise_model_missing"),
        (STRONG + ["--noise-mode", "aggregate", "--workers", "2"], "noise_model_missing"),
        (STRONG + ["--t-grid", "", "--horizon-cap", "-3"], "horizon_cap"),
        (STRONG + ["--initial-horizon", "-5"], "initial_horizon"),
        (STRONG + ["--initial-horizon", "0"], "initial_horizon"),
        (SEGMENTS + ["--t", "99"], "horizon"),  # the injected path has 3 steps
        (SEGMENTS + ["--t", "0"], "horizon"),
        (SEGMENTS + ["--t", "99", "--r", "0"], "segment_length"),
        (SEGMENTS + ["--r", "0"], "segment_length"),
    ])
    def test_bad_spec_exits_1_without_running(self, capsys, model_file, monkeypatch, argv,
                                              invariant):
        def never(*args, **kwargs):
            raise AssertionError("the run or scan started before its checks were validated")

        for name in ("run_strong_law", "run_uldp", "r_stat", "t_stat"):
            monkeypatch.setattr(cli, name, never)
        path = model_file(unit_document())
        code, out, err = run_cli(capsys, argv[:1] + ["--model", path] + argv[1:])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == invariant

    def test_worker_error_reaches_the_error_record(self, capsys, monkeypatch):
        # each pooled replicate raises in its worker; the error must cross the
        # process pool intact to become the JSON record
        monkeypatch.setattr(experiments, "_strong_law_replicate", _refuse_in_worker)
        code, out, err = run_cli(capsys, [
            "verify-strong-law", "--model", str(MODELS / "unit_noisy.json"), "--seed", "1",
            "--cp", "1.0", "--replicates", "2", "--workers", "2",
        ])
        assert code == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["invariant"] == "worker_probe"
        assert record["message"] != f"raised in process {os.getpid()}"

    @pytest.mark.parametrize("argv", [STRONG + ["--workers", "0"], ULDP + ["--workers", "-1"]])
    def test_worker_count_below_one_exits_1(self, capsys, model_file, argv):
        path = model_file(unit_document())
        code, out, err = run_cli(capsys, argv[:1] + ["--model", path] + argv[1:])
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["invariant"] == "workers"


class TestInitialHorizon:
    # grows to a censored T_40 at the cap with aggregate noise; T_6 and T_8 complete
    # past the first 8,192-step block
    ARGV = ["verify-strong-law", "--model", str(MODELS / "unit_noisy.json"), "--seed", "29",
            "--cp", "1.5", "--replicates", "3", "--r-grid", "6,8,9,40", "--t-grid", "100",
            "--horizon-cap", "32000"]

    def test_start_of_the_doubling_does_not_change_the_outputs(self, capsys):
        # 7 is raised to the largest t-grid entry; 20000 reaches the cap in two growths
        outs = {value: run_cli(capsys, self.ARGV + (["--initial-horizon", value] if value else []))
                for value in (None, "7", "1000", "20000")}
        assert all(code == 0 for code, _, _ in outs.values())
        assert len({out for _, out, _ in outs.values()}) == 1


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
        stack = [build_parser()]
        while stack:
            parser = stack.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    stack.extend(action.choices.values())
                elif action.dest != "help":
                    assert action.help, f"undocumented flag {action.option_strings or action.dest}"

    def test_choices_are_the_package_tuples(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = {
            (name, action.dest): action.choices
            for name, p in subs.choices.items()
            for action in p._actions
            if action.dest in ("noise_mode", "set")
        }
        assert choices == {
            ("simulate", "noise_mode"): _NOISE_MODES,
            ("segments", "noise_mode"): _NOISE_MODES,
            ("verify-strong-law", "noise_mode"): _NOISE_MODES,
            ("verify-uldp", "noise_mode"): _NOISE_MODES,
            ("segments", "set"): _SET_KINDS,
            ("verify-uldp", "set"): _SET_KINDS,
        }

    @pytest.mark.parametrize("argv, keys", [
        (["rate", "--model", "m", "--x", "1"],
         "k limit model quad_tol root_tol subcommand x"),
        (["simulate", "--model", "m", "--seed", "1", "--t-max", "5"],
         "model noise_mode record_steps seed subcommand t_max"),
        (["segments", "--model", "m", "--set", "above", "--a", "0.5", "--inject", "1,2"],
         "a b inject model noise_mode r seed set subcommand t t_max"),
        (["verify-strong-law", "--model", "m", "--seed", "1", "--cp", "1"],
         "band cp horizon_cap initial_horizon model noise_mode r_grid replicates seed "
         "subcommand t_grid trend workers"),
        (["verify-uldp", "--model", "m", "--seed", "1", "--t", "4", "--samples", "10",
          "--set", "above", "--a", "0.5"],
         "a b band k_grid model noise_mode samples seed set subcommand t workers"),
        (["plan", "--model", "m", "--r-target", "3", "--horizon", "10"],
         "horizon model r_target subcommand"),
        (["replay", "--manifest", "x"], "manifest subcommand"),
    ])
    def test_manifest_config_keys(self, argv, keys):
        config = cli._manifest_config(build_parser().parse_args(argv + ["--out", "o"]))
        assert list(config) == keys.split()

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


class TestParserReuse:
    """``main`` reuses one parser per process; no call may see state left by another."""

    def test_parser_is_shared(self):
        assert build_parser() is build_parser()

    def test_band_and_default_grid_do_not_leak(self, tmp_path, model_file):
        path = model_file(unit_document())
        common = ["verify-strong-law", "--model", path, "--seed", "3", "--cp", "1.0",
                  "--replicates", "2", "--t-grid", "16", "--initial-horizon", "64",
                  "--horizon-cap", "4096", "--noise-mode", "off"]
        runs = [
            ("b1", ["--r-grid", "2,3,4", "--band", "3,0.0,5.0"]),
            ("b2", ["--r-grid", "2,3,4", "--band", "2,0.0,5.0", "--band", "4,0.0,5.0"]),
            ("plain", []),
        ]
        for tag, extra in runs:
            assert main(common + extra + ["--out", str(tmp_path / tag)]) == 0
        summary = {tag: json.loads((tmp_path / f"{tag}.summary.json").read_text()) for tag, _ in runs}
        config = {tag: json.loads((tmp_path / f"{tag}.manifest.json").read_text())["config"]
                  for tag, _ in runs}
        assert set(summary["b1"]["checks"]) == {"median_band_r3"}
        assert set(summary["b2"]["checks"]) == {"median_band_r2", "median_band_r4"}
        assert "checks" not in summary["plain"]
        assert config["plain"]["band"] is None
        assert config["plain"]["r_grid"] == [6, 8, 10, 12, 14]
        assert sorted(summary["plain"]["log_T_over_r"]) == ["10", "12", "14", "6", "8"]

    def test_usage_error_then_valid_call(self, capsys, model_file):
        path = model_file(unit_document())
        valid = ["rate", "--model", path, "--x", "0.5,1.5", "--k", "0,2"]
        code, _, err = run_cli(capsys, ["rate", "--model", path, "--x", "1.0", "--bogus"])
        assert code == 1 and json.loads(err)["error"] == "validation"
        code, _, _ = run_cli(capsys, ["plan", "--model", path, "--r-target", "10"])
        assert code == 1
        assert run_cli(capsys, valid) == run_fresh(valid)

    def test_interleaved_queries_match_fresh_processes(self, capsys):
        rate = ["rate", "--model", str(MODELS / "two_group.json"), "--x=-0.5,1.0,2.5",
                "--k", "0,0.5,20", "--limit"]
        plan = ["plan", "--model", str(MODELS / "unit.json"), "--r-target", "12",
                "--horizon", "100000"]
        alone = {"rate": run_fresh(rate), "plan": run_fresh(plan)}
        assert alone["rate"][0] == 0 and alone["plan"][0] == 0
        for name, argv in (("rate", rate), ("plan", plan), ("rate", rate)):
            assert run_cli(capsys, argv) == alone[name]
