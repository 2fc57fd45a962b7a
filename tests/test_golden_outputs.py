"""Byte-identity guard: sha256 digests of fixed-seed CLI outputs.

Each case runs one small subcommand at a fixed seed and compares the digests
of its CSV and summary bytes with the values recorded before any
performance work. A change that is meant to keep every output byte the same
must leave every recorded digest untouched; a case it adds records its
digest on the tree before the change. A change that moves an output on
purpose updates the digest and says which output moved and why.

To print the current digests, run
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strange_segments
from strange_segments.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"

# name -> argv after the model path (every case writes to --out PREFIX)
CASES = {
    "simulate_noisy": ["simulate", "unit_noisy.json", "--seed", "11", "--t-max", "300"],
    "simulate_noisy_steps": ["simulate", "unit_noisy.json", "--seed", "11", "--t-max", "300",
                             "--record-steps"],
    "simulate_two_group_steps": ["simulate", "two_group.json", "--seed", "5", "--t-max", "500",
                                 "--record-steps"],
    # Longer than several 8,192-step cumsum blocks, so the carry between blocks is covered.
    "simulate_two_group_long": ["simulate", "two_group.json", "--seed", "7", "--t-max", "20000",
                                "--record-steps"],
    "simulate_unit_off": ["simulate", "unit.json", "--seed", "3", "--t-max", "100",
                          "--noise-mode", "off", "--record-steps"],
    # A model with a noise law, run without it.
    "simulate_noisy_off": ["simulate", "unit_noisy.json", "--seed", "11", "--t-max", "300",
                           "--noise-mode", "off", "--record-steps"],
    # Longer than one 65,536-row CSV block, so the export's second block is covered.
    "simulate_two_group_blocks": ["simulate", "two_group.json", "--seed", "13", "--t-max", "70000",
                                  "--record-steps"],
    "segments_above": ["segments", "two_group.json", "--seed", "3", "--t-max", "5000",
                       "--set", "above", "--a", "0.8", "--r", "12"],
    "segments_below_horizon": ["segments", "two_group.json", "--seed", "4", "--t-max", "5000",
                               "--t", "1234", "--set", "below", "--a", "-0.6", "--r", "9"],
    # Longer than several 16,384-step scan blocks, so the running minimum is carried between them.
    "segments_two_group_blocks": ["segments", "two_group.json", "--seed", "19", "--t-max", "50000",
                                  "--set", "above", "--a", "0.4", "--r", "100"],
    # A set that holds the mean: R = t, so the widest ramp grows in every block.
    "segments_mean_inside": ["segments", "two_group.json", "--seed", "19", "--t-max", "50000",
                             "--set", "below", "--a", "0.01", "--r", "100"],
    "segments_interval": ["segments", "unit_noisy.json", "--seed", "6", "--t-max", "300",
                          "--set", "interval", "--a", "0.3", "--b", "0.9", "--r", "4"],
    "segments_tie": ["segments", "unit.json", "--inject=-2,-2,-1,1,1,2", "--set", "above",
                     "--a", "0.7", "--r", "5"],
    # An injected path of a model with a noise law is noise-free.
    "segments_noisy_inject": ["segments", "unit_noisy.json", "--inject=0.5,-1.25,2,0.75,-0.5,1.5,1",
                              "--set", "above", "--a", "0.4", "--r", "3"],
    "verify_strong_law": ["verify-strong-law", "unit.json", "--seed", "23", "--cp", "1.0",
                          "--replicates", "4", "--r-grid", "2,4", "--t-grid", "32",
                          "--noise-mode", "off"],
    # Grows 320 -> 32000 (T_40 is censored) with aggregate noise; T_6 and T_8
    # complete past the first 8,192-step block.
    "verify_strong_law_long": ["verify-strong-law", "unit_noisy.json", "--seed", "29", "--cp", "1.5",
                               "--replicates", "3", "--r-grid", "6,8,9,40", "--t-grid", "100",
                               "--horizon-cap", "32000"],
    "verify_strong_law_noisy_off": ["verify-strong-law", "unit_noisy.json", "--seed", "37", "--cp", "1.5",
                                    "--replicates", "3", "--r-grid", "4,6", "--t-grid", "100",
                                    "--noise-mode", "off", "--horizon-cap", "20000"],
    "verify_uldp": ["verify-uldp", "two_group.json", "--seed", "17", "--t", "10",
                    "--k-grid", "0,1", "--samples", "4000", "--set", "above", "--a", "0.4"],
    "verify_uldp_off": ["verify-uldp", "two_group.json", "--seed", "17", "--t", "10",
                        "--k-grid", "0,1", "--samples", "4000", "--set", "above", "--a", "0.4",
                        "--noise-mode", "off"],
    # One full 8,192-sample chunk plus a partial one per offset, and a fractional kt.
    "verify_uldp_partial": ["verify-uldp", "two_group.json", "--seed", "31", "--t", "40",
                            "--k-grid", "0,0.33,4", "--samples", "9000", "--set", "above",
                            "--a", "0.4", "--noise-mode", "aggregate"],
    "plan": ["plan", "two_group.json", "--r-target", "20", "--horizon", "1000000"],
    "rate": ["rate", "two_group.json", "--x", "0.25,1.5", "--k", "0,2", "--limit"],
}

GOLDEN = {
    "plan": {
        "summary.json": "c125227f4c1adc040fc4a747164b208199dfb82fce1b6dacf892d4d29c2f3a65",
    },
    "rate": {
        "csv": "79503533bc312f5bb453a58b44086a6eb885a2ed169feb777543b45ab12c5eac",
    },
    "segments_above": {
        "csv": "b48b787066189ffeac454d5608539d91148c1daf182ecd72ae8c1eb3f4b434b5",
    },
    "segments_below_horizon": {
        "csv": "9c87a222390255a4f3d75e38af78177001b91bd58593c8d28a029985ea3e90a9",
    },
    "segments_interval": {
        "csv": "959e92bfdf081e9675c541e1a528b7843644a97cb59e9892dbad7d7d1fee581a",
    },
    "segments_mean_inside": {
        "csv": "db5477751f972e36ea56dd23d5f0557b74790a3334ba62823a377acea32f721a",
    },
    "segments_noisy_inject": {
        "csv": "9c38369dc7c30142f11e70b52700938b4846cdaa741a8c3c5edb0aab399020d3",
    },
    "segments_tie": {
        "csv": "c4bae82532e880ac2cfb4746b2f0f292206362f43ff7377e8b76cfbc1aa5d4d7",
    },
    "segments_two_group_blocks": {
        "csv": "13c209d058cdf7aa6b4978faa3d52e754019a011be8e651538d98c0f9821abd0",
    },
    "simulate_noisy": {
        "csv": "d9c7e17580d65bdb01f586a7c5588c78faac0bbff4899202a86f24ede3b248c3",
    },
    "simulate_noisy_off": {
        "csv": "23ff4943bf62bac127817f57c15d95dc4989cd90ce9e70086aa29ea9ab74049e",
    },
    "simulate_noisy_steps": {
        "csv": "6a5085a1eeb8b6a8ef90759da471acaa311f09c2226da253331d41a425c0cfa5",
    },
    "simulate_two_group_long": {
        "csv": "9492a57efc32eb8913fea2a578bdb30dd8b4b8ce32255ba45fca329daf910111",
    },
    "simulate_two_group_blocks": {
        "csv": "b8bcbc0578bb47fe6e24156952e967107922fcc39447272866d63f1b09dd15ea",
    },
    "simulate_two_group_steps": {
        "csv": "3893c8627c5858df5c86daa2b17e21152c8fa0cb13109a0a349c5cc501d7dbf9",
    },
    "simulate_unit_off": {
        "csv": "1c0e29cb110f9edef00e38216c1b2174fb5e23a2d1a57e0243aa454bf150c892",
    },
    "verify_strong_law": {
        "csv": "068d6af4237494d15cce6f63fa875d7ae4e830d1d066a3be4eb0bee7af8aea9f",
        "summary.json": "3d0c637098f160494e6b8e3c9b6b9540dc34a5319e320357b8b6ee084b71b9a0",
    },
    "verify_strong_law_long": {
        "csv": "129fe7feefbf93d1d7690f89df4ce03e4a4036743244c4126e9f7cde873b696b",
        "summary.json": "02cad7323729740992b23005499c558bccbdee269b5eb320e0c8763112b9a708",
    },
    "verify_strong_law_noisy_off": {
        "csv": "d00161e9e2458998d19eace7c884e09fc4dfe47819dca77e800e76eba78d0013",
        "summary.json": "9844692d14e447b1b08dbd24709d77098098fb30d035e8709e409e1b89039f49",
    },
    "verify_uldp": {
        "csv": "c62c9714a6c1ed87c2e0dc1e488e21e9cda236116fd06dfcd66364aaa4b827d4",
        "summary.json": "5b64c19cc553d5976a31dbb3072159128001dcfb9fa0e7d2c5da4ef3e59d3838",
    },
    "verify_uldp_off": {
        "csv": "d65eba7a95c0039939d915ac2271e832a562d8948953b5326c69050239c6a2c9",
        "summary.json": "805ea341db5e91db2373afdf4fe1aeeae31bb68207a8eb3b843c7bb5f153f364",
    },
    "verify_uldp_partial": {
        "csv": "33868661eaaec23bc8583cef7c4ebd9012adc8f304f8cafabf6d0665fa87180a",
        "summary.json": "1d091eacbb0ee0a814267d0858178e5201805aa1fca5cc1964545f4fea1cf12f",
    },
}


def _argv(case: list[str], prefix: Path) -> list[str]:
    sub, model, *rest = case
    return [sub, "--model", str(MODELS / model), *rest, "--out", str(prefix)]


def _digests(case: list[str], tmp: Path) -> dict[str, str]:
    prefix = tmp / "run"
    assert main(_argv(case, prefix)) == 0
    out = {}
    for suffix in ("csv", "summary.json"):
        name = prefix.with_name(f"{prefix.name}.{suffix}")
        if name.exists():
            out[suffix] = hashlib.sha256(name.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert _digests(CASES[name], tmp_path) == GOLDEN[name]


def test_debug_log_leaves_output_bytes_unchanged(tmp_path):
    # in a fresh process, so STRANGE_SEGMENTS_LOG configures the root logger
    prefix = tmp_path / "run"
    env = dict(os.environ, STRANGE_SEGMENTS_LOG="debug",
               PYTHONPATH=str(Path(strange_segments.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "strange_segments.cli", *_argv(CASES["verify_strong_law_long"], prefix)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr.count("strong-law replicate") == 3
    digests = {
        suffix: hashlib.sha256(prefix.with_name(f"run.{suffix}").read_bytes()).hexdigest()
        for suffix in ("csv", "summary.json")
    }
    assert digests == GOLDEN["verify_strong_law_long"]


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    for key in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{key}": {{')
            for suffix, digest in _digests(CASES[key], Path(tmp)).items():
                print(f'        "{suffix}": "{digest}",')
            print("    },")
