"""Byte-identity guard: sha256 digests of fixed-seed CLI outputs.

Each case runs one small subcommand at a fixed seed and compares the digests
of its CSV and summary bytes with the values recorded before any
performance work. A change that is meant to keep every output byte the same
must leave this file untouched; a change that moves an output on purpose
updates the digest and says which output moved and why.

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
    "segments_above": ["segments", "two_group.json", "--seed", "3", "--t-max", "5000",
                       "--set", "above", "--a", "0.8", "--r", "12"],
    "segments_below_horizon": ["segments", "two_group.json", "--seed", "4", "--t-max", "5000",
                               "--t", "1234", "--set", "below", "--a", "-0.6", "--r", "9"],
    "segments_interval": ["segments", "unit_noisy.json", "--seed", "6", "--t-max", "300",
                          "--set", "interval", "--a", "0.3", "--b", "0.9", "--r", "4"],
    "segments_tie": ["segments", "unit.json", "--inject=-2,-2,-1,1,1,2", "--set", "above",
                     "--a", "0.7", "--r", "5"],
    "verify_strong_law": ["verify-strong-law", "unit.json", "--seed", "23", "--cp", "1.0",
                          "--replicates", "4", "--r-grid", "2,4", "--t-grid", "32",
                          "--initial-horizon", "64", "--noise-mode", "off"],
    # Grows 1000 -> 32000 (T_40 is censored) with aggregate noise; T_6 and T_8
    # complete past the first 8,192-step block.
    "verify_strong_law_long": ["verify-strong-law", "unit_noisy.json", "--seed", "29", "--cp", "1.5",
                               "--replicates", "3", "--r-grid", "6,8,9,40", "--t-grid", "100",
                               "--initial-horizon", "1000", "--horizon-cap", "32000"],
    "verify_uldp": ["verify-uldp", "two_group.json", "--seed", "17", "--t", "10",
                    "--k-grid", "0,1", "--samples", "4000", "--set", "above", "--a", "0.4"],
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
        "csv": "825148d72deeb7df02fc2c517ffd97f643888bf6270ce8a6e65e05054fa4e3e7",
    },
    "segments_above": {
        "csv": "05ec1fcae0bd7d9fac839295c548d7f73dc521afad5930a88822ab43424f8304",
    },
    "segments_below_horizon": {
        "csv": "b2c3a591c06db4c8ad440c53dc67a8423776ced02ce332e221e713121679d748",
    },
    "segments_interval": {
        "csv": "959e92bfdf081e9675c541e1a528b7843644a97cb59e9892dbad7d7d1fee581a",
    },
    "segments_tie": {
        "csv": "c4bae82532e880ac2cfb4746b2f0f292206362f43ff7377e8b76cfbc1aa5d4d7",
    },
    "simulate_noisy": {
        "csv": "d9c7e17580d65bdb01f586a7c5588c78faac0bbff4899202a86f24ede3b248c3",
    },
    "simulate_noisy_steps": {
        "csv": "6a5085a1eeb8b6a8ef90759da471acaa311f09c2226da253331d41a425c0cfa5",
    },
    "simulate_two_group_long": {
        "csv": "1fe7a743630460c5c2b24810afccf53a5372a97d8b0f0cce9fb39460b5b148ef",
    },
    "simulate_two_group_steps": {
        "csv": "a07ac65eb5e97a5b83e68aca2dc42bf7fd37a809089a60115cf353058fd8796e",
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
    "verify_uldp": {
        "csv": "bb72c0966d41c33f2d29a85d7aa45ce3faf3eba466776b71d2e8e2c1949d508a",
        "summary.json": "6d3212f8963a3b6d68bc50eb7fcc2f2641132ccb8e7298bf0fd2d6683745bdd3",
    },
    "verify_uldp_partial": {
        "csv": "bfb0c10b704c24ecc764a3d0aa87504f7b45e6f0ec02eaaa92298d381ed88968",
        "summary.json": "51188aefcba56eea87cc3a910a27a9b63023c7057196f614e5b9f6ba917aedba",
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
