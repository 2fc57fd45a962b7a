"""Command-line entry point.

Subcommands: rate, simulate, segments, verify-strong-law, verify-uldp, plan,
replay. Every run validates the model document first, then writes CSV and/or
a JSON summary plus a manifest sufficient to replay the run byte-for-byte.
Exit codes: 0 success, 1 validation error, 2 numerical failure; errors are
emitted as one JSON object on stderr.

The environment variable STRANGE_SEGMENTS_LOG sets the log level only; it
never affects results.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import ModelValidationError, NumericalError
from .experiments import StrongLawRun, UldpRun, run_strong_law, run_uldp, sla_plan
from .modeldoc import load_model
from .rate_function import RateFunctionCtx, legendre, set_rate
from .segments import _SET_KINDS, ThresholdSet, r_stat, t_stat
from .simulator import _NOISE_MODES, PathConfig, WorkloadPath, simulate


# Rows of the simulate CSV formatted per block; bounds the transient arrays and lists.
_CSV_BLOCK_ROWS = 65_536


def _fmt(x) -> str:
    """CSV cell: floats at 17 significant digits, '.' decimal, None empty."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a validation error (exit 1)."""

    def error(self, message):
        raise ModelValidationError("usage", message)


def _finite_float(text: str) -> float:
    """One finite number; nan and inf never reach the numerics."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ModelValidationError("number_list", f"expected a finite number, got {text!r}")


def _floats(text: str) -> list[float]:
    values = [_finite_float(p) for p in text.split(",") if p.strip() != ""]
    if not values:
        raise ModelValidationError("number_list", f"expected at least one number, got {text!r}")
    return values


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ModelValidationError("number_list", f"expected an integer, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    return [_int(p) for p in text.split(",") if p.strip() != ""]


def _offset(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ModelValidationError("number_list", f"expected a window offset, got {text!r}") from exc


def _check_fields(text: str, flag: str, names: str) -> list[str]:
    """Fields of one --band/--trend spec; ``names`` is its metavar, e.g. "R,LO,HI"."""
    parts = text.split(",")
    if len(parts) != names.count(",") + 1:
        raise ModelValidationError(flag, f"--{flag} expects {names}, got {text!r}")
    return parts


def _on_grid(value, grid, flag: str):
    if value not in grid:
        raise ModelValidationError(flag, f"--{flag} names {value}, which is not on the grid")
    return value


def _bands(texts, names: str, entry, grid, what: str) -> list[tuple]:
    """--band specs ``names`` (e.g. "R,LO,HI") as (first field, grid entry, other fields as floats);
    ``entry`` parses the first field, which must name a ``grid`` entry no other band names."""
    bands = []
    for text in texts or []:
        first, *rest = _check_fields(text, "band", names)
        bands.append((first, _on_grid(entry(first), grid, "band"), *map(_finite_float, rest)))
    if len({band[1] for band in bands}) < len(bands):  # a later band would overwrite the check
        raise ModelValidationError("band", f"--band names the same {what} twice")
    return bands


def _table(cols: tuple, rows: list[dict]) -> list[str]:
    """CSV lines: the header ``cols``, then the cells of each row in that order."""
    return [",".join(cols)] + [",".join(_fmt(row[c]) for c in cols) for row in rows]


def _threshold_set(args) -> ThresholdSet:
    if args.set == "interval":
        if args.b is None:
            raise ModelValidationError("interval_endpoints", "--set interval requires --b")
        return ThresholdSet.interval(args.a, args.b)
    if args.b is not None:
        raise ModelValidationError("interval_endpoints", "--b only applies to --set interval")
    return ThresholdSet(args.set, args.a)


def _manifest_config(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key != "out"}


def _emit(args, seed: Optional[int], digest: Optional[str], csv_lines: Optional[list],
          summary: Optional[dict]) -> None:
    """Write the CSV/summary outputs and the run manifest.

    Each entry of ``csv_lines`` is a CSV line (str) or a block of lines
    (ASCII bytes), written with a newline after it. A CSV file takes the
    entries' bytes one at a time, so the whole text is never joined.
    """
    csv_chunks = None if csv_lines is None else [
        line.encode() if isinstance(line, str) else line for line in csv_lines
    ]
    summary_text = (
        json.dumps(summary, sort_keys=True, indent=2) + "\n" if summary is not None else None
    )
    outputs = []
    prefix = args.out
    manifest = {
        "artifact_version": __version__,
        "subcommand": args.subcommand,
        "master_seed": seed,
        "input_digest": digest,
        "config": _manifest_config(args),
        "outputs": outputs,
    }
    if prefix is None:
        if csv_chunks is not None:
            for chunk in csv_chunks:
                sys.stdout.write(chunk.decode())
                sys.stdout.write("\n")
        if summary_text is not None:
            sys.stdout.write(summary_text)
        sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
        return
    base = Path(prefix)
    base.parent.mkdir(parents=True, exist_ok=True)
    if csv_chunks is not None:
        name = base.with_name(base.name + ".csv")
        with name.open("wb") as out:
            for chunk in csv_chunks:
                out.write(chunk)
                out.write(b"\n")
        outputs.append(name.name)
    if summary_text is not None:
        name = base.with_name(base.name + ".summary.json")
        name.write_text(summary_text, newline="")
        outputs.append(name.name)
    mpath = base.with_name(base.name + ".manifest.json")
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", newline="")


def _cmd_rate(args) -> int:
    spec, digest = load_model(args.model)
    ctx = RateFunctionCtx(spec, quad_tol=args.quad_tol, root_tol=args.root_tol)
    lines = ["k,x,lambda_star"]
    curves: list = list(args.k or [])
    if args.limit or not curves:
        curves.insert(0, "limit")
    for which in curves:
        for x in args.x:
            res = legendre(ctx, which, x)
            kcell = "limit" if which == "limit" else _fmt(float(which))
            lines.append(f"{kcell},{_fmt(float(x))},{_fmt(res.value)}")
    _emit(args, None, digest, lines, None)
    return 0


def _cmd_simulate(args) -> int:
    spec, digest = load_model(args.model)
    cfg = PathConfig(
        t_max=args.t_max, seed=args.seed, noise_mode=args.noise_mode, record_steps=args.record_steps
    )
    path = simulate(spec, cfg)
    _emit(args, args.seed, digest, _path_csv_lines(path, args.record_steps), None)
    return 0


def _path_csv_lines(path: WorkloadPath, record_steps: bool) -> list[bytes]:
    """ASCII lines of the simulate CSV t,N,S[,D]: the header, row 0, then one entry per block of rows.

    The cells are those of `_fmt`: each float cell is the bytes of `%.17g`
    and each int cell those of `%d`. `_csvfmt.rows` writes a block's cells
    for whole columns at once with exact integer arithmetic. A block holding
    a float that it does not cover (0, -0.0, |x| < 1e-4, |x| >= 1e17 or a
    non-finite value) goes through one `%` call per block instead, which is
    also the reference the kernel is tested against. Row 0 has no step, so
    its D cell is empty.
    """
    # imported here, so the other subcommands do not load the kernel and its tables
    from . import _csvfmt

    cols = (path.N, path.S, path.D) if record_steps else (path.N, path.S)
    width = len(cols) + 1
    row = "%d,%d,%.17g,%.17g" if record_steps else "%d,%d,%.17g"
    lines = [
        b"t,N,S,D" if record_steps else b"t,N,S",
        (f"0,{int(path.N[0])},{_fmt(float(path.S[0]))}" + ("," if record_steps else "")).encode(),
    ]
    for start in range(1, path.t_max + 1, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, path.t_max + 1)
        block = [col[start:stop] for col in cols]
        text = _csvfmt.rows([np.arange(start, stop)] + block)
        if text is None:
            cells = [None] * ((stop - start) * width)
            cells[::width] = range(start, stop)
            for j, col in enumerate(block, start=1):
                cells[j::width] = col.tolist()
            text = ("\n".join([row] * (stop - start)) % tuple(cells)).encode()
        lines.append(text)
    return lines


def _segments_path(args, spec):
    if args.inject is not None:
        if (args.seed, args.t_max, args.noise_mode) != (None, None, None):
            raise ModelValidationError("path_source", "--inject makes a noise-free path as long as "
                                       "the input; it takes no --seed, --t-max or --noise-mode")
        values = np.asarray(_floats(args.inject), dtype=np.float64)
        if spec.dim != 1:
            raise ModelValidationError(
                "inject_dimension", "--inject supports only 1-dimensional innovation models"
            )
        t_max = len(values) - spec.ma.reach
        if t_max < 1:
            raise ModelValidationError(
                "inject_length",
                f"injected sequence too short for the MA support (needs > {spec.ma.reach})",
            )
        cfg = PathConfig(t_max=t_max, seed=0, noise_mode="off")
        return simulate(spec, cfg, injected_innovations=values)
    if args.seed is None or args.t_max is None:
        raise ModelValidationError(
            "path_source", "segments needs either --inject or both --seed and --t-max"
        )
    cfg = PathConfig(t_max=args.t_max, seed=args.seed, noise_mode=args.noise_mode)
    return simulate(spec, cfg)


def _cmd_segments(args) -> int:
    spec, digest = load_model(args.model)
    tset = _threshold_set(args)
    if args.r is not None and args.r < 1:
        raise ModelValidationError("segment_length", f"--r must be at least 1, got {args.r}")
    path = _segments_path(args, spec)
    horizon = args.t if args.t is not None else path.t_max
    if not 1 <= horizon <= path.t_max:
        raise ModelValidationError("horizon", f"--t {horizon} outside 1..{path.t_max}")
    lines = ["statistic,value,k,l"]
    rep = r_stat(path, tset, horizon)
    k, l = rep.witness if rep.witness else (None, None)
    lines.append(f"R,{_fmt(rep.value)},{_fmt(k)},{_fmt(l)}")
    if args.r is not None:
        rep = t_stat(path, tset, args.r)
        k, l = rep.witness if rep.witness else (None, None)
        lines.append(f"T,{_fmt(rep.value)},{_fmt(k)},{_fmt(l)}")
    _emit(args, args.seed, digest, lines, None)
    return 0


def _cmd_verify_strong_law(args) -> int:
    spec, digest = load_model(args.model)
    cfg = StrongLawRun(
        spec=spec,
        c_p=args.cp,
        r_grid=tuple(args.r_grid),
        t_grid=tuple(args.t_grid),
        replicates=args.replicates,
        master_seed=args.seed,
        noise_mode=args.noise_mode,
        horizon_cap=args.horizon_cap,
        initial_horizon=args.initial_horizon,
    )
    bands = _bands(args.band, "R,LO,HI", _int, cfg.r_grid, "r")
    if args.trend is not None:
        far, near = (_on_grid(_int(p), cfg.r_grid, "trend")
                     for p in _check_fields(args.trend, "trend", "FAR,NEAR"))
    result = run_strong_law(cfg, workers=args.workers)
    checks = {}
    predicted = result.summary["predicted_rate"]
    for _, r, lo, hi in bands:
        med = result.summary["log_T_over_r"][str(r)]["median"]
        checks[f"median_band_r{r}"] = {
            "lo": lo, "hi": hi, "value": med, "pass": bool(lo <= med <= hi)
        }
    if args.trend is not None:
        med_far = result.summary["log_T_over_r"][str(far)]["median"]
        med_near = result.summary["log_T_over_r"][str(near)]["median"]
        checks[f"trend_r{near}_closer_than_r{far}"] = {
            "far": abs(med_far - predicted),
            "near": abs(med_near - predicted),
            "pass": bool(abs(med_near - predicted) < abs(med_far - predicted)),
        }
    if checks:
        result.summary["checks"] = checks
    cols = ("replicate", "statistic", "grid", "value", "normalized", "censored")
    _emit(args, args.seed, digest, _table(cols, result.rows), result.summary)
    return 0


def _cmd_verify_uldp(args) -> int:
    spec, digest = load_model(args.model)
    tset = _threshold_set(args)
    cfg = UldpRun(
        spec=spec,
        k_grid=tuple(_offset(p) for p in args.k_grid.split(",")),
        t=args.t,
        tset=tset,
        samples=args.samples,
        master_seed=args.seed,
        noise_mode=args.noise_mode,
    )
    bands = _bands(args.band, "K,PCT", _offset, cfg.k_grid, "offset")
    if bands:
        ctx = RateFunctionCtx(spec)
        for k_str, k, _ in bands:
            if set_rate(ctx, float(k), tset) == 0.0:  # the band is relative to the prediction
                raise ModelValidationError(
                    "band", f"--band names offset {k_str}, whose predicted exponent is 0 "
                    "(the set reaches the mean), so a relative band has no meaning"
                )
    result = run_uldp(cfg, workers=args.workers)
    checks = {"exponents_nondecreasing_in_k": {
        "pass": bool(result.summary["exponents_nondecreasing_in_k"])
    }}
    for k_str, k, pct in bands:
        row = result.summary["per_k"][str(float(k))]
        rel = abs(row["exponent"] - row["predicted"]) / row["predicted"]
        checks[f"exponent_band_k{k_str}"] = {
            "tolerance_pct": pct,
            "relative_error": rel,
            "pass": bool(rel <= pct / 100.0),
        }
    result.summary["checks"] = checks
    cols = ("k", "t", "samples", "successes", "p_hat", "se", "exponent",
            "exponent_is_lower_bound", "predicted")
    _emit(args, args.seed, digest, _table(cols, result.rows), result.summary)
    return 0


def _cmd_plan(args) -> int:
    spec, digest = load_model(args.model)
    plan = sla_plan(spec, r_target=args.r_target, horizon=args.horizon)
    _emit(args, None, digest, None, plan)
    return 0


def _argv_text(value) -> str:
    """One recorded config value as flag text: a list joined by commas, else ``str``."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def _replay_args(sub: str, config: dict, out) -> argparse.Namespace:
    """Parse a manifest's ``config`` again as ``sub``'s argv, with the parser's types and choices.

    The argv is rebuilt from the subparser's actions. A value outside an
    action's choices is refused under that action's name (as ``noise_mode``
    for a noise mode a run would refuse); anything that does not parse, or
    parses to anything but the recorded config, is refused as ``replay_config``.
    """
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if sub not in subparsers.choices:
        raise ModelValidationError("replay_config", f"the manifest names no subcommand {sub!r}")
    argv = [sub]
    for action in subparsers.choices[sub]._actions:
        value = config.get(action.dest)
        if not action.option_strings or action.dest == "out" or value is None:
            continue
        flag = action.option_strings[0]
        if action.choices is not None and value not in action.choices:
            raise ModelValidationError(
                action.dest, f"the manifest records {action.dest}={value!r}, "
                f"which is not one of {tuple(action.choices)}"
            )
        if action.nargs == 0:  # a store_true flag
            argv += [flag] if value else []
        elif isinstance(action, argparse._AppendAction):
            argv += [f"{flag}={_argv_text(v)}" for v in (value if isinstance(value, list) else [value])]
        else:
            argv.append(f"{flag}={_argv_text(value)}")
    try:
        replay_args = parser.parse_args(argv)
    except ModelValidationError as exc:
        raise ModelValidationError(
            "replay_config", f"the manifest config does not parse as {sub}: {exc}"
        ) from None
    if _manifest_config(replay_args) != config:
        raise ModelValidationError(
            "replay_config", f"the manifest config is not what {sub} parses its values to"
        )
    replay_args.out = out
    return replay_args


def _cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    sub = manifest["subcommand"]
    if sub == "replay":
        raise ModelValidationError("replay_of_replay", "manifests of replay runs are not replayable")
    config = dict(manifest["config"])
    model_path = config.get("model")
    if model_path is not None and manifest.get("input_digest") is not None:
        digest = hashlib.sha256(Path(model_path).read_bytes()).hexdigest()
        if digest != manifest["input_digest"]:
            raise ModelValidationError(
                "input_digest_mismatch",
                f"model document {model_path} no longer matches the manifest digest",
            )
    replay_args = _replay_args(sub, config, args.out)
    return _DISPATCH[sub](replay_args)


_DISPATCH = {
    "rate": _cmd_rate,
    "simulate": _cmd_simulate,
    "segments": _cmd_segments,
    "verify-strong-law": _cmd_verify_strong_law,
    "verify-uldp": _cmd_verify_uldp,
    "plan": _cmd_plan,
    "replay": _cmd_replay,
}


@functools.cache
def build_parser() -> _Parser:
    """Return the shared process-wide parser, built on the first call.

    Parsing keeps no state on the parser: list defaults are strings that
    argparse converts afresh on every parse, and the ``append`` flags start
    from ``None``, so ``main`` can reuse it for any number of calls.
    """
    parser = _Parser(prog="strange-segments",
                     description="Workload rate functions and long deviant segment statistics")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def add_common(p):
        p.add_argument("--model", required=True, help="path to the model JSON document")
        p.add_argument("--out", default=None,
                       help="output prefix; writes PREFIX.csv / PREFIX.summary.json / "
                            "PREFIX.manifest.json (default: stdout)")

    def add_noise_mode(p):
        p.add_argument("--noise-mode", choices=_NOISE_MODES, default=None,
                       help="idiosyncratic noise: aggregate (one exact-law draw per sum) or off "
                            "(default: aggregate when the model has a noise law)")

    def add_set(p):
        p.add_argument("--set", choices=_SET_KINDS, required=True, help="threshold set kind")
        p.add_argument("--a", type=_finite_float, required=True,
                       help="threshold (lower endpoint for interval)")
        p.add_argument("--b", type=_finite_float, default=None,
                       help="upper endpoint (interval sets only)")

    p = sub.add_parser("rate", help="evaluate Fenchel-Legendre transforms of the rate curves")
    add_common(p)
    p.add_argument("--x", type=_floats, required=True, help="comma-separated x values to transform")
    p.add_argument("--k", type=_floats, default=None,
                   help="comma-separated window offsets k; omit for the limit curve only")
    p.add_argument("--limit", action="store_true",
                   help="also emit the limit curve when --k is given")
    p.add_argument("--quad-tol", type=_finite_float, default=1e-10,
                   help="quadrature error target, relative to the estimate above 1")
    p.add_argument("--root-tol", type=_finite_float, default=1e-12, help="Legendre root tolerance")

    p = sub.add_parser("simulate", help="simulate a workload-deviation path and write t,N,S[,D]")
    add_common(p)
    p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    p.add_argument("--t-max", type=int, required=True, help="path horizon (steps)")
    add_noise_mode(p)
    p.add_argument("--record-steps", action="store_true", help="also emit per-step deviations D")

    p = sub.add_parser("segments", help="long deviant segment statistics R_t and T_r on one path")
    add_common(p)
    add_set(p)
    p.add_argument("--r", type=int, default=None, help="segment length for the T statistic")
    p.add_argument("--t", type=int, default=None, help="horizon for the R statistic (default t-max)")
    p.add_argument("--inject", default=None,
                   help="comma-separated innovation values; bypasses the sampler")
    p.add_argument("--seed", type=int, default=None, help="64-bit master seed (when not injecting)")
    p.add_argument("--t-max", type=int, default=None, help="path horizon (when not injecting)")
    add_noise_mode(p)

    p = sub.add_parser("verify-strong-law",
                       help="Monte Carlo check of the growth law for T_r and R_t")
    add_common(p)
    p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    p.add_argument("--cp", type=_finite_float, required=True, help="capacity threshold C_p (above the mean)")
    p.add_argument("--replicates", type=int, default=50, help="number of independent replicates")
    p.add_argument("--r-grid", type=_ints, default="6,8,10,12,14",
                   help="comma-separated segment lengths r")
    p.add_argument("--t-grid", type=_ints, default="100,1000",
                   help="comma-separated horizons t for R_t")
    add_noise_mode(p)
    p.add_argument("--horizon-cap", type=int, default=10_000_000,
                   help="largest horizon a replicate's path grows to")
    p.add_argument("--initial-horizon", type=int, default=None,
                   help="horizon where each replicate's path starts, before it grows by an eighth "
                        "(>= 1; raised to the largest t-grid entry, lowered to the cap); sets the "
                        "run time, not the results")
    p.add_argument("--workers", type=int, default=1, help="parallel replicate workers")
    p.add_argument("--band", action="append", default=None, metavar="R,LO,HI",
                   help="check that the median of log T_r / r lies in [LO, HI] (repeatable)")
    p.add_argument("--trend", default=None, metavar="FAR,NEAR",
                   help="check that the median at r=NEAR is closer to the prediction than at r=FAR")

    p = sub.add_parser("verify-uldp",
                       help="Monte Carlo check of window tail exponents against the rate curves")
    add_common(p)
    p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    p.add_argument("--t", type=int, required=True, help="window length in steps")
    p.add_argument("--k-grid", default="0", help="comma-separated window offsets k")
    p.add_argument("--samples", type=int, required=True, help="window samples per offset")
    add_set(p)
    add_noise_mode(p)
    p.add_argument("--workers", type=int, default=1, help="parallel sample-chunk workers")
    p.add_argument("--band", action="append", default=None, metavar="K,PCT",
                   help="check the offset-K exponent is within PCT percent of prediction (repeatable)")

    p = sub.add_parser("plan", help="invert the growth law into a capacity headroom plan")
    add_common(p)
    p.add_argument("--r-target", type=int, required=True,
                   help="longest tolerable deviant segment length")
    p.add_argument("--horizon", type=int, required=True,
                   help="planning horizon (steps) by which the guarantee should hold")

    p = sub.add_parser("replay", help="re-run a manifest and reproduce its outputs byte-for-byte")
    p.add_argument("--manifest", required=True, help="path to a run manifest JSON")
    p.add_argument("--out", default=None, help="output prefix for the replayed run")

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "message": str(exc)}
    invariant = getattr(exc, "invariant", None)
    if invariant is not None:
        record["invariant"] = invariant
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    level = os.environ.get("STRANGE_SEGMENTS_LOG")
    if level:
        logging.basicConfig(level=level.upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.subcommand](args)
    except ModelValidationError as exc:
        _emit_error("validation", exc)
        return 1
    except NumericalError as exc:
        _emit_error("numerical", exc)
        return 2
    except ValueError as exc:
        _emit_error("validation", exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
