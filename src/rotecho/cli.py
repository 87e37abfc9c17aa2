"""Command-line front end.

Five verbs: simulate (one two-pulse trace), scan (echo amplitude along
a delay or kick grid), opt (optimal second kick per delay), pathways
(interference bookkeeping tables), fit-decay (exponential fit to an
amplitude-versus-delay table).

Exit codes: 0 on success, 2 for configuration and validation problems,
3 when the numerics refuse (tolerance, window, bracket, or fit
failures).

The command string embedded in output headers names the config or input
file, plus pathways' --start and --target, and deliberately omits
--out-dir and --threads: a rerun into a different directory, or with a
different worker count, must reproduce the data files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import config, runio
from .echo import (
    SearchParams,
    _scan_jmax,
    find_optimal_p2,
    fit_decay,
    scan_dtau,
    scan_p2,
)
from .errors import (
    BracketError,
    ConfigError,
    FitError,
    ToleranceError,
    WindowError,
)
from .focal import averaged_scan_p2
from .pathways import _pathway_rows, enumerate_pathways, pathway_table, predict_constructive_delays
from .propagate import run_two_pulse


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _common_flags(parser) -> None:
    parser.add_argument(
        "--config", required=True, metavar="FILE",
        help="run configuration (INI)",
    )
    parser.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for output files (created if missing)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotecho",
        description="Alignment echoes in thermal ensembles of linear rotors.",
    )
    parser.add_argument(
        "--version", action="version", version=runio.ENGINE
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run one two-pulse trace")
    _common_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("scan", help="echo amplitude along the configured grid")
    _common_flags(p)
    p.add_argument(
        "--threads", type=_positive_int, default=1, metavar="N",
        help="worker processes for scan points",
    )
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("opt", help="optimal second kick at each separation")
    _common_flags(p)
    p.set_defaults(handler=_cmd_opt)

    p = sub.add_parser("pathways", help="interference bookkeeping for one coherence")
    _common_flags(p)
    p.add_argument(
        "--start", required=True, metavar="J[,J2]",
        help="start population(s), e.g. 4 or 4,6",
    )
    p.add_argument(
        "--target", required=True, metavar="JK,JB",
        help="target coherence as ket,bra, e.g. 6,4",
    )
    p.set_defaults(handler=_cmd_pathways)

    p = sub.add_parser("fit-decay", help="exponential fit to amplitude vs separation")
    p.add_argument(
        "--input", required=True, metavar="CSV",
        help="table with dtau_ps and s_echo_max (or s_echo) columns",
    )
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.set_defaults(handler=_cmd_fit_decay)

    return parser


def _canonical_command(args: argparse.Namespace) -> str:
    """The data-affecting part of the invocation, for output headers."""
    parts = ["rotecho", args.verb]
    if getattr(args, "config", None):
        parts += ["--config", Path(args.config).name]
    if getattr(args, "input", None):
        parts += ["--input", Path(args.input).name]
    for flag in ("start", "target"):
        value = getattr(args, flag, None)
        if value is not None:
            parts += [f"--{flag}", str(value)]
    return " ".join(parts)


def _load(args: argparse.Namespace):
    """The settings, config digest and experiment."""
    settings = config.load_config(args.config)
    return settings, runio.config_digest(args.config), settings.experiment()


def _finish(args, timings, digest, molecule, parameters, writers, notes=()) -> Path:
    """Write a verb's data files and its manifest into --out-dir, and return it.

    ``writers`` maps each data file's name to a (runio writer, data) pair;
    their time goes into ``timings`` as ``write``.  A run without a
    molecule (``None``) is labelled n/a.
    """
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": digest, "command": _canonical_command(args)}
    t0 = time.perf_counter()
    for name, (write, data) in writers.items():
        write(out / name, data, meta)
    timings["write"] = time.perf_counter() - t0
    runio.write_manifest(out / "manifest.json", runio.RunManifest(
        command=meta["command"],
        parameters=parameters,
        config_sha256=digest,
        molecule="n/a" if molecule is None else molecule.name or "custom",
        outputs=tuple(writers),
        timings_s=timings,
        notes=tuple(notes),
        engine=runio.ENGINE,
    ))
    return out


def _parameters(settings, j_max, dtau=None, **resolved) -> dict:
    """A run's manifest parameters: every config key as read, then what the
    run resolved: its j_max, its one delay (a scan over delays has none),
    the pulse mesh of a gaussian run, and the verb's own values."""
    params = {**settings.values, "j_max": j_max}
    if dtau is not None:
        params["dtau_ps"] = dtau
    if settings.values["shape"] == "gaussian":
        params["substeps"] = settings.solver.substeps
    return {**params, **resolved}


def _cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    settings, digest, cfg = _load(args)
    t1 = time.perf_counter()
    trace = run_two_pulse(cfg)
    timings = {"setup": t1 - t0, "run": time.perf_counter() - t1}

    params = _parameters(settings, cfg.resolve_j_max(), settings.dtau,
                         dt_sample_ps=cfg.dt_sample, t_end_ps=cfg.t_end)
    out = _finish(args, timings, digest, settings.molecule, params,
                  {"trace.csv": (runio.write_trace_csv, trace)})
    print(f"wrote {out / 'trace.csv'} ({trace.times.size} samples)")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    settings, digest, base = _load(args)
    grid = np.asarray(settings.scan_grid())
    values = settings.values
    axis, averaged = values["axis"], values["averaged"]
    # pin the grid-wide j_max the scan runs at, so the manifest reports it
    p1, p2, dtau = values["p1_kick"], values["p2_kick"], settings.dtau
    points = [(p1, p2, v) if axis == "dtau" else (p1, v, dtau) for v in grid]
    base = replace(base, j_max=_scan_jmax(base, points))
    t1 = time.perf_counter()

    options = {"window_halfwidth": values.get("window_halfwidth_ps"), "workers": args.threads}
    if axis == "dtau":
        curve = scan_dtau(grid, p1, p2, base, **options)
    elif averaged:
        curve = averaged_scan_p2(grid, p1, dtau, settings.beam, base, **options)
    else:
        curve = scan_p2(grid, p1, dtau, base, **options)
    timings = {"setup": t1 - t0, "run": time.perf_counter() - t1}

    fit = curve.fit
    csv_name = f"scan_{axis}.csv"
    writers = {csv_name: (partial(runio.write_curve_csv, averaged=averaged), curve)}
    if fit is not None:
        writers["fit_sin2.json"] = (runio.write_fit_json, fit)
    # a failed sin2 fit is keyed by nan; every other failure is a point
    notes = [
        f"point {val:g}: {msg}" if math.isfinite(val) else msg
        for val, msg in curve.failures
    ]
    n_failed = sum(math.isfinite(val) for val, _ in curve.failures)
    params = _parameters(settings, base.resolve_j_max(), dtau if axis == "p2" else None)
    out = _finish(args, timings, digest, settings.molecule, params, writers, notes)
    line = f"wrote {out / csv_name}: {len(curve)} points"
    if n_failed:
        line += f", {n_failed} failed"
    if fit is not None:
        line += f"; sin2 fit a={fit.a:.4g} b={fit.b:.4g} residual={fit.residual:.3g}"
    print(line)
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    settings, digest, base = _load(args)
    grid = settings.scan_grid()
    values = settings.values
    if values["axis"] != "dtau":
        raise ConfigError("the opt command sweeps separation; set [scan] axis = dtau")
    search = SearchParams(p2_max=values["p2_max"])
    t1 = time.perf_counter()

    rows = []
    bases: dict = {}  # every basis the searches build, by j_max, shared across delays
    for dtau in grid:
        p2_opt, s_max = find_optimal_p2(
            dtau, values["p1_kick"], base, search,
            window_halfwidth=values.get("window_halfwidth_ps"),
            _bases=bases,
        )
        rows.append((dtau, p2_opt, s_max))
    timings = {"setup": t1 - t0, "run": time.perf_counter() - t1}

    out = _finish(args, timings, digest, settings.molecule, _parameters(settings, max(bases)),
                  {"optimal_p2.csv": (runio.write_opt_csv, rows)})
    print(f"wrote {out / 'optimal_p2.csv'}: {len(rows)} rows")
    return 0


def _parse_levels(text: str, what: str) -> list[int]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}") from None
    if not values or any(j < 0 for j in values):
        raise ConfigError(f"{what} needs non-negative J values, got {text!r}")
    return values


def _cmd_pathways(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    # the molecule, delay and J cutoff only: no experiment is built or checked
    settings = config.load_config(args.config)
    digest = runio.config_digest(args.config)
    molecule, dtau, j_max = settings.molecule, settings.dtau, settings.values.get("jmax")

    start_levels = _parse_levels(args.start, "--start")
    target = _parse_levels(args.target, "--target")
    if len(target) != 2:
        raise ConfigError(f"--target needs exactly two J values, got {args.target!r}")
    start = start_levels[0] if len(start_levels) == 1 else tuple(start_levels)

    paths = enumerate_pathways(start, (target[0], target[1]), j_max=j_max)
    timings = {"run": time.perf_counter() - t0}

    params = _parameters(settings, j_max, dtau, start=args.start,
                         target=args.target, n_pathways=len(paths))
    _finish(args, timings, digest, molecule, params,
            {"pathways.csv": (runio.write_pathways_csv, _pathway_rows(paths, dtau, molecule))})
    print(pathway_table(paths, dtau, molecule))
    delays = predict_constructive_delays(molecule, 3)
    print(
        f"{len(paths)} sequences at dtau = {dtau:.4f} ps; "
        "first constructive separations: "
        + ", ".join(f"{d:.2f}" for d in delays)
        + " ps"
    )
    return 0


def _cmd_fit_decay(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    pairs = runio.read_decay_table(args.input)
    fit = fit_decay(pairs)
    timings = {"run": time.perf_counter() - t0}

    params = {"input": Path(args.input).name, "n_points": len(pairs)}
    _finish(args, timings, runio.config_digest(args.input), None, params,
            {"decay_fit.json": (runio.write_fit_json, fit)})
    line = (
        f"rate = {fit.rate:.6g} per ps of echo time, "
        f"amplitude = {fit.amplitude:.6g}, residual = {fit.residual:.3g}"
    )
    if fit.negative:
        line += " (negative rate: amplitude grows over this range)"
    print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"rotecho: config error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceError, WindowError, BracketError, FitError) as exc:
        print(f"rotecho: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # engine precondition violations are configuration mistakes
        print(f"rotecho: invalid parameter: {exc}", file=sys.stderr)
        return 2

