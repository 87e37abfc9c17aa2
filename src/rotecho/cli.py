"""Command-line front end.

Five verbs: simulate (one two-pulse trace), scan (echo amplitude along
a delay or kick grid), opt (optimal second kick per delay), pathways
(interference bookkeeping tables), fit-decay (exponential fit to an
amplitude-versus-delay table).

Exit codes: 0 on success, 2 for configuration and validation problems,
3 when the numerics refuse (tolerance, window, bracket, or fit
failures).

The command string embedded in output headers is rebuilt from the
arguments that affect the data, deliberately omitting --out-dir and
--threads: a rerun into a different directory, or with a different
worker count, must reproduce the data files byte for byte.
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

from . import __version__, config, runio
from .basis import RotorBasis, revival_period
from .echo import (
    SearchParams,
    _point_config,
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
from .pathways import enumerate_pathways, pathway_table, predict_constructive_delays
from .propagate import run_two_pulse


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _common_flags(parser, *, config_required: bool = True) -> None:
    parser.add_argument(
        "--config", required=config_required, metavar="FILE",
        help="run configuration (INI)",
    )
    parser.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for output files (created if missing)",
    )
    parser.add_argument(
        "--jmax-override", type=int, default=None, metavar="J",
        help="force the rotational basis cutoff",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotecho",
        description="Alignment echoes in thermal ensembles of linear rotors.",
    )
    parser.add_argument(
        "--version", action="version", version=f"rotecho {__version__}"
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
    _common_flags(p, config_required=False)
    p.add_argument(
        "--preset", default="OCS",
        help="molecule preset when no --config is given (default OCS)",
    )
    p.add_argument(
        "--start", required=True, metavar="J[,J2]",
        help="start population(s), e.g. 4 or 4,6",
    )
    p.add_argument(
        "--target", required=True, metavar="JK,JB",
        help="target coherence as ket,bra, e.g. 6,4",
    )
    p.add_argument("--dtau-ps", type=float, default=None, help="pulse separation in ps")
    p.add_argument(
        "--dtau-frac", type=float, default=None,
        help="pulse separation as a fraction of the revival period",
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
    for flag in ("preset", "start", "target"):
        value = getattr(args, flag, None)
        if value is not None:
            parts += [f"--{flag}", str(value)]
    for flag in ("dtau_ps", "dtau_frac", "jmax_override"):
        value = getattr(args, flag, None)
        if value is not None:
            parts += [f"--{flag.replace('_', '-')}", runio.fmt(value)]
    return " ".join(parts)


def _load(args: argparse.Namespace):
    """The settings, config digest and experiment (--jmax-override applied)."""
    settings = config.load_config(args.config)
    digest = runio.config_digest(args.config)
    experiment = settings.experiment()
    if args.jmax_override is not None:
        experiment = replace(experiment, j_max=args.jmax_override)
    return settings, digest, experiment


def _finish(args, timings, digest, molecule, parameters, writers, notes=None) -> Path:
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
    runio.write_manifest(
        out / "manifest.json",
        command=meta["command"],
        parameters=parameters,
        config_sha256=digest,
        molecule="n/a" if molecule is None else molecule.name or "custom",
        outputs=list(writers),
        timings=timings,
        notes=notes,
    )
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    settings, digest, cfg = _load(args)
    t1 = time.perf_counter()
    trace = run_two_pulse(cfg)
    timings = {"setup": t1 - t0, "run": time.perf_counter() - t1}

    params = {
        "p1_kick": settings.p1_kick,
        "p2_kick": settings.p2_kick,
        "dtau_ps": settings.dtau,
        "shape": settings.shape,
        "duration_fwhm_ps": settings.duration_fwhm,
        "j_max": cfg.resolve_j_max(),
        "dt_sample_ps": cfg.dt_sample,
        "t_end_ps": cfg.t_end,
        **({"substeps": cfg.solver.substeps} if settings.shape == "gaussian" else {}),
    }
    out = _finish(args, timings, digest, settings.molecule, params,
                  {"trace.csv": (runio.write_trace_csv, trace)})
    print(f"wrote {out / 'trace.csv'} ({trace.times.size} samples)")
    return 0


def _scan_parameters(settings, resolved_jmax: int) -> dict:
    scan = settings.scan
    params = {
        "axis": scan.axis,
        "start": scan.start,
        "stop": scan.stop,
        "count": scan.count,
        "units": scan.units,
        "isolate": scan.isolate,
        "averaged": scan.averaged,
        "p1_kick": settings.p1_kick,
        "j_max": resolved_jmax,
    }
    if scan.window_halfwidth is not None:
        params["window_halfwidth_ps"] = scan.window_halfwidth
    if settings.shape == "gaussian":
        params["substeps"] = settings.solver.substeps
    if scan.axis == "p2":
        params["dtau_ps"] = settings.dtau
    else:
        params["p2_kick"] = settings.p2_kick
        params["exclude_quarters"] = scan.exclude_quarters
    if scan.averaged and settings.beam is not None:
        params["pump_waist_um"] = settings.beam.pump_waist
        params["probe_waist_um"] = settings.beam.probe_waist
        params["n_shells"] = settings.beam.n_shells
    return params


def _cmd_scan(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    settings, digest, base = _load(args)
    if settings.scan is None:
        raise ConfigError("the scan command needs a [scan] section in the config")
    scan = settings.scan
    grid = np.asarray(settings.scan_grid())
    # pin the grid-wide j_max the scan runs at, so the manifest reports it
    p1, p2, dtau = settings.p1_kick, settings.p2_kick, settings.dtau
    points = [(p1, p2, v) if scan.axis == "dtau" else (p1, v, dtau) for v in grid]
    base = replace(base, j_max=_scan_jmax(base, points))
    t1 = time.perf_counter()

    options = {
        "window_halfwidth": scan.window_halfwidth,
        "isolate": scan.isolate,
        "workers": args.threads,
    }
    if scan.axis == "dtau":
        curve = scan_dtau(grid, settings.p1_kick, settings.p2_kick, base, **options)
    elif scan.averaged:
        curve = averaged_scan_p2(
            grid, settings.p1_kick, settings.dtau, settings.beam, base, **options
        )
    else:
        curve = scan_p2(grid, settings.p1_kick, settings.dtau, base, **options)
    timings = {"setup": t1 - t0, "run": time.perf_counter() - t1}

    fit = curve.fit
    csv_name = f"scan_{scan.axis}.csv"
    writers = {csv_name: (partial(runio.write_curve_csv, averaged=scan.averaged), curve)}
    if fit is not None:
        writers["fit_sin2.json"] = (runio.write_fit_json, fit)
    # a failed sin2 fit is keyed by nan; every other failure is a point
    notes = [
        f"point {val:g}: {msg}" if math.isfinite(val) else msg
        for val, msg in curve.failures
    ]
    n_failed = sum(math.isfinite(val) for val, _ in curve.failures)
    params = _scan_parameters(settings, base.resolve_j_max())
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
    if settings.scan is None:
        raise ConfigError("the opt command needs a [scan] section in the config")
    if settings.scan.axis != "dtau":
        raise ConfigError("the opt command sweeps separation; set [scan] axis = dtau")
    scan = settings.scan
    grid = settings.scan_grid()
    search = SearchParams(p2_max=scan.p2_max)
    # one basis sized for the search ceiling, shared across all delays
    template = _point_config(base, settings.p1_kick, search.p2_max, grid[0])
    basis = RotorBasis(template.resolve_j_max())
    t1 = time.perf_counter()

    rows = []
    grown: dict[int, RotorBasis] = {}  # bases a bracket extension built, by j_max
    for dtau in grid:
        p2_opt, s_max = find_optimal_p2(
            dtau, settings.p1_kick, base, search,
            window_halfwidth=scan.window_halfwidth,
            isolate=scan.isolate,
            basis=basis,
            _grown=grown,
        )
        rows.append((dtau, p2_opt, s_max))
    timings = {"setup": t1 - t0, "run": time.perf_counter() - t1}

    params = _scan_parameters(settings, max([basis.j_max, *grown]))
    params["p2_max"] = search.p2_max
    out = _finish(args, timings, digest, settings.molecule, params,
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
    if args.dtau_ps is not None and args.dtau_frac is not None:
        raise ConfigError("give --dtau-ps or --dtau-frac, not both")
    digest = None
    if args.config:
        # the molecule and delay only: no experiment is built or checked
        settings = config.load_config(args.config)
        digest = runio.config_digest(args.config)
        molecule = settings.molecule
        default_dtau = settings.dtau
    else:
        molecule = config.molecule_preset(args.preset)
        default_dtau = 0.125 * revival_period(molecule)
    if args.dtau_ps is not None:
        dtau = args.dtau_ps
    elif args.dtau_frac is not None:
        dtau = args.dtau_frac * revival_period(molecule)
    else:
        dtau = default_dtau
    if dtau <= 0.0:
        raise ConfigError("the pulse separation must be positive")

    start_levels = _parse_levels(args.start, "--start")
    target = _parse_levels(args.target, "--target")
    if len(target) != 2:
        raise ConfigError(f"--target needs exactly two J values, got {args.target!r}")
    start = start_levels[0] if len(start_levels) == 1 else tuple(start_levels)

    paths = enumerate_pathways(start, (target[0], target[1]), j_max=args.jmax_override)
    timings = {"run": time.perf_counter() - t0}

    params = {
        "start": args.start,
        "target": args.target,
        "dtau_ps": dtau,
        "n_pathways": len(paths),
        "j_max": args.jmax_override,
    }
    table = pathway_table(paths, dtau, molecule, fmt="csv")
    _finish(args, timings, digest, molecule, params,
            {"pathways.csv": (runio.write_pathways_csv, table)})
    print(pathway_table(paths, dtau, molecule, fmt="text"))
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


if __name__ == "__main__":
    sys.exit(main())
