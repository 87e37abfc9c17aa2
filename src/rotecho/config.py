"""Run configuration: one INI file fully describes one run.

Sections: [molecule] (preset name and/or explicit constants), [pulses]
(kicks, delay, shape), [solver] (numerical knobs), and optionally
[scan] and [beam] for the scanning front end.  Unknown sections or keys
are rejected rather than ignored, so typos surface as errors with the
offending section and key named.  Delays may be given in picoseconds
or as fractions of the revival period, whichever reads better.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .basis import MoleculeSpec, revival_period
from .echo import dtau_grid
from .errors import ConfigError
from .focal import BeamGeometry
from .propagate import ExperimentConfig, SolverOptions, two_pulse_config

_SECTION_KEYS = {
    "molecule": {
        "preset",
        "name",
        "b_cm",
        "delta_alpha",
        "temperature_k",
        "weight_even",
        "weight_odd",
    },
    "pulses": {
        "p1_kick",
        "p2_kick",
        "dtau_ps",
        "dtau_frac",
        "shape",
        "duration_fwhm_ps",
    },
    "solver": {
        "jmax",
        "substeps",
        "truncation_tol",
        "dt_sample_ps",
        "t_end_ps",
    },
    "scan": {
        "axis",
        "start",
        "stop",
        "count",
        "units",
        "window_halfwidth_ps",
        "isolate",
        "averaged",
        "exclude_quarters",
        "p2_max",
    },
    "beam": {"pump_waist_um", "probe_waist_um", "n_shells"},
}


def _fail(section: str, key: str | None, message: str) -> ConfigError:
    where = f"[{section}]" if key is None else f"[{section}] {key}"
    return ConfigError(f"{where}: {message}")


def _get(section, name: str, key: str, cast, default=None, required=False):
    if key not in section:
        if required:
            raise _fail(name, key, "required key is missing")
        return default
    raw = section[key]
    try:
        if cast is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return cast(raw)
    except ValueError as exc:
        raise _fail(name, key, str(exc)) from None


def available_presets() -> list[str]:
    """Names of the molecule presets shipped with the package."""
    root = resources.files("rotecho") / "presets"
    return sorted(
        p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg")
    )


def _molecule_from_section(section, name: str) -> MoleculeSpec:
    spec = None
    if "preset" in section:
        spec = molecule_preset(section["preset"].strip())
    fields = {
        "b_cm": float,
        "delta_alpha": float,
        "temperature_k": float,
        "weight_even": float,
        "weight_odd": float,
        "name": str,
    }
    overrides = {
        key: _get(section, name, key, cast)
        for key, cast in fields.items()
        if key in section
    }
    if spec is None:
        if "b_cm" not in overrides:
            raise _fail(name, None, "need a preset or at least b_cm")
        try:
            return MoleculeSpec(**overrides)
        except ValueError as exc:
            raise _fail(name, None, str(exc)) from None
    if overrides:
        from dataclasses import replace

        try:
            return replace(spec, **overrides)
        except ValueError as exc:
            raise _fail(name, None, str(exc)) from None
    return spec


def molecule_preset(preset: str) -> MoleculeSpec:
    """Load a packaged molecule preset by name."""
    path = resources.files("rotecho") / "presets" / f"{preset}.cfg"
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        raise ConfigError(
            f"unknown molecule preset {preset!r}; available: "
            + ", ".join(available_presets())
        ) from None
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read_string(text, source=f"preset {preset}")
    if not parser.has_section("molecule"):
        raise ConfigError(f"preset {preset!r} lacks a [molecule] section")
    return _molecule_from_section(parser["molecule"], f"preset {preset}")


@dataclass(frozen=True)
class ScanSettings:
    """What to sweep and how to read each point."""

    axis: str
    start: float
    stop: float
    count: int
    units: str
    window_halfwidth: float | None
    isolate: bool
    averaged: bool
    exclude_quarters: bool
    p2_max: float


@dataclass(frozen=True)
class RunSettings:
    """Everything a run needs, as parsed from one config file."""

    molecule: MoleculeSpec
    p1_kick: float
    p2_kick: float
    dtau: float
    shape: str
    duration_fwhm: float
    j_max: int | None
    dt_sample: float | None
    t_end: float | None
    solver: SolverOptions
    scan: ScanSettings | None
    beam: BeamGeometry | None

    def experiment(self) -> ExperimentConfig:
        """Two-pulse configuration for these settings."""
        return two_pulse_config(
            self.molecule,
            self.p1_kick,
            self.p2_kick,
            self.dtau,
            shape=self.shape,
            duration_fwhm=self.duration_fwhm,
            t_end=self.t_end,
            dt_sample=self.dt_sample,
            j_max=self.j_max,
            solver=self.solver,
        )

    def scan_grid(self) -> list[float]:
        """The scan grid in engine units (ps for delays, kick for p2)."""
        scan = self.scan
        if scan is None:
            raise ConfigError("this command needs a [scan] section")
        if scan.count < 2 and scan.start != scan.stop:
            raise _fail("scan", "count", "need at least 2 points to span a range")
        if scan.axis == "p2":
            step = (scan.stop - scan.start) / max(scan.count - 1, 1)
            return [scan.start + i * step for i in range(scan.count)]
        t_rev = revival_period(self.molecule)
        factor = t_rev if scan.units == "trev" else 1.0
        lo, hi = scan.start * factor, scan.stop * factor
        if scan.exclude_quarters:
            try:
                grid = dtau_grid(self.molecule, lo, hi, scan.count)
            except ValueError as exc:
                raise _fail("scan", None, str(exc)) from None
            return [float(v) for v in grid]
        step = (hi - lo) / max(scan.count - 1, 1)
        return [lo + i * step for i in range(scan.count)]


def load_config(path: str) -> RunSettings:
    """Parse and validate one run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        # parser errors already carry file and line information
        raise ConfigError(str(exc)) from None

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        stray = set(parser[section]) - _SECTION_KEYS[section]
        if stray:
            raise _fail(section, sorted(stray)[0], "unknown key")

    if not parser.has_section("molecule"):
        raise ConfigError(f"{path}: missing [molecule] section")
    molecule = _molecule_from_section(parser["molecule"], "molecule")

    if not parser.has_section("pulses"):
        raise ConfigError(f"{path}: missing [pulses] section")
    pulses = parser["pulses"]
    p1_kick = _get(pulses, "pulses", "p1_kick", float, required=True)
    p2_kick = _get(pulses, "pulses", "p2_kick", float, default=0.0)
    shape = _get(pulses, "pulses", "shape", str, default="impulsive").strip()
    duration = _get(pulses, "pulses", "duration_fwhm_ps", float, default=0.1)
    if p1_kick < 0.0 or p2_kick < 0.0:
        raise _fail("pulses", None, "kick strengths must be non-negative")
    if shape not in ("impulsive", "gaussian"):
        raise _fail("pulses", "shape", f"must be impulsive or gaussian, got {shape!r}")

    dtau_ps = _get(pulses, "pulses", "dtau_ps", float)
    dtau_frac = _get(pulses, "pulses", "dtau_frac", float)
    if dtau_ps is not None and dtau_frac is not None:
        raise _fail("pulses", None, "give dtau_ps or dtau_frac, not both")

    solver_kw = {}
    j_max = dt_sample = t_end = None
    if parser.has_section("solver"):
        solver = parser["solver"]
        j_max = _get(solver, "solver", "jmax", int)
        dt_sample = _get(solver, "solver", "dt_sample_ps", float)
        t_end = _get(solver, "solver", "t_end_ps", float)
        substeps = _get(solver, "solver", "substeps", int)
        tol = _get(solver, "solver", "truncation_tol", float)
        if substeps is not None:
            solver_kw["substeps"] = substeps
        if tol is not None:
            solver_kw["truncation_tol"] = tol
    try:
        solver_opts = SolverOptions(**solver_kw)
    except ValueError as exc:
        raise _fail("solver", None, str(exc)) from None

    scan = None
    if parser.has_section("scan"):
        sec = parser["scan"]
        axis = _get(sec, "scan", "axis", str, required=True).strip()
        if axis not in ("dtau", "p2"):
            raise _fail("scan", "axis", f"must be dtau or p2, got {axis!r}")
        units = _get(sec, "scan", "units", str, default="trev").strip()
        if axis == "dtau" and units not in ("trev", "ps"):
            raise _fail("scan", "units", f"must be trev or ps, got {units!r}")
        count = _get(sec, "scan", "count", int, required=True)
        if count < 1:
            raise _fail("scan", "count", "must be a positive integer")
        scan = ScanSettings(
            axis=axis,
            start=_get(sec, "scan", "start", float, required=True),
            stop=_get(sec, "scan", "stop", float, required=True),
            count=count,
            units=units,
            window_halfwidth=_get(sec, "scan", "window_halfwidth_ps", float),
            isolate=_get(sec, "scan", "isolate", bool, default=True),
            averaged=_get(sec, "scan", "averaged", bool, default=False),
            exclude_quarters=_get(sec, "scan", "exclude_quarters", bool, default=False),
            p2_max=_get(sec, "scan", "p2_max", float, default=8.0),
        )

    beam = None
    if parser.has_section("beam"):
        sec = parser["beam"]
        try:
            beam = BeamGeometry(
                pump_waist=_get(sec, "beam", "pump_waist_um", float, required=True),
                probe_waist=_get(sec, "beam", "probe_waist_um", float, required=True),
                n_shells=_get(sec, "beam", "n_shells", int, default=8),
            )
        except ValueError as exc:
            raise _fail("beam", None, str(exc)) from None
    if scan is not None and scan.averaged:
        if beam is None:
            raise ConfigError("averaged scans need a [beam] section")
        if scan.axis != "p2":
            raise _fail("scan", "averaged", "averaging is defined for p2 scans")

    t_rev = revival_period(molecule)
    if dtau_ps is not None:
        dtau = dtau_ps
    elif dtau_frac is not None:
        dtau = dtau_frac * t_rev
    elif scan is not None and scan.axis == "dtau":
        # delay comes from the grid; any valid placeholder works
        dtau = (scan.start if scan.units == "ps" else scan.start * t_rev) or t_rev / 8.0
    else:
        raise _fail("pulses", None, "need dtau_ps or dtau_frac")
    if dtau <= 0.0:
        raise _fail("pulses", None, "the pulse delay must be positive")

    return RunSettings(
        molecule=molecule,
        p1_kick=p1_kick,
        p2_kick=p2_kick,
        dtau=dtau,
        shape=shape,
        duration_fwhm=duration,
        j_max=j_max,
        dt_sample=dt_sample,
        t_end=t_end,
        solver=solver_opts,
        scan=scan,
        beam=beam,
    )
