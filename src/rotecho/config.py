"""Run configuration: one INI file fully describes one run.

Sections: [molecule] (preset name and/or explicit constants), [pulses]
(kicks, delay, shape), [solver] (numerical knobs), and optionally
[scan] and [beam] for the scanning front end.  One table, ``_KEYS``,
gives every key its type and default.  Unknown sections or keys, in a
run config or a packaged preset, are rejected rather than ignored, so
typos surface as errors with the offending section and key named.
Delays may be given in picoseconds or as fractions of the revival
period, whichever reads better.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from importlib import resources

from .basis import MoleculeSpec, revival_period
from .echo import dtau_grid
from .errors import ConfigError
from .focal import BeamGeometry
from .propagate import ExperimentConfig, SolverOptions, two_pulse_config

_REQUIRED = object()  # marks a key that has no default


def _boolean(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# section -> key -> (type, default or _REQUIRED), keys in reading order.
# str.strip reads a word; a None default leaves an absent key to the
# engine's own default.
_KEYS = {
    "molecule": {
        "preset": (str.strip, None),
        "b_cm": (float, None),
        "delta_alpha": (float, None),
        "temperature_k": (float, None),
        "weight_even": (float, None),
        "weight_odd": (float, None),
        "name": (str, None),
    },
    "pulses": {
        "p1_kick": (float, _REQUIRED),
        "p2_kick": (float, 0.0),
        "shape": (str.strip, "impulsive"),
        "duration_fwhm_ps": (float, 0.1),
        "dtau_ps": (float, None),
        "dtau_frac": (float, None),
    },
    "solver": {
        "jmax": (int, None),
        "dt_sample_ps": (float, None),
        "t_end_ps": (float, None),
        "substeps": (int, None),
        "truncation_tol": (float, None),
    },
    "scan": {
        "axis": (str.strip, _REQUIRED),
        "units": (str.strip, "trev"),
        "count": (int, _REQUIRED),
        "start": (float, _REQUIRED),
        "stop": (float, _REQUIRED),
        "window_halfwidth_ps": (float, None),
        "isolate": (_boolean, True),
        "averaged": (_boolean, False),
        "exclude_quarters": (_boolean, False),
        "p2_max": (float, 8.0),
    },
    "beam": {
        "pump_waist_um": (float, _REQUIRED),
        "probe_waist_um": (float, _REQUIRED),
        "n_shells": (int, 8),
    },
}


def _fail(section: str, key: str | None, message: str) -> ConfigError:
    where = f"[{section}]" if key is None else f"[{section}] {key}"
    return ConfigError(f"{where}: {message}")


def _read(section, name: str, keys: dict) -> dict:
    """Typed values of one present section, every key of ``keys`` filled."""
    stray = sorted(set(section) - set(keys))
    if stray:
        raise _fail(name, stray[0], "unknown key")
    values = {}
    for key, (cast, default) in keys.items():
        if key not in section:
            if default is _REQUIRED:
                raise _fail(name, key, "required key is missing")
            values[key] = default
            continue
        try:
            values[key] = cast(section[key])
        except ValueError as exc:
            raise _fail(name, key, str(exc)) from None
    return values


def available_presets() -> list[str]:
    """Names of the molecule presets shipped with the package."""
    root = resources.files("rotecho") / "presets"
    return sorted(
        p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg")
    )


def _molecule_from_section(values: dict, name: str) -> MoleculeSpec:
    overrides = {k: v for k, v in values.items() if k != "preset" and v is not None}
    if values["preset"] is None and "b_cm" not in overrides:
        raise _fail(name, None, "need a preset or at least b_cm")
    spec = None if values["preset"] is None else molecule_preset(values["preset"])
    try:
        return MoleculeSpec(**overrides) if spec is None else replace(spec, **overrides)
    except ValueError as exc:
        raise _fail(name, None, str(exc)) from None


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
    name = f"preset {preset}"
    return _molecule_from_section(_read(parser["molecule"], name, _KEYS["molecule"]), name)


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
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
    sections = {
        name: _read(parser[name], name, keys) for name, keys in _KEYS.items() if name in parser
    }

    if "molecule" not in sections:
        raise ConfigError(f"{path}: missing [molecule] section")
    molecule = _molecule_from_section(sections["molecule"], "molecule")

    if "pulses" not in sections:
        raise ConfigError(f"{path}: missing [pulses] section")
    pulses = sections["pulses"]
    if pulses["p1_kick"] < 0.0 or pulses["p2_kick"] < 0.0:
        raise _fail("pulses", None, "kick strengths must be non-negative")
    if pulses["shape"] not in ("impulsive", "gaussian"):
        raise _fail("pulses", "shape", f"must be impulsive or gaussian, got {pulses['shape']!r}")
    dtau_ps, dtau_frac = pulses["dtau_ps"], pulses["dtau_frac"]
    if dtau_ps is not None and dtau_frac is not None:
        raise _fail("pulses", None, "give dtau_ps or dtau_frac, not both")

    solver = sections.get("solver", {})
    try:
        solver_opts = SolverOptions(
            **{k: solver[k] for k in ("substeps", "truncation_tol") if solver.get(k) is not None}
        )
    except ValueError as exc:
        raise _fail("solver", None, str(exc)) from None

    scan = None
    if "scan" in sections:
        values = sections["scan"]
        if values["axis"] not in ("dtau", "p2"):
            raise _fail("scan", "axis", f"must be dtau or p2, got {values['axis']!r}")
        if values["axis"] == "dtau" and values["units"] not in ("trev", "ps"):
            raise _fail("scan", "units", f"must be trev or ps, got {values['units']!r}")
        if values["count"] < 1:
            raise _fail("scan", "count", "must be a positive integer")
        scan = ScanSettings(window_halfwidth=values.pop("window_halfwidth_ps"), **values)

    beam = None
    if "beam" in sections:
        values = sections["beam"]
        try:
            beam = BeamGeometry(
                values["pump_waist_um"], values["probe_waist_um"], values["n_shells"]
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
        p1_kick=pulses["p1_kick"],
        p2_kick=pulses["p2_kick"],
        dtau=dtau,
        shape=pulses["shape"],
        duration_fwhm=pulses["duration_fwhm_ps"],
        j_max=solver.get("jmax"),
        dt_sample=solver.get("dt_sample_ps"),
        t_end=solver.get("t_end_ps"),
        solver=solver_opts,
        scan=scan,
        beam=beam,
    )
