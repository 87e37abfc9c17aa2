"""Deterministic data export and ingestion for the command-line front end.

Every data file is written with fixed column order, 12-significant-digit
C-locale formatting, and newline-terminated lines, so identical inputs
produce byte-identical files on any machine.  Provenance travels in
``#`` comment lines at the top of each CSV: engine version, the sha256
of the config file that produced the run, and the command.  Wall-clock
timings exist only in the run manifest, which is therefore the one
output excluded from the byte-determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain

from . import __version__
from .echo import DecayFit, EchoCurve, Sin2Fit
from .errors import ConfigError
from .propagate import AlignmentTrace

TRACE_COLUMNS = ("time_ps", "alignment")
CURVE_COLUMNS = (
    "scan_value",
    "s_echo",
    "t_max",
    "t_min",
    "p1_kick",
    "p2_kick",
    "dtau_ps",
    "averaged",
)
OPT_COLUMNS = ("dtau_ps", "p2_opt", "s_echo_max")


def fmt(value: float) -> str:
    """Locale-independent number formatting at 12 significant digits."""
    return format(float(value), ".12g")


def config_digest(path: str) -> str:
    """sha256 of the config file bytes, hex encoded."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def provenance_lines(meta: dict) -> list[str]:
    lines = [f"rotecho {__version__}"]
    for key in ("config_sha256", "command"):
        if meta.get(key) is not None:
            lines.append(f"{key}: {meta[key]}")
    return lines


def _write_data(path, meta: dict, lines) -> None:
    """The provenance comment lines, then newline-terminated ``lines``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in provenance_lines(meta):
            handle.write(f"# {line}\n")
        handle.writelines(lines)


def _write_csv(path, meta: dict, columns, rows) -> None:
    _write_data(path, meta, (",".join(row) + "\n" for row in chain([columns], rows)))


def write_trace_csv(path, trace: AlignmentTrace, meta: dict) -> None:
    rows = (
        (fmt(t), fmt(v)) for t, v in zip(trace.times, trace.values)
    )
    _write_csv(path, meta, TRACE_COLUMNS, rows)


def write_curve_csv(path, curve: EchoCurve, meta: dict, averaged: bool = False) -> None:
    flag = "true" if averaged else "false"
    axis = curve.scan_axis
    rows = []
    for p in curve.points:
        scan_value = p.dtau if axis == "dtau" else p.p2_kick
        rows.append(
            (
                fmt(scan_value),
                fmt(p.s_echo),
                fmt(p.t_max),
                fmt(p.t_min),
                fmt(p.p1_kick),
                fmt(p.p2_kick),
                fmt(p.dtau),
                flag,
            )
        )
    _write_csv(path, meta, CURVE_COLUMNS, rows)


def write_pathways_csv(path, table: str, meta: dict) -> None:
    """The csv rendering of ``pathways.pathway_table``."""
    _write_data(path, meta, [table])


def write_opt_csv(path, rows, meta: dict) -> None:
    """Rows of (dtau_ps, p2_opt, s_echo_max)."""
    _write_csv(
        path, meta, OPT_COLUMNS, ((fmt(d), fmt(p), fmt(s)) for d, p, s in rows)
    )


def _rounded(value):
    if isinstance(value, float):
        if math.isfinite(value):
            return float(fmt(value))
        return None
    return value


def write_fit_json(path, fit, meta: dict) -> None:
    """Sidecar record for a fit result; model identified by field layout."""
    if isinstance(fit, Sin2Fit):
        payload = {
            "model": "a*sin^2(b*p2)",
            "a": fit.a,
            "b": fit.b,
            "residual": fit.residual,
            "n_points": fit.n_points,
        }
    elif isinstance(fit, DecayFit):
        payload = {
            "model": "amplitude*exp(-rate*t)",
            "rate_per_ps": fit.rate,
            "amplitude": fit.amplitude,
            "residual": fit.residual,
            "negative_rate": fit.negative,
        }
    else:
        raise TypeError(f"no JSON layout for {type(fit).__name__}")
    payload = {k: _rounded(v) for k, v in payload.items()}
    payload["provenance"] = provenance_lines(meta)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass(frozen=True)
class RunManifest:
    """What produced a set of outputs, written alongside them as JSON.

    The data files a run writes are byte-deterministic for a given
    config and engine version; the manifest records wall-clock timings
    and is therefore the one output exempt from that guarantee.
    """

    command: str
    parameters: dict
    config_sha256: str | None
    molecule: str
    outputs: tuple[str, ...]
    timings_s: dict
    notes: tuple[str, ...] = ()
    engine: str = field(default=f"rotecho {__version__}")

    def payload(self) -> dict:
        data = {
            "engine": self.engine,
            "command": self.command,
            "parameters": {k: _rounded(v) for k, v in sorted(self.parameters.items())},
            "config_sha256": self.config_sha256,
            "molecule": self.molecule,
            "outputs": list(self.outputs),
            "timings_s": {k: _rounded(v) for k, v in sorted(self.timings_s.items())},
            "timings_note": "wall-clock; outside the byte-determinism contract",
        }
        if self.notes:
            data["notes"] = list(self.notes)
        return data

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read manifest {path!r}: {exc}") from None
        try:
            return cls(
                command=data["command"],
                parameters=data["parameters"],
                config_sha256=data["config_sha256"],
                molecule=data["molecule"],
                outputs=tuple(data["outputs"]),
                timings_s=data["timings_s"],
                notes=tuple(data.get("notes", ())),
                engine=data["engine"],
            )
        except KeyError as exc:
            raise ConfigError(f"manifest {path} lacks field {exc}") from None


def write_manifest(
    path,
    *,
    command: str,
    parameters: dict,
    config_sha256: str | None,
    molecule: str,
    outputs: list[str],
    timings: dict,
    notes: list[str] | None = None,
) -> None:
    RunManifest(
        command=command,
        parameters=dict(parameters),
        config_sha256=config_sha256,
        molecule=molecule,
        outputs=tuple(sorted(outputs)),
        timings_s=dict(timings),
        notes=tuple(notes or ()),
    ).write(path)


def read_decay_table(path) -> list[tuple[float, float]]:
    """(dtau_ps, amplitude) pairs from a CSV with named columns.

    Accepts any file whose header names a delay column (dtau_ps) and an
    amplitude column (s_echo_max or s_echo), in particular the output
    of the opt command.  Comment lines are skipped.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [
                line.strip()
                for line in handle
                if line.strip() and not line.startswith("#")
            ]
    except OSError as exc:
        raise ConfigError(f"cannot read table {path!r}: {exc}") from None
    if not lines:
        raise ConfigError(f"{path}: no data rows")
    header = [c.strip() for c in lines[0].split(",")]
    if "dtau_ps" not in header:
        raise ConfigError(f"{path}: no dtau_ps column in {header}")
    amp_col = next((c for c in ("s_echo_max", "s_echo") if c in header), None)
    if amp_col is None:
        raise ConfigError(f"{path}: no s_echo_max or s_echo column in {header}")
    i_d, i_s = header.index("dtau_ps"), header.index(amp_col)
    pairs = []
    for line in lines[1:]:
        cells = line.split(",")
        try:
            pairs.append((float(cells[i_d]), float(cells[i_s])))
        except (ValueError, IndexError):
            raise ConfigError(f"{path}: malformed row {line!r}") from None
    return pairs
