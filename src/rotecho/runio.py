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

import json
import math
from dataclasses import dataclass, fields
from itertools import chain

from . import __version__
from .echo import DecayFit, EchoCurve, Sin2Fit
from .errors import ConfigError
from .pathways import PATHWAY_COLUMNS
from .propagate import AlignmentTrace

try:  # CPython's own sha256: hashlib maps OpenSSL's libcrypto, 3.6 MB resident
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
ENGINE = f"rotecho {__version__}"


def fmt(value: float) -> str:
    """Locale-independent number formatting at 12 significant digits."""
    return format(float(value), ".12g")


def config_digest(path: str) -> str:
    """sha256 of the config file bytes, hex encoded."""
    with open(path, "rb") as handle:
        return sha256(handle.read()).hexdigest()


def provenance_lines(meta: dict) -> list[str]:
    lines = [ENGINE]
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
    rows = (
        [*map(fmt, (x, p.s_echo, p.t_max, p.t_min, p.p1_kick, p.p2_kick, p.dtau)), flag]
        for x, p in zip(curve.axis_values(), curve.points)
    )
    _write_csv(path, meta, CURVE_COLUMNS, rows)


def write_pathways_csv(path, rows, meta: dict) -> None:
    """``pathways._pathway_rows``, each ',' inside a field written as ';'."""
    _write_csv(path, meta, PATHWAY_COLUMNS, ([f.replace(",", ";") for f in row] for row in rows))


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
    _write_json(path, payload)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass(frozen=True)
class RunManifest:
    """What produced a run's data files, written and read back field by field.

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
    notes: tuple[str, ...]
    engine: str

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read manifest {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"manifest {path} holds no JSON object")
        data.setdefault("notes", [])  # written only when there are any
        try:
            values = [data[field.name] for field in fields(cls)]
        except KeyError as exc:
            raise ConfigError(f"manifest {path} lacks field {exc}") from None
        return cls(*(tuple(v) if isinstance(v, list) else v for v in values))


def write_manifest(path, manifest: RunManifest) -> None:
    """``manifest`` as JSON, outputs sorted, floats rounded, notes only if any."""
    payload = {
        **vars(manifest),
        "outputs": sorted(manifest.outputs),
        "parameters": {k: _rounded(v) for k, v in manifest.parameters.items()},
        "timings_s": {k: _rounded(v) for k, v in manifest.timings_s.items()},
        "timings_note": "wall-clock; outside the byte-determinism contract",
    }
    if not manifest.notes:
        del payload["notes"]
    _write_json(path, payload)


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
