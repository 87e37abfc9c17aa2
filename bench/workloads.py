"""The three benchmark workloads: their configs, CLI calls and output checks.

Every workload pins ``jmax`` in its config, so the problem size is a
benchmark input and not the output of ``choose_jmax``.

A workload's acceptance-gate problem is cut into equal *slices*, one
``rotecho`` CLI call each, so that a timed run holds several calls of
the same size and reports their median:

* ``opt_sweep``: one separation of check 10/11's dtau grid per call
  (``rotecho opt`` on a one-point grid); the 8 calls make the sweep.
* ``focal_scan``: every third point of check 14's P2 grid (2.0 .. 10.0
  in steps of 0.5) per call, 6 points x 6 shells with ``--threads 2``;
  3 calls cover the grid, the last running on to 10.5.
* ``gaussian_simulate``: the whole two-pulse run in every call.

The seed picks one of ``VARIANTS`` small, fixed shifts of the dtau and
P2 grids (variant 0 is exactly the acceptance grid) and the slice a run
starts from.  Reference rows for every variant and slice live in
``reference.json`` (written by ``make_reference.py``), so every seed is
checked against stored data.

This module uses the standard library only: the benchmark's parent
process never imports numpy, so it cannot perturb the BLAS settings of
the processes it times.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

VARIANTS = 8

# OCS revival period in ps, 1/(2*B*c) with B = 0.2034 cm^-1 (the packaged
# preset) and c in cm/ps; the checks need it without importing the engine.
OCS_TREV_PS = 1.0 / (2.0 * 0.2034 * 2.99792458e-2)
DT_SAMPLE_PS = OCS_TREV_PS / 2048.0

# Check 10/11's grid: 9 points from 0.02 to 0.23 T_rev; quarter exclusion
# drops the last, leaving these 8 separations.
OPT_START, OPT_STEP, OPT_COUNT = 0.02, 0.21 / 8, 8
# Check 11's pinned p2_opt list for the variant-0 separations, and its tolerance.
CHECK11_P2_OPT = (13.350, 6.198, 4.288, 3.585, 3.392, 3.585, 4.288, 6.196)
CHECK11_ATOL = 0.05
# Check 14's P2 grid is 2.0 .. 10.0 in steps of 0.5; slice j holds every
# third point from 2.0 + 0.5 j.
FOCAL_SLICES, FOCAL_POINTS = 3, 6

# A replacement pulse kernel must reproduce check 13's 0.0328 deviation to
# about 1e-4 (ROADMAP direction 4), so a gaussian trace may move by 1e-4 of
# its peak magnitude and still count as correct.
GAUSSIAN_REL_TOL = 1e-4


def variant(seed: int) -> int:
    return seed % VARIANTS


def _num(x: float) -> str:
    return format(x, ".12g")


def fingerprint(lines: list[str]) -> str:
    """sha256 of a CSV's column header and data rows, without provenance."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def read_data(path: Path) -> tuple[list[str], list[list[float]]]:
    """Non-comment lines of a CLI CSV, and its data rows as floats."""
    lines = [
        ln.rstrip("\n")
        for ln in path.read_text(encoding="utf-8").splitlines()
        if ln and not ln.startswith("#")
    ]
    return lines, [[_cell(c) for c in ln.split(",")] for ln in lines[1:]]


def _cell(text: str) -> float:
    if text in ("true", "false"):
        return 1.0 if text == "true" else 0.0
    return float(text)


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    data_file: str
    threads: int
    slices: int
    config: Callable[[int, int], str]
    check_rows: Callable[[list, list, int, int], list[str]]
    # exact fingerprint match on variant 0; off where a tolerance is the contract
    fingerprint_gates: bool = True

    def argv(self, config: Path, out_dir: Path, threads: int | None = None) -> list[str]:
        """CLI arguments after ``rotecho``."""
        args = [self.verb, "--config", str(config), "--out-dir", str(out_dir)]
        n = self.threads if threads is None else threads
        if n > 1:
            args += ["--threads", str(n)]
        return args

    def slice_of(self, seed: int, call: int) -> int:
        """The slice the ``call``-th CLI call of a run with this seed runs."""
        return (seed + call) % self.slices

    def check(self, path: Path, v: int, s: int, reference: dict) -> tuple[str, list, list[str]]:
        """Fingerprint, data rows and the problems found in one call's output."""
        if not path.is_file():
            return "", [], [f"{path.name} was not written"]
        lines, rows = read_data(path)
        fp = fingerprint(lines)
        ref = reference[self.name][str(v)][s]
        problems = self.check_rows(rows, ref["rows"], v, s)
        if v == 0 and self.fingerprint_gates and fp != ref["fingerprint"]:
            problems.append(f"slice {s}: variant-0 fingerprint differs from the committed one")
        return fp, rows, problems


def _opt_config(v: int, s: int) -> str:
    frac = OPT_START + 0.0005 * v + OPT_STEP * s
    return (
        "[molecule]\npreset = OCS\n\n"
        "[pulses]\np1_kick = 1.0\n\n"
        "[solver]\njmax = 120\n\n"
        "[scan]\naxis = dtau\n"
        f"start = {_num(frac)}\nstop = {_num(frac)}\ncount = 1\nunits = trev\n"
        f"p2_max = {_num(16.0 + 0.125 * v)}\n"
    )


def _focal_config(v: int, s: int) -> str:
    start = 2.0 + 0.5 * s + 0.02 * v
    return (
        "[molecule]\npreset = OCS\n\n"
        f"[pulses]\np1_kick = 1.0\ndtau_frac = {_num(0.125 + 0.0005 * v)}\n\n"
        "[solver]\njmax = 120\n\n"
        "[scan]\naxis = p2\n"
        f"start = {_num(start)}\nstop = {_num(start + 1.5 * (FOCAL_POINTS - 1))}\n"
        f"count = {FOCAL_POINTS}\naveraged = true\n\n"
        "[beam]\npump_waist_um = 30\nprobe_waist_um = 15\nn_shells = 6\n"
    )


def _gaussian_config(v: int, s: int) -> str:
    return (
        "[molecule]\npreset = OCS\n\n"
        "[pulses]\np1_kick = 1.0\n"
        f"p2_kick = {_num(0.5 + 0.02 * v)}\ndtau_frac = {_num(0.07 + 0.0005 * v)}\n"
        "shape = gaussian\nduration_fwhm_ps = 0.1\n\n"
        "[solver]\njmax = 80\n"
    )


def _check_opt(rows, ref_rows, v, s) -> list[str]:
    """Rows are (dtau_ps, p2_opt, s_echo_max); one row per call."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        if not _close(row[0], ref[0], 1e-12 * ref[0]):
            problems.append(f"slice {s}: dtau {row[0]} != {ref[0]}")
        # the golden-section search stops at a relative bracket of 1e-3
        if not _close(row[1], ref[1], 2e-3 * ref[1]):
            problems.append(f"slice {s}: p2_opt {row[1]} != {ref[1]}")
        if not _close(row[2], ref[2], 1e-6 * abs(ref[2])):
            problems.append(f"slice {s}: s_echo_max {row[2]} != {ref[2]}")
        if v == 0 and not _close(row[1], CHECK11_P2_OPT[s], CHECK11_ATOL):
            problems.append(f"check 11: p2_opt {row[1]} at slice {s}, pinned {CHECK11_P2_OPT[s]}")
    return problems


def check_opt_sweep(rows_by_slice: dict[int, list]) -> list[str]:
    """Checks 10 and 11 on the separations a run covered.

    The peak spread over a subset of the grid is at most the spread over
    all of it, and T/8 (slice 4) must hold the smallest p2_opt of any
    separation covered with it.
    """
    problems = []
    rows = {s: r[0] for s, r in rows_by_slice.items() if len(r) == 1}
    if len(rows) >= 2:
        s_max = [r[2] for r in rows.values()]
        spread = (max(s_max) - min(s_max)) / max(s_max)
        if not spread <= 0.02:
            problems.append(f"check 10: peak spread {spread:.4f} > 0.02")
    if 4 in rows and any(r[1] < rows[4][1] for s, r in rows.items() if s != 4):
        problems.append("check 11: p2_opt is not smallest at T/8")
    return problems


def _check_focal(rows, ref_rows, v, s) -> list[str]:
    """Rows are (scan_value, s_echo, t_max, t_min, p1, p2, dtau, averaged)."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    s_scale = max(abs(r[1]) for r in ref_rows)
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in (0, 4, 5, 6, 7):
            if not _close(row[col], ref[col], 1e-12 * max(abs(ref[col]), 1.0)):
                problems.append(f"slice {s} row {i} col {col}: {row[col]} != {ref[col]}")
        if not _close(row[1], ref[1], 1e-8 * s_scale):
            problems.append(f"slice {s} row {i}: s_echo {row[1]} != {ref[1]}")
        # an extremum may move to a neighbouring sample of near-equal value
        for col in (2, 3):
            if not _close(row[col], ref[col], 1.01 * DT_SAMPLE_PS):
                problems.append(f"slice {s} row {i} col {col}: {row[col]} != {ref[col]}")
    return problems


def _check_gaussian(rows, ref_values, v, s) -> list[str]:
    """Rows are (time_ps, alignment); the reference stores the alignment."""
    if len(rows) != len(ref_values):
        return [f"{len(rows)} samples, expected {len(ref_values)}"]
    last = rows[-1][0]
    if not _close(last, DT_SAMPLE_PS * (len(rows) - 1), 1e-9 * last):
        return [f"last sample at {last} ps, expected {DT_SAMPLE_PS * (len(rows) - 1)}"]
    scale = max(abs(a) for a in ref_values)
    worst = max(abs(row[1] - ref) for row, ref in zip(rows, ref_values))
    if not worst <= GAUSSIAN_REL_TOL * scale:
        return [f"trace deviates by {worst:.3e} > {GAUSSIAN_REL_TOL:g} of its peak {scale:.3e}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("opt_sweep", "opt", "optimal_p2.csv", 1, OPT_COUNT, _opt_config, _check_opt),
        Workload(
            "focal_scan", "scan", "scan_p2.csv", 2, FOCAL_SLICES, _focal_config, _check_focal
        ),
        Workload(
            "gaussian_simulate", "simulate", "trace.csv", 1, 1, _gaussian_config,
            _check_gaussian, fingerprint_gates=False,
        ),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)
