"""Regenerate ``reference.json``: the stored outputs every benchmark run is checked against.

    python3 bench/make_reference.py

Runs each workload's CLI call for every grid variant and slice (two at a
time) and stores its data rows and fingerprint.  Run it only when the
engine's numbers are meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench import ROOT, child_env
from workloads import REFERENCE_PATH, VARIANTS, WORKLOADS, read_data, fingerprint


def run_slice(name: str, v: int, s: int) -> tuple[str, int, int, dict]:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = Path(tmp) / f"{name}.cfg"
        config.write_text(workload.config(v, s), encoding="utf-8")
        argv = [sys.executable, "-m", "rotecho", *workload.argv(config, Path(tmp))]
        env = child_env(Path(tmp))
        subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True)
        lines, rows = read_data(Path(tmp) / workload.data_file)
    if name == "gaussian_simulate":
        rows = [r[1] for r in rows]
    return name, v, s, {"fingerprint": fingerprint(lines), "rows": rows}


def main() -> None:
    jobs = [
        (name, v, s)
        for name, workload in WORKLOADS.items()
        for v in range(VARIANTS)
        for s in range(workload.slices)
    ]
    reference = {
        name: {str(v): [None] * w.slices for v in range(VARIANTS)}
        for name, w in WORKLOADS.items()
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, v, s, entry in pool.map(lambda job: run_slice(*job), jobs):
            reference[name][str(v)][s] = entry
            print(f"{name} variant {v} slice {s}: {entry['fingerprint'][:16]}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
