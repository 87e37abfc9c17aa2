"""The traced pass for one workload slice, run in-process through ``rotecho.cli.main``.

    python3 traced_pass.py WORKLOAD CONFIG WORKDIR

Runs the slice's CLI call serially four times, untraced, traced, traced,
untraced; the difference of the mean traced and untraced wall times is
the tracing overhead, and the per-layer metrics come from the first
traced call.  The pool workload also makes one pooled traced call, whose
``averaged_scan_p2`` span is the pool's map time.  Last, one public
``apply_pulse`` call with the gaussian workload's 0.1 ps, P = 1 pulse at
j_max = 80 times the finite-pulse kernel on its own.

Output directories are named after the calls under WORKDIR; the last
stdout line is a JSON object with the metrics, the exit code of each CLI
call and a per-span summary of the first traced call.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS


def _timed_main(argv: list[str]) -> tuple[int, float]:
    import rotecho.cli

    t0 = time.perf_counter()
    rc = rotecho.cli.main(argv)
    return rc, time.perf_counter() - t0


def gaussian_pulse_seconds() -> float:
    from rotecho import (
        PulseSpec,
        RotorBasis,
        apply_pulse,
        molecule_preset,
        thermal_state,
    )

    basis = RotorBasis(80)
    for m in range(basis.j_max + 1):
        basis.cos2_eigensystem(m)
    rho = thermal_state(molecule_preset("OCS"), basis, 1e-2)
    pulse = PulseSpec(t0=0.0, kick=1.0, duration_fwhm=0.1, shape="gaussian")
    t0 = time.perf_counter()
    apply_pulse(rho, pulse)
    return time.perf_counter() - t0


def span_summary(tracer: Tracer) -> dict:
    summary: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        entry = summary.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += own
    return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in summary.items()}


def main(workload_name: str, config: str, work: Path) -> dict:
    workload = WORKLOADS[workload_name]
    runs, walls, tracers = {}, {"untraced": [], "traced": []}, []
    for i, kind in enumerate(("untraced", "traced", "traced", "untraced")):
        name = f"{kind}-{i}"
        tracer = Tracer()
        if kind == "traced":
            tracer.install()
            tracers.append(tracer)
        try:
            runs[name], wall = _timed_main(workload.argv(config, work / name, threads=1))
        finally:
            tracer.restore()
        walls[kind].append(wall)

    tracer = tracers[0]
    metrics = layer_metrics(tracer)
    wall_traced = sum(walls["traced"]) / 2
    wall_untraced = sum(walls["untraced"]) / 2
    metrics["trace.overhead_s"] = wall_traced - wall_untraced
    metrics["runio.bytes"] = sum(
        p.stat().st_size for p in (work / "traced-1").iterdir() if p.is_file()
    )

    metrics["focal.pool_map_s"] = 0.0
    metrics["focal.pool_speedup"] = 0.0
    if workload.threads > 1:
        with Tracer() as pooled:
            runs["pooled"], _ = _timed_main(workload.argv(config, work / "pooled"))
        pool_map_s = pooled.total("focal.averaged_scan_p2")
        metrics["focal.pool_map_s"] = pool_map_s
        metrics["focal.pool_speedup"] = metrics["focal.quadrature_s"] / pool_map_s

    metrics["propagate.gaussian_pulse_s"] = gaussian_pulse_seconds()
    return {
        "metrics": metrics,
        "runs": runs,
        "wall_untraced_s": walls["untraced"],
        "wall_traced_s": walls["traced"],
        "spans": span_summary(tracer),
    }


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: traced_pass.py WORKLOAD CONFIG WORKDIR")
    print(json.dumps(main(sys.argv[1], sys.argv[2], Path(sys.argv[3]))))
