"""rotecho benchmark: one workload per call, timed end to end or traced by layer.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src`` and nothing is installed.  Every process the benchmark starts
gets one BLAS thread (see ``predictions.json`` for why).

``--trace 0`` (end to end): for ``--seconds``, alternate the workload's
``rotecho`` CLI call on the next slice (see ``workloads.py``) with a
set-up probe, each in a fresh process.  Each call's data file is checked
against ``reference.json``.  Reports the medians over the calls of wall
time, CPU seconds of the call and its pool workers, and the largest
resident set among them, and the median set-up time over the probes.

``--trace 1`` (per layer): set-up probes, then ``traced_pass.py`` in a
fresh interpreter, then check 6's pooled scan once with the BLAS pin and
once without it.

The last stdout line is the JSON result; the lines before it say the
same in words, with sample counts, fingerprints and the environment.
Scratch files (configs, CLI outputs, logs, the children's bytecode
cache) go to ``.bench_work/<workload>-<pid>/`` in the checkout, because
the benchmark may write nowhere else; a run removes its own directory
when it ends and any left by runs that were killed.
"""

from __future__ import annotations

import sys

# the benchmark leaves no bytecode cache in the checkout
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, check_opt_sweep, load_reference, variant  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TRACE_SETUP_PROBES = 5
# the result must be out within 180 s of launch
DEADLINE_S = 170.0
# a pooled scan without the BLAS pin has taken up to 49 s; 30 s shows the defect
POOL_DEFAULT_CAP_S = 30.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Child:
    """Outcome of one child process: exit code, wall and CPU time, peak RSS."""

    rc: int
    launched: float
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str

    def last_json(self) -> dict:
        if self.rc != 0:
            raise RuntimeError(f"child failed ({self.rc}): {self.stderr.strip()[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def child_env(work: Path, pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # bytecode is read from and written to a cache of the run's own, which
    # the untimed first probe fills: set-up time then does not depend on
    # whether a __pycache__ was left in the checkout, and none is added
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    for key in BLAS_ENV:
        env.pop(key, None)
        if pinned:
            env[key] = "1"
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], log: Path, env: dict, deadline: float) -> Child:
    """Run to completion (or kill its process group at ``deadline``) and reap it.

    ``wait4`` reports the child's CPU time including every descendant it
    waited for (the pool workers), and the largest resident set among them.
    """
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            # nothing the child started may outlive it
            _kill_group(proc.pid)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            t0,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out.read(),
            err.read(),
        )


def probe(config: Path, work: Path, name: str, deadline: float) -> tuple[dict, float]:
    """The set-up probe's report, and its set-up time.

    Set-up time runs from launching the interpreter to the end of the
    eigensystem build, both read on the system-wide monotonic clock that
    ``perf_counter`` uses on Linux; the probe's environment record and
    the interpreter's exit are not in it.
    """
    argv = [sys.executable, str(HERE / "probes.py"), "setup", str(config)]
    child = run_child(argv, work / name, child_env(work), deadline)
    report = child.last_json()
    return report, report["ready"] - child.launched


def write_configs(workload, v: int, work: Path) -> list[Path]:
    configs = []
    for s in range(workload.slices):
        path = work / f"{workload.name}-{s}.cfg"
        path.write_text(workload.config(v, s), encoding="utf-8")
        configs.append(path)
    return configs


def run_fingerprint(fingerprints: dict[int, str]) -> str:
    """One fingerprint for the slices a run covered, in slice order."""
    joined = "\n".join(f"{s}:{fp}" for s, fp in sorted(fingerprints.items()))
    return hashlib.sha256(joined.encode()).hexdigest()


def end_to_end(workload, seed: int, seconds: float, work: Path, deadline: float, reference: dict):
    v = variant(seed)
    configs = write_configs(workload, v, work)
    # the first start reads cold files and fills the bytecode cache; not timed
    probe(configs[0], work, "probe-warm", deadline)
    t_start = time.perf_counter()
    calls, probes, problems = [], [], []
    fingerprints, rows_by_slice = {}, {}
    while True:
        k = len(calls)
        s = workload.slice_of(seed, k)
        out_dir = work / f"run-{k}"
        argv = [sys.executable, "-m", "rotecho", *workload.argv(configs[s], out_dir)]
        child = run_child(argv, work / f"cli-{k}", child_env(work), deadline)
        calls.append(child)
        found = [] if child.rc == 0 else [f"exit code {child.rc}: {child.stderr.strip()[-500:]}"]
        fp, rows, check = workload.check(out_dir / workload.data_file, v, s, reference)
        found += check
        if fingerprints.setdefault(s, fp) != fp:
            found.append(f"slice {s}: output differs from its first call in this run")
        rows_by_slice[s] = rows
        problems.append(found)
        probes.append(probe(configs[s], work, f"probe-{k}", deadline))

        elapsed = time.perf_counter() - t_start
        next_end = elapsed + elapsed / (k + 1)
        if next_end > seconds or time.monotonic() + 2.0 * (elapsed / (k + 1)) > deadline:
            break

    run_problems = check_opt_sweep(rows_by_slice) if workload.name == "opt_sweep" else []
    failed = sum(1 for found in problems if found)
    if run_problems:
        failed = max(failed, 1)
    metrics = {
        "wall_s": statistics.median(c.wall for c in calls),
        "setup_s": statistics.median(setup for _, setup in probes),
        "cpu_s": statistics.median(c.cpu for c in calls),
        "peak_rss_mb": statistics.median(c.rss_mb for c in calls),
    }
    detail = {
        "samples": {"cli_calls": len(calls), "setup_probes": len(probes)},
        "slices": [workload.slice_of(seed, k) for k in range(len(calls))],
        "wall_s": [c.wall for c in calls],
        "setup_s": [setup for _, setup in probes],
        "cpu_s": [c.cpu for c in calls],
        "peak_rss_mb": [c.rss_mb for c in calls],
        "fingerprint": run_fingerprint(fingerprints),
        "problems": problems + ([run_problems] if run_problems else []),
        "env": probes[0][0]["env"],
    }
    return metrics, len(calls), failed, detail


def traced(workload, seed: int, work: Path, deadline: float, reference: dict):
    v = variant(seed)
    s = workload.slice_of(seed, 0)
    config = write_configs(workload, v, work)[s]
    probe(config, work, "probe-warm", deadline)
    reports = [probe(config, work, f"probe-{i}", deadline)[0] for i in range(TRACE_SETUP_PROBES)]
    traced_dir = work / "traced-pass"
    argv = [sys.executable, str(HERE / "traced_pass.py"), workload.name, str(config), str(traced_dir)]
    result = run_child(argv, work / "traced-pass", child_env(work), deadline).last_json()

    problems = {}
    for run, rc in result["runs"].items():
        _, _, found = workload.check(traced_dir / run / workload.data_file, v, s, reference)
        problems[run] = ([f"exit code {rc}"] if rc != 0 else []) + found

    pool_argv = [sys.executable, str(HERE / "probes.py"), "pool"]
    pinned = run_child(pool_argv, work / "pool-pinned", child_env(work), deadline).last_json()
    cap = min(time.monotonic() + POOL_DEFAULT_CAP_S, deadline)
    default = run_child(pool_argv, work / "pool-default", child_env(work, pinned=False), cap)
    # killed at the cap: report the time waited, a lower bound
    default_s = default.last_json()["scan_s"] if default.rc == 0 else default.wall

    metrics = dict(result["metrics"])
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in reports)
    metrics["config.load_s"] = statistics.median(r["load_s"] for r in reports)
    metrics["basis.eig_s"] = statistics.median(r["eig_s"] for r in reports)
    metrics["echo.pool_blas_pinned_s"] = pinned["scan_s"]
    metrics["echo.pool_blas_default_s"] = default_s
    detail = {
        "slice": s,
        "wall_untraced_s": result["wall_untraced_s"],
        "wall_traced_s": result["wall_traced_s"],
        "pool_blas_default_capped": default.rc != 0,
        "spans": result["spans"],
        "problems": problems,
        "env": reports[0]["env"],
    }
    failed = sum(1 for found in problems.values() if found)
    return metrics, len(problems), failed, detail


def remove_stale(work_root: Path) -> None:
    """Remove work directories of runs whose process no longer exists."""
    for path in work_root.glob("*-*"):
        try:
            os.kill(int(path.name.rsplit("-", 1)[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "rotecho" / "__init__.py").is_file():
        print(f"bench: no engine source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = load_reference()
    workload = WORKLOADS[args.workload]

    work_root = ROOT / ".bench_work"
    remove_stale(work_root)
    work = work_root / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced(workload, args.seed, work, deadline, reference)
        else:
            metrics, attempted, failed, detail = end_to_end(
                workload, args.seed, args.seconds, work, deadline, reference
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {workload.name}, seed {args.seed} (grid variant {variant(args.seed)}), "
          f"trace {args.trace}")
    counts = detail.get("samples", {})
    for name, entry in report.items():
        n = counts.get("setup_probes" if name == "setup_s" else "cli_calls")
        note = f"  (median of {n})" if n else ""
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}{note}")
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
