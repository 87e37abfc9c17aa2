"""Small measurements that each need a fresh interpreter.

``probes.py setup CONFIG``: the work between interpreter start and the
first propagation, split into the rotecho import, ``load_config`` and
``RotorBasis`` plus every cos^2 eigensystem at the config's j_max.
``ready`` is the ``perf_counter`` reading when that work is done, from
which the parent takes the time since it launched the probe.  Also
records the environment (Python, numpy, BLAS build, thread settings).

``probes.py pool``: check 6's 24-point dtau scan with two pool workers,
timed under whatever BLAS thread setting the process was started with.

Each prints one JSON line.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(config: str) -> dict:
    import rotecho.cli  # noqa: F401  (the CLI's import, as a run pays it)

    t_import = time.perf_counter()
    from rotecho import RotorBasis, load_config

    settings = load_config(config)
    j_max = settings.experiment().resolve_j_max()
    t_load = time.perf_counter()
    basis = RotorBasis(j_max)
    for m in range(j_max + 1):
        basis.cos2_eigensystem(m)
    t_eig = time.perf_counter()
    return {
        "ready": t_eig,
        "import_s": t_import - T_START,
        "load_s": t_load - t_import,
        "eig_s": t_eig - t_load,
        "j_max": j_max,
        "env": environment(),
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def pool() -> dict:
    import numpy as np

    from rotecho import molecule_preset, revival_period, scan_dtau, two_pulse_config

    molecule = molecule_preset("OCS")
    grid = np.linspace(0.02, 0.48, 24) * revival_period(molecule)
    base = two_pulse_config(molecule, 0.2, 0.1, float(grid[0]))
    t0 = time.perf_counter()
    curve = scan_dtau(grid, 0.2, 0.1, base, workers=2)
    elapsed = time.perf_counter() - t0
    if len(curve) != grid.size:
        raise SystemExit(f"pool probe: {len(curve.failures)} of {grid.size} points failed")
    return {"scan_s": elapsed}


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        print(json.dumps(setup(sys.argv[2])))
    elif sys.argv[1:] == ["pool"]:
        print(json.dumps(pool()))
    else:
        raise SystemExit("usage: probes.py setup CONFIG | probes.py pool")
