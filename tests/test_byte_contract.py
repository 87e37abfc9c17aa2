"""The benchmark's pinned variant-0 data rows, reproduced by in-process CLI calls.

``bench/workloads.py`` writes the configs and ``bench/reference.json``
holds the sha256 of each output's column header and data rows; a rerun
must reproduce them byte for byte.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rotecho import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, s, threads",
    [pytest.param("opt_sweep", 4, 1, id="opt_sweep-4"),
     pytest.param("focal_scan", 0, 1, id="focal_scan-0"),
     pytest.param("focal_scan", 0, 2, id="focal_scan-0-pooled")],
)
def test_variant0_outputs_match_the_benchmark_fingerprints(tmp_path, workloads, name, s, threads):
    # the averaged scan runs serially and, as the benchmark runs it, on two
    # pool workers, which build or inherit their own basis and kernel cache
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config(0, s), encoding="utf-8")
    assert cli.main(workload.argv(config, tmp_path / "out", threads=threads)) == 0
    lines, _ = workloads.read_data(tmp_path / "out" / workload.data_file)
    assert workloads.fingerprint(lines) == workloads.load_reference()[name]["0"][s]["fingerprint"]


def test_variant0_gaussian_trace_is_within_the_benchmark_tolerance(tmp_path, workloads):
    # the gaussian trace is held to 1e-4 of its peak, not to a fingerprint;
    # a rerun must still reproduce its data bytes
    workload = workloads.WORKLOADS["gaussian_simulate"]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config(0, 0), encoding="utf-8")
    data = []
    for run in ("a", "b"):
        assert cli.main(workload.argv(config, tmp_path / run)) == 0
        path = tmp_path / run / workload.data_file
        _, _, problems = workload.check(path, 0, 0, workloads.load_reference())
        assert problems == []
        data.append(workloads.read_data(path)[0])
    assert data[0] == data[1]
