"""Focal-volume averaging: quadrature, perturbative law, washout."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotecho import (
    BeamGeometry,
    EchoCurve,
    EchoMeasurement,
    MoleculeSpec,
    RotorBasis,
    ToleranceError,
    WindowError,
    averaged_scan_p2,
    echo_window_halfwidth,
    extract_secho,
    first_minimum_depth,
    fit_sin2,
    intensity_quadrature,
    revival_period,
    scan_p2,
    two_pulse_config,
)
from rotecho import propagate
from rotecho.echo import _point_config, _trace_values
from rotecho.focal import _gauss_jacobi_unit
from rotecho.propagate import AlignmentTrace, _sample_times

COLD = MoleculeSpec(b_cm=0.2034, temperature_k=30.0, name="OCS-cold")
TREV = revival_period(COLD)
DTAU = TREV / 8.0


def curve_from(s_values):
    points = tuple(
        EchoMeasurement(
            dtau=10.0,
            p1_kick=1.0,
            p2_kick=0.5 * (i + 1),
            s_echo=s,
            t_max=20.0,
            t_min=20.5,
        )
        for i, s in enumerate(s_values)
    )
    return EchoCurve(scan_axis="p2_kick", points=points)


# ---------------------------------------------------------------- geometry

def test_geometry_validation():
    with pytest.raises(ValueError, match="waists"):
        BeamGeometry(0.0, 15.0)
    with pytest.raises(ValueError, match="waists"):
        BeamGeometry(30.0, -1.0)
    with pytest.raises(ValueError, match="n_shells"):
        BeamGeometry(30.0, 15.0, n_shells=0)


def test_geometry_kappa_and_nominal():
    assert BeamGeometry(30.0, 15.0).kappa == pytest.approx(4.0, rel=1e-15)
    nom = BeamGeometry.nominal(n_shells=5)
    assert nom.probe_waist == pytest.approx(nom.pump_waist / 2.0)
    assert nom.n_shells == 5


# ---------------------------------------------------------------- quadrature

@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_single_shell_sits_at_weight_centroid(ratio):
    geom = BeamGeometry(30.0, 30.0 * ratio, n_shells=1)
    ((u, w),) = intensity_quadrature(geom)
    kappa = geom.kappa
    assert u == pytest.approx(kappa / (kappa + 1.0), abs=1e-12)
    assert w == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_moments_exact_to_quadrature_degree(n):
    geom = BeamGeometry(30.0, 15.0, n_shells=n)
    nodes = intensity_quadrature(geom)
    kappa = geom.kappa
    assert sum(w for _, w in nodes) == pytest.approx(1.0, abs=1e-12)
    # normalized moments of u^p against u^(kappa-1) du are kappa/(kappa+p)
    for p in range(1, 2 * n):
        moment = sum(w * u**p for u, w in nodes)
        assert moment == pytest.approx(kappa / (kappa + p), abs=1e-12)


def test_nodes_sorted_inside_unit_interval():
    nodes = intensity_quadrature(BeamGeometry(30.0, 15.0, n_shells=8))
    u = [f for f, _ in nodes]
    assert u == sorted(u)
    assert all(0.0 < f <= 1.0 for f in u)
    assert all(w > 0.0 for _, w in nodes)


def test_gauss_jacobi_nodes_match_the_tridiagonal_solver():
    # the nodes come from np.linalg.eigh on the dense Golub-Welsch matrix;
    # against scipy's tridiagonal solver on the same recurrence the
    # largest difference measured over this range was exactly 0
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    betas = np.concatenate([np.linspace(-0.9, 10.0, 20), np.geomspace(10.0, 1e8, 30)])
    for n in range(1, 25):
        k = np.arange(1.0, n)
        for beta in betas:
            diag = np.concatenate(
                [[beta / (beta + 2.0)], beta**2 / ((2.0 * k + beta) * (2.0 * k + beta + 2.0))]
            )
            off = np.sqrt(
                4.0 * k * k * (k + beta) ** 2
                / ((2.0 * k + beta) ** 2 * (2.0 * k + beta + 1.0) * (2.0 * k + beta - 1.0))
            )
            want_x, vectors = eigh_tridiagonal(diag, off)
            want_w = vectors[0] ** 2 / np.sum(vectors[0] ** 2)
            x, w = _gauss_jacobi_unit(n, beta)
            assert np.max(np.abs(x - want_x)) <= 1e-15, (n, beta)
            assert np.max(np.abs(w - want_w)) <= 1e-15, (n, beta)


def test_vanishing_probe_samples_on_axis():
    # the library quadrature for this weight overflows long before
    # kappa = 1e8; the recurrence-matrix route has to stay finite here
    nodes = intensity_quadrature(BeamGeometry(30.0, 0.3, n_shells=4))
    assert all(u > 0.995 for u, _ in nodes)
    assert sum(w * u for u, w in nodes) > 0.999

    ((u, w),) = intensity_quadrature(BeamGeometry(30.0, 30.0e-4, n_shells=1))
    assert np.isfinite(u) and np.isfinite(w)
    assert u > 1.0 - 1e-7


# ---------------------------------------------------------------- averaging

def test_single_on_axis_shell_reproduces_plain_scan():
    base = two_pulse_config(COLD, 0.2, 0.3, DTAU)
    plain = scan_p2([0.3], 0.2, DTAU, base, attach_fit=False)
    geom = BeamGeometry(30.0, 30.0e-4, n_shells=1)
    one = averaged_scan_p2([0.3], 0.2, DTAU, geom, base)
    assert one.s_values()[0] == pytest.approx(plain.s_values()[0], rel=1e-6)


def test_weak_kicks_average_to_third_moment():
    # both kicks scale with u and the echo is bilinear in kick strength
    # at lowest order (quadratic in P2's first step times linear in P1),
    # so averaging multiplies the amplitude by <u^3>
    base = two_pulse_config(COLD, 0.2, 0.3, DTAU)
    geom = BeamGeometry(30.0, 15.0, n_shells=4)
    plain = scan_p2([0.3], 0.2, DTAU, base, attach_fit=False)
    avg = averaged_scan_p2([0.3], 0.2, DTAU, geom, base)
    moment = geom.kappa / (geom.kappa + 3.0)
    ratio = avg.s_values()[0] / plain.s_values()[0]
    assert ratio == pytest.approx(moment, rel=0.02)


def test_weak_kick_curve_only_rescales():
    grid = [0.2, 0.4, 0.6]
    base = two_pulse_config(COLD, 0.2, float(grid[-1]), DTAU)
    geom = BeamGeometry(30.0, 15.0, n_shells=4)
    plain = scan_p2(grid, 0.2, DTAU, base, attach_fit=False)
    avg = averaged_scan_p2(grid, 0.2, DTAU, geom, base)
    ratios = avg.s_values() / plain.s_values()
    moment = geom.kappa / (geom.kappa + 3.0)
    assert np.all(np.abs(ratios / moment - 1.0) < 0.05)
    # shape distortion across the grid stays well under the rescale
    assert (ratios.max() - ratios.min()) / moment < 0.05


def test_averaged_points_report_nominal_kicks():
    grid = [0.2, 0.5]
    base = two_pulse_config(COLD, 0.3, float(grid[-1]), DTAU)
    geom = BeamGeometry(30.0, 15.0, n_shells=2)
    curve = averaged_scan_p2(grid, 0.3, DTAU, geom, base)
    assert list(curve.axis_values()) == grid
    assert all(m.p1_kick == 0.3 for m in curve.points)
    assert all(m.dtau == DTAU for m in curve.points)


def _per_point_curve(grid, p1, dtau, geom, base):
    """Each point on its own, every node with a fresh first-pulse cache:
    the nodes' isolated window samples summed in node order and measured
    once at the nominal kicks."""
    nodes = intensity_quadrature(geom)
    basis = RotorBasis(base.j_max)
    points, failures = [], []
    for p2 in sorted(grid):
        try:
            w = echo_window_halfwidth(dtau, base.molecule)
            nominal = _point_config(base, p1, p2, dtau)
            times = _sample_times(nominal)
            select = (times >= 2.0 * dtau - w) & (times <= 2.0 * dtau + w)
            acc = None
            for fraction, weight in nodes:
                cfg = _point_config(base, fraction * p1, fraction * p2, dtau)
                values = weight * _trace_values(cfg, basis, {}, select)
                acc = values if acc is None else acc + values
            trace = np.full(times.shape, np.nan)
            trace[select] = acc
            points.append(extract_secho(AlignmentTrace(times, trace, nominal), dtau, w))
        except (WindowError, ToleranceError) as exc:
            failures.append((p2, str(exc)))
    return EchoCurve("p2_kick", tuple(points), fit=None, failures=tuple(failures))


@settings(max_examples=60, deadline=None)
@given(
    n_shells=st.integers(1, 4),
    grid=st.lists(st.floats(0.1, 1.5), min_size=1, max_size=5, unique=True),
    workers=st.integers(1, 3),
    probe=st.sampled_from([7.5, 15.0, 30.0]),
    fails=st.sampled_from([None, None, None, "drift", "window"]),
)
def test_node_major_scan_equals_per_point_evaluation(n_shells, grid, workers, probe, fails):
    # a drift guard no trace can meet fails every point at its first node
    # (forked pool workers inherit the patched guard); a separation inside
    # the window guard fails every point before any node runs
    tol = 1e-300 if fails == "drift" else propagate.TRACE_TOL
    dtau = 0.011 * TREV if fails == "window" else DTAU
    base = two_pulse_config(COLD, 0.3, max(grid), dtau, j_max=24)
    geom = BeamGeometry(30.0, probe, n_shells=n_shells)
    with patch.object(propagate, "TRACE_TOL", tol):
        curve = averaged_scan_p2(grid, 0.3, dtau, geom, base, workers=workers)
        assert curve == _per_point_curve(grid, 0.3, dtau, geom, base)
    assert len(curve.points) + len(curve.failures) == len(grid)


def test_serial_averaged_scan_builds_each_shell_first_pulse_once(monkeypatch):
    # a first-pulse build is the one _spectra call of a single state
    states = []
    spectra = propagate._spectra

    def counting(thermal, columns, n_states):
        states.append(n_states)
        return spectra(thermal, columns, n_states)

    monkeypatch.setattr(propagate, "_spectra", counting)
    grid = [0.2, 0.4, 0.6, 0.8]
    base = two_pulse_config(COLD, 0.2, float(grid[-1]), DTAU)
    curve = averaged_scan_p2(grid, 0.2, DTAU, BeamGeometry(30.0, 15.0, n_shells=3), base)
    assert len(curve) == 4
    assert states.count(1) == 3
    assert states.count(2) == 3 * 4


@pytest.mark.parametrize("workers", [1, 2])
def test_a_drift_failure_in_one_kick_fails_only_its_point(monkeypatch, workers):
    # the second point of every node fails its reduce; a node's first-pulse
    # reduce resets the count (forked pool workers inherit the patch)
    spectra, kicks = propagate._spectra, [0]

    def failing_second_point(layout, parts, n_states):
        kicks[0] = 0 if n_states == 1 else kicks[0] + 1
        if kicks[0] == 2:
            raise ToleranceError("probe drift")
        return spectra(layout, parts, n_states)

    grid, geom = [0.4, 0.8, 1.2], BeamGeometry(30.0, 15.0, n_shells=2)
    base = two_pulse_config(COLD, 0.3, 1.2, DTAU, j_max=24)
    whole = averaged_scan_p2(grid, 0.3, DTAU, geom, base, workers=workers)
    monkeypatch.setattr(propagate, "_spectra", failing_second_point)
    curve = averaged_scan_p2(grid, 0.3, DTAU, geom, base, workers=workers)
    assert curve.points == (whole.points[0], whole.points[2])
    assert curve.failures == ((0.8, "probe drift"),)


# A serial 6-point averaged scan over 2 shells at j_max = 120, 296 K, on a
# basis whose eigensystems are built, peaks at 2.9 MiB of traced
# allocations: one group's first-pulse columns and kicks at a time, and
# each point's shares of its spectra until its reduce.  Holding each
# shell's whole first-pulse entry X (4.6 MiB) peaked at 6.6 MiB.  The bound
# sits between.
SCAN_PEAK_MIB = 4.5


def test_a_serial_averaged_scan_keeps_no_first_pulse_entry(ocs):
    basis = RotorBasis(120)
    basis._parity_halves()
    dtau, grid = 0.125 * revival_period(ocs), list(np.linspace(2.0, 10.0, 6))
    base = two_pulse_config(ocs, 1.0, grid[-1], dtau, j_max=120)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        curve = averaged_scan_p2(grid, 1.0, dtau, BeamGeometry(30.0, 15.0, 2), base, basis=basis)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(curve) == 6
    assert peak < SCAN_PEAK_MIB * 2**20, peak / 2**20


def test_pool_workers_inherit_the_basis_eigensystems(monkeypatch):
    # the parent builds the eigensystems before its workers fork, so no
    # worker runs an eigh of its own (forked workers inherit the patch, and
    # one that calls it fails its task); pooled and serial runs read the
    # same stacks
    parent, eigh = os.getpid(), np.linalg.eigh

    def parent_only(a):
        assert os.getpid() == parent, "a pool worker ran its own eigh"
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", parent_only)
    grid, geom = [0.4, 0.8, 1.2], BeamGeometry(30.0, 15.0, n_shells=2)
    base = two_pulse_config(COLD, 0.3, 1.2, DTAU, j_max=24)
    pooled = averaged_scan_p2(grid, 0.3, DTAU, geom, base, workers=2)
    assert pooled == averaged_scan_p2(grid, 0.3, DTAU, geom, base, workers=1)


_POOLED_VS_SERIAL = """
import os
from rotecho import (
    BeamGeometry, RotorBasis, averaged_scan_p2, molecule_preset, revival_period, two_pulse_config,
)
from rotecho import echo
ocs = molecule_preset("OCS")
dtau = revival_period(ocs) / 8.0
base = two_pulse_config(ocs, 1.0, 3.0, dtau, j_max=100)
geom = BeamGeometry(30.0, 15.0, n_shells=2)
serial = averaged_scan_p2([2.0, 3.0], 1.0, dtau, geom, base, workers=1)
assert averaged_scan_p2([2.0, 3.0], 1.0, dtau, geom, base, workers=2) == serial
blas = echo._openblas_threads()
if blas is not None:
    # each forked worker reports its own thread count; the parent keeps its own
    before = blas[0]()
    echo._node_task = lambda job, basis, cache: blas[0]()
    capped = min(before, max(1, os.cpu_count() // 2))
    assert echo._forked_map([None, None], RotorBasis(2), 2) == [capped, capped]
    assert blas[0]() == before
"""


def test_pooled_averaged_scan_equals_serial_without_blas_settings():
    # the workers pin their own BLAS threads; in a fresh interpreter with no
    # thread variable set, the serial run keeps the library's default
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", _POOLED_VS_SERIAL], env=env, check=True, timeout=300)


def test_averaged_scan_rejects_bad_grid():
    base = two_pulse_config(COLD, 0.2, 0.3, DTAU)
    geom = BeamGeometry(30.0, 15.0, n_shells=2)
    with pytest.raises(ValueError, match="empty"):
        averaged_scan_p2([], 0.2, DTAU, geom, base)
    with pytest.raises(ValueError, match="non-negative"):
        averaged_scan_p2([-0.1, 0.3], 0.2, DTAU, geom, base)


def test_averaged_scan_attaches_the_sin2_fit():
    grid = np.linspace(0.2, 1.2, 6)
    base = two_pulse_config(COLD, 0.2, float(grid[-1]), DTAU)
    geom = BeamGeometry(30.0, 15.0, n_shells=2)
    curve = averaged_scan_p2(grid, 0.2, DTAU, geom, base)
    assert curve.fit is not None
    assert curve.fit == fit_sin2(curve)
    assert curve.failures == ()


def test_averaged_scan_records_a_failed_fit():
    # the sign flip past the first lobe leaves too few lobe points to fit
    grid = np.linspace(0.25, 14.0, 8)
    base = two_pulse_config(COLD, 0.4, float(grid[-1]), DTAU, j_max=24)
    geom = BeamGeometry(30.0, 15.0, n_shells=2)
    curve = averaged_scan_p2(grid, 0.4, DTAU, geom, base)
    assert len(curve) == 8
    assert curve.fit is None
    ((value, message),) = curve.failures
    assert np.isnan(value)
    assert message.startswith("sin2 fit: first lobe has")


# ---------------------------------------------------------------- washout

def test_averaging_washes_out_the_first_minimum():
    # deeper sampling of the focal volume (larger probe) mixes shells
    # whose sign flips sit at different nominal kicks, filling in the
    # minimum past the peak; the depth must fall monotonically
    mol = MoleculeSpec(b_cm=0.2034, name="OCS")
    dtau = revival_period(mol) / 8.0
    grid = np.arange(2.0, 10.0 + 1e-9, 1.0)
    base = two_pulse_config(mol, 1.0, float(grid[-1]), dtau, j_max=90)
    plain = scan_p2(grid, 1.0, dtau, base, attach_fit=False)
    depths = [first_minimum_depth(plain)]
    for ratio in (0.25, 0.5, 0.75):
        geom = BeamGeometry(30.0, 30.0 * ratio, n_shells=4)
        curve = averaged_scan_p2(grid, 1.0, dtau, geom, base)
        depths.append(first_minimum_depth(curve))
    assert depths[0] == pytest.approx(5.078e-3, rel=0.01)
    assert all(a > b for a, b in zip(depths, depths[1:]))
    assert depths[-1] < 0.65 * depths[0]


# ---------------------------------------------------------------- depth

def test_depth_of_interior_minimum():
    curve = curve_from([1e-3, 5e-3, 2e-3, -1e-3, 3e-3, 4e-3])
    # |s| peaks at 5e-3, first interior minimum is |-1e-3|
    assert first_minimum_depth(curve) == pytest.approx(4e-3, rel=1e-12)


def test_depth_falls_back_to_lowest_tail_point():
    curve = curve_from([5e-3, 3e-3, 2e-3, 1e-3])
    assert first_minimum_depth(curve) == pytest.approx(4e-3, rel=1e-12)


def test_depth_input_validation():
    with pytest.raises(ValueError, match="three points"):
        first_minimum_depth(curve_from([1e-3, 2e-3]))
    with pytest.raises(ValueError, match="end of the grid"):
        first_minimum_depth(curve_from([1e-3, 2e-3, 3e-3]))
