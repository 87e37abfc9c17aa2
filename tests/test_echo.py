"""Echo layer: extraction, delay grids, scans, fits, master curve."""

import math
import os
import pickle
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotecho import (
    AlignmentTrace,
    BeamGeometry,
    BracketError,
    EchoCurve,
    EchoMeasurement,
    ExperimentConfig,
    FitError,
    MoleculeSpec,
    PulseSpec,
    SearchParams,
    Sin2Fit,
    WindowError,
    averaged_scan_p2,
    dtau_grid,
    echo_window_halfwidth,
    extract_secho,
    find_optimal_p2,
    fit_decay,
    fit_sin2,
    intensity_quadrature,
    master_curve_check,
    revival_period,
    run_isolated_echo,
    run_two_pulse,
    scan_dtau,
    scan_p2,
    two_pulse_config,
)
from rotecho import echo
from rotecho.propagate import TRACE_TAIL_FRACTION, _sample_times

# cold ensemble: same spectrum, far fewer levels, so engine-backed
# tests run in milliseconds
COLD = MoleculeSpec(b_cm=0.2034, temperature_k=30.0, name="OCS-cold")
TREV = revival_period(COLD)


def synthetic_trace(dtau, *, max_first=True, amp=1e-3):
    """Trace with one gaussian peak and one dip bracketing t = 2*dtau."""
    cfg = two_pulse_config(COLD, 0.1, 0.1, dtau)
    t = np.arange(0.0, cfg.t_end, cfg.dt_sample)
    sep = 0.5
    t_pk = 2.0 * dtau - (sep if max_first else -sep)
    t_dp = 2.0 * dtau + (sep if max_first else -sep)
    v = amp * np.exp(-((t - t_pk) / 0.2) ** 2) - amp * np.exp(-((t - t_dp) / 0.2) ** 2)
    from rotecho import AlignmentTrace

    return AlignmentTrace(times=t, values=v, config=cfg)


def test_extract_signed_amplitude_and_positions():
    dtau = 0.1 * TREV
    m = extract_secho(synthetic_trace(dtau), dtau)
    assert m.sign == +1
    assert m.s_echo == pytest.approx(2e-3, rel=1e-3)
    assert m.t_max < m.t_min
    assert abs(m.t_max - (2 * dtau - 0.5)) < 0.05
    flipped = extract_secho(synthetic_trace(dtau, max_first=False), dtau)
    assert flipped.sign == -1
    assert flipped.s_echo == pytest.approx(-2e-3, rel=1e-3)


def test_extract_flat_window_reports_zero():
    dtau = 0.1 * TREV
    trace = synthetic_trace(dtau, amp=0.0)
    m = extract_secho(trace, dtau)
    assert m.s_echo == 0.0
    assert m.sign == 0


def test_extract_window_guards():
    dtau = 0.1 * TREV
    trace = synthetic_trace(dtau)
    with pytest.raises(WindowError):
        extract_secho(trace, dtau, window_halfwidth=-1.0)
    with pytest.raises(WindowError):
        # window centered at 2*dtau pushed past the end of the trace
        extract_secho(trace, dtau, window_halfwidth=10.0 * TREV)


def test_window_halfwidth_clips_to_guard():
    # near the second pulse the window shrinks instead of overlapping it
    w = echo_window_halfwidth(0.02 * TREV, COLD)
    assert w == pytest.approx((0.02 - 0.012) * TREV, rel=1e-9)
    with pytest.raises(WindowError):
        echo_window_halfwidth(0.011 * TREV, COLD)
    full = echo_window_halfwidth(0.125 * TREV, COLD)
    assert full == pytest.approx(0.03 * TREV, rel=1e-9)


def test_dtau_grid_contents():
    grid = dtau_grid(COLD, 0.02 * TREV, 0.23 * TREV, 9)
    fracs = grid / TREV
    assert len(grid) == 8
    assert fracs[0] == pytest.approx(0.02)
    assert np.any(np.abs(fracs - 0.125) < 1e-12)
    # the requested endpoint at 0.23 T sits inside the quarter-revival
    # exclusion zone and must be dropped
    assert fracs[-1] < 0.215 + 1e-12
    for n in (1, 2, 3):
        assert np.all(np.abs(fracs - 0.25 * n) > 0.035 - 1e-12)


def test_dtau_grid_validation():
    with pytest.raises(ValueError):
        dtau_grid(COLD, -1.0, 10.0, 5)
    with pytest.raises(ValueError):
        dtau_grid(COLD, 10.0, 5.0, 5)
    with pytest.raises(ValueError):
        # every point falls in the exclusion band around T_rev/4
        dtau_grid(COLD, 0.24 * TREV, 0.26 * TREV, 3)


def test_isolated_trace_vanishes_without_either_pulse():
    dtau = 0.08 * TREV
    for p1, p2 in ((0.5, 0.0), (0.0, 0.5)):
        cfg = two_pulse_config(COLD, p1, p2, dtau)
        iso = run_isolated_echo(cfg)
        assert np.max(np.abs(iso.values)) < 1e-14


def test_scan_dtau_matches_single_point():
    dtau = 0.08 * TREV
    base = two_pulse_config(COLD, 0.5, 0.3, dtau)
    curve = scan_dtau(np.array([dtau]), 0.5, 0.3, base)
    assert len(curve) == 1
    point = curve.points[0]
    single = extract_secho(run_isolated_echo(base), dtau)
    assert point.s_echo == pytest.approx(single.s_echo, rel=1e-12)


def test_scan_captures_window_failures():
    grid = np.array([0.005 * TREV, 0.08 * TREV])
    base = two_pulse_config(COLD, 0.5, 0.3, 0.08 * TREV)
    curve = scan_dtau(grid, 0.5, 0.3, base)
    assert len(curve) == 1
    assert len(curve.failures) == 1
    assert curve.failures[0][0] == pytest.approx(0.005 * TREV)
    # a window running past the trace's end fails when the point is placed,
    # before any of its samples is evaluated, and comes back as a failure
    dtau = 0.2 * TREV
    wide = scan_dtau(np.array([dtau]), 0.5, 0.3, base, window_halfwidth=0.1 * TREV)
    assert len(wide) == 0
    ((value, message),) = wide.failures
    assert value == dtau and "outside the trace" in message


@pytest.mark.parametrize("workers", [1, 2])
def test_unplaceable_window_runs_no_shell(monkeypatch, workers):
    # 0.08*T_rev reaches past the trace's 0.06*T_rev tail, and at T/8 the
    # guard clips nothing; with nothing to run, no basis is built and no
    # worker is forked (forked workers would inherit the patched evaluator)
    def no_shell(*args, **kwargs):
        raise AssertionError("a shell, basis or worker was set up for no placeable window")

    for name in ("_node_task", "RotorBasis"):
        monkeypatch.setattr(echo, name, no_shell)
    monkeypatch.setattr(os, "fork", no_shell)
    dtau, w = 0.125 * TREV, 0.08 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    grid = [0.4, 0.8, 1.2]
    curve = averaged_scan_p2(grid, 0.5, dtau, BeamGeometry(30.0, 15.0, 4), base,
                             window_halfwidth=w, workers=workers)
    assert len(curve) == 0
    messages = []
    for p2 in grid:
        nominal = two_pulse_config(COLD, 0.5, p2, dtau, j_max=24)
        times = _sample_times(nominal)
        with pytest.raises(WindowError, match="outside the trace") as exc:
            extract_secho(AlignmentTrace(times, np.zeros(times.size), nominal), dtau, w)
        messages.append((p2, str(exc.value)))
    assert list(curve.failures) == messages


def test_scan_places_each_window_once(monkeypatch):
    # one placement per point; the kernel gets each shell's points as one
    # node, so it sees every (shell, point) pair once
    windows, nodes = [], []
    window, impulsive_values = echo._window, echo._impulsive_values

    def placing(*args):
        windows.append(args[3])
        return window(*args)

    def counting(configs, *rest):
        nodes.append([config.pulses[1].kick for config in configs])
        return impulsive_values(configs, *rest)

    monkeypatch.setattr(echo, "_window", placing)
    monkeypatch.setattr(echo, "_impulsive_values", counting)
    dtau = 0.125 * TREV
    grid = [0.3, 0.6, 0.9, 1.2]
    base = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    geom = BeamGeometry(30.0, 15.0, 3)
    curve = averaged_scan_p2(grid, 0.5, dtau, geom, base)
    assert len(curve) == 4
    assert windows == [dtau] * 4
    assert nodes == [[f * p2 for p2 in grid] for f, _ in intensity_quadrature(geom)]
    assert sum(map(len, nodes)) == 3 * 4


@pytest.mark.parametrize("shape", ["impulsive", "gaussian"])
def test_scan_points_end_their_traces_where_two_pulse_config_does(shape):
    for frac in (0.03, 0.125, 0.2):
        dtau = frac * TREV
        template = two_pulse_config(COLD, 0.5, 1.0, 0.1 * TREV, shape=shape)
        assert (two_pulse_config(COLD, 0.7, 0.3, dtau, shape=shape).t_end
                == echo._point_config(template, 0.7, 0.3, dtau).t_end)


def test_scan_p2_parallel_matches_serial():
    grid = np.linspace(0.3, 2.1, 4)
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau)
    serial = scan_p2(grid, 0.5, dtau, base, attach_fit=False, workers=1)
    parallel = scan_p2(grid, 0.5, dtau, base, attach_fit=False, workers=2)
    assert np.array_equal(serial.s_values(), parallel.s_values())
    # a zero separation is a caller's mistake, not a curve of point failures
    with pytest.raises(ValueError, match="dtau must be positive"):
        scan_p2(grid, 0.5, 0.0, base, attach_fit=False)


def test_pooled_scan_builds_its_basis_once_in_the_parent(monkeypatch):
    # forked workers inherit the wrapper, so a build in a worker breaks the pool
    parent, built = os.getpid(), []
    init = echo.RotorBasis.__init__

    def parent_only(self, j_max):
        if os.getpid() != parent:
            raise AssertionError("a pool worker built a basis")
        built.append(j_max)
        init(self, j_max)

    monkeypatch.setattr(echo.RotorBasis, "__init__", parent_only)
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    grid = [0.4, 0.8, 1.2]
    curve = averaged_scan_p2(grid, 0.5, dtau, BeamGeometry(30.0, 15.0, 3), base, workers=2)
    assert len(curve) == len(grid)
    assert built == [24]


@settings(max_examples=10, deadline=None)
@given(
    j_max=st.integers(18, 24),
    p1=st.floats(0.1, 1.5),
    frac=st.floats(0.02, 0.48),
    p2_grid=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=4, unique=True),
    frac_grid=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
)
def test_pooled_plain_scans_equal_serial_ones(j_max, p1, frac, p2_grid, frac_grid):
    base = two_pulse_config(COLD, p1, 1.0, frac * TREV, j_max=j_max)
    for scan in (
        lambda workers: scan_p2(p2_grid, p1, frac * TREV, base, attach_fit=False, workers=workers),
        lambda workers: scan_dtau([f * TREV for f in frac_grid], p1, 1.0, base, workers=workers),
    ):
        serial, pooled = scan(1), scan(2)
        assert pooled.points == serial.points
        assert pooled.failures == serial.failures


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # each forked worker is a full process; count the forks of each scan
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau)
    started = []
    for scan in (
        # one node, two single-value chunks
        lambda: scan_p2([0.3, 0.6], 0.5, dtau, base, attach_fit=False, workers=8),
        # three nodes against two workers: each node is one chunk
        lambda: averaged_scan_p2([0.3, 0.6, 0.9, 1.0], 0.5, dtau, BeamGeometry(30.0, 15.0, 3),
                                 base, workers=2),
        # one node at one point: a single chunk runs serially
        lambda: averaged_scan_p2([0.3], 0.5, dtau, BeamGeometry(30.0, 15.0, 1), base, workers=3),
    ):
        before = len(forks)
        scan()
        started.append(len(forks) - before)
    assert started == [2, 2, 0]


def test_a_pool_gets_runs_of_contiguous_points_of_one_node(monkeypatch):
    # with fewer nodes than workers, each node splits into ceil(workers /
    # nodes) runs of contiguous points, so each run builds its shell's first
    # pulse once; the parent only forks, reads and reaps (forked workers
    # inherit the patched evaluator, which refuses only the parent)
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    cases = []
    for shells, count, workers, run in ((1, 6, 2, 3), (2, 5, 3, 3)):
        geom, grid = BeamGeometry(30.0, 15.0, shells), list(np.linspace(0.3, 1.8, count))
        serial = averaged_scan_p2(grid, 0.5, dtau, geom, base)
        cases.append((geom, grid, workers, run, serial))
    handed, forked_map, node_task, parent = [], echo._forked_map, echo._node_task, os.getpid()

    def spying(jobs, basis, workers):
        handed.append([[config.pulses[1].kick for config, _ in points] for points, _ in jobs])
        return forked_map(jobs, basis, workers)

    def children_only(*args):
        assert os.getpid() != parent, "the parent ran a job"
        return node_task(*args)

    monkeypatch.setattr(echo, "_forked_map", spying)
    monkeypatch.setattr(echo, "_node_task", children_only)
    for geom, grid, workers, run, serial in cases:
        pooled = averaged_scan_p2(grid, 0.5, dtau, geom, base, workers=workers)
        assert handed.pop() == [[f * p2 for p2 in grid[i : i + run]]
                                for f, _ in intensity_quadrature(geom) for i in range(0, len(grid), run)]
        assert pooled.points == serial.points and pooled.failures == serial.failures
        with pytest.raises(ChildProcessError):  # every worker reaped
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error, raised, message", [
    (ValueError("no node today"), ValueError, "^no node today$"),
    # a lambda does not pickle, so neither does an exception holding one
    (ValueError(lambda: None), RuntimeError, r"raised ValueError\(<function .*\), which does not pickle"),
])
def test_a_failure_in_every_worker_reaches_the_caller(monkeypatch, error, raised, message):
    # forked workers inherit the patched node task; the parent raises what a
    # worker sent, or a RuntimeError naming what did not pickle, only after it
    # has reaped every worker
    def failing(*args):
        raise error

    monkeypatch.setattr(echo, "_node_task", failing)
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    with pytest.raises(raised, match=message):
        averaged_scan_p2([0.4, 0.8, 1.2], 0.5, dtau, BeamGeometry(30.0, 15.0, 2), base, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_killed_mid_write_is_named(monkeypatch):
    # a worker killed after half its pickle leaves truncated bytes in its
    # pipe; the parent reaps every worker and names the first by its wait
    # status rather than unpickling what it sent
    def killed(jobs, basis, workers, sink, inherited):
        try:
            for pipe in inherited:
                pipe.close()
            data = pickle.dumps([list(range(1000))])
            sink.write(data[: len(data) // 2])
            sink.flush()
        finally:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(echo, "_forked_child", killed)
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    with pytest.raises(RuntimeError, match=r"^scan worker 0 ended without a result \(status=9\)$"):
        averaged_scan_p2([0.4, 0.8, 1.2], 0.5, dtau, BeamGeometry(30.0, 15.0, 2), base, workers=2)
    with pytest.raises(ChildProcessError):  # no worker left
        os.waitpid(-1, os.WNOHANG)


def _check_scans_keep_molecules_apart(scan):
    # OCS at 30 K and at 296 K differ only in the molecule, which the
    # kernel's first-pulse entry key omits; a cache that outlived one
    # scan's pool (or one serial scan) would hand the second scan the first
    # one's trace
    grid = np.linspace(0.3, 2.1, 4)
    dtau = 0.125 * TREV
    configs = [
        two_pulse_config(mol, 0.5, 1.0, dtau)
        for mol in (COLD, MoleculeSpec(b_cm=0.2034, name="OCS"))
    ]
    pooled = [scan(grid, dtau, cfg, 2) for cfg in configs]
    serial = [scan(grid, dtau, cfg, 1) for cfg in configs[::-1]][::-1]
    for p, s in zip(pooled, serial):
        assert p.s_values().tobytes() == s.s_values().tobytes()
    assert not np.allclose(pooled[0].s_values(), pooled[1].s_values())


def test_pooled_scans_keep_their_first_pulse_traces_apart():
    _check_scans_keep_molecules_apart(
        lambda grid, dtau, cfg, workers: scan_p2(grid, 0.5, dtau, cfg, attach_fit=False, workers=workers)
    )


def test_pooled_averaged_scans_keep_their_first_pulse_traces_apart():
    geometry = BeamGeometry(30.0, 15.0, 1)
    _check_scans_keep_molecules_apart(
        lambda grid, dtau, cfg, workers: averaged_scan_p2(grid, 0.5, dtau, geometry, cfg, workers=workers)
    )


def test_echo_curve_validation():
    pts = tuple(
        EchoMeasurement(dtau=1.0, p1_kick=1.0, p2_kick=p, s_echo=0.1, t_max=2.0, t_min=2.1)
        for p in (0.5, 0.2)
    )
    with pytest.raises(ValueError):
        EchoCurve("p2_kick", pts)  # unsorted axis
    with pytest.raises(ValueError):
        EchoCurve("banana", pts[:1])


def _sin2_curve(a, b, grid, p1=1.0, dtau=10.0):
    points = tuple(
        EchoMeasurement(
            dtau=dtau,
            p1_kick=p1,
            p2_kick=float(x),
            s_echo=a * math.sin(b * x) ** 2,
            t_max=2 * dtau - 0.2,
            t_min=2 * dtau + 0.2,
        )
        for x in grid
    )
    return EchoCurve("p2_kick", points)


def test_fit_sin2_exact_recovery():
    a, b = 4.2e-3, 0.51
    curve = _sin2_curve(a, b, np.linspace(0.25, 3.0, 12))
    fit = fit_sin2(curve)
    assert abs(fit.a - a) / a < 1e-9
    assert abs(fit.b - b) / b < 1e-9
    assert fit.residual < 1e-9


def test_fit_sin2_quadratic_limit_pins_product():
    # far below the first peak the parameters degenerate along an
    # a*b^2 = const ridge: the product stays pinned to a few percent
    # and the fitted curve still reproduces the data
    a, b = 2.0e-3, 0.5
    grid = np.linspace(0.02, 0.2, 8)
    curve = _sin2_curve(a, b, grid)
    fit = fit_sin2(curve)
    assert fit.a * fit.b**2 == pytest.approx(a * b**2, rel=0.05)
    predicted = fit.value(grid)
    actual = curve.s_values()
    assert np.max(np.abs(predicted - actual)) < 0.02 * actual[-1]


def test_fit_sin2_needs_enough_lobe_points():
    curve = _sin2_curve(1e-3, 0.5, np.linspace(0.3, 1.2, 4))
    with pytest.raises(FitError):
        fit_sin2(curve)


def test_fit_sin2_lobe_cropping():
    # points beyond the first sign change are discarded automatically
    a, b = 3.0e-3, 0.6
    grid = np.linspace(0.25, 4.5, 14)
    values = a * np.sin(b * grid) ** 2
    beyond = grid > math.pi / b
    values[beyond] = -0.4 * values[beyond]  # inverted second lobe
    points = tuple(
        EchoMeasurement(10.0, 1.0, float(x), float(s), 19.8, 20.2)
        for x, s in zip(grid, values)
    )
    fit = fit_sin2(EchoCurve("p2_kick", points))
    assert fit.n_points == int(np.sum(~beyond))
    assert abs(fit.b - b) / b < 1e-6


def test_fit_sin2_lobe_ending_past_the_model_zero():
    # the lobe is cut at its |s| minimum, 6.3, just past the zero at 2*pi;
    # a b bracket ending at pi/6.3 would exclude the true b = 0.5
    a, b = 1e-3, 0.5
    fit = fit_sin2(_sin2_curve(a, b, np.arange(0.3, 8.0, 0.3)))
    assert fit.n_points == 21
    assert fit.b == pytest.approx(b, rel=1e-9)
    assert fit.a == pytest.approx(a, rel=1e-9)


def test_projected_fits_match_curve_fit_on_noisy_data():
    # the projected searches reach curve_fit's optimum: no larger sum of
    # squares, and the same parameters to 1e-4
    curve_fit = pytest.importorskip("scipy.optimize").curve_fit
    rng = np.random.default_rng(7)
    x = np.linspace(0.25, 4.0, 16)
    y = 3e-3 * np.sin(0.55 * x) ** 2 + rng.normal(0.0, 5e-5, x.size)
    fit = fit_sin2(EchoCurve("p2_kick", tuple(
        EchoMeasurement(10.0, 1.0, float(p2), float(s), 19.8, 20.2) for p2, s in zip(x, y))))
    x = x[: fit.n_points]
    y = y[: fit.n_points]
    (a, b), _ = curve_fit(lambda p2, a, b: a * np.sin(b * p2) ** 2, x, y, p0=(3e-3, 0.5),
                          bounds=([0.0, 0.0], [np.inf, np.inf]), ftol=1e-13, xtol=1e-13)
    assert np.sum((fit.value(x) - y) ** 2) <= np.sum((a * np.sin(b * x) ** 2 - y) ** 2) * (1 + 1e-9)
    assert (fit.a, fit.b) == (pytest.approx(a, rel=1e-4), pytest.approx(b, rel=1e-4))

    t = np.linspace(10.0, 60.0, 8)
    y = 5e-3 * np.exp(-8e-3 * t) + rng.normal(0.0, 5e-5, t.size)
    fit = fit_decay(zip(t / 2.0, y))
    (amp, rate), _ = curve_fit(lambda tt, amp, rate: amp * np.exp(-rate * tt), t, y, p0=(5e-3, 8e-3))
    ours = np.sum((fit.amplitude * np.exp(-fit.rate * t) - y) ** 2)
    assert ours <= np.sum((amp * np.exp(-rate * t) - y) ** 2) * (1 + 1e-9)
    assert (fit.amplitude, fit.rate) == (pytest.approx(amp, rel=1e-4), pytest.approx(rate, rel=1e-4))


def test_fit_sin2_on_a_monotone_rise_reaches_curve_fits_optimum():
    # the averaged cold scan's six points rise without a peak, so only a*b**2
    # is well determined: from the start values the fit once used, curve_fit
    # stops short on that ridge, and from the projected answer it stays put
    curve_fit = pytest.importorskip("scipy.optimize").curve_fit
    x = np.linspace(0.25, 1.5, 6)
    y = np.array([5.17712004568e-05, 2.04814162617e-04, 4.53032585069e-04,
                  7.8654580992e-04, 1.19208621472e-03, 1.6535319353e-03])
    fit = fit_sin2(EchoCurve("p2_kick", tuple(
        EchoMeasurement(10.0, 1.0, float(p2), float(s), 19.8, 20.2) for p2, s in zip(x, y))))
    assert fit.n_points == 6
    ours = np.sum((fit.value(x) - y) ** 2)
    for p0 in ((4.0 * y[-1], 0.5 / x[-1]), (fit.a, fit.b)):
        (a, b), _ = curve_fit(lambda p2, a, b: a * np.sin(b * p2) ** 2, x, y, p0=p0,
                              bounds=([0.0, 0.0], [np.inf, np.inf]), ftol=1e-13, xtol=1e-13)
        assert ours <= np.sum((a * np.sin(b * x) ** 2 - y) ** 2) * (1 + 1e-9)


def test_fit_decay_with_a_point_at_the_noise_floor_matches_curve_fit():
    # an unweighted log-linear estimate gives the 1e-9 tail point as much
    # weight as the large ones and lands e**10 away from the least-squares decay
    curve_fit = pytest.importorskip("scipy.optimize").curve_fit
    dtau = np.array([5.0, 10.0, 15.0, 20.0])
    y = np.array([1e-3, 5e-4, 2.5e-4, 1e-9])
    fit = fit_decay(zip(dtau, y))
    t = 2.0 * dtau
    (amp, rate), _ = curve_fit(lambda tt, amp, rate: amp * np.exp(-rate * tt), t, y, p0=(1e-3, 0.07))
    ours = np.sum((fit.amplitude * np.exp(-fit.rate * t) - y) ** 2)
    assert ours <= np.sum((amp * np.exp(-rate * t) - y) ** 2) * (1 + 1e-9)
    assert (fit.amplitude, fit.rate) == (pytest.approx(amp, rel=1e-4), pytest.approx(rate, rel=1e-4))


def test_fit_decay_raises_when_the_fit_ends_at_its_search_edge():
    # one step to the noise floor: every faster decay fits better, so the
    # search runs to its bracket edge, and that edge is not reported as a rate
    with pytest.raises(FitError, match="decay fit ends at its search edge"):
        fit_decay([(5.0, 1e-3), (10.0, 1e-9), (15.0, 1e-9), (20.0, 1e-9)])


def test_fit_decay_recovers_rate():
    rate, amp = 8.0e-3, 5.0e-3
    pairs = [(d, amp * math.exp(-rate * 2 * d)) for d in (5.0, 10.0, 18.0, 26.0, 40.0)]
    fit = fit_decay(pairs)
    assert fit.rate == pytest.approx(rate, rel=1e-6)
    assert fit.amplitude == pytest.approx(amp, rel=1e-6)
    assert not fit.negative


def test_fit_decay_flat_data_is_zero_not_negative():
    pairs = [(d, 2.0e-3) for d in (5.0, 10.0, 15.0, 20.0)]
    fit = fit_decay(pairs)
    assert abs(fit.rate) < 1e-6
    assert not fit.negative


def test_fit_decay_flags_growth():
    pairs = [(d, 1e-3 * math.exp(+4e-3 * 2 * d)) for d in (5.0, 12.0, 20.0, 30.0)]
    fit = fit_decay(pairs)
    assert fit.negative
    assert fit.rate == pytest.approx(-4e-3, rel=1e-6)


def test_fit_decay_needs_four_points():
    with pytest.raises(FitError):
        fit_decay([(5.0, 1.0), (10.0, 0.9), (15.0, 0.8)])


def test_master_curve_collapse_and_factor_convention():
    a = 1.0e-3
    wide = _sin2_curve(a, 0.4, np.linspace(0.5, 6.0, 12))
    narrow = _sin2_curve(a, 0.8, np.linspace(0.25, 3.0, 12))
    result = master_curve_check([wide, narrow])
    assert result.reference_index == 0
    assert result.factors[0] == 1.0
    # the narrower curve folds onto the reference with factor b_ref/b
    assert result.factors[1] == pytest.approx(0.5, rel=1e-2)
    assert result.residual < 1e-3


def test_point_config_keeps_both_pulse_shapes_of_the_template():
    base = ExperimentConfig(
        molecule=COLD,
        pulses=(PulseSpec(t0=0.0, kick=1.0, duration_fwhm=0.2, shape="gaussian"),
                PulseSpec(t0=6.0, kick=0.5, duration_fwhm=0.15, shape="impulsive")),
        t_end=20.0,
        dt_sample=0.05,
        j_max=24,
    )
    dtau = 0.1 * TREV
    cfg = echo._point_config(base, 0.7, 0.3, dtau)
    first, second = cfg.pulses
    assert (first.shape, first.duration_fwhm, first.kick, first.t0) == ("gaussian", 0.2, 0.7, 0.0)
    assert (second.shape, second.duration_fwhm, second.kick, second.t0) == (
        "impulsive", 0.15, 0.3, dtau)
    assert (cfg.j_max, cfg.dt_sample) == (24, 0.05)
    # t_end tracks this point's echo, as two_pulse_config places it
    assert cfg.t_end == 2.0 * dtau + TRACE_TAIL_FRACTION * TREV
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="dtau must be positive"):
            echo._point_config(base, 0.7, 0.3, bad)


def test_master_curve_skips_trial_factors_that_leave_too_few_points(monkeypatch):
    # the reference spans only [3, 6]; trial factors below about 0.43 push
    # the narrow curve's upper points past 6, leaving fewer than 6 in span,
    # and the search tries only factors that can keep 6
    golden_max, tried = echo._golden_max, []

    def recording(f, lo, hi, rel_tol):
        def traced(x):
            value = f(x)
            tried.append((x, -value))  # the search maximises minus the misfit
            return value
        return golden_max(traced, lo, hi, rel_tol)

    monkeypatch.setattr(echo, "_golden_max", recording)
    a = 1.0e-3
    wide = _sin2_curve(a, 0.4, np.linspace(3.0, 6.0, 16))
    x = np.linspace(1.5, 3.0, 8)
    result = master_curve_check([wide, _sin2_curve(a, 0.8, x)])
    assert tried
    assert all(np.count_nonzero((x / f >= 3.0) & (x / f <= 6.0)) >= 6 for f, _ in tried)
    assert all(misfit < 1e9 for _, misfit in tried)
    assert result.factors == (1.0, pytest.approx(0.5, rel=1e-3))
    # the 6 points span a ratio of 4.8, the reference 3: no factor keeps all 6
    sparse = _sin2_curve(a, 0.8, np.linspace(0.5, 2.4, 6))
    with pytest.raises(FitError, match=r"^curve 1 keeps only [0-5] points inside "
                       r"the reference span after rescaling$"):
        master_curve_check([_sin2_curve(a, 0.4, np.linspace(2.0, 6.0, 12)), sparse])


def test_master_curve_finds_a_collapse_that_keeps_few_points_in_span():
    # only factors near 0.5 keep 6 of the 8 narrow points inside [2, 6]; the
    # residual's floor is the 12-point reference's linear interpolation, 3.0e-3
    a = 1.0e-3
    reference = _sin2_curve(a, 0.4, np.linspace(2.0, 6.0, 12))
    result = master_curve_check([reference, _sin2_curve(a, 0.8, np.linspace(0.5, 2.4, 8))])
    assert result.factors == (1.0, pytest.approx(0.5, rel=1e-3))
    assert result.residual < 5e-3


def test_master_curve_rejects_mismatched_p1():
    a = 1.0e-3
    c1 = _sin2_curve(a, 0.4, np.linspace(0.5, 6.0, 12), p1=1.0)
    c2 = _sin2_curve(a, 0.8, np.linspace(0.25, 3.0, 12), p1=0.5)
    with pytest.raises(ValueError):
        master_curve_check([c1, c2])


def test_find_optimal_p2_agrees_with_dense_scan(monkeypatch):
    monkeypatch.setattr(echo, "REL_TOL", 1e-4)
    dtau = 0.125 * TREV
    base = two_pulse_config(COLD, 0.5, 1.0, dtau)
    p2_opt, s_max = find_optimal_p2(dtau, 0.5, base, SearchParams(p2_max=8.0))
    dense = scan_p2(np.linspace(0.2, 8.0, 40), 0.5, dtau, base, attach_fit=False)
    i = int(np.argmax(np.abs(dense.s_values())))
    assert abs(p2_opt - dense.axis_values()[i]) < 0.25
    assert s_max >= np.abs(dense.s_values())[i] * 0.999


def test_find_optimal_p2_measures_the_coarse_grid_only_up_to_the_bracket(monkeypatch):
    # every p2 is measured once, and the coarse points are the grid's prefix
    # that ends at the first point closing an interior maximum of |s|; each
    # evaluation, like run_isolated_echo, is one one-point kernel node of the
    # scans' evaluator
    measured, evaluations, jobs = [], [], []
    trace_values, echo_point, node_task = echo._trace_values, echo._echo_point, echo._node_task

    def counting(config, *rest):
        evaluations.append(config.pulses[1].kick)
        return trace_values(config, *rest)

    def recording(*args):
        point = echo_point(*args)
        measured.append((point.p2_kick, abs(point.s_echo)))
        return point

    def spying(job, *rest):
        jobs.append(job)
        return node_task(job, *rest)

    monkeypatch.setattr(echo, "_trace_values", counting)
    monkeypatch.setattr(echo, "_echo_point", recording)
    monkeypatch.setattr(echo, "_node_task", spying)
    dtau = 0.125 * TREV
    find_optimal_p2(dtau, 0.5, two_pulse_config(COLD, 0.5, 1.0, dtau), SearchParams(p2_max=8.0))
    p2s = [p2 for p2, _ in measured]
    assert evaluations == p2s
    assert [(len(points), kernel) for points, kernel in jobs] == [(1, True)] * len(evaluations)
    assert [points[0][0].pulses[1].kick for points, _ in jobs] == evaluations
    jobs.clear()
    config = two_pulse_config(COLD, 0.5, 1.0, dtau, j_max=24)
    run_isolated_echo(config)
    assert jobs == [([(config, slice(None))], True)]
    assert len(set(p2s)) == len(p2s)
    grid = list(np.linspace(8.0 / echo.COARSE_POINTS, 8.0, echo.COARSE_POINTS))
    k = next(i for i, p2 in enumerate(p2s) if p2 not in grid) - 2
    assert p2s[: k + 2] == grid[: k + 2] and k + 2 < len(grid)
    vals = [v for _, v in measured[: k + 2]]
    closing = [i for i in range(1, k + 1) if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    assert closing == [k]
    assert all(grid[k - 1] < p2 < grid[k + 1] for p2 in p2s[k + 2 :])


def test_find_optimal_p2_reports_a_bracket_that_never_closes():
    # at T/8 the cold echo still rises past p2 = 1.25, where the third
    # extension of a coarse grid over (0, 0.5] ends
    dtau = 0.125 * TREV
    with pytest.raises(BracketError) as exc:
        find_optimal_p2(dtau, 0.5, two_pulse_config(COLD, 0.5, 1.0, dtau), SearchParams(p2_max=0.5))
    assert str(exc.value) == "no interior |s_echo| maximum below p2 = 1.25 after 3 bracket extensions"


def _p2_points(values):
    return tuple(
        EchoMeasurement(dtau=10.0, p1_kick=1.0, p2_kick=0.1 * (i + 1), s_echo=s, t_max=19.8, t_min=20.2)
        for i, s in enumerate(values)
    )


_T8 = two_pulse_config(COLD, 0.5, 1.0, 0.125 * TREV, j_max=24)
_LOBE = EchoCurve("p2_kick", _p2_points([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: dtau_grid(COLD, 0.1 * TREV, 0.2 * TREV, 1), ValueError,
         "need at least two grid points"),
        (lambda: scan_dtau([], 0.5, 1.0, _T8), ValueError, "empty separation grid"),
        (lambda: scan_dtau([TREV], 0.5, 1.0, _T8), ValueError,
         "separations must lie strictly inside (0, T_rev)"),
        (lambda: extract_secho(run_two_pulse(_T8), 0.125 * TREV, 1e-3), WindowError,
         "window contains fewer than 3 samples"),
        (lambda: run_isolated_echo(replace(_T8, pulses=_T8.pulses[:1])), ValueError,
         "isolation needs exactly two pulses"),
        (lambda: EchoCurve("dtau", (), fit=Sin2Fit(1.0, 1.0, 0.0, 6)), ValueError,
         "fits only attach to p2 scans"),
        (lambda: fit_sin2(EchoCurve("dtau", ())), ValueError, "sin2 fit applies to p2 scans"),
        (lambda: fit_sin2(EchoCurve("p2_kick", _p2_points([0.0] * 6))), FitError,
         "first lobe has no positive amplitude to fit"),
        (lambda: SearchParams(p2_max=0.0), ValueError, "p2_max must be positive"),
        (lambda: master_curve_check([_LOBE]), ValueError, "need at least two curves"),
        (lambda: master_curve_check([_LOBE, EchoCurve("dtau", ())]), ValueError,
         "master-curve check applies to p2 scans"),
        (lambda: master_curve_check([_LOBE, EchoCurve("p2_kick", _LOBE.points[:5])]), ValueError,
         "each curve needs at least 6 points"),
        (lambda: master_curve_check([EchoCurve("p2_kick", _p2_points([0.0] * 6)), _LOBE]), ValueError,
         "reference curve is flat"),
        (lambda: fit_decay([(5.0, 1e-3), (8.0, -1e-3), (11.0, 0.0), (14.0, -2e-3)]), FitError,
         "need at least two positive amplitudes"),
        (lambda: fit_decay([(5.0, 1.0), (5.0, 0.9), (5.0, 0.8), (5.0, 0.85)]), FitError,
         "need at least two distinct delays"),
    ],
)
def test_guard_messages(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
