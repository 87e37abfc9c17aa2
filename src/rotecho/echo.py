"""Echo amplitude extraction and the delay / second-pulse parameter scans.

The rephased transient appears at twice the pulse separation.  Its
scalar amplitude is the peak-to-peak difference inside a window centred
on that time, signed positive when the maximum comes before the minimum
(phase-inverted transients come out negative).

Measuring the transient on the bare two-pulse trace works when it
dominates everything else under the window, which holds for kick
strengths around unity and separations well inside a revival quadrant.
Outside that regime the window also picks up the slowly decaying
single-pulse response, which swamps the cross term: the rephased signal
scales as p1*p2**2 while the single-pulse background scales as the kick
itself.  The scan drivers therefore always subtract the two
single-pulse traces, which removes every delay-independent term and
leaves the rephased transient on a flat baseline; a raw trace is
measured as ``extract_secho(run_two_pulse(cfg), dtau)``.
``extract_secho`` itself never simulates anything and measures whatever
trace it is handed.  One evaluator serves every scan and the optimum
search: a point's window is placed once, before any node runs, and the
nodes' window samples are summed in fixed node order and measured once.
Scans run node-major, so an averaged scan builds each shell's first pulse
once; a pooled scan forks workers that pipe their points to an idle parent.
Its first step, ``_node_task``, also traces ``run_isolated_echo`` and alone
picks the engine: propagate's amplitude kernel for impulsive points of the
search, averaged scans and ``run_isolated_echo``; ``run_pulse_sequence`` for
plain scans (the density matrix) and gaussian configs (the thermal columns).

Delay grids need two guards, both exposed as module constants: the
window must not reach back into the second pulse's prompt response, and
separations within a few percent of a quarter revival produce a
genuinely degraded rephasing (the echo rides on the fundamental revival
structure there), so ``dtau_grid`` drops them.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .basis import MoleculeSpec, RotorBasis, revival_period
from .errors import BracketError, FitError, ToleranceError, WindowError
from .propagate import (
    AlignmentTrace,
    ExperimentConfig,
    _impulsive_values,
    _sample_times,
    _trace_end,
    run_pulse_sequence,
    run_two_pulse,
)

# Default halfwidth of the extraction window, as a fraction of T_rev.
DEFAULT_WINDOW_FRACTION = 0.03

# The window's left edge is kept at least this far (fraction of T_rev)
# after the second pulse; closer in, the prompt response has not decayed.
WINDOW_GUARD_FRACTION = 0.012

# Delays closer than this (fraction of T_rev) to a quarter-revival
# multiple are dropped by dtau_grid: the rephasing efficiency is
# measurably degraded there even after background isolation.
EXCLUSION_HALFWIDTH_FRACTION = 0.035

# Smallest usable pulse separation, as a fraction of T_rev.
MIN_DTAU_FRACTION = 0.02

# Window spans with total swing below this count as flat (no echo).
FLAT_TRACE_FLOOR = 1e-14

# The optimal-p2 search's coarse grid over (0, p2_max], and how many times
# it may extend that grid by half its length while |s_echo| still rises.
COARSE_POINTS = 12
MAX_EXTENSIONS = 3

# Relative width in p2 at which the golden-section refinement stops.
REL_TOL = 1e-3

# Relative bracket width at which the fits' searches stop: far below any
# fitted value's uncertainty, and reached in about 60 evaluations.
FIT_REL_TOL = 1e-12

_SCAN_AXES = ("dtau", "p2_kick")


@dataclass(frozen=True)
class EchoMeasurement:
    """One extracted echo amplitude and where its extremal pair sits."""

    dtau: float
    p1_kick: float
    p2_kick: float
    s_echo: float
    t_max: float
    t_min: float

    @property
    def sign(self) -> int:
        if self.s_echo == 0.0:
            return 0
        return 1 if self.s_echo > 0 else -1


@dataclass(frozen=True)
class Sin2Fit:
    """Parameters of s = a*sin(b*p2)**2 over the first lobe."""

    a: float
    b: float
    residual: float
    n_points: int

    def value(self, p2: float | np.ndarray) -> float | np.ndarray:
        return self.a * np.sin(self.b * np.asarray(p2)) ** 2


@dataclass(frozen=True)
class EchoCurve:
    """Echo amplitudes along one scan axis, with optional attached fit.

    ``failures`` records per-point extraction problems as
    (axis value, message) pairs; failed points are simply absent from
    ``points``.  A failed sin² fit of a p2 scan is recorded there too,
    with axis value nan.
    """

    scan_axis: str
    points: tuple[EchoMeasurement, ...]
    fit: Sin2Fit | None = None
    failures: tuple[tuple[float, str], ...] = ()

    def __post_init__(self) -> None:
        if self.scan_axis not in _SCAN_AXES:
            raise ValueError(f"scan_axis must be one of {_SCAN_AXES}")
        ax = self.axis_values()
        if np.any(np.diff(ax) < 0):
            raise ValueError("curve points must be sorted on the scan axis")
        if self.fit is not None and self.scan_axis != "p2_kick":
            raise ValueError("fits only attach to p2 scans")

    def axis_values(self) -> np.ndarray:
        if self.scan_axis == "dtau":
            return np.array([p.dtau for p in self.points])
        return np.array([p.p2_kick for p in self.points])

    def s_values(self) -> np.ndarray:
        return np.array([p.s_echo for p in self.points])

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MasterCurveResult:
    """Per-curve axis rescale factors and the pooled collapse residual."""

    factors: tuple[float, ...]
    residual: float
    reference_index: int


@dataclass(frozen=True)
class DecayFit:
    """Exponential decay of peak echo amplitude versus echo time 2*dtau."""

    rate: float
    amplitude: float
    residual: float
    negative: bool


def _halfwidth(molecule: MoleculeSpec, requested: float | None) -> float:
    """The requested halfwidth, or the default share of T_rev for None."""
    w = DEFAULT_WINDOW_FRACTION * revival_period(molecule) if requested is None else float(requested)
    if w <= 0.0:
        raise WindowError("window halfwidth must be positive")
    return w


def echo_window_halfwidth(
    dtau: float,
    molecule: MoleculeSpec,
    requested: float | None = None,
) -> float:
    """Halfwidth actually usable at this separation.

    Clips the requested (or default 0.03*T_rev) halfwidth so the window
    stays clear of the second pulse by WINDOW_GUARD_FRACTION*T_rev.
    """
    guard = WINDOW_GUARD_FRACTION * revival_period(molecule)
    w_eff = min(_halfwidth(molecule, requested), dtau - guard)
    if w_eff <= 0.0:
        raise WindowError(
            f"separation {dtau:.3f} ps leaves no room for an extraction window "
            f"(guard {WINDOW_GUARD_FRACTION:.3f}*T_rev)"
        )
    return w_eff


def dtau_grid(
    molecule: MoleculeSpec,
    start: float,
    stop: float,
    count: int,
) -> np.ndarray:
    """Equidistant separations with the quarter-revival zones removed.

    Points within EXCLUSION_HALFWIDTH_FRACTION*T_rev of any n*T_rev/4
    are dropped, as are points below MIN_DTAU_FRACTION*T_rev, so the
    returned grid can be shorter than ``count``.
    """
    t_rev = revival_period(molecule)
    if not 0.0 < start < stop:
        raise ValueError("need 0 < start < stop")
    if count < 2:
        raise ValueError("need at least two grid points")
    grid = np.linspace(start, stop, count)
    keep = grid >= MIN_DTAU_FRACTION * t_rev
    # Nearest quarter-revival multiple, n >= 1; separations near zero are
    # governed by the floor and the window guard, not by this zone.
    n_quarters = np.maximum(np.rint(grid / (0.25 * t_rev)), 1.0)
    keep &= np.abs(grid - n_quarters * 0.25 * t_rev) >= EXCLUSION_HALFWIDTH_FRACTION * t_rev
    out = grid[keep]
    if out.size == 0:
        raise ValueError("no separations survive the exclusion zones")
    return out


def _window_mask(times: np.ndarray, dtau: float, w: float) -> np.ndarray:
    """Mask of [2*dtau - w, 2*dtau + w] in times; WindowError if off the grid or < 3 samples."""
    lo, hi = 2.0 * dtau - w, 2.0 * dtau + w
    if lo < times[0] - 1e-12 or hi > times[-1] + 1e-12:
        raise WindowError(
            f"window [{lo:.3f}, {hi:.3f}] ps falls outside the trace "
            f"[{times[0]:.3f}, {times[-1]:.3f}] ps"
        )
    select = (times >= lo) & (times <= hi)
    if np.count_nonzero(select) < 3:
        raise WindowError("window contains fewer than 3 samples")
    return select


def extract_secho(
    trace: AlignmentTrace,
    dtau: float,
    window_halfwidth: float | None = None,
) -> EchoMeasurement:
    """Signed peak-to-peak amplitude in the window around t = 2*dtau.

    The window is [2*dtau - w, 2*dtau + w] and must lie inside the
    trace.  Sign is +1 when the maximum precedes the minimum.  A swing
    below FLAT_TRACE_FLOOR reports zero.  The measurement is taken on
    the trace exactly as given; see the module docstring for when a
    background-isolated trace is the right input.
    """
    select = _window_mask(trace.times, dtau, _halfwidth(trace.config.molecule, window_halfwidth))
    tw, vw = trace.times[select], trace.values[select]

    pulses = trace.config.pulses
    p1_kick = pulses[0].kick if len(pulses) == 2 else math.nan
    p2_kick = pulses[1].kick if len(pulses) == 2 else math.nan

    i_max = int(np.argmax(vw))
    i_min = int(np.argmin(vw))
    swing = float(vw[i_max] - vw[i_min])
    if swing < FLAT_TRACE_FLOOR:
        s = 0.0
    else:
        s = swing if tw[i_max] < tw[i_min] else -swing
    return EchoMeasurement(
        dtau=float(dtau),
        p1_kick=p1_kick,
        p2_kick=p2_kick,
        s_echo=s,
        t_max=float(tw[i_max]),
        t_min=float(tw[i_min]),
    )


def _trace_values(config: ExperimentConfig, basis: RotorBasis, cache: dict, select=slice(None)) -> np.ndarray:
    """Isolated trace of a two-pulse config on the ``select`` part of its grid:
    its one-point node run through ``_node_task`` with kernel; a tolerance problem raises."""
    (values,) = _node_task(([(config, select)], True), basis, cache)
    if isinstance(values, ToleranceError):
        raise values
    return values


def run_isolated_echo(config: ExperimentConfig) -> AlignmentTrace:
    """Two-pulse trace minus both single-pulse traces.

    Removes every term that depends on only one of the pulses (prompt
    response, ring-down, revivals), leaving the cross term that carries
    the rephased transient on a zero baseline.  Exact zero when either
    kick is zero.
    """
    if len(config.pulses) != 2:
        raise ValueError("isolation needs exactly two pulses")
    basis = RotorBasis(config.resolve_j_max())
    return AlignmentTrace(_sample_times(config), _trace_values(config, basis, {}), config)


def _point_config(
    base: ExperimentConfig, p1_kick: float, p2_kick: float, dtau: float
) -> ExperimentConfig:
    """Two-pulse config for one scan point, inheriting solver settings.

    The pulses are the template's first two (its only pulse twice) with
    kicks p1 and p2 at t0 = 0 and dtau; t_end always tracks the echo
    position of *this* point, as in ``two_pulse_config``.
    """
    if dtau <= 0.0:
        raise ValueError("dtau must be positive")
    first, second = (base.pulses * 2)[:2]
    return replace(
        base,
        pulses=(replace(first, t0=0.0, kick=p1_kick), replace(second, t0=dtau, kick=p2_kick)),
        t_end=_trace_end(base.molecule, dtau),
    )


# The quadrature of an unaveraged point: one exact on-axis node.
# Multiplying by 1.0 is exact, so plain scans keep their bytes.
_PLAIN_NODES = ((1.0, 1.0),)


def _window(base: ExperimentConfig, p1_kick: float, p2_kick: float, dtau: float, halfwidth) -> tuple:
    """(nominal config, times, window mask, halfwidth) of one point, or WindowError."""
    w_eff = echo_window_halfwidth(dtau, base.molecule, halfwidth)
    nominal = _point_config(base, p1_kick, p2_kick, dtau)
    times = _sample_times(nominal)
    return nominal, times, _window_mask(times, dtau, w_eff), w_eff


def _echo_point(dtau: float, window: tuple, nodes, node_values) -> EchoMeasurement:
    """The evaluator's second step: the weighted sum of the nodes' window
    samples, given in node order, measured once at the nominal kicks."""
    nominal, times, select, w_eff = window
    acc = None
    # fixed node order keeps the reduction bit-stable across runs
    for (_, weight), values in zip(nodes, node_values, strict=True):
        acc = weight * values if acc is None else acc + weight * values
    # samples outside the window are never evaluated
    values = np.full(times.shape, np.nan)
    values[select] = acc
    return extract_secho(AlignmentTrace(times=times, values=values, config=nominal), dtau, w_eff)


def _node_task(job: tuple, basis: RotorBasis, cache: dict) -> list:
    """The evaluator's first step and its one engine choice: one node's window
    samples at each of its points, which share its first pulse and window.  With
    kernel, impulsive points are kicked together by the amplitude kernel; others
    run run_pulse_sequence, caching the first-pulse-only trace by its config for
    a p2 scan.  A placement failure's message passes through; a tolerance
    problem fails its point, or every kernel point if in the first pulse."""
    points, kernel = job
    placed, values = [p for p in points if not isinstance(p, str)], []
    if placed and kernel and all(p.shape == "impulsive" for p in placed[0][0].pulses):
        try:
            times = _sample_times(placed[0][0])[placed[0][1]]
            values = _impulsive_values([config for config, _ in placed], basis, cache, times)
        except ToleranceError as exc:
            values = [exc] * len(placed)
    for config, select in placed[len(values) :]:  # the points the kernel did not take
        try:
            two = run_two_pulse(config, basis=basis).values
            first = replace(config, pulses=config.pulses[:1])
            if (v1 := cache.get(first)) is None:
                v1 = cache[first] = run_pulse_sequence(first, basis=basis).values
            v2 = run_pulse_sequence(replace(config, pulses=config.pulses[1:]), basis=basis).values
            # traces store alignment minus 1/3, so the cross term is a plain difference on a zero baseline
            values.append((two - v1 - v2)[select])
        except ToleranceError as exc:
            values.append(exc)
    return [p if isinstance(p, str) else values.pop(0) for p in points]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy ships without that library; looked up once per process."""
    import ctypes

    libs = os.path.join(np.__path__[0], os.pardir, "numpy.libs")
    try:
        name = next(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
        blas = ctypes.CDLL(os.path.realpath(os.path.join(libs, name)))
        get = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


def _forked_child(jobs: list, basis: RotorBasis, workers: int, sink, inherited: list) -> None:
    """A forked scan worker: pipes back its jobs' results, or their exception, then os._exit."""
    try:
        for pipe in inherited:
            pipe.close()  # so that a parent which stops reading breaks every pipe
        try:
            if blas := _openblas_threads():  # its share of the cores, never more than it had
                blas[1](min(blas[0](), max(1, (os.cpu_count() or 1) // workers)))
            cache: dict = {}  # the kernel caches its groups under no key: one scan's only
            data = pickle.dumps([_node_task(job, basis, cache) for job in jobs])
        except BaseException as exc:
            try:
                data = pickle.dumps(exc)
            except Exception:
                data = pickle.dumps(RuntimeError(f"a scan worker raised {exc!r}, which does not pickle"))
        sink.write(data)
        sink.flush()
    finally:
        os._exit(0)  # flushing none of the buffers it shares with the parent


def _forked_map(jobs: list, basis: RotorBasis, workers: int) -> list:
    """Each job's ``_node_task`` result, in job order, from ``workers`` forked
    children, child k running jobs k, k + workers, ...  The parent runs no job;
    it reads every pipe and reaps every child before it returns or raises."""
    pipes, pids = [], []
    try:
        for k in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:
                if (pid := os.fork()) == 0:
                    _forked_child(jobs[k::workers], basis, workers, sink, pipes)
                pids.append(pid)
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()  # a child still writing gets a broken pipe and ends
        ended = [os.waitpid(pid, 0)[1] for pid in pids]
    outs = [pickle.loads(data) if data else RuntimeError(f"scan worker {k} sent nothing ({status=})")
            for k, (data, status) in enumerate(zip(sent, ended))]
    if failed := [out for out in outs if isinstance(out, BaseException)]:
        raise failed[0]
    return [outs[i % workers][i // workers] for i in range(len(jobs))]


def _scan_jmax(base: ExperimentConfig, points) -> int:
    """The one basis size of a scan over (p1, p2, dtau) points, the largest
    any of them needs, so serial and pooled runs give identical numbers."""
    return max(_point_config(base, p1, p2, d).resolve_j_max() for p1, p2, d in points)


def _run_scan(
    tasks: list[tuple[float, float, float, float]],
    base: ExperimentConfig,
    nodes,
    halfwidth: float | None,
    workers: int,
    basis: RotorBasis | None,
) -> tuple[list[EchoMeasurement], list[tuple[float, str]]]:
    """Scan driver over (axis value, p1, p2, dtau) tasks, serial or forked.

    A job is a run of contiguous points of one node, each its kick-scaled
    config and window mask or its placement message, kicked together by the
    kernel: ceil(workers / nodes) runs per node, so whole nodes if nodes >=
    workers.  No more workers fork than there are jobs; the parent runs none.
    Points and failures come back in task order, a failure with its axis
    value and its first failing node's message.  A window is placed once,
    before any node runs, and one that cannot fit runs no node.  The basis
    is built once, here, only if a node runs."""
    # Plain scans stay on the density-matrix reference path, whose exact
    # call counts bench/test_bench.py pins; averaged scans take the kernel.
    kernel = nodes is not _PLAIN_NODES
    # sized before any window is placed, so dtau <= 0 raises rather than fails points
    j_max = basis.j_max if basis is not None else _scan_jmax(base, [t[1:] for t in tasks])
    windows = []
    for _, p1, p2, d in tasks:
        try:
            windows.append(_window(base, p1, p2, d, halfwidth))
        except WindowError as exc:
            windows.append(str(exc))
    chunk = math.ceil(len(tasks) / math.ceil(workers / len(nodes)))
    jobs = [([w if isinstance(w, str) else (_point_config(base, f * p1, f * p2, d), w[2])
              for (_, p1, p2, d), w in zip(tasks[i : i + chunk], windows[i : i + chunk])], kernel)
            for f, _ in nodes for i in range(0, len(tasks), chunk)]
    workers = min(workers, len(jobs))
    results = [points for points, _ in jobs]  # every point a placement message: nothing to run
    if any(isinstance(w, tuple) for w in windows):
        basis = basis if basis is not None else RotorBasis(j_max)
        if workers > 1:
            basis._parity_halves()  # the eigensystems, built before the workers fork
            results = _forked_map(jobs, basis, workers)
        else:
            cache: dict = {}
            results = [_node_task(job, basis, cache) for job in jobs]
    results = [value for node in results for value in node]
    out = []
    for i, ((ax, *_, d), window) in enumerate(zip(tasks, windows)):
        node_values = results[i :: len(tasks)]
        failed = [(ax, str(v)) for v in node_values if not isinstance(v, np.ndarray)]
        out.append(failed[0] if failed else _echo_point(d, window, nodes, node_values))
    points = [r for r in out if isinstance(r, EchoMeasurement)]
    failures = [r for r in out if not isinstance(r, EchoMeasurement)]
    return points, failures


def scan_dtau(
    dtau_values: np.ndarray,
    p1_kick: float,
    p2_kick: float,
    base_config: ExperimentConfig,
    *,
    window_halfwidth: float | None = None,
    workers: int = 1,
) -> EchoCurve:
    """Echo amplitude versus pulse separation at fixed kicks.

    The grid is taken as given apart from sorting; build it with
    dtau_grid() to respect the quarter-revival exclusion zones.
    Per-point window or tolerance problems are recorded in
    curve.failures rather than raised.
    """
    t_rev = revival_period(base_config.molecule)
    grid = np.sort(np.asarray(dtau_values, dtype=float))
    if grid.size == 0:
        raise ValueError("empty separation grid")
    if grid[0] <= 0.0 or grid[-1] >= t_rev:
        raise ValueError("separations must lie strictly inside (0, T_rev)")
    tasks = [(float(d), p1_kick, p2_kick, float(d)) for d in grid]
    points, failures = _run_scan(tasks, base_config, _PLAIN_NODES, window_halfwidth, workers, None)
    return EchoCurve("dtau", tuple(points), fit=None, failures=tuple(failures))


def _p2_scan(
    p2_values, p1_kick: float, dtau: float, base_config: ExperimentConfig, nodes,
    window_halfwidth: float | None, attach_fit: bool,
    workers: int, basis: RotorBasis | None,
) -> EchoCurve:
    """Second-pulse scan over the given quadrature nodes: the body of
    scan_p2 (one plain node) and of focal.averaged_scan_p2."""
    grid = np.sort(np.asarray(p2_values, dtype=float))
    if grid.size == 0:
        raise ValueError("empty kick grid")
    if grid[0] < 0.0:
        raise ValueError("kicks must be non-negative")
    tasks = [(float(p2), p1_kick, float(p2), float(dtau)) for p2 in grid]
    points, failures = _run_scan(tasks, base_config, nodes, window_halfwidth, workers, basis)
    fit = None
    if attach_fit and len(points) >= 6:
        try:
            fit = fit_sin2(EchoCurve("p2_kick", tuple(points)))
        except FitError as exc:
            failures.append((math.nan, f"sin2 fit: {exc}"))
    return EchoCurve("p2_kick", tuple(points), fit=fit, failures=tuple(failures))


def scan_p2(
    p2_values: np.ndarray,
    p1_kick: float,
    dtau: float,
    base_config: ExperimentConfig,
    *,
    window_halfwidth: float | None = None,
    attach_fit: bool = True,
    workers: int = 1,
    basis: RotorBasis | None = None,
) -> EchoCurve:
    """Echo amplitude versus second-pulse kick at fixed separation.

    A first-lobe sin**2 fit is attached when enough lobe points exist;
    a failed fit lands in curve.failures (axis value nan) instead of
    raising.
    """
    return _p2_scan(
        p2_values, p1_kick, dtau, base_config, _PLAIN_NODES, window_halfwidth,
        attach_fit, workers, basis,
    )


def _first_lobe_count(s: np.ndarray) -> int:
    """Points belonging to the first lobe: up to the first sign change
    or the first local minimum of |s|, whichever comes first."""
    mag = np.abs(s)
    n = s.size
    for i in range(1, n):
        if s[i] < 0.0:
            return i
        if 1 <= i < n - 1 and mag[i] <= mag[i - 1] and mag[i] < mag[i + 1] and mag[i - 1] > 0:
            return i + 1
    return n


def _golden_max(f, lo: float, hi: float, rel_tol: float) -> float:
    """Golden-section maximum of f on [lo, hi]: the midpoint of the bracket
    once hi - lo <= rel_tol * max(|lo|, |hi|).  The package's one 1-D search;
    a fit maximises minus its misfit, with the amplitude projected out."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > rel_tol * max(abs(lo), abs(hi)):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def fit_sin2(curve: EchoCurve) -> Sin2Fit:
    """Least-squares a*sin(b*p2)**2 over the first lobe of a p2 scan: the
    best a >= 0 is projected out, and b searched on (0, pi/p2_pk], p2_pk the
    lobe's sampled peak.  Needs at least 6 lobe points.  residual = RMS misfit / a.
    """
    if curve.scan_axis != "p2_kick":
        raise ValueError("sin2 fit applies to p2 scans")
    x = curve.axis_values()
    y = curve.s_values()
    n_lobe = _first_lobe_count(y)
    x, y = x[:n_lobe], y[:n_lobe]
    if x.size < 6:
        raise FitError(f"first lobe has {x.size} points; need at least 6")

    i_pk = int(np.argmax(y))
    if y[i_pk] <= 0.0:
        raise FitError("first lobe has no positive amplitude to fit")

    def projected(b: float) -> tuple[float, float]:
        """The best a >= 0 at this b and its sum of squared misfits."""
        s = np.sin(b * x) ** 2
        a = max(float(s @ y) / float(s @ s), 0.0)
        return a, float(np.sum((a * s - y) ** 2))

    # below 1e-6 of the bracket every b gives the same a*b**2*p2**2 (the
    # quadratic limit of a monotone rise), and the stop rule needs lo > 0
    hi = math.pi / x[i_pk]
    b = _golden_max(lambda b: -projected(b)[1], 1e-6 * hi, hi, FIT_REL_TOL)
    a, sq = projected(b)
    return Sin2Fit(a=a, b=float(b), residual=math.sqrt(sq / x.size) / a, n_points=int(x.size))


@dataclass(frozen=True)
class SearchParams:
    """Bracket setting for the optimal-p2 search."""

    p2_max: float = 8.0

    def __post_init__(self) -> None:
        if self.p2_max <= 0:
            raise ValueError("p2_max must be positive")


def find_optimal_p2(
    dtau: float,
    p1_kick: float,
    base_config: ExperimentConfig,
    search_params: SearchParams | None = None,
    *,
    window_halfwidth: float | None = None,
    basis: RotorBasis | None = None,
    _bases: dict[int, RotorBasis] | None = None,
) -> tuple[float, float]:
    """First maximum of |s_echo| along p2: (p2_opt, s_echo there).

    Coarse grid over (0, p2_max], evaluated left to right up to the
    first point that closes an interior maximum and extended up to
    MAX_EXTENSIONS times while none has, then golden-section to REL_TOL
    in p2.  The single-pulse backgrounds are cached across
    evaluations.  Without ``basis`` the search starts on the one p2_max
    needs.  Every basis it builds, there or for a bracket extension, goes
    into ``_bases`` by j_max, and later calls given the same dict reuse it.
    """
    sp = search_params or SearchParams()
    bases = {} if _bases is None else _bases

    def table(j_max: int) -> RotorBasis:
        if j_max not in bases:
            bases[j_max] = RotorBasis(j_max)
        return bases[j_max]

    if basis is None:
        basis = table(_scan_jmax(base_config, [(p1_kick, sp.p2_max, dtau)]))
    cache: dict = {"first": None}  # the kernel keeps its first-pulse entry here

    def measure(p2: float) -> float:
        window = _window(base_config, p1_kick, float(p2), dtau, window_halfwidth)
        values = _trace_values(window[0], basis, cache, window[2])
        return _echo_point(dtau, window, _PLAIN_NODES, [values]).s_echo

    # Coarse bracket, left to right: stop at the first point that closes an
    # interior maximum of |s|, extending the grid while none has closed.
    grid = list(np.linspace(sp.p2_max / COARSE_POINTS, sp.p2_max, COARSE_POINTS))
    vals: list[float] = []
    extensions = 0
    while len(vals) < 3 or not vals[-2] >= vals[-3] or not vals[-2] >= vals[-1]:
        if len(vals) == len(grid):
            if extensions >= MAX_EXTENSIONS:
                raise BracketError(
                    f"no interior |s_echo| maximum below p2 = {grid[-1]:.3g} "
                    f"after {extensions} bracket extensions"
                )
            # No maximum on the grid: extend it, growing the basis with it.
            step = grid[1] - grid[0]
            new = [grid[-1] + step * (i + 1) for i in range(COARSE_POINTS // 2)]
            j_wider = _scan_jmax(base_config, [(p1_kick, new[-1], dtau)])
            if j_wider > basis.j_max:
                basis = table(j_wider)
                cache = {"first": None}
            grid.extend(new)
            extensions += 1
        vals.append(abs(measure(grid[len(vals)])))
    lo, hi = grid[len(vals) - 3], grid[len(vals) - 1]
    p2_opt = _golden_max(lambda p2: abs(measure(p2)), lo, hi, REL_TOL)
    return float(p2_opt), float(measure(p2_opt))


def master_curve_check(curves: list[EchoCurve]) -> MasterCurveResult:
    """Collapse p2 scans onto a reference by linear axis rescaling.

    The reference is the curve whose axis reaches furthest (the first
    such curve on a tie).  Each curve's kicks are divided by its factor
    before comparison, so a curve needing a wider p2 axis than the
    reference gets a factor above one.  Returns the factors (reference =
    1) and the pooled RMS deviation relative to the reference peak.
    """
    if len(curves) < 2:
        raise ValueError("need at least two curves")
    for c in curves:
        if c.scan_axis != "p2_kick":
            raise ValueError("master-curve check applies to p2 scans")
        if len(c) < 6:
            raise ValueError("each curve needs at least 6 points")
    p1s = [c.points[0].p1_kick for c in curves]
    if max(p1s) - min(p1s) > 1e-9 * max(1.0, abs(p1s[0])):
        raise ValueError("curves must share the same first-pulse kick")

    reference_index = int(np.argmax([c.axis_values()[-1] for c in curves]))
    ref = curves[reference_index]
    xr, yr = ref.axis_values(), ref.s_values()
    peak = float(np.max(np.abs(yr)))
    if peak <= 0.0:
        raise ValueError("reference curve is flat")

    def peak_pos(c: EchoCurve) -> float:
        x, y = c.axis_values(), c.s_values()
        return float(x[np.argmax(np.abs(y))])

    factors: list[float] = []
    sq_sum = 0.0
    n_sum = 0
    for i, c in enumerate(curves):
        if i == reference_index:
            factors.append(1.0)
            continue
        x, y = c.axis_values(), c.s_values()
        f0 = peak_pos(c) / peak_pos(ref)

        def deviations(f: float) -> np.ndarray:
            """Deviations from the reference in its span, this axis / f."""
            xs = x / f
            inside = (xs >= xr[0]) & (xs <= xr[-1])
            if inside.sum() < 6:
                raise FitError(f"curve {i} keeps only {int(inside.sum())} points inside the "
                               "reference span after rescaling")
            return y[inside] - np.interp(xs[inside], xr, yr)

        def misfit(f: float) -> float:
            try:
                return float(np.mean(deviations(f) ** 2))
            except FitError:
                return 1e9

        # only factors in [x[5]/xr[-1], x[-6]/xr[0]] can keep 6 points in span;
        # if none can, deviations(f0) raises the span error
        lo, hi = max(0.5 * f0, x[5] / xr[-1]), min(2.0 * f0, x[-6] / xr[0])
        f = float(_golden_max(lambda f: -misfit(f), lo, hi, FIT_REL_TOL)) if lo < hi else f0
        resid = deviations(f)
        sq_sum += float(np.sum(resid**2))
        n_sum += resid.size
        factors.append(f)
    # every curve but the reference adds at least 6 points, so n_sum > 0
    residual = math.sqrt(sq_sum / n_sum) / peak
    return MasterCurveResult(tuple(factors), residual, reference_index)


def fit_decay(measurements) -> DecayFit:
    """Decay rate of peak echo amplitude: s(dtau) = A*exp(-rate*2*dtau).

    ``measurements`` is a sequence of (dtau, s_echo_max) pairs; the echo
    appears at 2*dtau, so the rate is per unit echo time.  A negative
    fitted rate is flagged, not raised.  The best amplitude is projected
    out, and the decay over the data's span, g = exp(-rate*span), which stays
    off 0 at rate 0, searched on g0*e**(+-4) around the log-linear estimate g0,
    weighted by y so that a point at the noise floor cannot pull it off the
    fit.  A fit that ends at the edge of that bracket is raised.
    """
    data = np.asarray(list(measurements), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise FitError("need at least 4 (dtau, s_echo_max) pairs")
    t, y = 2.0 * data[:, 0], data[:, 1]
    pos = y > 0
    if pos.sum() < 2:
        raise FitError("need at least two positive amplitudes")
    span = float(t.max() - t.min())
    if span == 0.0:
        raise FitError("need at least two distinct delays")

    def projected(rate: float) -> tuple[float, float]:
        """The best amplitude at this rate and its sum of squared misfits."""
        e = np.exp(-rate * t)
        amplitude = float(e @ y) / float(e @ e)
        return amplitude, float(np.sum((amplitude * e - y) ** 2))

    g0 = math.exp(np.polyfit(t[pos], np.log(y[pos]), 1, w=y[pos])[0] * span)
    lo, hi = g0 * math.exp(-4.0), g0 * math.exp(4.0)
    g = _golden_max(lambda g: -projected(-math.log(g) / span)[1], lo, hi, FIT_REL_TOL)
    if min(g - lo, hi - g) <= FIT_REL_TOL * g:
        raise FitError(f"decay fit ends at its search edge, a decay of {g:.3g} over the span")
    rate = -math.log(g) / span
    amplitude, sq = projected(rate)
    # flat data fits to rate = +/- epsilon; only a resolvable growth is flagged
    return DecayFit(
        rate=rate,
        amplitude=amplitude,
        residual=math.sqrt(sq / y.size) / abs(amplitude),
        negative=bool(rate < -1e-9),
    )
