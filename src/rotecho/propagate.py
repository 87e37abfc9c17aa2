"""Time propagation of m-block density matrices through laser pulses.

Free evolution multiplies the (J, J') element by exp(-i*(w_J - w_J')*dt)
and is evaluated in closed form.  During a finite pulse the Hamiltonian
is H0 - kick*g(t)*cos^2(theta) with g the unit-integral Gaussian
intensity envelope; the propagator is a chain of exact exponentials of
the split parts on a fixed step mesh, each step Kahan and Li's
sixth-order composition of nine Strang stages, so the evolution is
unconditionally unitary and the splitting error falls as the sixth power
of the step.  Neither part mixes J parity, so a pulse carries columns Z
of each (m, J-parity) half in the J basis through the chain: a flight is
an elementwise phase and a kick two real products, batched for halves of
two neighbouring sizes.  apply_pulse carries identity columns, which
gives each half's propagator U, and sandwiches each block with it.  The
impulsive limit applies U = exp(i*kick*cos^2 theta) in one step.

A sequence with a gaussian pulse runs on the thermal columns W = sqrt(p)
(mu = 1) from first pulse to last, with no density matrix; all-impulsive
sequences run on the density matrix, which is the reference.  The
optimum search, averaged scans and isolated echoes of impulsive configs
run the amplitude kernel at the end of the module, which kicks the same
columns with halves of one shape stacked, one batched product per group,
and sums their shares of a spectrum in (m, h) order, which keeps the
bits a loop over single halves gives.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import (
    MBlockDensityMatrix,
    MoleculeSpec,
    RotorBasis,
    _thermal_populations,
    choose_jmax,
    revival_period,
    thermal_state,
)
from .errors import ToleranceError

_SHAPES = ("gaussian", "impulsive")

# Samples per revival period on the default trace grid.
TRACE_SAMPLES_PER_REVIVAL = 2048

# Default trace margin past the echo position, as a fraction of T_rev.
TRACE_TAIL_FRACTION = 0.06

# Round-off allowed outside [-1/3, 2/3] by AlignmentTrace.validate.
RANGE_TOL = 1e-12

# Half-width of a gaussian pulse's integration window, in sigma.
WINDOW_SIGMAS = 4.0

# Largest hermiticity defect a state may carry after a pulse.
HERM_TOL = 1e-10

# Largest drift of a state's weighted trace from 1 after a pulse.
TRACE_TOL = 1e-9

# Stage fractions of Kahan and Li's symmetric sixth-order composition of
# nine stages (p6 s9), Math. Comp. 66, 1089 (1997); Hairer, Lubich and
# Wanner, Geometric Numerical Integration, eq. V.3.11.  The third and
# seventh (< 0) run backwards.
_GAMMAS = (0.39216144400731413928, 0.33259913678935943860,
           -0.70624617255763935981, 0.08221359629355080023)
_COMPOSITION = (*_GAMMAS, 1.0 - 2.0 * sum(_GAMMAS), *_GAMMAS[::-1])


@dataclass(frozen=True)
class PulseSpec:
    """One linearly polarized kick pulse.

    Attributes:
        t0: envelope center, ps.
        kick: dimensionless integrated strength
            (Delta-alpha / (4*hbar)) * integral |E|^2 dt.
        duration_fwhm: intensity-envelope FWHM, ps.  Ignored for the
            impulsive shape.
        shape: "gaussian" or "impulsive".
    """

    t0: float
    kick: float
    duration_fwhm: float = 0.1
    shape: str = "gaussian"

    def __post_init__(self) -> None:
        if self.kick < 0.0:
            raise ValueError("kick must be non-negative")
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}")
        if self.shape == "gaussian" and self.duration_fwhm <= 0.0:
            raise ValueError("duration_fwhm must be positive")

    def sigma(self) -> float:
        """Standard deviation of the intensity envelope, ps."""
        return self.duration_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs for pulse integration and state guards."""

    substeps: int = 8              # sixth-order steps (9 stages each) per pulse window
    truncation_tol: float = 1e-2   # thermal-population guard at J = j_max

    def __post_init__(self) -> None:
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully specified pulse sequence plus sampling instructions."""

    molecule: MoleculeSpec
    pulses: tuple[PulseSpec, ...]
    t_end: float
    dt_sample: float
    j_max: int | None = None       # None: choose automatically from the kicks
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if not self.pulses:
            raise ValueError("at least one pulse required")
        t0s = [p.t0 for p in self.pulses]
        if sorted(t0s) != t0s:
            raise ValueError("pulses must be ordered by t0")
        if self.t_end <= t0s[-1]:
            raise ValueError("t_end must lie past the last pulse")
        if self.dt_sample <= 0.0:
            raise ValueError("dt_sample must be positive")
        if self.j_max is not None and self.j_max < 2:
            raise ValueError("j_max must be at least 2")

    def resolve_j_max(self) -> int:
        if self.j_max is not None:
            return self.j_max
        max_kick = max(p.kick for p in self.pulses)
        return choose_jmax(
            self.molecule, max_kick, tolerance=self.solver.truncation_tol
        )


def _trace_end(molecule: MoleculeSpec, dtau: float) -> float:
    """End of a two-pulse trace: a fixed share of T_rev past the echo at 2*dtau."""
    return 2.0 * dtau + TRACE_TAIL_FRACTION * revival_period(molecule)


def two_pulse_config(
    molecule: MoleculeSpec,
    p1_kick: float,
    p2_kick: float,
    dtau: float,
    *,
    shape: str = "impulsive",
    duration_fwhm: float = 0.1,
    t_end: float | None = None,
    dt_sample: float | None = None,
    j_max: int | None = None,
    solver: SolverOptions | None = None,
) -> ExperimentConfig:
    """Standard two-pulse echo experiment: kick at t = 0, kick at t = dtau.

    Defaults: the trace is sampled on a T_rev/2048 grid and runs to
    2*dtau + 0.06*T_rev, just past the expected echo position.  Pulses
    default to the impulsive limit, which the scans' amplitude kernel
    runs; pass shape="gaussian" to integrate the finite 0.1 ps envelope
    instead (same post-pulse physics to a few percent; for OCS at 296 K and
    j_max = 80 one gaussian run takes about 7 times as long as an
    impulsive one, 0.15 s against 0.020 s on one BLAS thread).
    """
    if dtau <= 0.0:
        raise ValueError("dtau must be positive")
    if t_end is None:
        t_end = _trace_end(molecule, dtau)
    if dt_sample is None:
        dt_sample = revival_period(molecule) / TRACE_SAMPLES_PER_REVIVAL
    pulses = (
        PulseSpec(t0=0.0, kick=p1_kick, duration_fwhm=duration_fwhm, shape=shape),
        PulseSpec(t0=dtau, kick=p2_kick, duration_fwhm=duration_fwhm, shape=shape),
    )
    return ExperimentConfig(
        molecule=molecule,
        pulses=pulses,
        t_end=t_end,
        dt_sample=dt_sample,
        j_max=j_max,
        solver=solver if solver is not None else SolverOptions(),
    )


@dataclass(frozen=True)
class AlignmentTrace:
    """Sampled alignment signal <cos^2 theta>(t) - 1/3 on a uniform grid."""

    times: np.ndarray
    values: np.ndarray
    config: ExperimentConfig

    def __post_init__(self) -> None:
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if self.times.size >= 3:
            steps = np.diff(self.times)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("time grid must be uniform")
        self.times.setflags(write=False)
        self.values.setflags(write=False)

    def validate(self) -> None:
        lo, hi = float(self.values.min()), float(self.values.max())
        if lo < -1.0 / 3.0 - RANGE_TOL or hi > 2.0 / 3.0 + RANGE_TOL:
            raise ToleranceError(f"alignment out of [-1/3, 2/3]: [{lo}, {hi}]")

    def window(self, t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Times and values restricted to [t_lo, t_hi]."""
        sel = (self.times >= t_lo) & (self.times <= t_hi)
        return self.times[sel], self.values[sel]


def free_evolve(rho: MBlockDensityMatrix, dt: float) -> MBlockDensityMatrix:
    """Field-free propagation by dt (ps); exact elementwise phases.

    Element (J, J') picks up exp(-i*phi) with phi = (w_J - w_J')*dt,
    matching the phase convention of ``pathways.coherence_phase``.
    """
    omegas = rho.basis.omegas(rho.molecule)
    ph = np.exp(-1j * omegas * dt)
    blocks = []
    for m, block in enumerate(rho.blocks):
        pm = ph[m:]
        blocks.append((pm[:, None] * block) * pm.conj()[None, :])
    return MBlockDensityMatrix(
        basis=rho.basis, molecule=rho.molecule, blocks=tuple(blocks)
    )


def impulsive_kick(rho: MBlockDensityMatrix, kick: float) -> MBlockDensityMatrix:
    """Delta-pulse limit: conjugate by U = exp(i*kick*cos^2 theta)."""
    if kick < 0.0:
        raise ValueError("kick must be non-negative")
    blocks = []
    for m, block in enumerate(rho.blocks):
        w, v = rho.basis.cos2_eigensystem(m)
        u = (v * np.exp(1j * kick * w)[None, :]) @ v.T
        blocks.append(u @ block @ u.conj().T)
    return MBlockDensityMatrix(
        basis=rho.basis, molecule=rho.molecule, blocks=tuple(blocks)
    )


def expectation_cos2(rho: MBlockDensityMatrix) -> float:
    """Degeneracy-weighted <cos^2 theta> of the state: its spectrum at t = 0."""
    return float(_free_values(_coherence_spectrum(rho), np.zeros(1))[0])


def _coherence_spectrum(
    rho: MBlockDensityMatrix,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form ingredients of <cos^2 theta>(t) under free evolution.

    Only populations and Delta-J = 2 coherences contribute.  Collapsing
    the m blocks leaves one complex amplitude per coherence frequency
    Omega_J = w_{J+2} - w_J, so a whole trace is a short Fourier sum.
    """
    basis = rho.basis
    omegas = basis.omegas(rho.molecule)
    amp = np.zeros(basis.j_max - 1, dtype=complex)
    dc = 0.0
    for m, block in enumerate(rho.blocks):
        g = rho.degeneracy(m)
        diag, off = basis._cos2_bands(m)
        dc += g * float(np.dot(block.diagonal().real, diag))
        amp[m : m + off.size] += g * block.diagonal(2) * off
    freqs = omegas[2 : basis.j_max + 1] - omegas[: basis.j_max - 1]
    return dc, amp, freqs


def _free_values(spectrum: tuple, t_rel: np.ndarray) -> np.ndarray:
    """<cos^2 theta> at offsets t_rel from a state's (dc, amp, freqs) spectrum."""
    dc, amp, freqs = spectrum
    osc = np.exp(1j * np.outer(t_rel, freqs)) @ amp
    return dc + 2.0 * osc.real


def _piecewise(times: np.ndarray, stages: list) -> np.ndarray:
    """Alignment minus 1/3 at grid times: isotropic before the first stage,
    then each (start time, spectrum) stage from its start on."""
    out = np.full(times.shape, 1.0 / 3.0)
    starts = [int(np.searchsorted(times, t, side="left")) for t, _ in stages]
    for (t, spectrum), lo, hi in zip(stages, starts, starts[1:] + [times.size]):
        out[lo:hi] = _free_values(spectrum, times[lo:hi] - t)
    return out - 1.0 / 3.0


def _pulse_window(pulse: PulseSpec) -> tuple[float, float]:
    if pulse.shape == "impulsive":
        return pulse.t0, pulse.t0
    half = WINDOW_SIGMAS * pulse.sigma()
    return pulse.t0 - half, pulse.t0 + half


def _pulse_segments(pulse: PulseSpec, solver: SolverOptions, sample_times=()) -> Iterator:
    """(alphas, taus, is_sample) per segment of the pulse window, which is
    cut at the sample times into steps of at most span / substeps, each
    Kahan and Li's sixth-order composition of nine Strang stages, the
    fractions _COMPOSITION of its length.  alphas holds each stage's kick,
    the exact envelope mass of its time slice (negative for a backward
    stage), so the integrated kick equals pulse.kick on any mesh; taus
    holds the len(alphas) + 1 free flights around the kicks,
    [s_0/2, (s_0 + s_1)/2, .., s_last/2] for stage lengths s.  Both are
    empty for a segment too short to step."""
    w_start, w_end = _pulse_window(pulse)
    span, sigma, sq2 = w_end - w_start, pulse.sigma(), math.sqrt(2.0)
    lo, hi = math.erf(-WINDOW_SIGMAS / sq2), math.erf(WINDOW_SIGMAS / sq2)

    def envelope_cdf(t: float) -> float:  # window-normalized: 0 at w_start, 1 at w_end
        return (math.erf((t - pulse.t0) / (sigma * sq2)) - lo) / (hi - lo)

    cursor = w_start
    for target, is_sample in [(float(t), True) for t in sample_times] + [(w_end, False)]:
        seg, alphas, taus = target - cursor, np.empty(0), np.empty(0)
        if seg > 1e-15 * max(1.0, abs(target)):
            n_sub = max(1, math.ceil(solver.substeps * seg / span))
            dt = seg / n_sub
            cuts = cursor + dt * (np.arange(n_sub)[:, None] + np.cumsum([0.0, *_COMPOSITION[:-1]]))
            edges = [*cuts.ravel(), target]
            alphas = pulse.kick * np.diff([envelope_cdf(t) for t in edges])
            stages = dt * np.tile(_COMPOSITION, n_sub)
            taus = 0.5 * (np.append(stages, 0.0) + np.insert(stages, 0, 0.0))
            cursor = target
        yield alphas, taus, is_sample


def _pulse_groups(basis: RotorBasis, halves: list) -> list:
    """Stack (m, h, d) halves in (m, h) order, d a half's diagonal with its
    c nonzero entries leading, as (g * cos^2 diagonal, g * Delta-J = 2 band,
    g, eigenvalues, V, J of each row as a column, Z = diag(d)[:, :c],
    (m, h, rows, c) per half) groups, each array with a leading half axis;
    the first three are the layout _spectra reads.  Halves with n and n + 1
    rows share a group (21 at j_max = 80, not 41): the smaller gets an inert
    level, V's identity with eigenvalue, bands, amplitudes and (as J = 0)
    frequency 0, so its row stays exactly 0, as do the zero columns that
    pad a narrower Z."""
    groups = []
    for _, run in itertools.groupby(halves, key=lambda half: half[2].size // 2):
        members = [(m, h, d.size, np.count_nonzero(d), d) for m, h, d in run]
        k = len(members)
        rows, cols = (max(member[i] for member in members) for i in (2, 3))
        g = np.array([MBlockDensityMatrix.degeneracy(m) for m, *_ in members])
        (gd, lam), js = np.zeros((2, k, rows)), np.zeros((k, rows, 1), dtype=int)
        go, v = np.zeros((k, rows - 1)), np.tile(np.eye(rows), (k, 1, 1))
        zs = np.zeros((k, rows, cols), dtype=complex)
        for i, (m, h, n, c, d) in enumerate(members):
            gd[i, :n], go[i, : n - 1] = (g[i] * band[h::2] for band in basis._cos2_bands(m))
            lam[i, :n], v[i, :n, :n] = basis._parity_eigensystems(m)[h]
            js[i, :n, 0], zs[i, range(c), range(c)] = np.arange(m + h, basis.j_max + 1, 2), d[:c]
        groups.append((gd, go, g, lam, v, js, zs, [member[:4] for member in members]))
    return groups


def _step_pulse(groups: list, omegas, pulse: PulseSpec, solver: SolverOptions, sample_times):
    """Carry each group's columns Z across the pulse window in place, on
    the stages of _pulse_segments; returns <cos^2 theta> at the sample
    times, added group after group.  A flight tau is the row phase
    exp(-i*w_J*tau) and a kick alpha V (exp(i*alpha*lambda) * (V^T Z)), two
    real products into buffers made once per group.  The pulse's flight
    phases are tabled once over the levels J, and each group's kick phases
    once for the whole pulse."""
    segments = list(_pulse_segments(pulse, solver, sample_times))
    alphas, taus = (np.concatenate([seg[i] for seg in segments]) for i in (0, 1))
    levels = np.exp(-1j * np.multiply.outer(taus, omegas))
    values = np.zeros(sum(is_sample for *_, is_sample in segments))
    for gd, go, _, lam, v, js, z, _ in groups:  # one group's tables alive at a time
        kicks = np.multiply.outer(1j * alphas, lam)
        kicks = iter(np.exp(kicks, out=kicks)[..., None])
        flights = (row[js] for row in levels)
        vt, zf, y = v.transpose(0, 2, 1), z.view(np.float64), np.empty_like(z)
        yf, samples = y.view(np.float64), iter(range(values.size))
        for stages, _, is_sample in segments:
            if stages.size:
                z *= next(flights)
                for _ in stages:
                    np.matmul(vt, zf, out=yf)
                    y *= next(kicks)
                    np.matmul(v, yf, out=zf)
                    z *= next(flights)
            if is_sample:  # Re(a b*) = a.re b.re + a.im b.im
                rows = np.einsum("gik,gik->gi", zf, zf)
                band = np.einsum("gik,gik->gi", zf[:, :-1], zf[:, 1:])
                values[next(samples)] += float(np.sum(gd * rows) + 2.0 * np.sum(go * band))
    return values


def _apply_gaussian_pulse(
    rho: MBlockDensityMatrix, pulse: PulseSpec, solver: SolverOptions
) -> MBlockDensityMatrix:
    """Sixth-order split integration of a state across the pulse window.

    _step_pulse carries the identity columns of each (m, J-parity) half,
    which makes them that half's propagator U across the window; each m
    block is then sandwiched as U rho U^dagger, as impulsive_kick does."""
    halves = [(m, h, np.ones(n)) for m, block in enumerate(rho.blocks)
              for h in (0, 1) if (n := block[h::2].shape[0])]
    groups = _pulse_groups(rho.basis, halves)
    _step_pulse(groups, rho.basis.omegas(rho.molecule), pulse, solver, ())
    us = [np.zeros(block.shape, dtype=complex) for block in rho.blocks]
    for *_, zs, members in groups:
        for (m, h, n, _), z in zip(members, zs):
            us[m][h::2, h::2] = z[:n, :n]
    blocks = tuple(u @ block @ u.conj().T for u, block in zip(us, rho.blocks))
    return MBlockDensityMatrix(basis=rho.basis, molecule=rho.molecule, blocks=blocks)


def apply_pulse(
    rho: MBlockDensityMatrix,
    pulse: PulseSpec,
    solver: SolverOptions | None = None,
) -> MBlockDensityMatrix:
    """Propagate the state across one pulse window.

    For the impulsive shape this is a single unitary kick; for the
    gaussian shape the window t0 +- 4 sigma is integrated on the solver
    mesh.  Returns the state at the end of the window.
    """
    if solver is None:
        solver = SolverOptions()
    if pulse.shape == "impulsive":
        return impulsive_kick(rho, pulse.kick)
    return _apply_gaussian_pulse(rho, pulse, solver)


def _check_drift(trace: float, defect: float = 0.0) -> None:
    """Raise ToleranceError for a weighted trace off 1 or a hermiticity defect."""
    drift = abs(trace - 1.0)
    if drift > TRACE_TOL:
        raise ToleranceError(f"trace drift {drift:.3e} exceeds {TRACE_TOL:.1e}")
    if defect > HERM_TOL:
        raise ToleranceError(
            f"hermiticity defect {defect:.3e} exceeds {HERM_TOL:.1e}"
        )


def _sample_times(config: ExperimentConfig) -> np.ndarray:
    """The uniform trace grid t = 0, dt_sample, .. up to t_end."""
    n_samples = int(math.floor(config.t_end / config.dt_sample + 1e-9)) + 1
    return config.dt_sample * np.arange(n_samples)


def _column_stages(config: ExperimentConfig, basis: RotorBasis, windows: list, times) -> tuple:
    """run_pulse_sequence's (stages, in-pulse samples) from the thermal
    columns W = sqrt(p) of each populated (m, J-parity) half, rho = W
    W^dagger, carried from the first pulse to the last: a free flight is a
    row phase, an impulsive pulse one kick and a gaussian one _step_pulse.
    After each pulse _spectra reads the spectrum and the weighted norm."""
    p = np.sqrt(_thermal_populations(config.molecule, basis.j_max, config.solver.truncation_tol))
    roots = ((m, h, p[m + h :: 2]) for m, h in itertools.product(range(basis.j_max + 1), (0, 1)))
    halves = [(m, h, w) for m, h, w in roots if np.any(w)]
    groups, omegas = _pulse_groups(basis, halves), basis.omegas(config.molecule)
    # clamped: a padded half's last coherence is exactly 0 and may point past j_max - 2
    targets = np.concatenate([m + h + np.arange(0, 2 * go.shape[1], 2)
                              for _, go, *_, members in groups for m, h, *_ in members])
    thermal = (groups, np.minimum(targets, basis.j_max - 2), omegas[2:] - omegas[:-2])
    stages, inner, cursor = [], [], min(0.0, windows[0][0])
    for pulse, (w_start, w_end) in zip(config.pulses, windows):
        for *_, lam, v, js, z, _ in groups:
            if w_start > cursor:
                z *= np.exp(-1j * (w_start - cursor) * omegas)[js]
            if pulse.shape == "impulsive":
                y = _rotate(v.transpose(0, 2, 1), z) * np.exp(1j * pulse.kick * lam)[..., None]
                z[...] = _rotate(v, y)
        if pulse.shape == "gaussian":
            lo, hi = np.searchsorted(times, (w_start, w_end), side="left")
            inner.append((lo, hi, _step_pulse(groups, omegas, pulse, config.solver, times[lo:hi])))
        stages.append((w_end, _spectra(thermal, [z for *_, z, _ in groups], 1)[0]))
        cursor = w_end
    return stages, inner


def run_pulse_sequence(
    config: ExperimentConfig,
    basis: RotorBasis | None = None,
) -> AlignmentTrace:
    """Thermal state through an arbitrary pulse sequence, sampled from t = 0.

    Between and after pulses the trace is evaluated in closed form from
    the coherence spectrum, so sample times carry no propagation error.
    Samples that land inside a gaussian pulse window are taken on the
    integration mesh at the exact sample time.  A grid point at an
    impulsive kick instant records the post-kick value.  A trace outside
    [-1/3, 2/3] by more than RANGE_TOL raises ToleranceError.
    """
    if basis is None:
        basis = RotorBasis(config.resolve_j_max())
    windows = [_pulse_window(p) for p in config.pulses]
    for i in range(len(windows) - 1):
        if windows[i][1] > windows[i + 1][0]:
            raise ValueError("pulse windows overlap; increase the delay")

    times = _sample_times(config)
    if any(p.shape == "gaussian" for p in config.pulses):
        stages, inner = _column_stages(config, basis, windows, times)
    else:
        rho = thermal_state(config.molecule, basis, config.solver.truncation_tol)
        stages, inner, cursor = [], [], min(0.0, windows[0][0])
        for pulse, (w_start, w_end) in zip(config.pulses, windows):
            if w_start > cursor:
                rho = free_evolve(rho, w_start - cursor)
            rho = impulsive_kick(rho, pulse.kick)
            _check_drift(rho.weighted_trace(), rho.hermiticity_defect())
            stages.append((w_end, _coherence_spectrum(rho)))
            cursor = w_end

    values = _piecewise(times, stages)
    for lo, hi, vals in inner:
        values[lo:hi] = vals - 1.0 / 3.0
    trace = AlignmentTrace(times=times, values=values, config=config)
    trace.validate()
    return trace


def run_two_pulse(
    config: ExperimentConfig,
    basis: RotorBasis | None = None,
) -> AlignmentTrace:
    """Two-pulse echo experiment; see ``two_pulse_config`` for defaults."""
    if len(config.pulses) != 2:
        raise ValueError("run_two_pulse requires exactly two pulses")
    return run_pulse_sequence(config, basis=basis)


def with_substeps(config: ExperimentConfig, substeps: int) -> ExperimentConfig:
    """Copy of the config with a different pulse-integration mesh."""
    return replace(config, solver=replace(config.solver, substeps=substeps))


# --- amplitude kernel for impulsive two-pulse runs ------------------------


def _rotate(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """v @ a for real v and complex a, as one real product."""
    return (v @ np.ascontiguousarray(a).view(np.float64)).view(np.complex128)


def _thermal_halves(config: ExperimentConfig, basis: RotorBasis) -> tuple:
    """(groups, spectrum index of each Delta-J = 2 element, coherence
    frequencies) of the thermal state.

    A group is a run of the basis's equal-size (m, J-parity) halves with
    equal populated count c > 0 (p falls with J in a parity, so those
    levels lead): 61 groups of at most 4 at j_max = 120, 296 K.  It holds
    g * cos^2 diagonal, g * Delta-J = 2 band, g, level frequencies, w =
    sqrt(p) on the c levels, and views of the basis's eigenvalues and V,
    each with a leading half axis in (m, h) order, as the element indices."""
    p = _thermal_populations(config.molecule, basis.j_max, config.solver.truncation_tol)
    omegas = basis.omegas(config.molecule)

    def halves():  # every half of the basis, keyed by (rows, c)
        for (m, h), lam, v, i in basis._parity_halves():
            (diag, off), pop = basis._cos2_bands(m), p[m + h :: 2]
            g = MBlockDensityMatrix.degeneracy(m)
            yield ((lam.shape[1], c := np.count_nonzero(pop)), (lam[i:], v[i:]), m + h,
                   g * diag[h::2], g * off[h::2], g, omegas[m + h :: 2], np.sqrt(pop[:c]))

    groups = []
    for (_, c), run in itertools.groupby(halves(), key=lambda half: half[0]):
        _, tails, *fields = zip(*run)  # tails[0]: the stacks from the run's first half on
        if c:
            groups.append((*(np.array(a) for a in fields), *(a[: len(tails)] for a in tails[0])))
    targets = np.concatenate([(j0[:, None] + np.arange(0, 2 * gco.shape[1], 2)).ravel()
                              for j0, _, gco, *_ in groups])
    return [group[1:] for group in groups], targets, omegas[2:] - omegas[:-2]


def _spectra(thermal: tuple, states, n_states: int) -> list:
    """(dc, amp, freqs) of n_states states, as _coherence_spectrum gives
    them; states holds one (halves, rows, n_states * columns) amplitude
    array per group, reduced at once to row dot products.  The halves'
    shares are then added one after another in (m, h) order, the order that
    fixes the bits of each sum.  Checks each weighted norm.  Called by the
    amplitude kernel and by _column_stages, whose padded halves' clamped
    last targets add an exact 0."""
    groups, targets, freqs = thermal
    dc, norm, coh = [], [], []
    for (gcd, gco, g, *_), z in zip(groups, states):
        z = z.reshape(*z.shape[:2], n_states, -1)
        pop = np.einsum("gisj,gisj->gis", z.view(np.float64), z.view(np.float64))
        dc.append((gcd[:, None, :] @ pop)[:, 0])
        norm.append(g[:, None] * pop.sum(axis=1))
        amp = np.einsum("gisj,gisj->gsi", z[:, :-1], z[:, 1:].conj()) * gco[:, None, :]
        coh.append(amp.transpose(1, 0, 2).reshape(n_states, -1))
    # cumsum and add.at add in index order, one half after another
    dc, norm = (np.cumsum(np.concatenate(a), axis=0)[-1] for a in (dc, norm))
    coh, amp = np.concatenate(coh, axis=1), np.zeros((n_states, freqs.size), dtype=complex)
    for s in range(n_states):
        np.add.at(amp[s], targets, coh[s])
    for total in norm:
        _check_drift(total)
    return [(dc[s], amp[s], freqs) for s in range(n_states)]


def _impulsive_values(
    config: ExperimentConfig, basis: RotorBasis, cache: dict, times: np.ndarray
) -> np.ndarray:
    """An impulsive two-pulse config's trace at times on its grid minus
    both single-pulse traces, in run_pulse_sequence's form.

    cache keeps the thermal groups and one first-pulse entry: the
    post-kick-1 spectrum and, per group, X = V^T F(dtau) W_1 with F the free
    phases.  With the entry go the pieces of the last window it served that
    no second kick changes: the first-pulse-only trace from the second kick
    on and exp(i*outer(t - t_b, freqs)).  Before the second kick the
    two-pulse trace is the first-pulse-only one, so the result is 0 there.
    A kick forms V^T W = V^T[:, :c] w where it reads it.  The second kick
    costs one product V @ (exp(i*kick*lambda) * [X | V^T W]) per group, on
    one buffer phased in place, for the two-pulse and second-pulse-only
    amplitudes, and one matrix-vector product per amplitude."""
    (t_a, k1), (t_b, k2) = ((p.t0, p.kick) for p in config.pulses)
    dtau = t_b - t_a
    if "thermal" not in cache:
        cache["thermal"] = _thermal_halves(config, basis)
    thermal, groups = cache["thermal"], cache["thermal"][0]
    if cache.get("first", (None,))[0] != (k1, dtau):
        for entry in ("first", "window"):  # free the old entry before building the new one
            cache.pop(entry, None)
        xs = []

        def first_kick():  # one group's W_1 alive at a time
            for *_, om, w, lam, v in groups:
                vt_w = v.transpose(0, 2, 1)[..., : w.shape[1]] * w[:, None, :]
                w1 = _rotate(v, np.exp(1j * k1 * lam)[..., None] * vt_w)
                xs.append(_rotate(v.transpose(0, 2, 1), np.exp(-1j * dtau * om)[..., None] * w1))
                yield w1

        s1 = _spectra(thermal, first_kick(), 1)[0]
        cache["first"] = ((k1, dtau), s1, xs)
    _, s1, xs = cache["first"]
    window = (t_a, t_b, times.tobytes())
    if cache.get("window", (None,))[0] != window:
        lo_b = int(np.searchsorted(times, t_b, side="left"))
        phases = np.exp(1j * np.outer(times[lo_b:] - t_b, s1[2]))
        cache["window"] = (window, lo_b, phases, _piecewise(times[lo_b:], [(t_a, s1)]))
    _, lo_b, phases, only_1 = cache["window"]

    def second_kick():  # [X | V^T W] written and kicked in one buffer per group
        for (*_, w, lam, v), x in zip(groups, xs):
            buf, c = np.empty((*x.shape[:2], 2 * w.shape[1]), dtype=complex), w.shape[1]
            buf[..., :c] = x
            np.multiply(v.transpose(0, 2, 1)[..., :c], w[:, None, :], out=buf[..., c:])
            yield _rotate(v, np.multiply(np.exp(1j * k2 * lam)[..., None], buf, out=buf))

    two, second = (dc + 2.0 * (phases @ amp).real - 1.0 / 3.0
                   for dc, amp, _ in _spectra(thermal, second_kick(), 2))
    return np.concatenate([np.zeros(lo_b), two - only_1 - second])
