"""Time propagation of m-block density matrices through laser pulses.

Free evolution multiplies the (J, J') element by exp(-i*(w_J - w_J')*dt)
and is evaluated in closed form.  During a finite pulse the Hamiltonian
is H0 - kick*g(t)*cos^2(theta) with g the unit-integral Gaussian
intensity envelope; the propagator is a chain of exact exponentials of
the split parts on a fixed step mesh, each step Kahan and Li's
sixth-order composition of nine Strang stages, so the evolution is
unconditionally unitary and the splitting error falls as the sixth power
of the step.  Neither part mixes J parity, so the pulse factors each
(m, J-parity) half of the state as Z diag(mu) Z^dagger in the J basis and
pushes only the columns Z through the chain: a flight is an elementwise
phase and a kick two real products, batched for all halves of one size;
a state with an element between even and odd J is rejected.  The
impulsive limit applies U = exp(i*kick*cos^2 theta) in one step.

This density-matrix path is the reference.  The optimum search,
averaged scans and isolated echoes of impulsive configs run the
amplitude kernel at the end of the module, which kicks the thermal
columns W = sqrt(p) of rho = W W^dagger of the (m, J-parity) half-blocks.
Halves of one shape are stacked, so each kick is one batched product per
group, and their shares of a spectrum are summed in (m, h) order, which
keeps the bits a loop over single halves gives.
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
    j_max = 80 one gaussian run takes about 11 times as long as an
    impulsive one, 0.37 s against 0.033 s on one BLAS thread).
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


def _apply_gaussian_pulse(
    rho: MBlockDensityMatrix,
    pulse: PulseSpec,
    solver: SolverOptions,
    sample_times: np.ndarray | None = None,
) -> tuple[MBlockDensityMatrix, np.ndarray]:
    """Sixth-order split integration across the pulse window.

    The chain alternates exact exponentials of H0 and of the coupling on
    the stages of _pulse_segments.  Neither mixes J parity, so each (m,
    J-parity) half is factored once in the J basis, rho_half = Z diag(mu)
    Z^dagger with mu keeping its signs, and only the columns Z are
    propagated: a flight tau of H0 is the row phase exp(-i*w_J*tau), and a
    kick alpha is V (exp(i*alpha*lambda) * (V^T Z)) with (lambda, V) the
    half's cos^2 eigensystem, two real products.  Halves of equal size are
    stacked and stepped one size at a time.  A mid-pulse expectation value
    is g * sum mu * z^dagger cos^2 z from the half's two cos^2 bands,
    summed per size and then over sizes in a fixed order.  The state must
    have no element between even and odd J (ValueError otherwise); the
    thermal state has none, and kicks, free evolution and pulses create
    none.
    """
    basis = rho.basis
    omegas = basis.omegas(rho.molecule)
    groups: dict[int, list] = {}
    for m, block in enumerate(rho.blocks):
        if np.any(block[0::2, 1::2]) or np.any(block[1::2, 0::2]):
            raise ValueError(f"block m={m} couples even and odd J")
        g, (diag, off) = MBlockDensityMatrix.degeneracy(m), basis._cos2_bands(m)
        for h, (lam, v) in enumerate(basis._parity_eigensystems(m)):
            if lam.size:
                member = (m, h, g * diag[h::2], g * off[h::2], lam, v, omegas[m + h :: 2])
                groups.setdefault(lam.size, []).append(member)
    segments = list(_pulse_segments(pulse, solver, () if sample_times is None else sample_times))
    blocks = [np.zeros((basis.block_dim(m),) * 2, dtype=complex) for m in range(basis.j_max + 1)]
    values = np.zeros(sum(is_sample for *_, is_sample in segments))
    for members in groups.values():  # one size's state and phases alive at a time
        ms, hs, gd, go, lam, v, om = (np.array(a) for a in zip(*members))
        mu, z = np.linalg.eigh(np.array([rho.blocks[m][h::2, h::2] for m, h in zip(ms, hs)]))
        vt, own = v.transpose(0, 2, 1), []
        for alphas, taus, is_sample in segments:
            if alphas.size:
                kicks = np.exp(1j * np.multiply.outer(alphas, lam))[..., None]
                flights = np.exp(-1j * np.multiply.outer(taus, om))[..., None]
                z = z * flights[0]
                for kick, flight in zip(kicks, flights[1:]):
                    y = _rotate(vt, z)
                    y *= kick
                    z = _rotate(v, y)
                    z *= flight
            if is_sample:
                zf = z.view(np.float64)  # Re(a b*) = a.re b.re + a.im b.im
                zm = zf * np.repeat(mu, 2, axis=1)[:, None, :]
                rows = np.einsum("gik,gik->gi", zm, zf)
                band = np.einsum("gik,gik->gi", zm[:, :-1], zf[:, 1:])
                own.append(float(np.sum(gd * rows) + 2.0 * np.sum(go * band)))
        values += own
        for m, h, half in zip(ms, hs, (z * mu[:, None, :]) @ z.conj().transpose(0, 2, 1)):
            blocks[m][h::2, h::2] = half
    out = MBlockDensityMatrix(basis=basis, molecule=rho.molecule, blocks=tuple(blocks))
    return out, values


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
    out, _ = _apply_gaussian_pulse(rho, pulse, solver)
    return out


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
    solver = config.solver
    if basis is None:
        basis = RotorBasis(config.resolve_j_max())
    rho = thermal_state(config.molecule, basis, solver.truncation_tol)

    windows = [_pulse_window(p) for p in config.pulses]
    for i in range(len(windows) - 1):
        if windows[i][1] > windows[i + 1][0]:
            raise ValueError("pulse windows overlap; increase the delay")

    times = _sample_times(config)
    stages, inner = [], []
    cursor = min(0.0, windows[0][0])
    for pulse, (w_start, w_end) in zip(config.pulses, windows):
        if w_start > cursor:
            rho = free_evolve(rho, w_start - cursor)
        if pulse.shape == "impulsive":
            rho = impulsive_kick(rho, pulse.kick)
        else:
            lo, hi = np.searchsorted(times, (w_start, w_end), side="left")
            rho, vals = _apply_gaussian_pulse(rho, pulse, solver, times[lo:hi])
            inner.append((lo, hi, vals))
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

    A half is one (m, J-parity) block with populated levels.  Taken in
    (m, h) order, each run of halves with equal (rows, populated columns)
    shape is stacked into one group: at j_max = 120 the 241 halves make 61
    groups of at most 4.  A group is (g * cos^2 diagonal, g * Delta-J = 2
    elements, degeneracy g, eigenvalues, V, level frequencies, V^T W), each
    with a leading half axis, W = sqrt(p) on the populated levels; it holds
    the only stacked copy of them.  The element indices follow the halves'
    (m, h) order, which the groups keep."""
    p = _thermal_populations(config.molecule, basis.j_max, config.solver.truncation_tol)
    omegas = basis.omegas(config.molecule)

    def halves():  # stacked run by run, so one run's copies are alive at a time
        for m in range(basis.j_max + 1):
            g, (diag, off) = MBlockDensityMatrix.degeneracy(m), basis._cos2_bands(m)
            for h, (lam, v) in enumerate(basis._parity_eigensystems(m)):
                pop, cols = p[m + h :: 2], np.flatnonzero(p[m + h :: 2])
                if cols.size:
                    yield (m + h, g * diag[h::2], g * off[h::2], g,
                           lam, v, omegas[m + h :: 2], v.T[:, cols] * np.sqrt(pop[cols]))

    runs = itertools.groupby(halves(), key=lambda half: half[-1].shape)
    groups = [tuple(np.array(a) for a in zip(*run)) for _, run in runs]
    targets = np.concatenate(
        [(j0[:, None] + np.arange(0, 2 * gco.shape[1], 2)).ravel() for j0, _, gco, *_ in groups]
    )
    return [group[1:] for group in groups], targets, omegas[2:] - omegas[:-2]


def _spectra(thermal: tuple, states, n_states: int) -> list:
    """(dc, amp, freqs) of n_states states, as _coherence_spectrum gives
    them; states holds one (halves, rows, n_states * columns) amplitude
    array per group, reduced at once to row dot products.  The halves'
    shares are then added one after another in (m, h) order, the order that
    fixes the bits of each sum.  Checks each weighted norm."""
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
    no second kick changes: the trace up to the second kick, the
    first-pulse-only trace and exp(i*outer(t - t_b, freqs)).  The second
    kick then costs one batched product V @ (exp(i*kick*lambda) *
    [X | V^T W]) per group for the two-pulse and second-pulse-only
    amplitudes, and one matrix-vector product per amplitude."""
    (t_a, k1), (t_b, k2) = ((p.t0, p.kick) for p in config.pulses)
    dtau = t_b - t_a
    if "thermal" not in cache:
        cache["thermal"] = _thermal_halves(config, basis)
    thermal = cache["thermal"]
    groups = thermal[0]
    if cache.get("first", (None,))[0] != (k1, dtau):
        for entry in ("first", "window"):  # free the old entry before building the new one
            cache.pop(entry, None)
        xs = []

        def first_kick():  # one group's W_1 alive at a time
            for *_, lam, v, om, vt_w in groups:
                w1 = _rotate(v, np.exp(1j * k1 * lam)[..., None] * vt_w)
                xs.append(_rotate(v.transpose(0, 2, 1), np.exp(-1j * dtau * om)[..., None] * w1))
                yield w1

        s1 = _spectra(thermal, first_kick(), 1)[0]
        cache["first"] = ((k1, dtau), s1, xs)
    _, s1, xs = cache["first"]
    window = (t_a, t_b, times.tobytes())
    if cache.get("window", (None,))[0] != window:
        lo_a, lo_b = (int(np.searchsorted(times, t, side="left")) for t in (t_a, t_b))
        head = np.full(lo_b, 1.0 / 3.0)
        head[lo_a:] = _free_values(s1, times[lo_a:lo_b] - t_a)
        phases = np.exp(1j * np.outer(times[lo_b:] - t_b, s1[2]))
        cache["window"] = (window, head, phases, _piecewise(times, [(t_a, s1)]))
    _, head, phases, only_1 = cache["window"]

    def trace(spectrum, before: np.ndarray) -> np.ndarray:
        """_piecewise's values: before, then spectrum from the second kick on."""
        dc, amp, _ = spectrum
        return np.concatenate([before, dc + 2.0 * (phases @ amp).real]) - 1.0 / 3.0

    second_kick = (
        _rotate(v, np.exp(1j * k2 * lam)[..., None] * np.concatenate([x, vt_w], axis=2))
        for (*_, lam, v, _, vt_w), x in zip(groups, xs)
    )
    s12, s2 = _spectra(thermal, second_kick, 2)
    return trace(s12, head) - only_1 - trace(s2, np.full(head.size, 1.0 / 3.0))
