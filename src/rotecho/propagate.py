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
an elementwise phase and a kick two real products, batched over a group
of halves of one shape.  apply_pulse carries identity columns, which
gives each half's propagator U, and sandwiches each block with it.  The
impulsive limit applies U = exp(i*kick*cos^2 theta) in one step.

A sequence with a gaussian pulse runs on the thermal columns W = sqrt(p)
(mu = 1), one group of halves at a time from first pulse to last, with no
density matrix; all-impulsive sequences run on the density matrix, which
is the reference.  The optimum search, averaged scans and isolated echoes
of impulsive configs run the amplitude kernel at the end of the module,
which kicks the same columns one group at a time through every second
kick of a scan node.  One builder, _column_groups, makes the groups of
both engines and of apply_pulse, and both engines add the groups' shares
of a spectrum in (m, h) order, which keeps the bits a loop over single
halves gives.
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

# Least offsets per chunk of a free trace's Fourier sum, which bounds its exp
# table; a 1-row chunk takes another BLAS kernel and moves bits, 64 keep them.
FREE_CHUNK_ROWS = 256

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
    """<cos^2 theta> at offsets t_rel from a state's (dc, amp, freqs) spectrum,
    in chunks of FREE_CHUNK_ROWS to 2 * FREE_CHUNK_ROWS offsets."""
    dc, amp, freqs = spectrum
    chunks = np.array_split(t_rel, max(1, t_rel.size // FREE_CHUNK_ROWS))
    osc = np.concatenate([np.exp(1j * np.outer(t, freqs)) @ amp for t in chunks])
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


def _pulse_table(pulse: PulseSpec, solver: SolverOptions, omegas, sample_times) -> tuple:
    """A gaussian pulse's (segments, stage kicks, flight phases
    exp(-i*w_J*tau) over the levels J), built once for every group."""
    segments = list(_pulse_segments(pulse, solver, sample_times))
    alphas, taus = (np.concatenate([seg[i] for seg in segments]) for i in (0, 1))
    return segments, alphas, np.exp(-1j * np.multiply.outer(taus, omegas))


def _step_pulse(group: tuple, z: np.ndarray, table: tuple) -> np.ndarray:
    """Carry a _column_groups group's columns z across a pulse window in
    place, on the stages of the pulse's _pulse_table; returns the group's
    share of <cos^2 theta> at the sample times, which callers add group
    after group.  A flight tau is a row of the flight table gathered at the
    J of each row and a kick alpha V (exp(i*alpha*lambda) * (V^T z)), two
    real products into buffers made once per group; the group's kick
    phases are tabled once for the pulse."""
    (segments, alphas, levels), (gd, go, _, js, _, lam, v) = table, group
    kicks = np.multiply.outer(1j * alphas, lam)
    kicks = iter(np.exp(kicks, out=kicks)[..., None])
    flights = (row[js] for row in levels)
    vt, zf, y = v.transpose(0, 2, 1), z.view(np.float64), np.empty_like(z)
    yf, shares = y.view(np.float64), []
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
            shares.append(float(np.sum(gd * rows) + 2.0 * np.sum(go * band)))
    return np.array(shares)


def _columns(group: tuple) -> np.ndarray:
    """A group's columns diag(w): w on the diagonal of its halves' rows by c."""
    *_, w, _, v = group
    return w[:, None, :] * np.eye(v.shape[1], w.shape[1], dtype=complex)


def _apply_gaussian_pulse(
    rho: MBlockDensityMatrix, pulse: PulseSpec, solver: SolverOptions
) -> MBlockDensityMatrix:
    """Sixth-order split integration of a state across the pulse window.

    _step_pulse carries the identity columns of each (m, J-parity) half,
    which makes them that half's propagator U across the window; each m
    block is then sandwiched as U rho U^dagger, as impulsive_kick does."""
    basis, halves = rho.basis, itertools.product(range(rho.basis.j_max + 1), (0, 1))
    groups, _ = _column_groups(basis, rho.molecule, np.ones(basis.j_max + 1))
    table = _pulse_table(pulse, solver, basis.omegas(rho.molecule), ())
    us = [np.zeros(block.shape, dtype=complex) for block in rho.blocks]
    for group in groups:  # one group's columns alive at a time
        _step_pulse(group, z := _columns(group), table)
        for u, (m, h) in zip(z, halves):  # z first: a half drawn past its end would be lost
            us[m][h::2, h::2] = u
    blocks = tuple(u @ block @ u.conj().T for u, block in zip(us, rho.blocks))
    return MBlockDensityMatrix(basis=basis, molecule=rho.molecule, blocks=blocks)


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
    W^dagger.  No group reads another's columns, so each is built at the
    first pulse, carried to the last (a free flight is a row phase, an
    impulsive pulse one kick and a gaussian one _step_pulse) and dropped;
    its shares of each pulse's spectrum and samples are added in order."""
    p = _thermal_populations(config.molecule, basis.j_max, config.solver.truncation_tol)
    groups, layout = _column_groups(basis, config.molecule, np.sqrt(p))
    omegas, bounds = basis.omegas(config.molecule), np.searchsorted(times, windows, side="left")
    tables = [_pulse_table(pulse, config.solver, omegas, times[lo:hi]) if pulse.shape == "gaussian"
              else None for pulse, (lo, hi) in zip(config.pulses, bounds)]
    acc = [(np.zeros(hi - lo), []) for lo, hi in bounds]  # samples, spectrum parts
    for group in groups:  # one group's columns alive at a time
        *_, js, _, lam, v = group
        z, cursor = _columns(group), windows[0][0]
        for pulse, (start, end), table, (vals, parts) in zip(config.pulses, windows, tables, acc):
            if start > cursor:
                z *= np.exp(-1j * (start - cursor) * omegas)[js]
            if table is None:
                y = _rotate(v.transpose(0, 2, 1), z) * np.exp(1j * pulse.kick * lam)[..., None]
                z[...] = _rotate(v, y)
            else:
                vals += _step_pulse(group, z, table)
            parts.append(_spectrum_part(group, z, 1))
            cursor = end
    stages = [(end, _spectra(layout, parts, 1)[0]) for (_, end), (_, parts) in zip(windows, acc)]
    return stages, [(lo, hi, vals) for (lo, hi), (vals, _) in zip(bounds, acc)]  # empty at a kick


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
        stages, inner, cursor = [], [], windows[0][0]
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


def _column_groups(basis: RotorBasis, molecule: MoleculeSpec, d: np.ndarray) -> tuple:
    """(groups, (spectrum index of each Delta-J = 2 element, coherence
    frequencies)) of the columns diag(d) of each (m, J-parity) half, d a
    weight per level J that is nonzero on each half's leading c levels:
    sqrt(p) gives the thermal columns W (p falls with J in a parity), ones
    each half's identity.

    A group is a run of the basis's equal-size halves with equal c > 0:
    61 groups of at most 4 at j_max = 120, 296 K.  It holds g * cos^2
    diagonal, g * Delta-J = 2 band, g, the J of each row as a column, w =
    d on the c levels, and views of the basis's eigenvalues and V, each
    with a leading half axis in (m, h) order, as the element indices."""
    def halves():  # every half of the basis, keyed by (rows, c)
        for (m, h), lam, v, i in basis._parity_halves():
            (diag, off), dh = basis._cos2_bands(m), d[m + h :: 2]
            g = MBlockDensityMatrix.degeneracy(m)
            yield ((lam.shape[1], c := np.count_nonzero(dh)), (lam[i:], v[i:]), g * diag[h::2],
                   g * off[h::2], g, np.arange(m + h, basis.j_max + 1, 2)[:, None], dh[:c])

    groups = []
    for (_, c), run in itertools.groupby(halves(), key=lambda half: half[0]):
        _, tails, *fields = zip(*run)  # tails[0]: the stacks from the run's first half on
        if c:
            groups.append((*(np.array(a) for a in fields), *(a[: len(tails)] for a in tails[0])))
    omegas = basis.omegas(molecule)
    targets = np.concatenate([js[:, :-1, 0].ravel() for *_, js, _, _, _ in groups])
    return groups, (targets, omegas[2:] - omegas[:-2])


def _spectrum_part(group: tuple, z: np.ndarray, n_states: int) -> tuple:
    """One group's share of _spectra: z, its (halves, rows, n_states *
    columns) amplitudes, reduced at once to row dot products, as each
    half's (cos^2 expectation, weighted norm, Delta-J = 2 coherences) per
    state; group leads with (g * cos^2 diagonal, g * Delta-J = 2 band, g)."""
    (gcd, gco, g, *_), z = group, z.reshape(*z.shape[:2], n_states, -1)
    pop = np.einsum("gisj,gisj->gis", z.view(np.float64), z.view(np.float64))
    amp = np.einsum("gisj,gisj->gsi", z[:, :-1], z[:, 1:].conj()) * gco[:, None, :]
    coh = amp.transpose(1, 0, 2).reshape(n_states, -1)
    return (gcd[:, None, :] @ pop)[:, 0], g[:, None] * pop.sum(axis=1), coh


def _spectra(layout: tuple, parts, n_states: int) -> list:
    """(dc, amp, freqs) of n_states states, as _coherence_spectrum gives
    them, from the groups' _spectrum_part shares; layout holds the spectrum
    index of each Delta-J = 2 element and the frequencies.  The halves'
    shares are added one after another in (m, h) order, the order that
    fixes the bits of each sum.  Checks each weighted norm."""
    (targets, freqs), (dc, norm, coh) = layout, zip(*parts)
    # cumsum and add.at add in index order, one half after another
    dc, norm = (np.cumsum(np.concatenate(a), axis=0)[-1] for a in (dc, norm))
    coh, amp = np.concatenate(coh, axis=1), np.zeros((n_states, freqs.size), dtype=complex)
    for s in range(n_states):
        np.add.at(amp[s], targets, coh[s])
    for total in norm:
        _check_drift(total)
    return [(dc[s], amp[s], freqs) for s in range(n_states)]


def _impulsive_values(configs: list, basis: RotorBasis, cache: dict, times: np.ndarray) -> list:
    """The traces at times on their grid, minus both single-pulse traces, of
    impulsive two-pulse configs that differ only in the second kick, in
    run_pulse_sequence's form, 0 before the second kick; a config whose
    spectra fail the drift check gets its ToleranceError in their place.

    Group by group: W_1, then X = V^T F(dtau) W_1 with F the free phases (a
    kick forms V^T W = V^T[:, :c] w where it reads it), then for each config
    one product V @ (exp(i*kick*lambda) * [X | V^T W]) and its shares of the
    two-pulse and second-pulse-only spectra; X is dropped and each config
    reduced once.  cache keeps the thermal groups.  Only a cache holding the
    key "first", the optimum search's, keeps the first-pulse entry: the
    post-kick-1 spectrum, every X and the pieces of the last window it
    served (the first-pulse-only trace from t_b on, exp(i*outer(t - t_b, freqs)))."""
    (t_a, k1), (t_b, _) = ((p.t0, p.kick) for p in configs[0].pulses)
    dtau, mol = t_b - t_a, configs[0].molecule
    if "thermal" not in cache:
        p = _thermal_populations(mol, basis.j_max, configs[0].solver.truncation_tol)
        cache["thermal"] = _column_groups(basis, mol, np.sqrt(p))
    (groups, layout), keep, entry = cache["thermal"], "first" in cache, cache.get("first")
    fresh = entry is None or entry[0] != (k1, dtau)
    if fresh:
        cache.pop("first", None)  # free the old entry before building the new one
        entry, first, flight = (None, None, [], None), [], np.exp(-1j * dtau * basis.omegas(mol))
    xs, shares = entry[2], [[] for _ in configs]
    for i, group in enumerate(groups):  # one group's X alive at a time, unless kept
        *_, js, w, lam, v = group
        x_vt_w, c = np.empty((*lam.shape, 2 * w.shape[1]), dtype=complex), w.shape[1]
        np.multiply(v.transpose(0, 2, 1)[..., :c], w[:, None, :], out=x_vt_w[..., c:])
        if fresh:
            w1 = _rotate(v, np.exp(1j * k1 * lam)[..., None] * x_vt_w[..., c:])
            first.append(_spectrum_part(group, w1, 1))
            xs.append(_rotate(v.transpose(0, 2, 1), flight[js] * w1))
        x_vt_w[..., :c] = xs[i] if keep else xs.pop()
        buf = x_vt_w if len(configs) == 1 else np.empty_like(x_vt_w)  # one kick: in place
        for config, parts in zip(configs, shares):
            np.multiply(np.exp(1j * config.pulses[1].kick * lam)[..., None], x_vt_w, out=buf)
            z = _rotate(v, buf)  # held until the next is made: freed at once, its pages refault
            parts.append(_spectrum_part(group, z, 2))
    s1 = _spectra(layout, first, 1)[0] if fresh else entry[1]
    window, pieces = (t_a, t_b, times.tobytes()), entry[3]
    if pieces is None or pieces[0] != window:
        lo_b = int(np.searchsorted(times, t_b, side="left"))
        phases = np.exp(1j * np.outer(times[lo_b:] - t_b, s1[2]))
        pieces = (window, lo_b, phases, _piecewise(times[lo_b:], [(t_a, s1)]))
    if keep:
        cache["first"] = ((k1, dtau), s1, xs, pieces)
    values, (_, lo_b, phases, only_1) = [], pieces
    for parts in shares:
        try:
            two, second = (dc + 2.0 * (phases @ amp).real - 1.0 / 3.0
                           for dc, amp, _ in _spectra(layout, parts, 2))
            values.append(np.concatenate([np.zeros(lo_b), two - only_1 - second]))
        except ToleranceError as exc:
            values.append(exc)
    return values
