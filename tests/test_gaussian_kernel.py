"""The gaussian pulse kernel against a dense full-block oracle.

The oracle runs the split chain on the whole density matrix of each m
block, rho~ <- Q rho~ Q^dagger, on the same stages (Kahan and Li's
sixth-order composition, 9 stages per step): one full-block Q per
distinct free flight, a sandwich after each kick.  A closed-form
first-order oracle checks the pulse against the impulsive kick instead,
and an adaptive ODE integration of the Schrodinger equation checks a
full-strength pulse with no split at all.  A pulse-major reference built
from the route's own pieces holds the bits of the group-major route, and
a sequence shifted by whole samples must give the shifted trace.  The
last tests hold the layout of the one column builder, which the route,
apply_pulse and the amplitude kernel share, and the traced memory peak
of one gaussian run.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotecho import (
    ExperimentConfig,
    MBlockDensityMatrix,
    MoleculeSpec,
    PulseSpec,
    RotorBasis,
    SolverOptions,
    apply_pulse,
    cos2theta_element,
    free_evolve,
    impulsive_kick,
    revival_period,
    rotational_energy,
    run_pulse_sequence,
    run_two_pulse,
    thermal_state,
    two_pulse_config,
)
from rotecho.basis import _thermal_populations
from rotecho.propagate import (
    WINDOW_SIGMAS,
    _coherence_spectrum,
    _column_groups,
    _columns,
    _piecewise,
    _pulse_segments,
    _pulse_table,
    _pulse_window,
    _rotate,
    _sample_times,
    _spectra,
    _spectrum_part,
    _step_pulse,
)

TOL = 1e-12

kicks = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


def _dense_pulse(rho, pulse, solver, sample_times=None):
    """The split chain sandwiching each full m block: the state after the
    pulse, as propagate._apply_gaussian_pulse returns it, and the
    <cos^2 theta> values at sample_times."""
    basis, omegas = rho.basis, rho.basis.omegas(rho.molecule)
    eig = [basis.cos2_eigensystem(m) for m in range(basis.j_max + 1)]
    tilde = [v.T @ block @ v for (_, v), block in zip(eig, rho.blocks)]
    values = []
    for alphas, taus, is_sample in _pulse_segments(pulse, solver, () if sample_times is None else sample_times):
        flights, which = np.unique(taus, return_inverse=True)
        for m, (lam, v) in enumerate(eig if alphas.size else ()):
            q = [v.T @ (np.exp(-1j * tau * omegas[m:])[:, None] * v) for tau in flights]
            rt = q[which[0]] @ tilde[m] @ q[which[0]].conj().T
            for alpha, i in zip(alphas, which[1:]):
                ph = np.exp(1j * alpha * lam)
                rt = (ph[:, None] * rt) * ph.conj()[None, :]
                rt = q[i] @ rt @ q[i].conj().T
            tilde[m] = rt
        if is_sample:
            values.append(sum(
                MBlockDensityMatrix.degeneracy(m) * np.dot(t.diagonal().real, lam)
                for m, (t, (lam, _)) in enumerate(zip(tilde, eig))
            ))
    blocks = tuple(v @ t @ v.T for t, (_, v) in zip(tilde, eig))
    return MBlockDensityMatrix(basis=basis, molecule=rho.molecule, blocks=blocks), np.array(values)


def _dense_trace(config, basis):
    """run_pulse_sequence's values from an explicit dense chain: the thermal
    density matrix, free flights, impulsive kicks or _dense_pulse with its
    in-window samples, one spectrum after each pulse."""
    times = _sample_times(config)
    rho = thermal_state(config.molecule, basis, config.solver.truncation_tol)
    stages, inner, cursor = [], [], min(0.0, _pulse_window(config.pulses[0])[0])
    for pulse in config.pulses:
        w_start, w_end = _pulse_window(pulse)
        if w_start > cursor:
            rho = free_evolve(rho, w_start - cursor)
        if pulse.shape == "impulsive":
            rho = impulsive_kick(rho, pulse.kick)
        else:
            lo, hi = np.searchsorted(times, (w_start, w_end), side="left")
            rho, vals = _dense_pulse(rho, pulse, config.solver, times[lo:hi])
            inner.append((lo, hi, vals))
        stages.append((w_end, _coherence_spectrum(rho)))
        cursor = w_end
    values = _piecewise(times, stages)
    for lo, hi, vals in inner:
        values[lo:hi] = vals - 1.0 / 3.0
    return values


sequences = st.tuples(*[st.sampled_from(["impulsive", "gaussian"])] * 3).filter(lambda s: "gaussian" in s)


@settings(max_examples=30, deadline=None)
@given(
    temperature=st.sampled_from([0.0, 30.0, 296.0]),
    weight_odd=st.sampled_from([0.0, 1.0]),
    j_max=st.integers(2, 12),
    shapes=sequences,
    strengths=st.tuples(kicks, kicks, kicks),
    substeps=st.integers(1, 48),
    samples_per_window=st.floats(0.3, 6.0),
)
def test_gaussian_kernel_matches_the_dense_oracle(
    temperature, weight_odd, j_max, shapes, strengths, substeps, samples_per_window
):
    # truncation_tol = 1 admits small bases at 296 K; a first pulse of
    # either shape hands a gaussian one a non-diagonal state, and its
    # change to the thermal state is Hermitian with negative eigenvalues.
    # Three pulses of drawn shapes run each group through flights between
    # pulses and give each pulse its own spectrum and in-window samples
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_odd=weight_odd)
    solver = SolverOptions(substeps=substeps, truncation_tol=1.0)
    pulses = tuple(PulseSpec(t0=t0, kick=k, shape=shape)
                   for t0, k, shape in zip((0.5, 1.5, 2.5), strengths, shapes))
    gaussian = next(p for p in pulses[::-1] if p.shape == "gaussian")
    dt_sample = 2.0 * WINDOW_SIGMAS * gaussian.sigma() / samples_per_window
    cfg = ExperimentConfig(mol, pulses, t_end=3.5, dt_sample=dt_sample, j_max=j_max, solver=solver)
    basis = RotorBasis(j_max)
    thermal = thermal_state(mol, basis, 1.0)
    rho = apply_pulse(thermal, pulses[0], solver)
    change = MBlockDensityMatrix(basis, mol, tuple(a - b for a, b in zip(rho.blocks, thermal.blocks)))
    for state in (rho, change):
        out, dense = apply_pulse(state, gaussian, solver), _dense_pulse(state, gaussian, solver)[0]
        assert max(np.max(np.abs(a - b)) for a, b in zip(out.blocks, dense.blocks)) <= TOL
    # a sequence with a gaussian pulse runs on the thermal columns and
    # builds no density matrix
    with mock.patch("rotecho.propagate.thermal_state", side_effect=AssertionError("dense state")):
        values = run_pulse_sequence(cfg, basis).values
    assert np.max(np.abs(values - _dense_trace(cfg, basis))) <= TOL


def _pulse_major_values(config, basis):
    """run_pulse_sequence's values with every group's columns built up
    front and stepped through one pulse before any group meets the next,
    each pulse's samples and spectrum summed over the groups in (m, h)
    order: the bits the group-major route must keep."""
    times, windows = _sample_times(config), [_pulse_window(pulse) for pulse in config.pulses]
    p = _thermal_populations(config.molecule, basis.j_max, config.solver.truncation_tol)
    groups, layout = _column_groups(basis, config.molecule, np.sqrt(p))
    zs, omegas = [_columns(group) for group in groups], basis.omegas(config.molecule)
    stages, inner, cursor = [], [], windows[0][0]
    for pulse, (w_start, w_end) in zip(config.pulses, windows):
        lo, hi = np.searchsorted(times, (w_start, w_end), side="left")
        vals, table = np.zeros(hi - lo), _pulse_table(pulse, config.solver, omegas, times[lo:hi])
        for group, z in zip(groups, zs):
            *_, js, _, lam, v = group
            if w_start > cursor:
                z *= np.exp(-1j * (w_start - cursor) * omegas)[js]
            if pulse.shape == "impulsive":
                y = _rotate(v.transpose(0, 2, 1), z) * np.exp(1j * pulse.kick * lam)[..., None]
                z[...] = _rotate(v, y)
            else:
                vals += _step_pulse(group, z, table)
        parts = [_spectrum_part(group, z, 1) for group, z in zip(groups, zs)]
        stages.append((w_end, _spectra(layout, parts, 1)[0]))
        inner.append((lo, hi, vals))
        cursor = w_end
    values = _piecewise(times, stages)
    for lo, hi, vals in inner:
        values[lo:hi] = vals - 1.0 / 3.0
    return values


@pytest.mark.parametrize(
    "molecule, j_max",
    [(MoleculeSpec(b_cm=0.2034), 60), (MoleculeSpec(b_cm=0.2034, temperature_k=5.0), 30)],
    ids=["296K", "5K"],
)
def test_group_major_route_keeps_the_bits_of_the_pulse_major_order(molecule, j_max):
    # a group's shares reordered move only round-off, so the dense
    # oracle's 1e-12 cannot see it; the bits do
    pulses = tuple(PulseSpec(t0=t0, kick=k, shape=shape) for t0, k, shape in
                   ((0.5, 1.0, "gaussian"), (1.5, 2.0, "impulsive"), (2.5, 1.5, "gaussian")))
    cfg = ExperimentConfig(molecule, pulses, t_end=3.5, dt_sample=0.02, j_max=j_max)
    basis = RotorBasis(j_max)
    assert np.array_equal(run_pulse_sequence(cfg, basis).values, _pulse_major_values(cfg, basis))


# Shifted by k samples, a sequence meets the grid at the same offsets, so
# only round-off of the shifted times moves the trace: at most 3.2e-14 of
# its peak in these two cases over k = 1, 3, 17, 50, 173.  Before the
# first window the trace is the isotropic 0
SHIFT_TOL = 1e-12


@pytest.mark.parametrize(
    "molecule, j_max, shapes",
    [(MoleculeSpec(b_cm=0.2034), 60, ("gaussian", "impulsive", "gaussian")),
     (MoleculeSpec(b_cm=0.2034, temperature_k=5.0), 30, ("impulsive", "gaussian", "gaussian"))],
    ids=["296K", "5K"],
)
def test_shifting_every_pulse_by_k_samples_shifts_the_trace_by_k(molecule, j_max, shapes):
    basis, dt = RotorBasis(j_max), 0.02

    def trace(k):
        pulses = tuple(PulseSpec(t0=t0 + k * dt, kick=kick, shape=shape) for t0, kick, shape in
                       zip((0.5, 1.5, 2.5), (1.0, 2.0, 1.5), shapes))
        cfg = ExperimentConfig(molecule, pulses, t_end=3.5 + k * dt, dt_sample=dt, j_max=j_max)
        return run_pulse_sequence(cfg, basis).values

    base = trace(0)
    for k in (1, 17, 173):
        shifted = trace(k)
        assert shifted.size == base.size + k and not np.any(shifted[:k])
        assert np.max(np.abs(shifted[k:] - base)) <= SHIFT_TOL * np.max(np.abs(base)), k


@pytest.mark.parametrize("element", [(0, 1), (3, 2)])
def test_gaussian_pulse_carries_an_element_between_even_and_odd_j(element):
    # the pulse sandwiches each block with its propagator, so an element
    # between even and odd J is carried, not refused, and nothing is factored
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=5.0)
    basis = RotorBasis(6)
    rho = thermal_state(mol, basis, 1.0)
    block = rho.blocks[1].copy()
    block[element] = 1e-3
    mixed = MBlockDensityMatrix(basis, mol, rho.blocks[:1] + (block,) + rho.blocks[2:])
    pulse = PulseSpec(t0=0.0, kick=0.5)
    for m in range(basis.j_max + 1):
        basis.cos2_eigensystem(m)
    with mock.patch("numpy.linalg.eigh", side_effect=AssertionError("eigh")):
        out = apply_pulse(mixed, pulse)
    dense = _dense_pulse(mixed, pulse, SolverOptions())[0]
    assert max(np.max(np.abs(a - b)) for a, b in zip(out.blocks, dense.blocks)) <= TOL
    assert abs(out.blocks[1][element]) > 1e-4


def _envelope_filter(sigma: float, delta_omega: np.ndarray) -> np.ndarray:
    """F = int g cos(dw s) / int g over the +-4 sigma window, g the
    Gaussian envelope, by 64-point Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(64)
    s = WINDOW_SIGMAS * sigma * x
    g = w * np.exp(-0.5 * (s / sigma) ** 2)
    return np.cos(np.outer(delta_omega, s)) @ g / g.sum()


@pytest.mark.parametrize("temperature, weight_odd", [(296.0, 1.0), (30.0, 1.0), (296.0, 0.0)])
def test_gaussian_pulse_is_the_impulsive_kick_filtered_by_its_envelope(temperature, weight_odd):
    # to first order in the kick, a pulse at t0 seen at the window end
    # t0 + 4 sigma is the kick at t0 followed by a free flight of 4 sigma,
    # each (J, J + 2) coherence times F(w_J - w_{J+2}).  2 f(h) - f(2h)/2
    # removes the h^2 term of either side, so what populations keep is the
    # h^3 and h^4 remainder, 3e-8 of the coherences at h = 1e-2.  With the
    # untruncated exp(-dw^2 sigma^2 / 2) for F the 296 K cases miss by 2e-5
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_odd=weight_odd)
    basis, h = RotorBasis(40), 1e-2
    thermal = thermal_state(mol, basis, 1.0)
    pulse = PulseSpec(t0=0.0, kick=h, duration_fwhm=0.1)
    half = WINDOW_SIGMAS * pulse.sigma()

    def first_order(run):
        change = [[a - b for a, b in zip(run(k).blocks, thermal.blocks)] for k in (h, 2.0 * h)]
        return [2.0 * a - 0.5 * b for a, b in zip(*change)]

    finite = first_order(lambda k: apply_pulse(thermal, replace(pulse, kick=k)))
    kicked = first_order(lambda k: free_evolve(impulsive_kick(thermal, k), half))
    omegas = basis.omegas(mol)
    filters = _envelope_filter(pulse.sigma(), omegas[:-2] - omegas[2:])
    expected = [b.diagonal(2) * filters[m:] for m, b in enumerate(kicked)]
    scale = max(np.max(np.abs(e), initial=0.0) for e in expected)
    for got, want in zip(finite, expected):
        assert np.max(np.abs(got.diagonal(2) - want), initial=0.0) <= 1e-5 * scale
        assert np.max(np.abs(got.diagonal()), initial=0.0) <= 1e-6 * scale


# The largest block, both parities of m, and m = 2, whose 24-row odd-J
# half leads a group with m = 3's even-J half
_ODE_BLOCKS = (0, 1, 2, 5)


def _ode_pulse(rho, pulse):
    """U rho U^dagger for the blocks _ODE_BLOCKS, U from i dU/dt = (diag w_J
    - kick g(t) cos^2 theta) U with U = I at the window start, g the
    envelope normalized over the +-4 sigma window; H is built element by
    element, with no band or eigensystem of the engine."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sigma = pulse.sigma()
    half = WINDOW_SIGMAS * sigma
    mass = sigma * math.sqrt(2.0 * math.pi) * math.erf(WINDOW_SIGMAS / math.sqrt(2.0))
    out = {}
    for m in _ODE_BLOCKS:
        js = np.arange(m, rho.basis.j_max + 1)
        h0 = np.diag(rotational_energy(js, rho.molecule))
        c = np.array([[cos2theta_element(j, jp, m) for jp in js] for j in js])

        def rhs(t, y, h0=h0, c=c):
            g = pulse.kick * math.exp(-0.5 * ((t - pulse.t0) / sigma) ** 2) / mass
            return (-1j * ((h0 - g * c) @ y.reshape(c.shape))).ravel()

        u0 = np.eye(js.size, dtype=complex).ravel()
        sol = solve_ivp(rhs, (pulse.t0 - half, pulse.t0 + half), u0,
                        method="DOP853", rtol=1e-12, atol=1e-13)
        u = sol.y[:, -1].reshape(c.shape)
        out[m] = u @ rho.blocks[m] @ u.conj().T
    return out


@pytest.mark.parametrize(
    "temperature, kick, j_max", [(296.0, 4.0, 50), (30.0, 8.0, 40)], ids=["296K", "30K"]
)
def test_full_strength_gaussian_pulse_matches_an_ode_integration(temperature, kick, j_max):
    # errors relative to each block's largest element.  On 64 steps the
    # split chain meets the ODE within its tolerance (measured 1.5e-12 and
    # 1.3e-12).  The default 8 steps measured 2.5e-8 and 1.0e-8; the
    # bound 1e-7 leaves 4x for platform rounding and still fails a mesh
    # one halving coarser, which measured 1.9e-6 and 6.6e-6
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature)
    rho = thermal_state(mol, RotorBasis(j_max), 1.0)
    pulse = PulseSpec(t0=0.0, kick=kick, duration_fwhm=0.1)
    exact = _ode_pulse(rho, pulse)
    for substeps, bound in ((64, 1e-10), (SolverOptions().substeps, 1e-7)):
        blocks = apply_pulse(rho, pulse, SolverOptions(substeps=substeps)).blocks
        for m, want in exact.items():
            assert np.max(np.abs(blocks[m] - want)) <= bound * np.max(np.abs(want)), (substeps, m)


@pytest.mark.parametrize(
    "molecule, j_max, trailing",
    [(MoleculeSpec(b_cm=0.2034), 80, False),
     (MoleculeSpec(b_cm=0.2034, temperature_k=5.0), 119, True),
     (MoleculeSpec(b_cm=0.2034, weight_odd=0.0), 80, False),
     (MoleculeSpec(b_cm=0.2034, temperature_k=0.0), 40, True),
     (None, 40, False)],
    ids=["296K", "5K", "weight_odd_0", "0K", "identity"],
)
def test_column_groups_lay_weights_out_as_leading_columns(molecule, j_max, trailing):
    # the weights as the column route and the kernel (sqrt p) and
    # apply_pulse (ones) hand them over.  Each group is a run of halves in
    # (m, h) order with equal rows and equal count c of nonzero weights,
    # which lead; its columns are each half's diag(d)[:, :c] and its J
    # column the half's levels.  Random columns of that shape, reduced by
    # _spectrum_part and _spectra on the layout, must give the dense
    # state's spectrum.  At 5 K p is 0 above J = 112, so at j_max = 119
    # some half has c < n; at 0 K every populated half has c = 1
    basis, mol = RotorBasis(j_max), molecule or MoleculeSpec(b_cm=0.2034)
    d = np.ones(j_max + 1) if molecule is None else np.sqrt(_thermal_populations(molecule, j_max, 1e-2))
    halves = [(m, h, d[m + h :: 2]) for m, h in itertools.product(range(j_max + 1), (0, 1))
              if np.any(d[m + h :: 2])]
    runs = [list(run) for _, run in
            itertools.groupby(halves, key=lambda half: (half[2].size, np.count_nonzero(half[2])))]
    groups, layout = _column_groups(basis, mol, d)
    assert [len(run) for run in runs] == [group[0].shape[0] for group in groups]
    rng, zs = np.random.default_rng(7), []
    for group, run in zip(groups, runs):
        *_, js, w, _, v = group
        for (m, h, dh), z, j in zip(run, _columns(group), js):
            c = np.count_nonzero(dh)
            assert not np.any(dh[c:]) and w.shape[1] == c
            assert z.tobytes() == np.diag(dh)[:, :c].astype(complex).tobytes()
            assert np.array_equal(j[:, 0], np.arange(m + h, j_max + 1, 2))
        zs.append(rng.normal(size=(*v.shape[:2], w.shape[1], 2)).view(complex)[..., 0])
    assert any(np.count_nonzero(dh) < dh.size for *_, dh in halves) == trailing
    g = [MBlockDensityMatrix.degeneracy(m) for m, *_ in halves]
    norm = math.sqrt(np.dot(g, [np.vdot(a, a).real for z in zs for a in z]))
    blocks = [np.zeros((j_max + 1 - m,) * 2, dtype=complex) for m in range(j_max + 1)]
    for (m, h, _), a in zip(halves, (a / norm for z in zs for a in z)):
        blocks[m][h::2, h::2] = a @ a.conj().T
    parts = [_spectrum_part(group, z / norm, 1) for group, z in zip(groups, zs)]
    dc, amp, freqs = _spectra(layout, parts, 1)[0]
    want = _coherence_spectrum(MBlockDensityMatrix(basis, mol, tuple(blocks)))
    assert abs(dc - want[0]) <= TOL and np.max(np.abs(amp - want[1])) <= TOL
    assert np.array_equal(freqs, want[2])


# One gaussian two-pulse run at j_max = 80, 296 K, on a basis whose
# eigensystems are built, peaks at 1.00 MiB of traced allocations: one
# group's columns, buffer and kick table beside both pulses' flight
# tables, as each group of the shared builder runs the whole sequence
# before the next is built.  The pair groups this replaced, each with a
# zero-padded copy of V, peaked at 1.35 MiB; stepping all of them through
# one pulse before the next peaked at 3.80 MiB (5.12 MiB with dense
# diag(sqrt p) or identity columns).  The bound sits between the first two.
GAUSSIAN_RUN_PEAK_MIB = 1.2


def test_one_gaussian_run_stays_under_its_traced_peak(ocs):
    basis = RotorBasis(80)
    basis._parity_halves()
    cfg = two_pulse_config(ocs, 1.0, 4.0, 0.125 * revival_period(ocs), shape="gaussian", j_max=80)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_two_pulse(cfg, basis)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < GAUSSIAN_RUN_PEAK_MIB * 2**20, peak / 2**20
