"""The gaussian pulse kernel against a dense full-block oracle.

The oracle runs the split chain on the whole density matrix of each m
block, rho~ <- Q rho~ Q^dagger, on the same stages (Kahan and Li's
sixth-order composition, 9 stages per step): one full-block Q per
distinct free flight, a sandwich after each kick.  A closed-form
first-order oracle checks the pulse against the impulsive kick instead,
and an adaptive ODE integration of the Schrodinger equation checks a
full-strength pulse with no split at all.  The last tests hold the
kernel's column layout, built from each half's diagonal, and the traced
memory peak of one gaussian run.
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
    _piecewise,
    _pulse_groups,
    _pulse_segments,
    _pulse_window,
    _sample_times,
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


@settings(max_examples=30, deadline=None)
@given(
    temperature=st.sampled_from([0.0, 30.0, 296.0]),
    weight_odd=st.sampled_from([0.0, 1.0]),
    j_max=st.integers(2, 12),
    first=st.sampled_from(["impulsive", "gaussian"]),
    k1=kicks,
    k2=kicks,
    substeps=st.integers(1, 48),
    samples_per_window=st.floats(0.3, 6.0),
)
def test_gaussian_kernel_matches_the_dense_oracle(
    temperature, weight_odd, j_max, first, k1, k2, substeps, samples_per_window
):
    # truncation_tol = 1 admits small bases at 296 K; a first pulse of
    # either shape hands the second one a non-diagonal state, and its
    # change to the thermal state is Hermitian with negative eigenvalues
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_odd=weight_odd)
    solver = SolverOptions(substeps=substeps, truncation_tol=1.0)
    p1 = PulseSpec(t0=0.5, kick=k1, shape=first)
    p2 = PulseSpec(t0=1.5, kick=k2)
    dt_sample = 2.0 * WINDOW_SIGMAS * p2.sigma() / samples_per_window
    cfg = ExperimentConfig(mol, (p1, p2), t_end=2.5, dt_sample=dt_sample, j_max=j_max, solver=solver)
    basis = RotorBasis(j_max)
    thermal = thermal_state(mol, basis, 1.0)
    rho = apply_pulse(thermal, p1, solver)
    change = MBlockDensityMatrix(basis, mol, tuple(a - b for a, b in zip(rho.blocks, thermal.blocks)))
    for state in (rho, change):
        out, dense = apply_pulse(state, p2, solver), _dense_pulse(state, p2, solver)[0]
        assert max(np.max(np.abs(a - b)) for a, b in zip(out.blocks, dense.blocks)) <= TOL
    # a sequence with a gaussian pulse runs on the thermal columns and
    # builds no density matrix
    with mock.patch("rotecho.propagate.thermal_state", side_effect=AssertionError("dense state")):
        values = run_pulse_sequence(cfg, basis).values
    assert np.max(np.abs(values - _dense_trace(cfg, basis))) <= TOL


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
# half the kernel pads to ride with the 25-row halves of m = 0 and 1
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
def test_pulse_groups_lay_diagonals_out_as_padded_columns(molecule, j_max, trailing):
    # the halves as the column route (thermal sqrt p of each populated half)
    # and apply_pulse (ones) hand them over; each group's Z must be its
    # halves' diag(d)[:, :c] padded to the group's rows and widest c.  At
    # 5 K p is 0 above J = 112, so at j_max = 119 some half has c < n; at
    # 0 K every populated half has c = 1
    basis = RotorBasis(j_max)
    halves = itertools.product(range(j_max + 1), (0, 1))
    if molecule is None:
        halves = [(m, h, np.ones(n)) for m, h in halves if (n := (j_max - m - h) // 2 + 1)]
    else:
        p = np.sqrt(_thermal_populations(molecule, j_max, 1e-2))
        halves = [(m, h, p[m + h :: 2]) for m, h in halves if np.any(p[m + h :: 2])]
    expected = []
    for _, run in itertools.groupby(halves, key=lambda half: half[2].size // 2):
        run = [(m, h, np.diag(d)[:, : np.count_nonzero(d)]) for m, h, d in run]
        rows, cols = (max(z.shape[i] for *_, z in run) for i in (0, 1))
        zs = np.zeros((len(run), rows, cols), dtype=complex)
        for padded, (*_, z) in zip(zs, run):
            padded[: z.shape[0], : z.shape[1]] = z
        expected.append((zs, [(m, h, *z.shape) for m, h, z in run]))
    groups = _pulse_groups(basis, halves)
    assert len(groups) == len(expected)
    for (*_, zs, members), (want_zs, want_members) in zip(groups, expected):
        assert zs.shape == want_zs.shape and zs.tobytes() == want_zs.tobytes()
        assert members == want_members
    assert any(c < n for *_, members in groups for *_, n, c in members) == trailing


# One gaussian two-pulse run at j_max = 80, 296 K, on a basis whose
# eigensystems are built, peaks at 3.80 MiB of traced allocations: the
# groups' columns and V copies, one group's kick table and the trace
# (4.27 MiB when each group also gathered a copy of the flight table).
# Handing _pulse_groups dense diag(sqrt p) or identity columns and building
# each kick table beside a float temporary took it to 5.12 MiB.  The
# bound sits between.
GAUSSIAN_RUN_PEAK_MIB = 4.7


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
