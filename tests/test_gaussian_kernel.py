"""The factored gaussian pulse kernel against a dense full-block oracle.

The oracle runs the split chain on the whole density matrix of each m
block, rho~ <- Q rho~ Q^dagger, on the same stages (Kahan and Li's
sixth-order composition, 9 stages per step): one full-block Q per
distinct free flight, a sandwich after each kick.
"""

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
    run_pulse_sequence,
    thermal_state,
)
from rotecho.propagate import WINDOW_SIGMAS, _pulse_segments

TOL = 1e-12

kicks = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


def _dense_pulse(rho, pulse, solver, sample_times=None):
    """The split chain sandwiching each full m block; same returns as
    propagate._apply_gaussian_pulse."""
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
    # either shape hands the second one a non-diagonal state to factor, and
    # its change to the thermal state is Hermitian with negative eigenvalues
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
    values = run_pulse_sequence(cfg, basis).values
    with mock.patch("rotecho.propagate._apply_gaussian_pulse", _dense_pulse):
        reference = run_pulse_sequence(cfg, basis).values
    assert np.max(np.abs(values - reference)) <= TOL


@pytest.mark.parametrize("element", [(0, 1), (3, 2)])
def test_gaussian_pulse_rejects_an_element_between_even_and_odd_j(element):
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=5.0)
    rho = thermal_state(mol, RotorBasis(6), 1.0)
    block = rho.blocks[1].copy()
    block[element] = 1e-3
    bad = MBlockDensityMatrix(rho.basis, mol, rho.blocks[:1] + (block,) + rho.blocks[2:])
    with pytest.raises(ValueError, match="even and odd J"):
        apply_pulse(bad, PulseSpec(t0=0.0, kick=0.5))
