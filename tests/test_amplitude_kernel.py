"""The amplitude kernel of impulsive scans against the density-matrix path.

The reference composition is the two-pulse trace minus both single-pulse
traces, each run through ``run_pulse_sequence`` on density matrices.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotecho import (
    BeamGeometry,
    ExperimentConfig,
    MoleculeSpec,
    PulseSpec,
    RotorBasis,
    SolverOptions,
    ToleranceError,
    averaged_scan_p2,
    revival_period,
    run_isolated_echo,
    run_pulse_sequence,
    run_two_pulse,
    scan_p2,
    two_pulse_config,
)
from rotecho import propagate
from rotecho.basis import MBlockDensityMatrix, _thermal_populations
from rotecho.echo import _trace_values
from rotecho.propagate import _impulsive_values, _piecewise, _rotate, _sample_times

TOL = 1e-12

kicks = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


def _reference(config: ExperimentConfig, basis: RotorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Raw two-pulse values and the isolated composition."""
    full = run_two_pulse(config, basis=basis).values
    v1 = run_pulse_sequence(replace(config, pulses=config.pulses[:1]), basis=basis).values
    v2 = run_pulse_sequence(replace(config, pulses=config.pulses[1:]), basis=basis).values
    return full, full - v1 - v2


@settings(max_examples=30, deadline=None)
@given(
    temperature=st.sampled_from([0.0, 30.0, 296.0]),
    weight_odd=st.sampled_from([0.0, 1.0]),
    j_max=st.integers(2, 14),
    p1=kicks,
    p2=kicks,
    p2_next=kicks,
    dtau_frac=st.floats(0.03, 0.45),
    offset=st.sampled_from([0.0, 1.3]),
)
def test_kernel_matches_the_reference_composition(
    temperature, weight_odd, j_max, p1, p2, p2_next, dtau_frac, offset
):
    # truncation_tol = 1 admits small bases at 296 K; both paths then see
    # the same truncated Boltzmann state
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_odd=weight_odd)
    dtau = dtau_frac * revival_period(mol)
    cfg = two_pulse_config(mol, p1, p2, dtau, j_max=j_max, solver=SolverOptions(truncation_tol=1.0))
    if offset:
        cfg = replace(
            cfg,
            pulses=tuple(replace(p, t0=p.t0 + offset) for p in cfg.pulses),
            t_end=cfg.t_end + offset,
        )
    basis = RotorBasis(j_max)
    window = cfg.t_end - 0.1 * revival_period(mol)
    cache: dict = {}
    for kick in (p2, p2_next):  # the second kick reuses the cached first pulse
        cfg = replace(cfg, pulses=(cfg.pulses[0], replace(cfg.pulses[1], kick=kick)))
        _, isolated = _reference(cfg, basis)
        select = _sample_times(cfg) >= window
        assert np.max(np.abs(_trace_values(cfg, basis, {}) - isolated)) <= TOL
        windowed = _trace_values(cfg, basis, cache, select)
        assert np.max(np.abs(windowed - isolated[select])) <= TOL


def test_gaussian_configs_keep_the_density_matrix_path():
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=5.0)
    cfg = two_pulse_config(mol, 0.5, 0.5, 0.1 * revival_period(mol), j_max=12)
    second = PulseSpec(t0=cfg.pulses[1].t0, kick=0.5, shape="gaussian")
    cfg = replace(cfg, pulses=(cfg.pulses[0], second))
    basis = RotorBasis(12)
    _, isolated = _reference(cfg, basis)
    assert np.array_equal(_trace_values(cfg, basis, {}), isolated)


def test_trace_drift_guard_covers_impulsive_runs(monkeypatch):
    # gaussian runs take the factored pulse kernel inside run_pulse_sequence
    monkeypatch.setattr(propagate, "TRACE_TOL", 1e-300)
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=30.0)
    dtau = 0.125 * revival_period(mol)
    for shape in ("impulsive", "gaussian"):
        cfg = two_pulse_config(mol, 0.5, 1.0, dtau, shape=shape)
        with pytest.raises(ToleranceError, match="trace drift"):
            run_two_pulse(cfg)
        with pytest.raises(ToleranceError, match="trace drift"):
            run_isolated_echo(cfg)
        shells = averaged_scan_p2([1.0], 0.5, dtau, BeamGeometry.nominal(2), cfg)
        assert [v for v, _ in shells.failures] == [1.0]
        assert shells.failures[0][1].startswith("trace drift")
        curve = scan_p2([1.0], 0.5, dtau, cfg, attach_fit=False)
        assert len(curve) == 0
        assert [v for v, _ in curve.failures] == [1.0]
        assert curve.failures[0][1].startswith("trace drift")


def _per_half_values(config, basis, times):
    """The kernel as one loop over the (m, J-parity) halves in (m, h) order,
    each half kicked and reduced on its own: the bits the grouped kernel
    must keep."""
    (t_a, k1), (t_b, k2) = ((p.t0, p.kick) for p in config.pulses)
    p = _thermal_populations(config.molecule, basis.j_max, config.solver.truncation_tol)
    omegas = basis.omegas(config.molecule)
    dc, amp = np.zeros(3), np.zeros((3, basis.j_max - 1), dtype=complex)
    for m in range(basis.j_max + 1):
        g, c = MBlockDensityMatrix.degeneracy(m), basis.cos2_block(m)
        for h, (lam, v) in enumerate(basis._parity_eigensystems(m)):
            pop, cols = p[m + h :: 2], np.flatnonzero(p[m + h :: 2])
            if not cols.size:
                continue
            vt_w = v.T[:, cols] * np.sqrt(pop[cols])
            w1 = _rotate(v, np.exp(1j * k1 * lam)[:, None] * vt_w)
            x = _rotate(v.T, np.exp(-1j * (t_b - t_a) * omegas[m + h :: 2])[:, None] * w1)
            y = np.concatenate([x, vt_w], axis=1)
            z2 = _rotate(v, np.exp(1j * k2 * lam)[:, None] * y)
            gcd, gco = g * c.diagonal()[h::2], g * c.diagonal(2)[h::2]
            for s, z in ((slice(0, 1), w1), (slice(1, 3), z2)):
                z = z.reshape(z.shape[0], -1, cols.size)
                pop_z = np.einsum("isj,isj->is", z.view(np.float64), z.view(np.float64))
                dc[s] += gcd @ pop_z
                coh = np.einsum("isj,isj->si", z[:-1], z[1:].conj()) * gco
                amp[s, m + h : m + h + 2 * gco.size : 2] += coh
    s1, s12, s2 = ((dc[s], amp[s], omegas[2:] - omegas[:-2]) for s in range(3))
    full = _piecewise(times, [(t_a, s1), (t_b, s12)])
    return full - _piecewise(times, [(t_a, s1)]) - _piecewise(times, [(t_b, s2)])


@settings(max_examples=40, deadline=None)
@given(
    temperature=st.sampled_from([0.0, 30.0, 296.0]),
    weights=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 3.0)]),
    j_max=st.integers(2, 40),
    p1=kicks,
    dtau_fracs=st.lists(st.floats(0.03, 0.45), min_size=1, max_size=2),
    evaluations=st.lists(st.tuples(kicks, st.booleans()), min_size=1, max_size=3),
)
def test_grouped_kernel_keeps_the_bits_of_the_per_half_loop(
    temperature, weights, j_max, p1, dtau_fracs, evaluations
):
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_even=weights[0],
                       weight_odd=weights[1])
    basis = RotorBasis(j_max)
    cache: dict = {}  # one cache across delays, second kicks and windows
    for dtau_frac in dtau_fracs:
        for p2, window in evaluations:
            dtau = dtau_frac * revival_period(mol)
            cfg = two_pulse_config(mol, p1, p2, dtau, j_max=j_max, solver=SolverOptions(truncation_tol=1.0))
            times = _sample_times(cfg)
            if window:
                times = times[np.abs(times - 2.0 * dtau) <= 0.03 * revival_period(mol)]
            grouped = _impulsive_values(cfg, basis, cache, times)
            assert np.array_equal(grouped, _per_half_values(cfg, basis, times))
