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
from rotecho.echo import _trace_values
from rotecho.propagate import _sample_times

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
        full, isolated = _reference(cfg, basis)
        select = _sample_times(cfg) >= window
        assert np.max(np.abs(_trace_values(cfg, basis, {}, True) - isolated)) <= TOL
        assert np.max(np.abs(_trace_values(cfg, basis, {}, False) - full)) <= TOL
        windowed = _trace_values(cfg, basis, cache, True, select)
        assert np.max(np.abs(windowed - isolated[select])) <= TOL


def test_gaussian_configs_keep_the_density_matrix_path():
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=5.0)
    cfg = two_pulse_config(mol, 0.5, 0.5, 0.1 * revival_period(mol), j_max=12)
    second = PulseSpec(t0=cfg.pulses[1].t0, kick=0.5, shape="gaussian")
    cfg = replace(cfg, pulses=(cfg.pulses[0], second))
    basis = RotorBasis(12)
    _, isolated = _reference(cfg, basis)
    assert np.array_equal(_trace_values(cfg, basis, {}, True), isolated)


def test_trace_drift_guard_covers_impulsive_runs():
    # gaussian runs take the factored pulse kernel inside run_pulse_sequence
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=30.0)
    dtau = 0.125 * revival_period(mol)
    for shape in ("impulsive", "gaussian"):
        cfg = two_pulse_config(mol, 0.5, 1.0, dtau, shape=shape, solver=SolverOptions(trace_tol=1e-300))
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
