"""Propagator: exact free phases, unitary kicks, sampled traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotecho import (
    AlignmentTrace,
    ExperimentConfig,
    MoleculeSpec,
    PulseSpec,
    RotorBasis,
    expectation_cos2,
    free_evolve,
    impulsive_kick,
    revival_period,
    run_pulse_sequence,
    SolverOptions,
    run_two_pulse,
    thermal_state,
    two_pulse_config,
)
from rotecho.basis import MBlockDensityMatrix
from rotecho.errors import ToleranceError
from rotecho.propagate import HERM_TOL, _check_drift, with_substeps

COLD = MoleculeSpec(b_cm=0.2034, temperature_k=30.0, name="OCS-cold")


def superposition_state(ocs) -> MBlockDensityMatrix:
    """Pure (|0 0> + |2 0>)/sqrt(2) embedded in a small basis."""
    basis = RotorBasis(4)
    blocks = []
    for m in range(5):
        n = basis.block_dim(m)
        blocks.append(np.zeros((n, n), dtype=complex))
    blocks[0][0, 0] = blocks[0][2, 2] = 0.5
    blocks[0][0, 2] = blocks[0][2, 0] = 0.5
    return MBlockDensityMatrix(basis=basis, molecule=ocs, blocks=tuple(blocks))


def test_free_evolution_phase_convention(ocs, trev):
    # over T_rev/8 the (0, 2) element gains phi = -(3/4) pi, applied as
    # exp(-i phi), so the stored coherence rotates by +3 pi / 4
    rho = free_evolve(superposition_state(ocs), trev / 8.0)
    expected = 0.5 * np.exp(0.75j * math.pi)
    assert abs(rho.blocks[0][0, 2] - expected) < 1e-12


def test_free_evolution_full_revival_restores_state(ocs, trev):
    rho0 = superposition_state(ocs)
    rho1 = free_evolve(rho0, trev)
    for b0, b1 in zip(rho0.blocks, rho1.blocks):
        assert np.max(np.abs(b1 - b0)) < 1e-10


def test_free_evolution_time_reversal(ocs):
    rho0 = superposition_state(ocs)
    rho1 = free_evolve(free_evolve(rho0, 17.3), -17.3)
    for b0, b1 in zip(rho0.blocks, rho1.blocks):
        assert np.max(np.abs(b1 - b0)) < 1e-14


def test_population_elements_never_move(ocs):
    rho = free_evolve(superposition_state(ocs), 5.21)
    assert rho.blocks[0][0, 0] == pytest.approx(0.5)
    assert rho.blocks[0][2, 2] == pytest.approx(0.5)


def test_impulsive_kick_zero_is_identity(ocs):
    rho0 = superposition_state(ocs)
    rho1 = impulsive_kick(rho0, 0.0)
    for b0, b1 in zip(rho0.blocks, rho1.blocks):
        assert np.max(np.abs(b1 - b0)) < 1e-14


def test_impulsive_kick_is_unitary(ocs):
    basis = RotorBasis(50)
    rho0 = thermal_state(ocs, basis, truncation_tol=1e-1)
    rho1 = impulsive_kick(rho0, 2.5)
    assert rho1.weighted_trace() == pytest.approx(rho0.weighted_trace(), abs=1e-12)
    assert rho1.purity() == pytest.approx(rho0.purity(), abs=1e-12)
    assert rho1.hermiticity_defect() < 1e-14


def test_kick_commutes_with_alignment_operator(ocs):
    # exp(i k cos^2) leaves <cos^2> untouched at the kick instant;
    # alignment only develops through subsequent free evolution
    basis = RotorBasis(50)
    rho0 = thermal_state(ocs, basis, truncation_tol=1e-1)
    rho1 = impulsive_kick(rho0, 1.0)
    assert expectation_cos2(rho1) == pytest.approx(expectation_cos2(rho0), abs=1e-12)


def test_expectation_cos2_oracles(ocs):
    basis = RotorBasis(50)
    rho = thermal_state(ocs, basis, truncation_tol=1e-1)
    assert expectation_cos2(rho) == pytest.approx(1.0 / 3.0, abs=1e-9)
    # (|00> + |20>)/sqrt(2): 1/6 + 11/42 + 2/(3 sqrt 5)
    expected = 1.0 / 6.0 + 11.0 / 42.0 + 2.0 / (3.0 * math.sqrt(5.0))
    assert expectation_cos2(superposition_state(ocs)) == pytest.approx(
        expected, rel=1e-12
    )


def test_alignment_rises_after_kick(ocs, trev):
    cfg = two_pulse_config(ocs, 1.0, 0.0, 0.07 * trev)
    trace = run_two_pulse(cfg)
    assert trace.values[0] == pytest.approx(0.0, abs=1e-12)
    early = trace.window(0.0, 3.0)[1]
    assert early.max() > 1e-3


def test_trace_grid_and_validation(ocs, trev):
    dtau = 0.07 * trev
    cfg = two_pulse_config(ocs, 0.5, 0.3, dtau)
    trace = run_two_pulse(cfg)
    steps = np.diff(trace.times)
    assert np.allclose(steps, steps[0], rtol=1e-9)
    assert trace.times[0] == 0.0
    assert trace.times[-1] <= cfg.t_end + 1e-9
    trace.validate()
    with pytest.raises(ValueError):
        AlignmentTrace(
            times=np.array([0.0, 1.0, 3.0]),
            values=np.zeros(3),
            config=cfg,
        )


def test_run_pulse_sequence_rejects_a_trace_out_of_range(ocs, trev, monkeypatch):
    from rotecho import ToleranceError, propagate

    piecewise = propagate._piecewise
    monkeypatch.setattr(propagate, "_piecewise", lambda *a: piecewise(*a) + 1.0)
    with pytest.raises(ToleranceError, match="out of"):
        run_two_pulse(two_pulse_config(ocs, 0.5, 0.3, 0.07 * trev))


def test_two_pulse_config_wiring(ocs, trev):
    dtau = 0.1 * trev
    cfg = two_pulse_config(ocs, 1.0, 0.5, dtau)
    assert [p.t0 for p in cfg.pulses] == [0.0, dtau]
    assert [p.kick for p in cfg.pulses] == [1.0, 0.5]
    assert all(p.shape == "impulsive" for p in cfg.pulses)
    assert cfg.t_end == pytest.approx(2.0 * dtau + 0.06 * trev)
    assert cfg.dt_sample == pytest.approx(trev / 2048.0)
    gauss = two_pulse_config(ocs, 1.0, 0.5, dtau, shape="gaussian")
    assert all(p.shape == "gaussian" for p in gauss.pulses)
    assert all(p.duration_fwhm == 0.1 for p in gauss.pulses)


def test_run_two_pulse_requires_two_pulses(ocs, trev):
    cfg = two_pulse_config(ocs, 1.0, 0.5, 0.1 * trev)
    single = cfg.pulses[:1]
    from dataclasses import replace

    with pytest.raises(ValueError):
        run_two_pulse(replace(cfg, pulses=single))


def test_gaussian_mesh_halving():
    # the default mesh agrees with a finer 256-step mesh and with half its
    # own steps to < 1e-7, so the default sits well inside convergence
    t_rev = revival_period(COLD)
    dtau = 0.07 * t_rev
    cfg = two_pulse_config(
        COLD, 0.5, 0.3, dtau, shape="gaussian", t_end=dtau + 3.0
    )
    default = run_two_pulse(cfg)
    fine = run_two_pulse(with_substeps(cfg, 256))
    assert np.max(np.abs(default.values - fine.values)) < 1e-7
    half = run_two_pulse(with_substeps(cfg, cfg.solver.substeps // 2))
    assert np.max(np.abs(default.values - half.values)) < 1e-7


def test_pulse_integrator_is_fourth_order():
    # doubling the steps cuts the error 16-fold for a fourth-order chain;
    # plain Strang stages would give 4, which the dense oracle cannot see
    # because it runs on the same stages
    dtau = 0.07 * revival_period(COLD)
    cfg = two_pulse_config(COLD, 0.5, 0.3, dtau, shape="gaussian", t_end=dtau + 3.0)
    ref = run_two_pulse(with_substeps(cfg, 256)).values
    err = [np.max(np.abs(run_two_pulse(with_substeps(cfg, n)).values - ref)) for n in (8, 16)]
    assert err[0] / err[1] >= 12.0


def test_pulse_integrator_is_sixth_order():
    # a sixth-order chain cuts the error 64-fold per halving of the step
    dtau = 0.07 * revival_period(COLD)
    cfg = two_pulse_config(COLD, 0.5, 0.3, dtau, shape="gaussian", t_end=dtau + 3.0)
    ref = run_two_pulse(with_substeps(cfg, 256)).values
    err = [np.max(np.abs(run_two_pulse(with_substeps(cfg, n)).values - ref)) for n in (8, 16)]
    assert err[0] / err[1] >= 48.0


def test_default_mesh_is_no_less_accurate_than_the_old_triple_jump(ocs, monkeypatch):
    # the 8-step sixth-order default against Yoshida's fourth-order triple
    # jump on its old 48-step default, both measured from 256 sixth-order steps
    from rotecho import propagate

    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    dtau = 0.07 * revival_period(COLD)
    configs = [
        two_pulse_config(COLD, 0.5, 0.3, dtau, shape="gaussian", t_end=dtau + 3.0),
        two_pulse_config(ocs, 1.0, 0.5, 0.07 * revival_period(ocs), shape="gaussian",
                         duration_fwhm=0.2, j_max=40, solver=SolverOptions(truncation_tol=1.0)),
    ]
    for cfg in configs:
        ref = run_two_pulse(with_substeps(cfg, 256)).values
        new = np.max(np.abs(run_two_pulse(cfg).values - ref))
        with monkeypatch.context() as patch:
            patch.setattr(propagate, "_COMPOSITION", (w1, 1.0 - 2.0 * w1, w1))
            old = np.max(np.abs(run_two_pulse(with_substeps(cfg, 48)).values - ref))
        assert new <= old


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(["impulsive", "gaussian"]),
    temperature=st.sampled_from([0.0, 30.0, 296.0]),
    weight_odd=st.sampled_from([0.0, 1.0]),
    kick=st.floats(0.0, 3.0),
    j_max=st.integers(4, 40),
)
def test_post_pulse_trace_repeats_after_one_revival(shape, temperature, weight_odd, kick, j_max):
    # every coherence frequency is a multiple of 2*pi/T_rev, so once the
    # pulse is over the trace repeats with period T_rev on any basis
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_odd=weight_odd)
    t_rev, per_rev = revival_period(mol), 512
    pulse = PulseSpec(t0=0.5, kick=kick, shape=shape)
    cfg = ExperimentConfig(
        mol, (pulse,), t_end=1.3 * t_rev, dt_sample=t_rev / per_rev, j_max=j_max,
        solver=SolverOptions(truncation_tol=1.0),
    )
    trace = run_pulse_sequence(cfg)
    after = np.flatnonzero(trace.times[:-per_rev] > 1.0)
    assert after.size > 100
    assert np.max(np.abs(trace.values[after + per_rev] - trace.values[after])) <= 1e-12


def test_perturbative_response_is_linear_in_kick(ocs, trev):
    # leading alignment response scales linearly for weak kicks
    amps = []
    for kick in (0.01, 0.02):
        cfg = two_pulse_config(ocs, kick, 0.0, 0.07 * trev, t_end=6.0)
        trace = run_two_pulse(cfg)
        amps.append(float(np.max(np.abs(trace.values))))
    assert amps[1] / amps[0] == pytest.approx(2.0, rel=0.02)


def test_finite_pulse_deviation_scales_with_duration_squared(ocs):
    # the finite-pulse trace differs from the impulsive one through a
    # frequency filter on each coherence, so the deviation drops by 4x
    # when the duration halves; this pins the deviation as physics, not
    # integration error
    devs = []
    for fwhm in (0.1, 0.05):
        dev = _impulsive_gaussian_deviation(ocs, fwhm)
        devs.append(dev)
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.25)


def _impulsive_gaussian_deviation(molecule, fwhm: float) -> float:
    """Max relative post-pulse deviation, gaussian versus impulsive."""
    t0 = 0.5
    t_end = 12.0
    shared = dict(t_end=t_end, dt_sample=0.02, j_max=60)
    imp = run_pulse_sequence(
        _single_pulse_config(molecule, PulseSpec(t0=t0, kick=1.0, shape="impulsive"), **shared)
    )
    gau = run_pulse_sequence(
        _single_pulse_config(
            molecule,
            PulseSpec(t0=t0, kick=1.0, duration_fwhm=fwhm, shape="gaussian"),
            **shared,
        )
    )
    lo = t0 + 2.0 * fwhm
    ti, vi = imp.window(lo, t_end)
    tg, vg = gau.window(lo, t_end)
    assert np.array_equal(ti, tg)
    return float(np.max(np.abs(vg - vi)) / np.max(np.abs(vi)))


def _single_pulse_config(molecule, pulse, *, t_end, dt_sample, j_max):
    from rotecho import ExperimentConfig

    return ExperimentConfig(
        molecule=molecule,
        pulses=(pulse,),
        t_end=t_end,
        dt_sample=dt_sample,
        j_max=j_max,
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PulseSpec(t0=0.0, kick=-0.1), ValueError, "kick must be non-negative"),
        (lambda: PulseSpec(t0=0.0, kick=1.0, shape="square"), ValueError,
         "shape must be one of ('gaussian', 'impulsive')"),
        (lambda: PulseSpec(t0=0.0, kick=1.0, duration_fwhm=0.0), ValueError,
         "duration_fwhm must be positive"),
        (lambda: SolverOptions(substeps=0), ValueError, "substeps must be at least 1"),
        (lambda: ExperimentConfig(COLD, (), 10.0, 0.1), ValueError, "at least one pulse required"),
        (lambda: ExperimentConfig(COLD, (PulseSpec(2.0, 1.0), PulseSpec(1.0, 1.0)), 10.0, 0.1),
         ValueError, "pulses must be ordered by t0"),
        (lambda: ExperimentConfig(COLD, (PulseSpec(2.0, 1.0),), 2.0, 0.1), ValueError,
         "t_end must lie past the last pulse"),
        (lambda: ExperimentConfig(COLD, (PulseSpec(2.0, 1.0),), 10.0, 0.0), ValueError,
         "dt_sample must be positive"),
        (lambda: ExperimentConfig(COLD, (PulseSpec(2.0, 1.0),), 10.0, 0.1, j_max=1), ValueError,
         "j_max must be at least 2"),
        (lambda: two_pulse_config(COLD, 0.5, 0.5, 0.0), ValueError, "dtau must be positive"),
        (lambda: impulsive_kick(thermal_state(COLD, RotorBasis(24), 1e-2), -1.0), ValueError,
         "kick must be non-negative"),
        (lambda: AlignmentTrace(np.zeros(3), np.zeros(2), two_pulse_config(COLD, 0.5, 0.5, 1.0)),
         ValueError, "times and values must have equal length"),
        (lambda: _check_drift(1.0, 1.0), ToleranceError,
         f"hermiticity defect 1.000e+00 exceeds {HERM_TOL:.1e}"),
        (lambda: run_pulse_sequence(two_pulse_config(COLD, 0.5, 0.5, 0.1, shape="gaussian", j_max=24)),
         ValueError, "pulse windows overlap; increase the delay"),
    ],
)
def test_guard_messages(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
