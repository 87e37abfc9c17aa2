"""Propagator: exact free phases, unitary kicks, sampled traces."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotecho import (
    AlignmentTrace,
    ExperimentConfig,
    MoleculeSpec,
    PulseSpec,
    RotorBasis,
    apply_pulse,
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
from rotecho.errors import ToleranceError, TruncationError
from rotecho import propagate
from rotecho.propagate import HERM_TOL, _check_drift, _free_values, _piecewise, with_substeps

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


@pytest.mark.parametrize("j_max", [2, 3, 70])
def test_impulsive_apply_pulse_is_the_dense_kick(ocs, j_max):
    # apply_pulse steps an impulsive pulse as one stage on each half's
    # identity columns, impulsive_kick multiplies each block's full U: they
    # differ by at most 2.5e-17 at j_max 2 to 120.  The second state, a
    # kick then a free flight, carries coherences.
    thermal = thermal_state(ocs, RotorBasis(j_max), truncation_tol=1.0)
    for rho in (thermal, free_evolve(impulsive_kick(thermal, 1.0), 0.37)):
        for kick in (0.0, 1.0, 8.0):
            out = apply_pulse(rho, PulseSpec(t0=0.0, kick=kick, shape="impulsive"))
            dense = impulsive_kick(rho, kick)
            assert max(np.max(np.abs(a - b)) for a, b in zip(out.blocks, dense.blocks)) <= 1e-15


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


@pytest.mark.parametrize(
    "j_max, patches, error, message",
    [
        (10, {}, TruncationError,
         r"population 1\.007e-01 at J = 10 exceeds tolerance 1\.0e-02; increase j_max"),
        (24, {"TRACE_TOL": 1e-300}, ToleranceError, r"trace drift \d\.\d{3}e-\d{2} exceeds 1\.0e-300"),
        (24, {"_piecewise": lambda *a: _piecewise(*a) + 1.0}, ToleranceError,
         r"alignment out of \[-1/3, 2/3\]: \[.*\]"),
    ],
)
def test_guards_of_a_gaussian_sequence(monkeypatch, j_max, patches, error, message):
    # a sequence with a gaussian pulse runs on the thermal columns and never
    # builds the dense thermal state; each guard still fires on that route
    from rotecho import propagate

    monkeypatch.setattr(propagate, "thermal_state", mock.Mock(side_effect=AssertionError))
    for name, value in patches.items():
        monkeypatch.setattr(propagate, name, value)
    cfg = two_pulse_config(COLD, 0.5, 0.3, 0.07 * revival_period(COLD), shape="gaussian", j_max=j_max)
    with pytest.raises(error) as exc:
        run_pulse_sequence(cfg)
    assert re.fullmatch(message, str(exc.value))


@pytest.mark.parametrize("rows", [0, 1, 2, 255, 256, 257, 511, 512, 513, 767, 769, 2049, 20481])
@pytest.mark.parametrize("n_freqs", [1, 39, 119])
def test_chunked_free_trace_keeps_the_bits_of_the_whole_table(rows, n_freqs):
    # lengths on both sides of each chunk edge, so that a trailing chunk of
    # one row, which BLAS sums as a dot product, would show
    rng = np.random.default_rng(rows + n_freqs)
    amp = rng.normal(size=n_freqs) + 1j * rng.normal(size=n_freqs)
    freqs, t_rel = rng.uniform(0.0, 50.0, n_freqs), rng.uniform(0.0, 300.0, rows)
    whole = 0.3 + 2.0 * (np.exp(1j * np.outer(t_rel, freqs)) @ amp).real
    assert np.array_equal(_free_values((0.3, amp, freqs), t_rel), whole)


# A 10-revival impulsive two-pulse run at j_max = 120, 296 K, on a basis
# whose eigensystems are built, peaks at 18.5 MiB of traced allocations,
# mostly the dense states, with the free trace summed 256 to 511 offsets
# at a time.  Summed over all 20 481 offsets at once, its (offsets x
# frequencies) argument table and exp held 83.1 MiB.  The bound sits between.
LONG_RUN_PEAK_MIB = 40.0


def test_a_long_trace_stays_under_its_traced_peak(ocs, trev):
    basis = RotorBasis(120)
    basis._parity_halves()
    cfg = two_pulse_config(ocs, 1.0, 0.5, 0.125 * trev, j_max=120, t_end=10.0 * trev)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_two_pulse(cfg, basis)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < LONG_RUN_PEAK_MIB * 2**20, peak / 2**20


def test_the_dense_path_starts_at_the_first_kick(monkeypatch):
    # a thermal state flown to a first kick after t = 0 would change only
    # round-off, so the one flight is the one between the kicks
    flights = []

    def spy(rho, dt):
        flights.append(dt)
        return free_evolve(rho, dt)

    monkeypatch.setattr(propagate, "free_evolve", spy)
    pulses = (PulseSpec(0.5, 1.0, shape="impulsive"), PulseSpec(1.5, 0.5, shape="impulsive"))
    run_pulse_sequence(ExperimentConfig(COLD, pulses, t_end=2.5, dt_sample=0.05, j_max=60))
    assert flights == [1.0]


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
