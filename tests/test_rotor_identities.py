"""Exact identities of the rigid rotor, each checked on one engine alone.

cos^2 theta keeps J parity, so a thermal state with spin weights (w_e,
w_o) is the mixture of its even-only and odd-only states, weighted by
w_e Z_e and w_o Z_o, with Z_p the sum of (2J + 1) exp(-E_J / k_B T) over
the basis's levels of parity p.  Every trace is linear in the state, so
an engine's trace of the mixture is the same mixture of its parity runs'
traces.  The weights come from rotational_energy and the exact SI
constants, not from the engine's level weights; the parity runs leave
every half of the other parity out of the engines' groups.

A free flight of one revival period is the identity, since w_J T_rev =
pi J(J + 1) with J(J + 1) even, so a kick at 0 acts as a kick at T_rev.
Two kicks at one instant are one kick of their sum, since both
exponentials of cos^2 theta commute.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from rotecho import (
    ExperimentConfig,
    MoleculeSpec,
    PulseSpec,
    RotorBasis,
    SolverOptions,
    revival_period,
    rotational_energy,
    run_isolated_echo,
    run_pulse_sequence,
    two_pulse_config,
)
from rotecho.propagate import _impulsive_values, _sample_times

# hbar / k_B in K ps, from the exact SI values of h and k_B
HBAR_OVER_KB = 6.62607015e-34 / (2.0 * math.pi) / 1.380649e-23 * 1e12

# Largest gap to the mixture.  The traces are <cos^2 theta> - 1/3 with
# <cos^2 theta> near 1/3, so the gap is round-off of that size whatever
# the trace's own scale (down to 1e-5 for a weak isolated echo): over 150
# draws it measured at most 1.8e-15 on the route and 6.4e-16 on the echo
MIX_TOL = 1e-14

kicks = st.floats(0.3, 3.0)


def _parity_shares(molecule: MoleculeSpec, j_max: int) -> tuple[float, float]:
    """(w_e Z_e, w_o Z_o) / (w_e Z_e + w_o Z_o) over J = 0 .. j_max."""
    j = np.arange(j_max + 1)
    boltzmann = (2 * j + 1) * np.exp(-HBAR_OVER_KB * rotational_energy(j, molecule) / molecule.temperature_k)
    z = np.array([molecule.weight_even * boltzmann[0::2].sum(), molecule.weight_odd * boltzmann[1::2].sum()])
    return tuple(z / z.sum())


@settings(max_examples=30, deadline=None)
@given(
    temperature=st.floats(2.0, 300.0),
    weights=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    j_max=st.integers(4, 16),
    shapes=st.sampled_from([("gaussian", "gaussian"), ("gaussian", "impulsive"), ("impulsive", "gaussian")]),
    strengths=st.tuples(kicks, kicks),
    dtau=st.floats(1.0, 12.0),
)
def test_a_spin_weighted_run_is_the_mix_of_its_parity_runs(
    temperature, weights, j_max, shapes, strengths, dtau
):
    # the column route on a sequence with a gaussian pulse, and the
    # amplitude kernel's isolated echo of an impulsive pair
    solver = SolverOptions(truncation_tol=1.0)
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=temperature, weight_even=weights[0], weight_odd=weights[1])

    def traces(molecule):
        pulses = tuple(PulseSpec(t0=t0, kick=k, shape=shape)
                       for t0, k, shape in zip((0.5, 1.5), strengths, shapes))
        route = ExperimentConfig(molecule, pulses, t_end=2.5, dt_sample=0.02, j_max=j_max, solver=solver)
        echo = two_pulse_config(molecule, *strengths, dtau, j_max=j_max, solver=solver)
        return run_pulse_sequence(route).values, run_isolated_echo(echo).values

    a, b = _parity_shares(mol, j_max)
    parity_runs = (traces(replace(mol, weight_odd=0.0)), traces(replace(mol, weight_even=0.0)))
    for mixed, even, odd in zip(traces(mol), *parity_runs):
        assert np.max(np.abs(mixed - (a * even + b * odd))) <= MIX_TOL


# Largest gap across a revival period: the flight's phases pi J(J + 1) are
# exact only to the round-off of w_J T_rev.  Over 60 draws it measured at
# most 6.7e-16 on the dense path and 9.4e-16 on the kernel's echo; kicks
# (3, 8) at j_max 100 reached 8.8e-15, outside these small bases.
REVIVAL_TOL = 1e-14

# Largest gap between two kicks at one instant and one kick of their sum:
# over 60 draws at most 2.8e-16 dense, 3.3e-16 on the column route and
# 3.9e-16 on the kernel's echo, each a few roundings of a trace value.
SAME_INSTANT_TOL = 2e-15

molecules = st.builds(
    lambda temperature, weights: MoleculeSpec(b_cm=0.2034, temperature_k=temperature,
                                              weight_even=weights[0], weight_odd=weights[1]),
    st.floats(2.0, 300.0), st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
)


def _sequence(molecule, j_max, pulses, t_end, dt_sample):
    """run_pulse_sequence's trace of (t0, kick, shape) pulses."""
    cfg = ExperimentConfig(molecule, tuple(PulseSpec(t0=t, kick=k, shape=shape) for t, k, shape in pulses),
                           t_end=t_end, dt_sample=dt_sample, j_max=j_max, solver=SolverOptions(truncation_tol=1.0))
    return run_pulse_sequence(cfg)


@settings(max_examples=20, deadline=None)
@given(molecule=molecules, j_max=st.integers(4, 16), p1=kicks, p2=kicks)
def test_kicks_one_revival_apart_act_as_one_kick_of_their_sum(molecule, j_max, p1, p2):
    # the dense path from T_rev on; and the kernel's isolated echo at dtau
    # = T_rev, three second kicks as one node, against f(p1 + p2) - f(p1)
    # - f(p2) with f the trace of one kick at T_rev
    t_rev = revival_period(molecule)
    dt = t_rev / 256

    def one_kick(kick, t_end):
        return _sequence(molecule, j_max, [(t_rev, kick, "impulsive")], t_end, dt).values

    two = _sequence(molecule, j_max, [(0.0, p1, "impulsive"), (t_rev, p2, "impulsive")], 1.3 * t_rev, dt)
    after = two.times >= t_rev
    assert np.max(np.abs(two.values[after] - one_kick(p1 + p2, 1.3 * t_rev)[after])) <= REVIVAL_TOL

    solver = SolverOptions(truncation_tol=1.0)
    node = [two_pulse_config(molecule, p1, k, t_rev, dt_sample=dt, j_max=j_max, solver=solver)
            for k in (p2, 0.5 * p2, 2.0)]
    times, t_end = _sample_times(node[0]), node[0].t_end
    for cfg, echo in zip(node, _impulsive_values(node, RotorBasis(j_max), {}, times), strict=True):
        k2 = cfg.pulses[1].kick
        want = one_kick(p1 + k2, t_end) - one_kick(p1, t_end) - one_kick(k2, t_end)
        assert np.max(np.abs(echo - want)[times >= t_rev]) <= REVIVAL_TOL


@settings(max_examples=20, deadline=None)
@given(molecule=molecules, j_max=st.integers(4, 16), p1=kicks, p2=kicks)
def test_two_kicks_at_one_instant_are_one_kick_of_their_sum(molecule, j_max, p1, p2):
    # on the dense path, on the column route after a gaussian pulse, and in
    # the kernel's isolated echo at dtau = 0, which is then f(p1 + p2) -
    # f(p1) - f(p2) with f the trace of one kick at 0
    dt, t_end = 0.05, 3.0

    def run(*pulses):
        return _sequence(molecule, j_max, pulses, t_end, dt).values

    def gap(a, b):
        return np.max(np.abs(a - b))

    gaussian = (0.5, 1.0, "gaussian")
    assert gap(run((0.5, p1, "impulsive"), (0.5, p2, "impulsive")), run((0.5, p1 + p2, "impulsive"))) \
        <= SAME_INSTANT_TOL
    assert gap(run(gaussian, (1.5, p1, "impulsive"), (1.5, p2, "impulsive")),
               run(gaussian, (1.5, p1 + p2, "impulsive"))) <= SAME_INSTANT_TOL

    pair = (PulseSpec(0.0, p1, shape="impulsive"), PulseSpec(0.0, p2, shape="impulsive"))
    cfg = ExperimentConfig(molecule, pair, t_end=t_end, dt_sample=dt, j_max=j_max,
                           solver=SolverOptions(truncation_tol=1.0))
    want = run((0.0, p1 + p2, "impulsive")) - run((0.0, p1, "impulsive")) - run((0.0, p2, "impulsive"))
    assert gap(run_isolated_echo(cfg).values, want) <= SAME_INSTANT_TOL
