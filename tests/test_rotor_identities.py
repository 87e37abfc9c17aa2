"""Exact identities of the rigid rotor, each checked on one engine alone.

cos^2 theta keeps J parity, so a thermal state with spin weights (w_e,
w_o) is the mixture of its even-only and odd-only states, weighted by
w_e Z_e and w_o Z_o, with Z_p the sum of (2J + 1) exp(-E_J / k_B T) over
the basis's levels of parity p.  Every trace is linear in the state, so
an engine's trace of the mixture is the same mixture of its parity runs'
traces.  The weights come from rotational_energy and the exact SI
constants, not from the engine's level weights; the parity runs leave
every half of the other parity out of the engines' groups.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from rotecho import (
    ExperimentConfig,
    MoleculeSpec,
    PulseSpec,
    SolverOptions,
    rotational_energy,
    run_isolated_echo,
    run_pulse_sequence,
    two_pulse_config,
)

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
