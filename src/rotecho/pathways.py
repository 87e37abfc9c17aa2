"""Symbolic bookkeeping of the Raman sequences that build the echo.

At the lowest order that rephases, a contribution to the delayed
transient takes one Raman step during the first pulse and two during
the second.  Each step moves the ket or the bra index of a
density-matrix element by two rotational quanta.  This module
enumerates those step sequences and evaluates the phase their
intermediate coherence accumulates between the pulses, entirely from
the level spectrum; the numerical propagator is never touched, so the
two views of the same physics can be checked against each other.

A sequence whose first step already lands on the observed coherence is
not counted.  Such a term keeps dephasing through the delay exactly
like any single-pulse coherence and feeds the ordinary revival
structure; only the transfer sequences, whose intermediate phase is
mapped into the target by the second pulse, return to alignment at
twice the delay.

Phases follow the propagator's convention: a coherence (J_ket, J_bra)
accumulates phi = (omega_ket - omega_bra) * dt, applied to the matrix
element as exp(-i*phi).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

from .basis import (
    MoleculeSpec,
    _level_weights,
    cos2theta_element,
    revival_period,
    rotational_energy,
)

# The columns of a pathway table and of pathways.csv.
PATHWAY_COLUMNS = ("start", "steps", "intermediate", "target", "phase_rad")

_SIDES = ("ket", "bra")
_PULSES = (1, 2)
_DELTAS = (2, -2)


@dataclass(frozen=True)
class RamanStep:
    """One Raman transition: which pulse drives it, which side it moves."""

    pulse: int
    side: str
    delta_j: int

    def __post_init__(self) -> None:
        if self.pulse not in _PULSES:
            raise ValueError("pulse must be 1 or 2")
        if self.side not in _SIDES:
            raise ValueError("side must be 'ket' or 'bra'")
        if self.delta_j not in _DELTAS:
            raise ValueError("delta_j must be +2 or -2")

    def label(self) -> str:
        return f"P{self.pulse} {self.side}{self.delta_j:+d}"


def _apply_step(state: tuple[int, int], step: RamanStep) -> tuple[int, int]:
    j_ket, j_bra = state
    if step.side == "ket":
        return (j_ket + step.delta_j, j_bra)
    return (j_ket, j_bra + step.delta_j)


def _replay(start: int, steps) -> list[tuple[int, int]]:
    """Every element a step sequence visits from the population (start, start)."""
    return list(accumulate(steps, _apply_step, initial=(start, start)))


@dataclass(frozen=True)
class Pathway:
    """A (1, 2)-budget step sequence from a population to a coherence.

    ``intermediate`` is the element occupied between the pulses; it is
    the only part of the sequence that accumulates delay-dependent
    phase, so it is what interference arguments care about.  It and
    ``final`` are replayed from the steps.
    """

    start: int
    steps: tuple[RamanStep, ...]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start population must have J >= 0")
        pulses = tuple(s.pulse for s in self.steps)
        if pulses != (1, 2, 2):
            raise ValueError("budget is one first-pulse step then two second-pulse steps")
        if any(j < 0 for pair in _replay(self.start, self.steps) for j in pair):
            raise ValueError("steps pass through negative J")

    @property
    def intermediate(self) -> tuple[int, int]:
        return _replay(self.start, self.steps)[1]

    @property
    def final(self) -> tuple[int, int]:
        return _replay(self.start, self.steps)[-1]

    def label(self) -> str:
        return "; ".join(s.label() for s in self.steps)


def _as_population_list(start) -> tuple[int, ...]:
    if isinstance(start, (tuple, list)):
        values = tuple(operator.index(j) for j in start)
    else:
        values = (operator.index(start),)
    if not values:
        raise ValueError("need at least one start population")
    if any(j < 0 for j in values):
        raise ValueError("start populations must have J >= 0")
    return values


def enumerate_pathways(
    start,
    target: tuple[int, int],
    *,
    j_min: int = 0,
    j_max: int | None = None,
) -> list[Pathway]:
    """All distinct step sequences from the start population(s) to ``target``.

    ``start`` is a single population J or a pair of populations whose
    sequences converge on the same coherence.  ``target`` is the
    observed coherence (J_ket, J_bra).  The budget is fixed at one
    first-pulse step followed by two ordered second-pulse steps, and
    every visited J must stay within [max(0, j_min), j_max].

    Sequences whose first step lands directly on ``target`` are
    excluded (see the module docstring); an unreachable target yields
    an empty list rather than an error.
    """
    tgt = (operator.index(target[0]), operator.index(target[1]))
    if min(tgt) < 0:
        raise ValueError("target J values must be non-negative")
    lo, hi = max(0, j_min), (math.inf if j_max is None else j_max)

    def moves(state: tuple[int, int], pulse: int):
        for side in _SIDES:
            for dj in _DELTAS:
                step = RamanStep(pulse=pulse, side=side, delta_j=dj)
                nxt = _apply_step(state, step)
                if lo <= min(nxt) and max(nxt) <= hi:
                    yield nxt, step

    found: list[Pathway] = []
    for j0 in _as_population_list(start):
        if not lo <= j0 <= hi:
            raise ValueError(f"start population J = {j0} is outside the basis")
        for mid, step1 in moves((j0, j0), 1):
            if mid == tgt:
                continue
            for second, step2 in moves(mid, 2):
                for last, step3 in moves(second, 2):
                    if last == tgt:
                        found.append(Pathway(start=j0, steps=(step1, step2, step3)))
    return found


def _phase(coherence: tuple[int, int], dtau: float, molecule: MoleculeSpec) -> float:
    """Unwrapped phi = (omega_ket - omega_bra) * dtau of a coherence."""
    j_ket, j_bra = coherence
    return (rotational_energy(j_ket, molecule) - rotational_energy(j_bra, molecule)) * dtau


def coherence_phase(
    coherence: tuple[int, int], dtau: float, molecule: MoleculeSpec
) -> float:
    """Phase accumulated by a coherence over ``dtau``, wrapped to [-pi, pi].

    Returns phi = (omega_ket - omega_bra) * dtau, the same phi the
    propagator applies as exp(-i*phi).  Populations give exactly zero
    and conjugate coherences give opposite signs.
    """
    if min(coherence) < 0:
        raise ValueError("J values must be non-negative")
    return math.remainder(_phase(coherence, dtau, molecule), 2.0 * math.pi)


def pathway_phase_difference(
    path_a: Pathway, path_b: Pathway, dtau: float, molecule: MoleculeSpec
) -> float:
    """Unwrapped phase separation of two interfering sequences at ``dtau``.

    Both sequences must end on the same coherence; what distinguishes
    them physically is the intermediate, so the result is
    |phi_a - phi_b| of the intermediate coherences accumulated over the
    full delay, without wrapping.  For the canonical pair straddling a
    population (intermediates (J-2, J) and (J, J+2)) this is
    8 * B_ang * dtau independent of J, which crosses pi at one eighth of
    a revival and 2*pi at a quarter.
    """
    if path_a.final != path_b.final:
        raise ValueError("pathways do not share a target coherence")
    phi_a, phi_b = (_phase(p.intermediate, dtau, molecule) for p in (path_a, path_b))
    return abs(phi_a - phi_b)


def predict_constructive_delays(molecule: MoleculeSpec, n_max: int) -> list[float]:
    """Delays (2n+1)/8 * T_rev for n = 0 .. n_max, in ps.

    These are the delays where the canonical pathway pair sits an odd
    multiple of pi apart, so every ladder rung interferes the same way
    at once.  A spectrum-only quantity: temperature and kick strengths
    do not enter.
    """
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    t_rev = revival_period(molecule)
    return [(2 * n + 1) / 8.0 * t_rev for n in range(n_max + 1)]


def pathway_weight(path: Pathway, molecule: MoleculeSpec, m: int = 0) -> float:
    """Optional magnitude annotation: |matrix elements| times start population.

    The product of |<J'm|cos^2 theta|Jm>| over the three steps, weighted
    by the unnormalized thermal population of the start level at the
    given |m|.  Interference arguments need only the phases, so this is
    a convenience for ranking sequences, not part of any contract.
    """
    m = abs(operator.index(m))
    # J = start + 1 keeps both parities in range, as the 0 K ground level needs
    weight = float(_level_weights(molecule, path.start + 1)[path.start])
    visited = _replay(path.start, path.steps)
    for before, after in zip(visited, visited[1:]):
        # a step moves one side: the pair of that side is the unequal one
        ((j, jp),) = [pair for pair in zip(before, after) if pair[0] != pair[1]]
        weight *= abs(cos2theta_element(j, jp, m))
    return weight


def _pathway_rows(pathways, dtau: float, molecule: MoleculeSpec) -> list[tuple[str, ...]]:
    """One row of PATHWAY_COLUMNS text fields per sequence, its phase at ``dtau``."""
    pair = "({}, {})".format
    return [(str(p.start), p.label(), pair(*p.intermediate), pair(*p.final),
             f"{coherence_phase(p.intermediate, dtau, molecule):+.6f}") for p in pathways]


def pathway_table(pathways, dtau: float, molecule: MoleculeSpec) -> str:
    """Sequences with their intermediate phases at ``dtau``, as an aligned
    text table; ``runio.write_pathways_csv`` writes the same rows as CSV."""
    rows = _pathway_rows(pathways, dtau, molecule)
    widths = [max(map(len, column)) for column in zip(PATHWAY_COLUMNS, *rows)]
    lines = ["  ".join(map(str.ljust, row, widths)) for row in (PATHWAY_COLUMNS, *rows)]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
