"""Rigid-rotor basis, operators and thermal states.

Conventions used throughout the package:

* time is measured in picoseconds, angular frequency in rad/ps;
* the rotational constant B is given in 1/cm and the level energy is
  expressed as an angular frequency, w_J = 2*pi*c*B*J*(J+1) with c in
  cm/ps;
* the laser couples to the molecular axis through cos^2(theta), which
  conserves m and changes J by 0 or +-2, so the density matrix is block
  diagonal in m;
* only m >= 0 blocks are stored.  Every observable and trace sums the
  blocks with degeneracy weight 1 for m = 0 and 2 for m > 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

# c, h and k_B are exact by definition since the 2019 SI; scipy is a test-only
# dependency, and test_physical_constants_match_scipy_exactly checks these
_C_M_PER_S, _H, _KB = 299792458.0, 6.62607015e-34, 1.380649e-23

# Speed of light in cm/ps: converts B [1/cm] into optical cycles per ps.
C_CM_PER_PS = _C_M_PER_S * 100.0 * 1e-12

# Angular frequency per unit wavenumber, rad/ps per 1/cm.
RAD_PS_PER_CM = 2.0 * math.pi * C_CM_PER_PS

# hc/k_B in cm*K: converts a wavenumber into a temperature.
CM_KELVIN = _H * (_C_M_PER_S * 100.0) / _KB


@dataclass(frozen=True)
class MoleculeSpec:
    """Linear-rotor parameters.

    Attributes:
        b_cm: rotational constant B in 1/cm.
        temperature_k: rotational temperature in kelvin.
        weight_even: nuclear-spin statistical weight of even-J levels.
        weight_odd: nuclear-spin statistical weight of odd-J levels.
        name: display label.
    """

    b_cm: float
    temperature_k: float = 296.0
    weight_even: float = 1.0
    weight_odd: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.b_cm <= 0.0:
            raise ValueError("rotational constant must be positive")
        if self.temperature_k < 0.0:
            raise ValueError("temperature must be non-negative")
        if self.weight_even < 0.0 or self.weight_odd < 0.0:
            raise ValueError("spin weights must be non-negative")
        if self.weight_even == 0.0 and self.weight_odd == 0.0:
            raise ValueError("at least one spin weight must be positive")

    def spin_weight(self, j):
        """Nuclear-spin weight of level J, for J an int or an int array."""
        return np.where(np.asarray(j) % 2 == 0, self.weight_even, self.weight_odd)[()]


def rotational_energy(j, molecule: MoleculeSpec):
    """Level energy as an angular frequency, rad/ps, for J an int or an int array.

    E_J/hbar = 2*pi*c*B*J*(J+1).
    """
    if np.min(j) < 0:
        raise ValueError("J must be non-negative")
    return RAD_PS_PER_CM * molecule.b_cm * j * (j + 1)


def revival_period(molecule: MoleculeSpec) -> float:
    """Rotational revival period 1/(2*B*c) in ps.

    All J,J+-2 coherence frequencies are integer multiples of
    2*pi/T_rev, so any post-pulse trace is T_rev periodic.
    """
    return 1.0 / (2.0 * molecule.b_cm * C_CM_PER_PS)


def _cos2_diagonal(j, m: int):
    """<J m|cos^2 theta|J m>, J >= m >= 0 a Python int or an int64 array; int64
    numerators stay below 2**53 for J < 9000, so both round alike."""
    num, den = j * (j + 1) - 3 * m * m, (2 * j - 1) * (2 * j + 3)
    return 1.0 / 3.0 + (2.0 / 3.0) * (num / den)


def _cos2_offdiagonal(j, m: int):
    """<J m|cos^2 theta|J+2 m>, J as in _cos2_diagonal."""
    num = ((j + 1) ** 2 - m * m) * ((j + 2) ** 2 - m * m)
    return np.sqrt(num / ((2 * j + 1) * (2 * j + 5))) / (2 * j + 3)


def cos2theta_element(j: int, jp: int, m: int) -> float:
    """Matrix element <J m|cos^2 theta|J' m>.

    Real and symmetric in (J, J'); nonzero only for |J - J'| in {0, 2}.
    Independent of the sign of m.
    """
    m = abs(m)
    if j < 0 or jp < 0:
        raise ValueError("J values must be non-negative")
    if j < m or jp < m:
        raise ValueError("need J >= |m| on both sides")
    if j > jp:
        j, jp = jp, j
    if jp == j:
        return _cos2_diagonal(j, m)
    if jp == j + 2:
        return float(_cos2_offdiagonal(j, m))
    return 0.0


class RotorBasis:
    """Truncated |J, m> basis with per-m blocks, J = |m| .. j_max.

    A basis stores no coupling matrix, only what its readers read, each
    computed on first use and kept read-only: the two bands of each
    coupling block and the eigensystems of its J-parity halves, stacked
    by size.  The eigensystems make repeated pulse applications cheap,
    and read-only caches let scans share a basis.
    """

    def __init__(self, j_max: int):
        if j_max < 2:
            raise ValueError("j_max must be at least 2")
        self.j_max = int(j_max)
        self._band_cache: dict[int, tuple] = {}
        self._eig_halves: list[tuple] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"RotorBasis(j_max={self.j_max})"

    def block_dim(self, m: int) -> int:
        return self.j_max - m + 1

    def j_values(self, m: int) -> np.ndarray:
        """J quantum numbers carried by block m."""
        return np.arange(m, self.j_max + 1)

    def _cos2_bands(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal and the Delta-J = 2 band of cos2_block(m)."""
        if m not in self._band_cache:
            j = np.arange(m, self.j_max + 1, dtype=np.int64)
            bands = (_cos2_diagonal(j, m), _cos2_offdiagonal(j[:-2], m))
            for a in bands:
                a.setflags(write=False)
            self._band_cache[m] = bands
        return self._band_cache[m]

    def cos2_block(self, m: int) -> np.ndarray:
        """cos^2(theta) restricted to block m (real symmetric, banded),
        built from the bands, read-only, on each call."""
        diag, off = self._cos2_bands(m)
        block = np.diag(diag)
        idx = np.arange(off.size)
        block[idx, idx + 2] = block[idx + 2, idx] = off
        block.setflags(write=False)
        return block

    def cos2_eigensystem(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvectors of cos2_block(m),
        assembled from the eigensystems of its two J-parity halves."""
        (w0, v0), (w1, v1) = self._parity_eigensystems(m)
        v = np.zeros((self.block_dim(m),) * 2)
        v[0::2, : w0.size], v[1::2, w0.size :] = v0, v1
        return np.concatenate([w0, w1]), v

    def _parity_eigensystems(self, m: int) -> tuple:
        """Eigensystems of cos2_block(m)'s J-parity halves, rows 0::2 and 1::2
        (cos^2 never mixes parity), as views; half 1 is empty at m = j_max."""
        return tuple((lam[i], v[i]) for _, lam, v, i in self._parity_halves()[2 * m : 2 * m + 2])

    def _parity_halves(self) -> list:
        """((m, h), eigenvalues, V, i) per half in (m, h) order: its eigensystem
        is entry i of the stacks of its run of equal-size halves, built on
        first use with one batched eigh per run and kept read-only."""
        if not self._eig_halves:
            halves = itertools.product(range(self.j_max + 1), (0, 1))
            for s, run in itertools.groupby(halves, key=lambda mh: (self.j_max - sum(mh)) // 2 + 1):
                run = tuple(run)  # one run's halves alive at a time
                flat = np.zeros((len(run), s * s))  # each s x s half from its bands
                for row, (m, h) in zip(flat, run):
                    diag, off = (band[h::2] for band in self._cos2_bands(m))
                    row[:: s + 1], row[1 :: s + 1], row[s :: s + 1] = diag, off, off
                lam, v = np.linalg.eigh(flat.reshape(len(run), s, s))
                lam.setflags(write=False)
                v.setflags(write=False)
                self._eig_halves += [(mh, lam, v, i) for i, mh in enumerate(run)]
        return self._eig_halves

    def omegas(self, molecule: MoleculeSpec) -> np.ndarray:
        """Level angular frequencies w_J for J = 0 .. j_max, rad/ps."""
        return rotational_energy(np.arange(self.j_max + 1), molecule)


@dataclass(frozen=True)
class MBlockDensityMatrix:
    """Density matrix stored as m >= 0 blocks.

    blocks[m] is the complex Hermitian matrix over J = m .. j_max.  The
    physical trace weights block m with degeneracy 2 - delta(m, 0); the
    thermal builder normalizes so that this weighted trace is 1.
    Operations never mutate a state, they return fresh instances.
    """

    basis: RotorBasis
    molecule: MoleculeSpec
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != self.basis.j_max + 1:
            raise ValueError("one block per m = 0 .. j_max required")
        for m, block in enumerate(self.blocks):
            n = self.basis.block_dim(m)
            if block.shape != (n, n):
                raise ValueError(f"block m={m} must have shape ({n}, {n})")
            block.setflags(write=False)

    @staticmethod
    def degeneracy(m: int) -> float:
        return 1.0 if m == 0 else 2.0

    def weighted_trace(self) -> float:
        return float(
            sum(
                self.degeneracy(m) * np.trace(b).real
                for m, b in enumerate(self.blocks)
            )
        )

    def purity(self) -> float:
        """Degeneracy-weighted Tr(rho^2)."""
        return float(
            sum(
                self.degeneracy(m) * np.vdot(b, b).real
                for m, b in enumerate(self.blocks)
            )
        )

    def hermiticity_defect(self) -> float:
        """Largest |rho - rho^dagger| entry over all blocks."""
        return float(
            max(
                np.abs(b - b.conj().T).max() if b.size else 0.0
                for b in self.blocks
            )
        )


def _level_weights(molecule: MoleculeSpec, j_max: int) -> np.ndarray:
    """Unnormalized per-(J, m) thermal weights for J = 0 .. j_max: the spin
    weight times exp(-E_J/(k_B T)), or 1 on the lowest allowed level at 0 K."""
    js = np.arange(j_max + 1)
    spin = molecule.spin_weight(js)
    if molecule.temperature_k == 0.0:
        w = np.zeros(j_max + 1)
        w[int(js[spin > 0][0])] = 1.0
        return w
    return spin * np.exp(-(CM_KELVIN * molecule.b_cm * js * (js + 1) / molecule.temperature_k))


def _thermal_populations(molecule: MoleculeSpec, j_max: int, truncation_tol: float) -> np.ndarray:
    """Per-(J, m) populations of thermal_state for J = 0 .. j_max."""
    w = _level_weights(molecule, j_max)
    degeneracy = 2.0 * np.arange(j_max + 1) + 1.0
    z = float(np.sum(w * degeneracy))
    p = w / z

    top = p[j_max] * degeneracy[j_max]
    if top > truncation_tol:
        raise TruncationError(
            f"population {top:.3e} at J = {j_max} exceeds "
            f"tolerance {truncation_tol:.1e}; increase j_max"
        )
    return p


def thermal_state(
    molecule: MoleculeSpec,
    basis: RotorBasis,
    truncation_tol: float,
) -> MBlockDensityMatrix:
    """Boltzmann-populated diagonal state over the truncated basis.

    Populations are proportional to the spin weight times
    exp(-E_J/(k_B T)) and identical for every m within a J level.  The
    partition sum runs over the truncated basis including m degeneracy,
    so the degeneracy-weighted trace is exactly 1.

    Raises:
        TruncationError: if the degeneracy-weighted population of the
            top level J = j_max exceeds ``truncation_tol``, which
            signals that the basis is too small for this temperature.
    """
    p = _thermal_populations(molecule, basis.j_max, truncation_tol)
    blocks = []
    for m in range(basis.j_max + 1):
        diag = p[m:].astype(complex)
        blocks.append(np.diag(diag))
    return MBlockDensityMatrix(basis=basis, molecule=molecule, blocks=tuple(blocks))


def choose_jmax(
    molecule: MoleculeSpec,
    max_kick: float,
    tolerance: float,
) -> int:
    """Smallest basis size that holds the thermal band plus kick headroom.

    The thermal edge is the smallest J above which the fractional
    population is below ``tolerance``.  On top of that a ladder-climbing
    margin of 4*ceil(max_kick) + 8 levels is reserved, because each unit
    of kick strength can push coherence a few Delta-J = 2 rungs upward.
    A floor of 10 keeps degenerate cases (cold molecule, no kick) in a
    regime where the operators are still well formed.
    """
    if max_kick < 0.0:
        raise ValueError("max_kick must be non-negative")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    margin = 4 * math.ceil(max_kick) + 8

    # Extend the ladder until the tail mass has clearly converged.
    j_cap = 64
    while True:
        w = _level_weights(molecule, j_cap)
        deg = 2.0 * np.arange(j_cap + 1) + 1.0
        mass = w * deg
        if mass[-1] < 1e-18 * mass.max():
            break
        j_cap *= 2
    total = float(mass.sum())
    tail = np.cumsum(mass[::-1])[::-1] / total  # tail[j] = population at J >= j
    above = np.concatenate([tail[1:], [0.0]])   # population strictly above J
    j_edge = int(np.argmax(above < tolerance))
    return max(j_edge + margin, 10)
