"""Transverse averaging over the focal volume of the pump beams.

Molecules at different radii in the pump focus feel different kick
strengths, and the probe reads a Gaussian-weighted mixture of their
responses.  Strong-kick structure in the second-pulse dependence (the
sign flip and the oscillations beyond the first lobe) lives at
different nominal kicks for different radii, so the mixture washes it
out; the weak-kick regime only rescales.

Averaging runs over the full alignment traces, not over extracted
amplitudes: the probe measures one summed birefringence signal, and
phase-flipped contributions from different shells must cancel inside
the trace before any peak is picked.  Radial integration reduces to a
one-dimensional quadrature in the local intensity fraction
u = exp(-2r^2/w_pump^2), distributed as u^(kappa-1) du with
kappa = (w_pump/w_probe)^2, which Gauss-Jacobi nodes integrate exactly
for polynomial responses.  Both pulses travel the same path, so one
fraction scales both kicks.  Scans run shell by shell; the nodes need
no scipy, which an averaged scan loads only for a sin**2 fit.

Only the transverse profile is modeled.  The crossed-beam geometry
keeps the interaction length short enough that longitudinal variation
is a smaller effect than the radial one, and no measured waists exist
for this setup anyway: the default geometry is a placeholder for
qualitative studies and is labeled as nominal in output metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RotorBasis
from .echo import EchoCurve, _p2_scan
from .propagate import ExperimentConfig

# Placeholder waists in micrometres (probe half the pump).  Qualitative
# studies only; outputs produced with these carry a nominal-geometry note.
DEFAULT_PUMP_WAIST_UM = 30.0
DEFAULT_PROBE_WAIST_UM = 15.0


@dataclass(frozen=True)
class BeamGeometry:
    """Transverse beam geometry: pump and probe waists in micrometres."""

    pump_waist: float
    probe_waist: float
    n_shells: int = 8

    def __post_init__(self) -> None:
        if self.pump_waist <= 0.0 or self.probe_waist <= 0.0:
            raise ValueError("waists must be positive")
        if self.n_shells < 1:
            raise ValueError("n_shells must be at least 1")

    @property
    def kappa(self) -> float:
        """Pump-to-probe waist ratio squared; the only number that enters."""
        return (self.pump_waist / self.probe_waist) ** 2

    @classmethod
    def nominal(cls, n_shells: int = 8) -> "BeamGeometry":
        return cls(DEFAULT_PUMP_WAIST_UM, DEFAULT_PROBE_WAIST_UM, n_shells)


def _gauss_jacobi_unit(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and normalized weights for the weight (1+x)^beta on [-1, 1].

    Golub-Welsch with NumPy's eigh of the dense recurrence matrix (the
    same bits as scipy's tridiagonal solver for n <= 24).  The library
    routine for these nodes scales its weights by the distribution's
    total mass, computed through gamma functions that overflow once
    beta reaches a few hundred; the probe -> 0 limit needs beta ~ 1e8,
    and normalized weights never need the mass at all.
    """
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    if n == 1:
        return diag, np.ones(1)
    k = np.arange(1.0, n)
    diag[1:] = beta**2 / ((2.0 * k + beta) * (2.0 * k + beta + 2.0))
    off_sq = (
        4.0 * k * k * (k + beta) ** 2
        / ((2.0 * k + beta) ** 2 * (2.0 * k + beta + 1.0) * (2.0 * k + beta - 1.0))
    )
    off = np.sqrt(off_sq)
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    return nodes, weights / np.sum(weights)


def intensity_quadrature(geometry: BeamGeometry) -> list[tuple[float, float]]:
    """Quadrature nodes (intensity_fraction, weight) over the focal profile.

    The probe-weighted radial integral of any response g becomes
    integral of g(u) u^(kappa-1) du over (0, 1]; the returned nodes and
    weights integrate it exactly for g polynomial up to degree
    2*n_shells - 1.  Weights are normalized to sum to one, so a
    constant response averages to itself.  One shell collapses to the
    weight-centroid fraction kappa/(kappa+1); a vanishing probe waist
    pushes every node toward on-axis sampling (u = 1).
    """
    x, w = _gauss_jacobi_unit(geometry.n_shells, geometry.kappa - 1.0)
    u = 0.5 * (x + 1.0)
    order = np.argsort(u)
    return [(float(u[i]), float(w[i])) for i in order]


def averaged_scan_p2(
    p2_values,
    p1_kick: float,
    dtau: float,
    geometry: BeamGeometry,
    base_config: ExperimentConfig,
    *,
    window_halfwidth: float | None = None,
    isolate: bool = True,
    workers: int = 1,
    basis: RotorBasis | None = None,
) -> EchoCurve:
    """Second-pulse scan with focal-volume averaging at every point.

    Runs the same grid as the plain scan, but each point simulates all
    quadrature shells with both kicks scaled by the local intensity
    fraction and extracts the amplitude from the weighted-average
    trace.  The nominal (on-axis) kicks are what the returned points
    report.  A single on-axis shell reproduces the unaveraged scan.
    The sin**2 fit is attached as in scan_p2, and a failed fit lands in
    curve.failures (axis value nan).
    """
    return _p2_scan(
        p2_values, p1_kick, dtau, base_config, intensity_quadrature(geometry),
        window_halfwidth, isolate, kernel=True, attach_fit=True,
        workers=workers, basis=basis,
    )


def first_minimum_depth(curve: EchoCurve) -> float:
    """Drop from the |s| peak to the first local minimum after it.

    The washout diagnostic: focal averaging fills in the deep minimum
    at the sign flip, so this depth shrinks as the probe samples more
    of the focal volume.  If the tail never turns back up inside the
    grid, the drop to the lowest tail point is returned instead.
    """
    mag = np.abs(curve.s_values())
    if mag.size < 3:
        raise ValueError("need at least three points past-the-peak structure")
    i_peak = int(np.argmax(mag))
    tail = mag[i_peak:]
    if tail.size < 2:
        raise ValueError("peak sits at the end of the grid; extend the scan")
    i_min = None
    for k in range(1, tail.size - 1):
        if tail[k] <= tail[k - 1] and tail[k] < tail[k + 1]:
            i_min = k
            break
    if i_min is None:
        i_min = int(np.argmin(tail))
    return float(tail[0] - tail[i_min])
