"""Each threshold the engine applies, pinned where it acts.

Every row builds one input just inside a threshold, which must pass, and
one just outside, which must raise or drop the point.  The values are
literals, not the module constants, so a changed constant fails here as a
misplaced comparison does.  The last column says why the threshold sits
where it does.
"""

import numpy as np
import pytest

from rotecho import (
    AlignmentTrace,
    ToleranceError,
    WindowError,
    dtau_grid,
    extract_secho,
    revival_period,
    two_pulse_config,
)
from rotecho.echo import _window_mask
from rotecho.propagate import _check_drift, _sample_times


def _trace(ocs, peak: float, dtau: float = 10.0) -> AlignmentTrace:
    """A two-pulse trace that is 0 but for one sample of `peak` at 2*dtau."""
    config = two_pulse_config(ocs, 1.0, 1.0, dtau)
    times = _sample_times(config)
    values = np.zeros(times.size)
    values[int(np.argmin(np.abs(times - 2.0 * dtau)))] = peak
    return AlignmentTrace(times, values, config)


_GRID = np.linspace(0.0, 10.0, 101)


def _validate(ocs, values) -> None:
    """AlignmentTrace.validate on two samples."""
    AlignmentTrace(_GRID[:2], np.array(values), two_pulse_config(ocs, 1.0, 1.0, 10.0)).validate()


BOUNDARIES = [
    # (threshold, inside, outside, why it sits there)
    ("TRACE_TOL above 1",
     lambda ocs: _check_drift(1.0 + 0.5e-9), lambda ocs: _check_drift(1.0 + 2e-9),
     "loose on purpose: the largest drift measured on any route is 6.9e-15"),
    ("TRACE_TOL below 1",
     lambda ocs: _check_drift(1.0 - 0.5e-9), lambda ocs: _check_drift(1.0 - 2e-9),
     "the drift is checked on both sides of 1"),
    ("HERM_TOL",
     lambda ocs: _check_drift(1.0, 0.5e-10), lambda ocs: _check_drift(1.0, 2e-10),
     "loose on purpose: the largest defect measured on dense scans is 4.3e-19"),
    ("RANGE_TOL above 2/3",
     lambda ocs: _validate(ocs, [0.0, 2 / 3 + 0.5e-12]),
     lambda ocs: _validate(ocs, [0.0, 2 / 3 + 2e-12]),
     "tight: it lets round-off of the spectrum sum through, nothing more"),
    ("RANGE_TOL below -1/3",
     lambda ocs: _validate(ocs, [-1 / 3 - 0.5e-12, 0.0]),
     lambda ocs: _validate(ocs, [-1 / 3 - 2e-12, 0.0]),
     "the range is checked at both ends"),
    ("_window_mask upper edge",
     lambda ocs: _window_mask(_GRID, 4.0, 2.0 + 1e-13), lambda ocs: _window_mask(_GRID, 4.0, 2.0 + 1e-6),
     "1e-12 ps absorbs the rounding of 2*dtau + w, not a real overshoot"),
    ("_window_mask lower edge",
     lambda ocs: _window_mask(_GRID, 1.0, 2.0 + 1e-13), lambda ocs: _window_mask(_GRID, 1.0, 2.0 + 1e-6),
     "the same slack below the first sample"),
]


@pytest.mark.parametrize("name, inside, outside, why", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_a_value_just_outside_a_threshold_raises_and_just_inside_passes(
    ocs, name, inside, outside, why
):
    inside(ocs)
    with pytest.raises((ToleranceError, WindowError)):
        outside(ocs)


def test_flat_trace_floor_reports_a_swing_of_2e_14_and_floors_5e_15(ocs):
    # FLAT_TRACE_FLOOR = 1e-14: an isolated trace that is 0 in exact
    # arithmetic (P1 = 0 or P2 = 0) swings by at most 5e-16 over the whole
    # trace for OCS at j_max = 120, 296 K
    assert extract_secho(_trace(ocs, 2e-14), 10.0).s_echo == -2e-14
    assert extract_secho(_trace(ocs, 5e-15), 10.0).s_echo == 0.0


def test_dtau_grid_drops_a_start_below_two_percent_of_the_revival(ocs):
    # MIN_DTAU_FRACTION = 0.02: the smallest usable separation; the window
    # shrinks to dtau - 0.012 T_rev as the delay drops toward the guard
    t_rev = revival_period(ocs)
    grid = dtau_grid(ocs, 0.015 * t_rev, 0.025 * t_rev, 2)
    assert grid.tolist() == [0.025 * t_rev]
