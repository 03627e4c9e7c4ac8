"""Eq. (2): the ROI mismatch-time estimator."""

import pytest

from repro.compression.mismatch import MismatchEstimator


def test_converged_frames_report_frame_delay():
    estimator = MismatchEstimator(window_s=2.0)
    m = estimator.observe_frame(1.0, frame_delay=0.3, now=1.0)
    assert m == pytest.approx(0.3)


def test_mismatch_counts_from_roi_change():
    estimator = MismatchEstimator(window_s=2.0)
    estimator.observe_roi((5, 4), now=0.0)
    estimator.observe_roi((6, 4), now=1.0)  # ROI change at t=1
    m = estimator.observe_frame(2.0, frame_delay=0.2, now=1.5)
    assert m == pytest.approx(0.5)


def test_mismatch_floored_at_frame_delay():
    estimator = MismatchEstimator(window_s=2.0)
    estimator.observe_roi((5, 4), now=0.0)
    estimator.observe_roi((6, 4), now=1.0)
    m = estimator.observe_frame(2.0, frame_delay=0.8, now=1.1)
    assert m == pytest.approx(0.8)


def test_clock_resets_on_convergence():
    estimator = MismatchEstimator(window_s=10.0)
    estimator.observe_roi((5, 4), now=0.0)
    estimator.observe_roi((6, 4), now=1.0)
    estimator.observe_frame(2.0, frame_delay=0.2, now=1.6)
    estimator.observe_frame(1.0, frame_delay=0.2, now=2.0)  # converged
    # A later mismatched frame without a recorded change counts from now.
    m = estimator.observe_frame(2.0, frame_delay=0.2, now=5.0)
    assert m == pytest.approx(0.2)


def test_consecutive_changes_extend_mismatch():
    estimator = MismatchEstimator(window_s=10.0)
    estimator.observe_roi((5, 4), now=0.0)
    estimator.observe_roi((6, 4), now=1.0)
    estimator.observe_frame(2.0, frame_delay=0.1, now=1.4)
    estimator.observe_roi((7, 4), now=1.5)  # second change before converging
    m = estimator.observe_frame(2.0, frame_delay=0.1, now=2.5)
    assert m == pytest.approx(1.5)  # still counted from the first change


def test_sliding_window_average():
    estimator = MismatchEstimator(window_s=1.0)
    estimator.observe_frame(1.0, frame_delay=0.2, now=0.0)
    estimator.observe_frame(1.0, frame_delay=0.4, now=0.5)
    assert estimator.average() == pytest.approx(0.3)
    # The first sample falls out of the window.
    estimator.observe_frame(1.0, frame_delay=0.6, now=1.2)
    assert estimator.average() == pytest.approx(0.5)


def test_average_empty_is_zero():
    assert MismatchEstimator(window_s=2.0).average() == 0.0


def test_converged_level_reference():
    """With a plateau profile, convergence is judged against the level a
    fresh ROI would give, not the literal l_min."""
    estimator = MismatchEstimator(window_s=2.0)
    m = estimator.observe_frame(
        1.2, frame_delay=0.2, now=1.0, converged_level=1.2
    )
    assert m == pytest.approx(0.2)  # converged: displayed == reference
    m = estimator.observe_frame(
        1.5, frame_delay=0.2, now=2.0, converged_level=1.2
    )
    assert m >= 0.2  # now mismatched


def test_average_sums_left_to_right():
    """M is a running left-to-right sum over the window, identical on
    every interpreter: Python 3.12's compensated ``sum()`` (like
    ``math.fsum``) would give exactly 0.1 here."""
    estimator = MismatchEstimator(window_s=10.0)
    for k in range(10):
        estimator.observe_frame(1.0, frame_delay=0.1, now=0.01 * k)
    assert estimator.average() == 0.09999999999999999
