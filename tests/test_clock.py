"""Delay computation and EWMA latency estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync.clock import (LatencyEstimator, NonceMismatch, VirtualClock,
                            delay_from_timestamp, rtt_probe)
from gamesync.pdu import PingMessage, PongMessage


def test_delay_direct_subtraction():
    res = delay_from_timestamp(1000, 1500)
    assert res.delay_ms == 500 and not res.clock_anomaly


def test_delay_zero():
    res = delay_from_timestamp(1000, 1000)
    assert res.delay_ms == 0 and not res.clock_anomaly


def test_delay_clamped_with_anomaly_flag():
    res = delay_from_timestamp(1000, 990)
    assert res.delay_ms == 0 and res.clock_anomaly


def test_delay_records_are_immutable():
    with pytest.raises(AttributeError):
        delay_from_timestamp(100, 150).delay_ms = 0


def test_estimator_first_sample_initializes():
    est = LatencyEstimator()
    assert 0 not in est.estimates
    est.observe(0, 200)
    assert est.estimates[0] == 200.0


def test_estimator_hand_computed_step():
    # 0.875 * 200 + 0.125 * 280 = 175 + 35 = 210
    est = LatencyEstimator(alpha=0.125)
    est.observe(0, 200)
    assert est.observe(0, 280) == 210.0


def test_estimator_step_change_convergence():
    # independent loop oracle for the closed-form residual
    # (1 - alpha)^n: after a 100 -> 300 step, within 5% of 300 by sample 25
    est = LatencyEstimator(alpha=0.125)
    est.observe(0, 100)
    for i in range(20):
        est.observe(0, 100)
    assert est.estimates[0] == 100.0
    oracle = 100.0
    for n in range(1, 26):
        est.observe(0, 300)
        oracle = 0.875 * oracle + 0.125 * 300.0
    assert est.estimates[0] == pytest.approx(oracle)
    assert abs(est.estimates[0] - 300.0) <= 0.05 * 300.0
    closed_form = 300.0 - 200.0 * (0.875 ** 25)
    assert est.estimates[0] == pytest.approx(closed_form, rel=1e-12)


def test_constant_samples_stay_exact():
    est = LatencyEstimator(alpha=0.125)
    for i in range(50):
        est.observe(0, 42)
        assert est.estimates[0] == 42.0


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
       st.floats(0.01, 1.0))
def test_estimate_within_sample_range(samples, alpha):
    est = LatencyEstimator(alpha=alpha)
    for i, s in enumerate(samples):
        est.observe(0, s)
        assert min(samples[:i + 1]) <= est.estimates[0] <= max(samples[:i + 1])


def test_estimator_is_per_peer():
    """Keyed by link id: each of a manager's links has one peer."""
    est = LatencyEstimator()
    est.observe(0, 100)
    assert 1 not in est.estimates
    est.observe(1, 900)
    assert est.estimates[0] == 100.0
    assert est.estimates[1] == 900.0


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        LatencyEstimator().observe(0, -1)


def test_rtt_probe_halving():
    ping = PingMessage(1, 7, 0)
    pong = PongMessage(2, 7, 390, 0)
    assert rtt_probe(ping, pong, 400) == 200


def test_rtt_probe_rounds_half_up():
    ping = PingMessage(1, 7, 100)
    pong = PongMessage(2, 7, 101, 100)
    assert rtt_probe(ping, pong, 101) == 1


def test_rtt_probe_nonce_mismatch():
    ping = PingMessage(1, 7, 0)
    pong = PongMessage(2, 8, 100, 0)
    with pytest.raises(NonceMismatch):
        rtt_probe(ping, pong, 100)


def test_virtual_clock_monotone():
    clk = VirtualClock()
    assert clk.read(10) == 10
    assert clk.read(5) == 10       # never goes backwards
    assert clk.read(20) == 20
    assert clk.read(15) == 20


def test_virtual_clock_offset():
    clk = VirtualClock(offset=-3)
    assert clk.read(10) == 7
