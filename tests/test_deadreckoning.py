"""Prediction, the threshold send gate, and convergence blending."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamesync.deadreckoning import (DeadReckoningPolicy, EntityKinematics,
                                    TimeBeforeSample, converge, predict,
                                    should_send)


def test_predict_zero_velocity():
    last = EntityKinematics((3.0, 4.0), (0.0, 0.0), 0)
    assert predict(last, 5000) == (3.0, 4.0)


def test_predict_linear():
    last = EntityKinematics((0.0, 0.0), (10.0, 0.0), 0)
    assert predict(last, 500) == (5.0, 0.0)


def test_predict_hand_computed():
    # 1 + 2*0.25 = 1.5 ; 1 - 4*0.25 = 0
    last = EntityKinematics((1.0, 1.0), (2.0, -4.0), 1000)
    assert predict(last, 1250) == (1.5, 0.0)


def test_predict_rejects_past():
    last = EntityKinematics((0.0, 0.0), (1.0, 1.0), 1000)
    with pytest.raises(TimeBeforeSample):
        predict(last, 999)


def test_kinematics_are_immutable():
    kin = EntityKinematics((3.0, 4.0), (1.0, 0.0), 0)
    with pytest.raises(AttributeError):
        kin.at = 1


def test_should_send_threshold_crossing():
    policy = DeadReckoningPolicy(threshold_m=0.5)
    last = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    actual = EntityKinematics((0.6, 0.0), (0.0, 0.0), 100)
    assert should_send(actual, last, policy, 100) is True


def test_should_send_below_threshold_heartbeat_not_due():
    policy = DeadReckoningPolicy(threshold_m=0.5)
    last = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    actual = EntityKinematics((0.0, 0.0), (0.0, 0.0), 100)
    assert should_send(actual, last, policy, 100) is False


def test_should_send_no_prior_send():
    policy = DeadReckoningPolicy()
    actual = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    assert should_send(actual, None, policy, 0) is True


def test_heartbeat_via_send_loop_oracle():
    """Brute-force tick simulation: a stationary entity resends exactly on
    the heartbeat interval."""
    policy = DeadReckoningPolicy(threshold_m=0.5)
    last_sent = None
    send_times = []
    for t in range(0, 5001, 50):
        actual = EntityKinematics((1.0, 1.0), (0.0, 0.0), t)
        if should_send(actual, last_sent, policy, t, heartbeat_ms=1000):
            send_times.append(t)
            last_sent = actual
    assert send_times == [0, 1000, 2000, 3000, 4000, 5000]


def test_should_send_threshold_scale():
    policy = DeadReckoningPolicy(threshold_m=0.5)
    last = EntityKinematics((0.0, 0.0), (0.0, 0.0), 0)
    actual = EntityKinematics((0.2, 0.0), (0.0, 0.0), 100)
    assert should_send(actual, last, policy, 100) is False
    assert should_send(actual, last, policy, 100, threshold_scale=0.25) is True


def test_converge_snap():
    policy = DeadReckoningPolicy(convergence_ms=0)
    corrected = EntityKinematics((9.0, 9.0), (0.0, 0.0), 0)
    assert converge((0.0, 0.0), 0, corrected, policy, 500) == (9.0, 9.0)


def test_converge_window_end_exact():
    policy = DeadReckoningPolicy(convergence_ms=200)
    corrected = EntityKinematics((10.0, 0.0), (2.0, 0.0), 1000)
    t = 1200
    assert converge((0.0, 0.0), 1000, corrected, policy, t) == predict(corrected, t)
    assert converge((0.0, 0.0), 1000, corrected, policy, 1500) == predict(corrected, 1500)


def test_converge_midpoint():
    # static correction target (10, 0): the halfway blend sits at (5, 0)
    policy = DeadReckoningPolicy(convergence_ms=200)
    corrected = EntityKinematics((10.0, 0.0), (0.0, 0.0), 1000)
    assert converge((0.0, 0.0), 1000, corrected, policy, 1100) == (5.0, 0.0)


def test_converge_per_ms_stepping_oracle():
    """The blend must be linear in t toward the (moving) prediction."""
    policy = DeadReckoningPolicy(convergence_ms=200)
    corrected = EntityKinematics((10.0, -2.0), (3.0, 1.0), 1000)
    displayed0 = (0.0, 4.0)
    for t in range(1000, 1201):
        u = (t - 1000) / 200
        target = predict(corrected, t)
        expected = (displayed0[0] + (target[0] - displayed0[0]) * u,
                    displayed0[1] + (target[1] - displayed0[1]) * u)
        got = converge(displayed0, 1000, corrected, policy, t)
        assert got == pytest.approx(expected, abs=1e-12)


def test_converge_continuity_bound():
    """Per-ms displayed movement stays under speed + correction/W."""
    policy = DeadReckoningPolicy(convergence_ms=200)
    corrected = EntityKinematics((10.0, 0.0), (5.0, 0.0), 1000)
    displayed0 = (0.0, 0.0)
    speed = 5.0
    # the gap being closed peaks at window end while the target moves away
    correction = math.dist(displayed0, corrected.pos) + speed * (200 / 1000.0)
    bound_per_ms = (speed / 1000.0) + (correction / 200.0) + 1e-9
    prev = converge(displayed0, 1000, corrected, policy, 1000)
    for t in range(1001, 1300):
        cur = converge(displayed0, 1000, corrected, policy, t)
        assert math.dist(prev, cur) <= bound_per_ms
        prev = cur


def test_send_rule_soundness_on_zigzag_path():
    """Between consecutive sends, the sender's own prediction error never
    exceeds the threshold plus one tick's worth of relative motion."""
    policy = DeadReckoningPolicy(threshold_m=0.5)
    speed = 10.0
    tick = 50
    max_step = 2 * speed * (tick / 1000.0)   # worst per-tick growth

    def truth(t):
        # triangle wave in y, constant advance in x
        phase = (t // 500) % 2
        y_vel = 2.0 if phase == 0 else -2.0
        base = (t % 500) / 1000.0
        y = y_vel * base if phase == 0 else 1.0 - 2.0 * base
        return (speed * t / 1000.0, y), (speed, y_vel)

    last_sent = None
    for t in range(0, 20001, tick):
        pos, vel = truth(t)
        actual = EntityKinematics(pos, vel, t)
        if last_sent is not None:
            error = math.dist(pos, predict(last_sent, t))
            assert error <= policy.threshold_m + max_step + 1e-9
        if should_send(actual, last_sent, policy, t, heartbeat_ms=10**9):
            last_sent = actual


@given(st.integers(0, 10**6), st.integers(0, 10**5))
def test_predict_exact_for_constant_velocity(at, dt):
    """Prediction error is identically 0 for straight-line ground truth."""
    vel = (3.25, -1.5)
    start = (7.0, 11.0)
    truth_at = (start[0] + vel[0] * (at / 1000.0),
                start[1] + vel[1] * (at / 1000.0))
    last = EntityKinematics(truth_at, vel, at)
    t = at + dt
    truth_t = (start[0] + vel[0] * (t / 1000.0),
               start[1] + vel[1] * (t / 1000.0))
    assert predict(last, t) == pytest.approx(truth_t, abs=1e-9)
