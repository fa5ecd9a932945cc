"""First-order dead reckoning: prediction, threshold-gated sending, and
smooth convergence after corrections.

Senders transmit a state update only when their own prediction error (what a
receiver would currently extrapolate vs the actual state) reaches the
threshold, or when the heartbeat interval has elapsed. Receivers extrapolate
the last received kinematics and blend corrections in over a convergence
window instead of snapping.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

DEFAULT_HEARTBEAT_MS = 1000


class TimeBeforeSample(Exception):
    pass


class EntityKinematics(NamedTuple):
    pos: tuple[float, float]
    vel: tuple[float, float]
    at: int  # virtual ms


@dataclass(frozen=True)
class DeadReckoningPolicy:
    threshold_m: float = 0.5
    convergence_ms: int = 200

    def __post_init__(self):
        if self.threshold_m <= 0:
            raise ValueError("threshold_m must be > 0")
        if self.convergence_ms < 0:
            raise ValueError("convergence_ms must be >= 0")


def dist(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between two points.

    Written out rather than math.hypot or math.dist, which round
    differently and would change every divergence figure in the outputs.
    """
    dx = bx - ax
    dy = by - ay
    return math.sqrt(dx * dx + dy * dy)


def displayed_at(corrected: EntityKinematics, snapshot: tuple | None,
                 epoch_start: int, window: int, t: int) -> tuple[float, float]:
    """The display rule: where a receiver shows an entity at t.

    corrected is the latest correction; snapshot is the position displayed
    when its blend epoch began at epoch_start, and window the epoch's
    convergence window. Before corrected.at (a skewed clock) the rule shows
    corrected.pos and never extrapolates backwards. From then on it blends
    linearly from snapshot toward the prediction pos + vel * (t - at) / 1000,
    completing at epoch_start + window and tracking the prediction exactly
    thereafter. No snapshot, or a zero window, snaps to the prediction.
    """
    pos, vel, at = corrected
    if t < at:
        return pos
    dt = (t - at) / 1000.0
    tx = pos[0] + vel[0] * dt
    ty = pos[1] + vel[1] * dt
    if snapshot is None or window <= 0 or t >= epoch_start + window:
        return tx, ty
    u = (t - epoch_start) / window
    sx, sy = snapshot
    return sx + (tx - sx) * u, sy + (ty - sy) * u


def predict(last: EntityKinematics, t: int) -> tuple[float, float]:
    """Extrapolate position to time t: pos + vel * (t - at) / 1000."""
    if t < last.at:
        raise TimeBeforeSample(f"t={t} before sample at {last.at}")
    return displayed_at(last, None, 0, 0, t)


def should_send(actual: EntityKinematics,
                last_sent: EntityKinematics | None,
                policy: DeadReckoningPolicy,
                t: int,
                heartbeat_ms: int = DEFAULT_HEARTBEAT_MS,
                threshold_scale: float = 1.0) -> bool:
    """Send when the receiver-visible prediction error reaches the threshold.

    Unconditionally true when nothing was sent yet or the heartbeat interval
    has elapsed since the last send. threshold_scale tightens the threshold
    in strong-consistency mode.
    """
    if last_sent is None:
        return True
    if t - last_sent.at >= heartbeat_ms:
        return True
    px, py = predict(last_sent, t)
    error = dist(actual.pos[0], actual.pos[1], px, py)
    return error >= policy.threshold_m * threshold_scale


def converge(displayed: tuple[float, float],
             epoch_start: int,
             corrected: EntityKinematics,
             policy: DeadReckoningPolicy,
             t: int) -> tuple[float, float]:
    """Displayed position during a correction epoch started at epoch_start.

    Blends linearly from the position displayed at epoch_start toward
    predict(corrected, t), completing at epoch_start + convergence_ms and
    tracking the prediction exactly thereafter. convergence_ms == 0 snaps.
    """
    if t < corrected.at:
        raise TimeBeforeSample(f"t={t} before correction at {corrected.at}")
    return displayed_at(corrected, displayed, epoch_start,
                        policy.convergence_ms, t)
