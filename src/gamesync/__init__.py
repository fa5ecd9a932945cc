"""Reusable consistency layer for networked interactive games.

A per-client PlayerManager combines dead reckoning, local-lag playout
buffering, timestamp-order rollback, critical-region consistency switching,
latency estimation, and overlay route selection behind game-facing
callbacks. A deterministic discrete-event network simulator and a scenario
harness reproduce the pipeline's behavior under configurable delay, jitter,
and loss.
"""

from gamesync.clock import LatencyEstimator, VirtualClock, rtt_probe
from gamesync.compare import compare
from gamesync.deadreckoning import (DeadReckoningPolicy, EntityKinematics,
                                    converge, predict, should_send)
from gamesync.locallag import PlayoutBuffer, PlayoutEntry
from gamesync.netsim import NetworkSim, SimRng
from gamesync.overlay import LinkKind, LinkSpec, PeerCapabilities, RouteDecision
from gamesync.pdu import (EventKind, EventMessage, PingMessage, PongMessage,
                          StateUpdate, decode, encode)
from gamesync.player import (GameCallbacks, PlayerManager,
                             PlayerManagerConfig)
from gamesync.regions import (AnchoredCircle, Circle, ConsistencyMode,
                              Rect, RegionSet)
from gamesync.rollback import DeliveryLog, RollbackDirective, apply_directive
from gamesync.runner import RunResult, run
from gamesync.scenario import ScenarioConfig, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AnchoredCircle", "Circle", "ConsistencyMode", "DeadReckoningPolicy",
    "DeliveryLog", "EntityKinematics", "EventKind", "EventMessage",
    "GameCallbacks", "LatencyEstimator",
    "LinkKind", "LinkSpec", "NetworkSim", "PeerCapabilities", "PingMessage",
    "PlayerManager", "PlayerManagerConfig", "PlayoutBuffer", "PlayoutEntry",
    "PongMessage", "Rect", "RegionSet", "RollbackDirective", "RouteDecision",
    "RunResult", "ScenarioConfig", "SimRng", "StateUpdate", "VirtualClock",
    "apply_directive", "compare", "converge", "decode", "encode",
    "load_scenario", "parse_scenario", "predict", "rtt_probe", "run",
    "should_send", "__version__",
]
