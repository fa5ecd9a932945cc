"""Seeded scenario documents for the benchmark workloads.

Every document is plain JSON data built with `random.Random(seed)` only, so
the same seed gives the same document on every platform. The program sees
nothing but the document, which goes through
`gamesync.scenario.parse_scenario` like any user scenario.
"""

import json
import random
from pathlib import Path

GRID_M = 30.0   # spacing of the mesh16_lossy loops

WORKLOADS = ("carrace", "mesh16_lossy", "skirmish_events")


def carrace(root: Path) -> dict:
    # The shipped two-client race, unchanged: dense state traffic on one
    # jitter-free link, so per-frame reception cost dominates and sampling,
    # simulator heap work, overlay and rollback stay light. It has no seed
    # parameter because the document carries its own.
    return json.loads((root / "scenarios" / "carrace.json").read_text(
        encoding="utf-8"))


def _square_loop(rng: random.Random, center, side: float) -> list:
    """A square loop round center, from a seeded corner and direction."""
    cx, cy = center
    h = side / 2
    points = [[cx - h, cy - h], [cx + h, cy - h], [cx + h, cy + h],
              [cx - h, cy + h]]
    if rng.random() < 0.5:
        points.reverse()
    k = rng.randrange(4)
    return points[k:] + points[:k]


def _spread(lo: int, hi: int, n: int, rng: random.Random) -> list:
    """n delays spread evenly over [lo, hi], in seeded order. Every seed
    draws the same multiset, so the seed moves which pair gets which delay
    but not how much delay the mesh has."""
    values = [lo + (hi - lo) * k // (n - 1) for k in range(n)]
    rng.shuffle(values)
    return values


def mesh16_lossy(seed: int) -> dict:
    # The N^2 case: 16 clients in a full mesh, every viewer sampling every
    # remote car each tick, with relay and direct links carrying jitter and
    # loss, overlay routing on, and direct links failing and recovering.
    # Harness sampling, dead-reckoning convergence, CSV writing, simulator
    # heap work and route selection all carry real load here. Cars lap
    # squares on a 4x4 grid close enough for neighbours to meet critical
    # regions and the proximity radius; the seed picks start corners,
    # directions, delay assignment, failing links and simulator draws, so
    # the amount of work barely moves between seeds. The 250 ms heartbeat
    # bounds how long a lost update leaves a viewer extrapolating, which
    # keeps mean divergence steady across seeds despite the loss.
    rng = random.Random(seed)
    n = 16
    clients = []
    for cid in range(n):
        center = (GRID_M * (1 + cid % 4), GRID_M * (1 + cid // 4))
        clients.append({"id": cid, "entities": [{
            "id": cid, "class": "car",
            "motion": {"kind": "waypoints",
                       "points": _square_loop(rng, center, 13.0),
                       "speed": 8.0 + 0.5 * (cid % 8), "loop": True}}]})
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    relay = _spread(60, 120, len(pairs), rng)
    direct = _spread(20, 60, len(pairs), rng)
    links = []
    for (a, b), relay_ms, direct_ms in zip(pairs, relay, direct):
        links.append({"id": len(links), "endpoints": [a, b],
                      "base_delay_ms": relay_ms, "jitter_ms": 40,
                      "loss_prob": 0.05, "kind": "relay"})
        links.append({"id": len(links), "endpoints": [a, b],
                      "base_delay_ms": direct_ms, "jitter_ms": 40,
                      "loss_prob": 0.05, "kind": "direct"})
    direct_ids = [l["id"] for l in links if l["kind"] == "direct"]
    link_events = []
    for lid, outage in zip(sorted(rng.sample(direct_ids, 6)),
                           _spread(2000, 5000, 6, rng)):
        down = rng.randint(3000, 10000)
        link_events.append({"at": down, "link": lid, "available": False})
        link_events.append({"at": down + outage, "link": lid,
                            "available": True})
    regions = [{"kind": "anchored_circle", "anchor_entity": e, "radius": 20}
               for e in sorted(rng.sample(range(n), 4))]
    regions += [{"kind": "circle",
                 "center": [GRID_M * (1 + c % 4), GRID_M * (1 + c // 4)],
                 "radius": 25} for c in sorted(rng.sample(range(n), 3))]
    return {
        "duration_ms": 20000, "tick_ms": 50, "seed": seed,
        "clients": clients, "links": links, "link_events": link_events,
        "regions": regions,
        "policies": {
            "default": {"threshold_m": 0.5, "convergence_ms": 200,
                        "lag_ms": 0},
            "classes": {"car": {"threshold_m": 0.5, "convergence_ms": 200,
                                "lag_ms": 100}},
            "heartbeat_ms": 250,
            "critical_proximity_radius_m": 30.0},
        "toggles": {"overlay": True, "rollback_scope": "all"},
    }


def skirmish_events(seed: int) -> dict:
    # Deep event rollback: six tanks each fire every 50 ms over relay links
    # whose jitter spread exceeds the local lag, so many events arrive past
    # their playout deadline and undo every newer event. Dead reckoning
    # barely sends and sampling is nearly idle, which isolates local lag and
    # rollback from the per-frame state path of carrace. The tanks creep
    # round a 10 m square instead of standing still, so displayed-versus-
    # truth divergence is small but not zero.
    rng = random.Random(seed)
    n = 6
    duration = 60000
    count = (duration - 1000) // 50
    clients = []
    for cid in range(n):
        center = (30.0 + 60.0 * (cid % 3), 30.0 + 60.0 * (cid // 3))
        clients.append({"id": cid, "entities": [{
            "id": cid, "class": "tank",
            "motion": {"kind": "waypoints",
                       "points": _square_loop(rng, center, 10.0),
                       "speed": 2.2, "loop": True},
            "events": [{"kind": "fire", "first": rng.randint(500, 999),
                        "every": 50, "count": count}]}]})
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = [{"id": i, "endpoints": [a, b], "base_delay_ms": delay,
              "jitter_ms": 60, "loss_prob": 0.0, "kind": "relay"}
             for i, ((a, b), delay) in enumerate(
                 zip(pairs, _spread(80, 120, len(pairs), rng)))]
    return {
        "duration_ms": duration, "tick_ms": 50, "seed": seed,
        "clients": clients, "links": links,
        "policies": {
            "default": {"threshold_m": 0.5, "convergence_ms": 0,
                        "lag_ms": 0},
            "classes": {"tank": {"threshold_m": 0.5, "convergence_ms": 0,
                                 "lag_ms": 100}},
            "heartbeat_ms": 1000},
        "toggles": {"overlay": False, "rollback_scope": "events"},
    }


def document(workload: str, seed: int, root: Path) -> dict:
    """The scenario document of a workload for a seed."""
    if workload == "carrace":
        return carrace(root)
    if workload == "mesh16_lossy":
        return mesh16_lossy(seed)
    if workload == "skirmish_events":
        return skirmish_events(seed)
    raise ValueError(f"unknown workload {workload!r}")
