"""Golden outputs: the shipped scenarios, and one small generated mesh, must
keep producing byte-identical tick, event and delivery CSVs and traces. A
refactor that changes any byte (a different float rounding, event order or
RNG draw) fails here; a change meant to alter behaviour updates these
digests and says why."""

import hashlib

import pytest

from conftest import SCENARIOS
from gamesync.runner import run
from gamesync.scenario import load_scenario, parse_scenario

GOLDEN = {
    "carrace": {
        "tick": "6aaa1a047daaf54daf3bde78790abcdf0f02f22a05b1526dff6810edb6b3a6d6",
        "events": "7ed5c67c067481147dd80937580ad6baf43d23e95afdd25fabe4a49bb6398cf3",
        "deliveries": "41b30434f4fc4c59365a5188fbec7205721a5c796b41d3911c1f61ecc09a7ab6",
        "trace": "ba736867e25e1037a2d79a19910b557cb266169e8eb2cb27fd78e6a854d74a84",
    },
    "tankshots": {
        "tick": "2806b74db2f0d69165cbeb5a64f56fc10e25b27ee8c784ad7093b2bac669d1ca",
        "events": "3f5019b8c8f31123f91b63eea4fcc7c8ddb415dcda55e772bf609055fc2d3f28",
        "deliveries": "1e5d462103a8209bfaf39539f80ed4b426b46f6333beb1c90e148d656f83b30b",
        "trace": "5e61d5066e4cf23f7a4ed7a4118a8366fdcc0dbf8f30c1c9affd4e67380d2811",
    },
    "small_mesh": {
        "tick": "a6986f060c4e74386d6cff08c375e996d86250017f5b257ce9c9cdf26a9fc3f1",
        "events": "7b4385c9edbdecdde1ce88b8f18e975b076f40868e0c52d56477d59c266f07df",
        "deliveries": "4f9bda7347e7e132aa6a307a70ae38255383e358b4498ae48921c456422b7bde",
        "trace": "e3cb4dc613b266ebbb007fe1317de2905e76dc4e44a1d35732b463157a760303",
    },
}


def small_mesh_doc():
    """Five clients in a full relay+direct mesh with jitter and 5% loss,
    overlay routing, a direct link that goes down and comes back, a relay
    delay change, and one fixed and one anchored circle region, over 3 s.

    The shipped scenarios write no DROP lines, route switches, failovers or
    strong-mode rows; this one writes all of them."""
    ring = [(-40, 0), (0, 40), (40, 0), (0, -40), (25, 25)]
    clients = []
    for cid, (x, y) in enumerate(ring):
        entity = {"id": cid, "class": "tank" if cid == 3 else "car",
                  "motion": {"kind": "waypoints",
                             "points": [[x, y], [-x * 0.1, -y * 0.1], [y, -x]],
                             "speed": 20 + 3 * cid, "loop": True}}
        if cid == 3:
            entity["events"] = [{"kind": "fire", "first": 100, "every": 150,
                                 "count": 18}]
        clients.append({"id": cid, "entities": [entity]})
    links = []
    for a in range(len(ring)):
        for b in range(a + 1, len(ring)):
            links.append({"id": len(links), "endpoints": [a, b],
                          "kind": "relay", "base_delay_ms": 60 + 7 * ((a + b) % 4),
                          "jitter_ms": 25, "loss_prob": 0.05})
            links.append({"id": len(links), "endpoints": [a, b],
                          "kind": "direct", "base_delay_ms": 40 + 11 * (a * b % 5),
                          "jitter_ms": 15, "loss_prob": 0.05})
    return {
        "duration_ms": 3000, "tick_ms": 50, "seed": 23,
        "clients": clients, "links": links,
        "link_events": [{"at": 2200, "link": 1, "available": False},
                        {"at": 2700, "link": 1, "available": True},
                        {"at": 1200, "link": 2, "base_delay_ms": 20}],
        "regions": [{"kind": "circle", "center": [0, 0], "radius": 8},
                    {"kind": "anchored_circle", "anchor_entity": 3,
                     "radius": 12}],
        "policies": {"default": {"threshold_m": 0.5, "convergence_ms": 150,
                                 "lag_ms": 80},
                     "classes": {"tank": {"lag_ms": 120, "threshold_m": 0.3}},
                     "heartbeat_ms": 500, "idle_ping_ms": 400,
                     "route_hysteresis_ms": 200},
        "toggles": {"overlay": True},
    }


def _digests(config, tmp_path):
    paths = {kind: tmp_path / kind
             for kind in ("tick", "events", "deliveries", "trace")}
    run(config, out=paths["tick"], events_out=paths["events"],
        deliveries_out=paths["deliveries"], trace_out=paths["trace"])
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest()
            for kind, path in paths.items()}


@pytest.mark.parametrize("scenario", ["carrace", "tankshots"])
def test_shipped_scenario_outputs_are_byte_identical(scenario, tmp_path):
    config = load_scenario(SCENARIOS / f"{scenario}.json")
    assert _digests(config, tmp_path) == GOLDEN[scenario]


def test_small_mesh_outputs_are_byte_identical(tmp_path):
    config = parse_scenario(small_mesh_doc())
    assert _digests(config, tmp_path) == GOLDEN["small_mesh"]
