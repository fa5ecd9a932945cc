"""Golden outputs: the shipped scenarios, one small generated mesh (also
with frames queued while all links to a peer are down), and the
benchmark's generated workloads at seed 1 and at its held-out seed 7919
must keep producing byte-identical tick, event and delivery CSVs and
traces. A refactor that changes any byte (a different float rounding,
event order or RNG draw) fails here; a change meant to alter behaviour
updates these digests and says why."""

import hashlib
import importlib.util

import pytest

from conftest import REPO_ROOT, SCENARIOS
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
    "small_mesh_queue": {
        "tick": "9256d17814c2903859a7304b7a4be16bcc906756a9bb72c494e1906055827fef",
        "events": "d59e81b2d1cbeba8410590c7dcfdc079333451845f66b54a0760c81ad672d7f6",
        "deliveries": "0eb8fa110f377aa821355a0520cb50df08785cbeba48e13f7074b2132ef3eb23",
        "trace": "edb64922817b76114f219502b8c96a46cb4eede424f81cd68fa9b56ea44080f1",
    },
    "small_mesh_queue_no_overlay": {
        "tick": "1d3fe58d5d35266df895fcedf4dec931868c95f3ab94982273c00fd7d4b428c7",
        "events": "6d3f5bfd05bf7558d60f61aebb63262def96695e255fe82b5e8f527bd0e1e431",
        "deliveries": "507fecf3e13e92b4abc8cb5300b8047a311ad6eff461eba4aade2102a5aa082d",
        "trace": "21160dae825ff95836a413b51cf8059c6eed959c774ae1c88d727f4fbe13c674",
    },
    "mesh16_lossy": {
        "tick": "84567c983b62f52d7cfea83874f3c709aec6e29c202b979fe86cd905dd7d0000",
        "events": "7ed5c67c067481147dd80937580ad6baf43d23e95afdd25fabe4a49bb6398cf3",
        "deliveries": "cacff6c57dc8e793a61d634e3322e35c0cd57eccd0121da4613f975af0b792c5",
        "trace": "f4bb2b6ae43e560a364630bbba9f450a450cb6a19271104e6392f41191104c8c",
    },
    "skirmish_events": {
        "tick": "daa4c8254336af5a69f29f35770ca180e9c8eee2137c9a60834c3be09d193f7c",
        "events": "b037d2955a59bfd866694830950988cb3e86d5a4c6aa74931f6abe05b4add822",
        "deliveries": "75444dee388f558f5d0c2ecb2ffd4857261449d0cc3b5496e8933b151eb1dabd",
        "trace": "7ea1f12c736c4f9a99312ae562249c684370c2226f539a7429cb303ba70ce2a9",
    },
    # the benchmark's held-out seed
    "mesh16_lossy_seed7919": {
        "tick": "f7b21390e4506dcd3e18bc1366fdb40b71a6bd1c6e97f81c0aca08d0fae25edb",
        "events": "7ed5c67c067481147dd80937580ad6baf43d23e95afdd25fabe4a49bb6398cf3",
        "deliveries": "5894f5b133469e2246a5b2e9090909109398eddbbfa1fb6bf806cb00c00074a7",
        "trace": "880321fb835375f544933cfeb0383dc1a259453571d817aa8c027891c0234df6",
    },
    "skirmish_events_seed7919": {
        "tick": "50b48cae6e7b4da1b4387a1eb8574af9f89e90d6350e8c94a09a07661069c5b8",
        "events": "49fad3db9ca60f9f8aa42736e37a0cef7f26aac0106d80de7f1d2f7b492a5f29",
        "deliveries": "f4dda09271c28d3e2ea0e62a6a200b8b3219d05e75c67d0f775c6dd8248c97c9",
        "trace": "3e80ecb73516565d610d73df08e714f5447fd7adc7d3e27f8cb26a5c45111f93",
    },
}


def benchmark_document(workload, seed):
    """The benchmark's generated document (perfbench/generate.py, loaded by
    path: perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", REPO_ROOT / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.document(workload, seed, REPO_ROOT)


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


def small_mesh_queue_doc(overlay):
    """The small mesh with both links between clients 0 and 1 down for a
    while, so frames between them queue, expire and are flushed when a link
    comes back. With overlay on, links 0 and 1 go down at 300 ms and link 0
    comes back at 2000 ms; with it off, link 0 goes down at 300 ms, link 1
    at 400 ms, and link 1 comes back at 1900 ms. Each run drops two queued
    frames."""
    doc = small_mesh_doc()
    if overlay:
        doc["link_events"] = [{"at": 300, "link": 0, "available": False},
                              {"at": 300, "link": 1, "available": False},
                              {"at": 2000, "link": 0, "available": True}]
    else:
        doc["toggles"] = {"overlay": False}
        doc["link_events"] = [{"at": 300, "link": 0, "available": False},
                              {"at": 400, "link": 1, "available": False},
                              {"at": 1900, "link": 1, "available": True}]
    return doc


def digests(config, tmp_path):
    paths = {kind: tmp_path / kind
             for kind in ("tick", "events", "deliveries", "trace")}
    run(config, out=paths["tick"], events_out=paths["events"],
        deliveries_out=paths["deliveries"], trace_out=paths["trace"])
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest()
            for kind, path in paths.items()}


@pytest.mark.parametrize("scenario", ["carrace", "tankshots"])
def test_shipped_scenario_outputs_are_byte_identical(scenario, tmp_path):
    config = load_scenario(SCENARIOS / f"{scenario}.json")
    assert digests(config, tmp_path) == GOLDEN[scenario]


def test_small_mesh_outputs_are_byte_identical(tmp_path):
    config = parse_scenario(small_mesh_doc())
    assert digests(config, tmp_path) == GOLDEN["small_mesh"]


@pytest.mark.parametrize("workload", ["mesh16_lossy", "skirmish_events"])
def test_benchmark_workload_outputs_are_byte_identical(workload, tmp_path):
    config = parse_scenario(benchmark_document(workload, 1))
    assert digests(config, tmp_path) == GOLDEN[workload]


@pytest.mark.parametrize("workload", ["mesh16_lossy", "skirmish_events"])
def test_benchmark_workload_outputs_at_held_out_seed_are_byte_identical(
        workload, tmp_path):
    config = parse_scenario(benchmark_document(workload, 7919))
    assert digests(config, tmp_path) == GOLDEN[f"{workload}_seed7919"]


@pytest.mark.parametrize("overlay, name", [
    (True, "small_mesh_queue"), (False, "small_mesh_queue_no_overlay")])
def test_small_mesh_queue_path_outputs_are_byte_identical(overlay, name,
                                                          tmp_path):
    config = parse_scenario(small_mesh_queue_doc(overlay))
    assert digests(config, tmp_path) == GOLDEN[name]
