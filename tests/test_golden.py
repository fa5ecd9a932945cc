"""Golden outputs: the shipped scenarios must keep producing byte-identical
tick, event and delivery CSVs and traces. A refactor that changes any byte
(a different float rounding, event order or RNG draw) fails here; a change
meant to alter behaviour updates these digests and says why."""

import hashlib

import pytest

from conftest import SCENARIOS
from gamesync.runner import run
from gamesync.scenario import load_scenario

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
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_shipped_scenario_outputs_are_byte_identical(scenario, tmp_path):
    paths = {kind: tmp_path / kind for kind in GOLDEN[scenario]}
    run(load_scenario(SCENARIOS / f"{scenario}.json"), out=paths["tick"],
        events_out=paths["events"], deliveries_out=paths["deliveries"],
        trace_out=paths["trace"])
    digests = {kind: hashlib.sha256(path.read_bytes()).hexdigest()
               for kind, path in paths.items()}
    assert digests == GOLDEN[scenario]
