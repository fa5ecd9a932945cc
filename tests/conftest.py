import copy
import os
from pathlib import Path

import pytest
from hypothesis import settings

from gamesync.clock import LatencyEstimator
from gamesync.runner import run

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) runs every property test
# with a fixed example sequence, so a failure reproduces on the next run,
# and with more examples than the default 100.
settings.register_profile("ci", derandomize=True, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def scenarios_dir():
    return SCENARIOS


def minimal_doc():
    return {
        "duration_ms": 1000,
        "clients": [
            {"id": 0, "entities": [
                {"id": 0, "motion": {"kind": "constant_velocity",
                                     "pos": [0, 0], "vel": [0, 0]}}]}],
    }


def two_client_doc(**overrides):
    """A small two-client template the runner tests specialize."""
    doc = {
        "duration_ms": 5000,
        "tick_ms": 50,
        "seed": 11,
        "clients": [
            {"id": 0, "entities": [
                {"id": 0, "class": "car",
                 "motion": {"kind": "constant_velocity",
                            "pos": [0, 0], "vel": [10, 0]}}]},
            {"id": 1, "entities": [
                {"id": 1, "class": "car",
                 "motion": {"kind": "constant_velocity",
                            "pos": [50, 20], "vel": [0, 0]}}]},
        ],
        "links": [{"id": 0, "endpoints": [0, 1], "base_delay_ms": 250}],
        "policies": {
            "default": {"threshold_m": 0.5, "convergence_ms": 0, "lag_ms": 0},
        },
        "toggles": {},
    }
    doc.update(copy.deepcopy(overrides))
    return doc


def run_observing_estimates(config, client_id):
    """Run a scenario and return every (DelaySample, estimate) pair that
    client_id's latency estimator observed, in order."""
    seen = []
    observe = LatencyEstimator.observe

    def recording(estimator, sample):
        estimate = observe(estimator, sample)
        seen.append((estimator, sample, estimate))
        return estimate

    LatencyEstimator.observe = recording
    try:
        res = run(config)
    finally:
        LatencyEstimator.observe = observe
    mine = res.pms[client_id].estimator
    return [(s, e) for est, s, e in seen if est is mine]
