"""Tests of the benchmark's own code: generated workloads, span self time,
traced-versus-untraced outputs, output checks and failure accounting."""

import json
from pathlib import Path

import pytest

import generate
import harness
import run as bench
from gamesync import player, runner
from gamesync.scenario import parse_scenario
from spans import Spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))


def _short(workload, seed=3, duration_ms=2000):
    doc = generate.document(workload, seed, ROOT)
    doc["duration_ms"] = duration_ms
    return doc


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_documents_parse_and_repeat_per_seed(workload):
    doc = generate.document(workload, 5, ROOT)
    assert json.loads(json.dumps(doc)) == doc
    parse_scenario(doc)
    assert generate.document(workload, 5, ROOT) == doc


def test_seed_changes_generated_documents():
    for workload in ("mesh16_lossy", "skirmish_events"):
        assert (generate.document(workload, 1, ROOT)
                != generate.document(workload, 2, ROOT))


def test_carrace_is_the_shipped_scenario():
    shipped = json.loads((ROOT / "scenarios" / "carrace.json").read_text())
    assert generate.document("carrace", 9, ROOT) == shipped


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(generate.WORKLOADS)


def _hand_built(spans):
    """Fill a Spans with (name, parent index, start, end) tuples."""
    sp = Spans()
    for name, parent, start, end in spans:
        sp.name.append(sp.name_id(name))
        sp.parent.append(parent)
        sp.start.append(start)
        sp.end.append(end)
    return sp


def test_self_time_on_hand_built_tree():
    sp = _hand_built([("a", -1, 0, 100), ("b", 0, 10, 40), ("c", 1, 12, 20),
                      ("c", 1, 25, 30), ("b", 0, 50, 60), ("a", -1, 200, 210)])
    s = sp.summary(keep_durations={"c"})
    assert s["a"] == {"calls": 2, "self_ns": 70, "durations": []}
    assert s["b"] == {"calls": 2, "self_ns": 27, "durations": []}
    assert s["c"] == {"calls": 2, "self_ns": 13, "durations": [8, 5]}


def test_wrap_links_nested_calls_to_their_parent():
    sp = Spans()
    inner = sp.wrap("inner", lambda x: x + 1)
    outer = sp.wrap("outer", lambda x: inner(x) * 2)
    seen = []
    counted = sp.wrap("counted", lambda: 7, lambda args, result: seen.append(result))
    assert outer(1) == 4 and counted() == 7 and seen == [7]
    names = [sp.names[i] for i in sp.name]
    assert names == ["outer", "inner", "counted"]
    assert list(sp.parent) == [-1, 0, -1]
    dur = [e - s for s, e in zip(sp.start, sp.end)]
    assert sp.summary()["outer"]["self_ns"] == dur[0] - dur[1]


def test_traced_outputs_equal_untraced_and_report_every_layer(tmp_path):
    doc = _short("mesh16_lossy")
    plain = harness.run_once(doc, tmp_path)
    traced = harness.run_once(doc, tmp_path, traced=True)
    assert plain.error is None and traced.error is None
    assert traced.digests == plain.digests
    assert traced.frames == plain.frames == plain.summary["messages_delivered"]
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    assert names == set(traced.layers)
    assert traced.layers["player.displayed_calls"] > 0
    assert traced.layers["overlay.select_calls"] > 0


def test_pacing_leaves_outputs_unchanged(tmp_path):
    doc = _short("skirmish_events")
    paced = harness.run_once(doc, tmp_path)
    assert paced.error is None and paced.scale > 0
    runner.run(parse_scenario(doc), out=tmp_path / "tick.out",
               events_out=tmp_path / "events.out",
               deliveries_out=tmp_path / "deliveries.out",
               trace_out=tmp_path / "trace.out")
    assert paced.digests == {name: harness._digest(tmp_path / f"{name}.out")
                             for name in harness.OUTPUTS}


def test_layer_map_covers_every_per_layer_metric():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYERS["layer_map"]) == layer
    for entry in LAYERS["layer_map"].values():
        assert set(entry["moves"]) <= e2e | layer
        assert {entry["on"], entry.get("flat_on", entry["on"])} <= set(generate.WORKLOADS)


def test_check_outputs_catches_a_changed_output(tmp_path):
    rep = harness.run_once(_short("skirmish_events"), tmp_path)
    assert harness.check_outputs(rep.summary, tmp_path) == []
    with open(tmp_path / "events.out", "a", encoding="utf-8") as fh:
        fh.write("1,0,1,100,150,50\n")
    assert harness.check_outputs(rep.summary, tmp_path) != []


def _fail_decode_after(monkeypatch, frames):
    calls = []
    decode = player.decode

    def failing(data):
        calls.append(1)
        if len(calls) == frames:
            raise RuntimeError("injected")
        return decode(data)
    monkeypatch.setattr(player, "decode", failing)


def test_aborted_run_counts_all_its_frames_failed(tmp_path, monkeypatch):
    _fail_decode_after(monkeypatch, 5)
    rep = harness.run_once(_short("carrace"), tmp_path)
    assert rep.error.startswith("RuntimeError")
    assert rep.frames == rep.failed == 5


def test_main_reports_an_aborted_run_as_failed(monkeypatch, capsys):
    _fail_decode_after(monkeypatch, 5)
    monkeypatch.chdir(ROOT)
    assert bench.main(["--workload", "carrace", "--seed", "1",
                       "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 5, "failed": 5,
                      "metrics": {}}


def test_main_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "carrace", "--seed", "1",
                       "--seconds", "1", "--trace", "0"]) == 2
