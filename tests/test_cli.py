"""CLI surface: subcommands, outputs, and exit codes."""

import json

import pytest

import gamesync.cli as cli
from conftest import two_client_doc
from gamesync.netsim import InvariantViolation


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    doc = two_client_doc()
    doc["duration_ms"] = 2000
    path.write_text(json.dumps(doc))
    return path


def test_run_success_exit_zero(scenario_file, tmp_path, capsys):
    out = tmp_path / "tick.csv"
    summary = tmp_path / "summary.txt"
    code = cli.main(["run", str(scenario_file), "--out", str(out),
                     "--summary", str(summary)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "messages_delivered=" in captured
    assert out.read_text().startswith("tick_ms,entity,owner,viewer,")
    assert "mean_divergence_m=" in summary.read_text()


def test_seed_override(scenario_file, tmp_path, capsys):
    code = cli.main(["run", str(scenario_file), "--seed", "99"])
    assert code == 0
    assert "seed=99" in capsys.readouterr().out


def test_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"duration_ms": 0, "clients": []}))
    assert cli.main(["run", str(invalid)]) == 2

    missing = tmp_path / "missing.json"
    assert cli.main(["run", str(missing)]) == 2

    malformed = tmp_path / "malformed.json"
    doc = two_client_doc()
    doc["links"][0]["endpoints"] = [[0], [1]]
    malformed.write_text(json.dumps(doc))
    assert cli.main(["run", str(malformed)]) == 2
    assert "endpoints" in capsys.readouterr().err


def test_invariant_violation_exit_three(scenario_file, monkeypatch, capsys):
    def broken_run(*args, **kwargs):
        raise InvariantViolation("synthetic")
    monkeypatch.setattr(cli, "run", broken_run)
    assert cli.main(["run", str(scenario_file)]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_compare_subcommand(scenario_file, tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["run", str(scenario_file), "--out", str(a)])
    cli.main(["run", str(scenario_file), "--out", str(b)])
    capsys.readouterr()
    assert cli.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "mean_divergence_delta=0.0" in out


def test_compare_schema_mismatch_exit_two(scenario_file, tmp_path, capsys):
    a = tmp_path / "a.csv"
    events = tmp_path / "events.csv"
    cli.main(["run", str(scenario_file), "--out", str(a),
              "--events", str(events)])
    assert cli.main(["compare", str(a), str(events)]) == 2


def _only_link_down_doc(tmp_path, change):
    doc = two_client_doc()
    doc["duration_ms"] = 3000
    change(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _summary(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def test_link_down_at_start_comes_up_and_frames_flow(tmp_path, capsys):
    def change(doc):
        doc["links"][0]["available"] = False
        doc["link_events"] = [{"at": 1000, "link": 0, "available": True}]
    deliveries = tmp_path / "deliveries.csv"
    code = cli.main(["run", str(_only_link_down_doc(tmp_path, change)),
                     "--deliveries", str(deliveries)])
    assert code == 0
    rows = deliveries.read_text().splitlines()[1:]
    assert rows
    assert all(int(row.split(",")[0]) >= 1000 + 250 for row in rows)
    assert int(_summary(capsys.readouterr().out)["messages_delivered"]) > 0


def test_link_down_for_the_whole_run_queues_and_drops(tmp_path, capsys):
    def change(doc):
        doc["links"][0]["available"] = False
    code = cli.main(["run", str(_only_link_down_doc(tmp_path, change))])
    assert code == 0
    summary = _summary(capsys.readouterr().out)
    assert summary["messages_sent"] == "0"
    assert int(summary["messages_dropped_queue"]) > 0


def test_direct_link_with_unknown_address_queues_and_drops(tmp_path, capsys):
    def change(doc):
        doc["links"][0]["kind"] = "direct"
        doc["clients"][1]["direct_address_known"] = False
    code = cli.main(["run", str(_only_link_down_doc(tmp_path, change))])
    assert code == 0
    assert int(_summary(capsys.readouterr().out)["messages_dropped_queue"]) > 0
