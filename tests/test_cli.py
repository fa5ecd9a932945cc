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
