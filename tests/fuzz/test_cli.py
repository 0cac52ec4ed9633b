"""The `python -m repro.fuzz` entry point."""

import json

import repro.fuzz.__main__ as cli
from repro.fuzz.__main__ import main
from repro.fuzz.scenario import Scenario


def test_clean_seed_run_exits_zero(capsys):
    assert main(["run", "--seed", "0", "--runs", "2", "--no-shrink"]) == 0
    out = capsys.readouterr().out
    assert "2/2 runs clean" in out


def test_list_command_names_checkers_and_plants(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fd-conservation" in out
    assert "leak_takeover_fd" in out


def test_planted_run_fails_and_writes_repro(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SHRINK_BUDGET", 8)
    out_dir = tmp_path / "repros"
    code = main(["run", "--seed", "0", "--runs", "1",
                 "--planted", "leak_takeover_fd",
                 "--out", str(out_dir)])
    assert code == 1
    repros = sorted(out_dir.glob("repro-*.json"))
    assert repros, "no repro file written for the caught violation"
    scenario = Scenario.from_dict(json.loads(repros[0].read_text()))
    assert scenario.planted == "leak_takeover_fd"
    assert "fd-conservation" in capsys.readouterr().out


def test_repro_flag_replays_file(tmp_path, capsys):
    path = tmp_path / "repro.json"
    path.write_text(Scenario(
        seed=0, duration=12.0, edge_proxies=1, origin_proxies=1,
        app_servers=1, brokers=1, web_clients=4, mqtt_users=2,
        drain_duration=3.0,
        releases=[{"tier": "edge", "at": 2.0, "batch_fraction": 1.0}],
        planted="leak_takeover_fd").to_json())
    assert main(["run", "--repro", str(path)]) == 1
    assert "fd-conservation" in capsys.readouterr().out


def test_repro_flag_on_clean_scenario_exits_zero(tmp_path):
    path = tmp_path / "repro.json"
    path.write_text(Scenario(
        seed=3, duration=10.0, edge_proxies=1, origin_proxies=1,
        app_servers=1, brokers=1, web_clients=2, mqtt_users=0,
        releases=[{"tier": "edge", "at": 2.0,
                   "batch_fraction": 1.0}]).to_json())
    assert main(["run", "--repro", str(path)]) == 0


def test_bad_planted_name_is_an_error(capsys):
    assert main(["run", "--runs", "1", "--planted", "nonsense"]) == 2
    assert "unknown planted fault" in capsys.readouterr().err
