import csv
import json

import pytest
import yaml

from posn.cli import main
from posn.metrics import load_runlog, summarize


def _write_scenario(tmp_path, **extra):
    spec = {"seed": 17, "duration_s": 4,
            "validators": {"n": 4}, "load": {"arrival_rate": 40}}
    spec.update(extra)
    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump(spec))
    return str(path)


def test_run_writes_artifacts(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "violations=0" in printed
    files = sorted(p.name for p in out.iterdir())
    assert files == ["case_posn_seed17_runlog.jsonl",
                     "case_posn_seed17_slots.csv",
                     "case_posn_seed17_summary.json",
                     "case_posn_seed17_txs.csv"]


def test_run_flag_overrides(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", scenario, "--seed", "99",
               "--protocol", "por", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "case_por_seed99_summary.json").exists()


def test_run_without_scenario_uses_defaults(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--duration-s", "3", "--out-dir", str(out)])
    assert rc == 0
    assert any(p.suffix == ".json" for p in out.iterdir())


def test_run_missing_scenario_errors(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_scenario_errors(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("load: [1, 2")
    rc = main(["run", "--scenario", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", [
    "duration_ms: .nan",
    "config: {delta_net_ms: .nan}",
])
def test_run_non_finite_scenario_errors(tmp_path, capsys, scenario):
    path = tmp_path / "non_finite.yaml"
    path.write_text(scenario)
    rc = main(["run", "--scenario", str(path), "--out-dir",
               str(tmp_path / "out")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


def test_sweep_writes_grid(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--protocols", "posn,por", "--validators", "4",
               "--rates", "40", "--seeds", "1,2", "--duration-s", "3",
               "--out-dir", str(out)])
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["protocol"] for r in rows} == {"posn", "por"}
    assert all(r["n_seeds"] == "2" for r in rows)
    assert all(float(r["tps_mean"]) > 0 for r in rows)


def test_report_matches_export(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", "--scenario", scenario, "--out-dir", str(out)])
    capsys.readouterr()
    runlog = out / "case_posn_seed17_runlog.jsonl"
    assert main(["report", str(runlog)]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = summarize(load_runlog(str(runlog))).to_json()
    assert doc["stats"] == json.loads(json.dumps(expected))
    assert doc["protocol"] == "posn"
