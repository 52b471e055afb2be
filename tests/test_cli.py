import csv
import json

import pytest
import yaml

import posn.netsim as netsim
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


def test_run_denormal_arrival_rate_exits_0_without_load(tmp_path, capsys):
    # an accepted rate too small for one arrival in any run
    scenario = _write_scenario(tmp_path, duration_s=3,
                               load={"arrival_rate": 1.0e-322})
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out-dir", str(out)]) == 0
    assert "violations=0" in capsys.readouterr().out
    log = load_runlog(str(out / "case_posn_seed17_runlog.jsonl"))
    assert log.tx_records == []


@pytest.mark.parametrize("config", [
    # an interval past 2**63 steps, under either encoding
    {"kappa": 1.0e+19},
    {"kappa": 1.0e+19, "encoding": "rate"},
    # an interval that overflows to infinity for a zero-value, zero-fee tx
    {"epsilon_isi": 1.0e-320, "encoding": "temporal"},
])
def test_run_intervals_past_the_window_exit_0(tmp_path, capsys, config):
    # an interval longer than the spiking window never fires inside it
    scenario = _write_scenario(tmp_path, config=config,
                               load={"arrival_rate": 40, "value": [0, 5],
                                     "fee": [0, 5]})
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out-dir", str(out)]) == 0
    assert "violations=0" in capsys.readouterr().out


# --- exit statuses: 0 ok, 1 safety violation, 2 bad input -------------------

@pytest.mark.parametrize("scenario,path", [
    ("load: {value: [5]}", "load.value"),
    ("load: {value: 7}", "load.value"),
    ("load: {value: [1, 2, 3]}", "load.value"),
    ("load: {arrival_rate: fast}", "load.arrival_rate"),
    ("faults: {byzantine: [{index: 1}]}", "faults.byzantine[0].strategy"),
    ("faults: {partitions: [{start_ms: 1, end_ms: 2}]}",
     "faults.partitions[0].side_a"),
    ("faults: {partitions: [{start_ms: 1, end_ms: 2, side_a: 3}]}",
     "faults.partitions[0].side_a"),
    ("validators: four", "validators"),
    ("config: 3", "config"),
    ("config: {lam: x}", "config.lam"),
    ("config: {delta_net_ms: true}", "config.delta_net_ms"),
    ("config: {penalty_redistribute: 'yes'}", "config.penalty_redistribute"),
    ("config: {tau_steps: 2.5}", "config.tau_steps"),
    ("seed: abc", "seed"),
    ("seed: -1", "seed"),
    ("duration_s: [1]", "duration_s"),
    ("name: [1]", "name"),
    ("pob_scores: [1, 2]", "pob_scores"),
    ("pob_scores: {0: .nan, 1: 1}", "pob_scores[0]"),
    ("pob_scores: {0: 0, 1: 0, 2: 0, 3: 0}", "pob_scores"),
    # the rules that span inputs name the scenario key too
    ("faults: {crash: {9: 100}}", "faults.crash[9]"),
    ("faults: {partitions: [{start_ms: 0, end_ms: 2000, side_a: [7, -1]}]}",
     "faults.partitions[0].side_a"),
    ("faults: {byzantine: [{index: 4, strategy: Silent}]}",
     "faults.byzantine[4]"),
    ("faults: {byzantine: {0: Silent, 1: Silent}}", "faults.byzantine"),
    ("{protocol: pob, duration_ms: 300}", "duration_ms"),
    ("duration_s: 0.2", "duration_s"),
    ("- 1", "scenario"),
])
def test_run_bad_scenario_exits_2_with_key_path(tmp_path, capsys, scenario,
                                                path):
    spec = tmp_path / "bad.yaml"
    spec.write_text(scenario)
    rc = main(["run", "--scenario", str(spec), "--out-dir",
               str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any run


def test_run_negative_seed_flag_exits_2(tmp_path, capsys):
    rc = main(["run", "--seed", "-1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: seed: ")


def test_run_too_many_validators_exits_2(tmp_path, capsys):
    # rejected before any key pair is built
    rc = main(["run", "--validators", "100000000", "--out-dir",
               str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: validators.n: must be at most 10000, got 100000000")
    assert not (tmp_path / "out").exists()


def _violating(monkeypatch):
    """Make every run record one conflicting finalization."""
    monkeypatch.setattr(netsim, "conflicting_finalizations", lambda log: [0])


def test_run_exit_statuses(tmp_path, capsys, monkeypatch):
    scenario = _write_scenario(tmp_path, duration_s=2)
    args = ["run", "--scenario", scenario, "--out-dir", str(tmp_path / "o")]
    assert main(args) == 0
    assert main(args[:-2] + ["--validators", "0"]) == 2
    _violating(monkeypatch)
    assert main(args) == 1


@pytest.mark.parametrize("flags", [
    ["--validators", "a"], ["--rates", "fast"], ["--seeds", "-1"],
    ["--seeds", ""], ["--protocols", "posn,pow"], ["--seeds", "[1"],
])
def test_sweep_bad_list_exits_2_before_any_run(tmp_path, capsys, flags):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--protocols", "posn", "--validators", "4",
               "--seeds", "1", "--duration-s", "2", "--out-dir", str(out)]
              + flags)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_sweep_rejects_a_cell_before_the_first_run(tmp_path, capsys):
    # 0.4 s holds posn slots but not one 451 ms pob slot
    rc = main(["sweep", "--protocols", "posn,pob", "--validators", "4",
               "--seeds", "1", "--duration-s", "0.4", "--out-dir",
               str(tmp_path / "sweep")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: duration_s: 400.0 ms is shorter "
                                   "than one pob slot")
    assert captured.out == ""
    assert not (tmp_path / "sweep").exists()


def test_sweep_exit_statuses(tmp_path, capsys, monkeypatch):
    args = ["sweep", "--protocols", "por", "--validators", "4", "--seeds",
            "1", "--duration-s", "2", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    _violating(monkeypatch)
    assert main(args) == 1


def _runlog_lines(tmp_path) -> list[str]:
    scenario = _write_scenario(tmp_path, duration_s=2)
    out = tmp_path / "out"
    main(["run", "--scenario", scenario, "--out-dir", str(out)])
    return (out / "case_posn_seed17_runlog.jsonl").read_text().splitlines()


def test_report_exit_statuses(tmp_path, capsys):
    lines = _runlog_lines(tmp_path)
    meta = json.loads(lines[0])
    assert meta["type"] == "meta" and meta["violations"] == []
    clean = tmp_path / "clean.jsonl"
    clean.write_text("\n".join(lines) + "\n")
    violated = tmp_path / "violated.jsonl"
    violated.write_text("\n".join(
        [json.dumps({**meta, "violations": ["conflicting finalization in "
                                            "slot 3"]})] + lines[1:]) + "\n")
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:2] + [lines[2][:9]]) + "\n")
    no_protocol = tmp_path / "no_protocol.jsonl"
    no_protocol.write_text("\n".join(
        [json.dumps({k: v for k, v in meta.items() if k != "protocol"})]
        + lines[1:]) + "\n")
    # the first chain record names another block for its first slot than
    # the other chains do, and the meta record names no violation
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["type"] == "chain")
    chain = json.loads(lines[at])
    slot = chain["blocks"][0][0]
    chain["blocks"][0][1] = "00" * 32
    forked = tmp_path / "forked.jsonl"
    forked.write_text("\n".join(lines[:at] + [json.dumps(chain)]
                                + lines[at + 1:]) + "\n")
    capsys.readouterr()
    assert main(["report", str(clean)]) == 0
    assert main(["report", str(violated)]) == 1
    capsys.readouterr()
    assert main(["report", str(forked)]) == 1
    assert capsys.readouterr().err == (
        f"{forked}: conflicting finalization in slot {slot}\n")
    assert main(["report", str(truncated)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {truncated}, line 3: not a runlog record")
    assert main(["report", str(no_protocol)]) == 2
    assert capsys.readouterr().err == (
        f"error: {no_protocol}, line 1: the meta record's protocol: missing\n")


def test_report_unknown_record_type_exits_2(tmp_path, capsys):
    lines = _runlog_lines(tmp_path)
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["type"] == "slot")
    rec = {**json.loads(lines[at]), "type": "slots"}
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:at] + [json.dumps(rec)]
                             + lines[at + 1:]) + "\n")
    capsys.readouterr()
    assert main(["report", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}, line {at + 1}: the record's type: must be one of "
        f"meta, slot, tx, penalty, chain, got 'slots'\n")


_DROPPED = object()


@pytest.mark.parametrize("kind,field,value,problem", [
    ("slot", "outcome", _DROPPED, "the slot record's outcome: missing"),
    ("slot", "leader", "6", "the slot record's leader: must be int"),
    ("slot", "slot", 2.5, "the slot record's slot: must be int"),
    ("tx", "finalize_ms", "soon",
     "the tx record's finalize_ms: must be a number"),
    ("tx", "submit_ms", None, "the tx record's submit_ms: must be a number"),
    ("tx", "id", _DROPPED, "the tx record's id: missing"),
    ("meta", "duration_ms", "soon",
     "the meta record's duration_ms: must be a number"),
    ("chain", "node", "0", "the chain record's node: must be int"),
    ("chain", "blocks", "x", "the chain record's blocks: must be list"),
    ("chain", "blocks", [[1]],
     "the chain record's blocks[0]: must be a [slot, hash] pair"),
], ids=["no-outcome", "str-leader", "float-slot", "str-finalize",
        "null-submit", "no-id", "str-duration", "str-node", "str-blocks",
        "short-pair"])
def test_report_bad_record_exits_2(tmp_path, capsys, kind, field, value,
                                   problem):
    lines = _runlog_lines(tmp_path)
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["type"] == kind)
    rec = json.loads(lines[at])
    if value is _DROPPED:
        del rec[field]
    else:
        rec[field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:at] + [json.dumps(rec)]
                             + lines[at + 1:]) + "\n")
    capsys.readouterr()
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}, line {at + 1}: {problem}"), err
    assert "Traceback" not in err
