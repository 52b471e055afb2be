import csv
import json

import pytest

from posn.core import PosnError, default_config
from posn.metrics import (
    IoFailure,
    NoFinalizedTx,
    RunLog,
    conflicting_finalizations,
    export,
    finalization_gaps,
    latency_stats,
    leader_entropy,
    load_runlog,
    summarize,
    throughput,
)
from posn.netsim import FaultPlan, LoadProfile, run

from conftest import leader_uniformity_p


def _log(slot_records=(), tx_records=(), **kw):
    defaults = dict(protocol="posn", config={}, master_seed=0,
                    duration_ms=10_000.0, observer=0)
    defaults.update(kw)
    return RunLog(slot_records=list(slot_records),
                  tx_records=list(tx_records), **defaults)


def _slot(slot, outcome="Finalized", leader=0, **kw):
    rec = dict(slot=slot, outcome=outcome, leader=leader, fire_step=0,
               tie_size=1, vrf_used=False, quorum_size=3, n_block_txs=1,
               finalize_ms=None)
    rec.update(kw)
    return rec


def test_throughput_counts_only_finalized():
    log = _log(tx_records=[
        {"id": "a", "submit_ms": 0.0, "finalize_ms": 400.0},
        {"id": "b", "submit_ms": 0.0, "finalize_ms": None},
        {"id": "c", "submit_ms": 100.0, "finalize_ms": 700.0},
    ])
    assert throughput(log) == pytest.approx(0.2)


def test_throughput_needs_positive_duration():
    with pytest.raises(PosnError):
        throughput(_log(duration_ms=0.0))


def test_latency_nearest_rank():
    txs = [{"id": str(i), "submit_ms": 0.0, "finalize_ms": float(i)}
           for i in range(1, 101)]
    lat = latency_stats(_log(tx_records=txs))
    assert lat["p50"] == 50.0
    assert lat["p95"] == 95.0
    assert lat["max"] == 100.0
    assert lat["mean"] == pytest.approx(50.5)


def test_latency_nearest_rank_small_samples():
    txs = [{"id": str(i), "submit_ms": 0.0, "finalize_ms": v}
           for i, v in enumerate([10.0, 20.0, 30.0, 40.0])]
    lat = latency_stats(_log(tx_records=txs))
    # nearest-rank on 4 samples: ceil(0.5*4)=2nd, ceil(0.95*4)=4th
    assert lat["p50"] == 20.0
    assert lat["p95"] == 40.0


def test_latency_raises_when_nothing_finalized():
    txs = [{"id": "a", "submit_ms": 0.0, "finalize_ms": None}]
    with pytest.raises(NoFinalizedTx):
        latency_stats(_log(tx_records=txs))


def test_leader_entropy_oracles():
    assert leader_entropy({0: 3, 1: 1}) == 0.8112781244591328
    assert leader_entropy({i: 1 for i in range(256)}) == 8.0
    assert leader_entropy({5: 42}) == 0.0
    assert leader_entropy({0: 2, 1: 0, 2: 2}) == 1.0


def test_leader_entropy_needs_observations():
    with pytest.raises(PosnError):
        leader_entropy({})


def test_leader_uniformity_p():
    even = {i: 100 for i in range(8)}
    assert leader_uniformity_p(even, 8) == pytest.approx(1.0)
    # one validator hoards everything: essentially zero p
    skew = {0: 800}
    assert leader_uniformity_p(skew, 8) < 1e-6
    # missing validators count as zeros
    assert leader_uniformity_p({0: 50, 1: 50}, 8) < \
        leader_uniformity_p({i: 100 for i in range(8)}, 8)


def test_finalization_gaps():
    recs = [_slot(0), _slot(1, outcome="Skipped", leader=None), _slot(2),
            _slot(3), _slot(4, outcome="Skipped", leader=None)]
    log = _log(slot_records=recs)
    assert finalization_gaps(log) == [2, 1]
    stats = summarize(log)
    assert stats.mean_finalization_gap == pytest.approx(1.5)
    assert stats.finalized_slots == 3
    assert stats.skipped_slots == 2


def test_summarize_counts_and_entropy():
    recs = [_slot(0, leader=0), _slot(1, leader=1), _slot(2, leader=0),
            _slot(3, leader=1)]
    stats = summarize(_log(slot_records=recs,
                           msg_counters={"sent_Proposal": 8}))
    assert stats.leader_counts == {0: 2, 1: 2}
    assert stats.leader_entropy_bits == 1.0
    assert stats.msgs_per_finalized_block == 2.0
    assert stats.latency_ms is None


def test_conflicting_finalizations_detects_split():
    log = _log(node_finalized={
        0: [[0, "aa"], [1, "bb"]],
        1: [[0, "aa"], [1, "cc"]],
    })
    assert conflicting_finalizations(log) == [1]
    log2 = _log(node_finalized={0: [[0, "aa"]], 1: [[0, "aa"]]})
    assert conflicting_finalizations(log2) == []


def _small_run():
    cfg = default_config(4, master_seed=31)
    return run(cfg, FaultPlan(), LoadProfile(arrival_rate=40.0,
                                             duration_ms=3000.0))


def test_export_is_byte_stable(tmp_path):
    log = _small_run()
    stats = summarize(log)
    paths1 = export(stats, log, str(tmp_path / "a"))
    paths2 = export(stats, log, str(tmp_path / "b"))
    assert len(paths1) == 4
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def test_export_raises_io_failure(tmp_path):
    log = _small_run()
    with pytest.raises(IoFailure):
        export(summarize(log), log, str(tmp_path / "missing" / "x"))


def test_export_csv_shape(tmp_path):
    log = _small_run()
    export(summarize(log), log, str(tmp_path / "r"))
    with open(tmp_path / "r_slots.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(log.slot_records)
    assert rows[0]["outcome"] in ("Finalized", "Skipped")
    with open(tmp_path / "r_txs.csv") as fh:
        tx_rows = list(csv.DictReader(fh))
    assert len(tx_rows) == len(log.tx_records)
    done = [r for r in tx_rows if r["finalize_ms"]]
    assert done, "expected some finalized txs in the csv"
    assert float(done[0]["latency_ms"]) == \
        float(done[0]["finalize_ms"]) - float(done[0]["submit_ms"])


def test_runlog_roundtrip_preserves_stats(tmp_path):
    log = _small_run()
    stats = summarize(log)
    export(stats, log, str(tmp_path / "r"))
    back = load_runlog(str(tmp_path / "r_runlog.jsonl"))
    assert summarize(back).to_json() == stats.to_json()
    assert back.protocol == log.protocol
    assert back.total_minted == log.total_minted
    assert conflicting_finalizations(back) == []


def test_summary_json_is_valid(tmp_path):
    log = _small_run()
    export(summarize(log), log, str(tmp_path / "r"))
    with open(tmp_path / "r_summary.json") as fh:
        doc = json.load(fh)
    assert doc["protocol"] == "posn"
    assert doc["stats"]["finalized_slots"] > 0
    assert doc["violations"] == []


def test_load_runlog_missing_meta(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"slot","slot":0}\n')
    with pytest.raises(IoFailure):
        load_runlog(str(path))
