"""Post-processing: throughput, latency, fairness and safety statistics
over simulation run logs, and byte-stable export to JSON/CSV.

Percentiles use nearest-rank (no interpolation) and entropy uses
compensated summation, so numbers are reproducible across platforms and
re-exports of the same log are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .core import PosnError, dumps_canonical


class NoFinalizedTx(PosnError):
    pass


class IoFailure(PosnError):
    pass


@dataclass
class RunLog:
    """Everything one simulation run leaves behind.

    slot_records: one dict per slot (outcome, leader, fire_step, tie_size,
    vrf_used, quorum_size, n_block_txs, finalize_ms), dense in slot id.
    tx_records: one dict per injected tx (id, submit_ms, finalize_ms with
    None while unfinalized), in injection order. node_finalized maps each
    honest node to its [slot, block hash] list so safety can be audited
    across nodes, not just on the observer.
    """
    protocol: str
    config: dict
    master_seed: int
    duration_ms: float
    observer: int
    slot_records: list[dict] = field(default_factory=list)
    tx_records: list[dict] = field(default_factory=list)
    msg_counters: dict[str, int] = field(default_factory=dict)
    node_finalized: dict[int, list[list]] = field(default_factory=dict)
    balances: dict[int, int] = field(default_factory=dict)
    total_minted: int = 0
    total_burned: int = 0
    penalties: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SummaryStats:
    tps: float
    latency_ms: Optional[dict]  # mean/p50/p95/max, None when nothing finalized
    leader_entropy_bits: float
    leader_counts: dict[int, int]
    skipped_slots: int
    finalized_slots: int
    finalized_txs: int
    msgs_per_finalized_block: float
    mean_finalization_gap: Optional[float]

    def to_json(self) -> dict:
        return {
            "tps": self.tps,
            "latency_ms": self.latency_ms,
            "leader_entropy_bits": self.leader_entropy_bits,
            "leader_counts": {str(k): v
                              for k, v in sorted(self.leader_counts.items())},
            "skipped_slots": self.skipped_slots,
            "finalized_slots": self.finalized_slots,
            "finalized_txs": self.finalized_txs,
            "msgs_per_finalized_block": self.msgs_per_finalized_block,
            "mean_finalization_gap": self.mean_finalization_gap,
        }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def throughput(log: RunLog) -> float:
    """Finalized transactions per simulated second."""
    if log.duration_ms <= 0:
        raise PosnError("throughput needs a positive duration")
    done = sum(1 for t in log.tx_records if t["finalize_ms"] is not None)
    return done / (log.duration_ms / 1000.0)


def _nearest_rank(ordered: list[float], q: float) -> float:
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_stats(log: RunLog) -> dict:
    """Submit-to-finalize delay order statistics; nearest-rank p50/p95."""
    delays = sorted(t["finalize_ms"] - t["submit_ms"] for t in log.tx_records
                    if t["finalize_ms"] is not None)
    if not delays:
        raise NoFinalizedTx("no finalized transaction in this log")
    return {
        "mean": math.fsum(delays) / len(delays),
        "p50": _nearest_rank(delays, 0.50),
        "p95": _nearest_rank(delays, 0.95),
        "max": delays[-1],
    }


def leader_entropy(counts: dict) -> float:
    """Shannon entropy (bits) of the normalized leader distribution;
    zero counts contribute nothing."""
    total = sum(counts.values())
    if total <= 0:
        raise PosnError("entropy needs at least one observation")
    terms = []
    for c in counts.values():
        if c > 0:
            p = c / total
            terms.append(-p * math.log2(p))
    return math.fsum(terms)


def finalization_gaps(log: RunLog) -> list[int]:
    """Slot distances between consecutive finalized slots; 1 everywhere
    means no finality interruptions."""
    done = [r["slot"] for r in log.slot_records if r["outcome"] == "Finalized"]
    return [b - a for a, b in zip(done, done[1:])]


def summarize(log: RunLog) -> SummaryStats:
    counts: dict[int, int] = {}
    skipped = 0
    finalized = 0
    for rec in log.slot_records:
        if rec["outcome"] == "Finalized":
            finalized += 1
            counts[rec["leader"]] = counts.get(rec["leader"], 0) + 1
        else:
            skipped += 1
    try:
        lat = latency_stats(log)
    except NoFinalizedTx:
        lat = None
    gaps = finalization_gaps(log)
    total_msgs = sum(log.msg_counters.values())
    done_txs = sum(1 for t in log.tx_records if t["finalize_ms"] is not None)
    return SummaryStats(
        tps=throughput(log),
        latency_ms=lat,
        leader_entropy_bits=leader_entropy(counts) if counts else 0.0,
        leader_counts=counts,
        skipped_slots=skipped,
        finalized_slots=finalized,
        finalized_txs=done_txs,
        msgs_per_finalized_block=total_msgs / max(1, finalized),
        mean_finalization_gap=(math.fsum(gaps) / len(gaps)) if gaps else None,
    )


def conflicting_finalizations(log: RunLog) -> list[int]:
    """Slots where two honest nodes finalized different blocks. Empty
    list = safety held."""
    per_slot: dict[int, set[str]] = {}
    for chains in log.node_finalized.values():
        for slot, block_hash in chains:
            per_slot.setdefault(slot, set()).add(block_hash)
    return sorted(s for s, hashes in per_slot.items() if len(hashes) > 1)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

SLOT_COLUMNS = ["slot", "outcome", "leader", "fire_step", "tie_size",
                "vrf_used", "quorum_size", "n_block_txs", "finalize_ms"]
TX_COLUMNS = ["id", "submit_ms", "finalize_ms", "latency_ms"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def export(stats: SummaryStats, log: RunLog, path_prefix: str) -> list[str]:
    """Write summary JSON, the JSON-lines run log, and slot/tx CSVs.

    Output is a pure function of (stats, log): stable key order, stable
    column order, no timestamps, so re-export is byte-identical.
    """
    try:
        summary_path = f"{path_prefix}_summary.json"
        with open(summary_path, "w", newline="") as fh:
            fh.write(dumps_canonical({
                "protocol": log.protocol,
                "master_seed": log.master_seed,
                "duration_ms": log.duration_ms,
                "observer": log.observer,
                "config": log.config,
                "stats": stats.to_json(),
                "msg_counters": dict(sorted(log.msg_counters.items())),
                "total_minted": log.total_minted,
                "total_burned": log.total_burned,
                "violations": log.violations,
            }))
            fh.write("\n")

        runlog_path = f"{path_prefix}_runlog.jsonl"
        with open(runlog_path, "w", newline="") as fh:
            fh.write(dumps_canonical({"type": "meta", "protocol": log.protocol,
                                      "master_seed": log.master_seed,
                                      "duration_ms": log.duration_ms,
                                      "observer": log.observer,
                                      "config": log.config,
                                      "msg_counters": dict(sorted(
                                          log.msg_counters.items())),
                                      "total_minted": log.total_minted,
                                      "total_burned": log.total_burned,
                                      "violations": log.violations}) + "\n")
            for rec in log.slot_records:
                fh.write(dumps_canonical({"type": "slot", **rec}) + "\n")
            for rec in log.tx_records:
                fh.write(dumps_canonical({"type": "tx", **rec}) + "\n")
            for rec in log.penalties:
                fh.write(dumps_canonical({"type": "penalty", **rec}) + "\n")
            for node, chains in sorted(log.node_finalized.items()):
                fh.write(dumps_canonical({"type": "chain", "node": node,
                                          "blocks": chains}) + "\n")

        slots_path = f"{path_prefix}_slots.csv"
        with open(slots_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SLOT_COLUMNS)
            for rec in log.slot_records:
                writer.writerow([_cell(rec[c]) for c in SLOT_COLUMNS])

        txs_path = f"{path_prefix}_txs.csv"
        with open(txs_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TX_COLUMNS)
            for rec in log.tx_records:
                latency = (rec["finalize_ms"] - rec["submit_ms"]
                           if rec["finalize_ms"] is not None else None)
                writer.writerow([_cell(rec["id"]), _cell(rec["submit_ms"]),
                                 _cell(rec["finalize_ms"]), _cell(latency)])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return [summary_path, runlog_path, slots_path, txs_path]


def load_runlog(path: str) -> RunLog:
    """Rebuild a RunLog from its JSON-lines export (inverse of the
    runlog part of `export`; per-node balances are not exported and come
    back empty here)."""
    meta = None
    slots: list[dict] = []
    txs: list[dict] = []
    penalties: list[dict] = []
    chains: dict[int, list[list]] = {}
    try:
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                kind = rec.pop("type")
                if kind == "meta":
                    meta = rec
                elif kind == "slot":
                    slots.append(rec)
                elif kind == "tx":
                    txs.append(rec)
                elif kind == "penalty":
                    penalties.append(rec)
                elif kind == "chain":
                    chains[int(rec["node"])] = rec["blocks"]
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if meta is None:
        raise IoFailure(f"{path}: no meta record")
    return RunLog(protocol=meta["protocol"], config=meta["config"],
                  master_seed=meta["master_seed"],
                  duration_ms=meta["duration_ms"], observer=meta["observer"],
                  slot_records=slots, tx_records=txs, penalties=penalties,
                  node_finalized=chains,
                  msg_counters=meta.get("msg_counters", {}),
                  total_minted=meta.get("total_minted", 0),
                  total_burned=meta.get("total_burned", 0),
                  violations=meta.get("violations", []))
