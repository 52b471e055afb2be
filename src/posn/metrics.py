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

from .core import (ConfigError, PosnError, check_type, dumps_canonical,
                   require)


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
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["leader_counts"] = {str(k): v
                              for k, v in sorted(self.leader_counts.items())}
        return d


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
    return math.fsum(-c / total * math.log2(c / total)
                     for c in counts.values() if c > 0)


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

# per runlog record type, each field export writes and its type
RECORD_FIELDS = {
    "slot": {"slot": int, "outcome": str, "leader": Optional[int],
             "fire_step": Optional[int], "tie_size": int, "vrf_used": bool,
             "quorum_size": int, "n_block_txs": int,
             "finalize_ms": Optional[float]},
    "tx": {"id": str, "submit_ms": float, "finalize_ms": Optional[float]},
    "penalty": {"validator": int, "slot": int, "amount": int, "reason": str},
}
SLOT_COLUMNS = list(RECORD_FIELDS["slot"])
TX_COLUMNS = ["id", "submit_ms", "finalize_ms", "latency_ms"]
# the RunLog fields in the summary and in the runlog's meta record
META_FIELDS = ("protocol", "master_seed", "duration_ms", "observer", "config",
               "msg_counters", "total_minted", "total_burned", "violations")


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
    meta = {k: getattr(log, k) for k in META_FIELDS}
    try:
        summary_path = f"{path_prefix}_summary.json"
        with open(summary_path, "w", newline="") as fh:
            fh.write(dumps_canonical({**meta, "stats": stats.to_json()}))
            fh.write("\n")

        runlog_path = f"{path_prefix}_runlog.jsonl"
        with open(runlog_path, "w", newline="") as fh:
            fh.write(dumps_canonical({"type": "meta", **meta}) + "\n")
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
    back empty here). A malformed record, or one whose fields are not
    `RECORD_FIELDS`, raises IoFailure naming the file and the line."""
    meta, chains, records = None, {}, {kind: [] for kind in RECORD_FIELDS}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                where = f"{path}, line {lineno}"
                try:
                    rec = json.loads(line)
                    kind = rec.pop("type")
                    if kind == "meta":
                        meta, meta_at = rec, where
                    elif kind == "chain":
                        chains[int(rec["node"])] = rec["blocks"]
                    elif kind in records:
                        for name, tp in RECORD_FIELDS[kind].items():
                            field_at = f"the {kind} record's {name}"
                            require(name in rec, field_at, "missing")
                            check_type(rec[name], tp, field_at)
                        records[kind].append(rec)
                except ConfigError as exc:
                    raise IoFailure(f"{where}: {exc}") from None
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise IoFailure(f"{where}: not a runlog record ({exc!r})"
                                    ) from None
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if meta is None:
        raise IoFailure(f"{path}: no meta record")
    try:
        return RunLog(**{k: meta[k] for k in META_FIELDS},
                      slot_records=records["slot"], tx_records=records["tx"],
                      penalties=records["penalty"], node_finalized=chains)
    except KeyError as exc:
        raise IoFailure(f"{meta_at}: the meta record lacks {exc}") from None
