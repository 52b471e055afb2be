"""End-to-end acceptance battery.

Each test prints one machine-greppable PASS line with its headline
numbers; pytest -v adds the per-test PASSED/FAILED verdict. The battery
covers the neuron oracle, replay determinism, Byzantine safety and
liveness, election fairness, forged-claim rejection, quorum arithmetic,
reward conservation, partition behaviour, the protocol comparison, and
whole-harness reproducibility.
"""

import math
import time
from dataclasses import replace

import numpy as np

from posn.consensus import Keyring, collect_votes, make_vote, quorum_threshold
from posn.core import default_config
from posn.metrics import conflicting_finalizations, export, summarize
from posn.neuro import NeuronState, first_spike_step, lif_step, make_slot_seed
from posn.netsim import FaultPlan, LoadProfile, Partition, Sim, run
from posn.scenario import build_scenario

import reference
from conftest import leader_uniformity_p, make_tx


def _ok(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS {detail}")


# 1 -------------------------------------------------------------------------

def test_01_lif_decay_matches_closed_form():
    t0 = time.time()
    lam, dt, v0 = 0.1, 1.0, 0.9
    state = NeuronState(v=v0, lam=lam, theta=1.0, v_reset=0.0)
    worst = 0.0
    for step in range(1, 100_001):
        state, spiked = lif_step(state, 0.0, dt)
        assert not spiked
        worst = max(worst, abs(state.v - v0 * math.exp(-lam * dt * step)))
    wall = time.time() - t0
    assert worst < 1e-9
    assert wall < 1.0
    _ok("c01 lif-decay", f"steps=100000 max_err={worst:.3e} wall={wall:.2f}s")


# 2 -------------------------------------------------------------------------

def test_02_replay_determinism_against_reference():
    t0 = time.time()
    rng = np.random.default_rng(20_240)
    encodings = ("rate", "temporal", "both")
    mismatches = 0
    for case in range(200):
        cfg = default_config(4, master_seed=int(rng.integers(1, 1 << 30)),
                             encoding=encodings[case % 3])
        keys = Keyring(cfg.master_seed, 4)
        txs = [make_tx(int(rng.integers(1 << 40)),
                       value=int(rng.integers(1, 10_000)),
                       fee=int(rng.integers(0, 2_000)))
               for _ in range(int(rng.integers(1, 13)))]
        parent = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
        slot = int(rng.integers(0, 1000))
        validator = keys.validator(int(rng.integers(0, 4)))
        seed = make_slot_seed(parent, slot, txs)
        main = first_spike_step(validator, txs, seed, cfg)
        ref = reference.first_spike_step(validator.index, txs, parent,
                                         slot, cfg)
        mismatches += main != ref
    wall = time.time() - t0
    assert mismatches == 0
    assert wall < 30.0
    _ok("c02 replay", f"cases=200 mismatches=0 wall={wall:.1f}s")


# 3 -------------------------------------------------------------------------

def test_03_safety_under_byzantine_faults():
    t0 = time.time()
    strategies = ("Equivocate", "ForgeSpike", "Withhold", "DelayMax")
    runs = 0
    for n in (4, 7, 10):
        f = (n - 1) // 3
        byz_idx = tuple(range(n - f, n))
        for si, strategy in enumerate(strategies):
            for s in range(50):
                cfg = default_config(n, master_seed=10_000 * n + 100 * si + s)
                plan = FaultPlan(byzantine={i: strategy for i in byz_idx})
                load = LoadProfile(arrival_rate=40.0,
                                   duration_ms=7 * cfg.slot_ms())
                log = run(cfg, plan, load)
                assert conflicting_finalizations(log) == [], \
                    (n, strategy, s)
                assert log.violations == [], (n, strategy, s)
                runs += 1
    wall = time.time() - t0
    assert wall < 600.0
    _ok("c03 byzantine-safety",
        f"runs={runs} (N=4/7/10 x 4 strategies x 50 seeds) conflicts=0 "
        f"wall={wall:.0f}s")


# 4 -------------------------------------------------------------------------

def test_04_liveness_degrades_by_at_most_two_slots():
    def mean_gap(plan, seed):
        cfg = default_config(7, master_seed=seed)
        load = LoadProfile(arrival_rate=40.0, duration_ms=16 * cfg.slot_ms())
        stats = summarize(run(cfg, plan, load))
        assert stats.mean_finalization_gap is not None
        return stats.mean_finalization_gap

    seeds = range(300, 330)
    clean = [mean_gap(FaultPlan(), s) for s in seeds]
    base = sum(clean) / len(clean)
    for strategy in ("Silent", "Withhold"):
        plan = FaultPlan(byzantine={5: strategy, 6: strategy})
        faulted = [mean_gap(plan, s) for s in seeds]
        mean = sum(faulted) / len(faulted)
        assert mean <= base + 2.0, (strategy, mean, base)
        _ok("c04 liveness",
            f"{strategy}: mean gap {mean:.2f} vs fault-free {base:.2f} "
            f"(+{mean - base:.2f} <= 2.0 slots, 30 seeds)")


# 5 -------------------------------------------------------------------------

def test_05_leader_election_fairness():
    t0 = time.time()
    cfg = default_config(8, master_seed=808)
    load = LoadProfile(arrival_rate=25.0, duration_ms=3000 * cfg.slot_ms())
    stats = summarize(run(cfg, FaultPlan(), load))
    entropy = stats.leader_entropy_bits
    p = leader_uniformity_p(stats.leader_counts, 8)
    wall = time.time() - t0
    assert stats.finalized_slots >= 2900
    assert entropy >= 0.97 * math.log2(8)
    assert p > 0.001
    assert wall < 120.0
    _ok("c05 fairness",
        f"slots={stats.finalized_slots} entropy={entropy:.3f} bits "
        f"(>= {0.97 * 3:.2f}) chi2_p={p:.3f} wall={wall:.0f}s")


# 6 -------------------------------------------------------------------------

def test_06_every_honest_validator_rejects_forged_spikes():
    forger = 6
    total_forged = 0
    total_rejected = 0
    coincidences = 0
    for seed in (13, 21, 34, 55, 89):
        cfg = default_config(7, master_seed=seed)
        plan = FaultPlan(byzantine={forger: "ForgeSpike"})
        load = LoadProfile(arrival_rate=5.0, duration_ms=17 * cfg.slot_ms())
        sim = Sim(cfg, plan, load)
        log = sim.run()
        assert log.violations == []
        last_settled = len(log.slot_records) - 2
        for i in sim.honest_indices():
            node = sim._bare(i)
            records = {r["slot"]: r for r in node.slot_records}
            penalized = {(p.reason, p.validator, p.slot)
                         for p in node.chain.penalties_log}
            for row in node.proposal_log:
                if row["proposer"] != forger or row["slot"] > last_settled:
                    continue
                rec = records[row["slot"]]
                genuine = (rec["leader"] == forger
                           and rec["fire_step"] == row["claimed_fire_step"])
                if genuine:
                    coincidences += 1
                    continue
                total_forged += 1
                assert not row["accepted"], (seed, i, row)
                total_rejected += 1
                assert ("forged_spike", forger, row["slot"]) in penalized, \
                    (seed, i, row["slot"])
    assert total_forged > 50
    assert total_rejected == total_forged
    _ok("c06 forged-spike",
        f"forged={total_forged} rejected={total_rejected} (100%) "
        f"penalty on every honest chain; genuine-claim slots={coincidences}")


# 7 -------------------------------------------------------------------------

def test_07_quorum_arithmetic_exhaustive():
    checked = 0
    for n in range(1, 31):
        keys = Keyring(4242 + n, n)
        block_hash = bytes([n]) * 32
        thr = quorum_threshold(n)
        assert thr == (2 * n) // 3 + 1
        all_votes = [make_vote(keys.validator(i), keys.sk(i), 0, block_hash)
                     for i in range(n)]
        for k in range(n + 1):
            finalized, quorum = collect_votes(all_votes[:k], block_hash,
                                              n, keys)
            assert finalized == (k >= thr), (n, k)
            assert len(quorum) == k
            checked += 1
        # duplicates of one voter never push the count over the line
        if thr >= 2:
            padded = all_votes[:thr - 1] + [all_votes[0]] * 5
            finalized, quorum = collect_votes(padded, block_hash, n, keys)
            assert not finalized
            assert len(quorum) == thr - 1
    _ok("c07 quorum", f"N=1..30 exhaustive vote counts ({checked} cases), "
        f"finalize iff votes >= 2N/3+1")


# 8 -------------------------------------------------------------------------

def test_08_reward_conservation_everywhere():
    partition = Partition(start_ms=700.0, end_ms=1500.0,
                          side_a=frozenset({0, 1}))
    cases = [
        ("honest", 4, "posn", FaultPlan(), {}),
        ("silent", 7, "posn", FaultPlan(byzantine={6: "Silent"}), {}),
        ("withhold", 7, "posn", FaultPlan(byzantine={6: "Withhold"}), {}),
        ("delaymax", 7, "posn", FaultPlan(byzantine={6: "DelayMax"}), {}),
        ("equivocate", 7, "posn", FaultPlan(byzantine={6: "Equivocate"}), {}),
        ("forge", 7, "posn", FaultPlan(byzantine={6: "ForgeSpike"}), {}),
        ("redistribute", 7, "posn", FaultPlan(byzantine={6: "Equivocate"}),
         {"penalty_redistribute": True}),
        ("partition", 4, "posn", FaultPlan(partitions=(partition,)), {}),
        ("crash", 4, "posn", FaultPlan(crash_ms={3: 1200.0}), {}),
        ("por", 7, "por", FaultPlan(), {}),
        ("pob", 7, "pob", FaultPlan(), {}),
    ]
    audited = 0
    for name, n, protocol, plan, overrides in cases:
        for seed in (1, 2):
            cfg = default_config(n, master_seed=seed, **overrides)
            sim = Sim(cfg, plan, LoadProfile(arrival_rate=40.0,
                                             duration_ms=4000.0),
                      protocol=protocol)
            log = sim.run()
            assert log.violations == [], (name, seed)
            for i in sim.honest_indices():
                chain = sim._bare(i).chain
                assert sum(chain.balances.values()) + chain.total_burned \
                    == chain.total_minted, (name, seed, i)
                assert chain.check_integrity() == [], (name, seed, i)
                audited += 1
    _ok("c08 conservation",
        f"balances+burned == minted exactly on {audited} honest chains "
        f"across {len(cases)}x2 runs")


# 9 -------------------------------------------------------------------------

def test_09_partition_consistency():
    cfg = default_config(4, master_seed=404)
    slot = cfg.slot_ms()
    heal_slot = 7
    plan = FaultPlan(partitions=(
        Partition(start_ms=2 * slot, end_ms=heal_slot * slot,
                  side_a=frozenset({0, 1})),))
    load = LoadProfile(arrival_rate=40.0, duration_ms=12 * slot)
    log = run(cfg, plan, load)
    assert log.violations == []
    assert conflicting_finalizations(log) == []
    window = set(range(2, heal_slot))          # the five split slots
    for chains in log.node_finalized.values():
        assert window.isdisjoint(s for s, _ in chains)
    distinct = {tuple(map(tuple, v)) for v in log.node_finalized.values()}
    assert len(distinct) == 1
    resumed = [r["slot"] for r in log.slot_records
               if r["outcome"] == "Finalized" and r["slot"] >= heal_slot]
    assert resumed, "finality never resumed after the heal"
    assert resumed[0] <= heal_slot + 2
    _ok("c09 partition",
        f"2-2 split slots {sorted(window)}: zero finalizations in window, "
        f"identical chains, resumed at slot {resumed[0]} "
        f"(<= {heal_slot + 2})")


# 10 ------------------------------------------------------------------------

def test_10_protocol_ordering_under_saturation():
    t0 = time.time()
    tps = {}
    lat = {}
    for protocol in ("posn", "por", "pob"):
        ts, ls = [], []
        for seed in range(600, 620):
            cfg = default_config(8, master_seed=seed)
            log = run(cfg, FaultPlan(),
                      LoadProfile(arrival_rate=250.0, duration_ms=9000.0),
                      protocol=protocol)
            stats = summarize(log)
            assert log.violations == []
            ts.append(stats.tps)
            ls.append(stats.latency_ms["mean"])
        tps[protocol] = sum(ts) / len(ts)
        lat[protocol] = sum(ls) / len(ls)
    assert tps["posn"] > tps["por"] > tps["pob"], tps
    assert lat["posn"] < lat["por"] < lat["pob"], lat
    _ok("c10 ordering",
        f"20 seeds saturated: tps posn {tps['posn']:.0f} > por "
        f"{tps['por']:.0f} > pob {tps['pob']:.0f}; latency posn "
        f"{lat['posn']:.0f} < por {lat['por']:.0f} < pob {lat['pob']:.0f} ms "
        f"wall={time.time() - t0:.0f}s")


# 11 ------------------------------------------------------------------------

def test_11_whole_harness_reproducibility(tmp_path):
    spec = {
        "protocol": "posn", "seed": 1111, "duration_s": 6,
        "validators": {"n": 7},
        "load": {"arrival_rate": 45},
        "faults": {
            "byzantine": {6: "Equivocate"},
            "crash": {5: 4000},
            "partitions": [{"start_ms": 1000, "end_ms": 2200,
                            "side_a": [0, 1, 2]}],
        },
    }
    blobs = []
    for attempt in ("a", "b"):
        log = build_scenario(dict(spec)).run()
        paths = export(summarize(log), log, str(tmp_path / attempt))
        blob = b""
        for p in paths:
            with open(p, "rb") as fh:
                blob += fh.read()
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    _ok("c11 reproducibility",
        f"re-run with faults exported byte-identical logs "
        f"({len(blobs[0])} bytes x 4 files)")
