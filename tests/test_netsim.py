import collections
import math
from dataclasses import replace
from hashlib import blake2b, sha256
from typing import get_args

import pytest

import posn.crypto as crypto
import posn.netsim as netsim
from posn.consensus import Keyring, Node, Payload
from posn.core import (CLIENT_BASE, ConfigError, Transaction, default_config,
                       dumps_canonical, hash_block, tx_signing_bytes, u64)
from posn.kernels import GOLDEN, mix64, stream_key
from posn.metrics import conflicting_finalizations, export, summarize
from posn.netsim import (
    STRATEGIES,
    FaultPlan,
    LoadProfile,
    Partition,
    Sim,
    delay_bound,
    edge_stream,
    find_partition,
    run,
    sample_delay,
)


def _load(rate=40.0, ms=5000.0):
    return LoadProfile(arrival_rate=rate, duration_ms=ms)


def _counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


# --- delays and partitions --------------------------------------------------

def test_sample_delay_bounds_post_gst(cfg4):
    stream = edge_stream(3, 0, 1)
    delays = [sample_delay(1000.0, stream, cfg4, seq=i) for i in range(300)]
    assert min(delays) >= 1
    assert max(delays) <= cfg4.delta_net_ms
    assert len(set(delays)) > 10


def test_sample_delay_bounds_pre_gst(cfg4):
    late_gst = replace(cfg4, gst_ms=5000.0)
    stream = edge_stream(3, 0, 1)
    delays = [sample_delay(100.0, stream, late_gst, seq=i)
              for i in range(300)]
    assert max(delays) > late_gst.delta_net_ms  # slow epoch really is slower
    assert max(delays) <= 10 * late_gst.delta_net_ms
    assert delay_bound(100.0, late_gst) == 500.0
    assert delay_bound(6000.0, late_gst) == 50.0


def test_sample_delay_is_a_pure_function(cfg4):
    stream = edge_stream(9, 2, 3)
    a = sample_delay(0.0, stream, cfg4, seq=17)
    assert a == sample_delay(0.0, stream, cfg4, seq=17)
    assert a == sample_delay(0.0, edge_stream(9, 2, 3), cfg4, seq=17)
    back = edge_stream(9, 3, 2)
    assert sample_delay(0.0, back, cfg4, seq=17) != a or \
        sample_delay(0.0, back, cfg4, seq=18) != a


def test_find_partition_cuts_only_across():
    p = Partition(start_ms=100.0, end_ms=200.0, side_a=frozenset({0, 1}))
    assert find_partition((p,), 150.0, 0, 2) is p
    assert find_partition((p,), 150.0, 2, 0) is p
    assert find_partition((p,), 150.0, 0, 1) is None
    assert find_partition((p,), 150.0, 2, 3) is None
    # outside the window
    assert find_partition((p,), 99.9, 0, 2) is None
    assert find_partition((p,), 200.0, 0, 2) is None


# --- plan validation --------------------------------------------------------
# A FaultPlan checks its own fields when built; its indices against N and
# f_max are checked when a Sim is built from it.

def test_fault_plan_rejects_too_many_byzantine(cfg4):
    plan = FaultPlan(byzantine={1: "Silent", 2: "Silent"})
    with pytest.raises(ConfigError):
        Sim(cfg4, plan, _load())


def test_fault_plan_rejects_unknown_strategy(cfg4):
    with pytest.raises(ConfigError):
        FaultPlan(byzantine={1: "Lazy"})


def test_fault_plan_rejects_bad_index(cfg4):
    with pytest.raises(ConfigError):
        Sim(cfg4, FaultPlan(byzantine={9: "Silent"}), _load())


def test_fault_plan_rejects_bad_crash_index(cfg4):
    for idx in (4, -1):
        with pytest.raises(ConfigError, match=rf"^crash_ms\[{idx}\]: "):
            Sim(cfg4, FaultPlan(crash_ms={idx: 100.0}), _load())


@pytest.mark.parametrize("protocol", ["posn", "pob", "por"])
def test_sim_rejects_pob_scores_for_unknown_validators(cfg4, protocol):
    for idx in (4, -1):
        with pytest.raises(ConfigError, match=rf"^pob_scores\[{idx}\]: "):
            Sim(cfg4, FaultPlan(), _load(), protocol,
                pob_scores={0: 1.0, idx: 2.0})


def test_fault_plan_rejects_empty_window(cfg4):
    with pytest.raises(ConfigError):
        Partition(start_ms=500.0, end_ms=500.0, side_a=frozenset({0}))


@pytest.mark.parametrize("protocol", ["posn", "pob", "por"])
def test_sim_rejects_runs_shorter_than_one_slot(cfg4, protocol):
    slot = cfg4.slot_ms(protocol)
    with pytest.raises(ConfigError, match="shorter than one"):
        Sim(cfg4, FaultPlan(), _load(40.0, slot - 1.0), protocol)
    assert Sim(cfg4, FaultPlan(), _load(40.0, slot), protocol).n_slots == 1


@pytest.mark.parametrize("load,config", [
    ({"arrival_rate": math.inf}, {}),    # the schedule would never end
    ({"arrival_rate": math.nan}, {}),
    ({"duration_ms": math.nan}, {}),
    ({"duration_ms": math.inf}, {}),
    ({}, {"delta_net_ms": math.nan}),    # NaN passes every range check
    ({}, {"gst_ms": math.inf}),
    ({}, {"lam": math.nan}),
])
def test_sim_rejects_non_finite_inputs(cfg4, load, config):
    with pytest.raises(ConfigError, match="finite"):
        Sim(replace(cfg4, **config), FaultPlan(),
            replace(_load(), **load))


def test_load_profile_rejects_nonsense():
    with pytest.raises(ConfigError):
        LoadProfile(arrival_rate=-1.0, duration_ms=100.0)
    with pytest.raises(ConfigError):
        LoadProfile(arrival_rate=10.0, duration_ms=0.0)
    with pytest.raises(ConfigError):
        LoadProfile(arrival_rate=10.0, duration_ms=100.0,
                    value_min=10, value_max=5)


# --- honest runs ------------------------------------------------------------

def test_honest_run_finalizes_and_agrees():
    cfg = default_config(4, master_seed=7)
    log = run(cfg, FaultPlan(), _load(60.0, 8000.0))
    stats = summarize(log)
    assert stats.finalized_slots >= 15
    assert log.violations == []
    assert conflicting_finalizations(log) == []
    chains = {tuple(map(tuple, v)) for v in log.node_finalized.values()}
    assert len(chains) == 1
    assert sum(log.balances.values()) + log.total_burned == log.total_minted


def test_slot_records_are_dense_and_typed():
    cfg = default_config(4, master_seed=8)
    log = run(cfg, FaultPlan(), _load(50.0, 4000.0))
    slots = [r["slot"] for r in log.slot_records]
    assert slots == list(range(len(slots)))
    for r in log.slot_records:
        assert r["outcome"] in ("Finalized", "Skipped")
        if r["outcome"] == "Finalized":
            assert r["leader"] is not None
            assert r["quorum_size"] >= 3
            assert r["finalize_ms"] is not None


def test_rerun_is_identical():
    cfg = default_config(4, master_seed=9)
    snap = lambda log: dumps_canonical({
        "slots": log.slot_records, "txs": log.tx_records,
        "chains": log.node_finalized, "counters": log.msg_counters,
        "balances": log.balances})
    assert snap(run(cfg, FaultPlan(), _load())) == \
        snap(run(cfg, FaultPlan(), _load()))


def test_different_seeds_differ():
    a = run(default_config(4, master_seed=1), FaultPlan(), _load())
    b = run(default_config(4, master_seed=2), FaultPlan(), _load())
    assert a.slot_records != b.slot_records


# --- byzantine strategies ---------------------------------------------------

def _byz_run(strategy, n=7, idx=(6,), seed=11, rate=40.0, ms=6000.0):
    cfg = default_config(n, master_seed=seed)
    plan = FaultPlan(byzantine={i: strategy for i in idx})
    return cfg, run(cfg, plan, _load(rate, ms))


@pytest.mark.parametrize("strategy", ["Silent", "Withhold"])
def test_quiet_byzantine_only_costs_their_slots(strategy):
    cfg, log = _byz_run(strategy)
    assert log.violations == []
    # slots the quiet node would have led end skipped, the rest finalize
    for rec in log.slot_records:
        if rec["leader"] == 6:
            assert rec["outcome"] == "Skipped"
    honest_led = [r for r in log.slot_records
                  if r["leader"] not in (None, 6) and r["slot"] > 0]
    assert honest_led
    assert all(r["outcome"] == "Finalized" for r in honest_led)


def test_delay_max_messages_arrive_too_late():
    cfg, log = _byz_run("DelayMax")
    assert log.violations == []
    for rec in log.slot_records:
        if rec["leader"] == 6:
            assert rec["outcome"] == "Skipped"
    assert log.msg_counters.get("dropped_stale", 0) > 0


def test_equivocation_is_detected_and_penalized():
    cfg, log = _byz_run("Equivocate", seed=1)
    assert log.violations == []
    assert conflicting_finalizations(log) == []
    led = [r["slot"] for r in log.slot_records if r["leader"] == 6]
    assert led, "equivocator never won a slot in this draw"
    penalized = {p["slot"] for p in log.penalties if p["validator"] == 6}
    assert penalized.issuperset(led)
    assert all(p["reason"] == "equivocation"
               for p in log.penalties if p["slot"] in led)
    assert log.total_burned >= cfg.penalty_equivocation * len(led)


def test_forged_spikes_never_finalize_without_election():
    cfg, log = _byz_run("ForgeSpike", rate=5.0, seed=13)
    assert log.violations == []
    # every forged slot draws a penalty on the shared chain
    assert any(p["reason"] == "forged_spike" and p["validator"] == 6
               for p in log.penalties)
    # a forged claim-0 block can only finalize when the honest election
    # really did name the forger with fire step 0
    for rec in log.slot_records:
        if rec["outcome"] == "Finalized" and rec["leader"] == 6:
            assert rec["fire_step"] == 0
    # forgery does not stall everyone else
    assert any(r["outcome"] == "Finalized" and r["leader"] != 6
               for r in log.slot_records)


def test_evidence_costs_no_replay(monkeypatch):
    # every neuron replay happens inside a slot context, N kernel rows per
    # context, so checking equivocation and forged-spike evidence replays
    # nothing
    import posn.consensus as consensus
    import posn.kernels as kernels
    import posn.netsim as netsim

    calls = collections.Counter()
    first_fire = kernels.first_fire

    def counting_rows(keys, *args):
        calls["kernel rows"] += len(keys)
        return first_fire(keys, *args)

    monkeypatch.setattr(kernels, "first_fire", counting_rows)
    ctx = _counting(calls, "compute_slot_context",
                    consensus.compute_slot_context)
    monkeypatch.setattr(consensus, "compute_slot_context", ctx)
    monkeypatch.setattr(netsim, "compute_slot_context", ctx)
    monkeypatch.setattr(consensus, "apply_penalty", _counting(
        calls, "apply_penalty", consensus.apply_penalty))
    cfg = default_config(7, master_seed=2, encoding="both")
    plan = FaultPlan(byzantine={5: "Equivocate", 6: "ForgeSpike"})
    log = Sim(cfg, plan, _load(250.0, 6 * cfg.slot_ms())).run()
    assert log.violations == []
    assert {p["reason"] for p in log.penalties} == {"equivocation",
                                                    "forged_spike"}
    assert calls["apply_penalty"] > 0
    assert calls["kernel rows"] == 7 * calls["compute_slot_context"]
    assert calls["compute_slot_context"] <= 6


def test_equivocating_leaders_conflict_free_across_nodes():
    for seed in (3, 5, 8):
        _, log = _byz_run("Equivocate", n=4, idx=(3,), seed=seed)
        assert conflicting_finalizations(log) == []


# --- the run's key store ---------------------------------------------------

def test_a_signature_from_one_run_does_not_verify_in_another():
    runs = [Sim(default_config(4, master_seed=seed), FaultPlan(), _load())
            for seed in (1, 2)]
    for sim, other in (runs, runs[::-1]):
        for kp in (sim.keys.pairs[0], sim.keys.clients[0]):
            sig = crypto.sign(kp.sk, b"payload")
            assert crypto.verify(kp.pk, b"payload", sig, store=sim.keys)
            assert sim.keys.check(kp.pk, b"payload", sig)
            assert not crypto.verify(kp.pk, b"payload", sig,
                                     store=other.keys)
            assert not other.keys.check(kp.pk, b"payload", sig)


def _byzantine_store_run():
    """A short N=7 run with an equivocator and a spike forger."""
    cfg = default_config(7, master_seed=2, encoding="both")
    plan = FaultPlan(byzantine={5: "Equivocate", 6: "ForgeSpike"})
    log = Sim(cfg, plan, _load(250.0, 6 * cfg.slot_ms())).run()
    assert log.violations == []
    assert {p["reason"] for p in log.penalties} == {"equivocation",
                                                    "forged_spike"}


def test_every_check_asks_the_store(monkeypatch, verify_calls):
    # with nothing pruned, each distinct signature is verified exactly
    # once, across proposals (each tx included), votes, finality and
    # evidence
    monkeypatch.setattr(Keyring, "rotate", lambda self: None)
    _byzantine_store_run()
    assert len(verify_calls) == len(set(verify_calls))


def test_trusted_blocks_change_no_verification(monkeypatch, verify_calls):
    # a trusted block skips only lookups: with every block lookup forced
    # to miss, the run makes the same verifications in the same order
    trusts, hits = Keyring.trusts, []

    def counting(self, block_hash, txs):
        hits.append(trusts(self, block_hash, txs))
        return hits[-1]

    monkeypatch.setattr(Keyring, "trusts", counting)
    _byzantine_store_run()
    memoized = list(verify_calls)
    verify_calls.clear()
    monkeypatch.setattr(Keyring, "trusts", lambda self, block_hash, txs: False)
    _byzantine_store_run()
    assert any(hits)
    assert verify_calls == memoized


def test_pruned_checks_cost_few_reverifications(verify_calls):
    # once per slot the oldest checks are dropped; a transaction that
    # waits longer than that in the mempool is verified once more
    _byzantine_store_run()
    assert len(verify_calls) <= 1.5 * len(set(verify_calls))


def test_checked_signatures_do_not_grow_with_the_run(verify_calls):
    held, verified = {}, {}
    for slots in (20, 80):
        verify_calls.clear()
        cfg = default_config(4, master_seed=3)
        sim = Sim(cfg, FaultPlan(), _load(40.0, slots * cfg.slot_ms()))
        sim.run()
        held[slots] = len(sim.keys._checked) + len(sim.keys._older)
        verified[slots] = len(set(verify_calls))
    assert verified[80] >= 3 * verified[20]
    assert held[80] <= 1.25 * held[20]


# --- partitions, crashes, clients -------------------------------------------

def test_partition_blocks_finality_then_heals():
    cfg = default_config(4, master_seed=3)
    slot = cfg.slot_ms()
    window = (2 * slot, 5 * slot)
    plan = FaultPlan(partitions=(
        Partition(start_ms=window[0], end_ms=window[1],
                  side_a=frozenset({0, 1})),))
    log = run(cfg, plan, _load(40.0, 10 * slot))
    assert log.violations == []
    for rec in log.slot_records:
        if rec["finalize_ms"] is not None:
            assert not (window[0] <= rec["finalize_ms"] < window[1])
    chains = {tuple(map(tuple, v)) for v in log.node_finalized.values()}
    assert len(chains) == 1
    # finality resumes promptly after the heal
    resumed = [r["slot"] for r in log.slot_records
               if r["finalize_ms"] is not None and r["finalize_ms"] >= window[1]]
    assert resumed and resumed[0] <= 5 + 2


def test_crash_only_costs_the_dead_nodes_slots():
    cfg = default_config(4, master_seed=9)
    log = run(cfg, FaultPlan(crash_ms={3: 2000.0}), _load(40.0, 6000.0))
    assert log.violations == []
    slot = cfg.slot_ms()
    for rec in log.slot_records:
        t = rec["slot"] * slot
        if t >= 2000.0 and rec["leader"] == 3:
            assert rec["outcome"] == "Skipped"
        if rec["slot"] > 0 and t < 2000.0 - slot:
            assert rec["outcome"] == "Finalized"


def test_transactions_cross_partitions():
    # a partition cuts validator traffic only: the mempools on both sides
    # keep filling during the split and those txs finalize after the heal
    cfg = default_config(4, master_seed=12)
    slot = cfg.slot_ms()
    plan = FaultPlan(partitions=(
        Partition(start_ms=slot, end_ms=4 * slot, side_a=frozenset({0, 1})),))
    log = run(cfg, plan, _load(40.0, 9 * slot))
    during = [t for t in log.tx_records
              if slot <= t["submit_ms"] < 4 * slot]
    assert during
    assert any(t["finalize_ms"] is not None for t in during)


def test_message_counters_present():
    cfg = default_config(4, master_seed=7)
    log = run(cfg, FaultPlan(), _load(40.0, 4000.0))
    for key in ("sent_TxGossip", "sent_Proposal", "sent_VoteMsg"):
        assert log.msg_counters.get(key, 0) > 0


def test_every_payload_type_has_an_export_name():
    # a payload type without a name would raise KeyError mid-run
    assert set(netsim._SENT_NAME) == set(get_args(Payload))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_no_strategy_acts_on_an_empty_msg_batch(cfg4, strategy):
    # so the harness need not ship an empty batch a message produced
    sim = Sim(cfg4, FaultPlan(byzantine={0: strategy}), _load())
    node, held = sim.nodes[0], []
    node.begin_slot(0, 0.0)
    assert netsim.apply_strategy(strategy, node, held, [], "msg") == []
    assert held == []


# --- baselines through the simulator ----------------------------------------

@pytest.mark.parametrize("protocol", ["por", "pob"])
def test_baseline_protocols_run_clean(protocol):
    cfg = default_config(7, master_seed=5)
    log = run(cfg, FaultPlan(), _load(40.0, 6000.0), protocol=protocol)
    stats = summarize(log)
    assert log.violations == []
    assert stats.finalized_slots > 5
    assert stats.skipped_slots == 0  # baselines elect without needing load


def test_pob_scores_shift_leadership():
    cfg = default_config(4, master_seed=6)
    log = run(cfg, FaultPlan(), _load(30.0, 8000.0), protocol="pob",
              pob_scores={0: 10.0, 1: 0.1, 2: 0.1, 3: 0.1})
    counts = summarize(log).leader_counts
    assert counts.get(0, 0) > sum(counts.get(i, 0) for i in (1, 2, 3))


def test_honest_baseline_partition_penalizes_nobody():
    # after a partition heals, a node whose tip catches up mid-slot
    # rejects the new leader's block as not elected from its stale slot
    # context; the forged-spike evidence it sends is checked against the
    # baseline election that ran, which the honest proposer won
    penalized = {}
    for seed in range(6):
        cfg = default_config(7, master_seed=seed)
        slot = cfg.slot_ms("por")
        plan = FaultPlan(partitions=(
            Partition(3 * slot, 6 * slot, frozenset({0, 1})),))
        log = run(cfg, plan, _load(0.5, 12 * slot), protocol="por")
        assert log.violations == []
        penalized[seed] = log.penalties
    assert penalized == {seed: [] for seed in range(6)}


def test_baselines_share_the_proposal_validator(monkeypatch, verdicts):
    # one por_elect per slot (the memoized slot context), and every
    # distinct proposal each node sees is judged by validate_proposal, once
    import posn.baselines as baselines

    calls = collections.Counter()
    monkeypatch.setattr(baselines, "por_elect", _counting(
        calls, "por_elect", baselines.por_elect))
    cfg = default_config(4, master_seed=8)
    sim = Sim(cfg, FaultPlan(), _load(40.0, 6 * cfg.slot_ms("por")), "por")
    log = sim.run()
    assert log.violations == []
    judged = [(node, hash_block(block)) for node, block, _ in verdicts]
    assert len(judged) >= 4 * sim.n_slots
    assert len(set(judged)) == len(judged)
    assert calls["por_elect"] == sim.n_slots


# --- exact bytes ------------------------------------------------------------

# sha256 of summarize()'s canonical JSON and of the four files export()
# writes (summary, runlog, slots, txs), recorded before the load became a
# schedule
FAULTED_GST_DIGESTS = {
    "posn": [
        "e204eb0e7be96d752b2bced972a51803d68129d528e8c6fa72719df666764944",
        "92a2b2b6be6e81355932314c689fffd935b12cd228784b4e508fea40ff1a58c0",
        "433d6af199a19325b14cada70d7cd4e47f409dc001f020f069631949b5f0db50",
        "d405a81dec4a9484f4e482b416e082a7ff2bf222d107f1d24cace6d515fcea0d",
        "0f8ffdb586e3ede2a71f5c84ed1cddbebf279fad05af3b88019c398c5402490f",
    ],
    "por": [
        "1e29c00b715bde5335fb17e6f402b1f9bd5f0f412bec33063c5de61688d47688",
        "6b469fdb59ef06b2192360a614555787047ebe89f71e45beb59a2a18ed875e2a",
        "655313c06362cf2753e93db769768bd4e0f11466dd9ba35785238f064a80e75f",
        "3e7677776cdcc4db09afba6bd66a8d70433f5b0bbd93806a56b815b9ef8536cf",
        "e05f5941f28380b9c413056117966030cfaeeae0f5909d894c76d00630561f64",
    ],
    "pob": [
        "046292fc968044e284984cf9d949c5ccec14b8d827396a39126dd22cfa083cbf",
        "e2f23386a605ff02920e3407b1b3275c9828f3dd2980fa47adb5e27ae88d8767",
        "da60dfcd227772c03358c8061ce03798377ebed62c28ef1e20d749bc72f1de94",
        "9cf8807234d760fbcbeefc09d936265749f130e4b2452cff5a2e6df2a516f5de",
        "f48f36a24bdaad5caf2b9eabcde451b62493385bbb9e0fd81fff7a15ef82cabd",
    ],
}


def test_faulted_gst_run_exports_are_unchanged(tmp_path):
    # no benchmark workload has gst_ms > 0, where transactions become
    # eligible out of arrival order; partition {0,1} over slots 3-6
    for protocol, expected in FAULTED_GST_DIGESTS.items():
        cfg = default_config(7, master_seed=1, gst_ms=2500.0)
        slot = cfg.slot_ms(protocol)
        plan = FaultPlan(
            byzantine={6: "Equivocate"},
            partitions=(Partition(3 * slot, 6 * slot, frozenset({0, 1})),),
            crash_ms={0: 9 * slot + 3.0, 2: 14 * slot})
        log = run(cfg, plan, _load(250.0, 20 * slot), protocol=protocol)
        stats = summarize(log)
        digests = [sha256(dumps_canonical(stats.to_json()).encode())
                   .hexdigest()]
        for path in export(stats, log, str(tmp_path / protocol)):
            with open(path, "rb") as fh:
                digests.append(sha256(fh.read()).hexdigest())
        assert digests == expected, protocol
        assert log.msg_counters["dropped_crashed"] > 0
        assert log.msg_counters["sent_TxGossip"] == 7 * len(log.tx_records)


def _export_digests(log, directory):
    """sha256 of summarize()'s canonical JSON and of the four files
    export() writes (summary, runlog, slots, txs)."""
    stats = summarize(log)
    digests = [sha256(dumps_canonical(stats.to_json()).encode()).hexdigest()]
    for path in export(stats, log, directory):
        with open(path, "rb") as fh:
            digests.append(sha256(fh.read()).hexdigest())
    return digests


# recorded while the strategies were a wrapper class around the node
STRATEGY_DIGESTS = {
    "DelayMax-posn": [
        "64e4f656ec166e66eabec8896c1e17614601e13cd87d86372dd8b3844834c990",
        "789f15a96d68818fb3a40642a57cbe03bc42fec8c288f40cfb8366d8299f285c",
        "712921a5d64d4e2bdd94e8140a3529576ca2a1b362066a27860c799ab0e767ab",
        "76eeadc8953a162ec7558e303a950d8e58e61dda017b8bf969b849305d706f34",
        "741514cc704c931678c0fe0300c3691c4994dc7f18e090f0650354070f8f3307",
    ],
    "DelayMax-por": [
        "28d869264672373f2155b96edbacbd094f70ba45f0f150c30948f916abd35d07",
        "575cccabcd1d064572a623cc5414fe379434164b3ca490326c964c1cca086b2c",
        "eb00af61646da73c3dbde7f491933edaaf7e879f65d1dea7dd4f5c1e634f9b98",
        "a8436391f6327a0f58c6d5df165caef27353b319b579f3a81f5f83d15362479f",
        "3be308d1b3a99d2dbbf632637d94c39097a3d30666400aaf3732540d3a41d91b",
    ],
    "DelayMax-pob": [
        "fd478b7d519ada16853fd92e249bd4c3f06956316db50f49951f63b65bab180e",
        "ea4661159e9ccb8ae7a780efe3437be471ddebe77f5c3b6b4f25506393044326",
        "657aef9c03398ad3c2b119d83a9d9a4860ff8ff1455229e8a68cd436f21f5dad",
        "6ad279b99d37ac0fe3c3d59b245678d87af0cf105eec269f1a11b6e9d0d9f430",
        "aea8b6fcadde00c97a666167716a80e801555f4b29a495ae3e9f684b13cc8028",
    ],
    "Withhold-posn": [
        "0edd7de96f9ee476b5c9317d7a1720b34351ede50f5be9e40b2541dcc07b85d8",
        "3b0bbbbea2b339256e5174155f8cd61492b72cc4634fd15fbafc79eeef50fd08",
        "9d775c96193622d46dfce72dcaf691c5cc27273fe3aefa2ee4549347bf069bc6",
        "76eeadc8953a162ec7558e303a950d8e58e61dda017b8bf969b849305d706f34",
        "741514cc704c931678c0fe0300c3691c4994dc7f18e090f0650354070f8f3307",
    ],
    "Withhold-por": [
        "2ff5712e37ddaf1c0f48e283b7e9e1a5040df95355400f2057077f858fd4bbde",
        "527edd54f6b00f89c10ad1693074e41a7bb2d2ed1ab5b3996ced2dd86ce73b8b",
        "c0f03296135d6548bd4720b8382fc42112a83b6cf460fda37647203149a34193",
        "a8436391f6327a0f58c6d5df165caef27353b319b579f3a81f5f83d15362479f",
        "3be308d1b3a99d2dbbf632637d94c39097a3d30666400aaf3732540d3a41d91b",
    ],
    "Withhold-pob": [
        "5b3fa9247866a7caf7ce72fa2ffaed4270771089f8488d075033ebeb4e84fc1c",
        "aad4f0fecd66174737c4317ff7dc4cf6d05682ec95e9370c866b58a4580ef58f",
        "2f54c8d8b2f8c0d3f1dc133609c2887bc2ab618ef78420d5e1e3233cbe7c476e",
        "6ad279b99d37ac0fe3c3d59b245678d87af0cf105eec269f1a11b6e9d0d9f430",
        "aea8b6fcadde00c97a666167716a80e801555f4b29a495ae3e9f684b13cc8028",
    ],
    "Equivocate-posn": [
        "2ba0c9190d693b071610dc3a5a4ca2838ff9d6aefb8467fb986d694acd2abcbb",
        "850050316d289d80437545005420b5d0b981e315fdfa012d21257f65204e53ad",
        "b0f98aaf1c01e5e16ab7aa0ea976c891ba6ef38cdf5aa385e168cf83dd50e015",
        "9e8a9b98e857693233dcde5844146e03fe6166f7a3dbe065e833a15ddf2a340a",
        "6ef03d763e3cad50d022282c6f24fe6cfa19f786411219d486e30cbd8a02cb57",
    ],
    "Equivocate-por": [
        "d974a0349b9a001ec9619bc0352483ce2e389ce282ef21a5f6d22a79e93d4e56",
        "a536d96016ef70c60b1b5407a78721a638bbb258da9eef745d39fd0e904f10a1",
        "50e1152d31ad319e057e17249de2c811a524e06b44b35ef99920b68ce316d327",
        "275cf817cffd9fa9543148db9036be98ba537c0b590f96f5c9791c1e3c904cfa",
        "515a2004edb32e811e167178edf6a55fbb4064a71a78e426717defb172d3d2fc",
    ],
    "Equivocate-pob": [
        "ea772f7a5ef993ec365f930a944eef532befe1ac9c1d1c1ecd0afdb188d1ae4a",
        "2d204afef33bb0d67633ef312cefeae0fd4737c1f2f2decc9e1823cadb5e8773",
        "c5ada517a72d189ed0bae809396502e9e879f2114aceecb226a6f55b0a700339",
        "b51cef68e16c5d685a2f96119378808345dd72ce5ee0942a331b4c99b7a2383d",
        "c4aff863d7b2159ca01b772e63e40ba2b9183e61525a2c2be5ea720f707467a3",
    ],
    "ForgeSpike-posn": [
        "7cde6f612f11fe7e38233a51899f108e62a21d903681e97c1dd7f93a6ec1e06d",
        "8f1c790be04919921e3425fb9f8a6021ed49a364e71d62d84b303a3454e6e6d2",
        "62b15b3ad10a9ed6142d00234e5ba40fcacf1daf386f4d30d188c7acdf639906",
        "ddf7bb518e7351dc87469ff9fc197b621cf48717b79794cb6b9ba609addaed27",
        "38420bc556e30158b1667f026cede57f2c3acabdcaccff5bef69d50070f098b4",
    ],
    "ForgeSpike-por": [
        "7b578661814b144ea89d94cc206b4499f3c1b4be5bc741bf60214b870af48871",
        "0503d710978e0d880db3e847950b2c9977a289462269d3b39642e15477dc55d5",
        "73ad94d36fc7718a49b824c0ca1e79f05bb50d17f8eda4ff74ab8d94e4787843",
        "72b3863984d1213d5c2b9e49a8b715d30e24d13377db73c39dceb227d57ca3a8",
        "4d0acc16baea7fe59735dff07695b4d53d1b10fb6ef73b3cfbd81b886232402f",
    ],
    "ForgeSpike-pob": [
        "28f59aaf5b9af7c720b88400df4da288b4ec564f7711ef87b4e64ca469c646a7",
        "e90063961327d887cb5f4af22995cd914bd4560e7cfd27959d3975c443f223d4",
        "362f1a8cb65aaaaeeb2589bfb3c60b437c0f0e391c4313f9214a2d1ba755b1f3",
        "18e5a1a7cd0453d341bf4a0d0d7399b4ec9f46e99125408db702aa70e2f4c4f6",
        "4271c01a369ab220241d60fc7e3524f6cfb69bcc17bf07dc871601349a266119",
    ],
    "Silent-posn": [
        "31bac711cf09212c4e7a8454ca164ca486cf1a32335382ffb2aaf1cdfc57a79f",
        "4ee2ae513ffa658d630963d6884f76efb70cef0515e4fc48c9e6b0954ce10b32",
        "97ab34fd8c61d99b9795ef2b8335cbd1799d27ef45f06d0a60e23a3c6d466267",
        "76eeadc8953a162ec7558e303a950d8e58e61dda017b8bf969b849305d706f34",
        "741514cc704c931678c0fe0300c3691c4994dc7f18e090f0650354070f8f3307",
    ],
    "Silent-por": [
        "08301a0a678b5e7c41613cc08414a9f6b4f17e2bb4a085d174152b0da0c1bbc1",
        "54d342bb8f9ce08e14b80a64a4b7b13d7b4b9ab5495c90884e99508a6ed1ba2b",
        "3866ccd4ed8f0ebd33581722c655e7e3c795d6f95105ae469156a12bb3d88321",
        "a8436391f6327a0f58c6d5df165caef27353b319b579f3a81f5f83d15362479f",
        "3be308d1b3a99d2dbbf632637d94c39097a3d30666400aaf3732540d3a41d91b",
    ],
    "Silent-pob": [
        "042dfd220b75db1049fd539f82f280657341b0a96b54ed63ee78ee02624c5ea8",
        "2896ca555c289fecbca8dee5b877af8c4af8160e9a9fc8dc02778896eda5f449",
        "1df301262741ac6e784a4fa3797260a9f9e0ff2cd262f7b7e4d1a5308ba14fac",
        "6ad279b99d37ac0fe3c3d59b245678d87af0cf105eec269f1a11b6e9d0d9f430",
        "aea8b6fcadde00c97a666167716a80e801555f4b29a495ae3e9f684b13cc8028",
    ],
}


@pytest.mark.parametrize("protocol", ["posn", "por", "pob"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_byzantine_strategy_exports_are_unchanged(tmp_path, strategy,
                                                  protocol):
    # the faulted-GST shape with the Byzantine node inside the partition,
    # so DelayMax's held batches wait for the heal
    cfg = default_config(7, master_seed=1, gst_ms=2500.0)
    slot = cfg.slot_ms(protocol)
    plan = FaultPlan(
        byzantine={6: strategy},
        partitions=(Partition(3 * slot, 6 * slot, frozenset({0, 6})),),
        crash_ms={0: 9 * slot + 3.0, 2: 14 * slot})
    sim = Sim(cfg, plan, _load(250.0, 20 * slot), protocol)
    assert all(type(node) is Node for node in sim.nodes)
    digests = _export_digests(sim.run(), str(tmp_path))
    assert digests == STRATEGY_DIGESTS[f"{strategy}-{protocol}"]


# recorded while slot contexts were memoized apart from the views; ROADMAP
# item 3 (a stale slot context after a heal) re-records these on purpose
STALE_TIP_DIGESTS = {
    "posn": [
        "4670d575d392b722b8886aa8bb06d110f012bf1120e910e5b46103fc5cbdb26a",
        "993ccb1455d8c73bcb846a4c75b8de41b01d9b8257ed671c35c00a208853e28c",
        "e8bbdd29263738c665db6b91723256f27a497dfcf6e8f6ba29a3a98a617d0716",
        "200cafa579c30f48e1edd0c4d61512ae2df740f01f7692e910bd21e418e3b97e",
        "99667ec8a3dbc49d18e4937f5034f1b356fc14d69c79b3bb0980432bd96de58a",
    ],
    "por": [
        "0cb3cefdae048d78e2e29c7671322cdf1e32d83f7e0cb3ad918ec87bc6b1f5f9",
        "96f878b8ec5ac54b294e0c633052aa0dcd90452bebe81f1bbf55a3ea3a2cdbdd",
        "97b1bf2efb31f6dad1260fe23e65464aa1c9376f41f14831d42fc8b3c0a06e9e",
        "9dd7ff61f3e9a0a7bfd00b53086379ffc12bc309c3eece0458f52818382da30a",
        "b17c38b14eaddcae9fcfa898fa2eda05baa1f625ad2d112de319f9336b5fb8d1",
    ],
}


@pytest.mark.parametrize("protocol,seed,rate,replays", [
    ("posn", 5, 5.0, [(0, 6)]), ("por", 1, 0.5, [(0, 6), (1, 6)])])
def test_stale_tip_reproducer_exports_are_unchanged(tmp_path, protocol, seed,
                                                    rate, replays):
    # a finalization delivered after the heal moves a node's tip mid-slot,
    # so the node judges the new leader's block by the context of its old
    # tip: the one place a node replays a slot context for evidence
    cfg = default_config(7, master_seed=seed)
    slot = cfg.slot_ms(protocol)
    plan = FaultPlan(partitions=(
        Partition(3 * slot, 6 * slot, frozenset({0, 1})),))
    sim = Sim(cfg, plan, _load(rate, 12 * slot), protocol)
    replayed = []
    for node in sim.nodes:
        def counting(*args, _node=node.index, _inner=node._replay):
            replayed.append((_node, args[0]))
            return _inner(*args)
        node._replay = counting
    log = sim.run()
    assert _export_digests(log, str(tmp_path)) == STALE_TIP_DIGESTS[protocol]
    assert replayed == replays  # (node, slot)
    if protocol == "posn":
        # honest validator 6, penalized on the observer's chain only
        assert log.penalties == [{"validator": 6, "slot": 6,
                                  "amount": cfg.penalty_forged_spike,
                                  "reason": "forged_spike"}]


def test_scheduled_transactions_carry_their_senders_signatures(cfg4):
    sim = Sim(cfg4, FaultPlan(), _load(rate=50.0, ms=1000.0))
    sim._schedule_load()
    assert len(sim.schedule) > 20
    for _, _, tx in sim.schedule:
        assert sim.keys.check(tx.sender, tx.signing_bytes(), tx.signature)


# --- the load, drawn a chunk at a time ---------------------------------------

def _straight_line_load(sim):
    """The load built one tx at a time: scalar mix64 of arrival draw c and
    of txgen draws 3c, 3c+1, 3c+2, and a fresh edge stream per copy to a
    crashed validator. Returns (schedule, tx_records, tx_index, counters)."""
    cfg, load, clients = sim.cfg, sim.load, sim.keys.clients
    schedule, records, index, counters = [], [], {}, {}
    rate_per_ms = load.arrival_rate / 1000.0
    if rate_per_ms == 0.0:
        return schedule, records, index, counters

    def draw(purpose, i):
        key = stream_key(u64(cfg.master_seed), purpose)
        return mix64((key + (i + 1) * GOLDEN) & 0xFFFFFFFFFFFFFFFF)

    t, c = 0.0, 0
    while True:
        t += -math.log(1.0 - (draw(b"arrivals", c) >> 11) * 2.0 ** -53) \
            / rate_per_ms
        if t >= load.duration_ms:
            break
        sender = clients[c % len(clients)]
        receiver = clients[draw(b"txgen", 3 * c) % len(clients)]
        value = load.value_min + draw(b"txgen", 3 * c + 1) \
            % (load.value_max - load.value_min + 1)
        fee = load.fee_min + draw(b"txgen", 3 * c + 2) \
            % (load.fee_max - load.fee_min + 1)
        tx_id = blake2b(b"posn-txid" + u64(cfg.master_seed) + u64(c),
                        digest_size=32).digest()
        tx = Transaction(id=tx_id, sender=sender.pk, receiver=receiver.pk,
                         value=value, fee=fee, signature=crypto.sign(
                             sender.sk, tx_signing_bytes(
                                 tx_id, sender.pk, receiver.pk, value, fee)))
        index[tx_id] = len(records)
        records.append({"id": tx_id.hex(), "submit_ms": t,
                        "finalize_ms": None})
        schedule.append((t + delay_bound(t, cfg) + 1.0, c, tx))
        counters["sent_TxGossip"] = counters.get("sent_TxGossip", 0) \
            + cfg.n_validators
        for v, crash_at in sim.plan.crash_ms.items():
            edge = edge_stream(cfg.master_seed,
                               CLIENT_BASE + c % len(clients), v)
            delay = sample_delay(t, edge, cfg, c // len(clients))
            if crash_at <= t + delay <= load.duration_ms:
                counters["dropped_crashed"] = \
                    counters.get("dropped_crashed", 0) + 1
        c += 1
    return sorted(schedule), records, index, counters


@pytest.mark.parametrize("n,seed,clients,gst,crash,load,min_txs,drops", [
    # more than two chunks, nothing crashed, a GST inside the run
    (4, 11, 16, 1500.0, {}, dict(arrival_rate=400.0, duration_ms=3000.0),
     2 * netsim.LOAD_CHUNK + 1, False),
    # the full u64 value range, a fixed fee, one client, one crash
    (5, 2**64 - 1, 1, 0.0, {2: 900.0},
     dict(arrival_rate=250.0, duration_ms=2500.0, value_min=0,
          value_max=2**64 - 1, fee_min=7, fee_max=7), 1, True),
    # two crashes, a GST inside the run, clients not a power of two
    (7, 3, 3, 700.5, {0: 0.0, 6: 1200.0},
     dict(arrival_rate=300.0, duration_ms=2000.0, fee_max=2**63), 1, True),
    # a crash after the run: no copy drops, so no dropped_crashed key
    (4, 5, 2, 0.0, {1: 4000.0}, dict(arrival_rate=80.0, duration_ms=1000.0),
     1, False),
    # no load at all, and a rate that underflows to 0 tx/ms
    (4, 6, 16, 0.0, {3: 10.0}, dict(arrival_rate=0.0, duration_ms=1000.0),
     0, False),
    (4, 6, 16, 0.0, {}, dict(arrival_rate=1.0e-322, duration_ms=1000.0),
     0, False),
])
def test_chunked_load_equals_the_straight_line_build(n, seed, clients, gst,
                                                    crash, load, min_txs,
                                                    drops):
    cfg = default_config(n, master_seed=seed, n_clients=clients, gst_ms=gst)
    sim = Sim(cfg, FaultPlan(crash_ms=crash), LoadProfile(**load))
    sim._schedule_load()
    schedule, records, index, counters = _straight_line_load(sim)
    assert sim.schedule == schedule
    assert sim.tx_records == records
    assert sim._tx_index == index
    assert sim.counters == counters  # equal keys: no zero-count key
    assert len(schedule) >= min_txs
    assert ("sent_TxGossip" in counters) == bool(schedule)
    assert ("dropped_crashed" in counters) == drops


def test_sim_builds_no_transaction_before_run(cfg4):
    sim = Sim(cfg4, FaultPlan(crash_ms={3: 500.0}),
              _load(rate=60.0, ms=1000.0))
    assert sim.schedule == [] and sim.tx_records == []
    assert sim._tx_index == {} and sim.counters == {}
    sim.run()
    assert sim.schedule and len(sim.tx_records) == len(sim.schedule)


def test_denormal_arrival_rate_runs_without_load(cfg4):
    # 1e-322 tx/s passes LoadProfile's checks, then is 0.0 tx/ms
    log = Sim(cfg4, FaultPlan(), _load(rate=1.0e-322, ms=3000.0)).run()
    assert log.tx_records == []
    assert "sent_TxGossip" not in log.msg_counters
