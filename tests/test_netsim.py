import collections
from dataclasses import replace

import pytest

import posn.crypto as crypto
from posn.consensus import Keyring
from posn.core import ConfigError, default_config, dumps_canonical, hash_block
from posn.metrics import conflicting_finalizations, summarize
from posn.netsim import (
    CLIENT_BASE,
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


def test_find_partition_exempts_clients():
    p = Partition(start_ms=0.0, end_ms=1e9, side_a=frozenset({0}))
    assert find_partition((p,), 10.0, CLIENT_BASE, 0) is None
    assert find_partition((p,), 10.0, 0, CLIENT_BASE + 3) is None


# --- plan validation --------------------------------------------------------

def test_fault_plan_rejects_too_many_byzantine(cfg4):
    plan = FaultPlan(byzantine={1: "Silent", 2: "Silent"})
    with pytest.raises(ConfigError):
        plan.validate(cfg4)


def test_fault_plan_rejects_unknown_strategy(cfg4):
    with pytest.raises(ConfigError):
        FaultPlan(byzantine={1: "Lazy"}).validate(cfg4)


def test_fault_plan_rejects_bad_index(cfg4):
    with pytest.raises(ConfigError):
        FaultPlan(byzantine={9: "Silent"}).validate(cfg4)


def test_fault_plan_rejects_empty_window(cfg4):
    p = Partition(start_ms=500.0, end_ms=500.0, side_a=frozenset({0}))
    with pytest.raises(ConfigError):
        FaultPlan(partitions=(p,)).validate(cfg4)


def test_load_profile_rejects_nonsense():
    with pytest.raises(ConfigError):
        LoadProfile(arrival_rate=-1.0, duration_ms=100.0).validate()
    with pytest.raises(ConfigError):
        LoadProfile(arrival_rate=10.0, duration_ms=0.0).validate()
    with pytest.raises(ConfigError):
        LoadProfile(arrival_rate=10.0, duration_ms=100.0,
                    value_min=10, value_max=5).validate()


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
    # every neuron replay happens inside a slot context, N per context,
    # so checking equivocation and forged-spike evidence replays nothing
    import posn.consensus as consensus
    import posn.netsim as netsim

    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(consensus, "first_spike_step", counting(
        "first_spike_step", consensus.first_spike_step))
    ctx = counting("compute_slot_context", consensus.compute_slot_context)
    monkeypatch.setattr(consensus, "compute_slot_context", ctx)
    monkeypatch.setattr(netsim, "compute_slot_context", ctx)
    monkeypatch.setattr(consensus, "apply_penalty", counting(
        "apply_penalty", consensus.apply_penalty))
    cfg = default_config(7, master_seed=2, encoding="both")
    plan = FaultPlan(byzantine={5: "Equivocate", 6: "ForgeSpike"})
    log = Sim(cfg, plan, _load(250.0, 6 * cfg.slot_ms())).run()
    assert log.violations == []
    assert {p["reason"] for p in log.penalties} == {"equivocation",
                                                    "forged_spike"}
    assert calls["apply_penalty"] > 0
    assert calls["first_spike_step"] == 7 * calls["compute_slot_context"]
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
    # once, across gossip, proposals, votes, finality and evidence
    monkeypatch.setattr(Keyring, "rotate", lambda self: None)
    _byzantine_store_run()
    assert len(verify_calls) == len(set(verify_calls))


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
    # clients stay connected to both sides, so the mempools keep filling
    # during the split and those txs finalize after the heal
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
