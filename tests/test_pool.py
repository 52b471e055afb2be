"""The shared transaction pool: one per (slot, chain tip), built by `Sim`
and read by every node on that tip, and the slot context each view holds,
which the nodes judge evidence by."""

import collections
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import posn.netsim as netsim
from posn.consensus import ForgedSpike
from posn.core import (GENESIS_HASH, Block, ChainState, Transaction,
                       default_config, select_mempool)
from posn.crypto import Signature, sign
from posn.netsim import (STRATEGIES, FaultPlan, LoadProfile, Partition, Sim,
                         merge_pool)


def _order(tx):
    return (-tx.fee, tx.id)


def _tx(rng: random.Random, fee: int) -> Transaction:
    return Transaction(id=rng.getrandbits(256).to_bytes(32, "big"),
                       sender=b"s" * 32, receiver=b"r" * 32, value=1,
                       fee=fee, signature=Signature(b"\x00" * 32))


# --- the pool is select_mempool's order, kept incrementally -----------------

@pytest.mark.parametrize("seed", range(20))
def test_select_mempool_is_a_prefix_of_the_pool(seed):
    rng = random.Random(seed)
    # fees from a narrow range, so most orderings are decided by the id
    arrivals = [[_tx(rng, rng.randrange(3)) for _ in range(rng.randrange(8))]
                for _ in range(rng.randrange(1, 6))]
    pool, pending = (), {}
    for batch in arrivals:
        drop = {tx.id for tx in rng.sample(list(pending.values()),
                                           min(len(pending), 2))}
        pool = merge_pool(pool, batch, drop)
        pending.update((tx.id, tx) for tx in batch)
        for tx_id in drop:
            del pending[tx_id]
        assert pool == tuple(sorted(pending.values(), key=_order))
        snapshot = list(pending.values())
        rng.shuffle(snapshot)
        for k in (0, 1, len(pool) // 2, len(pool), len(pool) + 3):
            assert select_mempool(snapshot, k) == pool[:k]


def test_select_mempool_breaks_fee_ties_by_id():
    rng = random.Random(5)
    txs = [_tx(rng, 7) for _ in range(6)]
    pool = merge_pool((), txs, ())
    assert [tx.id for tx in pool] == sorted(tx.id for tx in txs)
    assert select_mempool(list(reversed(txs)), 1) == pool[:1]


# --- every view equals the node's own chain and the schedule ----------------

def _reference(sim, slot, chain):
    """The pending set of a node on `chain` at `slot`'s start, built from
    scratch: eligible schedule entries minus the chain's txs."""
    finalized = {tx.id for blk in chain.finalized for tx in blk.txs}
    now = slot * sim.slot_ms
    return tuple(sorted((tx for eligible, _, tx in sim.schedule
                         if eligible <= now and tx.id not in finalized),
                        key=_order))


def _recording(sim):
    """Record (node, slot, chain, view) for every view a node is given."""
    seen = []
    for node in sim.nodes:
        def view(slot, chain, _node=node.index, _inner=node._view):
            got = _inner(slot, chain)
            seen.append((_node, slot, chain, got))
            return got
        node._view = view
    return seen


@st.composite
def scenarios(draw):
    protocol = draw(st.sampled_from(["posn", "por", "pob"]))
    n = draw(st.integers(4, 7))
    cfg = default_config(
        n, master_seed=draw(st.integers(0, 2 ** 16)),
        gst_ms=draw(st.sampled_from([0.0, 800.0])),
        max_block_txs=draw(st.sampled_from([3, 64])),
        spike_snapshot_cap=draw(st.sampled_from([5, 256])))
    slot = cfg.slot_ms(protocol)
    n_slots = draw(st.integers(4, 9))
    partitions, crash, byzantine = (), {}, {}
    if draw(st.booleans()):
        start = draw(st.integers(1, n_slots - 3))
        end = draw(st.integers(start + 1, n_slots - 1))
        side = draw(st.sets(st.integers(0, n - 1), min_size=1,
                            max_size=n - 1))
        partitions = (Partition(start * slot, end * slot, frozenset(side)),)
    if draw(st.booleans()):
        crash = {draw(st.integers(0, n - 1)):
                 draw(st.integers(1, n_slots - 1)) * slot + 3.0}
    if draw(st.booleans()):
        byzantine = {draw(st.integers(0, n - 1)):
                     draw(st.sampled_from(STRATEGIES))}
    load = LoadProfile(arrival_rate=draw(st.sampled_from([5.0, 60.0, 250.0])),
                       duration_ms=n_slots * slot)
    return Sim(cfg, FaultPlan(byzantine=byzantine, partitions=partitions,
                              crash_ms=crash), load, protocol)


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_every_view_matches_the_nodes_chain_and_the_schedule(sim):
    seen = _recording(sim)
    log = sim.run()
    assert log.violations == []
    assert seen
    checked = set()
    for node, slot, chain, view in seen:
        pool = _reference(sim, slot, chain)
        assert view.pool == pool, (node, slot)
        cap = sim.cfg.spike_snapshot_cap if sim.protocol == "posn" else 0
        assert view.spike_txs == pool[:cap]
        assert view.block_txs == pool[:sim.cfg.max_block_txs]
        key = (slot, chain.tip_hash)
        if key not in checked:
            checked.add(key)
            assert view.ctx == sim._context(slot, chain.tip_hash,
                                            view.spike_txs)


def test_a_tip_several_blocks_ahead_derives_from_its_ancestors_pool():
    # a node can append several queued blocks in one slot, past tips that
    # nobody began the slot on; its pool comes from the nearest ancestor
    # that has one, minus every block in between
    cfg = default_config(4, master_seed=8, max_block_txs=3)
    sim = Sim(cfg, FaultPlan(), LoadProfile(250.0, 6 * cfg.slot_ms()))
    sim._schedule_load()
    chain = ChainState()
    for slot in range(3):
        view = sim._view(slot, chain)
        assert view.pool == _reference(sim, slot, chain)
        if slot == 0:
            genesis_view = view
        block = Block(slot=slot, proposer=sim.keys.validator(0),
                      parent_hash=chain.tip_hash, txs=view.block_txs,
                      claimed_fire_step=0, vrf_output=None)
        chain = replace(chain, finalized=chain.finalized + (block,))
    # begin slot 1 on a tip three blocks past the only slot-0 pool
    sim._views = {(0, GENESIS_HASH): genesis_view}
    assert sim._view(1, chain).pool == _reference(sim, 1, chain)


def test_pools_are_built_once_per_slot_and_tip(monkeypatch):
    builds = collections.Counter()

    def counting(*args):
        builds[n] += 1
        return merge_pool(*args)

    monkeypatch.setattr(netsim, "merge_pool", counting)
    tips = {}
    for n in (4, 16):
        cfg = default_config(n, master_seed=4)
        sim = Sim(cfg, FaultPlan(), LoadProfile(250.0, 12 * cfg.slot_ms()))
        seen = _recording(sim)
        sim.run()
        tips[n] = {(slot, chain.tip_hash) for _, slot, chain, _ in seen}
        assert len(seen) == n * sim.n_slots
        assert builds[n] == len(tips[n])
    # the nodes share their tip at each slot start, however many they are
    assert builds[16] == builds[4] == sim.n_slots


# --- each view's context is the one store of slot contexts -----------------

def _signed(sim, proposer, slot, parent_hash, txs, claimed_fire_step=0):
    """A signed block by validator `proposer`."""
    block = Block(slot=slot, proposer=sim.keys.validator(proposer),
                  parent_hash=parent_hash, txs=txs,
                  claimed_fire_step=claimed_fire_step, vrf_output=None)
    return replace(block, proposer_signature=sign(
        sim.keys.sk(proposer), block.core_bytes()))


def test_nodes_judge_forged_spikes_by_the_context_their_slot_began_with(
        monkeypatch, verdicts, cfg4):
    sim = Sim(cfg4, FaultPlan(), LoadProfile(250.0, 10 * cfg4.slot_ms()))
    sim._schedule_load()
    slot, now = 3, 3 * sim.slot_ms
    for node in sim.nodes:
        node.begin_slot(slot, now)
    view = sim.nodes[0].slot.view
    assert view.spike_txs
    election = view.ctx.election
    # a proposer the slot's election refutes
    liar = next(i for i in range(4)
                if election is None or i != election.leader.index)
    forged = _signed(sim, liar, slot, GENESIS_HASH, view.block_txs)
    replays = collections.Counter()
    for node in sim.nodes:
        def counting(*args, _node=node.index, _inner=node._replay):
            replays[_node] += 1
            return _inner(*args)
        node._replay = counting

    # the node's tip and an equal but distinct spike tuple: penalized by
    # the stored context, with no neuron replayed
    def no_replay(*args, **kwargs):
        raise AssertionError("first_spike_step called despite a stored ctx")

    with monkeypatch.context() as patched:
        patched.setattr("posn.consensus.first_spike_step", no_replay)
        copy = tuple(Transaction(**{f: getattr(tx, f)
                                    for f in tx.__dataclass_fields__})
                     for tx in view.spike_txs)
        assert copy == view.spike_txs and copy[0] is not view.spike_txs[0]
        sim.nodes[0].on_message(now,
                                ForgedSpike(forged, copy, GENESIS_HASH))
        assert [(e.validator, e.slot, e.reason)
                for e in sim.nodes[0].chain.penalties_log] == [
            (liar, slot, "forged_spike")]

        # another tip or another spike set: ignored, not even remembered
        for evidence in (ForgedSpike(forged, view.spike_txs, b"\x07" * 32),
                         ForgedSpike(forged, view.spike_txs[1:],
                                     GENESIS_HASH)):
            sim.nodes[1].on_message(now, evidence)
        assert sim.nodes[1].chain.penalties_log == ()
        assert sim.nodes[1].evidence_seen == set()

    # found after a finalization moved the node's tip mid-slot: the one
    # replay, of (slot, current tip, old spike set), and only once
    node = sim.nodes[2]
    earlier = _signed(sim, 0, slot - 1, GENESIS_HASH, ())
    node.chain = replace(node.chain, finalized=(earlier,))
    on_new_tip = _signed(sim, liar, slot, node.chain.tip_hash,
                         view.block_txs)
    node.on_message(now, on_new_tip)
    judge, _, verdict = verdicts[-1]
    assert judge == 2 and verdict.reason in ("SpikeMismatch", "NotElected")
    assert ("forged_spike", liar, slot) in node.evidence_seen
    assert replays == {2: 1}
    # a second forgery by the same proposer is already proven
    node.on_message(now, _signed(sim, liar, slot, node.chain.tip_hash,
                                 view.block_txs, 1))
    judge, _, verdict = verdicts[-1]
    assert judge == 2 and verdict.reason in ("SpikeMismatch", "NotElected")
    assert replays == {2: 1}
