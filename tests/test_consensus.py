import random
from dataclasses import replace

import pytest

from posn import crypto, kernels
from posn.consensus import (
    ElectionResult,
    Equivocation,
    FinalizeMsg,
    ForgedSpike,
    InvalidEvidence,
    Keyring,
    apply_penalty,
    collect_votes,
    compute_fire_steps,
    compute_slot_context,
    distribute_rewards,
    elect_leader,
    election_data,
    evidence_key,
    make_vote,
    propose,
    quorum_threshold,
    sign_block,
    validate_proposal,
    verify_evidence,
)
from posn.core import (GENESIS_HASH, ChainState, default_config, hash_block,
                       select_mempool)
from posn.kernels import first_fire
from posn.netsim import FaultPlan, LoadProfile, Sim
from posn.neuro import first_spike_step, make_slot_seed

from conftest import make_tx, make_txs


# --- election ---------------------------------------------------------------

def test_quorum_threshold_oracles():
    assert quorum_threshold(4) == 3
    assert quorum_threshold(7) == 5
    assert quorum_threshold(1) == 1
    for n in range(1, 31):
        t = quorum_threshold(n)
        assert t == (2 * n) // 3 + 1
        assert 3 * t > 2 * n          # always a strict 2/3 majority
        assert 3 * (t - 1) <= 2 * n   # and the least such count


def test_elect_leader_nobody_fired(keys4):
    steps = {v: None for v in keys4.validators}
    assert elect_leader(steps, 0, GENESIS_HASH, keys4) is None


def test_elect_leader_unique_min(keys4):
    vs = keys4.validators
    steps = {vs[0]: 7, vs[1]: 3, vs[2]: None, vs[3]: 12}
    result = elect_leader(steps, 0, GENESIS_HASH, keys4)
    assert result.leader == vs[1]
    assert result.fire_step == 3
    assert result.tie_set == frozenset([vs[1]])
    assert result.vrf_output is None


def test_elect_leader_tie_breaks_by_smallest_vrf(keys7):
    vs = keys7.validators
    steps = {v: (2 if v.index in (1, 4, 6) else None) for v in vs}
    result = elect_leader(steps, 9, GENESIS_HASH, keys7)
    assert result.vrf_output is not None
    assert result.tie_set == frozenset([vs[1], vs[4], vs[6]])
    data = election_data(9, GENESIS_HASH)
    values = {i: crypto.vrf_eval(keys7.sk(i), data).value for i in (1, 4, 6)}
    assert result.leader.index == min(values, key=lambda i: (values[i], i))
    assert result.vrf_output.value == values[result.leader.index]
    assert crypto.vrf_verify(result.leader.pk, data, result.vrf_output,
                             store=keys7)


def test_elect_leader_tie_depends_on_slot_and_parent(keys7):
    vs = keys7.validators
    steps = {v: 0 for v in vs}
    winners = {elect_leader(steps, s, GENESIS_HASH, keys7).leader.index
               for s in range(40)}
    assert len(winners) > 3  # the tie-break rotates rather than fixating


def test_compute_fire_steps_matches_single_replay(keys7, monkeypatch):
    rows = []

    def counting(keys, *args):
        rows.append(len(keys))
        return first_fire(keys, *args)

    monkeypatch.setattr(kernels, "first_fire", counting)
    txs = make_txs(24, 3, stores=(keys7,))
    seed = make_slot_seed(GENESIS_HASH, 2, txs)
    for encoding in ("rate", "temporal", "both"):
        # sparse enough that the rows fire apart, and late in a temporal
        # race
        cfg = default_config(7, master_seed=1002, encoding=encoding,
                             kappa=1e6)
        rows.clear()
        steps = compute_fire_steps(keys7.validators, txs, seed, cfg)
        # the race is one kernel call with a row per validator
        assert rows == [7]
        # only the rate trains depend on the validator
        assert (len(set(steps.values())) > 1) == (encoding != "temporal")
        assert None not in steps.values()
        for v in keys7.validators:
            assert steps[v] == first_spike_step(v, txs, seed, cfg)
        assert rows == [7] + [1] * 7


# --- propose / validate -----------------------------------------------------

def _slot_pieces(cfg, keys, txs, slot=0, parent=GENESIS_HASH):
    spike_txs = select_mempool(txs, cfg.spike_snapshot_cap)
    seed = make_slot_seed(parent, slot, spike_txs)
    steps = compute_fire_steps(keys.validators, spike_txs, seed, cfg)
    election = elect_leader(steps, slot, parent, keys)
    return spike_txs, seed, election


def _ctx(cfg, keys, mempool, slot=0, parent=GENESIS_HASH):
    """The context of the slot whose pending pool is `mempool`."""
    return compute_slot_context(
        slot, parent, select_mempool(mempool, cfg.spike_snapshot_cap), cfg,
        keys)


def _selection(cfg, mempool):
    """The block selection of the slot whose pending pool is `mempool`."""
    return select_mempool(mempool, cfg.max_block_txs)


def _propose(cfg, keys, mempool, election, slot=0, parent=GENESIS_HASH):
    """The elected leader's block over `mempool`'s selection."""
    return propose(keys.sk(election.leader.index), slot, parent,
                   _selection(cfg, mempool), election)


def _resign(block, keys, **changes):
    changed = replace(block, **changes)
    return sign_block(changed, keys.sk(changed.proposer.index))


def _validate(cfg, keys, block, mempool, slot=0, parent=GENESIS_HASH):
    """validate_proposal's reason, with the selection and context of the
    slot whose pending pool is `mempool`."""
    return validate_proposal(block, slot, parent, _selection(cfg, mempool),
                             keys, _ctx(cfg, keys, mempool, slot, parent))


def _heavier(txs, keys):
    # bulk the load up until somebody fires
    extra = 0
    while True:
        seed = 900 + extra
        txs = txs + make_txs(seed, 4, stores=(keys,))
        yield txs
        extra += 1


def _electable(cfg, keys, base_txs, slot=0, parent=GENESIS_HASH):
    txs = list(base_txs)
    for txs in _heavier(txs, keys):
        spike_txs, seed, election = _slot_pieces(cfg, keys, txs, slot, parent)
        if election is not None:
            return txs, spike_txs, seed, election
        assert len(txs) < 600, "load never triggered a spike"


def test_propose_then_validate_accepts(cfg4, keys4, txs):
    mempool, spike_txs, seed, election = _electable(cfg4, keys4, txs)
    block = _propose(cfg4, keys4, mempool, election)
    assert block.proposer == election.leader
    assert block.txs == select_mempool(mempool, cfg4.max_block_txs)
    assert block.claimed_fire_step == election.fire_step
    assert block.vrf_output == election.vrf_output
    reason = _validate(cfg4, keys4, block, mempool)
    assert reason is None, reason


def test_propose_signs_the_given_txs_as_given(cfg4, keys4, txs):
    mempool, spike_txs, seed, election = _electable(cfg4, keys4, txs)
    given = tuple(reversed(_selection(cfg4, mempool)))
    block = propose(keys4.sk(election.leader.index), 0, GENESIS_HASH, given,
                    election)
    assert block.txs == given
    assert block == sign_block(replace(block, proposer_signature=None),
                               keys4.sk(election.leader.index))
    assert crypto.verify(block.proposer.pk, block.core_bytes(),
                         block.proposer_signature, store=keys4)


@pytest.fixture
def accepted_block(cfg4, keys4, txs):
    mempool, spike_txs, seed, election = _electable(cfg4, keys4, txs)
    return mempool, _propose(cfg4, keys4, mempool, election), election


def test_validate_rejects_bad_block_signature(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    forged = replace(block, proposer_signature=crypto.sign(keys4.sk(0), b"no"))
    assert _validate(cfg4, keys4, forged, mempool) == "BadBlockSignature"


def test_validate_rejects_unknown_proposer(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    stranger = replace(block.proposer, index=99)
    forged = replace(block, proposer=stranger)
    assert _validate(cfg4, keys4, forged, mempool) == "UnknownProposer"


def test_validate_rejects_tampered_tx(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    txs = list(block.txs)
    txs[0] = replace(txs[0], value=txs[0].value + 1)
    forged = _resign(block, keys4, txs=tuple(txs))
    assert _validate(cfg4, keys4, forged, mempool) == "BadTxSignature"


def test_validate_rejects_wrong_slot(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    assert _validate(cfg4, keys4, block, mempool, 1) == "WrongSlot"


def test_validate_rejects_wrong_parent(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    assert _validate(cfg4, keys4, block, mempool, 0, b"\x05" * 32) \
        == "ParentMismatch"


def test_validate_rejects_wrong_claimed_step(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    lied = _resign(block, keys4,
                   claimed_fire_step=block.claimed_fire_step + 1)
    assert _validate(cfg4, keys4, lied, mempool) == "SpikeMismatch"


def test_validate_rejects_non_winner(cfg4, keys4, accepted_block):
    mempool, block, election = accepted_block
    spike_txs = select_mempool(mempool, cfg4.spike_snapshot_cap)
    seed = make_slot_seed(GENESIS_HASH, 0, spike_txs)
    steps = compute_fire_steps(keys4.validators, spike_txs, seed, cfg4)
    other = next(v for v in keys4.validators
                 if v != election.leader and steps[v] is not None)
    stolen = _resign(block, keys4, proposer=other,
                     claimed_fire_step=steps[other], vrf_output=None)
    assert _validate(cfg4, keys4, stolen, mempool) == "NotElected"


def test_validate_rejects_missing_vrf_proof(cfg7, keys7, txs):
    # force a tie so the vrf proof becomes mandatory
    mempool, spike_txs, seed, election = _electable(cfg7, keys7, txs)
    if election.vrf_output is None:
        pytest.skip("no tie in this draw")
    block = _propose(cfg7, keys7, mempool, election)
    stripped = _resign(block, keys7, vrf_output=None)
    assert _validate(cfg7, keys7, stripped, mempool) == "VrfMismatch"


def test_validate_rejects_wrong_tx_selection(cfg4, keys4, accepted_block):
    mempool, block, _ = accepted_block
    short = _resign(block, keys4, txs=block.txs[:-1])
    assert _validate(cfg4, keys4, short, mempool) == "MempoolMismatch"


def test_validate_check_order(cfg4, keys4, accepted_block):
    # several defects at once: the earlier check names the reason
    mempool, block, _ = accepted_block
    broken = _resign(block, keys4, txs=block.txs[:-1])
    assert _validate(cfg4, keys4, broken, mempool, 3) == "WrongSlot"


def _validation_cases(cfg, keys, mempool, block, election):
    """(expected reason, block, slot, parent) for an accepted block and
    for each of the rejections above."""
    txs = list(block.txs)
    txs[0] = replace(txs[0], value=txs[0].value + 1)
    spike_txs = select_mempool(mempool, cfg.spike_snapshot_cap)
    seed = make_slot_seed(GENESIS_HASH, 0, spike_txs)
    steps = compute_fire_steps(keys.validators, spike_txs, seed, cfg)
    other = next(v for v in keys.validators
                 if v != election.leader and steps[v] is not None)
    assert len(set(block.txs)) >= 2  # so that reversing reorders
    return [
        (None, block, 0, GENESIS_HASH),
        ("BadBlockSignature", replace(block, proposer_signature=crypto.sign(
            keys.sk(0), b"no")), 0, GENESIS_HASH),
        ("UnknownProposer", replace(block, proposer=replace(
            block.proposer, index=99)), 0, GENESIS_HASH),
        ("BadTxSignature", _resign(block, keys, txs=tuple(txs)), 0,
         GENESIS_HASH),
        ("WrongSlot", block, 1, GENESIS_HASH),
        ("ParentMismatch", block, 0, b"\x05" * 32),
        ("SpikeMismatch", _resign(
            block, keys, claimed_fire_step=block.claimed_fire_step + 1), 0,
         GENESIS_HASH),
        ("NotElected", _resign(block, keys, proposer=other,
                               claimed_fire_step=steps[other],
                               vrf_output=None), 0, GENESIS_HASH),
        ("MempoolMismatch", _resign(block, keys, txs=block.txs[:-1]), 0,
         GENESIS_HASH),
        # the selection reordered, as an equivocator's variant is
        ("MempoolMismatch", _resign(block, keys,
                                    txs=tuple(reversed(block.txs))), 0,
         GENESIS_HASH),
        ("WrongSlot", _resign(block, keys, txs=block.txs[:-1]), 3,
         GENESIS_HASH),
    ]


def _assert_ctx_decides(cfg, keys, mempool, cases, monkeypatch):
    contexts = {(slot, parent): _ctx(cfg, keys, mempool, slot, parent)
                for _, _, slot, parent in cases}

    # the given slot context decides: no neuron is replayed again
    def no_replay(*args):
        raise AssertionError("first_fire called despite ctx")

    monkeypatch.setattr("posn.kernels.first_fire", no_replay)
    reasons = [validate_proposal(blk, slot, parent, _selection(cfg, mempool),
                                 keys, contexts[(slot, parent)])
               for _, blk, slot, parent in cases]
    assert reasons == [reason for reason, *_ in cases]


def test_validate_judges_by_the_given_ctx(cfg4, keys4, accepted_block,
                                          monkeypatch):
    mempool, block, election = accepted_block
    cases = _validation_cases(cfg4, keys4, mempool, block, election)
    _assert_ctx_decides(cfg4, keys4, mempool, cases, monkeypatch)


def test_validate_judges_by_the_given_ctx_on_vrf(cfg7, keys7, txs,
                                                 monkeypatch):
    mempool, spike_txs, seed, election = _electable(cfg7, keys7, txs)
    if election.vrf_output is None:
        pytest.skip("no tie in this draw")
    block = _propose(cfg7, keys7, mempool, election)
    cases = [(None, block, 0, GENESIS_HASH),
             ("VrfMismatch", _resign(block, keys7, vrf_output=None), 0,
              GENESIS_HASH)]
    _assert_ctx_decides(cfg7, keys7, mempool, cases, monkeypatch)


# --- votes ------------------------------------------------------------------

def _votes_for(keys, n, block_hash, slot=0, voters=None):
    voters = range(n) if voters is None else voters
    return [make_vote(keys.validator(i), keys.sk(i), slot, block_hash)
            for i in voters]


def test_collect_votes_threshold(keys4):
    h = b"\x09" * 32
    below = _votes_for(keys4, 4, h, voters=[0, 1])
    ok, quorum = collect_votes(below, h, 0, 4, keys4)
    assert not ok and len(quorum) == 2
    at = _votes_for(keys4, 4, h, voters=[0, 1, 2])
    ok, quorum = collect_votes(at, h, 0, 4, keys4)
    assert ok and len(quorum) == 3


def test_collect_votes_deduplicates(keys4):
    h = b"\x09" * 32
    votes = _votes_for(keys4, 4, h, voters=[0, 0, 0, 1, 1, 2])
    ok, quorum = collect_votes(votes, h, 0, 4, keys4)
    assert ok
    assert sorted(v.voter.index for v in quorum) == [0, 1, 2]


def test_collect_votes_drops_bad_signature(keys4):
    h = b"\x09" * 32
    votes = _votes_for(keys4, 4, h, voters=[0, 1, 2])
    votes[2] = replace(votes[2], signature=votes[0].signature)
    ok, quorum = collect_votes(votes, h, 0, 4, keys4)
    assert not ok and len(quorum) == 2


def test_collect_votes_ignores_other_blocks(keys4):
    h, other = b"\x09" * 32, b"\x0a" * 32
    votes = _votes_for(keys4, 4, h, voters=[0, 1])
    votes += _votes_for(keys4, 4, other, voters=[2, 3])
    ok, quorum = collect_votes(votes, h, 0, 4, keys4)
    assert not ok and len(quorum) == 2


# --- rewards ----------------------------------------------------------------

def test_distribute_rewards_amounts(cfg4, keys4):
    # fees total 27; leader 0 votes too: 100+27 for leading, 10 per
    # voter -> leader credit 137, minted 157.
    txs = tuple(make_tx(i, value=10, fee=f) for i, f in
                enumerate([9, 9, 9]))
    leader = keys4.validator(0)
    election = ElectionResult(leader=leader, fire_step=0,
                              tie_set=frozenset([leader]))
    block = propose(keys4.sk(0), 0, GENESIS_HASH, txs, election)
    votes = _votes_for(keys4, 4, hash_block(block), voters=[0, 1, 2])
    credits = distribute_rewards(block, votes, cfg4)
    assert credits == {0: 137, 1: 10, 2: 10}
    assert list(credits) == [0, 1, 2]   # leader first, voters by index
    assert sum(credits.values()) == 157


def test_distribute_rewards_deduplicates_voters(cfg4, keys4, txs):
    leader = keys4.validator(1)
    election = ElectionResult(leader=leader, fire_step=2,
                              tie_set=frozenset([leader]))
    block = propose(keys4.sk(1), 0, GENESIS_HASH, tuple(txs), election)
    votes = _votes_for(keys4, 4, hash_block(block), voters=[1, 2, 2, 3, 3])
    fees = sum(tx.fee for tx in txs)
    assert distribute_rewards(block, votes, cfg4) == {
        1: cfg4.r_base + fees + cfg4.r_vote, 2: cfg4.r_vote, 3: cfg4.r_vote}


# --- evidence and penalties -------------------------------------------------

def _two_blocks_same_slot(cfg, keys, txs):
    leader = keys.validator(2)
    election = ElectionResult(leader=leader, fire_step=1,
                              tie_set=frozenset([leader]))
    a = propose(keys.sk(2), 4, GENESIS_HASH, tuple(txs), election)
    b = propose(keys.sk(2), 4, GENESIS_HASH, tuple(txs[:-1]), election)
    return a, b


def test_equivocation_evidence_verifies(cfg4, keys4, txs):
    a, b = _two_blocks_same_slot(cfg4, keys4, txs)
    verify_evidence(Equivocation(a, b), keys4)
    assert evidence_key(Equivocation(a, b)) == ("equivocation", 2, 4)


def test_equivocation_requires_distinct_blocks(cfg4, keys4, txs):
    a, _ = _two_blocks_same_slot(cfg4, keys4, txs)
    with pytest.raises(InvalidEvidence):
        verify_evidence(Equivocation(a, a), keys4)


def test_equivocation_requires_real_signatures(cfg4, keys4, txs):
    a, b = _two_blocks_same_slot(cfg4, keys4, txs)
    fake = replace(b, proposer_signature=crypto.sign(keys4.sk(0), b"x"))
    with pytest.raises(InvalidEvidence):
        verify_evidence(Equivocation(a, fake), keys4)


def test_forged_spike_evidence_verifies(cfg4, keys4, txs):
    spike_txs, seed, election = _slot_pieces(cfg4, keys4, txs, slot=0)
    # a signed claim that cannot match the replay
    liar = keys4.validator(3)
    wrong = first_spike_step(liar, spike_txs, seed, cfg4)
    claim = 0 if wrong != 0 else 1
    fake_election = ElectionResult(leader=liar, fire_step=claim,
                                   tie_set=frozenset([liar]))
    block = propose(keys4.sk(3), 0, GENESIS_HASH, tuple(txs), fake_election)
    evidence = ForgedSpike(block, tuple(spike_txs), GENESIS_HASH)
    verify_evidence(evidence, keys4, _ctx(cfg4, keys4, txs))
    # the slot's context is the caller's to give
    with pytest.raises(TypeError):
        verify_evidence(evidence, keys4)


def test_honest_block_is_not_forgery_evidence(cfg4, keys4, txs):
    mempool, spike_txs, seed, election = _electable(cfg4, keys4, txs)
    block = _propose(cfg4, keys4, mempool, election)
    with pytest.raises(InvalidEvidence):
        verify_evidence(ForgedSpike(block, tuple(spike_txs), GENESIS_HASH),
                        keys4, _ctx(cfg4, keys4, mempool))


def _evidence_verdicts(cfg, keys, cases, context_of):
    """Per case: whether verify_evidence accepts it, and what
    apply_penalty makes of a fresh chain (None when it raises), both
    given the context `context_of(evidence)`."""
    out = []
    for _, evidence in cases:
        ctx = context_of(evidence)
        try:
            verify_evidence(evidence, keys, ctx)
            verified = True
        except InvalidEvidence:
            verified = False
        chain = ChainState(balances={evidence.block.proposer.index: 500})
        try:
            penalized = apply_penalty(chain, evidence, cfg, keys, ctx)
        except InvalidEvidence:
            penalized = None
        out.append((verified, penalized))
    return out


def _assert_replay_agrees(cfg, keys, cases, monkeypatch):
    def replayed(ev):
        return compute_slot_context(ev.block.slot, ev.parent_hash,
                                    ev.spike_txs, cfg, keys)

    plain = _evidence_verdicts(cfg, keys, cases, replayed)
    assert [verified for verified, _ in plain] == [v for v, _ in cases]
    assert [p is not None for _, p in plain] == [v for v, _ in cases]

    contexts = {id(ev): replayed(ev) for _, ev in cases}

    # with the slot's context computed beforehand, no neuron is replayed
    def no_replay(*args, **kwargs):
        raise AssertionError("first_fire called despite ctx")

    monkeypatch.setattr("posn.kernels.first_fire", no_replay)
    assert _evidence_verdicts(cfg, keys, cases,
                              lambda ev: contexts[id(ev)]) == plain


def test_evidence_with_and_without_replay_agree(cfg4, keys4, accepted_block,
                                                monkeypatch):
    mempool, block, election = accepted_block
    spike_txs = select_mempool(mempool, cfg4.spike_snapshot_cap)
    seed = make_slot_seed(GENESIS_HASH, 0, spike_txs)
    steps = compute_fire_steps(keys4.validators, spike_txs, seed, cfg4)
    other = next(v for v in keys4.validators
                 if v != election.leader and steps[v] is not None)
    forged = [
        # an honest block proves nothing
        (False, block),
        # a fire step the replay does not give
        (True, _resign(block, keys4,
                       claimed_fire_step=block.claimed_fire_step + 1)),
        # the right step from a proposer who was not elected
        (True, _resign(block, keys4, proposer=other,
                       claimed_fire_step=steps[other], vrf_output=None)),
    ]
    cases = [(valid, ForgedSpike(blk, spike_txs, GENESIS_HASH))
             for valid, blk in forged]
    _assert_replay_agrees(cfg4, keys4, cases, monkeypatch)


def test_evidence_with_and_without_replay_agree_on_vrf(cfg7, keys7, txs,
                                                       monkeypatch):
    mempool, spike_txs, seed, election = _electable(cfg7, keys7, txs)
    if election.vrf_output is None:
        pytest.skip("no tie in this draw")
    leader = election.leader
    block = _propose(cfg7, keys7, mempool, election)
    # fired at the winning step too, but lost the VRF tie-break
    loser = min(election.tie_set - {leader}, key=lambda v: v.index)
    lost = _resign(block, keys7, proposer=loser, vrf_output=None)
    cases = [(False, ForgedSpike(block, spike_txs, GENESIS_HASH)),
             (True, ForgedSpike(lost, spike_txs, GENESIS_HASH))]
    _assert_replay_agrees(cfg7, keys7, cases, monkeypatch)


def test_apply_penalty_burns_by_default(cfg4, keys4, txs):
    a, b = _two_blocks_same_slot(cfg4, keys4, txs)
    chain = ChainState(balances={2: 500})
    chain = apply_penalty(chain, Equivocation(a, b), cfg4, keys4)
    assert chain.balances[2] == 500 - cfg4.penalty_equivocation
    assert chain.total_burned == cfg4.penalty_equivocation
    assert chain.penalties_log[-1].reason == "equivocation"


def test_apply_penalty_is_idempotent(cfg4, keys4, txs):
    a, b = _two_blocks_same_slot(cfg4, keys4, txs)
    chain = ChainState(balances={2: 500})
    chain = apply_penalty(chain, Equivocation(a, b), cfg4, keys4)
    again = apply_penalty(chain, Equivocation(a, b), cfg4, keys4)
    assert again is chain


def test_apply_penalty_redistributes_when_configured(cfg4, keys4, txs):
    cfg = replace(cfg4, penalty_redistribute=True)
    a, b = _two_blocks_same_slot(cfg, keys4, txs)
    chain = ChainState(balances={2: 500})
    chain = apply_penalty(chain, Equivocation(a, b), cfg, keys4)
    p = cfg.penalty_equivocation
    share = p // 3
    assert chain.balances[2] == 500 - p
    for i in (0, 1, 3):
        assert chain.balances[i] == share
    assert chain.total_burned == p - 3 * share
    # conservation holds whatever the rounding
    assert sum(chain.balances.values()) + chain.total_burned == \
        chain.total_minted + 500


def test_apply_penalty_rejects_bogus_evidence(cfg4, keys4, txs):
    a, _ = _two_blocks_same_slot(cfg4, keys4, txs)
    chain = ChainState(balances={2: 500})
    with pytest.raises(InvalidEvidence):
        apply_penalty(chain, Equivocation(a, a), cfg4, keys4)
    assert chain.balances[2] == 500


# --- finalize paths ---------------------------------------------------------
# Each vote is checked where it arrives; the chain trusts the quorum it is
# handed. These cases reach a node as a FinalizeMsg, whose quorum
# collect_votes checks.

@pytest.fixture
def slot1():
    """(sim, the slot-1 leader's block): N=4 nodes on seed 3 that began
    slots 0 and 1 with nothing finalized."""
    cfg = default_config(4, master_seed=3)
    sim = Sim(cfg, FaultPlan(), LoadProfile(40.0, 10 * cfg.slot_ms()))
    sim._schedule_load()
    for slot in (0, 1):
        sent = [o for node in sim.nodes
                for o in node.begin_slot(slot, slot * sim.slot_ms)]
    (proposal,) = sent
    return sim, proposal.payload


def test_a_proposal_or_vote_of_another_slot_is_stale(slot1):
    sim, block = slot1
    node, now = sim.nodes[1], 1.5 * sim.slot_ms
    voter = sim.keys.validator(0)
    vote = make_vote(voter, sim.keys.sk(0), 1, hash_block(block))
    assert node.on_message(now, vote) == []
    slot = node.slot
    before = (set(slot.validated), {h: list(v) for h, v in slot.votes.items()},
              set(slot.voted_indices))
    for other in (0, 2):
        proposal = _resign(block, sim.keys, slot=other)
        assert node.on_message(now, proposal) is None
        assert node.on_message(now, replace(vote, slot=other)) is None
    assert before == (slot.validated, slot.votes, slot.voted_indices)


def test_evidence_and_finalize_of_another_slot_return_a_batch(slot1):
    sim, block = slot1
    node, now = sim.nodes[1], 1.5 * sim.slot_ms
    a = _resign(block, sim.keys, slot=5)
    b = _resign(a, sim.keys, claimed_fire_step=a.claimed_fire_step + 1)
    for payload in (Equivocation(a, b), ForgedSpike(a, (), GENESIS_HASH),
                    FinalizeMsg(a, tuple(_signed_votes(sim, a, [0, 1, 2])))):
        assert isinstance(node.on_message(now, payload), list)


def _finalize(sim, block, votes, to=1):
    """Deliver FinalizeMsg(block, votes) to node `to`; its chain's blocks."""
    node = sim.nodes[to]
    node.on_message(1.5 * sim.slot_ms, FinalizeMsg(block, tuple(votes)))
    return node.chain.finalized


def _signed_votes(sim, block, voters, slot=None):
    slot = block.slot if slot is None else slot
    return _votes_for(sim.keys, sim.cfg.n_validators, hash_block(block),
                      slot=slot, voters=voters)


def test_finalize_with_a_full_quorum_appends(slot1):
    sim, block = slot1
    assert _finalize(sim, block, _signed_votes(sim, block, [0, 1, 2])) \
        == (block,)
    assert sim.nodes[1].slot.quorum_size == 3
    fees = sum(tx.fee for tx in block.txs)
    assert sim.nodes[1].chain.total_minted == sim.cfg.r_base + fees \
        + 3 * sim.cfg.r_vote


def test_finalize_with_a_wrong_slot_vote_neither_appends_nor_raises(slot1):
    sim, block = slot1
    votes = (_signed_votes(sim, block, [0, 1])
             + _signed_votes(sim, block, [2], slot=5))
    assert _finalize(sim, block, votes) == ()


def test_finalize_one_vote_short_does_not_append(slot1):
    sim, block = slot1
    assert _finalize(sim, block, _signed_votes(sim, block, [0, 1])) == ()


def test_finalize_with_repeated_voters_does_not_append(slot1):
    sim, block = slot1
    assert _finalize(sim, block, _signed_votes(sim, block, [0, 0, 1])) == ()


def test_finalize_with_a_forged_vote_signature_does_not_append(slot1):
    sim, block = slot1
    votes = _signed_votes(sim, block, [0, 1, 2])
    votes[2] = replace(votes[2], signature=votes[0].signature)
    assert _finalize(sim, block, votes) == ()


def test_finalize_with_a_bad_block_signature_does_not_append(slot1):
    sim, block = slot1
    forged = replace(block, proposer_signature=crypto.sign(
        sim.keys.sk(block.proposer.index), b"not this block"))
    assert _finalize(sim, forged, _signed_votes(sim, forged, [0, 1, 2])) \
        == ()


def test_finalize_off_the_tip_waits_for_its_parent(slot1):
    sim, block = slot1
    leader = sim.keys.validator(2)
    election = ElectionResult(leader=leader, fire_step=4,
                              tie_set=frozenset([leader]))
    child = propose(sim.keys.sk(2), 2, hash_block(block), (), election)
    assert _finalize(sim, child, _signed_votes(sim, child, [1, 2, 3])) == ()
    assert list(sim.nodes[1].pending_finalize) == [hash_block(block)]
    assert _finalize(sim, block, _signed_votes(sim, block, [0, 1, 2])) \
        == (block, child)
    assert sim.nodes[1].pending_finalize == {}
    assert sim.nodes[1].chain.check_integrity() == []
