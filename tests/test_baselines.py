import collections
from dataclasses import replace

import pytest

from posn import crypto
from posn.baselines import (
    beacon_data,
    make_elector,
    pob_elect,
    por_elect,
    uniform_scores,
)
from posn.consensus import (ForgedSpike, InvalidEvidence, Keyring, propose,
                            validate_proposal, verify_evidence)
from posn.core import GENESIS_HASH, ConfigError, default_config
from posn.metrics import leader_entropy
from posn.netsim import FaultPlan, LoadProfile, Sim


@pytest.fixture
def keys8():
    return Keyring(77, 8)


def test_por_picks_smallest_vrf(keys8):
    winner = por_elect(12, GENESIS_HASH, keys8.validators, keys8)
    data = beacon_data(12, GENESIS_HASH)
    values = {v.index: crypto.vrf_eval(keys8.sk(v.index), data).value
              for v in keys8.validators}
    assert values[winner.index] == min(values.values())


def test_por_deterministic_and_parent_sensitive(keys8):
    a = por_elect(3, GENESIS_HASH, keys8.validators, keys8)
    assert a == por_elect(3, GENESIS_HASH, keys8.validators, keys8)
    winners = {por_elect(3, bytes([b]) * 32, keys8.validators, keys8).index
               for b in range(30)}
    assert len(winners) > 1


def test_por_entropy_over_many_slots(keys8):
    counts = collections.Counter(
        por_elect(s, GENESIS_HASH, keys8.validators, keys8).index
        for s in range(4000))
    assert len(counts) == 8
    assert leader_entropy(counts) >= 2.9


def test_pob_proportional_sampling(keys8):
    vs = keys8.validators
    scores = {vs[0]: 3.0, vs[1]: 1.0}
    counts = collections.Counter(
        pob_elect(s, scores, seed=5).index for s in range(8000))
    assert set(counts) == {0, 1}
    ratio = counts[0] / counts[1]
    assert 2.6 < ratio < 3.4


def test_pob_deterministic_per_seed_and_slot(keys8):
    scores = uniform_scores(keys8.validators)
    assert pob_elect(9, scores, seed=1) == pob_elect(9, scores, seed=1)
    picks1 = [pob_elect(s, scores, seed=1).index for s in range(50)]
    picks2 = [pob_elect(s, scores, seed=2).index for s in range(50)]
    assert picks1 != picks2


def test_pob_scale_invariance(keys8):
    scores = {v: float(3 + v.index) for v in keys8.validators}
    scaled = {v: s * 4.0 for v, s in scores.items()}
    for s in range(200):
        assert pob_elect(s, scores, 7) == pob_elect(s, scaled, 7)


def test_pob_rejects_degenerate_scores(keys8):
    # the rule is checked once, when the run's inputs are put together
    cfg = default_config(8, master_seed=77)
    load = LoadProfile(arrival_rate=10.0, duration_ms=2000.0)
    for scores in ({i: 0.0 for i in range(8)}, {0: 2.0, 1: -1.0}):
        with pytest.raises(ConfigError, match=r"^pob_scores"):
            Sim(cfg, FaultPlan(), load, "pob", pob_scores=scores)


def test_pob_zero_score_never_wins(keys8):
    vs = keys8.validators
    scores = {vs[0]: 1.0, vs[1]: 0.0, vs[2]: 2.0}
    picks = {pob_elect(s, scores, 3).index for s in range(500)}
    assert 1 not in picks


def test_uniform_scores(keys8):
    scores = uniform_scores(keys8.validators)
    assert set(scores.values()) == {1.0}
    assert len(scores) == 8


def test_make_elector_por(keys8):
    cfg = default_config(8, master_seed=77)
    replay = make_elector("por", cfg, keys8)
    ctx = replay(4, GENESIS_HASH, ())
    result = ctx.election
    assert ctx.fire_steps is None  # no neuron is replayed
    assert result.leader == por_elect(4, GENESIS_HASH, keys8.validators, keys8)
    assert result.fire_step == 0
    assert not result.vrf_used


def test_make_elector_pob_uses_scores(keys8):
    cfg = default_config(8, master_seed=77)
    vs = keys8.validators
    replay = make_elector("pob", cfg, keys8, scores={vs[5]: 1.0})
    assert replay(0, GENESIS_HASH, ()).election.leader == vs[5]


def test_baseline_context_judges_proposals_and_evidence(keys8):
    # the baseline context plugs into the one validator and the one
    # evidence check: its leader is judged by the election alone, with
    # no neuron replay, and proving it "forged" takes another leader
    cfg = default_config(8, master_seed=77)
    replay = make_elector("por", cfg, keys8)
    ctx = replay(4, GENESIS_HASH, ())
    leader = ctx.election.leader
    other = keys8.validator((leader.index + 1) % 8)
    blocks = {vid: propose(vid, keys8.sk(vid.index), 4, GENESIS_HASH, (),
                           replace(ctx.election, leader=vid), cfg)
              for vid in (leader, other)}
    assert validate_proposal(blocks[leader], 4, GENESIS_HASH, (), cfg, keys8,
                             ctx).accepted
    verdict = validate_proposal(blocks[other], 4, GENESIS_HASH, (), cfg,
                                keys8, ctx)
    assert verdict.reason == "NotElected"
    with pytest.raises(InvalidEvidence):
        verify_evidence(ForgedSpike(blocks[leader], (), GENESIS_HASH), keys8,
                        ctx)
    verify_evidence(ForgedSpike(blocks[other], (), GENESIS_HASH), keys8, ctx)


def test_make_elector_unknown_protocol(keys8):
    cfg = default_config(8, master_seed=77)
    with pytest.raises(ValueError):
        make_elector("paxos", cfg, keys8)
