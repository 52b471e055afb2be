from dataclasses import fields, replace
from hashlib import blake2b

import pytest

from posn.consensus import Keyring, make_vote, propose, quorum_threshold
from posn.core import (
    GENESIS_HASH,
    Block,
    ChainState,
    Config,
    ConfigError,
    InvalidVoteSignature,
    ParentMismatch,
    QuorumTooSmall,
    append_block,
    default_config,
    dumps_canonical,
    hash_block,
    select_mempool,
)
from posn.crypto import sign
from posn.neuro import make_slot_seed
from posn.consensus import ElectionResult

from conftest import make_tx, make_txs


def test_signing_bytes_cover_all_fields():
    tx = make_tx(3)
    assert tx.signing_bytes() != replace(tx, value=tx.value + 1).signing_bytes()
    assert tx.signing_bytes() != replace(tx, fee=tx.fee + 1).signing_bytes()
    assert tx.signing_bytes() != replace(tx, id=b"\x01" * 32).signing_bytes()
    # the signature itself is not part of the signed content
    assert tx.signing_bytes() == replace(tx, signature=None).signing_bytes()


def _leader_block(keys, cfg, txs, slot=0, parent=GENESIS_HASH):
    leader = keys.validator(0)
    election = ElectionResult(leader=leader, fire_step=3,
                              tie_set=frozenset([0]), vrf_used=False,
                              vrf_output=None)
    return propose(leader, keys.sk(0), slot, parent, txs, election, cfg)


def test_block_hash_changes_with_content(cfg4, keys4, txs):
    block = _leader_block(keys4, cfg4, txs)
    other = replace(block, claimed_fire_step=block.claimed_fire_step + 1)
    assert hash_block(block) != hash_block(other)
    assert hash_block(block) == hash_block(replace(block))


def test_block_hash_ignores_proposer_signature(cfg4, keys4, txs):
    block = _leader_block(keys4, cfg4, txs)
    resigned = replace(block, proposer_signature=sign(keys4.sk(1), b"x"))
    assert hash_block(block) == hash_block(resigned)


def _fresh(block):
    # a new instance built from the block's fields, with no cache yet
    return Block(**{f.name: getattr(block, f.name) for f in fields(block)})


def _uncached_hash(block):
    return blake2b(_fresh(block).core_bytes(), digest_size=32).digest()


def test_block_hash_cache_matches_a_fresh_block(cfg4, keys4, txs):
    block = _leader_block(keys4, cfg4, txs)
    before = (repr(block), block.to_json(), hash(block))
    cached = hash_block(block)
    assert hash_block(block) is cached
    assert cached == _uncached_hash(block)
    # the cache sits outside the fields: nothing else sees it
    again = _fresh(block)
    assert again == block
    assert (repr(block), block.to_json(), hash(block)) == before
    # a replace()d block hashes afresh; a re-signed one hashes the same
    shorter = replace(block, txs=block.txs[:-1])
    assert hash_block(shorter) == _uncached_hash(shorter) != cached
    resigned = replace(block, proposer_signature=sign(keys4.sk(1), b"x"))
    assert hash_block(resigned) == cached


def test_select_mempool_orders_by_fee_then_id():
    txs = [make_tx(i, value=100, fee=f) for i, f in
           enumerate([5, 20, 20, 1, 50])]
    picked = select_mempool(txs, 3)
    fees = [t.fee for t in picked]
    assert fees == [50, 20, 20]
    # equal fees fall back to the id ordering
    assert picked[1].id < picked[2].id


def test_select_mempool_caps_size():
    txs = make_txs(11, 10)
    assert len(select_mempool(txs, 4)) == 4
    assert len(select_mempool(txs, 64)) == 10


def test_default_config_fills_f_max():
    assert default_config(4).f_max == 1
    assert default_config(7).f_max == 2
    assert default_config(10).f_max == 3


@pytest.mark.parametrize("n,bad", [
    (3, {"f_max": 1}),                   # 3 < 3*1+1
    (4, {"f_max": 2}),                   # 4 < 3*2+1
    (4, {"r_max": 1200.0}),              # per-step probability >= 1
    (4, {"encoding": "morse"}),
    (4, {"tau_steps": 0}),
    (4, {"theta": 0.0}),
    (4, {"n_clients": 0}),               # no one to submit the load
    (4, {"delta_net_ms": 0.5}),          # delays are whole ms in [1, delta]
])
def test_config_validate_rejects(n, bad):
    with pytest.raises(ConfigError):
        default_config(n, **bad).validate()


def test_config_slot_budget_covers_round_trips(cfg4):
    base = cfg4.tau_steps * cfg4.dt_ms
    assert cfg4.slot_ms() >= base + 2 * cfg4.delta_net_ms
    assert cfg4.slot_ms("por") > cfg4.slot_ms("posn")
    assert cfg4.slot_ms("pob") > cfg4.slot_ms("por")


def _finalize_once(cfg, keys, txs, chain):
    block = _leader_block(keys, cfg, txs, slot=len(chain.finalized),
                          parent=chain.tip_hash)
    votes = [make_vote(keys.validator(i), keys.sk(i), block.slot,
                       hash_block(block))
             for i in range(quorum_threshold(cfg.n_validators))]
    return append_block(chain, block, votes, cfg, store=keys), block, votes


def test_append_block_updates_chain(cfg4, keys4, txs):
    chain, block, _ = _finalize_once(cfg4, keys4, txs, ChainState())
    assert len(chain.finalized) == 1
    assert chain.tip_hash == hash_block(block)
    assert chain.check_integrity() == []
    # leader got base reward plus fees, each voter the vote reward
    fees = sum(t.fee for t in block.txs)
    assert chain.balances[0] == cfg4.r_base + fees + cfg4.r_vote
    assert chain.total_minted == sum(chain.balances.values())


def test_append_block_rejects_wrong_parent(cfg4, keys4, txs):
    chain = ChainState()
    block = _leader_block(keys4, cfg4, txs, parent=b"\x01" * 32)
    votes = [make_vote(keys4.validator(i), keys4.sk(i), 0, hash_block(block))
             for i in range(3)]
    with pytest.raises(ParentMismatch):
        append_block(chain, block, votes, cfg4, store=keys4)


def test_append_block_rejects_small_quorum(cfg4, keys4, txs):
    chain = ChainState()
    block = _leader_block(keys4, cfg4, txs)
    votes = [make_vote(keys4.validator(i), keys4.sk(i), 0, hash_block(block))
             for i in range(2)]
    with pytest.raises(QuorumTooSmall):
        append_block(chain, block, votes, cfg4, store=keys4)


def test_append_block_ignores_duplicate_voters(cfg4, keys4, txs):
    chain = ChainState()
    block = _leader_block(keys4, cfg4, txs)
    one = make_vote(keys4.validator(0), keys4.sk(0), 0, hash_block(block))
    with pytest.raises(QuorumTooSmall):
        append_block(chain, block, [one, one, one], cfg4, store=keys4)


def test_append_block_rejects_bad_vote_signature(cfg4, keys4, txs):
    chain = ChainState()
    block = _leader_block(keys4, cfg4, txs)
    votes = [make_vote(keys4.validator(i), keys4.sk(i), 0, hash_block(block))
             for i in range(3)]
    votes[1] = replace(votes[1], signature=votes[0].signature)
    with pytest.raises(InvalidVoteSignature):
        append_block(chain, block, votes, cfg4, store=keys4)


def test_chain_growth_keeps_integrity(cfg4, keys4):
    chain = ChainState()
    for i in range(5):
        chain, _, _ = _finalize_once(cfg4, keys4, make_txs(i, 3), chain)
    assert len(chain.finalized) == 5
    assert chain.check_integrity() == []


def test_check_integrity_flags_tampering(cfg4, keys4, txs):
    chain, _, _ = _finalize_once(cfg4, keys4, txs, ChainState())
    bad = replace(chain, total_minted=chain.total_minted + 1)
    assert any("conservation" in p for p in bad.check_integrity())


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [1, 2], "c": None})
    b = dumps_canonical({"c": None, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a


def test_slot_seed_depends_on_all_inputs(txs):
    seed = make_slot_seed(GENESIS_HASH, 0, txs)
    assert seed != make_slot_seed(GENESIS_HASH, 1, txs)
    assert seed != make_slot_seed(b"\x02" * 32, 0, txs)
    assert seed != make_slot_seed(GENESIS_HASH, 0, txs[:-1])
    # order of the tx list does not matter
    assert seed == make_slot_seed(GENESIS_HASH, 0, list(reversed(txs)))
