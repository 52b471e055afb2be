import ast
import math
from dataclasses import fields, replace
from hashlib import blake2b
from pathlib import Path
from typing import Literal, Optional

import pytest

import posn.core
from posn.consensus import (Keyring, distribute_rewards, make_vote, propose,
                            quorum_threshold)
from posn.core import (
    GENESIS_HASH,
    Block,
    ChainState,
    Config,
    ConfigError,
    AtLeast,
    append_block,
    check_type,
    default_config,
    dumps_canonical,
    hash_block,
    select_mempool,
    tx_signing_bytes,
    vote_signing_bytes,
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
                              tie_set=frozenset([0]))
    return propose(keys.sk(0), slot, parent,
                   select_mempool(txs, cfg.max_block_txs), election)


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
    before = (repr(block), hash(block))
    cached = hash_block(block)
    assert hash_block(block) is cached
    assert cached == _uncached_hash(block)
    # the cache sits outside the fields: nothing else sees it
    again = _fresh(block)
    assert again == block
    assert (repr(block), hash(block)) == before
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
    (4.0, {}),                           # counts are integers
    (4, {"f_max": 1.0}),
    (4, {"tau_steps": 2.5}),
    (4, {"max_block_txs": 2.5}),
    (4, {"spike_snapshot_cap": 3.5}),
    (4, {"n_clients": 2.5}),
    (4, {"n_clients": True}),            # a bool is not a count
    (4, {"gst_ms": -1.0}),
    (4, {"master_seed": -1}),            # seeds are u64
    (4, {"master_seed": 2 ** 64}),
    (4, {"lam": math.nan}),
    (4, {"delta_net_ms": 10 ** 400}),    # an int no float can hold
    (4, {"encoding": 3}),
    (4, {"c_fee": 0.0}),                 # fee/(fee+c) at fee 0
    (4, {"pob_overhead_ms": -1.0}),
    (4, {"penalty_redistribute": 1}),
    (4, {"d_embed": True}),
])
def test_config_validate_rejects(n, bad):
    # a Config checks itself when it is built: an invalid one cannot exist
    with pytest.raises(ConfigError):
        default_config(n, **bad)


def test_config_checks_itself_again_on_replace(cfg4):
    with pytest.raises(ConfigError) as info:
        replace(cfg4, tau_steps=2.5)
    assert str(info.value) == "tau_steps: must be int, got 2.5"
    with pytest.raises(ConfigError, match=r"^f_max: "):
        replace(cfg4, n_validators=3)


def test_config_keeps_an_int_given_for_a_float_field():
    cfg = default_config(4, delta_net_ms=50, pob_overhead_ms=None)
    assert type(cfg.delta_net_ms) is int
    assert '"delta_net_ms":50,' in dumps_canonical(cfg.to_json())


@pytest.mark.parametrize("value,tp,path", [
    (True, int, "x"),                    # a bool is no int
    (1.5, int, "x"),
    (None, float, "x"),
    ("1", float, "x"),
    (math.inf, float, "x"),
    (-1, AtLeast[int, 0], "x"),
    ("posn ", Literal["posn"], "x"),
    ({1: "a", "b": "c"}, dict[int, str], "x['b']"),
    ({1: 2}, dict[int, str], "x[1]"),
    ([1, "a"], list[int], "x[1]"),
    ((1, None), tuple[int, ...], "x[1]"),
    ({0: -1.0}, Optional[dict[int, AtLeast[float, 0]]], "x[0]"),
])
def test_check_type_names_the_bad_item(value, tp, path):
    with pytest.raises(ConfigError) as info:
        check_type(value, tp, "x")
    assert info.value.path == path


@pytest.mark.parametrize("value,tp", [
    (3, float), (2.5, float), (None, Optional[float]), (False, bool),
    (0, AtLeast[int, 0]), ({}, dict[int, str]), (frozenset({2}),
                                                 frozenset[int]),
])
def test_check_type_accepts(value, tp):
    check_type(value, tp, "x")


def test_signed_values_are_built_from_their_fields(keys4):
    tx = make_tx(5)
    assert tx.signing_bytes() == tx_signing_bytes(
        tx.id, tx.sender, tx.receiver, tx.value, tx.fee)
    vote = make_vote(keys4.validator(1), keys4.sk(1), 7, b"\x02" * 32)
    assert vote.signing_bytes() == vote_signing_bytes(7, b"\x02" * 32)
    assert keys4.check(vote.voter.pk, vote.signing_bytes(), vote.signature)


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
    credits = distribute_rewards(block, votes, cfg)
    return append_block(chain, block, credits), block, votes


def test_append_block_updates_chain(cfg4, keys4, txs):
    chain, block, _ = _finalize_once(cfg4, keys4, txs, ChainState())
    assert len(chain.finalized) == 1
    assert chain.tip_hash == hash_block(block)
    assert chain.check_integrity() == []
    # leader got base reward plus fees, each voter the vote reward
    fees = sum(t.fee for t in block.txs)
    assert chain.balances[0] == cfg4.r_base + fees + cfg4.r_vote
    assert chain.total_minted == sum(chain.balances.values())


def test_append_block_mints_exactly_its_credits(cfg4, keys4, txs):
    # the chain trusts its caller's quorum: the credits are all it applies
    block = _leader_block(keys4, cfg4, txs)
    chain = append_block(ChainState(balances={1: 5}), block, {2: 7, 1: 3})
    assert chain.finalized == (block,)
    assert chain.balances == {1: 8, 2: 7}
    assert chain.total_minted == 10


def _imported_modules(tree):
    """Every module, or module attribute, an import in `tree` names;
    relative imports resolve inside the posn package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "posn" + (f".{base}" if base else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_core_imports_nothing_from_consensus():
    # core sits below consensus, which owns the quorum rule and the vote
    # checks: no import of it may appear in core, lazy or TYPE_CHECKING-only
    with open(posn.core.__file__) as fh:
        names = list(_imported_modules(ast.parse(fh.read())))
    assert "posn.crypto" in names
    assert [name for name in names if name == "posn.consensus"
            or name.startswith("posn.consensus.")] == []


def _unread_imports(tree):
    """The names that an import in `tree` binds and that no expression in
    it reads; a name listed in `__all__` is read, as an export."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_no_posn_module_imports_a_name_it_never_reads():
    # an unread import is dead code that perfbench's span tracer still
    # has to find and wrap; no linter is part of the test run
    package = Path(posn.core.__file__).parent
    unread = {path.name: _unread_imports(ast.parse(path.read_text()))
              for path in sorted(package.glob("*.py"))}
    assert len(unread) > 10
    assert {name: names for name, names in unread.items() if names} == {}


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
