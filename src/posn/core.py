"""Domain types shared by every module: transactions, blocks, votes, the
finalized chain with its reward ledger, and run configuration.

Canonical serialization is length/width-fixed little-endian binary, used
for hashing and signing. Runs are exported as canonical JSON
(`dumps_canonical`), where blocks and transactions appear only as hex
hashes and ids. All value types are frozen; chain updates are
copy-on-write so values are safely shareable across threads.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from hashlib import blake2b
from typing import (Annotated, Literal, Optional, Sequence, Union, get_args,
                    get_origin, get_type_hints)

from .crypto import Signature, VrfOutput

GENESIS_HASH = b"\x00" * 32

# key index of the first transaction submitter: key indices below it are
# validators, at and above it clients, so it bounds the validator count
CLIENT_BASE = 10_000

SlotId = int  # non-negative slot counter, +1 per consensus round


class PosnError(Exception):
    """Base class for protocol and configuration errors."""


class ConfigError(PosnError):
    """A bad input, as "<key path>: <problem>" (a field or scenario key)."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}")
        self.path, self.problem = path, problem


# ---------------------------------------------------------------------------
# canonical binary encoding
# ---------------------------------------------------------------------------

def u32(x: int) -> bytes:
    return int(x).to_bytes(4, "little", signed=False)


def u64(x: int) -> bytes:
    return int(x).to_bytes(8, "little", signed=False)


def i64(x: int) -> bytes:
    return int(x).to_bytes(8, "little", signed=True)


# what a signature covers, from the fields: a signer builds each value once
def tx_signing_bytes(tx_id: bytes, sender: bytes, receiver: bytes,
                     value: int, fee: int) -> bytes:
    return b"posn-tx" + tx_id + sender + receiver + u64(value) + u64(fee)


def vote_signing_bytes(slot: SlotId, block_hash: bytes) -> bytes:
    return b"posn-vote" + u64(slot) + block_hash


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    """Unit of load: (id, sender, receiver, value, fee, signature).

    `id` is a unique 32-byte identifier; addresses are 32-byte account
    keys; value and fee are non-negative integers in base units.
    """
    id: bytes
    sender: bytes
    receiver: bytes
    value: int
    fee: int
    signature: Signature

    def signing_bytes(self) -> bytes:
        return self._signing_bytes

    # cached like Block's core bytes, so every check of this signature
    # hashes one bytes object
    @cached_property
    def _signing_bytes(self) -> bytes:
        return tx_signing_bytes(self.id, self.sender, self.receiver,
                                self.value, self.fee)

    def to_bytes(self) -> bytes:
        return (self.id + self.sender + self.receiver + u64(self.value)
                + u64(self.fee) + self.signature.tag)


@dataclass(frozen=True)
class ValidatorId:
    index: int
    pk: bytes


@dataclass(frozen=True)
class Block:
    """Candidate/finalized block for one slot.

    `claimed_fire_step` is the proposer's first-spike micro-step (0 for
    the PoB/PoR baselines); `vrf_output` is attached when a tie-break or
    beacon value backs the claim. The block hash covers everything but
    the proposer signature.
    """
    slot: SlotId
    proposer: ValidatorId
    parent_hash: bytes
    txs: tuple[Transaction, ...]
    claimed_fire_step: int
    vrf_output: Optional[VrfOutput]
    proposer_signature: Optional[Signature] = None

    def core_bytes(self) -> bytes:
        return self._core_bytes

    # cached in the instance __dict__, outside the dataclass fields, so
    # equality, repr and replace() never see it; the fields are frozen,
    # so the bytes cannot go stale
    @cached_property
    def _core_bytes(self) -> bytes:
        parts = [b"posn-block", u64(self.slot), u32(self.proposer.index),
                 self.proposer.pk, self.parent_hash, u32(len(self.txs))]
        parts.extend(tx.to_bytes() for tx in self.txs)
        parts.append(i64(self.claimed_fire_step))
        if self.vrf_output is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + self.vrf_output.value + self.vrf_output.proof)
        return b"".join(parts)


@dataclass(frozen=True)
class Vote:
    slot: SlotId
    block_hash: bytes
    voter: ValidatorId
    signature: Signature

    def signing_bytes(self) -> bytes:
        return self._signing_bytes

    @cached_property
    def _signing_bytes(self) -> bytes:
        return vote_signing_bytes(self.slot, self.block_hash)


@dataclass(frozen=True)
class PenaltyEntry:
    validator: int
    slot: SlotId
    amount: int
    reason: str


@dataclass(frozen=True)
class ChainState:
    """Finalized chain plus the reward ledger.

    Copy-on-write: append_block / penalty application return fresh
    instances. `balances` maps validator index -> signed reward balance;
    minted/burned totals make conservation checkable at any point. The
    chain checks no quorum and no parent link: its owner appends only a
    block whose votes it checked and whose parent is the tip.
    """
    finalized: tuple[Block, ...] = ()
    balances: dict[int, int] = field(default_factory=dict)
    penalties_log: tuple[PenaltyEntry, ...] = ()
    total_minted: int = 0
    total_burned: int = 0

    @property
    def tip_hash(self) -> bytes:
        return hash_block(self.finalized[-1]) if self.finalized else GENESIS_HASH

    def check_integrity(self) -> list[str]:
        """Full rescan: hash-chain links, slot monotonicity, conservation."""
        problems = []
        prev_hash = GENESIS_HASH
        prev_slot = -1
        for blk in self.finalized:
            if blk.parent_hash != prev_hash:
                problems.append(f"hash chain broken at slot {blk.slot}")
            if blk.slot <= prev_slot:
                problems.append(f"non-increasing slot {blk.slot}")
            prev_hash = hash_block(blk)
            prev_slot = blk.slot
        if sum(self.balances.values()) + self.total_burned != self.total_minted:
            problems.append("balance conservation violated")
        return problems


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

AtLeast = Annotated  # AtLeast[int, 1]: an int no smaller than 1
_FIELD_TYPES: dict[type, dict] = {}  # dataclass -> its resolved annotations


def require(ok: bool, path: str, problem: str) -> None:
    if not ok:
        raise ConfigError(path, problem)


def check_type(value, tp, path: str) -> None:
    """Raise ConfigError unless `value` is a `tp`, the annotation of the
    input at `path`, items included. A bool is no int; a float input takes
    a finite float or an int, kept as given (so the exported config keeps
    `50`, not `50.0`); AtLeast adds a lower bound."""
    origin, args = get_origin(tp) or tp, get_args(tp)
    if origin is Union:                                  # Optional[X]
        return None if value is None else check_type(value, args[0], path)
    if origin is Annotated:                              # AtLeast[X, low]
        check_type(value, args[0], path)
        return require(value >= args[1], path,
                       f"must be at least {args[1]}, got {value!r}")
    if origin is Literal:
        return require(isinstance(value, str) and value in args, path,
                       f"must be one of {', '.join(args)}, got {value!r}")
    require(isinstance(value, (int, float) if origin is float else origin)
            and (origin is bool or not isinstance(value, bool)), path,
            f"must be {'a number' if origin is float else origin.__name__}"
            f", got {value!r}")
    require(origin is not float or abs(value) <= sys.float_info.max, path,
            f"must be finite, got {value!r}")            # NaN fails too
    if origin is dict and args:
        for key, item in value.items():
            check_type(key, args[0], f"{path}[{key!r}]")
            check_type(item, args[1], f"{path}[{key!r}]")
    elif args:
        for i, item in enumerate(value):
            check_type(item, args[0], f"{path}[{i}]")


def check_fields(params) -> None:
    """Check every field of the dataclass `params` against its annotation."""
    cls = type(params)
    if cls not in _FIELD_TYPES:
        _FIELD_TYPES[cls] = get_type_hints(cls, include_extras=True)
    for name, tp in _FIELD_TYPES[cls].items():
        check_type(getattr(params, name), tp, name)


@dataclass(frozen=True)
class Config:
    """Run parameters: validator set, neuron model, rewards, network.

    Neuron defaults follow the reference setting (leak 0.1/ms, threshold
    1.0, initial potential 0, Poisson arrivals). `tau_steps` micro-steps
    of `dt_ms` discretize one slot's spiking window; the slot period
    additionally budgets two network round trips (see `slot_ms`). A
    Config checks its own fields when it is built, so an invalid one
    cannot exist.
    """
    n_validators: AtLeast[int, 1]
    f_max: AtLeast[int, 0]
    tau_steps: AtLeast[int, 1] = 250
    dt_ms: float = 1.0
    lam: float = 0.1            # leak constant, 1/ms
    theta: float = 1.0          # firing threshold
    v_reset: float = 0.0        # initial potential of each race
    kappa: float = 1000.0       # temporal-coding scale
    epsilon_isi: float = 0.001  # division guard in the ISI formula
    r_min: AtLeast[float, 0] = 0.01  # spikes/ms at fee 0
    r_max: float = 0.05         # spikes/ms asymptote for large fees
    c_value: float = 1000.0     # value normalizer value/(value+c)
    c_fee: float = 1000.0       # fee normalizer fee/(fee+c)
    d_embed: AtLeast[int, 2] = 8
    encoding: Literal["rate", "temporal", "both"] = "rate"
    max_block_txs: AtLeast[int, 0] = 64
    spike_snapshot_cap: AtLeast[int, 1] = 256
    r_base: int = 100           # base block reward
    r_vote: int = 10            # per-quorum-voter reward
    penalty_equivocation: int = 50
    penalty_forged_spike: int = 50
    penalty_redistribute: bool = False
    delta_net_ms: AtLeast[float, 1] = 50.0  # post-GST delay bound, whole ms
    gst_ms: AtLeast[float, 0] = 0.0
    pob_overhead_ms: Optional[AtLeast[float, 0]] = None  # default 2*delta
    por_overhead_ms: Optional[AtLeast[float, 0]] = None  # default 1*delta
    n_clients: AtLeast[int, 1] = 16
    master_seed: AtLeast[int, 0] = 0

    def __post_init__(self) -> None:
        check_fields(self)
        require(self.n_validators <= CLIENT_BASE, "n_validators",
                f"must be at most {CLIENT_BASE}, got {self.n_validators}: "
                f"key indices from {CLIENT_BASE} on belong to clients")
        for name in ("dt_ms", "lam", "kappa", "epsilon_isi", "c_value",
                     "c_fee"):
            require(getattr(self, name) > 0, name, "must be positive")
        n, f = self.n_validators, self.f_max
        require(n >= 3 * f + 1, "f_max", f"N={n} violates N >= 3f+1 for f={f}")
        require(self.theta > self.v_reset, "theta",
                "threshold must exceed reset potential")
        require(self.r_min < self.r_max, "r_min", "need r_min < r_max")
        require(self.r_max * self.dt_ms < 1.0, "r_max",
                "r_max*dt must stay below 1 (Bernoulli validity)")
        require(self.master_seed < 2 ** 64, "master_seed", "must be a u64")

    @property
    def decay(self) -> float:
        return math.exp(-self.lam * self.dt_ms)

    def overhead_ms(self, protocol: str) -> float:
        if protocol == "pob":
            return (self.pob_overhead_ms if self.pob_overhead_ms is not None
                    else 2.0 * self.delta_net_ms)
        if protocol == "por":
            return (self.por_overhead_ms if self.por_overhead_ms is not None
                    else 1.0 * self.delta_net_ms)
        return 0.0

    def slot_ms(self, protocol: str = "posn") -> float:
        # spiking window + propose/vote round trips; +1 ms so the worst
        # honest round trip lands strictly inside the slot
        base = self.tau_steps * self.dt_ms + 2.0 * self.delta_net_ms + 1.0
        return base + self.overhead_ms(protocol)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def default_config(n_validators: int, **overrides) -> Config:
    f_max = overrides.pop("f_max", max(0, (n_validators - 1) // 3))
    return Config(n_validators=n_validators, f_max=f_max, **overrides)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def hash_block(block: Block) -> bytes:
    """Digest over all block fields except the proposer signature,
    computed once per Block instance and cached beside its core bytes."""
    cache = block.__dict__
    digest = cache.get("_hash")
    if digest is None:
        digest = cache["_hash"] = blake2b(block.core_bytes(),
                                          digest_size=32).digest()
    return digest


def select_mempool(mempool: Sequence[Transaction],
                   max_block_txs: int) -> tuple[Transaction, ...]:
    """Deterministic selection: fee descending, id ascending, first `max`.

    Pure function of its inputs; it checks no signatures. This order is
    the spec: the harness keeps each chain tip's pending pool in it, so a
    node's spike set and block selection are prefixes of that pool. The
    load schedule signs every tx, and `consensus.check_signatures` checks
    every tx of a received block.
    """
    ordered = sorted(mempool, key=lambda tx: (-tx.fee, tx.id))
    return tuple(ordered[:max_block_txs])


def append_block(chain: ChainState, block: Block,
                 credits: dict[int, int]) -> ChainState:
    """Append a finalized block and mint `credits` ({validator index:
    amount}) into the balances. The caller has checked the block's quorum
    and that its parent is the tip."""
    balances = dict(chain.balances)
    for idx, amount in credits.items():
        balances[idx] = balances.get(idx, 0) + amount
    return replace(chain, finalized=chain.finalized + (block,),
                   balances=balances,
                   total_minted=chain.total_minted + sum(credits.values()))


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def dumps_canonical(obj) -> str:
    """Stable JSON: sorted keys, compact separators. Byte-identical for
    equal inputs, which the export/determinism checks rely on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
