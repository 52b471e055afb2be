"""Domain types shared by every module: transactions, blocks, votes, the
finalized chain with its reward ledger, and run configuration.

Canonical serialization is length/width-fixed little-endian binary (used
for hashing and signing); a JSON mirror with hex-encoded byte fields is
used for logs and scenario outputs. All value types are frozen; chain
updates are copy-on-write so values are safely shareable across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from hashlib import blake2b
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .crypto import Signature, VrfOutput

if TYPE_CHECKING:
    from .consensus import Keyring

GENESIS_HASH = b"\x00" * 32

SlotId = int  # non-negative slot counter, +1 per consensus round


class PosnError(Exception):
    """Base class for protocol and configuration errors."""


class ConfigError(PosnError):
    pass


class QuorumTooSmall(PosnError):
    pass


class ParentMismatch(PosnError):
    pass


class InvalidVoteSignature(PosnError):
    pass


# ---------------------------------------------------------------------------
# canonical binary encoding
# ---------------------------------------------------------------------------

def u32(x: int) -> bytes:
    return int(x).to_bytes(4, "little", signed=False)


def u64(x: int) -> bytes:
    return int(x).to_bytes(8, "little", signed=False)


def i64(x: int) -> bytes:
    return int(x).to_bytes(8, "little", signed=True)


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
        return (b"posn-tx" + self.id + self.sender + self.receiver
                + u64(self.value) + u64(self.fee))

    def to_bytes(self) -> bytes:
        return (self.id + self.sender + self.receiver + u64(self.value)
                + u64(self.fee) + self.signature.tag)

    def to_json(self) -> dict:
        return {
            "id": self.id.hex(),
            "sender": self.sender.hex(),
            "receiver": self.receiver.hex(),
            "value": self.value,
            "fee": self.fee,
            "signature": self.signature.tag.hex(),
        }


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

    def to_json(self) -> dict:
        return {
            "slot": self.slot,
            "proposer": self.proposer.index,
            "proposer_pk": self.proposer.pk.hex(),
            "parent_hash": self.parent_hash.hex(),
            "txs": [tx.to_json() for tx in self.txs],
            "claimed_fire_step": self.claimed_fire_step,
            "vrf_value": self.vrf_output.value.hex() if self.vrf_output else None,
            "vrf_proof": self.vrf_output.proof.hex() if self.vrf_output else None,
            "proposer_signature": (self.proposer_signature.tag.hex()
                                   if self.proposer_signature else None),
        }


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
        return b"posn-vote" + u64(self.slot) + self.block_hash

    def to_json(self) -> dict:
        return {"slot": self.slot, "block_hash": self.block_hash.hex(),
                "voter": self.voter.index, "signature": self.signature.tag.hex()}


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
    minted/burned totals make conservation checkable at any point.
    """
    finalized: tuple[Block, ...] = ()
    balances: dict[int, int] = field(default_factory=dict)
    penalties_log: tuple[PenaltyEntry, ...] = ()
    total_minted: int = 0
    total_burned: int = 0

    @property
    def tip_hash(self) -> bytes:
        return hash_block(self.finalized[-1]) if self.finalized else GENESIS_HASH

    def balance(self, validator: int) -> int:
        return self.balances.get(validator, 0)

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

@dataclass(frozen=True)
class Config:
    """Run parameters: validator set, neuron model, rewards, network.

    Neuron defaults follow the reference setting (leak 0.1/ms, threshold
    1.0, reset 0, Poisson arrivals). `tau_steps` micro-steps of `dt_ms`
    discretize one slot's spiking window; the slot period additionally
    budgets two network round trips (see `slot_ms`).
    """
    n_validators: int
    f_max: int
    tau_steps: int = 250
    dt_ms: float = 1.0
    lam: float = 0.1            # leak constant, 1/ms
    theta: float = 1.0          # firing threshold
    v_reset: float = 0.0
    kappa: float = 1000.0       # temporal-coding scale
    epsilon_isi: float = 0.001  # division guard in the ISI formula
    r_min: float = 0.01         # spikes/ms at fee 0
    r_max: float = 0.05         # spikes/ms asymptote for large fees
    c_value: float = 1000.0     # value normalizer value/(value+c)
    c_fee: float = 1000.0       # fee normalizer fee/(fee+c)
    d_embed: int = 8
    encoding: str = "rate"      # rate | temporal | both
    max_block_txs: int = 64
    spike_snapshot_cap: int = 256
    r_base: int = 100           # base block reward
    r_vote: int = 10            # per-quorum-voter reward
    penalty_equivocation: int = 50
    penalty_forged_spike: int = 50
    penalty_redistribute: bool = False
    delta_net_ms: float = 50.0  # post-GST delay bound
    gst_ms: float = 0.0
    pob_overhead_ms: Optional[float] = None  # default 2*delta
    por_overhead_ms: Optional[float] = None  # default 1*delta
    n_clients: int = 16
    master_seed: int = 0

    def validate(self) -> None:
        if self.n_validators < 1:
            raise ConfigError("need at least one validator")
        if self.f_max < 0:
            raise ConfigError("f_max must be non-negative")
        if self.n_validators < 3 * self.f_max + 1:
            raise ConfigError(
                f"N={self.n_validators} violates N >= 3f+1 for f={self.f_max}")
        if self.lam <= 0:
            raise ConfigError("leak constant must be positive")
        if self.theta <= self.v_reset:
            raise ConfigError("threshold must exceed reset potential")
        if self.dt_ms <= 0 or self.tau_steps < 1:
            raise ConfigError("need dt_ms > 0 and tau_steps >= 1")
        if not (0 <= self.r_min < self.r_max):
            raise ConfigError("need 0 <= r_min < r_max")
        if self.r_max * self.dt_ms >= 1.0:
            raise ConfigError("r_max*dt must stay below 1 (Bernoulli validity)")
        if self.encoding not in ("rate", "temporal", "both"):
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if self.kappa <= 0 or self.epsilon_isi <= 0:
            raise ConfigError("kappa and epsilon_isi must be positive")
        if self.d_embed < 2:
            raise ConfigError("embedding needs >= 2 components")
        if self.delta_net_ms < 1:
            # delays are drawn in whole ms from [1, delta]
            raise ConfigError("delay bound must be at least 1 ms")
        if self.n_clients < 1:
            raise ConfigError("need at least one client")
        if self.max_block_txs < 0 or self.spike_snapshot_cap < 1:
            raise ConfigError("bad mempool caps")

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
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return d


def default_config(n_validators: int, **overrides) -> Config:
    f_max = overrides.pop("f_max", max(0, (n_validators - 1) // 3))
    cfg = Config(n_validators=n_validators, f_max=f_max, **overrides)
    cfg.validate()
    return cfg


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

    Pure function of its inputs; callers admit only signature-checked txs.
    """
    ordered = sorted(mempool, key=lambda tx: (-tx.fee, tx.id))
    return tuple(ordered[:max_block_txs])


def append_block(chain: ChainState, block: Block, quorum: Iterable[Vote],
                 cfg: Config, *, store: Keyring) -> ChainState:
    """Append a finalized block and apply its reward events; vote
    signatures are checked through the run's key store.

    Raises QuorumTooSmall / ParentMismatch / InvalidVoteSignature without
    touching the chain.
    """
    from .consensus import distribute_rewards, quorum_threshold

    votes = list(quorum)
    block_hash = hash_block(block)
    voters = set()
    for v in votes:
        if v.block_hash != block_hash or v.slot != block.slot:
            raise InvalidVoteSignature("vote targets a different block")
        if not store.check(v.voter.pk, v.signing_bytes(), v.signature):
            raise InvalidVoteSignature(f"bad vote signature from {v.voter.index}")
        voters.add(v.voter.index)
    if len(voters) < quorum_threshold(cfg.n_validators):
        raise QuorumTooSmall(
            f"{len(voters)} voters < threshold {quorum_threshold(cfg.n_validators)}")
    if block.parent_hash != chain.tip_hash:
        raise ParentMismatch("block does not extend the chain tip")

    events = distribute_rewards(block, votes, cfg)
    balances = dict(chain.balances)
    minted = 0
    for ev in events:
        idx = ev.recipient.index
        balances[idx] = balances.get(idx, 0) + ev.amount
        minted += ev.amount
    return replace(chain, finalized=chain.finalized + (block,),
                   balances=balances, total_minted=chain.total_minted + minted)


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def dumps_canonical(obj) -> str:
    """Stable JSON: sorted keys, compact separators. Byte-identical for
    equal inputs, which the export/determinism checks rely on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
