"""Transaction-to-spike encodings and the replay of the election race.

Every validator runs one leaky integrate-and-fire neuron per slot.
Pending transactions are encoded as spike trains (rate coded, temporal
coded, or both), weighted by fee priority, summed into an input current,
and integrated from the initial potential v_reset:

    V(t+dt) = V(t) * exp(-lam*dt) + I(t)

The earliest step at which V reaches theta is the validator's election
bid. The race ends at that first crossing, so the neuron never resets.
The whole pipeline must be replayable bit-for-bit by any peer, so the
stochastic trains draw from counter-based streams keyed by a seed only
available once the slot's transaction set is fixed.

A race replays every validator over one spike set in one
`kernels.first_fire` call: one row of per-tx stream keys
(`tx_stream_keys`) per validator, and the per-tx rates, intervals and
weights (`spike_params`), which do not depend on the validator, shared
by all rows. Each row drops out at its own first crossing, and its draws
do not depend on which other rows are still racing, so a race equals N
one-row replays (`first_spike_step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .core import Config, Transaction, ValidatorId, u64


@dataclass(frozen=True)
class SlotSeed:
    """32-byte replay seed. `make_slot_seed` builds the per-slot base from
    (parent hash, slot, tx-set); `mix_validator` specializes it so each
    validator's neuron sees distinct trains."""
    data: bytes

    def __post_init__(self):
        if len(self.data) != 32:
            raise ValueError("slot seed must be 32 bytes")


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def make_slot_seed(parent_hash: bytes, slot: int,
                   txs: Sequence[Transaction]) -> SlotSeed:
    """Base seed for one slot: digest of parent hash, slot number and the
    digest of the sorted tx ids. Unpredictable until the tx set is fixed,
    then identical on every node."""
    ids = blake2b(digest_size=32)
    for tx_id in sorted(tx.id for tx in txs):
        ids.update(tx_id)
    h = blake2b(digest_size=32)
    h.update(b"posn-slot-seed")
    h.update(parent_hash)
    h.update(u64(slot))
    h.update(ids.digest())
    return SlotSeed(h.digest())


def mix_validator(seed: SlotSeed, validator_index: int) -> SlotSeed:
    h = blake2b(digest_size=32)
    h.update(b"posn-validator-seed")
    h.update(seed.data)
    h.update(u64(validator_index))
    return SlotSeed(h.digest())


def tx_stream_keys(seed: SlotSeed, tx_ids: Sequence[bytes]) -> np.ndarray:
    """64-bit counter-stream key of each (seed, tx) pair: blake2b-64 of
    b"posn-txstream" + seed + tx id, the prefix hashed once and copied."""
    prefix = blake2b(b"posn-txstream" + seed.data, digest_size=8)
    digests = []
    for tx_id in tx_ids:
        h = prefix.copy()
        h.update(tx_id)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


# ---------------------------------------------------------------------------
# per-tx encoding parameters
# ---------------------------------------------------------------------------

def fee_component(tx: Transaction, cfg: Config) -> float:
    return tx.fee / (tx.fee + cfg.c_fee)


def rate_for(tx: Transaction, cfg: Config) -> float:
    """Firing rate in spikes/ms, interpolated between r_min and r_max by
    the fee component; non-decreasing in fee."""
    return cfg.r_min + (cfg.r_max - cfg.r_min) * fee_component(tx, cfg)


def isi_for(tx: Transaction, cfg: Config) -> int:
    """Inter-spike interval in micro-steps: ceil(kappa/(value+fee+eps)),
    floored at one step, capped at tau_steps + 1 (it never fires inside
    the window; no overflow). Larger transfers spike more often."""
    ratio = cfg.kappa / (tx.value + tx.fee + cfg.epsilon_isi)
    return max(1, math.ceil(min(ratio, cfg.tau_steps + 1)))


def weight_for(tx: Transaction, cfg: Config) -> float:
    return 1.0 + fee_component(tx, cfg)


# ---------------------------------------------------------------------------
# the race
# ---------------------------------------------------------------------------

def encoding_flags(cfg: Config) -> tuple[bool, bool]:
    return (cfg.encoding in ("rate", "both"),
            cfg.encoding in ("temporal", "both"))


def spike_params(txs: Sequence[Transaction], cfg: Config
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tx rate probabilities, intervals and weights; they do not
    depend on the validator. Each probability is below r_max*dt, which a
    Config keeps below 1."""
    probs = np.array([rate_for(tx, cfg) * cfg.dt_ms for tx in txs],
                     dtype=np.float64)
    isis = np.array([isi_for(tx, cfg) for tx in txs], dtype=np.int64)
    weights = np.array([weight_for(tx, cfg) for tx in txs], dtype=np.float64)
    return probs, isis, weights


def spike_inputs(txs: Sequence[Transaction], seed: SlotSeed,
                 validators: Sequence[ValidatorId], cfg: Config
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kernel arrays (keys, probs, isis, weights) of a race: row i of the
    (validators, txs) key matrix holds the per-tx stream keys under
    validator i's mixed seed, and the per-tx `spike_params` are shared
    by every row."""
    ids = [tx.id for tx in txs]
    keys = np.array([tx_stream_keys(mix_validator(seed, v.index), ids)
                     for v in validators], dtype=np.uint64)
    return (keys.reshape(len(validators), len(ids)),) \
        + spike_params(txs, cfg)


def fire_steps(validators: Sequence[ValidatorId], txs: Sequence[Transaction],
               seed: SlotSeed, cfg: Config) -> list[Optional[int]]:
    """Earliest micro-step at which each validator's neuron fires for the
    given transaction set, or None if it stays below threshold for the
    whole slot: one kernel call, one row per validator."""
    use_rate, use_temporal = encoding_flags(cfg)
    steps = kernels.first_fire(*spike_inputs(txs, seed, validators, cfg),
                               cfg.tau_steps, cfg.v_reset, cfg.decay,
                               cfg.theta, use_rate, use_temporal)
    return [None if step < 0 else step for step in steps]


def first_spike_step(validator: ValidatorId, txs: Sequence[Transaction],
                     seed: SlotSeed, cfg: Config) -> Optional[int]:
    """One validator's fire step, a one-row race. Pure function of its
    arguments; this is the replay that peers run to validate a leader's
    claim."""
    return fire_steps([validator], txs, seed, cfg)[0]
