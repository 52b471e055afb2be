"""Transaction-to-spike encodings and the leaky integrate-and-fire neuron.

Every validator runs one LIF neuron per slot. Pending transactions are
encoded as spike trains (rate coded, temporal coded, or both), weighted
by fee priority, summed into an input current, and integrated:

    V(t+dt) = V(t) * exp(-lam*dt) + I(t)

with a spike whenever V reaches theta, after which V drops to v_reset.
The earliest spike step doubles as the validator's election bid, so the
whole pipeline must be replayable bit-for-bit by any peer. Stochastic
trains therefore draw from counter-based streams keyed by a seed only
available once the slot's transaction set is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .core import Config, PosnError, Transaction, ValidatorId, u64


class RateTooHigh(PosnError):
    """Per-step spike probability r*dt reached 1; the Bernoulli
    discretization of the Poisson train is no longer valid."""


@dataclass(frozen=True)
class SlotSeed:
    """32-byte replay seed. `make_slot_seed` builds the per-slot base from
    (parent hash, slot, tx-set); `mix_validator` specializes it so each
    validator's neuron sees distinct trains."""
    data: bytes

    def __post_init__(self):
        if len(self.data) != 32:
            raise ValueError("slot seed must be 32 bytes")


@dataclass(frozen=True)
class NeuronState:
    v: float
    lam: float
    theta: float
    v_reset: float

    @classmethod
    def fresh(cls, cfg: Config) -> "NeuronState":
        return cls(v=cfg.v_reset, lam=cfg.lam, theta=cfg.theta,
                   v_reset=cfg.v_reset)


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


def tx_stream_key(seed: SlotSeed, tx_id: bytes) -> int:
    """64-bit counter-stream key for one (seed, tx) pair."""
    h = blake2b(digest_size=8)
    h.update(b"posn-txstream")
    h.update(seed.data)
    h.update(tx_id)
    return int.from_bytes(h.digest(), "little")


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
    floored at one step. Larger transfers spike more often."""
    return max(1, math.ceil(cfg.kappa / (tx.value + tx.fee + cfg.epsilon_isi)))


def weight_for(tx: Transaction, cfg: Config) -> float:
    return 1.0 + fee_component(tx, cfg)


# ---------------------------------------------------------------------------
# the neuron
# ---------------------------------------------------------------------------

def lif_step(state: NeuronState, current: float,
             dt: float) -> tuple[NeuronState, bool]:
    """One exact-decay update. The spike impulse lands after the decay;
    on crossing theta the potential resets."""
    v = state.v * math.exp(-state.lam * dt) + current
    if v >= state.theta:
        return replace(state, v=state.v_reset), True
    return replace(state, v=v), False


# ---------------------------------------------------------------------------
# per-validator replay
# ---------------------------------------------------------------------------

def encoding_flags(cfg: Config) -> tuple[bool, bool]:
    return (cfg.encoding in ("rate", "both"),
            cfg.encoding in ("temporal", "both"))


def spike_inputs(txs: Sequence[Transaction], seed: SlotSeed,
                 cfg: Config) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    """Per-tx kernel arrays (keys, probs, isis, weights) under a
    validator-mixed seed. Checks the rate bound once for the lot."""
    n = len(txs)
    keys = np.empty(n, dtype=np.uint64)
    probs = np.empty(n, dtype=np.float64)
    isis = np.empty(n, dtype=np.int64)
    weights = np.empty(n, dtype=np.float64)
    for k, tx in enumerate(txs):
        keys[k] = tx_stream_key(seed, tx.id)
        p = rate_for(tx, cfg) * cfg.dt_ms
        if p >= 1.0:
            raise RateTooHigh(f"spike probability {p} >= 1")
        probs[k] = p
        isis[k] = isi_for(tx, cfg)
        weights[k] = weight_for(tx, cfg)
    return keys, probs, isis, weights


def first_spike_step(validator: ValidatorId, txs: Sequence[Transaction],
                     seed: SlotSeed, cfg: Config) -> Optional[int]:
    """Earliest micro-step at which this validator's neuron fires for the
    given transaction set, or None if it stays below threshold for the
    whole slot. Pure function of its arguments; this is the replay that
    peers run to validate a leader's claim."""
    vseed = mix_validator(seed, validator.index)
    keys, probs, isis, weights = spike_inputs(txs, vseed, cfg)
    use_rate, use_temporal = encoding_flags(cfg)
    step = kernels.first_fire(keys, probs, isis, weights, cfg.tau_steps,
                              cfg.decay, cfg.theta, use_rate, use_temporal)
    return None if step < 0 else step


def lif_trace(current: np.ndarray, cfg: Config) -> tuple[np.ndarray, list[int]]:
    """Full-slot trajectory with resets, for debugging and trace export:
    returns the per-step potential (post-update) and all spike steps."""
    state = NeuronState.fresh(cfg)
    vs = np.empty(len(current), dtype=np.float64)
    spikes = []
    for t, i_t in enumerate(current):
        state, spiked = lif_step(state, float(i_t), cfg.dt_ms)
        if spiked:
            spikes.append(t)
        vs[t] = state.v
    return vs, spikes
