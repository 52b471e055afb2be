"""Numeric hot path: counter-based random streams, spike-train synthesis
and the leaky integrate-and-fire scan that yields first-spike times.

`first_fire` is the one first-spike kernel. It draws each rate train
from its counter stream with the splitmix64 finalizer, adds the weighted
trains into one current in train index order, and runs the membrane
recurrence V[t] = decay*V[t-1] + I[t] (exact integration, Rotter &
Diesmann 1999) until the first threshold crossing. Every operation has
a fixed order, so any peer replays a race bit for bit.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53

# There is no compiled path. The benchmark's environment record
# (perfbench/worker.py) still reads this name, so it stays.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# splitmix64
# ---------------------------------------------------------------------------

def mix64(x: int) -> int:
    """splitmix64 finalizer on a python int, masked to 64 bits."""
    z = (x + GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized finalizer; x is uint64 and wraps mod 2^64 by design."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def stream_key(*parts: bytes) -> int:
    """Derive a 64-bit stream key from length-prefixed byte parts."""
    h = blake2b(digest_size=8)
    for p in parts:
        h.update(len(p).to_bytes(4, "little"))
        h.update(p)
    return int.from_bytes(h.digest(), "little")


class Stream:
    """Counter-based random stream: draw i of key k is mix64(k+(i+1)*G).

    Stateless draws are available through `at`; the instance also keeps a
    cursor for call sites that want sequential behaviour. Construction
    order alone fixes every value, so replays are exact.
    """

    __slots__ = ("key", "_cursor")

    def __init__(self, key: int):
        self.key = key & _MASK
        self._cursor = 0

    def at(self, i: int) -> int:
        return mix64((self.key + (i + 1) * GOLDEN) & _MASK)

    def next_u64(self) -> int:
        out = self.at(self._cursor)
        self._cursor += 1
        return out

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# spike-train synthesis and the first-spike scan
# ---------------------------------------------------------------------------

def rate_trains(keys: np.ndarray, probs: np.ndarray, n_steps: int) -> np.ndarray:
    """Bernoulli spike matrix (K, T): train k fires at step t iff uniform
    draw t of stream keys[k] falls below probs[k]."""
    keys = np.asarray(keys, dtype=np.uint64)
    steps = np.arange(1, n_steps + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = keys[:, None] + steps[None, :] * np.uint64(GOLDEN)
    u = (_mix64_np(x) >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return u < np.asarray(probs, dtype=np.float64)[:, None]


def temporal_trains(isis: np.ndarray, n_steps: int) -> np.ndarray:
    """Deterministic spike matrix (K, T): train k fires every isis[k] steps,
    first at step index isis[k]-1."""
    isis = np.asarray(isis, dtype=np.int64)
    steps = np.arange(1, n_steps + 1, dtype=np.int64)
    return (steps[None, :] % isis[:, None]) == 0


def composite_current(weights: np.ndarray, *spike_mats: np.ndarray) -> np.ndarray:
    """Weighted sum of spike trains, accumulated train by train in index
    order, so the sum of each step has one fixed operation order."""
    if not spike_mats:
        raise ValueError("need at least one spike matrix")
    n_steps = spike_mats[0].shape[1]
    current = np.zeros(n_steps, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    for mat in spike_mats:
        for k in range(mat.shape[0]):
            current += w[k] * mat[k].astype(np.float64)
    return current


def lif_first_fire_from_current(current: np.ndarray, decay: float,
                                theta: float) -> int:
    """First step at which the leaky integration of `current` reaches the
    threshold, or -1. Only the pre-reset trajectory decides the first
    crossing, so the scan stops there."""
    v = 0.0
    for t, i_t in enumerate(np.asarray(current, dtype=np.float64).tolist()):
        v = decay * v + i_t
        if v >= theta:
            return t
    return -1


def first_fire(keys: np.ndarray, probs: np.ndarray, isis: np.ndarray,
               weights: np.ndarray, n_steps: int, decay: float, theta: float,
               use_rate: bool = True, use_temporal: bool = False) -> int:
    """First step at which a neuron fed the given trains fires, or -1."""
    mats = []
    if use_rate:
        mats.append(rate_trains(keys, probs, n_steps))
    if use_temporal:
        mats.append(temporal_trains(isis, n_steps))
    if not mats or len(keys) == 0:
        return -1
    current = composite_current(weights, *mats)
    return lif_first_fire_from_current(current, decay, theta)
