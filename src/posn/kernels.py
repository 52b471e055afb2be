"""Numeric hot path: counter-based random streams, spike-train synthesis
and the leaky integrate-and-fire scan that yields first-spike times.

`first_fire` is the one first-spike kernel. It draws the trains
`CHUNK_STEPS` steps at a time: each rate train from its counter stream
with the splitmix64 finalizer, so any step's draw is addressable on its
own (Salmon et al., SC 2011). It adds the weighted trains of each step
sequentially in train index order, rate trains first, and runs the
membrane recurrence V[t] = decay*V[t-1] + I[t] from an initial
potential (exact integration, Rotter & Diesmann 1999) across the
chunks. It returns at the first threshold crossing, so the steps after
it are never drawn. Every operation has a fixed order, so any peer
replays a race bit for bit, whatever the chunk size.
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

# steps drawn per pass of the early-exit kernel. A saturated neuron fires
# within a few steps; a quiet one needs ceil(T / CHUNK_STEPS) passes.
# Of 8, 16, 32 and 64, 8 ran the three posn benchmark workloads fastest
# (or tied), and the result does not depend on it.
CHUNK_STEPS = 8


def spike_trains(keys: np.ndarray, probs: np.ndarray, isis: np.ndarray,
                 t0: int, t1: int, use_rate: bool = True,
                 use_temporal: bool = False) -> np.ndarray:
    """Spike matrix over the steps [t0, t1): the K rate trains, then the
    K temporal trains, as enabled. Rate train k fires at step t iff
    uniform draw t of stream keys[k] falls below probs[k]; temporal
    train k fires every isis[k] steps, first at step isis[k]-1."""
    mats = []
    if use_rate:
        steps = np.arange(t0 + 1, t1 + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            x = np.asarray(keys, dtype=np.uint64)[:, None] \
                + steps[None, :] * np.uint64(GOLDEN)
        u = (_mix64_np(x) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        mats.append(u < np.asarray(probs, dtype=np.float64)[:, None])
    if use_temporal:
        steps = np.arange(t0 + 1, t1 + 1, dtype=np.int64)
        mats.append(steps[None, :]
                    % np.asarray(isis, dtype=np.int64)[:, None] == 0)
    return mats[0] if len(mats) == 1 else np.concatenate(mats)


def lif_first_fire_from_current(current, v0: float, decay: float,
                                theta: float) -> int:
    """First step at which the leaky integration of `current` (any
    iterable of floats) from the initial potential `v0` reaches the
    threshold, or -1. Only the first crossing matters, so the scan stops
    there and consumes nothing beyond it."""
    v = v0
    for t, i_t in enumerate(current):
        v = decay * v + i_t
        if v >= theta:
            return t
    return -1


def _chunked_current(keys, probs, isis, weights, n_steps: int,
                     use_rate: bool, use_temporal: bool):
    """Per-step input current, drawn CHUNK_STEPS steps at a time. Each
    step sums the weighted trains sequentially in row order, as
    np.add.accumulate does, never pairwise."""
    w = np.asarray(weights, dtype=np.float64)
    w_rows = np.concatenate([w] * (use_rate + use_temporal))[:, None]
    for t0 in range(0, n_steps, CHUNK_STEPS):
        t1 = min(t0 + CHUNK_STEPS, n_steps)
        spikes = spike_trains(keys, probs, isis, t0, t1, use_rate,
                              use_temporal)
        yield from np.add.accumulate(w_rows * spikes, axis=0)[-1].tolist()


def first_fire(keys: np.ndarray, probs: np.ndarray, isis: np.ndarray,
               weights: np.ndarray, n_steps: int, v0: float, decay: float,
               theta: float, use_rate: bool = True,
               use_temporal: bool = False) -> int:
    """First step at which a neuron that starts at potential `v0` and is
    fed the given trains fires, or -1. Steps after the first crossing are
    never drawn."""
    if not (use_rate or use_temporal) or len(keys) == 0:
        return -1
    return lif_first_fire_from_current(
        _chunked_current(keys, probs, isis, weights, n_steps, use_rate,
                         use_temporal), v0, decay, theta)
