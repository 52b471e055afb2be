"""Numeric hot path: counter-based random streams, spike-train synthesis
and the leaky integrate-and-fire scan that yields first-spike times.

`first_fire` is the one first-spike kernel, one call per race with one
key-matrix row per neuron. It draws the trains of the rows still racing
`CHUNK_STEPS` steps at a time, each rate train from its counter stream
with the splitmix64 finalizer, so any step's draw is addressable on its
own and no row's draws depend on the other rows (Salmon et al., SC
2011). It adds the weighted trains of each step sequentially in train
index order, rate trains first, and runs each row's membrane recurrence
V[t] = decay*V[t-1] + I[t] from an initial potential (exact
integration, Rotter & Diesmann 1999) across the chunks. A row drops out
at its first threshold crossing; no step after the last one is drawn.
Every operation has a fixed order, so any peer replays a race, or one
row of it, bit for bit, whatever the chunk size.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF

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


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized finalizer, in place on the uint64 array z, which wraps
    mod 2^64 by design; returns z."""
    with np.errstate(over="ignore"):
        z += np.uint64(GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def stream_key(*parts: bytes) -> int:
    """Derive a 64-bit stream key from length-prefixed byte parts."""
    h = blake2b(digest_size=8)
    for p in parts:
        h.update(len(p).to_bytes(4, "little"))
        h.update(p)
    return int.from_bytes(h.digest(), "little")


class Stream:
    """Counter-based random stream: draw i of key k is mix64(k+(i+1)*G).

    Every draw is addressed by its counter alone, so `draws` over a range
    equals the `at` calls it stands for, and replays are exact however
    the draws are batched.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key & _MASK

    def at(self, i: int) -> int:
        return mix64((self.key + (i + 1) * GOLDEN) & _MASK)

    def draws(self, start: int, n: int) -> list[int]:
        """[at(i) for i in range(start, start + n)], in one vector pass."""
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z *= np.uint64(GOLDEN)
            z += np.uint64(self.key)
        return _mix64_np(z).tolist()


# ---------------------------------------------------------------------------
# spike-train synthesis and the first-spike scan
# ---------------------------------------------------------------------------

# steps drawn per pass of the early-exit kernel. A race ends when its last
# row crosses, or after ceil(T / CHUNK_STEPS) passes if a row never does.
# Of 8, 16, 32 and 64, 8 ran the three posn benchmark workloads fastest
# (or tied), and the result does not depend on it.
CHUNK_STEPS = 8


def spike_trains(keys: np.ndarray, probs: np.ndarray, isis: np.ndarray,
                 t0: int, t1: int, use_rate: bool = True,
                 use_temporal: bool = False) -> np.ndarray:
    """Spikes of shape (..., trains, t1 - t0) over the steps [t0, t1) for
    keys of shape (..., K): the K rate trains, then the K temporal
    trains, as enabled. Rate train k fires at step t iff uniform draw t
    of stream keys[..., k] falls below probs[k]; temporal train k fires
    every isis[k] steps, first at step isis[k]-1, on every leading row."""
    keys = np.asarray(keys, dtype=np.uint64)
    mats = []
    if use_rate:
        steps = np.arange(t0 + 1, t1 + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = _mix64_np(keys[..., None] + steps * np.uint64(GOLDEN))
        # u = (z >> 11) * 2^-53 < p, scaled by the power of two 2^53
        z >>= np.uint64(11)
        mats.append(z < np.asarray(probs, dtype=np.float64)[:, None]
                    * 2.0 ** 53)
    if use_temporal:
        steps = np.arange(t0 + 1, t1 + 1, dtype=np.int64)
        temporal = steps % np.asarray(isis, dtype=np.int64)[:, None] == 0
        mats.append(np.broadcast_to(temporal,
                                    keys.shape[:-1] + temporal.shape))
    return mats[0] if len(mats) == 1 else np.concatenate(mats, axis=-2)


def lif_first_fire_from_current(current, v0: float, decay: float,
                                theta: float) -> tuple[int, float]:
    """Leaky integration of `current` (any iterable of floats) from the
    potential `v0`: the first step at which it reaches the threshold and
    the potential there, or -1 and the potential after the last step.
    The scan stops at the first crossing and consumes nothing beyond it."""
    v = v0
    for t, i_t in enumerate(current):
        v = decay * v + i_t
        if v >= theta:
            return t, v
    return -1, v


def first_fire(keys: np.ndarray, probs: np.ndarray, isis: np.ndarray,
               weights: np.ndarray, n_steps: int, v0: float, decay: float,
               theta: float, use_rate: bool = True,
               use_temporal: bool = False) -> list[int]:
    """First step at which each row's neuron fires, or -1. Row r starts
    at potential `v0` and is fed the trains of keys[r], a (rows, K)
    matrix with one stream key per tx; the per-tx probs, isis and
    weights are shared by all rows. A row drops out at its first
    crossing, and no step after the last row's crossing is drawn."""
    keys = np.asarray(keys, dtype=np.uint64)
    fired = [-1] * len(keys)
    if not (use_rate or use_temporal) or keys.shape[1] == 0:
        return fired
    w = np.asarray(weights, dtype=np.float64)
    w_trains = np.concatenate([w] * (use_rate + use_temporal))[:, None]
    v = [v0] * len(keys)
    racing = list(range(len(keys)))
    for t0 in range(0, n_steps, CHUNK_STEPS):
        t1 = min(t0 + CHUNK_STEPS, n_steps)
        # each step sums the weighted trains sequentially in train
        # order, as np.add.accumulate does, never pairwise
        m = np.where(spike_trains(keys[racing], probs, isis, t0, t1,
                                  use_rate, use_temporal), w_trains, 0.0)
        current = np.add.accumulate(m, axis=1, out=m)[:, -1].tolist()
        still = []
        for r, row in zip(racing, current):
            t, v[r] = lif_first_fire_from_current(row, v[r], decay, theta)
            if t < 0:
                still.append(r)
            else:
                fired[r] = t0 + t
        if not still:
            break
        racing = still
    return fired
