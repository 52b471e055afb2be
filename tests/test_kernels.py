import collections
import itertools
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

from posn.kernels import (
    CHUNK_STEPS,
    GOLDEN,
    Stream,
    first_fire,
    lif_first_fire_from_current,
    mix64,
    spike_trains,
    stream_key,
)
import posn.kernels as kernels

from reference import SplitMix64


def test_mix64_matches_published_vectors():
    # first three outputs of splitmix64 seeded with state 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = [mix64(i * GOLDEN & 0xFFFFFFFFFFFFFFFF) for i in range(3)]
    assert got == expected


def test_mix64_matches_reference_generator():
    for seed in (0, 1, 0xDEADBEEF, 2**64 - 1):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(5)] == \
            [mix64((seed + i * GOLDEN) & 0xFFFFFFFFFFFFFFFF) for i in range(5)]


def test_stream_draws_equal_at():
    s = Stream(987654321)
    for start, n in ((0, 20), (7, 1), (5, 0), (2**40, 9), (0, 1500)):
        assert s.draws(start, n) == [s.at(i) for i in range(start, start + n)]


def test_stream_draws_wrap_near_the_top_of_the_key_space():
    mask = 0xFFFFFFFFFFFFFFFF
    for key in (mask, mask - GOLDEN + 1, (1 << 63) + 5):
        s = Stream(key)
        expect = [mix64((key + (i + 1) * GOLDEN) & mask) for i in range(12)]
        assert [s.at(i) for i in range(12)] == expect
        assert s.draws(0, 12) == expect
        assert s.draws(3, 9) == expect[3:]


def test_stream_draws_as_floats_in_unit_interval():
    us = [(d >> 11) * 2.0 ** -53 for d in Stream(5).draws(0, 1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert 0.4 < sum(us) / len(us) < 0.6


def test_stream_draws_reduce_evenly_onto_a_small_range():
    counts = collections.Counter(3 + d % 3 for d in Stream(6).draws(0, 3000))
    assert set(counts) == {3, 4, 5}
    assert all(900 < c < 1100 for c in counts.values())


def test_stream_key_respects_part_boundaries():
    assert stream_key(b"ab", b"c") != stream_key(b"a", b"bc")
    assert stream_key(b"ab") != stream_key(b"ab", b"")


# --- the whole-matrix reference ---------------------------------------------
# The kernel as it was before it drew the trains in chunks: the full
# (K, T) spike matrices, summed train by train into one current, then
# scanned. The chunked kernel must equal it bit for bit.

def _rate_trains(keys, probs, n_steps):
    keys = np.asarray(keys, dtype=np.uint64)
    steps = np.arange(1, n_steps + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = keys[:, None] + steps[None, :] * np.uint64(GOLDEN)
    u = (kernels._mix64_np(x) >> np.uint64(11)).astype(np.float64) \
        * 2.0 ** -53
    return u < np.asarray(probs, dtype=np.float64)[:, None]


def _temporal_trains(isis, n_steps):
    isis = np.asarray(isis, dtype=np.int64)
    steps = np.arange(1, n_steps + 1, dtype=np.int64)
    return (steps[None, :] % isis[:, None]) == 0


def _composite_current(weights, *spike_mats):
    current = np.zeros(spike_mats[0].shape[1], dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    for mat in spike_mats:
        for k in range(mat.shape[0]):
            current += w[k] * mat[k].astype(np.float64)
    return current


def _whole_matrix_first_fire(keys, probs, isis, weights, n_steps, v0, decay,
                             theta, use_rate, use_temporal):
    mats = []
    if use_rate:
        mats.append(_rate_trains(keys, probs, n_steps))
    if use_temporal:
        mats.append(_temporal_trains(isis, n_steps))
    if not mats or len(keys) == 0:
        return -1
    current = _composite_current(weights, *mats)
    v = v0
    for t, i_t in enumerate(current.tolist()):
        v = decay * v + i_t
        if v >= theta:
            return t
    return -1


def test_rate_trains_follow_stream_draws():
    key = stream_key(b"train")
    keys, probs = np.array([key], dtype=np.uint64), np.array([0.3])
    trains = spike_trains(keys, probs, np.array([1]), 0, 100)
    expect = [(d >> 11) * 2.0 ** -53 < 0.3
              for d in Stream(key).draws(0, 100)]
    assert trains[0].tolist() == expect
    # a window draws the same steps as the whole slot
    assert spike_trains(keys, probs, np.array([1]), 37, 100)[0].tolist() \
        == expect[37:]


def test_temporal_trains_period_and_phase():
    isis = np.array([4, 1], dtype=np.int64)
    trains = spike_trains(np.zeros(2, np.uint64), np.zeros(2), isis, 0, 12,
                          use_rate=False, use_temporal=True)
    assert trains[0].tolist() == [False, False, False, True] * 3
    assert trains[1].all()
    window = spike_trains(np.zeros(2, np.uint64), np.zeros(2), isis, 5, 12,
                          use_rate=False, use_temporal=True)
    assert window.tolist() == trains[:, 5:].tolist()


def test_spike_trains_stack_rate_rows_first():
    keys = np.array([stream_key(b"a"), stream_key(b"b")], dtype=np.uint64)
    probs, isis = np.array([0.4, 0.7]), np.array([3, 5])
    both = spike_trains(keys, probs, isis, 4, 29, True, True)
    assert both.tolist() == (_rate_trains(keys, probs, 29)[:, 4:].tolist()
                             + _temporal_trains(isis, 29)[:, 4:].tolist())


def test_spike_trains_broadcast_over_rows_of_keys():
    keys = np.array([[stream_key(b"a"), stream_key(b"b")],
                     [stream_key(b"c"), stream_key(b"d")]], dtype=np.uint64)
    probs, isis = np.array([0.4, 0.7]), np.array([3, 5])
    for flags in [(True, False), (False, True), (True, True)]:
        rows = spike_trains(keys, probs, isis, 4, 29, *flags)
        assert rows.shape == (2, 2 * sum(flags), 25)
        assert rows.tolist() == [
            spike_trains(row, probs, isis, 4, 29, *flags).tolist()
            for row in keys]


def test_composite_current_sums_weights():
    rate = np.array([[True, False], [True, True]])
    temp = np.array([[False, True], [True, False]])
    w = np.array([2.0, 0.5])
    current = _composite_current(w, rate, temp)
    assert current.tolist() == [2.0 + 0.5 + 0.5, 0.5 + 2.0]


def _random_case(rng):
    k = int(rng.integers(0, 41))
    n_steps = int(rng.integers(0, 300))
    keys = rng.integers(0, 2**64, size=k, dtype=np.uint64)
    probs = rng.uniform(0.0, 0.3, size=k)
    isis = rng.integers(1, 3 * CHUNK_STEPS, size=k)
    weights = rng.uniform(0.5, 2.0, size=k)
    decay = float(rng.uniform(0.5, 0.999))
    # thresholds from "fires at once" to "never fires" for this load
    theta = float(rng.uniform(0.05, 3.0) * (1.0 + k * 0.3) / (1.0 - decay)
                  ** rng.uniform(0.0, 0.6))
    use_rate, use_temporal = [(True, False), (False, True),
                              (True, True)][int(rng.integers(0, 3))]
    v0 = float(rng.uniform(-1.0, 0.5) * theta)
    return (keys, probs, isis, weights, n_steps, v0, decay, theta, use_rate,
            use_temporal)


def _one_row(case):
    """The case's keys as the one row of a race, and that row's step."""
    return first_fire(case[0][None, :], *case[1:])[0]


def test_first_fire_matches_whole_matrix_reference():
    rng = np.random.default_rng(11)
    seen = collections.Counter()
    for _ in range(6000):
        case = _random_case(rng)
        got = _one_row(case)
        assert got == _whole_matrix_first_fire(*case), case
        k, n_steps, v0 = len(case[0]), case[4], case[5]
        seen["K=0"] += k == 0
        seen["T not a multiple"] += n_steps % CHUNK_STEPS != 0
        seen["never fires"] += k > 0 and got == -1
        seen["last step of a chunk"] += got >= 0 \
            and got % CHUNK_STEPS == CHUNK_STEPS - 1
        seen["first step of a later chunk"] += got >= CHUNK_STEPS \
            and got % CHUNK_STEPS == 0
        seen["v0 < 0"] += v0 < 0
        seen["v0 > 0"] += v0 > 0
        seen[case[8:]] += 1
    assert len(seen) == 10 and min(seen.values()) >= 20, seen


def _random_race(rng):
    """A race of random N <= 32 rows over K <= 300 txs: per-row keys, and
    everything else shared, as in `_random_case`."""
    n = int(rng.integers(1, 33))
    k = int(rng.integers(1, 301)) if rng.random() > 0.05 else 0
    n_steps = int(rng.integers(0, 260))
    keys = rng.integers(0, 2**64, size=(n, k), dtype=np.uint64)
    probs = rng.uniform(0.0, 0.05, size=k)
    isis = rng.integers(1, 400, size=k)
    weights = rng.uniform(0.5, 2.0, size=k)
    decay = float(rng.uniform(0.9, 0.999))
    # around the load's mean steady potential, so rows split between
    # firing early, firing late and never firing
    load = float(np.sum(weights * probs) + np.sum(weights / isis))
    theta = float(rng.uniform(0.3, 1.5) * (load + 0.01) / (1.0 - decay))
    use_rate, use_temporal = [(True, False), (False, True),
                              (True, True)][int(rng.integers(0, 3))]
    v0 = float(rng.uniform(-0.5, 0.5) * theta)
    return (keys, probs, isis, weights, n_steps, v0, decay, theta, use_rate,
            use_temporal)


def test_batched_first_fire_equals_each_one_row_call():
    rng = np.random.default_rng(24)
    seen = collections.Counter()
    for _ in range(250):
        race = _random_race(rng)
        got = first_fire(*race)
        rows = [_one_row((keys,) + race[1:]) for keys in race[0]]
        assert got == rows, race[4:]
        fired = {step // CHUNK_STEPS for step in got if step >= 0}
        seen["K=0"] += race[0].shape[1] == 0
        seen["T not a multiple"] += race[4] % CHUNK_STEPS != 0
        seen["rows fire in different chunks"] += len(fired) > 1
        seen["a row never fires"] += race[0].shape[1] > 0 and -1 in got
        seen["a row fires, another never"] += len(fired) > 0 and -1 in got
        seen["v0 < 0"] += race[5] < 0
        seen[race[8:]] += 1
    assert len(seen) == 9 and min(seen.values()) >= 8, seen


@pytest.mark.parametrize("isi, fires_at", [
    (CHUNK_STEPS, CHUNK_STEPS - 1),      # last step of the first chunk
    (CHUNK_STEPS + 1, CHUNK_STEPS),      # first step of the second chunk
    (2 * CHUNK_STEPS, 2 * CHUNK_STEPS - 1),
])
def test_first_fire_crossing_at_a_chunk_boundary(isi, fires_at):
    # one temporal train whose first spike alone reaches the threshold
    case = (np.zeros(1, np.uint64), np.zeros(1), np.array([isi]),
            np.array([1.0]), 3 * CHUNK_STEPS, 0.0, 0.9, 1.0, False, True)
    assert _one_row(case) == _whole_matrix_first_fire(*case) == fires_at
    # a slot that ends just before the spike never fires
    short = case[:4] + (fires_at,) + case[5:]
    assert _one_row(short) == _whole_matrix_first_fire(*short) == -1


def _key_first_spiking_at(step, p):
    """A stream key whose rate train at probability p first fires at
    `step`."""
    def fires(key, t):
        return (Stream(key).at(t) >> 11) * 2.0 ** -53 < p
    return next(key for key in itertools.count()
                if fires(key, step) and not any(fires(key, t)
                                                for t in range(step)))


def _first_spike_race(*first_steps):
    """A race of one rate train at probability 0.1 whose first spike
    alone reaches the threshold; row r first spikes at first_steps[r]."""
    keys = np.array([[_key_first_spiking_at(t, 0.1)] for t in first_steps],
                    dtype=np.uint64)
    return (keys, np.array([0.1]), np.array([1]), np.array([1.0]),
            3 * CHUNK_STEPS, 0.0, 0.9, 1.0, True, False)


def test_batched_crossing_at_a_chunk_boundary():
    # rows that cross on either side of each chunk boundary, and one
    # whose slot ends first
    steps = [CHUNK_STEPS - 1, CHUNK_STEPS, 2 * CHUNK_STEPS - 1,
             2 * CHUNK_STEPS, 3 * CHUNK_STEPS]
    race = _first_spike_race(*steps)
    assert first_fire(*race) == steps[:-1] + [-1]
    assert [_one_row((row,) + race[1:]) for row in race[0]] == \
        steps[:-1] + [-1]


def test_first_fire_draws_nothing_after_the_crossing(monkeypatch):
    windows = []

    def recording(keys, probs, isis, t0, t1, *flags):
        windows.append((len(keys), t0, t1))
        return spike_trains(keys, probs, isis, t0, t1, *flags)

    monkeypatch.setattr(kernels, "spike_trains", recording)
    # row 1 fires in the second chunk and drops out; once row 0 has
    # fired in the third, no later window is drawn
    race = _first_spike_race(2 * CHUNK_STEPS, CHUNK_STEPS + 1)
    race = race[:4] + (250,) + race[5:]
    assert first_fire(*race) == [2 * CHUNK_STEPS, CHUNK_STEPS + 1]
    assert windows == [(2, 0, CHUNK_STEPS), (2, CHUNK_STEPS, 2 * CHUNK_STEPS),
                       (1, 2 * CHUNK_STEPS, 3 * CHUNK_STEPS)]


def test_first_fire_from_current_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(50):
        current = rng.uniform(0, 0.3, size=rng.integers(5, 200))
        decay = rng.uniform(0.5, 0.99)
        v0 = rng.uniform(-1.0, 0.5)
        got = lif_first_fire_from_current(current, v0, decay, 1.0)
        v, want = v0, -1
        for t, c in enumerate(current):
            v = decay * v + c
            if v >= 1.0:
                want = t
                break
        assert got == (want, v)


def _lfilter_first_fire(current, v0, decay, theta):
    """The scan as a linear filter: y[t] = x[t] + decay*y[t-1], with
    y[-1] = v0."""
    fired = lfilter([1.0], [1.0, -decay], current,
                    zi=[decay * v0])[0] >= theta
    return int(np.argmax(fired)) if fired.any() else -1


def test_first_fire_from_current_matches_lfilter():
    rng = np.random.default_rng(7)
    for _ in range(300):
        current = rng.uniform(0, 0.3, size=rng.integers(1, 300))
        decay = rng.uniform(0.5, 0.99)
        theta = rng.uniform(0.5, 3.0)
        v0 = rng.uniform(-theta, theta)
        assert lif_first_fire_from_current(current, v0, decay, theta)[0] \
            == _lfilter_first_fire(current, v0, decay, theta)
    # v lands exactly on theta at step 2: 0.5, 0.75, 1.0 with decay 0.5
    exact = np.array([0.5, 0.5, 0.625, 0.0])
    assert lif_first_fire_from_current(exact, 0.0, 0.5, 1.0) == (2, 1.0)
    assert _lfilter_first_fire(exact, 0.0, 0.5, 1.0) == 2
    # never fires: the potential settles at 0.1/(1-0.5) = 0.2 < theta
    quiet = np.full(200, 0.1)
    assert lif_first_fire_from_current(quiet, 0.0, 0.5, 1.0)[0] == -1
    assert _lfilter_first_fire(quiet, 0.0, 0.5, 1.0) == -1


def test_first_fire_empty_input():
    empty = np.zeros((3, 0), dtype=np.uint64)
    assert first_fire(empty, np.array([]), np.array([], dtype=np.int64),
                      np.array([]), 100, 0.0, 0.9, 1.0) == [-1, -1, -1]


def test_cli_import_loads_no_scipy_or_numba():
    code = ("import sys, posn.cli; "
            "print([m for m in sys.modules "
            "if m.startswith(('scipy', 'numba'))])")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
