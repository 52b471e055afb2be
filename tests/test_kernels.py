import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

from posn.kernels import (
    GOLDEN,
    Stream,
    composite_current,
    first_fire,
    lif_first_fire_from_current,
    mix64,
    rate_trains,
    stream_key,
    temporal_trains,
)

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


def test_stream_at_equals_sequential_draws():
    s1, s2 = Stream(987654321), Stream(987654321)
    seq = [s1.next_u64() for _ in range(20)]
    assert seq == [s2.at(i) for i in range(20)]


def test_stream_floats_in_unit_interval():
    s = Stream(5)
    us = [s.next_float() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert 0.4 < sum(us) / len(us) < 0.6


def test_stream_next_int_inclusive_bounds():
    s = Stream(6)
    draws = [s.next_int(3, 5) for _ in range(500)]
    assert set(draws) == {3, 4, 5}
    with pytest.raises(ValueError):
        s.next_int(2, 1)


def test_stream_key_respects_part_boundaries():
    assert stream_key(b"ab", b"c") != stream_key(b"a", b"bc")
    assert stream_key(b"ab") != stream_key(b"ab", b"")


def test_rate_trains_follow_stream_draws():
    key = stream_key(b"train")
    trains = rate_trains(np.array([key], dtype=np.uint64),
                         np.array([0.3]), 100)
    s = Stream(key)
    expect = [s.next_float() < 0.3 for _ in range(100)]
    assert trains[0].tolist() == expect


def test_temporal_trains_period_and_phase():
    trains = temporal_trains(np.array([4, 1], dtype=np.int64), 12)
    assert trains[0].tolist() == [False, False, False, True] * 3
    assert trains[1].all()


def test_composite_current_sums_weights():
    rate = np.array([[True, False], [True, True]])
    temp = np.array([[False, True], [True, False]])
    w = np.array([2.0, 0.5])
    current = composite_current(w, rate, temp)
    assert current.tolist() == [2.0 + 0.5 + 0.5, 0.5 + 2.0]


def test_first_fire_from_current_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(50):
        current = rng.uniform(0, 0.3, size=rng.integers(5, 200))
        decay = rng.uniform(0.5, 0.99)
        got = lif_first_fire_from_current(current, decay, 1.0)
        v, want = 0.0, -1
        for t, c in enumerate(current):
            v = decay * v + c
            if v >= 1.0:
                want = t
                break
        assert got == want


def _lfilter_first_fire(current, decay, theta):
    """The scan as a linear filter: y[t] = x[t] + decay*y[t-1]."""
    fired = lfilter([1.0], [1.0, -decay], current) >= theta
    return int(np.argmax(fired)) if fired.any() else -1


def test_first_fire_from_current_matches_lfilter():
    rng = np.random.default_rng(7)
    for _ in range(300):
        current = rng.uniform(0, 0.3, size=rng.integers(1, 300))
        decay = rng.uniform(0.5, 0.99)
        theta = rng.uniform(0.5, 3.0)
        assert lif_first_fire_from_current(current, decay, theta) == \
            _lfilter_first_fire(current, decay, theta)
    # v lands exactly on theta at step 2: 0.5, 0.75, 1.0 with decay 0.5
    exact = np.array([0.5, 0.5, 0.625, 0.0])
    assert lif_first_fire_from_current(exact, 0.5, 1.0) == 2
    assert _lfilter_first_fire(exact, 0.5, 1.0) == 2
    # never fires: the potential settles at 0.1/(1-0.5) = 0.2 < theta
    quiet = np.full(200, 0.1)
    assert lif_first_fire_from_current(quiet, 0.5, 1.0) == -1
    assert _lfilter_first_fire(quiet, 0.5, 1.0) == -1


def test_first_fire_empty_input():
    empty = np.array([], dtype=np.uint64)
    assert first_fire(empty, np.array([]), np.array([], dtype=np.int64),
                      np.array([]), 100, 0.9, 1.0) == -1


def test_cli_import_loads_no_scipy_or_numba():
    code = ("import sys, posn.cli; "
            "print([m for m in sys.modules "
            "if m.startswith(('scipy', 'numba'))])")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
