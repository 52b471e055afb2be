import math
from dataclasses import replace

import numpy as np
import pytest

from posn.core import GENESIS_HASH, default_config
from posn.consensus import Keyring
from posn.neuro import (
    NeuronState,
    RateTooHigh,
    SlotSeed,
    first_spike_step,
    isi_for,
    lif_step,
    lif_trace,
    make_slot_seed,
    mix_validator,
    rate_for,
    spike_inputs,
    tx_stream_key,
    weight_for,
)

import reference
from conftest import make_tx, make_txs


def test_lif_decay_oracle(cfg4):
    # one exact-decay step from V=0.5 with lam=0.1, dt=1, no input
    state = NeuronState(v=0.5, lam=0.1, theta=1.0, v_reset=0.0)
    nxt, spiked = lif_step(state, 0.0, 1.0)
    assert not spiked
    assert nxt.v == 0.45241870901797976


def test_lif_threshold_crossing_resets():
    state = NeuronState(v=0.9, lam=0.1, theta=1.0, v_reset=0.0)
    # 0.9*e^-0.1 + 0.2 = 1.01435... >= theta
    nxt, spiked = lif_step(state, 0.2, 1.0)
    assert spiked
    assert nxt.v == 0.0
    # just below threshold: no spike, potential keeps the update value
    nxt, spiked = lif_step(state, 0.15, 1.0)
    assert not spiked
    assert nxt.v == pytest.approx(0.9 * math.exp(-0.1) + 0.15)


def test_lif_long_run_matches_closed_form(cfg4):
    state = NeuronState.fresh(replace(cfg4, v_reset=0.0))
    state = replace(state, v=0.73)
    v0, lam = state.v, state.lam
    for t in range(1, 2001):
        state, spiked = lif_step(state, 0.0, cfg4.dt_ms)
        assert not spiked
        assert abs(state.v - v0 * math.exp(-lam * t)) < 1e-12


def test_rate_for_oracle(cfg4):
    # fee 1000 -> fee component 0.5 -> midpoint of [0.01, 0.05]
    tx = make_tx(0, value=500, fee=1000)
    assert rate_for(tx, cfg4) == pytest.approx(0.03)
    assert rate_for(make_tx(0, fee=0), cfg4) == pytest.approx(cfg4.r_min)


def test_rate_monotone_in_fee(cfg4):
    rates = [rate_for(make_tx(0, value=10, fee=f), cfg4)
             for f in (0, 10, 100, 1000, 10_000)]
    assert rates == sorted(rates)
    assert rates[-1] < cfg4.r_max


def test_rate_code_raises_on_saturated_probability(cfg4):
    hot = replace(cfg4, r_max=1.5)
    tx = make_tx(0, fee=10**9)  # fee component ~1 -> p ~ 1.5
    seed = make_slot_seed(GENESIS_HASH, 0, [tx])
    with pytest.raises(RateTooHigh):
        spike_inputs([tx], seed, hot)


def test_isi_for_oracle(cfg4):
    assert isi_for(make_tx(0, value=50, fee=50), cfg4) == 10
    assert isi_for(make_tx(0, value=10**9, fee=0), cfg4) == 1
    assert isi_for(make_tx(0, value=1, fee=0), cfg4) == 1000


def test_weight_for(cfg4):
    assert weight_for(make_tx(0, fee=0), cfg4) == 1.0
    assert weight_for(make_tx(0, fee=1000), cfg4) == 1.5


def test_validator_mix_changes_trains(cfg4, txs):
    seed = make_slot_seed(GENESIS_HASH, 0, txs)
    a, b = mix_validator(seed, 0), mix_validator(seed, 1)
    assert a != b
    assert mix_validator(seed, 0) == a
    assert tx_stream_key(a, txs[0].id) != tx_stream_key(b, txs[0].id)
    assert tx_stream_key(a, txs[0].id) != tx_stream_key(a, txs[1].id)


def test_first_spike_step_no_txs(cfg4, keys4):
    seed = SlotSeed(b"\x07" * 32)
    assert first_spike_step(keys4.validator(0), [], seed, cfg4) is None


@pytest.mark.parametrize("encoding", ["rate", "temporal", "both"])
def test_first_spike_matches_reference(encoding):
    cfg = default_config(4, master_seed=77, encoding=encoding)
    keys = Keyring(cfg.master_seed, 4)
    for case in range(10):
        txs = make_txs(500 + case, 1 + case % 6)
        parent = bytes([case + 1]) * 32
        seed = make_slot_seed(parent, case, txs)
        for v in keys.validators:
            assert first_spike_step(v, txs, seed, cfg) == \
                reference.first_spike_step(v.index, txs, parent, case, cfg)


def test_first_spike_differs_across_validators(cfg4, keys4):
    # enough load that someone fires; per-validator mixing should not give
    # everyone identical sub-threshold timing on sparse input
    txs = make_txs(42, 3)
    seed = make_slot_seed(GENESIS_HASH, 5, txs)
    steps = [first_spike_step(v, txs, seed, cfg4) for v in keys4.validators]
    assert any(s is not None for s in steps) or cfg4.tau_steps < 100
    assert len(set(steps)) > 1


def test_first_spike_deterministic(cfg7, keys7, txs):
    seed = make_slot_seed(GENESIS_HASH, 3, txs)
    v = keys7.validator(2)
    assert first_spike_step(v, txs, seed, cfg7) == \
        first_spike_step(v, txs, seed, cfg7)


def test_lif_trace_reports_resets(cfg4):
    current = np.array([0.6, 0.6, 0.0, 0.6, 0.6])
    vs, spikes = lif_trace(current, cfg4)
    # 0.6 then 0.6*e^-0.1+0.6 = 1.143 >= 1 -> spike at step 1, reset
    assert spikes[0] == 1
    assert vs[1] == 0.0
    assert len(vs) == 5
