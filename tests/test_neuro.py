import math
from dataclasses import replace

import numpy as np
import pytest

from posn.core import GENESIS_HASH, ConfigError, default_config
from posn.consensus import Keyring
from posn.kernels import lif_first_fire_from_current
from posn.neuro import (
    SlotSeed,
    first_spike_step,
    isi_for,
    make_slot_seed,
    mix_validator,
    rate_for,
    spike_inputs,
    spike_params,
    tx_stream_keys,
    weight_for,
)

import reference
from conftest import make_tx, make_txs


def test_lif_decay_oracle():
    # one exact-decay step from V=0.5 with lam=0.1, dt=1, no input: the
    # scan crosses a threshold at that value and not the next float above
    v = 0.45241870901797976
    assert lif_first_fire_from_current([0.0], 0.5, math.exp(-0.1), v) == \
        (0, v)
    assert lif_first_fire_from_current(
        [0.0], 0.5, math.exp(-0.1), math.nextafter(v, 1.0)) == (-1, v)


def test_lif_threshold_crossing():
    # 0.9*e^-0.1 + 0.2 = 1.01435... >= theta; with 0.15 it stays below
    decay = math.exp(-0.1)
    assert lif_first_fire_from_current([0.2], 0.9, decay, 1.0)[0] == 0
    assert lif_first_fire_from_current([0.15, 0.0], 0.9, decay, 1.0)[0] \
        == -1


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
    # the Bernoulli bound r_max*dt < 1 is a Config rule: a rate code that
    # could saturate cannot be configured, and the highest allowed one
    # stays below probability 1 at any fee
    with pytest.raises(ConfigError, match=r"^r_max: "):
        replace(cfg4, r_max=1.5)
    edge = replace(cfg4, r_max=0.999)
    tx = make_tx(0, fee=10**9)  # fee component ~1 -> p ~ r_max
    probs, _, _ = spike_params([tx], edge)
    assert 0.99 < probs.max() < 1.0


def test_spike_params_are_shared_across_validators(cfg7, keys7):
    # a race's inputs: one row of stream keys per validator, under its
    # mixed seed, and one set of per-tx parameters for all rows
    txs = make_txs(61, 40)
    seed = make_slot_seed(GENESIS_HASH, 2, txs)
    keys, *params = spike_inputs(txs, seed, keys7.validators, cfg7)
    assert keys.dtype == np.uint64 and keys.shape == (7, 40)
    for v, row in zip(keys7.validators, keys):
        want = tx_stream_keys(mix_validator(seed, v.index),
                              [tx.id for tx in txs])
        assert row.tolist() == want.tolist()
    for got, want in zip(params, spike_params(txs, cfg7)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_isi_for_oracle(cfg4):
    cfg = replace(cfg4, tau_steps=1000)
    assert isi_for(make_tx(0, value=50, fee=50), cfg) == 10
    assert isi_for(make_tx(0, value=10**9, fee=0), cfg) == 1
    assert isi_for(make_tx(0, value=1, fee=0), cfg) == 1000
    # past the window every interval is tau_steps + 1, which never fires
    assert isi_for(make_tx(0, value=1, fee=0), cfg4) == cfg4.tau_steps + 1
    assert isi_for(make_tx(0, value=0, fee=0),
                   replace(cfg, kappa=1.0e19)) == 1001


def test_weight_for(cfg4):
    assert weight_for(make_tx(0, fee=0), cfg4) == 1.0
    assert weight_for(make_tx(0, fee=1000), cfg4) == 1.5


def test_validator_mix_changes_trains(cfg4, keys4, txs):
    seed = make_slot_seed(GENESIS_HASH, 0, txs)
    a, b = mix_validator(seed, 0), mix_validator(seed, 1)
    assert a != b
    assert mix_validator(seed, 0) == a
    keys_a, keys_b = spike_inputs(txs, seed, keys4.validators[:2],
                                  cfg4)[0].tolist()
    assert keys_a[0] != keys_b[0]
    assert keys_a[0] != keys_a[1]
    # the prefix-copied keys are the contract's blake2b(tag, seed, tx id)
    assert keys_a == [reference.tx_key(a.data, tx.id) for tx in txs]
    assert keys_b == [reference.tx_key(b.data, tx.id) for tx in txs]


def test_first_spike_step_no_txs(cfg4, keys4):
    seed = SlotSeed(b"\x07" * 32)
    assert first_spike_step(keys4.validator(0), [], seed, cfg4) is None


# the default v_reset keeps the bare encoding as the case id
@pytest.mark.parametrize("encoding,v_reset", [
    pytest.param(encoding, v_reset,
                 id=encoding if v_reset == 0.0 else f"{encoding}-{v_reset}")
    for v_reset in (0.0, -0.5, 0.6)
    for encoding in ("rate", "temporal", "both")])
def test_first_spike_matches_reference(encoding, v_reset):
    cfg = default_config(4, master_seed=77, encoding=encoding,
                         v_reset=v_reset)
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

