import random
from dataclasses import replace
from typing import Iterable

import pytest

import posn.crypto as crypto
from posn.consensus import Keyring
from posn.core import PosnError, Transaction, default_config
from posn.crypto import Signature, keygen, sign


@pytest.fixture
def cfg4():
    return default_config(4, master_seed=1001)


@pytest.fixture
def cfg7():
    return default_config(7, master_seed=1002)


@pytest.fixture
def keys4(cfg4):
    return Keyring(cfg4.master_seed, 4)


@pytest.fixture
def keys7(cfg7):
    return Keyring(cfg7.master_seed, 7)


@pytest.fixture
def verify_calls(monkeypatch):
    """The (pk, message, signature or VRF output) of every crypto.verify
    and crypto.vrf_verify call, in call order."""
    calls = []

    def counting(fn):
        def wrapped(pk, msg, sig, *, store):
            calls.append((pk, msg, sig))
            return fn(pk, msg, sig, store=store)
        return wrapped

    monkeypatch.setattr(crypto, "verify", counting(crypto.verify))
    monkeypatch.setattr(crypto, "vrf_verify", counting(crypto.vrf_verify))
    return calls


def make_tx(seed: int, value: int = None, fee: int = None,
            stores: Iterable[Keyring] = ()) -> Transaction:
    """One signed transaction with pseudo-random fields. Its sender's key
    pair is added to each of `stores`, so they verify its signature."""
    rng = random.Random(seed)
    kp = keygen(0xC11E47, 50_000 + rng.randrange(1 << 16))
    for store in stores:
        store.add(kp)
    receiver = keygen(0xC11E47, 90_000 + rng.randrange(1 << 16)).pk
    value = rng.randrange(1, 5000) if value is None else value
    fee = rng.randrange(0, 800) if fee is None else fee
    draft = Transaction(id=rng.getrandbits(256).to_bytes(32, "big"),
                        sender=kp.pk, receiver=receiver,
                        value=value, fee=fee,
                        signature=Signature(b"\x00" * 32))
    return replace(draft, signature=sign(kp.sk, draft.signing_bytes()))


def make_txs(seed: int, n: int,
             stores: Iterable[Keyring] = ()) -> list[Transaction]:
    return [make_tx(seed * 1000 + i, stores=stores) for i in range(n)]


@pytest.fixture
def txs(keys4, keys7):
    return make_txs(7, 6, stores=(keys4, keys7))


def leader_uniformity_p(counts: dict, n_validators: int) -> float:
    """Chi-square goodness-of-fit p-value against the uniform leader
    distribution, zero-padded to the full validator set."""
    from scipy.stats import chisquare
    observed = [counts.get(i, 0) for i in range(n_validators)]
    if sum(observed) == 0:
        raise PosnError("uniformity test needs at least one observation")
    return float(chisquare(observed).pvalue)
