import random
from dataclasses import replace

import pytest

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


def make_tx(seed: int, value: int = None, fee: int = None) -> Transaction:
    """One signed transaction with pseudo-random fields."""
    rng = random.Random(seed)
    kp = keygen(0xC11E47, 50_000 + rng.randrange(1 << 16))
    receiver = keygen(0xC11E47, 90_000 + rng.randrange(1 << 16)).pk
    value = rng.randrange(1, 5000) if value is None else value
    fee = rng.randrange(0, 800) if fee is None else fee
    draft = Transaction(id=rng.getrandbits(256).to_bytes(32, "big"),
                        sender=kp.pk, receiver=receiver,
                        value=value, fee=fee,
                        signature=Signature(b"\x00" * 32))
    return replace(draft, signature=sign(kp.sk, draft.signing_bytes()))


def make_txs(seed: int, n: int) -> list[Transaction]:
    return [make_tx(seed * 1000 + i) for i in range(n)]


@pytest.fixture
def txs():
    return make_txs(7, 6)


def leader_uniformity_p(counts: dict, n_validators: int) -> float:
    """Chi-square goodness-of-fit p-value against the uniform leader
    distribution, zero-padded to the full validator set."""
    from scipy.stats import chisquare
    observed = [counts.get(i, 0) for i in range(n_validators)]
    if sum(observed) == 0:
        raise PosnError("uniformity test needs at least one observation")
    return float(chisquare(observed).pvalue)
