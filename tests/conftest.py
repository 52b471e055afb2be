import random
import sys
import tempfile
from dataclasses import replace
from typing import Iterable

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import posn.consensus as consensus
import posn.crypto as crypto
from posn.consensus import Keyring
from posn.core import PosnError, Transaction, default_config
from posn.crypto import Signature, keygen, sign

# every property test is derandomized and keeps no example database, so
# tier-1 runs are reproducible; the cache Hypothesis still keeps (constants
# read from local sources) goes to a directory removed at exit, not to
# .hypothesis/
settings.register_profile("posn", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("posn")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="posn-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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


@pytest.fixture
def verdicts(monkeypatch):
    """The (node index, block, reason) of every consensus.validate_proposal
    call, in call order; the reason is None for an accepted block. Its
    caller is a `Node` method, whose `self` names the node that judged."""
    rows = []
    judge = consensus.validate_proposal

    def recording(block, *args, **kwargs):
        reason = judge(block, *args, **kwargs)
        rows.append((sys._getframe(1).f_locals["self"].index, block, reason))
        return reason

    monkeypatch.setattr(consensus, "validate_proposal", recording)
    return rows


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
