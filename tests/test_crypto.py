import pytest

from posn.consensus import Keyring
from posn.crypto import keygen, sign, verify, vrf_eval, vrf_verify


def _store(*pairs):
    """A key store holding just `pairs`."""
    store = Keyring(0, 0)
    for kp in pairs:
        store.add(kp)
    return store


def test_keygen_deterministic():
    a = keygen(42, 3)
    b = keygen(42, 3)
    assert a.pk == b.pk and a.sk == b.sk
    assert keygen(42, 4).pk != a.pk
    assert keygen(43, 3).pk != a.pk


def test_keys_are_32_bytes():
    kp = keygen(1, 0)
    assert len(kp.pk) == 32
    assert len(kp.sk) == 32


def test_sign_verify_roundtrip():
    kp = keygen(7, 0)
    sig = sign(kp.sk, b"hello")
    assert verify(kp.pk, b"hello", sig, store=_store(kp))


def test_verify_rejects_wrong_message():
    kp = keygen(7, 0)
    sig = sign(kp.sk, b"hello")
    assert not verify(kp.pk, b"hellp", sig, store=_store(kp))


def test_verify_rejects_wrong_key():
    kp = keygen(7, 0)
    other = keygen(7, 1)
    sig = sign(kp.sk, b"hello")
    assert not verify(other.pk, b"hello", sig, store=_store(kp, other))


def test_verify_rejects_tampered_signature():
    kp = keygen(7, 0)
    sig = sign(kp.sk, b"hello")
    bad = type(sig)(bytes([sig.tag[0] ^ 1]) + sig.tag[1:])
    assert not verify(kp.pk, b"hello", bad, store=_store(kp))


def test_verify_needs_the_key_in_the_store():
    kp = keygen(7, 0)
    sig = sign(kp.sk, b"hello")
    assert not verify(kp.pk, b"hello", sig, store=_store())
    assert not verify(kp.pk, b"hello", sig, store=_store(keygen(8, 0)))


def test_vrf_deterministic_and_verifiable():
    kp = keygen(9, 2)
    out1 = vrf_eval(kp.sk, b"alpha")
    out2 = vrf_eval(kp.sk, b"alpha")
    assert out1.value == out2.value and out1.proof == out2.proof
    assert vrf_verify(kp.pk, b"alpha", out1, store=_store(kp))


def test_vrf_distinct_inputs_distinct_values():
    kp = keygen(9, 2)
    assert vrf_eval(kp.sk, b"alpha").value != vrf_eval(kp.sk, b"beta").value


def test_vrf_verify_rejects_forgery():
    kp = keygen(9, 2)
    other = keygen(9, 3)
    store = _store(kp, other)
    out = vrf_eval(kp.sk, b"alpha")
    assert not vrf_verify(other.pk, b"alpha", out, store=store)
    assert not vrf_verify(kp.pk, b"beta", out, store=store)
    forged = type(out)(out.value, bytes(32))
    assert not vrf_verify(kp.pk, b"alpha", forged, store=store)


@pytest.mark.parametrize("n", [4, 7])
def test_distinct_validators_distinct_keys(n):
    pks = {keygen(11, i).pk for i in range(n)}
    assert len(pks) == n


# --- the store's checked inputs ---------------------------------------------

def test_check_verifies_a_good_signature_once(verify_calls):
    keys = Keyring(5, 4)
    sig = sign(keys.sk(2), b"hello")
    assert keys.check(keys.validator(2).pk, b"hello", sig)
    assert keys.check(keys.validator(2).pk, b"hello", sig)
    assert len(verify_calls) == 1


def test_check_rechecks_a_bad_signature_every_time(verify_calls):
    keys = Keyring(5, 4)
    forged = sign(keys.sk(1), b"hello")  # validator 1's tag under 2's key
    assert not keys.check(keys.validator(2).pk, b"hello", forged)
    assert not keys.check(keys.validator(2).pk, b"hello", forged)
    assert len(verify_calls) == 2


def test_check_vrf_verifies_once_and_never_trusts_a_forgery(verify_calls):
    keys = Keyring(5, 4)
    pk = keys.validator(3).pk
    out = vrf_eval(keys.sk(3), b"alpha")
    forged = type(out)(out.value, bytes(32))
    assert keys.check_vrf(pk, b"alpha", out)
    assert keys.check_vrf(pk, b"alpha", out)
    assert not keys.check_vrf(pk, b"alpha", forged)
    assert not keys.check_vrf(pk, b"alpha", forged)
    assert len(verify_calls) == 3


def test_rotation_drops_only_what_two_generations_did_not_use(verify_calls):
    keys = Keyring(5, 4)
    pk = keys.validator(0).pk
    kept, dropped = b"kept", b"dropped"
    sigs = {msg: sign(keys.sk(0), msg) for msg in (kept, dropped)}
    for msg in (kept, dropped):
        assert keys.check(pk, msg, sigs[msg])
    keys.rotate()
    assert keys.check(pk, kept, sigs[kept])  # old generation: moves up
    keys.rotate()
    assert len(verify_calls) == 2
    # a miss after pruning verifies again, with the same verdict
    assert keys.check(pk, kept, sigs[kept])
    assert len(verify_calls) == 2
    assert keys.check(pk, dropped, sigs[dropped])
    assert verify_calls[-1] == (pk, dropped, sigs[dropped])
    assert len(verify_calls) == 3
