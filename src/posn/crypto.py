"""Simulated-but-verifiable cryptographic primitives.

Key pairs, signatures and a VRF stand-in are all keyed blake2b digests.
They give the protocol logic what it actually needs -- determinism,
public verifiability and uniformity -- without real key material.
`keygen` is a pure derivation. Verification needs the signer's secret,
so `verify` and `vrf_verify` take the run's key store (a
`consensus.Keyring`, the one place that holds a run's pk -> sk map) and
fail for a key the store does not hold: a signature from one run never
verifies in another, and no adversary code path can produce a verifying
tag without the secret key.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .consensus import Keyring

DIGEST_SIZE = 32


@dataclass(frozen=True)
class KeyPair:
    pk: bytes
    sk: bytes


@dataclass(frozen=True)
class Signature:
    tag: bytes


@dataclass(frozen=True)
class VrfOutput:
    value: bytes
    proof: bytes


def _h(*parts: bytes) -> bytes:
    """Domain-separated digest: every part is length-prefixed."""
    h = blake2b(digest_size=DIGEST_SIZE)
    for p in parts:
        h.update(len(p).to_bytes(4, "little"))
        h.update(p)
    return h.digest()


def keygen(seed: int, index: int) -> KeyPair:
    """Derive the key pair for validator/client `index` under a run seed.

    Deterministic per (seed, index); distinct indices give distinct keys.
    """
    sk = _h(b"posn-keygen", seed.to_bytes(8, "little", signed=False),
            index.to_bytes(8, "little", signed=True))
    return KeyPair(pk=_h(b"posn-pk", sk), sk=sk)


def sign(sk: bytes, msg: bytes) -> Signature:
    return Signature(tag=_h(b"posn-sig", sk, msg))


def verify(pk: bytes, msg: bytes, sig: Signature, *, store: Keyring) -> bool:
    sk = store.secret(pk)
    if sk is None:
        return False
    return sig.tag == _h(b"posn-sig", sk, msg)


def vrf_eval(sk: bytes, data: bytes) -> VrfOutput:
    """Pseudo-random value plus proof, a pure function of (sk, data)."""
    return VrfOutput(value=_h(b"posn-vrf-value", sk, data),
                     proof=_h(b"posn-vrf-proof", sk, data))


def vrf_verify(pk: bytes, data: bytes, out: VrfOutput, *,
               store: Keyring) -> bool:
    sk = store.secret(pk)
    if sk is None:
        return False
    return (out.value == _h(b"posn-vrf-value", sk, data)
            and out.proof == _h(b"posn-vrf-proof", sk, data))
