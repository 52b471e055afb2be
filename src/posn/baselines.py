"""Leader election for the two comparison protocols.

PoR picks the validator with the smallest VRF value over the slot beacon
data; PoB samples proportionally to externally supplied contribution
scores. `make_elector` turns either into the slot context that the node
pipeline reads. Everything else (snapshotting, proposing, proposal
validation, voting, quorum finality, rewards, evidence and penalties) is
shared with the main protocol, so performance differences come from
election latency overheads alone, which is the point of the comparison.
These are minimal readings of the source protocols, not reconstructions;
orderings measured against them are configuration-dependent by nature.
"""

from __future__ import annotations

from typing import Optional

from . import crypto
from .consensus import ElectionResult, Keyring, ReplayFn, SlotContext
from .core import Config, ValidatorId, u64
from .kernels import Stream, stream_key

# mapping ValidatorId -> non-negative score, not all zero (netsim's
# check_inputs holds that rule); normalized at sampling time
ContributionScore = dict[ValidatorId, float]


def beacon_data(slot: int, parent_hash: bytes) -> bytes:
    return b"posn-beacon" + u64(slot) + parent_hash


def por_elect(slot: int, parent_hash: bytes,
              validators: tuple[ValidatorId, ...],
              keys: Keyring) -> ValidatorId:
    """Smallest VRF value over (slot, parent) wins; verifiable by anyone
    holding the public keys."""
    data = beacon_data(slot, parent_hash)
    return min(validators,
               key=lambda v: (crypto.vrf_eval(keys.sk(v.index), data).value,
                              v.index))


def pob_elect(slot: int, scores: ContributionScore,
              seed: int) -> ValidatorId:
    """Score-proportional sampling, deterministic per (seed, slot).

    Scaling all scores by a common power of two provably keeps the pick
    identical; other common factors do up to float rounding.
    """
    ordered = sorted(scores.items(), key=lambda kv: kv[0].index)
    total = sum(s for _, s in ordered)
    draw = Stream(stream_key(u64(seed), b"pob", u64(slot))).at(0)
    u = (draw >> 11) * 2.0 ** -53  # uniform in [0, 1), 53 bits
    target = u * total
    acc = 0.0
    for vid, s in ordered:
        acc += s
        if target < acc:
            return vid
    return ordered[-1][0]


def uniform_scores(validators: tuple[ValidatorId, ...]) -> ContributionScore:
    return {v: 1.0 for v in validators}


def make_elector(protocol: str, cfg: Config, keys: Keyring,
                 scores: Optional[ContributionScore] = None) -> ReplayFn:
    """The baseline's slot context for the shared node pipeline: no neuron
    is replayed (fire_steps is None), and the election is a degenerate
    ElectionResult (fire step 0, no tie) naming the leader. The spike set
    is ignored; it is always empty under a baseline."""
    if protocol not in ("por", "pob"):
        raise ValueError(f"no baseline elector for protocol {protocol!r}")
    table = scores if scores is not None else uniform_scores(keys.validators)

    def replay(slot: int, parent_hash: bytes, spike_txs) -> SlotContext:
        leader = (por_elect(slot, parent_hash, keys.validators, keys)
                  if protocol == "por"
                  else pob_elect(slot, table, cfg.master_seed))
        return SlotContext(fire_steps=None, election=ElectionResult(
            leader=leader, fire_step=0, tie_set=frozenset((leader,))))
    return replay
