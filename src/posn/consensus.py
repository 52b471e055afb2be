"""Slot-based finality around first-spike leader election.

Each slot: nodes freeze a transaction snapshot, replay every validator's
neuron over it, and elect the earliest spiker (VRF value breaks ties).
The leader proposes a block; peers accept only what they can reproduce
bit-for-bit (spike replay, election, mempool ordering), vote once, and
finalize on a strict two-thirds quorum. The ordering is the slot's block
selection in `core.select_mempool`'s order, which the leader signs as
given and a peer compares as is. Rewards, penalties for provable
misbehavior, and the per-node slot state machine live here too. The PoB
and PoR baselines swap only the election step: each supplies its slot
context as a `ReplayFn`, and proposal validation, evidence checks and
penalties are the same code for all three protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Union

from . import crypto
from .core import (CLIENT_BASE, Block, ChainState, Config, PenaltyEntry,
                   PosnError, Transaction, ValidatorId, Vote, append_block,
                   hash_block, u64, vote_signing_bytes)
from .neuro import SlotSeed, fire_steps, make_slot_seed

# slot outcomes; Skipped is the timeout exit
FINALIZED = "Finalized"
SKIPPED = "Skipped"


class InvalidEvidence(PosnError):
    pass


@dataclass(frozen=True)
class ElectionResult:
    leader: ValidatorId
    fire_step: int
    tie_set: frozenset[ValidatorId]
    # the winner's VRF output when a VRF broke a tie, else None
    vrf_output: Optional[crypto.VrfOutput] = None


@dataclass(frozen=True)
class Equivocation:
    """Two signed, distinct blocks for the same slot by the same proposer."""
    block_a: Block
    block_b: Block


@dataclass(frozen=True)
class ForgedSpike:
    """A signed block whose claimed fire step or leadership fails replay.

    Carries the spike-set snapshot and parent hash so the mismatch is
    reproducible by anyone holding the same keyring.
    """
    block: Block
    spike_txs: tuple[Transaction, ...]
    parent_hash: bytes


Evidence = Union[Equivocation, ForgedSpike]


class Keyring:
    """The key store of one simulated network: every validator and client
    key pair, index-addressed, and the signatures already checked.

    A real deployment would hold one secret key per process; the
    simulation keeps the full set so elections and VRF checks can be
    recomputed by any node, mirroring broadcast VRF proofs without
    modeling them as messages. It is also the pk -> sk map that
    `crypto.verify` reads, so keys never leak from one run into another.

    `check` and `check_vrf` verify an input once and trust it after that,
    as a node trusts a block it already validated. Only inputs that
    verified are remembered, so a forgery is checked every time. They are
    kept in two generations, and `rotate` drops the older one; the harness
    rotates once per slot, so the set is bounded by slots, not by the run
    length. A miss after a rotation just verifies again, so rotating never
    changes a verdict.
    """

    def __init__(self, master_seed: int, n: int, n_clients: int = 0):
        self.pairs = tuple(crypto.keygen(master_seed, i) for i in range(n))
        self.clients = tuple(crypto.keygen(master_seed, CLIENT_BASE + i)
                             for i in range(n_clients))
        self.validators = tuple(ValidatorId(i, kp.pk)
                                for i, kp in enumerate(self.pairs))
        self._secrets: dict[bytes, bytes] = {}
        for kp in self.pairs + self.clients:
            self.add(kp)
        # verified inputs, this generation and the one before
        self._checked: set[tuple] = set()
        self._older: set[tuple] = set()

    def add(self, kp: crypto.KeyPair) -> None:
        """Hold one more key pair, so signatures under it verify."""
        self._secrets[kp.pk] = kp.sk

    def secret(self, pk: bytes) -> Optional[bytes]:
        return self._secrets.get(pk)

    def sk(self, index: int) -> bytes:
        return self.pairs[index].sk

    def validator(self, index: int) -> ValidatorId:
        return self.validators[index]

    def known(self, vid: ValidatorId) -> bool:
        return (0 <= vid.index < len(self.validators)
                and self.validators[vid.index].pk == vid.pk)

    def check(self, pk: bytes, msg: bytes, sig: crypto.Signature) -> bool:
        """`crypto.verify`, run only for a (pk, msg, tag) not yet verified."""
        key = (pk, msg, sig.tag)
        if key in self._checked:
            return True
        return self._verify(key, crypto.verify, pk, msg, sig)

    def check_vrf(self, pk: bytes, data: bytes,
                  out: crypto.VrfOutput) -> bool:
        """`crypto.vrf_verify`, run only for an output not yet verified."""
        key = (pk, data, out)
        if key in self._checked:
            return True
        return self._verify(key, crypto.vrf_verify, pk, data, out)

    def _verify(self, key: tuple, verify: Callable[..., bool], *args) -> bool:
        """Whether `key` verified in the older generation or
        `verify(*args)` passes now; a pass joins this generation. The
        callers test this generation first, as most checks hit there."""
        if key in self._older or verify(*args, store=self):
            self._checked.add(key)
            return True
        return False

    def rotate(self) -> None:
        """Start a new generation of checked inputs; drop the oldest."""
        self._older, self._checked = self._checked, set()


# ---------------------------------------------------------------------------
# election
# ---------------------------------------------------------------------------

def quorum_threshold(n: int) -> int:
    """Smallest vote count strictly above two thirds of n."""
    return (2 * n) // 3 + 1


def election_data(slot: int, parent_hash: bytes) -> bytes:
    return b"posn-elect" + u64(slot) + parent_hash


def elect_leader(fire_steps: dict[ValidatorId, Optional[int]], slot: int,
                 parent_hash: bytes, keys: Keyring) -> Optional[ElectionResult]:
    """Earliest spiker wins; among simultaneous spikers the smallest VRF
    value over (slot, parent) wins. None when nobody fired."""
    fired = [(step, vid) for vid, step in fire_steps.items() if step is not None]
    if not fired:
        return None
    best = min(step for step, _ in fired)
    tied = sorted((vid for step, vid in fired if step == best),
                  key=lambda v: v.index)
    if len(tied) == 1:
        return ElectionResult(leader=tied[0], fire_step=best,
                              tie_set=frozenset(tied))
    data = election_data(slot, parent_hash)
    outs = {vid: crypto.vrf_eval(keys.sk(vid.index), data) for vid in tied}
    winner = min(tied, key=lambda v: (outs[v].value, v.index))
    return ElectionResult(leader=winner, fire_step=best,
                          tie_set=frozenset(tied), vrf_output=outs[winner])


def sign_block(block: Block, sk: bytes) -> Block:
    """`block` signed by `sk`; its core bytes never cover the signature."""
    return replace(block, proposer_signature=crypto.sign(sk,
                                                         block.core_bytes()))


def propose(sk: bytes, slot: int, parent_hash: bytes,
            txs: tuple[Transaction, ...], election: ElectionResult) -> Block:
    """The elected leader's block for this slot, carrying `txs` (the
    slot's block selection) as given, signed by `sk`."""
    return sign_block(Block(slot=slot, proposer=election.leader,
                            parent_hash=parent_hash, txs=txs,
                            claimed_fire_step=election.fire_step,
                            vrf_output=election.vrf_output), sk)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _proposer_fault(block: Block, keys: Keyring) -> Optional[str]:
    """Why the block is not signed by a known validator, or None."""
    if not keys.known(block.proposer):
        return "UnknownProposer"
    if block.proposer_signature is None or not keys.check(
            block.proposer.pk, block.core_bytes(), block.proposer_signature):
        return "BadBlockSignature"
    return None


def check_signatures(block: Block, keys: Keyring) -> Optional[str]:
    bad = _proposer_fault(block, keys)
    if bad is not None:
        return bad
    for tx in block.txs:
        if not keys.check(tx.sender, tx.signing_bytes(), tx.signature):
            return "BadTxSignature"
    return None


def compute_fire_steps(validators: Sequence[ValidatorId],
                       spike_txs: Sequence[Transaction], seed: SlotSeed,
                       cfg: Config) -> dict[ValidatorId, Optional[int]]:
    return dict(zip(validators, fire_steps(validators, spike_txs, seed, cfg)))


# context computed once per (slot, parent, spike set), kept in that slot's
# SlotView; fire_steps is None when the election replays no neurons (the
# baselines)
@dataclass(frozen=True)
class SlotContext:
    fire_steps: Optional[dict[ValidatorId, Optional[int]]]
    election: Optional[ElectionResult]


ReplayFn = Callable[[int, bytes, tuple[Transaction, ...]], SlotContext]


@dataclass(frozen=True)
class SlotView:
    """What every node that begins a slot on one chain tip sees, built
    once per (slot, tip): the pending txs in `select_mempool`'s order,
    the spike set and block selection (prefixes of that pool; no spike
    set under the baselines) and the slot's context."""
    pool: tuple[Transaction, ...]
    spike_txs: tuple[Transaction, ...]
    block_txs: tuple[Transaction, ...]
    ctx: SlotContext


def compute_slot_context(slot: int, parent_hash: bytes,
                         spike_txs: tuple[Transaction, ...], cfg: Config,
                         keys: Keyring) -> SlotContext:
    seed = make_slot_seed(parent_hash, slot, spike_txs)
    steps = compute_fire_steps(keys.validators, spike_txs, seed, cfg)
    return SlotContext(fire_steps=steps,
                       election=elect_leader(steps, slot, parent_hash, keys))


def _refuted_by_replay(block: Block, ctx: SlotContext) -> Optional[str]:
    """Why the slot's replay refutes the block's claim, or None: the
    proposer's neuron (if replayed) did not fire at the claimed step, or
    it did not win the election. The proposer must be a known validator."""
    if ctx.fire_steps is not None:
        replayed = ctx.fire_steps[block.proposer]
        if replayed is None or replayed != block.claimed_fire_step:
            return "SpikeMismatch"
    if ctx.election is None or ctx.election.leader != block.proposer:
        return "NotElected"
    return None


def validate_proposal(block: Block, slot: int, parent_hash: bytes,
                      block_txs: tuple[Transaction, ...], keys: Keyring,
                      ctx: SlotContext) -> Optional[str]:
    """Why the block is rejected, or None when it is accepted. Replay-based,
    first failed check wins: signatures, parent link, spike replay,
    election, mempool ordering.

    `ctx` is the slot's context, whose fire steps and election the
    checks read; the block's txs must be the slot's selection `block_txs`.
    """
    bad = check_signatures(block, keys)
    if bad is not None:
        return bad
    if block.slot != slot:
        return "WrongSlot"
    if block.parent_hash != parent_hash:
        return "ParentMismatch"
    refuted = _refuted_by_replay(block, ctx)
    if refuted is not None:
        return refuted
    if ctx.election.vrf_output is not None and (
            block.vrf_output is None or not keys.check_vrf(
                block.proposer.pk, election_data(slot, parent_hash),
                block.vrf_output)):
        return "VrfMismatch"
    if block.txs != block_txs:
        return "MempoolMismatch"
    return None


def collect_votes(votes: Iterable[Vote], block_hash: bytes, slot: int,
                  n: int, keys: Keyring) -> tuple[bool, tuple[Vote, ...]]:
    """Valid, per-voter-deduplicated votes on the block `block_hash` of
    `slot`; finalized when they reach the quorum threshold. A vote for
    another block or slot is dropped."""
    seen: dict[int, Vote] = {}
    for v in votes:
        if v.block_hash != block_hash or v.slot != slot \
                or not keys.known(v.voter):
            continue
        if v.voter.index in seen:
            continue
        if keys.check(v.voter.pk, v.signing_bytes(), v.signature):
            seen[v.voter.index] = v
    quorum = tuple(seen.values())
    return len(quorum) >= quorum_threshold(n), quorum


def make_vote(voter: ValidatorId, sk: bytes, slot: int,
              block_hash: bytes) -> Vote:
    return Vote(slot=slot, block_hash=block_hash, voter=voter,
                signature=crypto.sign(sk, vote_signing_bytes(slot, block_hash)))


# ---------------------------------------------------------------------------
# rewards and penalties
# ---------------------------------------------------------------------------

def distribute_rewards(block: Block, quorum: Sequence[Vote],
                       cfg: Config) -> dict[int, int]:
    """{validator index: credit}: base reward plus fees to the leader,
    `r_vote` to each distinct voter; leader first, voters in index order."""
    credits = {block.proposer.index: cfg.r_base + sum(tx.fee
                                                      for tx in block.txs)}
    for idx in sorted({v.voter.index for v in quorum}):
        credits[idx] = credits.get(idx, 0) + cfg.r_vote
    return credits


def verify_evidence(evidence: Evidence, keys: Keyring,
                    ctx: Optional[SlotContext] = None) -> None:
    """Raise InvalidEvidence unless the evidence is self-proving.

    A forged spike is checked against `ctx`, which the caller must pass:
    the context of its (slot, parent, spike set)."""
    if isinstance(evidence, Equivocation):
        a, b = evidence.block_a, evidence.block_b
        if a.slot != b.slot or a.proposer != b.proposer:
            raise InvalidEvidence("blocks differ in slot or proposer")
        if hash_block(a) == hash_block(b):
            raise InvalidEvidence("blocks are identical")
        signed = (a, b)
    elif isinstance(evidence, ForgedSpike):
        signed = (evidence.block,)
    else:
        raise InvalidEvidence(
            f"unknown evidence type {type(evidence).__name__}")
    for blk in signed:
        bad = _proposer_fault(blk, keys)
        if bad is not None:
            raise InvalidEvidence(bad)
    if isinstance(evidence, ForgedSpike):
        if ctx is None:
            raise TypeError("forged-spike evidence needs its slot context")
        if _refuted_by_replay(evidence.block, ctx) is None:
            raise InvalidEvidence("replay matches the claim")


def evidence_key(evidence: Evidence) -> tuple[str, int, int]:
    """(reason, offender index, slot) identity used for deduplication."""
    if isinstance(evidence, Equivocation):
        return ("equivocation", evidence.block_a.proposer.index,
                evidence.block_a.slot)
    return ("forged_spike", evidence.block.proposer.index, evidence.block.slot)


def apply_penalty(chain: ChainState, evidence: Evidence, cfg: Config,
                  keys: Keyring, ctx: Optional[SlotContext] = None
                  ) -> ChainState:
    """Penalize a proven offense: balance cut, burned by default or split
    across the other validators when cfg.penalty_redistribute is set.
    Idempotent per (offense, offender, slot); invalid evidence raises and
    changes nothing. `ctx` is passed on to `verify_evidence`."""
    verify_evidence(evidence, keys, ctx)
    reason, offender, slot = evidence_key(evidence)
    for entry in chain.penalties_log:
        if (entry.reason, entry.validator, entry.slot) == (reason, offender, slot):
            return chain
    amount = (cfg.penalty_equivocation if reason == "equivocation"
              else cfg.penalty_forged_spike)
    balances = dict(chain.balances)
    balances[offender] = balances.get(offender, 0) - amount
    burned = amount
    if cfg.penalty_redistribute and cfg.n_validators > 1:
        others = [i for i in range(cfg.n_validators) if i != offender]
        share = amount // len(others)
        if share > 0:
            for i in others:
                balances[i] = balances.get(i, 0) + share
            burned = amount - share * len(others)
    entry = PenaltyEntry(validator=offender, slot=slot, amount=amount,
                         reason=reason)
    return replace(chain, balances=balances,
                   penalties_log=chain.penalties_log + (entry,),
                   total_burned=chain.total_burned + burned)


# ---------------------------------------------------------------------------
# protocol messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinalizeMsg:
    """Finalization announcement: block plus its quorum certificate, so
    nodes whose own vote collection fell short can still append."""
    block: Block
    votes: tuple[Vote, ...]


# a proposal travels as its block, a vote and evidence as themselves
Payload = Union[Block, Vote, Equivocation, ForgedSpike, FinalizeMsg]

BROADCAST = None


@dataclass(frozen=True)
class Outgoing:
    send_at: float
    payload: Payload
    dest: Optional[int] = BROADCAST  # validator index, None = everyone


# ---------------------------------------------------------------------------
# node state machine
# ---------------------------------------------------------------------------

@dataclass
class _SlotState:
    """Everything scoped to the slot in progress."""
    slot: int = -1
    started_ms: float = 0.0
    view: Optional[SlotView] = None
    proposals: dict[int, dict[bytes, Block]] = field(default_factory=dict)
    relayed: int = 0
    votes: dict[bytes, list[Vote]] = field(default_factory=dict)
    voted_indices: set[int] = field(default_factory=set)
    voted: bool = False
    # hashes of the proposals judged in this slot
    validated: set[bytes] = field(default_factory=set)
    finalized: bool = False
    finalize_ms: Optional[float] = None
    quorum_size: int = 0


class Node:
    """One validator's event-driven state machine.

    The harness drives it through begin_slot / on_message / end_slot and
    ships the returned Outgoing messages; nothing here touches the
    network or the clock directly, which keeps replays exact. Broadcasts
    are delivered back to the sender too, so a leader processes its own
    proposal through the same path as everyone else. This class is
    always the honest protocol: the harness applies a Byzantine strategy
    as a filter on the batches a node returns. A node keeps no mempool:
    `view` gives the slot's `SlotView` (with its context) for the node's
    chain tip, shared by every node on that tip; `replay` serves only
    evidence found after the tip moved mid-slot; `protocol` picks only
    the proposal's send time. `on_message` routes each payload once, by
    its type (`_HANDLERS`), and returns None for a proposal or vote of
    another slot, which the harness counts as stale; the node is the one
    place that decides this. A node judges each distinct proposal once
    per slot and keeps no verdict (`validate_proposal`'s reason): it votes
    on None, and a replay refutation is evidence. A copy of a proposal it
    has judged changes nothing, so it returns at once. Each vote is
    checked once, where it arrives: `_on_vote` checks a single vote
    (slot, voter, key, signature) and `collect_votes` the quorum of a
    `FinalizeMsg`; the chain then takes the checked quorum's credits
    without a re-check.
    """

    def __init__(self, index: int, keys: Keyring, cfg: Config,
                 protocol: str, replay: ReplayFn,
                 view: Callable[[int, ChainState], SlotView]):
        self.index = index
        self.keys = keys
        self.cfg = cfg
        self.protocol = protocol
        self.me = keys.validator(index)
        self.sk = keys.sk(index)
        self.chain = ChainState()
        self.slot = _SlotState()
        self.slot_records: list[dict] = []
        # (tip, spike set, context) each recent slot began with; not the
        # view, so that no pool outlives the harness's views
        self.slot_history: dict[int, tuple] = {}
        self.evidence_seen: set[tuple[str, int, int]] = set()
        self.finalize_seen: set[tuple[int, bytes]] = set()
        self.pending_finalize: dict[bytes, tuple[Block, tuple[Vote, ...]]] = {}
        self.block_final_ms: dict[int, float] = {}
        self._replay = replay
        self._view = view

    # -- slot lifecycle ----------------------------------------------------

    def begin_slot(self, slot: int, now: float) -> list[Outgoing]:
        view = self._view(slot, self.chain)
        self.slot = _SlotState(slot=slot, started_ms=now, view=view)
        self.slot_history[slot] = (self.chain.tip_hash, view.spike_txs,
                                   view.ctx)
        for old in [s for s in self.slot_history if s < slot - 3]:
            del self.slot_history[old]
        election = view.ctx.election
        if election is not None and election.leader.index == self.index:
            return [self._make_proposal(now, election)]
        return []

    def _make_proposal(self, now: float, election: ElectionResult) -> Outgoing:
        block = propose(self.sk, self.slot.slot, self.chain.tip_hash,
                        self.slot.view.block_txs, election)
        if self.protocol == "posn":
            # the leader can only speak once its neuron has actually fired
            send_at = now + (election.fire_step + 1) * self.cfg.dt_ms
        else:
            send_at = now + self.cfg.overhead_ms(self.protocol)
        return Outgoing(send_at=send_at, payload=block)

    def end_slot(self, slot: int, now: float) -> list[Outgoing]:
        if slot != self.slot.slot:
            return []
        election = self.slot.view.ctx.election
        self.slot_records.append({
            "slot": slot,
            "outcome": FINALIZED if self.slot.finalized else SKIPPED,
            "leader": election.leader.index if election else None,
            "fire_step": election.fire_step if election else None,
            "tie_size": len(election.tie_set) if election else 0,
            "vrf_used": (election.vrf_output is not None
                         if election else False),
            "quorum_size": self.slot.quorum_size,
            "n_block_txs": (len(self.chain.finalized[-1].txs)
                            if self.slot.finalized else 0),
            "finalize_ms": self.slot.finalize_ms,
        })
        self.evidence_seen = {k for k in self.evidence_seen
                              if k[2] >= slot - 3}
        return []

    # -- message handling --------------------------------------------------

    def on_message(self, now: float,
                   payload: Payload) -> Optional[list[Outgoing]]:
        """The messages `payload` makes this node send; None when it is a
        proposal or vote of a slot other than the one in progress."""
        return _HANDLERS[type(payload)](self, now, payload)

    def _on_proposal(self, now: float, block: Block
                     ) -> Optional[list[Outgoing]]:
        if block.slot != self.slot.slot:
            return None
        block_hash = hash_block(block)
        if block_hash in self.slot.validated:
            return []
        self.slot.validated.add(block_hash)
        out: list[Outgoing] = []
        per_proposer = self.slot.proposals.setdefault(block.proposer.index, {})
        if len(per_proposer) < 2:
            per_proposer[block_hash] = block
        if len(per_proposer) == 2:
            a, b = list(per_proposer.values())
            out.extend(self._found_evidence(now, Equivocation(a, b)))

        # relay each distinct proposal once, so peers a selective sender
        # skipped still see it and equivocation becomes provable
        if self.slot.relayed < 4:
            self.slot.relayed += 1
            out.append(Outgoing(send_at=now, payload=block))

        view = self.slot.view
        reason = validate_proposal(block, self.slot.slot, self.chain.tip_hash,
                                   view.block_txs, self.keys, ctx=view.ctx)
        if reason in ("SpikeMismatch", "NotElected"):
            out.extend(self._found_evidence(now, ForgedSpike(
                block=block, spike_txs=view.spike_txs,
                parent_hash=self.chain.tip_hash)))
        if reason is None and not self.slot.voted \
                and not self.slot.finalized:
            vote = make_vote(self.me, self.sk, self.slot.slot, block_hash)
            self.slot.voted = True
            out.append(Outgoing(send_at=now, payload=vote))
        # votes can outrun the proposal they refer to
        bucket = self.slot.votes.get(block_hash, ())
        if not self.slot.finalized \
                and len(bucket) >= quorum_threshold(self.cfg.n_validators):
            out.extend(self._append(now, block, tuple(bucket)))
        return out

    def _began_with(self, evidence: ForgedSpike) -> Optional[SlotContext]:
        """The context this node began the evidence's slot with, if on the
        evidence's tip and spike set."""
        tip, spike_txs, ctx = self.slot_history.get(evidence.block.slot,
                                                    (None,) * 3)
        same = (tip, spike_txs) == (evidence.parent_hash, evidence.spike_txs)
        return ctx if same else None

    def _found_evidence(self, now: float,
                        evidence: Evidence) -> list[Outgoing]:
        if not self._penalize(evidence):
            return []
        return [Outgoing(send_at=now, payload=evidence)]

    def _on_evidence(self, now: float, evidence: Evidence) -> list[Outgoing]:
        # a forged spike counts only on the tip and spike set this node
        # began the slot with (a context is never falsy)
        if isinstance(evidence, Equivocation) or self._began_with(evidence):
            self._penalize(evidence)
        return []

    def _penalize(self, evidence: Evidence) -> bool:
        """Apply evidence not seen before; True when it was new and valid."""
        key = evidence_key(evidence)
        if key in self.evidence_seen:
            return False
        self.evidence_seen.add(key)
        ctx = None
        if isinstance(evidence, ForgedSpike):
            # no stored context only for evidence this node found after a
            # finalization moved its tip mid-slot: replay the new tip with
            # the old spike set. ROADMAP item 3 deletes this branch
            ctx = self._began_with(evidence) or self._replay(
                evidence.block.slot, evidence.parent_hash, evidence.spike_txs)
        try:
            self.chain = apply_penalty(self.chain, evidence, self.cfg,
                                       self.keys, ctx)
        except InvalidEvidence:
            return False
        return True

    def _on_vote(self, now: float, vote: Vote) -> Optional[list[Outgoing]]:
        if vote.slot != self.slot.slot:
            return None
        if self.slot.finalized or vote.voter.index in self.slot.voted_indices:
            return []
        if not self.keys.known(vote.voter) or not self.keys.check(
                vote.voter.pk, vote.signing_bytes(), vote.signature):
            return []
        self.slot.voted_indices.add(vote.voter.index)
        bucket = self.slot.votes.setdefault(vote.block_hash, [])
        bucket.append(vote)
        if len(bucket) >= quorum_threshold(self.cfg.n_validators):
            for per_proposer in self.slot.proposals.values():
                if vote.block_hash in per_proposer:
                    return self._append(now, per_proposer[vote.block_hash],
                                        tuple(bucket))
        return []

    def _append(self, now: float, block: Block,
                votes: tuple[Vote, ...]) -> list[Outgoing]:
        if block.parent_hash != self.chain.tip_hash:
            self.pending_finalize[block.parent_hash] = (block, votes)
            return []
        self.chain = append_block(self.chain, block,
                                  distribute_rewards(block, votes, self.cfg))
        self.block_final_ms[block.slot] = now
        out: list[Outgoing] = []
        if block.slot == self.slot.slot:
            if not self.slot.finalized:
                out.append(Outgoing(send_at=now,
                                    payload=FinalizeMsg(block, votes)))
            self.slot.finalized = True
            self.slot.finalize_ms = now
            self.slot.quorum_size = len(votes)
        # a queued successor may now link up
        waiting = self.pending_finalize.pop(self.chain.tip_hash, None)
        if waiting is not None:
            out.extend(self._append(now, waiting[0], waiting[1]))
        return out

    def _on_finalize(self, now: float, msg: FinalizeMsg) -> list[Outgoing]:
        block_hash = hash_block(msg.block)
        key = (msg.block.slot, block_hash)
        if key in self.finalize_seen:
            return []
        self.finalize_seen.add(key)
        if msg.block.slot in self.block_final_ms:
            return []
        finalized, quorum = collect_votes(msg.votes, block_hash,
                                          msg.block.slot,
                                          self.cfg.n_validators, self.keys)
        if not finalized:
            return []
        if check_signatures(msg.block, self.keys) is not None:
            return []
        return self._append(now, msg.block, quorum)


# the one dispatch of a delivered payload, by its type
_HANDLERS = {Block: Node._on_proposal, Vote: Node._on_vote,
             Equivocation: Node._on_evidence, ForgedSpike: Node._on_evidence,
             FinalizeMsg: Node._on_finalize}
