"""Deterministic discrete-event network harness.

Single-threaded: a (deliver_at, seq) priority queue holds only messages
in flight, and slot boundaries and heals run from the loop's own clock.
At a shared instant every live node's end_slot runs, then every
begin_slot (each in index order), then the heal, then the messages due.
All randomness comes from counter-based streams keyed by purpose
strings, so every run is a pure function of (Config, FaultPlan,
LoadProfile, protocol). Models: partially synchronous delays (bounded
by delta after GST, 10x that before), partitions that hold cross-cut
traffic until heal, node crashes, and the five Byzantine strategies as
filters that `Sim` applies to the batches an otherwise honest node
returns. Client transactions are not messages: the load is one schedule
of signed txs, each eligible once every validator would hold it. The
pending pool is a function of the slot and the chain tip, so `Sim`
builds it once per (slot, tip), from the pool of the nearest ancestor
tip one slot earlier, and every node on that tip reads the same
`SlotView`, with the only slot context computed for that (slot, tip).
A message is the value it carries (a proposal is its `Block`); the node
it reaches reports a proposal or vote of another slot as stale (None).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, Literal, Optional, Sequence, get_args

from hashlib import blake2b

from . import baselines, crypto
from .consensus import (Equivocation, FinalizeMsg, ForgedSpike, Keyring,
                        Node, Outgoing, Payload, SlotView,
                        compute_slot_context)
from .core import (CLIENT_BASE, AtLeast, Block, ChainState, Config,
                   Transaction, Vote, check_fields, check_type, hash_block,
                   i64, require, tx_signing_bytes, u64)
from .kernels import Stream, stream_key
from .metrics import RunLog, conflicting_finalizations

Protocol = Literal["posn", "pob", "por"]
Strategy = Literal["DelayMax", "Withhold", "Equivocate", "ForgeSpike",
                   "Silent"]
STRATEGIES = get_args(Strategy)


@dataclass(frozen=True)
class Partition:
    """Bipartition active on [start_ms, end_ms): side_a vs everyone else."""
    start_ms: float
    end_ms: float
    side_a: frozenset[int]

    def __post_init__(self) -> None:
        check_fields(self)
        require(self.end_ms > self.start_ms, "end_ms", "window is empty")


@dataclass(frozen=True)
class FaultPlan:
    byzantine: dict[int, Strategy] = field(default_factory=dict)
    partitions: tuple[Partition, ...] = ()
    crash_ms: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class LoadProfile:
    arrival_rate: AtLeast[float, 0]  # tx per second, Poisson
    duration_ms: float
    value_min: AtLeast[int, 0] = 1
    value_max: int = 2000
    fee_min: AtLeast[int, 0] = 0
    fee_max: int = 500

    def __post_init__(self) -> None:
        check_fields(self)
        require(self.duration_ms > 0, "duration_ms", "must be positive")
        for lo, hi in (("value_min", "value_max"), ("fee_min", "fee_max")):
            # a transaction carries both as u64
            require(getattr(self, lo) <= getattr(self, hi) < 2 ** 64, hi,
                    f"need {lo} <= {hi} < 2**64")


def check_inputs(cfg: Config, plan: FaultPlan, load: LoadProfile,
                 protocol: str, pob_scores: Optional[dict[int, float]]
                 ) -> None:
    """Sim's rules on its bare inputs and on those spanning its inputs."""
    check_type(protocol, Protocol, "protocol")
    check_type(pob_scores, Optional[dict[int, AtLeast[float, 0]]],
               "pob_scores")
    slot_ms = cfg.slot_ms(protocol)
    require(load.duration_ms // slot_ms >= 1, "duration_ms",
            f"{load.duration_ms} ms is shorter than one {protocol} slot "
            f"({slot_ms} ms)")
    require(len(plan.byzantine) <= cfg.f_max, "byzantine",
            f"{len(plan.byzantine)} Byzantine validators > f_max {cfg.f_max}")
    named = [(f"{name}[{i}]", i) for name, indexed in (
        ("byzantine", plan.byzantine), ("crash_ms", plan.crash_ms),
        ("pob_scores", pob_scores or {})) for i in indexed]
    named += [(f"partitions[{k}].side_a", i)
              for k, p in enumerate(plan.partitions) for i in sorted(p.side_a)]
    for where, i in named:
        require(0 <= i < cfg.n_validators, where,
                f"no validator {i} among {cfg.n_validators}")
    require(pob_scores is None or sum(pob_scores.values()) > 0,
            "pob_scores", "must not all be zero")


def delay_bound(now_ms: float, cfg: Config) -> float:
    return (cfg.delta_net_ms if now_ms >= cfg.gst_ms
            else 10.0 * cfg.delta_net_ms)


def edge_stream(seed: int, frm: int, to: int) -> Stream:
    """The delay stream of edge (frm, to) under master seed `seed`."""
    return Stream(stream_key(u64(seed), b"delay", i64(frm), i64(to)))


def sample_delay(now_ms: float, stream: Stream, cfg: Config,
                 seq: int) -> int:
    """Delivery delay in whole ms for the seq-th message on the edge whose
    `edge_stream` is `stream`: uniform in [1, delta] after GST,
    [1, 10*delta] before."""
    return 1 + stream.at(seq) % int(delay_bound(now_ms, cfg))


END, BEGIN, HEAL = range(3)  # the loop's clock runs them in this order

# msg_counters name per payload type, spelled out: they are export bytes,
# so no class rename may change them
_SENT_NAME = {Block: "sent_Proposal", Vote: "sent_VoteMsg",
              Equivocation: "sent_EvidenceMsg",
              ForgedSpike: "sent_EvidenceMsg",
              FinalizeMsg: "sent_FinalizeMsg"}


def merge_pool(pool: Sequence[Transaction], new_txs: Iterable[Transaction],
               drop: Collection[bytes]) -> tuple[Transaction, ...]:
    """`pool` and `new_txs` without the txs whose ids are in `drop`, in
    `select_mempool`'s (-fee, id) order."""
    merged = [tx for tx in pool if tx.id not in drop]
    merged.extend(tx for tx in new_txs if tx.id not in drop)
    merged.sort(key=lambda tx: (-tx.fee, tx.id))
    return tuple(merged)


def find_partition(partitions: tuple[Partition, ...], now_ms: float,
                   frm: int, to: int) -> Optional[Partition]:
    """The active partition separating frm and to at now_ms, if any."""
    for p in partitions:
        if p.start_ms <= now_ms < p.end_ms:
            if (frm in p.side_a) != (to in p.side_a):
                return p
    return None


# ---------------------------------------------------------------------------
# Byzantine strategies: filters on an honest node's outbound batches
# ---------------------------------------------------------------------------

def apply_strategy(strategy: str, node: Node, held: list[Outgoing],
                   outgoing: list[Outgoing], hook: str) -> list[Outgoing]:
    """Transform `node`'s outbound batch per strategy. `hook` is the event
    that produced it: begin, msg, or end (slot boundary). DelayMax keeps
    the slot's batches in `held` and releases them all at the boundary."""
    if strategy == "Silent":
        return []
    if strategy == "Withhold":
        return [o for o in outgoing
                if not isinstance(o.payload, (Block, Vote))]
    if strategy == "DelayMax":
        held.extend(outgoing)
        if hook != "end":
            return []
        released = list(held)
        held.clear()
        return released
    if strategy == "Equivocate":
        return _equivocate(node, outgoing)
    # ForgeSpike: a FaultPlan holds no other strategy
    if hook == "begin":
        honest = [o for o in outgoing if not isinstance(o.payload, Block)]
        return honest + forge_proposal(node)
    return list(outgoing)


def _equivocate(node: Node, outgoing: list[Outgoing]) -> list[Outgoing]:
    """When this node leads, split the network: variant A of its block to
    even validator indices, a conflicting signed variant B to odd ones."""
    out: list[Outgoing] = []
    for o in outgoing:
        if not isinstance(o.payload, Block) \
                or o.payload.proposer.index != node.index:
            out.append(o)
            continue
        block_a = o.payload
        block_b = conflicting_variant(node, block_a)
        for v in range(node.cfg.n_validators):
            variant = block_a if v % 2 == 0 else block_b
            out.append(Outgoing(send_at=o.send_at,
                                payload=variant, dest=v))
    return out


def forge_proposal(node: Node) -> list[Outgoing]:
    """Claim the slot with fire step 0 no matter what actually spiked."""
    block = Block(slot=node.slot.slot, proposer=node.me,
                  parent_hash=node.chain.tip_hash,
                  txs=node.slot.view.block_txs,
                  claimed_fire_step=0, vrf_output=None)
    signed = replace(block,
                     proposer_signature=crypto.sign(node.sk,
                                                    block.core_bytes()))
    send_at = node.slot.started_ms + node.cfg.dt_ms
    return [Outgoing(send_at=send_at, payload=signed)]


def conflicting_variant(node: Node, block: Block) -> Block:
    if len(block.txs) >= 2:
        variant = replace(block, txs=tuple(reversed(block.txs)),
                          proposer_signature=None)
    else:
        variant = replace(block, claimed_fire_step=block.claimed_fire_step + 1,
                          proposer_signature=None)
    return replace(variant, proposer_signature=crypto.sign(
        node.sk, variant.core_bytes()))


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------

class Sim:
    def __init__(self, cfg: Config, fault_plan: FaultPlan, load: LoadProfile,
                 protocol: str = "posn",
                 pob_scores: Optional[dict[int, float]] = None):
        check_inputs(cfg, fault_plan, load, protocol, pob_scores)
        self.cfg = cfg
        self.plan = fault_plan
        self.load = load
        self.protocol = protocol
        self.keys = Keyring(cfg.master_seed, cfg.n_validators,
                            n_clients=cfg.n_clients)
        self.slot_ms = cfg.slot_ms(protocol)
        self.n_slots = int(load.duration_ms // self.slot_ms)

        # (slot, tip) -> the view of every node that began the slot there
        self._views: dict[tuple[int, bytes], SlotView] = {}
        scores = None if pob_scores is None else {
            self.keys.validator(i): s for i, s in pob_scores.items()}
        # the protocol's slot context, computed once per view; posn's
        # reads the global compute_slot_context per call: tracers rebind it
        if protocol == "posn":
            self._context = lambda slot, parent_hash, spike_txs: \
                compute_slot_context(slot, parent_hash, spike_txs, cfg,
                                     self.keys)
        else:
            self._context = baselines.make_elector(protocol, cfg, self.keys,
                                                   scores=scores)
        self.schedule: list[tuple[float, int, Transaction]] = []
        self.nodes = [Node(i, self.keys, cfg, protocol=protocol,
                           replay=self._context, view=self._view)
                      for i in range(cfg.n_validators)]
        # Byzantine index -> the outbound batches DelayMax holds this slot
        self._delayed: dict[int, list[Outgoing]] = {
            i: [] for i in fault_plan.byzantine}

        # messages in flight, (deliver_at, seq, to, payload); seq is unique
        self.heap: list[tuple] = []
        self._seq = 0
        # edge (frm, to) -> [delay stream, messages sent on it so far]
        self._edges: dict[tuple[int, int], list] = {}
        self.counters: dict[str, int] = {}
        self._held: dict[Partition, list[tuple[int, int, Payload]]] = {}
        self.tx_records: list[dict] = []
        self._tx_index: dict[bytes, int] = {}

    # -- deterministic plumbing -------------------------------------------

    def _view(self, slot: int, chain: ChainState) -> SlotView:
        """The view of every node that begins `slot` on `chain`'s tip:
        the schedule's entries eligible at the slot start minus the txs
        finalized on the chain. It derives from the pool of the nearest
        ancestor tip one slot earlier (a queued finalization can advance
        a tip several blocks): drop the blocks in between, merge the newly
        eligible txs. Only slot 0 starts from an empty pool, since every
        live node begins every slot."""
        key = (slot, chain.tip_hash)
        view = self._views.get(key)
        if view is not None:
            return view
        blocks, i = chain.finalized, len(chain.finalized)
        base = self._views.get((slot - 1, chain.tip_hash))
        while base is None and i > 0:
            i -= 1  # try the tip before blocks[i]
            base = self._views.get((slot - 1, blocks[i].parent_hash))
        drop = {tx.id for blk in blocks[i:] for tx in blk.txs}
        start = self._eligible_by(slot - 1) if base is not None else 0
        new = self.schedule[start:self._eligible_by(slot)]
        pool = merge_pool(base.pool if base is not None else (),
                          (tx for _, _, tx in new), drop)
        spike_txs = (pool[:self.cfg.spike_snapshot_cap]
                     if self.protocol == "posn" else ())
        view = self._views[key] = SlotView(
            pool=pool, spike_txs=spike_txs,
            block_txs=pool[:self.cfg.max_block_txs],
            ctx=self._context(slot, chain.tip_hash, spike_txs))
        return view

    def _eligible_by(self, slot: int) -> int:
        """How many schedule entries are eligible when `slot` begins."""
        return bisect_right(self.schedule, slot * self.slot_ms,
                            key=lambda entry: entry[0])

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _crashed(self, i: int, now: float) -> bool:
        t = self.plan.crash_ms.get(i)
        return t is not None and now >= t

    # -- sending -----------------------------------------------------------

    def _send(self, frm: int, dests: Sequence[int], send_at: float,
              payload: Payload) -> None:
        """Send one payload from `frm` to each of `dests`, in order."""
        partitions = self.plan.partitions
        cut_any = any(p.start_ms <= send_at < p.end_ms for p in partitions)
        heap, edges, cfg, seq = self.heap, self._edges, self.cfg, self._seq
        sent = held = 0
        for to in dests:
            if cut_any:
                cut = find_partition(partitions, send_at, frm, to)
                if cut is not None:
                    self._held.setdefault(cut, []).append((frm, to, payload))
                    held += 1
                    continue
            if to == frm:
                deliver = send_at  # local copy, no network hop
            else:
                edge = edges.get((frm, to))
                if edge is None:
                    edge = edges[(frm, to)] = [
                        edge_stream(cfg.master_seed, frm, to), 0]
                deliver = send_at + sample_delay(send_at, edge[0], cfg,
                                                 edge[1])
                edge[1] += 1
            heapq.heappush(heap, (deliver, seq, to, payload))
            seq += 1
            sent += 1
        self._seq = seq
        if sent:
            self._count(_SENT_NAME[type(payload)], sent)
        if held:
            self._count("held_partition", held)

    def _ship(self, frm: int, outgoing: list[Outgoing], hook: str,
              now: float) -> None:
        """Send node frm's batch from `hook`, through its strategy if any."""
        strategy = self.plan.byzantine.get(frm)
        if strategy is not None:
            outgoing = apply_strategy(strategy, self.nodes[frm],
                                      self._delayed[frm], outgoing, hook)
        everyone = range(self.cfg.n_validators)
        for o in outgoing:
            self._send(frm, everyone if o.dest is None else (o.dest,),
                       max(o.send_at, now), o.payload)

    # -- load generation ---------------------------------------------------

    def _schedule_load(self) -> None:
        """Fill `schedule`, sorted, as eligibility before GST is not monotone
        in arrival time. The counters still see each tx's N copies."""
        if self.load.arrival_rate <= 0:
            return
        rate_per_ms = self.load.arrival_rate / 1000.0
        arrivals = Stream(stream_key(u64(self.cfg.master_seed), b"arrivals"))
        txgen = Stream(stream_key(u64(self.cfg.master_seed), b"txgen"))
        t = 0.0
        counter = 0
        while True:
            t += -math.log(1.0 - arrivals.next_float()) / rate_per_ms
            if t >= self.load.duration_ms:
                break
            tx = self._make_tx(counter, txgen)
            eligible = t + delay_bound(t, self.cfg) + 1.0
            self.tx_records.append({"id": tx.id.hex(), "submit_ms": t,
                                    "finalize_ms": None})
            self._tx_index[tx.id] = len(self.tx_records) - 1
            self.schedule.append((eligible, counter, tx))
            # the exports' name for the N copies a client would send
            self._count("sent_TxGossip", self.cfg.n_validators)
            seq, i = divmod(counter, len(self.keys.clients))
            for v, crash_at in self.plan.crash_ms.items():
                edge = edge_stream(self.cfg.master_seed, CLIENT_BASE + i, v)
                delay = sample_delay(t, edge, self.cfg, seq)
                if crash_at <= t + delay <= self.load.duration_ms:
                    self._count("dropped_crashed")
            counter += 1
        self.schedule.sort()

    def _make_tx(self, counter: int, txgen: Stream) -> Transaction:
        clients = self.keys.clients
        sender_kp = clients[counter % len(clients)]
        receiver_kp = clients[txgen.next_int(0, len(clients) - 1)]
        value = txgen.next_int(self.load.value_min, self.load.value_max)
        fee = txgen.next_int(self.load.fee_min, self.load.fee_max)
        tx_id = blake2b(
            b"posn-txid" + u64(self.cfg.master_seed) + u64(counter),
            digest_size=32).digest()
        signature = crypto.sign(sender_kp.sk, tx_signing_bytes(
            tx_id, sender_kp.pk, receiver_kp.pk, value, fee))
        return Transaction(id=tx_id, sender=sender_kp.pk,
                           receiver=receiver_kp.pk, value=value, fee=fee,
                           signature=signature)

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunLog:
        self._schedule_load()
        duration = self.load.duration_ms
        ms, n_slots = self.slot_ms, self.n_slots
        clock = sorted([(s * ms, END, s - 1) for s in range(1, n_slots + 1)]
                       + [(s * ms, BEGIN, s) for s in range(n_slots)]
                       + [(p.end_ms, HEAL, -1) for p in self.plan.partitions
                          if p.end_ms <= duration])
        for at, step, slot in clock:
            self._deliver_before(at)
            if step == HEAL:
                self._heal(at)
                continue
            if step == BEGIN:
                self.keys.rotate()
                self._views = {k: v for k, v in self._views.items()
                               if k[0] == slot - 1}
            for i, node in enumerate(self.nodes):
                if self._crashed(i, at):
                    self._count("dropped_crashed")
                elif step == BEGIN:
                    self._ship(i, node.begin_slot(slot, at), "begin", at)
                else:
                    self._ship(i, node.end_slot(slot, at), "end", at)
        self._deliver_before(math.nextafter(duration, math.inf))
        return self._collect()

    def _deliver_before(self, until: float) -> None:
        """Deliver every message due before `until`, and those they send,
        in (deliver_at, seq) order."""
        heap = self.heap
        while heap and heap[0][0] < until:
            now, _, to, payload = heapq.heappop(heap)
            if self._crashed(to, now):
                self._count("dropped_crashed")
                continue
            outgoing = self.nodes[to].on_message(now, payload)
            if outgoing is None:
                self._count("dropped_stale")
            elif outgoing:
                # every strategy sends nothing for, and keeps nothing
                # from, an empty "msg" batch (not so for begin and end)
                self._ship(to, outgoing, "msg", now)

    def _heal(self, now: float) -> None:
        """Re-send everything held by partitions that just ended."""
        for cut in [c for c in list(self._held) if c.end_ms <= now]:
            for frm, to, payload in self._held.pop(cut):
                self._send(frm, (to,), now, payload)

    # -- results -----------------------------------------------------------

    def honest_indices(self) -> list[int]:
        return [i for i in range(self.cfg.n_validators)
                if i not in self.plan.byzantine]

    def _collect(self) -> RunLog:
        honest = self.honest_indices()
        observer = self.nodes[min(honest)] if honest else self.nodes[0]
        for blk in observer.chain.finalized:
            done_at = observer.block_final_ms.get(blk.slot)
            for tx in blk.txs:
                idx = self._tx_index.get(tx.id)
                if idx is not None:
                    self.tx_records[idx]["finalize_ms"] = done_at

        node_finalized = {}
        for i in honest:
            chain = self.nodes[i].chain
            node_finalized[i] = [[b.slot, hash_block(b).hex()]
                                 for b in chain.finalized]

        log = RunLog(
            protocol=self.protocol,
            config=self.cfg.to_json(),
            master_seed=self.cfg.master_seed,
            duration_ms=self.load.duration_ms,
            observer=observer.index,
            slot_records=list(observer.slot_records),
            tx_records=self.tx_records,
            msg_counters=dict(sorted(self.counters.items())),
            node_finalized=node_finalized,
            balances=dict(sorted(observer.chain.balances.items())),
            total_minted=observer.chain.total_minted,
            total_burned=observer.chain.total_burned,
            penalties=[{"validator": p.validator, "slot": p.slot,
                        "amount": p.amount, "reason": p.reason}
                       for p in observer.chain.penalties_log],
        )
        log.violations = [f"conflicting finalization in slot {slot}"
                          for slot in conflicting_finalizations(log)]
        for i in honest:
            for problem in self.nodes[i].chain.check_integrity():
                log.violations.append(f"node {i}: {problem}")
        return log


def run(cfg: Config, fault_plan: FaultPlan, load: LoadProfile,
        protocol: str = "posn",
        pob_scores: Optional[dict[int, float]] = None) -> RunLog:
    """One complete simulation; bit-identical output for identical
    arguments."""
    return Sim(cfg, fault_plan, load, protocol, pob_scores=pob_scores).run()
