"""Deterministic discrete-event network harness.

Single-threaded event loop over a (deliver_at, seq) priority queue; all
randomness comes from counter-based streams keyed by purpose strings, so
every run is a pure function of (Config, FaultPlan, LoadProfile,
protocol). Models: partially synchronous delays (bounded by delta after
GST, 10x that before), partitions that hold cross-cut traffic until
heal, node crashes, and the five Byzantine strategies as outbound
filters wrapped around otherwise honest nodes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union, get_args

from hashlib import blake2b

from . import baselines, crypto
from .consensus import (CLIENT_BASE, Keyring, Node, Outgoing, Payload,
                        Proposal, TxGossip, VoteMsg, compute_slot_context)
from .core import (Block, Config, ConfigError, Transaction, hash_block, i64,
                   select_mempool, u64)
from .kernels import Stream, stream_key
from .metrics import RunLog, conflicting_finalizations

STRATEGIES = ("DelayMax", "Withhold", "Equivocate", "ForgeSpike", "Silent")


@dataclass(frozen=True)
class Partition:
    """Bipartition active on [start_ms, end_ms): side_a vs everyone else."""
    start_ms: float
    end_ms: float
    side_a: frozenset[int]


@dataclass(frozen=True)
class FaultPlan:
    byzantine: dict[int, str] = field(default_factory=dict)
    partitions: tuple[Partition, ...] = ()
    crash_ms: dict[int, float] = field(default_factory=dict)

    def validate(self, cfg: Config) -> None:
        if len(self.byzantine) > cfg.f_max:
            raise ConfigError(
                f"{len(self.byzantine)} byzantine nodes > f_max {cfg.f_max}")
        for idx, strategy in self.byzantine.items():
            if not 0 <= idx < cfg.n_validators:
                raise ConfigError(f"byzantine index {idx} out of range")
            if strategy not in STRATEGIES:
                raise ConfigError(f"unknown strategy {strategy!r}")
        for p in self.partitions:
            if p.end_ms <= p.start_ms:
                raise ConfigError("empty partition window")


@dataclass(frozen=True)
class LoadProfile:
    arrival_rate: float  # tx per second, Poisson
    duration_ms: float
    value_min: int = 1
    value_max: int = 2000
    fee_min: int = 0
    fee_max: int = 500

    def validate(self) -> None:
        if self.arrival_rate < 0 or self.duration_ms <= 0:
            raise ConfigError("need arrival_rate >= 0 and duration_ms > 0")
        if self.value_min > self.value_max or self.fee_min > self.fee_max:
            raise ConfigError("empty value/fee range")


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


# msg_counters name per payload type, built once
_SENT_NAME = {cls: f"sent_{cls.__name__}" for cls in get_args(Payload)}


def find_partition(partitions: tuple[Partition, ...], now_ms: float,
                   frm: int, to: int) -> Optional[Partition]:
    """The active partition separating frm and to at now_ms, if any.
    Clients are reachable from both sides."""
    if frm >= CLIENT_BASE or to >= CLIENT_BASE:
        return None
    for p in partitions:
        if p.start_ms <= now_ms < p.end_ms:
            if (frm in p.side_a) != (to in p.side_a):
                return p
    return None


# ---------------------------------------------------------------------------
# Byzantine strategy shells
# ---------------------------------------------------------------------------

def apply_strategy(strategy: str, shell: "ByzantineShell",
                   outgoing: list[Outgoing], hook: str) -> list[Outgoing]:
    """Transform an honest node's outbound batch per strategy. `hook` is
    where the batch came from: begin, msg, or end (slot boundary)."""
    if strategy == "Silent":
        return []
    if strategy == "Withhold":
        return [o for o in outgoing
                if not isinstance(o.payload, (Proposal, VoteMsg))]
    if strategy == "DelayMax":
        if hook == "end":
            held, shell.held = shell.held, []
            return held + list(outgoing)
        shell.held.extend(outgoing)
        return []
    if strategy == "Equivocate":
        return _equivocate(shell, outgoing)
    if strategy == "ForgeSpike":
        if hook == "begin":
            honest = [o for o in outgoing if not isinstance(o.payload, Proposal)]
            return honest + shell.forge_proposal()
        return list(outgoing)
    raise ConfigError(f"unknown strategy {strategy!r}")


def _equivocate(shell: "ByzantineShell",
                outgoing: list[Outgoing]) -> list[Outgoing]:
    """When this node leads, split the network: variant A of its block to
    even validator indices, a conflicting signed variant B to odd ones."""
    out: list[Outgoing] = []
    for o in outgoing:
        if not isinstance(o.payload, Proposal) \
                or o.payload.block.proposer.index != shell.index:
            out.append(o)
            continue
        block_a = o.payload.block
        block_b = shell.conflicting_variant(block_a)
        for v in range(shell.node.cfg.n_validators):
            variant = block_a if v % 2 == 0 else block_b
            out.append(Outgoing(send_at=o.send_at,
                                payload=Proposal(variant), dest=v))
    return out


class ByzantineShell:
    """Honest node wrapped with an outbound distortion filter."""

    def __init__(self, node: Node, strategy: str):
        self.node = node
        self.strategy = strategy
        self.index = node.index
        self.held: list[Outgoing] = []

    def begin_slot(self, slot: int, now: float) -> list[Outgoing]:
        out = self.node.begin_slot(slot, now)
        return apply_strategy(self.strategy, self, out, "begin")

    def on_message(self, now: float, payload: Payload) -> list[Outgoing]:
        out = self.node.on_message(now, payload)
        return apply_strategy(self.strategy, self, out, "msg")

    def end_slot(self, slot: int, now: float) -> list[Outgoing]:
        out = self.node.end_slot(slot, now)
        released = apply_strategy(self.strategy, self, out, "end")
        # everything held through the slot goes out at the boundary
        return [replace(o, send_at=max(o.send_at, now)) if o.send_at < now
                else o for o in released]

    def forge_proposal(self) -> list[Outgoing]:
        """Claim the slot with fire step 0 no matter what actually spiked."""
        node = self.node
        block = Block(slot=node.slot.slot, proposer=node.me,
                      parent_hash=node.chain.tip_hash,
                      txs=select_mempool(node.slot.snapshot,
                                         node.cfg.max_block_txs),
                      claimed_fire_step=0, vrf_output=None)
        signed = replace(block,
                         proposer_signature=crypto.sign(node.sk,
                                                        block.core_bytes()))
        send_at = node.slot.started_ms + node.cfg.dt_ms
        return [Outgoing(send_at=send_at, payload=Proposal(signed))]

    def conflicting_variant(self, block: Block) -> Block:
        if len(block.txs) >= 2:
            variant = replace(block, txs=tuple(reversed(block.txs)),
                              proposer_signature=None)
        else:
            variant = replace(block, claimed_fire_step=block.claimed_fire_step + 1,
                              proposer_signature=None)
        return replace(variant, proposer_signature=crypto.sign(
            self.node.sk, variant.core_bytes()))


AnyNode = Union[Node, ByzantineShell]


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------

class Sim:
    def __init__(self, cfg: Config, fault_plan: FaultPlan, load: LoadProfile,
                 protocol: str = "posn",
                 pob_scores: Optional[dict[int, float]] = None):
        cfg.validate()
        fault_plan.validate(cfg)
        load.validate()
        if protocol not in ("posn", "pob", "por"):
            raise ConfigError(f"unknown protocol {protocol!r}")
        self.cfg = cfg
        self.plan = fault_plan
        self.load = load
        self.protocol = protocol
        self.keys = Keyring(cfg.master_seed, cfg.n_validators,
                            n_clients=cfg.n_clients)
        self.slot_ms = cfg.slot_ms(protocol)
        self.n_slots = int(load.duration_ms // self.slot_ms)

        self._ctx_memo: dict = {}
        self._slot = -1  # the slot whose first begin event was dispatched
        scores = None
        if pob_scores is not None:
            scores = {self.keys.validator(i): s for i, s in pob_scores.items()}
        elector = (None if protocol == "posn"
                   else baselines.make_elector(protocol, cfg, self.keys,
                                               scores=scores))
        self.nodes: list[AnyNode] = []
        for i in range(cfg.n_validators):
            node = Node(i, self.keys, cfg, protocol=protocol,
                        replay=self._memo_replay, elect_baseline=elector)
            strategy = fault_plan.byzantine.get(i)
            self.nodes.append(ByzantineShell(node, strategy)
                              if strategy else node)

        # (deliver_at, seq, kind, node, slot, payload); kind is one of
        # begin | end | msg | heal, and (deliver_at, seq) is unique
        self.heap: list[tuple] = []
        self._seq = 0
        # edge (frm, to) -> [delay stream, messages sent on it so far]
        self._edges: dict[tuple[int, int], list] = {}
        self.counters: dict[str, int] = {}
        self._held: dict[Partition, list[tuple[int, int, Payload]]] = {}
        self.tx_records: list[dict] = []
        self._tx_index: dict[bytes, int] = {}

    # -- deterministic plumbing -------------------------------------------

    def _bare(self, i: int) -> Node:
        n = self.nodes[i]
        return n.node if isinstance(n, ByzantineShell) else n

    def _memo_replay(self, slot, parent_hash, spike_txs):
        key = (slot, parent_hash, spike_txs)
        hit = self._ctx_memo.get(key)
        if hit is None:
            hit = compute_slot_context(slot, parent_hash, spike_txs,
                                       self.cfg, self.keys)
            self._ctx_memo[key] = hit
        return hit

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _push(self, at: float, kind: str, node: int = -1, slot: int = -1,
              payload: Optional[Payload] = None) -> None:
        heapq.heappush(self.heap, (at, self._seq, kind, node, slot, payload))
        self._seq += 1

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
            heapq.heappush(heap, (deliver, seq, "msg", to, -1, payload))
            seq += 1
            sent += 1
        self._seq = seq
        if sent:
            self._count(_SENT_NAME[type(payload)], sent)
        if held:
            self._count("held_partition", held)

    def _ship(self, frm: int, outgoing: list[Outgoing], now: float) -> None:
        everyone = range(self.cfg.n_validators)
        for o in outgoing:
            self._send(frm, everyone if o.dest is None else (o.dest,),
                       max(o.send_at, now), o.payload)

    # -- load generation ---------------------------------------------------

    def _inject_load(self) -> None:
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
            client = CLIENT_BASE + counter % len(self.keys.clients)
            self._send(client, range(self.cfg.n_validators), t,
                       TxGossip(tx=tx, eligible_ms=eligible))
            counter += 1

    def _make_tx(self, counter: int, txgen: Stream) -> Transaction:
        clients = self.keys.clients
        sender_kp = clients[counter % len(clients)]
        receiver_kp = clients[txgen.next_int(0, len(clients) - 1)]
        value = txgen.next_int(self.load.value_min, self.load.value_max)
        fee = txgen.next_int(self.load.fee_min, self.load.fee_max)
        tx_id = blake2b(
            b"posn-txid" + u64(self.cfg.master_seed) + u64(counter),
            digest_size=32).digest()
        draft = Transaction(id=tx_id, sender=sender_kp.pk,
                            receiver=receiver_kp.pk, value=value, fee=fee,
                            signature=crypto.Signature(b"\x00" * 32))
        return replace(draft, signature=crypto.sign(sender_kp.sk,
                                                    draft.signing_bytes()))

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunLog:
        for slot in range(self.n_slots):
            t = slot * self.slot_ms
            if slot > 0:
                for i in range(self.cfg.n_validators):
                    self._push(t, "end", node=i, slot=slot - 1)
            for i in range(self.cfg.n_validators):
                self._push(t, "begin", node=i, slot=slot)
        final = self.n_slots * self.slot_ms
        for i in range(self.cfg.n_validators):
            self._push(final, "end", node=i, slot=self.n_slots - 1)
        for p in self.plan.partitions:
            self._push(p.end_ms, "heal")
        self._inject_load()

        heap, duration = self.heap, self.load.duration_ms
        while heap:
            at, _, kind, node, slot, payload = heapq.heappop(heap)
            if at > duration:
                break
            self._dispatch(at, kind, node, slot, payload)
        return self._collect()

    def _dispatch(self, now: float, kind: str, node_i: int, slot: int,
                  payload: Optional[Payload]) -> None:
        if kind == "heal":
            self._heal(now)
            return
        if self._crashed(node_i, now):
            self._count("dropped_crashed")
            return
        node = self.nodes[node_i]
        if kind == "begin":
            if slot != self._slot:
                self._slot = slot
                self._prune_memo(slot)
                self.keys.rotate()
            self._ship(node_i, node.begin_slot(slot, now), now)
        elif kind == "end":
            self._ship(node_i, node.end_slot(slot, now), now)
        elif kind == "msg":
            if self._stale(node_i, payload):
                self._count("dropped_stale")
                return
            self._ship(node_i, node.on_message(now, payload), now)

    def _stale(self, node_i: int, payload: Payload) -> bool:
        current = self._bare(node_i).slot.slot
        if isinstance(payload, Proposal):
            return payload.block.slot != current
        if isinstance(payload, VoteMsg):
            return payload.vote.slot != current
        return False

    def _heal(self, now: float) -> None:
        """Re-send everything held by partitions that just ended."""
        for cut in [c for c in list(self._held) if c.end_ms <= now]:
            for frm, to, payload in self._held.pop(cut):
                self._send(frm, (to,), now, payload)

    def _prune_memo(self, slot: int) -> None:
        if len(self._ctx_memo) > 8 * max(1, self.cfg.n_validators):
            for key in [k for k in self._ctx_memo if k[0] < slot - 1]:
                del self._ctx_memo[key]

    # -- results -----------------------------------------------------------

    def honest_indices(self) -> list[int]:
        return [i for i in range(self.cfg.n_validators)
                if i not in self.plan.byzantine]

    def _collect(self) -> RunLog:
        honest = self.honest_indices()
        observer = self._bare(min(honest)) if honest else self._bare(0)
        for blk in observer.chain.finalized:
            done_at = observer.block_final_ms.get(blk.slot)
            for tx in blk.txs:
                idx = self._tx_index.get(tx.id)
                if idx is not None:
                    self.tx_records[idx]["finalize_ms"] = done_at

        node_finalized = {}
        for i in honest:
            chain = self._bare(i).chain
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
            for problem in self._bare(i).chain.check_integrity():
                log.violations.append(f"node {i}: {problem}")
        return log


def run(cfg: Config, fault_plan: FaultPlan, load: LoadProfile,
        protocol: str = "posn",
        pob_scores: Optional[dict[int, float]] = None) -> RunLog:
    """One complete simulation; bit-identical output for identical
    arguments."""
    return Sim(cfg, fault_plan, load, protocol, pob_scores=pob_scores).run()
