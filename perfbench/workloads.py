"""The four benchmark workloads, each a `posn` scenario built from a seed.

A workload is a scenario spec in the YAML-tree form that
`posn.scenario.build_scenario` reads, sized in slots. Fault times are
given in slots too, and turned into milliseconds with the scenario's own
slot length, so the shape stays the same if the slot length changes.
"""

from __future__ import annotations

# name -> (slots, inputs, spec). One pass of a workload runs `inputs`
# scenarios that differ only in their master seed, so that a pass
# averages over inputs and not just one draw. `crash_at` is a share of
# the run and `partition` is in slots; the rest of the spec is passed to
# build_scenario unchanged.
WORKLOADS = {
    # ~9 txs per slot: per-slot fixed costs and per-node state growth
    # dominate. Validator 0 is the observer and crashes a quarter of the
    # way in, so the crashed-observer defect stays visible in the summary.
    "light-long-n8": (200, 1, {
        "protocol": "posn", "validators": {"n": 8},
        "load": {"arrival_rate": 25},
        "crash_at": {0: 0.25},
        "partition": {"start": 8, "end": 14, "side_a": [0, 1, 2]},
    }),
    # 64-tx blocks and N^2 message fan-out: block hashing and signature
    # checks dominate.
    "saturated-n32": (5, 3, {
        "protocol": "posn", "validators": {"n": 32},
        "load": {"arrival_rate": 250},
    }),
    # an equivocator and a spike forger: election replay for evidence
    # dominates.
    "byzantine-n7": (6, 16, {
        "protocol": "posn", "validators": {"n": 7},
        "load": {"arrival_rate": 250},
        "config": {"encoding": "both"},
        "faults": {"byzantine": {5: "Equivocate", 6: "ForgeSpike"}},
    }),
    # proof-of-reputation: the spiking election is bypassed, so a kernel
    # change must not move this workload.
    "por-saturated-n8": (20, 1, {
        "protocol": "por", "validators": {"n": 8},
        "load": {"arrival_rate": 250},
    }),
}


def master_seeds(name: str, seed: int) -> list[int]:
    """Master seeds of the inputs of one pass; disjoint across seeds."""
    return [seed * 1000 + j for j in range(WORKLOADS[name][1])]


def scenario_spec(name: str, seed: int, slot_ms: float) -> dict:
    """The scenario tree of workload `name` under master seed `seed`."""
    slots, _, shape = WORKLOADS[name]
    spec = {k: v for k, v in shape.items()
            if k not in ("crash_at", "partition")}
    spec["name"] = name
    spec["seed"] = seed
    duration_ms = slots * slot_ms
    spec["duration_ms"] = duration_ms
    faults = dict(spec.get("faults", {}))
    if "crash_at" in shape:
        faults["crash"] = {i: share * duration_ms
                           for i, share in shape["crash_at"].items()}
    if "partition" in shape:
        p = shape["partition"]
        faults["partitions"] = [{"start_ms": p["start"] * slot_ms,
                                 "end_ms": p["end"] * slot_ms,
                                 "side_a": p["side_a"]}]
    if faults:
        spec["faults"] = faults
    return spec


def build(name: str, seed: int):
    """Build workload `name` as a `posn.scenario.Scenario`."""
    from posn.scenario import build_scenario

    base = build_scenario({k: v for k, v in WORKLOADS[name][2].items()
                           if k in ("protocol", "validators", "config")})
    return build_scenario(scenario_spec(name, seed,
                                        base.cfg.slot_ms(base.protocol)))
