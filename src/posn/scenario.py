"""Declarative scenario files (YAML) mapped onto simulator inputs.

A scenario is one run: protocol, seed, duration, validator count, config
overrides, load shape, and the fault plan. Unknown keys are rejected so
typos fail loudly instead of silently running defaults.

Example:

    protocol: posn
    seed: 42
    duration_s: 10
    validators: {n: 7}
    config: {delta_net_ms: 50}
    load: {arrival_rate: 60, value: [1, 2000], fee: [0, 500]}
    faults:
      byzantine:
        - {index: 5, strategy: Equivocate}
      crash:
        - {index: 3, at_ms: 2000}
      partitions:
        - {start_ms: 1000, end_ms: 3000, side_a: [0, 1]}

byzantine and crash also accept the mapping shorthand
(``byzantine: {5: Equivocate}``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

import yaml

from .core import Config, ConfigError, default_config
from .metrics import RunLog
from .netsim import FaultPlan, LoadProfile, Partition, run

_TOP_KEYS = {"protocol", "seed", "duration_s", "duration_ms", "validators",
             "config", "load", "faults", "pob_scores", "name"}
_LOAD_KEYS = {"arrival_rate", "value", "fee"}
_FAULT_KEYS = {"byzantine", "crash", "partitions"}


@dataclass(frozen=True)
class Scenario:
    name: str
    protocol: str
    cfg: Config
    fault_plan: FaultPlan
    load: LoadProfile
    pob_scores: Optional[dict[int, float]] = None

    def run(self) -> RunLog:
        return run(self.cfg, self.fault_plan, self.load, self.protocol,
                   pob_scores=self.pob_scores)


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _indexed(section, value_key: str):
    """Yield (index, value) pairs from either a mapping or a list of
    {index, <value_key>} entries, so both YAML shapes work."""
    if isinstance(section, dict):
        yield from section.items()
        return
    for entry in section:
        yield entry["index"], entry[value_key]


def build_scenario(spec: dict, *, seed: Optional[int] = None,
                   protocol: Optional[str] = None,
                   n_validators: Optional[int] = None,
                   duration_s: Optional[float] = None) -> Scenario:
    """Turn a parsed scenario tree into runnable objects; keyword
    arguments override the corresponding file fields."""
    if not isinstance(spec, dict):
        raise ConfigError("scenario root must be a mapping")
    _reject_unknown(spec, _TOP_KEYS, "scenario")

    proto = protocol or spec.get("protocol", "posn")
    master_seed = seed if seed is not None else int(spec.get("seed", 0))

    validators = spec.get("validators", {})
    if isinstance(validators, int):
        validators = {"n": validators}
    n = n_validators if n_validators is not None else validators.get("n", 4)
    overrides = dict(spec.get("config", {}))
    _reject_unknown(overrides, set(Config.__dataclass_fields__)
                    - {"n_validators", "master_seed"}, "config")
    if "f_max" in validators:
        overrides["f_max"] = validators["f_max"]
    cfg = default_config(n, master_seed=master_seed, **overrides)

    if duration_s is not None:
        duration_ms = duration_s * 1000.0
    elif "duration_ms" in spec:
        duration_ms = float(spec["duration_ms"])
    else:
        duration_ms = float(spec.get("duration_s", 10.0)) * 1000.0

    load_spec = dict(spec.get("load", {}))
    _reject_unknown(load_spec, _LOAD_KEYS, "load")
    value = load_spec.get("value", [1, 2000])
    fee = load_spec.get("fee", [0, 500])
    load = LoadProfile(arrival_rate=float(load_spec.get("arrival_rate", 50.0)),
                       duration_ms=duration_ms,
                       value_min=int(value[0]), value_max=int(value[1]),
                       fee_min=int(fee[0]), fee_max=int(fee[1]))

    faults = dict(spec.get("faults", {}))
    _reject_unknown(faults, _FAULT_KEYS, "faults")
    byzantine = {int(k): str(v)
                 for k, v in _indexed(faults.get("byzantine", ()), "strategy")}
    crash = {int(k): float(v)
             for k, v in _indexed(faults.get("crash", ()), "at_ms")}
    partitions = tuple(Partition(start_ms=float(p["start_ms"]),
                                 end_ms=float(p["end_ms"]),
                                 side_a=frozenset(int(i) for i in p["side_a"]))
                       for p in faults.get("partitions", []))
    plan = FaultPlan(byzantine=byzantine, partitions=partitions,
                     crash_ms=crash)

    scores = spec.get("pob_scores")
    if scores is not None:
        scores = {int(k): float(v) for k, v in scores.items()}

    return Scenario(name=str(spec.get("name", "scenario")), protocol=proto,
                    cfg=cfg, fault_plan=plan, load=load, pob_scores=scores)


def load_scenario(path: str, **overrides) -> Scenario:
    with open(path) as fh:
        try:
            spec = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML: {exc}") from exc
    sc = build_scenario(spec, **overrides)
    if sc.name == "scenario" and "name" not in spec:
        base = os.path.splitext(os.path.basename(path))[0]
        return replace(sc, name=base)
    return sc
