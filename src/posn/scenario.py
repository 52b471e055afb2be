"""Declarative scenario files (YAML) parsed into simulator inputs.

`build_scenario` is the one parse step: it turns the tree into `Config`,
`LoadProfile`, `Partition` and `FaultPlan` values, which check their own
fields, then checks the rules that span them (`netsim.check_inputs`).
Times and rates read as floats; config values stay as written. An error
is a `ConfigError` at its key path, as in ``faults.crash[9]: …``;
unknown keys are errors too. README "Scenario files" lists every key
and default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import yaml

from .core import Config, ConfigError, check_type, default_config, require
from .metrics import RunLog
from .netsim import (FaultPlan, LoadProfile, Partition, Protocol, Strategy,
                     check_inputs, run)

_TOP_KEYS = {"protocol", "seed", "duration_s", "duration_ms", "validators",
             "config", "load", "faults", "pob_scores", "name"}
_CONFIG_KEYS = set(Config.__dataclass_fields__) - {"n_validators",
                                                   "master_seed"}
_MISSING = object()


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


def _read(value, tp, path: str, keys=()):
    """`value`, checked to be a `tp` with keys among `keys` (if given)."""
    check_type(value, tp, path or "scenario")
    for key in value if keys else ():
        require(key in keys, f"{path}.{key}".lstrip("."), "unknown key")
    return float(value) if tp is float else value


def _get(tree: dict, path: str, key, tp, default=_MISSING, keys=()):
    where = f"{path}.{key}".lstrip(".")
    require(key in tree or default is not _MISSING, where, "missing")
    return _read(tree[key], tp, where, keys) if key in tree else default


def _indexed(faults: dict, key: str, value_key: str, tp) -> dict:
    """faults[key] as {validator index: value}: the mapping shorthand or a
    list of {index, <value_key>} entries."""
    path, tree = f"faults.{key}", faults.get(key, {})
    if isinstance(tree, dict):
        return {_read(i, int, f"{path}[{i!r}]"): _read(v, tp, f"{path}[{i!r}]")
                for i, v in tree.items()}
    indexed = {}
    for n, entry in enumerate(_read(tree, list, path)):
        where = f"{path}[{n}]"
        entry = _read(entry, dict, where, {"index", value_key})
        value = _get(entry, where, value_key, tp)
        indexed[_get(entry, where, "index", int)] = value
    return indexed


def _build(make, prefix: str, renamed: dict, **fields):
    """make(**fields); an error on field f is at renamed[f] or prefix.f."""
    try:
        return make(**fields)
    except ConfigError as exc:
        head, sep, rest = exc.path.partition("[")
        where = renamed.get(head, f"{prefix}.{head}".lstrip("."))
        raise ConfigError(where + sep + rest, exc.problem) from None


def build_scenario(spec: dict, *, seed: Optional[int] = None,
                   protocol: Optional[str] = None,
                   n_validators: Optional[int] = None,
                   duration_s: Optional[float] = None) -> Scenario:
    """Parse a scenario tree into runnable values; keyword arguments
    override the corresponding file fields. Raises ConfigError."""
    spec = dict(_read(spec, dict, "", _TOP_KEYS))
    if duration_s is not None:
        spec.pop("duration_ms", None)
    flags = {"seed": seed, "protocol": protocol, "duration_s": duration_s}
    spec.update((k, v) for k, v in flags.items() if v is not None)

    validators = spec.get("validators", {})
    if isinstance(validators, int):
        validators = {"n": validators}
    validators = dict(_read(validators, dict, "validators", {"n", "f_max"}))
    if n_validators is not None:
        validators["n"] = n_validators
    n = _get(validators, "validators", "n", int, 4)
    config = dict(_get(spec, "", "config", dict, {}, _CONFIG_KEYS))
    f_max = "config.f_max"
    if "f_max" in validators:
        config["f_max"], f_max = validators["f_max"], "validators.f_max"
    cfg = _build(default_config, "config",
                 {"n_validators": "validators.n", "master_seed": "seed",
                  "f_max": f_max},
                 n_validators=n, master_seed=spec.get("seed", 0), **config)

    duration, scale = (("duration_ms", 1.0) if "duration_ms" in spec
                       else ("duration_s", 1000.0))
    duration_ms = _get(spec, "", duration, float, 10.0) * scale
    tree = _get(spec, "", "load", dict, {}, {"arrival_rate", "value", "fee"})
    rate = _get(tree, "load", "arrival_rate", float, 50.0)
    bounds = {}
    for key, default in (("value", [1, 2000]), ("fee", [0, 500])):
        pair = _get(tree, "load", key, list, default)
        require(len(pair) == 2, f"load.{key}",
                f"must be a [min, max] pair, got {pair!r}")
        bounds.update({f"{key}_min": pair[0], f"{key}_max": pair[1]})
    load = _build(LoadProfile, "load",
                  {"duration_ms": duration, "value_min": "load.value[0]",
                   "value_max": "load.value[1]", "fee_min": "load.fee[0]",
                   "fee_max": "load.fee[1]"},
                  arrival_rate=rate, duration_ms=duration_ms, **bounds)

    faults = _get(spec, "", "faults", dict, {},
                  {"byzantine", "crash", "partitions"})
    partitions = []
    for i, p in enumerate(_get(faults, "faults", "partitions", list, [])):
        where = f"faults.partitions[{i}]"
        p = _read(p, dict, where, {"start_ms", "end_ms", "side_a"})
        partitions.append(_build(
            Partition, where, {}, start_ms=_get(p, where, "start_ms", float),
            end_ms=_get(p, where, "end_ms", float),
            side_a=frozenset(_get(p, where, "side_a", list[int]))))
    plan = FaultPlan(_indexed(faults, "byzantine", "strategy", Strategy),
                     tuple(partitions),
                     _indexed(faults, "crash", "at_ms", float))

    name = _get(spec, "", "name", str, "scenario")
    protocol = _get(spec, "", "protocol", Protocol, "posn")
    pob_scores = spec.get("pob_scores")
    _build(check_inputs, "",
           {"crash_ms": "faults.crash", "byzantine": "faults.byzantine",
            "partitions": "faults.partitions", "duration_ms": duration},
           cfg=cfg, plan=plan, load=load, protocol=protocol,
           pob_scores=pob_scores)
    return Scenario(name, protocol, cfg, plan, load, pob_scores)


def read_yaml(source, path: str):
    """The YAML document in `source` (text or an open file)."""
    try:
        return yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise ConfigError(path, f"malformed YAML: {exc}") from None


def load_scenario(path: str, **overrides) -> Scenario:
    """The scenario in the YAML file `path`, by default named after it."""
    with open(path) as fh:
        spec = read_yaml(fh, path) or {}
    if isinstance(spec, dict):
        spec.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    return build_scenario(spec, **overrides)
