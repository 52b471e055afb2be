import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from posn.consensus import Keyring
from posn.core import CLIENT_BASE, ConfigError
from posn.crypto import keygen
from posn.metrics import RunLog
from posn.netsim import STRATEGIES, Sim
from posn.scenario import build_scenario, load_scenario


def test_build_scenario_defaults():
    sc = build_scenario({})
    assert sc.protocol == "posn"
    assert sc.cfg.n_validators == 4
    assert sc.load.duration_ms == 10_000.0
    assert sc.fault_plan.byzantine == {}


def test_build_scenario_full_spec():
    sc = build_scenario({
        "protocol": "por",
        "seed": 9,
        "duration_s": 5,
        "validators": {"n": 7, "f_max": 2},
        "config": {"delta_net_ms": 25.0, "tau_steps": 100},
        "load": {"arrival_rate": 80, "value": [10, 100], "fee": [1, 9]},
        "faults": {
            "byzantine": [{"index": 5, "strategy": "Equivocate"}],
            "crash": [{"index": 3, "at_ms": 2000}],
            "partitions": [{"start_ms": 100, "end_ms": 300,
                            "side_a": [0, 1]}],
        },
        "name": "kitchen-sink",
    })
    assert sc.name == "kitchen-sink"
    assert sc.cfg.master_seed == 9
    assert sc.cfg.delta_net_ms == 25.0
    assert sc.cfg.tau_steps == 100
    assert sc.load.arrival_rate == 80.0
    assert sc.load.fee_max == 9
    assert sc.fault_plan.byzantine == {5: "Equivocate"}
    assert sc.fault_plan.crash_ms == {3: 2000.0}
    assert sc.fault_plan.partitions[0].side_a == frozenset({0, 1})


def test_build_scenario_mapping_shorthand():
    sc = build_scenario({
        "validators": {"n": 7},
        "faults": {"byzantine": {6: "Silent"}, "crash": {2: 1500}},
    })
    assert sc.fault_plan.byzantine == {6: "Silent"}
    assert sc.fault_plan.crash_ms == {2: 1500.0}


@pytest.mark.parametrize("spec", [
    {"turbo": True},
    {"load": {"arrival": 5}},
    {"faults": {"bribes": []}},
    {"config": {"n_validators": 9}},   # set through validators.n instead
])
def test_build_scenario_rejects_unknown_keys(spec):
    with pytest.raises(ConfigError):
        build_scenario(spec)


@pytest.mark.parametrize("spec,path", [
    ({"seed": 2 ** 64}, "seed"),
    ({"validators": {"n": 4, "f_max": 2}}, "validators.f_max"),
    ({"config": {"f_max": 2}}, "config.f_max"),
    ({"duration_s": 0}, "duration_s"),
    ({"duration_ms": -5}, "duration_ms"),
    ({"load": {"fee": [9, 1]}}, "load.fee[1]"),
    ({"load": {"value": [-1, 5]}}, "load.value[0]"),
    ({"faults": {"byzantine": {"x": "Silent"}}}, "faults.byzantine['x']"),
    ({"faults": {"crash": [{"index": 1, "at_ms": 2, "at": 3}]}},
     "faults.crash[0].at"),
    ({"faults": {"partitions": [{"start_ms": 9, "end_ms": 9,
                                 "side_a": [0]}]}},
     "faults.partitions[0].end_ms"),
    ({"faults": {"partitions": [{"start_ms": 1, "end_ms": 9,
                                 "side_a": [0, [1]]}]}},
     "faults.partitions[0].side_a[1]"),
    ({"protocol": "pow"}, "protocol"),
    ({"name": None}, "name"),
])
def test_build_scenario_errors_name_the_key_path(spec, path):
    with pytest.raises(ConfigError) as info:
        build_scenario(spec)
    assert info.value.path == path


def test_validator_count_stops_where_client_keys_begin():
    # validator i signs with key index i and client j with CLIENT_BASE + j,
    # so a validator CLIENT_BASE would hold client 0's key pair
    assert Keyring(0, 1, n_clients=1).clients[0] == keygen(0, CLIENT_BASE)
    assert build_scenario({"validators": {"n": CLIENT_BASE}}) \
        .cfg.n_validators == CLIENT_BASE
    with pytest.raises(ConfigError) as info:
        build_scenario({"validators": {"n": CLIENT_BASE + 1}})
    assert info.value.path == "validators.n"


def test_build_scenario_reads_numbers_as_the_exports_expect():
    sc = build_scenario({"validators": 7, "duration_ms": 3000,
                         "config": {"delta_net_ms": 40},
                         "faults": {"crash": {2: 1500},
                                    "partitions": [{"start_ms": 100,
                                                    "end_ms": 300,
                                                    "side_a": [0]}]}})
    assert sc.cfg.n_validators == 7 and sc.cfg.f_max == 2
    assert type(sc.load.duration_ms) is float       # exported as 3000.0
    assert type(sc.cfg.delta_net_ms) is int         # exported as 40
    assert sc.fault_plan.partitions[0].end_ms == 300.0
    assert type(sc.fault_plan.partitions[0].end_ms) is float


def test_build_scenario_overrides_win():
    sc = build_scenario({"protocol": "posn", "seed": 1,
                         "validators": {"n": 4}},
                        protocol="pob", seed=5, n_validators=7,
                        duration_s=3.0)
    assert sc.protocol == "pob"
    assert sc.cfg.master_seed == 5
    assert sc.cfg.n_validators == 7
    assert sc.load.duration_ms == 3000.0


def test_load_scenario_names_after_file(tmp_path):
    path = tmp_path / "smoketest.yaml"
    path.write_text(yaml.safe_dump({"seed": 3, "duration_s": 2}))
    sc = load_scenario(str(path))
    assert sc.name == "smoketest"
    assert sc.cfg.master_seed == 3


def test_scenario_run_returns_runlog(tmp_path):
    sc = build_scenario({"duration_s": 2, "load": {"arrival_rate": 30}})
    log = sc.run()
    assert isinstance(log, RunLog)
    assert log.slot_records
    assert log.violations == []


# --- every raw scenario tree either builds a Sim or raises ConfigError -------

def _sim(tree):
    sc = build_scenario(tree)
    return Sim(sc.cfg, sc.fault_plan, sc.load, sc.protocol,
               pob_scores=sc.pob_scores)


@st.composite
def valid_trees(draw):
    """A well-formed scenario: N <= 13, every protocol, strategy and
    encoding, both shapes of the fault maps, and times as ints or floats."""
    n = draw(st.integers(1, 13))
    protocol = draw(st.sampled_from(["posn", "por", "pob"]))
    ms = st.sampled_from([0, 250, 1500.5])
    byzantine = draw(st.dictionaries(st.integers(0, n - 1),
                                     st.sampled_from(STRATEGIES),
                                     max_size=(n - 1) // 3))
    crash = draw(st.dictionaries(st.integers(0, n - 1), ms, max_size=2))
    faults = {}
    if draw(st.booleans()):
        faults["byzantine"] = byzantine
        faults["crash"] = crash
    else:
        faults["byzantine"] = [{"index": i, "strategy": s}
                               for i, s in byzantine.items()]
        faults["crash"] = [{"index": i, "at_ms": t} for i, t in crash.items()]
    if draw(st.booleans()):
        start = draw(ms)
        faults["partitions"] = [{
            "start_ms": start, "end_ms": start + draw(st.sampled_from([1, 900])),
            "side_a": sorted(draw(st.sets(st.integers(0, n - 1))))}]
    tree = {
        "protocol": protocol,
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "duration_s": draw(st.sampled_from([2, 3.5])),
        "validators": n if draw(st.booleans()) else {"n": n},
        "config": {"encoding": draw(st.sampled_from(["rate", "temporal",
                                                      "both"])),
                   "delta_net_ms": draw(st.sampled_from([10, 50.0])),
                   "gst_ms": draw(ms)},
        "load": {"arrival_rate": draw(st.sampled_from([0, 5, 40.5])),
                 "value": [1, 2000], "fee": [0, 500]},
        "faults": faults,
        "name": "tree",
    }
    if protocol == "pob" and draw(st.booleans()):
        tree["pob_scores"] = {i: draw(st.sampled_from([0, 0.5, 3]))
                              for i in range(n)}
        tree["pob_scores"][0] = 1.0
    return tree


def _paths(node, path=()):
    """The key path of every mapping value and list item under `node`."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in list(items):
            yield path + (key,)
            yield from _paths(value, path + (key,))


MUTATIONS = ("type", "missing", "range", "non-finite", "length", "unknown")


@st.composite
def mutated_trees(draw):
    """A valid tree with one field changed: a wrong type, a missing key, a
    value below its range (or an index past N), NaN or infinity, a list of
    the wrong length, or an unknown key. Sizes have no upper bound, so no
    mutation makes one huge."""
    tree = draw(valid_trees())
    path = draw(st.sampled_from(list(_paths(tree))))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    key, kind = path[-1], draw(st.sampled_from(MUTATIONS))
    if kind == "type":
        parent[key] = draw(st.sampled_from(["x", [1], {"k": 1}, True, None,
                                            2.5]))
    elif kind == "missing":
        del parent[key]
    elif kind == "range":
        parent[key] = draw(st.sampled_from([-1, 0, -2 ** 70, 13]))
    elif kind == "non-finite":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "length":
        value = parent[key]
        if not isinstance(value, list):
            parent[key] = [value]
        elif draw(st.booleans()):
            parent[key] = value[:1]
        else:
            parent[key] = value + (value[-1:] or [1])
    else:
        target = parent[key] if isinstance(parent[key], dict) else parent
        if isinstance(target, dict):
            target["bogus"] = 1
        else:
            parent[key] = {"bogus": 1}
    return kind, path, tree


@settings(max_examples=60)
@given(valid_trees())
def test_valid_scenario_trees_build_a_sim(tree):
    assert _sim(tree).n_slots >= 1


@settings(max_examples=300)
@given(mutated_trees())
def test_mutated_scenario_trees_build_or_raise_config_error(case):
    kind, path, tree = case
    try:
        _sim(tree)
    except ConfigError as exc:
        assert str(exc) == f"{exc.path}: {exc.problem}"
