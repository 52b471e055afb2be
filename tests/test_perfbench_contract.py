"""The benchmark's contract, checked against the current sources.

`perfbench/` judges every change by three things: the binding audit of
its span tracer, the recorded output digests, and a last stdout line
that is a strict JSON result naming exactly the metrics BENCHMARK.json
declares. These tests run each of them on a small input, reading
`perfbench/` and changing none of it.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from posn import FaultPlan, LoadProfile, Sim, default_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_tracer_wraps_every_binding_and_restores_them():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod_name, funcs in spans.TRACED.items():
            mod = importlib.import_module(f"posn.{mod_name}")
            for func in funcs:
                assert hasattr(getattr(mod, func), "__wrapped__"), \
                    f"posn.{mod_name}.{func}"
        for (mod_name, cls_name), methods in spans.METHODS.items():
            cls = getattr(importlib.import_module(f"posn.{mod_name}"),
                          cls_name)
            for meth in methods:
                assert hasattr(vars(cls)[meth], "__wrapped__"), \
                    f"posn.{mod_name}.{cls_name}.{meth}"
        assert tracer.audit() == []
    finally:
        tracer.uninstall()
    left = [f"{m.__name__}.{attr}" for m in spans.posn_modules()
            for attr, value in vars(m).items()
            if getattr(value, "__wrapped__", None) is not None]
    assert left == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_pass_reproduces_recorded_digests(name, tmp_path):
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        expected = json.load(fh)[name]["0"]
    result = worker.run_pass(name, 0, str(tmp_path))
    assert [row["digest"] for row in result["inputs"]] == expected
    assert all(row["violations"] == [] for row in result["inputs"])


def test_traced_pass_is_exact_and_checks_each_signature_once(tmp_path):
    # a call the tracer cannot see (a captured original, a keyword-called
    # verify) or repeated signature checks fail here, not only in a
    # benchmark run
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        expected = json.load(fh)["saturated-n32"]["0"]
    result = worker.run_pass("saturated-n32", 0, str(tmp_path),
                             tracer=spans.Tracer())
    assert result["unwrapped"] == []
    assert [row["digest"] for row in result["inputs"]] == expected
    calls = result["spans"]["crypto.verify"][0]
    assert calls <= 1.5 * result["distinct"]["crypto.verify"]


def test_traced_baseline_pass_is_exact_and_elects_once_per_slot(tmp_path):
    # the baseline election runs once per (slot, tip) view like posn's
    # replay (one tip per slot here), and every proposal goes through the
    # one validator; a captured por_elect or compute_slot_context fails
    # here too
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        expected = json.load(fh)["por-saturated-n8"]["0"]
    result = worker.run_pass("por-saturated-n8", 0, str(tmp_path),
                             tracer=spans.Tracer())
    assert result["unwrapped"] == []
    assert [row["digest"] for row in result["inputs"]] == expected
    slots = sum(row["slots"] for row in result["inputs"])
    assert result["spans"]["baselines.por_elect"][0] == slots
    assert result["spans"]["consensus.validate_proposal"][0] > 0


def test_node_state_entries_counts_node_state_that_exists():
    # worker.node_state_entries reads each name with getattr(node, attr,
    # ()), so a node-state deletion would zero the metric without an error
    counted = ("finalize_seen", "block_final_ms", "pending_finalize")
    cfg = default_config(4, master_seed=3)
    sim = Sim(cfg, FaultPlan(), LoadProfile(40.0, 6 * cfg.slot_ms()))
    sim.run()
    held = sum(len(getattr(node, attr)) for node in sim.nodes
               for attr in counted)
    assert held > 0
    assert worker.node_state_entries(sim) == held


def _reject_constant(token):
    raise ValueError(f"non-JSON number {token}")


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_a_correct_strict_json_result(trace):
    # por-saturated-n8 is the cheapest workload; a traced byzantine-n7
    # run takes longer than a worker's timeout allows at this size
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"),
         "--workload", "por-saturated-n8", "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    declared = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
