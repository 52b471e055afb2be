"""posn benchmark: host speed, set-up time and memory of `Sim` workloads.

Runs one workload (or `all`) in a fresh interpreter, then sets it up
in SETUP_PROBES more, and prints every metric by name with its unit.
Times are in RefClock seconds (see refclock.py). The last stdout line
is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from a traced run (see README.md).

Each pass of a workload is checked: it must not raise, must record no
safety violation, and its summary and export digests must equal those
recorded in digests.json for the seed, or, for a seed not recorded
there, those of the first untraced pass of the run.

    python3 perfbench/run.py --workload saturated-n32 --seed 1 \\
        --seconds 10 --trace 0

Run it from the repository root: it imports posn from ./src.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# fresh interpreters that only set up, next to the one that runs the
# passes: each gives one more set-up sample
SETUP_PROBES = 2
# beyond --seconds, a worker may take this long to import, set up and
# finish its last pass
WORKER_SLACK_S = 35
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_sha(root: str):
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run_workers(workload: str, seed: int, seconds: float, trace: int,
                out_dir: str) -> list:
    """Start the worker that runs the passes, then the set-up probes, in
    turn; None for one that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    results = []
    for probe in [False] + [True] * SETUP_PROBES:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", out_dir] + (["--setup-only"] if probe else [])
        timeout = WORKER_SLACK_S + (0 if probe else seconds)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {timeout:.0f} s",
                  file=sys.stderr)
            results.append(None)
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            results.append(None)
            continue
        results.append(json.loads(lines[-1]))
    return results


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def recorded_digests(workload: str, seed: int):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_passes(workers: list, expected) -> tuple[int, int, list]:
    """Count attempted and failed passes; return the reference digests.

    A pass fails if it raised, recorded a violation, left a traced call
    unwrapped, or its digests differ from the expected ones (the first
    untraced pass's when the seed has none recorded)."""
    attempted = failed = 0
    for worker in workers:
        if worker is None:
            attempted += 1
            failed += 1
            continue
        for p in worker["passes"]:
            attempted += 1
            if "error" in p:
                failed += 1
                continue
            digests = [row["digest"] for row in p["inputs"]]
            if expected is None and not p["traced"]:
                expected = digests
            bad = (digests != expected
                   or any(row["violations"] for row in p["inputs"])
                   or p.get("unwrapped"))
            if bad:
                print(f"pass failed: traced={p['traced']} "
                      f"digest_ok={digests == expected} "
                      f"unwrapped={p.get('unwrapped')} violations="
                      f"{[row['violations'] for row in p['inputs']]}",
                      file=sys.stderr)
                failed += 1
    return attempted, failed, expected


def passes(workers: list, traced: bool) -> list:
    return [p for w in workers if w is not None for p in w["passes"]
            if "error" not in p and p["traced"] == traced]


def median(values):
    return statistics.median(values) if values else 0.0


def pass_total(p: dict, key: str) -> float:
    return sum(row[key] for row in p["inputs"])


def per_input_median(plain: list, key: str) -> list:
    """Per input of the workload, the median of row[key] over passes."""
    values: dict = {}
    for p in plain:
        for row in p["inputs"]:
            values.setdefault(row["master_seed"], []).append(row[key])
    return [median(v) for v in values.values()]


def end_to_end(workers: list) -> dict:
    """Every time is in RefClock seconds (see refclock.py): host seconds
    scaled to a fixed host speed, since this host's speed drifts. Speed
    is the median over the untraced passes of the pass's total over its
    inputs. Export time adds up, over the inputs, each input's median
    over passes of the mean of a pass's EXPORT_REPEATS summarize() and
    export() calls. Set-up time and memory are medians over the worker
    processes that set up, and of those that ran a pass."""
    plain = passes(workers, traced=False)
    live = [w for w in workers if w is not None]
    slots = pass_total(plain[0], "slots") if plain else 0
    run_s = median([pass_total(p, "run_scaled_s") for p in plain])
    return {
        "slots_per_s": (slots / run_s if run_s else 0.0, "slots/s"),
        "setup_s": (median([w["setup"]["setup_s"] for w in live]), "s"),
        "export_s": (sum(per_input_median(
            plain, "export_scaled_s")), "s"),
        "peak_rss_mb": (median([w["peak_rss_mb"] for w in live
                                if w["peak_rss_mb"] is not None]), "MB"),
    }


def sim_outcomes(p: dict) -> dict:
    """summarize() outcomes, the median over a pass's inputs."""
    return {f"sim.{key}": (median([r["sim"][key] for r in p["inputs"]
                                   if r["sim"][key] is not None]), unit)
            for key, unit in (("tps", "tx/s"), ("latency_p50_ms", "ms"),
                              ("latency_p95_ms", "ms"))}


def layer_values(p: dict) -> dict:
    """Per-layer metrics of one traced pass; times are seconds summed
    over the pass's inputs."""
    spans, distinct = p["spans"], p["distinct"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per(count, base):
        return count / base if base else 0.0

    rows = p["inputs"]
    slots = sum(r["slots"] for r in rows)
    races = sum(r["slots"] * r["validators"] for r in rows)
    counters: dict = {}
    for r in rows:
        for k, v in r["msg_counters"].items():
            counters[k] = counters.get(k, 0) + v
    sent = sum(v for k, v in counters.items() if k.startswith("sent_"))
    elect = ("baselines.por_elect", "baselines.pob_elect")
    out = {
        "kernels.first_fire.calls": (calls("kernels.first_fire"), "count"),
        "kernels.first_fire.self_s": (self_s("kernels.first_fire"), "s"),
        "neuro.spike_inputs.self_s": (self_s("neuro.spike_inputs"), "s"),
        "neuro.first_spike_step.calls": (
            calls("neuro.first_spike_step"), "count"),
        "neuro.replays_per_race": (
            per(calls("neuro.first_spike_step"), races), "ratio"),
        "core.hash_block.calls": (calls("core.hash_block"), "count"),
        "core.hash_block.self_s": (self_s("core.hash_block"), "s"),
        "core.hash_block.calls_per_block": (
            per(calls("core.hash_block"), distinct["core.hash_block"]),
            "ratio"),
        "core.append_block.calls": (calls("core.append_block"), "count"),
        "core.append_block.self_s": (self_s("core.append_block"), "s"),
        "crypto.verify.calls": (calls("crypto.verify"), "count"),
        "crypto.verify.self_s": (self_s("crypto.verify"), "s"),
        "crypto.verify.calls_per_distinct": (
            per(calls("crypto.verify"), distinct["crypto.verify"]), "ratio"),
        "crypto.sign.calls": (calls("crypto.sign"), "count"),
        "consensus.compute_slot_context.calls": (
            calls("consensus.compute_slot_context"), "count"),
        "consensus.validate_proposal.calls": (
            calls("consensus.validate_proposal"), "count"),
        "consensus.validate_proposal.self_s": (
            self_s("consensus.validate_proposal"), "s"),
        "consensus.apply_penalty.calls": (
            calls("consensus.apply_penalty"), "count"),
        "consensus.apply_penalty.incl_s": (
            incl("consensus.apply_penalty"), "s"),
        "consensus.collect_votes.calls": (
            calls("consensus.collect_votes"), "count"),
        "consensus.node.self_s": (self_s("consensus.node"), "s"),
        "consensus.node_state_entries": (
            sum(r["node_state_entries"] for r in rows), "count"),
        "baselines.elect.calls": (sum(calls(n) for n in elect), "count"),
        "baselines.elect.self_s": (sum(self_s(n) for n in elect), "s"),
        "netsim.loop.self_s": (self_s("netsim.loop"), "s"),
        "netsim.sample_delay.self_s": (self_s("netsim.sample_delay"), "s"),
        "netsim.msgs_sent": (sent, "count"),
        "netsim.msgs_per_slot": (per(sent, slots), "ratio"),
        "netsim.dropped_stale": (counters.get("dropped_stale", 0), "count"),
        "netsim.held_partition": (counters.get("held_partition", 0),
                                  "count"),
        "netsim.dropped_crashed": (counters.get("dropped_crashed", 0),
                                   "count"),
        # a pass repeats each input's export; report one per input
        "metrics.summarize_s": (
            per(incl("metrics.summarize") * len(rows),
                calls("metrics.summarize")), "s"),
        "metrics.export_s": (
            per(incl("metrics.export") * len(rows), calls("metrics.export")),
            "s"),
    }
    out.update(sim_outcomes(p))
    return out


def per_layer(workers: list) -> dict:
    traced = [layer_values(p) for p in passes(workers, traced=True)]
    if not traced:
        return {}
    out = {name: (median([t[name][0] for t in traced]), unit)
           for name, (_, unit) in traced[0].items()}
    live = [w for w in workers if w is not None]
    out["setup.import_s"] = (median([w["setup"]["import_s"]
                                     for w in live]), "s")
    out["setup.sim_init_s"] = (median([w["setup"]["sim_init_s"]
                                       for w in live]), "s")

    # host seconds, not scaled ones: the reference runs would land in
    # the traced spans, so traced passes run without a RefClock
    plain = passes(workers, traced=False)
    plain_s = median([pass_total(p, "run_s") for p in plain])
    out["trace.overhead"] = (
        median([pass_total(p, "run_s")
                for p in passes(workers, traced=True)]) / plain_s
        if plain_s else 0.0, "x")
    out["host.raw_slots_per_s"] = (
        pass_total(plain[0], "slots") / plain_s if plain_s else 0.0,
        "slots/s")
    out["host.slowdown"] = (median([
        sum(r["slowdown"] * r["run_s"] for r in p["inputs"])
        / pass_total(p, "run_s") for p in plain]), "x")
    return out


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        workers = run_workers(workload, seed, seconds, trace, out)
    expected = recorded_digests(workload, seed)
    attempted, failed, reference = check_passes(workers, expected)
    metrics = per_layer(workers) if trace else end_to_end(workers)
    live = [w for w in workers if w is not None]
    first = passes(workers, traced=False)
    print(json.dumps({
        "workload": workload, "seed": seed, "trace": trace,
        "env": dict(live[0]["env"] if live else {}, git_sha=git_sha(ROOT)),
        "digests_recorded": expected is not None, "digests": reference,
        "sim": {k: v[0] for k, v in sim_outcomes(first[0]).items()}
        if first else None,
    }))
    for name, (value, unit) in metrics.items():
        print(f"{workload:18s} {name:40s} {value:14.6g} {unit}")
    declared = declared_metrics(trace)
    names_ok = declared is None or declared == set(metrics)
    if not names_ok:
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(declared ^ set(metrics))}", file=sys.stderr)
    return {"correct": failed == 0 and bool(live) and names_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of one workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills and reaps
    # the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "posn", "__init__.py")):
        print(f"error: no posn sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {name: bench(name, args.seed, args.seconds, args.trace)
                   for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
