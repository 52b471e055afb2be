"""One benchmark process: cold-imports posn, builds a workload, runs it.

`run.py` starts several of these in turn, each in a fresh interpreter,
so that every process measures the set-up a `posn run` pays. A process
times `import posn`, the scenario build and the `Sim` construction, then
runs passes of the workload until its time is up (at least one), or,
with --setup-only, none. With --trace 1 it alternates untraced and
traced passes. Untraced, every time is taken with a RefClock and given
both in host seconds and in scaled seconds (see refclock.py); traced,
in host seconds only. It prints one JSON object on its last stdout line.

    PYTHONPATH=src python3 perfbench/worker.py --workload saturated-n32 \\
        --seed 1 --seconds 3 --trace 0
"""

import argparse
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refclock import RefClock  # noqa: E402

EXPORT_REPEATS = 15


class PlainClock:
    """Host seconds of a block, read like a RefClock that scales nothing."""

    scaled_s = None
    slowdown = None

    def __enter__(self) -> "PlainClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._start


def sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def run_pass(name, seed, out_dir, tracer=None):
    """Run every input of one pass once; return its timings, digests and
    outcome. The run is timed alone; summarize() and export() apart."""
    import workloads
    from posn import metrics
    from posn.core import dumps_canonical
    from posn.netsim import Sim

    timer = RefClock if tracer is None else PlainClock
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        rows = []
        for master_seed in workloads.master_seeds(name, seed):
            sc = workloads.build(name, master_seed)
            sim = Sim(sc.cfg, sc.fault_plan, sc.load, sc.protocol,
                      pob_scores=sc.pob_scores)
            # untraced, a RefClock times each call; traced, the clock's
            # reference runs would land inside the spans, so plain host
            # seconds are taken and no scaled ones
            with timer() as run:
                log = sim.run()
            # export is short, so a few summarize() and export() calls in
            # a row are timed as one block; each writes the same bytes
            prefix = os.path.join(out_dir, f"{name}_{master_seed}")
            with timer() as export:
                for _ in range(EXPORT_REPEATS):
                    stats = metrics.summarize(log)
                    paths = metrics.export(stats, log, prefix)

            with open(paths[0], "rb") as fh:
                summary_file = fh.read()
            with open(paths[1], "rb") as fh:
                runlog_file = fh.read()
            lat = stats.latency_ms or {}
            rows.append({
                "master_seed": master_seed,
                "slots": sim.n_slots,
                "validators": sim.cfg.n_validators,
                "run_s": run.raw_s,
                "run_scaled_s": run.scaled_s,
                "slowdown": run.slowdown,
                "export_s": export.raw_s / EXPORT_REPEATS,
                "export_scaled_s": (export.scaled_s / EXPORT_REPEATS
                                    if export.scaled_s is not None else None),
                "digest": {
                    "summary_json": sha256(dumps_canonical(
                        stats.to_json()).encode()),
                    "summary_file": sha256(summary_file),
                    "runlog_file": sha256(runlog_file),
                },
                "violations": list(log.violations),
                "msg_counters": dict(log.msg_counters),
                "node_state_entries": node_state_entries(sim),
                "sim": {"tps": stats.tps, "latency_p50_ms": lat.get("p50"),
                        "latency_p95_ms": lat.get("p95")},
            })
        result = {"traced": tracer is not None, "inputs": rows}
        if tracer is not None:
            result["spans"] = tracer.totals()
            result["distinct"] = tracer.distinct_counts()
            result["unwrapped"] = tracer.audit()
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()


def node_state_entries(sim) -> int:
    """Entries held at the end of the run in the per-node sets and maps
    that grow with the run length."""
    total = 0
    for node in sim.nodes:
        node = getattr(node, "node", node)
        for attr in ("mempool", "finalized_ids", "finalize_seen",
                     "block_final_ms", "pending_finalize", "finalized_slots"):
            total += len(getattr(node, attr, ()))
    return total


def environment() -> dict:
    import platform

    import numpy
    import scipy
    from posn import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HAVE_NUMBA": kernels.HAVE_NUMBA,
        "POSN_DISABLE_NUMBA": os.environ.get("POSN_DISABLE_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, report and run no pass")
    args = ap.parse_args(argv)
    import workloads

    with RefClock() as imported:
        import posn  # noqa: F401  (the import is what is timed)
    with RefClock() as built:
        sc = workloads.build(args.workload, workloads.master_seeds(
            args.workload, args.seed)[0])
    with RefClock() as constructed:
        posn.Sim(sc.cfg, sc.fault_plan, sc.load, sc.protocol,
                 pob_scores=sc.pob_scores)
    setup = {"import_s": imported.scaled_s,
             "build_s": built.scaled_s,
             "sim_init_s": constructed.scaled_s,
             "setup_s": (imported.scaled_s + built.scaled_s
                         + constructed.scaled_s),
             "raw_s": imported.raw_s + built.raw_s + constructed.raw_s}
    if args.setup_only:
        import json

        print(json.dumps({"setup": setup, "peak_rss_mb": None,
                          "passes": [], "env": environment()}))
        return 0
    t3 = time.perf_counter()
    deadline = t3 + args.seconds

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    def attempt(**kwargs) -> dict:
        try:
            return run_pass(args.workload, args.seed, args.out_dir, **kwargs)
        except Exception:  # a failed pass is counted, not fatal
            traceback.print_exc()
            return {"traced": kwargs.get("tracer") is not None,
                    "error": traceback.format_exc(limit=3)}

    passes = [attempt()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last_pass_s = time.perf_counter() - t3
    if tracer is not None:
        start = time.perf_counter()
        passes.append(attempt(tracer=tracer))
        last_pass_s = time.perf_counter() - start
    # start no pass that the last one says would end past the deadline
    while time.perf_counter() + last_pass_s <= deadline:
        start = time.perf_counter()
        # traced passes alternate with untraced ones
        passes.append(attempt(tracer=tracer if len(passes) % 2 else None))
        last_pass_s = time.perf_counter() - start

    import json  # after the timed import, which loads it too

    print(json.dumps({
        "setup": setup,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
