"""Command-line front end: run one scenario, sweep a grid, or re-report
statistics from exported logs.

Every command exits 0 when each run (or runlog) is clean; 1 when an
in-run invariant violation (safety conflict, broken hash chain, balance
leak) was detected or recorded; 2 on bad input, as `error: <key path>:
<problem>` (see `posn.scenario`); a sweep parses its grid before a run.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .core import PosnError, dumps_canonical
from .metrics import (conflicting_finalizations, export, load_runlog,
                      summarize)
from .scenario import build_scenario, load_scenario, read_yaml


def cmd_run(args) -> int:
    overrides = {key: getattr(args, key)
                 for key in ("seed", "protocol", "n_validators", "duration_s")}
    sc = (build_scenario({}, **overrides) if args.scenario is None
          else load_scenario(args.scenario, **overrides))
    log = sc.run()
    stats = summarize(log)
    os.makedirs(args.out_dir, exist_ok=True)
    prefix = os.path.join(
        args.out_dir, f"{sc.name}_{sc.protocol}_seed{sc.cfg.master_seed}")
    export(stats, log, prefix)
    lat = stats.latency_ms["mean"] if stats.latency_ms else math.nan
    print(f"{sc.name} proto={sc.protocol} seed={sc.cfg.master_seed} "
          f"n={sc.cfg.n_validators} tps={stats.tps:.2f} "
          f"latency_mean={lat:.1f}ms finalized={stats.finalized_slots} "
          f"skipped={stats.skipped_slots} violations={len(log.violations)}")
    if log.violations:
        print("invariant violations detected; see the exported summary",
              file=sys.stderr)
        return 1
    return 0


def _mean_ci(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def cmd_sweep(args) -> int:
    # each comma list reads as a YAML list, so its items meet the parse
    # rules of a scenario file's values, all before the first run; an
    # empty list reads as one missing value, which those rules reject
    protocols, ns, rates, seeds = (
        read_yaml(f"[{text}]", flag) or [None] for flag, text in (
            ("--protocols", args.protocols), ("--validators", args.ns),
            ("--rates", args.rates), ("--seeds", args.seeds)))
    grid = [[build_scenario({"protocol": proto, "seed": seed,
                             "validators": {"n": n},
                             "duration_s": args.duration_s,
                             "load": {"arrival_rate": rate},
                             "name": "sweep"}) for seed in seeds]
            for proto, n, rate in itertools.product(protocols, ns, rates)]
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    status = 0
    for scenarios in grid:
        cell = []
        for sc in scenarios:
            log = sc.run()
            if log.violations:
                status = 1
            stats = summarize(log)
            lat = stats.latency_ms["mean"] if stats.latency_ms else math.nan
            cell.append((stats.tps, lat, stats.leader_entropy_bits))
        tps_m, tps_ci = _mean_ci([c[0] for c in cell])
        lat_vals = [c[1] for c in cell if not math.isnan(c[1])]
        lat_m, lat_ci = _mean_ci(lat_vals) if lat_vals else (math.nan, 0.0)
        ent_m, _ = _mean_ci([c[2] for c in cell])
        proto, n, rate = sc.protocol, sc.cfg.n_validators, sc.load.arrival_rate
        rows.append([proto, n, rate, len(seeds),
                     f"{tps_m:.4f}", f"{tps_ci:.4f}",
                     f"{lat_m:.2f}", f"{lat_ci:.2f}", f"{ent_m:.4f}"])
        print(f"{proto} n={n} rate={rate}: tps={tps_m:.2f}"
              f"+-{tps_ci:.2f} latency={lat_m:.1f}+-{lat_ci:.1f}ms")

    path = os.path.join(args.out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("protocol,n_validators,arrival_rate,n_seeds,"
                 "tps_mean,tps_ci95,latency_mean_ms,latency_ci95_ms,"
                 "entropy_mean_bits\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {path}")
    return status


def cmd_report(args) -> int:
    # a runlog's verdict is its recorded violations plus the safety audit
    # re-run over the chains it records
    status = 0
    for path in args.runlogs:
        log = load_runlog(path)
        conflicts = conflicting_finalizations(log)
        for slot in conflicts:
            print(f"{path}: conflicting finalization in slot {slot}",
                  file=sys.stderr)
        if log.violations or conflicts:
            status = 1
        stats = summarize(log)
        print(dumps_canonical({"runlog": path, "protocol": log.protocol,
                               "stats": stats.to_json()}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="posn",
        description="spiking-neuron consensus simulator and baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", help="YAML scenario path")
    p_run.add_argument("--seed", type=int, help="override master seed")
    p_run.add_argument("--protocol", help="override protocol")
    p_run.add_argument("--validators", type=int, dest="n_validators",
                       help="override validator count")
    p_run.add_argument("--duration-s", type=float, dest="duration_s")
    p_run.add_argument("--out-dir", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over protocol/N/rate/seed")
    p_sweep.add_argument("--protocols", default="posn,por,pob")
    p_sweep.add_argument("--validators", dest="ns", default="4,8")
    p_sweep.add_argument("--rates", default="50")
    p_sweep.add_argument("--seeds", default="1,2,3",
                         help="comma-separated master seed values")
    p_sweep.add_argument("--duration-s", type=float, dest="duration_s",
                         default=10.0)
    p_sweep.add_argument("--out-dir", default="out")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("report", help="recompute stats from runlog files")
    p_rep.add_argument("runlogs", nargs="+", help="*_runlog.jsonl paths")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PosnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
