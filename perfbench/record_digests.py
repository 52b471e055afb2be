"""Record each workload's summary and export digests into digests.json.

For every workload and seed in the range, runs one untraced pass and
stores, per input, the sha256 of the canonical summarize() JSON and of
the exported summary and runlog files. run.py then fails every pass
whose digests differ. Re-record only for a change that alters outputs
on purpose, and say so where the change is described.

    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 0-20
    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 0-20 \\
        --workload byzantine-n7
"""

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="re-record only this workload (repeatable); the "
                         "others keep their recorded digests")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    path = os.path.join(HERE, "digests.json")
    digests = {}
    if args.workload and os.path.isfile(path):
        with open(path) as fh:
            digests = json.load(fh)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        for name in args.workload or WORKLOADS:
            digests[name] = {}
            for seed in range(first, last + 1):
                p = run_pass(name, seed, out)
                bad = [r["violations"] for r in p["inputs"] if r["violations"]]
                if bad:
                    print(f"{name} seed {seed}: violations {bad}",
                          file=sys.stderr)
                    return 1
                digests[name][str(seed)] = [r["digest"] for r in p["inputs"]]
                print(name, seed, flush=True)
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
