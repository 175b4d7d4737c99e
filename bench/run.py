#!/usr/bin/env python3
"""castnet benchmark.

    python3 bench/run.py --workload train_default --seed 0 --seconds 20 --trace 0

Runs one workload from the root of a source checkout, against ``src/``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run. Lines before the last name each metric
with its unit and give the provenance; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record goes to ``bench/_out/``. Exits 2 without a result when the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("train_default", "eval_default", "ablate_sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "castnet", "cli.py")):
        print(f"error: castnet sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # thread counts must be pinned before numpy loads its BLAS
    os.environ.update(OPENBLAS_NUM_THREADS="1", CAST_THREADS="1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    bench_dir = os.path.join(ROOT, "bench")
    record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        work_dir=os.path.join(bench_dir, "_work"), out_dir=os.path.join(bench_dir, "_out"))

    for line in record["failures"]:
        print(f"FAILED {line}")
    shown = dict(record["metrics"])
    if not args.trace:
        shown.update(record["workload_metrics"])
    for name, m in shown.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if args.trace:
        o = record["overhead"]
        print(f"trace overhead: {o['untraced_clips_per_s']:.2f} clips/s untraced, "
              f"{o['traced_clips_per_s']:.2f} traced")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"result_file {os.path.relpath(record['result_file'], ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
