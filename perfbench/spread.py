"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload quadrature --seeds 1-10 --seconds 15

Runs perfbench/run.py once per seed, one run at a time, and prints for
every metric the median, the quartiles (statistics.quantiles, n=4) and
the quartile spread as a share of the median, plus the failed share.
The summary is also written to perfbench/out/spread-<workload>-trace<k>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # run.py's summary on stderr carries the raw wall-clock figures
        wall = re.search(r"([0-9.]+) ops/s, median ([0-9.]+) s", proc.stderr)
        runs.append(dict(result, seed=seed, wall_ops_per_s=float(wall[1]),
                         wall_op_s_p50=float(wall[2])))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "correct": all(r["correct"] for r in runs),
               "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
               "metrics": {name: spread([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
               "runs": runs}
    summary["wall"] = {name: spread([r[name] for r in runs])
                       for name in ("wall_ops_per_s", "wall_op_s_p50")}
    for name, s in {**summary["metrics"], **summary["wall"]}.items():
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}")
    print(f"correct {summary['correct']}, failed share {summary['failed_share']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
