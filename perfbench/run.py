"""Run one icelab benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload variational --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: icelab is imported from its `src/`.
The workload's ops run one after another (a closed loop with a single
client, no threads) in whole rounds until the timed ops add up to
`--seconds`.  Only the ops are timed; set-up, references, checks and the
calibration kernel are not.  Op times are reported at a reference speed:
each op's wall time is scaled by CAL_REF_S over the median time of a fixed
calibration kernel measured just before and just after the op, which
removes most of the machine's speed drift (see README.md).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from spans, see spans.py) with
`--trace 1`.  Traces are written to perfbench/out/.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy loads: steadier timings, and
    # identical counts run to run
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7           # set-up is timed this many times; the median is reported
CAL_SHARE = 0.1            # calibration time after each op, as a share of the op's
CAL_REF_S = 0.004          # calibration kernel's time at the reference speed

END_TO_END_UNITS = {"ops_per_ref_s": "1/ref_s", "op_ref_s.p50": "ref_s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def load_icelab():
    """Import icelab from this checkout's src/, and from nowhere else."""
    if not (SRC / "icelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no icelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import icelab
    if Path(icelab.__file__).resolve().parent != SRC / "icelab":
        raise SystemExit(f"perfbench: imported icelab from {icelab.__file__}, not {SRC}")
    return icelab


def calibration_kernel() -> float:
    """Fixed numpy and Python work that does not touch icelab."""
    x = np.linspace(0.0, 1.0, 1024)
    acc = 0.0
    for k in range(80):
        y = np.sin(x * k) * np.exp(-x)
        acc += float(np.abs(np.fft.fft(y))[k % 512])
        for v in y[::64]:
            acc += v * v
    return acc


def calibrate(seconds: float) -> float:
    """Median time of the calibration kernel, sampled for about `seconds`."""
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def summarize(op_seconds: list) -> dict:
    """Throughput over the timed ops and the median op time."""
    return {"ops_per_s": len(op_seconds) / sum(op_seconds),
            "op_s.p50": statistics.median(op_seconds)}


def run_rounds(ops: list, seconds: float, tracer=None, own_errors=()) -> dict:
    """Run whole rounds of `ops` until the timed ops reach `seconds`.

    Each op's wall time is also scaled to the reference speed by the
    calibration medians taken just before and just after it.  An op that
    raises is handed the exception as its output; a traceback is printed
    unless the exception is one of `own_errors` (icelab's errors).
    """
    runs = [tracer.span(f"op.{op.kind}", op.run) if tracer else op.run for op in ops]
    op_seconds: list[float] = []
    ref_seconds: list[float] = []
    cal = calibrate(0.0)
    failed = 0
    unexpected = 0
    reported: set = set()
    while True:
        for op, run in zip(ops, runs):
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:
                out = exc
                if not isinstance(exc, own_errors):
                    traceback.print_exc()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            after = calibrate(CAL_SHARE * dt)
            op_seconds.append(dt)
            ref_seconds.append(dt * 2 * CAL_REF_S / (cal + after))
            cal = after
            problems = op.check(out, op.ref)
            if problems:
                failed += 1
                unexpected += not op.known_fault
                for msg in problems:
                    if (op.kind, msg) not in reported:
                        reported.add((op.kind, msg))
                        print(f"perfbench: {op.kind} op failed: {msg}", file=sys.stderr)
        if sum(op_seconds) >= seconds:
            break
    return {"op_seconds": op_seconds, "op_ref_seconds": ref_seconds,
            "failed": failed, "unexpected": unexpected}


def setup_seconds(args) -> float:
    """Median time from starting a fresh process to its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit("perfbench: set-up probe failed")
        samples.append(t1 - t0)
    return statistics.median(samples)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    icelab = load_icelab()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, icelab)
    ops = workloads.WORKLOADS[args.workload](icelab, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0
    for op in ops:
        if op.prepare is not None:
            op.prepare(op.ref)
    setup = None if tracer else setup_seconds(args)

    res = run_rounds(ops, args.seconds, tracer, icelab.IceLabError)
    times = res["op_seconds"]
    wall = summarize(times)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(times)} ops "
          f"({res['failed']} failed) in {sum(times):.3f} s, "
          f"{wall['ops_per_s']:.4f} ops/s, median {wall['op_s.p50']:.4f} s", file=sys.stderr)
    if tracer:
        values = spans.layer_metrics(tracer, len(times))
        units = spans.LAYER_METRICS
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(OUT / f"trace-{args.workload}-{args.seed}.json.gz"),
                    {"workload": args.workload, "seed": args.seed, "ops": len(times)})
    else:
        ref = summarize(res["op_ref_seconds"])
        values = dict(ops_per_ref_s=ref["ops_per_s"], setup_s=setup,
                      **{"op_ref_s.p50": ref["op_s.p50"]},
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": res["unexpected"] == 0,
        "attempted": len(times),
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
