"""Run the benchmark once per seed and report each metric's median and quartile spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 --seconds 30 [--trace 0|1]

Runs are sequential, each in its own process.  For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median; the last line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        run_s = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        digest = next((ln.split()[2] for ln in lines if ln.startswith("# output_sha256")), None)
        runs.append({"seed": seed, "digest": digest, "run_s": run_s, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={digest} run {run_s:.1f} s", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        print(f"{name:50s} median {median:.6g} {first['unit']:8s} spread {spread:.3f}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                      "runs": [{k: r[k] for k in ("seed", "digest", "run_s", "correct", "attempted", "failed")}
                               for r in runs],
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
