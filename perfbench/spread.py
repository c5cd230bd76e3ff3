"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload eval-gallery-4k --seeds 1-10

Runs the workload once per seed, one process at a time, with the
``run_seconds`` from BENCHMARK.json, and prints for each end-to-end metric
its median and the distance between its first and third quartiles as a
share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        print(f"{metric['name']:20s} median {med:12.6g}  spread {(q3 - q1) / med:7.4f}"
              f"  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
