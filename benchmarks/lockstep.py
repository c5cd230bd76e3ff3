"""Training time of this checkout against another one, one iteration each in turn.

For each seed, two processes train the same configuration: one imports the
program from this checkout's src/, the other from the src/ of the checkout
given with --other. Both are pinned with this process to one CPU and take
turns one train() iteration at a time, handing the turn over a pipe each way
(perfbench's Baton), so the machine's slow phases hit both alike. Each side
counts only the time it runs (perfbench's stamped Schedule, whose lr_at
train() calls at the start of every iteration); world and encoder set-up is
not counted. The side that goes first alternates from seed to seed.

    python benchmarks/lockstep.py --other ../parent-checkout
    python benchmarks/lockstep.py --other ../parent-checkout \\
        --workload train-triplet-hep-2 --seeds 1-10

The configuration is a perfbench workload's training run (eval-gallery-4k's
is its set-up training). Per seed it prints one JSON line with each side's
busy seconds, the ratio other / this (above 1: this checkout is faster), each
side's 50th and 98th percentile step in ms (from the stamped Schedule's
steps_ms, one per iteration) and whether the two sides' full-precision train
rows and final W, b have equal digests; then one summary line with the
median ratio, its quartiles, the number of seeds this checkout won and the
median per-seed ratios other / this of the p50 and p98 steps. BLAS runs on
one thread on both sides.
perfbench/ is read from this checkout and is not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
STEP_PERCENTILES = (50, 98)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def side(workload: str, seed: int, first: bool, read_fd: int, write_fd: int) -> int:
    """One side: train the workload's config in turns with the other side,
    starting if first, then print busy seconds and the digest of what was
    trained."""
    import workloads as wk
    from psearch import runner

    baton = wk.Baton(read_fd, write_fd)
    stamped, schedules = wk.stamped(runner.Schedule), []

    def schedule(*args):
        schedules.append(stamped(*args, turn=baton))
        return schedules[-1]

    cfg = wk.WORKLOADS[workload].config(seed)
    if not first:
        baton.wait()
    runner.Schedule = schedule
    try:
        _, encoder, rows = runner.train_from_config(cfg)
        schedules[0].stop()
    finally:
        baton.finish()
    trained = repr((rows, encoder.W.tolist(), encoder.b.tolist()))
    cuts = statistics.quantiles(schedules[0].steps_ms, n=100, method="inclusive")
    print(json.dumps({"busy_s": schedules[0].busy_s,
                      "step_ms": {f"p{q}": cuts[q - 1] for q in STEP_PERCENTILES},
                      "digest": hashlib.sha256(trained.encode()).hexdigest()}))
    return 0


def run_pair(checkouts: list[Path], workload: str, seed: int, first: int) -> list[dict]:
    """One seed: both sides in lockstep; replies in checkouts order."""
    to_other, to_this = os.pipe(), os.pipe()
    ends = [(to_this[0], to_other[1]), (to_other[0], to_this[1])]
    procs = []
    try:
        for i, (checkout, fds) in enumerate(zip(checkouts, ends)):
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       PYTHONHASHSEED="0",
                       PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(PERFBENCH)]))
            procs.append(subprocess.Popen(
                [sys.executable, __file__, "--side", workload, str(seed), str(int(i == first)),
                 *map(str, fds)],
                stdout=subprocess.PIPE, text=True, pass_fds=fds, env=env))
    finally:
        for fd in (*to_other, *to_this):
            os.close(fd)
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise RuntimeError(f"a side failed on seed {seed}")
    return [json.loads(out.splitlines()[-1]) for out in outs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", type=Path,
                        help="root of the checkout to compare against (required)")
    parser.add_argument("--workload", default="train-olp-c2hep-8",
                        help="perfbench workload whose training run is timed")
    parser.add_argument("--seeds", default="1-6", help="seed or inclusive range, e.g. 1-6")
    parser.add_argument("--side", nargs=5, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        workload, *numbers = args.side
        seed, first, read_fd, write_fd = map(int, numbers)
        return side(workload, seed, bool(first), read_fd, write_fd)
    if args.other is None:
        parser.error("--other is required")

    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    from workloads import pin_to_one_cpu

    pin_to_one_cpu()
    checkouts = [ROOT, args.other.resolve()]
    ratios, step_ratios = [], {f"p{q}": [] for q in STEP_PERCENTILES}
    for k, seed in enumerate(parse_seeds(args.seeds)):
        this, other = run_pair(checkouts, args.workload, seed, first=k % 2)
        ratios.append(other["busy_s"] / this["busy_s"])
        for key, cut in step_ratios.items():
            cut.append(other["step_ms"][key] / this["step_ms"][key])
        print(json.dumps({"seed": seed, "this_first": k % 2 == 0, "this_s": this["busy_s"],
                          "other_s": other["busy_s"], "ratio": ratios[-1],
                          "this_step_ms": this["step_ms"], "other_step_ms": other["step_ms"],
                          "digests_equal": this["digest"] == other["digest"]}), flush=True)
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    print(json.dumps({"workload": args.workload, "seeds": len(ratios), "median": median,
                      "q1": q1, "q3": q3, "wins": sum(r > 1 for r in ratios),
                      **{f"{key}_step_ratio": statistics.median(cut)
                         for key, cut in step_ratios.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
