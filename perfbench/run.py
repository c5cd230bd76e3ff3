"""Benchmark entry point: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload train-olp-c2hep-8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's ``src/``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A result file with the environment, and with ``--trace 1`` the spans of the
last traced repetition, goes to ``perfbench/out/``.
"""

import os

# One BLAS thread per workload process, pinned before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SUBPROCESS_TIMEOUT_S = 180


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" when the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "workload": workload,
        "seed": seed,
    }


def import_program():
    """Import psearch from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "psearch" / "__init__.py").is_file():
        sys.exit(f"error: no program at {src / 'psearch'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import psearch

    if Path(psearch.__file__).resolve().parent != (src / "psearch").resolve():
        sys.exit(f"error: psearch imported from {psearch.__file__}, not from {src}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    env = environment(name, seed)
    outcome = workloads.run_workload(
        workloads.WORKLOADS[name], seed, seconds, trace,
        spans_path=stem.with_suffix(".spans.jsonl") if trace else None,
    )
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print("environment " + json.dumps(env))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"attempted {outcome.attempted} failed {outcome.failed} "
          f"failed_share {failed_share:.4f}")
    for key, value in outcome.info.items():
        print(f"info {key} {value}")
    for key, (value, unit) in outcome.metrics.items():
        print(f"{key} {value:.6g} {unit}")
    correct = outcome.failed == 0 and not outcome.problems and bool(outcome.metrics)
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"environment": env, "attempted": outcome.attempted,
                   "failed": outcome.failed, "failed_share": failed_share,
                   "problems": outcome.problems, "info": outcome.info,
                   "metrics": outcome.metrics}, fh, indent=1)
    print(result_line(correct, outcome.attempted, outcome.failed, outcome.metrics))
    return 0 if outcome.metrics else 1


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one at a time; metrics come back
    prefixed with the workload name."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        print(f"== {name}")
        for key, m in result["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    print(f"attempted {attempted} failed {failed} failed_share {failed / attempted:.4f}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, bool(args.trace))
    if args.workload not in names:
        parser.error(f"--workload must be 'all' or one of {names}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
