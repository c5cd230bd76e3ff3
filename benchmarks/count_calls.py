"""Python-level calls per training iteration or retrieval pass, counted with
cProfile, and a digest of what was computed.

Trains each configuration of the acceptance BASE world (tests/test_acceptance.py)
three times with runner.train_from_config and prints the calls the profiler
records inside its train() call, Python functions and the builtins and numpy
functions they call, divided by the iteration count. Unlike a timing, the
count does not depend on machine load, so two versions of the program can be
compared in one run. It omits work done inside native code and says nothing
about time. One unprofiled one-iteration train() runs before any count.
numpy_py_calls is the part of those calls that enter numpy's own Python-level
functions (wrappers such as ndarray.sum's _core/_methods.py:_sum, np.unique or
the generator's internal np.prod), per iteration, and numpy_py_functions names
them, file:function relative to numpy's package, with their calls per
iteration, so a wrapper that comes back into the training step shows by name.

Each rep also gives its digest (digests.py: the sha256 of the repr of its
full-precision train rows and the final encoder W and b). Equal digests from
two checkouts show that training is bit-identical, which train.csv's 10
digits cannot; the BLAS library may move last bits with its thread count, so
run both sides with OPENBLAS_NUM_THREADS=1. After the reps, one more train()
call, unprofiled, gives tracemalloc's peak inside it (numpy reports its
buffers to tracemalloc, so this count, too, does not depend on load); its
digest must equal the reps'. That call runs in a fresh interpreter, after
the same one-iteration warm-up, so the peak does not depend on what the
process ran before. The peaks of the configs without OLP then repeat to the
byte; those of the OLP configs still spread by about 25 KB from one fresh
process to the next.

One more config, eval@4000, counts a retrieval pass instead of training:
build_retrieval_set, evaluate_retrieval and gallery_sweep over 200/1000/4000
items, as `run --gallery-sizes` calls them, on the BASE world with 3,800
distractors after training BASE once. Each rep gives the calls inside each
of the three and the sha256 of the repr of the full-precision eval rows;
tracemalloc's peak over one more, unprofiled pass comes from a fresh
interpreter, as for training.

    python benchmarks/count_calls.py                          # all 13 configs
    python benchmarks/count_calls.py --config triplet+hep@2   # repeatable
    python benchmarks/count_calls.py --config eval@4000

The package is imported from this checkout's src/. Each line of output is
one JSON object: the config, the calls and the digest of every rep, and
whether the reps repeat exactly, counts and digests both.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import json
import pstats
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from digests import digest  # noqa: E402
from psearch import runner  # noqa: E402
from psearch.evaluation import evaluate_retrieval, gallery_sweep  # noqa: E402
from psearch.numerics import make_rng  # noqa: E402
from psearch.simulator import LOSS_CHOICES  # noqa: E402
from test_acceptance import BASE  # noqa: E402

EVAL_CONFIG = "eval@4000"
CONFIGS = [f"{loss}@{images}" for loss in LOSS_CHOICES for images in (2, 8)] + [EVAL_CONFIG]
SWEEP = [200, 1000, 4000]
REPS = 3
NUMPY_DIR = Path(numpy.__file__).parent


def train_digest(cfg, call) -> str:
    """runner.train_from_config(cfg) with its train() call run through
    call(train, *args, **kwargs); the digest of the run."""
    train = runner.train
    runner.train = lambda *args, **kwargs: call(train, *args, **kwargs)
    try:
        _, encoder, rows = runner.train_from_config(cfg)
    finally:
        runner.train = train
    return digest(rows, encoder)


def numpy_calls(stats: pstats.Stats) -> dict[str, int]:
    """The calls stats records into numpy's Python-level functions, by
    file:function, the file relative to numpy's package, most called first."""
    calls = {}
    for (filename, _, name), (_, count, *_) in stats.stats.items():
        path = Path(filename)
        if path.is_relative_to(NUMPY_DIR):
            key = f"{path.relative_to(NUMPY_DIR).as_posix()}:{name}"
            calls[key] = calls.get(key, 0) + count
    return dict(sorted(calls.items(), key=lambda kv: (-kv[1], kv[0])))


def profile_train(cfg) -> tuple[float, dict[str, float], str]:
    """cProfile's call count inside the train() call, per iteration (world
    and encoder construction are not profiled), its calls into numpy's
    Python-level functions by name, per iteration, and the train digest."""
    profile = cProfile.Profile()
    digest = train_digest(cfg, profile.runcall)
    stats = pstats.Stats(profile)
    # the profiled train() call itself is not an iteration's call
    return ((stats.total_calls - 1) / cfg.iters,
            {key: n / cfg.iters for key, n in numpy_calls(stats).items()}, digest)


def traced_train(cfg) -> tuple[int, str]:
    """tracemalloc's peak bytes inside an unprofiled train() call, and the
    train digest. Run it in a fresh interpreter (fresh_peak)."""
    peaks = []

    def traced(train, *args, **kwargs):
        tracemalloc.start()
        try:
            return train(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    digest = train_digest(cfg, traced)
    return peaks[0], digest


def retrieval_pass(world, encoder, cfg, call=lambda phase, f, *args: f(*args)) -> list:
    """The eval rows of one retrieval pass, each phase run through call."""
    rset = call("build_retrieval_set", runner.build_retrieval_set, world, encoder, cfg)
    mAP, cmc = call("evaluate_retrieval", evaluate_retrieval, rset)
    rng = make_rng(cfg.seed + 2 * runner.EVAL_SEED_OFFSET)
    return [(len(rset.gallery), mAP, cmc[1], cmc[5], cmc[10]),
            *call("gallery_sweep", gallery_sweep, rset, SWEEP, rng)]


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def profile_retrieval(world, encoder, cfg) -> tuple[dict, dict, str]:
    """cProfile's call count inside each phase of one retrieval pass, the
    part of it that enters numpy's Python-level functions, and the sha256
    of the repr of the eval rows."""
    calls, numpy_py = {}, {}

    def profiled(phase, f, *args):
        profile = cProfile.Profile()
        result = profile.runcall(f, *args)
        stats = pstats.Stats(profile)
        calls[phase] = stats.total_calls - 1  # not the phase's own call
        numpy_py[phase] = sum(numpy_calls(stats).values())
        return result

    return calls, numpy_py, rows_digest(retrieval_pass(world, encoder, cfg, profiled))


def traced_retrieval(world, encoder, cfg) -> tuple[int, str]:
    """tracemalloc's peak bytes over an unprofiled retrieval pass, and the
    eval-row digest. Run it in a fresh interpreter (fresh_peak)."""
    tracemalloc.start()
    try:
        rows = retrieval_pass(world, encoder, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, rows_digest(rows)


def config_of(name):
    if name == EVAL_CONFIG:
        return dataclasses.replace(BASE, distractors=3800)  # 4,000 gallery items
    loss, images = name.split("@")
    return dataclasses.replace(BASE, loss_choice=loss, images_per_iter=int(images))


def fresh_peak(name) -> tuple[int, str]:
    """The traced peak bytes and digest of config name, from a fresh
    interpreter that runs this script with --peak."""
    out = subprocess.run([sys.executable, __file__, "--peak", name],
                         capture_output=True, text=True, check=True).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def peak(name) -> tuple[int, str]:
    """--peak: the warm-up, then config name's one traced run."""
    warm_up()
    cfg = config_of(name)
    if name != EVAL_CONFIG:
        return traced_train(cfg)
    world, encoder, _ = runner.train_from_config(cfg)
    return traced_retrieval(world, encoder, cfg)


def count_retrieval() -> dict:
    cfg = config_of(EVAL_CONFIG)
    world, encoder, _ = runner.train_from_config(cfg)
    calls, numpy_py, digests = zip(*(profile_retrieval(world, encoder, cfg) for _ in range(REPS)))
    traced, digest = fresh_peak(EVAL_CONFIG)
    if digest != digests[0]:
        raise RuntimeError("an unprofiled pass gave other eval rows")
    return {"config": EVAL_CONFIG, "sweep": SWEEP, "calls": calls, "numpy_py_calls": numpy_py,
            "traced_peak_bytes": traced, "digests": digests,
            "repeats": len(set(map(repr, zip(calls, numpy_py)))) == len(set(digests)) == 1}


def warm_up() -> None:
    """One unprofiled one-iteration train(), so that a cache the process
    fills on a first call (abc's subclass cache, filled by the first
    Generator.spawn) counts in no rep."""
    runner.train_from_config(dataclasses.replace(BASE, iters=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", action="append", choices=CONFIGS,
                        help=f"loss@images_per_iter or {EVAL_CONFIG}; repeatable (default: all)")
    parser.add_argument("--peak", choices=CONFIGS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak:
        print(json.dumps(peak(args.peak)))
        return 0
    warm_up()
    for name in args.config or CONFIGS:
        if name == EVAL_CONFIG:
            print(json.dumps(count_retrieval()), flush=True)
            continue
        cfg = config_of(name)
        counts, functions, digests = zip(*(profile_train(cfg) for _ in range(REPS)))
        traced, digest = fresh_peak(name)
        if digest != digests[0]:
            raise RuntimeError("an unprofiled train() gave another digest")
        print(json.dumps({"config": name, "iters": cfg.iters, "calls_per_iter": counts,
                          "numpy_py_calls": [round(sum(f.values()), 4) for f in functions],
                          "numpy_py_functions": functions[0],
                          "traced_peak_bytes": traced, "digests": digests,
                          "repeats": (len(set(counts)) == len(set(digests)) == 1
                                      and all(f == functions[0] for f in functions))}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
