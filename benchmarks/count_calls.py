"""Python-level calls per training iteration, counted with cProfile, and a
digest of what training computed.

Trains each configuration of the acceptance BASE world (tests/test_acceptance.py)
three times with runner.train_from_config and prints the calls the profiler
records inside its train() call, Python functions and the builtins and numpy
functions they call, divided by the iteration count. Unlike a timing, the
count does not depend on machine load, so two versions of the program can be
compared in one run. It omits work done inside native code and says nothing
about time.

Each rep also gives the sha256 of the repr of its full-precision train rows
and the final encoder W and b. Equal digests from two checkouts show that
training is bit-identical, which train.csv's 10 digits cannot; the BLAS
library may move last bits with its thread count, so run both sides with
OPENBLAS_NUM_THREADS=1.

    python benchmarks/count_calls.py                          # all 12 BASE configs
    python benchmarks/count_calls.py --config triplet+hep@2   # repeatable

The package is imported from this checkout's src/. Each line of output is
one JSON object: the config, the calls per iteration and the digest of every
rep, and whether the reps repeat exactly, counts and digests both.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import json
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from psearch import runner  # noqa: E402
from psearch.simulator import LOSS_CHOICES  # noqa: E402
from test_acceptance import BASE  # noqa: E402

CONFIGS = [f"{loss}@{images}" for loss in LOSS_CHOICES for images in (2, 8)]
REPS = 3


def profile_train(cfg) -> tuple[float, str]:
    """cProfile's call count inside the train() call of
    runner.train_from_config(cfg), per iteration (world and encoder
    construction are not profiled), and the sha256 of the repr of the
    train rows and the final W and b."""
    profile = cProfile.Profile()
    train = runner.train
    runner.train = lambda *args, **kwargs: profile.runcall(train, *args, **kwargs)
    try:
        _, encoder, rows = runner.train_from_config(cfg)
    finally:
        runner.train = train
    trained = repr((rows, encoder.W.tolist(), encoder.b.tolist()))
    # the profiled train() call itself is not an iteration's call
    return ((pstats.Stats(profile).total_calls - 1) / cfg.iters,
            hashlib.sha256(trained.encode()).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", action="append", choices=CONFIGS,
                        help="loss@images_per_iter; repeatable (default: all)")
    args = parser.parse_args(argv)
    for name in args.config or CONFIGS:
        loss, images = name.split("@")
        cfg = dataclasses.replace(BASE, loss_choice=loss, images_per_iter=int(images))
        counts, digests = zip(*(profile_train(cfg) for _ in range(REPS)))
        print(json.dumps({"config": name, "iters": cfg.iters, "calls_per_iter": counts,
                          "digests": digests,
                          "repeats": len(set(counts)) == len(set(digests)) == 1}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
