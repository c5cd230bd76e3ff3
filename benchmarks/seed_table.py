"""Criteria 5 and 6 on several seeds: each mAP, each margin to its bound, and
the tightest margin per bound.

For each seed (default: BASE seeds 1-8) it trains the eight configs of
acceptance criteria 5 and 6 on the BASE world of tests/test_acceptance.py,
built as that file's trained_map builds them with the seed replaced, and
evaluates each one on BASE's retrieval set (100 distractors), as the
criteria do. Per seed it prints one JSON line with each config's mAP, each
criterion's margin to its bound (>= 0 when the bound holds) and the first 16
hex digits of the sha256 of the repr of each config's full-precision train
rows. Then one summary line gives the tightest margin per bound and its seed.

As a read-out, not a gate, each trained encoder is also evaluated on the
eval@4000 gallery of benchmarks/count_calls.py (3,800 distractors), where
criterion 5's mAPs are not at the ceiling and criterion 6's gaps are wider;
those mAPs and margins are printed under the keys ending in _4000.

    OPENBLAS_NUM_THREADS=1 python benchmarks/seed_table.py
    OPENBLAS_NUM_THREADS=1 python benchmarks/seed_table.py --seeds 3-5

The package is imported from this checkout's src/. The BLAS library may move
last bits with its thread count, so compare two checkouts' tables with
OPENBLAS_NUM_THREADS=1 on both sides.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lockstep import parse_seeds  # noqa: E402
from psearch import runner  # noqa: E402
from psearch.evaluation import evaluate_retrieval  # noqa: E402
from test_acceptance import BASE  # noqa: E402

RUNS = {  # name -> (loss_choice, images_per_iter, lr): criterion 5's four, then criterion 6's
    "oc2": ("olp+c2hep", 2, 0.08),
    "oc8": ("olp+c2hep", 8, 0.08),
    "con2": ("contrastive", 2, 0.08),
    "con8": ("contrastive", 8, 0.08),
    "full": ("olp+c2hep", 2, 0.02),
    "olp": ("olp", 2, 0.02),
    "c2hep": ("c2hep", 2, 0.02),
    "triplet+hep": ("triplet+hep", 2, 0.02),
}
MARGINS = {  # the bounds of tests/test_acceptance.py, each as mAPs -> margin
    "5a oc2-0.9*oc8": lambda m: m["oc2"] - 0.9 * m["oc8"],
    "5b con8-con2-0.10": lambda m: m["con8"] - m["con2"] - 0.10,
    "5c oc2-con2-0.15": lambda m: m["oc2"] - m["con2"] - 0.15,
    "6 full-olp": lambda m: m["full"] - m["olp"],
    "6 full-c2hep": lambda m: m["full"] - m["c2hep"],
    "6 full-triplet+hep-0.05": lambda m: m["full"] - m["triplet+hep"] - 0.05,
}
READOUT_DISTRACTORS = 3800  # count_calls.py's eval@4000 gallery


def seed_row(seed: int) -> dict:
    """Train the eight configs on one seed; their mAPs, margins and digests."""
    maps, maps_4000, digests = {}, {}, {}
    for name, (loss, images, lr) in RUNS.items():
        cfg = dataclasses.replace(BASE, seed=seed, loss_choice=loss, images_per_iter=images,
                                  lr_initial=lr, lr_final=lr / 10)
        world, encoder, rows = runner.train_from_config(cfg)
        maps[name] = evaluate_retrieval(runner.build_retrieval_set(world, encoder, cfg))[0]
        readout = dataclasses.replace(cfg, distractors=READOUT_DISTRACTORS)
        maps_4000[name] = evaluate_retrieval(runner.build_retrieval_set(world, encoder, readout))[0]
        digests[name] = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return {"seed": seed, "map": maps, "margins": {k: f(maps) for k, f in MARGINS.items()},
            "map_4000": maps_4000, "margins_4000": {k: f(maps_4000) for k, f in MARGINS.items()},
            "digests": digests}


def tightest(rows: list[dict], key: str) -> dict:
    """Per bound, the smallest margin under key and the seed it came from."""
    return {bound: min(({"margin": r[key][bound], "seed": r["seed"]} for r in rows),
                       key=lambda t: t["margin"])
            for bound in MARGINS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-8", help="first-last seed, inclusive (default: 1-8)")
    args = parser.parse_args(argv)
    rows = []
    for seed in parse_seeds(args.seeds):
        rows.append(seed_row(seed))
        print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({"seeds": args.seeds, "tightest": tightest(rows, "margins"),
                      "tightest_4000": tightest(rows, "margins_4000")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
