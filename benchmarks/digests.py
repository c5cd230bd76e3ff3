"""One digest of a training run, and a ledger of the short-run digests of the
12 acceptance BASE configs.

digest(rows, encoder) is the sha256 of the repr of the full-precision train
rows and the final encoder W and b; count_calls.py, lockstep.py and
seed_table.py all print it. Equal digests from two runs show that training
is bit-identical, which train.csv's 10 digits cannot.

Run without arguments, this script trains the six loss choices at 2 and 8
images/iter on the BASE world of tests/test_acceptance.py (seed 1) for
ITERS iterations at lr 0.08, dropping to 0.008 at iteration 60, and prints
a JSON ledger of their digests together with the numpy version, the BLAS
build's configuration string and the machine. The 100 iterations cover the
learning-rate drop and the dictionary ring's first wrap (near iteration 73
at both widths). tests/test_digests.py recomputes the ledger; a change that
moves training bits on purpose regenerates it:

    OPENBLAS_NUM_THREADS=1 python benchmarks/digests.py > benchmarks/digests.json

The package is imported from this checkout's src/.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("digests.json")
ITERS = 100
LR = 0.08


def digest(rows, encoder) -> str:
    """sha256 of the repr of the train rows and the encoder's final W and b."""
    trained = repr((rows, encoder.W.tolist(), encoder.b.tolist()))
    return hashlib.sha256(trained.encode()).hexdigest()


def configs() -> list[str]:
    """The 12 ledger configs, loss@images_per_iter, in LOSS_CHOICES order."""
    from psearch.simulator import LOSS_CHOICES
    return [f"{loss}@{images}" for loss in LOSS_CHOICES for images in (2, 8)]


def run_digests(names) -> dict:
    """Each named config's short run on the BASE world, and its digest."""
    from psearch import runner
    from test_acceptance import BASE

    out = {}
    for name in names:
        loss, images = name.split("@")
        cfg = dataclasses.replace(BASE, loss_choice=loss, images_per_iter=int(images),
                                  iters=ITERS, lr_initial=LR, lr_final=LR / 10)
        _, encoder, rows = runner.train_from_config(cfg)
        out[name] = digest(rows, encoder)
    return out


def environment() -> dict:
    """What the digests depend on besides the program: numpy, its BLAS, the machine."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("openblas configuration", blas["name"]),
            "machine": platform.machine()}


def main() -> int:
    ledger = {**environment(), "iters": ITERS, "digests": run_digests(configs())}
    print(json.dumps(ledger, indent=1))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())
