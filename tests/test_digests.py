"""The digest ledger: the short-run digests of the 12 acceptance BASE configs,
recorded in benchmarks/digests.json, recomputed at one and two BLAS threads.

A change that moves training bits fails here, where no acceptance bound
would notice. A change that moves them on purpose regenerates the ledger
(benchmarks/digests.py says how)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import digests  # noqa: E402

LEDGER = json.loads(digests.LEDGER.read_text())
OLP_AT_8 = ["olp+c2hep@8", "olp+hep@8", "olp@8"]


def recorded_environment() -> None:
    """Skip, naming the field, when numpy, its BLAS or the machine differ from the ledger's."""
    for field, value in digests.environment().items():
        if LEDGER[field] != value:
            pytest.skip(f"ledger recorded under another {field}: {LEDGER[field]!r}, not {value!r}")


def ledger_run(threads: int, names: list[str]) -> dict:
    """The digests of the named configs, trained in a fresh interpreter
    with OPENBLAS_NUM_THREADS=threads."""
    code = "import json, sys, digests; print(json.dumps(digests.run_digests(sys.argv[1:])))"
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "benchmarks"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, *names], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_training_repeats_the_ledger_digests():
    recorded_environment()
    assert ledger_run(1, digests.configs()) == LEDGER["digests"]


def test_two_blas_threads_repeat_the_olp_digests_at_8_images():
    """The README's claim: one and two BLAS threads train the same bits.
    At 8 images/iter an OLP step scores the largest ring products."""
    recorded_environment()
    assert ledger_run(2, OLP_AT_8) == {name: LEDGER["digests"][name] for name in OLP_AT_8}
