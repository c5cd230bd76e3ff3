"""Tests of the benchmark itself: span arithmetic, tracer transparency,
metric names, output checks, turn-taking between the two sides of a pair,
and a reduced-size smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import psearch.losses  # noqa: E402
import psearch.simulator  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wk  # noqa: E402
from psearch.config import ExperimentConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = ExperimentConfig(
    num_identities=12, latent_dim=4, obs_dim=16, proposals_per_image=4,
    query_count=8, gallery_per_identity=2, distractors=10,
)


def small(wl: wk.Workload) -> wk.Workload:
    """The workload shrunk to a few iterations and a 46-item gallery at most."""
    if wl.sweep:
        return dataclasses.replace(wl, iters=20, distractors=30, sweep=(16, 30, 46))
    return dataclasses.replace(wl, iters=20, retrieval_passes=2)


@pytest.fixture
def small_world(monkeypatch):
    monkeypatch.setattr(wk, "BASE", SMALL)
    monkeypatch.setattr(wk, "MIN_STEP_SAMPLES", 40)


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("b", 6.0, 8.0, 0),
    ]
    assert tr.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 4.0, 0),
        ("y", 3.0, 6.0, 0),   # overlaps x: the union [1, 6] is covered once
        ("z", 9.0, 12.0, 0),  # overhangs the parent: only [9, 10] counts
    ]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_aggregates_calls_self_ms_and_ratios():
    t = tr.Tracer()
    t.spans = [
        ("simulator.train", 0.0, 1.0, -1),
        ("numerics.l2_normalize", 0.1, 0.2, 0),
        ("numerics.l2_normalize", 0.3, 0.5, 0),
    ]
    t.counters.update({"numerics.l2_normalize.unit_inputs": 1,
                       "pairing.hard_ranked_len": 40, "pairing.hard_ranked_read": 10})
    out = t.summary()
    assert out["simulator.train.self_ms"] == pytest.approx(700.0)
    assert out["numerics.l2_normalize.calls"] == 2
    assert out["numerics.l2_normalize.ms"] == pytest.approx(300.0)
    assert out["numerics.l2_normalize.unit_input_share"] == pytest.approx(0.5)
    assert out["pairing.hard_ranked.used_share"] == pytest.approx(0.25)
    assert list(out) == tr.layer_metric_names()


def test_names_are_well_formed_and_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(wk.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == tr.layer_metric_names() + ["trace.overhead_share"]


@pytest.mark.parametrize("name", ["train-olp-c2hep-8", "train-triplet-hep-2"])
def test_tracer_is_transparent(small_world, name):
    wl = small(wk.WORKLOADS[name])
    setup = wk.set_up(wl, wl.config(5))
    plain = wk.run_rep(wl, setup)
    originals = (psearch.simulator.l2_normalize, psearch.losses.softmax)
    t = tr.Tracer()
    t.install()
    try:
        traced = wk.run_rep(wl, setup)
        # names imported with ``from .numerics import ...`` are patched too
        patched = (psearch.simulator.l2_normalize, psearch.losses.softmax)
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        t.uninstall()
    assert (psearch.simulator.l2_normalize, psearch.losses.softmax) == originals
    assert wk.rows_digest(traced.train_rows) == wk.rows_digest(plain.train_rows)
    assert wk.rows_digest(traced.retrievals[0].rows) == wk.rows_digest(plain.retrievals[0].rows)
    summary = t.summary()
    assert summary["numerics.l2_normalize.calls"] > 0
    assert summary["simulator.encode.calls"] > 0
    assert wk.check_rep(traced, plain, wl, setup) == []


def test_checks_catch_changed_rows_and_bad_map(small_world):
    wl = small(wk.WORKLOADS["train-triplet-hep-2"])
    setup = wk.set_up(wl, wl.config(2))
    first = wk.run_rep(wl, setup)
    again = wk.run_rep(wl, setup)
    assert wk.check_rep(again, first, wl, setup) == []
    again.train_rows[3] = (3, math.nan) + again.train_rows[3][2:]
    again.retrievals[0].map = 1.5
    problems = wk.check_rep(again, first, wl, setup)
    assert any("non-finite" in p for p in problems)
    assert any("outside [0, 1]" in p for p in problems)
    assert any("differ from the first" in p for p in problems)


@pytest.mark.parametrize("name", list(wk.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_of_each_workload(small_world, name, trace):
    outcome = wk.run_workload(small(wk.WORKLOADS[name]), seed=3, seconds=0.2, trace=trace)
    assert outcome.failed == 0 and outcome.problems == []
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(outcome.metrics) == [m["name"] for m in section]
    for m in section:
        value, unit = outcome.metrics[m["name"]]
        assert unit == m["unit"] and math.isfinite(value)
        if not trace:
            assert value > 0
    if trace and name == "train-triplet-hep-2":
        for key in ("dictionaries.negatives.calls", "losses.olp_loss.calls"):
            assert outcome.metrics[key][0] == 0
    if not trace:
        assert outcome.info["baseline_rows_match"] is True


def test_baton_alternates_two_processes():
    """Each side writes its index before every hand-over; the log must
    alternate, and the side that finishes first lets the other run on."""
    to_b, to_a = os.pipe(), os.pipe()
    log_r, log_w = os.pipe()
    code = ("import os, sys, workloads as wk\n"
            "me, n, r, w, log = (int(a) for a in sys.argv[1:6])\n"
            "b = wk.Baton(r, w)\n"
            "if me == 1: b.wait()\n"
            "for _ in range(n):\n"
            "    os.write(log, str(me).encode()); b.give_way()\n"
            "b.finish()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    sides = [(0, 3, to_a[0], to_b[1]), (1, 5, to_b[0], to_a[1])]
    procs = [subprocess.Popen([sys.executable, "-c", code, *map(str, (*side, log_w))],
                              pass_fds=(side[2], side[3], log_w), env=env)
             for side in sides]
    for fd in (*to_a, *to_b, log_w):
        os.close(fd)
    assert [p.wait(timeout=60) for p in procs] == [0, 0]
    with os.fdopen(log_r) as fh:
        assert fh.read() == "01010111"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-gallery-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
