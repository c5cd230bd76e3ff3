"""Acceptance gate: one test per exit criterion, each ending in a single
PASS/FAIL line. Criteria 5 and 6 share one synthetic world and reproduce
the qualitative ablation patterns (stagnation remedy, joint-loss
ordering) rather than full-scale dataset numbers."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from psearch.checks import (
    run_gradient_checks,
    run_invariant_checks,
    run_oracle_checks,
)
from psearch.config import ExperimentConfig
from psearch.dictionaries import ClassCenterTable
from psearch.errors import PSearchError
from psearch.losses import c2hep_loss, hep_loss, olp_loss
from psearch.runner import (
    evaluate_config,
    run_ablation,
    run_experiment,
    run_gallery_size_sweep,
    write_eval_csv,
)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


# Shared hard-view world for the training-pattern criteria. High view
# noise plus no extra labeled identities per image (backgrounds and
# unlabeled persons fill the remaining proposals) starves in-batch
# pairwise losses at 2 images per iteration.
BASE = ExperimentConfig(
    seed=1,
    num_identities=200,
    latent_dim=32,
    obs_dim=128,
    sigma_view=2.0,
    sigma_noise=0.5,
    unlabeled_fraction=0.4,
    background_fraction=0.6,
    images_per_iter=2,
    proposals_per_image=4,
    iters=2000,
    query_count=100,
    gallery_per_identity=2,
    distractors=100,
)


@functools.lru_cache(maxsize=None)
def trained_map(loss_choice: str, images_per_iter: int, lr: float) -> float:
    cfg = dataclasses.replace(
        BASE,
        loss_choice=loss_choice,
        images_per_iter=images_per_iter,
        lr_initial=lr,
        lr_final=lr / 10,
    )
    mAP, _, _, _ = evaluate_config(cfg)
    return mAP


def test_criterion_1_gradient_correctness():
    result = run_gradient_checks(trials=100, seed=12345)
    report("1 gradient-correctness", result.passed, result.detail)


def test_criterion_2_closed_form_spot_values():
    failures = []

    res = olp_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), [0],
                   np.array([[0.0, 1.0]]), [1])
    if abs(res.loss - math.log(1 + math.exp(-1))) > 1e-9:
        failures.append(f"olp loss {res.loss}")
    if np.abs(res.anchor_gradients[0]
              - [-0.26894142136999512, 0.26894142136999512]).max() > 1e-8:
        failures.append("olp gradient")

    pool = np.array([0, 1])
    hval, _ = hep_loss(np.array([[2.0, 0.0, 0.0]]), [0], pool)
    if abs(hval - 0.12692801104297250) > 1e-8:
        failures.append(f"hep {hval}")

    table = ClassCenterTable(num_classes=2)
    table.update([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
    cval, _ = c2hep_loss(np.array([[1.0, 0.0]]), [0], pool, table, lam=10.0)
    if abs(cval - math.log(1 + math.exp(-10))) > 1e-12:
        failures.append(f"c2hep {cval}")

    table.update([0], np.array([[0.0, 1.0]]))
    s = math.sqrt(2) / 2
    if np.abs(table.centers[0] - [s, s]).max() > 1e-9:
        failures.append("center update")

    report("2 closed-form-spot-values", not failures, "; ".join(failures))


def test_criterion_3_oracle_equivalence():
    result = run_oracle_checks(max_gallery=6)
    report("3 oracle-equivalence", result.passed, result.detail)


def test_criterion_4_invariant_suites():
    results = run_invariant_checks(trials=1000, seed=777)
    bad = [r.name for r in results if not r.passed]
    report("4 invariant-suites", not bad,
           f"{len(results)} suites x 1000 trials" + (f"; failed {bad}" if bad else ""))


def test_criterion_5_stagnation_reproduction():
    lr = 0.08
    oc2 = trained_map("olp+c2hep", 2, lr)
    oc8 = trained_map("olp+c2hep", 8, lr)
    con2 = trained_map("contrastive", 2, lr)
    con8 = trained_map("contrastive", 8, lr)
    a = oc2 >= 0.9 * oc8
    b = con8 - con2 >= 0.10
    c = oc2 - con2 >= 0.15
    report("5 stagnation-reproduction", a and b and c,
           f"olp+c2hep {oc2:.3f}@2 {oc8:.3f}@8, contrastive {con2:.3f}@2 {con8:.3f}@8")


def test_criterion_6_joint_loss_ordering():
    lr = 0.02
    full = trained_map("olp+c2hep", 2, lr)
    olp_only = trained_map("olp", 2, lr)
    c2_only = trained_map("c2hep", 2, lr)
    tri_hep = trained_map("triplet+hep", 2, lr)
    ok = (full >= olp_only and full >= c2_only and full - tri_hep >= 0.05)
    report("6 joint-loss-ordering", ok,
           f"olp+c2hep {full:.4f}, olp {olp_only:.4f}, "
           f"c2hep {c2_only:.4f}, triplet+hep {tri_hep:.4f}")


SMALL = ExperimentConfig(
    seed=3,
    num_identities=12,
    latent_dim=4,
    obs_dim=16,
    proposals_per_image=4,
    iters=40,
    query_count=8,
    distractors=40,
)


def _csv_well_formed(path: str, expect_rows: int | None = None) -> bool:
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    width = len(lines[0].split(","))
    if any(len(row.split(",")) != width for row in lines[1:]):
        return False
    if expect_rows is not None and len(lines) - 1 != expect_rows:
        return False
    return len(lines) > 1


def test_criterion_7_sweep_harness(tmp_path):
    out = str(tmp_path)
    expected_rows = {
        "dict-size": 3,
        "priority-T": None,
        "loss-weights": 12,
        "input-count": 3,
        "gallery-size": None,
        "loss-choice": 6,
    }
    bad = []
    for kind, rows in expected_rows.items():
        cfg = dataclasses.replace(SMALL, out_dir=out)
        try:
            path = run_ablation(kind, cfg, out_dir=out)
        except PSearchError as exc:
            bad.append(f"{kind}: {exc}")
            continue
        if not _csv_well_formed(path, rows):
            bad.append(kind)
    sweep = run_gallery_size_sweep(dataclasses.replace(SMALL, out_dir=out))
    maps = [r[1] for r in sweep]
    if not all(maps[i] >= maps[i + 1] - 1e-12 for i in range(len(maps) - 1)):
        bad.append("gallery mAP not monotone")
    report("7 sweep-harness", not bad,
           "six ablation kinds + nested gallery sweep" + (f"; {bad}" if bad else ""))


def test_criterion_8_determinism(tmp_path):
    cfg1 = dataclasses.replace(SMALL, out_dir=str(tmp_path / "a"))
    cfg2 = dataclasses.replace(SMALL, out_dir=str(tmp_path / "a"))
    run_experiment(cfg1)
    first = {
        name: (tmp_path / "a" / name).read_bytes()
        for name in ("train.csv", "eval.csv")
    }
    run_experiment(cfg2)
    same_run = all((tmp_path / "a" / n).read_bytes() == first[n] for n in first)

    rows1 = run_gallery_size_sweep(dataclasses.replace(SMALL))
    rows2 = run_gallery_size_sweep(dataclasses.replace(SMALL))
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_eval_csv(str(p1), rows1)
    write_eval_csv(str(p2), rows2)
    same_sweep = p1.read_bytes() == p2.read_bytes()

    report("8 determinism", same_run and same_sweep,
           "byte-identical CSVs across reruns")
