"""The benchmark's tracer (perfbench/tracer.py) looks every traced function
and method up by name and reads some of their arguments and results.
Installing it on the package and tracing a short run fails here when a
traced name is renamed or a traced signature changes. Its workloads
(perfbench/workloads.py) read each retrieval set's records as (feature, id)
pairs; a retrieval pass through them fails here when that reading breaks."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import psearch.runner  # noqa: F401  the tracer wraps only modules already imported
from psearch.config import ExperimentConfig
from psearch.dictionaries import HyperParams
from psearch.evaluation import evaluate_retrieval
from psearch.numerics import make_rng
from psearch.runner import build_retrieval_set
from psearch.simulator import SAMPLE_BLOCK, Schedule, ToyEncoder, generate_world, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as module perfbench_<name>, read without writing
    a bytecode cache there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_tracer(monkeypatch):
    return load_perfbench(monkeypatch, "tracer")


def traced_objects(layers):
    """Each layer's function, or its method as stored on the class; the
    tracer's wrappers carry __wrapped__."""
    out = []
    for layer in layers:
        home = importlib.import_module(layer.module)
        if "." in layer.attr:
            cls_name, meth = layer.attr.split(".")
            out.append(getattr(home, cls_name).__dict__[meth])
        else:
            out.append(getattr(home, layer.attr))
    return out


def test_tracer_installs_traces_a_run_and_uninstalls(monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # KeyError or AttributeError on a renamed layer
        assert all(hasattr(f, "__wrapped__") for f in traced_objects(tracer_mod.LAYERS))
        world = generate_world(10, latent_dim=4, obs_dim=16, seed=0)
        for loss_choice in ("olp+c2hep", "triplet+hep"):  # perfbench's two training losses
            train(world, ToyEncoder(16, 8), HyperParams(), Schedule(), loss_choice,
                  2, 4, 5, make_rng(0))
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert not any(hasattr(f, "__wrapped__") for f in traced_objects(tracer_mod.LAYERS))
    # one sampler call per SAMPLE_BLOCK iterations of each 5-iteration run, the last one cut
    assert summary["simulator.sample_image_pair.calls"] == 2 * math.ceil(5 / SAMPLE_BLOCK)
    for layer in ("simulator.encode", "dictionaries.push", "dictionaries.center_update",
                  "pairing.select_priority_pool", "losses.olp_loss", "losses.c2hep_loss",
                  "losses.hep_loss", "losses.triplet_loss", "simulator.head_scores",
                  "simulator.head_backward"):
        assert summary[f"{layer}.calls"] >= 5, layer


def test_workloads_read_retrieval_sets_as_pairs(monkeypatch):
    """The benchmark's retrieval pass and its independent mAP, run on a small
    world: reference_map reads the records as (feature, id) pairs and agrees
    with evaluate_retrieval, and the query count is the configured one."""
    monkeypatch.setitem(sys.modules, "tracer", load_tracer(monkeypatch))  # workloads imports it
    workloads = load_perfbench(monkeypatch, "workloads")
    cfg = ExperimentConfig(seed=3, num_identities=10, latent_dim=4, obs_dim=16,
                           query_count=6, distractors=20)
    world = generate_world(10, latent_dim=4, obs_dim=16, seed=3)
    encoder = ToyEncoder(16, 8, seed=3)
    rset = build_retrieval_set(world, encoder, cfg)
    assert len(rset.queries) == 6
    assert abs(workloads.reference_map(rset) - evaluate_retrieval(rset)[0]) <= 1e-12

    wl = workloads.Workload("small", loss="olp+c2hep", images=2, lr=0.08, iters=1,
                            distractors=20, sweep=(12, 32))
    got = workloads.retrieve(wl, workloads.Setup(workloads.PROGRAM, cfg, world), encoder)
    assert [row[0] for row in got.rows] == [32, 12, 32]
    assert got.queries == 6 * len(got.rows)
    assert abs(got.map - got.reference_map) <= 1e-12
