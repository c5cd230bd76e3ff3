"""The benchmark's tracer (perfbench/tracer.py) looks every traced function
and method up by name and reads some of their arguments and results.
Installing it on the package and tracing a short run fails here when a
traced name is renamed or a traced signature changes."""

import importlib
import importlib.util
import sys
from pathlib import Path

import psearch.runner  # noqa: F401  the tracer wraps only modules already imported
from psearch.dictionaries import HyperParams
from psearch.numerics import make_rng
from psearch.simulator import Schedule, ToyEncoder, generate_world, train

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


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
        train(world, ToyEncoder(16, 8), HyperParams(), Schedule(), "olp+c2hep",
              2, 4, 5, make_rng(0))
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert not any(hasattr(f, "__wrapped__") for f in traced_objects(tracer_mod.LAYERS))
    for layer in ("simulator.sample_image_pair", "simulator.encode",
                  "dictionaries.push", "dictionaries.center_update",
                  "pairing.select_priority_pool", "losses.olp_loss", "losses.c2hep_loss"):
        assert summary[f"{layer}.calls"] >= 5, layer
