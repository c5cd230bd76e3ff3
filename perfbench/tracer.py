"""Outside-in tracer: wraps public psearch functions from outside the package.

Nothing under ``src/`` changes. Each wrapped call records one span
``(name, start, end, parent)`` in memory; counters are updated at the same
boundaries. Self time is a span's duration minus the part of it that its
child spans cover.

Names imported with ``from .x import f`` are bound in several module
namespaces, so ``install`` replaces the function object wherever a
``psearch`` module holds it, not only in the module that defines it.
Methods are replaced on their class, which every instance sees.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

UNIT_NORM_TOL = 1e-9
FLOAT64_BYTES = 8


def _count_unit_input(counters, args, kwargs, result):
    v = np.asarray(args[0], dtype=np.float64)
    counters["numerics.l2_normalize.unit_inputs"] += abs(float(np.sqrt(v @ v)) - 1.0) <= UNIT_NORM_TOL


def _count_negatives(counters, args, kwargs, result):
    feats, _ = result
    rows = int(feats.shape[0])
    counters["dictionaries.negatives.rows"] += rows
    if rows:
        counters["dictionaries.negatives.bytes_copied"] += rows * int(feats.shape[1]) * FLOAT64_BYTES


def _count_subgroups(counters, args, kwargs, result):
    counters["pairing.subgroups"] += len(result)


def _count_pool_consumption(counters, args, kwargs, result):
    """Labels ranked, and how many of them the pool loop read before it stopped.

    Mirrors the loop in ``select_priority_pool``: it reads ranked labels until
    it has taken ``top_negatives`` of them or the pool reached its target.
    """
    gt, ranked, pool_size, top_negatives, num_classes = args[:5]
    extra = args[6] if len(args) > 6 else kwargs.get("extra_labels", frozenset())
    pool = set(gt) | set(extra)
    target = min(pool_size, num_classes + len(extra))
    taken = read = 0
    for lab in ranked:
        if taken >= top_negatives or len(pool) >= target:
            break
        read += 1
        if lab < 0 or lab in pool:
            continue
        pool.add(lab)
        taken += 1
    counters["pairing.hard_ranked_len"] += len(ranked)
    counters["pairing.hard_ranked_read"] += read


def _count_pairs_scored(counters, args, kwargs, result):
    counters["evaluation.pairs_scored"] += len(args[1])


@dataclass(frozen=True)
class Layer:
    """One wrapped public function: metric prefix, defining module, attribute
    path (``Class.method`` for methods), and whether it is a container whose
    only reported time is self time."""

    name: str
    module: str
    attr: str
    container: bool = False
    count: Optional[Callable] = None


LAYERS = (
    Layer("simulator.train", "psearch.simulator", "train", container=True),
    Layer("simulator.sample_image_pair", "psearch.simulator", "sample_image_pair"),
    Layer("simulator.encode", "psearch.simulator", "ToyEncoder.encode"),
    Layer("simulator.encoder_backward", "psearch.simulator", "ToyEncoder.backward"),
    Layer("simulator.head_scores", "psearch.simulator", "ClassifierHead.scores"),
    Layer("simulator.head_backward", "psearch.simulator", "ClassifierHead.backward"),
    Layer("dictionaries.push", "psearch.dictionaries", "FeatureDictionary.push"),
    Layer("dictionaries.negatives", "psearch.dictionaries", "FeatureDictionary.negatives",
          count=_count_negatives),
    Layer("dictionaries.center_update", "psearch.dictionaries", "ClassCenterTable.update"),
    Layer("pairing.build_subgroups", "psearch.pairing", "build_subgroups",
          count=_count_subgroups),
    Layer("pairing.select_priority_pool", "psearch.pairing", "select_priority_pool",
          count=_count_pool_consumption),
    Layer("losses.olp_loss", "psearch.losses", "olp_loss"),
    Layer("losses.c2hep_loss", "psearch.losses", "c2hep_loss"),
    Layer("losses.hep_loss", "psearch.losses", "hep_loss"),
    Layer("losses.triplet_loss", "psearch.losses", "triplet_loss"),
    Layer("numerics.l2_normalize", "psearch.numerics", "l2_normalize",
          count=_count_unit_input),
    Layer("numerics.softmax", "psearch.numerics", "softmax"),
    Layer("evaluation.rank_gallery", "psearch.evaluation", "rank_gallery",
          count=_count_pairs_scored),
    Layer("evaluation.average_precision", "psearch.evaluation", "average_precision"),
    Layer("evaluation.cmc_topk", "psearch.evaluation", "cmc_topk"),
    Layer("evaluation.evaluate_retrieval", "psearch.evaluation", "evaluate_retrieval",
          container=True),
    Layer("evaluation.gallery_sweep", "psearch.evaluation", "gallery_sweep", container=True),
    Layer("runner.build_retrieval_set", "psearch.runner", "build_retrieval_set",
          container=True),
)


def layer_metric_names() -> list[str]:
    """Every metric ``summary`` reports, in a stable order."""
    names = []
    for layer in LAYERS:
        if layer.container:
            names.append(f"{layer.name}.self_ms")
        else:
            names += [f"{layer.name}.calls", f"{layer.name}.ms"]
    names += [
        "dictionaries.negatives.rows",
        "dictionaries.negatives.bytes_copied",
        "pairing.subgroups",
        "pairing.hard_ranked_len",
        "pairing.hard_ranked.used_share",
        "numerics.l2_normalize.unit_input_share",
        "evaluation.pairs_scored",
    ]
    return names


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the parent."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is not None and cs <= run_end:
                run_end = max(run_end, ce)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = cs, ce
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while installed; ``reset`` starts a new
    repetition, ``summary`` reduces the current one to per-layer metrics."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self._stack.clear()

    def _wrap(self, layer: Layer, fn):
        stack = self._stack
        clock = time.perf_counter
        name = layer.name
        count = layer.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every layer function where psearch modules look it up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "psearch" or n.startswith("psearch."))]
        for layer in LAYERS:
            home = importlib.import_module(layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._undo.append((owner, meth, original))
                setattr(owner, meth, self._wrap(layer, original))
                continue
            original = getattr(home, layer.attr)
            traced = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self ms and counter-derived ratios for the
        spans recorded since the last reset."""
        selfs = self_times(self.spans)
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for (name, _, _, _), st in zip(self.spans, selfs):
            calls[name] += 1
            self_ms[name] += st * 1e3
        out: dict[str, float] = {}
        for layer in LAYERS:
            if layer.container:
                out[f"{layer.name}.self_ms"] = self_ms[layer.name]
            else:
                out[f"{layer.name}.calls"] = calls[layer.name]
                out[f"{layer.name}.ms"] = self_ms[layer.name]
        c = self.counters
        for key in ("dictionaries.negatives.rows", "dictionaries.negatives.bytes_copied",
                    "pairing.subgroups", "pairing.hard_ranked_len", "evaluation.pairs_scored"):
            out[key] = c[key]
        ranked = c["pairing.hard_ranked_len"]
        out["pairing.hard_ranked.used_share"] = c["pairing.hard_ranked_read"] / ranked if ranked else 0.0
        n_norm = calls["numerics.l2_normalize"]
        out["numerics.l2_normalize.unit_input_share"] = (
            c["numerics.l2_normalize.unit_inputs"] / n_norm if n_norm else 0.0)
        return {name: out[name] for name in layer_metric_names()}

    def write_spans(self, path) -> None:
        """One JSON line per span of the current repetition:
        index, name, start and end in seconds, parent index (-1 for a root)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")
