"""Workload definitions and the measured repetition loop.

Every workload uses the acceptance ``BASE`` world of
``tests/test_acceptance.py`` (200 identities, obs_dim 128, 4 proposals per
image, view sigma 2.0). The workload seed becomes the config seed; the
program sees only the generated config. The program is driven through its
public entry points only: ``generate_world``, ``ToyEncoder``, ``train``,
``build_retrieval_set``, ``evaluate_retrieval`` and ``gallery_sweep``, each
looked up on its module at call time so the tracer's wrappers are seen.

Timings are paired. ``baseline/psearch_baseline`` is a frozen copy of the
program's modules as they were when the benchmark was defined. Each timed
repetition of the program runs in lockstep with one of the baseline on the
same inputs, each in its own process (``Pair``, ``side.py``), and the
end-to-end timing metrics are the baseline's time over the program's (a
speed-up; 1 when they are the same code). The machine's slow phases, which
last minutes and move raw timings by a third, hit both sides of a pair alike
and cancel. Raw times of both sides are reported as ``info``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import psearch
from psearch.config import ExperimentConfig

from tracer import Tracer

BASELINE_DIR = Path(__file__).resolve().parent / "baseline"
BASELINE_PACKAGE = "psearch_baseline"
SIDE_SCRIPT = Path(__file__).resolve().parent / "side.py"

BASE = ExperimentConfig(
    num_identities=200,
    latent_dim=32,
    obs_dim=128,
    sigma_view=2.0,
    sigma_noise=0.5,
    unlabeled_fraction=0.4,
    background_fraction=0.6,
    proposals_per_image=4,
    query_count=100,
    gallery_per_identity=2,
    distractors=100,
)

MIN_PAIRS = 2
MIN_STEP_SAMPLES = 500  # per side: p98 then has at least ten samples beyond it
TAIL_PERCENTILE = 98
IMPORT_REPS = 9
MAX_FAILED = 3  # stop measuring a seed whose repetitions keep failing
IMPORT_TIMEOUT_S = 60
SIDE_STOP_TIMEOUT_S = 30


class Program:
    """One copy of the program: the checkout's ``psearch`` or the frozen
    baseline. Modules are held, not functions, so calls see the tracer."""

    def __init__(self, package: str):
        self.package = package
        mod = lambda name: importlib.import_module(f"{package}.{name}")  # noqa: E731
        self.simulator = mod("simulator")
        self.runner = mod("runner")
        self.evaluation = mod("evaluation")
        self.numerics = mod("numerics")
        self.config_cls = mod("config").ExperimentConfig
        self.error_cls = mod("errors").PSearchError
        self.schedule_cls = stamped(self.simulator.Schedule)

    def config(self, cfg) -> object:
        """``cfg`` as this copy's config type, fields it does not know dropped."""
        if isinstance(cfg, self.config_cls):
            return cfg
        return self.config_cls(**{f.name: getattr(cfg, f.name)
                                  for f in dataclasses.fields(self.config_cls)})


def stamped(schedule_cls):
    """Subclass of ``schedule_cls`` whose ``lr_at``, which ``train`` calls once
    at the start of every iteration, reads the clock. With a ``Baton`` it
    also lets the other side of a pair run one iteration before this one
    goes on; only the time this side runs is counted."""

    class StampedSchedule(schedule_cls):
        def __init__(self, *args, turn: Baton | None = None, **kwargs):
            super().__init__(*args, **kwargs)
            self.turn = turn
            self.steps_ms: list[float] = []
            self.busy_s = 0.0
            self._resumed = time.perf_counter()

        def start(self) -> None:
            self._resumed = time.perf_counter()

        def stop(self, end_of_step: bool = True) -> None:
            span = time.perf_counter() - self._resumed
            self.busy_s += span
            if end_of_step:
                self.steps_ms.append(span * 1e3)

        def lr_at(self, iteration: int, total_iters: int) -> float:
            self.stop(end_of_step=iteration > 0)
            if self.turn is not None:
                self.turn.give_way()
            self.start()
            return super().lr_at(iteration, total_iters)

    return StampedSchedule


class Baton:
    """Turn-taking between the two processes of a pair over a pipe each
    way: one side runs while the other blocks reading. ``T`` hands over the
    turn; ``D`` (or end of file) says the sender has finished the pair, and
    from then on the receiver runs without stopping."""

    def __init__(self, read_fd: int, write_fd: int):
        self.read_fd, self.write_fd = read_fd, write_fd
        self.other_done = False

    def reset(self) -> None:
        self.other_done = False

    def wait(self) -> None:
        if not self.other_done and os.read(self.read_fd, 1) in (b"D", b""):
            self.other_done = True

    def give_way(self) -> None:
        if not self.other_done:
            os.write(self.write_fd, b"T")
            self.wait()

    def finish(self) -> None:
        if not self.other_done:
            os.write(self.write_fd, b"D")


PROGRAM = Program("psearch")
_baseline: list[Program] = []


def baseline() -> Program:
    """The frozen baseline, imported on first use."""
    if not _baseline:
        sys.path.insert(0, str(BASELINE_DIR))
        _baseline.append(Program(BASELINE_PACKAGE))
    return _baseline[0]


@dataclass(frozen=True)
class Workload:
    """``loss``/``images``/``lr``/``iters`` configure the training run;
    ``timed_train`` says whether it is the measured part (else it is set-up);
    ``distractors`` and ``sweep`` size the retrieval part, which is always
    measured, ``retrieval_passes`` times per repetition. A 300-item gallery
    evaluates in tens of milliseconds, so training workloads repeat it to
    give ``eval_speedup`` enough work. Why each workload exists is in
    BENCHMARK.json and perfbench/README.md."""

    name: str
    loss: str
    images: int
    lr: float
    iters: int
    timed_train: bool = True
    distractors: int = 100
    sweep: tuple[int, ...] = ()
    retrieval_passes: int = 1

    def config(self, seed: int) -> ExperimentConfig:
        cfg = dataclasses.replace(
            BASE, seed=seed, loss_choice=self.loss, images_per_iter=self.images,
            lr_initial=self.lr, lr_final=self.lr / 10, iters=self.iters,
            distractors=self.distractors,
        )
        cfg.validate()
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-olp-c2hep-8",
        loss="olp+c2hep", images=8, lr=0.08, iters=250, retrieval_passes=10,
    ),
    Workload(
        "train-triplet-hep-2",
        loss="triplet+hep", images=2, lr=0.02, iters=2000, retrieval_passes=10,
    ),
    Workload(
        "eval-gallery-4k",
        loss="olp+c2hep", images=2, lr=0.08, iters=400,
        timed_train=False, distractors=3800, sweep=(200, 1000, 4000),
    ),
)}


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def rows_digest(rows) -> str:
    """Hash of rows written with full float precision, so equal digests mean
    byte-identical rows."""
    text = "\n".join(",".join(_fmt(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_map(rset) -> float:
    """mAP recomputed independently of ``psearch.evaluation``: one
    similarity matrix, a stable descending sort per query, and AP from the
    cumulative hit count. Queries without a relevant item are skipped."""
    q = np.stack([f for f, _ in rset.queries])
    g = np.stack([f for f, _ in rset.gallery])
    qids = np.array([i for _, i in rset.queries])
    gids = np.array([i for _, i in rset.gallery])
    aps = []
    for row, qid in zip(q @ g.T, qids):
        rel = gids[np.argsort(-row, kind="stable")] == qid
        n_rel = int(rel.sum())
        if n_rel == 0:
            continue
        hits = np.cumsum(rel)
        ranks = np.arange(1, rel.size + 1)
        aps.append(float(np.sum(hits[rel] / ranks[rel]) / n_rel))
    return float(np.mean(aps))


@dataclass
class Setup:
    prog: Program
    cfg: object
    world: object
    seconds: float = 0.0
    encoder: object = None  # trained encoder when training is set-up
    train_s: float = 0.0
    steps_ms: list[float] = field(default_factory=list)
    train_rows: list = field(default_factory=list)


def _train(prog: Program, cfg, world, turn: Baton | None = None):
    """One training run from a fresh encoder; returns (encoder, rows, busy s,
    per-iteration ms)."""
    encoder = prog.simulator.ToyEncoder(cfg.obs_dim, seed=cfg.seed)
    schedule = prog.schedule_cls(cfg.lr_initial, cfg.lr_final, cfg.lr_drop_frac, turn=turn)
    rng = prog.numerics.make_rng(cfg.seed)
    hp = prog.runner.hyperparams_from_config(cfg)
    schedule.start()
    encoder, rows = prog.simulator.train(
        world, encoder, hp, schedule, cfg.loss_choice, cfg.images_per_iter,
        cfg.proposals_per_image, cfg.iters, rng, dict_multiplier=cfg.dict_multiplier,
    )
    schedule.stop()
    return encoder, rows, schedule.busy_s, schedule.steps_ms


def set_up(wl: Workload, cfg: ExperimentConfig, prog: Program = PROGRAM,
           turn: Baton | None = None) -> Setup:
    """World (and, when training is not timed, the trained encoder) for
    ``cfg``, a config of ``wl``; ``seconds`` is the time this side ran."""
    cfg = prog.config(cfg)
    t0 = time.perf_counter()
    world = prog.simulator.generate_world(
        cfg.num_identities, latent_dim=cfg.latent_dim, obs_dim=cfg.obs_dim,
        sigma_view=cfg.sigma_view, sigma_noise=cfg.sigma_noise,
        unlabeled_fraction=cfg.unlabeled_fraction,
        background_fraction=cfg.background_fraction, seed=cfg.seed,
    )
    setup = Setup(prog, cfg, world, seconds=time.perf_counter() - t0)
    if not wl.timed_train:
        setup.encoder, rows, setup.train_s, setup.steps_ms = _train(prog, cfg, world, turn)
        setup.train_rows = [dataclasses.astuple(r) for r in rows]
        setup.seconds += setup.train_s
    return setup


@dataclass
class Retrieval:
    """One timed pass: build the retrieval set, evaluate the full gallery,
    and sweep gallery sizes when the workload asks for it."""

    seconds: float
    queries: int
    rows: list
    map: float
    reference_map: float


def retrieve(wl: Workload, setup: Setup, encoder, turn: Baton | None = None) -> Retrieval:
    """Build the retrieval set, evaluate it, and sweep gallery sizes when the
    workload asks for it; with ``turn``, the other side runs between these
    calls. ``seconds`` counts this side's calls only."""
    prog, cfg = setup.prog, setup.cfg
    clock = time.perf_counter

    def hand_over(since: float) -> float:
        spent = clock() - since
        if turn is not None:
            turn.give_way()
        return spent

    t0 = clock()
    rset = prog.runner.build_retrieval_set(setup.world, encoder, cfg)
    seconds = hand_over(t0)
    t0 = clock()
    mAP, cmc = prog.evaluation.evaluate_retrieval(rset)
    rows = [(len(rset.gallery), mAP, cmc[1], cmc[5], cmc[10])]
    if wl.sweep:
        seconds += hand_over(t0)
        t0 = clock()
        sweep_rng = prog.numerics.make_rng(cfg.seed + 2 * prog.runner.EVAL_SEED_OFFSET)
        rows += prog.evaluation.gallery_sweep(rset, list(wl.sweep), sweep_rng)
    seconds += clock() - t0
    return Retrieval(seconds, len(rset.queries) * len(rows), rows, mAP, reference_map(rset))


@dataclass
class Rep:
    """One measured repetition: timings plus what the checks compare."""

    wall_s: float
    retrievals: list[Retrieval]
    train_s: float = 0.0
    steps_ms: list[float] = field(default_factory=list)
    train_rows: list = field(default_factory=list)

    @property
    def retrieval_s(self) -> float:
        return sum(r.seconds for r in self.retrievals)


def run_rep(wl: Workload, setup: Setup, turn: Baton | None = None) -> Rep:
    """One repetition: training (when it is timed), then
    ``wl.retrieval_passes`` retrieval passes, handing ``turn`` to the other
    side between passes. Set-up state is only read, so every repetition of
    a seed does identical work. ``wall_s`` is the time this side ran."""
    train_s, steps, train_rows = 0.0, [], []
    encoder = setup.encoder
    if wl.timed_train:
        encoder, rows, train_s, steps = _train(setup.prog, setup.cfg, setup.world, turn)
        train_rows = [dataclasses.astuple(r) for r in rows]
    retrievals = []
    for j in range(wl.retrieval_passes):
        if turn is not None and (j > 0 or wl.timed_train):
            turn.give_way()
        retrievals.append(retrieve(wl, setup, encoder, turn))
    wall_s = train_s + sum(r.seconds for r in retrievals)
    return Rep(wall_s, retrievals, train_s, steps, train_rows)


def check_rep(rep: Rep, first: Rep | None, wl: Workload, setup: Setup) -> list[str]:
    """Output checks; an empty list means the repetition is correct."""
    problems = []
    rows = rep.train_rows or setup.train_rows
    if len(rows) != setup.cfg.iters:
        problems.append(f"{len(rows)} train rows, expected {setup.cfg.iters}")
    if not all(math.isfinite(v) for r in rows for v in r[1:4]):
        problems.append("non-finite loss in train log")
    ret = rep.retrievals[0]
    if not 0.0 <= ret.map <= 1.0:
        problems.append(f"map {ret.map} outside [0, 1]")
    if abs(ret.map - ret.reference_map) > 1e-12:
        problems.append(f"map {ret.map} != reference {ret.reference_map}")
    if wl.sweep:
        sweep_maps = [r[1] for r in ret.rows[1:]]
        if sweep_maps[-1] != ret.map:
            problems.append("full-size sweep row differs from full-gallery mAP")
        if any(b > a + 1e-12 for a, b in zip(sweep_maps, sweep_maps[1:])):
            problems.append("sweep mAP rises with gallery size")
    if any(rows_digest(r.rows) != rows_digest(ret.rows) for r in rep.retrievals[1:]):
        problems.append("eval rows differ between retrieval passes")
    if first is not None:
        if rows_digest(rep.train_rows) != rows_digest(first.train_rows):
            problems.append("train rows differ from the first repetition")
        if rows_digest(ret.rows) != rows_digest(first.retrievals[0].rows):
            problems.append("eval rows differ from the first repetition")
    return problems


def _quantile(xs, q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    first: Rep | None = None  # every later repetition must reproduce its rows
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def attempt(wl: Workload, setup: Setup, first: Rep | None,
            turn: Baton | None = None) -> tuple[Rep | None, list[str]]:
    """One repetition and its checks; the rep is None when it raised."""
    try:
        rep = run_rep(wl, setup, turn)
    except setup.prog.error_cls as exc:
        return None, [f"{type(exc).__name__}: {exc}"]
    return rep, check_rep(rep, first, wl, setup)


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU: the two
    sides of a pair then share one core's speed, and only one of them is
    ever runnable, so they never compete."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env() -> dict:
    paths = [str(Path(psearch.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import numpy and the
    program, the part of set-up that one process cannot repeat.

    The child reads the clock itself once its imports are done: waiting on
    it with a timeout would poll in 50 ms steps. ``perf_counter`` is
    CLOCK_MONOTONIC on Linux, one clock for every process."""
    code = "import time, workloads; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                          capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
    return float(proc.stdout) - t0


class Pair:
    """The two processes of a timed pair, each running ``side.py``: index 0
    the program, index 1 the baseline. They start alike (same arguments but
    the index, same hash seed) and both import both packages, so that their
    memory layouts differ only by what they run. Use as a context manager:
    on leaving, both are told to stop and are waited for (killed if they
    do not stop in time)."""

    PACKAGES = ("psearch", BASELINE_PACKAGE)

    def __init__(self, wl: Workload, cfg: ExperimentConfig):
        self.init = {"cmd": "init", "workload": dataclasses.asdict(wl),
                     "cfg": dataclasses.asdict(cfg)}
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> Pair:
        to_base, to_prog = os.pipe(), os.pipe()
        ends = [(to_prog[0], to_base[1]), (to_base[0], to_prog[1])]
        try:
            for i, fds in enumerate(ends):
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(SIDE_SCRIPT), str(i), *map(str, fds)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                    pass_fds=fds, env=dict(_child_env(), PYTHONHASHSEED="0")))
        except BaseException:
            self.__exit__()
            raise
        finally:
            for fd in (*to_base, *to_prog):
                os.close(fd)
        for i in (0, 1):
            self.send(i, self.init)
        for i in (0, 1):
            self.receive(i)
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=SIDE_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def send(self, i: int, msg: dict) -> None:
        self.procs[i].stdin.write(json.dumps(msg) + "\n")
        self.procs[i].stdin.flush()

    def receive(self, i: int) -> dict:
        line = self.procs[i].stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.PACKAGES[i]} side exited early")
        return json.loads(line)

    def run(self, k: int) -> list[dict]:
        """One pair; the program goes first when ``k`` is even (ABBA order,
        so a steady drift of the machine's speed favours neither side)."""
        for i in (0, 1):
            self.send(i, {"cmd": "pair", "first": (i == 0) == (k % 2 == 0)})
        return [self.receive(i) for i in (0, 1)]


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 spans_path=None) -> Outcome:
    """Set up, measure for about ``seconds``, check every repetition, and
    reduce to end-to-end metrics (``trace`` false) or per-layer metrics
    (true, in this process, program only).

    Untraced, the program and the baseline each run in a process of their
    own (``Pair``), pinned with this one to one CPU. Until ``seconds`` have
    passed and there are ``MIN_PAIRS`` pairs and ``MIN_STEP_SAMPLES`` steps
    a side, they set up afresh and run one repetition each in lockstep: one
    iteration of one side, then one of the other, and likewise for set-up
    and retrieval passes (``side.py``). Each speed-up is the median over
    pairs of baseline / program, of training time, median step and
    retrieval time; the tail one pools every step of each side. Training is
    the timed repetition's, or on a workload that trains in set-up, the
    set-up's. ``setup_s`` is the median fresh-interpreter import plus the
    median program set-up; ``peak_rss_mb`` is the program process's."""
    outcome = Outcome()
    pin_to_one_cpu()
    cfg = wl.config(seed)
    if trace:
        _per_layer(wl, set_up(wl, cfg), seconds, outcome, spans_path)
        return outcome

    def count(replies: list[dict]) -> bool:
        for package, reply in zip(Pair.PACKAGES, replies):
            outcome.attempted += 1
            outcome.failed += bool(reply["problems"])
            outcome.problems += [f"{package}: {p}" for p in reply["problems"]]
        return not any(r["problems"] for r in replies)

    pairs: list[list[dict]] = []
    with Pair(wl, cfg) as pair:
        steps = 0
        t0 = time.perf_counter()
        t_end = t0 + seconds
        while outcome.failed < MAX_FAILED:
            elapsed = time.perf_counter() - t0
            enough = len(pairs) >= MIN_PAIRS and steps >= MIN_STEP_SAMPLES
            if enough and time.perf_counter() + elapsed / len(pairs) > t_end:
                break
            replies = pair.run(len(pairs))
            if count(replies):
                pairs.append(replies)
                steps += len(replies[0]["steps_ms"])
    if not pairs:
        return outcome

    import_s = [import_seconds() for _ in range(IMPORT_REPS)]
    trains = [[(r["train_s"], r["steps_ms"]) for r in sides] for sides in pairs]
    p_steps = [ms for (_, st), _ in trains for ms in st]
    b_steps = [ms for _, (_, st) in trains for ms in st]
    images = cfg.iters * cfg.images_per_iter
    query_count = pairs[0][0]["queries"] * wl.retrieval_passes
    prog_setup_s = [p["setup_s"] for p, _ in pairs]
    tail = TAIL_PERCENTILE
    outcome.metrics = {
        "train_speedup": (statistics.median(b[0] / p[0] for p, b in trains), "x"),
        "step_p50_speedup": (statistics.median(statistics.median(b[1]) / statistics.median(p[1])
                                               for p, b in trains), "x"),
        f"step_p{tail}_speedup": (_quantile(b_steps, tail) / _quantile(p_steps, tail), "x"),
        "eval_speedup": (statistics.median(sum(b["retrieval_s"]) / sum(p["retrieval_s"])
                                           for p, b in pairs), "x"),
        "map": (pairs[0][0]["map"], "1"),
        "setup_s": (statistics.median(import_s) + statistics.median(prog_setup_s), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p, _ in pairs), "MB"),
    }
    outcome.info = {
        "pairs": len(pairs),
        "pair_train_speedups": [b[0] / p[0] for p, b in trains],
        "pair_eval_speedups": [sum(b["retrieval_s"]) / sum(p["retrieval_s"]) for p, b in pairs],
        "step_samples_per_side": len(p_steps),
        "step_source": "timed" if wl.timed_train else "set-up",
        "train_images_per_s": statistics.median(images / p[0] for p, _ in trains),
        "baseline_train_images_per_s": statistics.median(images / b[0] for _, b in trains),
        "step_ms_p50": _quantile(p_steps, 50),
        "baseline_step_ms_p50": _quantile(b_steps, 50),
        f"step_ms_p{tail}": _quantile(p_steps, tail),
        f"baseline_step_ms_p{tail}": _quantile(b_steps, tail),
        "eval_queries_per_s": statistics.median(query_count / sum(p["retrieval_s"])
                                                for p, _ in pairs),
        "baseline_eval_queries_per_s": statistics.median(query_count / sum(b["retrieval_s"])
                                                         for _, b in pairs),
        "baseline_rows_match": all(pairs[0][0][k] == pairs[0][1][k] for k in ("train_rows", "eval_rows")),
        "import_s": import_s,
        "setup_reps_s": prog_setup_s,
    }
    return outcome


def _measure(wl, setup, seconds, outcome, tracer=None):
    """Program-only repetitions until ``seconds`` have passed.
    Returns (good reps, per-rep tracer summaries)."""
    reps, layer_rows = [], []
    t_end = time.perf_counter() + seconds
    while outcome.failed < MAX_FAILED and (not reps or time.perf_counter() < t_end):
        if tracer is not None:
            tracer.reset()
        outcome.attempted += 1
        rep, problems = attempt(wl, setup, outcome.first)
        if problems:
            outcome.failed += 1
            outcome.problems += problems
            continue
        outcome.first = outcome.first or rep
        reps.append(rep)
        if tracer is not None:
            layer_rows.append(tracer.summary())
    return reps, layer_rows


def _per_layer(wl, setup, seconds, outcome, spans_path):
    """Half the time untraced, half traced, program only; per-layer metrics
    are the (lower) medians over the traced repetitions."""
    plain, _ = _measure(wl, setup, seconds / 2, outcome)
    tracer = Tracer()
    tracer.install()
    try:
        traced, layer_rows = _measure(wl, setup, seconds / 2, outcome, tracer=tracer)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        return
    if spans_path is not None:
        tracer.write_spans(spans_path)
    plain_wall = statistics.median([r.wall_s for r in plain])
    traced_wall = statistics.median([r.wall_s for r in traced])
    outcome.metrics = {name: (statistics.median_low([row[name] for row in layer_rows]), _unit(name))
                       for name in layer_rows[0]}
    outcome.metrics["trace.overhead_share"] = (traced_wall / plain_wall - 1, "1")
    outcome.info = {"plain_reps": len(plain), "traced_reps": len(traced),
                    "plain_wall_ms": plain_wall * 1e3, "traced_wall_ms": traced_wall * 1e3}


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes_copied"):
        return "B"
    if name.endswith("share"):
        return "1"
    return "count"
