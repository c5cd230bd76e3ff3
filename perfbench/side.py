"""One side of a timed pair: the program or the frozen baseline, in a
process of its own, driven by ``workloads.Pair`` over stdin/stdout.

    python3 perfbench/side.py <0 for the program|1 for the baseline> <read fd> <write fd>

Commands are JSON lines: ``init`` (workload and config), then one per pair
(set up afresh and run one repetition, taking turns with the other side over
the two pipe ends; the side told ``first`` starts). Each gets one JSON line
back with the timings, the row digests and the problems the output checks
found; the first good repetition is the one later ones must reproduce. End
of input ends the process.
"""

import gc
import json
import resource
import sys

import workloads as wk


def reply(setup: wk.Setup, rep: wk.Rep | None, problems: list[str]) -> dict:
    out = {"problems": problems, "setup_s": setup.seconds if setup else 0.0,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if rep is not None:
        ret = rep.retrievals[0]
        rows = rep.train_rows or setup.train_rows
        out.update(
            train_s=rep.train_s if rep.steps_ms else setup.train_s,
            steps_ms=rep.steps_ms or setup.steps_ms,
            train_rows=wk.rows_digest(rows), eval_rows=wk.rows_digest(ret.rows),
            retrieval_s=[r.seconds for r in rep.retrievals], queries=ret.queries, map=ret.map,
        )
    return out


def main() -> int:
    index, read_fd, write_fd = (int(a) for a in sys.argv[1:4])
    prog = (wk.PROGRAM, wk.baseline())[index]
    baton = wk.Baton(read_fd, write_fd)
    wl = cfg = first = first_setup = None
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "init":
            w = msg["workload"]
            wl = wk.Workload(**{**w, "sweep": tuple(w["sweep"])})
            cfg = wk.ExperimentConfig(**msg["cfg"])
            print("{}", flush=True)
            continue
        setup = rep = None
        gc.collect()  # both sides start every pair with no garbage left over
        baton.reset()
        try:
            if not msg["first"]:
                baton.wait()
            setup = wk.set_up(wl, cfg, prog, baton)
            baton.give_way()
            rep, problems = wk.attempt(wl, setup, first, baton)
        except prog.error_cls as exc:
            problems = [f"set-up: {type(exc).__name__}: {exc}"]
        finally:
            baton.finish()
        if first is None and not problems:
            first, first_setup = rep, setup
        elif setup is not None and first_setup is not None and (
                wk.rows_digest(setup.train_rows) != wk.rows_digest(first_setup.train_rows)):
            problems.append("set-up training rows differ from the first set-up")
        print(json.dumps(reply(setup, rep, problems)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
