#!/usr/bin/env python3
"""Benchmark of the ssadvae pipeline: one workload per run, in-process.

    python3 bench/run.py --workload train_small --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/`` directory. A plain run (``--trace 0``) sets up, then repeats the
workload's command cycle until the run ends as close to ``--seconds`` as
whole cycles allow (always at least once), and prints the end-to-end
metrics in reference seconds (see ``speed.py``). A traced run
(``--trace 1``) runs one plain reference cycle, then one cycle with every
public function of the seven modules wrapped in a span, and prints the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object with the result; everything the run writes goes
under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

BLAS_THREADS = 1  # fixed, and at most nproc on any machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S of wall
# time, so a set-up of a fraction of a second still has a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, ssadvae.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(np, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": BLAS_THREADS,
            "commit": git_commit(), "platform": platform.platform()}


def import_seconds() -> float:
    """Import time of numpy and the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip())


def run_cycle(cli, wl, plan, timers) -> dict:
    timers.reset()
    outcomes = [wl.run_invocation(cli, inv) for inv in plan.cycle]
    return {"outcomes": outcomes, "train": timers.train, "score": timers.score}


def check_repeatable(cycles: list) -> None:
    """Every cycle must reproduce the first cycle's scores bit for bit."""
    first = [o.scores_sha256 for o in cycles[0]["outcomes"]]
    for cyc in cycles[1:]:
        for o, sha in zip(cyc["outcomes"], first):
            if o.scores_sha256 != sha:
                o.failures.append("determinism:scores differ from first cycle")


def rate(calls, clock) -> float:
    """Rows per second over timed (start, end, rows) calls."""
    seconds = math.fsum(clock.seconds(t0, t1) for t0, t1, _ in calls)
    return sum(rows for _, _, rows in calls) / seconds if seconds > 0 else 0.0


def wall(outcomes, clock) -> float:
    return math.fsum(clock.seconds(o.started, o.started + o.seconds)
                     for o in outcomes)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cycles, setups, outcomes, clock, peak_rss_mb) -> dict:
    """Medians over cycles and set-ups, timed by ``clock``. A workload that
    trains only in set-up reports the training rate of all its set-ups."""
    train_rates = ([rate(c["train"], clock) for c in cycles if c["train"]]
                   or [rate([call for s in setups for call in s["train"]], clock)])
    aurocs = [o.auroc for o in cycles[0]["outcomes"] if o.auroc is not None]
    return {
        "train_rows_per_s": statistics.median(train_rates),
        "score_rows_per_s": statistics.median(rate(c["score"], clock)
                                              for c in cycles),
        "wall_s": statistics.median(wall(c["outcomes"], clock) for c in cycles),
        "setup_s": statistics.median(
            s["import_s"] * clock.factor(*s["import_at"])
            + clock.seconds(*s["prepare_at"]) for s in setups),
        "peak_rss_mb": peak_rss_mb,
        "auroc": statistics.fmean(aurocs) if aurocs else 0.0,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ssadvae" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import ssadvae
    import ssadvae.cli as cli
    import speed
    import tracing
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    facts = machine_facts(np, args.workload, args.seed)
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"

    # the plain run times in reference seconds (see speed.py); the traced
    # run keeps wall seconds, since kernels inside spans would count as
    # the program's own time
    clock = speed.WallClock() if args.trace else speed.SpeedProbe()
    timers = tracing.Timers()
    timers.install(ssadvae)
    clock.start()
    try:
        setups, outcomes = [], []
        t_setup = time.perf_counter()
        while len(setups) < SETUP_REPEATS or (
                time.perf_counter() - t_setup < SETUP_MIN_S
                and len(setups) < SETUP_MAX_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            i0 = time.perf_counter()
            with clock.paused():
                imported = import_seconds()
            i1 = time.perf_counter()
            timers.reset()
            plan = workload.prepare(work, args.seed)
            setup_out = [wl.run_invocation(cli, inv) for inv in plan.setup]
            setups.append({"import_s": imported, "import_at": (i0, i1),
                           "prepare_at": (i1, time.perf_counter()),
                           "train": timers.train})
            outcomes += setup_out
        plan.link(setup_out)

        spans_path, notes = None, []
        if args.trace:
            reference = run_cycle(cli, wl, plan, timers)
            tracer = tracing.Tracer()
            tracer.install(ssadvae)
            try:
                traced = run_cycle(cli, wl, plan, timers)
            finally:
                tracer.uninstall()
            cycles = [reference, traced]
            spans = tracer.arrays()
            metrics = tracing.summarize(spans, tracer.counters)
            metrics["trace_overhead_frac"] = (wall(traced["outcomes"], clock)
                                              / wall(reference["outcomes"], clock)
                                              - 1.0)
            n = metrics["trainer.step_ms.n"]
            tail = tracing.highest_percentile(n)
            notes.append(f"trainer.step_ms: {n} samples, highest percentile with "
                         f"ten beyond it: {'none' if tail is None else f'p{tail}'}")
            spans_path = OUT / f"spans_{args.workload}.npz"
            np.savez(spans_path, **spans)
        else:
            # stop where the run ends closest to --seconds: run one more
            # cycle while, at the mean cycle time so far, it would overshoot
            # by less than stopping now falls short
            cycles = []
            t0 = time.perf_counter()
            while True:
                cycles.append(run_cycle(cli, wl, plan, timers))
                elapsed = time.perf_counter() - t0
                if len(cycles) == 1:
                    # the peak so far: a later cycle can add to it, and how
                    # many cycles fit depends on the host's speed
                    peak_rss_mb = max_rss_mb()
                if elapsed + elapsed / len(cycles) / 2 > args.seconds:
                    break
    finally:
        clock.stop()
        timers.uninstall()
    check_repeatable(cycles)
    outcomes += [o for c in cycles for o in c["outcomes"]]
    wall_metrics = None
    if not args.trace:
        metrics = end_to_end(cycles, setups, outcomes, clock, peak_rss_mb)
        wall_metrics = end_to_end(cycles, setups, outcomes, speed.WallClock(),
                                  peak_rss_mb)
        notes.append("wall-clock seconds instead of reference seconds: "
                     + " ".join(f"{k}={wall_metrics[k]}" for k in speed.TIMED))
        notes.append(f"host speed: {clock.summary()}")

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    failed = [o for o in outcomes if not o.ok]
    score_shas = [o.scores_sha256 for o in cycles[0]["outcomes"]]
    result = {"correct": not failed, "attempted": len(outcomes),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"facts": facts, "result": result, "setups": len(setups),
              "cycles": len(cycles),
              "wall_clock_metrics": wall_metrics,
              "host_speed": None if args.trace else clock.summary(),
              "scores_sha256": score_shas,
              "outcomes": [{"label": o.label, "seconds": o.seconds,
                            "auroc": o.auroc, "failures": o.failures,
                            "scores_sha256": o.scores_sha256}
                           for o in outcomes],
              "spans": str(spans_path.relative_to(ROOT)) if spans_path else None}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if not failed:
        shutil.rmtree(work, ignore_errors=True)

    report(facts, outcomes, metrics, units, score_shas, len(setups), len(cycles),
           notes)
    print(json.dumps(result))
    return 0


def report(facts, outcomes, metrics, units, score_shas, n_setups, n_cycles,
           notes) -> None:
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"# FAILED {o.label}: {'; '.join(o.failures)}")
    print(f"# commands {len(outcomes)}, failed {len(failed)} "
          f"(failed_frac {len(failed) / len(outcomes)}), set-ups {n_setups}, "
          f"cycles {n_cycles}")
    print("# scores sha256 " + " ".join(str(s) for s in score_shas))
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    for note in notes:
        print("# " + note)


if __name__ == "__main__":
    sys.exit(main())
