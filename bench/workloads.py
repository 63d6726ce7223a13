"""The three workloads: their inputs (made from the seed), the ``ssadvae``
commands each one runs, and the checks applied to every command's outputs.

A workload is prepared once per set-up (inputs written as CSV files where
it has any), may run set-up commands (score_bulk trains the ensemble it
scores), and then repeats one *cycle* of timed commands. Every command is
``ssadvae.cli.main`` called in-process with a generated argv.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

# criterion-5 shape, with shift 1.0 and gamma_l 0.05 to keep AUROC off 1.0
SMALL_SYNTH = "8,2000,1.0,500"
SMALL_TEST_ROWS = 1000  # 800 normals + 200 anomalies after the 0.6 split

# arrhythmia-shaped: 274 features, widths 128,64,32 from the bundled configs
WIDE_DIM = 274
WIDE_NORMALS, WIDE_ANOMALIES = 2000, 300
WIDE_ENSEMBLE, WIDE_EPOCHS = 1, 60
WIDE_SHIFT = 6.5

# cardio width; a small table to train on and a large one to score
BULK_DIM = 21
BULK_TRAIN = (1800, 200)
BULK_SCORE = (18000, 2000)
BULK_SHIFT = 6.0

# every workload's seed medians sit at 0.90-0.99; broken arithmetic gives ~0.5
AUROC_FLOOR = 0.80


@dataclass
class Invocation:
    """One ``ssadvae`` command and what its outputs must look like."""

    label: str
    argv: list
    out_root: Path
    expected_rows: int = 0
    labels: Optional[np.ndarray] = None  # score: labels of the input rows
    members: int = 0  # train: member files expected


@dataclass
class Plan:
    """Set-up commands, then the timed cycle. A cycle argument ``@label``
    stands for the run directory printed by the set-up command ``label``."""

    setup: list = field(default_factory=list)
    cycle: list = field(default_factory=list)

    def link(self, setup_outcomes: list) -> None:
        dirs = {o.label: str(o.run_dir) for o in setup_outcomes}
        for inv in self.cycle:
            inv.argv = [dirs.get(a[1:], a) if a.startswith("@") else a
                        for a in inv.argv]


@dataclass
class Outcome:
    label: str
    seconds: float
    failures: list = field(default_factory=list)
    auroc: Optional[float] = None
    scores_sha256: Optional[str] = None
    run_dir: Optional[Path] = None
    started: float = 0.0  # time.perf_counter() when the command began

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int], Plan]


# ---------------------------------------------------------------------------
# inputs

def program_seed(seed: int) -> int:
    """The protocol seed handed to ``ssadvae --seeds``."""
    return seed % 2**31


def tabular(seed: int, stream: int, d: int, n_normal: int, n_anomaly: int,
            shift: float = 2.5):
    """Normals near a rank-8 linear manifold in d dimensions; anomalies are
    the same draw pushed off it by ``shift`` along one direction.

    The manifold and the direction depend on ``stream`` only, so seeds
    differ in the rows drawn, not in how hard the task is. Returns
    (features, labels) with label 1 for anomalies, rows shuffled.
    """
    geometry = np.random.Generator(np.random.Philox(key=[stream, 2000]))
    rank = 8
    basis = geometry.standard_normal((rank, d)) / math.sqrt(rank)
    off = geometry.standard_normal(d)
    off -= basis.T @ np.linalg.lstsq(basis.T, off, rcond=None)[0]
    off *= shift / np.linalg.norm(off)
    rng = np.random.Generator(np.random.Philox(key=[seed, 1000 + stream]))
    n = n_normal + n_anomaly
    x = rng.standard_normal((n, rank)) @ basis + 0.5 * rng.standard_normal((n, d))
    x[n_normal:] += off
    labels = np.r_[np.zeros(n_normal, np.int8), np.ones(n_anomaly, np.int8)]
    order = rng.permutation(n)
    return x[order], labels[order]


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([repr(v) for v in row.tolist()] + [int(label)])


def _benchmark_argv(method_args: list, seed: int, out: Path) -> list:
    return ["benchmark", *method_args, "--seeds", str(program_seed(seed)),
            "--save-scores", "--out", str(out)]


def prepare_train_small(work: Path, seed: int) -> Plan:
    plan = Plan()
    for method in ("mml", "dp"):
        out = work / f"small-{method}"
        plan.cycle.append(Invocation(
            f"benchmark-{method}",
            _benchmark_argv(["--synth", SMALL_SYNTH, "--config", "synth-default",
                             "--method", method, "--gamma-l", "0.05",
                             "--widths", "32,16,8", "--epochs", "150",
                             "--ensemble", "5"], seed, out),
            out, expected_rows=SMALL_TEST_ROWS))
    return plan


def prepare_train_wide(work: Path, seed: int) -> Plan:
    features, labels = tabular(seed, 1, WIDE_DIM, WIDE_NORMALS, WIDE_ANOMALIES,
                               shift=WIDE_SHIFT)
    table = work / "wide.csv"
    write_csv(table, features, labels)
    test_rows = ((WIDE_NORMALS - int(0.6 * WIDE_NORMALS + 0.5))
                 + (WIDE_ANOMALIES - int(0.6 * WIDE_ANOMALIES + 0.5)))
    plan = Plan()
    for method in ("mml", "dp"):
        out = work / f"wide-{method}"
        plan.cycle.append(Invocation(
            f"benchmark-{method}",
            _benchmark_argv(["--dataset", str(table),
                             "--config", f"{method}-arrhythmia",
                             "--ensemble", str(WIDE_ENSEMBLE),
                             "--epochs", str(WIDE_EPOCHS)], seed, out),
            out, expected_rows=test_rows))
    return plan


def prepare_score_bulk(work: Path, seed: int) -> Plan:
    train_table, score_table = work / "bulk-train.csv", work / "bulk-score.csv"
    write_csv(train_table, *tabular(seed, 2, BULK_DIM, *BULK_TRAIN,
                                    shift=BULK_SHIFT))
    features, labels = tabular(seed, 3, BULK_DIM, *BULK_SCORE, shift=BULK_SHIFT)
    write_csv(score_table, features, labels)
    models, scored = work / "bulk-train", work / "bulk-score"
    config = str(BENCH_DIR / "score_bulk.cfg")
    train = Invocation(
        "train", ["train", "--dataset", str(train_table), "--config", config,
                  "--seeds", str(program_seed(seed)), "--out", str(models)],
        models, members=5)
    score = Invocation(
        "score", ["score", "--dataset", str(score_table), "--config", config,
                  "--model-dir", "@train", "--out", str(scored)],
        scored, expected_rows=len(labels), labels=labels)
    return Plan(setup=[train], cycle=[score])


WORKLOADS = {w.name: w for w in (
    Workload("train_small",
             "criterion-5 shape (d=8, widths 32,16,8, K=5): tiny matmuls, so "
             "per-op Python overhead in gradcore and the Adam step dominate",
             prepare_train_small),
    Workload("train_wide",
             "arrhythmia shape (d=274, widths 128,64,32): BLAS and array work "
             "dominate, so copies and bigger intermediates show here",
             prepare_train_wide),
    Workload("score_bulk",
             "score 20k cardio-width rows with a saved K=5 ensemble at S=64: "
             "CSV load, no-grad scoring and the score writer, no backward",
             prepare_score_bulk),
)}


# ---------------------------------------------------------------------------
# running a command and checking what it wrote

def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC, half credit for ties; high score = normal."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    first = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    group = np.cumsum(first) - 1
    counts = np.bincount(group)
    ranks = np.empty(scores.size)
    ranks[order] = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    normal = labels == 0
    n0, n1 = int(normal.sum()), int((~normal).sum())
    return float((ranks[normal].sum() - n0 * (n0 + 1) / 2.0) / (n0 * n1))


def read_scores(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    scores = np.array([float(r[1]) for r in rows])
    labels = np.array([int(r[2]) for r in rows])
    return scores, labels


def _load_json(path: Path, failures: list):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        failures.append(f"json:{path.name}:{type(exc).__name__}")
        return None


def run_invocation(cli, inv: Invocation) -> Outcome:
    """Call ``cli.main`` and check its outputs; never raises."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(inv.argv))
    except Exception:  # a crash is a failed command, not a failed benchmark
        out = Outcome(inv.label, time.perf_counter() - t0, started=t0)
        out.failures.append("crash:" + traceback.format_exc(limit=1).strip()
                            .splitlines()[-1])
        return out
    out = Outcome(inv.label, time.perf_counter() - t0, started=t0)
    if code != 0:
        err = stderr.getvalue().strip().splitlines()
        out.failures.append(f"exit:{code}:{err[-1] if err else ''}")
        return out
    try:
        check_outputs(inv, stdout.getvalue(), out)
    except Exception:
        out.failures.append("check-crash:" + traceback.format_exc(limit=1)
                            .strip().splitlines()[-1])
    return out


def check_outputs(inv: Invocation, stdout: str, out: Outcome) -> None:
    lines = stdout.strip().splitlines()
    run_dir = Path(lines[-1].split(" auroc ")[0]) if lines else None
    if run_dir is None or not run_dir.is_dir() or run_dir.parent != inv.out_root:
        out.failures.append("run-dir:missing")
        return
    out.run_dir = run_dir
    manifest = _load_json(run_dir / "manifest.json", out.failures)
    kind = inv.argv[0]
    if kind == "train":
        members = len(list(run_dir.glob("member_*.bin")))
        if manifest is not None and len(manifest.get("seeds", [])) != inv.members:
            out.failures.append("manifest:member-count")
        if members != inv.members:
            out.failures.append(f"members:{members}!={inv.members}")
        return
    reported = None
    if kind == "benchmark":
        reports = list(run_dir.glob("report_*.json"))
        if len(reports) != 1:
            out.failures.append(f"report:{len(reports)}-files")
        else:
            report = _load_json(reports[0], out.failures)
            reported = report["per_seed"][0]["auroc"] if report else None
    found = list(run_dir.glob("scores_*.csv"))
    if len(found) != 1:
        out.failures.append(f"scores-csv:{len(found)}-files")
        return
    scores, labels = read_scores(found[0])
    if scores.size != inv.expected_rows:
        out.failures.append(f"rows:{scores.size}!={inv.expected_rows}")
    if not np.isfinite(scores).all():
        out.failures.append("scores:non-finite")
        return
    if inv.labels is not None and not np.array_equal(labels, inv.labels):
        out.failures.append("labels:mismatch")
    out.scores_sha256 = hashlib.sha256(scores.astype("<f8").tobytes()).hexdigest()
    out.auroc = auroc(scores, labels)
    if reported is not None and abs(reported - out.auroc) > 1e-12:
        out.failures.append(f"auroc:report {reported} != csv {out.auroc}")
    if out.auroc < AUROC_FLOOR:
        out.failures.append(f"auroc:{out.auroc:.4f}<{AUROC_FLOOR}")
