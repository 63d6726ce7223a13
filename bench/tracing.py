"""Span recording and timers that wrap the program's public functions from
outside, plus the arithmetic that turns spans into per-layer numbers.

Nothing here edits the program: ``Patcher`` swaps module (or class)
attributes for wrappers and puts the originals back. Every module of the
program looks these functions up through the module at call time
(``gc.add``, ``vb.elbo``, ``md.normal_term`` ...), so a swapped attribute
sees every call, including calls between functions of the same module.
"""
from __future__ import annotations

import time
from array import array
from fractions import Fraction

import numpy as np

# public ops of gradcore, in the order its __all__ lists them (the two
# string dispatchers are left out: they only forward to these)
GRADCORE_OPS = ("add", "sub", "mul", "neg", "exp", "log", "square", "relu",
                "leaky_relu", "sigmoid", "softplus", "clamp", "matmul",
                "reduce_sum", "reduce_mean", "reduce_max", "logsumexp",
                "stack")

PROTOCOL_FUNCS = ("split_stratified", "standardize",
                  "subsample_labeled_outliers", "pollute")


def _targets(ssadvae):
    """(owner, attribute, span name) for every traced boundary."""
    gc, nb, vb = ssadvae.gradcore, ssadvae.netblocks, ssadvae.vbounds
    md, tr, dk, cli = (ssadvae.models, ssadvae.trainer, ssadvae.datakit,
                       ssadvae.cli)
    out = [(gc, op, f"gradcore.op.{op}") for op in GRADCORE_OPS]
    out += [(gc, "backward", "gradcore.backward"),
            (gc.Graph, "trace", "gradcore.trace")]
    out += [(nb, f, f"netblocks.{f}")
            for f in ("encode", "decode", "reparameterize", "load_params")]
    out += [(vb, f, f"vbounds.{f}")
            for f in ("elbo", "cubo_loss", "kl_to_gaussian_prior",
                      "reconstruction_loss")]
    out += [(md, f, f"models.{f}")
            for f in ("normal_term", "outlier_update_term", "cubo_objective",
                      "score", "ensemble_score", "load_ensemble")]
    out += [(tr, f, f"trainer.{f}")
            for f in ("train", "adam_step", "clip_gradients")]
    out += [(dk, f, f"datakit.{f}")
            for f in ("load_csv", "synth_gaussian_ad", "auroc")
            + PROTOCOL_FUNCS]
    out += [(dk.EvalReport, "write_scores_csv", "datakit.write_scores_csv"),
            (cli, "main", "cli.main")]
    return out


class Patcher:
    """Replaces attributes with wrappers; ``restore`` undoes it in reverse."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Timers:
    """Calls of ``trainer.train`` and ``models.ensemble_score``, each as
    (start, end, rows) in ``time.perf_counter`` seconds.

    These two wrappers stay on in the plain run: one clock pair per call,
    which is what the end-to-end rates are computed from. A train call's
    rows are normal-stream rows x epochs x members.
    """

    def __init__(self):
        self.train: list = []
        self.score: list = []
        self._patcher = Patcher()

    def reset(self) -> None:
        self.train, self.score = [], []

    def install(self, ssadvae) -> None:
        def timed_train(fn):
            def train(config, dataset, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(config, dataset, *args, **kwargs)
                t1 = time.perf_counter()
                self.train.append((t0, t1, len(dataset.normal_stream())
                                   * config.epochs * config.ensemble_size))
                return out
            return train

        def timed_score(fn):
            def ensemble_score(ens, x, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(ens, x, *args, **kwargs)
                self.score.append((t0, time.perf_counter(), len(out)))
                return out
            return ensemble_score

        self._patcher.wrap(ssadvae.trainer, "train", timed_train)
        self._patcher.wrap(ssadvae.models, "ensemble_score", timed_score)

    def uninstall(self) -> None:
        self._patcher.restore()


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until the end.

    A span's parent is the span open when it started; -1 for a root. The
    counters hold outcomes the wrappers observe: CUBO domain, clipping,
    rows loaded.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self._stack: list = []
        self.counters: dict = {}
        self._patcher = Patcher()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def traced(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        starts, ends, parents, ids, stack = (self.starts, self.ends,
                                             self.parents, self.name_ids,
                                             self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            ids.append(nid)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    def install(self, ssadvae) -> None:
        hooks = {
            "models.cubo_objective": (None, _count_cubo_domain),
            "trainer.clip_gradients": (_count_clip_fired, None),
            "datakit.load_csv": (None, _count_rows_loaded),
        }
        for owner, attr, name in _targets(ssadvae):
            before, after = hooks.get(name, (None, None))
            self._patcher.wrap(
                owner, attr,
                lambda fn, name=name, b=before, a=after: self.traced(name, fn, b, a))

    def uninstall(self) -> None:
        self._patcher.restore()

    def arrays(self) -> dict:
        """Spans as numpy arrays (the form written to disk)."""
        return {"names": np.array(self.names, dtype=str),
                "name_ids": np.frombuffer(self.name_ids, dtype=np.int64).copy(),
                "parents": np.frombuffer(self.parents, dtype=np.int64).copy(),
                "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
                "ends": np.frombuffer(self.ends, dtype=np.float64).copy()}


def _count_cubo_domain(tracer, args, kwargs, out) -> None:
    tracer.count("cubo_objective.calls")
    if out[1]:
        tracer.count("cubo_objective.log_domain")


def _count_clip_fired(tracer, args, kwargs) -> None:
    grads = args[0] if args else kwargs["grads"]
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    total = sum(float((g * g).sum()) for g in grads if g is not None)
    tracer.count("clip_gradients.calls")
    if total ** 0.5 > max_norm:
        tracer.count("clip_gradients.fired")


def _count_rows_loaded(tracer, args, kwargs, out) -> None:
    tracer.count("load_csv.rows", len(out))


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up.
    """
    starts = np.asarray(starts, dtype=np.float64)
    dur = np.asarray(ends, dtype=np.float64) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def inside(starts, ends, outer_starts, outer_ends) -> np.ndarray:
    """Mask of spans that lie within one of the (non-overlapping) outer spans."""
    starts = np.asarray(starts)
    outer_starts = np.asarray(outer_starts)
    if outer_starts.size == 0:
        return np.zeros(starts.shape, dtype=bool)
    k = np.searchsorted(outer_starts, starts, side="right") - 1
    ok = k >= 0
    kk = np.where(ok, k, 0)
    return ok & (np.asarray(ends) <= np.asarray(outer_ends)[kk])


def highest_percentile(n: int, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten of ``n`` samples
    beyond it, or None when even the lowest has fewer."""
    best = None
    for p in candidates:
        if n * (100 - Fraction(str(p))) / 100 >= 10:
            best = p
    return best


def summarize(spans: dict, counters: dict) -> dict:
    """Per-layer numbers from one traced cycle's spans and counters."""
    names = list(spans["names"])
    name_ids = spans["name_ids"]
    starts, ends, parents = spans["starts"], spans["ends"], spans["parents"]
    own = self_times(starts, ends, parents)
    dur = ends - starts
    self_by = np.bincount(name_ids, weights=own, minlength=len(names))
    calls_by = np.bincount(name_ids, minlength=len(names))

    def idx(name):
        return names.index(name) if name in names else -1

    def self_s(name):
        i = idx(name)
        return float(self_by[i]) if i >= 0 else 0.0

    def calls(name):
        i = idx(name)
        return int(calls_by[i]) if i >= 0 else 0

    def where(name):
        i = idx(name)
        return np.flatnonzero(name_ids == i) if i >= 0 else np.zeros(0, np.int64)

    def frac(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    m = {}
    op_names = [f"gradcore.op.{op}" for op in GRADCORE_OPS]
    op_mask = np.isin(name_ids, [idx(n) for n in op_names if idx(n) >= 0])
    steps = where("models.normal_term")
    in_step = inside(starts[op_mask], ends[op_mask], starts[steps], ends[steps])
    m["gradcore.op_calls_per_step"] = (int(in_step.sum()) / steps.size
                                       if steps.size else 0.0)
    m["gradcore.forward.self_s"] = float(own[op_mask].sum())
    for op, name in zip(GRADCORE_OPS, op_names):
        m[f"gradcore.op.{op}.calls"] = calls(name)
        m[f"gradcore.op.{op}.self_s"] = self_s(name)
    m["gradcore.backward.calls"] = calls("gradcore.backward")
    m["gradcore.backward.self_s"] = self_s("gradcore.backward")
    m["gradcore.trace.self_s"] = self_s("gradcore.trace")
    for f in ("encode", "decode", "reparameterize", "load_params"):
        m[f"netblocks.{f}.self_s"] = self_s(f"netblocks.{f}")
    for f in ("elbo", "cubo_loss", "kl_to_gaussian_prior",
              "reconstruction_loss"):
        m[f"vbounds.{f}.self_s"] = self_s(f"vbounds.{f}")
    m["models.normal_term.self_s"] = self_s("models.normal_term")
    m["models.outlier_update_term.self_s"] = self_s("models.outlier_update_term")
    m["models.cubo_objective.calls"] = counters.get("cubo_objective.calls", 0)
    m["models.cubo_log_domain_frac"] = frac("cubo_objective.log_domain",
                                            "cubo_objective.calls")
    m["models.score.calls"] = calls("models.score")
    m["models.score.self_s"] = self_s("models.score")
    m["models.ensemble_score.self_s"] = self_s("models.ensemble_score")
    m["models.load_ensemble.self_s"] = self_s("models.load_ensemble")
    m["trainer.adam_step.calls"] = calls("trainer.adam_step")
    m["trainer.adam_step.self_s"] = self_s("trainer.adam_step")
    m["trainer.clip_gradients.calls"] = counters.get("clip_gradients.calls", 0)
    m["trainer.clip_gradients.self_s"] = self_s("trainer.clip_gradients")
    m["trainer.clip_fired_frac"] = frac("clip_gradients.fired",
                                        "clip_gradients.calls")
    m["trainer.loop.self_s"] = self_s("trainer.train")
    step_ms = normal_step_ms(starts, dur, steps, where("gradcore.backward"),
                             where("trainer.adam_step"))
    m["trainer.step_ms.n"] = int(step_ms.size)
    m["trainer.step_ms.p50"] = (float(np.percentile(step_ms, 50))
                                if step_ms.size else 0.0)
    tail = highest_percentile(step_ms.size)
    m["trainer.step_ms.p99"] = (float(np.percentile(step_ms, 99))
                                if tail is not None and tail >= 99 else 0.0)
    m["datakit.load_csv.self_s"] = self_s("datakit.load_csv")
    m["datakit.load_csv.rows"] = counters.get("load_csv.rows", 0)
    load_i = where("datakit.load_csv")
    load_s = float(dur[load_i].sum())
    m["datakit.load_csv_rows_per_s"] = (m["datakit.load_csv.rows"] / load_s
                                        if load_s > 0 else 0.0)
    m["datakit.write_scores_csv.self_s"] = self_s("datakit.write_scores_csv")
    m["datakit.protocol.self_s"] = sum(self_s(f"datakit.{f}")
                                       for f in PROTOCOL_FUNCS)
    m["datakit.synth_gaussian_ad.self_s"] = self_s("datakit.synth_gaussian_ad")
    m["datakit.auroc.self_s"] = self_s("datakit.auroc")
    m["cli.main.self_s"] = self_s("cli.main")
    return m


def normal_step_ms(starts, dur, normal_terms, backwards, adam_steps) -> np.ndarray:
    """Milliseconds of each normal step: its ``normal_term`` plus the first
    ``backward`` and ``adam_step`` that start after it."""
    nt_start = starts[normal_terms]
    kb = np.searchsorted(starts[backwards], nt_start)
    ka = np.searchsorted(starts[adam_steps], nt_start)
    done = (kb < backwards.size) & (ka < adam_steps.size)  # a step cut short has neither
    b, a = backwards[kb[done]], adam_steps[ka[done]]
    return 1e3 * (dur[normal_terms[done]] + dur[b] + dur[a])
