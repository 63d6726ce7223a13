"""Optimization loop: Adam, linear KL annealing, a warm-up period before any
outlier updates, an outlier-update interval, gradient clipping and a
step-decayed learning rate on the outlier path.

The normal-term and outlier-term updates are separate optimization steps.
Clipping and the decayed learning rate apply only to the outlier path; the
normal path uses the base learning rate throughout. Everything is driven by
one master seed: member i trains with seed master+i, and each member derives
its init, shuffle and noise streams from that seed alone.

The K members train as one stacked computation: each step gathers every
member's own batch into (K, batch, d), runs one graph, one backward and one
Adam update, and the result equals K separate trainings bit for bit. The
stacked parameters and their gradients are views into two (K, P) buffers
(``models.FlatParams``), so the Adam update is one elementwise pass: over
all columns on a normal step, over the encoder's on an outlier step.

No member's computation reads another's, so ``train`` trains the members in
groups through ``fanout.fan_out``, each group the members it creates. A
member's bytes are the same in any group (``_train_members`` is one loop
for every group), so they do not depend on the grouping, nor, with
OpenBLAS held to one thread (``host.training``), on the BLAS thread count.
Each step draws its members' noise in line from their Philox streams.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Optional

import numpy as np

from . import gradcore as gc
from . import host
from . import models as md
from . import netblocks as nb
from .datakit import SsadDataset
from .fanout import fan_out
from .netblocks import philox_rng


class NumericalAbort(RuntimeError):
    """A loss or gradient went non-finite; carries member seed, epoch, batch
    and term context."""

    def __init__(self, term: str, detail: str = "", epoch=None, batch=None,
                 seed=None):
        self.term = term
        self.detail = detail
        self.epoch = epoch
        self.batch = batch
        self.seed = seed
        where = f"epoch {epoch}" if epoch is not None else "unknown epoch"
        if batch is not None:
            where += f", batch {batch}"
        if seed is not None:
            where = f"member seed {seed}, {where}"
        super().__init__(f"non-finite {term} at {where}"
                         + (f": {detail}" if detail else ""))

    def __reduce__(self):
        # by the five fields: the default would rebuild from the message
        return (type(self), (self.term, self.detail, self.epoch, self.batch,
                             self.seed))


@dataclass
class TrainConfig:
    """All training hyperparameters plus the architecture of the members:
    the objective (``method`` and its ``alpha``, ``gamma``, ``beta_kl``,
    ``beta_cubo``) is set here and nowhere else."""

    method: str = "dp"
    epochs: int = 150
    batch_size: int = 128
    lr: float = 1e-3
    beta_kl: float = 0.05
    beta_cubo: float = 0.05
    gamma: float = 1.0
    # the outlier prior mean is alpha * 1 (dp, hybrid); normals use mean 0
    alpha: float = 5.0
    anneal_epochs: int = 20
    warmup_epochs: int = 50
    nd_update_interval: int = 1
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 50
    clip_norm: float = 5.0
    ensemble_size: int = 5
    s_elbo: int = 1
    s_cubo: int = 8
    master_seed: int = 0
    widths: tuple = (32, 16, 8)
    activation: str = "leaky-relu"
    leak: float = 0.1
    use_bias: bool = True
    family: str = "gaussian"

    def __post_init__(self):
        # the method's rules first: a breach is a ValueError naming the key
        if self.method not in md.METHODS:
            raise ValueError(f"method: expected one of {', '.join(md.METHODS)}, "
                             f"got {self.method!r}")
        if self.method in ("dp", "hybrid") and self.alpha == 0.0:
            raise ValueError(f"alpha: method {self.method!r} requires a nonzero "
                             f"prior alpha, got {self.alpha!r}")
        if self.method in ("mml", "hybrid") and self.gamma < 0.0:
            raise ValueError(f"gamma: method {self.method!r} requires gamma >= 0, "
                             f"got {self.gamma!r}")
        self.widths = tuple(int(w) for w in self.widths)
        self.spec  # MlpSpec rejects a bad width, activation or leak up front
        if self.family not in nb.FAMILIES:
            raise ValueError(f"family: expected one of {', '.join(nb.FAMILIES)}, "
                             f"got {self.family!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be < epochs")
        if self.anneal_epochs > self.epochs:
            raise ValueError("anneal_epochs must be <= epochs")
        for name in ("epochs", "batch_size", "nd_update_interval", "ensemble_size",
                     "s_elbo", "s_cubo"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("lr", "clip_norm"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        # a negative warm-up would shift the outlier schedule, and a negative
        # factor would turn a bound or the outlier steps upside down; a decay
        # factor of 0 stops the outlier steps moving the encoder after the
        # first decay, and lr_decay_every = 0 never decays
        for name in ("warmup_epochs", "anneal_epochs", "beta_kl", "beta_cubo",
                     "lr_decay_factor", "lr_decay_every"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @property
    def spec(self) -> nb.MlpSpec:
        return nb.MlpSpec(widths=self.widths, activation=self.activation,
                          leak=self.leak, use_bias=self.use_bias)


# Adam's moment decay rates and denominator epsilon: Kingma & Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moments over one flat parameter buffer, one step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float) -> None:
    """One bias-corrected Adam update of ``params`` in place.

    ``params`` and ``grads`` cover the leading columns (last axis) of the
    state's buffers: all of them, or the encoder's on an outlier step. The
    moments of the other columns are left as they are. Adam is elementwise,
    so every entry gets the bytes a per-tensor update would give it.
    """
    n = params.shape[-1]
    m, v = state.m[..., :n], state.v[..., :n]
    if grads.shape != params.shape or m.shape != params.shape:
        raise ValueError(f"adam_step: params {params.shape}, grads "
                         f"{grads.shape} and moments {state.m.shape} disagree")
    if not np.isfinite(grads).all():
        bad = np.argwhere(~np.isfinite(grads))[0]
        raise NumericalAbort("gradient", f"entry {tuple(bad.tolist())}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grads * grads)
    params -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def kl_anneal_coeff(epoch: int, anneal_epochs: int, beta_final: float) -> float:
    """Linear ramp from 0 to beta_final over the first anneal_epochs epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if anneal_epochs <= 0:
        return beta_final
    return beta_final * min(1.0, epoch / anneal_epochs)


def _global_norm(grads: list) -> float:
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    return np.sqrt(total)


def clip_gradients(grads: list, max_norm: float) -> list:
    """Global-norm clipping: scale every array of ``grads`` in place by
    max_norm/||g|| if needed; returns ``grads``."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    norm = _global_norm(grads)
    if norm > max_norm:
        for g in grads:
            g *= max_norm / norm
    return grads


def outlier_path_lr(base_lr: float, epoch: int, decay_every: int,
                    decay_factor: float) -> float:
    """Step decay for the CUBO/outlier path: multiplied every decay_every epochs."""
    if decay_every <= 0:
        return base_lr
    return base_lr * decay_factor ** (epoch // decay_every)


@dataclass
class EpochStats:
    epoch: int
    elbo: float
    kl: float
    recon: float
    outlier_term: Optional[float]
    lr: float
    outlier_lr: Optional[float]
    anneal_coeff: float
    wall_time: float
    cubo_log_domain: Optional[bool]  # None: no CUBO step this epoch
    clipped: Optional[bool]  # None: no outlier step this epoch


@dataclass
class TrainHistory:
    seed: int
    records: list = field(default_factory=list)

    def to_rows(self) -> list:
        return [asdict(r) for r in self.records]

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=[f.name for f in fields(EpochStats)])
            writer.writeheader()
            for row in self.to_rows():
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": self.seed, "epochs": self.to_rows()}, fh, indent=2)
            fh.write("\n")


def _wants_outlier_updates(config: TrainConfig, n_outliers: int) -> bool:
    if config.method == "vae" or n_outliers == 0:
        return False
    if config.method == "mml" and config.gamma == 0.0:
        return False
    return True


def _first_nonfinite(a: np.ndarray) -> int:
    """The first member (leading index) with a non-finite entry."""
    return int(np.flatnonzero(~np.isfinite(a).reshape(len(a), -1).all(axis=1))[0])


def _check_loss(loss: gc.Tensor, term: str, seeds: list, epoch: int,
                batch=None) -> None:
    if not np.isfinite(loss.data).all():
        k = _first_nonfinite(loss.data)
        raise NumericalAbort(term, f"value {loss.data[k]}", epoch=epoch,
                             batch=batch, seed=seeds[k])


def _check_grads(tensors) -> None:
    # a leaf without a gradient would leave last step's bytes in its view
    if any(t.grad is None for t in tensors):
        raise AssertionError("a trained parameter received no gradient")


def _clip_members(tensors, max_norm: float) -> list:
    """``clip_gradients`` on each member's slices of the stacked tensors'
    gradients, in place; whether it scaled them, one bool per member."""
    clipped = []
    for k in range(len(tensors[0].grad)):
        grads = [t.grad[k] for t in tensors]
        clipped.append(bool(_global_norm(grads) > max_norm))
        clip_gradients(grads, max_norm)
    return clipped


def _update(adam: AdamState, params: np.ndarray, grads: np.ndarray, lr: float,
            seeds: list, epoch: int, batch=None, first: int = 0) -> None:
    """``adam_step`` with an abort naming the member's seed, and its entry
    as the ensemble's row ``first + k`` for the buffers' row k."""
    try:
        adam_step(adam, params, grads, lr)
    except NumericalAbort:
        k = _first_nonfinite(grads)
        bad = np.argwhere(~np.isfinite(grads[k]))[0].tolist()
        raise NumericalAbort("gradient", f"entry {(first + k, *bad)}", epoch,
                             batch, seeds[k]) from None


def _first_error(errors: list, seeds: list) -> BaseException:
    """The error the in-process loop would raise, from each group's first:
    an error that is not a NumericalAbort, the earliest group's; else the
    abort at the smallest (epoch, normal steps before the outlier step,
    batch, loss check before gradient check, member)."""
    others = [e for e in errors if not isinstance(e, NumericalAbort)]
    if others:
        return others[0]
    return min(errors, key=lambda e: (e.epoch, e.batch is None, e.batch or 0,
                                      e.term == "gradient", seeds.index(e.seed)))


def train(config: TrainConfig, dataset: SsadDataset):
    """Train an ensemble of K members on the dataset's training streams
    with the objective ``config.method`` names.

    Returns (SsadModel, list of TrainHistory). Member i uses seed
    master_seed + i for init, shuffling and reparameterization noise. The
    model holds only the members' weights and seeds: the objective stays
    with ``config``.

    The streams are taken and the K-member model is created here, so an
    init that cannot be allocated fails before any fork. ``fanout.fan_out``
    then trains the members in groups, each group stacked and on members it
    creates, and their weights are written into the model's rows in seed
    order; its gradient buffer stays zero. A history's wall_time is its
    group's epoch. It runs in ``host.training()``: one OpenBLAS thread,
    forked groups included, and glibc's heap thresholds.

    An error is the one the in-process loop would raise (``_first_error``),
    raised once every group has ended.
    """
    seeds = [config.master_seed + i for i in range(config.ensemble_size)]
    normal_x = dataset.normal_stream()
    outlier_x = dataset.labeled_outliers()
    if len(normal_x) == 0:
        raise ValueError("training set has no normal rows")
    model = md.SsadModel.create(config.spec, dataset.dim, seeds, config.family)

    def trained(group):
        members = md.SsadModel.create(config.spec, dataset.dim, group,
                                      config.family)
        histories = _train_members(config, normal_x, outlier_x, members,
                                   seeds.index(group[0]))
        return members.flat.data, histories

    with host.training():
        outcomes = fan_out(trained, seeds, "training of member seeds",
                           stacked=True)
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    if errors:
        raise _first_error(errors, seeds)
    np.concatenate([rows for rows, _ in outcomes], out=model.flat.data)
    return model, [h for _, hists in outcomes for h in hists]


def _train_members(config: TrainConfig, normal_x: np.ndarray,
                   outlier_x: np.ndarray, model: md.SsadModel,
                   first: int) -> list:
    """Train ``model``'s members as one stack in this process, in place:
    ``train``'s loop for one group, whose members are the ensemble's rows
    from ``first`` on. Returns their histories."""
    seeds = model.seeds
    shuffle_rngs = [philox_rng(seed, nb.STREAM_SHUFFLE) for seed in seeds]
    noise_rngs = [philox_rng(seed, nb.STREAM_NOISE) for seed in seeds]
    params, enc_params = model.parameters(), model.encoder.tensors()
    flat, p_enc = model.flat, model.flat.n_encoder
    adam = AdamState.like(flat.data)
    n, bs = len(normal_x), config.batch_size
    do_outlier = _wants_outlier_updates(config, len(outlier_x))
    histories = [TrainHistory(seed=seed) for seed in seeds]

    # A diverging run overflows inside numpy before a loss goes non-finite.
    # The loss and gradient checks below abort it (exit 3 from the CLI),
    # naming the member, epoch and batch, so numpy's own warnings would
    # only repeat that, with a source line and no context.
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            beta = kl_anneal_coeff(epoch, config.anneal_epochs, config.beta_kl)
            perms = np.stack([rng.permutation(n) for rng in shuffle_rngs])
            sums = np.zeros((len(seeds), 3))  # elbo, kl, recon weighted by batch size
            for bi, lo in enumerate(range(0, n, bs)):
                xb = normal_x[perms[:, lo:lo + bs]]
                loss, rep = md.normal_term(model, xb, beta_kl=beta,
                                           n_samples=config.s_elbo, rng=noise_rngs)
                _check_loss(loss, "normal-term loss", seeds, epoch, bi)
                model.zero_grads()
                gc.backward(gc.reduce_sum(loss))
                _check_grads(params)
                _update(adam, flat.data, flat.grad, config.lr, seeds, epoch, bi,
                        first)
                for j, term in enumerate((rep.elbo, rep.kl, rep.recon)):
                    sums[:, j] += xb.shape[1] * term.data
                # drop this step's graph before the next forward builds its own
                del loss, rep

            outlier_vals = outlier_lr = log_domains = clipped = None
            due = (do_outlier and epoch >= config.warmup_epochs
                   and (epoch - config.warmup_epochs) % config.nd_update_interval == 0)
            if due:
                m = len(outlier_x)
                rows = [rng.permutation(m)[:bs] if m > bs else np.arange(m)
                        for rng in shuffle_rngs]
                rep = md.outlier_update_term(model, outlier_x[np.stack(rows)],
                                             config, beta, noise_rngs)
                _check_loss(rep.loss, "outlier-term loss", seeds, epoch)
                outlier_vals, log_domains = rep.loss.data.tolist(), rep.cubo_log_domain
                model.zero_grads()
                gc.backward(gc.reduce_sum(rep.loss))
                del rep
                dec_grads = [t.grad for t in model.decoder.tensors()]
                if any(g is not None for g in dec_grads):
                    raise AssertionError("outlier update produced a decoder gradient")
                outlier_lr = outlier_path_lr(config.lr, epoch,
                                             config.lr_decay_every,
                                             config.lr_decay_factor)
                _check_grads(enc_params)
                clipped = _clip_members(enc_params, config.clip_norm)
                _update(adam, flat.data[:, :p_enc], flat.grad[:, :p_enc],
                        outlier_lr, seeds, epoch, first=first)

            wall_time = time.perf_counter() - t0
            for k, history in enumerate(histories):
                history.records.append(EpochStats(
                    epoch=epoch, elbo=sums[k, 0] / n, kl=sums[k, 1] / n,
                    recon=sums[k, 2] / n,
                    outlier_term=None if outlier_vals is None else outlier_vals[k],
                    lr=config.lr, outlier_lr=outlier_lr, anneal_coeff=beta,
                    wall_time=wall_time,
                    cubo_log_domain=None if log_domains is None else log_domains[k],
                    clipped=None if clipped is None else clipped[k]))

    return histories
