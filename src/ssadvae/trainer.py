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
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Optional

import numpy as np

from . import gradcore as gc
from . import models as md
from . import netblocks as nb
from .datakit import SsadDataset
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


@dataclass
class TrainConfig:
    """All training hyperparameters plus the architecture of the members."""

    epochs: int = 150
    batch_size: int = 128
    lr: float = 1e-3
    beta_kl: float = 0.05
    beta_cubo: float = 0.05
    gamma: float = 1.0
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
        for name in ("batch_size", "nd_update_interval", "ensemble_size",
                     "s_elbo", "s_cubo"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("lr", "clip_norm"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        # a negative factor would turn a bound or the outlier steps upside
        # down; a decay factor of 0 stops the outlier steps moving the
        # encoder after the first decay, and lr_decay_every = 0 never decays
        for name in ("beta_kl", "beta_cubo", "lr_decay_factor", "lr_decay_every"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @property
    def spec(self) -> nb.MlpSpec:
        return nb.MlpSpec(widths=self.widths, activation=self.activation,
                          leak=self.leak, use_bias=self.use_bias)


@dataclass
class AdamState:
    """First/second moments over one flat parameter buffer, one step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    m *= state.beta1
    m += (1.0 - state.beta1) * grads
    v *= state.beta2
    v += (1.0 - state.beta2) * (grads * grads)
    params -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def kl_anneal_coeff(epoch: int, anneal_epochs: int, beta_final: float) -> float:
    """Linear ramp from 0 to beta_final over the first anneal_epochs epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if anneal_epochs <= 0:
        return beta_final
    return beta_final * min(1.0, epoch / anneal_epochs)


def clip_gradients(grads, max_norm: float):
    """Global-norm clipping: scale everything by max_norm/||g|| if needed."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    total = 0.0
    for g in grads:
        if g is not None:
            total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm <= max_norm:
        return list(grads)
    scale = max_norm / norm
    return [None if g is None else g * scale for g in grads]


def outlier_path_lr(base_lr: float, epoch: int, decay_every: int = 50,
                    decay_factor: float = 0.1) -> float:
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


def _wants_outlier_updates(method: str, config: TrainConfig, n_outliers: int) -> bool:
    if method == "vae" or n_outliers == 0:
        return False
    if method == "mml" and config.gamma == 0.0:
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


def _clip_members(tensors, max_norm: float) -> None:
    """``clip_gradients`` on each member's slices of the stacked tensors'
    gradients, written back into those gradients."""
    for k in range(len(tensors[0].grad)):
        views = [t.grad[k] for t in tensors]
        for view, clipped in zip(views, clip_gradients(views, max_norm)):
            if clipped is not view:
                view[...] = clipped


def _update(adam: AdamState, params: np.ndarray, grads: np.ndarray, lr: float,
            seeds: list, epoch: int, batch=None) -> None:
    try:
        adam_step(adam, params, grads, lr)
    except NumericalAbort as e:
        raise NumericalAbort(e.term, e.detail, epoch, batch,
                             seeds[_first_nonfinite(grads)]) from None


def train(config: TrainConfig, dataset: SsadDataset, method: str):
    """Train an ensemble of K members on the dataset's training streams.

    Returns (SsadModel, list of TrainHistory). Member i uses seed
    master_seed + i for init, shuffling and reparameterization noise; the
    members train stacked, and a history's wall_time is the shared epoch's.
    """
    md.check_method(method, config.alpha, config.gamma)
    normal_x = dataset.normal_stream()
    outlier_x = dataset.labeled_outliers()
    if len(normal_x) == 0:
        raise ValueError("training set has no normal rows")

    seeds = [config.master_seed + i for i in range(config.ensemble_size)]
    model = md.SsadModel.create(
        config.spec, dataset.dim, method, seeds, alpha=config.alpha,
        gamma=config.gamma, beta_kl=config.beta_kl,
        beta_cubo=config.beta_cubo, family=config.family)
    shuffle_rngs = [philox_rng(seed, nb.STREAM_SHUFFLE) for seed in seeds]
    noise_rngs = [philox_rng(seed, nb.STREAM_NOISE) for seed in seeds]
    params, enc_params = model.parameters(), model.encoder.tensors()
    flat, p_enc = model.flat, model.flat.n_encoder
    adam = AdamState.like(flat.data)
    n, bs = len(normal_x), config.batch_size
    do_outlier = _wants_outlier_updates(method, config, len(outlier_x))
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
                _update(adam, flat.data, flat.grad, config.lr, seeds, epoch, bi)
                for j, term in enumerate((rep.elbo, rep.kl, rep.recon)):
                    sums[:, j] += xb.shape[1] * term.data
                # drop this step's graph before the next forward builds its own
                del loss, rep

            outlier_vals = outlier_lr = log_domains = None
            due = (do_outlier and epoch >= config.warmup_epochs
                   and (epoch - config.warmup_epochs) % config.nd_update_interval == 0)
            if due:
                m = len(outlier_x)
                rows = [rng.permutation(m)[:bs] if m > bs else np.arange(m)
                        for rng in shuffle_rngs]
                rep = md.outlier_update_term(model, outlier_x[np.stack(rows)],
                                             beta_kl=beta, s_elbo=config.s_elbo,
                                             s_cubo=config.s_cubo, rng=noise_rngs)
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
                _clip_members(enc_params, config.clip_norm)
                _update(adam, flat.data[:, :p_enc], flat.grad[:, :p_enc],
                        outlier_lr, seeds, epoch)

            wall_time = time.perf_counter() - t0
            for k, history in enumerate(histories):
                history.records.append(EpochStats(
                    epoch=epoch, elbo=sums[k, 0] / n, kl=sums[k, 1] / n,
                    recon=sums[k, 2] / n,
                    outlier_term=None if outlier_vals is None else outlier_vals[k],
                    lr=config.lr, outlier_lr=outlier_lr, anneal_coeff=beta,
                    wall_time=wall_time,
                    cubo_log_domain=None if log_domains is None else log_domains[k]))

    return model, histories
