"""Optimization loop: Adam, linear KL annealing, a warm-up period before any
outlier updates, an outlier-update interval, gradient clipping and a
step-decayed learning rate on the outlier path.

The normal-term and outlier-term updates are separate optimization steps.
Clipping and the decayed learning rate apply only to the outlier path; the
normal path uses the base learning rate throughout. Everything is driven by
one master seed: member i trains with seed master+i, and each member derives
its init, shuffle and noise streams from that seed alone.
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
    """A loss or gradient went non-finite; carries epoch/batch/term context."""

    def __init__(self, term: str, detail: str = "", epoch=None, batch=None):
        self.term = term
        self.detail = detail
        self.epoch = epoch
        self.batch = batch
        super().__init__(self._message())

    def _message(self) -> str:
        where = f"epoch {self.epoch}" if self.epoch is not None else "unknown epoch"
        if self.batch is not None:
            where += f", batch {self.batch}"
        return f"non-finite {self.term} at {where}" + (f": {self.detail}" if self.detail else "")

    def with_context(self, epoch, batch=None) -> "NumericalAbort":
        self.epoch, self.batch = epoch, batch
        self.args = (self._message(),)
        return self


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
    s_score: int = 64
    master_seed: int = 0
    widths: tuple = (32, 16, 8)
    activation: str = "leaky-relu"
    leak: float = 0.1
    use_bias: bool = True
    family: str = "gaussian"

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be < epochs")
        if self.anneal_epochs > self.epochs:
            raise ValueError("anneal_epochs must be <= epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.nd_update_interval < 1:
            raise ValueError("nd_update_interval must be >= 1")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")

    @property
    def spec(self) -> nb.MlpSpec:
        return nb.MlpSpec(widths=self.widths, activation=self.activation,
                          leak=self.leak, use_bias=self.use_bias)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**{k: (tuple(v) if k == "widths" else v) for k, v in d.items()})


@dataclass
class AdamState:
    """First/second moment buffers per parameter and one step counter."""

    ms: list
    vs: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(ms=[np.zeros_like(p.data) for p in params],
                   vs=[np.zeros_like(p.data) for p in params])


def adam_step(state: AdamState, params, grads, lr: float) -> None:
    """One bias-corrected Adam update; params with a None grad are skipped."""
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericalAbort("gradient", f"parameter {i}")
        m = state.ms[i]
        v = state.vs[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


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


def _train_member(model: md.SsadModel, config: TrainConfig,
                  normal_x: np.ndarray, outlier_x: np.ndarray) -> TrainHistory:
    seed = model.seed
    shuffle_rng = philox_rng(seed, nb.STREAM_SHUFFLE)
    noise_rng = philox_rng(seed, nb.STREAM_NOISE)
    params = model.parameters()
    adam = AdamState.for_params(params)
    n = len(normal_x)
    do_outlier = _wants_outlier_updates(model.method, config, len(outlier_x))
    history = TrainHistory(seed=seed)

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        beta = kl_anneal_coeff(epoch, config.anneal_epochs, config.beta_kl)
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(3)  # elbo, kl, recon weighted by batch size
        for bi, lo in enumerate(range(0, n, config.batch_size)):
            xb = normal_x[perm[lo:lo + config.batch_size]]
            loss, rep = md.normal_term(model, xb, beta_kl=beta,
                                       n_samples=config.s_elbo, rng=noise_rng)
            if not np.isfinite(loss.data):
                raise NumericalAbort("normal-term loss", f"value {loss.data}",
                                     epoch=epoch, batch=bi)
            model.zero_grads()
            gc.backward(loss)
            try:
                adam_step(adam, params, [t.grad for t in params], config.lr)
            except NumericalAbort as e:
                raise e.with_context(epoch, bi)
            w = len(xb)
            sums += w * np.array([rep.elbo.item(), rep.kl.item(), rep.recon.item()])

        outlier_val = outlier_lr = log_domain = None
        due = (do_outlier and epoch >= config.warmup_epochs
               and (epoch - config.warmup_epochs) % config.nd_update_interval == 0)
        if due:
            xo = outlier_x
            if len(xo) > config.batch_size:
                pick = shuffle_rng.permutation(len(xo))[:config.batch_size]
                xo = xo[pick]
            rep = md.outlier_update_term(model, xo, beta_kl=beta,
                                         s_elbo=config.s_elbo,
                                         s_cubo=config.s_cubo, rng=noise_rng)
            if not np.isfinite(rep.loss.data):
                raise NumericalAbort("outlier-term loss", f"value {rep.loss.data}",
                                     epoch=epoch)
            model.zero_grads()
            gc.backward(rep.loss)
            dec_grads = [t.grad for t in model.decoder.tensors()]
            if any(g is not None for g in dec_grads):
                raise AssertionError("outlier update produced a decoder gradient")
            outlier_lr = outlier_path_lr(config.lr, epoch,
                                         config.lr_decay_every,
                                         config.lr_decay_factor)
            grads = clip_gradients([t.grad for t in params], config.clip_norm)
            try:
                adam_step(adam, params, grads, outlier_lr)
            except NumericalAbort as e:
                raise e.with_context(epoch)
            outlier_val = rep.loss.item()
            log_domain = rep.cubo_log_domain

        history.records.append(EpochStats(
            epoch=epoch, elbo=sums[0] / n, kl=sums[1] / n, recon=sums[2] / n,
            outlier_term=outlier_val, lr=config.lr, outlier_lr=outlier_lr,
            anneal_coeff=beta, wall_time=time.perf_counter() - t0,
            cubo_log_domain=log_domain))
    return history


def train(config: TrainConfig, dataset: SsadDataset, method: str):
    """Train an ensemble of K members on the dataset's training streams.

    Returns (Ensemble, list of TrainHistory). Member i uses seed
    master_seed + i for init, shuffling and reparameterization noise.
    """
    if method not in md.METHODS:
        raise ValueError(f"unknown method {method!r}")
    normal_x = dataset.normal_stream()
    outlier_x = dataset.labeled_outliers()
    if len(normal_x) == 0:
        raise ValueError("training set has no normal rows")

    members, histories = [], []
    for i in range(config.ensemble_size):
        seed = config.master_seed + i
        model = md.SsadModel.create(
            config.spec, dataset.dim, method, seed=seed, alpha=config.alpha,
            gamma=config.gamma, beta_kl=config.beta_kl,
            beta_cubo=config.beta_cubo, family=config.family)
        histories.append(_train_member(model, config, normal_x, outlier_x))
        members.append(model)
    return md.Ensemble(members), histories
