"""The SSAD objectives (max-min-likelihood and dual-prior), decoder-freezing
semantics, anomaly scoring, and ensembles.

Both objectives share one encoder between the normal and outlier terms, and
neither lets the outlier term touch decoder parameters: the outlier passes
run through a detached decoder view, so those gradients are exactly zero by
construction rather than by cancellation.

The losses also take K members stacked into one model (``stack_members``):
the inputs are (K, batch, d), the losses are (K,) vectors, and member k's
entry and gradients equal its own unstacked evaluation bit for bit.
"""
from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gradcore as gc
from . import netblocks as nb
from . import vbounds as vb
from .datakit import DataError
from .gradcore import Tensor

METHODS = ("vae", "mml", "dp", "hybrid")

# exp-domain CUBO gradients carry the factor exp(log-value); once that factor
# is below ~e^-5 they are suppressed >100x against the normal-path gradients
# sharing the Adam moments, so the log-domain form (same optima by
# monotonicity) is optimized instead. Sum-reduced reconstruction losses put
# tabular data here almost always.
CUBO_LOG_DOMAIN_MIN = -5.0


@dataclass
class SsadModel:
    encoder: nb.EncoderParams
    decoder: nb.DecoderParams
    method: str
    prior: vb.PriorSpec
    gamma: float = 1.0
    beta_kl: float = 0.05
    beta_cubo: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method in ("dp", "hybrid") and self.prior.alpha == 0.0:
            raise ValueError(f"method {self.method!r} requires a nonzero prior alpha")
        if self.method in ("mml", "hybrid") and self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")

    def parameters(self) -> list:
        return self.encoder.tensors() + self.decoder.tensors()

    def zero_grads(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    @classmethod
    def create(cls, spec: nb.MlpSpec, in_dim: int, method: str, seed: int,
               alpha: float = 0.0, gamma: float = 1.0, beta_kl: float = 0.05,
               beta_cubo: float = 0.05, family: str = "gaussian") -> "SsadModel":
        enc = nb.init_encoder(spec, in_dim, seed)
        dec = nb.init_decoder(spec, in_dim, seed, family=family)
        prior = vb.PriorSpec(dim=spec.latent_dim, alpha=alpha)
        return cls(enc, dec, method, prior, gamma=gamma, beta_kl=beta_kl,
                   beta_cubo=beta_cubo, seed=seed)


def stack_members(members: list) -> SsadModel:
    """One model whose parameters hold the members' along a new leading
    axis: weights (K, fan_in, fan_out), biases (K, 1, fan_out)."""
    stacked = copy.deepcopy(members[0])
    for slot, *ts in zip(stacked.parameters(), *(m.parameters() for m in members)):
        slot.data = np.stack([np.atleast_2d(t.data) for t in ts])
    return stacked


def unstack_members(stacked: SsadModel, members: list) -> None:
    """Copy member k's slice of every stacked parameter back into members[k]."""
    for slot, *ts in zip(stacked.parameters(), *(m.parameters() for m in members)):
        for k, t in enumerate(ts):
            t.data = slot.data[k].reshape(t.data.shape).copy()


@dataclass
class LossReport:
    loss: Tensor
    outlier_elbo: Optional[vb.BoundReport] = None
    cubo: Optional[vb.CuboReport] = None
    # None: no CUBO term in the loss; one bool per member when stacked
    cubo_log_domain: Optional[bool | list] = None


def cubo_objective(rep: vb.CuboReport):
    """Pick the optimization target from a CUBO report.

    The exp-domain value is used when it is representable and its gradient
    has not underflowed; otherwise the log-domain value, which shares its
    optima by monotonicity of exp.
    """
    top = rep.per_sample_log.data.max()
    if rep.overflowed or top < CUBO_LOG_DOMAIN_MIN:
        return rep.log_value, True
    return rep.value, False


def _cubo_target(cubo: vb.CuboReport):
    """``cubo_objective`` once per member: stacked members each pick their
    own domain, and their targets are stacked into a (K,) vector."""
    if cubo.log_value.data.ndim == 0:
        return cubo_objective(cubo)
    picks = [cubo_objective(cubo.member(k)) for k in range(len(cubo.log_value.data))]
    return gc.stack([t for t, _ in picks]), [d for _, d in picks]


def normal_term(model: SsadModel, x, beta_kl: Optional[float] = None,
                n_samples: int = 1, rng=None, noise=None):
    """Negative ELBO of a normal batch under the zero-mean prior."""
    beta = model.beta_kl if beta_kl is None else beta_kl
    rep = vb.elbo(model.encoder, model.decoder, x, None, beta,
                  n_samples=n_samples, rng=rng, noise=noise)
    return gc.neg(rep.elbo), rep


def outlier_update_term(model: SsadModel, outlier_x,
                        beta_kl: Optional[float] = None, s_elbo: int = 1,
                        s_cubo: int = 8, rng=None) -> LossReport:
    """The outlier-only objective used on novelty-detection update steps.

    mml: gamma * CUBO(outliers) under the zero-mean prior; dp: the negative
    outlier ELBO under the alpha*1 prior; hybrid: both. The decoder is a
    frozen constant throughout, so a method's full loss is normal_term plus
    this term, and only the normal term trains the decoder.
    """
    if model.method == "mml":
        cubo = vb.cubo_loss(model.encoder, model.decoder, outlier_x, None,
                            model.beta_cubo, n_samples=s_cubo, rng=rng)
        target, log_domain = _cubo_target(cubo)
        loss = gc.mul(target, model.gamma)
        return LossReport(loss=loss, cubo=cubo, cubo_log_domain=log_domain)
    if model.method in ("dp", "hybrid"):
        beta = model.beta_kl if beta_kl is None else beta_kl
        rep_o = vb.elbo(model.encoder, model.decoder.detached(), outlier_x,
                        model.prior.mu_outlier, beta, n_samples=s_elbo, rng=rng)
        loss = gc.neg(rep_o.elbo)
        report = LossReport(loss=loss, outlier_elbo=rep_o)
        if model.method == "hybrid" and model.gamma > 0.0:
            cubo = vb.cubo_loss(model.encoder, model.decoder, outlier_x, None,
                                model.beta_cubo, n_samples=s_cubo, rng=rng)
            target, log_domain = _cubo_target(cubo)
            report.loss = gc.add(gc.mul(target, model.gamma), report.loss)
            report.cubo = cubo
            report.cubo_log_domain = log_domain
        return report
    raise ValueError(f"method {model.method!r} has no outlier update")


# ---------------------------------------------------------------------------
# scoring

def score(model: SsadModel, x, n_samples: int = 64,
          seed: Optional[int] = None, batch_size: int = 1024) -> np.ndarray:
    """Per-sample anomaly score: the ELBO under the zero-mean prior at
    beta_kl = 1 (a genuine likelihood bound). Higher means more normal.

    Deterministic for a given seed; defaults to the model's own seed so
    ensemble scoring does not depend on member order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (n, d) matrix, got shape {x.shape}")
    rng = nb.philox_rng(model.seed if seed is None else seed, nb.STREAM_SCORE)
    d_z = model.encoder.latent_dim
    noise = rng.standard_normal((n_samples, x.shape[0], d_z))
    out = np.empty(x.shape[0])
    with gc.no_grad():
        for lo in range(0, x.shape[0], batch_size):
            hi = min(lo + batch_size, x.shape[0])
            rep = vb.elbo(model.encoder, model.decoder, x[lo:hi], None,
                          beta_kl=1.0, n_samples=n_samples,
                          noise=noise[:, lo:hi, :])
            out[lo:hi] = rep.per_sample.data
    return out


@dataclass
class Ensemble:
    members: list

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        seeds = [m.seed for m in self.members]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"member seeds must be pairwise distinct, got {seeds}")
        methods = {m.method for m in self.members}
        if len(methods) != 1:
            raise ValueError(f"members disagree on method: {methods}")
        first = self.members[0].encoder
        for m in self.members[1:]:
            if m.encoder.spec != first.spec or m.encoder.in_dim != first.in_dim:
                raise ValueError("members disagree on architecture")

    @property
    def method(self) -> str:
        return self.members[0].method


def ensemble_score(ens: Ensemble, x, n_samples: int = 64,
                   batch_size: int = 1024) -> np.ndarray:
    """Arithmetic mean of member scores; member order is irrelevant."""
    total = np.zeros(np.asarray(x).shape[0])
    for m in ens.members:
        total = total + score(m, x, n_samples=n_samples, batch_size=batch_size)
    return total / len(ens.members)


# ---------------------------------------------------------------------------
# persistence

def save_ensemble(dirpath, ens: Ensemble, extra: Optional[dict] = None) -> None:
    """K member param files plus one manifest.json describing the run."""
    os.makedirs(dirpath, exist_ok=True)
    first = ens.members[0]
    manifest = {
        "method": first.method,
        "gamma": first.gamma,
        "alpha": first.prior.alpha,
        "beta_kl": first.beta_kl,
        "beta_cubo": first.beta_cubo,
        "seeds": [m.seed for m in ens.members],
        "spec": first.encoder.spec.to_dict(),
        "in_dim": first.encoder.in_dim,
        "family": first.decoder.family,
    }
    if extra:
        manifest.update(extra)
    for i, m in enumerate(ens.members):
        nb.save_params(os.path.join(dirpath, f"member_{i:02d}.bin"),
                       os.path.join(dirpath, f"member_{i:02d}.json"),
                       m.encoder, m.decoder)
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ensemble(dirpath) -> tuple:
    """Returns (Ensemble, manifest dict). A missing, corrupt or inconsistent
    manifest or member file raises DataError naming that file."""
    path = os.path.join(dirpath, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        members = []
        for i, seed in enumerate(manifest["seeds"]):
            path = os.path.join(dirpath, f"member_{i:02d}.bin")
            enc, dec = nb.load_params(path, path[:-len(".bin")] + ".json")
            prior = vb.PriorSpec(dim=enc.spec.latent_dim, alpha=manifest["alpha"])
            members.append(SsadModel(
                enc, dec, manifest["method"], prior, gamma=manifest["gamma"],
                beta_kl=manifest["beta_kl"], beta_cubo=manifest["beta_cubo"],
                seed=seed))
        return Ensemble(members), manifest
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = str(exc)
        raise DataError(detail if path in detail else f"{path}: {detail}") from exc
