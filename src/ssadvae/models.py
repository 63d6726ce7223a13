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
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import gradcore as gc
from . import netblocks as nb
from . import vbounds as vb
from .datakit import DataError
from .gradcore import Tensor

METHODS = ("vae", "mml", "dp", "hybrid")

# The CUBO is optimized in exp domain only between these two limits on a
# member's largest per-sample log value. Above LOG_EXP_LIMIT exp() would
# overflow. Below CUBO_LOG_DOMAIN_MIN the exp-domain gradients, which carry
# the factor exp(log-value), are suppressed >100x against the normal-path
# gradients sharing the Adam moments; sum-reduced reconstruction losses put
# tabular data here almost always. Outside the band the log-domain form,
# which has the same optima by monotonicity, is optimized instead.
LOG_EXP_LIMIT = math.log(np.finfo(np.float64).max) - 10.0
CUBO_LOG_DOMAIN_MIN = -5.0


@dataclass
class FlatParams:
    """The (K, P) buffers that a stacked model's parameters and their
    gradients are views into. Member k is row k; the encoder's tensors fill
    columns [0, n_encoder) in ``parameters()`` order, the decoder's the rest."""

    data: np.ndarray
    grad: np.ndarray
    n_encoder: int


@dataclass
class SsadModel:
    encoder: nb.EncoderParams
    decoder: nb.DecoderParams
    method: str
    # the outlier prior mean is alpha * 1 (dp, hybrid); normals use mean 0
    alpha: float
    gamma: float = 1.0
    beta_kl: float = 0.05
    beta_cubo: float = 0.05
    seed: int = 0
    # set by stack_members: the buffers behind the stacked parameters
    flat: Optional[FlatParams] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method in ("dp", "hybrid") and self.alpha == 0.0:
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
        return cls(enc, dec, method, alpha, gamma=gamma, beta_kl=beta_kl,
                   beta_cubo=beta_cubo, seed=seed)


def stack_members(members: list) -> SsadModel:
    """One model whose parameters hold the members' along a new leading
    axis: weights (K, fan_in, fan_out), biases (K, 1, fan_out). Each one is
    a view into ``flat.data`` and writes its gradient into the matching
    view of ``flat.grad``."""
    stacked = copy.deepcopy(members[0])
    slots = stacked.parameters()
    shapes = [np.atleast_2d(t.data).shape for t in slots]
    sizes = [math.prod(shape) for shape in shapes]
    k, n_enc = len(members), len(stacked.encoder.tensors())
    data, grad = np.empty((k, sum(sizes))), np.zeros((k, sum(sizes)))
    off = 0
    for slot, shape, size, *ts in zip(slots, shapes, sizes,
                                      *(m.parameters() for m in members)):
        cols = slice(off, off + size)
        slot.data = data[:, cols].reshape(k, *shape)
        slot.data[...] = np.stack([np.atleast_2d(t.data) for t in ts])
        slot.grad_view = grad[:, cols].reshape(k, *shape)
        off += size
    stacked.flat = FlatParams(data, grad, n_encoder=sum(sizes[:n_enc]))
    return stacked


def unstack_members(stacked: SsadModel, members: list) -> None:
    """Copy member k's slice of every stacked parameter back into members[k];
    no member array shares memory with the stacked buffers."""
    for slot, *ts in zip(stacked.parameters(), *(m.parameters() for m in members)):
        for k, t in enumerate(ts):
            t.data = slot.data[k].reshape(t.data.shape).copy()


@dataclass
class LossReport:
    loss: Tensor
    # None: no CUBO term in the loss; else one bool per member
    cubo_log_domain: Optional[list] = None


def cubo_objective(rep: vb.CuboReport, k: int):
    """Member k's optimization target from a CUBO report over stacked
    members, and whether it is the log-domain one.

    The exp-domain value, mean(exp(per-sample log value)), is used when
    member k's largest per-sample log value lies within
    [CUBO_LOG_DOMAIN_MIN, LOG_EXP_LIMIT]; otherwise the log-domain value.
    Only the exp form slices member k's row of the per-sample tensor, so
    another member's overflow cannot reach its gradients.
    """
    top = rep.per_sample_log.data[k].max()
    if top > LOG_EXP_LIMIT or top < CUBO_LOG_DOMAIN_MIN:
        return gc.take(rep.log_value, k), True
    return gc.reduce_mean(gc.exp(gc.take(rep.per_sample_log, k)), axis=-1), False


def normal_term(model: SsadModel, x, beta_kl: Optional[float] = None,
                n_samples: int = 1, rng=None, noise=None):
    """Negative ELBO of a normal batch under the zero-mean prior."""
    beta = model.beta_kl if beta_kl is None else beta_kl
    rep = vb.elbo(model.encoder, model.decoder, x, 0.0, beta,
                  n_samples=n_samples, rng=rng, noise=noise)
    return gc.neg(rep.elbo), rep


def outlier_update_term(model: SsadModel, outlier_x,
                        beta_kl: Optional[float] = None, s_elbo: int = 1,
                        s_cubo: int = 8, rng=None) -> LossReport:
    """The outlier-only objective used on novelty-detection update steps,
    for K stacked members (``stack_members``): ``outlier_x`` is
    (K, batch, d) and ``rng`` holds one generator per member.

    mml: gamma * CUBO(outliers) under the zero-mean prior, each member in
    the domain ``cubo_objective`` picks; dp: the negative outlier ELBO under
    the alpha*1 prior; hybrid: both. The decoder is a frozen constant
    throughout, so a method's full loss is normal_term plus this term, and
    only the normal term trains the decoder.
    """
    if model.method == "vae":
        raise ValueError(f"method {model.method!r} has no outlier update")
    if model.flat is None:
        raise ValueError("outlier_update_term takes stacked members; "
                         "wrap a lone model as stack_members([model])")
    loss = log_domain = None
    if model.method in ("dp", "hybrid"):  # hybrid draws this noise first
        beta = model.beta_kl if beta_kl is None else beta_kl
        rep_o = vb.elbo(model.encoder, model.decoder.detached(), outlier_x,
                        model.alpha, beta, n_samples=s_elbo, rng=rng)
        loss = gc.neg(rep_o.elbo)
    if model.method == "mml" or (model.method == "hybrid" and model.gamma > 0.0):
        cubo = vb.cubo_loss(model.encoder, model.decoder, outlier_x,
                            model.beta_cubo, n_samples=s_cubo, rng=rng)
        picks = [cubo_objective(cubo, k) for k in range(len(cubo.log_value.data))]
        target, log_domain = gc.stack([t for t, _ in picks]), [d for _, d in picks]
        weighted = gc.mul(target, model.gamma)
        loss = weighted if loss is None else gc.add(weighted, loss)
    return LossReport(loss=loss, cubo_log_domain=log_domain)


# ---------------------------------------------------------------------------
# scoring

def score(model: SsadModel, x, n_samples: int = 64,
          seed: Optional[int] = None, batch_size: int = 1024) -> np.ndarray:
    """Per-sample anomaly score: the ELBO under the zero-mean prior at
    beta_kl = 1 (a genuine likelihood bound). Higher means more normal.

    Deterministic for a given seed; defaults to the model's own seed so
    ensemble scoring does not depend on member order.

    Memory stays proportional to n, not S * n: rows are encoded once, in
    batches of ``batch_size``; then sample s draws its (n, d_z) noise block,
    which holds the numbers one (S, n, d_z) draw puts at [s], and each batch
    is decoded with its rows of that block.

    The decoder passes run on plain arrays (``nb.decode_array``) with the
    operations of the graph path, ``vb.elbo`` per batch, in its order, so a
    score has the bytes that path gives it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (n, d) matrix, got shape {x.shape}")
    rng = nb.philox_rng(model.seed if seed is None else seed, nb.STREAM_SCORE)
    n, d_z = x.shape[0], model.encoder.latent_dim
    if n == 0:
        return np.empty(0)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    dec = model.decoder
    starts = range(0, n, batch_size)
    batches = [x[lo:lo + batch_size] for lo in starts]
    enc = model.encoder.detached()  # constants only: no node is recorded
    posts = [nb.encode(enc, xb) for xb in batches]
    kls = [vb.kl_to_gaussian_prior(post).data for post in posts]
    layers = nb.decoder_arrays(dec, len(batches[0]))
    recon = [None] * len(batches)
    for _ in range(n_samples):
        eps = rng.standard_normal((n, d_z))
        for k, (lo, post, xb) in enumerate(zip(starts, posts, batches)):
            z = nb.reparameterize_array(post, eps[lo:lo + len(xb)])
            term = vb.nll_array(nb.decode_array(dec.spec, layers, z), xb, dec.family)
            if recon[k] is None:
                recon[k] = term
            else:
                recon[k] += term
    if n_samples > 1:
        recon = [r * (1.0 / n_samples) for r in recon]
    # the per-row ELBO at beta_kl = 1, as BoundReport.per_sample computes it
    return np.concatenate([(-r) - kl * 1.0 for r, kl in zip(recon, kls)])


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
        "alpha": first.alpha,
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
    manifest or member file raises DataError naming that file; so does a
    member sidecar whose in_dim, out_dim, spec or family differs from the
    manifest's."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    path, named = manifest_path, [manifest_path]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        want = {"in_dim": manifest["in_dim"], "out_dim": manifest["in_dim"],
                "spec": nb.MlpSpec.from_dict(manifest["spec"]),
                "family": manifest["family"]}
        params = []
        for i in range(len(manifest["seeds"])):
            stem = os.path.join(dirpath, f"member_{i:02d}")
            path, named = stem + ".json", [stem + ".bin", stem + ".json"]
            enc, dec = nb.load_params(stem + ".bin", path)
            got = {"in_dim": enc.in_dim, "out_dim": dec.out_dim,
                   "spec": enc.spec, "family": dec.family}
            for key, value in want.items():
                if got[key] != value:
                    raise ValueError(f"{path}: {key} {got[key]!r} does not "
                                     f"match manifest.json's {value!r}")
            params.append((enc, dec))
        path, named = manifest_path, [manifest_path]
        members = [SsadModel(
            enc, dec, manifest["method"], manifest["alpha"],
            gamma=manifest["gamma"], beta_kl=manifest["beta_kl"],
            beta_cubo=manifest["beta_cubo"], seed=seed)
            for (enc, dec), seed in zip(params, manifest["seeds"])]
        return Ensemble(members), manifest
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        if not any(p in detail for p in named):
            detail = f"{path}: {detail}"
        raise DataError(detail) from exc
