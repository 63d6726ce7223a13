"""The SSAD objectives (max-min-likelihood and dual-prior), decoder-freezing
semantics, anomaly scoring, and ensembles.

Both objectives share one encoder between the normal and outlier terms, and
neither lets the outlier term touch decoder parameters: ``outlier_update_term``
runs both of its bounds through one detached decoder view, so those
gradients are exactly zero by construction rather than by cancellation.
A bound's inputs are made here alone (``encode_batch``, ``draw_noise``);
``vbounds`` bounds what it is handed.

A model is K >= 1 ensemble members stacked along a leading axis: the
inputs are (K, batch, d), the losses are (K,) vectors, and member k's
entry and gradients equal its own K = 1 evaluation bit for bit. The same
stack is trained, saved, loaded and scored; scoring and saving read
member k through constant views (``EncoderParams.member``).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import gradcore as gc
from . import netblocks as nb
from . import vbounds as vb
from .datakit import DataError, atomic_write
from .fanout import fan_out
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
    """The (K, P) buffers that a model's parameters and their gradients are
    views into. Member k is row k; the encoder's tensors fill columns
    [0, n_encoder) in ``parameters()`` order, the decoder's the rest."""

    data: np.ndarray
    grad: np.ndarray
    n_encoder: int


@dataclass
class SsadModel:
    """K >= 1 members, member k trained from ``seeds[k]``: their weights and
    seeds, and nothing of the objective they were trained with, which is
    the ``TrainConfig``'s. Weights are (K, fan_in, fan_out) and biases
    (K, 1, fan_out), each a view into ``flat.data`` that writes its
    gradient into the matching view of ``flat.grad``."""

    encoder: nb.EncoderParams
    decoder: nb.DecoderParams
    seeds: list
    flat: FlatParams = field(repr=False, compare=False)

    def __post_init__(self):
        if not all(type(s) is int for s in self.seeds):
            raise ValueError(f"member seeds must be integers, got {self.seeds}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("member seeds must be non-empty and pairwise "
                             f"distinct, got {self.seeds}")

    def parameters(self) -> list:
        return self.encoder.tensors() + self.decoder.tensors()

    def zero_grads(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    def rows(self, lo: int, hi: int) -> "SsadModel":
        """Members lo..hi-1 as a model whose parameters and gradients are
        views into rows lo:hi of this model's ``flat`` buffers, so training
        it trains those rows in place."""
        def view(t):
            v = gc.parameter(t.data[lo:hi])
            v.grad_view = t.grad_view[lo:hi]
            return v

        def layers(params):
            return replace(params, layers=[
                (view(w), None if b is None else view(b)) for w, b in params.layers])

        flat = FlatParams(self.flat.data[lo:hi], self.flat.grad[lo:hi],
                          self.flat.n_encoder)
        return replace(self, encoder=layers(self.encoder),
                       decoder=layers(self.decoder), seeds=self.seeds[lo:hi],
                       flat=flat)

    @classmethod
    def create(cls, spec: nb.MlpSpec, in_dim: int, seeds: list,
               family: str) -> "SsadModel":
        """Freshly initialized members, member k from ``seeds[k]``."""
        members = [(nb.init_encoder(spec, in_dim, seed),
                    nb.init_decoder(spec, in_dim, seed, family=family))
                   for seed in seeds]
        return _stacked(members, list(seeds))


def _stacked(members: list, seeds: list) -> SsadModel:
    """The model holding K unstacked (encoder, decoder) pairs along a new
    leading axis, member k seeded by ``seeds[k]``; member 0's tensors
    become its parameters."""
    if not members:
        raise ValueError(f"member seeds must be non-empty, got {seeds}")
    enc, dec = members[0]
    data = np.stack([np.concatenate([t.data.ravel() for t in e.tensors() + d.tensors()])
                     for e, d in members])
    grad = np.zeros_like(data)
    flat = FlatParams(data, grad, sum(t.data.size for t in enc.tensors()))
    off = 0
    for t in enc.tensors() + dec.tensors():
        shape, size = (len(members), *np.atleast_2d(t.data).shape), t.data.size
        t.data = data[:, off:off + size].reshape(shape)
        t.grad_view = grad[:, off:off + size].reshape(shape)
        off += size
    return SsadModel(enc, dec, seeds, flat)


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


def encode_batch(enc: nb.EncoderParams, dec: nb.DecoderParams, x):
    """The posterior of the rows ``x`` under ``enc``, and the closure that
    gives a latent's per-sample reconstruction loss of ``x`` under ``dec``:
    the two inputs of a bound but its noise."""
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    return (nb.encode(enc, xt),
            lambda z: vb.reconstruction_loss(nb.decode(dec, z), xt, dec.family))


def draw_noise(n_samples: int, post: nb.GaussianPosterior, rng) -> np.ndarray:
    """Noise of shape (S, K, batch, d_z) for K stacked members: ``rng``
    holds one generator per member, and member k draws its (S, batch, d_z)
    block from its own stream."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if post.mu.data.ndim != 3 or len(rng) != post.mu.shape[0]:
        raise ValueError("rng must hold one generator per stacked member, "
                         f"for posterior shape {post.mu.shape}")
    out = np.empty((len(rng), n_samples, post.batch, post.dim))
    for r, block in zip(rng, out):
        r.standard_normal(out=block)
    return out.swapaxes(0, 1)


def normal_term(model: SsadModel, x, beta_kl: float, n_samples: int, rng):
    """Negative ELBO of a normal batch under the zero-mean prior."""
    post, recon_fn = encode_batch(model.encoder, model.decoder, x)
    rep = vb.elbo(post, recon_fn, 0.0, beta_kl, draw_noise(n_samples, post, rng))
    return gc.neg(rep.elbo), rep


def outlier_update_term(model: SsadModel, outlier_x, config, beta_kl: float,
                        rng) -> LossReport:
    """The outlier-only objective used on novelty-detection update steps:
    ``outlier_x`` is (K, batch, d) and ``rng`` holds one generator per
    member. ``config`` is the ``trainer.TrainConfig`` whose method,
    ``alpha``, ``gamma``, ``beta_cubo``, ``s_elbo`` and ``s_cubo`` set the
    objective; ``beta_kl`` is the epoch's annealed KL coefficient.

    mml: gamma * CUBO(outliers) under the zero-mean prior, each member in
    the domain ``cubo_objective`` picks; dp: the negative outlier ELBO under
    the alpha*1 prior; hybrid: both, each term encoding the batch on its
    own. The decoder is frozen once, here, for both terms, so a method's
    full loss is normal_term plus this term, and only the normal term
    trains the decoder.
    """
    method = config.method
    if method == "vae":
        raise ValueError(f"method {method!r} has no outlier update")
    frozen = model.decoder.detached()
    loss = log_domain = None
    if method in ("dp", "hybrid"):  # hybrid draws this noise first
        post, recon_fn = encode_batch(model.encoder, frozen, outlier_x)
        rep_o = vb.elbo(post, recon_fn, config.alpha, beta_kl,
                        draw_noise(config.s_elbo, post, rng))
        loss = gc.neg(rep_o.elbo)
    if method == "mml" or (method == "hybrid" and config.gamma > 0.0):
        post, recon_fn = encode_batch(model.encoder, frozen, outlier_x)
        cubo = vb.cubo_loss(post, recon_fn, config.beta_cubo,
                            draw_noise(config.s_cubo, post, rng))
        picks = [cubo_objective(cubo, k) for k in range(len(cubo.log_value.data))]
        target, log_domain = gc.stack([t for t, _ in picks]), [d for _, d in picks]
        weighted = gc.mul(target, config.gamma)
        loss = weighted if loss is None else gc.add(weighted, loss)
    return LossReport(loss=loss, cubo_log_domain=log_domain)


# ---------------------------------------------------------------------------
# scoring

def _checked_rows(model: SsadModel, x, n_samples: int) -> np.ndarray:
    """``x`` as a float64 (n, in_dim) matrix; a ValueError for another
    shape or for n_samples < 1."""
    x = np.asarray(x, dtype=np.float64)
    in_dim = model.encoder.in_dim
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"expected a (n, {in_dim}) matrix, got shape {x.shape}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return x


def score(model: SsadModel, x, k: int, n_samples: int = 64,
          batch_size: int = 1024) -> np.ndarray:
    """Member k's per-sample anomaly score: the ELBO under the zero-mean
    prior at beta_kl = 1 (a genuine likelihood bound). Higher means more
    normal.

    Deterministic: the noise comes from the member's own seed, so ensemble
    scoring does not depend on member order.

    Memory stays proportional to n, not S * n: rows are encoded once, in
    batches of ``batch_size``; then sample s draws its (n, d_z) noise block
    from the member's Philox stream into one reused buffer, which holds the
    numbers one (S, n, d_z) draw puts at [s] since Philox draws concatenate,
    and each batch is decoded with its rows of that block.

    The decoder passes run on plain arrays (``nb.decode_array``) with the
    operations of the graph path (``vb.elbo`` on ``encode_batch``'s posterior
    and closure, per batch) in its order, so a score has the bytes that path
    gives it.
    """
    x = _checked_rows(model, x, n_samples)
    n, d_z = x.shape[0], model.encoder.latent_dim
    if n == 0:
        return np.empty(0)
    # constant views of member k: no node is recorded
    enc, dec = model.encoder.member(k), model.decoder.member(k)
    starts = range(0, n, batch_size)
    batches = [x[lo:lo + batch_size] for lo in starts]
    recon = [None] * len(batches)
    rng, eps = nb.philox_rng(model.seeds[k], nb.STREAM_SCORE), np.empty((n, d_z))
    # a far-out row overflows to a score of -inf, which needs no numpy warning
    with np.errstate(over="ignore"):
        posts = [nb.encode(enc, xb) for xb in batches]
        kls = [vb.kl_to_gaussian_prior(post).data for post in posts]
        layers = nb.decoder_arrays(dec, len(batches[0]))
        for _ in range(n_samples):
            rng.standard_normal(out=eps)
            for i, (lo, post, xb) in enumerate(zip(starts, posts, batches)):
                z = nb.reparameterize_array(post, eps[lo:lo + len(xb)])
                term = vb.nll_array(nb.decode_array(dec.spec, layers, z), xb,
                                    dec.family)
                if recon[i] is None:
                    recon[i] = term
                else:
                    recon[i] += term
    if n_samples > 1:
        recon = [r * (1.0 / n_samples) for r in recon]
    # the per-row ELBO at beta_kl = 1, as BoundReport.per_sample computes it
    return np.concatenate([(-r) - kl * 1.0 for r, kl in zip(recon, kls)])


def ensemble_score(model: SsadModel, x, n_samples: int = 64,
                   batch_size: int = 1024) -> np.ndarray:
    """The mean of the member scores. Each member's score depends only on
    its seed, and the mean adds the scores in member order.

    The input checks run first, and no rows give no scores. The members are
    scored through ``fanout.fan_out`` as unstacked work, one member per
    process up to 4 per usable CPU; of the members' errors the first in
    member order is raised.
    """
    x = _checked_rows(model, x, n_samples)
    if len(x) == 0:
        return np.empty(0)

    def scores(group):
        return [score(model, x, k, n_samples, batch_size) for k in group]

    outcomes = fan_out(scores, list(range(len(model.seeds))), "scoring of members",
                       stacked=False)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return sum(s for group in outcomes for s in group) / len(model.seeds)


# ---------------------------------------------------------------------------
# persistence

def save_ensemble(dirpath, model: SsadModel, extra: Optional[dict] = None) -> None:
    """K member param files plus one manifest.json, which records the
    member seeds, the architecture (``spec``, ``in_dim``, ``family``) and
    the caller's ``extra`` keys. The model holds no objective: a caller
    that wants its training config on record passes it in ``extra``, as
    the CLI's ``train`` does.

    An existing manifest is removed before the first member is written, and
    the new one is written to a temporary file and renamed into place last,
    so a write cut short leaves no manifest and nothing that loads."""
    os.makedirs(dirpath, exist_ok=True)
    manifest_path = os.path.join(dirpath, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    manifest = {"seeds": model.seeds, "spec": model.encoder.spec.to_dict(),
                "in_dim": model.encoder.in_dim, "family": model.decoder.family}
    if extra:
        manifest.update(extra)
    for k in range(len(model.seeds)):
        nb.save_params(os.path.join(dirpath, f"member_{k:02d}.bin"),
                       model.encoder.member(k), model.decoder.member(k))
    with atomic_write(manifest_path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ensemble(dirpath) -> tuple:
    """Returns (SsadModel, manifest dict); the manifest's spec, in_dim and
    family describe every member file. The objective keys that manifests
    once held beside these (method, alpha, gamma, beta_kl, beta_cubo) are
    ignored, so such a directory loads and scores as before. A missing,
    corrupt or inconsistent manifest or member file raises DataError naming
    that file."""
    path = manifest_path = os.path.join(dirpath, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        spec = nb.MlpSpec.from_dict(manifest["spec"])
        in_dim, family = manifest["in_dim"], manifest["family"]
        if type(in_dim) is not int or in_dim < 1:
            raise ValueError(f"in_dim must be an integer >= 1, got {in_dim!r}")
        if family not in nb.FAMILIES:
            raise ValueError(f"family must be one of {nb.FAMILIES}, got {family!r}")
        members = []
        for i in range(len(manifest["seeds"])):
            path = os.path.join(dirpath, f"member_{i:02d}.bin")
            members.append(nb.load_params(path, spec, in_dim, family))
        path = manifest_path
        model = _stacked(members, manifest["seeds"])
        return model, manifest
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        if path not in detail:
            detail = f"{path}: {detail}"
        raise DataError(detail) from exc
