"""Variational quantities: reconstruction loss, closed-form KL, ELBO, and
the exponentiated chi-square upper-bound (CUBO) loss.

The KL term admits a Gaussian prior with arbitrary mean and identity
covariance, which is what the dual-prior objective needs. The CUBO loss is
evaluated in log domain throughout and exponentiated once at the end; the
log-domain value is always reported alongside so callers can optimize it
directly when the exponentiation would overflow (or vanish), which by
monotonicity reaches the same optima.

Every quantity reduces over the last axis and is per member: given the
(K, batch, d) tensors of K stacked members, an ELBO or CUBO is a (K,)
vector whose entries equal the K unstacked evaluations bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import gradcore as gc
from . import netblocks as nb
from .gradcore import Tensor

LOG_2PI = math.log(2.0 * math.pi)

# stay clear of exp() overflow: log(float64 max) - 10
LOG_EXP_LIMIT = math.log(np.finfo(np.float64).max) - 10.0


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior pair: mean 0 for normals, alpha*1 for outliers.

    Covariances are identity and not configurable. alpha == 0 is legal to
    construct (collapses the two priors); model-level validation insists on
    a nonzero alpha for the dual-prior method.
    """

    dim: int
    alpha: float = 0.0

    @property
    def mu_outlier(self) -> np.ndarray:
        return np.full(self.dim, float(self.alpha))


@dataclass
class BoundReport:
    """ELBO evaluation: stored elbo is exactly -recon - beta_kl * kl."""

    recon: Tensor
    kl: Tensor
    elbo: Tensor
    per_sample: Tensor
    beta_kl: float


@dataclass
class CuboReport:
    """CUBO loss in exp domain plus the always-valid log-domain value.

    ``value`` is None when exponentiation would overflow; ``log_value`` is
    the mean per-sample log-domain loss and shares its optima with the exp
    form.
    """

    value: Optional[Tensor]
    log_value: Tensor
    per_sample_log: Tensor
    overflowed: bool

    def member(self, k: int) -> "CuboReport":
        """Member k's report out of a report over stacked members. Its exp
        value is built from its own slice, so another member's overflow
        cannot reach its gradients."""
        return _cubo_report(gc.take(self.per_sample_log, k),
                            gc.take(self.log_value, k))


def _cubo_report(per_sample_log: Tensor, log_value: Tensor) -> CuboReport:
    overflowed = bool(per_sample_log.data.max() > LOG_EXP_LIMIT)
    value = None if overflowed else gc.reduce_mean(gc.exp(per_sample_log), axis=-1)
    return CuboReport(value=value, log_value=log_value,
                      per_sample_log=per_sample_log, overflowed=overflowed)


def kl_to_gaussian_prior(post: nb.GaussianPosterior, mu_o=None) -> Tensor:
    """Per-sample KL(q || N(mu_o, I)) for a diagonal Gaussian posterior.

    Closed form: -1/2 sum_i [1 + log s2_i - s2_i - mu_i^2 + 2 mu_i mu_o_i
    - mu_o_i^2]; mu_o None means the zero-mean prior.
    """
    mu, logvar = post.mu, post.logvar
    sig2 = gc.exp(logvar)
    inner = gc.sub(gc.sub(gc.add(logvar, 1.0), sig2), gc.square(mu))
    if mu_o is not None:
        mu_o = np.asarray(mu_o, dtype=np.float64)
        if mu_o.ndim == 0:
            mu_o = np.full(post.dim, float(mu_o))
        if mu_o.shape != (post.dim,):
            raise ValueError(
                f"prior mean shape {mu_o.shape} != latent dim ({post.dim},)")
        if mu_o.any():
            cross = gc.mul(gc.mul(mu, gc.constant(mu_o)), 2.0)
            inner = gc.sub(gc.add(inner, cross), gc.constant(mu_o * mu_o))
    return gc.mul(gc.reduce_sum(inner, axis=-1), -0.5)


def reconstruction_loss(pred: Tensor, x, family: str) -> Tensor:
    """Per-sample negative log-likelihood of x under the decoder output.

    gaussian: 1/2 ||x - pred||^2 + (d/2) log 2pi (unit variance, so the
    ELBO is a genuine log-likelihood bound); bernoulli: stable cross-entropy
    from logits, summed over features.
    """
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    if pred.shape != xt.shape:
        raise ValueError(f"prediction shape {pred.shape} != data shape {xt.shape}")
    d = xt.shape[-1]
    if family == "gaussian":
        sq = gc.reduce_sum(gc.square(gc.sub(xt, pred)), axis=-1)
        return gc.add(gc.mul(sq, 0.5), 0.5 * d * LOG_2PI)
    if family == "bernoulli":
        ce = gc.sub(gc.softplus(pred), gc.mul(pred, xt))
        return gc.reduce_sum(ce, axis=-1)
    raise ValueError(f"unknown likelihood family {family!r}")


def _draw_noise(n_samples: int, post: nb.GaussianPosterior, rng, noise) -> np.ndarray:
    """Noise of shape (S, *posterior shape). ``rng`` is one generator, or
    one per member for stacked members: member k draws its (S, batch, d_z)
    block from its own stream."""
    shape = (n_samples,) + post.mu.shape
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != shape:
            raise ValueError(f"noise shape {noise.shape} != {shape}")
        return noise
    if rng is None:
        raise ValueError("either rng or explicit noise is required")
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape)
    if len(rng) != post.mu.shape[0] or post.mu.data.ndim != 3:
        raise ValueError(f"{len(rng)} member generators for posterior shape "
                         f"{post.mu.shape}")
    block = (n_samples, post.batch, post.dim)
    return np.stack([r.standard_normal(block) for r in rng], axis=1)


def elbo_from_posterior(post: nb.GaussianPosterior,
                        recon_fn: Callable[[Tensor], Tensor],
                        prior_mean, beta_kl: float,
                        noise: np.ndarray) -> BoundReport:
    """ELBO given a posterior, a per-sample reconstruction-loss closure, and
    pinned reparameterization noise of shape (S, batch, d_z)."""
    n_samples = noise.shape[0]
    recon_i: Optional[Tensor] = None
    for s in range(n_samples):
        z = nb.reparameterize(post, noise[s])
        term = recon_fn(z)
        recon_i = term if recon_i is None else gc.add(recon_i, term)
    if n_samples > 1:
        recon_i = gc.mul(recon_i, 1.0 / n_samples)
    kl_i = kl_to_gaussian_prior(post, prior_mean)
    per_sample = gc.sub(gc.neg(recon_i), gc.mul(kl_i, beta_kl))
    recon = gc.reduce_mean(recon_i, axis=-1)
    kl = gc.reduce_mean(kl_i, axis=-1)
    value = gc.sub(gc.neg(recon), gc.mul(kl, beta_kl))
    return BoundReport(recon=recon, kl=kl, elbo=value,
                       per_sample=per_sample, beta_kl=beta_kl)


def elbo(enc: nb.EncoderParams, dec: nb.DecoderParams, x, prior_mean,
         beta_kl: float, n_samples: int = 1, rng=None,
         noise=None) -> BoundReport:
    """Monte-Carlo ELBO of a batch under the given encoder/decoder; ``rng``
    is a generator, or one generator per member for stacked members."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    post = nb.encode(enc, xt)
    eps = _draw_noise(n_samples, post, rng, noise)
    recon_fn = lambda z: reconstruction_loss(nb.decode(dec, z), xt, dec.family)
    return elbo_from_posterior(post, recon_fn, prior_mean, beta_kl, eps)


def cubo_from_posterior(post: nb.GaussianPosterior,
                        recon_fn: Callable[[Tensor], Tensor],
                        mu_o, beta_cubo: float,
                        noise: np.ndarray) -> CuboReport:
    """Exponentiated CUBO_2 loss from a posterior and pinned noise.

    Per sample, in log domain:
      b*(log|S_q| + mu_q' S_q^-1 mu_q - mu_o' mu_o)
      + log mean_s exp(-2 L_R(z_s) + b*(-z'z + 2 z'mu_o + z' S_q^-1 z
                                        - 2 z' S_q^-1 mu_q))
    with z_s reparameterized from the posterior. The inner expectation is
    estimated with the log-sum-exp trick.
    """
    mu, logvar = post.mu, post.logvar
    n_samples = noise.shape[0]
    if mu_o is not None:
        mu_o = np.asarray(mu_o, dtype=np.float64)
        if mu_o.ndim == 0:
            mu_o = np.full(post.dim, float(mu_o))
        if not mu_o.any():
            mu_o = None

    prec = gc.exp(gc.neg(logvar))  # diagonal of S_q^-1
    logdet = gc.reduce_sum(logvar, axis=-1)
    quad_mu = gc.reduce_sum(gc.mul(gc.square(mu), prec), axis=-1)
    head = gc.add(logdet, quad_mu)
    if mu_o is not None:
        head = gc.sub(head, float(mu_o @ mu_o))
    head = gc.mul(head, beta_cubo)

    inner_terms = []
    for s in range(n_samples):
        z = nb.reparameterize(post, noise[s])
        lr = recon_fn(z)
        zsq = gc.square(z)
        quad = gc.sub(gc.reduce_sum(gc.mul(zsq, prec), axis=-1),
                      gc.reduce_sum(zsq, axis=-1))
        quad = gc.sub(quad, gc.mul(
            gc.reduce_sum(gc.mul(gc.mul(z, prec), mu), axis=-1), 2.0))
        if mu_o is not None:
            quad = gc.add(quad, gc.mul(
                gc.reduce_sum(gc.mul(z, gc.constant(mu_o)), axis=-1), 2.0))
        inner_terms.append(gc.add(gc.mul(lr, -2.0), gc.mul(quad, beta_cubo)))
    stacked = gc.stack(inner_terms)  # (S, [K,] batch)
    log_mean = gc.sub(gc.logsumexp(stacked, axis=0), math.log(n_samples))
    per_sample_log = gc.add(head, log_mean)
    return _cubo_report(per_sample_log, gc.reduce_mean(per_sample_log, axis=-1))


def cubo_loss(enc: nb.EncoderParams, dec: nb.DecoderParams, x, mu_o,
              beta_cubo: float, n_samples: int = 8, rng=None,
              noise=None) -> CuboReport:
    """CUBO loss of a batch; the decoder is a frozen constant inside this op,
    so gradients reach encoder parameters only."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    post = nb.encode(enc, xt)
    eps = _draw_noise(n_samples, post, rng, noise)
    frozen = dec.detached()
    recon_fn = lambda z: reconstruction_loss(nb.decode(frozen, z), xt, frozen.family)
    return cubo_from_posterior(post, recon_fn, mu_o, beta_cubo, eps)
