"""Variational quantities: reconstruction loss, closed-form KL, ELBO, and
the chi-square upper-bound (CUBO) loss in log domain.

The KL term takes a Gaussian prior with mean alpha * 1 and identity
covariance, which is what the dual-prior objective needs. The CUBO loss,
taken under the standard-normal prior that max-min likelihood uses, is
reported in log domain, per sample and as a batch mean; ``models``
decides per member whether to optimize that value or its exponentiated
form, which by monotonicity reach the same optima.

Each bound has one entry, ``elbo`` and ``cubo_loss``, and bounds what it is
handed: a posterior, a per-sample reconstruction-loss closure and the
reparameterization noise. ``models`` encodes the batch, builds the closure,
draws the noise and decides which decoder the closure runs through.

Every quantity reduces over the last axis and is per member: given the
(K, batch, d) tensors of K stacked members, an ELBO or CUBO is a (K,)
vector whose entries equal the K unstacked evaluations bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import gradcore as gc
from . import netblocks as nb
from .gradcore import Tensor

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class BoundReport:
    """ELBO evaluation: stored elbo is exactly -recon - beta_kl * kl.

    ``elbo`` is the graph node; ``recon`` and ``kl`` are constant batch
    means for reporting. ``per_sample`` (-recon_i - beta_kl * kl_i per row,
    a constant) is computed from the per-row terms on first read.
    """

    recon: Tensor
    kl: Tensor
    elbo: Tensor
    beta_kl: float
    recon_rows: np.ndarray = field(repr=False)
    kl_rows: np.ndarray = field(repr=False)

    @cached_property
    def per_sample(self) -> Tensor:
        return gc.constant((-self.recon_rows) - self.kl_rows * self.beta_kl)


@dataclass
class CuboReport:
    """Log-domain CUBO loss: ``per_sample_log`` per row, and ``log_value``,
    its mean over the batch, which shares its optima with the exp form."""

    log_value: Tensor
    per_sample_log: Tensor


def kl_to_gaussian_prior(post: nb.GaussianPosterior, alpha: float = 0.0) -> Tensor:
    """Per-sample KL(q || N(alpha * 1, I)) for a diagonal Gaussian posterior.

    Closed form: -1/2 sum_i [1 + log s2_i - s2_i - mu_i^2 + 2 alpha mu_i
    - alpha^2].

    One node, with the value and gradient bytes of the same formula built
    from small gradcore ops: ``((logvar + 1) - exp(logvar)) - mu^2
    [+ (mu * alpha) * 2 - alpha^2]``, summed and times -1/2. The node lists
    a parent once per path of that formula (mu for the square term, mu for
    the cross term when alpha is not zero, logvar for the +1 term, logvar
    for the exp term), so ``backward`` adds the paths' gradients in the
    small-op graph's order; float addition is not associative, and a
    pre-summed gradient would change the trained bytes.
    """
    mu, logvar = post.mu, post.logvar
    dm, dl = mu.data, logvar.data
    sig2 = np.exp(dl)
    inner = dl + 1.0
    inner -= sig2
    inner -= dm * dm
    if alpha:
        inner += (dm * alpha) * 2.0
        inner -= alpha * alpha
    out = np.add.reduce(inner, axis=-1)
    out *= -0.5

    def vjp(g):
        half = (g * -0.5)[..., None]
        grad = np.empty(dm.shape)
        grad[...] = half
        neg = -half
        square = neg * (2.0 * dm)
        if not alpha:
            return square, grad, neg * sig2
        cross = np.multiply(half * 2.0, alpha, out=np.empty(dm.shape))
        return square, cross, grad, neg * sig2

    parents = (mu, mu, logvar, logvar) if alpha else (mu, logvar, logvar)
    return gc.make_node(out, "kl-gaussian", parents, vjp)


def reconstruction_loss(pred: Tensor, x, family: str) -> Tensor:
    """Per-sample negative log-likelihood of x under the decoder output.

    gaussian: 1/2 ||x - pred||^2 + (d/2) log 2pi (unit variance, so the
    ELBO is a genuine log-likelihood bound), one node with the value and
    gradient bytes of ``sum(square(x - pred)) * 0.5 + (d/2) log 2pi`` built
    from small gradcore ops; x is data and gets no gradient. bernoulli:
    stable cross-entropy from logits, summed over features.
    """
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    if pred.shape != xt.shape:
        raise ValueError(f"prediction shape {pred.shape} != data shape {xt.shape}")
    if family == "gaussian":
        diff = xt.data - pred.data
        out = _gaussian_nll_of(diff)

        def vjp(g):
            return (-((g * 0.5)[..., None] * (2.0 * diff)),)

        return gc.make_node(out, "gaussian-nll", (pred,), vjp)
    if family == "bernoulli":
        ce = gc.sub(gc.softplus(pred), gc.mul(pred, xt))
        return gc.reduce_sum(ce, axis=-1)
    raise ValueError(f"unknown likelihood family {family!r}")


def _gaussian_nll_of(diff: np.ndarray) -> np.ndarray:
    out = np.add.reduce(diff * diff, axis=-1)
    out *= 0.5
    out += 0.5 * diff.shape[-1] * LOG_2PI
    return out


def nll_array(pred: np.ndarray, x: np.ndarray, family: str) -> np.ndarray:
    """The value of ``reconstruction_loss`` on plain arrays of one shape,
    with its operations in its order; no shape or family check."""
    if family == "gaussian":
        return _gaussian_nll_of(x - pred)
    return np.add.reduce(gc.softplus_of(pred) - pred * x, axis=-1)


def _bound_report(recon_i: Tensor, kl_i: Tensor, beta_kl: float) -> BoundReport:
    """The batch ELBO ``-mean(recon_i) - beta_kl * mean(kl_i)`` as one node.

    Its value and gradients have the bytes of the five small gradcore ops
    it stands for, ``sub(neg(reduce_mean(recon_i)), mul(reduce_mean(kl_i),
    beta_kl))``: ``sub`` passes (g, -g), ``neg`` and ``mul`` turn those into
    -g and -g * beta_kl, and each mean spreads its gradient divided by the
    row count.
    """
    rd, kd = recon_i.data, kl_i.data
    recon, kl = gc.mean_of(rd, -1), gc.mean_of(kd, -1)
    shape, n = rd.shape, rd.shape[-1]

    def vjp(g):
        neg = -g
        return (np.true_divide(neg[..., None], n, out=np.empty(shape)),
                np.true_divide((neg * beta_kl)[..., None], n, out=np.empty(shape)))

    value = gc.make_node((-recon) - kl * beta_kl, "elbo", (recon_i, kl_i), vjp)
    return BoundReport(recon=gc.constant(recon), kl=gc.constant(kl), elbo=value,
                       beta_kl=beta_kl, recon_rows=rd, kl_rows=kd)


def elbo(post: nb.GaussianPosterior, recon_fn: Callable[[Tensor], Tensor],
         alpha: float, beta_kl: float, noise: np.ndarray) -> BoundReport:
    """ELBO under the N(alpha * 1, I) prior given a posterior, a per-sample
    reconstruction-loss closure, and reparameterization noise of shape
    (S, *posterior shape); the terms are summed in sample order."""
    n_samples = len(noise)
    if n_samples == 0:
        raise ValueError("n_samples must be >= 1")
    recon = None
    for eps in noise:
        term = recon_fn(nb.reparameterize(post, eps))
        recon = term if recon is None else gc.add(recon, term)
    if n_samples > 1:
        recon = gc.mul(recon, 1.0 / n_samples)
    return _bound_report(recon, kl_to_gaussian_prior(post, alpha), beta_kl)


def cubo_loss(post: nb.GaussianPosterior, recon_fn: Callable[[Tensor], Tensor],
              beta_cubo: float, noise: np.ndarray) -> CuboReport:
    """Log-domain CUBO_2 loss under the standard-normal prior, given what
    ``elbo`` takes but the prior.

    Per sample, in log domain:
      b*(log|S_q| + mu_q' S_q^-1 mu_q)
      + log mean_s exp(-2 L_R(z_s) + b*(-z'z + z' S_q^-1 z - 2 z' S_q^-1 mu_q))
    with z_s reparameterized from the posterior. The inner expectation is
    estimated with the log-sum-exp trick.
    """
    mu, logvar = post.mu, post.logvar
    n_samples = len(noise)
    if n_samples == 0:
        raise ValueError("n_samples must be >= 1")

    prec = gc.exp(gc.neg(logvar))  # diagonal of S_q^-1
    logdet = gc.reduce_sum(logvar, axis=-1)
    quad_mu = gc.reduce_sum(gc.mul(gc.square(mu), prec), axis=-1)
    head = gc.mul(gc.add(logdet, quad_mu), beta_cubo)

    inner_terms = []
    for s in range(n_samples):
        z = nb.reparameterize(post, noise[s])
        lr = recon_fn(z)
        zsq = gc.square(z)
        quad = gc.sub(gc.reduce_sum(gc.mul(zsq, prec), axis=-1),
                      gc.reduce_sum(zsq, axis=-1))
        quad = gc.sub(quad, gc.mul(
            gc.reduce_sum(gc.mul(gc.mul(z, prec), mu), axis=-1), 2.0))
        inner_terms.append(gc.add(gc.mul(lr, -2.0), gc.mul(quad, beta_cubo)))
    stacked = gc.stack(inner_terms)  # (S, [K,] batch)
    log_mean = gc.sub(gc.logsumexp(stacked, axis=0), math.log(n_samples))
    per_sample_log = gc.add(head, log_mean)
    return CuboReport(gc.reduce_mean(per_sample_log, axis=-1), per_sample_log)
