import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import finite_diff_check
from ssadvae import gradcore as gc
from ssadvae import netblocks as nb
from ssadvae import vbounds as vb

LOG_2PI = math.log(2.0 * math.pi)


def rng(seed=0, stream=9):
    return nb.philox_rng(seed, stream)


def make_posterior(mu, logvar, trainable=False):
    mk = gc.parameter if trainable else gc.constant
    return nb.GaussianPosterior(mk(np.atleast_2d(mu)), mk(np.atleast_2d(logvar)))


def ref_kl(mu, logvar, mu_o=0.0):
    """Textbook KL(N(mu, e^logvar) || N(mu_o, 1)), per dimension summed."""
    mu = np.atleast_1d(np.asarray(mu, float))
    logvar = np.atleast_1d(np.asarray(logvar, float))
    mu_o = np.broadcast_to(np.asarray(mu_o, float), mu.shape)
    s2 = np.exp(logvar)
    return float(0.5 * np.sum(s2 + (mu - mu_o) ** 2 - 1.0 - logvar))


# ---------------------------------------------------------------------------
# KL divergence

def test_kl_standard_normal_vs_itself_is_zero():
    post = make_posterior([0.0], [0.0])
    assert vb.kl_to_gaussian_prior(post).data[0] == pytest.approx(0.0, abs=1e-15)


def test_kl_unit_gaussians_mean_two():
    post = make_posterior([0.0], [0.0])
    kl = vb.kl_to_gaussian_prior(post, alpha=2.0)
    assert kl.data[0] == pytest.approx(2.0, abs=1e-12)


def test_kl_derived_example():
    # q = N(1, 0.25) vs N(0, 1): oracle 0.5*(s2 + mu^2 - 1 - log s2)
    post = make_posterior([1.0], [math.log(0.25)])
    kl = vb.kl_to_gaussian_prior(post).data[0]
    assert kl == pytest.approx(0.8181471805599453, abs=1e-12)
    assert kl == pytest.approx(ref_kl(1.0, math.log(0.25)), abs=1e-12)


def test_kl_matches_textbook_oracle_multidim():
    g = rng(1)
    for _ in range(50):
        d = int(g.integers(1, 6))
        mu = g.standard_normal(d) * 2
        lv = g.uniform(-2, 2, d)
        mo = g.standard_normal() * 3
        post = make_posterior(mu, lv)
        got = vb.kl_to_gaussian_prior(post, alpha=mo).data[0]
        assert got == pytest.approx(ref_kl(mu, lv, mo), rel=1e-10, abs=1e-10)


def test_kl_monte_carlo_agreement_small():
    # smaller sibling of the acceptance criterion: 20 configs, 1e5 samples
    g = rng(2)
    n = 100_000
    for _ in range(20):
        mu, lv, mo = g.normal(0, 2), g.uniform(-2, 2), g.normal(0, 2)
        z = mu + math.exp(lv / 2.0) * g.standard_normal(n)
        log_q = -0.5 * (LOG_2PI + lv) - (z - mu) ** 2 / (2 * math.exp(lv))
        log_p = -0.5 * LOG_2PI - (z - mo) ** 2 / 2.0
        diff = log_q - log_p
        mc, se = diff.mean(), diff.std(ddof=1) / math.sqrt(n)
        got = vb.kl_to_gaussian_prior(make_posterior([mu], [lv]), alpha=mo).data[0]
        assert abs(got - mc) < 4.0 * se


@settings(max_examples=80, deadline=None)
@given(st.floats(-5, 5), st.floats(-4, 4), st.floats(-5, 5))
def test_kl_nonnegative_property(mu, lv, mo):
    post = make_posterior([mu], [lv])
    kl = vb.kl_to_gaussian_prior(post, alpha=mo).data[0]
    assert kl >= -1e-12


def test_kl_zero_iff_matching_moments():
    post = make_posterior([3.0, 3.0], [0.0, 0.0])
    kl = vb.kl_to_gaussian_prior(post, alpha=3.0).data[0]
    assert kl == pytest.approx(0.0, abs=1e-12)
    for mu, lv in (([3.0, -1.0], [0.0, 0.0]), ([3.0, 3.0], [0.0, 0.5])):
        assert vb.kl_to_gaussian_prior(make_posterior(mu, lv), alpha=3.0).data[0] > 0.0


def test_kl_gradient_matches_finite_differences():
    def f(t):
        post = nb.GaussianPosterior(
            gc.mul(t, gc.constant(np.array([[1.0, 1.0]]))),
            gc.constant([[0.3, -0.2]]))
        return gc.reduce_sum(vb.kl_to_gaussian_prior(post, alpha=1.5))

    assert finite_diff_check(f, np.array([[0.7, 0.1]])) < 1e-6


# ---------------------------------------------------------------------------
# reconstruction loss

def test_recon_gaussian_zero_residual_keeps_constant():
    x = np.zeros((1, 2))
    out = vb.reconstruction_loss(gc.constant(x), x, "gaussian")
    assert out.data[0] == pytest.approx(LOG_2PI, abs=1e-12)  # (d/2)log2pi, d=2


def test_recon_gaussian_three_four_residual():
    x = np.array([[3.0, 4.0]])
    out = vb.reconstruction_loss(gc.constant(np.zeros((1, 2))), x, "gaussian")
    assert out.data[0] == pytest.approx(12.5 + LOG_2PI, abs=1e-12)


def test_recon_bernoulli_fair_coin():
    logits = gc.constant(np.zeros((1, 4)))
    out = vb.reconstruction_loss(logits, np.full((1, 4), 0.5), "bernoulli")
    assert out.data[0] == pytest.approx(4.0 * math.log(2.0), abs=1e-12)


def test_recon_bernoulli_extreme_logits_finite():
    logits = gc.constant(np.array([[500.0, -500.0]]))
    out = vb.reconstruction_loss(logits, np.array([[0.0, 1.0]]), "bernoulli")
    assert np.isfinite(out.data).all()


def test_recon_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        vb.reconstruction_loss(gc.constant(np.zeros((1, 1))),
                               np.zeros((1, 1)), "poisson")


# ---------------------------------------------------------------------------
# ELBO

def identity_recon(x):
    xt = gc.constant(np.atleast_2d(x))
    return lambda z: vb.reconstruction_loss(z, xt, "gaussian")


def log_marginal_linear_gaussian(x):
    # prior N(0,1), decoder N(z,1) -> marginal N(0,2)
    return -0.5 * math.log(4.0 * math.pi) - x * x / 4.0


def test_elbo_optimal_posterior_attains_log_marginal():
    # q*(z|0) = N(0, 1/2); MC estimate converges to log p(0) = -log(4pi)/2
    n = 100_000
    noise = rng(3).standard_normal((n, 1, 1))
    post = make_posterior([0.0], [math.log(0.5)])
    rep = vb.elbo_from_posterior(post, identity_recon([[0.0]]), 0.0, 1.0, noise)
    se = math.sqrt(0.125 / n)  # Var(z^2/2) = s^4/2 at s2=1/2
    assert rep.elbo.item() == pytest.approx(-1.2655121234846454, abs=4 * se)


def test_elbo_prior_posterior_value():
    # q = prior N(0,1) at x=0: analytic ELBO = -log(2pi)/2 - 1/2
    n = 100_000
    noise = rng(4).standard_normal((n, 1, 1))
    post = make_posterior([0.0], [0.0])
    rep = vb.elbo_from_posterior(post, identity_recon([[0.0]]), 0.0, 1.0, noise)
    se = math.sqrt(0.5 / n)
    assert rep.elbo.item() == pytest.approx(-1.4189385332046727, abs=4 * se)


def test_elbo_pinned_noise_matches_scalar_oracle():
    mu, lv, x, e, beta = 0.4, -0.3, 1.1, 0.85, 0.7
    z = mu + math.exp(lv / 2) * e
    lr = 0.5 * (x - z) ** 2 + 0.5 * LOG_2PI
    want = -lr - beta * ref_kl(mu, lv)
    post = make_posterior([mu], [lv])
    rep = vb.elbo_from_posterior(post, identity_recon([[x]]), 0.0, beta,
                                 np.array([[[e]]]))
    assert rep.per_sample.data[0] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        vb.elbo_from_posterior(post, identity_recon([[x]]), 0.0, beta,
                               np.empty((0, 1, 1)))


def test_elbo_beta_zero_equals_negative_recon():
    enc = nb.init_encoder(nb.MlpSpec(widths=(8, 3)), 4, seed=1)
    dec = nb.init_decoder(nb.MlpSpec(widths=(8, 3)), 4, seed=1)
    x = rng(5).standard_normal((6, 4))
    rep = vb.elbo(enc, dec, x, 0.0, beta_kl=0.0, n_samples=2,
                  noise=rng(6).standard_normal((2, 6, 3)))
    assert rep.elbo.item() == -rep.recon.item()


def test_bound_report_identity():
    enc = nb.init_encoder(nb.MlpSpec(widths=(8, 3)), 4, seed=1)
    dec = nb.init_decoder(nb.MlpSpec(widths=(8, 3)), 4, seed=1)
    x = rng(7).standard_normal((6, 4))
    rep = vb.elbo(enc, dec, x, 0.0, beta_kl=0.05, n_samples=1,
                  noise=rng(8).standard_normal((1, 6, 3)))
    assert rep.elbo.item() == -rep.recon.item() - 0.05 * rep.kl.item()


def test_elbo_upper_bounded_by_log_marginal():
    # exact ELBO (analytic recon expectation) <= log p(x) for any posterior
    g = rng(9)
    for _ in range(100):
        x = g.normal(0, 1.5)
        mu, lv = g.normal(0, 2), g.uniform(-3, 2)
        e_lr = 0.5 * ((x - mu) ** 2 + math.exp(lv)) + 0.5 * LOG_2PI
        kl = vb.kl_to_gaussian_prior(make_posterior([mu], [lv])).data[0]
        assert -e_lr - kl <= log_marginal_linear_gaussian(x) + 1e-9


# ---------------------------------------------------------------------------
# CUBO loss

def exp_value(rep):
    """The exp-domain CUBO: the batch mean of exp(per-sample log value)."""
    return gc.reduce_mean(gc.exp(rep.per_sample_log), axis=-1)


def const_recon(c, batch=1):
    arr = np.full(batch, float(c))
    return lambda z: gc.add(gc.mul(gc.reduce_sum(gc.mul(z, 0.0), axis=1), 0.0),
                            gc.constant(arr))


def test_cubo_posterior_equals_prior_collapses_to_exp_neg2c():
    c = 0.8
    for s in (1, 4, 16):
        noise = rng(10).standard_normal((s, 1, 1))
        post = make_posterior([0.0], [0.0])
        rep = vb.cubo_from_posterior(post, const_recon(c), 0.7, noise)
        assert exp_value(rep).item() == pytest.approx(math.exp(-2 * c), rel=1e-12)
        assert rep.log_value.item() == pytest.approx(-2 * c, rel=1e-12)


def test_cubo_pinned_single_sample_matches_scalar_oracle():
    mu, lv, beta, c, e = 1.0, 0.0, 0.05, 0.9, 0.3
    z = mu + math.exp(lv / 2) * e
    inner = -2 * c + beta * (-z * z + z * z * math.exp(-lv)
                             - 2 * z * math.exp(-lv) * mu)
    head = beta * (lv + mu * mu * math.exp(-lv))
    want = math.exp(head + inner)
    post = make_posterior([mu], [lv])
    rep = vb.cubo_from_posterior(post, const_recon(c), beta, np.array([[[e]]]))
    assert exp_value(rep).item() == pytest.approx(want, rel=1e-12)
    assert rep.log_value.item() == pytest.approx(head + inner, rel=1e-12)


def test_cubo_beta_zero_ignores_posterior_terms():
    noise = rng(11).standard_normal((8, 1, 1))
    for mu, lv in [(0.0, 0.0), (5.0, 1.0), (-3.0, -2.0)]:
        rep = vb.cubo_from_posterior(make_posterior([mu], [lv]),
                                     const_recon(1.3), 0.0, noise)
        assert exp_value(rep).item() == pytest.approx(math.exp(-2 * 1.3), rel=1e-12)


def test_cubo_positive_and_overflow_flagged():
    post = make_posterior([0.0], [0.0])
    # the log-domain report stays finite where exp() would overflow
    rep = vb.cubo_from_posterior(post, const_recon(-400.0), 1.0,
                                 np.zeros((1, 1, 1)))
    assert rep.log_value.item() == pytest.approx(800.0, rel=1e-12)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(rep.per_sample_log.data)).all()
    ok = vb.cubo_from_posterior(post, const_recon(0.5), 1.0,
                                np.zeros((1, 1, 1)))
    assert exp_value(ok).item() > 0.0


def test_cubo_decoder_gets_no_gradient():
    spec = nb.MlpSpec(widths=(8, 3))
    enc = nb.init_encoder(spec, 4, seed=2)
    dec = nb.init_decoder(spec, 4, seed=2)
    x = rng(12).standard_normal((5, 4))
    rep = vb.cubo_loss(enc, dec, x, 0.05, n_samples=4,
                       noise=rng(13).standard_normal((4, 5, 3)))
    gc.backward(exp_value(rep))
    assert all(t.grad is None for t in dec.tensors())
    assert any(t.grad is not None for t in enc.tensors())
    for t in enc.tensors():
        t.zero_grad()
    rep2 = vb.cubo_loss(enc, dec, x, 0.05, n_samples=4,
                        noise=rng(13).standard_normal((4, 5, 3)))
    gc.backward(rep2.log_value)
    assert all(t.grad is None for t in dec.tensors())
    assert any(t.grad is not None for t in enc.tensors())


def antithetic_noise(n_pairs, batch, dim, seed):
    half = nb.philox_rng(seed, 17).standard_normal((n_pairs, batch, dim))
    return np.concatenate([half, -half], axis=0)


def test_cubo_separation_monotone_in_posterior_mean():
    noise = antithetic_noise(4, 1, 1, seed=21)
    values = []
    for m in (0.0, 0.5, 1.0, 2.0, 4.0):
        rep = vb.cubo_from_posterior(make_posterior([m], [0.0]),
                                     const_recon(1.0), 0.05, noise)
        values.append(exp_value(rep).item())
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cubo_sandwich_on_linear_gaussian():
    # 1/2 log(mean of S exp-domain draws) >= log p(x) - 3 SE, beta=1
    g = rng(14)
    n = 100_000
    for trial in range(5):
        x = g.normal(0, 1.0)
        mu = x / 2.0 + g.normal(0, 0.3)
        lv = math.log(g.uniform(0.4, 1.2))  # keep the chi^2 variance finite
        mu_rep = np.full((n, 1), mu)
        lv_rep = np.full((n, 1), lv)
        post = nb.GaussianPosterior(gc.constant(mu_rep), gc.constant(lv_rep))
        noise = g.standard_normal((1, n, 1))
        rep = vb.cubo_from_posterior(post, identity_recon(np.full((n, 1), x)),
                                     1.0, noise)
        draws = np.exp(rep.per_sample_log.data)
        m = draws.mean()
        se = draws.std(ddof=1) / math.sqrt(n)
        lhs = 0.5 * math.log(m)
        assert lhs >= log_marginal_linear_gaussian(x) - 3.0 * se / (2.0 * m)


# ---------------------------------------------------------------------------
# one node per ELBO term, against the same formulas built from small ops

def composed_reparameterize(post, eps):
    std = gc.exp(gc.mul(post.logvar, 0.5))
    return gc.add(post.mu, gc.mul(std, gc.constant(eps)))


def composed_gaussian_nll(pred, x):
    sq = gc.reduce_sum(gc.square(gc.sub(gc.constant(x), pred)), axis=-1)
    return gc.add(gc.mul(sq, 0.5), 0.5 * x.shape[-1] * LOG_2PI)


def composed_kl(post, mu_o):
    """The KL from small ops under the N(mu_o, I) prior, mu_o a (d,) vector
    or None for the zero-mean prior."""
    mu, logvar = post.mu, post.logvar
    inner = gc.sub(gc.sub(gc.add(logvar, 1.0), gc.exp(logvar)), gc.square(mu))
    if mu_o is not None:
        spread = lambda v: gc.constant(np.broadcast_to(v, mu.shape))
        cross = gc.mul(gc.mul(mu, spread(mu_o)), 2.0)
        inner = gc.sub(gc.add(inner, cross), spread(mu_o * mu_o))
    return gc.mul(gc.reduce_sum(inner, axis=-1), -0.5)


def composed_summary(recon, kl, beta_kl):
    """The batch ELBO from five small ops, and the per-row ELBO."""
    elbo = gc.sub(gc.neg(gc.reduce_mean(recon, axis=-1)),
                  gc.mul(gc.reduce_mean(kl, axis=-1), beta_kl))
    return elbo, gc.sub(gc.neg(recon), gc.mul(kl, beta_kl))


@pytest.mark.parametrize("alpha", [0.0, 5.0], ids=["zero-prior", "alpha-prior"])
@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "3d"])
def test_fused_elbo_terms_equal_composed_forms_bit_for_bit(stacked, alpha):
    # a whole encode -> reparameterize -> decode -> reconstruction + KL ->
    # batch ELBO graph shaped as vb.elbo builds it, so mu and the clamped
    # log-variance each add up the gradients of every sample's
    # reparameterization and of the KL: the per-row terms, the batch
    # summary, the per-row ELBO and every parameter gradient match, for
    # beta_kl 0 and 0.05 and for 1 and 3 samples
    from ssadvae import models as md

    g = rng(31)
    members = [md.SsadModel.create(nb.MlpSpec(widths=(6, 3)), 4, "vae", seed=s)
               for s in (1, 2, 3)]
    model = md.stack_members(members) if stacked else members[0]
    lead = (3,) if stacked else ()
    x = g.standard_normal(lead + (10, 4))
    for beta_kl in (0.0, 0.05):
        for n_samples in (1, 3):
            eps = g.standard_normal((n_samples,) + lead + (10, 3))
            check_fused_elbo(model, x, eps, alpha, beta_kl, g)


def check_fused_elbo(model, x, eps, alpha, beta_kl, g):
    n_samples, lead = len(eps), x.shape[:-2]
    mu_o = None if alpha == 0.0 else np.full(eps.shape[-1], alpha)

    def run(fused):
        model.zero_grads()
        post = nb.encode(model.encoder, x)
        if fused:
            rep = vb.elbo_from_posterior(
                post, lambda z: vb.reconstruction_loss(nb.decode(model.decoder, z),
                                                       x, "gaussian"),
                alpha, beta_kl, eps)
            elbo = rep.elbo
            terms = [rep.recon_rows, rep.kl_rows, rep.recon.data, rep.kl.data,
                     rep.per_sample.data]
        else:
            recon = None
            for e in eps:
                z = composed_reparameterize(post, e)
                term = composed_gaussian_nll(nb.decode(model.decoder, z), x)
                recon = term if recon is None else gc.add(recon, term)
            if n_samples > 1:
                recon = gc.mul(recon, 1.0 / n_samples)
            kl = composed_kl(post, mu_o)
            elbo, per_sample = composed_summary(recon, kl, beta_kl)
            terms = [recon.data, kl.data, gc.reduce_mean(recon, axis=-1).data,
                     gc.reduce_mean(kl, axis=-1).data, per_sample.data]
        gc.backward(gc.reduce_sum(gc.neg(elbo)))
        return ([np.asarray(elbo.data)] + [np.asarray(t) for t in terms]
                + [t.grad.copy() for t in model.parameters()])

    for a, b in zip(run(True), run(False), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    # the summary node alone, on leaf per-row terms under an uneven upstream
    # gradient: its value and both gradients against the five small ops
    rows = [g.standard_normal(lead + (10,)) for _ in range(2)]
    up = g.standard_normal(lead)

    def summary(fused):
        recon, kl = gc.parameter(rows[0]), gc.parameter(rows[1])
        elbo = (vb._bound_report(recon, kl, beta_kl).elbo if fused
                else composed_summary(recon, kl, beta_kl)[0])
        gc.backward(gc.reduce_sum(gc.mul(elbo, gc.constant(up))))
        return [np.asarray(elbo.data), recon.grad, kl.grad]

    for a, b in zip(summary(True), summary(False), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 5.0, -1.7])
@pytest.mark.parametrize("k", [1, 3])
def test_scalar_alpha_kl_equals_vector_prior_reference_bit_for_bit(k, alpha):
    # the fused KL under the scalar prior mean alpha against the small-op
    # form under the (d,) vector alpha * 1 (the zero-mean form at alpha 0):
    # value and both gradients, under an uneven upstream gradient. As in the
    # ELBO, mu and logvar also feed a reparameterization that backward
    # reaches first, so a pre-summed KL gradient would show in the bytes
    g = rng(35)
    mu, logvar = g.standard_normal((k, 10, 4)) * 2, g.uniform(-3, 3, (k, 10, 4))
    up = gc.constant(g.standard_normal((k, 10)))
    eps = g.standard_normal((k, 10, 4))

    def run(fused):
        post = make_posterior(mu, logvar, trainable=True)
        kl = (vb.kl_to_gaussian_prior(post, alpha) if fused else
              composed_kl(post, None if alpha == 0.0 else np.full(4, alpha)))
        z = nb.reparameterize(post, eps)
        gc.backward(gc.add(gc.reduce_sum(gc.square(z)),
                           gc.reduce_sum(gc.mul(kl, up))))
        return [kl.data, post.mu.grad, post.logvar.grad]

    for a, b in zip(run(True), run(False), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("operand", ["mu", "logvar"])
def test_fd_reparameterize(operand):
    g = rng(32)
    arrays = {"mu": g.standard_normal((3, 2)), "logvar": g.standard_normal((3, 2))}
    eps, up = g.standard_normal((3, 2)), gc.constant(g.standard_normal((3, 2)))

    def f(t):
        mu, lv = (t if k == operand else gc.constant(a) for k, a in arrays.items())
        z = nb.reparameterize(nb.GaussianPosterior(mu, lv), eps)
        return gc.reduce_sum(gc.mul(gc.square(z), up))

    for _ in range(20):
        assert finite_diff_check(f, g.standard_normal((3, 2))) < 1e-4


def test_fd_gaussian_reconstruction_loss():
    g = rng(33)
    x = g.standard_normal((4, 3))
    up = gc.constant(g.standard_normal(4))

    def f(t):
        return gc.reduce_sum(gc.mul(vb.reconstruction_loss(t, x, "gaussian"), up))

    for _ in range(20):
        assert finite_diff_check(f, g.standard_normal((4, 3))) < 1e-4


@pytest.mark.parametrize("alpha", [0.0, 1.5], ids=["zero", "nonzero"])
@pytest.mark.parametrize("operand", ["mu", "logvar"])
def test_fd_kl_to_gaussian_prior(operand, alpha):
    g = rng(34)
    arrays = {"mu": g.standard_normal((3, 2)), "logvar": g.standard_normal((3, 2))}
    up = gc.constant(g.standard_normal(3))

    def f(t):
        mu, lv = (t if k == operand else gc.constant(a) for k, a in arrays.items())
        kl = vb.kl_to_gaussian_prior(nb.GaussianPosterior(mu, lv), alpha)
        return gc.reduce_sum(gc.mul(kl, up))

    for _ in range(20):
        assert finite_diff_check(f, g.standard_normal((3, 2))) < 1e-4
