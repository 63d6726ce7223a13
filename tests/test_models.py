import math

import numpy as np
import pytest

from ssadvae import datakit as dk
from ssadvae import gradcore as gc
from ssadvae import models as md
from ssadvae import netblocks as nb
from ssadvae import trainer as tr
from ssadvae import vbounds as vb

SPEC = nb.MlpSpec(widths=(6, 2))


def rng(seed, stream=9):
    return nb.philox_rng(seed, stream)


def toy_model(method="mml", seed=0, alpha=5.0, gamma=1.0, in_dim=2):
    return md.SsadModel.create(SPEC, in_dim, method, seed=seed, alpha=alpha,
                               gamma=gamma, beta_kl=0.05, beta_cubo=0.05)


def batches(seed=1, n=4, m=2, d=2):
    g = rng(seed)
    return g.standard_normal((n, d)), g.standard_normal((m, d)) + 3.0


def test_model_validation():
    with pytest.raises(ValueError, match="method"):
        toy_model(method="svdd")
    with pytest.raises(ValueError, match="alpha"):
        toy_model(method="dp", alpha=0.0)
    with pytest.raises(ValueError, match="gamma"):
        toy_model(method="mml", gamma=-1.0)


def full_loss(model, xn, xo, noise_normal, outlier_rng):
    """What training optimizes: the normal term plus the outlier term."""
    loss, _ = md.normal_term(model, xn, noise=noise_normal)
    rep = md.outlier_update_term(model, xo, rng=outlier_rng)
    return gc.add(loss, rep.loss), rep


def cubo_target(cubo, log_domain):
    return (cubo.log_value if log_domain else cubo.value).item()


def test_mml_gamma_zero_is_exact_negative_elbo():
    model = toy_model(gamma=0.0)
    xn, xo = batches()
    noise = rng(2).standard_normal((1, 4, 2))
    loss, rep = full_loss(model, xn, xo, noise, rng(3))
    direct = vb.elbo(model.encoder, model.decoder, xn, None, model.beta_kl,
                     noise=noise)
    assert rep.loss.item() == 0.0
    assert loss.item() == -direct.elbo.item()


def test_mml_empty_outlier_batch_matches_gamma_zero():
    # an empty labeled-outlier pool and gamma == 0 both leave the trainer
    # with the normal term alone: the trained parameters agree bit for bit
    ds = dk.synth_gaussian_ad(2, 60, 20, 3.0, seed=0)
    train, _ = dk.split_stratified(ds, 0.6, seed=0)
    cfg = dict(epochs=6, batch_size=16, anneal_epochs=2, warmup_epochs=2,
               ensemble_size=1, s_cubo=4, widths=(6, 2))
    empty_pool = dk.subsample_labeled_outliers(train, 0.0, seed=0)
    with_pool = dk.subsample_labeled_outliers(train, 0.2, seed=0)
    assert len(empty_pool.labeled_outliers()) == 0
    assert len(with_pool.labeled_outliers()) > 0
    a, _ = tr.train(tr.TrainConfig(gamma=1.0, **cfg), empty_pool, "mml")
    b, _ = tr.train(tr.TrainConfig(gamma=0.0, **cfg), with_pool, "mml")
    for ta, tb in zip(a.members[0].parameters(), b.members[0].parameters()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_mml_terms_compose_from_vbounds_oracles():
    # 1-D model, pinned noise: loss == gamma * cubo - elbo where both pieces
    # are evaluated independently of the loss path, the CUBO in the domain
    # cubo_objective picked: exp for near outliers, log for far ones
    model = toy_model(gamma=0.7, in_dim=1)
    xn = rng(3).standard_normal((4, 1))
    noise_n = rng(5).standard_normal((1, 4, 2))
    elbo_ref = vb.elbo(model.encoder, model.decoder, xn, None, 0.05,
                       noise=noise_n).elbo.item()
    domains = []
    for shift in (0.0, 4.0):
        xo = rng(4).standard_normal((2, 1)) + shift
        loss, rep = full_loss(model, xn, xo, noise_n, rng(6))
        cubo_ref = vb.cubo_loss(model.encoder, model.decoder, xo, None, 0.05,
                                noise=rng(6).standard_normal((8, 2, 2)))
        assert rep.cubo_log_domain == md.cubo_objective(cubo_ref)[1]
        assert loss.item() == pytest.approx(
            0.7 * cubo_target(cubo_ref, rep.cubo_log_domain) - elbo_ref,
            rel=1e-12)
        domains.append(rep.cubo_log_domain)
    assert domains == [False, True]


def test_dp_terms_compose_from_elbo_oracles():
    model = toy_model(method="dp", alpha=10.0, in_dim=1)
    xn = rng(7).standard_normal((4, 1))
    xo = rng(8).standard_normal((2, 1)) + 4.0
    noise_n = rng(9).standard_normal((1, 4, 2))
    loss, rep = full_loss(model, xn, xo, noise_n, rng(10))

    e_n = vb.elbo(model.encoder, model.decoder, xn, None, 0.05, noise=noise_n)
    e_o = vb.elbo(model.encoder, model.decoder.detached(), xo,
                  np.full(2, 10.0), 0.05, noise=rng(10).standard_normal((1, 2, 2)))
    assert rep.cubo is None and rep.cubo_log_domain is None
    assert loss.item() == pytest.approx(
        -(e_n.elbo.item() + e_o.elbo.item()), rel=1e-12)


def test_dp_alpha_zero_override_collapses_priors():
    # bypass the constructor invariant to probe the degenerate-prior case
    model = toy_model(method="dp", alpha=1.0, in_dim=2)
    model.prior = vb.PriorSpec(dim=2, alpha=0.0)
    _, xo = batches()
    rep = md.outlier_update_term(model, xo, rng=rng(11))
    same_prior = vb.elbo(model.encoder, model.decoder.detached(), xo, None,
                         0.05, noise=rng(11).standard_normal((1, 2, 2)))
    assert rep.outlier_elbo.elbo.item() == pytest.approx(
        same_prior.elbo.item(), rel=1e-12)


def test_dp_empty_outlier_batch_plain_negative_elbo():
    # with no outlier updates dp trains on its normal term alone, which is
    # the plain negative ELBO under the zero-mean prior whatever alpha is
    model = toy_model(method="dp", alpha=5.0)
    xn, _ = batches()
    noise = rng(2).standard_normal((1, 4, 2))
    loss, _ = md.normal_term(model, xn, noise=noise)
    direct = vb.elbo(model.encoder, model.decoder, xn, None, 0.05, noise=noise)
    assert loss.item() == -direct.elbo.item()


def test_hybrid_is_dp_plus_weighted_cubo():
    model = toy_model(method="hybrid", alpha=5.0, gamma=0.5, in_dim=2)
    _, xo = batches()
    rep = md.outlier_update_term(model, xo, rng=rng(14))
    g = rng(14)  # the outlier ELBO draws its noise first, then the CUBO
    no = g.standard_normal((1, 2, 2))
    nc = g.standard_normal((8, 2, 2))
    dp_ref = vb.elbo(model.encoder, model.decoder.detached(), xo,
                     np.full(2, 5.0), 0.05, noise=no).elbo.item()
    cubo_ref = vb.cubo_loss(model.encoder, model.decoder, xo, None, 0.05,
                            noise=nc)
    assert rep.cubo_log_domain == md.cubo_objective(cubo_ref)[1]
    assert rep.loss.item() == pytest.approx(
        -dp_ref + 0.5 * cubo_target(cubo_ref, rep.cubo_log_domain), rel=1e-12)


def test_shared_encoder_by_identity(monkeypatch):
    seen = []
    real_encode = nb.encode

    def spy(params, x):
        seen.append(params)
        return real_encode(params, x)

    monkeypatch.setattr(nb, "encode", spy)
    xn, xo = batches()
    for method in ("dp", "mml"):
        seen.clear()
        model = toy_model(method=method, alpha=5.0)
        full_loss(model, xn, xo, rng(16).standard_normal((1, 4, 2)), rng(17))
        assert len(seen) == 2 and seen[0] is seen[1]


@pytest.mark.parametrize("method", ["mml", "dp", "hybrid"])
def test_outlier_terms_leave_decoder_gradient_free(method):
    model = toy_model(method=method, alpha=5.0)
    _, xo = batches()
    rep = md.outlier_update_term(model, xo, rng=rng(18))
    gc.backward(rep.loss)
    assert all(t.grad is None for t in model.decoder.tensors())
    assert any(t.grad is not None for t in model.encoder.tensors())


def test_full_loss_decoder_gradient_comes_only_from_normal_term():
    model = toy_model(method="mml", gamma=2.0)
    xn, xo = batches()
    nn = rng(19).standard_normal((1, 4, 2))
    loss, _ = full_loss(model, xn, xo, nn, rng(20))
    model.zero_grads()
    gc.backward(loss)
    with_outliers = [t.grad for t in model.decoder.tensors()]
    assert all(g is not None for g in with_outliers)
    # same seed -> same decoder; the outlier term must not have added anything
    ref_model = toy_model(method="mml", gamma=2.0)
    ref, _ = md.normal_term(ref_model, xn, noise=nn)
    gc.backward(ref)
    for g_full, t in zip(with_outliers, ref_model.decoder.tensors()):
        np.testing.assert_array_equal(g_full, t.grad)


def test_outlier_update_term_dispatch_all_methods():
    _, xo = batches()
    with pytest.raises(ValueError, match="no outlier update"):
        md.outlier_update_term(toy_model(method="vae"), xo, rng=rng(30))
    for method in ("mml", "dp", "hybrid"):
        model = toy_model(method=method, alpha=5.0)
        rep = md.outlier_update_term(model, xo, rng=rng(30))
        assert np.isfinite(rep.loss.data)
        assert (rep.outlier_elbo is not None) == (method in ("dp", "hybrid"))
        assert (rep.cubo is not None) == (method in ("mml", "hybrid"))
        assert (rep.cubo_log_domain is not None) == (rep.cubo is not None)


def test_bernoulli_family_trains_end_to_end():
    g = rng(31)
    x = (g.uniform(size=(40, 5)) < 0.3).astype(float)  # binary data in [0,1]
    model = md.SsadModel.create(nb.MlpSpec(widths=(6, 2)), 5, "mml", seed=9,
                                gamma=1.0, family="bernoulli")
    loss, rep = md.normal_term(model, x, rng=rng(32))
    model.zero_grads()
    gc.backward(loss)
    assert np.isfinite(loss.data)
    assert all(t.grad is not None for t in model.decoder.ws)
    cubo = md.outlier_update_term(model, x[:4], rng=rng(33))
    assert np.isfinite(cubo.loss.data)


def test_cubo_objective_band():
    lo = vb.CuboReport(value=gc.constant(0.0), log_value=gc.constant(-40.0),
                       per_sample_log=gc.constant([-40.0]), overflowed=False)
    target, log_domain = md.cubo_objective(lo)
    assert log_domain and target.item() == -40.0
    mid = vb.CuboReport(value=gc.constant(math.exp(-3.0)),
                        log_value=gc.constant(-3.0),
                        per_sample_log=gc.constant([-3.0]), overflowed=False)
    target, log_domain = md.cubo_objective(mid)
    assert not log_domain and target.item() == math.exp(-3.0)
    hi = vb.CuboReport(value=None, log_value=gc.constant(800.0),
                       per_sample_log=gc.constant([800.0]), overflowed=True)
    target, log_domain = md.cubo_objective(hi)
    assert log_domain


# ---------------------------------------------------------------------------
# scoring

def test_score_deterministic_and_seeded():
    model = toy_model()
    x = rng(21).standard_normal((10, 2))
    a = md.score(model, x, n_samples=4)
    b = md.score(model, x, n_samples=4)
    np.testing.assert_array_equal(a, b)
    c = md.score(model, x, n_samples=4, seed=123)
    assert not np.array_equal(a, c)


def test_score_batch_size_does_not_change_values():
    model = toy_model()
    x = rng(22).standard_normal((30, 2))
    full = md.score(model, x, n_samples=3)
    chunked = md.score(model, x, n_samples=3, batch_size=7)
    np.testing.assert_array_equal(full, chunked)


def test_score_variance_shrinks_with_samples():
    model = toy_model()
    x = rng(23).standard_normal((5, 2))
    small = np.var([md.score(model, x, n_samples=1, seed=s) for s in range(20)], axis=0)
    big = np.var([md.score(model, x, n_samples=16, seed=s) for s in range(20)], axis=0)
    assert big.mean() < small.mean() / 4.0  # expect ~1/16, allow slack


def test_dp_score_invariant_to_alpha():
    model = toy_model(method="dp", alpha=5.0)
    x = rng(24).standard_normal((6, 2))
    a = md.score(model, x, n_samples=4)
    model.prior = vb.PriorSpec(dim=2, alpha=50.0)
    b = md.score(model, x, n_samples=4)
    np.testing.assert_array_equal(a, b)


def test_ensemble_score_mean_and_permutation_invariance():
    members = [toy_model(seed=s) for s in range(3)]
    ens = md.Ensemble(members)
    x = rng(25).standard_normal((8, 2))
    got = md.ensemble_score(ens, x, n_samples=4)
    per = np.stack([md.score(m, x, n_samples=4) for m in members])
    np.testing.assert_allclose(got, per.mean(axis=0), atol=1e-12)
    shuffled = md.Ensemble([members[2], members[0], members[1]])
    np.testing.assert_allclose(md.ensemble_score(shuffled, x, n_samples=4),
                               got, atol=1e-12)


def test_ensemble_single_member_equals_model_score():
    m = toy_model(seed=4)
    x = rng(26).standard_normal((5, 2))
    np.testing.assert_array_equal(md.ensemble_score(md.Ensemble([m]), x, 4),
                                  md.score(m, x, 4))


def test_ensemble_validation():
    with pytest.raises(ValueError, match="distinct"):
        md.Ensemble([toy_model(seed=1), toy_model(seed=1)])
    with pytest.raises(ValueError, match="at least one"):
        md.Ensemble([])
    other_arch = md.SsadModel.create(nb.MlpSpec(widths=(4, 2)), 2, "mml", seed=2)
    with pytest.raises(ValueError, match="architecture"):
        md.Ensemble([toy_model(seed=1), other_arch])


def test_ensemble_save_load_roundtrip(tmp_path):
    members = [toy_model(method="dp", alpha=5.0, seed=s) for s in (3, 4)]
    ens = md.Ensemble(members)
    md.save_ensemble(tmp_path / "run", ens, extra={"epochs": 7})
    loaded, manifest = md.load_ensemble(tmp_path / "run")
    assert manifest["epochs"] == 7
    assert manifest["method"] == "dp"
    x = rng(27).standard_normal((6, 2))
    np.testing.assert_array_equal(md.ensemble_score(loaded, x, 4),
                                  md.ensemble_score(ens, x, 4))


# ---------------------------------------------------------------------------
# stacked members

def test_stack_and_unstack_members_round_trip():
    members = [toy_model(seed=s) for s in (3, 4, 5)]
    stacked = md.stack_members(members)
    for slot, *ts in zip(stacked.parameters(), *(m.parameters() for m in members)):
        assert slot.shape[0] == 3 and slot.data.ndim == 3
        for k, t in enumerate(ts):
            np.testing.assert_array_equal(slot.data[k].reshape(t.shape), t.data)
    for slot in stacked.parameters():
        slot.data = slot.data + np.arange(3.0).reshape(3, 1, 1)
    md.unstack_members(stacked, members)
    for k, m in enumerate(members):
        for t, fresh in zip(m.parameters(), toy_model(seed=3 + k).parameters()):
            np.testing.assert_array_equal(t.data, fresh.data + k)


def test_stacked_outlier_term_keeps_an_overflow_to_its_member():
    # member 0's CUBO overflows (log domain), member 1 sits in the exp
    # domain; stacked, each member's loss and gradients are its solo ones
    # bit for bit, and member 1's stay finite. A Bernoulli decoder with a
    # large output bias on out-of-range targets drives -2 L_R far above
    # the exp limit.
    spec = nb.MlpSpec(widths=(6, 2))

    def member(seed):
        return md.SsadModel.create(spec, 1, "mml", seed=seed, gamma=1.0,
                                   family="bernoulli")

    def solo(seed, x, bias):
        m = member(seed)
        m.decoder.bs[-1].data[...] = bias
        rep = md.outlier_update_term(m, x, s_cubo=4, rng=rng(seed, 40))
        gc.backward(rep.loss)
        return m, rep

    x_over = np.full((3, 1), 50.0)
    x_exp = np.array([[0.0], [1.0], [0.0]])
    over, rep_over = solo(1, x_over, 20.0)
    exp, rep_exp = solo(2, x_exp, 0.0)
    assert (rep_over.cubo_log_domain, rep_exp.cubo_log_domain) == (True, False)
    assert rep_over.cubo.overflowed and not rep_exp.cubo.overflowed

    fresh = [member(1), member(2)]
    fresh[0].decoder.bs[-1].data[...] = 20.0
    stacked = md.stack_members(fresh)
    rep = md.outlier_update_term(stacked, np.stack([x_over, x_exp]), s_cubo=4,
                                 rng=[rng(1, 40), rng(2, 40)])
    assert rep.cubo_log_domain == [True, False]
    gc.backward(gc.reduce_sum(rep.loss))
    for k, solo_model in enumerate((over, exp)):
        assert rep.loss.data[k].tobytes() == np.asarray(
            (rep_over, rep_exp)[k].loss.data).tobytes()
        for slot, t in zip(stacked.encoder.tensors(), solo_model.encoder.tensors()):
            g = slot.grad[k].reshape(t.shape)
            assert np.isfinite(g).all()
            assert g.tobytes() == t.grad.tobytes()
