import dataclasses
import json
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from ssadvae import datakit as dk
from ssadvae import fanout as fo
from ssadvae import gradcore as gc
from ssadvae import models as md
from ssadvae import netblocks as nb
from ssadvae import trainer as tr
from ssadvae import vbounds as vb
from conftest import PinnedNoise, encoded

SPEC = nb.MlpSpec(widths=(6, 2))


def rng(seed, stream=9):
    return nb.philox_rng(seed, stream)


def toy_model(method="mml", seeds=(0,), alpha=5.0, gamma=1.0, in_dim=2):
    return md.SsadModel.create(SPEC, in_dim, method, seeds, alpha=alpha,
                               gamma=gamma, beta_kl=0.05, beta_cubo=0.05)


def solo(model):
    """A K=1 model's encoder and decoder as unstacked constants: the oracles
    below evaluate them on (batch, d) inputs."""
    return model.encoder.member(0), model.decoder.member(0)


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


def outlier_term(stacked, xo, seed):
    """The outlier term of a K=1 stack on (m, d) outliers, its noise drawn
    from rng(seed)."""
    return md.outlier_update_term(stacked, xo[None], stacked.beta_kl, 1, 8,
                                  [rng(seed)])


def full_loss(stacked, xn, xo, noise_normal, outlier_seed):
    """What training optimizes for a K=1 stack: the normal term plus the
    outlier term."""
    loss, _ = md.normal_term(stacked, xn[None], stacked.beta_kl, 1,
                             [PinnedNoise(noise_normal)])
    rep = outlier_term(stacked, xo, outlier_seed)
    return gc.add(loss, rep.loss), rep


def cubo_oracle(cubo):
    """(target, log domain) of an unstacked CUBO report, by the rule that
    cubo_objective applies to each member."""
    rows = cubo.per_sample_log.data
    log_domain = not md.CUBO_LOG_DOMAIN_MIN <= rows.max() <= md.LOG_EXP_LIMIT
    return (cubo.log_value.item() if log_domain else np.exp(rows).mean()), log_domain


def test_mml_gamma_zero_is_exact_negative_elbo():
    model = toy_model(gamma=0.0)
    xn, xo = batches()
    noise = rng(2).standard_normal((1, 4, 2))
    loss, rep = full_loss(model, xn, xo, noise, 3)
    direct = vb.elbo_from_posterior(*encoded(*solo(model), xn), 0.0, model.beta_kl,
                                    noise)
    assert rep.loss.data[0] == 0.0
    assert loss.data[0] == -direct.elbo.item()


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
    np.testing.assert_array_equal(a.flat.data, b.flat.data)


def test_mml_terms_compose_from_vbounds_oracles():
    # 1-D model, pinned noise: loss == gamma * cubo - elbo where both pieces
    # are evaluated independently of the loss path, the CUBO in the domain
    # cubo_objective picked: exp for near outliers, log for far ones
    model = toy_model(gamma=0.7, in_dim=1)
    xn = rng(3).standard_normal((4, 1))
    noise_n = rng(5).standard_normal((1, 4, 2))
    elbo_ref = vb.elbo_from_posterior(*encoded(*solo(model), xn), 0.0, 0.05,
                                      noise_n).elbo.item()
    domains = []
    for shift in (0.0, 4.0):
        xo = rng(4).standard_normal((2, 1)) + shift
        loss, rep = full_loss(model, xn, xo, noise_n, 6)
        cubo_ref, log_domain = cubo_oracle(vb.cubo_from_posterior(
            *encoded(*solo(model), xo), 0.05, rng(6).standard_normal((8, 2, 2))))
        assert rep.cubo_log_domain == [log_domain]
        assert loss.data[0] == pytest.approx(0.7 * cubo_ref - elbo_ref, rel=1e-12)
        domains.append(log_domain)
    assert domains == [False, True]


def test_dp_terms_compose_from_elbo_oracles():
    model = toy_model(method="dp", alpha=10.0, in_dim=1)
    xn = rng(7).standard_normal((4, 1))
    xo = rng(8).standard_normal((2, 1)) + 4.0
    noise_n = rng(9).standard_normal((1, 4, 2))
    loss, rep = full_loss(model, xn, xo, noise_n, 10)

    e_n = vb.elbo_from_posterior(*encoded(*solo(model), xn), 0.0, 0.05, noise_n)
    e_o = vb.elbo_from_posterior(*encoded(*solo(model), xo), 10.0, 0.05,
                                 rng(10).standard_normal((1, 2, 2)))
    assert rep.cubo_log_domain is None
    assert loss.data[0] == pytest.approx(
        -(e_n.elbo.item() + e_o.elbo.item()), rel=1e-12)


def test_dp_alpha_zero_override_collapses_priors():
    # bypass the constructor invariant to probe the degenerate-prior case
    model = toy_model(method="dp", alpha=1.0, in_dim=2)
    model.alpha = 0.0
    _, xo = batches()
    rep = outlier_term(model, xo, 11)
    same_prior = vb.elbo_from_posterior(*encoded(*solo(model), xo), 0.0, 0.05,
                                        rng(11).standard_normal((1, 2, 2)))
    assert rep.loss.data[0] == pytest.approx(-same_prior.elbo.item(), rel=1e-12)


def test_dp_empty_outlier_batch_plain_negative_elbo():
    # with no outlier updates dp trains on its normal term alone, which is
    # the plain negative ELBO under the zero-mean prior whatever alpha is
    model = toy_model(method="dp", alpha=5.0)
    xn, _ = batches()
    noise = rng(2).standard_normal((1, 4, 2))
    loss, _ = md.normal_term(model, xn[None], 0.05, 1, [PinnedNoise(noise)])
    direct = vb.elbo_from_posterior(*encoded(*solo(model), xn), 0.0, 0.05, noise)
    assert loss.data[0] == -direct.elbo.item()


def test_hybrid_is_dp_plus_weighted_cubo():
    model = toy_model(method="hybrid", alpha=5.0, gamma=0.5, in_dim=2)
    _, xo = batches()
    rep = outlier_term(model, xo, 14)
    g = rng(14)  # the outlier ELBO draws its noise first, then the CUBO
    no = g.standard_normal((1, 2, 2))
    nc = g.standard_normal((8, 2, 2))
    dp_ref = vb.elbo_from_posterior(*encoded(*solo(model), xo), 5.0, 0.05,
                                    no).elbo.item()
    cubo_ref, log_domain = cubo_oracle(vb.cubo_from_posterior(
        *encoded(*solo(model), xo), 0.05, nc))
    assert rep.cubo_log_domain == [log_domain]
    assert rep.loss.data[0] == pytest.approx(-dp_ref + 0.5 * cubo_ref, rel=1e-12)


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
        full_loss(model, xn, xo, rng(16).standard_normal((1, 4, 2)), 17)
        assert len(seen) == 2 and seen[0] is seen[1]


@pytest.mark.parametrize("method", ["mml", "dp", "hybrid"])
def test_outlier_terms_leave_decoder_gradient_free(method):
    model = toy_model(method=method, alpha=5.0)
    _, xo = batches()
    rep = outlier_term(model, xo, 18)
    gc.backward(gc.reduce_sum(rep.loss))
    assert all(t.grad is None for t in model.decoder.tensors())
    assert any(t.grad is not None for t in model.encoder.tensors())


def test_full_loss_decoder_gradient_comes_only_from_normal_term():
    model = toy_model(method="mml", gamma=2.0)
    xn, xo = batches()
    nn = rng(19).standard_normal((1, 4, 2))
    loss, _ = full_loss(model, xn, xo, nn, 20)
    model.zero_grads()
    gc.backward(gc.reduce_sum(loss))
    with_outliers = [t.grad for t in model.decoder.tensors()]
    assert all(g is not None for g in with_outliers)
    # same seed -> same decoder; the outlier term must not have added anything
    ref_model = toy_model(method="mml", gamma=2.0)
    ref, _ = md.normal_term(ref_model, xn[None], ref_model.beta_kl, 1,
                            [PinnedNoise(nn)])
    gc.backward(gc.reduce_sum(ref))
    for g_full, t in zip(with_outliers, ref_model.decoder.tensors()):
        np.testing.assert_array_equal(g_full, t.grad)


def test_outlier_update_term_dispatch_all_methods():
    _, xo = batches()
    with pytest.raises(ValueError, match="no outlier update"):
        outlier_term(toy_model(method="vae"), xo, 30)
    for method in ("mml", "dp", "hybrid"):
        rep = outlier_term(toy_model(method=method, alpha=5.0), xo, 30)
        assert rep.loss.shape == (1,) and np.isfinite(rep.loss.data).all()
        assert (rep.cubo_log_domain is not None) == (method in ("mml", "hybrid"))


def test_bernoulli_family_trains_end_to_end():
    g = rng(31)
    x = (g.uniform(size=(40, 5)) < 0.3).astype(float)  # binary data in [0,1]
    model = md.SsadModel.create(nb.MlpSpec(widths=(6, 2)), 5, "mml", [9],
                                gamma=1.0, family="bernoulli")
    loss, rep = md.normal_term(model, x[None], model.beta_kl, 1, [rng(32)])
    model.zero_grads()
    gc.backward(gc.reduce_sum(loss))
    assert np.isfinite(loss.data).all()
    assert all(t.grad is not None for t in model.decoder.tensors())
    cubo = outlier_term(model, x[:4], 33)
    assert np.isfinite(cubo.loss.data).all()


def test_cubo_objective_band():
    # a K=1 report: the log domain below CUBO_LOG_DOMAIN_MIN and above
    # LOG_EXP_LIMIT, the exp domain in between
    for top, want_log in ((-40.0, True), (-3.0, False), (800.0, True)):
        rep = vb.CuboReport(log_value=gc.constant([top]),
                            per_sample_log=gc.constant([[top]]))
        target, log_domain = md.cubo_objective(rep, 0)
        assert log_domain == want_log
        assert target.item() == (top if want_log else np.exp(np.array([top]))[0])


@pytest.mark.parametrize("tops", [
    ("over", "mid"), ("mid", "over"), ("under", "mid"), ("mid", "under"),
    ("over", "under"), ("under", "over")])
def test_cubo_objective_picks_each_members_domain(tops):
    # K=2, the members' largest per-sample log values on opposite sides of
    # a limit: each member gets its own domain, its target reads only its
    # own row, and an overflowing neighbour leaves its gradient finite
    at = {"over": md.LOG_EXP_LIMIT + 100.0, "mid": md.LOG_EXP_LIMIT - 1.0,
          "under": md.CUBO_LOG_DOMAIN_MIN - 0.5}
    if "over" not in tops:
        at["mid"] = md.CUBO_LOG_DOMAIN_MIN + 0.5
    rows = np.array([[at[t], at[t] - 1.0, at[t] - 2.0] for t in tops])
    per_sample = gc.parameter(rows)
    rep = vb.CuboReport(gc.reduce_mean(per_sample, axis=-1), per_sample)
    for k, top in enumerate(tops):
        per_sample.zero_grad()
        target, log_domain = md.cubo_objective(rep, k)
        assert log_domain == (top != "mid")
        want = rows[k].mean() if log_domain else np.exp(rows[k]).mean()
        assert target.item() == pytest.approx(want, rel=1e-12)
        gc.backward(target)
        assert np.isfinite(per_sample.grad).all()
        assert per_sample.grad[k].all() and not per_sample.grad[1 - k].any()


# ---------------------------------------------------------------------------
# scoring

def test_score_deterministic_and_seeded():
    model = toy_model()
    x = rng(21).standard_normal((10, 2))
    a = md.score(model, x, 0, n_samples=4)
    b = md.score(model, x, 0, n_samples=4)
    np.testing.assert_array_equal(a, b)
    c = md.score(dataclasses.replace(model, seeds=[123]), x, 0, n_samples=4)
    assert not np.array_equal(a, c)


def test_score_batch_size_does_not_change_values():
    model = toy_model()
    x = rng(22).standard_normal((30, 2))
    full = md.score(model, x, 0, n_samples=3)
    chunked = md.score(model, x, 0, n_samples=3, batch_size=7)
    np.testing.assert_array_equal(full, chunked)


def _reference_score(model, x, n_samples, batch_size):
    """Scoring as one (S, n, d_z) noise draw, sliced per row batch."""
    noise = nb.philox_rng(model.seeds[0], nb.STREAM_SCORE).standard_normal(
        (n_samples, x.shape[0], model.encoder.latent_dim))
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], batch_size):
        hi = lo + batch_size
        rep = vb.elbo_from_posterior(*encoded(*solo(model), x[lo:hi]), 0.0, 1.0,
                                     noise[:, lo:hi])
        out[lo:hi] = rep.per_sample.data
    return out


@pytest.mark.parametrize("n", [5, 32, 37])  # < batch, a multiple, neither
@pytest.mark.parametrize("n_samples", [1, 64])
@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_score_equals_one_noise_draw_byte_for_byte(n, n_samples, family):
    # every activation; (80, 4, 3) has a decoder layer too wide to spread its
    # bias. Biases start at zero, so they are drawn here to show in the bytes.
    x = rng(28).standard_normal((n, 5))
    for widths in ((6, 4, 3), (80, 4, 3)):
        for activation in ("leaky-relu", "relu", "sigmoid"):
            spec = nb.MlpSpec(widths=widths, activation=activation)
            model = md.SsadModel.create(spec, 5, "mml", [8], family=family)
            for _, b in model.encoder.layers[:-2] + model.decoder.layers:
                b.data[...] = rng(30).standard_normal(b.data.shape)
            got = md.score(model, x, 0, n_samples=n_samples, batch_size=16)
            want = _reference_score(model, x, n_samples, 16)
            assert got.tobytes() == want.tobytes(), (widths, activation)


def test_score_of_no_rows_is_empty():
    assert md.score(toy_model(), np.empty((0, 2)), 0, n_samples=4).shape == (0,)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("n_samples", [0, -1])
def test_score_rejects_fewer_than_one_sample_with_or_without_rows(n, n_samples):
    model, x = toy_model(seeds=(0, 1)), np.zeros((n, 2))
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        md.score(model, x, 0, n_samples=n_samples)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        md.ensemble_score(model, x, n_samples=n_samples)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("width", [1, 5])
def test_score_rejects_a_matrix_of_another_width_with_or_without_rows(n, width):
    model = toy_model(seeds=(0, 1))
    want = re.escape(f"expected a (n, 2) matrix, got shape ({n}, {width})")
    with pytest.raises(ValueError, match=want):
        md.score(model, np.zeros((n, width)), 1)
    with pytest.raises(ValueError, match=want):
        md.ensemble_score(model, np.zeros((n, width)))


@pytest.mark.parametrize("x", [5.0, np.zeros(2), np.zeros((1, 3, 2))],
                         ids=["0-d", "1-d", "3-d"])
def test_score_rejects_what_is_not_a_matrix(x):
    model = toy_model(seeds=(0, 1))
    want = re.escape(f"expected a (n, 2) matrix, got shape {np.shape(x)}")
    with pytest.raises(ValueError, match=want):
        md.score(model, x, 1)
    with pytest.raises(ValueError, match=want):
        md.ensemble_score(model, x)


def test_score_memory_does_not_grow_with_samples():
    # one (S, n, d_z) draw alone would be 20000 * 64 * 8 * 8 B = 82 MB
    model = md.SsadModel.create(nb.MlpSpec(widths=(32, 16, 8)), 21, "mml", [9])
    x = rng(29).standard_normal((20000, 21))
    tracemalloc.start()
    try:
        md.score(model, x, 0, n_samples=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("n_samples", [1, 3])
def test_score_joins_its_noise_helper(monkeypatch, n_samples):
    # the helper that draws the next noise block is gone when score
    # returns, and when a decoder pass raises while a draw may be in flight
    model = toy_model(seeds=(0, 1, 2))
    x = rng(32).standard_normal((10, 2))  # three row batches of 4
    before = threading.active_count()
    for k in range(3):
        md.score(model, x, k, n_samples=n_samples, batch_size=4)
        assert threading.active_count() == before
    calls, decode_array = [], nb.decode_array
    boom = RuntimeError("third decoder pass")

    def failing_decode_array(*args):
        calls.append(args)
        if len(calls) == 3:
            raise boom
        return decode_array(*args)

    monkeypatch.setattr(nb, "decode_array", failing_decode_array)
    for k in range(3):
        calls.clear()
        with pytest.raises(RuntimeError) as caught:
            md.score(model, x, k, n_samples=n_samples, batch_size=4)
        assert caught.value is boom and len(calls) == 3
        assert threading.active_count() == before


def test_score_variance_shrinks_with_samples():
    model = toy_model()
    x = rng(23).standard_normal((5, 2))
    reseeded = [dataclasses.replace(model, seeds=[s]) for s in range(20)]
    small = np.var([md.score(m, x, 0, n_samples=1) for m in reseeded], axis=0)
    big = np.var([md.score(m, x, 0, n_samples=16) for m in reseeded], axis=0)
    assert big.mean() < small.mean() / 4.0  # expect ~1/16, allow slack


def test_dp_score_invariant_to_alpha():
    model = toy_model(method="dp", alpha=5.0)
    x = rng(24).standard_normal((6, 2))
    a = md.score(model, x, 0, n_samples=4)
    model.alpha = 50.0
    b = md.score(model, x, 0, n_samples=4)
    np.testing.assert_array_equal(a, b)


def test_scoring_builds_no_graph(monkeypatch):
    # every node scoring makes must be a constant: a recorded node would keep
    # a block's activations alive until the whole score ends
    made, make_node = [], gc.make_node

    def recording_make_node(*args, **kwargs):
        made.append(make_node(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(gc, "make_node", recording_make_node)
    md.ensemble_score(toy_model(seeds=(0, 1)), rng(31).standard_normal((7, 2)),
                      n_samples=3, batch_size=4)
    assert made
    assert not any(t.parents or t.requires_grad for t in made)


def test_far_out_row_scores_minus_inf_without_a_warning():
    # mu * mu and the reconstruction's diff * diff overflow for this row
    x = np.array([[0.1, 0.2], [1e306, 0.2], [0.5, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = md.score(toy_model(seeds=(3,)), x, 0, n_samples=4)
    assert got[1] == -np.inf and np.isfinite(got[[0, 2]]).all()


def test_ensemble_score_mean_and_permutation_invariance():
    model = toy_model(seeds=(0, 1, 2))
    x = rng(25).standard_normal((8, 2))
    got = md.ensemble_score(model, x, n_samples=4)
    per = np.stack([md.score(model, x, k, n_samples=4) for k in range(3)])
    np.testing.assert_allclose(got, per.mean(axis=0), atol=1e-12)
    shuffled = toy_model(seeds=(2, 0, 1))
    np.testing.assert_allclose(md.ensemble_score(shuffled, x, n_samples=4),
                               got, atol=1e-12)


def test_ensemble_single_member_equals_model_score():
    m = toy_model(seeds=(4,))
    x = rng(26).standard_normal((5, 2))
    np.testing.assert_array_equal(md.ensemble_score(m, x, 4),
                                  md.score(m, x, 0, 4))


def _forking(monkeypatch, cpus):
    """``ensemble_score`` sees ``cpus`` usable CPUs; returns the list that
    the member indices of each forked group are appended to."""
    forked, fork = [], fo._fork

    def recorded(fn, members):
        forked.append(members)
        return fork(fn, members)

    monkeypatch.setattr(md, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fo, "_fork", recorded)
    return forked


@pytest.mark.parametrize("method", md.METHODS)
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_member_groups_score_the_in_process_bytes(monkeypatch, method,
                                                         k, cpus):
    model = toy_model(method=method, seeds=tuple(range(10, 10 + k)))
    x = rng(33).standard_normal((37, 2))
    forked = _forking(monkeypatch, 1)
    want = md.ensemble_score(model, x, n_samples=3, batch_size=16)
    assert forked == []
    monkeypatch.setattr(md, "_usable_cpus", lambda: cpus)
    got = md.ensemble_score(model, x, n_samples=3, batch_size=16)
    assert forked == fo._member_groups(list(range(k)), min(k, cpus))[1:]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_forked_score_raises_the_in_process_error(monkeypatch, cpus):
    # members 3 and 4 fail in their decoder pass: member 3's error is
    # raised, whether it ran in this process, alone in a child or before
    # member 4 in one
    model = toy_model(seeds=(0, 1, 2, 3, 4))
    decode_array = nb.decode_array

    def failing_decode_array(spec, layers, z):
        for k in (3, 4):
            if np.shares_memory(layers[0][0], model.decoder.layers[0][0].data[k]):
                raise RuntimeError(f"decoder pass of member {k}")
        return decode_array(spec, layers, z)

    monkeypatch.setattr(nb, "decode_array", failing_decode_array)
    forked = _forking(monkeypatch, cpus)
    with pytest.raises(RuntimeError, match=r"^decoder pass of member 3$"):
        md.ensemble_score(model, rng(34).standard_normal((6, 2)), n_samples=2)
    assert forked == fo._member_groups([0, 1, 2, 3, 4], cpus)[1:]


def test_score_checks_and_empty_input_fork_nothing(monkeypatch):
    model = toy_model(seeds=(0, 1, 2))
    forked = _forking(monkeypatch, 3)
    with pytest.raises(ValueError, match=re.escape("got shape ()")):
        md.ensemble_score(model, 5.0)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        md.ensemble_score(model, np.zeros((4, 2)), n_samples=0)
    assert md.ensemble_score(model, np.empty((0, 2))).shape == (0,)
    assert forked == []


def test_score_does_not_fork_while_another_thread_runs(monkeypatch):
    model = toy_model(seeds=(0, 1, 2))
    x = rng(35).standard_normal((9, 2))
    want = md.ensemble_score(model, x, n_samples=3)
    forked = _forking(monkeypatch, 3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = md.ensemble_score(model, x, n_samples=3)
    finally:
        stop.set()
        other.join()
    assert forked == [] and got.tobytes() == want.tobytes()


def test_ensemble_validation():
    with pytest.raises(ValueError, match="distinct, got \\[1, 2, 1\\]"):
        toy_model(seeds=(1, 2, 1))
    with pytest.raises(ValueError, match="non-empty, got \\[\\]"):
        toy_model(seeds=())
    model = toy_model(seeds=(1, 2))
    with pytest.raises(ValueError, match="non-empty"):
        md.SsadModel(model.encoder, model.decoder, "mml", 0.0, [], model.flat,
                     1.0, 0.05, 0.05)
    # a bool is an int to Python, but True would score with seed 1
    for seeds in ([0.5, 1.5], ["a", "b"], [True, False]):
        with pytest.raises(ValueError, match="seeds must be integers"):
            md.SsadModel(model.encoder, model.decoder, "mml", 0.0, seeds, model.flat,
                         1.0, 0.05, 0.05)


def test_ensemble_save_load_roundtrip(tmp_path):
    model = toy_model(method="dp", alpha=5.0, seeds=(3, 4))
    md.save_ensemble(tmp_path / "run", model, extra={"epochs": 7})
    loaded, manifest = md.load_ensemble(tmp_path / "run")
    assert manifest["epochs"] == 7
    assert manifest["method"] == "dp"
    assert loaded.seeds == [3, 4]
    x = rng(27).standard_normal((6, 2))
    np.testing.assert_array_equal(md.ensemble_score(loaded, x, 4),
                                  md.ensemble_score(model, x, 4))


def test_load_ensemble_reads_a_run_directory_with_member_sidecars(tmp_path):
    # older runs wrote a member_XX.json beside each .bin, repeating what the
    # manifest holds; such a directory loads as it is and scores the same
    model = toy_model(method="dp", seeds=(3, 4))
    md.save_ensemble(tmp_path, model)
    for k in range(2):
        (tmp_path / f"member_{k:02d}.json").write_text(json.dumps({
            "spec": SPEC.to_dict(), "in_dim": 2, "out_dim": 2,
            "family": "gaussian", "n_encoder_arrays": 6, "n_decoder_arrays": 4},
            indent=2, sort_keys=True) + "\n")
    loaded, _ = md.load_ensemble(tmp_path)
    x = rng(28).standard_normal((6, 2))
    assert (md.ensemble_score(loaded, x, 4).tobytes()
            == md.ensemble_score(model, x, 4).tobytes())


def test_interrupted_rewrite_leaves_no_loadable_ensemble(tmp_path, monkeypatch):
    md.save_ensemble(tmp_path, toy_model(seeds=(3, 4)))
    save = nb.save_params

    def fail_on_member_1(path, enc, dec):
        if str(path).endswith("member_01.bin"):
            raise OSError("disk full")
        save(path, enc, dec)

    monkeypatch.setattr(nb, "save_params", fail_on_member_1)
    with pytest.raises(OSError, match="disk full"):
        md.save_ensemble(tmp_path, toy_model(seeds=(5, 6)))
    # member 0 is new and member 1 old: without a manifest neither loads
    with pytest.raises(dk.DataError, match="manifest.json"):
        md.load_ensemble(tmp_path)


def test_load_ensemble_names_the_manifest_for_its_own_keys(tmp_path):
    md.save_ensemble(tmp_path, toy_model(seeds=(3,)))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["alpha"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dk.DataError,
                       match=f"^{tmp_path / 'manifest.json'}: missing key 'alpha'"):
        md.load_ensemble(tmp_path)


def test_save_load_save_is_byte_equal(tmp_path):
    # a one-feature hybrid model, every parameter drawn through the views
    model = toy_model(method="hybrid", seeds=(3, 4, 5), in_dim=1)
    model.flat.data[...] = rng(40).standard_normal(model.flat.data.shape)
    md.save_ensemble(tmp_path / "a", model, extra={"epochs": 7})
    loaded, manifest = md.load_ensemble(tmp_path / "a")
    assert loaded.flat.data.tobytes() == model.flat.data.tobytes()
    md.save_ensemble(tmp_path / "b", loaded, extra={"epochs": 7})
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["manifest.json", "member_00.bin", "member_01.bin",
                     "member_02.bin"]
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_loaded_stack_is_views_into_its_own_flat_buffer(tmp_path):
    md.save_ensemble(tmp_path, toy_model(seeds=(3, 4)))
    loaded, _ = md.load_ensemble(tmp_path)
    flat = loaded.flat
    assert flat.data.shape == flat.grad.shape
    assert flat.data.shape[1] == sum(t.data[0].size for t in loaded.parameters())
    for t in loaded.parameters():
        assert t.data.shape[0] == 2
        assert np.shares_memory(t.data, flat.data)
        assert np.shares_memory(t.grad_view, flat.grad)
    before = [t.data.copy() for t in loaded.parameters()]
    flat.data += 1.0
    for t, old in zip(loaded.parameters(), before):
        np.testing.assert_array_equal(t.data, old + 1.0)


@pytest.mark.parametrize("in_dim", [1, 2])  # 1: a (K, 1, width) first weight
def test_member_score_equals_its_solo_stack(in_dim):
    seeds = (5, 3, 8)
    model = toy_model(seeds=seeds, in_dim=in_dim)
    x = rng(42).standard_normal((9, in_dim))
    for k, seed in enumerate(seeds):
        alone = toy_model(seeds=(seed,), in_dim=in_dim)
        assert (md.score(model, x, k, n_samples=3).tobytes()
                == md.score(alone, x, 0, n_samples=3).tobytes())


# ---------------------------------------------------------------------------
# stacked members

def test_stacked_outlier_term_keeps_an_overflow_to_its_member():
    # member 0's CUBO overflows (log domain), member 1 sits in the exp
    # domain; stacked, each member's loss and gradients are its solo ones
    # bit for bit, and member 1's stay finite. A Bernoulli decoder with a
    # large output bias on out-of-range targets drives -2 L_R far above
    # the exp limit.
    spec = nb.MlpSpec(widths=(6, 2))

    def members(*seeds):
        return md.SsadModel.create(spec, 1, "mml", seeds, gamma=1.0,
                                   family="bernoulli")

    def alone(seed, x, bias):
        m = members(seed)
        m.decoder.layers[-1][1].data[...] = bias
        rep = md.outlier_update_term(m, x[None], m.beta_kl, 1, 4, [rng(seed, 40)])
        gc.backward(gc.reduce_sum(rep.loss))
        cubo = vb.cubo_loss(m.encoder, m.decoder, x[None], m.beta_cubo,
                            n_samples=4, rng=[rng(seed, 40)])
        return m, rep, cubo.per_sample_log.data.max() > md.LOG_EXP_LIMIT

    x_over = np.full((3, 1), 50.0)
    x_exp = np.array([[0.0], [1.0], [0.0]])
    over, rep_over, overflowed = alone(1, x_over, 20.0)
    exp, rep_exp, exp_overflowed = alone(2, x_exp, 0.0)
    assert (rep_over.cubo_log_domain, rep_exp.cubo_log_domain) == ([True], [False])
    assert overflowed and not exp_overflowed

    stacked = members(1, 2)
    stacked.decoder.layers[-1][1].data[0] = 20.0
    rep = md.outlier_update_term(stacked, np.stack([x_over, x_exp]),
                                 stacked.beta_kl, 1, 4, [rng(1, 40), rng(2, 40)])
    assert rep.cubo_log_domain == [True, False]
    gc.backward(gc.reduce_sum(rep.loss))
    for k, solo_model in enumerate((over, exp)):
        assert rep.loss.data[k].tobytes() == np.asarray(
            (rep_over, rep_exp)[k].loss.data).tobytes()
        for slot, t in zip(stacked.encoder.tensors(), solo_model.encoder.tensors()):
            g = slot.grad[k].reshape(t.shape)
            assert np.isfinite(g).all()
            assert g.tobytes() == t.grad.tobytes()


def test_stacked_parameters_are_views_into_the_flat_buffers():
    # encoder tensors first, in parameters() order, then the decoder; each
    # one's data and gradient are column ranges of the (K, P) buffers
    stacked, second = toy_model(seeds=(3, 4)), toy_model(seeds=(4,))
    flat = stacked.flat
    off = 0
    for i, (slot, t) in enumerate(zip(stacked.parameters(), second.parameters())):
        if i == len(stacked.encoder.tensors()):
            assert off == flat.n_encoder
        cols = flat.data[:, off:off + t.data.size]
        assert np.shares_memory(slot.data, flat.data)
        assert np.shares_memory(slot.grad_view, flat.grad)
        assert cols[1].tobytes() == t.data.tobytes()
        assert slot.data[1].tobytes() == t.data.tobytes()
        off += t.data.size
    assert off == flat.data.shape[1] and flat.data.shape == flat.grad.shape == (2, off)
    slot = stacked.parameters()[0]
    slot.data[1] += 1.0  # an update through the view lands in the buffer
    assert flat.data[1, :slot.data[1].size].tobytes() == slot.data[1].tobytes()


def test_failed_manifest_write_leaves_no_temporary_file(tmp_path):
    import hashlib

    def digests():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(tmp_path.iterdir())}

    model = toy_model(seeds=(3, 4))
    md.save_ensemble(tmp_path, model, extra={"epochs": 7})
    before = digests()
    # json.dump has written the keys before "epochs" when it raises
    with pytest.raises(TypeError, match="not JSON serializable"):
        md.save_ensemble(tmp_path, model, extra={"epochs": object()})
    # the old manifest goes before the first member write, so nothing loads,
    # and the member files are written again with the same bytes
    del before["manifest.json"]
    assert digests() == before
