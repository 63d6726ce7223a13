"""End-to-end acceptance checks, one test per criterion, each printing one
pass/fail line with the measured values.

Criteria 6 and 7 need converted ODDS CSVs (see scripts/convert_odds.py and
the README); they skip when the files are absent and run in full when
SSADVAE_ODDS_DIR (or ./data/odds) provides thyroid.csv / cardio.csv.
"""
import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from fdcheck import finite_diff_check

from ssadvae import cli
from ssadvae import datakit as dk
from ssadvae import gradcore as gc
from ssadvae import models as md
from ssadvae import netblocks as nb
from ssadvae import trainer as tr
from ssadvae import vbounds as vb

LOG_2PI = math.log(2.0 * math.pi)

ODDS_DIR = Path(os.environ.get("SSADVAE_ODDS_DIR",
                               Path(__file__).resolve().parent.parent / "data" / "odds"))


def odds_path(name):
    return ODDS_DIR / f"{name}.csv"


def have_odds(*names):
    return all(odds_path(n).exists() for n in names)


def report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    return ok


def rng(seed, stream=33):
    return nb.philox_rng(seed, stream)


# ---------------------------------------------------------------------------
# 1. gradient correctness for every differentiable op and the full losses

def _slots(params):
    """(layer list, layer index, 0 for the weight or 1 for the bias) for
    every parameter of one network."""
    return [(params.layers, i, j) for i, pair in enumerate(params.layers)
            for j, t in enumerate(pair) if t is not None]


def _slot_get(slot):
    layers, i, j = slot
    return layers[i][j]


def _slot_set(slot, tensor):
    layers, i, j = slot
    pair = list(layers[i])
    pair[j] = tensor
    layers[i] = tuple(pair)


def _max_fd_error(slots, loss_fn):
    worst = 0.0
    for slot in slots:
        original = _slot_get(slot)

        def f(leaf, slot=slot, original=original):
            _slot_set(slot, leaf)
            try:
                return loss_fn()
            finally:
                _slot_set(slot, original)

        worst = max(worst, finite_diff_check(f, original.data, eps=1e-5))
    return worst


def _max_fd_error_over_params(model, full_loss_fn, normal_loss_fn):
    """Encoder parameters are checked against the full loss; decoder
    parameters against the normal term alone, because the outlier term
    treats the decoder as a frozen constant (its contribution to the
    decoder gradient is exactly zero by contract, checked separately)."""
    return max(_max_fd_error(_slots(model.encoder), full_loss_fn),
               _max_fd_error(_slots(model.decoder), normal_loss_fn))


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    g = rng(1)
    worst_ops = 0.0

    for op in (gc.neg, gc.exp, gc.square, gc.sigmoid, gc.softplus):
        for _ in range(100):
            p = g.standard_normal(4) * 1.5
            worst_ops = max(worst_ops, finite_diff_check(
                lambda t: gc.reduce_sum(gc.square(op(t))), p))
    for _ in range(100):  # log on its positive domain
        p = g.uniform(0.5, 3.0, 4)
        worst_ops = max(worst_ops, finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(gc.log(t))), p))
    for op in (gc.relu, gc.leaky_relu):  # piecewise, sampled away from the kink
        for _ in range(100):
            p = g.standard_normal(4)
            p = np.where(np.abs(p) < 0.05, p + 0.2, p)
            worst_ops = max(worst_ops, finite_diff_check(
                lambda t: gc.reduce_sum(gc.square(op(t))), p))
    for _ in range(100):  # clamp inside its pass-through range
        p = g.uniform(-2, 2, 4)
        worst_ops = max(worst_ops, finite_diff_check(
            lambda t: gc.reduce_sum(gc.square(gc.clamp(t, -5.0, 5.0))), p))
    other = gc.constant(g.standard_normal(4))
    for op in (gc.add, gc.sub, gc.mul):
        for _ in range(100):
            p = g.standard_normal(4)
            worst_ops = max(worst_ops, finite_diff_check(
                lambda t: gc.reduce_sum(gc.square(op(t, other))), p))
    b = gc.constant(g.standard_normal((3, 2)))
    for _ in range(100):  # matmul, reductions, logsumexp, stack in one graph
        p = g.standard_normal((2, 3))

        def f(t):
            h = gc.matmul(t, b)
            pieces = gc.stack([gc.reduce_sum(h, axis=1), gc.reduce_mean(h, axis=1)])
            return gc.add(gc.logsumexp(pieces, axis=None),
                          gc.add(gc.reduce_max(gc.square(h)), gc.reduce_mean(gc.square(h))))

        worst_ops = max(worst_ops, finite_diff_check(f, p))

    spec = nb.MlpSpec(widths=(4, 2))
    xn = g.standard_normal((4, 2))
    xo = g.standard_normal((2, 2)) + 3.0
    noise_n = g.standard_normal((1, 4, 2))
    noise_c = g.standard_normal((4, 2, 2))

    def normal_loss(model):
        return gc.reduce_sum(md.normal_term(model, xn[None],
                                            noise=noise_n[:, None])[0])

    def full_loss(model, outlier_seed):
        # what training optimizes, on the K=1 stack that an ensemble of one
        # trains as; a fresh generator pins the outlier noise
        outlier = md.outlier_update_term(model, xo[None], s_cubo=4,
                                         rng=[rng(outlier_seed)])
        return gc.add(normal_loss(model), gc.reduce_sum(outlier.loss))

    mml = md.SsadModel.create(spec, 2, "mml", [5], gamma=1.0, beta_kl=0.05,
                              beta_cubo=0.05)
    worst_mml = _max_fd_error_over_params(
        mml, lambda: full_loss(mml, 2), lambda: normal_loss(mml))
    dp = md.SsadModel.create(spec, 2, "dp", [6], alpha=5.0, beta_kl=0.05)
    worst_dp = _max_fd_error_over_params(
        dp, lambda: full_loss(dp, 3), lambda: normal_loss(dp))
    # both CUBO forms the outlier update may optimize, checked directly and
    # built as cubo_objective builds them: the exp form and the log-domain
    # form (O(1) gradients at toy scale)
    forms = (lambda rep: gc.reduce_mean(gc.exp(gc.take(rep.per_sample_log, 0)),
                                        axis=-1),
             lambda rep: gc.take(rep.log_value, 0))
    worst_cubo = max(_max_fd_error(
        _slots(mml.encoder),
        lambda: form(vb.cubo_loss(mml.encoder, mml.decoder, xo[None], 0.05,
                                  n_samples=4, noise=noise_c[:, None])))
        for form in forms)

    dt = time.perf_counter() - t0
    worst = max(worst_ops, worst_mml, worst_dp, worst_cubo)
    ok = worst < 1e-4 and dt < 10.0
    report(1, ok, f"max rel error {worst:.3e} (ops {worst_ops:.1e}, "
                  f"mml {worst_mml:.1e}, dp {worst_dp:.1e}, "
                  f"cubo {worst_cubo:.1e}) in {dt:.1f}s")
    assert worst < 1e-4
    assert dt < 10.0


# ---------------------------------------------------------------------------
# 2. closed-form KL vs Monte Carlo

def test_criterion_2_kl_oracle_equivalence():
    t0 = time.perf_counter()
    g = rng(2)
    n = 100_000
    worst_sigma = 0.0
    for _ in range(200):
        d = int(g.integers(1, 7))
        mu = g.normal(0, 2, d)
        lv = g.uniform(-2, 2, d)
        alpha = g.normal(0, 2)
        z = mu + np.exp(lv / 2.0) * g.standard_normal((n, d))
        log_q = (-0.5 * (LOG_2PI + lv) - (z - mu) ** 2 / (2 * np.exp(lv))).sum(axis=1)
        log_p = (-0.5 * LOG_2PI - (z - alpha) ** 2 / 2.0).sum(axis=1)
        diff = log_q - log_p
        mc, se = diff.mean(), diff.std(ddof=1) / math.sqrt(n)
        post = nb.GaussianPosterior(gc.constant(mu[None, :]), gc.constant(lv[None, :]))
        closed = vb.kl_to_gaussian_prior(post, alpha=alpha).data[0]
        worst_sigma = max(worst_sigma, abs(closed - mc) / se)
        assert abs(closed - mc) < 4.0 * se
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    report(2, ok, f"200 configs x 1e5 samples, worst deviation "
                  f"{worst_sigma:.2f} sigma (< 4) in {dt:.1f}s")
    assert dt < 30.0


# ---------------------------------------------------------------------------
# 3. bound sandwich on the analytic linear-Gaussian model

def _log_marginal(x):
    return -0.5 * math.log(4.0 * math.pi) - x * x / 4.0


def test_criterion_3_bound_sandwich():
    t0 = time.perf_counter()
    g = rng(3)

    # ELBO side: exact expected reconstruction + closed-form KL <= log p(x)
    worst_gap = -np.inf
    for _ in range(100):
        x = g.normal(0, 1.5)
        mu, lv = g.normal(0, 2), g.uniform(-3, 2)
        e_recon = 0.5 * ((x - mu) ** 2 + math.exp(lv)) + 0.5 * LOG_2PI
        post = nb.GaussianPosterior(gc.constant([[mu]]), gc.constant([[lv]]))
        kl = vb.kl_to_gaussian_prior(post).data[0]
        gap = (-e_recon - kl) - _log_marginal(x)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9

    # CUBO side: 1/2 log(mean of 1e5 exp-domain draws) >= log p(x) - 3 SE
    n = 100_000
    worst_margin = np.inf
    for _ in range(5):
        x = g.normal(0, 1.0)
        mu = x / 2.0 + g.normal(0, 0.3)
        lv = math.log(g.uniform(0.4, 1.2))  # keeps the chi^2 estimator's variance finite
        post = nb.GaussianPosterior(gc.constant(np.full((n, 1), mu)),
                                    gc.constant(np.full((n, 1), lv)))
        xt = gc.constant(np.full((n, 1), x))
        recon_fn = lambda z: vb.reconstruction_loss(z, xt, "gaussian")
        rep = vb.cubo_from_posterior(post, recon_fn, 1.0,
                                     g.standard_normal((1, n, 1)))
        draws = np.exp(rep.per_sample_log.data)
        m = draws.mean()
        se = draws.std(ddof=1) / math.sqrt(n)
        margin = 0.5 * math.log(m) - (_log_marginal(x) - 3.0 * se / (2.0 * m))
        worst_margin = min(worst_margin, margin)
        assert margin >= 0.0

    dt = time.perf_counter() - t0
    ok = dt < 60.0
    report(3, ok, f"elbo-side worst gap {worst_gap:.2e} (<= 1e-9), cubo-side "
                  f"worst margin {worst_margin:.3f} (>= 0) in {dt:.1f}s")
    assert dt < 60.0


# ---------------------------------------------------------------------------
# 4. CUBO separation pressure

def test_criterion_4_cubo_separation_monotone():
    t0 = time.perf_counter()
    half = rng(4).standard_normal((4, 1, 1))
    noise = np.concatenate([half, -half], axis=0)  # antithetic, pinned
    const_recon = lambda z: gc.add(gc.mul(gc.reduce_sum(z, axis=1), 0.0), 1.0)
    values = []
    for m in (0.0, 0.5, 1.0, 2.0, 4.0):
        post = nb.GaussianPosterior(gc.constant([[m]]), gc.constant([[0.0]]))
        rep = vb.cubo_from_posterior(post, const_recon, 0.05, noise)
        values.append(math.exp(rep.log_value.item()))
    dt = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    ok = decreasing and dt < 5.0
    report(4, ok, "loss at |mu|=0,0.5,1,2,4: "
                  + ", ".join(f"{v:.5f}" for v in values) + f" in {dt:.1f}s")
    assert decreasing
    assert dt < 5.0


# ---------------------------------------------------------------------------
# 5. synthetic SSAD end to end

def _synth_benchmark(method, seed):
    ds = dk.synth_gaussian_ad(8, 2000, 500, 3.0, seed=seed)
    train, test = dk.split_stratified(ds, 0.6, seed=seed)
    train, test, _ = dk.standardize(train, test)
    gamma_l = 0.0 if method == "vae" else 0.01
    train = dk.subsample_labeled_outliers(train, gamma_l, seed=seed)
    cfg = tr.TrainConfig(epochs=150, ensemble_size=5, master_seed=seed,
                         widths=(32, 16, 8), beta_kl=0.05, beta_cubo=0.05,
                         alpha=5.0, gamma=1.0)
    ens, _ = tr.train(cfg, train, method)
    scores = md.ensemble_score(ens, test.features, n_samples=64)
    return dk.auroc(scores, test.labels)


def test_criterion_5_synthetic_ssad_end_to_end():
    t0 = time.perf_counter()
    seeds = range(5)
    means = {m: float(np.mean([_synth_benchmark(m, s) for s in seeds]))
             for m in ("vae", "mml", "dp")}
    dt = time.perf_counter() - t0
    ok = (means["mml"] >= 0.95 and means["dp"] >= 0.95
          and means["mml"] >= means["vae"] + 0.02
          and means["dp"] >= means["vae"] + 0.02
          and dt < 300.0)
    report(5, ok, f"mean AUROC over 5 seeds: vae {means['vae']:.5f}, "
                  f"mml {means['mml']:.5f}, dp {means['dp']:.5f} in {dt:.0f}s")
    assert means["mml"] >= 0.95
    assert means["dp"] >= 0.95
    assert dt < 300.0
    # NOTE: at shift=3 the plain-VAE baseline sits within 0.02 of the AUROC
    # ceiling (measured ~0.9999), so a +0.02 margin cannot exist; the margin
    # assertions are kept as stated and fail honestly on the ceiling effect.
    assert means["mml"] >= means["vae"] + 0.02, (
        f"mml mean {means['mml']:.5f} does not exceed plain-VAE mean "
        f"{means['vae']:.5f} by 0.02: baseline is within 0.02 of the 1.0 ceiling")
    assert means["dp"] >= means["vae"] + 0.02, (
        f"dp mean {means['dp']:.5f} does not exceed plain-VAE mean "
        f"{means['vae']:.5f} by 0.02: baseline is within 0.02 of the 1.0 ceiling")


def test_supplementary_ssad_margin_on_hard_synthetic():
    # companion to criterion 5: with per-coordinate shift 1.0 the plain VAE
    # is far from the AUROC ceiling and the outlier terms earn a real margin
    def run(method, seed):
        ds = dk.synth_gaussian_ad(8, 1000, 300, 1.0, seed=seed)
        train, test = dk.split_stratified(ds, 0.6, seed=seed)
        train, test, _ = dk.standardize(train, test)
        gamma_l = 0.0 if method == "vae" else 0.05
        train = dk.subsample_labeled_outliers(train, gamma_l, seed=seed)
        cfg = tr.TrainConfig(epochs=100, ensemble_size=1, master_seed=seed,
                             widths=(32, 16, 8), beta_kl=0.05, beta_cubo=0.05,
                             alpha=5.0, gamma=1.0, warmup_epochs=40)
        ens, _ = tr.train(cfg, train, method)
        return dk.auroc(md.ensemble_score(ens, test.features, n_samples=32),
                        test.labels)

    means = {m: float(np.mean([run(m, s) for s in (0, 1, 2)]))
             for m in ("vae", "mml", "dp")}
    ok = (means["mml"] >= 0.90 and means["dp"] >= 0.90
          and means["mml"] >= means["vae"] + 0.10
          and means["dp"] >= means["vae"] + 0.10)
    report("5-supplementary", ok,
           f"shift-1.0 mean AUROC: vae {means['vae']:.4f}, "
           f"mml {means['mml']:.4f}, dp {means['dp']:.4f}")
    assert means["mml"] >= 0.90 and means["dp"] >= 0.90
    assert means["mml"] >= means["vae"] + 0.10
    assert means["dp"] >= means["vae"] + 0.10


# ---------------------------------------------------------------------------
# 6 and 7. classic-AD reproduction at desk scale (needs converted ODDS CSVs)

def _odds_benchmark(csv_name, method, config_name, seeds, ensemble_size=5):
    base = dk.load_csv(odds_path(csv_name), "label", "1")
    cfg = cli.load_config_file(config_name)
    aurocs = []
    for seed in seeds:
        train, test = dk.split_stratified(base, 0.6, seed=seed)
        train, test, _ = dk.standardize(train, test)
        train = dk.subsample_labeled_outliers(train, 0.01, seed=seed)
        config = tr.TrainConfig(
            epochs=150, ensemble_size=ensemble_size, master_seed=seed,
            widths=tuple(cfg["widths"]), lr=cfg["lr"], beta_kl=cfg["beta_kl"],
            beta_cubo=cfg.get("beta_cubo", 0.05), alpha=cfg.get("alpha", 5.0),
            gamma=cfg.get("gamma", 1.0),
            nd_update_interval=cfg["nd_update_interval"])
        ens, _ = tr.train(config, train, method)
        scores = md.ensemble_score(ens, test.features, n_samples=64)
        aurocs.append(dk.auroc(scores, test.labels))
    return float(np.mean(aurocs)), aurocs


@pytest.mark.skipif(not have_odds("thyroid", "cardio"),
                    reason="converted ODDS CSVs not found; run "
                           "scripts/convert_odds.py and set SSADVAE_ODDS_DIR")
def test_criterion_6_classic_ad_reproduction():
    t0 = time.perf_counter()
    seeds = range(10)
    dp_thyroid, _ = _odds_benchmark("thyroid", "dp", "dp-thyroid", seeds)
    dp_cardio, _ = _odds_benchmark("cardio", "dp", "dp-cardio", seeds)
    mml_cardio, _ = _odds_benchmark("cardio", "mml", "mml-cardio", seeds)
    dt = time.perf_counter() - t0
    ok = (dp_thyroid >= 0.98 and dp_cardio >= 0.97 and mml_cardio >= 0.97
          and dt < 1200.0)
    report(6, ok, f"10-seed means: dp-thyroid {dp_thyroid:.4f} (>=0.98), "
                  f"dp-cardio {dp_cardio:.4f} (>=0.97), "
                  f"mml-cardio {mml_cardio:.4f} (>=0.97) in {dt:.0f}s")
    assert dp_thyroid >= 0.98
    assert dp_cardio >= 0.97
    assert mml_cardio >= 0.97
    assert dt < 1200.0


@pytest.mark.skipif(not have_odds("cardio"),
                    reason="converted ODDS CSVs not found; run "
                           "scripts/convert_odds.py and set SSADVAE_ODDS_DIR")
def test_criterion_7_ensemble_effect_on_cardio():
    seeds = range(10)
    mean5, _ = _odds_benchmark("cardio", "dp", "dp-cardio", seeds, ensemble_size=5)
    mean1, _ = _odds_benchmark("cardio", "dp", "dp-cardio", seeds, ensemble_size=1)
    ok = mean5 >= mean1
    report(7, ok, f"dp-cardio 10-seed mean AUROC: K=5 {mean5:.4f} vs K=1 {mean1:.4f}")
    assert mean5 >= mean1


# ---------------------------------------------------------------------------
# 8. freeze and shared-encoder invariants over full runs

def test_criterion_8_freeze_and_trajectory_invariants(monkeypatch):
    ds = dk.synth_gaussian_ad(3, 300, 80, 2.0, seed=8)
    train, _ = dk.split_stratified(ds, 0.6, seed=8)
    train, _, _ = dk.standardize(train)
    train = dk.subsample_labeled_outliers(train, 0.05, seed=8)
    cfg = tr.TrainConfig(epochs=12, warmup_epochs=4, anneal_epochs=3,
                         ensemble_size=1, widths=(8, 4, 2), batch_size=64)

    # every outlier update in a full run leaves the decoder gradient-free;
    # clip_gradients runs exactly once per outlier update, so spy there
    seen = {"model": None, "checks": 0}
    orig_term = md.outlier_update_term
    orig_clip = tr.clip_gradients

    def spy_term(model, *a, **kw):
        seen["model"] = model
        return orig_term(model, *a, **kw)

    def spy_clip(grads, max_norm):
        assert all(t.grad is None for t in seen["model"].decoder.tensors())
        assert any(t.grad is not None for t in seen["model"].encoder.tensors())
        seen["checks"] += 1
        return orig_clip(grads, max_norm)

    monkeypatch.setattr(md, "outlier_update_term", spy_term)
    monkeypatch.setattr(tr, "clip_gradients", spy_clip)
    for method in ("mml", "dp"):
        tr.train(cfg, train, method)
    monkeypatch.setattr(md, "outlier_update_term", orig_term)
    monkeypatch.setattr(tr, "clip_gradients", orig_clip)
    freeze_checks = seen["checks"]
    assert freeze_checks == 2 * 8  # epochs 4..11, both methods

    # gamma=0 / empty-outlier runs are bit-identical to a plain VAE
    vae, _ = tr.train(cfg, train, "vae")
    mml0, _ = tr.train(dataclasses.replace(cfg, gamma=0.0), train, "mml")
    empty = dk.subsample_labeled_outliers(
        dk.SsadDataset(train.features, train.labels,
                       np.where(train.labels == 0, dk.ROLE_TRAIN_NORMAL,
                                dk.ROLE_DROPPED)), 0.0, seed=8)
    dp0, _ = tr.train(cfg, empty, "dp")
    identical = (np.array_equal(vae.flat.data, mml0.flat.data)
                 and np.array_equal(vae.flat.data, dp0.flat.data))
    report(8, identical, f"{freeze_checks} outlier updates all decoder-gradient-free; "
                         f"gamma=0 and empty-pool runs bit-identical to plain VAE: {identical}")
    assert identical


# ---------------------------------------------------------------------------
# 9. benchmark determinism from a manifest

def test_criterion_9_benchmark_determinism(tmp_path):
    fast = tmp_path / "fast.cfg"
    fast.write_text("warmup_epochs = 3\nanneal_epochs = 2\n", encoding="utf-8")
    argv = ["benchmark", "--synth", "4,200,3.0", "--method", "dp",
            "--config", str(fast), "--epochs", "6", "--ensemble", "2",
            "--seeds", "0,1", "--widths", "8,4,2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main([*argv, "--out", str(out1)]) == cli.EXIT_OK
    d1 = next(out1.iterdir())
    manifest = d1 / "manifest.json"
    assert cli.main(["benchmark", "--config", str(manifest),
                     "--out", str(out2)]) == cli.EXIT_OK
    d2 = next(out2.iterdir())
    rep1 = next(p for p in sorted(d1.iterdir()) if p.name.startswith("report_"))
    rep2 = next(p for p in sorted(d2.iterdir()) if p.name.startswith("report_"))
    identical = rep1.read_bytes() == rep2.read_bytes()
    report(9, identical, f"re-run from manifest: {rep1.name} byte-identical: {identical}")
    assert identical
