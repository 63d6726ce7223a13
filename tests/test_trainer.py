import dataclasses
import json

import numpy as np
import pytest

from ssadvae import datakit as dk
from ssadvae import fanout as fo
from ssadvae import gradcore as gc
from ssadvae import host
from ssadvae import models as md
from ssadvae import netblocks as nb
from ssadvae import trainer as tr


def tiny_config(**kw):
    base = dict(epochs=8, batch_size=32, lr=1e-3, beta_kl=0.05, beta_cubo=0.05,
                gamma=1.0, alpha=5.0, anneal_epochs=4, warmup_epochs=3,
                nd_update_interval=1, clip_norm=5.0, ensemble_size=1,
                s_elbo=1, s_cubo=4, master_seed=0, widths=(8, 4, 2))
    base.update(kw)
    return tr.TrainConfig(**base)


def tiny_train_set(seed=0, n_normal=120, n_anomaly=40, gamma_l=0.05, d=3):
    ds = dk.synth_gaussian_ad(d, n_normal, n_anomaly, 3.0, seed=seed)
    train, _ = dk.split_stratified(ds, 0.6, seed=seed)
    train, _, _ = dk.standardize(train)
    return dk.subsample_labeled_outliers(train, gamma_l, seed=seed)


# ---------------------------------------------------------------------------
# config validation

def test_config_invariants_enforced():
    with pytest.raises(ValueError, match="warmup"):
        tiny_config(warmup_epochs=8, epochs=8)
    with pytest.raises(ValueError, match="anneal"):
        tiny_config(anneal_epochs=9, epochs=8)
    with pytest.raises(ValueError, match="lr"):
        tiny_config(lr=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(batch_size=0)
    for key in ("lr", "beta_kl", "alpha", "clip_norm"):
        with pytest.raises(ValueError, match=key):
            tiny_config(**{key: float("nan")})
    for key in ("s_elbo", "s_cubo"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0"):
            tiny_config(**{key: 0})
    with pytest.raises(ValueError, match="^clip_norm must be > 0, got 0.0"):
        tiny_config(clip_norm=0.0)
    for key in ("beta_kl", "beta_cubo", "lr_decay_factor"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got -1.0"):
            tiny_config(**{key: -1.0})
        tiny_config(**{key: 0.0})
    tiny_config(alpha=-5.0)  # a prior mean of -5 * 1


@pytest.mark.parametrize("kw, message", [
    (dict(epochs=0, warmup_epochs=-1, anneal_epochs=0), "epochs must be >= 1, got 0"),
    (dict(warmup_epochs=-3), "warmup_epochs must be >= 0, got -3"),
    (dict(anneal_epochs=-1), "anneal_epochs must be >= 0, got -1")],
    ids=["no-epochs", "negative-warmup", "negative-anneal"])
def test_config_rejects_a_schedule_that_trains_nothing_or_shifts(kw, message):
    # no epoch would train, or a negative warm-up would move the outlier
    # updates off the epochs that nd_update_interval counts from 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        tiny_config(**kw)
    tiny_config(anneal_epochs=0)  # no ramp: the full KL weight from epoch 0


def test_config_holds_the_method_rules():
    # the method's rules run before every other check, each naming its key
    with pytest.raises(ValueError, match="^method: expected one of vae, mml, "
                                         "dp, hybrid, got 'svdd'$"):
        tiny_config(method="svdd", lr=0.0)
    for method in ("dp", "hybrid"):
        with pytest.raises(ValueError, match=f"^alpha: method '{method}' requires "
                                             "a nonzero prior alpha, got 0.0$"):
            tiny_config(method=method, alpha=0.0, lr=0.0)
    for method in ("mml", "hybrid"):
        with pytest.raises(ValueError, match=f"^gamma: method '{method}' requires "
                                             "gamma >= 0, got -1.0$"):
            tiny_config(method=method, gamma=-1.0, lr=0.0)
    # each rule binds only the methods that read the value
    tiny_config(method="mml", alpha=0.0)
    tiny_config(method="dp", gamma=-1.0)
    tiny_config(method="vae", alpha=0.0, gamma=-1.0)
    assert tr.TrainConfig().method == "dp"


# ---------------------------------------------------------------------------
# activations other than the default leaky relu

NUMPY_ACTIVATIONS = {"relu": lambda h: np.maximum(h, 0.0),
                     "sigmoid": lambda h: 1.0 / (1.0 + np.exp(-h))}


@pytest.mark.parametrize("activation", sorted(NUMPY_ACTIVATIONS))
def test_activation_forward_matches_numpy_and_trains_finite(activation, tmp_path):
    act = NUMPY_ACTIVATIONS[activation]
    spec = nb.MlpSpec(widths=(6, 4, 2), activation=activation)
    enc = nb.init_encoder(spec, 3, seed=4)
    dec = nb.init_decoder(spec, 3, seed=4)
    x = nb.philox_rng(5, 9).standard_normal((7, 3))
    z = nb.philox_rng(6, 9).standard_normal((7, 2))

    h = x
    for w, b in enc.layers[:-2]:
        h = act(h @ w.data + b.data)
    post = nb.encode(enc, x)
    (mu_w, mu_b), (logvar_w, logvar_b) = enc.layers[-2:]
    np.testing.assert_allclose(post.mu.data, h @ mu_w.data + mu_b.data,
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        post.logvar.data,
        np.clip(h @ logvar_w.data + logvar_b.data, -10.0, 10.0),
        rtol=1e-12, atol=1e-14)
    h = z
    for i, (w, b) in enumerate(dec.layers):
        h = h @ w.data + b.data
        h = act(h) if i < len(dec.layers) - 1 else h
    np.testing.assert_allclose(nb.decode(dec, z).data, h, rtol=1e-12, atol=1e-14)

    model, _ = tr.train(tiny_config(activation=activation, ensemble_size=2,
                                    method="mml"), tiny_train_set())
    md.save_ensemble(tmp_path, model)
    for k in range(2):
        arrays = nb.read_arrays(tmp_path / f"member_{k:02d}.bin")
        assert arrays and all(np.isfinite(a).all() for a in arrays)


# ---------------------------------------------------------------------------
# adam

def test_adam_first_step_magnitude():
    p = np.zeros(4)
    state = tr.AdamState.like(p)
    tr.adam_step(state, p, np.ones(4), lr=1e-3)
    expect = -1e-3 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(p, expect, rtol=1e-12)


def test_adam_zero_gradient_keeps_params_but_decays_moments():
    p = np.full(3, 7.0)
    state = tr.AdamState.like(p)
    tr.adam_step(state, p, np.ones(3), lr=1e-2)
    m_before = state.m.copy()
    pos_before = p.copy()
    tr.adam_step(state, p, np.zeros(3), lr=1e-2)
    # zero grad: moments decay toward zero, position moves only via stale momentum
    assert np.all(np.abs(state.m) < np.abs(m_before))
    assert not np.array_equal(p, pos_before)  # momentum still acts


def test_adam_none_grad_skipped_entirely():
    # a parameter without a gradient is, in the flat buffer, columns past
    # the updated range: two parameters of 2 entries, only the first updates
    buf = np.ones(4)
    state = tr.AdamState.like(buf)
    tr.adam_step(state, buf[:2], np.ones(2), lr=1e-3)
    np.testing.assert_array_equal(buf[2:], np.ones(2))
    np.testing.assert_array_equal(state.m[2:], np.zeros(2))
    np.testing.assert_array_equal(state.v[2:], np.zeros(2))


def test_adam_deterministic_over_100_steps():
    def run():
        p = np.linspace(-1, 1, 5)
        state = tr.AdamState.like(p)
        g = np.sin(np.arange(5.0))
        for t in range(100):
            tr.adam_step(state, p, g * np.cos(t), lr=3e-3)
        return p
    np.testing.assert_array_equal(run(), run())


def test_adam_nonfinite_grad_aborts():
    p = np.ones(2)
    state = tr.AdamState.like(p)
    with pytest.raises(tr.NumericalAbort, match="gradient"):
        tr.adam_step(state, p, np.array([1.0, np.nan]), lr=1e-3)


def test_adam_rejects_mismatched_shapes():
    state = tr.AdamState.like(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="disagree"):
        tr.adam_step(state, np.zeros((2, 3)), np.zeros((2, 2)), lr=1e-3)
    with pytest.raises(ValueError, match="disagree"):
        tr.adam_step(state, np.zeros((3, 3)), np.zeros((3, 3)), lr=1e-3)


def _per_tensor_adam(state, params, grads, lr):
    # the per-tensor rule that the flat update replaced: a None grad skips
    # its tensor and leaves its moments alone
    state["t"] += 1
    c1 = 1.0 - 0.9 ** state["t"]
    c2 = 1.0 - 0.999 ** state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue
        m, v = state["ms"][i], state["vs"][i]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def test_flat_adam_equals_the_per_tensor_rule_bit_for_bit():
    # K=3 rows of four tensors (6 + 2 "encoder", 4 + 3 "decoder" columns);
    # every third step updates the encoder columns only
    rng = np.random.default_rng(5)
    sizes, n_enc = [6, 2, 4, 3], 8
    offs = np.cumsum([0] + sizes)
    flat = rng.standard_normal((3, offs[-1]))
    tensors = [flat[:, a:b].copy() for a, b in zip(offs, offs[1:])]
    state = tr.AdamState.like(flat)
    ref = {"t": 0, "ms": [np.zeros_like(t) for t in tensors],
           "vs": [np.zeros_like(t) for t in tensors]}
    for step in range(20):
        g = rng.standard_normal(flat.shape) * 10.0 ** rng.integers(-6, 3)
        g[rng.random(g.shape) < 0.1] = 0.0
        lr = 1e-3 if step % 3 else 1e-4
        cols = n_enc if step % 3 == 0 else offs[-1]
        tr.adam_step(state, flat[:, :cols], g[:, :cols], lr)
        _per_tensor_adam(ref, tensors,
                         [g[:, a:b] if b <= cols else None
                          for a, b in zip(offs, offs[1:])], lr)
    assert state.t == ref["t"] == 20
    for i, (a, b) in enumerate(zip(offs, offs[1:])):
        assert flat[:, a:b].tobytes() == tensors[i].tobytes()
        assert state.m[:, a:b].tobytes() == ref["ms"][i].tobytes()
        assert state.v[:, a:b].tobytes() == ref["vs"][i].tobytes()


# ---------------------------------------------------------------------------
# schedule pieces

def test_kl_anneal_values():
    assert tr.kl_anneal_coeff(0, 20, 0.05) == 0.0
    assert tr.kl_anneal_coeff(10, 20, 0.05) == pytest.approx(0.025)
    assert tr.kl_anneal_coeff(20, 20, 0.05) == 0.05
    assert tr.kl_anneal_coeff(135, 20, 0.05) == 0.05


def test_kl_anneal_monotone_and_saturating():
    vals = [tr.kl_anneal_coeff(e, 20, 0.5) for e in range(40)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.5


def test_clip_gradients_cases():
    np.testing.assert_allclose(tr.clip_gradients([np.array([3.0, 4.0])], 1.0)[0],
                               [0.6, 0.8])
    g = [np.full(4, 5.0)]  # norm 10
    np.testing.assert_allclose(tr.clip_gradients(g, 5.0)[0], np.full(4, 2.5))
    small = [np.array([0.1, 0.1])]
    assert tr.clip_gradients(small, 5.0)[0] is small[0]


def test_outlier_path_lr_decay():
    assert tr.outlier_path_lr(1e-3, 0, 50, 0.1) == 1e-3
    assert tr.outlier_path_lr(1e-3, 49, 50, 0.1) == 1e-3
    assert tr.outlier_path_lr(1e-3, 50, 50, 0.1) == pytest.approx(1e-4)
    assert tr.outlier_path_lr(1e-3, 100, 50, 0.1) == pytest.approx(1e-5)
    # factor 0: the full rate until the first decay, then none
    assert tr.outlier_path_lr(1e-3, 49, 50, 0.0) == 1e-3
    assert tr.outlier_path_lr(1e-3, 50, 50, 0.0) == 0.0


# ---------------------------------------------------------------------------
# full loop

def test_outlier_updates_respect_warmup_and_interval():
    train = tiny_train_set()
    cfg = tiny_config(epochs=10, warmup_epochs=4, nd_update_interval=2, method="dp")
    _, hists = tr.train(cfg, train)
    flags = [r.outlier_term is not None for r in hists[0].records]
    assert flags == [False, False, False, False,
                     True, False, True, False, True, False]


def test_warmup_epochs_show_no_outlier_term():
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, warmup_epochs=5, method="mml")
    _, hists = tr.train(cfg, train)
    recs = hists[0].records
    assert all(r.outlier_term is None for r in recs[:5])
    assert recs[5].outlier_term is not None
    assert recs[5].outlier_lr == cfg.lr  # epoch 5 < decay_every


def test_train_determinism_bit_exact():
    train = tiny_train_set()
    cfg = tiny_config(ensemble_size=2, method="dp")
    model1, _ = tr.train(cfg, train)
    model2, _ = tr.train(cfg, train)
    assert model1.flat.data.tobytes() == model2.flat.data.tobytes()


def test_concurrent_trainings_match_sequential():
    # distinct models may train on distinct threads; graphs are thread-confined
    import threading

    train = tiny_train_set()
    cfgs = {m: tiny_config(master_seed=s, method=m)
            for m, s in (("dp", 0), ("mml", 7))}
    sequential = {m: tr.train(c, train)[0] for m, c in cfgs.items()}

    results = {}

    def worker(method, cfg):
        results[method] = tr.train(cfg, train)[0]

    threads = [threading.Thread(target=worker, args=(m, c))
               for m, c in cfgs.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for method, model in sequential.items():
        np.testing.assert_array_equal(model.flat.data, results[method].flat.data)


def test_member_seeds_derived_from_master():
    train = tiny_train_set()
    model, hists = tr.train(tiny_config(ensemble_size=3, master_seed=11,
                                        method="vae"), train)
    assert model.seeds == [11, 12, 13]
    assert [h.seed for h in hists] == [11, 12, 13]


def test_gamma_zero_mml_trajectory_equals_plain_vae():
    train = tiny_train_set()
    vae, _ = tr.train(tiny_config(gamma=0.0, method="vae"), train)
    mml, _ = tr.train(tiny_config(gamma=0.0, method="mml"), train)
    np.testing.assert_array_equal(vae.flat.data, mml.flat.data)


def test_empty_outlier_pool_dp_equals_plain_vae():
    train = tiny_train_set(gamma_l=0.0)
    vae, _ = tr.train(tiny_config(method="vae"), train)
    dp, _ = tr.train(tiny_config(method="dp"), train)
    np.testing.assert_array_equal(vae.flat.data, dp.flat.data)


@pytest.mark.parametrize("method", ["mml", "dp"])
def test_warmup_trajectory_matches_plain_vae(method):
    # through epoch warmup-1 the run IS a plain VAE: per-epoch losses are
    # bit-identical; the first outlier update makes them diverge
    train = tiny_train_set()
    _, h_m = tr.train(tiny_config(epochs=6, warmup_epochs=4, method=method), train)
    _, h_v = tr.train(tiny_config(epochs=6, warmup_epochs=4, method="vae"), train)
    for rm, rv in zip(h_m[0].records[:4], h_v[0].records[:4]):
        assert (rm.elbo, rm.kl, rm.recon) == (rv.elbo, rv.kl, rv.recon)
    assert h_m[0].records[4].outlier_term is not None
    assert h_m[0].records[5].elbo != h_v[0].records[5].elbo


def test_hybrid_training_runs_outlier_updates():
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, warmup_epochs=4, method="hybrid")
    _, hists = tr.train(cfg, train)
    recs = hists[0].records
    assert all(r.outlier_term is None for r in recs[:4])
    assert recs[4].outlier_term is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_with_context():
    train = tiny_train_set()
    bad = train.features.copy()
    train_bad = dk.SsadDataset(bad * 1e300, train.labels, train.roles)
    cfg = tiny_config(epochs=4, warmup_epochs=3, lr=1e3, method="vae")
    with pytest.raises((tr.NumericalAbort, ValueError)):
        tr.train(cfg, train_bad)


def test_train_rejects_empty_normal_stream():
    ds = dk.SsadDataset(np.ones((4, 2)), np.ones(4),
                        np.full(4, dk.ROLE_DROPPED))
    with pytest.raises(ValueError, match="no normal rows"):
        tr.train(tiny_config(method="vae"), ds)


def test_history_export(tmp_path):
    train = tiny_train_set()
    cfg = tiny_config(epochs=5, warmup_epochs=4, method="dp")
    _, hists = tr.train(cfg, train)
    h = hists[0]
    assert len(h.records) == 5
    csv_path = tmp_path / "hist.csv"
    json_path = tmp_path / "hist.json"
    h.save_csv(csv_path)
    h.save_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("epoch,elbo,kl,recon,outlier_term,lr,outlier_lr,"
                        "anneal_coeff,wall_time,cubo_log_domain,clipped")
    assert len(lines) == 6
    # warm-up rows have an empty outlier term
    assert lines[1].split(",")[4] == ""
    assert lines[5].split(",")[4] != ""
    # dp has no CUBO term, so its domain column stays blank on every epoch
    assert [line.split(",")[-2] for line in lines[1:]] == [""] * 5
    # the clipping decision is logged on the outlier-update epoch only
    clipped = [line.split(",")[-1] for line in lines[1:]]
    assert clipped[:4] == [""] * 4 and clipped[4] in ("True", "False")
    assert h.records[4].clipped is (clipped[4] == "True")
    data = json.loads(json_path.read_text())
    assert data["seed"] == 0 and len(data["epochs"]) == 5

    # mml logs the CUBO domain it optimized, on its update epochs only
    _, hists = tr.train(dataclasses.replace(cfg, method="mml"), train)
    hists[0].save_csv(csv_path)
    last = [line.split(",")[-2]
            for line in csv_path.read_text().strip().splitlines()[1:]]
    assert last[:4] == [""] * 4 and last[4] in ("True", "False")
    assert hists[0].records[4].cubo_log_domain is (last[4] == "True")


def test_anneal_coefficient_recorded_and_saturates():
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, anneal_epochs=4, warmup_epochs=5, beta_kl=0.2,
                      method="vae")
    _, hists = tr.train(cfg, train)
    coeffs = [r.anneal_coeff for r in hists[0].records]
    assert coeffs[0] == 0.0
    assert coeffs[4] == pytest.approx(0.2)
    assert all(a <= b + 1e-15 for a, b in zip(coeffs, coeffs[1:]))


# ---------------------------------------------------------------------------
# stacked members

def _record(monkeypatch, module, name, record):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        record(args, out)
        return out

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("method", ["vae", "mml", "dp", "hybrid"])
@pytest.mark.parametrize("d", [1, 3])
def test_stacked_members_equal_solo_runs_bit_for_bit(monkeypatch, method, d):
    # K=3 trained together against three K=1 runs with master seeds m, m+1,
    # m+2: the same parameter bytes and the same history but wall_time
    from ssadvae import models as md

    train = tiny_train_set(d=d, gamma_l=0.3)
    # in process: the recorders below do not see a forked group's calls
    monkeypatch.setattr(fo, "_usable_cpus", lambda: 1)
    fired, domains = [], []
    _record(monkeypatch, tr, "clip_gradients",
            lambda args, out: fired.append(
                sum(float((g * g).sum()) for g in args[0] if g is not None)
                > args[1] ** 2))
    _record(monkeypatch, md, "cubo_objective",
            lambda args, out: domains.append(out[1]))
    # a clip norm inside each method's range of outlier-gradient norms
    clip = {"vae": 5.0, "mml": 0.003 if d == 1 else 0.3, "dp": 0.45,
            "hybrid": 0.5}[method]
    cfg = dict(epochs=7, warmup_epochs=3, clip_norm=clip, master_seed=4,
               method=method)
    stacked, hists = tr.train(tiny_config(ensemble_size=3, **cfg), train)
    solo = [tr.train(tiny_config(**{**cfg, "master_seed": 4 + k}), train)
            for k in range(3)]
    for k, (alone, solo_hists) in enumerate(solo):
        assert stacked.seeds[k] == hists[k].seed == 4 + k
        for a, b in zip(stacked.parameters(), alone.parameters()):
            assert a.data[k].shape == b.data[0].shape
            assert a.data[k].tobytes() == b.data[0].tobytes()
        rows = [[{**r, "wall_time": 0} for r in h.to_rows()]
                for h in (hists[k], solo_hists[0])]
        assert rows[0] == rows[1]
    if method != "vae":
        # clipping fired on some member updates and not on others
        assert True in fired and False in fired
    if method in ("mml", "hybrid"):
        assert len(domains) == 2 * 3 * 4  # once per member and update, twice over
        if d == 1:
            assert False in domains  # the exp domain is exercised too


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_names_the_member_seed():
    train = tiny_train_set()
    huge = dk.SsadDataset(train.features * 1e200, train.labels, train.roles)
    with pytest.raises(tr.NumericalAbort, match=r"member seed 7, epoch 0, batch 0"):
        tr.train(tiny_config(ensemble_size=2, master_seed=7, method="vae"), huge)


def test_member_clipping_equals_clip_gradients_on_each_members_slices():
    # member 0's gradient is clipped, member 1's is left alone, and each
    # member's slices end up with the bytes clip_gradients returns for them
    from ssadvae import models as md
    from ssadvae import netblocks as nb

    spec = nb.MlpSpec(widths=(6, 2))
    stacked = md.SsadModel.create(spec, 3, [1, 2], "gaussian")
    enc = stacked.encoder.tensors()
    g = np.random.default_rng(3).standard_normal(stacked.flat.grad.shape)
    g[0] *= 10.0
    g[1] *= 1e-3
    stacked.flat.grad[...] = g
    for t in enc:
        t.grad = t.grad_view
    norms = [np.sqrt(sum(float((t.grad[k] ** 2).sum()) for t in enc)) for k in range(2)]
    assert norms[0] > 1.0 > norms[1]
    want = [tr.clip_gradients([t.grad[k].copy() for t in enc], 1.0) for k in range(2)]
    tr._clip_members(enc, 1.0)
    for k in range(2):
        for t, w in zip(enc, want[k]):
            assert t.grad[k].tobytes() == w.tobytes()
    p_enc = stacked.flat.n_encoder
    assert stacked.flat.grad[:, p_enc:].tobytes() == g[:, p_enc:].tobytes()
    assert stacked.flat.grad[1].tobytes() == g[1].tobytes()
    assert stacked.flat.grad[0, :p_enc].tobytes() != g[0, :p_enc].tobytes()


# sha256 of member_00.bin after a K=2 training, computed with the per-tensor
# Adam loop and the two-node affine layers that the flat buffers replaced
MEMBER_00_SHA256 = {
    "vae": "3aec38aaca26b1c5e47c7e07450593c9a4c7848970bf6ad9b7cb84c46ee0428b",
    "mml": "fcfdb9a36dcd5a75a4577058bda413b7c1936b6627f031c7a0def79ad35e9846",
    "dp": "14e510d80a2ce72fc18b8924efbaa0a0ca37fdc856ad5014c2a642d2df13a483",
    "hybrid": "02726128b2932bdd9382eb3c1806bd4b18f02e0a84e236a165a26f42d916515c",
}


@pytest.mark.parametrize("method", sorted(MEMBER_00_SHA256))
def test_trained_member_file_bytes_are_pinned(tmp_path, method):
    import hashlib

    from ssadvae import models as md

    cfg = tiny_config(epochs=7, warmup_epochs=3, ensemble_size=2, clip_norm=0.5,
                      master_seed=4, method=method)
    model, _ = tr.train(cfg, tiny_train_set(d=3, gamma_l=0.3))
    md.save_ensemble(tmp_path, model)
    digest = hashlib.sha256((tmp_path / "member_00.bin").read_bytes()).hexdigest()
    assert digest == MEMBER_00_SHA256[method]


# sha256 of member_00.bin after a K=2 hybrid training with two ELBO samples
# and three CUBO samples, computed at the commit before the ELBO batch
# summary became one graph node (it pins the multi-sample 1/S scaling and
# reductions that the pins above, all at s_elbo = 1, leave unchecked)
MULTI_SAMPLE_HYBRID_SHA256 = (
    "4348eef48267c745f308c40582e24336a8969fe445c445ff52a7bed38f81edcd")


def test_multi_sample_member_file_bytes_are_pinned(tmp_path):
    import hashlib

    from ssadvae import models as md

    cfg = tiny_config(epochs=7, warmup_epochs=3, ensemble_size=2, clip_norm=0.5,
                      master_seed=4, s_elbo=2, s_cubo=3, method="hybrid")
    model, _ = tr.train(cfg, tiny_train_set(d=3, gamma_l=0.3))
    md.save_ensemble(tmp_path, model)
    digest = hashlib.sha256((tmp_path / "member_00.bin").read_bytes()).hexdigest()
    assert digest == MULTI_SAMPLE_HYBRID_SHA256


def test_graph_nodes_per_k5_step(monkeypatch):
    # make_node calls per step (forward through the step's backward) at the
    # criterion-5 shape: K=5, widths 32,16,8, s_cubo = 8
    counts, made = [], [0]
    make_node, backward = gc.make_node, gc.backward

    def counted_make_node(*args, **kwargs):
        made[0] += 1
        return make_node(*args, **kwargs)

    def counted_backward(*args, **kwargs):
        counts.append(made[0])
        made[0] = 0
        return backward(*args, **kwargs)

    monkeypatch.setattr(gc, "make_node", counted_make_node)
    monkeypatch.setattr(gc, "backward", counted_backward)
    # in process, so that the counts are of K=5 steps
    monkeypatch.setattr(fo, "_usable_cpus", lambda: 1)
    cfg = tiny_config(epochs=2, warmup_epochs=1, anneal_epochs=1, batch_size=64,
                      ensemble_size=5, widths=(32, 16, 8), s_cubo=8, method="mml")
    tr.train(cfg, tiny_train_set(d=8, gamma_l=0.3))
    *normal, outlier = counts
    assert len(normal) == 4 and max(normal) <= 18  # 25 before the ELBO summary node
    # 205 before the exp-domain CUBO was built on demand, 193 before a
    # member's CUBO slice was
    assert outlier <= 188


def test_nonfinite_flat_gradient_names_its_member_seed():
    flat = np.zeros((3, 5))
    grads = np.ones((3, 5))
    grads[2, 4] = np.inf
    grads[1, 3] = np.nan
    state = tr.AdamState.like(flat)
    with pytest.raises(tr.NumericalAbort,
                       match=r"gradient at member seed 11, epoch 6: entry \(1, 3\)"):
        tr._update(state, flat[:, :4], grads[:, :4], 1e-3, [10, 11, 12], epoch=6)
    assert state.t == 0 and not flat.any()


def test_gradient_abort_entry_counts_from_the_groups_first_row():
    # a forked group's rows 0, 1 are the ensemble's rows 3, 4
    grads = np.ones((2, 5))
    grads[1, 3] = np.nan
    state = tr.AdamState.like(np.zeros((2, 5)))
    with pytest.raises(tr.NumericalAbort,
                       match=r"gradient at member seed 14, epoch 6: entry \(4, 3\)$"):
        tr._update(state, np.zeros((2, 5)), grads, 1e-3, [13, 14], epoch=6, first=3)


@pytest.mark.parametrize("a, b", [(1, 1), (3, 5), (1024, 7), (8191, 8193)])
def test_philox_normal_draws_concatenate(a, b):
    # scoring's noise blocks rest on this: draws of a numbers, then b,
    # give the numbers of one draw of a + b
    one = nb.philox_rng(3, nb.STREAM_NOISE).standard_normal(a + b)
    rng = nb.philox_rng(3, nb.STREAM_NOISE)
    two = np.concatenate([rng.standard_normal(a), rng.standard_normal(b)])
    assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_training_starts_no_thread(monkeypatch, k):
    # the forked groups fill the CPUs; in process, each step draws its
    # noise straight from the members' generators
    import threading

    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(fo, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(threading.Thread, "start", recorded)
    tr.train(tiny_config(ensemble_size=k, method="hybrid"), tiny_train_set())
    assert started == []


def test_failed_train_names_the_first_abort_and_leaves_no_thread():
    import threading

    train = tiny_train_set()
    before = threading.enumerate()
    with pytest.raises(tr.NumericalAbort,
                       match=r"^non-finite normal-term loss at member seed 5, "
                             r"epoch 0, batch 1:"):
        tr.train(tiny_config(ensemble_size=3, master_seed=5, lr=1e100,
                             method="dp"), train)
    assert threading.enumerate() == before


BLAS_THREADS_RUN = """
import hashlib
from ssadvae import datakit as dk, trainer as tr
ds = dk.synth_gaussian_ad(274, 300, 75, 3.0, seed=0)
train, _ = dk.split_stratified(ds, 0.6, seed=0)
train, _, _ = dk.standardize(train)
train = dk.subsample_labeled_outliers(train, 0.05, seed=0)
cfg = tr.TrainConfig(epochs=2, warmup_epochs=1, anneal_epochs=1, ensemble_size=1,
                     widths=(128, 64, 32), method="mml")
model, _ = tr.train(cfg, train)
print(hashlib.sha256(model.flat.data.tobytes()).hexdigest())
"""


def test_trained_bytes_do_not_depend_on_the_blas_thread_count():
    # the arrhythmia shape (d=274, widths 128,64,32), where a second
    # OpenBLAS thread changed the trained bytes until train held BLAS to
    # one thread; on a one-CPU machine both runs use one thread anyway
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert digests[0] == digests[1]


def test_train_restores_the_blas_thread_count(monkeypatch):
    # one BLAS thread while members train, and the old count restored
    # after a train that returns and after one that raises
    get, set_threads = host._openblas_threads()
    seen, train_members = [], tr._train_members

    def recorded(*args):
        seen.append(get())
        return train_members(*args)

    monkeypatch.setattr(tr, "_train_members", recorded)
    old = get()
    set_threads(2)
    try:
        tr.train(tiny_config(method="dp"), tiny_train_set())
        assert get() == 2
        with pytest.raises(tr.NumericalAbort):
            tr.train(tiny_config(lr=1e100, method="dp"), tiny_train_set())
        assert get() == 2
    finally:
        set_threads(old)
    assert seen == [1, 1]


def test_overlapping_trainings_hold_one_blas_thread_until_the_last_ends(
        monkeypatch):
    # this thread's training starts first and ends first, while another
    # thread's still runs: BLAS stays on one thread until that one ends
    import threading

    get, put = host._openblas_threads()
    inside, release = threading.Event(), threading.Event()
    other = threading.Thread(target=tr.train,
                             args=(tiny_config(master_seed=1, method="dp"),
                                   tiny_train_set()))
    train_members = tr._train_members

    def overlapped(config, *args):
        if config.master_seed == 0:
            other.start()
            assert inside.wait(60)
        else:
            inside.set()
            assert release.wait(60)
        return train_members(config, *args)

    monkeypatch.setattr(tr, "_train_members", overlapped)
    old = get()
    put(2)
    try:
        tr.train(tiny_config(method="dp"), tiny_train_set())
        during = get()
        release.set()
        other.join(60)
        assert not other.is_alive()
        assert (during, get()) == (1, 2)
    finally:
        release.set()
        put(old)


def test_library_train_keeps_freed_heap_once_per_process(monkeypatch):
    # train sets glibc's thresholds itself, not only the CLI, and once: a
    # second training asks nothing more
    import types

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(host, "_LIBC", types.SimpleNamespace(mallopt=mallopt))
    host._keep_freed_heap.cache_clear()
    try:
        tr.train(tiny_config(method="dp"), tiny_train_set())
        tr.train(tiny_config(method="dp"), tiny_train_set())
    finally:
        host._keep_freed_heap.cache_clear()
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_numerical_abort_survives_pickle():
    import pickle

    e = tr.NumericalAbort("normal-term loss", "value nan", 3, 1, 7)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is tr.NumericalAbort and str(back) == str(e)
    assert ((back.term, back.detail, back.epoch, back.batch, back.seed)
            == ("normal-term loss", "value nan", 3, 1, 7))
    bare = pickle.loads(pickle.dumps(tr.NumericalAbort("gradient")))
    assert str(bare) == "non-finite gradient at unknown epoch"


# ---------------------------------------------------------------------------
# member groups in forked processes

def _forking(monkeypatch, cpus):
    """``train`` sees ``cpus`` usable CPUs; returns the list that the seeds
    of each forked group are appended to."""
    forked = []
    fork = fo._fork

    def recorded(fn, seeds):
        forked.append(seeds)
        return fork(fn, seeds)

    monkeypatch.setattr(fo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fo, "_fork", recorded)
    return forked


def test_member_groups_are_contiguous_and_larger_first():
    assert fo._member_groups([0, 1, 2, 3, 4], 2) == [[0, 1, 2], [3, 4]]
    assert fo._member_groups([0, 1, 2, 3, 4], 3) == [[0, 1], [2, 3], [4]]
    assert fo._member_groups([5, 6, 7], 3) == [[5], [6], [7]]
    assert fo._member_groups([5, 6], 1) == [[5, 6]]


@pytest.mark.parametrize("method", ["vae", "mml", "dp", "hybrid"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("k, cpus", [(2, 2), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_forked_groups_equal_the_in_process_run_bit_for_bit(monkeypatch, method,
                                                            d, k, cpus):
    # the same parameter bytes and the same histories but wall_time, with
    # clipping firing on some member updates as in the stacked-versus-solo test
    train = tiny_train_set(d=d, gamma_l=0.3)
    clip = {"vae": 5.0, "mml": 0.003 if d == 1 else 0.3, "dp": 0.45,
            "hybrid": 0.5}[method]
    cfg = tiny_config(ensemble_size=k, epochs=7, warmup_epochs=3, clip_norm=clip,
                      master_seed=4, method=method)
    monkeypatch.setattr(fo, "_usable_cpus", lambda: 1)
    want, want_hists = tr.train(cfg, train)
    forked = _forking(monkeypatch, cpus)
    got, got_hists = tr.train(cfg, train)
    assert forked == fo._member_groups(want.seeds, min(k, cpus))[1:]
    assert got.seeds == want.seeds == [h.seed for h in got_hists]
    assert got.flat.data.tobytes() == want.flat.data.tobytes()
    for a, b in zip(got.parameters(), want.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    rows = [[[{**r, "wall_time": 0} for r in h.to_rows()] for h in hists]
            for hists in (got_hists, want_hists)]
    assert rows[0] == rows[1]
    if method != "vae":
        clipped = {r.clipped for h in got_hists for r in h.records[3:]}
        assert clipped == {True, False}


def _with_huge_row(train, role, i):
    features = train.features.copy()
    features[np.flatnonzero(train.roles == role)[i]] *= 1e154
    return dk.SsadDataset(features, train.labels, train.roles)


# Found by a search over master seeds: (method, role and index of the one
# huge row, master seed, batch size, the in-process abort of K=5, and the
# first aborts of group 0 = members 0-2 and group 1 = members 3-4, each
# trained alone).
ABORTS = [
    # member 3 (group 1) fails first; group 0 fails a batch later
    ("vae", dk.ROLE_TRAIN_NORMAL, 5, 7, 32,
     "normal-term loss at member seed 10, epoch 0, batch 0",
     ["normal-term loss at member seed 7, epoch 0, batch 1",
      "normal-term loss at member seed 10, epoch 0, batch 0"]),
    # members 2 (group 0) and 4 (group 1) both fail at the same step
    ("vae", dk.ROLE_TRAIN_NORMAL, 5, 8, 32,
     "normal-term loss at member seed 10, epoch 0, batch 0",
     ["normal-term loss at member seed 10, epoch 0, batch 0",
      "normal-term loss at member seed 12, epoch 0, batch 0"]),
    # member 3 fails at epoch 2's outlier step; group 0 at epoch 3's
    ("mml", dk.ROLE_TRAIN_OUTLIER, 2, 3, 8,
     "outlier-term loss at member seed 6, epoch 2",
     ["outlier-term loss at member seed 4, epoch 3",
      "outlier-term loss at member seed 6, epoch 2"]),
    # members 0 (group 0) and 4 (group 1) both fail at epoch 2's outlier step
    ("dp", dk.ROLE_TRAIN_OUTLIER, 2, 2, 8,
     "outlier-term loss at member seed 2, epoch 2",
     ["outlier-term loss at member seed 2, epoch 2",
      "outlier-term loss at member seed 6, epoch 2"]),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method, role, row, master_seed, batch_size, first, "
                         "group_firsts", ABORTS)
def test_forked_abort_is_the_in_process_one(monkeypatch, method, role, row,
                                            master_seed, batch_size, first,
                                            group_firsts):
    train = _with_huge_row(tiny_train_set(d=3, gamma_l=0.3), role, row)
    cfg = dict(epochs=6, warmup_epochs=2, batch_size=batch_size, method=method)
    monkeypatch.setattr(fo, "_usable_cpus", lambda: 1)
    for (k, m), want in zip([(3, master_seed), (2, master_seed + 3)], group_firsts):
        with pytest.raises(tr.NumericalAbort) as alone:
            tr.train(tiny_config(ensemble_size=k, master_seed=m, **cfg), train)
        assert str(alone.value).startswith(f"non-finite {want}: ")
    cfg = tiny_config(ensemble_size=5, master_seed=master_seed, **cfg)
    with pytest.raises(tr.NumericalAbort) as in_process:
        tr.train(cfg, train)
    assert str(in_process.value).startswith(f"non-finite {first}: ")
    forked = _forking(monkeypatch, 2)
    with pytest.raises(tr.NumericalAbort) as got:
        tr.train(cfg, train)
    assert forked == [[master_seed + 3, master_seed + 4]]
    assert str(got.value) == str(in_process.value)


def test_first_error_follows_the_in_process_order():
    A = tr.NumericalAbort
    seeds = [10, 11, 12, 13]
    cases = [
        # the earlier epoch, then normal steps before the outlier step
        ([A("outlier-term loss", "", 2, None, 10), A("gradient", "", 1, 3, 13)], 1),
        ([A("outlier-term loss", "", 2, None, 10), A("gradient", "", 2, 3, 13)], 1),
        # the earlier batch, then the loss check before the gradient check
        ([A("normal-term loss", "", 2, 4, 10), A("gradient", "", 2, 3, 13)], 1),
        ([A("gradient", "", 2, 3, 10), A("normal-term loss", "", 2, 3, 13)], 1),
        ([A("gradient", "", 2, None, 10), A("outlier-term loss", "", 2, None, 13)], 1),
        # at the same check, the smaller member
        ([A("gradient", "", 2, 3, 12), A("gradient", "", 2, 3, 11)], 1),
        ([A("gradient", "", 2, 3, 11), A("gradient", "", 2, 3, 12)], 0),
    ]
    for errors, want in cases:
        assert tr._first_error(errors, seeds) is errors[want]
    # an error that is not an abort comes first, the earliest group's
    lost, other = RuntimeError("lost"), ValueError("other")
    assert tr._first_error([A("gradient", "", 0, 0, 10), lost, other], seeds) is lost


def test_lost_group_raises_naming_its_seeds_and_leaves_no_process(monkeypatch):
    import os

    train_members = tr._train_members

    def exit_in_last_group(config, normal_x, outlier_x, model, first):
        if model.seeds[0] == 7:  # in the forked child, which inherits this patch
            os._exit(9)
        return train_members(config, normal_x, outlier_x, model, first)

    monkeypatch.setattr(tr, "_train_members", exit_in_last_group)
    forked = _forking(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=r"^training of member seeds \[7\] "
                                           r"ended without a result \(exit status 9\)$"):
        tr.train(tiny_config(ensemble_size=5, master_seed=3, method="dp"),
                 tiny_train_set())
    assert forked == [[5, 6], [7]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_interrupted_train_kills_and_reaps_its_children(monkeypatch):
    import os

    train_members = tr._train_members

    def interrupted_in_group_0(config, normal_x, outlier_x, model, first):
        if first == 0:
            raise KeyboardInterrupt
        return train_members(config, normal_x, outlier_x, model, first)

    monkeypatch.setattr(tr, "_train_members", interrupted_in_group_0)
    _forking(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        tr.train(tiny_config(ensemble_size=2, epochs=200, method="vae"),
                 tiny_train_set())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FAN_OUT_UNTIL_KILLED = """
import os, sys, time
from ssadvae import fanout as fo

fo._usable_cpus = lambda: 2
parent, pid_file = os.getpid(), sys.argv[1]

def wait(group):
    if os.getpid() != parent:  # the forked group writes its pid
        with open(pid_file + ".part", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(pid_file + ".part", pid_file)
    time.sleep(120)

fo.fan_out(wait, [0, 1], "waiting", stacked=True)
"""


def _process_state(pid):
    """The state letter of a process in /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def test_forked_group_dies_with_its_killed_parent(tmp_path):
    # a process blocked in fan_out is SIGKILLed: its forked child must not
    # go on working for a parent that is gone
    import contextlib
    import ctypes
    import os
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    if not hasattr(ctypes.CDLL(None), "prctl") or not os.path.isdir("/proc/self"):
        pytest.skip("needs libc prctl and /proc")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    pid_file = tmp_path / "child.pid"
    parent = subprocess.Popen([sys.executable, "-c", FAN_OUT_UNTIL_KILLED,
                               str(pid_file)], env=env)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert _process_state(child) not in (None, "Z")
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5
        while _process_state(child) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _process_state(child) in (None, "Z")
    finally:
        parent.kill()
        parent.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)


def test_train_does_not_fork_while_another_thread_runs(monkeypatch):
    import threading

    forked = _forking(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        model, _ = tr.train(tiny_config(ensemble_size=3, method="dp"),
                            tiny_train_set())
    finally:
        stop.set()
        other.join()
    assert forked == [] and model.seeds == [0, 1, 2]
