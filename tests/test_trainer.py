import json

import numpy as np
import pytest

from ssadvae import datakit as dk
from ssadvae import gradcore as gc
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


def test_config_roundtrip():
    cfg = tiny_config()
    again = tr.TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# ---------------------------------------------------------------------------
# adam

def test_adam_first_step_magnitude():
    p = gc.parameter(np.zeros(4))
    state = tr.AdamState.for_params([p])
    tr.adam_step(state, [p], [np.ones(4)], lr=1e-3)
    expect = -1e-3 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(p.data, expect, rtol=1e-12)


def test_adam_zero_gradient_keeps_params_but_decays_moments():
    p = gc.parameter(np.full(3, 7.0))
    state = tr.AdamState.for_params([p])
    tr.adam_step(state, [p], [np.ones(3)], lr=1e-2)
    m_before = state.ms[0].copy()
    pos_before = p.data.copy()
    tr.adam_step(state, [p], [np.zeros(3)], lr=1e-2)
    # zero grad: moments decay toward zero, position moves only via stale momentum
    assert np.all(np.abs(state.ms[0]) < np.abs(m_before))
    assert not np.array_equal(p.data, pos_before)  # momentum still acts


def test_adam_none_grad_skipped_entirely():
    p = gc.parameter(np.ones(2))
    q = gc.parameter(np.ones(2))
    state = tr.AdamState.for_params([p, q])
    tr.adam_step(state, [p, q], [np.ones(2), None], lr=1e-3)
    np.testing.assert_array_equal(q.data, np.ones(2))
    np.testing.assert_array_equal(state.ms[1], np.zeros(2))


def test_adam_deterministic_over_100_steps():
    def run():
        p = gc.parameter(np.linspace(-1, 1, 5))
        state = tr.AdamState.for_params([p])
        g = np.sin(np.arange(5.0))
        for t in range(100):
            tr.adam_step(state, [p], [g * np.cos(t)], lr=3e-3)
        return p.data
    np.testing.assert_array_equal(run(), run())


def test_adam_nonfinite_grad_aborts():
    p = gc.parameter(np.ones(2))
    state = tr.AdamState.for_params([p])
    with pytest.raises(tr.NumericalAbort, match="gradient"):
        tr.adam_step(state, [p], [np.array([1.0, np.nan])], lr=1e-3)


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
    assert tr.outlier_path_lr(1e-3, 0) == 1e-3
    assert tr.outlier_path_lr(1e-3, 49) == 1e-3
    assert tr.outlier_path_lr(1e-3, 50) == pytest.approx(1e-4)
    assert tr.outlier_path_lr(1e-3, 100) == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# full loop

def test_outlier_updates_respect_warmup_and_interval():
    train = tiny_train_set()
    cfg = tiny_config(epochs=10, warmup_epochs=4, nd_update_interval=2)
    _, hists = tr.train(cfg, train, "dp")
    flags = [r.outlier_term is not None for r in hists[0].records]
    assert flags == [False, False, False, False,
                     True, False, True, False, True, False]


def test_warmup_epochs_show_no_outlier_term():
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, warmup_epochs=5)
    _, hists = tr.train(cfg, train, "mml")
    recs = hists[0].records
    assert all(r.outlier_term is None for r in recs[:5])
    assert recs[5].outlier_term is not None
    assert recs[5].outlier_lr == cfg.lr  # epoch 5 < decay_every


def test_train_determinism_bit_exact():
    train = tiny_train_set()
    cfg = tiny_config(ensemble_size=2)
    ens1, _ = tr.train(cfg, train, "dp")
    ens2, _ = tr.train(cfg, train, "dp")
    for m1, m2 in zip(ens1.members, ens2.members):
        for t1, t2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(t1.data, t2.data)


def test_concurrent_trainings_match_sequential():
    # distinct models may train on distinct threads; graphs are thread-confined
    import threading

    train = tiny_train_set()
    cfgs = {m: tiny_config(master_seed=s)
            for m, s in (("dp", 0), ("mml", 7))}
    sequential = {m: tr.train(c, train, m)[0] for m, c in cfgs.items()}

    results = {}

    def worker(method, cfg):
        results[method] = tr.train(cfg, train, method)[0]

    threads = [threading.Thread(target=worker, args=(m, c))
               for m, c in cfgs.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for method, ens in sequential.items():
        for a, b in zip(ens.members[0].parameters(),
                        results[method].members[0].parameters()):
            np.testing.assert_array_equal(a.data, b.data)


def test_member_seeds_derived_from_master():
    train = tiny_train_set()
    ens, hists = tr.train(tiny_config(ensemble_size=3, master_seed=11), train, "vae")
    assert [m.seed for m in ens.members] == [11, 12, 13]
    assert [h.seed for h in hists] == [11, 12, 13]


def test_gamma_zero_mml_trajectory_equals_plain_vae():
    train = tiny_train_set()
    cfg = tiny_config(gamma=0.0)
    vae, _ = tr.train(cfg, train, "vae")
    mml, _ = tr.train(cfg, train, "mml")
    for a, b in zip(vae.members[0].parameters(), mml.members[0].parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_empty_outlier_pool_dp_equals_plain_vae():
    train = tiny_train_set(gamma_l=0.0)
    cfg = tiny_config()
    vae, _ = tr.train(cfg, train, "vae")
    dp, _ = tr.train(cfg, train, "dp")
    for a, b in zip(vae.members[0].parameters(), dp.members[0].parameters()):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("method", ["mml", "dp"])
def test_warmup_trajectory_matches_plain_vae(method):
    # through epoch warmup-1 the run IS a plain VAE: per-epoch losses are
    # bit-identical; the first outlier update makes them diverge
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, warmup_epochs=4)
    _, h_m = tr.train(cfg, train, method)
    _, h_v = tr.train(cfg, train, "vae")
    for rm, rv in zip(h_m[0].records[:4], h_v[0].records[:4]):
        assert (rm.elbo, rm.kl, rm.recon) == (rv.elbo, rv.kl, rv.recon)
    assert h_m[0].records[4].outlier_term is not None
    assert h_m[0].records[5].elbo != h_v[0].records[5].elbo


def test_hybrid_training_runs_outlier_updates():
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, warmup_epochs=4)
    ens, hists = tr.train(cfg, train, "hybrid")
    assert ens.method == "hybrid"
    recs = hists[0].records
    assert all(r.outlier_term is None for r in recs[:4])
    assert recs[4].outlier_term is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_with_context():
    train = tiny_train_set()
    bad = train.features.copy()
    train_bad = dk.SsadDataset(bad * 1e300, train.labels, train.roles)
    cfg = tiny_config(epochs=4, warmup_epochs=3, lr=1e3)
    with pytest.raises((tr.NumericalAbort, ValueError)):
        tr.train(cfg, train_bad, "vae")


def test_train_rejects_empty_normal_stream():
    ds = dk.SsadDataset(np.ones((4, 2)), np.ones(4),
                        np.full(4, dk.ROLE_DROPPED))
    with pytest.raises(ValueError, match="no normal rows"):
        tr.train(tiny_config(), ds, "vae")


def test_history_export(tmp_path):
    train = tiny_train_set()
    cfg = tiny_config(epochs=5, warmup_epochs=4)
    _, hists = tr.train(cfg, train, "dp")
    h = hists[0]
    assert len(h.records) == 5
    csv_path = tmp_path / "hist.csv"
    json_path = tmp_path / "hist.json"
    h.save_csv(csv_path)
    h.save_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("epoch,elbo,kl,recon,outlier_term,lr,outlier_lr,"
                        "anneal_coeff,wall_time,cubo_log_domain")
    assert len(lines) == 6
    # warm-up rows have an empty outlier term
    assert lines[1].split(",")[4] == ""
    assert lines[5].split(",")[4] != ""
    # dp has no CUBO term, so its domain column stays blank on every epoch
    assert [line.split(",")[-1] for line in lines[1:]] == [""] * 5
    data = json.loads(json_path.read_text())
    assert data["seed"] == 0 and len(data["epochs"]) == 5

    # mml logs the CUBO domain it optimized, on its update epochs only
    _, hists = tr.train(cfg, train, "mml")
    hists[0].save_csv(csv_path)
    last = [line.split(",")[-1]
            for line in csv_path.read_text().strip().splitlines()[1:]]
    assert last[:4] == [""] * 4 and last[4] in ("True", "False")
    assert hists[0].records[4].cubo_log_domain is (last[4] == "True")


def test_anneal_coefficient_recorded_and_saturates():
    train = tiny_train_set()
    cfg = tiny_config(epochs=6, anneal_epochs=4, warmup_epochs=5, beta_kl=0.2)
    _, hists = tr.train(cfg, train, "vae")
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
    cfg = dict(epochs=7, warmup_epochs=3, clip_norm=clip, master_seed=4)
    stacked, hists = tr.train(tiny_config(ensemble_size=3, **cfg), train, method)
    solo = [tr.train(tiny_config(**{**cfg, "master_seed": 4 + k}), train, method)
            for k in range(3)]
    for k, (ens, solo_hists) in enumerate(solo):
        assert stacked.members[k].seed == hists[k].seed == 4 + k
        for a, b in zip(stacked.members[k].parameters(), ens.members[0].parameters()):
            assert a.shape == b.shape and a.data.tobytes() == b.data.tobytes()
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
        tr.train(tiny_config(ensemble_size=2, master_seed=7), huge, "vae")
