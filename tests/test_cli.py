import contextlib
import io
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssadvae import cli

FAST = ["--epochs", "6", "--ensemble", "1", "--seeds", "0"]
FAST_CFG = ["--widths", "8,4,2"]


def fast_args(*extra, out):
    return [*extra, *FAST, *FAST_CFG, "--out", str(out)]


def patch_fast_defaults(monkeypatch):
    # small warm-up/anneal so 6-epoch runs are legal
    monkeypatch.setitem(cli._DEFAULTS, "gamma_l", 0.05)
    for key, val in (("warmup_epochs", 3), ("anneal_epochs", 2)):
        monkeypatch.setattr(
            cli, "_DEFAULTS", {**cli._DEFAULTS}, raising=True)
    # easier: inject through a config file in each test instead


def write_fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text("warmup_epochs = 3\nanneal_epochs = 2\n", encoding="utf-8")
    return str(p)


def test_usage_error_without_dataset(tmp_path, capsys):
    rc = cli.main(["train", *FAST, "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "required" in capsys.readouterr().err


def test_unknown_command_flag_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--no-such-flag"])
    assert rc == cli.EXIT_USAGE


def test_bad_dataset_path_exit_2_no_partial_output(tmp_path, capsys):
    out = tmp_path / "runs"
    rc = cli.main(["train", "--dataset", str(tmp_path / "nope.csv"),
                   *FAST, "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert not out.exists()


def test_train_writes_models_manifest_histories(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,200,3.0", "--method", "dp",
                   "--config", cfg, "--gamma-l", "0.05",
                   *fast_args(out=out)])
    assert rc == cli.EXIT_OK
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    files = {p.name for p in run_dirs[0].iterdir()}
    assert "manifest.json" in files
    assert "member_00.bin" in files and "member_00.json" in files
    assert any(f.startswith("history_seed") and f.endswith(".csv") for f in files)
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
    assert manifest["config"]["method"] == "dp"


def test_train_default_ensemble_is_five(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "3,120,3.0", "--method", "vae",
                   "--gamma-l", "0", "--config", cfg,
                   "--epochs", "5", "--seeds", "1", *FAST_CFG,
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    run_dir = next(out.iterdir())
    bins = [p for p in run_dir.iterdir() if p.suffix == ".bin"]
    assert len(bins) == 5  # K=5 default
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["method"] == "vae"
    assert manifest["config"]["gamma_l"] == 0.0


def test_score_roundtrip_and_dim_check(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,200,3.0", "--method", "dp",
                   "--config", cfg, *fast_args(out=out)])
    assert rc == cli.EXIT_OK
    model_dir = str(next(out.iterdir()))

    score_out = tmp_path / "scored"
    rc = cli.main(["score", "--model-dir", model_dir, "--synth", "4,60,3.0",
                   "--seeds", "7", "--out", str(score_out)])
    assert rc == cli.EXIT_OK
    score_dir = next(score_out.iterdir())
    csvs = [p for p in score_dir.iterdir() if p.suffix == ".csv"]
    assert len(csvs) == 1
    lines = csvs[0].read_text().strip().splitlines()
    assert lines[0] == "row,score,label"
    assert len(lines) == 1 + 60 + 15  # header + normals + anomalies

    rc = cli.main(["score", "--model-dir", model_dir, "--synth", "5,40,3.0",
                   "--out", str(tmp_path / "bad")])
    assert rc == cli.EXIT_DATA  # feature-dimension mismatch


def test_scores_separate_classes_on_synth(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    cli.main(["train", "--synth", "4,300,3.0", "--method", "dp",
              "--config", cfg, "--epochs", "8", "--ensemble", "2",
              "--seeds", "0", *FAST_CFG, "--out", str(out)])
    model_dir = str(next(out.iterdir()))
    score_out = tmp_path / "scored"
    cli.main(["score", "--model-dir", model_dir, "--synth", "4,100,3.0",
              "--seeds", "3", "--out", str(score_out)])
    import csv as csvmod
    score_dir = next(score_out.iterdir())
    path = next(p for p in score_dir.iterdir() if p.suffix == ".csv")
    with open(path) as fh:
        rows = list(csvmod.DictReader(fh))
    scores = np.array([float(r["score"]) for r in rows])
    labels = np.array([int(r["label"]) for r in rows])
    assert scores[labels == 1].mean() < scores[labels == 0].mean()


def test_benchmark_report_and_determinism(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    argv = ["benchmark", "--synth", "4,200,3.0", "--method", "mml",
            "--gamma-l", "0.05", "--config", cfg, "--epochs", "6",
            "--ensemble", "1", "--seeds", "0,1", *FAST_CFG]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main([*argv, "--out", str(out1)]) == cli.EXIT_OK
    assert cli.main([*argv, "--out", str(out2)]) == cli.EXIT_OK
    d1 = next(out1.iterdir())
    d2 = next(out2.iterdir())
    rep1 = next(p for p in d1.iterdir() if p.name.startswith("report_"))
    rep2 = next(p for p in d2.iterdir() if p.name.startswith("report_"))
    assert rep1.read_bytes() == rep2.read_bytes()
    report = json.loads(rep1.read_text())
    assert report["n_seeds"] == 2
    assert 0.0 <= report["auroc_mean"] <= 1.0
    assert len(report["per_seed"]) == 2


def test_benchmark_rerun_from_manifest_byte_identical(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    argv = ["benchmark", "--synth", "4,150,3.0", "--method", "dp",
            "--config", cfg, "--epochs", "5", "--ensemble", "1",
            "--seeds", "0,1", *FAST_CFG]
    out1 = tmp_path / "a"
    assert cli.main([*argv, "--out", str(out1)]) == cli.EXIT_OK
    d1 = next(out1.iterdir())
    manifest_path = d1 / "manifest.json"
    out2 = tmp_path / "b"
    rc = cli.main(["benchmark", "--config", str(manifest_path),
                   "--out", str(out2)])
    assert rc == cli.EXIT_OK
    d2 = next(out2.iterdir())
    assert d1.name == d2.name  # same digest
    rep1 = next(p for p in d1.iterdir() if p.name.startswith("report_"))
    rep2 = next(p for p in d2.iterdir() if p.name.startswith("report_"))
    assert rep1.read_bytes() == rep2.read_bytes()


def test_benchmark_single_seed_flag(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    rc = cli.main(["benchmark", "--synth", "4,150,3.0", "--method", "vae",
                   "--gamma-l", "0", "--config", cfg, "--epochs", "5",
                   "--ensemble", "1", "--seeds", "3", *FAST_CFG,
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = next(p for p in next(out.iterdir()).iterdir()
               if p.name.startswith("report_"))
    report = json.loads(rep.read_text())
    assert report["single_seed"] is True
    assert report["auroc_stdev"] == 0.0


def test_config_file_flags_override(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("method = dp\nepochs = 9\nwarmup_epochs = 3\n"
                 "anneal_epochs = 2\n# comment\n", encoding="utf-8")
    cfg = cli.effective_config(cli.build_parser().parse_args(
        ["train", "--synth", "4,100,2.0", "--config", str(p),
         "--method", "mml"]))
    assert cfg["method"] == "mml"  # flag wins
    assert cfg["epochs"] == 9


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("methodd = dp\n", encoding="utf-8")
    rc = cli.main(["train", "--synth", "4,100,2.0", "--config", str(p)])
    assert rc == cli.EXIT_USAGE


def test_bundled_configs_resolve_and_parse():
    names = cli.list_bundled_configs()
    assert "dp-cardio.cfg" in names and "mml-thyroid.cfg" in names
    cfg = cli.load_config_file("dp-cardio")
    assert cfg["method"] == "dp"
    assert cfg["alpha"] == 5.0
    assert cfg["widths"] == [32, 16, 8]
    mml = cli.load_config_file("mml-thyroid.cfg")
    assert mml["lr"] == 0.0001 and mml["beta_cubo"] == 0.05


def test_synth_spec_parsing():
    assert cli.parse_synth("8,2000,3.0") == (8, 2000, 3.0, 500)
    assert cli.parse_synth("4,100,1.5,37") == (4, 100, 1.5, 37)
    with pytest.raises(cli.UsageError):
        cli.parse_synth("8,2000")


def test_benchmark_hybrid_with_pollution(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    rc = cli.main(["benchmark", "--synth", "4,300,2.0", "--method", "hybrid",
                   "--gamma-l", "0.05", "--gamma-p", "0.05", "--alpha", "5",
                   "--config", cfg, "--epochs", "6", "--ensemble", "1",
                   "--seeds", "0", *FAST_CFG, "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = next(p for p in next(out.iterdir()).iterdir()
               if p.name.startswith("report_"))
    report = json.loads(rep.read_text())
    assert report["method"] == "hybrid"
    assert report["gamma_p"] == 0.05


def test_out_root_env_var(tmp_path, monkeypatch):
    cfg = write_fast_cfg(tmp_path)
    root = tmp_path / "envroot"
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(root))
    rc = cli.main(["train", "--synth", "3,120,3.0", "--method", "vae",
                   "--gamma-l", "0", "--config", cfg, *FAST, *FAST_CFG])
    assert rc == cli.EXIT_OK
    assert root.exists() and any(root.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exit_3(tmp_path, capsys):
    cfg = write_fast_cfg(tmp_path)
    # an absurd learning rate blows the parameters up within a few steps
    rc = cli.main(["train", "--synth", "4,200,3.0", "--method", "vae",
                   "--gamma-l", "0", "--config", cfg, "--lr", "1e30",
                   *FAST, *FAST_CFG, "--out", str(tmp_path / "runs")])
    assert rc == cli.EXIT_NUMERIC
    assert "numerical abort" in capsys.readouterr().err


def test_benchmark_failure_leaves_marker(tmp_path):
    cfg = write_fast_cfg(tmp_path)
    out = tmp_path / "runs"
    with pytest.warns(RuntimeWarning):
        rc = cli.main(["benchmark", "--synth", "4,200,3.0", "--method", "vae",
                       "--gamma-l", "0", "--config", cfg, "--lr", "1e30",
                       *FAST, *FAST_CFG, "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    run_dir = next(out.iterdir())
    failed = json.loads((run_dir / "FAILED.json").read_text())
    assert "non-finite" in failed["error"]
    assert failed["completed_seeds"] == []


# ---------------------------------------------------------------------------
# bad inputs: exit 2 with the row or file named, never a traceback

@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    cfg = write_fast_cfg(root)
    rc = cli.main(["train", "--synth", "4,200,3.0", "--method", "dp",
                   "--config", cfg, *fast_args(out=root / "runs")])
    assert rc == cli.EXIT_OK
    return next((root / "runs").iterdir())


@pytest.mark.parametrize("token", ["nan", "1e400"])
def test_nonfinite_csv_cell_is_data_error(model_dir, tmp_path, capsys, token):
    table = tmp_path / "bad.csv"
    table.write_text(f"a,b,c,d,label\n0,1,2,3,0\n1,{token},2,3,1\n",
                     encoding="utf-8")
    out = tmp_path / "scored"
    rc = cli.main(["score", "--model-dir", str(model_dir), "--dataset",
                   str(table), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert f"row 3, column 1: non-finite cell '{token}'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_label_col_from_the_cli(model_dir, tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("0,1,2,3,0\n1,0,2,3,1\n3,2,1,0,0\n", encoding="utf-8")
    out = tmp_path / "scored"
    rc = cli.main(["score", "--model-dir", str(model_dir), "--dataset",
                   str(table), "--label-col", "-1", "--out", str(out)])
    assert rc == cli.EXIT_OK  # 4 features, as the model expects
    rc = cli.main(["score", "--model-dir", str(model_dir), "--dataset",
                   str(table), "--label-col", "-99", "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert "label column index -99 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["in_dim", "standardize_mean", "standardize_scale"])
def test_score_manifest_missing_key_is_data_error(model_dir, tmp_path, capsys, key):
    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    del manifest[key]
    (bad / "manifest.json").write_text(json.dumps(manifest))
    rc = cli.main(["score", "--model-dir", str(bad), "--synth", "4,40,3.0",
                   "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "manifest.json" in err and key in err
    assert not (tmp_path / "scored").exists()


def test_score_manifest_standardization_length_is_data_error(model_dir, tmp_path,
                                                              capsys):
    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["standardize_scale"] = manifest["standardize_scale"][:-1]
    (bad / "manifest.json").write_text(json.dumps(manifest))
    rc = cli.main(["score", "--model-dir", str(bad), "--synth", "4,40,3.0",
                   "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert "manifest.json: standardize_scale has shape (3,)" in capsys.readouterr().err


def _corrupt(blob: bytes, case) -> bytes:
    kind = case[0]
    if kind == "truncate":
        return blob[:case[1] % len(blob)]
    if kind == "magic":
        i, flip = case[1], case[2]
        return blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:]
    return blob + case[1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("magic"), st.integers(0, 7), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64))))
@example(("truncate", 10))
@example(("truncate", 0))
def test_corrupt_model_file_is_data_error(model_dir, case):
    with tempfile.TemporaryDirectory() as tmp:
        bad_dir = os.path.join(tmp, "model")
        shutil.copytree(model_dir, bad_dir)
        member = os.path.join(bad_dir, "member_00.bin")
        with open(member, "rb") as fh:
            blob = fh.read()
        with open(member, "wb") as fh:
            fh.write(_corrupt(blob, case))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["score", "--model-dir", bad_dir, "--synth",
                           "4,40,3.0", "--out", os.path.join(tmp, "scored")])
        assert rc == cli.EXIT_DATA
        assert err.getvalue().startswith(f"data error: {member}: ")
        assert not os.path.exists(os.path.join(tmp, "scored"))


@pytest.mark.parametrize("leak", ["0", "1.5"])
def test_leak_outside_unit_interval_is_usage_error(tmp_path, capsys, leak):
    cfg = tmp_path / "leak.cfg"
    cfg.write_text(f"warmup_epochs = 3\nanneal_epochs = 2\nleak = {leak}\n",
                   encoding="utf-8")
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,60,3.0", "--config", str(cfg),
                   *fast_args(out=out)])
    assert rc == cli.EXIT_USAGE
    assert "leak must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config keys and digests

# the digest names a config's run directories and reruns from a manifest
# must reproduce it, so a digest that changes means some key now coerces to
# a different value or type
PINNED_DIGESTS = {
    "dp-arrhythmia.cfg": "dc39bca6e354", "dp-cardio.cfg": "1ce291573370",
    "dp-satellite.cfg": "1ce291573370", "dp-satimage2.cfg": "666117ad0fbc",
    "dp-shuttle.cfg": "1ce291573370", "dp-thyroid.cfg": "3efe63c06c48",
    "mml-arrhythmia.cfg": "46db86b3738d", "mml-cardio.cfg": "43669cd9367e",
    "mml-satellite.cfg": "43669cd9367e", "mml-satimage2.cfg": "43669cd9367e",
    "mml-shuttle.cfg": "43669cd9367e", "mml-thyroid.cfg": "29268db4e3bb",
    "synth-default.cfg": "1ce291573370",
}

EVERY_KEY_CFG = """\
use_bias = false
save_scores = yes
epochs = 12
batch_size = 64
anneal_epochs = 3
warmup_epochs = 4
nd_update_interval = 2
ensemble_size = 3
s_elbo = 2
s_cubo = 4
s_score = 16
lr_decay_every = 5
lr = 0.002
beta_kl = 0.1
beta_cubo = 0.2
gamma = 0.5
alpha = 3
lr_decay_factor = 0.5
clip_norm = 2
gamma_l = 0.05
gamma_p = 0.02
train_fraction = 0.7
leak = 0.2
widths = 16, 8, 4
seeds = 3,4
method = hybrid
dataset = data.csv
label_col = y
positive_token = yes
activation = relu
family = bernoulli
model_dir = models
"""


def _digest(*argv):
    return cli.config_digest(cli.effective_config(
        cli.build_parser().parse_args(["benchmark", *argv])))


def test_bundled_config_digests_pinned():
    assert sorted(PINNED_DIGESTS) == cli.list_bundled_configs()
    for name, digest in PINNED_DIGESTS.items():
        assert _digest("--synth", "8,200,3.0", "--config", name) == digest, name


def test_every_config_key_coerces_as_pinned(tmp_path):
    p = tmp_path / "every.cfg"
    p.write_text(EVERY_KEY_CFG, encoding="utf-8")
    cfg = cli.load_config_file(str(p))
    assert cfg["alpha"] == 3.0 and isinstance(cfg["alpha"], float)
    assert cfg["epochs"] == 12 and isinstance(cfg["epochs"], int)
    assert cfg["use_bias"] is False and cfg["widths"] == [16, 8, 4]
    assert _digest("--config", str(p)) == "4e86c9cc75c1"


def test_label_col_index_is_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("label_col_index = 7\n", encoding="utf-8")
    rc = cli.main(["train", "--synth", "4,100,2.0", "--config", str(p),
                   "--out", str(tmp_path / "runs")])
    assert rc == cli.EXIT_USAGE
    assert "unknown config key 'label_col_index'" in capsys.readouterr().err
