import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssadvae import cli

FAST = ["--epochs", "6", "--ensemble", "1", "--seeds", "0"]
FAST_CFG = ["--widths", "8,4,2"]


def fast_args(*extra, out):
    return [*extra, *FAST, *FAST_CFG, "--out", str(out)]


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
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
    assert manifest["config"]["method"] == "dp"
    (seed,) = manifest["seeds"]
    assert files == {"manifest.json", "member_00.bin",
                     f"history_seed{seed}.csv", f"history_seed{seed}.json"}


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


def test_flag_equal_to_its_default_beats_the_config_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("label_col = y\npositive_token = 2\n", encoding="utf-8")
    cfg = cli.effective_config(cli.build_parser().parse_args(
        ["train", "--dataset", "d.csv", "--config", str(p),
         "--label-col", "label", "--positive-token", "1"]))
    assert cfg["label_col"] == "label" and cfg["positive_token"] == "1"


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("methodd = dp\n", encoding="utf-8")
    rc = cli.main(["train", "--synth", "4,100,2.0", "--config", str(p)])
    assert rc == cli.EXIT_USAGE


def test_json_config_unknown_key_rejected(tmp_path, capsys):
    # as in a text config: the key is named, not dropped with its value
    p = tmp_path / "typo.json"
    p.write_text('{"epoch": 3, "widths": [8, 4, 2]}', encoding="utf-8")
    with pytest.raises(cli.UsageError, match="^unknown config key 'epoch'$"):
        cli.load_config_file(str(p))
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,200,3.0", "--config", str(p),
                   "--epochs", "2", "--ensemble", "1", "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: unknown config key 'epoch'")
    assert not out.exists()


def test_bundled_configs_resolve_and_parse():
    names = os.listdir(cli._CONFIG_DIR)
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


@pytest.mark.parametrize("text, field", [
    ("8,abc,3", "N"), ("0,200,3", "D"), ("8.5,200,3", "D"), ("8,-2,3", "N"),
    ("8,200,inf", "SHIFT"), ("8,200,nan", "SHIFT"), ("8,200,x", "SHIFT"),
    ("8,200,3,0", "N_ANOM"), ("8,200,3,", "N_ANOM")])
def test_synth_field_errors_name_the_field(tmp_path, capsys, text, field):
    with pytest.raises(cli.UsageError, match=f"^--synth {field} must be"):
        cli.parse_synth(text)
    out = tmp_path / "runs"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["train", "--synth", text, *FAST, "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert f"--synth {field} must be" in capsys.readouterr().err
    assert not caught and not out.exists()


def _quiet_main(argv):
    """cli.main(argv) as (exit code, stderr, RuntimeWarnings raised)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, err.getvalue(), [w for w in caught
                                if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("shift", ["1e308", "1e200"])  # mean, variance overflows
def test_overflowing_synth_features_are_a_data_error(tmp_path, shift):
    out = tmp_path / "runs"
    rc, err, caught = _quiet_main(["train", "--synth", f"8,200,{shift}", *FAST,
                                   "--out", str(out)])
    assert rc == cli.EXIT_DATA
    source = f"synth-gaussian(d=8,shift={float(shift)})"
    assert f"{source}: feature column 0 overflows standardization" in err
    assert not caught and "RuntimeWarning" not in err
    assert not out.exists()


# each array asks for more than the 2**47-byte x86-64 user address space,
# so its allocation fails at once under any overcommit policy
HUGE_ROWS = ["--synth", "8,10000000000000,3.0"]
HUGE_WIDTH = ["--synth", "8,200,3.0", "--widths", "10000000000000,2"]


@pytest.mark.parametrize("command, argv, run_dir", [
    ("train", HUGE_ROWS, False), ("train", HUGE_WIDTH, False),
    ("benchmark", HUGE_ROWS, False), ("benchmark", HUGE_WIDTH, True)],
    ids=["train-rows", "train-width", "benchmark-rows", "benchmark-width"])
def test_an_allocation_that_cannot_be_made_is_a_data_error(tmp_path, command,
                                                           argv, run_dir):
    # the table is drawn before any run directory exists, the members only
    # after a benchmark has made its own, which then holds FAILED.json
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main([command, *argv, "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error: out of memory: Unable to allocate ")
    assert err.count("\n") == 1
    if not run_dir:
        assert not out.exists()
        return
    (path,) = out.iterdir()
    failed = json.loads((path / "FAILED.json").read_text(encoding="utf-8"))
    assert failed["completed_seeds"] == []
    assert failed["error"].startswith("Unable to allocate ")


def test_aborted_train_leaves_no_run_directory(tmp_path, capsys):
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,200,3.0", "--method", "vae",
                   "--config", write_fast_cfg(tmp_path), "--lr", "1e300",
                   *FAST, *FAST_CFG, "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    assert "numerical abort" in capsys.readouterr().err
    assert not out.exists()


def test_diverging_train_prints_only_its_abort(tmp_path):
    # the parameters overflow inside numpy a step before the loss check
    # sees a nan; numpy's warnings about that stay off stderr
    out = tmp_path / "runs"
    rc, err, caught = _quiet_main(["train", "--synth", "4,200,3.0", "--method", "dp",
                                   "--config", write_fast_cfg(tmp_path),
                                   "--lr", "1e300", *fast_args(out=out)])
    assert rc == cli.EXIT_NUMERIC
    assert err.startswith("numerical abort: non-finite normal-term loss at "
                          "member seed 0, epoch 1, batch 0")
    assert err.count("\n") == 1 and not caught
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("setting, key", [
    ("method = dp\nalpha = 0", "alpha"), ("method = hybrid\nalpha = 0", "alpha"),
    ("method = mml\ngamma = -1", "gamma"), ("method = hybrid\ngamma = -1", "gamma"),
    ("s_elbo = 0", "s_elbo"), ("s_cubo = 0", "s_cubo"), ("s_score = 0", "s_score"),
    ("clip_norm = 0", "clip_norm"), ("beta_kl = -1", "beta_kl"),
    ("beta_cubo = -1", "beta_cubo"), ("lr_decay_factor = -1", "lr_decay_factor"),
    ("lr_decay_every = -3", "lr_decay_every"),
    ("nd_update_interval = 2\nwarmup_epochs = -3", "warmup_epochs"),
    ("anneal_epochs = -1", "anneal_epochs")],
    ids=["dp-alpha", "hybrid-alpha", "mml-gamma", "hybrid-gamma", "s_elbo",
         "s_cubo", "s_score", "clip_norm", "beta_kl", "beta_cubo",
         "lr_decay_factor", "lr_decay_every", "warmup_epochs", "anneal_epochs"])
def test_value_training_would_reject_is_a_usage_error_up_front(tmp_path, command,
                                                               setting, key):
    # each used to fail inside training (s_score after it), and under
    # benchmark left a FAILED.json behind
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"warmup_epochs = 3\nanneal_epochs = 2\n{setting}\n",
                   encoding="utf-8")
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main([command, "--synth", "4,200,3.0", "--gamma-l", "0.05",
                              "--config", str(cfg), *fast_args(out=out)])
    assert rc == cli.EXIT_USAGE
    assert err.startswith(f"error: {key}") and "Traceback" not in err
    assert not out.exists()


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
    rc, _, caught = _quiet_main(["benchmark", "--synth", "4,200,3.0", "--method",
                                 "vae", "--gamma-l", "0", "--config", cfg, "--lr",
                                 "1e30", *FAST, *FAST_CFG, "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    assert not caught
    run_dir = next(out.iterdir())
    failed = json.loads((run_dir / "FAILED.json").read_text())
    assert "non-finite" in failed["error"]
    assert failed["completed_seeds"] == []


def test_benchmark_parses_its_csv_once(tmp_path, monkeypatch):
    # one seed or two, a --dataset table takes one load_csv call, and the
    # two-seed report holds each seed's one-seed result
    from ssadvae import datakit as dk

    ds = dk.synth_gaussian_ad(4, 200, 50, 3.0, seed=2)
    table = tmp_path / "t.csv"
    table.write_text("a,b,c,d,label\n" + "".join(
        ",".join(map(repr, row)) + f",{label}\n"
        for row, label in zip(ds.features.tolist(), ds.labels)), encoding="utf-8")
    calls = []
    load_csv = dk.load_csv
    monkeypatch.setattr(dk, "load_csv",
                        lambda *a, **kw: calls.append(a) or load_csv(*a, **kw))
    cfg = write_fast_cfg(tmp_path)

    def per_seed(seeds):
        out = tmp_path / f"runs_{seeds}"
        calls.clear()
        rc = cli.main(["benchmark", "--dataset", str(table), "--method", "dp",
                       "--gamma-l", "0.05", "--config", cfg, "--epochs", "6",
                       "--ensemble", "1", "--seeds", seeds, *FAST_CFG,
                       "--out", str(out)])
        assert rc == cli.EXIT_OK and len(calls) == 1
        rep = next(p for p in next(out.iterdir()).iterdir()
                   if p.name.startswith("report_"))
        return json.loads(rep.read_text())["per_seed"]

    assert per_seed("0,1") == per_seed("0") + per_seed("1")


@pytest.mark.parametrize("data, message", [
    (["--synth", "4,5,3.0"], "--synth 4,5,3.0: the test split has no class 1 "
                             "rows at train_fraction 0.6; AUROC needs both"),
    (["--synth", "4,1,3.0,3"], "--synth 4,1,3.0,3: the test split has no "
                               "class 0 rows at train_fraction 0.6"),
    (["--dataset", "normals.csv"], "normals.csv: class 1 has no rows")],
    ids=["no-test-anomaly", "no-test-normal", "one-class-table"])
def test_benchmark_split_without_both_classes_is_a_data_error(tmp_path, data,
                                                               message):
    # no seed can be scored, so nothing is trained and no directory made
    (tmp_path / "normals.csv").write_text("a,b,label\n1,2,0\n3,4,0\n5,6,0\n")
    out = tmp_path / "runs"
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        rc, err, _ = _quiet_main(["benchmark", *data, "--config",
                                  write_fast_cfg(tmp_path), *fast_args(out=out)])
    finally:
        os.chdir(cwd)
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_training_split_without_normal_rows_is_a_data_error(tmp_path, command):
    # the one normal row goes to the test split at train_fraction 0.4
    cfg = tmp_path / "split.cfg"
    cfg.write_text("warmup_epochs = 3\nanneal_epochs = 2\ntrain_fraction = 0.4\n",
                   encoding="utf-8")
    out = tmp_path / "runs"
    rc, err, caught = _quiet_main([command, "--synth", "4,1,3.0,3", "--config",
                                   str(cfg), *fast_args(out=out)])
    assert rc == cli.EXIT_DATA
    assert err == ("data error: --synth 4,1,3.0,3: the training split has no "
                   "normal rows at train_fraction 0.4\n")
    assert not caught and not out.exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_table_without_feature_columns_is_a_data_error(tmp_path, command):
    path = tmp_path / "labels.csv"
    path.write_text("label\n" + "0\n" * 20 + "1\n" * 10, encoding="utf-8")
    out = tmp_path / "runs"
    rc, err, caught = _quiet_main([command, "--dataset", str(path), "--config",
                                   write_fast_cfg(tmp_path), *fast_args(out=out)])
    assert rc == cli.EXIT_DATA
    assert err == (f"data error: {path}: no feature columns beside the label "
                   "column\n")
    assert not caught and not out.exists()


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


def test_score_digest_covers_the_model_dir(model_dir, tmp_path):
    # the same data scored with two ensembles: two runs, neither overwritten
    other = tmp_path / "other-ensemble"
    shutil.copytree(model_dir, other)
    out = tmp_path / "scored"
    for ens in (model_dir, other):
        rc = cli.main(["score", "--model-dir", str(ens), "--synth", "4,40,3.0",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
    runs = sorted(out.iterdir())
    assert len(runs) == 2
    named = {json.loads((r / "manifest.json").read_text())["config"]["model_dir"]
             for r in runs}
    assert named == {str(model_dir), str(other)}


def test_score_digest_ignores_how_the_model_dir_is_spelled(model_dir, tmp_path,
                                                          monkeypatch):
    # `runs/x`, `./runs/x` and `runs/x/` name one ensemble: one score run
    monkeypatch.chdir(model_dir.parent.parent)
    rel = os.path.join(model_dir.parent.name, model_dir.name)
    out = tmp_path / "scored"
    for spelled in (rel, os.path.join(".", rel), rel + os.sep):
        rc = cli.main(["score", "--model-dir", spelled, "--synth", "4,40,3.0",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
    (run,) = out.iterdir()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["model_dir"] == rel
    assert cli._coerce("dataset", "./data//t.csv") == os.path.join("data", "t.csv")


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


def test_score_width_mismatch_names_the_csv_and_the_manifest(model_dir, tmp_path,
                                                             capsys):
    table = tmp_path / "wide.csv"
    table.write_text("a,b,c,d,e,label\n0,1,2,3,4,0\n1,0,2,3,4,1\n",
                     encoding="utf-8")
    out = tmp_path / "scored"
    rc = cli.main(["score", "--model-dir", str(model_dir), "--dataset",
                   str(table), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{table} has 5 features, but {model_dir / 'manifest.json'} "
            "has in_dim 4") in err
    assert not out.exists()
    rc = cli.main(["score", "--model-dir", str(model_dir), "--synth", "3,40,3.0",
                   "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert (f"--synth 3,40,3.0 has 3 features, but {model_dir / 'manifest.json'} "
            "has in_dim 4") in capsys.readouterr().err


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


@pytest.mark.parametrize("edits, key", [
    ({"standardize_scale": (0, 0.0)}, "standardize_scale[0] is 0.0"),
    ({"standardize_scale": (2, -1.0)}, "standardize_scale[2] is -1.0"),
    ({"standardize_scale": (1, math.inf)}, "standardize_scale[1] is inf"),
    ({"standardize_mean": (3, math.nan)}, "standardize_mean[3] is nan"),
    ({"standardize_scale": (0, 0.0), "standardize_mean": (1, math.nan)},
     "standardize_mean[1] is nan")],
    ids=["scale-zero", "scale-negative", "scale-inf", "mean-nan", "mean-nan-scale-zero"])
def test_score_manifest_bad_standardization_is_data_error(model_dir, tmp_path,
                                                          edits, key):
    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    for name, (i, value) in edits.items():
        manifest[name][i] = value
    (bad / "manifest.json").write_text(json.dumps(manifest))
    rc, err, caught = _quiet_main(["score", "--model-dir", str(bad), "--synth",
                                   "4,40,3.0", "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert f"data error: {bad / 'manifest.json'}: {key}, expected finite" in err
    assert not caught and "RuntimeWarning" not in err
    assert not (tmp_path / "scored").exists()


def test_score_nonfinite_member_weight_is_data_error(model_dir, tmp_path):
    from ssadvae import netblocks as nb

    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    member = bad / "member_00.bin"
    arrays = nb.read_arrays(member)
    arrays[2][1, 0] = math.nan
    nb.write_arrays(member, arrays)
    rc, err, caught = _quiet_main(["score", "--model-dir", str(bad), "--synth",
                                   "4,40,3.0", "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {member}: array 2 holds a non-finite value")
    assert not caught and "RuntimeWarning" not in err
    assert not (tmp_path / "scored").exists()


@pytest.mark.parametrize("seeds", [[0.5], ["a"], [True]])
def test_score_manifest_non_integer_seeds_is_data_error(model_dir, tmp_path, seeds):
    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["seeds"] = seeds
    (bad / "manifest.json").write_text(json.dumps(manifest))
    rc, err, _ = _quiet_main(["score", "--model-dir", str(bad), "--synth",
                              "4,40,3.0", "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {bad / 'manifest.json'}: member seeds "
                          "must be integers")
    assert not (tmp_path / "scored").exists()


def test_score_zero_samples_is_usage_error(model_dir, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("s_score = 0\n", encoding="utf-8")
    rc, err, _ = _quiet_main(["score", "--model-dir", str(model_dir), "--synth",
                              "4,40,3.0", "--config", str(cfg),
                              "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error: s_score must be >= 1")
    assert not (tmp_path / "scored").exists()


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


@pytest.mark.parametrize("key, edit", [
    ("spec", lambda old: dict(old, widths=[8])),
    ("spec", lambda old: dict(old, activation="tanh")),
    ("spec", lambda old: {k: v for k, v in old.items() if k != "leak"}),
    ("in_dim", lambda old: 0), ("in_dim", lambda old: str(old)),
    ("in_dim", lambda old: True), ("family", lambda old: "poisson")],
    ids=["spec-one-width", "spec-activation", "spec-no-leak", "in_dim-zero",
         "in_dim-text", "in_dim-bool", "family"])
def test_score_manifest_bad_architecture_is_data_error(model_dir, tmp_path, key, edit):
    # the manifest alone describes the member files, so it is the file named
    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest[key] = edit(manifest[key])
    (bad / "manifest.json").write_text(json.dumps(manifest))
    rc, err, caught = _quiet_main(["score", "--model-dir", str(bad), "--synth",
                                   "4,40,3.0", "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {bad / 'manifest.json'}: ")
    assert not caught and "Traceback" not in err
    assert not (tmp_path / "scored").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda arrays: [arrays[0][:-1], *arrays[1:]], "shape mismatch (3, 8) vs (4, 8)"),
    (lambda arrays: arrays[:-1], "expected 14 arrays, found 13")],
    ids=["shape", "count"])
def test_score_misshapen_member_file_is_data_error(model_dir, tmp_path, edit, message):
    from ssadvae import netblocks as nb

    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    member = bad / "member_00.bin"
    nb.write_arrays(member, edit(nb.read_arrays(member)))
    rc, err, _ = _quiet_main(["score", "--model-dir", str(bad), "--synth",
                              "4,40,3.0", "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {member}: {message}")
    assert not (tmp_path / "scored").exists()


def test_score_manifest_claiming_huge_widths_is_data_error(model_dir, tmp_path):
    # the member file is checked against the widths the manifest claims
    # before anything of that size is allocated
    bad = tmp_path / "model"
    shutil.copytree(model_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["spec"]["widths"] = [10 ** 15, 4, 2]
    (bad / "manifest.json").write_text(json.dumps(manifest))
    rc, err, _ = _quiet_main(["score", "--model-dir", str(bad), "--synth",
                              "4,40,3.0", "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {bad / 'member_00.bin'}: shape mismatch "
                          f"(4, 8) vs (4, {10 ** 15})")
    assert not (tmp_path / "scored").exists()


@pytest.mark.parametrize("command", ["train", "benchmark", "score"])
def test_repeated_seeds_are_a_usage_error(tmp_path, command):
    # two runs of one seed would report a spread of 0.0 over "2 seeds"
    out = tmp_path / "runs"
    model = ["--model-dir", str(tmp_path)] if command == "score" else []
    rc, err, _ = _quiet_main([command, "--synth", "4,200,3.0", *model,
                              "--config", write_fast_cfg(tmp_path),
                              "--seeds", "0,0", "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error: seeds must be distinct, got [0, 0]")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "score"])
def test_several_protocol_seeds_are_a_usage_error(model_dir, tmp_path, command):
    # train and score run one protocol seed; the others would be ignored
    out = tmp_path / "runs"
    model = ["--model-dir", str(model_dir)] if command == "score" else []
    rc, err, _ = _quiet_main([command, "--synth", "4,200,3.0", *model,
                              "--config", write_fast_cfg(tmp_path),
                              "--seeds", "0,1", *FAST_CFG, "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert err.startswith(f"error: seeds: {command} takes one protocol seed, "
                          "got [0, 1]; pass --seeds <s>")
    assert not out.exists()


def _damage_csv(text: str, case) -> str:
    if case[0] == "truncate":
        return text[:case[1] % (len(text) + 1)]
    lines = text.splitlines()
    row = 1 + case[1] % (len(lines) - 1)
    cells = lines[row].split(",")
    if case[0] == "comma":
        cells.insert(case[2] % (len(cells) + 1), "")
    else:
        cells[case[2] % len(cells)] = case[0]
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(["comma", "", "nan"]), st.integers(0, 99),
              st.integers(0, 99))))
@example(("truncate", 0))
@example(("nan", 0, 2))
def test_damaged_csv_scores_or_is_data_error(model_dir, case):
    rows = np.random.default_rng(6).standard_normal((6, 4)).tolist()
    text = "a,b,c,d,label\n" + "".join(
        ",".join(map(repr, row)) + f",{i % 2}\n" for i, row in enumerate(rows))
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "t.csv")
        with open(table, "w", encoding="utf-8") as fh:
            fh.write(_damage_csv(text, case))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["score", "--model-dir", str(model_dir), "--dataset",
                           table, "--out", os.path.join(tmp, "scored")])
        assert rc in (cli.EXIT_OK, cli.EXIT_DATA)
        if rc == cli.EXIT_DATA:
            assert err.getvalue().startswith(f"data error: {table}: ")


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


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--beta-kl", "nan"), ("--alpha", "inf"), ("--gamma-l", "nan"),
    ("--widths", "32,,8"), ("--seeds", "0,,1"), ("--seeds", "0..x")])
def test_malformed_value_is_usage_error_naming_the_key(tmp_path, capsys, flag, value):
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,60,3.0", "--config", write_fast_cfg(tmp_path),
                   "--epochs", "6", "--ensemble", "1", flag, value, "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{flag[2:].replace('-', '_')}: " in err and value in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, key, entry", [
    ('{"widths": [16.7, 8.2]}', "widths", "16.7"), ('{"seeds": [0.9]}', "seeds", "0.9"),
    ('{"widths": [true, 8]}', "widths", "True"), ('{"seeds": [0, ""]}', "seeds", "''")])
def test_json_list_entry_that_is_not_an_integer_names_the_key(tmp_path, text, key,
                                                              entry):
    p = tmp_path / "c.json"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(cli.UsageError,
                       match=f"^{key}: invalid value .*: entry {entry} is not an integer"):
        cli.load_config_file(str(p))


@pytest.mark.parametrize("text, problem", [
    ("[1, 2]", "expected a JSON object"), ('"x"', "expected a JSON object"),
    ('{"config": [1]}', "expected a JSON object"), ("{bad", "invalid JSON")])
def test_json_config_that_is_not_an_object_names_the_file(tmp_path, capsys, text,
                                                          problem):
    p = tmp_path / "c.json"
    p.write_text(text, encoding="utf-8")
    out = tmp_path / "runs"
    rc = cli.main(["train", "--synth", "4,60,3.0", "--config", str(p), "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{p}: {problem}" in err and "Traceback" not in err
    assert not out.exists()


def test_malformed_config_file_value_names_the_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("epochs = six\n", encoding="utf-8")
    with pytest.raises(cli.UsageError, match="epochs: invalid value 'six'"):
        cli.load_config_file(str(p))


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
    assert sorted(PINNED_DIGESTS) == sorted(
        f for f in os.listdir(cli._CONFIG_DIR) if f.endswith(".cfg"))
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


# keys whose value is free text: any string is well formed, and what it names
# (a CSV, a model directory, a label column or token) is checked when it is
# read, as a data error (exit 2)
FREE_TEXT_KEYS = {"dataset", "model_dir", "label_col", "positive_token"}

# a quick valid training, so a bad value that slipped through would show as
# exit 0; the key under test is left out of it
QUICK = {"synth": "4,60,3.0", "epochs": 2, "warmup_epochs": 1,
         "anneal_epochs": 1, "ensemble_size": 1, "widths": "4,2"}

# not finite, an empty list entry, not a number, a non-integer list entry:
# malformed for every key outside FREE_TEXT_KEYS
_NON_NUMBER = st.text(alphabet="abckqxz", min_size=1, max_size=8)
_NON_INTEGER = st.floats(-1e6, 1e6).filter(lambda v: v != int(v))
BAD_VALUES = st.one_of(
    st.tuples(st.just("cfg"), st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "1,,2", "2,"]), _NON_NUMBER,
        _NON_INTEGER.map(lambda v: f"1,{v!r}"))),
    st.tuples(st.just("json"), st.one_of(
        st.sampled_from([math.nan, math.inf, [1, ""], [1, 2.5], [True, 2]]),
        _NON_NUMBER, _NON_INTEGER.map(lambda v: [1, v]))))


def test_every_config_key_is_checked_or_free_text():
    assert FREE_TEXT_KEYS < set(cli._KEY_TYPES)
    assert all(cli._KEY_TYPES[k] is str for k in FREE_TEXT_KEYS)


@pytest.mark.parametrize("key", sorted(set(cli._KEY_TYPES) - FREE_TEXT_KEYS))
@settings(max_examples=10, deadline=None)
@given(case=BAD_VALUES)
@example(case=("cfg", "nan"))
@example(case=("cfg", "inf"))
@example(case=("cfg", "1,,2"))
@example(case=("cfg", "abc"))
@example(case=("json", [1, 2.5]))
def test_malformed_value_of_every_key_is_a_usage_error(key, case):
    carrier, value = case
    settings_ = {**{k: v for k, v in QUICK.items() if k != key}, key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c." + carrier)
        with open(path, "w", encoding="utf-8") as fh:
            if carrier == "json":
                json.dump(settings_, fh)
            else:
                fh.writelines(f"{k} = {v}\n" for k, v in settings_.items())
        out = os.path.join(tmp, "runs")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(["train", "--config", path, "--out", out])
        assert rc == cli.EXIT_USAGE, (key, value)
        assert key in err.getvalue() and "Traceback" not in err.getvalue()
        assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# flags and paths that cannot be used

def test_flag_text_is_converted_like_a_config_value(tmp_path):
    args = cli.build_parser().parse_args(
        ["train", "--synth", "4,60,3.0", "--epochs", " 7", "--lr", "2e-3",
         "--ensemble", "2", "--gamma-l", "0.05", "--method", "mml"])
    cfg = cli.effective_config(args)
    assert cfg["epochs"] == 7 and isinstance(cfg["epochs"], int)
    assert cfg["ensemble_size"] == 2 and isinstance(cfg["ensemble_size"], int)
    assert cfg["lr"] == 0.002 and cfg["gamma_l"] == 0.05
    assert isinstance(cfg["gamma_l"], float) and cfg["method"] == "mml"


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "x", "epochs: invalid value 'x'"),
    ("--epochs", "3.5", "epochs: invalid value '3.5'"),
    ("--ensemble", "two", "ensemble_size: invalid value 'two'"),
    ("--method", "nope", "method: expected one of vae, mml, dp, hybrid, got 'nope'")])
def test_bad_flag_value_is_a_usage_error_naming_the_key(tmp_path, flag, value,
                                                        message):
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main(["train", "--synth", "4,60,3.0", flag, value,
                              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "benchmark", "score"])
def test_out_under_a_regular_file_is_a_data_error(model_dir, tmp_path, command):
    # train and score fail after their work, benchmark before it
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    extra = ["--model-dir", str(model_dir)] if command == "score" else []
    rc, err, _ = _quiet_main([command, "--synth", "4,200,3.0", "--gamma-l", "0.05",
                              *extra, "--config", write_fast_cfg(tmp_path),
                              *fast_args(out=blocker / "x")])
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error: ") and str(blocker / "x") in err
    assert "Traceback" not in err


def test_directory_as_config_is_a_usage_error(tmp_path):
    rc, err, _ = _quiet_main(["train", "--synth", "4,60,3.0", "--config",
                              str(tmp_path), "--out", str(tmp_path / "runs")])
    assert rc == cli.EXIT_USAGE
    assert err.startswith(f"error: config file {str(tmp_path)!r} cannot be read")
    assert not (tmp_path / "runs").exists()


def test_directory_as_dataset_is_a_data_error(tmp_path):
    rc, err, _ = _quiet_main(["train", "--dataset", str(tmp_path),
                              *fast_args(out=tmp_path / "runs")])
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error: ") and str(tmp_path) in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("name", ["c.cfg", "c.json"])
def test_non_utf8_config_is_a_usage_error_naming_it(tmp_path, name):
    p = tmp_path / name
    p.write_bytes(b"epochs = 6\nmethod = \xff\xfe\n")
    rc, err, _ = _quiet_main(["train", "--synth", "4,60,3.0", "--config", str(p),
                              "--out", str(tmp_path / "runs")])
    assert rc == cli.EXIT_USAGE
    assert err.startswith(f"error: config file {str(p)!r} cannot be read: "
                          "'utf-8' codec can't decode byte 0xff in position 20")


def test_non_utf8_csv_is_a_data_error_naming_it(model_dir, tmp_path):
    table = tmp_path / "t.csv"
    table.write_bytes(b"a,b,c,d,label\n1,2,3,4,0\n1,2,\xff\xfe,4,1\n")
    rc, err, _ = _quiet_main(["score", "--model-dir", str(model_dir), "--dataset",
                              str(table), "--out", str(tmp_path / "scored")])
    assert rc == cli.EXIT_DATA
    assert err == (f"data error: {table}: line 3, byte 28: not UTF-8 "
                   "(invalid start byte)\n")
    assert not (tmp_path / "scored").exists()


def test_train_writes_its_histories_before_its_manifest(tmp_path, monkeypatch):
    from ssadvae import models as md
    from ssadvae import trainer as tr

    def full_disk(self, path):
        raise OSError(28, "No space left on device", path)

    saved = []
    monkeypatch.setattr(tr.TrainHistory, "save_csv", full_disk)
    monkeypatch.setattr(md, "save_ensemble", lambda *args, **kw: saved.append(args))
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main(["train", "--synth", "4,200,3.0", "--gamma-l", "0.05",
                              "--config", write_fast_cfg(tmp_path),
                              "--epochs", "6", "--ensemble", "2", *FAST_CFG,
                              "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error: [Errno 28] No space left on device: ")
    # the run directory is built whole beside its place, so none is left
    assert saved == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "benchmark", "score"])
@pytest.mark.parametrize("flags, message", [
    (["--lr", "-1"], "lr must be > 0, got -1.0"),
    (["--epochs", "0"], "warmup_epochs must be < epochs"),
    (["--widths", "4"], "widths: need at least one hidden layer"),
    (["--method", "dp", "--alpha", "0"], "alpha: method 'dp' requires a nonzero")])
def test_every_command_rejects_what_training_rejects(model_dir, tmp_path, command,
                                                     flags, message):
    # score never trains, but a value train refuses must not reach its digest
    out = tmp_path / "runs"
    extra = ["--model-dir", str(model_dir)] if command == "score" else []
    rc, err, _ = _quiet_main([command, "--synth", "4,200,3.0", *extra, *flags,
                              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_a_run_of_no_epochs_is_a_usage_error(tmp_path, command):
    # it used to write untrained members whose histories held only a header
    cfg = tmp_path / "z.cfg"
    cfg.write_text("epochs = 0\nwarmup_epochs = -1\nanneal_epochs = 0\n",
                   encoding="utf-8")
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main([command, "--synth", "4,200,3.0", "--config", str(cfg),
                              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert err == "error: epochs must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("widths, message", [
    ("4", "widths: need at least one hidden layer plus the latent width, got (4,)"),
    ("0", "widths: need at least one hidden layer plus the latent width, got (0,)"),
    ("4,0", "widths: all widths must be >= 1, got (4, 0)")])
def test_bad_widths_name_their_key(tmp_path, widths, message):
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main(["train", "--synth", "4,200,3.0", "--widths", widths,
                              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0,18446744073709551616", "-1,18446744073709551615"])
def test_seeds_equal_modulo_2_64_are_a_usage_error(tmp_path, seeds):
    # Philox keys a seed modulo 2**64: two such seeds would draw one stream
    out = tmp_path / "runs"
    rc, err, _ = _quiet_main(["benchmark", "--synth", "4,200,0.7", f"--seeds={seeds}",
                              "--config", write_fast_cfg(tmp_path), *FAST_CFG,
                              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    first, second = seeds.split(",")
    assert err.startswith(f"error: seeds {first} and {second} are equal modulo 2**64")
    assert not out.exists()


def test_failed_train_rewrite_keeps_the_earlier_files(tmp_path, monkeypatch):
    # a rerun of one train digest that dies partway through its histories,
    # or through its manifest, leaves the earlier run as it was, and it loads
    import hashlib

    from ssadvae import models as md
    from ssadvae import trainer as tr

    argv = ["train", "--synth", "4,200,3.0", "--gamma-l", "0.05",
            "--config", write_fast_cfg(tmp_path), *fast_args(out=tmp_path / "runs")]
    assert _quiet_main(argv)[0] == cli.EXIT_OK
    (run_dir,) = (tmp_path / "runs").iterdir()
    files = sorted(run_dir.iterdir())
    assert [f.name for f in files] == ["history_seed0.csv", "history_seed0.json",
                                       "manifest.json", "member_00.bin"]

    def sha256s():
        return [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]

    before = sha256s()

    def full_disk(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,")
        raise OSError(28, "No space left on device", path)

    def cut_short_dump(payload, fh, **kwargs):
        fh.write(json.dumps(payload, **kwargs)[:20])
        raise OSError(28, "No space left on device")

    for owner, name, cut_short in ((tr.TrainHistory, "save_csv", full_disk),
                                   (cli.json, "dump", cut_short_dump)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, cut_short)
            rc, err, _ = _quiet_main(argv)
        assert rc == cli.EXIT_DATA
        assert err.startswith("data error: [Errno 28] No space left on device")
        assert list((tmp_path / "runs").iterdir()) == [run_dir]
        assert sha256s() == before
        md.load_ensemble(run_dir)


def test_failed_score_rewrite_keeps_the_earlier_files(model_dir, tmp_path,
                                                      monkeypatch):
    # a rerun of one score digest that dies partway through its CSV, or
    # through its manifest, leaves the earlier CSV and manifest as they were
    import hashlib

    argv = ["score", "--model-dir", str(model_dir), "--synth", "4,40,3.0",
            "--out", str(tmp_path / "scored")]
    assert cli.main(argv) == cli.EXIT_OK
    (run_dir,) = (tmp_path / "scored").iterdir()
    files = sorted(run_dir.iterdir())
    assert [f.name for f in files] == ["manifest.json",
                                       f"scores_{run_dir.name[6:]}.csv"]

    def sha256s():
        return [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]

    before = sha256s()
    csv_writer = cli.dk.csv.writer

    class CutShortWriter:
        def __init__(self, fh):
            self._writer, self._rows = csv_writer(fh), 0

        def writerow(self, row):
            self._rows += 1
            if self._rows == 10:
                raise OSError(28, "No space left on device")
            self._writer.writerow(row)

    def cut_short_dump(payload, fh, **kwargs):
        fh.write(json.dumps(payload, **kwargs)[:20])
        raise OSError(28, "No space left on device")

    for owner, name, cut_short in ((cli.dk.csv, "writer", CutShortWriter),
                                   (cli.json, "dump", cut_short_dump)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, cut_short)
            rc, err, _ = _quiet_main(argv)
        assert rc == cli.EXIT_DATA
        assert err == "data error: [Errno 28] No space left on device\n"
        assert sha256s() == before


def test_score_run_directory_appears_whole_or_not_at_all(model_dir, tmp_path,
                                                         monkeypatch):
    # a first run whose manifest writer raises leaves no score directory,
    # so none holds a CSV without a manifest; a rerun replaces the old
    # directory as a whole, with the same bytes
    out = tmp_path / "scored"
    argv = ["score", "--model-dir", str(model_dir), "--synth", "4,40,3.0",
            "--out", str(out)]

    def failing_manifest(*args):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_manifest", failing_manifest)
        rc, err, _ = _quiet_main(argv)
    assert rc == cli.EXIT_DATA
    assert err == "data error: [Errno 28] No space left on device\n"
    assert list(out.iterdir()) == []
    assert cli.main(argv) == cli.EXIT_OK
    (run_dir,) = out.iterdir()
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert sorted(first) == ["manifest.json", f"scores_{run_dir.name[6:]}.csv"]
    (run_dir / "stray.txt").write_text("left by hand\n")
    assert cli.main(argv) == cli.EXIT_OK
    assert list(out.iterdir()) == [run_dir]
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first


def test_failed_json_write_keeps_the_earlier_file_and_no_temporary(tmp_path):
    import hashlib

    path = tmp_path / "report.json"
    cli._write_json(str(path), {"auroc": 0.9})
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    # json.dump has written "auroc" when it reaches the value it cannot write
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(str(path), {"auroc": 0.5, "b": object()})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_forked_training_aborts_as_the_in_process_one(tmp_path, monkeypatch, command):
    # K=5 on two groups of members (0-2 here, 3-4 in a forked process)
    # against K=5 in this process: the same exit code and the same stderr
    from ssadvae import fanout as fo

    results, forked = [], []
    fork = fo._fork
    monkeypatch.setattr(fo, "_fork",
                        lambda fn, job: forked.append(job) or fork(fn, job))
    for cpus in (1, 2):
        monkeypatch.setattr(fo, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"runs{cpus}"
        results.append(_quiet_main([
            command, "--synth", "4,200,3.0", "--method", "dp",
            "--config", write_fast_cfg(tmp_path), "--lr", "1e300",
            *FAST[:2], "--ensemble", "5", "--seeds", "0", *FAST_CFG,
            "--out", str(out)])[:2])
    assert forked == [[3, 4]]
    assert results[0] == results[1]
    assert results[0][0] == cli.EXIT_NUMERIC
    assert results[0][1].startswith("numerical abort: non-finite normal-term "
                                    "loss at member seed 0, epoch 1, batch 0")


def test_forked_benchmark_writes_the_in_process_bytes(tmp_path, monkeypatch):
    # --save-scores, K=5 over two seeds: with two usable CPUs each seed's
    # training and scoring fork their last two members, and every file has
    # the bytes of the run that forks nothing
    import hashlib

    from ssadvae import fanout as fo

    forked, fork = [], fo._fork
    monkeypatch.setattr(fo, "_fork",
                        lambda fn, group: forked.append(group) or fork(fn, group))
    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(fo, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"runs{cpus}"
        assert cli.main([
            "benchmark", "--synth", "4,200,3.0", "--method", "mml",
            "--gamma-l", "0.05", "--config", write_fast_cfg(tmp_path),
            "--epochs", "6", "--ensemble", "5", "--seeds", "0,1",
            "--save-scores", *FAST_CFG, "--out", str(out)]) == cli.EXIT_OK
        (run_dir,) = out.iterdir()
        files.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in run_dir.iterdir()})
    # training forks member seeds, scoring member indices
    assert forked == [[3, 4], [1], [2], [3], [4], [4, 5], [1], [2], [3], [4]]
    assert len(files[0]) == 4 and files[0] == files[1]


def test_benchmark_directory_holds_only_what_its_run_completed(tmp_path,
                                                               monkeypatch):
    # the second seed's score CSV cannot be written: FAILED.json lists seed
    # 0 alone. While seeds train there is no benchmark_<digest>, so a killed
    # run leaves none, and a rerun replaces the failed directory as a whole
    from ssadvae import datakit as dk
    from ssadvae import trainer as tr

    out = tmp_path / "runs"
    argv = ["benchmark", "--synth", "4,200,3.0", "--method", "vae",
            "--gamma-l", "0", "--config", write_fast_cfg(tmp_path),
            "--epochs", "6", "--ensemble", "1", "--seeds", "0,1",
            "--save-scores", *FAST_CFG, "--out", str(out)]
    write, written = dk.EvalReport.write_scores_csv, []

    def second_fails(report, path):
        if written:
            raise OSError(28, "No space left on device")
        written.append(path)
        write(report, path)

    with monkeypatch.context() as patch:
        patch.setattr(dk.EvalReport, "write_scores_csv", second_fails)
        rc, err, _ = _quiet_main(argv)
    assert rc == cli.EXIT_DATA
    assert err == "data error: [Errno 28] No space left on device\n"
    (run_dir,) = out.iterdir()
    digest = run_dir.name[len("benchmark_"):]
    failed = json.loads((run_dir / "FAILED.json").read_text())
    assert [r["seed"] for r in failed["completed_seeds"]] == [0]
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "FAILED.json", f"scores_{digest}_seed0.csv"]

    seen, train = [], tr.train
    monkeypatch.setattr(tr, "train", lambda *a: seen.append(
        sorted(p.name for p in out.iterdir())) or train(*a))
    assert cli.main(argv) == cli.EXIT_OK
    tmp = f"{run_dir.name}.{os.getpid()}.tmp"
    assert seen == [[run_dir.name, tmp]] * 2
    assert list(out.iterdir()) == [run_dir]
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "manifest.json", f"report_{digest}.json", f"scores_{digest}_seed0.csv",
        f"scores_{digest}_seed1.csv"]
