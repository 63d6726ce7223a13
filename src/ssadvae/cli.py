"""Command-line front end: train, score, and benchmark over seeds.

Every run writes a manifest capturing the full effective configuration; the
run directory name carries a content digest of that configuration so two
different setups never silently overwrite each other, and re-running from a
manifest reproduces the report files byte-for-byte.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import sys
from dataclasses import fields as dc_fields
from typing import Optional

import numpy as np

from . import datakit as dk
from . import models as md
from . import netblocks as nb
from . import trainer as tr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUT_ROOT_ENV = "SSADVAE_OUT_ROOT"

_CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")

_TRAIN_DEFAULTS = {f.name: f.default for f in dc_fields(tr.TrainConfig)
                   if f.name != "master_seed"}

_DEFAULTS = {
    "label_col": "label", "positive_token": "1", "method": "dp",
    "gamma_l": 0.01, "gamma_p": 0.0, "seeds": [0], "train_fraction": 0.6,
    "save_scores": False, "s_score": 64,
}

# every accepted config key and the type of its default; the keys without
# a default take strings
_KEY_TYPES = {"dataset": str, "synth": str, "model_dir": str,
              **{k: type(v) for k, v in {**_TRAIN_DEFAULTS, **_DEFAULTS}.items()}}
_PATH_KEYS = ("dataset", "model_dir")


class UsageError(ValueError):
    """Bad flags, config keys, or flag combinations."""


def _coerce(key: str, value):
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise UsageError(f"unknown config key {key!r}")
    if isinstance(value, str):
        value = value.strip()
    if kind is bool:
        if isinstance(value, bool):
            return value
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no"):
            return False
        raise UsageError(f"{key}: expected a boolean, got {value!r}")
    if key in _PATH_KEYS and value:
        # one spelling per path, so `d`, `./d` and `d/` share a digest
        return os.path.normpath(str(value))
    if kind is str:
        return str(value)
    if kind in (list, tuple):  # comma-separated ints
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, list):
            raise UsageError(f"{key}: invalid value {value!r}")
        return [_number(key, int, item, value) for item in items]
    return _number(key, kind, value, value)


def _number(key: str, kind: type, item, value):
    """``item``, ``value`` itself or one of its list entries, as an int or a
    finite float; a bool, a float where an int is due, or text that does
    not parse is a UsageError naming the key and ``value``."""
    accepted = (str, int) if kind is int else (str, int, float)
    try:
        if isinstance(item, bool) or not isinstance(item, accepted):
            raise ValueError
        out = kind(item)
    except (ValueError, OverflowError):
        entry = "" if item is value else f": entry {item!r} is not an integer"
        raise UsageError(f"{key}: invalid value {value!r}{entry}") from None
    if not math.isfinite(out):
        raise UsageError(f"{key}: expected a finite number, got {value!r}")
    return out


def load_config_file(path: str) -> dict:
    """Key=value text or a manifest/config JSON; bare names resolve against
    the bundled per-dataset configs."""
    if not os.path.exists(path):
        bundled = os.path.join(_CONFIG_DIR, path if path.endswith(".cfg")
                               else path + ".cfg")
        if os.path.exists(bundled):
            path = bundled
        else:
            raise UsageError(f"config file {path!r} not found")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path!r} cannot be read: {exc}") from None
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from None
        # accept a full run manifest too
        raw = data.get("config", data) if isinstance(data, dict) else data
        if not isinstance(raw, dict):
            raise UsageError(f"{path}: expected a JSON object of config keys")
        return {k: _coerce(k, v) for k, v in raw.items() if k in _KEY_TYPES}
    out = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _coerce(key, value)
    return out


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--dataset", help="CSV file with numeric features and a label column")
    p.add_argument("--label-col",
                   help="label column name, or an integer index (default: label)")
    p.add_argument("--positive-token",
                   help="label value marking anomalies (default: 1)")
    p.add_argument("--synth", metavar="D,N,SHIFT[,N_ANOM]",
                   help="synthetic data instead of a CSV, e.g. 8,2000,3.0")
    p.add_argument("--method", help=f"one of {', '.join(md.METHODS)}")
    p.add_argument("--gamma-l", help="labeled-anomaly ratio (default 0.01)")
    p.add_argument("--gamma-p", help="pollution ratio of the unlabeled pool (default 0)")
    p.add_argument("--seeds", help="comma-separated protocol seeds (default: 0)")
    p.add_argument("--epochs")
    p.add_argument("--ensemble", dest="ensemble_size")
    p.add_argument("--alpha")
    p.add_argument("--beta-kl")
    p.add_argument("--beta-cubo")
    p.add_argument("--gamma")
    p.add_argument("--lr")
    p.add_argument("--widths", help="MLP widths, e.g. 32,16,8")
    p.add_argument("--out", help=f"output root (default: ${OUT_ROOT_ENV} or ./runs)")
    p.add_argument("--config", help="config file, bundled config name, or a run manifest.json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssadvae",
                     description="Semi-supervised anomaly detection with VAE ensembles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("train", "train one ensemble and save it"),
                       ("benchmark", "full protocol over seeds with AUROC report"),
                       ("score", "score a dataset with a saved ensemble")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name == "score":
            p.add_argument("--model-dir", required=True,
                           help="directory written by 'ssadvae train'")
        if name == "benchmark":
            p.add_argument("--save-scores", action="store_true", default=None,
                           help="also write per-seed score CSVs")
    return parser


def effective_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(_DEFAULTS)
    cfg.update(_TRAIN_DEFAULTS, widths=list(_TRAIN_DEFAULTS["widths"]))
    if args.config:
        cfg.update(load_config_file(args.config))
    for key, value in vars(args).items():  # a flag left unset is None
        if key in _KEY_TYPES and value is not None:
            cfg[key] = _coerce(key, value)
    if not cfg.get("dataset") and not cfg.get("synth"):
        raise UsageError("either --dataset or --synth is required")
    if cfg.get("dataset") and cfg.get("synth"):
        raise UsageError("--dataset and --synth are mutually exclusive")
    if not cfg["seeds"]:
        raise UsageError("at least one seed is required")
    if len(set(cfg["seeds"])) != len(cfg["seeds"]):
        raise UsageError(f"seeds must be distinct, got {cfg['seeds']}")
    keyed = {}
    for seed in cfg["seeds"]:
        other = keyed.setdefault(seed % nb.SEED_MODULUS, seed)
        if other != seed:
            raise UsageError(f"seeds {other} and {seed} are equal modulo 2**64, "
                             "so they would draw the same random numbers")
    if cfg["s_score"] < 1:
        raise UsageError(f"s_score must be >= 1, got {cfg['s_score']!r}")
    return cfg


def config_digest(cfg: dict) -> str:
    payload = {k: v for k, v in cfg.items() if k not in ("out", "save_scores")}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _out_root(args) -> str:
    return args.out or os.environ.get(OUT_ROOT_ENV) or "runs"


def train_config_from(cfg: dict, master_seed: int) -> tr.TrainConfig:
    """The training config of one protocol seed; a value that training
    would reject, the method's alpha and gamma rules included, is a
    ValueError naming the key."""
    md.check_method(cfg["method"], cfg["alpha"], cfg["gamma"])
    kw = {k: cfg[k] for k in _TRAIN_DEFAULTS if k in cfg}
    return tr.TrainConfig(master_seed=master_seed, **kw)


# ---------------------------------------------------------------------------
# dataset plumbing

def parse_synth(text: str) -> tuple:
    """(D, N, SHIFT, N_ANOM) from ``D,N,SHIFT[,N_ANOM]``: the counts are
    integers >= 1, SHIFT is a finite number, and N_ANOM defaults to
    max(1, N // 4)."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) not in (3, 4):
        raise UsageError(f"--synth expects D,N,SHIFT[,N_ANOM], got {text!r}")
    values = []
    for name, part in zip(("D", "N", "SHIFT", "N_ANOM"), parts):
        kind, want = ((float, "a finite number") if name == "SHIFT"
                      else (int, "an integer >= 1"))
        try:
            value = kind(part)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (kind is float or value >= 1)):
            raise UsageError(f"--synth {name} must be {want}, got {part!r}")
        values.append(value)
    if len(values) == 3:
        values.append(max(1, values[1] // 4))
    return tuple(values)


def load_base_dataset(cfg: dict, seed: int) -> dk.SsadDataset:
    if cfg.get("synth"):
        d, n, shift, n_anom = parse_synth(cfg["synth"])
        return dk.synth_gaussian_ad(d, n, n_anom, shift, seed=seed)
    label_col = cfg["label_col"]
    if isinstance(label_col, str) and label_col.lstrip("-").isdigit():
        label_col = int(label_col)
    return dk.load_csv(cfg["dataset"], label_col, cfg["positive_token"])


def prepare_seed(cfg: dict, seed: int, base: Optional[dk.SsadDataset] = None):
    """split -> standardize -> subsample [-> pollute] for one protocol seed.
    ``base`` is a table already loaded from ``--dataset``, which every seed
    shares; a ``--synth`` table is drawn per seed."""
    if base is None:
        base = load_base_dataset(cfg, seed)
    train, test = dk.split_stratified(base, cfg["train_fraction"], seed=seed)
    train, test, stats = dk.standardize(train, test)
    train = dk.subsample_labeled_outliers(train, cfg["gamma_l"], seed=seed)
    if cfg["gamma_p"] > 0:
        train = dk.pollute(train, cfg["gamma_p"], seed=seed)
    return train, test, stats


def _write_json(path, payload) -> None:
    with dk.atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(run_dir, command, cfg, digest) -> None:
    _write_json(os.path.join(run_dir, "manifest.json"),
                {"command": command, "digest": digest, "config": cfg})


# ---------------------------------------------------------------------------
# commands

def run_train(args) -> int:
    cfg = effective_config(args)
    digest = config_digest(cfg)
    seed = cfg["seeds"][0]
    train, test, stats = prepare_seed(cfg, seed)  # fails before any output
    config = train_config_from(cfg, master_seed=seed)

    model, hists = tr.train(config, train, cfg["method"])
    # the run directory is made after training, so a failed training leaves
    # none; the histories go in before save_ensemble, whose manifest (also
    # the run manifest) goes in last, so a write cut short loads as nothing
    run_dir = os.path.join(_out_root(args), f"train_{digest}")
    os.makedirs(run_dir, exist_ok=True)
    # on a rerun of this digest the old manifest goes before any history
    # changes, so a write that fails leaves nothing that loads
    manifest = os.path.join(run_dir, "manifest.json")
    if os.path.exists(manifest):
        os.remove(manifest)
    for h in hists:
        h.save_csv(os.path.join(run_dir, f"history_seed{h.seed}.csv"))
        h.save_json(os.path.join(run_dir, f"history_seed{h.seed}.json"))
    md.save_ensemble(run_dir, model, extra={
        "command": "train", "digest": digest, "config": cfg,
        "epochs": config.epochs,
        "standardize_mean": stats.mean.tolist(),
        "standardize_scale": stats.scale.tolist(),
    })
    print(run_dir)
    return EXIT_OK


def _manifest_standardization(model_dir, manifest: dict,
                              in_dim: int) -> dk.StandardizeStats:
    """The StandardizeStats of a train run; a missing key, a vector whose
    length is not in_dim, a non-finite entry or a scale entry that is not
    > 0 is a DataError naming the manifest and the key."""
    path = os.path.join(model_dir, "manifest.json")
    try:
        mean = np.asarray(manifest["standardize_mean"], dtype=np.float64)
        scale = np.asarray(manifest["standardize_scale"], dtype=np.float64)
    except KeyError as exc:
        raise dk.DataError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise dk.DataError(f"{path}: {exc}") from None
    for key, vec, ok, want in (
            ("standardize_mean", mean, np.isfinite(mean), "finite"),
            ("standardize_scale", scale, np.isfinite(scale) & (scale > 0),
             "finite and > 0")):
        if vec.shape != (in_dim,):
            raise dk.DataError(f"{path}: {key} has shape {vec.shape}, "
                               f"expected ({in_dim},) for in_dim {in_dim}")
        if not ok.all():
            j = int(np.flatnonzero(~ok)[0])
            raise dk.DataError(f"{path}: {key}[{j}] is {float(vec[j])!r}, "
                               f"expected {want}")
    return dk.StandardizeStats(mean=mean, scale=scale)


def run_score(args) -> int:
    cfg = effective_config(args)
    digest = config_digest(cfg)
    train_config_from(cfg, cfg["seeds"][0])  # what train rejects, score does too
    model, manifest = md.load_ensemble(args.model_dir)
    in_dim = model.encoder.in_dim
    stats = _manifest_standardization(args.model_dir, manifest, in_dim)
    base = load_base_dataset(cfg, cfg["seeds"][0])
    if base.dim != in_dim:
        source = f"--synth {cfg['synth']}" if cfg.get("synth") else cfg["dataset"]
        raise dk.DataError(
            f"{source} has {base.dim} features, but "
            f"{os.path.join(args.model_dir, 'manifest.json')} has in_dim {in_dim}")
    features = stats.apply(base.features)
    scores = md.ensemble_score(model, features, n_samples=cfg["s_score"])

    run_dir = os.path.join(_out_root(args), f"score_{digest}")
    with dk.atomic_dir(run_dir) as tmp:
        dk.EvalReport(scores, base.labels).write_scores_csv(
            os.path.join(tmp, f"scores_{digest}.csv"))
        _write_manifest(tmp, "score", cfg, digest)
    print(run_dir)
    return EXIT_OK


def run_benchmark(args) -> int:
    cfg = effective_config(args)
    digest = config_digest(cfg)
    run_dir = os.path.join(_out_root(args), f"benchmark_{digest}")
    seeds = cfg["seeds"]
    # a CSV shared by several seeds is parsed once; the first seed is
    # prepared and the training config built before any output exists, so
    # bad inputs leave no run directory
    base = (load_base_dataset(cfg, seeds[0])
            if len(seeds) > 1 and not cfg.get("synth") else None)
    prepared = prepare_seed(cfg, seeds[0], base)
    train_config_from(cfg, master_seed=seeds[0])
    os.makedirs(run_dir, exist_ok=True)

    per_seed = []
    try:
        for seed in seeds:
            train, test, _ = prepared or prepare_seed(cfg, seed, base)
            prepared = None
            config = train_config_from(cfg, master_seed=seed)
            model, _ = tr.train(config, train, cfg["method"])
            scores = md.ensemble_score(model, test.features,
                                       n_samples=cfg["s_score"])
            auc = dk.auroc(scores, test.labels)
            per_seed.append({"seed": seed, "auroc": auc})
            if cfg.get("save_scores"):
                dk.EvalReport(scores, test.labels).write_scores_csv(
                    os.path.join(run_dir, f"scores_{digest}_seed{seed}.csv"))
    except Exception as exc:
        _write_json(os.path.join(run_dir, "FAILED.json"),
                    {"error": str(exc), "completed_seeds": per_seed})
        raise

    aurocs = np.array([r["auroc"] for r in per_seed])
    report = {
        "command": "benchmark",
        "digest": digest,
        "method": cfg["method"],
        "gamma_l": cfg["gamma_l"],
        "gamma_p": cfg["gamma_p"],
        "n_seeds": len(per_seed),
        "single_seed": len(per_seed) == 1,
        "auroc_mean": float(aurocs.mean()),
        "auroc_stdev": float(aurocs.std(ddof=1)) if len(per_seed) > 1 else 0.0,
        "per_seed": per_seed,
        "config": cfg,
    }
    _write_json(os.path.join(run_dir, f"report_{digest}.json"), report)
    _write_manifest(run_dir, "benchmark", cfg, digest)
    print(f"{run_dir} auroc {report['auroc_mean']:.4f} "
          f"+/- {report['auroc_stdev']:.4f} over {len(per_seed)} seed(s)")
    return EXIT_OK


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let glibc reuse the blocks numpy frees instead of returning them.

    A training step frees and re-allocates the same arrays, some above
    glibc's default 128 KiB mmap and trim thresholds, which glibc raises
    only after it frees one large block. Until then each step unmaps or
    trims the heap and faults the pages back in: 0.6-0.9 s of system time
    over one 150-epoch K=5 training of the criterion-5 shape. The values
    are the ones glibc's own raising rule stops at on 64-bit. Elsewhere
    than glibc this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return run_train(args)
        if args.command == "benchmark":
            return run_benchmark(args)
        return run_score(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (dk.DataError, OSError) as exc:  # an OSError names its path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except tr.NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
