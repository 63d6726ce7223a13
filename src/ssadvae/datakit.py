"""Dataset ingestion, the benchmark protocol (stratified splits,
standardization, labeled-outlier subsampling, pollution), synthetic data,
and rank-based AUROC.

Row roles track exactly where each sample ends up: the trainer's "normal"
stream is train-normal plus train-pollution rows (pollution rows carry the
anomaly label but are presented as unlabeled normals), the labeled-outlier
pool is its own role, and anomalies not drawn into either stay in the
dataset with a dropped role so row accounting is exact.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .netblocks import philox_rng

LABEL_NORMAL = 0
LABEL_ANOMALY = 1

ROLE_UNSPLIT = 0
ROLE_TRAIN_NORMAL = 1
ROLE_TRAIN_OUTLIER = 2
ROLE_TRAIN_POLLUTION = 3
ROLE_TEST = 4
ROLE_DROPPED = 5

ROLE_NAMES = {
    ROLE_UNSPLIT: "unsplit",
    ROLE_TRAIN_NORMAL: "train-normal",
    ROLE_TRAIN_OUTLIER: "train-labeled-outlier",
    ROLE_TRAIN_POLLUTION: "train-pollution",
    ROLE_TEST: "test",
    ROLE_DROPPED: "dropped",
}

# Philox streams for protocol randomness (netblocks owns 0-5)
STREAM_SPLIT = 10
STREAM_SUBSAMPLE = 11
STREAM_POLLUTE = 12
STREAM_SYNTH = 13


class DataError(ValueError):
    """Malformed input data (missing columns, non-numeric cells, ...)."""


@dataclass
class SsadDataset:
    features: np.ndarray
    labels: np.ndarray
    roles: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        self.roles = np.asarray(self.roles, dtype=np.int8)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.roles.shape != (n,):
            raise DataError("features, labels and roles must agree on row count")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def normal_stream(self) -> np.ndarray:
        """Rows the trainer treats as unlabeled normals (includes pollution)."""
        mask = (self.roles == ROLE_TRAIN_NORMAL) | (self.roles == ROLE_TRAIN_POLLUTION)
        return self.features[mask]

    def labeled_outliers(self) -> np.ndarray:
        return self.features[self.roles == ROLE_TRAIN_OUTLIER]

    def role_counts(self) -> dict:
        return {name: int((self.roles == role).sum())
                for role, name in ROLE_NAMES.items()
                if (self.roles == role).any()}


# ---------------------------------------------------------------------------
# ingestion

def _parse_rows(rows, label_idx, positive_token, start_line):
    feats, labels = [], []
    token = str(positive_token).strip()
    for offset, row in enumerate(rows):
        line = start_line + offset
        if len(row) <= label_idx:
            raise DataError(f"row {line}: expected label in column {label_idx}, "
                            f"found only {len(row)} columns")
        vals = []
        for col, cell in enumerate(row):
            if col == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"row {line}, column {col}: non-numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise DataError(f"row {line}, column {col}: non-finite cell {cell!r}")
            vals.append(value)
        feats.append(vals)
        labels.append(LABEL_ANOMALY if row[label_idx].strip() == token
                      else LABEL_NORMAL)
    return feats, labels


def load_csv(path, label_column: Union[str, int] = "label",
             positive_token="1") -> SsadDataset:
    """Load a comma-delimited UTF-8 table with numeric features and one label
    column; rows whose label equals ``positive_token`` become anomalies.

    ``label_column`` is a header name or a column index; a negative index
    counts from the last column, and one out of range is a DataError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"{path}: empty file")

    header: Optional[list] = None
    if isinstance(label_column, str):
        if label_column not in rows[0]:
            raise DataError(f"{path}: label column {label_column!r} not found "
                            f"in header {rows[0]!r}")
        header = rows[0]
        label_idx = header.index(label_column)
        body, start = rows[1:], 2
    else:
        label_idx = int(label_column)
        if not -len(rows[0]) <= label_idx < len(rows[0]):
            raise DataError(f"{path}: label column index {label_idx} out of "
                            f"range for {len(rows[0])} columns")
        label_idx %= len(rows[0])  # -1 is the last column
        # optional header: first row counts as data only if fully numeric
        def _is_data(row):
            for col, cell in enumerate(row):
                if col == label_idx:
                    continue
                try:
                    float(cell)
                except ValueError:
                    return False
            return True
        if _is_data(rows[0]):
            body, start = rows, 1
        else:
            header, body, start = rows[0], rows[1:], 2
    if not body:
        raise DataError(f"{path}: no data rows")

    ncols = len(body[0])
    for i, row in enumerate(body):
        if len(row) != ncols:
            raise DataError(f"row {start + i}: has {len(row)} columns, expected {ncols}")
    feats, labels = _parse_rows(body, label_idx, positive_token, start)
    n = len(feats)
    return SsadDataset(
        features=np.array(feats), labels=np.array(labels),
        roles=np.full(n, ROLE_UNSPLIT),
        provenance={"source": str(path), "label_column": label_column,
                    "positive_token": str(positive_token)})


def synth_gaussian_ad(d: int, n_normal: int, n_anomaly: int, shift: float,
                      seed: int = 0) -> SsadDataset:
    """Normals ~ N(0, I_d), anomalies ~ N(shift*1, I_d); deterministic per seed."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = philox_rng(seed, STREAM_SYNTH)
    normal = rng.standard_normal((n_normal, d))
    anomaly = rng.standard_normal((n_anomaly, d)) + float(shift)
    return SsadDataset(
        features=np.concatenate([normal, anomaly], axis=0),
        labels=np.concatenate([np.zeros(n_normal, np.int8),
                               np.ones(n_anomaly, np.int8)]),
        roles=np.full(n_normal + n_anomaly, ROLE_UNSPLIT),
        provenance={"source": f"synth-gaussian(d={d},shift={shift})", "seed": seed})


# ---------------------------------------------------------------------------
# protocol

def split_stratified(ds: SsadDataset, train_fraction: float = 0.6,
                     seed: int = 0) -> tuple:
    """Per-class random split; train anomalies start in the dropped role
    until subsample/pollute claims them."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = philox_rng(seed, STREAM_SPLIT)
    train_idx, test_idx = [], []
    for label in (LABEL_NORMAL, LABEL_ANOMALY):
        idx = np.flatnonzero(ds.labels == label)
        if idx.size == 0:
            raise DataError(f"class {label} has no rows; cannot stratify")
        perm = rng.permutation(idx)
        n_train = int(train_fraction * idx.size + 0.5)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)

    train_roles = np.where(ds.labels[train_idx] == LABEL_NORMAL,
                           ROLE_TRAIN_NORMAL, ROLE_DROPPED)
    prov = dict(ds.provenance, split_seed=seed, train_fraction=train_fraction)
    train = SsadDataset(ds.features[train_idx], ds.labels[train_idx],
                        train_roles, prov)
    test = SsadDataset(ds.features[test_idx], ds.labels[test_idx],
                       np.full(test_idx.size, ROLE_TEST), dict(prov))
    return train, test


@dataclass(frozen=True)
class StandardizeStats:
    mean: np.ndarray
    scale: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, np.float64) - self.mean) / self.scale


def standardize(train: SsadDataset, test: Optional[SsadDataset] = None):
    """Zero-mean/unit-variance per column from TRAIN rows only (population
    variance); zero-variance columns are centered and passed through."""
    if len(train) == 0:
        raise DataError("cannot standardize an empty training set")
    mean = train.features.mean(axis=0)
    sd = train.features.std(axis=0)  # population (1/N)
    scale = np.where(sd == 0.0, 1.0, sd)
    stats = StandardizeStats(mean=mean, scale=scale)
    train2 = SsadDataset(stats.apply(train.features), train.labels.copy(),
                         train.roles.copy(), dict(train.provenance))
    test2 = None
    if test is not None:
        test2 = SsadDataset(stats.apply(test.features), test.labels.copy(),
                            test.roles.copy(), dict(test.provenance))
    return train2, test2, stats


def _pool_size(ratio: float, n_other: int) -> int:
    # solve k / (n_other + k) = ratio for k, rounded half-up
    return int(ratio * n_other / (1.0 - ratio) + 0.5)


def subsample_labeled_outliers(train: SsadDataset, gamma_l: float,
                               seed: int = 0) -> SsadDataset:
    """Select N_outlier = round(gamma_l * N_normal / (1 - gamma_l)) anomalies
    as the labeled-outlier pool; the rest stay dropped. If fewer are
    available, all are used and the achieved ratio is recorded."""
    if not 0.0 <= gamma_l < 1.0:
        raise ValueError("gamma_l must be in [0, 1)")
    roles = train.roles.copy()
    n_normal = int((roles == ROLE_TRAIN_NORMAL).sum())
    want = _pool_size(gamma_l, n_normal)
    avail = np.flatnonzero((roles == ROLE_DROPPED)
                           & (train.labels == LABEL_ANOMALY))
    take = min(want, avail.size)
    if take > 0:
        rng = philox_rng(seed, STREAM_SUBSAMPLE)
        chosen = rng.permutation(avail)[:take]
        roles[chosen] = ROLE_TRAIN_OUTLIER
    achieved = take / (n_normal + take) if (n_normal + take) else 0.0
    prov = dict(train.provenance, gamma_l_requested=gamma_l,
                gamma_l_achieved=achieved, n_labeled_outliers=take,
                subsample_seed=seed)
    return SsadDataset(train.features, train.labels, roles, prov)


def pollute(train: SsadDataset, gamma_p: float, seed: int = 0) -> SsadDataset:
    """Re-tag dropped anomalies as pollution so they enter the trainer's
    normal stream at fraction gamma_p of the unlabeled pool."""
    if not 0.0 <= gamma_p < 1.0:
        raise ValueError("gamma_p must be in [0, 1)")
    if gamma_p == 0.0:
        return train
    roles = train.roles.copy()
    n_normal = int((roles == ROLE_TRAIN_NORMAL).sum())
    want = _pool_size(gamma_p, n_normal)
    avail = np.flatnonzero((roles == ROLE_DROPPED)
                           & (train.labels == LABEL_ANOMALY))
    take = min(want, avail.size)
    if take > 0:
        rng = philox_rng(seed, STREAM_POLLUTE)
        chosen = rng.permutation(avail)[:take]
        roles[chosen] = ROLE_TRAIN_POLLUTION
    achieved = take / (n_normal + take) if (n_normal + take) else 0.0
    prov = dict(train.provenance, gamma_p_requested=gamma_p,
                gamma_p_achieved=achieved, n_pollution=take, pollute_seed=seed)
    return SsadDataset(train.features, train.labels, roles, prov)


# ---------------------------------------------------------------------------
# evaluation

def _tied_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    boundary = np.r_[True, sx[1:] != sx[:-1]]
    group = np.cumsum(boundary) - 1
    counts = np.bincount(group)
    cum = np.cumsum(counts)
    avg = cum - (counts - 1) / 2.0  # mean rank of each tie group, 1-based
    ranks = np.empty(x.size)
    ranks[order] = avg[group]
    return ranks


def auroc(scores, labels) -> float:
    """AUROC via the Mann-Whitney U statistic with half credit for ties.

    Scores are oriented so that higher means more normal; anomalies
    (label 1) are the positive class detected by low scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_normal = int((labels == LABEL_NORMAL).sum())
    n_anomaly = int((labels == LABEL_ANOMALY).sum())
    if n_normal == 0 or n_anomaly == 0:
        raise ValueError("auroc needs at least one sample of each class")
    ranks = _tied_ranks(scores)
    r_normal = ranks[labels == LABEL_NORMAL].sum()
    u = r_normal - n_normal * (n_normal + 1) / 2.0
    return float(u / (n_normal * n_anomaly))


@dataclass
class EvalReport:
    """One seed's evaluation; auroc is recomputable from scores/labels."""

    auroc: float
    scores: np.ndarray
    labels: np.ndarray
    seed: int
    config_digest: str

    def to_json_dict(self) -> dict:
        return {"auroc": self.auroc, "seed": self.seed,
                "config_digest": self.config_digest,
                "n_scores": int(len(self.scores))}

    def write_scores_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "score", "label"])
            for i, (s, l) in enumerate(zip(self.scores, self.labels)):
                writer.writerow([i, repr(float(s)), int(l)])
