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

import contextlib
import csv
import glob
import itertools
import math
import os
import shutil
from array import array
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


# ---------------------------------------------------------------------------
# ingestion

def _label_index(path, first: list, label_column: Union[str, int]) -> int:
    """Index of the label column in the first non-empty row."""
    if isinstance(label_column, str):
        if label_column not in first:
            raise DataError(f"{path}: label column {label_column!r} not found "
                            f"in header {first!r}")
        return first.index(label_column)
    idx = int(label_column)
    if not -len(first) <= idx < len(first):
        raise DataError(f"{path}: label column index {idx} out of "
                        f"range for {len(first)} columns")
    return idx % len(first)  # -1 is the last column


def _not_utf8(path) -> DataError:
    """The error for a file that does not decode as UTF-8, naming the line
    and the byte offset of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return DataError(f"{path}: line {line}, byte {exc.start}: not UTF-8 "
                         f"({exc.reason})")
    return DataError(f"{path}: not UTF-8")


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _first_bad_cell(path, line: int, cells: list, label_idx: int) -> Optional[DataError]:
    """The error for the first non-numeric or non-finite feature cell of a
    row whose label cell was removed; None if every cell is a finite float."""
    for j, cell in enumerate(cells):
        col = j + (j >= label_idx)  # column number in the file
        try:
            value = float(cell)
        except ValueError:
            return DataError(f"{path}: row {line}, column {col}: "
                             f"non-numeric cell {cell!r}")
        if not math.isfinite(value):
            return DataError(f"{path}: row {line}, column {col}: "
                             f"non-finite cell {cell!r}")
    return None


def load_csv(path, label_column: Union[str, int] = "label",
             positive_token="1") -> SsadDataset:
    """Load a comma-delimited UTF-8 table, with or without a byte-order mark,
    with numeric features and one label column; rows whose label equals
    ``positive_token`` become anomalies.

    ``label_column`` is a header name or a column index; a negative index
    counts from the last column, and one out of range is a DataError.

    Rows are parsed as they are read into one flat float buffer, so memory
    stays near the size of the returned features. Empty rows are skipped
    and not counted; every row must have as many columns as the first
    non-empty row. Of several faults, the first one in file order is
    reported, as a DataError naming the file and the row."""
    token = str(positive_token).strip()
    feats, labels = array("d"), array("b")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            label_idx = _label_index(path, first, label_column)
            ncols, body, line = len(first), rows, 2
            if ncols == 1:
                raise DataError(f"{path}: no feature columns beside the label "
                                "column")
            # by index, the first row is data when its features all parse as
            # floats (a non-finite one is then rejected as a data cell)
            if not isinstance(label_column, str) and all(
                    _parses(cell) for col, cell in enumerate(first)
                    if col != label_idx):
                body, line = itertools.chain([first], rows), 1
            for line, row in enumerate(body, line):
                if len(row) != ncols:
                    raise DataError(f"{path}: row {line}: has {len(row)} columns, "
                                    f"expected {ncols}")
                labels.append(row.pop(label_idx).strip() == token)
                try:
                    vals = list(map(float, row))
                except ValueError:
                    vals = None
                # a sum of finite cells can still overflow: then every cell passes
                if vals is None or not math.isfinite(sum(vals)):
                    err = _first_bad_cell(path, line, row, label_idx)
                    if err is not None:
                        raise err
                feats.extend(vals)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    n = len(labels)
    if n == 0:
        raise DataError(f"{path}: no data rows")
    return SsadDataset(
        features=np.frombuffer(feats, dtype=np.float64).reshape(n, ncols - 1),
        labels=np.frombuffer(labels, dtype=np.int8),
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
            raise DataError(f"{ds.provenance.get('source', 'dataset')}: class "
                            f"{label} has no rows; cannot stratify")
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
        out = np.asarray(features, np.float64) - self.mean
        out /= self.scale  # in place: one table-sized array per call
        return out


def standardize(train: SsadDataset, test: Optional[SsadDataset] = None):
    """Zero-mean/unit-variance per column from TRAIN rows only (population
    variance); zero-variance columns are centered and passed through. A
    column whose mean or standard deviation overflows is a DataError naming
    the data source and the column."""
    if len(train) == 0:
        raise DataError("cannot standardize an empty training set")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.features.mean(axis=0)
        sd = train.features.std(axis=0)  # population (1/N)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
    if bad.size:
        j = int(bad[0])
        raise DataError(f"{train.provenance.get('source', 'training set')}: "
                        f"feature column {j} overflows standardization "
                        f"(mean {float(mean[j])!r}, standard deviation "
                        f"{float(sd[j])!r})")
    scale = np.where(sd == 0.0, 1.0, sd)
    stats = StandardizeStats(mean=mean, scale=scale)
    train2 = SsadDataset(stats.apply(train.features), train.labels.copy(),
                         train.roles.copy(), dict(train.provenance))
    test2 = None
    if test is not None:
        test2 = SsadDataset(stats.apply(test.features), test.labels.copy(),
                            test.roles.copy(), dict(test.provenance))
    return train2, test2, stats


def _claim_dropped_anomalies(train: SsadDataset, ratio: float, seed: int,
                             stream: int, role: int) -> tuple:
    """Re-tag k = round(ratio * N_normal / (1 - ratio)) dropped anomalies, or
    all of them if fewer are available, as ``role``: k / (N_normal + k) is
    then ``ratio``. Returns (roles, k, achieved ratio)."""
    roles = train.roles.copy()
    n_normal = int((roles == ROLE_TRAIN_NORMAL).sum())
    want = int(ratio * n_normal / (1.0 - ratio) + 0.5)
    avail = np.flatnonzero((roles == ROLE_DROPPED)
                           & (train.labels == LABEL_ANOMALY))
    take = min(want, avail.size)
    if take > 0:
        roles[philox_rng(seed, stream).permutation(avail)[:take]] = role
    achieved = take / (n_normal + take) if (n_normal + take) else 0.0
    return roles, take, achieved


def subsample_labeled_outliers(train: SsadDataset, gamma_l: float,
                               seed: int = 0) -> SsadDataset:
    """Select N_outlier = round(gamma_l * N_normal / (1 - gamma_l)) anomalies
    as the labeled-outlier pool; the rest stay dropped. If fewer are
    available, all are used and the achieved ratio is recorded."""
    if not 0.0 <= gamma_l < 1.0:
        raise ValueError("gamma_l must be in [0, 1)")
    roles, take, achieved = _claim_dropped_anomalies(
        train, gamma_l, seed, STREAM_SUBSAMPLE, ROLE_TRAIN_OUTLIER)
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
    roles, take, achieved = _claim_dropped_anomalies(
        train, gamma_p, seed, STREAM_POLLUTE, ROLE_TRAIN_POLLUTION)
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


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """A UTF-8 text file written as ``<path>.tmp`` and renamed over ``path``
    when the block ends, so a write cut short leaves the file that was
    there. If the block raises, the temporary file is removed."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        pass
    return True


def _remove_stale_builds(path: str) -> None:
    """Remove ``<path>.<pid>.tmp`` and ``<path>.<pid>.old`` whose pid is
    this process's or no live process's."""
    for tag in ("tmp", "old"):
        for stale in glob.glob(f"{glob.escape(path)}.*.{tag}"):
            pid = stale[len(path) + 1:-len(tag) - 1]
            if pid.isdecimal() and (int(pid) == os.getpid() or not _alive(int(pid))):
                shutil.rmtree(stale, ignore_errors=True)


@contextlib.contextmanager
def atomic_dir(path):
    """A directory built as ``<path>.<pid>.tmp`` and renamed to ``path``
    when the block ends, so a build cut short leaves no ``path`` holding
    part of it. A directory already at ``path`` is replaced as a whole. If
    the block raises, the temporary directory is removed and ``path`` is
    left as it was. On entry, the ``<path>.<pid>.tmp`` and ``.old``
    directories of processes no longer alive, or of this pid, are removed:
    a killed run leaves them."""
    path = os.fspath(path)
    tmp, old = (f"{path}.{os.getpid()}.{tag}" for tag in ("tmp", "old"))
    _remove_stale_builds(path)
    os.makedirs(tmp)
    try:
        yield tmp
        if os.path.isdir(path):
            os.replace(path, old)
        os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


@dataclass
class EvalReport:
    """One evaluation's per-row scores and labels."""

    scores: np.ndarray
    labels: np.ndarray

    def write_scores_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "score", "label"])
            for i, (s, l) in enumerate(zip(self.scores, self.labels)):
                writer.writerow([i, repr(float(s)), int(l)])
