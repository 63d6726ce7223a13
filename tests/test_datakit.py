import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssadvae import datakit as dk


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# load_csv

def test_load_csv_basic(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n1,2,0\n3,4,0\n5,6,1\n")
    ds = dk.load_csv(p, "label", "1")
    assert len(ds) == 3 and ds.dim == 2
    assert (ds.labels == [0, 0, 1]).tolist() == [True, True, True]


def test_load_csv_header_only_rejected(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n")
    with pytest.raises(dk.DataError, match="no data rows"):
        dk.load_csv(p, "label", "1")


def test_load_csv_empty_rejected(tmp_path):
    p = write_csv(tmp_path, "")
    with pytest.raises(dk.DataError, match="empty"):
        dk.load_csv(p, "label", "1")


def test_load_csv_missing_label_column(tmp_path):
    p = write_csv(tmp_path, "a,b,c\n1,2,0\n")
    with pytest.raises(dk.DataError, match="label column"):
        dk.load_csv(p, "label", "1")


def test_load_csv_non_numeric_cell_diagnosed(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n1,2,0\n1,oops,0\n")
    with pytest.raises(dk.DataError, match=r"row 3, column 1.*oops"):
        dk.load_csv(p, "label", "1")


def test_load_csv_ragged_row_diagnosed(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n1,2,0\n1,2\n")
    with pytest.raises(dk.DataError, match="row 3"):
        dk.load_csv(p, "label", "1")


@pytest.mark.parametrize("n_rows", [1, 2000])  # the bad byte before and past 8 KiB
def test_load_csv_non_utf8_names_the_file_line_and_byte(tmp_path, n_rows):
    head = ("a,b,label\n" + "1.5,2.5,0\n" * n_rows).encode()
    p = tmp_path / "latin.csv"
    p.write_bytes(head + b"1,\xff\xfe,0\n")
    offset = len(head) + 2
    with pytest.raises(dk.DataError, match=re.escape(
            f"{p}: line {n_rows + 2}, byte {offset}: not UTF-8")):
        dk.load_csv(p, "label", "1")


def test_load_csv_index_column_no_header(tmp_path):
    p = write_csv(tmp_path, "1,2,0\n3,4,1\n")
    ds = dk.load_csv(p, 2, "1")
    assert len(ds) == 2
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_byte_order_mark_before_a_data_row(tmp_path):
    # by index, a first row of numbers stays a data row behind the mark
    p = tmp_path / "bom.csv"
    p.write_text("1,2,0\n3,4,1\n5,6,0\n", encoding="utf-8-sig")
    ds = dk.load_csv(p, 2, "1")
    assert ds.features.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert ds.labels.tolist() == [0, 1, 0]


def test_load_csv_byte_order_mark_before_the_label_header(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_text("label,a,b\n0,1,2\n1,3,4\n", encoding="utf-8-sig")
    ds = dk.load_csv(p, "label", "1")
    assert ds.features.tolist() == [[1, 2], [3, 4]]
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_negative_index_counts_from_the_end(tmp_path):
    # -1 is the last column: the labels must not become a feature
    p = write_csv(tmp_path, "1,2,3,4,0\n5,6,7,8,1\n")
    ds = dk.load_csv(p, -1, "1")
    assert ds.dim == 4 and ds.labels.tolist() == [0, 1]
    np.testing.assert_array_equal(ds.features, dk.load_csv(p, 4, "1").features)
    assert dk.load_csv(p, -5, "1").dim == 4


@pytest.mark.parametrize("index", [5, -6, -99])
def test_load_csv_index_out_of_range_is_data_error(tmp_path, index):
    p = write_csv(tmp_path, "1,2,3,4,0\n5,6,7,8,1\n")
    with pytest.raises(dk.DataError, match=f"index {index} out of range"):
        dk.load_csv(p, index, "1")


def test_load_csv_string_positive_token(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n1,2,ok\n3,4,bad\n5,6,ok\n")
    ds = dk.load_csv(p, "label", "bad")
    assert ds.labels.tolist() == [0, 1, 0]


def test_load_csv_thyroid_shape(tmp_path):
    row = ",".join(["0.1"] * 6)
    p = write_csv(tmp_path, "".join(f"{row},0\n" for _ in range(10)))
    ds = dk.load_csv(p, 6, "1")
    assert ds.dim == 6


def test_load_csv_row_errors_name_the_file(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n1,oops,0\n")
    with pytest.raises(dk.DataError, match=f"^{p}: row 2, column 1"):
        dk.load_csv(p, "label", "1")


def test_load_csv_by_index_non_finite_first_row_is_data(tmp_path):
    p = write_csv(tmp_path, "1,nan,0\n3,4,1\n")
    with pytest.raises(dk.DataError, match="row 1, column 1: non-finite cell 'nan'"):
        dk.load_csv(p, 2, "1")


def test_load_csv_header_sets_the_column_count(tmp_path):
    p = write_csv(tmp_path, "a,b,label\n1,2,3,0\n3,4,1\n")
    with pytest.raises(dk.DataError, match="row 2: has 4 columns, expected 3"):
        dk.load_csv(p, "label", "1")


def test_load_csv_without_header_first_row_sets_the_column_count(tmp_path):
    p = write_csv(tmp_path, "1,2,0\n\n3,4,5,1\n")
    with pytest.raises(dk.DataError, match="row 2: has 4 columns, expected 3"):
        dk.load_csv(p, 2, "1")


FAULTS = {"ragged": "1,2\n", "non-numeric": "1,oops,0\n",
          "non-finite": "1,inf,0\n"}


@pytest.mark.parametrize("first", FAULTS)
@pytest.mark.parametrize("second", FAULTS)
def test_load_csv_reports_the_first_fault_in_file_order(tmp_path, first, second):
    p = write_csv(tmp_path, "a,b,label\n1,2,0\n" + FAULTS[first]
                  + "3,4,1\n" + FAULTS[second])
    with pytest.raises(dk.DataError, match=r": row 3\b"):
        dk.load_csv(p, "label", "1")


def test_load_csv_memory_stays_near_the_features(tmp_path):
    x = np.random.default_rng(5).standard_normal((20000, 21))
    p = tmp_path / "big.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(21)] + ["label"]) + "\n")
        for i, row in enumerate(x.tolist()):
            fh.write(",".join(map(repr, row)) + f",{i % 2}\n")
    tracemalloc.start()
    try:
        ds = dk.load_csv(p, "label", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == x.tobytes()
    assert peak <= 4 * ds.features.nbytes


# a valid table: header f0,f1,f2,label and the label last
TABLES = st.lists(
    st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=3, max_size=3),
              st.sampled_from([0, 1])),
    min_size=1, max_size=6)


def _table_lines(rows) -> list:
    return ["f0,f1,f2,label"] + [",".join(map(repr, feats)) + f",{label}"
                                 for feats, label in rows]


def _load_text(text):
    """(path, dataset or DataError) of ``text`` written to a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            return path, dk.load_csv(path, "label", "1")
        except dk.DataError as exc:
            return path, exc


@settings(max_examples=150, deadline=None)
@given(TABLES, st.data())
def test_truncated_csv_loads_its_whole_rows_or_names_the_cut_row(rows, data):
    text = "\n".join(_table_lines(rows)) + "\n"
    cut = text[:data.draw(st.integers(0, len(text)), label="offset")]
    lines = cut.splitlines()
    path, got = _load_text(cut)
    if isinstance(got, dk.DataError):
        if len(lines) < 2:  # no data row: empty, cut header or header only
            assert str(got).startswith(f"{path}: ")
        else:
            assert re.match(rf"{re.escape(path)}: row {len(lines)}\b", str(got))
    else:
        # a cut after the last comma leaves an empty label: a normal row
        assert len(got) == len(lines) - 1
        want = np.array([feats for feats, _ in rows[:len(got)]])
        assert got.features.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(TABLES, st.sampled_from(["comma", "empty", "nan"]), st.data())
def test_spliced_fault_is_reported_at_its_row(rows, fault, data):
    lines = _table_lines(rows)
    r = data.draw(st.integers(1, len(lines) - 1), label="row")
    col = None
    if fault == "comma":
        pos = data.draw(st.integers(0, len(lines[r])), label="offset")
        lines[r] = lines[r][:pos] + "," + lines[r][pos:]
    else:
        cells = lines[r].split(",")
        col = data.draw(st.integers(0, len(cells) - 1), label="column")
        cells[col] = "" if fault == "empty" else "nan"
        lines[r] = ",".join(cells)
    path, got = _load_text("\n".join(lines) + "\n")
    if col == 3:  # an empty or nan label is just not the positive token
        assert got.labels[r - 1] == dk.LABEL_NORMAL
    else:
        assert isinstance(got, dk.DataError)
        assert re.match(rf"{re.escape(path)}: row {r + 1}\b", str(got))


# ---------------------------------------------------------------------------
# split / standardize / subsample / pollute

def synth(n_normal=90, n_anomaly=10, d=3, seed=0):
    return dk.synth_gaussian_ad(d, n_normal, n_anomaly, 3.0, seed)


def test_split_60_40_counts():
    train, test = dk.split_stratified(synth(), 0.6, seed=1)
    assert (train.labels == 0).sum() == 54 and (train.labels == 1).sum() == 6
    assert (test.labels == 0).sum() == 36 and (test.labels == 1).sum() == 4
    assert (test.roles == dk.ROLE_TEST).all()


def test_split_deterministic_per_seed():
    a1, b1 = dk.split_stratified(synth(), 0.6, seed=5)
    a2, b2 = dk.split_stratified(synth(), 0.6, seed=5)
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.features, b2.features)
    a3, _ = dk.split_stratified(synth(), 0.6, seed=6)
    assert not np.array_equal(a1.features, a3.features)
    assert (a3.labels == 0).sum() == 54  # counts stable across seeds


def test_split_rejects_single_class():
    ds = dk.SsadDataset(np.ones((5, 2)), np.zeros(5), np.zeros(5))
    with pytest.raises(dk.DataError, match="class"):
        dk.split_stratified(ds, 0.6, seed=0)


def test_standardize_train_columns():
    train, test = dk.split_stratified(synth(200, 20), 0.6, seed=2)
    train2, test2, stats = dk.standardize(train, test)
    assert np.abs(train2.features.mean(axis=0)).max() < 1e-10
    assert np.abs(train2.features.var(axis=0) - 1.0).max() < 1e-10


def test_standardize_simple_column():
    ds = dk.SsadDataset(np.array([[1.0], [3.0]]), np.array([0, 1]),
                        np.array([dk.ROLE_TRAIN_NORMAL, dk.ROLE_DROPPED]))
    out, _, stats = dk.standardize(ds)
    np.testing.assert_allclose(out.features.ravel(), [-1.0, 1.0])
    assert stats.mean[0] == 2.0 and stats.scale[0] == 1.0


def test_standardize_constant_column_passthrough():
    ds = dk.SsadDataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([0, 1]),
                        np.zeros(2))
    out, _, stats = dk.standardize(ds)
    np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0])
    assert stats.scale[0] == 1.0


@pytest.mark.parametrize("big", [1e308, 1e200])  # mean, then variance overflows
def test_standardize_overflow_names_the_source_and_column(big):
    features = np.zeros((4, 3))
    features[:, 1] = [big, big, -big, big]
    ds = dk.SsadDataset(features, np.zeros(4), np.zeros(4),
                        provenance={"source": "table.csv"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dk.DataError,
                           match=r"^table\.csv: feature column 1 overflows"):
            dk.standardize(ds)


def test_test_set_uses_train_stats():
    train = dk.SsadDataset(np.array([[0.0], [2.0]]), np.array([0, 1]), np.zeros(2))
    test = dk.SsadDataset(np.array([[10.0]]), np.array([0]), np.zeros(1))
    _, test2, _ = dk.standardize(train, test)
    assert test2.features[0, 0] == 9.0  # (10 - 1) / 1


def test_subsample_ratio_algebra():
    # 990 normals, gamma_l = 0.01 -> 10 labeled outliers (10/1000)
    ds = synth(990, 200, seed=3)
    roles = np.where(ds.labels == 0, dk.ROLE_TRAIN_NORMAL, dk.ROLE_DROPPED)
    train = dk.SsadDataset(ds.features, ds.labels, roles)
    out = dk.subsample_labeled_outliers(train, 0.01, seed=3)
    assert (out.roles == dk.ROLE_TRAIN_OUTLIER).sum() == 10
    assert out.provenance["gamma_l_achieved"] == pytest.approx(0.01)


def test_subsample_gamma_05():
    ds = synth(950, 100, seed=4)
    roles = np.where(ds.labels == 0, dk.ROLE_TRAIN_NORMAL, dk.ROLE_DROPPED)
    train = dk.SsadDataset(ds.features, ds.labels, roles)
    out = dk.subsample_labeled_outliers(train, 0.05, seed=4)
    assert (out.roles == dk.ROLE_TRAIN_OUTLIER).sum() == 50


def test_subsample_gamma_zero_empty_pool():
    train, _ = dk.split_stratified(synth(), 0.6, seed=0)
    out = dk.subsample_labeled_outliers(train, 0.0, seed=0)
    assert len(out.labeled_outliers()) == 0


def test_subsample_shortfall_records_achieved_ratio():
    ds = synth(1000, 5, seed=5)
    roles = np.where(ds.labels == 0, dk.ROLE_TRAIN_NORMAL, dk.ROLE_DROPPED)
    train = dk.SsadDataset(ds.features, ds.labels, roles)
    out = dk.subsample_labeled_outliers(train, 0.05, seed=5)  # wants ~53
    assert (out.roles == dk.ROLE_TRAIN_OUTLIER).sum() == 5
    assert out.provenance["gamma_l_achieved"] == pytest.approx(5 / 1005)


def test_pollute_ratio_and_visibility():
    ds = synth(950, 200, seed=6)
    roles = np.where(ds.labels == 0, dk.ROLE_TRAIN_NORMAL, dk.ROLE_DROPPED)
    train = dk.SsadDataset(ds.features, ds.labels, roles)
    out = dk.pollute(train, 0.05, seed=6)
    assert (out.roles == dk.ROLE_TRAIN_POLLUTION).sum() == 50
    # pollution rows feed the normal stream, not the labeled-outlier pool
    assert len(out.normal_stream()) == 1000
    assert len(out.labeled_outliers()) == 0


def test_pollute_zero_is_identity():
    train, _ = dk.split_stratified(synth(), 0.6, seed=0)
    assert dk.pollute(train, 0.0, seed=0) is train


def test_pipeline_deterministic_per_seed():
    def run():
        ds = synth(300, 60, seed=9)
        train, test = dk.split_stratified(ds, 0.6, seed=9)
        train, test, _ = dk.standardize(train, test)
        train = dk.subsample_labeled_outliers(train, 0.02, seed=9)
        train = dk.pollute(train, 0.03, seed=9)
        return train, test

    a_train, a_test = run()
    b_train, b_test = run()
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_train.roles, b_train.roles)
    np.testing.assert_array_equal(a_test.features, b_test.features)


def test_pipeline_row_accounting():
    ds = synth(500, 100, seed=7)
    train, test = dk.split_stratified(ds, 0.6, seed=7)
    train2, test2, _ = dk.standardize(train, test)
    train3 = dk.subsample_labeled_outliers(train2, 0.01, seed=7)
    train4 = dk.pollute(train3, 0.02, seed=7)
    assert len(train4) + len(test2) == len(ds)
    counts = np.bincount(train4.roles, minlength=dk.ROLE_DROPPED + 1)
    assert counts.sum() == len(train4)
    assert counts[dk.ROLE_TRAIN_NORMAL] == 300
    assert counts[dk.ROLE_DROPPED] == (60 - counts[dk.ROLE_TRAIN_OUTLIER]
                                       - counts[dk.ROLE_TRAIN_POLLUTION])


# ---------------------------------------------------------------------------
# AUROC

def test_auroc_perfect_separation():
    s = np.array([0.9, 0.8, 0.2, 0.1])
    y = np.array([0, 0, 1, 1])
    assert dk.auroc(s, y) == 1.0


def test_auroc_all_ties_half():
    s = np.zeros(6)
    y = np.array([0, 0, 0, 1, 1, 1])
    assert dk.auroc(s, y) == 0.5


def test_auroc_hand_counted_mann_whitney():
    # normals {3, 1}, anomaly {2}: one concordant, one discordant pair
    assert dk.auroc(np.array([3.0, 1.0, 2.0]), np.array([0, 0, 1])) == 0.5


def test_auroc_single_class_rejected():
    with pytest.raises(ValueError, match="each class"):
        dk.auroc(np.array([1.0, 2.0]), np.array([0, 0]))


def test_auroc_symmetry_under_negation_and_flip():
    g = np.random.Generator(np.random.Philox(key=np.array([8, 0], dtype=np.uint64)))
    s = g.standard_normal(50)
    y = (g.uniform(size=50) < 0.3).astype(int)
    if y.sum() in (0, 50):
        y[0] = 1 - y[0]
    assert dk.auroc(-s, 1 - y) == pytest.approx(dk.auroc(s, y), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=40),
       st.floats(0.5, 5.0), st.floats(-10, 10))
def test_auroc_invariant_under_increasing_transform(vals, a, b):
    # integer-valued scores keep the tie structure exact under a*s + b
    s = np.array(vals, dtype=np.float64)
    y = (np.arange(s.size) % 3 == 0).astype(int)
    assert dk.auroc(a * s + b, y) == pytest.approx(dk.auroc(s, y), abs=1e-12)
    assert dk.auroc(np.exp(s / 250.0), y) == pytest.approx(dk.auroc(s, y), abs=1e-12)


def test_auroc_against_exhaustive_pair_count():
    g = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    for _ in range(20):
        s = np.round(g.standard_normal(30), 1)  # rounding forces ties
        y = (g.uniform(size=30) < 0.4).astype(int)
        if y.sum() in (0, 30):
            continue
        sn, sa = s[y == 0], s[y == 1]
        wins = (sn[:, None] > sa[None, :]).sum()
        ties = (sn[:, None] == sa[None, :]).sum()
        brute = (wins + 0.5 * ties) / (sn.size * sa.size)
        assert dk.auroc(s, y) == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# synthetic data

def test_synth_deterministic_and_shifted():
    a = dk.synth_gaussian_ad(8, 100, 50, 3.0, seed=11)
    b = dk.synth_gaussian_ad(8, 100, 50, 3.0, seed=11)
    np.testing.assert_array_equal(a.features, b.features)
    mean_gap = a.features[a.labels == 1].mean(0) - a.features[a.labels == 0].mean(0)
    assert np.linalg.norm(mean_gap) == pytest.approx(3.0 * np.sqrt(8), rel=0.2)


def test_synth_shift_zero_indistinguishable():
    ds = dk.synth_gaussian_ad(4, 400, 400, 0.0, seed=12)
    # score by distance from origin: should be uninformative
    s = -np.linalg.norm(ds.features, axis=1)
    assert abs(dk.auroc(s, ds.labels) - 0.5) < 0.06


def test_eval_report_roundtrip(tmp_path):
    scores = np.array([0.5, -1.0, 2.0])
    labels = np.array([0, 1, 0])
    dk.EvalReport(scores, labels).write_scores_csv(tmp_path / "scores.csv")
    lines = (tmp_path / "scores.csv").read_text().strip().splitlines()
    assert lines[0] == "row,score,label"
    assert len(lines) == 4
    # the AUROC is recomputable from the written scores and labels
    rows = [line.split(",") for line in lines[1:]]
    assert dk.auroc([float(r[1]) for r in rows], [int(r[2]) for r in rows]) \
        == dk.auroc(scores, labels)


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_failed_scores_write_keeps_the_earlier_file_and_no_temporary(tmp_path):
    class Unwritable:
        def __float__(self):
            raise ValueError("score cannot be written")

    path = tmp_path / "scores.csv"
    dk.EvalReport(np.array([0.5, -1.0]), np.array([0, 1])).write_scores_csv(path)
    before = _sha256(path)
    scores = np.array([0.25, Unwritable()], dtype=object)
    with pytest.raises(ValueError, match="score cannot be written"):
        dk.EvalReport(scores, np.array([0, 1])).write_scores_csv(path)
    assert _sha256(path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]


def test_atomic_dir_removes_what_dead_processes_left(tmp_path):
    # a killed run leaves <path>.<pid>.tmp (or .old); the next build of
    # that path removes those of pids no longer alive and keeps the others'
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: no process has this pid now
    path = tmp_path / "score_abc"
    dead_tmp, dead_old = (tmp_path / f"score_abc.{child.pid}.{tag}"
                          for tag in ("tmp", "old"))
    live = tmp_path / f"score_abc.{os.getppid()}.tmp"
    other = tmp_path / f"score_abcd.{child.pid}.tmp"  # another path's
    for d in (dead_tmp, dead_old, live, other):
        d.mkdir()
        (d / "part.csv").write_text("row\n")
    with dk.atomic_dir(path) as tmp:
        assert not dead_tmp.exists() and not dead_old.exists()
        with open(os.path.join(tmp, "done.csv"), "w") as fh:
            fh.write("row\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["score_abc", live.name, other.name])
    assert [p.name for p in path.iterdir()] == ["done.csv"]
