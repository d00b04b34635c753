import csv
import re
import warnings

import numpy as np
import pytest

from topclf.data import (
    Dataset,
    SplitSpec,
    load_csv,
    load_libsvm,
    minibatch_epoch,
    save_csv,
    split,
    synth_example,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDataset:
    def test_counts_and_partition(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), [True, False, True, False])
        assert (d.n, d.n_pos, d.n_neg) == (4, 2, 2)
        assert sorted(np.concatenate([d.pos_idx, d.neg_idx])) == [0, 1, 2, 3]

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0, np.nan]]), [True])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="features must be 2-d"):
            Dataset(np.zeros(3), [True, False, True])
        with pytest.raises(ValueError, match="labels shape"):
            Dataset(np.zeros((3, 2)), [True, False])

    def test_immutability(self):
        d = Dataset(np.ones((2, 2)), [True, False])
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0

    def test_subset_preserves_order(self):
        d = Dataset(np.arange(10.0).reshape(5, 2), [True] * 3 + [False] * 2)
        sub = d.subset(np.array([4, 0]))
        assert sub.labels.tolist() == [False, True]
        assert sub.features[0].tolist() == [8.0, 9.0]

    def test_class_rows_are_indices_when_interleaved(self):
        d = Dataset(np.zeros((4, 1)), [True, False, True, False])
        assert d.pos_idx.tolist() == [0, 2]
        assert d.neg_idx.tolist() == [1, 3]


class TestLoadCsv:
    def test_basic_labels(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,1\n3,4,0\n5,6,1\n")
        d = load_csv(p, "y", "1")
        assert (d.n, d.n_pos) == (3, 2)
        assert d.features[1].tolist() == [3.0, 4.0]

    def test_string_labels(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,yes\n2,no\n")
        d = load_csv(p, "y", "yes")
        assert d.labels.tolist() == [True, False]

    def test_nan_feature_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\nNaN,1\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(p, "y", "1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y", "1")

    def test_non_numeric_feature(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\nfoo,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p, "y", "1")

    def test_more_than_two_label_values(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,a\n2,b\n3,c\n")
        with pytest.raises(ValueError, match="distinct"):
            load_csv(p, "y", "a")

    def test_one_class_warns(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,1\n2,1\n")
        with pytest.warns(UserWarning, match="one class"):
            load_csv(p, "y", "1")

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,1\n3,4\n")
        with pytest.raises(ValueError, match="cells"):
            load_csv(p, "y", "1")

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        d = Dataset(rng.standard_normal((20, 4)), rng.random(20) < 0.4)
        p = tmp_path / "rt.csv"
        save_csv(d, p)
        d2 = load_csv(p, "label", "1")
        assert np.array_equal(d.features, d2.features)
        assert np.array_equal(d.labels, d2.labels)


class TestLoadLibsvm:
    def test_sparse_rows_densified(self, tmp_path):
        p = write(tmp_path / "d.svm", "+1 1:0.5 3:2.0\n-1 2:1\n")
        d = load_libsvm(p)
        assert d.features.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        assert d.labels.tolist() == [True, False]

    def test_zero_one_labels(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 1:1\n0 1:2\n")
        d = load_libsvm(p)
        assert d.labels.tolist() == [True, False]

    def test_non_increasing_indices(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 3:1 2:1\n")
        with pytest.raises(ValueError, match="increasing"):
            load_libsvm(p)

    def test_zero_index_is_not_1_based(self, tmp_path):
        p = write(tmp_path / "d.svm", "-1 1:1\n+1 0:1.5\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: indices must be 1-based"):
            load_libsvm(p)

    def test_malformed_token(self, tmp_path):
        p = write(tmp_path / "d.svm", "+1 1:x\n")
        with pytest.raises(ValueError, match="malformed"):
            load_libsvm(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.svm", "")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(p)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "d.svm", "# header\n\n+1 1:0.5\n   \n# between\n-1 2:3\n")
        d = load_libsvm(p)
        assert d.features.tolist() == [[0.5, 0.0], [0.0, 3.0]]
        assert d.labels.tolist() == [True, False]

    def test_unknown_label_names_its_line(self, tmp_path):
        p = write(tmp_path / "d.svm", "+1 1:1\n2 1:1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: unknown label '2'$"):
            load_libsvm(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = write(tmp_path / "d.svm", f"+1 1:1\n-1 1:{value}\n")
        with pytest.raises(ValueError, match=":2: non-finite value"):
            load_libsvm(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such file"):
            load_libsvm(tmp_path / "nope.svm")

    def test_one_class_warns(self, tmp_path):
        p = write(tmp_path / "d.svm", "+1 1:1\n1 2:1\n")
        with pytest.warns(UserWarning, match="one class"):
            d = load_libsvm(p)
        assert (d.n_pos, d.n_neg) == (2, 0)


class TestSplit:
    def test_sizes_largest_remainder(self):
        d = Dataset(np.arange(20.0).reshape(10, 2), [True] * 5 + [False] * 5)
        tr, va, te = split(d, SplitSpec(0.5, 0.25, 0.25, seed=7, stratified=False))
        assert (tr.n, va.n, te.n) == (5, 3, 2)

    def test_deterministic_under_seed(self):
        d = Dataset(np.arange(20.0).reshape(10, 2), [True] * 4 + [False] * 6)
        spec = SplitSpec(0.5, 0.25, 0.25, seed=7)
        a = split(d, spec)
        b = split(d, spec)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.features, pb.features)
            assert np.array_equal(pa.labels, pb.labels)

    def test_stratified_positive_allocation(self):
        # largest-remainder on 4 positives with (0.5, 0.25, 0.25): (2, 1, 1)
        d = Dataset(np.arange(20.0).reshape(10, 2), [True] * 4 + [False] * 6)
        tr, va, te = split(d, SplitSpec(0.5, 0.25, 0.25, seed=0, stratified=True))
        assert tr.n_pos == 2
        assert va.n_pos == 1 and te.n_pos == 1
        assert (tr.n, va.n, te.n) == (5, 3, 2)

    def test_partition_is_exact(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.standard_normal((37, 3)), rng.random(37) < 0.5)
        parts = split(d, SplitSpec(0.6, 0.2, 0.2, seed=1))
        assert sum(p.n for p in parts) == d.n
        rows = np.vstack([p.features for p in parts])
        # each original row appears exactly once across the parts
        assert np.array_equal(
            np.sort(rows.view("f8,f8,f8"), axis=0),
            np.sort(d.features.view("f8,f8,f8"), axis=0),
        )

    def test_stratified_fraction_within_one_sample(self):
        rng = np.random.default_rng(11)
        d = Dataset(rng.standard_normal((53, 2)), rng.random(53) < 0.3)
        parts = split(d, SplitSpec(0.5, 0.3, 0.2, seed=2, stratified=True))
        source = d.n_pos / d.n
        for p in parts:
            assert abs(p.n_pos - source * p.n) <= 1.0

    def test_empty_part_rejected(self):
        d = Dataset(np.arange(4.0).reshape(2, 2), [True, False])
        with pytest.raises(ValueError, match="empty"):
            split(d, SplitSpec(0.5, 0.25, 0.25, seed=0))

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(0.5, 0.5, 0.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SplitSpec(seed=-1)


class TestMinibatches:
    def balanced(self, n):
        # the one feature holds the row index, so a batch names the rows it took
        labels = np.zeros(n, bool)
        labels[::2] = True
        return Dataset(np.arange(float(n))[:, None], labels)

    def rows(self, batches):
        return [batch.features[:, 0].astype(int).tolist() for batch in batches]

    def test_two_chunks_of_five(self):
        for epoch in (0, 3):
            batches = minibatch_epoch(self.balanced(10), 2, seed=0, epoch=epoch)
            assert sorted(b.n for b in batches) == [5, 5]

    def test_sizes_differ_by_at_most_one(self):
        for epoch in (0, 3):
            batches = minibatch_epoch(self.balanced(10), 3, seed=1, epoch=epoch)
            assert sorted(b.n for b in batches) == [3, 3, 4]

    def test_partition_exact(self):
        for epoch in (0, 3):
            batches = minibatch_epoch(self.balanced(11), 3, seed=4, epoch=epoch)
            assert sorted(sum(self.rows(batches), [])) == list(range(11))

    def test_zero_chunks_rejected(self):
        with pytest.raises(ValueError, match=r"n_minibatch must be in \[1, 10\], got 0"):
            minibatch_epoch(self.balanced(10), 0, seed=0, epoch=0)

    def test_singleton_chunks_are_one_class(self):
        with pytest.raises(ValueError, match="one class"):
            minibatch_epoch(self.balanced(10), 10, seed=0, epoch=0)

    def test_epochs_reshuffle_deterministically(self):
        d = self.balanced(12)
        e0a = self.rows(minibatch_epoch(d, 2, seed=9, epoch=0))
        e0b = self.rows(minibatch_epoch(d, 2, seed=9, epoch=0))
        e1 = self.rows(minibatch_epoch(d, 2, seed=9, epoch=1))
        assert e0a == e0b
        assert e0a != e1

    def test_batches_are_stratified_positives_first(self):
        d = self.balanced(11)
        batches = minibatch_epoch(d, 3, seed=4, epoch=2)
        for batch, rows in zip(batches, self.rows(batches), strict=True):
            assert np.array_equal(batch.labels, d.labels[rows])
            # positives first: the row order fixes the batch's summation order
            assert batch.labels.tolist() == [True] * batch.n_pos + [False] * batch.n_neg
            assert not batch.features.flags.writeable
        # 6 positives and 5 negatives dealt into 3 batches
        assert sorted((b.n_pos, b.n_neg) for b in batches) == [(2, 1), (2, 2), (2, 2)]


class TestSynthExample:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            synth_example(10, seed=-1)

    def test_shape_and_outlier(self):
        d = synth_example(1000, seed=3)
        assert (d.n, d.n_pos, d.n_neg) == (2001, 1000, 1001)
        outliers = np.flatnonzero((d.features == [2.0, 0.0]).all(axis=1))
        assert len(outliers) == 1
        assert not d.labels[outliers[0]]

    def test_positive_box(self):
        d = synth_example(500, seed=8)
        pos = d.features[d.pos_idx]
        assert pos[:, 0].min() >= 0.0 and pos[:, 0].max() <= 1.0
        assert abs(pos[:, 1]).max() <= 1.0

    def test_negative_box(self):
        d = synth_example(500, seed=8)
        neg = d.features[d.neg_idx]
        interior = neg[(neg[:, 0] != 2.0)]
        assert interior[:, 0].min() >= -1.0 and interior[:, 0].max() <= 0.0

    def test_deterministic(self):
        a = synth_example(1, seed=42)
        b = synth_example(1, seed=42)
        assert a.n == 3
        assert np.array_equal(a.features, b.features)


def csv_oracle(path, label_column, positive_value):
    """Plain csv-module reading of the loader's contract: (features, labels) or the error text."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    label_pos = header.index(label_column)
    features, tokens = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            return f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
        try:
            values = [float(cell) for i, cell in enumerate(row) if i != label_pos]
        except ValueError:
            return f"{path}:{lineno}: non-numeric feature cell"
        if not np.isfinite(values).all():
            return f"{path}:{lineno}: non-finite feature value"
        features.append(values)
        tokens.append(row[label_pos].strip())
    if len(set(tokens)) > 2:
        return "distinct"
    return np.array(features, dtype=np.float64), np.array([t == positive_value for t in tokens])


class TestCsvContract:
    """The CSV contract of load_csv, pinned cell by cell."""

    def error(self, path, label="y", pos="1"):
        with pytest.raises(ValueError) as exc:
            load_csv(path, label, pos)
        return str(exc.value)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("a,b,y\n1,2,1\n3,4\n", 3, "expected 3 cells, got 2"),
            ("a,b,y\n1,2,1\n3,4,5,0\n", 3, "expected 3 cells, got 4"),
            ("a,b,y\n1,2,1\n3,4,0,\n", 3, "expected 3 cells, got 4"),
            ("x,y\n1,1\n\n2,0\n", 3, "expected 2 cells, got 0"),
            ("x,y\n1,1\n2,0\n\n", 4, "expected 2 cells, got 0"),
            ("x,y\r\n1,1\r\n\r\n2,0\r\n", 3, "expected 2 cells, got 0"),
            ("x,y\n1,1\nfoo,0\n", 3, "non-numeric feature cell"),
            ("x,y\n1,1\n,0\n", 3, "non-numeric feature cell"),
            ("x,y\n1,1\n0x10,0\n", 3, "non-numeric feature cell"),
            ("x,y\n1,1\n\x1c2,0\n", 3, "non-numeric feature cell"),
            ("x,y\n1,1\nNaN,0\n", 3, "non-finite feature value"),
            ("x,y\n1,1\ninf,0\n", 3, "non-finite feature value"),
            ("x,y\n1,1\n-Infinity,0\n", 3, "non-finite feature value"),
            ("x,y\n1,1\n1e400,0\n", 3, "non-finite feature value"),
        ],
        ids=[
            "short", "long", "trailing-comma", "blank-middle", "blank-end", "blank-crlf",
            "foo", "empty-cell", "hex", "separator-char", "nan", "inf", "-infinity", "overflow",
        ],
    )
    def test_error_names_the_line(self, tmp_path, text, lineno, message):
        p = write(tmp_path / "d.csv", text)
        assert self.error(p) == f"{p}:{lineno}: {message}"

    def test_first_bad_line_is_named(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,1\n2,0\nfoo,1\nnan,0\n")
        assert self.error(p) == f"{p}:4: non-numeric feature cell"

    def test_header_only_has_no_data_rows(self, tmp_path):
        for text in ("x,y\n", "x,y"):
            p = write(tmp_path / "d.csv", text)
            assert self.error(p) == f"{p}: no data rows"

    def test_zero_byte_file_is_empty(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        assert self.error(p) == f"{p}: empty file"

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,z\n1,1\n")
        assert self.error(p) == f"{p}: label column 'y' not in header"

    @pytest.mark.parametrize(
        "text, pos, features, labels",
        [
            ('x,y\n"1.5",1\n2,"0"\n', "1", [[1.5], [2.0]], [True, False]),
            ("x,y\r\n1.5,1\r\n2,0\r\n", "1", [[1.5], [2.0]], [True, False]),
            ("x,y\r1.5,1\r2,0\r", "1", [[1.5], [2.0]], [True, False]),
            ("x,y\n1.5,1\n2,0", "1", [[1.5], [2.0]], [True, False]),
            ("x,y\n1, 1 \n2,\t0\n", "1", [[1.0], [2.0]], [True, False]),
            ("x,y\n 1.5 ,1\n\t2,0\n", "1", [[1.5], [2.0]], [True, False]),
            ("y,a,b\n1,2,3\n0,4,5\n", "1", [[2.0, 3.0], [4.0, 5.0]], [True, False]),
            ("a,y,b\n2,0,3\n4,1,5\n", "1", [[2.0, 3.0], [4.0, 5.0]], [False, True]),
            ("a,y,b\n2,no,3\n4,yes,5\n", "yes", [[2.0, 3.0], [4.0, 5.0]], [False, True]),
            ("x,y\n+1,1\n.5,0\n-2.,1\n1E2,0\n", "1", [[1.0], [0.5], [-2.0], [100.0]],
             [True, False, True, False]),
        ],
        ids=[
            "quoted", "crlf", "cr", "no-final-newline", "padded-label", "padded-feature",
            "label-first", "label-middle", "string-label-middle", "float-spellings",
        ],
    )
    def test_loads(self, tmp_path, text, pos, features, labels):
        p = write(tmp_path / "d.csv", text)
        d = load_csv(p, "y", pos)
        assert d.features.tolist() == features
        assert d.labels.tolist() == labels

    def test_label_compared_verbatim_after_strip(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,1.0\n2,1\n3,1.0\n")
        assert load_csv(p, "y", "1").labels.tolist() == [False, True, False]

    def test_python_float_spellings_still_load(self, tmp_path):
        # np.loadtxt refuses these; float() takes them, so they stay accepted
        p = write(tmp_path / "d.csv", "x,y\n1_0,1\n١,0\n")
        assert load_csv(p, "y", "1").features.tolist() == [[10.0], [1.0]]

    def test_quoted_comma_in_label_still_loads(self, tmp_path):
        p = write(tmp_path / "d.csv", 'x,y\n1,"a,b"\n2,c\n')
        d = load_csv(p, "y", "a,b")
        assert d.features.tolist() == [[1.0], [2.0]]
        assert d.labels.tolist() == [True, False]

    def test_roundtrip_extreme_values_bit_for_bit(self, tmp_path):
        values = [
            -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
        ]
        d = Dataset(np.array([values, values[::-1]]), [True, False])
        p = tmp_path / "rt.csv"
        save_csv(d, p)
        d2 = load_csv(p, "label", "1")
        assert d2.features.tobytes() == d.features.tobytes()
        assert d2.labels.tolist() == [True, False]

    def test_matches_csv_oracle_on_random_files(self, tmp_path):
        rng = np.random.default_rng(11)
        odd = ["1_0", "١", " 2 ", "\xa03", "4\t", "0x1", "", "nan", "1e400", "\x1c5",
               "6\x0c", '"7"', "1d5", "+.5", "-0"]
        labels = ["1", "0", " 1 ", '"0"', "\x0c1"]
        for trial in range(300):
            n_feat = int(rng.integers(1, 4))
            label_pos = int(rng.integers(0, n_feat + 1))
            header = [f"x{j}" for j in range(n_feat)]
            header.insert(label_pos, "y")
            lines = [",".join(header)]
            for _ in range(int(rng.integers(1, 5))):
                cells = [
                    str(odd[rng.integers(len(odd))]) if rng.random() < 0.1
                    else repr(float(rng.normal(scale=10.0)))
                    for _ in range(n_feat)
                ]
                cells.insert(label_pos, str(labels[rng.integers(len(labels))]))
                lines.append(",".join(cells))
            eol = ("\n", "\r\n", "\r")[trial % 3]
            p = tmp_path / f"r{trial}.csv"
            p.write_bytes((eol.join(lines) + eol).encode("utf-8"))
            expect = csv_oracle(p, "y", "1")
            if isinstance(expect, str):
                with pytest.raises(ValueError) as exc:
                    load_csv(p, "y", "1")
                assert expect in str(exc.value)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    d = load_csv(p, "y", "1")
                assert d.features.tobytes() == expect[0].tobytes()
                assert d.labels.tolist() == expect[1].tolist()
