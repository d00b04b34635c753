import numpy as np
import pytest

from topclf.data import (
    Dataset,
    SplitSpec,
    load_csv,
    load_libsvm,
    minibatch_epoch,
    minibatches,
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

    def test_immutability(self):
        d = Dataset(np.ones((2, 2)), [True, False])
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0

    def test_subset_preserves_order(self):
        d = Dataset(np.arange(10.0).reshape(5, 2), [True] * 3 + [False] * 2)
        sub = d.subset(np.array([4, 0]))
        assert sub.labels.tolist() == [False, True]
        assert sub.features[0].tolist() == [8.0, 9.0]

    def test_class_rows_are_slices_for_class_blocks(self):
        d = Dataset(np.zeros((5, 1)), [True, True, False, False, False])
        assert (d.pos_rows, d.neg_rows) == (slice(0, 2), slice(2, 5))

    def test_class_rows_are_indices_when_interleaved(self):
        d = Dataset(np.zeros((4, 1)), [True, False, True, False])
        assert d.pos_rows.tolist() == [0, 2]
        assert d.neg_rows.tolist() == [1, 3]


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

    def test_malformed_token(self, tmp_path):
        p = write(tmp_path / "d.svm", "+1 1:x\n")
        with pytest.raises(ValueError, match="malformed"):
            load_libsvm(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.svm", "")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(p)


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


class TestMinibatches:
    def balanced(self, n):
        labels = np.zeros(n, bool)
        labels[::2] = True
        return Dataset(np.arange(2.0 * n).reshape(n, 2), labels)

    def test_two_chunks_of_five(self):
        for epoch in (0, 3):
            chunks = minibatch_epoch(self.balanced(10), 2, seed=0, epoch=epoch)
            assert sorted(len(c) for c in chunks) == [5, 5]

    def test_sizes_differ_by_at_most_one(self):
        for epoch in (0, 3):
            chunks = minibatch_epoch(self.balanced(10), 3, seed=1, epoch=epoch)
            assert sorted(len(c) for c in chunks) == [3, 3, 4]

    def test_partition_exact(self):
        for epoch in (0, 3):
            chunks = minibatch_epoch(self.balanced(11), 3, seed=4, epoch=epoch)
            joined = np.sort(np.concatenate(chunks))
            assert joined.tolist() == list(range(11))

    def test_singleton_chunks_are_one_class(self):
        with pytest.raises(ValueError, match="one class"):
            minibatch_epoch(self.balanced(10), 10, seed=0, epoch=0)

    def test_epochs_reshuffle_deterministically(self):
        d = self.balanced(12)
        e0a = minibatch_epoch(d, 2, seed=9, epoch=0)
        e0b = minibatch_epoch(d, 2, seed=9, epoch=0)
        e1 = minibatch_epoch(d, 2, seed=9, epoch=1)
        assert all(np.array_equal(a, b) for a, b in zip(e0a, e0b))
        assert not all(np.array_equal(a, b) for a, b in zip(e0a, e1))

    def test_batches_match_chunk_subsets(self):
        d = self.balanced(11)
        chunks = minibatch_epoch(d, 3, seed=4, epoch=2)
        batches = minibatches(d, 3, seed=4, epoch=2)
        for chunk, batch in zip(chunks, batches, strict=True):
            sub = d.subset(chunk)
            assert np.array_equal(batch.features, sub.features)
            assert np.array_equal(batch.labels, sub.labels)
            assert batch.pos_rows == slice(0, sub.n_pos)
            assert batch.neg_rows == slice(sub.n_pos, sub.n)
            assert not batch.features.flags.writeable


class TestSynthExample:
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
