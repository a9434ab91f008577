"""Tests for the in-memory trace dataset: construction, selection, splits."""

import numpy as np
import pytest

from repro.core.dataset import TraceDataset


def make_dataset(n_per_class=4, n_classes=3, length=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n_per_class * n_classes, length))
    labels = [f"site{i // n_per_class}.com" for i in range(len(x))]
    return TraceDataset(x=x, labels=labels, metadata={"seed": seed})


class TestConstruction:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            TraceDataset(x=np.ones(5), labels=["a"] * 5)
        with pytest.raises(ValueError):
            TraceDataset(x=np.ones((3, 4)), labels=["a"])

    def test_properties(self):
        dataset = make_dataset()
        assert len(dataset) == 12
        assert dataset.n_classes == 3
        assert dataset.trace_length == 20
        assert dataset.class_counts() == {
            "site0.com": 4, "site1.com": 4, "site2.com": 4,
        }


class TestManipulation:
    def test_select(self):
        dataset = make_dataset()
        subset = dataset.select([0, 5])
        assert len(subset) == 2
        assert subset.labels == [dataset.labels[0], dataset.labels[5]]

    def test_filter_classes(self):
        dataset = make_dataset()
        filtered = dataset.filter_classes(["site1.com"])
        assert set(filtered.labels) == {"site1.com"}
        assert len(filtered) == 4

    def test_filter_to_nothing_rejected(self):
        with pytest.raises(ValueError):
            make_dataset().filter_classes(["nope.com"])

    def test_merge(self):
        a = make_dataset(seed=0)
        b = make_dataset(seed=1)
        merged = a.merge(b)
        assert len(merged) == 24

    def test_merge_length_mismatch(self):
        a = make_dataset(length=20)
        b = make_dataset(length=30)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_train_test_split_stratified(self):
        dataset = make_dataset(n_per_class=10)
        train, test = dataset.train_test_split(test_fraction=0.2, seed=1)
        assert len(train) + len(test) == len(dataset)
        assert test.class_counts() == {c: 2 for c in dataset.class_counts()}

    def test_split_validates_fraction(self):
        with pytest.raises(ValueError):
            make_dataset().train_test_split(test_fraction=1.0)

    def test_split_rejects_tiny_classes(self):
        dataset = make_dataset(n_per_class=1)
        with pytest.raises(ValueError):
            dataset.train_test_split(test_fraction=0.5)

    def test_single_class_split(self):
        dataset = make_dataset(n_per_class=10, n_classes=1)
        train, test = dataset.train_test_split(test_fraction=0.3, seed=2)
        assert len(train) == 7 and len(test) == 3
        assert set(train.labels) == set(test.labels) == {"site0.com"}


class TestAliasing:
    """The select/view contract documented on TraceDataset."""

    def test_contiguous_select_returns_view(self):
        dataset = make_dataset()
        subset = dataset.select([4, 5, 6, 7])
        assert np.shares_memory(subset.x, dataset.x)
        np.testing.assert_array_equal(subset.x, dataset.x[4:8])

    def test_noncontiguous_select_copies(self):
        dataset = make_dataset()
        for indices in ([0, 2], [5, 4, 3], [1, 1]):
            assert not np.shares_memory(dataset.select(indices).x, dataset.x)

    def test_negative_indices_copy_and_match_fancy(self):
        dataset = make_dataset()
        subset = dataset.select([-3, -2, -1])
        assert not np.shares_memory(subset.x, dataset.x)
        np.testing.assert_array_equal(subset.x, dataset.x[-3:])
        assert subset.labels == dataset.labels[-3:]

    def test_filter_classes_on_grouped_labels_is_view(self):
        dataset = make_dataset()  # labels grouped by class
        filtered = dataset.filter_classes(["site1.com"])
        assert np.shares_memory(filtered.x, dataset.x)

    def test_merge_owns_its_matrix(self):
        a = make_dataset(seed=0)
        merged = a.merge(make_dataset(seed=1))
        assert not np.shares_memory(merged.x, a.x)


class TestEdgeCases:
    def test_empty_select(self):
        dataset = make_dataset()
        subset = dataset.select([])
        assert len(subset) == 0 and subset.n_classes == 0
        assert subset.trace_length == dataset.trace_length
