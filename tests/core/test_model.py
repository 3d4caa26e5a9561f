"""Tests for the STObject / STDataset data model."""

import pytest

from repro.core.model import STDataset


@pytest.fixture
def dataset() -> STDataset:
    return STDataset.from_records(
        [
            ("bob", 1.0, 2.0, {"coffee", "soho"}),
            ("alice", 0.5, 0.5, {"coffee"}),
            ("alice", 3.0, 4.0, {"park", "run"}),
            ("carol", -1.0, 7.0, ["dup", "dup", "other"]),
        ]
    )


class TestFromRecords:
    def test_counts(self, dataset):
        assert dataset.num_objects == 4
        assert dataset.num_users == 3
        assert len(dataset) == 4

    def test_user_total_order(self, dataset):
        assert dataset.users == ["alice", "bob", "carol"]

    def test_oids_dense(self, dataset):
        assert [o.oid for o in dataset.objects] == [0, 1, 2, 3]

    def test_duplicate_keywords_deduped(self, dataset):
        carol_obj = dataset.user_objects("carol")[0]
        assert len(carol_obj.doc) == 2

    def test_doc_sorted_and_set_consistent(self, dataset):
        for obj in dataset.objects:
            assert list(obj.doc) == sorted(obj.doc)
            assert obj.doc_set == frozenset(obj.doc)

    def test_df_ordering_in_docs(self, dataset):
        """Token ids ascend with document frequency: 'coffee' (df=2) gets a
        higher id than the df=1 tokens."""
        vocab = dataset.vocab
        assert vocab.df("coffee") == 2
        for token in ("soho", "park", "run"):
            assert vocab.id_of(token) < vocab.id_of("coffee")

    def test_empty_keywords_allowed(self):
        ds = STDataset.from_records([("u", 0.0, 0.0, [])])
        assert ds.objects[0].doc == ()

    def test_empty_dataset(self):
        ds = STDataset.from_records([])
        assert ds.num_objects == 0
        assert ds.users == []
        assert ds.bounds.area() == 0.0


class TestAccessors:
    def test_user_objects(self, dataset):
        assert len(dataset.user_objects("alice")) == 2
        assert dataset.user_objects("nobody") == []

    def test_iter_user_sets_ordered(self, dataset):
        users = [u for u, _ in dataset.iter_user_sets()]
        assert users == dataset.users

    def test_bounds(self, dataset):
        b = dataset.bounds
        assert b.min_x == -1.0 and b.max_x == 3.0
        assert b.min_y == 0.5 and b.max_y == 7.0

    def test_location_property(self, dataset):
        assert dataset.objects[0].location == (1.0, 2.0)


class TestSubsetUsers:
    def test_subset_restricts(self, dataset):
        sub = dataset.subset_users(["alice"])
        assert sub.users == ["alice"]
        assert sub.num_objects == 2

    def test_subset_rebuilds_vocab(self, dataset):
        sub = dataset.subset_users(["alice"])
        assert "soho" not in sub.vocab
        assert "coffee" in sub.vocab

    def test_subset_preserves_keywords(self, dataset):
        sub = dataset.subset_users(["bob"])
        obj = sub.user_objects("bob")[0]
        assert sub.vocab.decode(obj.doc) == frozenset({"coffee", "soho"})


class TestCoordinateValidation:
    """from_records rejects NaN/±inf outright — they would silently
    poison the spatial indexes (NaN compares false with everything)."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        from repro.errors import DatasetValidationError

        with pytest.raises(DatasetValidationError, match="non-finite"):
            STDataset.from_records([("u", bad, 0.0, {"a"})])
        with pytest.raises(DatasetValidationError, match="non-finite"):
            STDataset.from_records([("u", 0.0, bad, {"a"})])

    def test_error_lists_every_offender(self):
        from repro.errors import DatasetValidationError

        with pytest.raises(DatasetValidationError) as err:
            STDataset.from_records(
                [
                    ("u", float("nan"), 0.0, {"a"}),
                    ("v", 0.0, 0.0, {"b"}),
                    ("w", 0.0, float("inf"), {"c"}),
                ]
            )
        assert len(err.value.problems) == 2
        assert "record 0" in err.value.problems[0]
        assert "record 2" in err.value.problems[1]

    def test_is_a_value_error(self):
        # Back-compat: pre-taxonomy callers catch ValueError.
        with pytest.raises(ValueError):
            STDataset.from_records([("u", float("nan"), 0.0, {"a"})])

    def test_finite_records_accepted(self):
        ds = STDataset.from_records([("u", -1e308, 1e308, {"a"})])
        assert ds.num_objects == 1


class TestValidateMethod:
    def test_clean_dataset_chains(self, dataset):
        assert dataset.validate() is dataset

    def test_empty_keyword_set_flagged(self):
        from repro.errors import DatasetValidationError

        ds = STDataset.from_records([("u", 0.0, 0.0, set())])
        with pytest.raises(DatasetValidationError, match="empty keyword set"):
            ds.validate()
        # ...but only when asked: empty docs are legal in the model.
        assert ds.validate(require_keywords=False) is ds

    def test_duplicate_objects_flagged(self):
        from repro.errors import DatasetValidationError

        ds = STDataset.from_records(
            [
                ("u", 0.5, 0.5, {"a", "b"}),
                ("u", 0.5, 0.5, {"b", "a"}),
            ]
        )
        with pytest.raises(DatasetValidationError, match="duplicate"):
            ds.validate()
        assert ds.validate(reject_duplicates=False) is ds

    def test_same_location_different_doc_is_not_duplicate(self):
        ds = STDataset.from_records(
            [
                ("u", 0.5, 0.5, {"a"}),
                ("u", 0.5, 0.5, {"b"}),
            ]
        )
        assert ds.validate() is ds


class TestColumns:
    def test_columns_match_objects(self, dataset):
        assert dataset.xs.tolist() == [o.x for o in dataset.objects]
        assert dataset.ys.tolist() == [o.y for o in dataset.objects]
        assert list(dataset.object_users) == [o.user for o in dataset.objects]
        assert [dataset.users[p] for p in dataset.user_pos.tolist()] == [
            o.user for o in dataset.objects
        ]
        off = dataset.tok_off.tolist()
        flat = dataset.tok_flat.tolist()
        assert [tuple(flat[a:b]) for a, b in zip(off, off[1:])] == [
            o.doc for o in dataset.objects
        ]

    def test_objects_are_immutable(self, dataset):
        with pytest.raises(AttributeError):
            dataset.objects[0].x = 9.0


class TestFingerprint:
    """Serve cache keys are fingerprints: the bytes must never drift.

    The pinned values were computed by the record-by-record
    implementation the columnar dataset replaced.
    """

    def test_pinned_synthetic(self):
        from repro.datasets.synthetic import (
            GEOTEXT_LIKE,
            TWITTER_LIKE,
            generate_dataset,
        )

        twitter = generate_dataset(TWITTER_LIKE, seed=3, num_users=12)
        geotext = generate_dataset(GEOTEXT_LIKE, seed=5, num_users=20)
        assert twitter.fingerprint() == "ccfcffd90d7150e3"
        assert geotext.fingerprint() == "939d73dcd106eb78"

    def test_pinned_mixed_types(self):
        ds = STDataset.from_records(
            [
                (1, 0.5, 0.25, {"a", 7}),
                ("1", 0.5, 0.25, {"a"}),
                (2, -1e-9, 3.0, []),
                (1, 0.1, 0.2, {7, "7"}),
            ]
        )
        assert ds.fingerprint() == "69193c7bc2f4e73b"

    def test_record_order_and_token_ids_do_not_matter(self, dataset):
        records = [
            (o.user, o.x, o.y, dataset.vocab.decode(o.doc))
            for o in reversed(dataset.objects)
        ]
        assert STDataset.from_records(records).fingerprint() == dataset.fingerprint()
