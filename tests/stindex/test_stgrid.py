"""The spatio-textual grid index (Figure 3)."""

import pytest

from repro.core.knn import similar_users
from repro.stindex.stgrid import STGridIndex
from tests.helpers import build_random_dataset


def assert_same_table(a, b):
    for name in ("indptr", "cand", "num", "matched"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name


@pytest.fixture
def dataset():
    return build_random_dataset(3, n_users=6)


@pytest.fixture
def index(dataset):
    return STGridIndex.build(dataset, eps_loc=0.2)


class TestConstruction:
    def test_every_object_indexed(self, dataset, index):
        total = sum(
            index.cell_user_count(cell, user)
            for user in dataset.users
            for cell in index.user_cells(user)
        )
        assert total == dataset.num_objects

    def test_user_cells_sorted_by_id(self, dataset, index):
        for user in dataset.users:
            cells = index.user_cells(user)
            ids = [index.grid.cell_id(c) for c in cells]
            assert ids == sorted(ids)

    def test_unknown_user_empty(self, index):
        assert index.user_cells("ghost") == []
        assert index.cell_objects((0, 0), "ghost") == []

    def test_cell_objects_belong_to_cell_and_user(self, dataset, index):
        for user in dataset.users:
            for cell in index.user_cells(user):
                for obj in index.cell_objects(cell, user):
                    assert obj.user == user
                    assert index.grid.cell_of(obj.x, obj.y) == cell

    def test_incremental_matches_bulk(self, dataset):
        bulk = STGridIndex.build(dataset, eps_loc=0.2)
        incr = STGridIndex(dataset.bounds, 0.2)
        for user in dataset.users:
            incr.add_user(user, dataset.user_objects(user))
        for user in dataset.users:
            assert incr.user_cells(user) == bulk.user_cells(user)

    @pytest.mark.parametrize("with_tokens", [True, False])
    def test_bulk_build_files_what_add_user_files(self, dataset, with_tokens):
        """The vectorized build and the incremental path agree on every
        structure, object order and candidate table included."""
        bulk = STGridIndex.build(dataset, 0.2, with_tokens=with_tokens)
        incr = STGridIndex(dataset.bounds, 0.2, with_tokens=with_tokens)
        for user in dataset.users:
            incr.add_user(user, dataset.user_objects(user))
        assert bulk._user_groups == incr._user_groups
        for user in dataset.users:
            assert bulk.user_groups(user) == incr.user_groups(user)
            assert list(bulk.user_groups(user)) == bulk.user_cells(user)
            assert bulk.user_cell_ids(user) == incr.user_cell_ids(user)
        assert bulk.users == incr.users == dataset.users
        assert_same_table(bulk.candidate_table(), incr.candidate_table())

    def test_user_subset_build_matches_add_user(self, dataset):
        subset = [dataset.users[3], dataset.users[0], "ghost"]
        bulk = STGridIndex.build(dataset, 0.2, users=subset)
        incr = STGridIndex(dataset.bounds, 0.2)
        for user in subset:
            incr.add_user(user, dataset.user_objects(user))
        for user in subset:
            assert bulk.user_groups(user) == incr.user_groups(user)
        assert bulk.users == incr.users == subset
        assert_same_table(bulk.candidate_table(), incr.candidate_table())
        assert bulk.user_groups(dataset.users[1]) == {}

    def test_bulk_build_keeps_cell_columns(self, dataset):
        index = STGridIndex.build(dataset, 0.2)
        source, oids, cols, rows = index.columns
        assert source is dataset
        for oid, col, row in zip(oids.tolist(), cols.tolist(), rows.tolist()):
            obj = dataset.objects[oid]
            assert index.grid.cell_of(obj.x, obj.y) == (col, row)
        index.add_user("late", [])
        assert index.columns is None

    def test_user_subset_build(self, dataset):
        index = STGridIndex.build(dataset, 0.2, users=dataset.users[:2])
        assert index.user_cells(dataset.users[2]) == []

    def test_add_user_twice_merges_cells(self, dataset):
        index = STGridIndex(dataset.bounds, 0.2)
        user = dataset.users[0]
        objs = dataset.user_objects(user)
        index.add_user(user, objs[:1])
        index.add_user(user, objs[1:])
        counts = sum(
            index.cell_user_count(c, user) for c in index.user_cells(user)
        )
        assert counts == len(objs)


class TestTokenLists:
    """The token filter: the grid's cached candidate table."""

    def test_drop_caches_keeps_answers(self, dataset, index):
        def answers():
            return [
                similar_users(dataset, user, 0.2, 0.3, 3, index=index)
                for user in dataset.users
            ]

        before = answers()
        assert index._user_packs and index._table is not None
        index.drop_caches()
        assert not index._user_packs
        assert not index._prefix_indexes and index._table is None
        assert index._batch_kernel is None
        assert answers() == before

    def test_without_tokens_raises(self, dataset):
        index = STGridIndex.build(dataset, 0.2, with_tokens=False)
        with pytest.raises(ValueError, match="with_tokens=False"):
            similar_users(dataset, dataset.users[0], 0.2, 0.3, 3, index=index)

    def test_add_user_invalidates_table(self, dataset):
        index = STGridIndex(dataset.bounds, 0.2)
        first, second = dataset.users[:2]
        index.add_user(first, dataset.user_objects(first))
        assert index.candidate_table().indptr.tolist() == [0, 0]
        index.add_user(second, dataset.user_objects(second))
        assert index._table is None
        full = STGridIndex.build(dataset, 0.2, users=[first, second])
        assert_same_table(index.candidate_table(), full.candidate_table())

    def test_occupancy_reports_table_bytes(self, dataset, index):
        assert index.occupancy()["candidate_table_bytes"] == 0
        table = index.candidate_table()
        assert index.occupancy()["candidate_table_bytes"] == table.nbytes > 0


class TestNeighbourhoods:
    def test_relevant_cells_delegates_to_grid(self, index):
        cell = (1, 1)
        assert set(index.relevant_cells(cell)) == set(
            index.grid.relevant_cells(cell)
        )

    def test_occupied_relevant_cells_subset(self, dataset, index):
        user = dataset.users[0]
        for cell in index.user_cells(user):
            occupied = index.occupied_relevant_cells(cell)
            assert set(occupied) <= set(index.relevant_cells(cell))
            assert cell in occupied

    def test_cell_users(self, dataset, index):
        user = dataset.users[0]
        cell = index.user_cells(user)[0]
        assert user in index.cell_users(cell)
        assert index.cell_users((999, 999)) == []
