"""Tests for hash and sorted indexes."""

import pytest

from repro.docstore.indexes import HashIndex, SortedIndex, build_index


class TestHashIndex:
    def test_add_and_lookup(self):
        index = HashIndex("ncid")
        index.add(1, {"ncid": "AA1"})
        index.add(2, {"ncid": "AA2"})
        index.add(3, {"ncid": "AA1"})
        assert index.lookup("AA1") == {1, 3}
        assert index.lookup("AA2") == {2}
        assert index.lookup("ZZ9") == set()

    def test_remove(self):
        index = HashIndex("x")
        index.add(1, {"x": 5})
        index.remove(1, {"x": 5})
        assert index.lookup(5) == set()
        assert len(index) == 0

    def test_missing_field_indexed_under_none(self):
        index = HashIndex("x")
        index.add(1, {})
        assert index.lookup(None) == {1}

    def test_multikey(self):
        index = HashIndex("tags")
        index.add(1, {"tags": ["a", "b"]})
        assert index.lookup("a") == {1}
        assert index.lookup("b") == {1}
        index.remove(1, {"tags": ["a", "b"]})
        assert len(index) == 0


class TestSortedIndex:
    def make(self):
        index = SortedIndex("n")
        for doc_id, value in enumerate([5, 1, 9, 3, 7], start=1):
            index.add(doc_id, {"n": value})
        return index

    def test_closed_range(self):
        index = self.make()
        assert index.range(3, 7) == {1, 4, 5}  # values 5, 3, 7

    def test_open_ended_ranges(self):
        index = self.make()
        assert index.range(low=7) == {3, 5}  # 9, 7
        assert index.range(high=3) == {2, 4}  # 1, 3

    def test_exclusive_bounds(self):
        index = self.make()
        assert index.range(3, 7, include_low=False, include_high=False) == {1}

    def test_fully_open_scans_everything(self):
        index = self.make()
        assert index.range() == {1, 2, 3, 4, 5}

    def test_remove(self):
        index = self.make()
        index.remove(1, {"n": 5})
        assert index.range(5, 5) == set()
        assert len(index) == 4

    def test_mixed_types_do_not_raise(self):
        index = SortedIndex("n")
        index.add(1, {"n": 5})
        index.add(2, {"n": "abc"})
        assert index.range(1, 9) == {1}
        assert index.range("a", "z") == {2}

    def test_none_values_not_indexed(self):
        index = SortedIndex("n")
        index.add(1, {})
        assert len(index) == 0

    def test_first_ids(self):
        index = self.make()
        assert index.first_ids(2) == [2, 4]  # values 1 and 3

    def test_lists_and_documents_of_mixed_types_do_not_raise(self):
        values = [[[1], ["a"]], [{"x": 1}, {"x": "a"}], [[None], [2]], [[1, [2]], [1, 3]]]
        index = SortedIndex("v")
        for doc_id, value in enumerate(values):
            index.add(doc_id, {"v": value})
        index.add(len(values), {"v": 4})
        assert index.range() == set(range(len(values) + 1))
        assert index.range(4, 4) == {len(values)}
        assert index.first_ids(1) == [len(values)]
        for doc_id, value in enumerate(values):
            index.remove(doc_id, {"v": value})
        assert len(index) == 1


class TestBuildIndex:
    def test_factory(self):
        assert isinstance(build_index("hash", "x"), HashIndex)
        assert isinstance(build_index("sorted", "x"), SortedIndex)
        with pytest.raises(ValueError):
            build_index("btree", "x")


class TestWritePathFlushing:
    """Sorted-run merges happen at write end, never on a read.

    Every collection write path flushes before returning, so the index
    read methods stay free of side effects: they only ever see an empty
    pending buffer, and their own defensive ``flush`` reduces to a
    mutation-free no-op.
    """

    @staticmethod
    def pending(collection):
        return [
            entry
            for index in collection._indexes.values()
            if isinstance(index, SortedIndex)
            for entry in index._pending
        ]

    def test_every_write_path_leaves_no_pending_entries(self):
        from repro.docstore import Collection

        collection = Collection("c")
        collection.insert_many(
            {"_id": i, "ncid": f"NC{i}", "n": i} for i in range(6)
        )
        collection.create_index("n", "sorted")
        assert self.pending(collection) == []
        collection.insert_one({"_id": 10, "ncid": "NC10", "n": 10})
        assert self.pending(collection) == []
        collection.insert_many(
            {"_id": 20 + i, "ncid": f"NC{20 + i}", "n": 20 + i} for i in range(4)
        )
        assert self.pending(collection) == []
        collection.update_one({"_id": 10}, {"$set": {"n": 11}})
        assert self.pending(collection) == []
        collection.update_many({"n": {"$gte": 20}}, {"$inc": {"n": 1}})
        assert self.pending(collection) == []
        collection.replace_one({"_id": 10}, {"ncid": "NC10", "n": 12})
        assert self.pending(collection) == []
        collection.update_one({"_id": 10}, {"$set": {"ncid": "NC99"}})
        assert self.pending(collection) == []
        collection.delete_many({"n": {"$gte": 23}})
        assert self.pending(collection) == []

    def test_standalone_reads_still_merge_pending_adds(self):
        # Outside a collection nothing flushes for the caller; the
        # defensive flush in the query methods keeps raw usage correct.
        index = SortedIndex("n")
        for doc_id, value in enumerate((5, 1, 3)):
            index.add(doc_id, {"n": value})
        assert index._pending
        assert index.range(1, 3) == {1, 2}
        assert index._pending == []
