"""Property-based tests of the document store (hypothesis)."""

import copy
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import Collection
from repro.docstore.documents import deep_copy
from repro.docstore.matching import matches
from repro.docstore.views import DocumentView

field_names = st.sampled_from(["a", "b", "c", "nested.x"])
scalars = st.one_of(
    st.integers(-50, 50),
    st.text(alphabet=string.ascii_lowercase, max_size=4),
    st.none(),
)
flat_docs = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), scalars, min_size=0, max_size=3
)


@given(st.lists(flat_docs, max_size=20), st.sampled_from(["a", "b", "c"]), scalars)
@settings(max_examples=150)
def test_indexed_query_equals_scan(documents, field, value):
    """A hash index must never change query results."""
    plain = Collection("plain")
    indexed = Collection("indexed")
    indexed.create_index(field)
    for document in documents:
        plain.insert_one(dict(document))
        indexed.insert_one(dict(document))
    filter_doc = {field: value}
    plain_ids = sorted(doc["_id"] for doc in plain.find(filter_doc))
    indexed_ids = sorted(doc["_id"] for doc in indexed.find(filter_doc))
    assert plain_ids == indexed_ids


@given(st.lists(flat_docs, max_size=15))
@settings(max_examples=100)
def test_count_matches_find(documents):
    collection = Collection("c")
    collection.insert_many(documents)
    assert collection.count_documents({"a": {"$exists": True}}) == len(
        collection.find({"a": {"$exists": True}})
    )


@given(st.lists(flat_docs, max_size=15), st.integers(-50, 50))
@settings(max_examples=100)
def test_gt_and_lte_partition_numeric_values(documents, pivot):
    """For docs with numeric 'a', $gt and $lte partition them exactly."""
    collection = Collection("c")
    numeric_docs = [doc for doc in documents if isinstance(doc.get("a"), int)]
    collection.insert_many(numeric_docs)
    above = collection.count_documents({"a": {"$gt": pivot}})
    at_or_below = collection.count_documents({"a": {"$lte": pivot}})
    assert above + at_or_below == len(numeric_docs)


@given(flat_docs, flat_docs)
@settings(max_examples=150)
def test_document_matches_itself_as_filter(document, _other):
    """Any scalar document used as a filter matches itself."""
    assert matches(document, document)


@given(st.lists(st.integers(0, 20), min_size=0, max_size=30))
@settings(max_examples=100)
def test_group_sum_equals_python_sum(values):
    collection = Collection("c")
    collection.insert_many([{"v": value} for value in values])
    result = collection.aggregate([{"$group": {"_id": None, "s": {"$sum": "$v"}}}])
    if values:
        assert result[0]["s"] == sum(values)
    else:
        assert result == []


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=25))
@settings(max_examples=100)
def test_sort_stage_sorts(values):
    collection = Collection("c")
    collection.insert_many([{"v": value} for value in values])
    result = collection.aggregate([{"$sort": {"v": 1}}])
    assert [doc["v"] for doc in result] == sorted(values)


@given(
    st.lists(st.integers(-50, 50), max_size=25),
    st.integers(-50, 50),
    st.integers(-50, 50),
)
@settings(max_examples=150)
def test_sorted_index_range_equals_scan(values, low, high):
    """A sorted-index range scan must match a brute-force filter."""
    from repro.docstore.indexes import SortedIndex

    if low > high:
        low, high = high, low
    index = SortedIndex("n")
    for doc_id, value in enumerate(values):
        index.add(doc_id, {"n": value})
    expected = {
        doc_id for doc_id, value in enumerate(values) if low <= value <= high
    }
    assert index.range(low, high) == expected


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=25))
@settings(max_examples=100)
def test_sorted_index_remove_inverts_add(values):
    from repro.docstore.indexes import SortedIndex

    index = SortedIndex("n")
    for doc_id, value in enumerate(values):
        index.add(doc_id, {"n": value})
    for doc_id, value in enumerate(values):
        index.remove(doc_id, {"n": value})
    assert len(index) == 0
    assert index.range() == set()


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
#: Leaves ``deep_copy`` hands to ``copy.deepcopy``: a tuple holding a
#: list, a frozenset, a read view, and subclasses of the shared types.
other_leaves = st.one_of(
    st.tuples(st.integers(), st.lists(st.integers(), max_size=2)),
    st.frozensets(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2).map(DocumentView),
    st.text(max_size=3).map(type("Name", (str,), {})),
)
json_values = st.recursive(
    st.one_of(json_scalars, other_leaves),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
    ),
    max_leaves=40,
)


def container_ids(value, found=None):
    """Ids of every dict, list and tuple reachable from ``value``."""
    found = set() if found is None else found
    if isinstance(value, (dict, list, tuple)):
        found.add(id(value))
        children = value.values() if isinstance(value, dict) else value
        for child in children:
            container_ids(child, found)
    return found


@given(json_values)
@settings(max_examples=300)
def test_deep_copy_equals_copy_deepcopy(value):
    """Same value, same types, and no container shared with the input."""
    copied = deep_copy(value)
    expected = copy.deepcopy(value)
    assert copied == expected
    assert repr(copied) == repr(expected)
    mutable = container_ids(copied) - {
        id(node) for node in _immutable_nodes(value)
    }
    assert not mutable & container_ids(value)


def _immutable_nodes(value):
    """Tuples ``copy.deepcopy`` may share: those holding no mutable container."""
    if isinstance(value, tuple) and not any(
        isinstance(item, (dict, list)) for item in value
    ):
        yield value
    elif isinstance(value, (dict, list, tuple)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from _immutable_nodes(child)


json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["x", "y"]), children, max_size=2),
    ),
    max_leaves=12,
)


@given(st.lists(json_documents, min_size=1, max_size=12))
@settings(max_examples=200)
def test_sorted_index_takes_any_json_value(values):
    """Lists and documents of mixed element types index and unindex cleanly."""
    from repro.docstore.indexes import SortedIndex

    index = SortedIndex("v")
    for doc_id, value in enumerate(values):
        index.add(doc_id, {"v": value})
    index.flush()
    index.first_ids(len(values))
    for doc_id, value in enumerate(values):
        index.remove(doc_id, {"v": value})
    assert len(index) == 0
    assert index.range() == set()
