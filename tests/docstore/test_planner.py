"""Query-planner tests: plan selection, pushdown, and full-scan equivalence.

The hypothesis properties are the load-bearing guarantee: for random
documents, random hash/sorted indexes and random filter / sort / skip /
limit / pipeline combinations, planned reads must be *exactly* equal —
same documents, same order — to the naive full-scan oracles in
``repro.docstore._reference``.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import Collection
from repro.docstore._reference import (
    aggregate_full_scan,
    count_full_scan,
    distinct_full_scan,
    find_full_scan,
)
from repro.docstore.planner import (
    FULL_SCAN,
    ID_LOOKUP,
    INDEX_LOOKUP,
    INDEX_ORDER,
    INDEX_RANGE,
    plan_read,
    split_pushdown,
)

# --------------------------------------------------------------- strategies

fields = st.sampled_from(["a", "b", "c"])
scalars = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["x", "y", "zz"]),
    st.none(),
    st.booleans(),
)
values = st.one_of(scalars, st.lists(st.integers(-5, 5), max_size=3))

documents = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "a": values,
            "b": st.integers(-5, 5),
            "c": st.text(alphabet=string.ascii_lowercase, max_size=2),
        },
    ),
    max_size=12,
)

index_specs = st.lists(
    st.tuples(fields, st.sampled_from(["hash", "sorted"])),
    unique=True,
    max_size=4,
)

simple_conditions = st.one_of(
    st.builds(lambda f, v: {f: v}, fields, scalars),
    st.builds(lambda f, v: {f: {"$eq": v}}, fields, values),
    st.builds(lambda f, vs: {f: {"$in": vs}}, fields, st.lists(scalars, max_size=3)),
    st.builds(
        lambda f, op, v: {f: {op: v}},
        fields,
        st.sampled_from(["$gt", "$gte", "$lt", "$lte"]),
        st.one_of(st.integers(-5, 5), st.sampled_from(["x", "y"])),
    ),
    st.builds(
        lambda f, lo, hi: {f: {"$gte": lo, "$lte": hi}},
        fields,
        st.integers(-5, 5),
        st.integers(-5, 5),
    ),
    st.builds(lambda f, v: {f: {"$ne": v}}, fields, scalars),
    st.builds(lambda f, e: {f: {"$exists": e}}, fields, st.booleans()),
)

filters = st.one_of(
    st.none(),
    simple_conditions,
    st.builds(
        lambda cs: {"$and": cs},
        st.lists(simple_conditions, min_size=1, max_size=3),
    ),
    st.builds(
        lambda cs: {"$or": cs},
        st.lists(simple_conditions, min_size=1, max_size=2),
    ),
)

sorts = st.one_of(
    st.none(),
    st.builds(lambda f, d: [(f, d)], fields, st.sampled_from([1, -1])),
    st.builds(
        lambda f1, d1, f2, d2: [(f1, d1), (f2, d2)],
        fields,
        st.sampled_from([1, -1]),
        fields,
        st.sampled_from([1, -1]),
    ),
)

head_stages = st.one_of(
    st.builds(lambda f: {"$match": f}, simple_conditions),
    st.builds(lambda f, d: {"$sort": {f: d}}, fields, st.sampled_from([1, -1])),
    st.builds(lambda n: {"$skip": n}, st.integers(-1, 4)),
    st.builds(lambda n: {"$limit": n}, st.integers(-1, 5)),
)
tails = st.sampled_from(
    [
        [],
        [{"$project": {"a": 1, "b": 1}}],
        [{"$group": {"_id": "$c", "n": {"$sum": 1}}}],
        [{"$count": "total"}],
    ]
)
pipelines = st.builds(
    lambda heads, tail: heads + tail, st.lists(head_stages, max_size=4), tails
)


def build_collection(docs, indexes):
    collection = Collection("c")
    for path, kind in indexes:
        collection.create_index(path, kind)
    collection.insert_many(dict(doc) for doc in docs)
    return collection


# ------------------------------------------------------- equivalence (find)


@given(
    documents,
    index_specs,
    filters,
    sorts,
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 4)),
)
@settings(max_examples=300)
def test_planned_find_equals_full_scan(docs, indexes, filter_doc, sort, skip, limit):
    collection = build_collection(docs, indexes)
    planned = collection.find(filter_doc, sort=sort, limit=limit, skip=skip)
    naive = find_full_scan(
        collection, filter_doc, sort=sort, limit=limit, skip=skip
    )
    assert planned == naive


@given(documents, index_specs, filters)
@settings(max_examples=200)
def test_planned_count_equals_full_scan(docs, indexes, filter_doc):
    collection = build_collection(docs, indexes)
    assert collection.count_documents(filter_doc) == count_full_scan(
        collection, filter_doc
    )


@given(documents, index_specs, fields, filters)
@settings(max_examples=150)
def test_planned_distinct_equals_full_scan(docs, indexes, path, filter_doc):
    collection = build_collection(docs, indexes)
    assert collection.distinct(path, filter_doc) == distinct_full_scan(
        collection, path, filter_doc
    )


@given(documents, index_specs, pipelines)
@settings(max_examples=300)
def test_planned_aggregate_equals_full_scan(docs, indexes, pipeline):
    collection = build_collection(docs, indexes)
    assert collection.aggregate(pipeline) == aggregate_full_scan(
        collection, pipeline
    )


@given(documents, index_specs, filters, sorts)
@settings(max_examples=200)
def test_explain_plan_matches_access_path(docs, indexes, filter_doc, sort):
    """The reported plan name must reflect the access path actually taken."""
    collection = build_collection(docs, indexes)
    plan = plan_read(collection, filter_doc, sort)
    explained = collection.explain(filter_doc, sort=sort)
    assert explained["plan"] == plan.plan_name
    if plan.plan_name == FULL_SCAN:
        assert plan.candidate_ids is None
        assert explained["candidates"] == len(collection)
    if plan.plan_name in (ID_LOOKUP, INDEX_LOOKUP, INDEX_RANGE):
        assert plan.candidate_ids is not None
        assert explained["candidates"] == len(plan.candidate_ids)
        # Candidates must be a superset of the true matches.
        matches = {
            doc["_id"] for doc in find_full_scan(collection, filter_doc)
        }
        candidate_user_ids = {
            collection._documents[i]["_id"] for i in plan.candidate_ids
        }
        assert matches <= candidate_user_ids
    if plan.plan_name == INDEX_ORDER:
        assert plan.order == "index"
        assert explained["order_index"] in explained["indexes_used"]


# ------------------------------------------------------------ plan selection


def make_people():
    collection = Collection("people")
    collection.create_index("city", "hash")
    collection.create_index("age", "sorted")
    collection.insert_many(
        [
            {"_id": 1, "city": "ac", "age": 34},
            {"_id": 2, "city": "bc", "age": 51},
            {"_id": 3, "city": "ac", "age": 18},
            {"_id": 4, "city": "cc", "age": 47},
            {"_id": 5, "city": "ac", "age": 29},
        ]
    )
    return collection


def test_eq_uses_hash_index():
    collection = make_people()
    plan = plan_read(collection, {"city": "ac"})
    assert plan.access == INDEX_LOOKUP
    assert plan.index_name == "city_hash"
    assert plan.residual is None  # fully covered: no re-matching needed
    assert len(plan.candidate_ids) == 3


def test_range_uses_sorted_index():
    collection = make_people()
    plan = plan_read(collection, {"age": {"$gte": 30, "$lt": 50}})
    assert plan.access == INDEX_RANGE
    assert plan.index_name == "age_sorted"
    assert plan.residual is None
    assert sorted(collection._documents[i]["_id"] for i in plan.candidate_ids) == [
        1,
        4,
    ]


def test_cheapest_branch_wins_and_residual_keeps_the_rest():
    collection = make_people()
    # city=ac has 3 candidates, age>45 has 2 — the range should win and
    # the city condition must remain in the residual.
    plan = plan_read(collection, {"city": "ac", "age": {"$gt": 45}})
    assert plan.access == INDEX_RANGE
    assert plan.residual == {"city": "ac"}
    assert collection.find({"city": "ac", "age": {"$gt": 45}}) == []


def test_id_lookup_beats_everything():
    collection = make_people()
    plan = plan_read(collection, {"_id": 3, "city": "ac"})
    assert plan.access == ID_LOOKUP
    assert plan.candidate_ids is not None and len(plan.candidate_ids) == 1


def test_and_branches_are_planned():
    collection = make_people()
    plan = plan_read(
        collection, {"$and": [{"city": "bc"}, {"age": {"$gte": 0}}]}
    )
    assert plan.access == INDEX_LOOKUP
    assert plan.index_name == "city_hash"


def test_unindexed_filter_full_scans():
    collection = make_people()
    plan = plan_read(collection, {"name": "ada"})
    assert plan.access == FULL_SCAN
    assert plan.candidate_ids is None


def test_or_is_not_planned_through_indexes():
    collection = make_people()
    plan = plan_read(collection, {"$or": [{"city": "ac"}, {"city": "bc"}]})
    assert plan.access == FULL_SCAN


def test_eq_none_narrows_but_keeps_residual():
    collection = Collection("c")
    collection.create_index("tag", "hash")
    collection.insert_many([{"tag": None}, {"tag": []}, {"tag": "v"}])
    plan = plan_read(collection, {"tag": None})
    assert plan.access == INDEX_LOOKUP
    # The None bucket also holds the empty-list document, so the
    # condition must stay in the residual...
    assert plan.residual == {"tag": None}
    # ...and the planned result must exclude the empty-list document.
    assert [doc["tag"] for doc in collection.find({"tag": None})] == [None]


def test_list_eq_does_not_use_multikey_hash_index():
    collection = Collection("c")
    collection.create_index("tags", "hash")
    collection.insert_many([{"tags": [1, 2]}, {"tags": [2]}])
    plan = plan_read(collection, {"tags": [1, 2]})
    assert plan.access == FULL_SCAN
    assert len(collection.find({"tags": [1, 2]})) == 1


def test_multikey_two_sided_range_is_exact():
    collection = Collection("c")
    collection.create_index("n", "sorted")
    collection.insert_many([{"n": [1, 20]}, {"n": 5}, {"n": 30}])
    # [1, 20] matches: 20 satisfies $gte 2, 1 satisfies $lte 10.
    results = collection.find({"n": {"$gte": 2, "$lte": 10}})
    assert sorted(doc["_id"] for doc in results) == [1, 2]
    plan = plan_read(collection, {"n": {"$gte": 2, "$lte": 10}})
    assert plan.access == INDEX_RANGE


# ------------------------------------------------------------- index order


def test_single_field_sort_streams_in_index_order():
    collection = make_people()
    plan = plan_read(collection, None, [("age", 1)])
    assert plan.plan_name == INDEX_ORDER
    assert plan.order == "index"
    ages = [doc["age"] for doc in collection.find(sort=[("age", 1)])]
    assert ages == sorted(ages)
    ages_desc = [doc["age"] for doc in collection.find(sort=[("age", -1)])]
    assert ages_desc == sorted(ages, reverse=True)


def test_multi_field_sort_falls_back_to_sorting():
    collection = make_people()
    plan = plan_read(collection, None, [("age", 1), ("city", 1)])
    assert plan.order == "sort"
    assert plan.plan_name == FULL_SCAN


def test_count_is_pure_index_count():
    collection = make_people()
    assert collection.count_documents({"city": "ac"}) == 3
    assert collection.count_documents({"age": {"$gt": 30}}) == 3


def test_distinct_reads_hash_index_keys():
    collection = make_people()
    assert collection.distinct("city") == ["ac", "bc", "cc"]


# ---------------------------------------------------------------- pushdown


def test_pushdown_absorbs_leading_window():
    pushdown = split_pushdown(
        [
            {"$match": {"a": 1}},
            {"$sort": {"b": 1}},
            {"$skip": 2},
            {"$limit": 3},
            {"$group": {"_id": "$a"}},
        ]
    )
    assert pushdown.pushed == ["$match", "$sort", "$skip", "$limit"]
    assert pushdown.filter_doc == {"a": 1}
    assert pushdown.sort_spec == [("b", 1)]
    assert pushdown.skip == 2 and pushdown.limit == 3
    assert pushdown.rest == [{"$group": {"_id": "$a"}}]


def test_pushdown_folds_windows_and_stops_at_second_sort():
    pushdown = split_pushdown(
        [{"$skip": 1}, {"$limit": 5}, {"$skip": 2}, {"$sort": {"a": 1}}]
    )
    assert pushdown.skip == 3 and pushdown.limit == 3
    assert pushdown.rest == [{"$sort": {"a": 1}}]
    second = split_pushdown([{"$sort": {"a": 1}}, {"$sort": {"b": 1}}])
    assert second.pushed == ["$sort"]
    assert second.rest == [{"$sort": {"b": 1}}]


def test_pushdown_stops_at_malformed_stage():
    pushdown = split_pushdown([{"$match": {"a": {"$wat": 1}}}, {"$limit": 2}])
    assert pushdown.pushed == []
    assert pushdown.rest == [{"$match": {"a": {"$wat": 1}}}, {"$limit": 2}]


def test_explain_reports_pushdown():
    collection = make_people()
    explained = collection.explain(
        pipeline=[
            {"$match": {"age": {"$gte": 30}}},
            {"$sort": {"age": 1}},
            {"$limit": 2},
            {"$group": {"_id": "$city"}},
        ]
    )
    assert explained["plan"] == INDEX_RANGE
    assert explained["pushdown"] == ["$match", "$sort", "$limit"]
    assert explained["remaining_stages"] == ["$group"]


def test_malformed_pipeline_errors_survive_pushdown():
    from repro.docstore.errors import QueryError

    collection = make_people()
    with pytest.raises(QueryError):
        collection.aggregate([{"$match": {"a": {"$wat": 1}}}])
    with pytest.raises(QueryError):
        collection.aggregate([{"$sort": {"age": 2}}])


# ------------------------------------------------------- update maintenance


class _CountingIndex:
    """Wraps an index, counting remove/add calls."""

    def __init__(self, inner):
        self._inner = inner
        self.path = inner.path
        self.kind = inner.kind
        self.removes = 0
        self.adds = 0

    def add(self, doc_id, document):
        self.adds += 1
        self._inner.add(doc_id, document)

    def remove(self, doc_id, document):
        self.removes += 1
        self._inner.remove(doc_id, document)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_update_maintains_only_touched_indexes():
    collection = Collection("c")
    collection.create_index("a", "hash")
    collection.create_index("b", "sorted")
    collection.insert_one({"_id": 1, "a": "x", "b": 3})
    spies = {
        name: _CountingIndex(index)
        for name, index in collection._indexes.items()
    }
    collection._indexes = dict(spies)
    baseline = {name: (spy.removes, spy.adds) for name, spy in spies.items()}

    collection.update_one({"_id": 1}, {"$set": {"a": "y"}})
    assert spies["a_hash"].removes == baseline["a_hash"][0] + 1
    assert spies["b_sorted"].removes == baseline["b_sorted"][0]

    collection.update_one({"_id": 1}, {"$inc": {"b": 2}})
    assert spies["b_sorted"].removes == baseline["b_sorted"][0] + 1

    # Queries through both indexes still see the updated document.
    assert collection.find({"a": "y"})[0]["b"] == 5
    assert collection.count_documents({"b": {"$gte": 5}}) == 1


def test_update_nested_and_rename_touch_the_right_indexes():
    collection = Collection("c")
    collection.create_index("meta.tag", "hash")
    collection.insert_one({"_id": 1, "meta": {"tag": "t1"}})
    collection.update_one({"_id": 1}, {"$set": {"meta": {"tag": "t2"}}})
    assert [doc["_id"] for doc in collection.find({"meta.tag": "t2"})] == [1]
    collection.update_one({"_id": 1}, {"$rename": {"meta": "info"}})
    assert collection.find({"meta.tag": "t2"}) == []


@given(documents, index_specs, st.data())
@settings(max_examples=100)
def test_updates_keep_indexes_consistent(docs, indexes, data):
    """After random updates, planned reads still equal full scans."""
    collection = build_collection(docs, indexes)
    update = data.draw(
        st.sampled_from(
            [
                {"$set": {"a": 9}},
                {"$set": {"b": -9, "c": "zz"}},
                {"$unset": {"a": ""}},
                {"$inc": {"b": 1}},
                {"$rename": {"a": "c"}},
            ]
        )
    )
    filter_doc = data.draw(filters)
    collection.update_many(filter_doc or {}, update)
    for probe in ({"a": 9}, {"b": {"$gte": -9}}, {"c": "zz"}):
        assert collection.find(probe) == find_full_scan(collection, probe)
