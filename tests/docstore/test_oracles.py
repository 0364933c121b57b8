"""Oracle tests: reads and recovery against references.

Every read — ``find`` / ``count_documents`` / ``distinct`` /
``aggregate`` — returns *exactly* what the full-scan oracle in
``repro.docstore._reference`` returns: same documents, same order, same
copies, before and after every write.  Crash recovery lands on a committed
state at every filesystem operation.
"""

import json
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.docstore import Collection, Database, DurableDatabase
from repro.docstore._reference import (
    aggregate_full_scan,
    count_full_scan,
    distinct_full_scan,
    find_full_scan,
)
from repro.docstore.errors import QueryError

# --------------------------------------------------------------- strategies

fields = st.sampled_from(["ncid", "a", "b"])
ncids = st.sampled_from(["AA1", "AA2", "BB7", "CC3", "DD9", "EE5"])
scalars = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["x", "y", "zz"]),
    st.none(),
    st.booleans(),
)
values = st.one_of(scalars, st.lists(st.integers(-5, 5), max_size=3))

documents = st.lists(
    st.fixed_dictionaries(
        {"ncid": ncids},
        optional={
            "a": values,
            "b": st.integers(-5, 5),
            "c": st.text(alphabet=string.ascii_lowercase, max_size=2),
        },
    ),
    max_size=14,
)

index_specs = st.lists(
    st.tuples(fields, st.sampled_from(["hash", "sorted"])),
    unique=True,
    max_size=3,
)

simple_conditions = st.one_of(
    st.builds(lambda f, v: {f: v}, fields, scalars),
    st.builds(lambda v: {"ncid": v}, ncids),
    st.builds(lambda vs: {"ncid": {"$in": vs}}, st.lists(ncids, max_size=3)),
    st.builds(lambda f, v: {f: {"$eq": v}}, fields, values),
    st.builds(
        lambda f, op, v: {f: {op: v}},
        fields,
        st.sampled_from(["$gt", "$gte", "$lt", "$lte"]),
        st.one_of(st.integers(-5, 5), st.sampled_from(["x", "y"])),
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
    st.builds(lambda n: {"$skip": n}, st.integers(0, 4)),
    st.builds(lambda n: {"$limit": n}, st.integers(0, 5)),
)
tails = st.sampled_from(
    [
        [],
        [{"$project": {"ncid": 1, "b": 1}}],
        [{"$group": {"_id": "$c", "n": {"$sum": 1}}}],
        [{"$group": {"_id": "$ncid", "lo": {"$min": "$b"}, "hi": {"$max": "$b"}}}],
        [{"$group": {"_id": "$c", "first": {"$first": "$a"}, "last": {"$last": "$b"}}}],
        [{"$count": "total"}],
    ]
)
pipelines = st.builds(
    lambda heads, tail: heads + tail, st.lists(head_stages, max_size=3), tails
)


def build_pair(docs, indexes):
    """The collection under test plus its oracle twin."""
    planned = Collection("c")
    oracle = Collection("c")
    for path, kind in indexes:
        planned.create_index(path, kind)
        oracle.create_index(path, kind)
    for position, doc in enumerate(docs):
        stored = dict(doc)
        stored.setdefault("_id", position)
        planned.insert_one(dict(stored))
        oracle.insert_one(dict(stored))
    return planned, oracle


# ----------------------------------------------------- oracle equivalence


@given(
    documents,
    index_specs,
    filters,
    sorts,
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 4)),
)
@settings(max_examples=250)
def test_find_equals_full_scan(docs, indexes, filter_doc, sort, skip, limit):
    collection, oracle = build_pair(docs, indexes)
    planned = collection.find(filter_doc, sort=sort, limit=limit, skip=skip)
    naive = find_full_scan(oracle, filter_doc, sort=sort, limit=limit, skip=skip)
    assert planned == naive


@given(documents, index_specs, filters)
@settings(max_examples=150)
def test_count_equals_full_scan(docs, indexes, filter_doc):
    collection, oracle = build_pair(docs, indexes)
    assert collection.count_documents(filter_doc) == count_full_scan(
        oracle, filter_doc
    )


@given(documents, index_specs, fields, filters)
@settings(max_examples=120)
def test_distinct_equals_full_scan(docs, indexes, path, filter_doc):
    collection, oracle = build_pair(docs, indexes)
    assert collection.distinct(path, filter_doc) == distinct_full_scan(
        oracle, path, filter_doc
    )


@given(documents, index_specs, pipelines)
@settings(max_examples=250)
def test_aggregate_equals_full_scan(docs, indexes, pipeline):
    collection, oracle = build_pair(docs, indexes)
    assert collection.aggregate(pipeline) == aggregate_full_scan(oracle, pipeline)


# ------------------------------------------------------ reads across writes


@given(documents, index_specs, filters, st.data())
@settings(max_examples=100)
def test_reads_between_writes_match_oracle(docs, indexes, filter_doc, data):
    """Every read after a write sees exactly that write, index or not.

    Interleaves mutations with reads of the same filter; after every write
    the planned ``find``/``count_documents`` must equal the full scan over
    the collection's current documents.
    """
    collection, _ = build_pair(docs, indexes)
    for round_number in range(data.draw(st.integers(1, 3))):
        collection.find(filter_doc)
        mutation = data.draw(
            st.sampled_from(["insert", "update", "delete", "replace"])
        )
        if mutation == "insert":
            doc = {"_id": f"new-{round_number}", "ncid": "ZZ9", "b": round_number}
            collection.insert_one(doc)
        elif mutation == "update":
            collection.update_many({}, {"$inc": {"b": 1}})
        elif mutation == "delete":
            collection.delete_many({"b": {"$gte": 4}})
        else:
            collection.replace_one(
                {"ncid": "AA1"}, {"ncid": "AA1", "a": round_number}
            )
        assert collection.find(filter_doc) == find_full_scan(
            collection, filter_doc
        )
        assert collection.count_documents(filter_doc) == count_full_scan(
            collection, filter_doc
        )


@given(documents, index_specs, st.data())
@settings(max_examples=100)
def test_updates_match_oracle(docs, indexes, data):
    """Random mutations keep the planned collection oracle-equal."""
    collection, oracle = build_pair(docs, indexes)
    for _ in range(data.draw(st.integers(1, 3))):
        update = data.draw(
            st.sampled_from(
                [
                    {"$set": {"a": 9}},
                    {"$set": {"ncid": "ZZ9"}},
                    {"$unset": {"a": ""}},
                    {"$inc": {"b": 1}},
                    {"$rename": {"a": "c"}},
                ]
            )
        )
        filter_doc = data.draw(filters) or {}
        collection.update_many(filter_doc, update)
        oracle.update_many(filter_doc, update)
    assert list(collection.all()) == list(oracle.all())
    for probe in ({"ncid": "ZZ9"}, {"a": 9}, {"b": {"$gte": -9}}):
        assert collection.find(probe) == find_full_scan(oracle, probe)


def test_delete_and_replace_match_oracle():
    collection, oracle = build_pair(
        [{"_id": i, "ncid": f"AA{i % 3}", "n": i} for i in range(12)], []
    )
    for twin in (collection, oracle):
        twin.delete_many({"n": {"$gte": 8}})
        twin.replace_one({"_id": 2}, {"ncid": "BB9", "n": 99})
        twin.update_one({"_id": 3}, {"$set": {"ncid": "CC1"}})
    assert list(collection.all()) == list(oracle.all())
    assert len(collection) == len(oracle)


def test_malformed_filter_still_raises():
    collection = Collection("clusters")
    collection.insert_many({"_id": i, "ncid": f"AA{i}"} for i in range(4))
    with pytest.raises(QueryError):
        collection.find({"ncid": {"$wat": 1}})
    with pytest.raises(QueryError):
        collection.count_documents({"$bogus": []})
    with pytest.raises(QueryError):
        collection.find({1: 2})
    with pytest.raises(QueryError):
        collection.aggregate([{"$match": {1: 2}}])


# --------------------------------------------------------------- durability


def durable_workload(directory, mark=None):
    """Commit/checkpoint/drop cycle over two collections."""
    database = DurableDatabase(Path(directory))
    clusters = database.get_collection("clusters")
    for i in range(9):
        clusters.insert_one({"_id": i, "ncid": f"AA{i}", "n": i})
    clusters.create_index("ncid")
    database.commit()
    if mark:
        mark(database)
    clusters.update_one({"_id": 4}, {"$set": {"n": 40}})
    clusters.update_one({"_id": 5}, {"$set": {"ncid": "ZZ5"}})
    clusters.delete_many({"_id": 6})
    database.checkpoint()
    if mark:
        mark(database)
    scratch = database.create_collection("scratch")
    scratch.insert_one({"_id": 1, "ncid": "BB1"})
    database.commit()
    if mark:
        mark(database)
    database.drop_collection("scratch")
    clusters.insert_one({"_id": 10, "ncid": "AA10", "n": 10})
    database.commit()
    if mark:
        mark(database)
    database.close()


def canonical(database):
    state = {}
    for name in database.collection_names():
        collection = database[name]
        state[name] = {
            "docs": sorted(
                json.dumps(doc, sort_keys=True) for doc in collection.all()
            ),
            "indexes": sorted(
                json.dumps(spec, sort_keys=True)
                for spec in collection.index_specs()
            ),
        }
    return json.dumps(state, sort_keys=True)


EMPTY = canonical(Database("db"))


def reload_state(directory):
    from repro.docstore.errors import StorageError

    try:
        return canonical(Database.load(directory))
    except StorageError:
        return EMPTY


def test_durable_workload_roundtrip(tmp_path):
    durable_workload(tmp_path / "store")
    wals = sorted(p.name for p in (tmp_path / "store").glob("*.wal"))
    # One log per collection; the dropped one waits for the next checkpoint.
    assert wals == ["clusters.wal", "scratch.wal"]
    reopened = DurableDatabase(tmp_path / "store")
    clusters = reopened.get_collection("clusters")
    assert len(clusters) == 9  # 9 inserted - 1 deleted + 1 inserted
    assert clusters.find_one({"_id": 4})["n"] == 40
    assert clusters.find_one({"_id": 5})["ncid"] == "ZZ5"
    assert "scratch" not in reopened
    reopened.close(commit=False)


def test_crash_sweep(tmp_path):
    """Crash at every filesystem op; recovery must land on a committed
    state, and reopening for writes must agree with it."""
    states = {EMPTY}
    durable_workload(
        tmp_path / "reference", mark=lambda db: states.add(canonical(db))
    )
    total = faults.count_ops(lambda: durable_workload(tmp_path / "count"))
    assert total > 0
    failures = []
    for n in range(1, total + 1):
        target = tmp_path / f"crash-{n}"
        plan = faults.FaultyFileSystem(fail_at=n, mode="crash")
        with faults.inject(plan):
            with pytest.raises(faults.CrashError):
                durable_workload(target)
        recovered = reload_state(target)
        if recovered not in states:
            failures.append((n, plan.failed_op))
            continue
        reopened = DurableDatabase(target)
        agreed = canonical(reopened)
        reopened.close(commit=False)
        if agreed != recovered:
            failures.append((n, f"reopen disagrees after {plan.failed_op}"))
    assert not failures, f"{len(failures)}/{total} crash points leaked: {failures}"


def test_torn_write_sweep(tmp_path):
    states = {EMPTY}
    durable_workload(
        tmp_path / "reference", mark=lambda db: states.add(canonical(db))
    )
    total = faults.count_ops(
        lambda: durable_workload(tmp_path / "count"), only=("write",)
    )
    failures = []
    for n in range(1, total + 1):
        target = tmp_path / f"torn-{n}"
        plan = faults.FaultyFileSystem(fail_at=n, mode="torn", only=("write",))
        with faults.inject(plan):
            with pytest.raises(faults.CrashError):
                durable_workload(target)
        if reload_state(target) not in states:
            failures.append((n, plan.failed_op))
    assert not failures, f"{len(failures)}/{total} torn points leaked: {failures}"


# -------------------------------------------------------------------- stats


def test_database_stats_reports_documents_and_indexes():
    database = Database("db")
    collection = database.create_collection("clusters")
    collection.insert_many(
        {"_id": i, "ncid": f"AA{i}", "n": i} for i in range(40)
    )
    collection.create_index("ncid")
    database.create_collection("plain").insert_one({"_id": 1})
    stats = database.stats()
    assert stats["collections"]["clusters"] == {
        "documents": 40,
        "indexes": ["ncid_hash"],
        "quarantined": False,
    }
    assert stats["collections"]["plain"]["documents"] == 1
    assert stats["resilience"]["quarantined_collections"] == 0


def test_stats_render_table():
    from repro.report import render_collection_stats

    database = Database("db")
    database.create_collection("c").insert_one({"_id": 1, "ncid": "AA1"})
    text = render_collection_stats(database.stats())
    assert "quarantined" in text and "c" in text
