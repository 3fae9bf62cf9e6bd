"""HDT-style store build + scans vs the reference's own fixtures/semantics."""

import os

import pytest

from de_ray.hdt.dictionary import pack_front_coded, unpack_front_coded
from de_ray.rdfio import read_rdf
from de_ray.hdt.store import Store, view, write_store

from conftest import REFERENCE_RES, RES, needs_reference

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@pytest.fixture(scope="module")
def apple_store(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("store") / "apple")
    ds = read_rdf([f"{RES}/apple.ttl"])
    write_store(ds, out)
    return out


@pytest.fixture(scope="module")
def reference_apple_store(tmp_path_factory):
    """Store over the upstream apple.ttl, whose apple.hdt header and 9-triple
    shape (FIXTURES.md §5) the tests below assert."""
    out = str(tmp_path_factory.mktemp("store") / "reference_apple")
    write_store(read_rdf([f"{REFERENCE_RES}/apple.ttl"]), out)
    return out


@needs_reference("apple.ttl")
def test_header_matches_apple_hdt(reference_apple_store):
    """Stats must match the reference apple.hdt header values exactly."""
    h = view(reference_apple_store)
    assert h["void:triples"] == 9
    assert h["void:properties"] == 7
    assert h["numSharedSubjectObject"] == 1  # ex:Fruit is subject AND object
    assert h["void:distinctSubjects"] == 2
    assert h["dictionaryblockSize"] == 16
    assert h["triplesOrder"] == "SPO"
    assert h["graphs"] == {"file:///apple.ttl": 9}


def test_shared_section_id_semantics(apple_store):
    """ex:Fruit (shared) must get the same low ID in subject and object space."""
    st = Store(apple_store)
    fid_s = st.id_for_term("subj", "http://example.org/Fruit")
    fid_o = st.id_for_term("obj", "http://example.org/Fruit")
    assert fid_s == fid_o == 1  # only shared term → ID 1 in both spaces
    apple_id = st.id_for_term("subj", "http://example.org/Apple")
    assert apple_id == 2  # shared IDs precede subject-only IDs


@needs_reference("apple.ttl")
def test_dictionary_ids_dense_and_sorted(reference_apple_store):
    st = Store(reference_apple_store)
    m = st.id_maps()
    # predicate space dense 1..7, lexicographic by term
    preds = sorted(m["pred"].items(), key=lambda kv: kv[1])
    assert [i for _, i in preds] == list(range(1, 8))
    assert [t for t, _ in preds] == sorted(t for t, _ in preds)


@needs_reference("apple.ttl")
def test_pattern_scans(reference_apple_store):
    st = Store(reference_apple_store)
    rows = st.pattern_scan(p="http://example.org/hasColor").take_all()
    assert [(r["subj"], r["obj"]) for r in rows] == [("http://example.org/Apple", '"Red"')]
    # bound subject+predicate
    rows = st.pattern_scan(s="http://example.org/Apple", p=RDF_TYPE).take_all()
    assert rows[0]["obj"] == "http://example.org/Fruit"
    # unbound scan returns all, graph filter works, unknown term short-circuits
    assert st.triples_all().count() == 9
    assert st.pattern_scan(graphs=["file:///apple.ttl"]).count() == 9
    assert st.pattern_scan(graphs=["file:///other"]).count() == 0
    assert st.pattern_scan(s="http://nope").count() == 0


def test_raw_equals_store_roundtrip(apple_store):
    """Reference conformance: raw-RDF triple set == store-scan triple set."""
    from de_ray.rdfio.turtle import parse_turtle

    with open(f"{RES}/apple.ttl") as f:
        raw = set(parse_turtle(f.read()))
    st = Store(apple_store)
    got = {(r["subj"], r["pred"], r["obj"]) for r in st.triples_all().take_all()}
    assert got == raw


@needs_reference("apple.ttl", "banana.nt")
def test_union_two_files_dedups(tmp_path):
    """Combined store over two files answers without dupes (reference
    tests/test-commands.rs:256-326 semantics)."""
    ds = read_rdf([f"{REFERENCE_RES}/apple.ttl", f"{REFERENCE_RES}/banana.nt"])
    out = str(tmp_path / "combined")
    h = write_store(ds, out)
    assert h["void:triples"] == 21
    st = Store(out)
    fruits = st.pattern_scan(p=RDF_TYPE, o="http://example.org/Fruit").take_all()
    assert {r["subj"] for r in fruits} == {
        "http://example.org/Apple",
        "http://example.org/Banana",
    }
    assert sorted(st.graphs()) == ["file:///apple.ttl", "file:///banana.nt"]
    # graph-restricted scan (J3)
    assert st.pattern_scan(p=RDF_TYPE, graphs=["file:///banana.nt"]).count() == 2


def test_front_coding_roundtrip():
    terms = sorted(
        ["http://example.org/a", "http://example.org/ab", "http://example.org/abc"]
        + [f"http://example.org/x{i:03d}" for i in range(40)]
    )
    packed = pack_front_coded(terms)
    assert unpack_front_coded(packed) == terms
    raw = sum(len(t.encode()) for t in terms)
    assert len(packed) < raw  # actually compresses


@needs_reference("apple.ttl")
def test_adjacency_segments(reference_apple_store):
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(reference_apple_store, "adjacency"))
    assert t.num_rows >= 1
    n = sum(t.column("n_triples").to_pylist())
    assert n == 9
    # segments are per sorted block (s_min/s_max recorded so readers merge:
    # a subject run spanning two blocks yields one 'last' mark per block).
    # Merged invariant: the union of per-segment subjects is the store's
    # distinct-subject set, and every segment's bitmap_y marks exactly its
    # own distinct subjects.
    subjects = set()
    for seg_subj, seg_y in zip(
        t.column("subjects").to_pylist(), t.column("bitmap_y").to_pylist()
    ):
        assert sum(seg_y) == len(set(seg_subj))
        subjects.update(seg_subj)
    assert len(subjects) == 2  # Apple, Fruit
    assert sum(len(x) for x in t.column("z").to_pylist()) == 9


def test_dedup_scattered_duplicates(tmp_path):
    """Exact dedup must hold under ANY block layout: duplicates of one
    triple scattered across many non-adjacent blocks (what a
    non-order-preserving checkpoint write produces) are still removed.
    Regression: the former cluster-contiguity dedup kept 42 dupes at 8 CPUs
    on the scaled corpus because a doc's rows landed 160k rows apart."""
    import pandas as pd
    import ray.data as rd

    rows = []
    for i in range(2000):
        rows.append(
            {
                "subj": f"http://example.org/s{i % 37}",
                "pred": f"http://example.org/p{i % 5}",
                "obj": f'"v{i % 11}"',
                "graph": "file:///g",
            }
        )
    df = pd.DataFrame(rows)
    distinct = len(df.drop_duplicates())
    # many tiny blocks, duplicates guaranteed non-adjacent
    ds = rd.from_pandas([df.iloc[i : i + 40] for i in range(0, len(df), 40)])
    out = str(tmp_path / "scattered")
    h = write_store(ds, out)
    assert h["void:triples"] == distinct
    st = Store(out)
    got = st.triples_all().take_all()
    assert len(got) == distinct
    assert len({(r["subj"], r["pred"], r["obj"]) for r in got}) == distinct


@pytest.mark.parametrize("force_no_pack", [False, True])
def test_finalize_slicing_boundaries(tmp_path, monkeypatch, force_no_pack):
    """Forced multi-slice finalize (DE_RAY_FINALIZE_SLICE_ROWS=57) must
    produce the exact same store as the single-slice path: duplicate runs
    (~19 rows long here) span slice boundaries, so every intra-block
    boundary drop decision (k[start] == k[start-1]) is exercised, in both
    the packed-key and 4-column (pack=None) task branches."""
    import pandas as pd
    import ray.data as rd

    rows = []
    for i in range(2000):
        rows.append(
            {
                "subj": f"http://example.org/s{i % 7}",
                "pred": f"http://example.org/p{i % 3}",
                "obj": f'"v{i % 5}"',
                "graph": "file:///g",
            }
        )
    df = pd.DataFrame(rows)
    distinct = len(df.drop_duplicates())
    ds = rd.from_pandas([df.iloc[i : i + 40] for i in range(0, len(df), 40)])
    if force_no_pack:
        import de_ray.hdt.store as store_mod

        monkeypatch.setattr(store_mod, "pack_spec_for", lambda *a, **k: None)
    monkeypatch.setenv("DE_RAY_FINALIZE_SLICE_ROWS", "57")
    out = str(tmp_path / "sliced")
    h = write_store(ds, out)
    assert h["void:triples"] == distinct
    st = Store(out)
    got = st.triples_all().take_all()
    assert len(got) == distinct
    assert {(r["subj"], r["pred"], r["obj"]) for r in got} == {
        (r.subj, r.pred, r.obj) for r in df.drop_duplicates().itertuples()
    }
