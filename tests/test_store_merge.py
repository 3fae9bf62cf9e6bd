"""Distributed store catenation (HDTCat-style, de_ray/hdt/merge.py):
merging two finished stores must equal building one store from the union
of their inputs — dictionary, header stats and decoded triples alike."""

import pyarrow.parquet as pq
import pytest

from de_ray.hdt.merge import merge_stores
from de_ray.hdt.store import Store, write_store
from de_ray.rdfio import read_rdf

from conftest import RES

STAT_KEYS = (
    "void:triples",
    "void:properties",
    "void:distinctSubjects",
    "void:distinctObjects",
    "numSharedSubjectObject",
    "dictionarysizeStrings",
    "originalSize",
)


def _decoded(path):
    rows = Store(path).pattern_scan().take_all()
    return sorted((r["subj"], r["pred"], r["obj"], r.get("graph", "")) for r in rows)


def _dict_rows(path):
    t = pq.read_table(f"{path}/dictionary", columns=["term", "section", "id"])
    return sorted(zip(*[t.column(c).to_pylist() for c in ("term", "section", "id")]))


@pytest.fixture(scope="module")
def stores(tmp_path_factory, ray_session):
    root = str(tmp_path_factory.mktemp("merge"))
    write_store(read_rdf([f"{RES}/apple.ttl"]), f"{root}/a")
    write_store(read_rdf([f"{RES}/banana.nt", f"{RES}/pineapple.ttl"]), f"{root}/b")
    write_store(
        read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt", f"{RES}/pineapple.ttl"]),
        f"{root}/direct",
    )
    return root


def test_merge_equals_direct_build(stores):
    hdr = merge_stores([f"{stores}/a", f"{stores}/b"], f"{stores}/m")
    direct = Store(f"{stores}/direct").header
    for k in STAT_KEYS:
        assert hdr[k] == direct[k], k
    assert _dict_rows(f"{stores}/m") == _dict_rows(f"{stores}/direct")
    assert _decoded(f"{stores}/m") == _decoded(f"{stores}/direct")


def test_merge_is_idempotent(stores):
    """A ∪ A = A: cross-store duplicate (s,p,o,g) rows collapse in the
    adjacent-equality dedup after the merged sort."""
    merge_stores([f"{stores}/a", f"{stores}/a"], f"{stores}/aa")
    assert _decoded(f"{stores}/aa") == _decoded(f"{stores}/a")
    assert (
        Store(f"{stores}/aa").header["void:triples"]
        == Store(f"{stores}/a").header["void:triples"]
    )


def test_merge_distributed_remap_path(stores):
    """lut_limit=0 forces the three-equi-join remap (the 10^12-doc path);
    output must be identical to the broadcast-LUT path."""
    merge_stores([f"{stores}/a", f"{stores}/b"], f"{stores}/mdist", lut_limit=0)
    assert _decoded(f"{stores}/mdist") == _decoded(f"{stores}/direct")
    assert _dict_rows(f"{stores}/mdist") == _dict_rows(f"{stores}/direct")


def _decoded_ds(ds):
    rows = ds.take_all()
    return sorted((r["subj"], r["pred"], r["obj"], r.get("graph", "")) for r in rows)


def test_diff_recovers_other_half(stores):
    """direct \\ a = b (the fixtures are disjoint): the snapshot delta
    computed purely on remapped integer keys matches b's decoded triples."""
    from de_ray.hdt.merge import diff_stores

    delta = _decoded_ds(diff_stores(f"{stores}/direct", f"{stores}/a"))
    assert delta == _decoded(f"{stores}/b")


def test_diff_self_is_empty(stores):
    from de_ray.hdt.merge import diff_stores

    assert diff_stores(f"{stores}/a", f"{stores}/a").count() == 0


def test_diff_distributed_remap_path(stores):
    """lut_limit=0 forces the equi-join dictionary remap; same delta."""
    from de_ray.hdt.merge import diff_stores

    delta = _decoded_ds(
        diff_stores(f"{stores}/direct", f"{stores}/a", lut_limit=0)
    )
    assert delta == _decoded(f"{stores}/b")


def test_merge_promotes_section(tmp_path):
    """A term that is subject-only in one store and object-only in the
    other must land in the SHARED section of the merged dictionary (the
    role-union step HDTCat's dictionary merge performs)."""
    import ray.data as rd

    a = rd.from_items(
        [{"subj": "http://x/s1", "pred": "http://x/p", "obj": '"v1"'}]
    )
    b = rd.from_items(
        [{"subj": "http://x/s2", "pred": "http://x/p", "obj": "http://x/s1"}]
    )
    write_store(a, f"{tmp_path}/pa")
    write_store(b, f"{tmp_path}/pb")
    merge_stores([f"{tmp_path}/pa", f"{tmp_path}/pb"], f"{tmp_path}/pm")
    hdr = Store(f"{tmp_path}/pm").header
    assert hdr["numSharedSubjectObject"] == 1  # s1 promoted
    assert hdr["void:triples"] == 2
    rows = {r for r in map(tuple, ( (r["subj"], r["pred"], r["obj"]) for r in Store(f"{tmp_path}/pm").pattern_scan().take_all()))}
    assert ("http://x/s2", "http://x/p", "http://x/s1") in rows


def test_diff_forced_bucket_anti_join(stores, monkeypatch):
    """Force semi_join's hash-bucket path (broadcast_limit=0): both sides
    key on 'spog', which used to crash the tagged union (hdt review #1)."""
    import de_ray.dataops.joins as joins
    from de_ray.hdt.merge import diff_stores

    orig = joins.semi_join

    def tiny_limit(*a, **kw):
        kw["broadcast_limit"] = 0
        return orig(*a, **kw)

    monkeypatch.setattr(joins, "semi_join", tiny_limit)
    delta = _decoded_ds(diff_stores(f"{stores}/direct", f"{stores}/a"))
    assert delta == _decoded(f"{stores}/b")


def test_distributed_remap_native_join_dtypes(stores):
    """broadcast_limit=0 forces Ray's native hash join, which rejects
    mismatched key dtypes: the int32 store ids must be widened to match
    the int64 dictionary ids (hdt review #2). Identity remap as oracle."""
    import ray.data as rd

    from de_ray.hdt.merge import _read_id_triples, _remap_ids_distributed

    sec = rd.read_parquet(
        f"{stores}/a/dictionary", columns=["term", "section", "id"]
    )
    out = _remap_ids_distributed(
        _read_id_triples(f"{stores}/a"), sec, sec, broadcast_limit=0
    ).take_all()
    orig = _read_id_triples(f"{stores}/a").take_all()

    def key(rows):
        return sorted((r["s_id"], r["p_id"], r["o_id"], r["g_id"]) for r in rows)

    assert key(out) == key(orig)
