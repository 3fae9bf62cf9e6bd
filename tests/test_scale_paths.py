"""Exercise the at-scale code paths that small inputs normally bypass:
shuffle-join term encoding, Dataset.join BGP joins, distributed groupby
finals, distributed dictionary ranking."""

import pyarrow as pa
import pytest
import ray.data as rd

from de_ray.rdfio import read_rdf

from conftest import RES


def test_join_encode_matches_broadcast(tmp_path):
    """use_join=True (dictionary too big to broadcast) must produce the same
    ID triples as the broadcast encoder."""
    from de_ray.hdt.dictionary import build_dictionary
    from de_ray.hdt.triples import encode_triples

    ds = read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt"]).materialize()
    d = build_dictionary(ds)
    bc = encode_triples(ds, d, use_join=False)
    jn = encode_triples(ds, d, use_join=True)
    key = lambda r: (r["s_id"], r["p_id"], r["o_id"], r["graph"])
    assert sorted(map(key, bc.take_all())) == sorted(map(key, jn.take_all()))


def test_distributed_dictionary_matches_driver_final():
    """driver_final_limit=0 forces the distributed groupby+sort+rank path;
    IDs must be identical to the driver-final path."""
    from de_ray.hdt.dictionary import build_dictionary

    ds = read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt", f"{RES}/pineapple.ttl"]).materialize()
    a = build_dictionary(ds)
    b = build_dictionary(ds, driver_final_limit=0)
    rows_a = sorted((r["term"], r["section"], r["id"]) for r in a.sections.take_all())
    rows_b = sorted((r["term"], r["section"], r["id"]) for r in b.sections.take_all())
    assert rows_a == rows_b
    assert a.counts == b.counts


def test_roles_tap_dictionary_parity(tmp_path):
    """A dictionary built from roles_tap_stage side-files must be identical
    to one built by the normal roles pass — on BOTH finals (driver, forced
    distributed) — and the tap must pass its batches through unchanged."""
    from de_ray.hdt.dictionary import build_dictionary, roles_tap_stage

    ds = read_rdf(
        [f"{RES}/apple.ttl", f"{RES}/banana.nt", f"{RES}/pineapple.ttl"]
    ).materialize()
    roles_dir = str(tmp_path / "roles_tap")
    tapped = roles_tap_stage(ds, roles_dir).materialize()
    key = lambda r: (r["subj"], r["pred"], r["obj"], r["graph"])
    assert sorted(map(key, tapped.take_all())) == sorted(map(key, ds.take_all()))

    base = build_dictionary(ds)
    via_tap = build_dictionary(ds, roles_dir=roles_dir)
    rows = lambda d: sorted(
        (r["term"], r["section"], r["id"]) for r in d.sections.take_all()
    )
    assert rows(via_tap) == rows(base)
    assert via_tap.counts == base.counts
    assert via_tap.strings_size == base.strings_size
    assert via_tap.timings["roles_pass"] == 0.0  # the pass was skipped

    dist = build_dictionary(ds, driver_final_limit=0, roles_dir=roles_dir)
    assert rows(dist) == rows(base)
    assert dist.counts == base.counts

    # duplicate tap files (a retried task) must not change the result
    import shutil as _sh

    files = sorted(
        f for f in __import__("os").listdir(roles_dir) if f.endswith(".parquet")
    )
    _sh.copy(
        f"{roles_dir}/{files[0]}", f"{roles_dir}/part-retrydupe.parquet"
    )
    dup = build_dictionary(ds, roles_dir=roles_dir)
    assert rows(dup) == rows(base)
    assert dup.counts == base.counts

    # missing/empty dir falls back to the normal roles pass
    fb = build_dictionary(ds, roles_dir=str(tmp_path / "nonexistent"))
    assert rows(fb) == rows(base)


def test_bgp_hash_join_path(monkeypatch):
    """Force the Dataset.join path (small side above the broadcast limit)."""
    import de_ray.query.engine as eng
    from de_ray.query.engine import DatasetSource, evaluate
    from de_ray.query.parser import parse_query

    monkeypatch.setattr(eng, "BROADCAST_ROWS", 0)
    ds = read_rdf([f"{RES}/banana.nt"])
    q = parse_query(
        "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
        'SELECT ?f WHERE { ?f rdf:type ex:Fruit ; ex:hasColor "yellow" }'
    )
    res = evaluate(q, DatasetSource(ds))
    assert [r["f"] for r in res.ds.take_all()] == ["http://example.org/Banana"]


def test_distributed_canonicalize_path():
    """driver_final_limit=0 forces the bucket-groupby dedup path."""
    from de_ray.stages.canonicalize import canonicalize_stage

    t = pa.table(
        {
            "subj": pa.array(["s1", "s1", "s2"] * 10, pa.large_string()),
            "pred": pa.array(["p"] * 30, pa.large_string()),
            "obj": pa.array(["o"] * 30, pa.large_string()),
            "graph": pa.array(["g"] * 30, pa.large_string()),
        }
    )
    out = canonicalize_stage(rd.from_arrow(t), driver_final_limit=0, num_buckets=4)
    rows = {(r["subj"], r["pred"], r["obj"]) for r in out.take_all()}
    assert len(rows) == 2
    assert out.count() == 2


def test_service_description():
    from de_ray.model import RDF
    from de_ray.query.service import SD, service_description

    t = service_description()
    assert ("urn:de-ray:service", RDF + "type", SD + "Service") in t
    assert any(p == SD + "resultFormat" for _, p, _o in t)


def test_store_scale_lookup_and_decode(tmp_path, monkeypatch):
    """TERM_MAP_LIMIT=0 forces the parquet range-scan lookup and the
    hash-join decode; results must match the broadcast paths."""
    import de_ray.hdt.store as st
    from de_ray.hdt.store import Store, write_store
    from de_ray.rdfio import read_rdf

    out = str(tmp_path / "fruits")
    write_store(read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt"]), out)

    small = Store(out)
    base = sorted(
        (r["subj"], r["pred"], r["obj"])
        for r in small.pattern_scan(p="http://example.org/hasColor").take_all()
    )
    base_id = small.id_for_term("subj", "http://example.org/Banana")

    monkeypatch.setattr(st, "TERM_MAP_LIMIT", 0)
    big = Store(out)
    got = sorted(
        (r["subj"], r["pred"], r["obj"])
        for r in big.pattern_scan(p="http://example.org/hasColor").take_all()
    )
    assert got == base and len(got) > 0
    assert big.id_for_term("subj", "http://example.org/Banana") == base_id
    assert big.id_for_term("subj", "http://example.org/Nope") is None


def test_front_coded_manifest(tmp_path):
    """Distributed front-coding writes a manifest whose byte ranges unpack
    to the dictionary's own sorted term runs."""
    import json as _json

    from de_ray.hdt.dictionary import SECTION_NAMES, unpack_front_coded
    from de_ray.hdt.store import Store, write_store
    from de_ray.rdfio import read_rdf
    import pyarrow.parquet as pq
    import os

    out = str(tmp_path / "m")
    write_store(read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt"]), out)
    with open(os.path.join(out, "front_coded", "manifest.json")) as f:
        manifest = _json.load(f)
    dict_t = pq.read_table(os.path.join(out, "dictionary")).to_pandas()
    for sec, name in SECTION_NAMES.items():
        want = dict_t[dict_t["section"] == sec].sort_values("sec_rank")["term"].tolist()
        with open(os.path.join(out, "front_coded", f"{name}.bin"), "rb") as f:
            data = f.read()
        got = []
        for cm in manifest[name]:
            chunk = data[cm["byte_offset"] : cm["byte_offset"] + cm["byte_len"]]
            got.extend(unpack_front_coded(chunk))
        assert got == want


def test_fp_encode_gid_and_fallback(monkeypatch):
    """Fingerprint task encoding with graphs= emits int32 (s,p,o) + g_id;
    the collision-fallback actor path and the join path must agree."""
    import pyarrow as pa

    import de_ray.hdt.triples as T
    from de_ray.hdt.dictionary import build_dictionary

    ds = read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt"]).materialize()
    d = build_dictionary(ds)
    graphs = sorted({r["graph"] for r in ds.select_columns(["graph"]).take_all()})

    fp = T.encode_triples(ds, d, graphs=graphs)
    sch = fp.schema()
    assert dict(zip(sch.names, sch.types))["s_id"] == pa.int32()
    assert "g_id" in sch.names

    key = lambda r: (r["s_id"], r["p_id"], r["o_id"], r["g_id"])
    fp_rows = sorted(map(key, fp.take_all()))

    # force the string-index fallback (as if a 64-bit fp collision occurred)
    monkeypatch.setattr(T, "fp_spaces_from_table", lambda tbl: None)
    monkeypatch.setattr(T, "TASK_ENCODE_TERMS", 0)  # → actor-pool path
    fb = T.encode_triples(ds, d, graphs=graphs)
    assert sorted(map(key, fb.take_all())) == fp_rows
    monkeypatch.undo()

    jn = T.encode_triples(ds, d, graphs=graphs, use_join=True)
    assert sorted(map(key, jn.take_all())) == fp_rows

    # g_id indexes into the graphs list; every graph appears
    gids = {r[3] for r in fp_rows}
    assert gids == set(range(len(graphs)))


def test_packed_store_matches_unpacked(tmp_path, monkeypatch):
    """The int64 spog-packed sort/dedup/stats path must produce a store
    byte-identical in content (triples rows + header stats) to the 4-column
    fallback path it replaces."""
    import json

    import de_ray.hdt.store as S
    from de_ray.hdt.store import write_store

    ds = read_rdf(
        [f"{RES}/apple.ttl", f"{RES}/banana.nt", f"{RES}/apple.ttl"]
    ).materialize()
    h_packed = write_store(ds, str(tmp_path / "packed"))
    monkeypatch.setattr(S, "pack_spec_for", lambda *_a, **_k: None)
    h_plain = write_store(ds, str(tmp_path / "plain"))

    import pyarrow.parquet as pq

    a = pq.read_table(str(tmp_path / "packed" / "triples")).sort_by(
        [("s_id", "ascending"), ("p_id", "ascending"), ("o_id", "ascending"), ("g_id", "ascending")]
    )
    b = pq.read_table(str(tmp_path / "plain" / "triples")).sort_by(
        [("s_id", "ascending"), ("p_id", "ascending"), ("o_id", "ascending"), ("g_id", "ascending")]
    )
    assert a.equals(b)
    for k in ("void:triples", "originalSize", "numSharedSubjectObject", "graph_list"):
        assert h_packed[k] == h_plain[k], k


def test_pack_spec_roundtrip():
    """Packing then unpacking recovers every (s,p,o,g) and preserves order."""
    import numpy as np

    from de_ray.hdt.dictionary import build_dictionary
    from de_ray.hdt.triples import _pack_table, pack_spec_for

    ds = read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt"]).materialize()
    d = build_dictionary(ds)
    pack = pack_spec_for(d, ["file:///a", "file:///b"])
    assert pack is not None
    s = np.array([1, 2, d.max_subject_id() or 1], dtype=np.int64)
    p = np.array([1, d.num_predicates() or 1, 1], dtype=np.int64)
    o = np.array([d.max_object_id() or 1, 1, 2], dtype=np.int64)
    g = np.array([0, 1, 0], dtype=np.int64)
    tbl = pa.table({"s_id": s, "p_id": p, "o_id": o, "g_id": g})
    k = _pack_table(tbl, pack).column("spog").to_numpy()
    assert ((k >> pack.s_shift) == s).all()
    assert (((k >> pack.p_shift) & pack.p_mask) == p).all()
    assert (((k >> pack.o_shift) & pack.o_mask) == o).all()
    assert ((k & pack.g_mask) == g).all()
    # numeric order of the key == lexicographic (s,p,o,g) order
    order = np.lexsort((g, o, p, s))
    assert (np.argsort(k, kind="stable") == order).all()


def test_dictionary_distributed_final_tolerates_schemaless_empty_blocks():
    """The Aggregate/map_groups machinery can emit SCHEMA-LESS empty blocks
    (observed at 8M+ role rows); the per-block remote fns must pass them
    through instead of KeyErroring on the missing columns."""
    import pyarrow as pa
    import ray

    from de_ray.hdt.dictionary import _attach_ids, _block_section_counts

    empty = pa.table({})
    counts, strlen = ray.get(_block_section_counts.remote(empty))
    assert counts == {} and strlen == 0
    out = ray.get(_attach_ids.remote(empty, {}, 0))
    assert out.num_rows == 0
    assert set(out.schema.names) == {"term", "section", "sec_rank", "id"}


def test_distributed_global_distinct_aggregates(monkeypatch):
    """GLOBAL_AGG_COLLECT_LIMIT=0 forces the distributed no-GROUP-BY
    DISTINCT/GROUP_CONCAT/SAMPLE path (per-block dedup combiner + groupby,
    single-aggregate partial merges); results must match the collect path."""
    import de_ray.query.engine as eng
    from de_ray.query.engine import DatasetSource, evaluate
    from de_ray.query.parser import parse_query

    n = 500
    objs = [
        f'"{i % 7}"^^<http://www.w3.org/2001/XMLSchema#integer>' for i in range(n)
    ]
    t = pa.table(
        {
            "subj": pa.array([f"urn:s{i}" for i in range(n)], pa.large_string()),
            "pred": pa.array(["urn:p"] * n, pa.large_string()),
            "obj": pa.array(objs, pa.large_string()),
            "graph": pa.array(["g"] * n, pa.large_string()),
        }
    )
    ds = rd.from_arrow(t)
    q = (
        "SELECT (COUNT(DISTINCT ?o) AS ?n) (SUM(DISTINCT ?o) AS ?s) "
        "(MIN(?o) AS ?mn) (MAX(?o) AS ?mx) "
        '(GROUP_CONCAT(DISTINCT ?o; SEPARATOR="|") AS ?gc) '
        "(SAMPLE(?o) AS ?sm) (COUNT(*) AS ?total) "
        "WHERE { ?x <urn:p> ?o }"
    )
    base = evaluate(parse_query(q), DatasetSource(ds)).ds.take_all()[0]
    monkeypatch.setattr(eng, "GLOBAL_AGG_COLLECT_LIMIT", 0)
    dist = evaluate(parse_query(q), DatasetSource(ds)).ds.take_all()[0]
    for k in ("n", "s", "mn", "mx", "gc", "total"):
        assert dist[k] == base[k], k
    assert dist["sm"] in set(objs)
    assert base["n"] == '"7"^^<http://www.w3.org/2001/XMLSchema#integer>' or base[
        "n"
    ].startswith('"7"')


def test_describe_var_single_scan():
    """DESCRIBE ?x over a multi-thousand-solution binding must issue ONE
    full scan semi-joined against the IRI set, not one scan per IRI."""
    from de_ray.query.engine import DatasetSource, evaluate
    from de_ray.query.parser import parse_query

    n = 3000
    t = pa.table(
        {
            "subj": pa.array([f"urn:s{i}" for i in range(n)], pa.large_string()),
            "pred": pa.array(
                ["urn:p" if i % 2 else "urn:q" for i in range(n)], pa.large_string()
            ),
            "obj": pa.array([f'"{i}"' for i in range(n)], pa.large_string()),
            "graph": pa.array(["g"] * n, pa.large_string()),
        }
    )
    src = DatasetSource(rd.from_arrow(t))
    calls = []
    orig = src.scan

    def counting_scan(s, p, o):
        calls.append((s, p, o))
        return orig(s, p, o)

    src.scan = counting_scan
    res = evaluate(
        parse_query("DESCRIBE ?x WHERE { ?x <urn:p> ?o }"), src
    )
    rows = res.ds.take_all()
    # the WHERE matches the odd-index subjects; DESCRIBE returns their triples
    assert len(rows) == n // 2
    assert all(r["pred"] == "urn:p" for r in rows)
    # exactly one wildcard scan beyond the BGP's own pattern scan
    wild = [c for c in calls if c == (None, None, None)]
    assert len(wild) == 1, calls


def test_describe_var_with_optional_unbound_column():
    """DESCRIBE ?x where ?x comes from an OPTIONAL (some solution blocks
    lack the column entirely, and an unbound constant term rides along):
    the IRI-column stage must stay string-typed on empty blocks."""
    from de_ray.query.engine import DatasetSource, evaluate
    from de_ray.query.parser import parse_query

    t = pa.table(
        {
            "subj": pa.array(["urn:a", "urn:b"], pa.large_string()),
            "pred": pa.array(["urn:p", "urn:q"], pa.large_string()),
            "obj": pa.array(["urn:b", '"lit"'], pa.large_string()),
            "graph": pa.array(["g", "g"], pa.large_string()),
        }
    )
    src = DatasetSource(rd.from_arrow(t))
    res = evaluate(
        parse_query(
            "DESCRIBE ?y <urn:a> WHERE { ?s <urn:p> ?o . "
            "OPTIONAL { ?o <urn:nope> ?y } }"
        ),
        src,
    )
    rows = sorted((r["subj"], r["pred"], r["obj"]) for r in res.ds.take_all())
    # ?y never binds → only the constant term <urn:a> is described
    assert rows == [("urn:a", "urn:p", "urn:b")]
