"""HDT-style store: distributed layout, write orchestration, load + scans.

The reference writes one ``.hdt`` file (ControlInfo + Header + Dictionary +
BitmapTriples; ``src/create.rs:43-50``). The distributed equivalent is a
directory (SURVEY §2.2 K1):

    out/
      header.json                    # G1 stats (+ per-graph counts)
      dictionary/*.parquet           # (term, section, sec_rank, id), sorted
      front_coded/<section>.bin   # block-16 plain front coding
      triples/*.parquet              # (s_id,p_id,o_id,graph), SPO-sorted blocks
      adjacency/*.parquet            # BitmapTriples segments (Y/Z + bitmaps)
      _SUCCESS                       # checkpoint marker (resumable layout)

Pattern scans (J1) read ``triples/`` with pyarrow filter expressions —
predicate pushdown prunes parquet row groups on the sorted s_id, exactly the
role BitmapTriples' subject index plays in the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import urllib.parse
from typing import Dict, Iterable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from de_ray.hdt.dictionary import (
    SECTION_NAMES,
    SECTION_OBJECT,
    SECTION_PREDICATE,
    SECTION_SHARED,
    SECTION_SUBJECT,
    DictionaryBuild,
    pack_front_coded,
)
from de_ray.hdt.header import build_header
from de_ray.hdt.triples import (
    encode_triples,
    finalize_write_sorted_blocks,
    id_dtype_for,
    local_distinct,
    pack_adjacency_block,
    pack_spec_for,
    sort_spo,
)
from de_ray.functions.agg import adaptive_grouped_sum
from de_ray.hdt.dictionary import build_dictionary

# dictionaries above this many terms are never fully loaded into one
# process: bound-term lookup becomes a parquet range scan and decode
# becomes a hash join (VERDICT r1 #7/#8). The broadcast decode LUT is the
# Arrow sections table served zero-copy from plasma — all workers on a
# node SHARE one mapped copy (~50 B/term ≈ 2 GiB at this limit on the
# 128 GiB node class), so the limit guards per-NODE memory, not per-task.
TERM_MAP_LIMIT = 40_000_000

# builds at or above this many input rows use the bandwidth-lean layout
# (unpinned tagged blocks + input re-reads); smaller builds pin
# aggressively — they are latency-bound, not bandwidth-bound
LEAN_BUILD_ROWS = 20_000_000


@ray.remote
def _block_sec_meta(tbl: pa.Table) -> Dict[int, tuple]:
    """Per-section (row_start_in_block, count) of one sorted block."""
    secs = tbl.column("section").to_numpy(zero_copy_only=False)
    out: Dict[int, tuple] = {}
    i = 0
    n = len(secs)
    while i < n:
        j = i
        while j < n and secs[j] == secs[i]:
            j += 1
        out[int(secs[i])] = (i, j - i)
        i = j
    return out


@ray.remote
def _pack_range(slices: List[tuple], *tbls: pa.Table) -> bytes:
    """Pack one front-coding chunk whose terms span the given block slices
    (``slices[i]`` = (row_start, row_stop) inside ``tbls[i]``)."""
    terms: List[str] = []
    for (start, stop), tbl in zip(slices, tbls):
        terms.extend(tbl.column("term").slice(start, stop - start).to_pylist())
    return pack_front_coded(terms)


def _write_front_coded(dict_build: DictionaryBuild, out_dir: str) -> None:
    """Front-code each section with DISTRIBUTED per-range pack tasks
    (VERDICT r1 #7: never materialize the term set in one process).

    The sections Dataset is sorted by (section, term); the driver only reads
    per-block metadata (section row ranges), plans chunks of 64 Ki terms
    (a multiple of the front-coding block size 16, so every chunk starts a
    new block and the concatenated bytes are identical to a serial pack),
    and streams the packed chunk bytes to disk in order. A manifest maps
    (section, rank range) → byte range for ranged decoding."""
    os.makedirs(out_dir, exist_ok=True)
    refs = dict_build.sections.materialize().to_arrow_refs()
    # per-block meta/pack tasks run where the block lives (soft affinity)
    # — on a multi-node cluster a spilled task would otherwise pull the
    # whole sections block cross-node for an O(section-runs) scan
    from de_ray.state.locality import block_locations, node_affinity_opts

    locs = block_locations(refs)
    metas = ray.get(
        [_block_sec_meta.options(**node_affinity_opts(r, locs)).remote(r) for r in refs]
    )

    CHUNK = 64 * 1024  # terms per pack task; multiple of block size 16
    manifest: Dict[str, List[dict]] = {}
    for sec, sec_name in SECTION_NAMES.items():
        # global (block, in-block-start, count) runs of this section, in order
        runs = [
            (bi, meta[sec][0], meta[sec][1]) for bi, meta in enumerate(metas) if sec in meta
        ]
        total = sum(c for _, _, c in runs)
        chunk_refs = []
        chunk_meta = []
        lo = 0
        while lo < total:
            hi = min(lo + CHUNK, total)
            slices: List[tuple] = []
            blocks: List = []
            gs = 0
            for bi, ib_start, cnt in runs:
                ge = gs + cnt
                if ge > lo and gs < hi:  # overlap
                    s = ib_start + max(lo, gs) - gs
                    e = ib_start + min(hi, ge) - gs
                    slices.append((s, e))
                    blocks.append(refs[bi])
                gs = ge
            # NO affinity for pack chunks: front-coding is CPU-bound Python
            # over 64Ki terms and many chunks share one sections block —
            # pinning them to the block's node serializes the stage
            # (measured 2.15 s → 4.07 s on the 4-node sim), while an
            # unpinned chunk's one block pull is cached node-locally and
            # amortized across every later chunk on that node
            chunk_refs.append(_pack_range.remote(slices, *blocks))
            chunk_meta.append({"rank_start": lo, "n_terms": hi - lo})
            lo = hi
        byte_off = 0
        with open(os.path.join(out_dir, f"{sec_name}.bin"), "wb") as f:
            for part, cm in zip(ray.get(chunk_refs), chunk_meta):
                f.write(part)
                cm["byte_offset"] = byte_off
                cm["byte_len"] = len(part)
                byte_off += len(part)
        manifest[sec_name] = chunk_meta
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def write_store(
    triples_ds: rd.Dataset,
    out_dir: str,
    dedup: bool = True,
    encode_concurrency: int = 4,
    with_adjacency: bool = True,
    with_front_coded: bool = True,
    materialize_input: bool = True,
    graphs: Optional[List[str]] = None,
    roles_dir: Optional[str] = None,
    input_coalesced: bool = False,
) -> dict:
    """String-triples Dataset → HDT-style store directory. Returns the header
    (with a ``timings`` breakdown of the build phases).

    Build order (round 2 restructure): **encode → sort → dedup**. The
    dictionary builds from the raw pre-dedup rows (duplicates add no terms,
    and the raw blocks keep subject locality); encoding then runs as
    fingerprint tasks fused with the input read, so the SPO sort operates on
    narrow integer rows (~17 B/row instead of 100+ B of strings). Exact
    dedup piggybacks on the sort the HDT layout needs anyway: a per-block
    local combiner before the sort cuts shuffle volume, then duplicates —
    adjacent after sorting on (s,p,o,g) — are removed by a per-block
    adjacent-equality pass plus a two-rows-per-block boundary
    reconciliation. No dedup shuffle exists at all, and correctness holds
    under any input block layout (checkpoint writes do not preserve row
    order, so any contiguity-premised dedup is unsound)."""
    import time as _time

    timings = {}
    spans = {}  # per-stage [start, end] relative to t_build0 — lets an
    # external busy-core sampler attribute host utilization to stages
    t_build0 = _time.time()

    def _t(name, t0):
        timings[name] = round(_time.time() - t0, 2)
        spans[name] = [round(t0 - t_build0, 2), round(_time.time() - t_build0, 2)]

    os.makedirs(out_dir, exist_ok=True)
    t = _time.time()
    # Callers whose input is already a cheap re-readable source (a stage
    # checkpoint parquet) pass materialize_input=False: re-reading is
    # parallel decompression (scales with CPUs) instead of an extra full
    # object-store copy (bound by node memory bandwidth).
    raw_ds = triples_ds.materialize() if materialize_input else triples_ds
    _t("materialize_input", t)

    from concurrent.futures import ThreadPoolExecutor

    def timed(name, fn):
        def run():
            t0 = _time.time()
            out = fn()
            _t(name, t0)
            return out

        return run

    with ThreadPoolExecutor(max_workers=4) as pool:
        # graph discovery ∥ dictionary build: both are task-only Dataset
        # executions over raw_ds (a column-pruned scan and the role
        # partials), safe to overlap. Callers that know their graph set
        # (the flagship pipeline writes ONE named graph; the CLI derives
        # one per input file) pass ``graphs`` and skip the scan.
        fut_graphs = (
            None
            if graphs is not None
            else pool.submit(timed("graphs", lambda: _distinct_graphs(raw_ds)))
        )
        dict_build = timed(
            "dictionary", lambda: build_dictionary(raw_ds, roles_dir=roles_dir)
        )()
        # the sections parquet (read back by Store) does not gate encode —
        # overlap the write with the encode+sort stream
        def _write_dictionary():
            # wipe any stale copy first: Ray's write_parquet appends
            # unique-named files, so re-running a crashed build into the
            # same out_dir would otherwise DOUBLE the dictionary rows and
            # silently corrupt every decode (code-review r3 hdt finding)
            d = os.path.join(out_dir, "dictionary")
            shutil.rmtree(d, ignore_errors=True)
            dict_build.sections.write_parquet(d)

        fut_dictwrite = pool.submit(timed("dictionary_write", _write_dictionary))
        if fut_graphs is not None:
            graphs = fut_graphs.result()
        graphs = sorted(graphs)
        # front-coding needs only the dictionary sections: raw @ray.remote
        # pack tasks (no Dataset executor), overlapped with encode+sort
        fut_fc = None
        if with_front_coded:
            fut_fc = pool.submit(
                timed(
                    "front_coded",
                    lambda: _write_front_coded(
                        dict_build, os.path.join(out_dir, "front_coded")
                    ),
                )
            )
        # term-length LUTs depend only on the dictionary — overlap them with
        # the encode+sort stream (raw block tasks, no executor slot)
        fut_luts = pool.submit(timed("length_luts", lambda: _length_luts(dict_build)))
        t = _time.time()
        # ONE streaming graph: read → fingerprint-encode (fused tasks, IDs
        # packed into one int64 sort key when the bit widths fit) →
        # local-distinct combiner → SPO(+g) sort → one finalize pass
        # (adjacent dedup + unpack + per-graph stats, fused per block).
        pack = pack_spec_for(dict_build, graphs) if dedup else None
        id_ds = encode_triples(
            raw_ds,
            dict_build,
            concurrency=encode_concurrency,
            graphs=graphs,
            pack=pack,
        )
        id_cols = ["s_id", "p_id", "o_id", "g_id"]
        key_cols = ["spog"] if pack is not None else id_cols
        if dedup:
            # combiner: per-block C++ distinct fused with the encode tasks
            # (most duplicates are doc-local) — cuts sort-shuffle volume
            id_ds = id_ds.map_batches(
                lambda t_, _c=tuple(key_cols): local_distinct(t_, _c),
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
        # Coalesce the many small per-input-block outputs before the sort:
        # Ray's sort fanout is map_blocks × reduce_partitions tiny objects,
        # so 195 input blocks cost 2.5× more wall than 32 (measured 5.5 s vs
        # 2.1 s incl. the repartition itself on 12M rows). Width = one block
        # per CPU, floored so no block exceeds ~128 MB of int rows.
        # ``input_coalesced``: the caller already sized the input read's
        # block count (override_num_blocks at the parquet read) — skip the
        # repartition entirely. One AllToAll barrier less in the plan:
        # measured 11.3 s → 9.4 s for the whole encode+sort span at 8 CPUs
        # on the 46.9 M-triple corpus (BASELINE.md round-3).
        if not input_coalesced:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            try:
                n_rows = raw_ds.count()  # parquet-backed: metadata only
            except Exception:
                n_rows = None
            row_bytes = 8 if pack is not None else 17
            n_parts = max(
                cpus, 0 if n_rows is None else (n_rows * row_bytes) // (128 << 20) + 1
            )
            id_ds = id_ds.repartition(n_parts)
        # g_id joins the sort key so cross-graph copies of one (s,p,o) are
        # adjacent too — required for the adjacent-equality dedup, and a
        # pure tie-break for the S/P/O order the layout needs
        sorted_ds = sort_spo(id_ds, keys=key_cols if dedup else None).materialize()
        _t("encode_sort", t)
        n_terms = sum(dict_build.counts.values())
        if dedup:
            # ONE fused pass over the pinned sorted blocks: dedup + unpack
            # + per-graph stats + the triples/adjacency PARQUET WRITES, all
            # per block inside one task. The previous three-pass shape
            # (finalize → write_parquet → adjacency map) re-streamed the
            # unpacked corpus through the node's memory bus twice more and
            # measured as a ~12 s wall at BOTH 4 and 16 CPUs — a pure
            # bandwidth floor, not CPU work (BASELINE.md round-3).
            t = _time.time()
            n_g, b_g, _n_rows = finalize_write_sorted_blocks(
                sorted_ds,
                key_cols,
                pack,
                id_dtype_for(n_terms),
                fut_luts.result(),
                len(graphs),
                out_dir,
                with_adjacency=with_adjacency,
            )
            per_graph = {g: int(n) for g, n in zip(graphs, n_g) if n}
            original_size = int(b_g.sum())
            _t("finalize", t)
            # fused into the finalize pass above
            timings["write_triples"] = 0.0
            timings["adjacency"] = 0.0
        else:
            fut_stats = pool.submit(
                timed(
                    "stats",
                    lambda: _graph_stats_ids(
                        sorted_ds, dict_build, graphs, luts=fut_luts.result()
                    ),
                )
            )

            def _write_triples():
                d = os.path.join(out_dir, "triples")
                shutil.rmtree(d, ignore_errors=True)
                sorted_ds.write_parquet(d)

            fut_wt = pool.submit(timed("write_triples", _write_triples))
            if with_adjacency:
                t = _time.time()
                shutil.rmtree(os.path.join(out_dir, "adjacency"), ignore_errors=True)
                sorted_ds.map_batches(
                    pack_adjacency_block, batch_format="pyarrow", batch_size=256 * 1024
                ).write_parquet(os.path.join(out_dir, "adjacency"))
                _t("adjacency", t)
            per_graph, original_size = fut_stats.result()
            fut_wt.result()
        n_triples = sum(per_graph.values())
        if fut_fc is not None:
            fut_fc.result()
        fut_dictwrite.result()
    header = build_header(dict_build, n_triples, per_graph, original_size)
    header["graph_list"] = graphs  # g_id → graph name (triples/ stores g_id)
    header["hdtSize"] = _dir_size(out_dir)
    timings["dictionary_detail"] = dict_build.timings
    timings["spans"] = spans
    timings["epoch0"] = round(t_build0, 3)
    header["timings"] = timings
    with open(os.path.join(out_dir, "header.json"), "w") as f:
        json.dump(header, f, indent=1, sort_keys=True)
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write("ok")
    return header


def _distinct_graphs(triples_ds: rd.Dataset) -> List[str]:
    """Sorted distinct graph names — a column-pruned scan with per-batch
    unique partials (graphs are few: one per input file/crawl)."""
    sch = triples_ds.schema()  # None for a fully-empty schema-less input
    if sch is None or "graph" not in sch.names:
        return [""]

    def uniq(batch: pa.Table) -> pa.Table:
        return pa.table({"graph": pc.unique(batch.column("graph"))})

    parts = (
        triples_ds.select_columns(["graph"])
        .map_batches(uniq, batch_format="pyarrow")
        .take_all()
    )
    return sorted({r["graph"] for r in parts})


def _graph_stats_ids(sorted_ds: rd.Dataset, dict_build, graphs: List[str],
                     luts=None):
    """Per-graph triple counts + originalSize from ID-triples: term lengths
    resolve through a broadcast per-space length LUT (int32 per term), so
    the stats pass moves only integers. ``luts`` may be precomputed (the
    build overlaps it with encode+sort — it depends only on the
    dictionary)."""
    import numpy as np

    lut_ref = ray.put(luts if luts is not None else _length_luts(dict_build))

    def partial(batch: pa.Table) -> pa.Table:
        from de_ray.state.broadcast import get_broadcast

        ls, lp, lo = get_broadcast(lut_ref)
        s = batch.column("s_id").to_numpy(zero_copy_only=False)
        p = batch.column("p_id").to_numpy(zero_copy_only=False)
        o = batch.column("o_id").to_numpy(zero_copy_only=False)
        g = batch.column("g_id").to_numpy(zero_copy_only=False)
        nbytes = ls[s - 1].astype(np.int64) + lp[p - 1] + lo[o - 1] + 8
        n_g = np.bincount(g, minlength=len(graphs))
        # integer accumulation — float64 bincount weights lose precision >2^53
        b_g = np.zeros(len(graphs), dtype=np.int64)
        np.add.at(b_g, g, nbytes)
        return pa.table(
            {
                "g_id": pa.array(np.arange(len(graphs)), pa.int32()),
                "n": pa.array(n_g, pa.int64()),
                "nbytes": pa.array(b_g.astype(np.int64), pa.int64()),
            }
        )

    rows = adaptive_grouped_sum(
        sorted_ds.map_batches(partial, batch_format="pyarrow"), "g_id", ["n", "nbytes"]
    ).take_all()
    per_graph = {graphs[int(r["g_id"])]: int(r["n"]) for r in rows if int(r["n"])}
    original_size = int(sum(r["nbytes"] for r in rows))
    return per_graph, original_size


@ray.remote
def _block_lens(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "section": t.column("section"),
            "id": t.column("id"),
            "tlen": pc.utf8_length(t.column("term")),
        }
    )


def _length_luts(dict_build):
    """Per-space utf8 term lengths ordered by ID (position k ↔ id k+1).

    Computed with raw per-block tasks that drop the term strings — only
    (section, id, tlen) integers reach the driver, so the LUT stays cheap
    even when the dictionary itself is too large to broadcast; raw tasks
    (not a Dataset execution) so it runs concurrently with the encode+sort
    stream without competing for executor slots."""
    import numpy as np

    refs = dict_build.sections.materialize().to_arrow_refs()
    parts = ray.get([_block_lens.remote(r) for r in refs])
    parts = [p for p in parts if p.num_rows]
    tbl = pa.concat_tables(parts) if parts else pa.table(
        {"section": pa.array([], pa.int32()), "id": pa.array([], pa.int64()),
         "tlen": pa.array([], pa.int32())}
    )
    sec = tbl.column("section")
    out = []
    for sections in (
        (SECTION_SHARED, SECTION_SUBJECT),
        (SECTION_PREDICATE,),
        (SECTION_SHARED, SECTION_OBJECT),
    ):
        mask = pc.is_in(sec, value_set=pa.array(list(sections), pa.int32()))
        sub = tbl.filter(mask)
        ids = sub.column("id").to_numpy(zero_copy_only=False)
        tl = sub.column("tlen").to_numpy(zero_copy_only=False)
        lut = np.zeros(len(ids), dtype=np.int64)
        lut[ids - 1] = tl  # ids are dense 1..N per space
        out.append(lut)
    return tuple(out)


def _dir_size(d: str) -> int:
    total = 0
    for root, _, files in os.walk(d):
        for fn in files:
            total += os.path.getsize(os.path.join(root, fn))
    return total


class Store:
    """Loaded store handle (S3/A1 equivalent: ``Hdt::new_hybrid_cache``).

    Dictionary maps load lazily, once per handle; pattern scans return lazy
    Datasets with parquet filter pushdown.
    """

    def __init__(self, path: str):
        self.path = path
        if not os.path.exists(os.path.join(path, "_SUCCESS")):
            raise FileNotFoundError(f"not a completed store (no _SUCCESS): {path}")
        with open(os.path.join(path, "header.json")) as f:
            self.header = json.load(f)
        if "graph_list" not in self.header:
            raise ValueError(
                f"store format too old at {path}: header.json lacks 'graph_list' "
                "(pre-g_id layout with a string 'graph' triples column). "
                "Rebuild the store with the current write_store()."
            )
        self._maps = None
        self._rev = None
        self._rev_ref = None
        self._lookup_cache: Dict[tuple, Optional[int]] = {}

    def _total_terms(self) -> int:
        h = self.header
        shared = h.get("numSharedSubjectObject", 0)
        return (
            h.get("void:distinctSubjects", 0)
            + h.get("void:distinctObjects", 0)
            - shared
            + h.get("void:properties", 0)
        )

    # -- dictionary ---------------------------------------------------------
    def _dict_table(self) -> pa.Table:
        return pq.read_table(
            os.path.join(self.path, "dictionary"),
            columns=["term", "section", "id"],
        )

    def id_maps(self) -> Dict[str, Dict[str, int]]:
        if self._maps is None:
            t = self._dict_table()
            subj: Dict[str, int] = {}
            obj: Dict[str, int] = {}
            pred: Dict[str, int] = {}
            for term, sec, i in zip(
                t.column("term").to_pylist(),
                t.column("section").to_pylist(),
                t.column("id").to_pylist(),
            ):
                if sec == SECTION_SHARED:
                    subj[term] = i
                    obj[term] = i
                elif sec == SECTION_SUBJECT:
                    subj[term] = i
                elif sec == SECTION_OBJECT:
                    obj[term] = i
                else:
                    pred[term] = i
            self._maps = {"subj": subj, "pred": pred, "obj": obj}
        return self._maps

    def rev_maps(self) -> Dict[str, Dict[int, str]]:
        if self._rev is None:
            m = self.id_maps()
            self._rev = {k: {v: t for t, v in m[k].items()} for k in m}
        return self._rev

    def id_for_term(self, space: str, term: str) -> Optional[int]:
        """Bound-term lookup. Small dictionaries load full maps once per
        handle; above TERM_MAP_LIMIT terms a single-term parquet range scan
        runs instead (the dictionary is written sorted by (section, term),
        so row-group min/max term stats prune the read — VERDICT r1 #7)."""
        if self._total_terms() <= TERM_MAP_LIMIT:
            return self.id_maps()[space].get(term)
        key = (space, term)
        if key not in self._lookup_cache:
            self._lookup_cache[key] = self._range_lookup(space, term)
        return self._lookup_cache[key]

    def _range_lookup(self, space: str, term: str) -> Optional[int]:
        secs = {
            "subj": [SECTION_SHARED, SECTION_SUBJECT],
            "obj": [SECTION_SHARED, SECTION_OBJECT],
            "pred": [SECTION_PREDICATE],
        }[space]
        t = pq.read_table(
            os.path.join(self.path, "dictionary"),
            columns=["id"],
            filters=[[("section", "in", secs), ("term", "=", term)]],
        )
        if t.num_rows == 0:
            return None
        return int(t.column("id")[0].as_py())

    def term_for_id(self, space: str, i: int) -> Optional[str]:
        return self.rev_maps()[space].get(i)

    def graphs(self) -> List[str]:
        return sorted(self.header.get("graphs", {}).keys())

    def graph_list(self) -> List[str]:
        """g_id → graph name mapping as written by the build."""
        return self.header.get("graph_list") or [""]

    # -- scans (J1) ---------------------------------------------------------
    def pattern_scan_ids(
        self,
        s: Optional[str] = None,
        p: Optional[str] = None,
        o: Optional[str] = None,
        graphs: Optional[Iterable[str]] = None,
    ) -> Optional[rd.Dataset]:
        """Triple-pattern scan over ID-triples with filter pushdown.

        Bound terms resolve through the dictionary first; an unresolvable
        bound term means zero matches (returns None), mirroring the
        reference's dictionary-lookup short-circuit.
        """
        expr = None

        def conj(e):
            nonlocal expr
            expr = e if expr is None else (expr & e)

        for term, space, col in ((s, "subj", "s_id"), (p, "pred", "p_id"), (o, "obj", "o_id")):
            if term is not None:
                i = self.id_for_term(space, term)
                if i is None:
                    return None
                conj(pc.field(col) == i)
        if graphs is not None:
            glist = self.graph_list()
            gids = [glist.index(g) for g in graphs if g in glist]
            if not gids:
                return None
            conj(pc.field("g_id").isin(gids))
        ds = rd.read_parquet(os.path.join(self.path, "triples"), filter=expr)
        return ds

    def pattern_scan(
        self,
        s: Optional[str] = None,
        p: Optional[str] = None,
        o: Optional[str] = None,
        graphs: Optional[Iterable[str]] = None,
    ) -> rd.Dataset:
        """Pattern scan returning decoded canonical-string triples."""
        ids = self.pattern_scan_ids(s, p, o, graphs)
        if ids is None:
            return rd.from_arrow(
                pa.table(
                    {c: pa.array([], pa.large_string()) for c in ("subj", "pred", "obj", "graph")}
                )
            )
        return self.decode(ids)

    def term_luts_ref(self) -> "ray.ObjectRef":
        """Broadcast ref of the sections table; combine with
        :func:`terms_by_id_luts` in ``get_broadcast`` for id→term arrays.
        Only valid below TERM_MAP_LIMIT terms."""
        if self._rev_ref is None:
            self._rev_ref = ray.put(self._dict_table())
        return self._rev_ref

    def decode(self, id_ds: rd.Dataset) -> rd.Dataset:
        """ID-triples Dataset → canonical-string triples.

        IDs are dense 1..N per space, so decoding is a vectorized
        ``pc.take`` against per-space term arrays ordered by ID (built once
        per worker process from the broadcast sections table). Stateless
        tasks — no actor pool, so concurrent scans (UNION / BGP joins)
        never starve each other's upstream reads on a small CPU budget.

        Above TERM_MAP_LIMIT terms the dictionary no longer broadcasts:
        decoding switches to three hash joins against the on-disk
        dictionary (s_id / p_id / o_id → term).
        """
        if self._total_terms() > TERM_MAP_LIMIT:
            return self._decode_join(id_ds)
        if self._rev_ref is None:
            self._rev_ref = ray.put(self._dict_table())
        tbl_ref = self._rev_ref
        glist = pa.array(self.graph_list(), pa.large_string())

        def decode_batch(batch: pa.Table) -> pa.Table:
            from de_ray.state.broadcast import get_broadcast

            lut = get_broadcast(tbl_ref, transform=terms_by_id_luts)

            def dec(col, space):
                arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                return pc.take(lut[space], pc.subtract(arr, 1))

            g = batch.column("g_id")
            if isinstance(g, pa.ChunkedArray):
                g = g.combine_chunks()
            return pa.table(
                {
                    "subj": dec(batch.column("s_id"), "subj"),
                    "pred": dec(batch.column("p_id"), "pred"),
                    "obj": dec(batch.column("o_id"), "obj"),
                    "graph": pc.take(glist, g),
                }
            )

        return id_ds.map_batches(
            decode_batch, batch_format="pyarrow", batch_size=128 * 1024
        )

    def _decode_join(self, id_ds: rd.Dataset) -> rd.Dataset:
        """Hash-join decode for dictionaries too large to broadcast."""
        from de_ray.functions.joins import drop_schemaless_empties, empty_table_factory

        nparts = max(2, min(32, int(ray.cluster_resources().get("CPU", 4)) - 1))
        glist = pa.array(self.graph_list(), pa.large_string())

        id_schema = {
            "s_id": pa.int64(), "p_id": pa.int64(), "o_id": pa.int64(),
            "graph": pa.large_string(),
        }

        def _norm_to(schema: Dict[str, pa.DataType]):
            # Resolves g_id → graph string and widens int32 ids to the join
            # key type; 0-row blocks that reach the UDF are rebuilt with the
            # expected columns.
            def norm(t: pa.Table) -> pa.Table:
                if t.num_rows == 0 or (
                    set(schema) - set(t.column_names) - {"graph"}
                ):
                    return pa.table({c: pa.array([], ty) for c, ty in schema.items()})
                cols = {}
                for c, ty in schema.items():
                    if c == "graph" and "g_id" in t.column_names:
                        g = t.column("g_id")
                        if isinstance(g, pa.ChunkedArray):
                            g = g.combine_chunks()
                        cols[c] = pc.take(glist, g)
                    else:
                        cols[c] = t.column(c).cast(ty)
                return pa.table(cols)

            return norm

        # map_batches skips SCHEMA-LESS 0-row blocks (a multi-part scan
        # whose filter empties some parts yields them), and they break the
        # first join's key resolution — drop them like each join's output
        id_ds = drop_schemaless_empties(
            id_ds.map_batches(_norm_to(id_schema), batch_format="pyarrow"),
            empty_table_factory(id_schema),
        )
        space_secs = {
            ("s_id", "subj"): [SECTION_SHARED, SECTION_SUBJECT],
            ("p_id", "pred"): [SECTION_PREDICATE],
            ("o_id", "obj"): [SECTION_SHARED, SECTION_OBJECT],
        }
        out = id_ds
        cur_schema = dict(id_schema)
        for (id_col, name), secs in space_secs.items():
            dict_ds = rd.read_parquet(
                os.path.join(self.path, "dictionary"),
                columns=["term", "id"],
                filter=pc.field("section").isin(secs),
            ).map_batches(
                lambda t, _n=name: pa.table(
                    {
                        _n: pa.array(t.column("term").to_pylist(), pa.large_string()),
                        f"__id_{_n}": t.column("id"),
                    }
                )
                if t.num_rows
                else pa.table(
                    {_n: pa.array([], pa.large_string()), f"__id_{_n}": pa.array([], pa.int64())}
                ),
                batch_format="pyarrow",
            )
            out = out.join(
                dict_ds,
                join_type="inner",
                num_partitions=nparts,
                on=(id_col,),
                right_on=(f"__id_{name}",),
            )
            cur_schema[name] = pa.large_string()
            # a join's empty output partitions are SCHEMA-LESS blocks that
            # crash the next chained join — drop them by metadata
            out = drop_schemaless_empties(out, empty_table_factory(dict(cur_schema)))
            # one aggregator pool at a time: a streamed chain of hash joins
            # deadlocks Ray 2.49's executor at scale (same pathology as
            # triples._join_encode, observed at 188 M rows)
            out = out.materialize()
        return out.map_batches(
            lambda t: t.select(["subj", "pred", "obj", "graph"]), batch_format="pyarrow"
        )

    def decode_id_columns(
        self, ds: rd.Dataset, colmap: dict, schema: "dict | None" = None
    ) -> rd.Dataset:
        """Decode arbitrary id columns of ``ds`` to term strings, preserving
        every other column (the engine's integer-ID pushdowns decode only
        their grouped/distinct survivors through this). ``colmap``:
        ``{id_col: (space, out_col)}`` with space in subj|pred|obj.

        Below TERM_MAP_LIMIT: vectorized ``pc.take`` against the broadcast
        per-space LUTs. Above: one hash join per column against the
        on-disk dictionary (same regime switch as :meth:`decode`), with a
        materialize between chained joins (Ray 2.49 executor deadlock) and
        schema-less empty-partition drops."""
        space_secs = {
            "subj": [SECTION_SHARED, SECTION_SUBJECT],
            "pred": [SECTION_PREDICATE],
            "obj": [SECTION_SHARED, SECTION_OBJECT],
        }
        sch = ds.schema()
        if sch is not None:
            names, types = list(sch.names), list(sch.types)
        elif schema is not None:  # empty, schema-less input: caller's hint
            names, types = list(schema.keys()), list(schema.values())
        else:
            raise ValueError(
                "decode_id_columns: input has no schema (empty dataset); "
                "pass schema={name: pa.DataType} for the empty case"
            )

        def _as_pa(ty):
            # pandas-backed datasets report numpy dtypes / python classes
            if isinstance(ty, pa.DataType):
                return ty
            try:
                return pa.from_numpy_dtype(np.dtype(ty))
            except (TypeError, ValueError, pa.lib.ArrowNotImplementedError):
                return pa.large_string()

        types = [_as_pa(t) for t in types]
        out_names = [colmap[n][1] if n in colmap else n for n in names]
        if self._total_terms() <= TERM_MAP_LIMIT:
            tbl_ref = self.term_luts_ref()

            def dec(t: pa.Table) -> pa.Table:
                from de_ray.state.broadcast import get_broadcast

                if t.num_rows == 0 and set(names) - set(t.column_names):
                    return pa.table(
                        {
                            out: pa.array(
                                [], pa.large_string() if n in colmap else ty
                            )
                            for n, ty, out in zip(names, types, out_names)
                        }
                    )
                lut = get_broadcast(tbl_ref, transform=terms_by_id_luts)
                cols = {}
                for name in t.column_names:
                    if name in colmap:
                        space, out_name = colmap[name]
                        arr = t.column(name)
                        if isinstance(arr, pa.ChunkedArray):
                            arr = arr.combine_chunks()
                        cols[out_name] = pc.take(
                            lut[space], pc.subtract(arr.cast(pa.int64()), 1)
                        )
                    else:
                        cols[name] = t.column(name)
                return pa.table(cols)

            return ds.map_batches(dec, batch_format="pyarrow")

        from de_ray.functions.joins import drop_schemaless_empties, empty_table_factory

        nparts = max(2, min(32, int(ray.cluster_resources().get("CPU", 4)) - 1))
        cur = dict(zip(names, types))
        for c in colmap:
            cur[c] = pa.int64()
        base = dict(cur)  # snapshot: widen executes lazily, cur mutates below

        def widen(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 and set(base) - set(t.column_names):
                return pa.table({c: pa.array([], ty) for c, ty in base.items()})
            return pa.table(
                {c: t.column(c).cast(ty) for c, ty in base.items()}
            )

        # widen does not run on SCHEMA-LESS 0-row blocks, which break the
        # first join's key resolution: drop them (this also materializes,
        # like the per-join drops below); a globally-empty left side would
        # surface as schema-less partitions inside Ray's hash-join finalize
        out = drop_schemaless_empties(
            ds.map_batches(widen, batch_format="pyarrow"), empty_table_factory(base)
        )
        if out.count() == 0:
            return rd.from_arrow(
                pa.table(
                    {
                        o: pa.array([], pa.large_string() if n in colmap else ty)
                        for n, ty, o in zip(names, types, out_names)
                    }
                )
            )
        for id_col, (space, out_name) in colmap.items():
            dict_ds = rd.read_parquet(
                os.path.join(self.path, "dictionary"),
                columns=["term", "id"],
                filter=pc.field("section").isin(space_secs[space]),
            ).map_batches(
                lambda t, _n=out_name: pa.table(
                    {
                        _n: pa.array(t.column("term").to_pylist(), pa.large_string()),
                        f"__id_{_n}": t.column("id"),
                    }
                )
                if t.num_rows
                else pa.table(
                    {
                        _n: pa.array([], pa.large_string()),
                        f"__id_{_n}": pa.array([], pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
            out = out.join(
                dict_ds,
                join_type="inner",
                num_partitions=nparts,
                on=(id_col,),
                right_on=(f"__id_{out_name}",),
            )
            cur[out_name] = pa.large_string()
            out = drop_schemaless_empties(out, empty_table_factory(dict(cur)))
            out = out.materialize()
        return out.map_batches(
            lambda t: t.select(out_names), batch_format="pyarrow"
        )

    def triples_all(self) -> rd.Dataset:
        """All triples, decoded (reference ``triples_all()``, src/sparql.rs:338)."""
        return self.pattern_scan()


def terms_by_id_luts(tbl: pa.Table):
    """sections table → {space: terms array ordered by id} (position k ↔
    id k+1). Module-level so every consumer (decode, the engine's
    int-domain aggregate pushdown) shares one get_broadcast cache entry
    per worker process."""
    from de_ray.hdt.triples import space_arrays_from_table

    out = {}
    for space, (terms, ids) in space_arrays_from_table(tbl).items():
        order = pc.sort_indices(ids)
        out[space] = pc.take(terms, order)
    return out


def view(path: str) -> dict:
    """CLI `view` parity: header/metadata display (reference src/view.rs:36-55).

    Works on our store directories AND on binary ``.hdt`` files produced by
    the reference tool itself (ControlInfo + Header parse)."""
    if os.path.isfile(path):
        from de_ray.hdt.hdtfile import is_hdt_file, read_hdt_header

        if is_hdt_file(path):
            return read_hdt_header(path)
        raise ValueError(f"not an HDT file or store directory: {path}")
    with open(os.path.join(path, "header.json")) as f:
        return json.load(f)


def graph_quote(graph: str) -> str:
    return urllib.parse.quote(graph, safe="")
