"""Crawl ingest pipeline (SURVEY §2.8 C9 — the reference's EP3 chain).

The reference runs download → subsample → convert-to-HTML as three separate
scripts over directories (ref:Crawl_Page/download_warcfile.py,
subsample_warc_warc.py, convert_warc_to_htmls.py), re-reading every archive
per step. Here the whole chain is ONE streaming Dataset plan:

    WARC shards → parse records (flat_map inside the read task)
                → HTML strip + clean (vectorized batch fn)
                → language-ID (Arrow kernels)
                → keep Chinese pages (is_zh, threshold per ref:tool.py:16)
                → write partitioned Parquet (one output dir per job)

The downloader head (sources/crawl_fetch.py) and the WARC re-writer sink
(sources/warc.py:subsample_warc) compose with this for the full EP3 surface.
"""

from __future__ import annotations

import pyarrow as pa


def _list_warcs(warc_paths) -> list[str]:
    import glob as _glob
    import os

    if isinstance(warc_paths, (list, tuple)):
        out: list[str] = []
        for p in warc_paths:
            out.extend(_list_warcs(p))
        return sorted(out)
    if os.path.isdir(warc_paths):
        return sorted(
            os.path.join(warc_paths, f) for f in os.listdir(warc_paths)
            if f.endswith((".warc", ".warc.gz"))
        )
    if any(ch in warc_paths for ch in "*?["):
        return sorted(_glob.glob(warc_paths))
    return [warc_paths]


def run_crawl_job(warc_paths, out_dir: str, langid_cfg=None,
                  resume: bool = True) -> dict:
    """Execute the crawl pipeline with PER-WARC-SHARD resume (same
    discipline as state.checkpoint.run_quality_job): each input archive's
    kept pages are written as ``out_dir/<stem>-<pathhash>.parquet`` INSIDE
    the map task (task-local, no shuffle, tmp-then-rename), and a done
    marker with counters lands under ``out_dir/_done/`` (the underscore
    prefix keeps pyarrow dataset readers from touching it). A rerun skips
    committed archives; a crashed shard's half-written piece is overwritten
    atomically on retry. Markers carry a CONFIG HASH (same discipline as
    run_quality_job): changing ``langid_cfg`` invalidates every committed
    shard, a reprocessed shard that now keeps 0 pages deletes its previous
    parquet, and pieces whose tag is not committed under the current input
    set (crash residue, or inputs dropped from the set) are swept before the
    run — so a read of ``out_dir`` after resume never mixes stale pages with
    the returned counters. Returns run counters."""
    import hashlib
    import json
    import os
    import time

    import pyarrow.parquet as pq
    import ray.data as rd

    from chinese_corpus_cleaning_ray.config import LangIdConfig
    from chinese_corpus_cleaning_ray.functions.langid import make_langid
    from chinese_corpus_cleaning_ray.functions.textclean import (
        clean_text_ws,
        remove_long_repeated_substrings,
    )
    from chinese_corpus_cleaning_ray.sources.warc import parse_warc_bytes
    from chinese_corpus_cleaning_ray.stages.analysis import strip_html_text
    from chinese_corpus_cleaning_ray.state.checkpoint import _input_stat, one_operator_plan

    cfg = langid_cfg or LangIdConfig()
    # dataclass repr is deterministic → stable config fingerprint; a changed
    # langid threshold must invalidate committed shards, not silently keep
    # pages filtered under the old config (same rule as run_quality_job's
    # cfg.config_hash())
    cfg_hash = hashlib.sha1(repr(cfg).encode()).hexdigest()[:12]
    done_dir = os.path.join(out_dir, "_done")
    os.makedirs(done_dir, exist_ok=True)

    def _tag(path: str) -> str:
        stem = os.path.basename(path).split(".")[0]
        return f"{stem}-{hashlib.sha1(path.encode()).hexdigest()[:8]}"

    files = _list_warcs(warc_paths)
    done: dict[str, dict] = {}
    for p in files:
        marker = os.path.join(done_dir, _tag(p) + ".json")
        if resume and os.path.exists(marker):
            rec = json.load(open(marker))
            if (rec.get("config_hash") == cfg_hash
                    and all(rec.get(k) == v for k, v in _input_stat(p).items())):
                done[p] = rec
    pending = [p for p in files if p not in done]
    # stamped from a stat taken before the shard is read: a rewrite during
    # the run leaves a stale stamp, so the next resume redoes it
    stats = {p: _input_stat(p) for p in pending}

    # sweep pieces not committed under THIS input set + config: crash
    # residue, config-invalidated shards, and inputs dropped from the set.
    # A swept piece's marker goes with it — otherwise re-adding the input
    # later would skip reprocessing against a deleted output.
    done_tags = {_tag(p) for p in done}
    for f in os.listdir(out_dir):
        if not f.endswith(".parquet") or f.startswith("."):
            continue
        tag = f[: -len(".parquet")]
        if tag not in done_tags:
            os.remove(os.path.join(out_dir, f))
            stale_marker = os.path.join(done_dir, tag + ".json")
            if os.path.exists(stale_marker):
                os.remove(stale_marker)

    def process(row: dict) -> list[dict]:
        recs = parse_warc_bytes(row["bytes"], row["path"])
        uris, rids, texts = [], [], []
        for r in recs:
            t = remove_long_repeated_substrings(
                clean_text_ws(strip_html_text(
                    r["payload"].decode("utf-8", errors="ignore"))))
            uris.append(r["target_uri"])
            rids.append(r["record_id"])
            texts.append(t)
        lid = make_langid(cfg)
        res = lid.predict_batch(texts) if texts else {
            "lang": [], "lang_conf": [], "is_zh": []}
        keep = [i for i, z in enumerate(res["is_zh"]) if z]
        tag = _tag(row["path"])
        piece = os.path.join(out_dir, f"{tag}.parquet")
        if not keep and os.path.exists(piece):
            # reprocessed shard that now keeps nothing: the old piece must
            # not survive, or out_dir reads disagree with the counters
            os.remove(piece)
        if keep:
            t = pa.table(
                {
                    "warc_path": pa.array([row["path"]] * len(keep), pa.string()),
                    "record_id": pa.array([rids[i] for i in keep], pa.string()),
                    "target_uri": pa.array([uris[i] for i in keep], pa.string()),
                    "clean_text": pa.array([texts[i] for i in keep], pa.string()),
                    "lang": pa.array([res["lang"][i] for i in keep], pa.string()),
                    "lang_conf": pa.array([res["lang_conf"][i] for i in keep],
                                          pa.float64()),
                }
            )
            tmp = os.path.join(out_dir, f".{tag}.parquet.tmp")
            pq.write_table(t, tmp)
            os.replace(tmp, piece)
        return [{"path": row["path"], "records_in": len(recs),
                 "pages_kept": len(keep)}]

    files_this_run = 0
    if pending:
        counters = one_operator_plan(
            rd.read_binary_files(pending, include_paths=True).flat_map(process)
        ).to_pandas()
        for _, r in counters.iterrows():
            rec = {**stats[r["path"]],
                   "config_hash": cfg_hash,
                   "records_in": int(r["records_in"]),
                   "pages_kept": int(r["pages_kept"]),
                   "completed_at": time.time()}
            marker = os.path.join(done_dir, _tag(r["path"]) + ".json")
            tmp = marker + ".tmp"
            with open(tmp, "w") as f:
                json.dump(rec, f)
            os.replace(tmp, marker)
            done[r["path"]] = rec
            files_this_run += 1

    return {
        "pages_kept": sum(r["pages_kept"] for r in done.values()),
        "records_in": sum(r.get("records_in", 0) for r in done.values()),
        "files_done": len(done),
        "files_this_run": files_this_run,
        "out_dir": out_dir,
    }


def crawl_pages_to_transcripts(pages_path, out_dir: str, ts_epoch_us: int = 0) -> str:
    """EP3 → EP1 hand-off adapter (the reference feeds convert_warc_to_htmls
    output into the text_quality_filter driver, ref:Crawl_Page/test.py →
    main.py): reshape crawl-page Parquet into the transcript schema the
    quality job consumes — one single-turn 'conversation' per page:
    (conv_id=record_id-or-uri, turn_idx=0, role='page', text=clean_text,
    tool=target_uri, ts). Streaming map_batches + write_parquet; returns
    ``out_dir``."""
    import ray.data as rd

    def reshape(batch: pa.Table) -> pa.Table:
        import hashlib as _hashlib

        rid = batch.column("record_id").to_pylist()
        uri = batch.column("target_uri").to_pylist()
        wp = batch.column("warc_path").to_pylist()
        txt = batch.column("clean_text").to_pylist()
        # conv_id must be UNIQUE per page: downstream quality-job
        # partitioning and dedup key on (conv_id, turn_idx) with constant
        # turn_idx=0, so pages with empty record_ids sharing a URI would
        # collide on a bare uri fallback — suffix a content hash instead
        conv = [
            r if r else f"{u}#{_hashlib.sha1(((w or '') + chr(0) + (u or '') + chr(0) + (t or '')).encode('utf-8', 'surrogatepass')).hexdigest()[:12]}"
            for r, u, w, t in zip(rid, uri, wp, txt)
        ]
        n = batch.num_rows
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": pa.array([0] * n, pa.int32()),
                "role": pa.array(["page"] * n, pa.string()),
                "text": batch.column("clean_text").cast(pa.string()),
                "tool": pa.array(uri, pa.string()),
                "ts": pa.array([ts_epoch_us] * n, pa.timestamp("us")),
            }
        )

    rd.read_parquet(pages_path).map_batches(
        reshape, batch_format="pyarrow"
    ).write_parquet(out_dir)
    return out_dir
