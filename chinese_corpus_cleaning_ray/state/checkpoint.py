"""Per-shard checkpointing with lineage + counters — shuffle-free.

The reference README promises JSON checkpoints but the code has none
(ref:README.md:75-81 vs ref:process_documents.py — SURVEY §0); the only real
resume in the repo is HTTP byte-Range resume (ref:Crawl_Page/download_warcfile.py:20-33).
This module supplies the real thing, as required by the north rule.

Design (v2 — replaced an earlier groupby(part_id) sort-shuffle writer):

- **Unit of work / resume granularity = input file (shard).** Each pending
  file is one block, and one task computes and writes it — no all-to-all
  exchange anywhere in the job (the sort-shuffle writer spent ~40% of wall
  time in it). That task runs ``stages.quality_stages.QualityStage`` (every
  config's per-row stages, the one ``build_quality_pipeline`` runs, its state
  cached per worker) and then the stateless piece writer on its output.
- **Output layout stays hash-partitioned by conversation:**
  ``data/part_id=N/<input-stem>-<uuid>.parquet`` where
  ``part_id = crc32(conv_id) % num_partitions``. All turns of a conversation
  land in one directory regardless of which input file carried them, so
  conversation-level consumers read one directory. Pieces are sorted by
  (conv_id, turn_idx) internally.
- **Skew immunity:** a hot conv_id (half the corpus in one conversation)
  inflates one output DIRECTORY but never one task — work is balanced by
  input blocks, not by key. (The groupby writer funneled a hot partition
  into a single reduce task.)
- **Manifests:** one ``_manifest/file-<stem>.json`` per completed input file
  with row counters (total/kept/errors/scrubbed), a per-partition row-count
  breakdown (lineage), the input file's fingerprint (byte size, mtime in ns
  and the Parquet footer's row count) and the config hash (with an injected
  word list's digest appended). Stale manifests (config, word-list or
  input-file change — resume compares the stamped size and mtime with a
  stat, and reads no footer) self-invalidate; so does one without the full
  input fingerprint, so an output dir written before mtime and rows were
  stamped redoes each file once.
- **Incremental durability:** pending files are processed in chunks of
  ``checkpoint_every`` files — one streaming execution per chunk, manifests
  committed after each chunk, so a crash loses at most one chunk of work.
- **Scheduling:** each chunk's plan fuses into ONE operator
  (``ReadParquet->MapBatches(add_part)->MapBatches(quality_write)``) whose
  only output is a few KB of counter rows, so it runs without Ray Data's
  per-operator reservation and every task of the chunk starts at once, paced
  by the CPU slots (``one_operator_plan`` says why). That holds only for a
  one-operator plan: ``build_quality_pipeline`` returns a Dataset that
  callers chain more operators onto, and it keeps reservation on.
- **Crash cleanup:** pieces are named by their input stem; on resume every
  piece whose stem has no valid manifest is deleted before re-processing, so
  reruns cannot duplicate rows, and so is every half-written
  ``.<stem>-<uuid>.tmp`` that a crash between a piece's write and its rename
  left behind.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import uuid
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG, PipelineConfig
from chinese_corpus_cleaning_ray.stages.quality_stages import make_quality_fn, quality_fingerprint

PART_COL = "part_id"

# fixed log-spaced perplexity histogram bin edges (north-rule counter:
# "perplexity histograms"); the last bin is open-ended
PPL_BIN_EDGES = [0.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0, 10000.0]

# how long a non-exclusive writer waits for a peer's stats.json lock before
# raising TimeoutError (a lock older than 60 s is a crashed holder's and is
# broken)
STATS_LOCK_TIMEOUT_S = 30.0


def conv_partition_ids(conv_ids: list[str], num_partitions: int) -> list[int]:
    return [zlib.crc32(c.encode("utf-8")) % num_partitions for c in conv_ids]


def make_add_partition_fn(num_partitions: int):
    def add_part(batch: pa.Table) -> pa.Table:
        pids = conv_partition_ids(batch.column("conv_id").to_pylist(), num_partitions)
        return batch.append_column(PART_COL, pa.array(pids, pa.int32()))

    return add_part


def _stem(path: str) -> str:
    base = os.path.basename(path)
    return base[: -len(".parquet")] if base.endswith(".parquet") else base


class Manifest:
    """Directory of per-input-file done-markers."""

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.manifest_dir = os.path.join(output_dir, "_manifest")
        self.data_dir = os.path.join(output_dir, "data")

    def _path(self, stem: str) -> str:
        return os.path.join(self.manifest_dir, f"file-{stem}.json")

    def done_stems(self) -> set[str]:
        if not os.path.isdir(self.manifest_dir):
            return set()
        return {
            f[len("file-") : -len(".json")]
            for f in os.listdir(self.manifest_dir)
            if f.startswith("file-") and f.endswith(".json")
        }

    def read(self, stem: str) -> dict:
        with open(self._path(stem)) as f:
            return json.load(f)

    def remove(self, stem: str) -> None:
        if os.path.exists(self._path(stem)):
            os.remove(self._path(stem))

    def mark_done(self, stem: str, record: dict) -> None:
        os.makedirs(self.manifest_dir, exist_ok=True)
        tmp = self._path(stem) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f)
        os.replace(tmp, self._path(stem))

    def clean_pieces_except(self, valid_stems: set[str],
                            scope: set[str] | None = None) -> int:
        """Delete crash residue: data pieces whose input stem is not
        committed, and every half-written ``.<stem>-<uuid>.tmp`` (a crash
        between a piece's write and its rename; no task of this job is
        running yet, so none is in flight). ``scope=None`` → the job owns the
        whole output dir, any unknown stem is residue. A non-None ``scope``
        (multi-writer mode) restricts cleanup to THIS writer's input stems so
        concurrent writers on disjoint input sets never delete each other's
        in-flight pieces."""
        removed = 0
        if not os.path.isdir(self.data_dir):
            return 0
        for d in os.listdir(self.data_dir):
            pdir = os.path.join(self.data_dir, d)
            if not (d.startswith(f"{PART_COL}=") and os.path.isdir(pdir)):
                continue
            for f in os.listdir(pdir):
                tmp = f.startswith(".") and f.endswith(".tmp")  # .<input-stem>-<uuid>.tmp
                if not (tmp or f.endswith(".parquet")):
                    continue
                stem = (f[1:] if tmp else f).rsplit("-", 1)[0]  # <input-stem>-<uuid>.parquet
                if (tmp or stem not in valid_stems) and (scope is None or stem in scope):
                    os.remove(os.path.join(pdir, f))
                    removed += 1
        return removed


def make_piece_writer(data_dir: str, keep_text: bool):
    """Final streaming stage: write this block's rows as per-(input-stem,
    partition) piece files and return ONLY the counter rows. Runs with
    batch_size=None (one call per block), so piece count per input file ≈
    blocks-per-file × partitions-touched. The write happens inside the map
    task — no shuffle; tmp-then-rename per piece for atomicity."""

    def write_pieces(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if not keep_text and "text" in batch.column_names:
            batch = batch.drop_columns(["text"])
        # one stable Arrow sort; UTF-8 byte order is codepoint order, so
        # conv_id sorts as Python strings do
        batch = batch.take(pc.sort_indices(batch, sort_keys=[
            ("path", "ascending"), (PART_COL, "ascending"),
            ("conv_id", "ascending"), ("turn_idx", "ascending")]))
        path_enc = pc.dictionary_encode(batch.column("path")).combine_chunks()
        path_idx = path_enc.indices.to_numpy(zero_copy_only=False)
        stems = [_stem(p) for p in path_enc.dictionary.to_pylist()]
        batch = batch.drop_columns(["path"])
        pids = batch.column(PART_COL).to_numpy(zero_copy_only=False)

        n = batch.num_rows

        # counter columns are optional: configs with individual stages disabled
        # (enable_rule_filter=False etc.) legitimately omit them
        def _col_or_zeros(name: str, as_bool: bool = False):
            if name in batch.column_names:
                v = batch.column(name).to_numpy(zero_copy_only=False)
                return (v > 0) if as_bool else v
            return np.zeros(n, dtype=bool)

        kept_col = _col_or_zeros("keep")
        err_col = _col_or_zeros("rule_error")
        scr_col = _col_or_zeros("sensitive_count", as_bool=True)
        ppl_col = (
            batch.column("ppl").to_numpy(zero_copy_only=False)
            if "ppl" in batch.column_names else None
        )

        out_stem: list[str] = []
        out_pid: list[int] = []
        out_counts: dict[str, list[int]] = {"total": [], "kept": [], "errors": [], "scrubbed": []}
        n_bins = len(PPL_BIN_EDGES)  # last bucket open-ended
        out_hist: list[list[int]] = []
        suffix = uuid.uuid4().hex[:8]
        # piece boundaries: rows where the input path or the partition changes
        cuts = np.flatnonzero((path_idx[1:] != path_idx[:-1]) | (pids[1:] != pids[:-1])) + 1
        bounds = [0, *cuts.tolist(), n] if n else []
        for start, end in zip(bounds[:-1], bounds[1:]):
            pid = int(pids[start])
            stem = stems[path_idx[start]]
            piece = batch.slice(start, end - start).drop_columns([PART_COL])
            pdir = os.path.join(data_dir, f"{PART_COL}={pid}")
            os.makedirs(pdir, exist_ok=True)
            tmp = os.path.join(pdir, f".{stem}-{suffix}.tmp")
            pq.write_table(piece, tmp)
            os.replace(tmp, os.path.join(pdir, f"{stem}-{suffix}.parquet"))
            out_stem.append(stem)
            out_pid.append(pid)
            out_counts["total"].append(end - start)
            out_counts["kept"].append(int(kept_col[start:end].sum()))
            out_counts["errors"].append(int(err_col[start:end].sum()))
            out_counts["scrubbed"].append(int(scr_col[start:end].sum()))
            if ppl_col is not None:
                idx = np.searchsorted(PPL_BIN_EDGES, ppl_col[start:end], side="right") - 1
                out_hist.append(np.bincount(np.clip(idx, 0, n_bins - 1),
                                            minlength=n_bins).tolist())
            else:
                out_hist.append([0] * n_bins)

        return pa.table(
            {
                "stem": pa.array(out_stem, pa.string()),
                PART_COL: pa.array(out_pid, pa.int32()),
                **{k: pa.array(v, pa.int64()) for k, v in out_counts.items()},
                "ppl_hist": pa.array(out_hist, pa.list_(pa.int64())),
            }
        )

    return write_pieces


# Ray 2.49's read_parquet path probes `from fsspec.implementations.http
# import HTTPFileSystem` on EVERY call (the failed import is never cached)
# and catches only ModuleNotFoundError — under two concurrent driver THREADS
# the loser of the import race sees a partially-initialized module and gets a
# plain ImportError instead, which escapes and kills that writer. Serialize
# dataset CREATION (metadata-only, microseconds) so threaded multi-writer
# drivers can't trip it; execution itself stays fully concurrent.
_READ_CREATE_LOCK = threading.Lock()


def one_operator_plan(ds):
    """Let every task of ``ds`` go to Ray core at once; return ``ds``.

    For a plan that fuses into ONE operator whose output is a few counter
    rows. Ray Data's per-operator reservation charges each task of an
    operator that has not finished a task yet ``target_max_block_size × 2``
    (256 MiB) of object store against a reserved budget of 0 B, so the first
    task runs alone, and later tasks start in 100 ms dispatch rounds. That
    reservation only keeps one operator of a multi-operator plan from
    starving another, which a one-operator plan cannot do; without it the
    CPU slots pace the tasks. The setting goes on ``ds.context``, the
    Dataset's own copy, never on ``DataContext.get_current()``: a plan that
    chains more operators still needs it."""
    ds.context.op_resource_reservation_enabled = False
    return ds


def _list_input_files(input_path: str) -> list[str]:
    if os.path.isfile(input_path):
        return [input_path]
    return sorted(
        os.path.join(input_path, f)
        for f in os.listdir(input_path)
        if f.endswith(".parquet")
    )


def _input_stat(path: str) -> dict:
    """What resume compares of an input file against its manifest."""
    st = os.stat(path)
    return {"input_size": st.st_size, "input_mtime_ns": st.st_mtime_ns}


def run_quality_job(
    input_path: str,
    output_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    resume: bool = True,
    words=None,
    checkpoint_every: int = 64,
    exclusive: bool = True,
) -> dict:
    """Checkpointed flagship job: per-input-file resume, shuffle-free streaming
    write into hash(conv_id) partition directories, per-file manifests with
    per-partition lineage counters. Idempotent; a crash loses ≤ one chunk of
    ``checkpoint_every`` files.

    ``exclusive=True`` (default): this job owns the output dir — manifests
    for stems outside its input set are stale (an input file was removed) and
    get invalidated, and unknown pieces are crash residue and get deleted.
    ``exclusive=False`` (multi-writer mode, the shape a real cluster
    produces — several ``ray job submit`` drivers each given a disjoint
    slice of the input, all committing into one output dir): manifests and
    pieces for stems outside THIS writer's input set are left untouched, so
    concurrent writers never clobber each other; commits interleave safely
    because every manifest/piece/stats write is tmp-then-rename under a
    stem-unique (or uuid-unique) name."""
    import ray.data as rd

    from chinese_corpus_cleaning_ray.stages.pools import cluster_cpus

    if not resume and not exclusive:
        raise ValueError(
            "resume=False wipes the WHOLE output dir, which a non-exclusive "
            "(multi-writer) job does not own — it would destroy the other "
            "writers' output. Use resume=True with exclusive=False, or wipe "
            "the shared dir once, up front, outside the writers."
        )
    manifest = Manifest(output_dir)
    os.makedirs(output_dir, exist_ok=True)
    files = _list_input_files(input_path)
    by_stem = {_stem(p): p for p in files}
    # the manifests' fingerprint: the config, and an injected list's digest
    words = None if words is None else list(words)
    cfg_hash = quality_fingerprint(cfg, words)

    if not resume:
        for d in (manifest.manifest_dir, manifest.data_dir):
            if os.path.isdir(d):
                shutil.rmtree(d)

    # stale-manifest guard: config change or input-file change invalidates
    done: set[str] = set()
    for stem in manifest.done_stems():
        if stem not in by_stem:
            if exclusive:
                manifest.remove(stem)
            continue
        rec = manifest.read(stem)
        # a record without the full input fingerprint counts as changed
        now = _input_stat(by_stem[stem])
        if (rec.get("config_hash") != cfg_hash or "input_rows" not in rec
                or any(rec.get(k) != v for k, v in now.items())):
            manifest.remove(stem)
        else:
            done.add(stem)

    pieces_cleaned = manifest.clean_pieces_except(
        done, scope=None if exclusive else set(by_stem))
    pending = [p for p in files if _stem(p) not in done]
    if pending:  # a no-op resume ships no word list
        quality, _ = make_quality_fn(cfg, words, fingerprint=cfg_hash)
        write = make_piece_writer(manifest.data_dir, cfg.keep_original_text)

        def quality_write(batch: pa.Table) -> pa.Table:
            return write(quality(batch))

    files_this_run = 0
    cluster = cluster_cpus()
    for chunk_start in range(0, len(pending), checkpoint_every):
        chunk = pending[chunk_start : chunk_start + checkpoint_every]
        # one block per file, so each stem writes one piece per partition, on
        # every run; only a chunk of fewer files than CPUs splits its files,
        # into blocks of >= batch_size rows
        # the stat comes first, so a rewrite after it leaves a stale stamp,
        # never a fresh one
        inputs = {_stem(p): {**_input_stat(p), "input_rows": pq.read_metadata(p).num_rows}
                  for p in chunk}
        rows = sum(fp["input_rows"] for fp in inputs.values())
        with _READ_CREATE_LOCK:
            ds = rd.read_parquet(
                chunk,
                include_paths=True,
                override_num_blocks=max(len(chunk), min(cluster, rows // cfg.batch_size)),
            )
        ds = ds.map_batches(make_add_partition_fn(cfg.num_partitions), batch_format="pyarrow",
                            batch_size=None)
        counters = one_operator_plan(ds.map_batches(quality_write, batch_format="pyarrow",
                                                    batch_size=None)).to_pandas()

        stems_with_rows = set()
        for stem, g in counters.groupby("stem"):
            per_part = {
                int(pid): int(t) for pid, t in g.groupby(PART_COL)["total"].sum().items()
            }
            hist = (
                np.sum(np.vstack(g["ppl_hist"].to_numpy()), axis=0).tolist()
                if "ppl_hist" in g.columns and len(g) else [0] * len(PPL_BIN_EDGES)
            )
            record = {
                "stem": stem,
                **inputs[stem],
                "counters": {k: int(g[k].sum()) for k in ("total", "kept", "errors", "scrubbed")},
                "ppl_hist": [int(x) for x in hist],
                "per_partition": per_part,
                "config_hash": cfg_hash,
                "completed_at": time.time(),
            }
            manifest.mark_done(stem, record)
            stems_with_rows.add(stem)
            files_this_run += 1
        # zero-row inputs produce no counter rows; mark them done too so
        # resume converges instead of re-listing them forever
        for p in chunk:
            stem = _stem(p)
            if stem in stems_with_rows:
                continue
            manifest.mark_done(stem, {
                "stem": stem,
                **inputs[stem],
                "counters": {"total": 0, "kept": 0, "errors": 0, "scrubbed": 0},
                "per_partition": {},
                "config_hash": cfg_hash,
                "completed_at": time.time(),
            })
            files_this_run += 1

    def _totals_from_manifests() -> tuple[dict, list]:
        t = {"total": 0, "kept": 0, "errors": 0, "scrubbed": 0}
        hist = [0] * len(PPL_BIN_EDGES)
        stems = manifest.done_stems()
        for stem in stems:
            rec = manifest.read(stem)
            c = rec["counters"]
            for k in t:
                t[k] += int(c.get(k, 0))
            for i, v in enumerate(rec.get("ppl_hist", [])[: len(hist)]):
                hist[i] += int(v)
        t["files_done"] = len(stems)
        return t, hist

    # run-level stats artifact (ref:main.py:309-311 writes stats.json per
    # batch run) — derived ENTIRELY from committed manifests, so it is also
    # correct after a resume; tmp-then-rename like every other writer here.
    # Multi-writer: stats.json is last-rename-wins, so the (manifest scan →
    # rename) pair is serialized under a lock file — without it a writer
    # that scanned before a peer's final commits can rename AFTER them and
    # publish an undercount. With the lock, the globally-last publisher's
    # scan (taken inside its lock, after its own commits) has seen every
    # manifest committed before it; any later commit belongs to a writer
    # that will itself lock, rescan, and republish.
    lock_path = os.path.join(output_dir, ".stats.lock")
    got_lock = False
    if not exclusive:
        deadline = time.time() + STATS_LOCK_TIMEOUT_S
        while time.time() < deadline:
            try:
                os.close(os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                got_lock = True
                break
            except FileExistsError:
                try:  # break a crashed holder's stale lock
                    if time.time() - os.path.getmtime(lock_path) > 60:
                        os.remove(lock_path)
                except OSError:
                    pass
                time.sleep(0.05)
        if not got_lock:
            # publishing unlocked could overwrite a peer's newer stats.json
            # with an undercount; the manifests are committed, so a rerun
            # with resume=True republishes without redoing any work
            raise TimeoutError(
                f"stats lock {lock_path} still held after {STATS_LOCK_TIMEOUT_S} s; "
                "manifests are committed, stats.json was not published")
    try:
        totals, ppl_hist_total = _totals_from_manifests()
        totals["files_this_run"] = files_this_run
        totals["pieces_cleaned"] = pieces_cleaned
        stats_record = {
            **totals,
            "kept_ratio": (totals["kept"] / totals["total"]) if totals["total"] else 0.0,
            "ppl_hist_bins": PPL_BIN_EDGES,
            "ppl_hist": ppl_hist_total,
            "config_hash": cfg_hash,
            "completed_at": time.time(),
        }
        # uuid-unique tmp name: concurrent multi-writer jobs must not truncate
        # each other's in-flight tmp before the atomic rename
        tmp = os.path.join(output_dir, f"stats.json.tmp.{uuid.uuid4().hex[:8]}")
        with open(tmp, "w") as f:
            json.dump(stats_record, f, indent=2)
        os.replace(tmp, os.path.join(output_dir, "stats.json"))
    finally:
        if got_lock:
            try:
                os.remove(lock_path)
            except OSError:
                pass
    return totals
