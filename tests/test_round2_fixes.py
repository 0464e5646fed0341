"""Round-2 hardening: compaction crash recovery, zero-row inputs, disabled
rule-filter configs, layout knobs in config_hash, stale-shard cleanup on
regeneration, knn tie-breaking and empty batches."""

import glob
import json
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts

    d = tmp_path_factory.mktemp("r2_input")
    return write_transcripts(str(d / "t"), 3_000, seed=7, rows_per_file=1_000)


@pytest.fixture()
def cfg():
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG

    return replace(DEFAULT_CONFIG, num_partitions=4)


def _read_all_sorted(data_dir):
    import pyarrow.dataset as pads

    t = pads.dataset(data_dir, partitioning="hive").to_table()
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def test_config_hash_includes_layout_knobs():
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG

    base = DEFAULT_CONFIG.config_hash()
    assert replace(DEFAULT_CONFIG, num_partitions=128).config_hash() != base
    assert replace(DEFAULT_CONFIG, keep_original_text=True).config_hash() != base
    # pure throughput knobs must NOT invalidate checkpoints
    assert replace(DEFAULT_CONFIG, batch_size=1024).config_hash() == base


def test_config_hash_includes_unicode_version(monkeypatch):
    """Character classes come from the interpreter's Unicode database, so a
    Python upgrade must invalidate checkpoints."""
    import unicodedata

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG

    base = DEFAULT_CONFIG.config_hash()
    monkeypatch.setattr(unicodedata, "unidata_version", "0.0.0")
    assert DEFAULT_CONFIG.config_hash() != base


def test_compact_crash_recovery_rolls_forward_and_back(ray_session, input_dir, cfg, tmp_path):
    """Journal present + merged piece committed → surviving sources are
    deleted (roll forward, no duplicate rows). Journal present + no merged
    piece → tmp removed, sources kept (roll back)."""
    import compact as compact_mod

    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    out = str(tmp_path / "out")
    run_quality_job(input_dir, out, cfg)
    m = Manifest(out)
    ref = _read_all_sorted(m.data_dir)

    # manufacture a multi-piece (pdir, stem) group by splitting one piece
    some_piece = sorted(glob.glob(f"{m.data_dir}/part_id=*/*.parquet"))[0]
    pdir = os.path.dirname(some_piece)
    stem = os.path.basename(some_piece).rsplit("-", 1)[0]
    t = pq.read_table(some_piece)
    assert t.num_rows >= 2
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), os.path.join(pdir, f"{stem}-aaaa0001.parquet"))
    pq.write_table(t.slice(half), os.path.join(pdir, f"{stem}-aaaa0002.parquet"))
    os.remove(some_piece)
    files = [f"{stem}-aaaa0001.parquet", f"{stem}-aaaa0002.parquet"]

    # --- simulate crash AFTER commit, BEFORE source deletion ---
    tables = [pq.read_table(os.path.join(pdir, f)) for f in files]
    merged = pa.concat_tables(tables).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    final_name = f"{stem}-deadbeef.parquet"
    pq.write_table(merged, os.path.join(pdir, final_name))
    with open(os.path.join(pdir, f".compact-journal-{stem}.json"), "w") as fh:
        json.dump({"sources": files, "merged": final_name, "tmp": "x.tmp",
                   "rows": merged.num_rows}, fh)
    # both merged piece and sources exist now = duplicated rows on disk
    stats = compact_mod.compact(out)
    assert stats["journals_recovered"] >= 1
    assert _read_all_sorted(m.data_dir).equals(ref), "roll-forward left duplicates"
    for f in files:
        assert not os.path.exists(os.path.join(pdir, f))

    # --- simulate crash BEFORE commit: journal + tmp only ---
    out2 = str(tmp_path / "out2")
    run_quality_job(input_dir, out2, cfg)
    m2 = Manifest(out2)
    ref2 = _read_all_sorted(m2.data_dir)
    pdir2 = sorted(glob.glob(f"{m2.data_dir}/part_id=*"))[0]
    some_stem = "whatever"
    with open(os.path.join(pdir2, ".fake.tmp"), "w") as fh:
        fh.write("junk")
    with open(os.path.join(pdir2, f".compact-journal-{some_stem}.json"), "w") as fh:
        json.dump({"sources": ["nonexistent.parquet"], "merged": "never-written.parquet",
                   "tmp": ".fake.tmp", "rows": 0}, fh)
    stats2 = compact_mod.compact(out2)
    assert stats2["journals_recovered"] >= 1
    assert not os.path.exists(os.path.join(pdir2, ".fake.tmp"))
    assert _read_all_sorted(m2.data_dir).equals(ref2)


def test_zero_row_input_marked_done(ray_session, cfg, tmp_path):
    from chinese_corpus_cleaning_ray.sources.transcripts import TRANSCRIPT_SCHEMA, write_transcripts
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    d = str(tmp_path / "in")
    write_transcripts(d, 1_000, seed=9, rows_per_file=500)
    empty = pa.table({f.name: pa.array([], f.type) for f in TRANSCRIPT_SCHEMA})
    pq.write_table(empty, os.path.join(d, "transcripts-zzzzz.parquet"))

    out = str(tmp_path / "out")
    stats = run_quality_job(d, out, cfg)
    assert stats["files_done"] == 3 and stats["total"] == 1_000
    stats2 = run_quality_job(d, out, cfg)
    assert stats2["files_this_run"] == 0, "zero-row file re-listed as pending"


def test_job_with_rule_filter_disabled(ray_session, input_dir, cfg, tmp_path):
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    cfg2 = replace(cfg, enable_rule_filter=False)
    stats = run_quality_job(input_dir, str(tmp_path / "out"), cfg2)
    assert stats["total"] == 3_000
    assert stats["errors"] == 0  # no rule_error column → counted as zero


def test_write_transcripts_removes_stale_shards(tmp_path):
    from chinese_corpus_cleaning_ray.sources.transcripts import read_transcripts, write_transcripts

    d = str(tmp_path / "t")
    write_transcripts(d, 5_000, seed=3, rows_per_file=1_000)
    assert len(glob.glob(f"{d}/transcripts-*.parquet")) == 5
    write_transcripts(d, 2_000, seed=3, rows_per_file=1_000)
    files = glob.glob(f"{d}/transcripts-*.parquet")
    assert len(files) == 2, "stale shards survived regeneration"
    total = sum(pq.read_metadata(f).num_rows for f in files)
    assert total == 2_000


def test_brute_knn_tie_break_and_empty_batch():
    from chinese_corpus_cleaning_ray.stages.similarity import BruteKnnStage

    q = np.array([[1.0, 0.0]])
    # ids out of order; vec 7 and 3 are identical ⇒ exact cosine tie — the
    # smaller id must win the k-th slot
    tbl = pa.table({
        "vec_id": pa.array([7, 3, 9], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                              pa.list_(pa.float64())),
    })
    st = BruteKnnStage(q, k=1, id_col="vec_id", vec_col="embedding")
    out = st(tbl)
    assert out.column("vec_id").to_pylist() == [3]

    empty = tbl.slice(0, 0)
    out0 = st(empty)
    assert out0.num_rows == 0
    assert out0.column_names == ["query_id", "vec_id", "cos"]


def test_popcount64_matches_scalar_hamming():
    from chinese_corpus_cleaning_ray.functions.dedup import hamming64, popcount64

    rng = np.random.RandomState(0)
    a = rng.randint(-(2**63), 2**63, size=200, dtype=np.int64)
    b = rng.randint(-(2**63), 2**63, size=200, dtype=np.int64)
    x = a.view(np.uint64) ^ b.view(np.uint64)
    got = popcount64(x)
    want = [hamming64(int(ai), int(bi)) for ai, bi in zip(a, b)]
    assert got.tolist() == want


def test_bucket_keeper_dups_chunked_equals_direct():
    from chinese_corpus_cleaning_ray.stages.similarity import _bucket_keeper_dups, _normalize

    rng = np.random.RandomState(1)
    base = _normalize(rng.standard_normal((40, 8)))
    # plant near-duplicate chains so keeper-skip semantics matter
    v = np.vstack([base, base[:10] + rng.standard_normal((10, 8)) * 0.01])
    v = _normalize(v)
    direct = _bucket_keeper_dups(v, 0.98, chunk=10_000)
    chunked = _bucket_keeper_dups(v, 0.98, chunk=7)
    assert direct.tolist() == chunked.tolist()
    assert direct[40:].any()  # planted dups detected


def test_sessionize_shard_kernel_matches_naive(ray_session):
    import ray.data as rd

    from chinese_corpus_cleaning_ray.pipelines.conversations import sessionize_events

    rng = np.random.RandomState(5)
    n = 4_000
    users = rng.randint(0, 60, n)
    ts = np.sort(rng.randint(0, 400_000, n)) * 1_000_000  # epoch us
    tbl = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    out = (
        sessionize_events(rd.from_arrow(tbl), gap_seconds=600)
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    # naive per-user reference
    import pandas as pd
    df = tbl.to_pandas()
    df["ts_s"] = df["ts"].astype("int64") // 1_000_000
    rows = []
    for uid, g in df.sort_values(["user_id", "ts_s", "event_id"]).groupby("user_id"):
        sidx, start, last, cnt = -1, None, None, 0
        for t in g["ts_s"]:
            if last is None or t - last > 600:
                if last is not None:
                    rows.append((uid, sidx, cnt, start, last))
                sidx += 1
                start, cnt = t, 0
            cnt += 1
            last = t
        rows.append((uid, sidx, cnt, start, last))
    ref = pd.DataFrame(rows, columns=["user_id", "session_idx", "n_events",
                                      "start_ts", "end_ts"])
    ref = ref.sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    assert out.astype("int64").equals(ref.astype("int64"))


def test_production_scale_wordlist_trie():
    """43,378-entry synthetic list at the reference's production scale
    (ref:merge_all_sensitive_words.py output size): trie builds fast, scrub
    stays byte-exact, detect finds planted words."""
    import time

    from chinese_corpus_cleaning_ray.functions.scrub import DFAScrubber
    from chinese_corpus_cleaning_ray.functions.wordlists import synthesize_wordlist

    words = synthesize_wordlist()
    assert len(words) == 43_378 and len(set(words)) == 43_378
    t0 = time.perf_counter()
    dfa = DFAScrubber(words)
    assert time.perf_counter() - t0 < 5.0, "trie build too slow for per-actor init"

    w1, w2 = words[100], words[40_000]
    text = f"前缀{w1}中缀{w2}后缀，干净句子不受影响。"
    scrubbed = dfa.filter(text)
    assert scrubbed == text.replace(w1, "*" * len(w1)).replace(w2, "*" * len(w2))
    assert set(dfa.detect(text)) == {w1, w2}
    clean = "这是一段完全不包含敏感词的普通文本。"
    assert dfa.filter(clean) == clean


def test_knn_ivf_recall_vs_brute(ray_session):
    """Quantified recall of the approximate path vs exact brute force at
    fixed (nbits, expand) — guards against a silent recall cliff (the
    rows-only driver check can't see one)."""
    import ray.data as rd

    from chinese_corpus_cleaning_ray.stages.similarity import knn_brute, knn_ivf

    rng = np.random.RandomState(3)
    n, d = 3_000, 32
    centers = rng.standard_normal((20, d)) * 2
    vecs = centers[rng.randint(0, 20, n)] + rng.standard_normal((n, d)) * 0.3
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    q = vecs[:5]
    brute = knn_brute(rd.from_arrow(tbl), q, k=10).to_pandas()

    def recall(nbits, expand):
        approx = knn_ivf(rd.from_arrow(tbl), q, k=10, nbits=nbits,
                         expand=expand).to_pandas()
        per_q = []
        for qi in range(len(q)):
            want = set(brute[brute.query_id == qi].vec_id)
            got = set(approx[approx.query_id == qi].vec_id)
            per_q.append(len(want & got) / len(want))
        return float(np.mean(per_q))

    # driver-default params (nbits=4, expand=1) must be near-exact here
    assert recall(4, 1) >= 0.95
    assert recall(6, 1) >= 0.90
    # coarser prefilter trades recall for candidate-set size, never collapses
    assert recall(8, 2) >= 0.60


def test_ngram_jaccard_dedup_planted(ray_session):
    import ray.data as rd

    from chinese_corpus_cleaning_ray.stages.dedup_stage import ngram_jaccard_dedup

    base = "今天天气很好我们一起去公园散步然后讨论了分布式系统的设计问题"
    texts = [
        base,                       # 0: keeper
        base,                       # 1: exact dup of 0
        base + "。",                # 2: near dup of 0 (high shingle overlap)
        "完全不同的另一段文字内容说的是机器学习模型的训练和评估流程",   # 3
        "第三段独立文本讲的是数据库索引结构与查询优化器的工作原理",     # 4
    ]
    tbl = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    deduped, dup_ids = ngram_jaccard_dedup(rd.from_arrow(tbl), id_col="doc_id",
                                           threshold=0.8)
    kept = sorted(deduped.to_pandas()["doc_id"])
    assert kept == [0, 2, 3, 4] or kept == [0, 3, 4]  # 2 depends on overlap ratio
    assert 1 in dup_ids

    # exact-jaccard check for the near pair decides whether 2 is a dup
    a = {base[i:i+5] for i in range(len(base) - 4)}
    b = {(base + "。")[i:i+5] for i in range(len(base + "。") - 4)}
    jac = len(a & b) / len(a | b)
    assert (2 in dup_ids) == (jac >= 0.8)


def test_topk_per_group_and_sliding_window(ray_session):
    import pandas as pd
    import ray.data as rd

    from chinese_corpus_cleaning_ray.pipelines.conversations import (
        sliding_window_counts,
        topk_per_group,
    )

    # topk: group a → user 1 dominates; tie between 2 and 3 broken by key asc
    tbl = pa.table({
        "event_type": pa.array(["a"] * 5 + ["b"] * 3, pa.string()),
        "user_id": pa.array([1, 1, 1, 2, 3, 9, 9, 8], pa.int64()),
    })
    out = (
        topk_per_group(rd.from_arrow(tbl), "event_type", "user_id", k=2)
        .to_pandas().sort_values(["event_type", "rank"]).reset_index(drop=True)
    )
    assert out[out.event_type == "a"]["user_id"].tolist() == [1, 2]
    assert out[out.event_type == "b"]["user_id"].tolist() == [9, 8]
    assert out[out.event_type == "a"]["n"].tolist() == [3, 1]

    # sliding window with an hour GAP: RANGE semantics, not ROWS
    hours = [0, 0, 1, 5, 5, 6]  # hour 5 must NOT see hours 0/1
    ts = pa.array([h * 3_600_000_000 for h in hours], pa.timestamp("us"))
    ev = pa.table({"ts": ts})
    win = sliding_window_counts(rd.from_arrow(ev), window_hours=3)
    got = dict(zip(win["hour_bucket"], win["window_events"]))
    assert got == {0: 2, 1: 3, 5: 2, 6: 3}


def test_compact_refuses_on_manifest_rowcount_mismatch(ray_session, input_dir, cfg, tmp_path):
    """An extra (duplicate-row) piece under a committed stem makes the group's
    row count exceed the manifest total: compact must leave the group alone
    and report the mismatch rather than merging duplicates in."""
    import compact as compact_mod

    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    out = str(tmp_path / "out")
    run_quality_job(input_dir, out, cfg)
    m = Manifest(out)
    piece = sorted(glob.glob(f"{m.data_dir}/part_id=*/*.parquet"))[0]
    pdir = os.path.dirname(piece)
    stem = os.path.basename(piece).rsplit("-", 1)[0]
    # duplicate rows on disk under the same stem (residue a crashed tool left)
    pq.write_table(pq.read_table(piece), os.path.join(pdir, f"{stem}-bbbb0001.parquet"))
    before = sorted(os.listdir(pdir))
    stats = compact_mod.compact(out)
    assert stats["row_mismatches"] >= 1
    assert sorted(os.listdir(pdir)) == before, "mismatched group was modified"


def test_knn_ivf_kmeans_recall(ray_session):
    import ray.data as rd

    from chinese_corpus_cleaning_ray.stages.similarity import knn_brute, knn_ivf_kmeans

    rng = np.random.RandomState(9)
    n, d = 3_000, 32
    centers = rng.standard_normal((12, d)) * 2
    vecs = centers[rng.randint(0, 12, n)] + rng.standard_normal((n, d)) * 0.3
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    q = vecs[:4]
    brute = knn_brute(rd.from_arrow(tbl), q, k=10).to_pandas()
    approx = knn_ivf_kmeans(rd.from_arrow(tbl), q, k=10, n_clusters=12,
                            nprobe=3).to_pandas()
    per_q = []
    for qi in range(len(q)):
        want = set(brute[brute.query_id == qi].vec_id)
        got = set(approx[approx.query_id == qi].vec_id)
        per_q.append(len(want & got) / len(want))
    assert float(np.mean(per_q)) >= 0.9, f"kmeans-IVF recall collapsed: {per_q}"


@pytest.mark.parametrize(
    "flag", [None, "words", "enable_perplexity", "enable_clustering", "enable_pii_redact"],
    ids=["default", "injected_list", "perplexity", "clustering", "pii"])
def test_run_quality_job_matches_pipeline(ray_session, input_dir, cfg, tmp_path, flag):
    """The checkpointed job (one block per file, then the piece writer) gives,
    on every config, the rows of ``build_quality_pipeline`` over the same
    files. Both run one ``QualityStage``, so this pins the job's layout
    (partitioning, sort, text drop), not the labels; those are pinned to
    ``tests/oracle_ref.py`` in ``test_single_walk.py``."""
    from dataclasses import replace

    import ray.data as rd

    from chinese_corpus_cleaning_ray.functions.wordlists import load_words
    from chinese_corpus_cleaning_ray.pipelines.quality import build_quality_pipeline
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    words = load_words() + ["天气", "公园", "我们"] if flag == "words" else None
    if flag and flag.startswith("enable_"):
        cfg = replace(cfg, **{flag: True})

    out = str(tmp_path / "out")
    run_quality_job(input_dir, out, cfg, words=words)
    got = _read_all_sorted(Manifest(out).data_dir).drop_columns(["part_id"])
    want = pa.concat_tables(build_quality_pipeline(rd.read_parquet(input_dir), cfg, words=words)
                            .iter_batches(batch_format="pyarrow", batch_size=None))
    want = want.drop_columns(["text"]).sort_by([("conv_id", "ascending"),
                                               ("turn_idx", "ascending")])
    assert got.column_names == want.column_names
    assert got.equals(want), f"{flag}: run_quality_job and build_quality_pipeline differ"


def test_stats_json_artifact(ray_session, input_dir, cfg, tmp_path):
    """run-level stats.json (ref:main.py:309-311): totals + kept ratio +
    config hash; correct after resume (derived from committed manifests)."""
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    out = str(tmp_path / "out")
    stats = run_quality_job(input_dir, out, cfg)
    rec = json.load(open(os.path.join(out, "stats.json")))
    assert rec["total"] == 3_000 and rec["kept"] == stats["kept"]
    assert abs(rec["kept_ratio"] - stats["kept"] / 3_000) < 1e-12
    assert rec["config_hash"] == cfg.config_hash()
    # resume (no-op) rewrites a consistent artifact
    run_quality_job(input_dir, out, cfg)
    rec2 = json.load(open(os.path.join(out, "stats.json")))
    assert rec2["total"] == 3_000 and rec2["kept"] == rec["kept"]


def test_ppl_histogram_counters(ray_session, input_dir, tmp_path):
    """North-rule counter: per-file + run-level perplexity histograms when the
    ppl stage is enabled; zero vectors when it is not."""
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.state.checkpoint import (
        PPL_BIN_EDGES,
        Manifest,
        run_quality_job,
    )

    cfg = replace(DEFAULT_CONFIG, num_partitions=4, enable_perplexity=True)
    out = str(tmp_path / "out")
    run_quality_job(input_dir, out, cfg)
    rec = json.load(open(os.path.join(out, "stats.json")))
    assert rec["ppl_hist_bins"] == PPL_BIN_EDGES
    assert sum(rec["ppl_hist"]) == 3_000        # every turn lands in a bin
    assert len(rec["ppl_hist"]) == len(PPL_BIN_EDGES)
    m = Manifest(out)
    per_file = [m.read(s)["ppl_hist"] for s in m.done_stems()]
    col_sums = [sum(col) for col in zip(*per_file)]
    assert col_sums == rec["ppl_hist"]          # run hist == Σ file hists

    out2 = str(tmp_path / "out2")
    run_quality_job(input_dir, out2, replace(DEFAULT_CONFIG, num_partitions=4))
    rec2 = json.load(open(os.path.join(out2, "stats.json")))
    assert sum(rec2["ppl_hist"]) == 0           # ppl disabled → empty hist
