"""Checkpointed job v2 (per-input-file resume, shuffle-free piece writer):
full run, no-op resume, crash-resume equivalence, orphan-piece cleanup,
stale-config invalidation, conversation co-location, counter integrity."""

import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts

    d = tmp_path_factory.mktemp("ckpt_input")
    return write_transcripts(str(d / "t"), 5_000, seed=31, rows_per_file=1_000)


@pytest.fixture()
def cfg():
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG

    return replace(DEFAULT_CONFIG, num_partitions=8)


def _read_all_sorted(data_dir):
    import pyarrow.dataset as pads

    t = pads.dataset(data_dir, partitioning="hive").to_table()
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def test_full_run_and_noop_resume(ray_session, input_dir, cfg, tmp_path):
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    out = str(tmp_path / "out")
    stats = run_quality_job(input_dir, out, cfg)
    assert stats["total"] == 5_000
    assert stats["files_this_run"] == stats["files_done"] == 5
    assert 0 < stats["kept"] < 5_000
    m = Manifest(out)
    rec = m.read(sorted(m.done_stems())[0])
    assert rec["config_hash"] and rec["input_size"] > 0
    assert rec["counters"]["total"] == sum(rec["per_partition"].values()) == 1_000

    first = _read_all_sorted(m.data_dir)
    assert first.num_rows == 5_000
    stats2 = run_quality_job(input_dir, out, cfg)
    assert stats2["files_this_run"] == 0
    assert stats2["total"] == 5_000
    assert first.equals(_read_all_sorted(m.data_dir))



def test_noop_resume_reads_no_footer_and_ships_no_word_list(
        ray_session, input_dir, cfg, tmp_path, monkeypatch):
    """Resume checks each manifest against one stat of its input; with
    nothing pending, an injected word list is never ``ray.put``."""
    import ray

    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    out = str(tmp_path / "out")
    words = ["spamword", "违禁词"]
    assert run_quality_job(input_dir, out, cfg, words=words)["files_this_run"] == 5

    def boom(*a, **k):
        raise AssertionError("called on a no-op resume")

    monkeypatch.setattr(ray, "put", boom)
    monkeypatch.setattr(pq, "read_metadata", boom)
    stats = run_quality_job(input_dir, out, cfg, words=words)
    assert stats["files_this_run"] == 0 and stats["total"] == 5_000

def test_crash_resume_equivalence(ray_session, input_dir, cfg, tmp_path):
    """Simulated crash: keep 2 manifests, delete the rest; leave one file's
    pieces orphaned (no manifest). Resume must clean orphans, reprocess only
    pending files, and produce output identical to a single-shot run."""
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    ref_out = str(tmp_path / "ref")
    run_quality_job(input_dir, ref_out, cfg)
    ref = _read_all_sorted(Manifest(ref_out).data_dir)

    crash_out = str(tmp_path / "crash")
    run_quality_job(input_dir, crash_out, cfg)
    m = Manifest(crash_out)
    done = sorted(m.done_stems())
    assert len(done) == 5
    for stem in done[2:]:
        m.remove(stem)  # stems 2..4 incomplete; their pieces remain = orphans

    stats = run_quality_job(input_dir, crash_out, cfg)
    assert stats["pieces_cleaned"] > 0
    assert stats["files_this_run"] == 3
    assert stats["total"] == 5_000
    resumed = _read_all_sorted(m.data_dir)
    assert resumed.num_rows == 5_000
    assert ref.equals(resumed), "resumed output differs from single-shot output"


def test_stale_config_invalidates(ray_session, input_dir, cfg, tmp_path):
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import RuleConfig
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    out = str(tmp_path / "out")
    run_quality_job(input_dir, out, cfg)
    cfg2 = replace(cfg, rule=RuleConfig(min_text_length=50))
    stats = run_quality_job(input_dir, out, cfg2)
    assert stats["files_this_run"] == 5  # every manifest was stale → recompute
    assert stats["total"] == 5_000


def test_same_size_rewrite_of_a_shard_is_redone(ray_session, cfg, tmp_path):
    """A shard rewritten in place to the same byte size (one ASCII character
    changed in an uncompressed, dictionary-free file) is a changed input, and
    so is one whose manifest predates the mtime and row-count stamps: resume
    redoes each such file, and only it."""
    import json

    import pyarrow as pa

    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    src = tmp_path / "in"
    src.mkdir()
    text = "这一段混合了英文敏感词 spamword 和中文内容，用来检查重写之后的结果是否更新。"
    for i in range(2):
        pq.write_table(pa.table({"conv_id": [f"c{i}"] * 3, "turn_idx": [0, 1, 2],
                                 "role": ["user"] * 3, "text": [text] * 3}),
                       str(src / f"shard-{i}.parquet"), compression=None, use_dictionary=False)
    out = str(tmp_path / "out")
    assert run_quality_job(str(src), out, cfg)["files_this_run"] == 2

    shard = src / "shard-1.parquet"
    blob = shard.read_bytes()
    assert b"spamword" in blob
    shard.write_bytes(blob.replace(b"spamword", b"spamwork"))
    assert len(shard.read_bytes()) == len(blob)
    again = run_quality_job(str(src), out, cfg)
    assert again["files_this_run"] == 1 and again["total"] == 6
    rows = _read_all_sorted(Manifest(out).data_dir).to_pylist()
    assert [("spamwork" in r["scrubbed_text"]) for r in rows] == [False] * 3 + [True] * 3

    m = Manifest(out)
    for stem, field in (("shard-0", "input_mtime_ns"), ("shard-1", "input_rows")):
        rec = m.read(stem)
        del rec[field]
        m.mark_done(stem, rec)
    assert run_quality_job(str(src), out, cfg)["files_this_run"] == 2
    assert run_quality_job(str(src), out, cfg)["files_this_run"] == 0
    assert {"input_size", "input_mtime_ns", "input_rows"} <= set(
        json.load(open(os.path.join(out, "_manifest", "file-shard-0.json"))))


def test_partition_dirs_colocate_conversations(ray_session, input_dir, cfg, tmp_path):
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    out = str(tmp_path / "out2")
    run_quality_job(input_dir, out, cfg)
    m = Manifest(out)
    seen: dict[str, str] = {}
    for d in sorted(os.listdir(m.data_dir)):
        pdir = os.path.join(m.data_dir, d)
        for f in os.listdir(pdir):
            t = pq.read_table(os.path.join(pdir, f), columns=["conv_id"])
            for c in set(t.column("conv_id").to_pylist()):
                assert seen.setdefault(c, d) == d, f"conv {c} split across partitions"
    assert len(set(seen.values())) > 1  # actually partitioned


def test_chunked_incremental_commit(ray_session, input_dir, cfg, tmp_path):
    """checkpoint_every=2 → manifests land in waves; totals unchanged."""
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    out = str(tmp_path / "out3")
    stats = run_quality_job(input_dir, out, cfg, checkpoint_every=2)
    assert stats["files_done"] == 5 and stats["total"] == 5_000


def test_compaction_preserves_output_and_resume(ray_session, input_dir, cfg, tmp_path):
    """tools/compact.py merges (partition, stem) piece groups; output bytes and
    resume semantics (per-stem invalidation) survive."""
    import glob
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
    import compact as compact_mod

    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    out = str(tmp_path / "outc")
    run_quality_job(input_dir, out, cfg)
    m = Manifest(out)
    before = _read_all_sorted(m.data_dir)
    n_before = len(glob.glob(f"{m.data_dir}/part_id=*/*.parquet"))
    stats = compact_mod.compact(out)
    n_after = len(glob.glob(f"{m.data_dir}/part_id=*/*.parquet"))
    assert n_after <= n_before and stats["pieces_after"] == n_after
    assert before.equals(_read_all_sorted(m.data_dir))
    # per-stem invalidation still works on compacted pieces
    victim = sorted(m.done_stems())[0]
    m.remove(victim)
    stats2 = run_quality_job(input_dir, out, cfg)
    assert stats2["files_this_run"] == 1 and stats2["pieces_cleaned"] > 0
    assert before.equals(_read_all_sorted(m.data_dir))
