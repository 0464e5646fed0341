"""Round-3 integration: (1) two CONCURRENT run_quality_job writers on
disjoint input slices of one output dir — the multi-writer shape a real
multi-node cluster produces — must interleave commits without clobbering each
other and produce output identical to a single run; (2) the EP3→EP1 hand-off
(crawl pages → transcript schema → quality job)."""

import os
import shutil
import threading

import pytest


@pytest.fixture(scope="module")
def split_input(tmp_path_factory):
    """One 6-file transcript corpus plus two disjoint 3-file slices of it."""
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts

    root = tmp_path_factory.mktemp("mw_input")
    full = write_transcripts(str(root / "full"), 6_000, seed=47, rows_per_file=1_000)
    files = sorted(f for f in os.listdir(full) if f.endswith(".parquet"))
    assert len(files) == 6
    a_dir, b_dir = str(root / "slice_a"), str(root / "slice_b")
    os.makedirs(a_dir), os.makedirs(b_dir)
    for i, f in enumerate(files):
        # copy2 keeps the mtime: the slices hold the same files as ``full``,
        # as the manifests' input fingerprint (size, mtime, rows) sees them
        shutil.copy2(os.path.join(full, f), os.path.join(a_dir if i < 3 else b_dir, f))
    return full, a_dir, b_dir


def _read_all_sorted(data_dir):
    import pyarrow.dataset as pads

    t = pads.dataset(data_dir, partitioning="hive").to_table()
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def test_concurrent_disjoint_writers_one_output_dir(ray_session, split_input, tmp_path):
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    full, a_dir, b_dir = split_input
    cfg = replace(DEFAULT_CONFIG, num_partitions=8)

    ref_out = str(tmp_path / "ref")
    run_quality_job(full, ref_out, cfg)
    ref = _read_all_sorted(Manifest(ref_out).data_dir)

    out = str(tmp_path / "shared")
    results: dict[str, object] = {}


    def writer(name: str, input_dir: str):
        try:
            # checkpoint_every=1 → one manifest commit per file, maximally
            # interleaved with the other writer's commits
            results[name] = run_quality_job(input_dir, out, cfg,
                                            checkpoint_every=1, exclusive=False)
        except Exception as e:  # surface in the main thread
            results[name] = e

    ta = threading.Thread(target=writer, args=("a", a_dir))
    tb = threading.Thread(target=writer, args=("b", b_dir))
    ta.start(), tb.start()
    ta.join(300), tb.join(300)
    for name in ("a", "b"):
        assert not isinstance(results[name], Exception), results[name]
        assert results[name]["files_this_run"] == 3, results[name]

    m = Manifest(out)
    assert len(m.done_stems()) == 6, "manifests collided or were clobbered"
    merged = _read_all_sorted(m.data_dir)
    assert merged.num_rows == 6_000
    assert ref.equals(merged), "multi-writer output differs from single run"

    # a follow-up EXCLUSIVE run over the full input is a pure no-op resume
    stats = run_quality_job(full, out, cfg)
    assert stats["files_this_run"] == 0 and stats["total"] == 6_000
    assert ref.equals(_read_all_sorted(m.data_dir))


_WRITER_CHILD = """
import os, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR", object_store_memory=1_000_000_000)
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job
from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
from dataclasses import replace
cfg = replace(DEFAULT_CONFIG, num_partitions=8)
stats = run_quality_job({inp!r}, {out!r}, cfg, checkpoint_every=1, exclusive=False)
assert stats["files_this_run"] == 3, stats
print("DONE", flush=True)
ray.shutdown()
"""


def test_multiwriter_separate_processes(ray_session, split_input, tmp_path):
    """The REAL multi-node shape: two separate driver PROCESSES (own Ray
    sessions, as `ray job submit` would give each), disjoint input slices,
    one shared output dir — interleaved commits, byte-equal to one run."""
    import subprocess
    import sys as _sys

    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    full, a_dir, b_dir = split_input
    cfg = replace(DEFAULT_CONFIG, num_partitions=8)
    ref_out = str(tmp_path / "ref")
    run_quality_job(full, ref_out, cfg)
    ref = _read_all_sorted(Manifest(ref_out).data_dir)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = str(tmp_path / "procshared")
    procs = [
        subprocess.Popen(
            [_sys.executable, "-c", _WRITER_CHILD.format(repo=repo, inp=d, out=out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=repo,
        )
        for d in (a_dir, b_dir)
    ]
    for p in procs:
        stdout, stderr = p.communicate(timeout=240)
        assert p.returncode == 0, f"writer failed:\n{stderr[-2000:]}"
        assert "DONE" in stdout

    m = Manifest(out)
    assert len(m.done_stems()) == 6
    merged = _read_all_sorted(m.data_dir)
    assert merged.num_rows == 6_000
    assert ref.equals(merged), "process multi-writer output differs from single run"


def test_nonexclusive_writer_leaves_foreign_state_alone(ray_session, split_input, tmp_path):
    """exclusive=False must not invalidate manifests/pieces for stems outside
    its own input slice (sequential version — deterministic check of the
    scoping logic itself)."""
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.state.checkpoint import Manifest, run_quality_job

    _, a_dir, b_dir = split_input
    cfg = replace(DEFAULT_CONFIG, num_partitions=8)
    out = str(tmp_path / "seq")

    ra = run_quality_job(a_dir, out, cfg, exclusive=False)
    assert ra["files_this_run"] == 3
    m = Manifest(out)
    after_a = set(m.done_stems())

    rb = run_quality_job(b_dir, out, cfg, exclusive=False)
    assert rb["files_this_run"] == 3
    assert after_a <= set(m.done_stems()) and len(m.done_stems()) == 6
    # non-exclusive totals aggregate ALL committed manifests in the dir
    assert rb["total"] == 6_000

    # the EXCLUSIVE default on a partial input set would instead reclaim
    # foreign stems (ownership semantics) — guard that contract too
    rc = run_quality_job(a_dir, out, cfg, exclusive=True)
    assert rc["files_done"] == 3 and len(m.done_stems()) == 3


def test_nonexclusive_rejects_no_resume(ray_session, split_input, tmp_path):
    """resume=False wipes the whole output dir — forbidden for a writer that
    doesn't own it."""
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    _, a_dir, _ = split_input
    with pytest.raises(ValueError, match="multi-writer"):
        run_quality_job(a_dir, str(tmp_path / "x"), resume=False, exclusive=False)


def test_crawl_to_quality_handoff(ray_session, tmp_path):
    """EP3→EP1: WARC → crawl pipeline → transcript adapter → quality job,
    schema-compatible end to end with consistent counters
    (ref:Crawl_Page/test.py → text_quality_filter/main.py hand-off)."""
    from dataclasses import replace

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.pipelines.crawl import (
        crawl_pages_to_transcripts,
        run_crawl_job,
    )
    from chinese_corpus_cleaning_ray.sources.warc import build_warc_record
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    zh = "<html><body>" + "这里是一段高质量的中文网页正文内容，讨论分布式计算与数据处理。" * 4 + "</body></html>"
    en = "<html><body>" + "english filler page content with nothing chinese. " * 4 + "</body></html>"
    recs = [build_warc_record(f"http://p{i}.example/", (zh if i % 2 == 0 else en).encode(), f"<u:{i}>")
            for i in range(6)]
    src = tmp_path / "crawl.warc"
    src.write_bytes(b"".join(recs))

    pages = str(tmp_path / "pages")
    stats = run_crawl_job(str(src), pages)
    assert stats["pages_kept"] == 3

    transcripts = crawl_pages_to_transcripts(pages, str(tmp_path / "transcripts"))
    cfg = replace(DEFAULT_CONFIG, num_partitions=4)
    qstats = run_quality_job(transcripts, str(tmp_path / "quality"), cfg)
    assert qstats["total"] == stats["pages_kept"], "hand-off lost rows"
    assert qstats["files_done"] >= 1
    out = _read_all_sorted(os.path.join(str(tmp_path / "quality"), "data"))
    assert out.num_rows == 3
    cols = set(out.column_names)
    assert {"conv_id", "turn_idx", "quality_score", "keep", "scrubbed_text"} <= cols


def test_stats_lock_timeout_raises_instead_of_publishing(monkeypatch, tmp_path):
    """A non-exclusive writer that cannot take the stats lock in time raises
    TimeoutError; it must not publish stats.json without the lock (that could
    overwrite a peer's newer totals with an undercount)."""
    import chinese_corpus_cleaning_ray.state.checkpoint as ck

    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir(), out.mkdir()  # no input files: the job goes straight to publishing
    (out / ".stats.lock").touch()  # a fresh lock: a live peer is publishing
    monkeypatch.setattr(ck, "STATS_LOCK_TIMEOUT_S", 0.3, raising=False)
    with pytest.raises(TimeoutError, match="stats lock"):
        ck.run_quality_job(str(inp), str(out), exclusive=False)
    assert not (out / "stats.json").exists()
    assert (out / ".stats.lock").exists()  # the peer's lock is left alone
