"""The checkpointed flagship job runs one plan for every config: a fused task
stage over one block per input file, its state cached per worker by what the
state is. Pinned here: PII redaction inside that stage, the word list in the
manifest fingerprint, the piece layout, the stage cache, and the aggregate
relabels of ``stages/analysis.py``."""

import glob
import json
import os
import zlib
from collections import defaultdict
from dataclasses import replace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts

    d = tmp_path_factory.mktemp("one_plan_input")
    return write_transcripts(str(d / "t"), 3_000, seed=11, rows_per_file=1_000)


@pytest.fixture()
def cfg():
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG

    return replace(DEFAULT_CONFIG, num_partitions=8)


def _rows(out: str) -> pa.Table:
    t = pads.dataset(os.path.join(out, "data"), partitioning="hive").to_table()
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _pieces(out: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out, "data", "part_id=*", "*.parquet")))


# ------------------------------------------------------------ PII redaction


def test_pii_redaction_runs_in_the_checkpointed_job(ray_session, cfg, tmp_path):
    from chinese_corpus_cleaning_ray.functions.pii import redact_pii_batch
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    texts = [
        "请联系 zhang.san@example.com 或者拨打13812345678，我们会尽快回复您的问题。",
        "服务器地址是192.168.1.10，身份证号11010519491231002X，都不要外传给别人。",
        "今天的天气非常好，我们一起去公园散步，看到了很多美丽的花朵和树木。",
    ] * 4
    n = len(texts)
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({
        "conv_id": [f"c{i % 5}" for i in range(n)],
        "turn_idx": list(range(n)),
        "role": ["user"] * n,
        "text": texts,
    }), str(src / "shard-0.parquet"))

    for scrub in (True, False):
        run_cfg = replace(cfg, enable_pii_redact=True, enable_scrub=scrub,
                          keep_original_text=True)
        out = str(tmp_path / f"out-{scrub}")
        run_quality_job(str(src), out, run_cfg)
        got = _rows(out)
        assert "redacted_text" in got.column_names
        want = redact_pii_batch(got.column("scrubbed_text" if scrub else "text"))
        for name, arr in want.items():
            assert got.column(name).to_pylist() == arr.to_pylist(), name
        assert pc.sum(got.column("pii_total")).as_py() == 4 * 4
        assert all("13812345678" not in t for t in got.column("redacted_text").to_pylist())


# ----------------------------------------------------- word-list fingerprint


def test_resume_with_another_word_list_relabels(ray_session, input_dir, cfg, tmp_path):
    from chinese_corpus_cleaning_ray.functions.wordlists import load_words
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    words_a = load_words()
    words_b = load_words() + ["天气", "公园", "我们"]
    out = str(tmp_path / "out")
    first = run_quality_job(input_dir, out, cfg, words=words_a)
    assert first["files_this_run"] == 3

    again = run_quality_job(input_dir, out, cfg, words=words_b)
    assert again["files_this_run"] == 3 and again["pieces_cleaned"] > 0
    fresh = str(tmp_path / "fresh")
    want = run_quality_job(input_dir, fresh, cfg, words=words_b)
    assert {k: again[k] for k in ("total", "kept", "scrubbed")} == \
        {k: want[k] for k in ("total", "kept", "scrubbed")}
    assert again["scrubbed"] > first["scrubbed"]
    assert _rows(out).equals(_rows(fresh))

    from chinese_corpus_cleaning_ray.stages.quality_stages import words_digest

    stamp = f"{cfg.config_hash()}-words-{words_digest(words_b)}"
    assert json.load(open(os.path.join(out, "stats.json")))["config_hash"] == stamp
    for f in glob.glob(os.path.join(out, "_manifest", "file-*.json")):
        assert json.load(open(f))["config_hash"] == stamp
    # the same list in another order is the same list: nothing to redo
    same = run_quality_job(input_dir, out, cfg, words=list(reversed(words_b)))
    assert same["files_this_run"] == 0 and same["pieces_cleaned"] == 0


# ------------------------------------------------------------- piece layout


def _blocks(out: str) -> dict[str, tuple[set[str], int]]:
    """Pieces grouped by the writer call (block) that wrote them: each call
    names its pieces ``<stem>-<one uuid>``. Returns suffix → (stems, rows)."""
    blocks: dict[str, list] = defaultdict(lambda: [set(), 0])
    for f in _pieces(out):
        stem, suffix = os.path.basename(f)[: -len(".parquet")].rsplit("-", 1)
        blocks[suffix][0].add(stem)
        blocks[suffix][1] += pq.ParquetFile(f).metadata.num_rows
    return {k: (v[0], v[1]) for k, v in blocks.items()}


def test_piece_layout_one_piece_per_file_and_partition(ray_session, input_dir, cfg, tmp_path):
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    source = {}
    touched = 0
    for f in files:
        t = pq.read_table(f, columns=["conv_id", "turn_idx"])
        stem = os.path.basename(f)[: -len(".parquet")]
        convs = t.column("conv_id").to_pylist()
        source.update({k: stem for k in zip(convs, t.column("turn_idx").to_pylist())})
        touched += len({zlib.crc32(c.encode()) % cfg.num_partitions for c in convs})

    counts = []
    for run in range(2):
        out = str(tmp_path / f"run{run}")
        run_quality_job(input_dir, out, cfg)
        pieces = _pieces(out)
        counts.append(len(pieces))
        for f in pieces:
            stem = os.path.basename(f).rsplit("-", 1)[0]
            t = pq.read_table(f, columns=["conv_id", "turn_idx"])
            keys = zip(t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist())
            assert {source[k] for k in keys} == {stem}, f
        assert all(len(stems) == 1 for stems, _ in _blocks(out).values())
    assert counts == [touched, touched]


def test_files_split_only_below_one_per_cpu(ray_session, tmp_path):
    """A lone file is split into at most one block per CPU, each of at least
    ``batch_size`` rows; the layout is the same on every run."""
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    src = write_transcripts(str(tmp_path / "in"), 3_000, seed=5, rows_per_file=3_000)
    layouts = []
    for batch_size, want_blocks in ((1_000, 3), (500, 4), (4_096, 1)):
        run_cfg = replace(DEFAULT_CONFIG, num_partitions=8, batch_size=batch_size)
        for run in range(2):
            out = str(tmp_path / f"out-{batch_size}-{run}")
            assert run_quality_job(src, out, run_cfg)["total"] == 3_000
            blocks = _blocks(out)
            assert len(blocks) == want_blocks, (batch_size, blocks)
            assert all(rows >= batch_size or want_blocks == 1 for _, rows in blocks.values())
            layouts.append((batch_size, len(_pieces(out))))
    assert layouts[0::2] == layouts[1::2]


# ------------------------------------------------- operator reservation


def test_job_plan_runs_without_op_reservation(ray_session, input_dir, cfg, tmp_path,
                                              monkeypatch):
    """Each chunk's one fused operator executes with Ray Data's per-operator
    reservation off, on that Dataset's own context only."""
    import ray.data as rd

    from chinese_corpus_cleaning_ray.pipelines.quality import build_quality_pipeline
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    seen = []
    to_pandas = rd.Dataset.to_pandas

    def spy(self, *args, **kwargs):
        seen.append(self.context.op_resource_reservation_enabled)
        return to_pandas(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "to_pandas", spy)
    assert rd.DataContext.get_current().op_resource_reservation_enabled is True
    assert run_quality_job(input_dir, str(tmp_path / "out"), cfg, checkpoint_every=2)["total"] == 3_000
    assert seen == [False, False]  # two chunks
    assert rd.DataContext.get_current().op_resource_reservation_enabled is True
    # a caller chains more operators onto this one: it keeps reservation
    ds = build_quality_pipeline(rd.from_items([{"text": "今天的天气非常好。"}]), cfg)
    assert ds.context.op_resource_reservation_enabled is True


def test_job_outputs_equal_with_op_reservation_on(ray_session, input_dir, cfg, tmp_path,
                                                  monkeypatch):
    from chinese_corpus_cleaning_ray.state import checkpoint

    def manifests(out):
        recs = [json.load(open(f)) for f in glob.glob(os.path.join(out, "_manifest", "*.json"))]
        return sorted((r["stem"], r["counters"], r["per_partition"]) for r in recs)

    off = str(tmp_path / "off")
    checkpoint.run_quality_job(input_dir, off, cfg)
    monkeypatch.setattr(checkpoint, "one_operator_plan", lambda ds: ds)
    on = str(tmp_path / "on")
    checkpoint.run_quality_job(input_dir, on, cfg)
    assert _rows(off).equals(_rows(on))
    assert manifests(off) == manifests(on)
    assert len(_pieces(off)) == len(_pieces(on))


# ---------------------------------------------------------- crash residue


def test_resume_deletes_half_written_piece_residue(ray_session, input_dir, cfg, tmp_path):
    """A crash between a piece's write and its rename leaves a hidden
    ``.<stem>-<uuid>.tmp``; resume deletes those of this writer's stems,
    committed or not, and leaves another writer's alone."""
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    out = str(tmp_path / "out")
    first = run_quality_job(input_dir, out, cfg, exclusive=False)
    stems = sorted(os.path.basename(f)[: -len(".parquet")]
                   for f in glob.glob(os.path.join(input_dir, "*.parquet")))
    os.remove(os.path.join(out, "_manifest", f"file-{stems[1]}.json"))
    pdir = os.path.join(out, "data", "part_id=3")
    planted = {s: os.path.join(pdir, f".{s}-0badc0de.tmp")
               for s in (stems[0], stems[1], "other-writer-00001")}
    for p in planted.values():
        with open(p, "wb") as f:
            f.write(b"PAR1 half a piece")

    again = run_quality_job(input_dir, out, cfg, exclusive=False)
    assert again["files_this_run"] == 1
    assert {k: again[k] for k in ("total", "kept", "scrubbed")} == \
        {k: first[k] for k in ("total", "kept", "scrubbed")}
    assert [s for s, p in planted.items() if os.path.exists(p)] == ["other-writer-00001"]
    assert glob.glob(os.path.join(out, "data", "*", f".{stems[1]}-*")) == []


# -------------------------------------------------------------- stage cache


def test_cached_stage_holds_one_entry_per_kind():
    from chinese_corpus_cleaning_ray.stages import quality_stages as qs

    built = []

    def factory(tag):
        def make():
            built.append(tag)
            return tag
        return make

    qs._STAGE_CACHE.clear()
    assert qs.cached_stage(("a", 1), factory("a1")) == "a1"
    assert qs.cached_stage(("a", 1), factory("again")) == "a1"
    assert qs.cached_stage(("b", 1), factory("b1")) == "b1"
    assert qs.cached_stage(("a", 2), factory("a2")) == "a2"
    assert qs.cached_stage(("a", 2), factory("again")) == "a2"
    assert built == ["a1", "b1", "a2"]
    assert len(qs._STAGE_CACHE) == 2


def test_one_quality_stage_serves_two_jobs_writers(tmp_path):
    """The job's batch fn is the cached quality stage, then a stateless
    writer: the stage is built once per worker however many jobs run, and
    each job's writer keeps its own output dir and ``keep_text``."""
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG as cfg
    from chinese_corpus_cleaning_ray.stages import quality_stages as qs
    from chinese_corpus_cleaning_ray.state.checkpoint import (
        make_add_partition_fn,
        make_piece_writer,
    )

    t = pa.table({"conv_id": ["c0", "c1"], "turn_idx": [0, 0], "role": ["user"] * 2,
                  "text": ["今天的天气非常好，我们一起去公园散步。", "短句"]})
    t = make_add_partition_fn(cfg.num_partitions)(t)
    t = t.append_column("path", pa.array(["/in/s.parquet"] * 2))
    qs._STAGE_CACHE.clear()
    quality, _ = qs.make_quality_fn(cfg)
    for name, keep_text in (("a", False), ("b", True)):
        make_piece_writer(str(tmp_path / name), keep_text)(quality(t))
    stage = qs._STAGE_CACHE["quality"][1]
    assert isinstance(stage, qs.QualityStage)
    assert qs.make_quality_fn(cfg)[0](t).equals(stage(t))
    assert qs._STAGE_CACHE["quality"][1] is stage
    a = sorted(glob.glob(str(tmp_path / "a" / "*" / "*.parquet")))
    b = sorted(glob.glob(str(tmp_path / "b" / "*" / "*.parquet")))
    assert len(a) == len(b) > 0
    assert "text" not in pq.read_schema(a[0]).names and "text" in pq.read_schema(b[0]).names


def test_injected_scorer_is_never_reused_by_another_call():
    """A ``ppl_scorer_factory`` has no cheap digest, so each call keys its
    stage apart: a later call with another factory builds its own scorer."""
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.stages import quality_stages as qs

    class Fixed:
        def __init__(self, ppl):
            self.ppl = ppl

        def evaluate(self, text):
            return self.ppl, True, 1.0

    cfg = replace(DEFAULT_CONFIG, enable_perplexity=True)
    t = pa.table({"conv_id": ["c0"], "turn_idx": [0], "text": ["今天的天气非常好。"]})
    qs._STAGE_CACHE.clear()
    first, stamp = qs.make_quality_fn(cfg, ppl_scorer_factory=lambda: Fixed(1.0))
    second, again = qs.make_quality_fn(cfg, ppl_scorer_factory=lambda: Fixed(2.0))
    assert stamp == again == cfg.config_hash()
    assert first(t).column("ppl").to_pylist() == [1.0]
    assert second(t).column("ppl").to_pylist() == [2.0]


# --------------------------------------------- aggregate relabels by name


def test_analysis_aggregates_on_crafted_table(ray_session):
    """Each analysis operator whose partials relabel a pyarrow aggregate, on
    a table whose keys and counts differ in type and value, so a swapped
    label changes the answer."""
    import ray

    from chinese_corpus_cleaning_ray.stages.analysis import (
        heavy_hitters,
        mixture_plan,
        pack_chunks,
        rank_by_value,
    )

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "source": ["web", "web", "web", "book", "book", "wiki"],
        "text": ["一二三", "四五", "六", "七八九十", "百", "千万"],
        "v": pa.array([7, 3, 7, 9, 3, 7], pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(2)
    # token masses: web 6, book 5, wiki 2
    assert mixture_plan(ds, "source", {"web": 1, "book": 1, "wiki": 1}, 9) == {
        "web": 5000, "book": 6000, "wiki": 10000}
    chunks = pack_chunks(ds, ctx_len=4, n_buckets=3).to_pandas().sort_values("doc_id")
    assert chunks["n_tokens"].tolist() == [3, 2, 1, 4, 1, 2]
    assert chunks["chunk_id"].tolist() == [0, 0, 1, 1, 2, 2]
    ranks = rank_by_value(ds, "v").to_pandas().sort_values("doc_id")
    assert ranks["rank_lt"].tolist() == [2, 0, 2, 5, 0, 2]
    assert heavy_hitters(ds, "v", 3).to_pylist() == [{"v": 7, "cnt": 3}]
    assert heavy_hitters(ds, "source", 3).to_pylist() == [{"source": "web", "cnt": 3}]
