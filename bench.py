"""Benchmark harness.

Headline: the flagship checkpointed quality job (read → one fused task per
block: langid+rules → feature/scrub → score → Hive-partitioned piece write;
then manifests) over a deterministic 1M-turn synthetic transcript corpus
(cached under /tmp).
Secondary: wall time of representative queries() entries over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <headline seconds>, "unit": "sec",
   "turns_per_sec": ..., "queries": {...}, "sf": ..., "num_cpus": N}

`python bench.py --scaling` runs the headline job at num_cpus=8 and 32 in
fresh processes on the SAME corpus and reports throughputs + efficiency
(the sandbox stand-in for the N vs 4N node criterion).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

BENCH_TURNS = int(os.environ.get("CCC_BENCH_TURNS", "1000000"))
SEED = 42


def _corpus_dir() -> str:
    return f"/tmp/ccc_bench/transcripts_{BENCH_TURNS}_{SEED}"


def prepare_corpus() -> str:
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts

    # many small shards: parallelism = shards (block = shard in the streaming
    # writer), matching the production many-files shape
    return write_transcripts(_corpus_dir(), BENCH_TURNS, seed=SEED, rows_per_file=25_000)


def run_bench() -> dict:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

    corpus = prepare_corpus()

    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    cfg = DEFAULT_CONFIG

    out_dir = f"/tmp/ccc_bench/out_{num_cpus}_{int(time.time())}"
    # warm-up: page cache + worker-process imports (a tiny untimed job through
    # the same pipeline), so the timed run measures steady-state throughput
    # rather than Python import latency in fresh Ray workers
    import pyarrow.dataset as pads

    pads.dataset(corpus).head(100)
    from chinese_corpus_cleaning_ray.sources.transcripts import write_transcripts

    warm_in = write_transcripts("/tmp/ccc_bench/warmup", 4_000, seed=7, rows_per_file=2_000)
    run_quality_job(warm_in, f"{out_dir}_warm", cfg, resume=False)
    shutil.rmtree(f"{out_dir}_warm", ignore_errors=True)

    t0 = time.perf_counter()
    stats = run_quality_job(corpus, out_dir, cfg, resume=False)
    headline = time.perf_counter() - t0
    assert stats["total"] == BENCH_TURNS, stats
    shutil.rmtree(out_dir, ignore_errors=True)

    # representative queries over the sf tables (skipped in scaling children —
    # the scaling criterion measures the headline job only)
    qtimes: dict[str, float] = {}
    if not os.environ.get("CCC_BENCH_SCALING_CHILD"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import __ray_entry__ as entry

        qs = entry.queries()
        for name in ("agg_pricing_summary", "join_orders_by_nation", "events_hourly",
                     "doc_quality", "doc_minhash_dedup", "doc_jaccard_dedup",
                     "events_topk_per_type", "knn_brute", "transcripts_quality",
                     "doc_top_ngrams", "doc_contamination",
                     "doc_paragraph_dedup", "doc_paragraph_dedup_keeper",
                     "doc_duplicate_components", "doc_pii_redact",
                     "doc_shuffle", "doc_keywords", "events_asof_join",
                     "events_range_join", "doc_substring_dedup",
                     "events_heavy_hitters", "events_value_quantile_sketch",
                     "events_heavy_users_per_type",
                     "events_value_quantiles_per_type", "doc_quality_probe",
                     "doc_probe_scores", "doc_incremental_substring",
                     "doc_dsir_weights", "doc_tfidf_search",
                     "transcripts_dsir_weights", "transcripts_prefix_dedup",
                     "transcripts_tool_stats", "transcripts_sft_pairs",
                     "transcripts_context_clip", "transcripts_sft_pipeline",
                     "transcripts_conv_langid", "transcripts_format_check",
                     "transcripts_selfrep", "transcripts_conv_complete",
                     "transcripts_turn_latency", "transcripts_session_split",
                     "transcripts_conv_qa_gate", "transcripts_response_dedup",
                     "transcripts_incr_prefix_dedup", "transcripts_profile",
                     "transcripts_qa_pipeline", "transcripts_tool_latency"):
            t0 = time.perf_counter()
            res = qs[name](sf_dir)
            if hasattr(res, "to_pandas"):
                res.to_pandas()
            qtimes[name] = round(time.perf_counter() - t0, 3)

    # production-scale word list: trie build + scrub kernel at the reference's
    # 43,378 merged entries (synthetic content, production shape) — the cost a
    # real user's first run pays per worker
    wl_bench: dict = {}
    if not os.environ.get("CCC_BENCH_SCALING_CHILD"):
        import random

        from chinese_corpus_cleaning_ray.functions.scrub import DFAScrubber
        from chinese_corpus_cleaning_ray.functions.wordlists import synthesize_wordlist
        from chinese_corpus_cleaning_ray.sources.transcripts import synthesize_transcripts

        words = synthesize_wordlist()
        t0 = time.perf_counter()
        dfa = DFAScrubber(words)
        build_sec = time.perf_counter() - t0
        texts = synthesize_transcripts(20_000, seed=5).column("text").to_pylist()
        rng = random.Random(1)
        texts = [
            t + rng.choice(words) if rng.random() < 0.2 else t for t in texts
        ]
        nbytes = sum(len(t.encode("utf-8")) for t in texts)
        t0 = time.perf_counter()
        hits = 0
        for t in texts:
            s = dfa.filter(t)
            hits += s != t
        scan_sec = time.perf_counter() - t0
        wl_bench = {
            "n_words": len(words),
            "trie_build_sec": round(build_sec, 3),
            "scrub_turns_per_sec": round(len(texts) / scan_sec, 1),
            "scrub_mb_per_sec": round(nbytes / scan_sec / 1e6, 1),
            "hit_rate": round(hits / len(texts), 3),
        }

    ray.shutdown()
    return {
        "metric": "end_to_end_filter_scrub_1M_turns",
        "value": round(headline, 3),
        "unit": "sec",
        "turns_per_sec": round(BENCH_TURNS / headline, 1),
        "bench_turns": BENCH_TURNS,
        "counters": stats,
        "queries": qtimes,
        "wordlist43k": wl_bench,
        "sf": sf_dir,
        "num_cpus": num_cpus,
    }


def _hw_work(_):
    import re
    import time as _t

    pat = re.compile(r"[一-鿿]")
    t = "清晨的阳光洒在湖面上微风吹过泛起层层涟漪远处的山峦在薄雾里" * 3
    t0 = _t.perf_counter()
    n = 0
    while _t.perf_counter() - t0 < 3.0:
        pat.findall(t)
        n += 1
    return n


def _hardware_parallel_baseline(lo: int, hi: int) -> float:
    """Raw multiprocess CPU-scaling efficiency of THIS box for regex-type
    work (no Ray): per-process throughput at ``hi`` procs / at ``lo`` procs.
    Single-node memory-bandwidth/frequency effects cap any pipeline's
    measured efficiency at this number; a real N→4N NODE comparison would not
    pay it (independent machines). Reported so the pipeline's efficiency can
    be judged net of hardware."""
    import multiprocessing as mp

    rates = {}
    for procs in (lo, hi):
        with mp.Pool(procs) as p:
            rates[procs] = sum(p.map(_hw_work, range(procs))) / procs
    return rates[hi] / rates[lo]


def run_scaling() -> dict:
    """Headline job at num_cpus=8 then 32 in fresh processes, on the SAME
    corpus. The job has one plan (a fused per-worker-cached task stage), so
    there is one configuration to measure.

    4M-turn corpus by default: at 1M the 32-CPU side is fixed-cost dominated
    (11 s wall ≈ 4 s startup) and the ratio reads ~0.65 regardless of the
    pipeline's real scaling behavior. The single-box ratio is also capped by
    the box's shared memory bandwidth, reported as
    ``hardware_parallel_efficiency`` (independent cluster nodes don't pay it:
    the job has zero cross-node exchange)."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), CCC_BENCH_SCALING_CHILD="1",
                   CCC_BENCH_TURNS=os.environ.get("CCC_BENCH_TURNS", "4000000"))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    hw = _hardware_parallel_baseline(lo, hi)
    r_lo, r_hi = run(lo), run(hi)
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    return {
        "metric": "scaling_efficiency_filter_scrub",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sec_8": r_lo["value"],
        "sec_32": r_hi["value"],
        "turns_per_sec_8": r_lo["turns_per_sec"],
        "turns_per_sec_32": r_hi["turns_per_sec"],
        "efficiency_normalized_to_hardware": round(min(1.0, eff / hw), 3),
        "bench_turns": int(os.environ.get("CCC_BENCH_TURNS", "4000000")),
        "cpu_ratio": hi / lo,
        "hardware_parallel_efficiency": round(hw, 3),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
