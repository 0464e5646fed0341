"""Per-layer ledger for the traced run.

Spans are recorded from the benchmark's own code, around calls into each
layer's public functions: name, start, end and parent. They stay in memory
and are written once, when the run ends. The flagship layers are timed in
this one process over the workload's own corpus, in ``cfg.batch_size``
batches, one span per call; rates are wall µs per input turn of the span.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

# The in-process flagship pass covers at most this many turns of the corpus.
LAYER_TURNS = 8_192
BUILD_REPEATS = 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "parent": parent,
                               "start": start, "end": end})

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def flagship_layers(tr: Tracer, w, files: list[str], scratch: str) -> dict:
    """Time each flagship layer in this process. Returns per-layer metrics
    and ``inproc_us``, the sum over the layers the workload's job runs."""
    from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer
    from chinese_corpus_cleaning_ray.functions.langid import make_langid
    from chinese_corpus_cleaning_ray.functions.rules import evaluate_rules_arrow
    from chinese_corpus_cleaning_ray.stages.quality_stages import (
        FeatureScrubStage,
        PplStage,
        make_langid_rules_fn,
        make_score_fn,
    )
    from chinese_corpus_cleaning_ray.state.checkpoint import make_add_partition_fn, make_piece_writer

    cfg = w.cfg
    words = w.oracle_words()

    tables = []
    for f in files:
        with tr.span("transcripts.read"):
            tables.append(pq.read_table(f))
    n_read = sum(t.num_rows for t in tables)
    table = pa.concat_tables(tables)
    n = min(LAYER_TURNS, table.num_rows)
    table = table.slice(0, n).combine_chunks()

    for _ in range(BUILD_REPEATS):
        with tr.span("scrub.build"):
            FeatureWordsScorer(list(words), cfg.feature)

    partition = make_add_partition_fn(cfg.num_partitions)
    langid = make_langid(cfg.langid)
    langid_rules = make_langid_rules_fn(cfg)
    feature_scrub = FeatureScrubStage(cfg, words)
    ppl_stage = PplStage(cfg)
    score = make_score_fn(cfg)
    write = make_piece_writer(os.path.join(scratch, "data"), cfg.keep_original_text)
    dfa = feature_scrub.scorer.dfa
    hits = 0
    for off in range(0, n, cfg.batch_size):
        batch = table.slice(off, cfg.batch_size)
        with tr.span("checkpoint.partition"):
            batch = partition(batch)
        col = batch.column("text")
        texts = col.to_pylist()
        with tr.span("langid"):
            langid.predict_batch(texts, arrow_col=col)
        with tr.span("rules"):
            evaluate_rules_arrow(texts, cfg.rule, arrow_col=col)
        with tr.span("quality_stages.langid_rules"):
            batch = langid_rules(batch)
        with tr.span("quality_stages.feature_scrub"):
            batch = feature_scrub(batch)
        with tr.span("scrub.filter"):
            scrubbed = [dfa.filter(t) for t in texts]
        hits += sum(s != t.lower() for s, t in zip(scrubbed, texts))
        with tr.span("ngram_lm.ppl"):
            with_ppl = ppl_stage(batch)
        if cfg.enable_perplexity:
            batch = with_ppl
        with tr.span("quality_stages.score"):
            batch = score(batch)
        batch = batch.append_column("path", pa.array([files[0]] * batch.num_rows, pa.string()))
        with tr.span("checkpoint.write"):
            write(batch)

    def us(name: str, turns: int = n) -> float:
        return tr.total_s(name) * 1e6 / turns

    m = {
        "transcripts.read_us_per_turn": us("transcripts.read", n_read),
        "checkpoint.partition_us_per_turn": us("checkpoint.partition"),
        "langid.us_per_turn": us("langid"),
        "rules.us_per_turn": us("rules"),
        "quality_stages.langid_rules_us_per_turn": us("quality_stages.langid_rules"),
        "quality_stages.feature_scrub_us_per_turn": us("quality_stages.feature_scrub"),
        "scrub.filter_us_per_turn": us("scrub.filter"),
        "scrub.hit_share": hits / n,
        "scrub.build_s": statistics.median(
            s["end"] - s["start"] for s in tr.spans if s["name"] == "scrub.build"),
        "ngram_lm.ppl_us_per_turn": us("ngram_lm.ppl"),
        "quality_stages.score_us_per_turn": us("quality_stages.score"),
        "checkpoint.write_us_per_turn": us("checkpoint.write"),
    }
    plan = ["transcripts.read_us_per_turn"]
    if w.kind == "flagship":
        plan += ["checkpoint.partition_us_per_turn", "quality_stages.langid_rules_us_per_turn",
                 "quality_stages.feature_scrub_us_per_turn", "quality_stages.score_us_per_turn",
                 "checkpoint.write_us_per_turn"]
        if cfg.enable_perplexity:
            plan.append("ngram_lm.ppl_us_per_turn")
    m["inproc_us"] = sum(m[k] for k in plan)
    return m
