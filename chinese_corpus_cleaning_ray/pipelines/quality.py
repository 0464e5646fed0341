"""The flagship pipeline: language-ID + quality filter + scrub over a
transcript Dataset (EP1+EP2 of the reference fused into one streaming plan —
ref:text_quality_filter/main.py:253-315 then :363-418, which hand off through
directories of files; here stage edges are the Ray object store).

``build_quality_pipeline`` only appends columns and never materializes; callers
consume via write_parquet / aggregates. Ordering: per-row decisions are
order-independent; the stable (conv_id, turn_idx) output ordering required by
the north rule is applied by the caller (sort before write, or sorted read +
preserve_order) — see state/checkpoint.run_quality_job.
"""

from __future__ import annotations

from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG, PipelineConfig
from chinese_corpus_cleaning_ray.stages.quality_stages import (
    ClusteringStage,
    FeatureScrubStage,
    PplStage,
    make_feature_scrub_fn,
    make_langid_rules_fn,
    make_score_fn,
)


from chinese_corpus_cleaning_ray.stages.pools import resolve_pool


def build_quality_pipeline(
    ds,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    words=None,
    ppl_model_path: str | None = None,
    cluster_ref=None,
    ppl_scorer_factory=None,
):
    """Compose the quality stages onto ``ds`` (a ray.data.Dataset with a
    ``text`` column). Returns the lazy Dataset with appended columns:

    lang, lang_conf, is_zh, rule_pass, rule_score, rule_error,
    feature_pass, feature_score, feature_count, scrubbed_text,
    sensitive_count, [ppl, ppl_pass, ppl_score,] quality_score, keep,
    [redacted_text, *_count, pii_total when cfg.enable_pii_redact].
    """
    if cfg.enable_langid or cfg.enable_rule_filter:
        ds = ds.map_batches(
            make_langid_rules_fn(cfg),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
        )
    if cfg.enable_feature_words or cfg.enable_scrub:
        if words is None:
            # packaged mini list: trie build is ~1 ms — a per-worker cached
            # task stage beats an actor pool's spin-up and uses every CPU
            ds = ds.map_batches(
                make_feature_scrub_fn(cfg),
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
            )
        else:
            # injected (possibly 43k-entry) list: amortize the build per actor
            ds = ds.map_batches(
                FeatureScrubStage,
                fn_constructor_kwargs={"cfg": cfg, "words": words},
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
                concurrency=resolve_pool(cfg.scrub_actors,
                                         fraction=0.45 if cfg.enable_perplexity else 0.6),
                num_cpus=1,
            )
    if cfg.enable_perplexity:
        # ``ppl_scorer_factory``: the GPU-cluster seam — e.g.
        # lambda: HFPerplexityScorer(cfg.perplexity). Constructed once per
        # ACTOR (PplStage.__init__), so the model loads once per worker.
        ds = ds.map_batches(
            PplStage,
            fn_constructor_kwargs={"cfg": cfg, "model_path": ppl_model_path,
                                   "scorer_factory": ppl_scorer_factory},
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            concurrency=resolve_pool(cfg.ppl_actors, fraction=0.3),
            num_cpus=1,
        )
    if cfg.enable_clustering:
        # ``cluster_ref``: reference-corpus embeddings (ndarray or ray.put
        # handle — broadcast once per node); None → packaged clean seed pool,
        # which is cheap enough for a per-worker-cached task stage
        if cluster_ref is None:
            from chinese_corpus_cleaning_ray.stages.quality_stages import make_clustering_fn

            ds = ds.map_batches(
                make_clustering_fn(cfg),
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
            )
        else:
            ds = ds.map_batches(
                ClusteringStage,
                fn_constructor_kwargs={"cfg": cfg, "ref_embeddings": cluster_ref},
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
                concurrency=resolve_pool(None, fraction=0.25),
                num_cpus=1,
            )
    ds = ds.map_batches(make_score_fn(cfg), batch_format="pyarrow", batch_size=cfg.batch_size)
    if getattr(cfg, "enable_pii_redact", False):
        # structured-PII pass (emails / CN mobile / IPv4 / resident id) on
        # the word-scrubbed text — ADDITIVE (redacted_text + counts) so the
        # reference-parity scrubbed_text column is untouched; stateless RE2
        # task stage, same shape as the kernels above
        from chinese_corpus_cleaning_ray.functions.pii import redact_pii

        src = "scrubbed_text" if cfg.enable_scrub else "text"
        ds = redact_pii(ds, text_col=src)
    return ds


def quality_counters(ds, by: str | None = None):
    """Streaming run-level counters (stats.json analogue —
    ref:main.py:272-312): total / kept / errors / scrubbed, optionally grouped
    by a key column (e.g. ``part_id`` for per-partition manifests). Returns a
    small materialized result (aggregate output), never the full dataset."""
    import pyarrow as pa
    from ray.data.aggregate import Count, Sum

    def flags(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = {
            "kept": pc.cast(batch.column("keep"), pa.int64()),
            "errors": pc.cast(batch.column("rule_error"), pa.int64()),
        }
        if "sensitive_count" in batch.column_names:
            out["scrubbed"] = pc.cast(
                pc.greater(batch.column("sensitive_count"), 0), pa.int64()
            )
        cols = [batch.column(by)] if by else []
        names = ([by] if by else []) + list(out.keys())
        return pa.table(cols + list(out.values()), names=names)

    flagged = ds.map_batches(flags, batch_format="pyarrow")
    aggs = [Count(alias_name="total"), Sum("kept", alias_name="kept"),
            Sum("errors", alias_name="errors")]
    if "sensitive_count" in ds.schema().names:
        aggs.append(Sum("scrubbed", alias_name="scrubbed"))
    if by:
        return flagged.groupby(by).aggregate(*aggs)
    return flagged.aggregate(*aggs)
