"""The flagship pipeline: language-ID + quality filter + scrub over a
transcript Dataset (EP1+EP2 of the reference fused into one streaming plan —
ref:text_quality_filter/main.py:253-315 then :363-418, which hand off through
directories of files; here every per-row stage runs in one task per batch).

``build_quality_pipeline`` is one ``map_batches`` over the same
``QualityStage`` the checkpointed job runs (``stages.quality_stages``): it
only appends columns and never materializes; callers consume via
write_parquet / aggregates. Ordering: per-row decisions are
order-independent; the stable (conv_id, turn_idx) output ordering required by
the north rule is applied by the caller (sort before write, or sorted read +
preserve_order) — see state/checkpoint.run_quality_job.
"""

from __future__ import annotations

from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG, PipelineConfig
from chinese_corpus_cleaning_ray.stages.quality_stages import make_quality_fn


def build_quality_pipeline(
    ds,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    words=None,
    cluster_ref=None,
    ppl_scorer_factory=None,
):
    """Append the quality columns to ``ds`` (a ray.data.Dataset with a
    ``text`` column) in one task stage. Returns the lazy Dataset with
    appended columns:

    lang, lang_conf, is_zh, rule_pass, rule_score, rule_error,
    feature_pass, feature_score, feature_count, scrubbed_text,
    sensitive_count, [ppl, ppl_pass, ppl_score,] [cluster_dup_ratio,
    cluster_pass, cluster_score,] quality_score, keep,
    [redacted_text, *_count, pii_total when cfg.enable_pii_redact].

    ``words`` (injected list), ``cluster_ref`` (reference embeddings, an
    array or ``ray.put`` handle) and ``ppl_scorer_factory`` (the GPU/HF
    perplexity seam) go to ``QualityStage``; see ``make_quality_fn`` for how
    each reaches the workers.
    """
    fn, _ = make_quality_fn(cfg, words, cluster_ref, ppl_scorer_factory)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=cfg.batch_size)


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
