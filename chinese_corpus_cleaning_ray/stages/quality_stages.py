"""Quality-pipeline stages.

Stage layout (SURVEY §3 rebuild lifecycle):

1. ``make_langid_rules_fn``  — STATELESS: language-ID heuristic + the 9 rule
   checks + weighted rule score, one pass per row; the CJK count both need
   is taken once per batch (the reference loops rows in its driver —
   ref:main.py:280).
2. ``FeatureScrubStage``     — DFA trie built once per worker (43k-word lists
   take ~0.2 s — ref:sensitive_filter.py:46-70 loads per process); feature
   check/score and the byte-exact scrubbed text come from ONE lowercase and
   ONE trie walk per turn (``FeatureWordsScorer.evaluate``; EP2's two
   passes, ref:process_documents.py:40-59, fused).
3. ``PplStage`` / ``ClusteringStage`` — n-gram LM (A6/A7 —
   ref:lmppl_perplexity.py:26-40) / reference matrix, built once per worker.
4. ``make_score_fn``         — STATELESS: weight-normalized composite quality
   score + keep decision, vectorized (ref:main.py:219-251).

Task stages build their state through ``cached_stage``, actor pools in the
constructor. The checkpointed job (``state.checkpoint.FusedQualityWriteStage``)
runs every enabled stage in one cached task per block over one decoded
``text`` list (passed as ``texts=``).

All stages consume and produce ``pyarrow.Table`` batches and only append
columns — the input schema (conv_id, turn_idx, role, text, tool, ts) passes
through untouched.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from chinese_corpus_cleaning_ray.config import PipelineConfig
from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer
from chinese_corpus_cleaning_ray.functions.langid import make_langid
from chinese_corpus_cleaning_ray.functions.ngram_lm import NgramModel, PerplexityScorer
from chinese_corpus_cleaning_ray.functions.rules import cjk_counts, evaluate_rules_arrow
from chinese_corpus_cleaning_ray.functions.wordlists import load_words


def _texts(batch: pa.Table) -> list[str]:
    return batch.column("text").to_pylist()


# stage state built in this worker process, one entry per stage kind
_STAGE_CACHE: dict = {}


def cached_stage(key: tuple, factory):
    """The stage ``factory()`` builds, built once per worker process for
    ``key``. ``key[0]`` names the stage kind and the rest says what its state
    is (config hash, word-list digest): a new key replaces the kind's one
    entry, so a long-lived worker holds at most one stage per kind."""
    hit = _STAGE_CACHE.get(key[0])
    if hit is None or hit[0] != key:
        hit = _STAGE_CACHE[key[0]] = (key, factory())
    return hit[1]


def make_langid_rules_fn(cfg: PipelineConfig):
    """Stateless batch fn: lang/lang_conf/is_zh + rule_* columns. The CJK
    count both halves need is computed once per batch (``cjk_counts``).
    ``texts`` is the decoded ``text`` column when the caller has it."""

    def langid_rules(batch: pa.Table, texts: list[str] | None = None) -> pa.Table:
        if texts is None:
            texts = _texts(batch)
        col = batch.column("text")
        zh = cjk_counts(col)
        if cfg.enable_langid:
            lid = make_langid(cfg.langid)  # heuristic: construction is free
            lres = lid.predict_batch(texts, arrow_col=col, zh=zh)
            batch = batch.append_column("lang", pa.array(lres["lang"], pa.string()))
            batch = batch.append_column("lang_conf", pa.array(lres["lang_conf"], pa.float64()))
            batch = batch.append_column("is_zh", pa.array(lres["is_zh"], pa.bool_()))
        if cfg.enable_rule_filter:
            rb = evaluate_rules_arrow(texts, cfg.rule, arrow_col=col, zh=zh)
            batch = batch.append_column("rule_pass", pa.array(rb["rule_pass"]))
            batch = batch.append_column("rule_score", pa.array(rb["rule_score"], pa.float64()))
            batch = batch.append_column("rule_error", pa.array(rb["rule_error"]))
        return batch

    return langid_rules


class FeatureScrubStage:
    """One DFA trie + feature scorer per worker. Each turn costs one
    ``FeatureWordsScorer.evaluate`` call: one lowercase and one trie walk
    serve the feature check, the score and the scrub.

    ``words`` may be a plain list, a ``ray.ObjectRef`` to one (broadcast via
    ``ray.put`` on the driver — preferred for large production lists so the
    list ships to each node once, not per task), or None → packaged list.
    """

    def __init__(self, cfg: PipelineConfig, words=None):
        try:
            import ray

            if isinstance(words, ray.ObjectRef):
                words = ray.get(words)
        except ImportError:
            pass
        if words is None:
            words = load_words(cfg.feature.feature_words_path)
        self.cfg = cfg
        self.scorer = FeatureWordsScorer(list(words), cfg.feature)

    def __call__(self, batch: pa.Table, texts: list[str] | None = None) -> pa.Table:
        do_feat = self.cfg.enable_feature_words
        do_scrub = self.cfg.enable_scrub
        if not (do_feat or do_scrub):
            return batch
        if texts is None:
            texts = _texts(batch)
        evaluate = self.scorer.evaluate
        rows = [evaluate(text, scrub=do_scrub) for text in texts]
        if do_feat:
            batch = batch.append_column(
                "feature_pass", pa.array([r["feature_pass"] for r in rows], pa.bool_()))
            batch = batch.append_column(
                "feature_score", pa.array([r["feature_score"] for r in rows], pa.float64()))
            batch = batch.append_column(
                "feature_count", pa.array([r["feature_count"] for r in rows], pa.int32()))
        if do_scrub:
            batch = batch.append_column(
                "scrubbed_text", pa.array([r["scrubbed_text"] for r in rows], pa.string()))
            batch = batch.append_column(
                "sensitive_count", pa.array([r["sensitive_count"] for r in rows], pa.int32()))
        return batch


def make_feature_scrub_fn(cfg: PipelineConfig):
    """Task-stage variant of FeatureScrubStage for the PACKAGED word list:
    the default list is ~100 entries (trie build ~1 ms), so per-worker cached
    construction beats an actor pool's multi-second spin-up per query. Large
    injected lists (43k production entries, 0.2 s build) stay on the
    actor-pool path in ``build_quality_pipeline``."""
    key = ("feature_scrub", cfg.config_hash())

    def feature_scrub(batch: pa.Table) -> pa.Table:
        return cached_stage(key, lambda: FeatureScrubStage(cfg, None))(batch)

    return feature_scrub


class PplStage:
    """n-gram perplexity (model loaded/trained once per worker).

    ``model_path`` → NgramModel.load; else the model trains on the packaged
    clean seed pool (deterministic, ~ms). Emits ppl + ppl_pass + ppl_score.

    ``scorer_factory`` (optional) overrides the scorer entirely — e.g.
    ``lambda: HFPerplexityScorer(cfg.perplexity)`` for the GPT-2 forward-pass
    path on GPU clusters (ref:lmppl_perplexity.py:26-40 loads GPT-2 once per
    process; here once per actor). Any object with check_perplexity /
    get_perplexity_score works. Default stays the deterministic n-gram model
    so keep/drop labels never move.
    """

    def __init__(self, cfg: PipelineConfig, model_path: str | None = None,
                 scorer_factory=None):
        if scorer_factory is not None:
            self.scorer = scorer_factory()
            return
        if model_path:
            model = NgramModel.load(model_path)
        else:
            from chinese_corpus_cleaning_ray.sources.transcripts import CLEAN_SENTENCES

            model = NgramModel(n=cfg.perplexity.order, alpha=cfg.perplexity.alpha).train(
                list(CLEAN_SENTENCES)
            )
        self.scorer = PerplexityScorer(model, cfg.perplexity)

    def __call__(self, batch: pa.Table, texts: list[str] | None = None) -> pa.Table:
        if texts is None:
            texts = _texts(batch)
        ppl = [0.0] * len(texts)
        ppl_pass = [False] * len(texts)
        ppl_score = [0.0] * len(texts)
        fused = getattr(self.scorer, "evaluate", None)
        if fused is not None:
            for i, text in enumerate(texts):
                ppl[i], ppl_pass[i], ppl_score[i] = fused(text)
        else:  # injected scorer without the fused path (check/score contract)
            for i, text in enumerate(texts):
                ok, details = self.scorer.check_perplexity(text)
                ppl[i] = details["perplexity"]
                ppl_pass[i] = ok
                ppl_score[i] = self.scorer.get_perplexity_score(text)
        batch = batch.append_column("ppl", pa.array(ppl, pa.float64()))
        batch = batch.append_column("ppl_pass", pa.array(ppl_pass, pa.bool_()))
        batch = batch.append_column("ppl_score", pa.array(ppl_score, pa.float64()))
        return batch


class ClusteringStage:
    """Duplicate-ratio clustering score — the 4th quality
    component (ref:main.py:189-206, weight 0.1 per ref:config/config.py:59,
    disabled by default there and here).

    The reference linear-scans a Python list of corpus embeddings per text
    (ref:utils/clustering.py:127-150) and maps the max cosine to a piecewise
    score (ref:utils/clustering.py:187-207). Here the reference-corpus matrix
    is normalized once per worker (pass a ``ray.put`` handle so it ships to
    each node once) and every batch is a single (B,d)@(d,R) matmul. For
    reference corpora too big to broadcast, bucket them with
    ``stages.similarity.lsh_planes`` and ship per-bucket slabs instead."""

    def __init__(self, cfg: PipelineConfig, ref_embeddings=None, embedder_factory=None):
        from chinese_corpus_cleaning_ray.stages.embed import DeterministicFakeEmbedder

        if embedder_factory is None:
            embedder_factory = lambda: DeterministicFakeEmbedder(dim=cfg.clustering.embed_dim)  # noqa: E731
        self.embedder = embedder_factory()
        self.threshold = cfg.clustering.similarity_threshold
        try:
            import ray

            if isinstance(ref_embeddings, ray.ObjectRef):
                ref_embeddings = ray.get(ref_embeddings)
        except ImportError:
            pass
        if ref_embeddings is None:
            from chinese_corpus_cleaning_ray.sources.transcripts import CLEAN_SENTENCES

            ref_embeddings = self.embedder.embed_batch(list(CLEAN_SENTENCES))
        m = np.asarray(ref_embeddings, dtype=np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.ref = (m / norms).T  # (d, R), ready for matmul

    def __call__(self, batch: pa.Table, texts: list[str] | None = None) -> pa.Table:
        if texts is None:
            texts = _texts(batch)
        v = self.embedder.embed_batch(texts).astype(np.float64)
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        r = ((v / norms) @ self.ref).max(axis=1) if self.ref.shape[1] else np.zeros(len(texts))
        th = self.threshold
        # piecewise map, vectorized restatement of ref:clustering.py:195-207
        score = np.where(
            r >= th,
            np.maximum(0.0, 0.2 * (1 - (r - th) / (1 - th))),
            np.minimum(1.0, 0.8 + 0.2 * (1 - r / th)),
        )
        batch = batch.append_column("cluster_dup_ratio", pa.array(r, pa.float64()))
        batch = batch.append_column("cluster_pass", pa.array(r < th, pa.bool_()))
        batch = batch.append_column("cluster_score", pa.array(score, pa.float64()))
        return batch


def make_clustering_fn(cfg: PipelineConfig):
    """Task-stage variant of ClusteringStage for the PACKAGED seed-pool
    reference corpus (small matrix, ~ms to build): per-worker cache, no pool
    spin-up. Injected reference embeddings (potentially large, or a real HF
    embedder) stay on the actor-pool path in ``build_quality_pipeline``."""
    key = ("clustering", cfg.config_hash())

    def clustering(batch: pa.Table) -> pa.Table:
        return cached_stage(key, lambda: ClusteringStage(cfg, None))(batch)

    return clustering


def make_score_fn(cfg: PipelineConfig):
    """Composite quality score + keep decision, vectorized.

    score = Σ w_i·s_i / Σ w_i over PRESENT components (ref:main.py:240-251);
    keep = score ≥ quality_threshold (ref:main.py:209). A rule_error row
    (empty text) is the reference's per-file error path → keep=False, score 0.
    """

    def score_decide(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        num = np.zeros(n)
        den = 0.0
        if cfg.enable_rule_filter:
            num += cfg.weight_rule * np.asarray(batch.column("rule_score"))
            den += cfg.weight_rule
        if cfg.enable_feature_words:
            num += cfg.weight_feature * np.asarray(batch.column("feature_score"))
            den += cfg.weight_feature
        if cfg.enable_perplexity and "ppl_score" in batch.column_names:
            num += cfg.weight_perplexity * np.asarray(batch.column("ppl_score"))
            den += cfg.weight_perplexity
        if cfg.enable_clustering and "cluster_score" in batch.column_names:
            num += cfg.weight_clustering * np.asarray(batch.column("cluster_score"))
            den += cfg.weight_clustering
        q = num / den if den > 0 else np.zeros(n)
        if cfg.enable_rule_filter:
            err = np.asarray(batch.column("rule_error"))
            q = np.where(err, 0.0, q)
        else:
            err = np.zeros(n, dtype=bool)
        keep = (~err) & (q >= cfg.quality_threshold)
        batch = batch.append_column("quality_score", pa.array(q, pa.float64()))
        batch = batch.append_column("keep", pa.array(keep, pa.bool_()))
        return batch

    return score_decide
