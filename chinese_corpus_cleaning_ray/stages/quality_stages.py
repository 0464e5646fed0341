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

``QualityStage`` runs every enabled stage, then PII redaction, over one
decoded ``text`` list per batch (each stage takes it as ``texts=``).
``make_quality_fn`` wraps it in a task-stage batch fn whose state is built
once per worker process by ``cached_stage``; both entry points run that fn —
``pipelines.quality.build_quality_pipeline`` as its one operator, and
``state.checkpoint.run_quality_job`` followed by the piece writer in one
task per block. No stage runs in an actor pool.

All stages consume and produce ``pyarrow.Table`` batches and only append
columns — the input schema (conv_id, turn_idx, role, text, tool, ts) passes
through untouched.
"""

from __future__ import annotations

import hashlib
import json
import uuid

import numpy as np
import pyarrow as pa

from chinese_corpus_cleaning_ray.config import PipelineConfig
from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer
from chinese_corpus_cleaning_ray.functions.langid import make_langid
from chinese_corpus_cleaning_ray.functions.ngram_lm import NgramModel, PerplexityScorer
from chinese_corpus_cleaning_ray.functions.pii import append_pii_columns
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


class PplStage:
    """n-gram perplexity (model trained once per worker on the packaged clean
    seed pool — deterministic, ~ms). Emits ppl + ppl_pass + ppl_score.

    ``scorer_factory`` (optional) overrides the scorer entirely — e.g.
    ``lambda: HFPerplexityScorer(cfg.perplexity)`` for the GPT-2 forward-pass
    path on GPU clusters (ref:lmppl_perplexity.py:26-40 loads GPT-2 once per
    process, and so does ``QualityStage`` here). Any object with
    check_perplexity / get_perplexity_score works, so a saved n-gram model is
    ``lambda: PerplexityScorer(NgramModel.load(path), cfg.perplexity)``.
    Default stays the deterministic n-gram model so keep/drop labels never
    move.
    """

    def __init__(self, cfg: PipelineConfig, scorer_factory=None):
        if scorer_factory is not None:
            self.scorer = scorer_factory()
            return
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


class QualityStage:
    """Every per-row stage over one batch, in one pass: langid+rules →
    feature+scrub → [perplexity] → [clustering] → composite score → [PII
    redaction], all walking one decoded ``text`` list.

    ``words``: an injected list, a ``ray.ObjectRef`` to one, or None (the
    packaged list). ``cluster_ref``: reference-corpus embeddings, an array or
    a ``ray.ObjectRef`` to one, or None (the packaged clean seed pool).
    ``ppl_scorer_factory``: builds the perplexity scorer in place of the
    packaged n-gram model — the GPU/HF seam, e.g. ``lambda:
    HFPerplexityScorer(cfg.perplexity)``."""

    def __init__(self, cfg: PipelineConfig, words=None, cluster_ref=None,
                 ppl_scorer_factory=None):
        self.langid_rules = make_langid_rules_fn(cfg)
        self.scrub = FeatureScrubStage(cfg, words)
        self.ppl = (PplStage(cfg, scorer_factory=ppl_scorer_factory)
                    if cfg.enable_perplexity else None)
        self.cluster = ClusteringStage(cfg, cluster_ref) if cfg.enable_clustering else None
        self.score = make_score_fn(cfg)
        # structured PII (emails / CN mobile / IPv4 / resident id) on the
        # word-scrubbed text; additive, so scrubbed_text keeps reference parity
        self.pii_col = (("scrubbed_text" if cfg.enable_scrub else "text")
                        if cfg.enable_pii_redact else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = _texts(batch)
        batch = self.scrub(self.langid_rules(batch, texts), texts)
        if self.ppl is not None:
            batch = self.ppl(batch, texts)
        if self.cluster is not None:
            batch = self.cluster(batch, texts)
        batch = self.score(batch)
        if self.pii_col is not None:
            batch = append_pii_columns(batch, self.pii_col)
        return batch


def words_digest(words) -> str | None:
    """Content digest of an injected word list (order and duplicates
    ignored); None for the packaged list, which ``config_hash`` covers."""
    if words is None:
        return None
    blob = json.dumps(sorted(set(words)), ensure_ascii=False).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def quality_fingerprint(cfg: PipelineConfig, words=None) -> str:
    """What ``QualityStage``'s output depends on: the config hash, plus an
    injected list's digest (``<config_hash>-words-<digest>``)."""
    digest = words_digest(words)
    return cfg.config_hash() if digest is None else f"{cfg.config_hash()}-words-{digest}"


def make_quality_fn(cfg: PipelineConfig, words=None, cluster_ref=None,
                    ppl_scorer_factory=None, fingerprint: str | None = None):
    """``(fn, fingerprint)``: a task-stage batch fn over ``QualityStage``,
    and its ``quality_fingerprint`` (pass ``fingerprint`` when it is already
    computed for these ``cfg`` and ``words``, to skip digesting the list
    again).

    The stage is built once per worker process per fingerprint, so every
    CPU's worker holds one (a 43k list's trie, the n-gram model, or the
    ``ppl_scorer_factory`` scorer — one model load per worker process, not
    one actor, so scorer memory scales with the CPU count). An injected
    ``words`` list is ``ray.put`` here, once per call, and fetched by a
    worker only when it builds the stage. ``cluster_ref`` and
    ``ppl_scorer_factory`` cannot be digested cheaply: either one adds a
    per-call token to the cache key, so a later call never reuses a stage
    built from another's. Such a stage stays resident in every worker that
    built it after the Dataset finishes, until the next quality call there
    replaces it (``cached_stage`` keeps one stage per kind)."""
    words = None if words is None else list(words)
    if fingerprint is None:
        fingerprint = quality_fingerprint(cfg, words)
    key = ("quality", fingerprint)
    if cluster_ref is not None or ppl_scorer_factory is not None:
        key += (uuid.uuid4().hex,)
    if words is not None:
        import ray

        words = ray.put(words)

    def quality(batch: pa.Table) -> pa.Table:
        return cached_stage(key, lambda: QualityStage(cfg, words, cluster_ref,
                                                      ppl_scorer_factory))(batch)

    return quality, fingerprint
