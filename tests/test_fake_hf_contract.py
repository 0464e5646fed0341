"""Fake-HF contract tests — prove the GPU-cluster plumbing end-to-end
WITHOUT torch: each fake implements exactly the interface the env-gated HF
class exposes (HFPerplexityScorer overrides only ``_lm_ppl``; HFEmbedder
exposes ``.embed_batch(list[str]) -> (n, hidden) float32``), so a green run
here means swapping in the real class on a GPU cluster changes only the
numbers, never the Ray-side mechanics (actor construction, column schemas,
batch flow).

The fake classes are defined INSIDE factory functions, not at module level:
Ray workers cannot import this test module, so a module-level class would
pickle by reference and dead-letter the actor pool — a function-local class
pickles by value, exactly like a user's ad-hoc factory closure would."""

from __future__ import annotations

import numpy as np


def make_fake_hf_scorer_cls():
    """Returns a class shaped like functions/ngram_lm.py:HFPerplexityScorer:
    a PerplexityScorer subclass that overrides only the raw-LM hook, keeping
    the shared M17/M18 preprocessing + A6 check/score formulas."""
    from chinese_corpus_cleaning_ray.config import PerplexityConfig
    from chinese_corpus_cleaning_ray.functions.ngram_lm import PerplexityScorer

    class FakeHFPerplexityScorer(PerplexityScorer):
        def __init__(self):
            self.cfg = PerplexityConfig()
            self.model = None  # same as the HF path: no n-gram model

        def _lm_ppl(self, text: str) -> float:
            # deterministic stand-in for the GPT-2 forward pass
            return 50.0 + (len(text) % 7) * 10.0

    return FakeHFPerplexityScorer


def make_fake_hf_embedder_cls(hidden_size: int = 32):
    """Returns a class shaped like stages/embed.py:HFEmbedder: fixed hidden
    size, float32 CLS-style output, empty-input handling, process-stable."""

    class FakeHFEmbedder:
        def embed_batch(self, texts: list[str]) -> np.ndarray:
            import hashlib

            if not texts:
                return np.zeros((0, hidden_size), dtype=np.float32)
            out = np.zeros((len(texts), hidden_size), dtype=np.float32)
            for i, t in enumerate(texts):
                # builtin str hash is randomized per worker process
                seed = int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[:4], "little")
                rng = np.random.RandomState(seed)
                v = rng.standard_normal(hidden_size)
                out[i] = (v / np.linalg.norm(v)).astype(np.float32)
            return out

    return FakeHFEmbedder


# --- contracts -------------------------------------------------------------


def test_ppl_stage_scorer_factory_feeds_columns(ray_session):
    """PplStage(scorer_factory=…) as an ACTOR POOL — the factory constructs
    once per actor and its scores land in ppl/ppl_pass/ppl_score."""
    import ray.data as rd

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.stages.quality_stages import PplStage

    factory = make_fake_hf_scorer_cls()
    rows = [{"text": "这是一段用于困惑度评分的中文文本。" + "内容" * i}
            for i in range(8)]
    ds = rd.from_items(rows).map_batches(
        PplStage,
        fn_constructor_kwargs={"cfg": DEFAULT_CONFIG,
                               "scorer_factory": factory},
        batch_format="pyarrow",
        concurrency=2,
        num_cpus=1,
    )
    df = ds.to_pandas()
    assert {"ppl", "ppl_pass", "ppl_score"} <= set(df.columns)
    # the fake's formula round-trips through the shared check/score path
    scorer = factory()
    for _, r in df.iterrows():
        ok, details = scorer.check_perplexity(r["text"])
        assert r["ppl"] == details["perplexity"]
        assert bool(r["ppl_pass"]) == ok
        assert r["ppl_score"] == scorer.get_perplexity_score(r["text"])


def test_quality_pipeline_ppl_scorer_factory_seam(ray_session):
    """build_quality_pipeline(ppl_scorer_factory=…) threads the factory into
    the quality stage's PplStage, built once per worker process; keep/score
    incorporate the injected component."""
    from dataclasses import replace

    import ray.data as rd

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.pipelines.quality import (
        build_quality_pipeline,
    )

    cfg = replace(DEFAULT_CONFIG, enable_perplexity=True)
    rows = [{"conv_id": "c0", "turn_idx": i,
             "text": "高质量的中文文本内容，讨论具体的技术问题。" * 2}
            for i in range(6)]
    out = build_quality_pipeline(
        rd.from_items(rows), cfg,
        ppl_scorer_factory=make_fake_hf_scorer_cls()).to_pandas()
    assert {"ppl", "ppl_pass", "ppl_score", "quality_score", "keep"} <= set(out.columns)
    assert (out["ppl"] > 0).all()


def test_quality_pipeline_cluster_ref_with_fake_embedder(ray_session):
    """build_quality_pipeline(cluster_ref=…): injected reference embeddings
    (via ray.put, the once-per-node broadcast shape) drive the quality
    stage's ClusteringStage; a text embedded into the reference pool scores as a
    near-duplicate, a distinct one does not."""
    from dataclasses import replace

    import ray
    import ray.data as rd

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.pipelines.quality import (
        build_quality_pipeline,
    )
    from chinese_corpus_cleaning_ray.stages.embed import (
        DeterministicFakeEmbedder,
    )

    cfg = replace(DEFAULT_CONFIG, enable_clustering=True)
    emb = DeterministicFakeEmbedder(dim=cfg.clustering.embed_dim)
    dup_text = "与参考语料完全一致的句子内容，用于聚类重复检测。"
    ref = emb.embed_batch([dup_text, "参考语料中的另一段句子。"])
    cluster_ref = ray.put(ref)

    rows = [
        {"conv_id": "c0", "turn_idx": 0, "text": dup_text},
        {"conv_id": "c0", "turn_idx": 1,
         "text": "毫不相关的全新文本，谈论完全不同的主题与词汇。"},
    ]
    out = (build_quality_pipeline(rd.from_items(rows), cfg,
                                  cluster_ref=cluster_ref)
           .to_pandas().sort_values("turn_idx").reset_index(drop=True))
    assert {"cluster_dup_ratio", "cluster_pass", "cluster_score"} <= set(out.columns)
    assert out.loc[0, "cluster_dup_ratio"] > 0.99  # identical → cosine ≈ 1
    assert not out.loc[0, "cluster_pass"]
    assert out.loc[1, "cluster_dup_ratio"] < out.loc[0, "cluster_dup_ratio"]


def test_embed_texts_hf_shaped_factory_through_dedup(ray_session):
    """embed_texts(embedder_factory=HFEmbedder-shaped fake): the embedding
    column has the factory's hidden size and feeds embedding_dedup — the full
    text → embed → near-dup chain a GPU cluster would run."""
    import ray.data as rd

    from chinese_corpus_cleaning_ray.stages.embed import embed_texts
    from chinese_corpus_cleaning_ray.stages.similarity import embedding_dedup

    factory = make_fake_hf_embedder_cls(hidden_size=32)
    rows = ([{"doc_id": i, "text": "重复的文档内容完全相同。"} for i in range(3)]
            + [{"doc_id": 10 + i, "text": f"独立文档{i}号，内容各不相同。"}
               for i in range(3)])
    emb = embed_texts(rd.from_items(rows), text_col="text",
                      embedder_factory=factory, concurrency=2)
    t = emb.to_pandas()
    assert len(t["embedding"].iloc[0]) == 32
    deduped, dups = embedding_dedup(emb, id_col="doc_id", threshold=0.99)
    kept = sorted(deduped.to_pandas()["doc_id"])
    # identical texts → identical fake vectors → keep-first collapses them
    assert kept == [0, 10, 11, 12]


def test_hf_classes_raise_clean_not_implemented_without_torch():
    """The env-gated real classes fail with the documented message, not an
    opaque ImportError — the sandbox contract for optional deps."""
    import pytest

    torch_present = True
    try:
        import torch  # noqa: F401
    except ImportError:
        torch_present = False
    if torch_present:
        pytest.skip("torch installed; gate not exercisable")

    from chinese_corpus_cleaning_ray.functions.ngram_lm import (
        HFPerplexityScorer,
    )
    from chinese_corpus_cleaning_ray.stages.embed import HFEmbedder

    with pytest.raises(NotImplementedError, match="torch"):
        HFPerplexityScorer()
    with pytest.raises(NotImplementedError, match="torch"):
        HFEmbedder()
