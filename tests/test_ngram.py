"""N-gram LM + perplexity scorer: formula pins, ordering properties, and the
compiled model pinned bit for bit to the per-position reference in
``tests/oracle_ref.py``."""

import os
import tempfile

import oracle_ref as o
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chinese_corpus_cleaning_ray.config import PerplexityConfig
from chinese_corpus_cleaning_ray.functions import ngram_lm
from chinese_corpus_cleaning_ray.functions.ngram_lm import NgramModel, PerplexityScorer
from chinese_corpus_cleaning_ray.sources.transcripts import CLEAN_SENTENCES


@pytest.fixture(scope="module")
def model():
    return NgramModel(n=5, alpha=0.01).train(list(CLEAN_SENTENCES))


@pytest.fixture(scope="module")
def scorer(model):
    return PerplexityScorer(model, PerplexityConfig())


def test_training_text_scores_low(model):
    assert model.perplexity(CLEAN_SENTENCES[0]) < 50.0


def test_unseen_gibberish_scores_high(model):
    clean = model.perplexity(CLEAN_SENTENCES[1])
    gibberish = model.perplexity("xqzj kvw 乱七八糟随机堆砌字符流水账胡言乱语")
    assert gibberish > clean * 10


def test_deterministic(model):
    t = "学习一门新的编程语言需要耐心和持续的练习"
    assert model.perplexity(t) == model.perplexity(t)


def test_save_load_roundtrip(model, tmp_path):
    p = str(tmp_path / "lm.json")
    model.save(p)
    loaded = NgramModel.load(p)
    t = CLEAN_SENTENCES[2]
    assert loaded.perplexity(t) == model.perplexity(t)


def test_cap_at_max_ppl(scorer):
    # garbage far outside the training distribution is capped at max_ppl
    ppl = scorer.calculate_perplexity("ΩΨΦ" * 50)
    assert ppl <= scorer.cfg.max_ppl


def test_spam_bump(scorer):
    # spam patterns force ppl to at least threshold*1.2 — ref:lmppl_perplexity.py:83-85
    ppl = scorer.calculate_perplexity("高清视频在线播放不卡一区二区")
    assert ppl >= scorer.cfg.ppl_threshold * 1.2


def test_check_fails_on_spam_even_if_fluent(scorer):
    ok, details = scorer.check_perplexity("精彩内容在线观看")
    assert details["has_spam_patterns"] and not ok


def test_clean_passes_check(scorer):
    ok, details = scorer.check_perplexity(CLEAN_SENTENCES[0])
    assert ok, details


def test_score_formula_edges(scorer):
    # clean training text: ppl ≤ thr/2 → base 1.0, no spam → 1.0
    assert scorer.get_perplexity_score(CLEAN_SENTENCES[0]) == 1.0
    spam_score = scorer.get_perplexity_score("精品视频在线观看一区二区")
    assert spam_score <= 0.5  # ×0.5 spam multiplier


def test_segment_extraction_for_long_text(scorer):
    long_text = "。".join(CLEAN_SENTENCES) * 3
    assert scorer.calculate_perplexity(long_text) < scorer.cfg.ppl_threshold


def test_evaluate_matches_check_and_score(scorer):
    # fused evaluate() must be bit-identical to the check/score pair on
    # clean, spam, gibberish, long, and empty inputs
    cases = [
        CLEAN_SENTENCES[0],
        "精品视频在线观看一区二区",
        "xqzv kjwf plmt 乱码乱码乱码",
        "。".join(CLEAN_SENTENCES) * 3,
        "",
        "精彩内容在线观看",
    ]
    for text in cases:
        ppl, ok, score = scorer.evaluate(text)
        ok2, details = scorer.check_perplexity(text)
        assert ppl == details["perplexity"], text
        assert ok == ok2, text
        assert score == scorer.get_perplexity_score(text), text


# ------------------------------------------- compiled model == reference, bit for bit

# CJK, ASCII, control chars (the model's own BOS/EOS among them) and astral
# chars; no lone surrogates, which cannot be written as UTF-8 JSON
_CHARS = st.one_of(
    st.characters(min_codepoint=0x4E00, max_codepoint=0x4E3F),
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.sampled_from("\x00\x02\x03\n\t\x0b\x1f\x7f，。"),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
)
_TEXT = st.text(alphabet=_CHARS, max_size=60)
_ORDER = st.sampled_from([1, 2, 5])


def _assert_same_ppl(model, ref, texts):
    for t in texts:
        assert model.perplexity(t) == ref.perplexity(t), repr(t)


def _saved(model) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "lm.json")
        model.save(p)
        with open(p, "rb") as f:
            return f.read()


@settings(max_examples=150, deadline=None)
@given(n=_ORDER, train=st.lists(_TEXT, max_size=6), probe=st.lists(_TEXT, max_size=6))
def test_compiled_model_equals_reference(n, train, probe):
    model = NgramModel(n=n).train(train)
    ref = o.RefNgramModel(n=n).train(train)
    _assert_same_ppl(model, ref, probe + train)
    blob = _saved(model)
    assert blob == _saved(ref)
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "lm.json")
        with open(p, "wb") as f:
            f.write(blob)
        loaded = NgramModel.load(p)
    _assert_same_ppl(loaded, ref, probe + train)


@settings(max_examples=50, deadline=None)
@given(n=_ORDER, probe=st.lists(_TEXT, max_size=4))
def test_empty_model_equals_reference(n, probe):
    _assert_same_ppl(NgramModel(n=n), o.RefNgramModel(n=n), probe)


@settings(max_examples=100, deadline=None)
@given(probe=st.lists(_TEXT, max_size=4))
def test_seed_pool_model_equals_reference(model, probe):
    ref = o.RefNgramModel(n=5, alpha=0.01).train(list(CLEAN_SENTENCES))
    _assert_same_ppl(model, ref, probe + list(CLEAN_SENTENCES[:3]))


@settings(max_examples=50, deadline=None)
@given(n=_ORDER, first=st.lists(_TEXT, min_size=1, max_size=4),
       second=st.lists(_TEXT, min_size=1, max_size=4), probe=st.lists(_TEXT, max_size=4))
def test_retrain_after_scoring_equals_reference(n, first, second, probe):
    """A second train() changes V and every context total: the tables and
    memo built from the first must not survive it."""
    model = NgramModel(n=n).train(first)
    ref = o.RefNgramModel(n=n).train(first)
    _assert_same_ppl(model, ref, probe + second)
    model.train(second)
    ref.train(second)
    _assert_same_ppl(model, ref, probe + first + second)


def test_memo_overflow_changes_no_value(monkeypatch):
    from chinese_corpus_cleaning_ray.sources.transcripts import synthesize_transcripts

    monkeypatch.setattr(ngram_lm, "_MEMO_CAP", 7)
    model = NgramModel(n=5).train(list(CLEAN_SENTENCES))
    ref = o.RefNgramModel(n=5).train(list(CLEAN_SENTENCES))
    texts = synthesize_transcripts(300, seed=5).column("text").to_pylist()
    for t in texts:
        assert model.perplexity(t) == ref.perplexity(t), repr(t)
        assert len(model._memo) <= 7


def test_scorer_evaluate_equals_reference_on_synthetic_turns(model):
    """The whole ppl component over the 20,000 turns of one synthetic
    corpus: the scorer over the compiled model against the same scorer over
    the reference model."""
    from chinese_corpus_cleaning_ray.sources.transcripts import synthesize_transcripts

    cfg = PerplexityConfig()
    fast = PerplexityScorer(model, cfg)
    slow = PerplexityScorer(o.RefNgramModel(n=5, alpha=0.01).train(list(CLEAN_SENTENCES)), cfg)
    texts = synthesize_transcripts(20_000, seed=301).column("text").to_pylist()
    mismatched = [t for t in texts if fast.evaluate(t) != slow.evaluate(t)]
    assert not mismatched, mismatched[:3]
