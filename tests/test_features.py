"""Feature-word scorer vs oracle; tier boundaries and quirks."""

import pytest

from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer

import oracle_ref as o


@pytest.fixture(scope="module")
def scorer(wordlist):
    return FeatureWordsScorer(wordlist)


@pytest.fixture(scope="module")
def trie(wordlist):
    return o.build_trie(wordlist)


def test_scores_match_oracle(scorer, trie, sample_texts):
    for text in sample_texts:
        assert scorer.get_feature_score(text) == pytest.approx(
            o.o_feature_score(trie, text), abs=1e-12
        ), f"feature score diverges for {text[:60]!r}"


def test_pass_matches_oracle(scorer, trie, sample_texts):
    for text in sample_texts:
        got, _ = scorer.check_feature_words(text)
        assert got == o.o_feature_pass(trie, text)


def test_empty_text_scores_zero(scorer):
    assert scorer.get_feature_score("") == 0.0


def test_clean_text_scores_one(scorer):
    clean = "清晨的阳光洒在湖面上微风吹过泛起层层涟漪远处的山峦在薄雾中若隐若现" * 2
    assert scorer.get_feature_score(clean) == 1.0


def test_ad_text_scores_low(scorer):
    ad = "年底特价大促销全场优惠不容错过限时抢购免费领取精美礼品加微信领取内部优惠券"
    assert scorer.get_feature_score(ad) == 0.0


def test_negative_context_softening(scorer, trie):
    # long disclaimer text: ratio*0.3 < 0.05 → score floors at 0.8
    base = "我们在会议上回顾了上个季度的工作进展并且对下一阶段的目标进行了详细的规划。" * 16
    text = base + "本平台严格审核所有内容不包含任何色情与赌博信息。"
    got = scorer.get_feature_score(text)
    assert got == pytest.approx(o.o_feature_score(trie, text))
    assert got >= 0.8


def test_numerator_denominator_line_quirk(scorer, trie):
    # a non-blank line shorter than 5 chars contributes matches to the
    # numerator but is excluded from the denominator — ref:feature_words.py:184-205
    text = "特价\n这是一行正常的长句子并无多余词汇在内"
    got_pass, details = scorer.check_feature_words(text)
    assert details["avg_per_line"] == pytest.approx(1.0)  # 1 match / 1 valid line
    assert got_pass == o.o_feature_pass(trie, text) == False  # noqa: E712


def test_common_words_excluded_from_score(scorer, trie):
    # 电话 is in the word list but also a "common word" → excluded from uniques
    text = "这部电话的音质表现相当不错而且续航能力也令人满意值得推荐给大家参考选购"
    assert scorer.get_feature_score(text) == pytest.approx(o.o_feature_score(trie, text)) == 1.0


def test_fused_evaluate_matches_unfused(scorer, sample_texts):
    for text in sample_texts[:400]:
        fused = scorer.evaluate(text, scrub=True)
        passed, details = scorer.check_feature_words(text)
        want_score = scorer.get_feature_score(text, matched=details["feature_words"])
        assert fused["feature_pass"] == passed
        assert fused["feature_score"] == want_score
        assert fused["feature_count"] == details["feature_count"]
        assert fused["scrubbed_text"] == scorer.dfa.filter(text)


# Outputs recorded from the scorer when it still kept ``set(words)``: an
# empty list, a whitespace-only list (truthy, but no trie entry), and the
# Aho-Corasick path with a duplicate word, an overlapping pair and a padded
# word (the trie strips it, Aho-Corasick does not).
_EDGE_TEXTS = ["", "   \n\t", "色情色情，还有赌博和广告",
               "今天天气很好，适合出去散步。\n第二行也很正常的内容", "SpamWord 广告\n\n色情情色"]
_CLEAN = [(True, 0.0, 0, 0, 0.0), (True, 1.0, 0, 0, 0.0), (True, 0.0, 0, 0, 0.0),
          (True, 1.0, 0, 0, 0.0), (True, 0.0, 0, 0, 0.0)]
_EDGE_WANT = {
    "empty": ([], True, _CLEAN, [t.lower() for t in _EDGE_TEXTS]),
    "blank": (["   ", "\t"], True, _CLEAN, [t.lower() for t in _EDGE_TEXTS]),
    "ac": (["色情", "色情", "情色", "赌博", " 广告 "], False,
           [(True, 0.0, 0, 0, 0.0), (True, 1.0, 0, 0, 0.0), (False, 0.0, 4, 4, 4.0),
            (True, 1.0, 0, 0, 0.0), (False, 0.0, 2, 3, 2.0)],
           ["", "   \n\t", "****，还有**和**", _EDGE_TEXTS[3].lower(), "spamword **\n\n****"]),
}


@pytest.mark.parametrize("case", sorted(_EDGE_WANT))
def test_edge_lists_keep_their_outputs(case):
    words, use_dfa, want, scrubbed = _EDGE_WANT[case]
    scorer = FeatureWordsScorer(words, use_dfa=use_dfa)
    for text, (ok, score, count, hits, avg), scrub in zip(_EDGE_TEXTS, want, scrubbed):
        r = scorer.evaluate(text)
        assert (r["feature_pass"], r["feature_score"], r["feature_count"]) == (ok, score, count)
        assert (r["scrubbed_text"], r["sensitive_count"]) == (scrub, hits)
        passed, details = scorer.check_feature_words(text)
        assert (passed, details["feature_count"], details["avg_per_line"]) == (ok, count, avg)
        assert scorer.get_feature_score(text) == score
