"""The flagship kernels do each piece of per-turn work once: one CJK count
per batch shared by langid and the rules, one lowercase and one trie walk per
turn shared by the feature check, the score and the scrub. Each shortcut is
pinned here to the form it replaced."""

import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ref as o

# ----------------------------------------------------------------- CJK count


def _all_codepoints() -> list[str]:
    # lone surrogates cannot be encoded as UTF-8, so Arrow cannot hold them
    return [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]


def test_cjk_counts_equal_regex_count_on_every_codepoint():
    from chinese_corpus_cleaning_ray.functions.rules import CHINESE_RE, cjk_counts

    chars = _all_codepoints()
    arr = pa.array(chars, pa.string())
    got = cjk_counts(arr)
    old = pc.count_substring_regex(arr, "[一-鿿]").to_numpy(zero_copy_only=False)
    want = np.array([len(CHINESE_RE.findall(c)) for c in chars], dtype=np.float64)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, old)


def test_cjk_counts_equal_regex_count_on_random_rows():
    from chinese_corpus_cleaning_ray.functions.rules import CHINESE_RE, cjk_counts

    chars = _all_codepoints()
    near = [chr(c) for c in range(0x4DF0, 0x4E10)] + [chr(c) for c in range(0x9FF0, 0xA010)]
    rng = random.Random(11)
    rows = []
    for _ in range(20_000):
        pool = near if rng.random() < 0.5 else chars
        rows.append("".join(rng.choice(pool) for _ in range(64)))
    rows += ["", "\n", "一", "鿿", "丿䷿ꀀ"]
    arr = pa.array(rows, pa.string())
    want = np.array([len(CHINESE_RE.findall(t)) for t in rows], dtype=np.float64)
    np.testing.assert_array_equal(cjk_counts(arr), want)
    np.testing.assert_array_equal(
        cjk_counts(arr),
        pc.count_substring_regex(arr, "[一-鿿]").to_numpy(zero_copy_only=False))


def test_langid_and_rules_take_the_shared_count(sample_texts):
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG as cfg
    from chinese_corpus_cleaning_ray.functions.langid import HeuristicLangId
    from chinese_corpus_cleaning_ray.functions.rules import cjk_counts, evaluate_rules_arrow

    col = pa.array(sample_texts, pa.string())
    zh = cjk_counts(col)
    lid = HeuristicLangId(cfg.langid)
    own, shared = lid.predict_batch(sample_texts), lid.predict_batch(sample_texts, zh=zh)
    for k in ("lang", "lang_conf", "is_zh"):
        assert isinstance(shared[k], np.ndarray)
        assert own[k].tolist() == shared[k].tolist()
    a = evaluate_rules_arrow(sample_texts, cfg.rule)
    b = evaluate_rules_arrow(sample_texts, cfg.rule, arrow_col=col, zh=zh)
    for k in ("rule_pass", "rule_score", "rule_error"):
        assert a[k].tolist() == b[k].tolist()


# ----------------------------------------------------------- one trie walk


def _per_line_evaluate(scorer, trie, text: str) -> dict:
    """The feature+scrub form the single walk replaced: detect on every
    non-blank line (numerator and the score's matches), a separate scrub
    walk, and the sensitive count of a whole-text detect."""
    matched: list[str] = []
    denom = 0
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped:
            matched.extend(o.o_detect(trie, line))
        if len(stripped) >= 5:
            denom += 1
    avg = len(matched) / denom if denom > 0 else 0.0
    return {
        "feature_pass": avg <= scorer.cfg.max_feature_words_per_line,
        "feature_score": scorer.get_feature_score(text, matched=matched),
        "feature_count": len(matched),
        "scrubbed_text": o.o_scrub(trie, text),
        "sensitive_count": len(o.o_detect(trie, text)),
    }


# final sigma, dotted capital I (lowercases to two chars), blank and
# tab-only lines, CJK word chars and a cased Latin pair
_ALPHABET = "ΣσςİiIaA 一二三\n\t　"
_WORD = st.text(alphabet=_ALPHABET, min_size=1, max_size=4)
_TEXT = st.text(alphabet=_ALPHABET, max_size=60)


@settings(max_examples=400, deadline=None)
@given(text=_TEXT, words=st.lists(_WORD, min_size=1, max_size=6))
def test_scan_and_evaluate_match_the_per_line_form(text, words):
    from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer

    scorer = FeatureWordsScorer(words)
    trie = o.build_trie(words)
    dfa = scorer.dfa
    want_scrub, want_hits = o.o_scrub(trie, text), o.o_detect(trie, text)
    assert dfa.scan(text.lower()) == (want_scrub, want_hits)
    assert dfa.filter(text) == want_scrub
    assert dfa.detect(text) == want_hits
    assert scorer.evaluate(text) == _per_line_evaluate(scorer, trie, text)


def test_word_with_newline_falls_back_to_per_line_counts():
    from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer

    words = ["坏\n词", "好词"]
    scorer = FeatureWordsScorer(words)
    trie = o.build_trie(words)
    text = "这一行有坏\n词出现在两行之间的好词"
    got = scorer.evaluate(text)
    assert got == _per_line_evaluate(scorer, trie, text)
    # the scrub still masks the cross-line match; the per-line count does not see it
    assert got["scrubbed_text"] == "这一行有***出现在两行之间的**"
    assert got["sensitive_count"] == 2 and got["feature_count"] == 1


@pytest.mark.parametrize("wordset", ["packaged", "43k"])
def test_evaluate_matches_per_line_form_on_the_lists(wordset, wordlist, sample_texts):
    from chinese_corpus_cleaning_ray.functions.features import FeatureWordsScorer
    from chinese_corpus_cleaning_ray.functions.wordlists import synthesize_wordlist

    words = list(wordlist)
    texts = sample_texts[:600]
    if wordset == "43k":
        big = synthesize_wordlist(seed=42)
        words += big
        rng = random.Random(3)
        planted = []
        for t in texts:
            w = rng.choice(big)
            i = rng.randint(0, len(t))
            planted.append(t[:i] + w + t[i:])
        texts = planted
    scorer = FeatureWordsScorer(words)
    trie = o.build_trie(words)
    hits = 0
    for t in texts:
        got = scorer.evaluate(t)
        assert got == _per_line_evaluate(scorer, trie, t), t
        hits += got["sensitive_count"] > 0
    assert hits > len(texts) // 20


def _naive_trie(words) -> dict:
    """The trie as one fresh dict per node (the layout before shared leaves)."""
    from chinese_corpus_cleaning_ray.functions.scrub import _TERM

    root: dict = {}
    for w in words:
        chars = w.lower().strip()
        if chars:
            node = root
            for ch in chars:
                node = node.setdefault(ch, {})
            node[_TERM] = True
    return root


@settings(max_examples=300, deadline=None)
@given(text=_TEXT, first=st.lists(_WORD, min_size=1, max_size=6),
       later=st.lists(_WORD, min_size=1, max_size=4), round_trip=st.booleans())
def test_words_added_later_and_after_pickling_keep_the_trie(text, first, later, round_trip):
    """Word ends share one leaf; adding a word below a shared leaf (directly,
    or after a pickle round trip gave the trie its own shared copy) must
    replace it, never extend it under the other words that end there."""
    import pickle

    from chinese_corpus_cleaning_ray.functions import scrub
    from chinese_corpus_cleaning_ray.functions.scrub import DFAScrubber

    dfa = DFAScrubber(first)
    if round_trip:
        dfa = pickle.loads(pickle.dumps(dfa))
    for w in later:
        dfa.add(w)
    words = first + later
    assert dfa.root == _naive_trie(words)
    assert scrub._LEAF == {scrub._TERM: True}
    trie = o.build_trie(words)
    assert dfa.scan(text.lower()) == (o.o_scrub(trie, text), o.o_detect(trie, text))


@pytest.mark.parametrize("round_trip", [False, True])
def test_extending_a_word_keeps_other_word_ends(round_trip):
    import pickle

    from chinese_corpus_cleaning_ray.functions.scrub import DFAScrubber

    dfa = DFAScrubber(["坏", "好坏", "xy", "zy"])
    if round_trip:
        dfa = pickle.loads(pickle.dumps(dfa))
    dfa.add("坏人")
    dfa.add("xyz")
    assert dfa.root == _naive_trie(["坏", "好坏", "xy", "zy", "坏人", "xyz"])
    assert dfa.root["好"]["坏"] == dfa.root["z"]["y"] == {"\x00": True}
    assert dfa.filter("好坏人 zyz xyz") == "**人 **z **z"


def test_whitespace_is_caseless():
    # a blank line holds no match only if no whitespace char changes under lower()
    assert all(c.lower() == c for c in _all_codepoints() if c.isspace())


# ------------------------------------------------------------- stage level

_PLANTED = [
    "今天的天气非常好，我们一起去公园散步，看到了很多美丽的花朵和树木，心情愉快。" * 3,
    "限时抢购！加微信领取优惠，点击链接 http://spam.example 立即下单，特价只需998。",
    "第一行文字内容足够长\n\n\t\n第二行提到了色情和赌博的词语\n   \n第三行正常结束了",
    "ΣΑΣ ΣΟΦΟΣ 测试希腊字母的末尾西格玛在行尾Σ\n下一行继续ΣΣ写一些中文内容",
    "İSTANBUL 的 İ 会变成两个字符，后面跟着广告和约炮这类词语，再补一些正常的中文句子。",
    "我们拒绝任何包含色情或赌博广告的内容，本平台禁止发布此类广告信息，请大家遵守规定。",
    "",
    "   \n\t\n",
    "短句",
    "PROMO2026 SpamWord 这一段混合了大写英文敏感词和中文内容，用来检查小写化之后的匹配效果。",
]


def _planted_table() -> pa.Table:
    n = len(_PLANTED)
    return pa.table({
        "conv_id": [f"c{i % 3}" for i in range(n)],
        "turn_idx": list(range(n)),
        "role": ["user"] * n,
        "text": _PLANTED,
    })


def _check_against_oracle(rows: list[dict], wordlist: list[str], ppl=None) -> None:
    """``ppl``: a ``PerplexityScorer`` built apart from the engine, whose
    score joins the decision when the rows were scored with perplexity on."""
    trie = o.build_trie(wordlist)
    by_text = {r["turn_idx"]: r for r in rows}
    assert len(by_text) == len(_PLANTED)
    for i, text in enumerate(_PLANTED):
        ppl_score = None if ppl is None else ppl.get_perplexity_score(text)
        got, want = by_text[i], o.o_decide(trie, text, ppl_score=ppl_score)
        assert bool(got["keep"]) == bool(want["keep"]), text
        assert got["quality_score"] == pytest.approx(want["quality_score"], abs=1e-9), text
        assert bool(got["rule_error"]) == want["error"], text
        assert got["scrubbed_text"] == o.o_scrub(trie, text), text
        assert got["sensitive_count"] == len(o.o_detect(trie, text)), text
        assert bool(got["feature_pass"]) == o.o_feature_pass(trie, text), text
        if ppl is not None:
            assert got["ppl_score"] == ppl_score, text


def test_stages_match_oracle_on_planted_corpus(wordlist):
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG as cfg
    from chinese_corpus_cleaning_ray.stages.quality_stages import (
        FeatureScrubStage,
        make_langid_rules_fn,
        make_score_fn,
    )

    batch = make_langid_rules_fn(cfg)(_planted_table())
    batch = make_score_fn(cfg)(FeatureScrubStage(cfg)(batch))
    _check_against_oracle(batch.to_pylist(), wordlist)


def _piece_rows(data) -> list[dict]:
    import pyarrow.parquet as pq

    rows = []
    for f in sorted(data.rglob("*.parquet")):
        piece = pq.read_table(f)
        keys = list(zip(piece.column("conv_id").to_pylist(), piece.column("turn_idx").to_pylist()))
        assert keys == sorted(keys), f  # pieces stay in (conv_id, turn_idx) order
        rows += piece.to_pylist()
    return rows


def test_quality_stage_and_writer_match_oracle_on_planted_corpus(tmp_path, wordlist):
    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG as cfg
    from chinese_corpus_cleaning_ray.stages.quality_stages import QualityStage
    from chinese_corpus_cleaning_ray.state.checkpoint import (
        make_add_partition_fn,
        make_piece_writer,
    )

    t = make_add_partition_fn(cfg.num_partitions)(_planted_table())
    t = t.append_column("path", pa.array(["/in/shard-0.parquet"] * t.num_rows, pa.string()))
    data = tmp_path / "data"
    counters = make_piece_writer(str(data), keep_text=True)(QualityStage(cfg)(t))
    assert sum(counters.column("total").to_pylist()) == len(_PLANTED)
    assert set(counters.column("stem").to_pylist()) == {"shard-0"}
    _check_against_oracle(_piece_rows(data), wordlist)


_INJECTED = ["色情", "赌博", "广告", "spamword", "ΣΟΦΟΣ", "公园", "we"]


@pytest.mark.parametrize("config", ["packaged", "injected", "perplexity"])
def test_both_entry_points_match_oracle_on_planted_corpus(ray_session, tmp_path, wordlist,
                                                          config):
    """``build_quality_pipeline`` and ``run_quality_job`` run one stage; each
    is pinned here to ``tests/oracle_ref.py`` on its own, with the packaged
    list, an injected list, and perplexity from a model trained apart."""
    from dataclasses import replace

    import pyarrow.parquet as pq
    import ray.data as rd

    from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG
    from chinese_corpus_cleaning_ray.functions.ngram_lm import NgramModel, PerplexityScorer
    from chinese_corpus_cleaning_ray.pipelines.quality import build_quality_pipeline
    from chinese_corpus_cleaning_ray.sources.transcripts import CLEAN_SENTENCES
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    cfg = replace(DEFAULT_CONFIG, num_partitions=4,
                  enable_perplexity=config == "perplexity")
    words = _INJECTED if config == "injected" else None
    oracle_words = _INJECTED if config == "injected" else wordlist
    ppl = None
    if cfg.enable_perplexity:
        model = NgramModel(n=cfg.perplexity.order, alpha=cfg.perplexity.alpha)
        ppl = PerplexityScorer(model.train(list(CLEAN_SENTENCES)), cfg.perplexity)

    rows = build_quality_pipeline(rd.from_arrow(_planted_table()), cfg, words=words)
    _check_against_oracle(rows.take_all(), oracle_words, ppl)

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(_planted_table(), str(src / "shard-0.parquet"))
    totals = run_quality_job(str(src), str(tmp_path / "out"), cfg, words=words)
    assert totals["total"] == len(_PLANTED)
    _check_against_oracle(_piece_rows(tmp_path / "out" / "data"), oracle_words, ppl)
