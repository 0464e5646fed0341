"""Independent single-process restatement of the reference decision function.

This module is deliberately written as naive per-document loops, separate from
the engine kernels in ``chinese_corpus_cleaning_ray/functions`` — it recomputes
everything per call the way the reference does, so a divergence between the
optimized engine and the reference semantics shows up as a test failure.

Semantics sources (see SURVEY §7.1):
- rule checks + weighted score: ref:text_quality_filter/utils/rule_filter.py:34-404
- feature check + tiered score:  ref:text_quality_filter/utils/feature_words.py:170-314
- DFA scrub:                     ref:text_quality_filter/utils/sensitive_filter.py:72-134
- composite keep decision:       ref:text_quality_filter/main.py:135-251 with
  GENERAL_CONFIG defaults (rule+feature enabled, weights .3/.5, threshold .8 —
  ref:config/config.py:47-61)
- n-gram perplexity:             the per-position backoff model the engine's
  compiled ``functions/ngram_lm.NgramModel`` must equal bit for bit
- empty text: reference get_rule_score divides by len(text) in the obvious-spam
  URL check (ref:rule_filter.py:383) → ZeroDivisionError → the driver records
  an error and does not keep the file (ref:main.py:130-133,304-307).
"""

from __future__ import annotations

import json
import math
import re

MIN_TEXT_LENGTH = 100
MIN_AVG_LINE_LENGTH = 5
MIN_CHINESE_RATIO = 0.6
MAX_SYMBOL_RATIO = 0.2
MAX_DUP_RATIO = 0.5
MAX_VBAR_RATIO = 0.005
MAX_COMMA_RATIO = 0.05
MAX_URL_DENSITY = 0.01
MAX_EMOJI_RATIO = 0.02
MAX_FEATURE_PER_LINE = 0.2
QUALITY_THRESHOLD = 0.8

ZH = re.compile(r"[一-鿿]")
SYM = re.compile(r"[^\w\s一-鿿]")
URL = re.compile(r"https?://\S+|www\.\S+|[a-zA-Z0-9][a-zA-Z0-9-]{1,61}[a-zA-Z0-9]\.[a-zA-Z]{2,}")
EMO = re.compile(
    r"[\U0001F600-\U0001F64F\U0001F300-\U0001F5FF\U0001F680-\U0001F6FF"
    r"\U0001F700-\U0001F77F\U0001F780-\U0001F7FF\U0001F800-\U0001F8FF"
    r"\U0001F900-\U0001F9FF\U0001FA00-\U0001FA6F\U0001FA70-\U0001FAFF"
    r"\U00002702-\U000027B0\U000024C2-\U0001F251]+"
)
SEO = [
    r"\d+\s*区\s*\d+", r"在线\s*播放", r"视频\s*一区\s*二区", r"久久+久+",
    r"不卡\s*一区\s*二区", r"精品\s*视频\s*在线", r"日本\s*韩国\s*欧美",
]
HIGH_WEIGHT = [
    "色情", "赌博", "特价", "促销", "优惠", "免费", "限时", "加QQ", "加微信",
    "http://", "www.", "点击", "链接", "联系电话", "约炮", "一夜情",
]
COMMON = ["系统", "手机", "电话", "网络", "联系", "人才", "招聘"]
NEG = [
    r"不包含.*?(色情|赌博|广告)", r"没有.*?(色情|赌博|广告)", r"禁止.*?(色情|赌博|广告)",
    r"反对.*?(色情|赌博|广告)", r"拒绝.*?(色情|赌博|广告)",
]


# ---------------------------------------------------------------- rule filter

def o_checks(text: str) -> dict[str, bool]:
    n = len(text)
    lines = [l for l in text.split("\n") if l.strip()]
    avg = sum(len(l) for l in lines) / len(lines) if lines else None
    out = {}
    out["length"] = n >= MIN_TEXT_LENGTH
    out["avg_line"] = avg is not None and avg >= MIN_AVG_LINE_LENGTH
    out["chinese"] = bool(text) and len(ZH.findall(text)) / n >= MIN_CHINESE_RATIO
    out["symbol"] = bool(text) and len(SYM.findall(text)) / n <= MAX_SYMBOL_RATIO
    if n < 13:
        out["dup"] = True
    else:
        grams = [text[i:i + 13] for i in range(n - 12)]
        out["dup"] = (1 - len(set(grams)) / len(grams)) <= MAX_DUP_RATIO
    out["vbar"] = bool(text) and text.count("|") / n <= MAX_VBAR_RATIO
    out["comma"] = bool(text) and text.count(",") / n <= MAX_COMMA_RATIO
    out["url"] = bool(text) and len(URL.findall(text)) / n <= MAX_URL_DENSITY
    out["emoji"] = bool(text) and len(EMO.findall(text)) / n <= MAX_EMOJI_RATIO
    return out


def o_rule_score(text: str) -> float:
    """Raises ZeroDivisionError on empty text, like the reference."""
    c = o_checks(text)
    if all(c.values()):
        return 1.0
    n = len(text)
    lines = [l for l in text.split("\n") if l.strip()]
    s, w = [], []

    s.append(1.0 if c["length"] else min(1.0, n / MIN_TEXT_LENGTH)); w.append(0.05)

    if c["avg_line"]:
        s.append(1.0)
    elif lines:
        s.append(min(1.0, (sum(len(l) for l in lines) / len(lines)) / MIN_AVG_LINE_LENGTH))
    else:
        s.append(0.0)
    w.append(0.1)

    if c["chinese"]:
        s.append(1.0)
    else:
        zr = len(ZH.findall(text)) / n if text else 0
        s.append(min(1.0, zr / MIN_CHINESE_RATIO))
    w.append(0.15)

    if c["symbol"]:
        s.append(1.0)
    else:
        sr = len(SYM.findall(text)) / n if text else 0
        s.append(1.0 if sr == 0 else max(0.0, min(1.0, MAX_SYMBOL_RATIO / sr)))
    w.append(0.1)

    if c["dup"]:
        s.append(1.0)
    elif n < 13:
        s.append(1.0)
    else:
        grams = [text[i:i + 13] for i in range(n - 12)]
        dr = 1 - len(set(grams)) / len(grams) if grams else 0
        s.append(max(0.0, min(1.0, MAX_DUP_RATIO / dr if dr > 0 else 1.0)))
    w.append(0.1)

    if c["vbar"]:
        s.append(1.0)
    else:
        vr = text.count("|") / n if text else 0
        s.append(max(0.0, min(0.5, MAX_VBAR_RATIO / vr if vr > 0 else 1.0)))
    w.append(0.2)

    if c["comma"]:
        s.append(1.0)
    else:
        cr = text.count(",") / n if text else 0
        s.append(max(0.0, min(1.0, MAX_COMMA_RATIO / cr if cr > 0 else 1.0)))
    w.append(0.1)

    if c["url"]:
        s.append(1.0)
    else:
        ur = len(URL.findall(text)) / n if text else 0
        s.append(max(0.0, min(0.3, MAX_URL_DENSITY / ur if ur > 0 else 1.0)))
    w.append(0.1)

    if c["emoji"]:
        s.append(1.0)
    else:
        er = len(EMO.findall(text)) / n if text else 0
        s.append(max(0.0, min(1.0, MAX_EMOJI_RATIO / er if er > 0 else 1.0)))
    w.append(0.1)

    score = sum(a * b for a, b in zip(s, w)) / sum(w)

    spam = False
    if "|" in text and text.count("|") / len(text) > MAX_VBAR_RATIO * 2:
        spam = True
    if len(URL.findall(text)) / len(text) > MAX_URL_DENSITY * 3:  # ZeroDivision on empty — intended
        spam = True
    if not spam:
        for p in SEO:
            if re.search(p, text):
                spam = True
                break
    return score * 0.3 if spam else score


# ------------------------------------------------------------------ DFA scrub

def build_trie(words: list[str]) -> dict:
    root: dict = {}
    for word in words:
        word = word.lower().strip()
        if not word:
            continue
        node = root
        for ch in word:
            node = node.setdefault(ch, {})
        node["\x00"] = 0
    return root


def o_scrub(trie: dict, message: str, repl: str = "*") -> str:
    msg = message.lower()
    pieces: list[str] = []
    pos = 0
    while pos < len(msg):
        node = trie
        taken = 0
        matched = 0
        for ch in msg[pos:]:
            if ch not in node:
                break
            taken += 1
            if "\x00" in node[ch]:
                matched = taken
                break
            node = node[ch]
        if matched:
            pieces.append(repl * matched)
            pos += matched
        else:
            pieces.append(msg[pos])
            pos += 1
    return "".join(pieces)


def o_detect(trie: dict, message: str) -> list[str]:
    msg = message.lower()
    found: list[str] = []
    pos = 0
    while pos < len(msg):
        node = trie
        taken = 0
        matched = 0
        for ch in msg[pos:]:
            if ch not in node:
                break
            taken += 1
            if "\x00" in node[ch]:
                matched = taken
                break
            node = node[ch]
        if matched:
            found.append(msg[pos:pos + matched])
            pos += matched
        else:
            pos += 1
    return found


# -------------------------------------------------------------- feature words

def o_feature_pass(trie: dict, text: str) -> bool:
    lines = text.split("\n")
    counts = [len(o_detect(trie, l)) for l in lines if l.strip()]
    valid = len([l for l in lines if len(l.strip()) >= 5])
    avg = sum(counts) / valid if valid > 0 else 0
    return avg <= MAX_FEATURE_PER_LINE


def o_feature_score(trie: dict, text: str) -> float:
    if not text:
        return 0.0
    words = o_detect(trie, text)
    uniq = [w for w in set(words) if w not in COMMON]
    hw = sum(3 for kw in HIGH_WEIGHT if kw in text.lower())
    adjusted = len(uniq) + hw
    ratio = adjusted / (len(text) / 10) if len(text) > 0 else 1.0
    neg = any(re.search(p, text) for p in NEG)
    if neg:
        ratio *= 0.3
    if ratio > 0.2:
        score = 0.0
    elif ratio > 0.1:
        score = 0.2
    elif ratio > 0.05:
        score = 0.5
    elif ratio > 0.01:
        score = 0.8
    else:
        score = 1.0
    if neg and ratio < 0.05:
        score = max(score, 0.8)
    return score


# ------------------------------------------------------------------ composite

def o_decide(trie: dict, text: str, ppl_score: float | None = None) -> dict:
    """Default-toggle decision: keep = (0.3·rule + 0.5·feature)/0.8 ≥ 0.8.
    With ppl enabled: (0.3·rule + 0.5·feature + 0.1·ppl)/0.9 ≥ 0.8."""
    try:
        rule = o_rule_score(text)
        error = False
    except ZeroDivisionError:
        return {"keep": False, "quality_score": 0.0, "error": True,
                "rule_score": 0.0, "feature_score": 0.0}
    feature = o_feature_score(trie, text)
    num = 0.3 * rule + 0.5 * feature
    den = 0.8
    if ppl_score is not None:
        num += 0.1 * ppl_score
        den += 0.1
    q = num / den
    return {"keep": q >= QUALITY_THRESHOLD, "quality_score": q, "error": error,
            "rule_score": rule, "feature_score": feature}


# ------------------------------------------------------------ n-gram perplexity

_BOS = "\x02"
_EOS = "\x03"


class RefNgramModel:
    """The engine's n-gram model as first written: it sums a context's counts
    and calls log2 at every position. The compiled model must give the same
    floats and write the same JSON."""

    def __init__(self, n: int = 5, alpha: float = 0.01):
        self.n = n
        self.alpha = alpha
        self.counts: dict[str, dict[str, int]] = {}  # context -> {char: count}
        self.vocab: set[str] = set()

    def train(self, texts: list[str]) -> "RefNgramModel":
        for text in texts:
            stream = _BOS * (self.n - 1) + text + _EOS
            self.vocab.update(text)
            self.vocab.add(_EOS)
            for i in range(self.n - 1, len(stream)):
                ch = stream[i]
                for k in range(self.n - 1, -1, -1):  # all context lengths incl. unigram
                    ctx = stream[i - k : i]
                    bucket = self.counts.setdefault(ctx, {})
                    bucket[ch] = bucket.get(ch, 0) + 1
        return self

    def _prob(self, ctx: str, ch: str) -> float:
        v = max(1, len(self.vocab))
        a = self.alpha
        while True:
            bucket = self.counts.get(ctx)
            if bucket is not None:
                total = sum(bucket.values())
                return (bucket.get(ch, 0) + a) / (total + a * v)
            if not ctx:
                return 1.0 / v  # empty model
            ctx = ctx[1:]

    def perplexity(self, text: str) -> float:
        if not text:
            return float("inf")
        stream = _BOS * (self.n - 1) + text + _EOS
        log_sum, count = 0.0, 0
        for i in range(self.n - 1, len(stream)):
            p = self._prob(stream[i - self.n + 1 : i], stream[i])
            log_sum += math.log2(p)
            count += 1
        return 2 ** (-log_sum / count)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "n": self.n,
                    "alpha": self.alpha,
                    "vocab": sorted(self.vocab),
                    "counts": {ctx: bucket for ctx, bucket in self.counts.items()},
                },
                f,
                ensure_ascii=False,
            )
