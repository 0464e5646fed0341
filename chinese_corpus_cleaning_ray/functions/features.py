"""Feature-word (ad / sensitive term) detection and scoring —
ref:text_quality_filter/utils/feature_words.py (FeatureWordsDetector, DFA path:
use_dfa_filter=True per ref:config/config.py:26).

Quirks preserved for label parity:

- ``check_feature_words`` counts matches over every NON-BLANK line but divides
  by the number of lines whose stripped length is ≥ 5 — the numerator and
  denominator deliberately use different line sets
  (ref:feature_words.py:184-205). ``avg=0`` when no valid lines.
- ``get_feature_score`` (ref:feature_words.py:231-314):
  unique matched words minus the 7 common words; +3 per high-weight keyword
  *present* in ``text.lower()`` (presence, not occurrences);
  ratio = adjusted_count / (len(text)/10); 5 negative-context regexes soften
  the ratio ×0.3 BEFORE tiering; tier map {>.2→0.0, >.1→0.2, >.05→0.5,
  >.01→0.8, else 1.0}; if negative context and ratio < .05 → score ≥ 0.8.
- empty text scores 0.0 (ref:feature_words.py:235-237).
"""

from __future__ import annotations

import re

from chinese_corpus_cleaning_ray.config import FeatureConfig
from chinese_corpus_cleaning_ray.functions.scrub import DFAScrubber

# ref:feature_words.py:246-248
HIGH_WEIGHT_KEYWORDS = (
    "色情", "赌博", "特价", "促销", "优惠", "免费", "限时",
    "加QQ", "加微信", "http://", "www.", "点击", "链接",
    "联系电话", "约炮", "一夜情",
)
# ref:feature_words.py:251
COMMON_WORDS = frozenset({"系统", "手机", "电话", "网络", "联系", "人才", "招聘"})
# ref:feature_words.py:280-286
NEGATIVE_CONTEXT_RES = [
    re.compile(p)
    for p in (
        r"不包含.*?(色情|赌博|广告)",
        r"没有.*?(色情|赌博|广告)",
        r"禁止.*?(色情|赌博|广告)",
        r"反对.*?(色情|赌博|广告)",
        r"拒绝.*?(色情|赌博|广告)",
    )
]


class FeatureWordsScorer:
    """Feature-word check + tiered score, with the reference's two matcher
    strategies (ref:feature_words.py:122-129): DFA (default, shortest
    non-overlapping matches — shares the scrub trie, one build per actor) or
    Aho-Corasick (``use_dfa=False``: ALL matches incl. overlapping; per-line
    counts via substring membership — ref:feature_words.py:193-198)."""

    def __init__(self, words: list[str], cfg: FeatureConfig | None = None,
                 use_dfa: bool = True):
        self.cfg = cfg or FeatureConfig()
        # the matchers hold the words; a set of them would also keep every
        # word string alive (a 43k list: 22.9 vs 17.5 MB per scorer)
        self.has_words = bool(words)
        self.use_dfa = use_dfa
        self.dfa = DFAScrubber(words)  # scrub always needs the trie
        if not use_dfa:
            from chinese_corpus_cleaning_ray.functions.ac import AhoCorasick

            # one pattern per distinct word: a repeated one would report
            # each of its matches twice
            self.ac = AhoCorasick(dict.fromkeys(words))
            self.ac.build()

    def check_feature_words(self, text: str) -> tuple[bool, dict]:
        """ref:feature_words.py:170-214."""
        if not self.has_words:
            return True, {"feature_count": 0, "feature_words": [], "avg_per_line": 0.0}
        lines = text.split("\n")
        if self.use_dfa:
            matched = self.dfa.detect(text)
            # numerator: counts over non-blank lines — ref:feature_words.py:184-191
            num = sum(
                self.dfa.count_sensitive_words(line)[0] for line in lines if line.strip()
            )
        else:
            pairs = self.ac.search(text)
            matched = [w for _, w in pairs]
            # AC path counts a matched word once per line CONTAINING it —
            # ref:feature_words.py:193-198 (numerator over non-blank lines)
            num = sum(
                sum(1 for _, w in pairs if w in line)
                for line in lines
                if line.strip()
            )
        # denominator: lines with stripped length >= 5 — ref:feature_words.py:201-205
        denom = sum(1 for line in lines if len(line.strip()) >= 5)
        avg = num / denom if denom > 0 else 0.0
        passed = avg <= self.cfg.max_feature_words_per_line  # ref:feature_words.py:208
        return passed, {
            "feature_count": len(matched),
            "feature_words": matched,
            "avg_per_line": avg,
        }

    def get_feature_score(self, text: str, matched: list[str] | None = None,
                          lowered: str | None = None) -> float:
        """ref:feature_words.py:231-314. ``matched`` lets callers reuse the
        detect() result from check_feature_words (the reference recomputes);
        ``lowered`` is ``text.lower()`` when the caller already has it."""
        if not text:
            return 0.0
        if matched is None:
            if not self.has_words:
                matched = []
            elif self.use_dfa:
                matched = self.dfa.detect(text)
            else:
                matched = [w for _, w in self.ac.search(text)]
        if lowered is None:
            lowered = text.lower()
        n = len(text)
        unique_adjusted = sum(1 for w in set(matched) if w not in COMMON_WORDS)
        high_weight = sum(3 for kw in HIGH_WEIGHT_KEYWORDS if kw in lowered)
        adjusted = unique_adjusted + high_weight
        ratio = adjusted / (n / 10) if n > 0 else 1.0
        negative = any(p.search(text) for p in NEGATIVE_CONTEXT_RES)
        if negative:
            ratio *= 0.3  # ref:feature_words.py:294-296
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
        if negative and ratio < 0.05:
            score = max(score, 0.8)  # ref:feature_words.py:310-312
        return score

    def evaluate(self, text: str, scrub: bool = True) -> dict:
        """Fused check + score (+ scrub) over ONE trie walk of ``text.lower()``
        — value-identical to the per-line form (detect on every non-blank
        line for the numerator and the score's matches, ``filter`` for the
        scrub; asserted in tests). The reference scans three times
        (ref:feature_words.py:177,190 then the score's re-detect).

        Why one whole-text walk gives the per-line matches: ``str.lower`` maps
        each line the same inside the text as alone (``\\n`` is neither cased
        nor case-ignorable, so it ends the final-sigma context), and a walk
        only crosses a ``\\n`` inside a match or a failed attempt. So unless a
        match holds a ``\\n`` (possible only with an injected word containing
        one), the whole-text matches are the concatenated per-line matches. A
        blank line holds no match (words are stripped, and no whitespace
        character changes under ``lower``), so the numerator over non-blank
        lines is ``len(matches)``; rows with no match skip the line split. A
        match holding ``\\n`` is the one fallback: that row recomputes its
        matches with the per-line detect."""
        lowered = text.lower()
        scrubbed, hits = self.dfa.scan(lowered)
        if self.use_dfa and self.has_words:
            matched = hits
            if any("\n" in w for w in hits):
                matched = [w for line in text.split("\n") if line.strip()
                           for w in self.dfa.detect(line)]
            avg = 0.0
            if matched:
                # denominator: lines with stripped length >= 5 — ref:feature_words.py:201-205
                denom = sum(1 for line in text.split("\n") if len(line.strip()) >= 5)
                if denom > 0:
                    avg = len(matched) / denom
            passed = avg <= self.cfg.max_feature_words_per_line
        else:
            passed, details = self.check_feature_words(text)
            matched = details["feature_words"]
        out = {
            "feature_pass": passed,
            "feature_score": self.get_feature_score(text, matched=matched, lowered=lowered),
            "feature_count": len(matched),
        }
        if scrub:
            out["scrubbed_text"] = scrubbed
            out["sensitive_count"] = len(hits)
        return out
