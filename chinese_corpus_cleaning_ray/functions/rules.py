"""Heuristic rule filter — the 9 per-text quality checks and the weighted
rule score of the reference (ref:text_quality_filter/utils/rule_filter.py).

Semantics are reproduced exactly (they define the keep/drop labels), but the
implementation is restructured for batch execution: every per-text statistic
is computed ONCE in a single pass (`rule_stats`), and both the boolean checks
(ref:rule_filter.py:206-260) and the weighted score (ref:rule_filter.py:262-404)
are derived from those cached statistics — the reference recomputes every
regex twice per document.

Quirks preserved because they are load-bearing for label parity:

- empty text fails every ratio check (ref:rule_filter.py:74-75,93-94,112-113,…)
  and makes the reference's ``get_rule_score`` raise ZeroDivisionError at the
  obvious-spam URL test (``len(findall)/len(text)`` — ref:rule_filter.py:383).
  The reference driver catches that per-file and counts the document as an
  *error*, i.e. it is not kept (ref:main.py:130-133, 304-307). We model this
  as ``score=0.0, error=True`` → keep=False.
- the vertical-bar score is capped at 0.5 and URL score at 0.3 on failure
  (ref:rule_filter.py:341,360).
- dup check passes outright for len(text) < 13 (ref:rule_filter.py:188-189).
- Python ``re`` (not RE2) semantics for ``\\w`` in the symbol class — the
  class ``[^\\w\\s\\u4e00-\\u9fff]`` relies on unicode-aware ``\\w``
  (ref:rule_filter.py:30).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from chinese_corpus_cleaning_ray.config import RuleConfig

# Compiled once per process — ref:rule_filter.py:29-32.
CHINESE_RE = re.compile(r"[一-鿿]")
SYMBOL_RE = re.compile(r"[^\w\s一-鿿]")
URL_RE = re.compile(
    r"https?://\S+|www\.\S+|[a-zA-Z0-9][a-zA-Z0-9-]{1,61}[a-zA-Z0-9]\.[a-zA-Z]{2,}"
)
EMOJI_RE = re.compile(
    r"[\U0001F600-\U0001F64F\U0001F300-\U0001F5FF\U0001F680-\U0001F6FF"
    r"\U0001F700-\U0001F77F\U0001F780-\U0001F7FF\U0001F800-\U0001F8FF"
    r"\U0001F900-\U0001F9FF\U0001FA00-\U0001FA6F\U0001FA70-\U0001FAFF"
    r"\U00002702-\U000027B0\U000024C2-\U0001F251]+"
)
# Every run of non-CJK characters, deleted before ``utf8_length`` to count
# the CJK ideographs of CHINESE_RE in two plain C passes (see cjk_counts).
NON_CJK_RE2_PATTERN = "[^一-鿿]+"
# RE2 variant for pyarrow kernels: RE2 has no \UXXXXXXXX escape, so the class
# is spelled with literal characters (non-raw string → Python decodes them).
EMOJI_RE2_PATTERN = (
    "[\U0001F600-\U0001F64F\U0001F300-\U0001F5FF\U0001F680-\U0001F6FF"
    "\U0001F700-\U0001F77F\U0001F780-\U0001F7FF\U0001F800-\U0001F8FF"
    "\U0001F900-\U0001F9FF\U0001FA00-\U0001FA6F\U0001FA70-\U0001FAFF"
    "\U00002702-\U000027B0\U000024C2-\U0001F251]+"
)
# SEO spam patterns used by the obvious-spam downweight — ref:rule_filter.py:387-395.
SEO_SPAM_RES = [
    re.compile(p)
    for p in (
        r"\d+\s*区\s*\d+",
        r"在线\s*播放",
        r"视频\s*一区\s*二区",
        r"久久+久+",
        r"不卡\s*一区\s*二区",
        r"精品\s*视频\s*在线",
        r"日本\s*韩国\s*欧美",
    )
]

_NGRAM_N = 13  # ref:rule_filter.py:192

CHECK_NAMES = (
    "length", "avg_line", "chinese", "symbol", "dup",
    "vbar", "comma", "url", "emoji",
)
# Score weights in check order — ref:rule_filter.py:285,297,306,318,332,342,351,361,370.
_WEIGHTS = (0.05, 0.10, 0.15, 0.10, 0.10, 0.20, 0.10, 0.10, 0.10)


@dataclass
class RuleStats:
    """One-pass statistics for a single text."""

    n: int
    avg_line_len: float | None  # None ⇔ no non-blank lines (ref:rule_filter.py:57-58)
    zh_count: int
    sym_count: int
    dup_ratio: float | None     # None ⇔ len < 13 (check passes)
    vbar_count: int
    comma_count: int
    url_count: int
    emoji_runs: int


def rule_stats(text: str) -> RuleStats:
    n = len(text)
    lines = [ln for ln in text.split("\n") if ln.strip()]  # ref:rule_filter.py:56
    avg_line = (sum(len(ln) for ln in lines) / len(lines)) if lines else None
    zh = len(CHINESE_RE.findall(text))
    sym = len(SYMBOL_RE.findall(text))
    if n < 13:
        dup = None
    else:
        # character 13-grams; dup_ratio = 1 - unique/total — ref:rule_filter.py:192-200
        total = n - _NGRAM_N + 1
        dup = 1.0 - len({text[i : i + _NGRAM_N] for i in range(total)}) / total
    return RuleStats(
        n=n,
        avg_line_len=avg_line,
        zh_count=zh,
        sym_count=sym,
        dup_ratio=dup,
        vbar_count=text.count("|"),
        comma_count=text.count(","),   # ASCII comma only — ref:rule_filter.py:134
        url_count=sum(1 for _ in URL_RE.finditer(text)),
        emoji_runs=sum(1 for _ in EMOJI_RE.finditer(text)),  # maximal runs (pattern ends in +)
    )


def rule_checks(s: RuleStats, cfg: RuleConfig) -> tuple[bool, ...]:
    """The 9 boolean checks in reference order — ref:rule_filter.py:206-260."""
    n = s.n
    length_ok = n >= cfg.min_text_length
    avg_ok = s.avg_line_len is not None and s.avg_line_len >= cfg.min_avg_line_length
    zh_ok = n > 0 and (s.zh_count / n) >= cfg.min_chinese_ratio
    sym_ok = n > 0 and (s.sym_count / n) <= cfg.max_symbol_ratio
    dup_ok = s.dup_ratio is None or s.dup_ratio <= cfg.max_internal_dup_ratio
    vbar_ok = n > 0 and (s.vbar_count / n) <= cfg.max_vertical_bar_ratio
    comma_ok = n > 0 and (s.comma_count / n) <= cfg.max_comma_ratio
    url_ok = n > 0 and (s.url_count / n) <= cfg.max_url_density
    emoji_ok = n > 0 and (s.emoji_runs / n) <= cfg.max_emoji_ratio
    return (length_ok, avg_ok, zh_ok, sym_ok, dup_ok, vbar_ok, comma_ok, url_ok, emoji_ok)


def rule_score(text: str, s: RuleStats, checks: tuple[bool, ...], cfg: RuleConfig) -> tuple[float, bool]:
    """Weighted rule score — ref:rule_filter.py:262-404.

    Returns (score, error). ``error=True`` replicates the reference's
    ZeroDivisionError on empty text (ref:rule_filter.py:383 with len(text)==0),
    which the reference driver converts into a dropped "error" document.
    """
    if all(checks):
        return 1.0, False  # ref:rule_filter.py:272-273
    n = s.n
    if n == 0:
        return 0.0, True  # reference raises here; driver drops the doc (see docstring)

    length_ok, avg_ok, zh_ok, sym_ok, dup_ok, vbar_ok, comma_ok, url_ok, emoji_ok = checks
    scores = []
    # length — ref:rule_filter.py:280-285
    scores.append(1.0 if length_ok else min(1.0, n / cfg.min_text_length))
    # avg line length — ref:rule_filter.py:288-297
    if avg_ok:
        scores.append(1.0)
    else:
        scores.append(min(1.0, s.avg_line_len / cfg.min_avg_line_length) if s.avg_line_len is not None else 0.0)
    # chinese ratio — ref:rule_filter.py:300-306
    scores.append(1.0 if zh_ok else min(1.0, (s.zh_count / n) / cfg.min_chinese_ratio))
    # symbol ratio — ref:rule_filter.py:309-318 (ratio==0 scores 1.0)
    if sym_ok:
        scores.append(1.0)
    else:
        sr = s.sym_count / n
        scores.append(1.0 if sr == 0 else max(0.0, min(1.0, cfg.max_symbol_ratio / sr)))
    # internal dup — ref:rule_filter.py:321-332
    if dup_ok:
        scores.append(1.0)
    else:
        dr = s.dup_ratio
        scores.append(max(0.0, min(1.0, cfg.max_internal_dup_ratio / dr if dr > 0 else 1.0)))
    # vertical bar, capped at 0.5 — ref:rule_filter.py:335-342
    if vbar_ok:
        scores.append(1.0)
    else:
        vr = s.vbar_count / n
        scores.append(max(0.0, min(0.5, cfg.max_vertical_bar_ratio / vr if vr > 0 else 1.0)))
    # comma — ref:rule_filter.py:345-351
    if comma_ok:
        scores.append(1.0)
    else:
        cr = s.comma_count / n
        scores.append(max(0.0, min(1.0, cfg.max_comma_ratio / cr if cr > 0 else 1.0)))
    # url density, capped at 0.3 — ref:rule_filter.py:354-361
    if url_ok:
        scores.append(1.0)
    else:
        ur = s.url_count / n
        scores.append(max(0.0, min(0.3, cfg.max_url_density / ur if ur > 0 else 1.0)))
    # emoji — ref:rule_filter.py:364-370
    if emoji_ok:
        scores.append(1.0)
    else:
        er = s.emoji_runs / n
        scores.append(max(0.0, min(1.0, cfg.max_emoji_ratio / er if er > 0 else 1.0)))

    weighted = sum(sc * w for sc, w in zip(scores, _WEIGHTS)) / sum(_WEIGHTS)

    # obvious-spam downweight — ref:rule_filter.py:376-403
    spam = ("|" in text and s.vbar_count / n > cfg.max_vertical_bar_ratio * 2) or (
        s.url_count / n > cfg.max_url_density * 3
    )
    if not spam:
        spam = any(p.search(text) for p in SEO_SPAM_RES)
    if spam:
        weighted *= 0.3
    return weighted, False


def evaluate_rules(text: str, cfg: RuleConfig) -> dict:
    """Full rule evaluation of one text: checks + pass + score + error flag."""
    s = rule_stats(text)
    checks = rule_checks(s, cfg)
    score, error = rule_score(text, s, checks, cfg)
    return {
        "stats": s,
        "checks": checks,
        "rule_pass": all(checks),
        "rule_score": score,
        "rule_error": error,
    }


def cjk_counts(arr):
    """Per-row ``len(CHINESE_RE.findall(text))`` over an Arrow string column,
    as float64: delete the non-CJK runs, then count the codepoints left. Equal
    to the RE2 count ``count_substring_regex(arr, "[一-鿿]")`` on every
    codepoint (tests/test_single_walk.py) and several times cheaper, because RE2
    pays a match setup per CJK character and this pays one per run."""
    import numpy as np
    import pyarrow.compute as pc

    kept = pc.replace_substring_regex(arr, NON_CJK_RE2_PATTERN, "")
    return pc.utf8_length(kept).to_numpy(zero_copy_only=False).astype(np.float64)


def evaluate_rules_arrow(texts: list[str], cfg: RuleConfig, arrow_col=None,
                         zh=None) -> dict:
    """Arrow/numpy-vectorized batch evaluation — semantically identical to the
    scalar path (asserted over the full fixture mix in tests/test_rules.py).

    Vectorization notes:
    - ``zh`` is the per-row CJK count (``cjk_counts``); the langid+rules
      stage computes it once and passes it to langid and here. When absent
      it is computed here.
    - url / emoji / SEO-spam counts run through pyarrow's RE2 kernels.
      The character classes used are RE2↔Python-re equivalent (plain ranges;
      alternation is leftmost-first in both; verified against DuckDB's RE2 in
      tests/test_driver_contract.py). The SYMBOL class ``[^\\w\\s一-鿿]`` relies
      on Python's unicode ``\\w`` and stays per-row Python.
    - the 13-gram dup ratio uses a rolling 64-bit polynomial hash +
      ``np.unique`` instead of a Python set of string slices. A hash collision
      (probability ≈ n²/2⁶⁴ per document) could nudge the ratio by 1/total;
      the weighted-score formulas are not at measure-zero boundaries, so this
      is value-identical in practice and ~10× faster on long rows.
    - score formulas are straight numpy ``where`` translations of
      ref:rule_filter.py:262-404 over the cached statistics.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from chinese_corpus_cleaning_ray.functions.dedup import _codepoints

    arr = arrow_col if arrow_col is not None else pa.array(texts, pa.large_string())
    n = pc.utf8_length(arr).to_numpy(zero_copy_only=False).astype(np.float64)
    if zh is None:
        zh = cjk_counts(arr)
    vbar = pc.count_substring(arr, "|").to_numpy(zero_copy_only=False).astype(np.float64)
    comma = pc.count_substring(arr, ",").to_numpy(zero_copy_only=False).astype(np.float64)
    url = pc.count_substring_regex(arr, URL_RE.pattern).to_numpy(zero_copy_only=False).astype(np.float64)
    emoji = pc.count_substring_regex(arr, EMOJI_RE2_PATTERN).to_numpy(zero_copy_only=False).astype(np.float64)
    seo_hit = (
        pc.count_substring_regex(arr, "|".join(p.pattern for p in SEO_SPAM_RES))
        .to_numpy(zero_copy_only=False) > 0
    )
    has_nl = pc.count_substring(arr, "\n").to_numpy(zero_copy_only=False) > 0

    rows = len(texts)
    sym = np.empty(rows)
    dup = np.zeros(rows)  # 0 ⇔ no dup or short text (dup check passes at 0 anyway... see mask)
    dup_applicable = n >= 13
    avg_line = np.full(rows, np.nan)
    for i, text in enumerate(texts):
        sym[i] = len(SYMBOL_RE.findall(text))
        if dup_applicable[i]:
            ln = len(text)
            if ln <= 512:
                # short rows: a set of slices beats 13 numpy calls' overhead
                total = ln - 12
                dup[i] = 1.0 - len({text[j : j + 13] for j in range(total)}) / total
            else:
                codes = _codepoints(text)
                m = len(codes) - 12
                acc = np.zeros(m, dtype=np.uint64)
                with np.errstate(over="ignore"):
                    base = np.uint64(1000003)
                    for k in range(13):
                        acc = acc * base + codes[k : m + k]
                dup[i] = 1.0 - np.unique(acc).size / m
        if has_nl[i]:
            lines = [ln for ln in text.split("\n") if ln.strip()]
            avg_line[i] = sum(len(ln) for ln in lines) / len(lines) if lines else np.nan
        else:
            avg_line[i] = n[i] if text.strip() else np.nan

    with np.errstate(divide="ignore", invalid="ignore"):
        nz = np.where(n > 0, n, 1.0)
        zh_r, sym_r = zh / nz, sym / nz
        vbar_r, comma_r, url_r, emoji_r = vbar / nz, comma / nz, url / nz, emoji / nz
        pos = n > 0
        has_lines = ~np.isnan(avg_line)

        length_ok = n >= cfg.min_text_length
        avg_ok = has_lines & (np.nan_to_num(avg_line) >= cfg.min_avg_line_length)
        zh_ok = pos & (zh_r >= cfg.min_chinese_ratio)
        sym_ok = pos & (sym_r <= cfg.max_symbol_ratio)
        dup_ok = ~dup_applicable | (dup <= cfg.max_internal_dup_ratio)
        vbar_ok = pos & (vbar_r <= cfg.max_vertical_bar_ratio)
        comma_ok = pos & (comma_r <= cfg.max_comma_ratio)
        url_ok = pos & (url_r <= cfg.max_url_density)
        emoji_ok = pos & (emoji_r <= cfg.max_emoji_ratio)
        all_ok = (length_ok & avg_ok & zh_ok & sym_ok & dup_ok
                  & vbar_ok & comma_ok & url_ok & emoji_ok)
        err = n == 0  # reference get_rule_score raises on empty text

        # weighted partial scores — ref:rule_filter.py:275-373
        s = np.empty((9, rows))
        s[0] = np.where(length_ok, 1.0, np.minimum(1.0, n / cfg.min_text_length))
        s[1] = np.where(avg_ok, 1.0,
                        np.where(has_lines,
                                 np.minimum(1.0, np.nan_to_num(avg_line) / cfg.min_avg_line_length),
                                 0.0))
        s[2] = np.where(zh_ok, 1.0, np.minimum(1.0, zh_r / cfg.min_chinese_ratio))
        s[3] = np.where(sym_ok, 1.0,
                        np.where(sym_r == 0, 1.0,
                                 np.clip(cfg.max_symbol_ratio / np.where(sym_r > 0, sym_r, 1.0), 0.0, 1.0)))
        s[4] = np.where(dup_ok, 1.0,
                        np.clip(cfg.max_internal_dup_ratio / np.where(dup > 0, dup, 1.0), 0.0, 1.0))
        s[5] = np.where(vbar_ok, 1.0,
                        np.clip(cfg.max_vertical_bar_ratio / np.where(vbar_r > 0, vbar_r, 1.0), 0.0, 0.5))
        s[6] = np.where(comma_ok, 1.0,
                        np.clip(cfg.max_comma_ratio / np.where(comma_r > 0, comma_r, 1.0), 0.0, 1.0))
        s[7] = np.where(url_ok, 1.0,
                        np.clip(cfg.max_url_density / np.where(url_r > 0, url_r, 1.0), 0.0, 0.3))
        s[8] = np.where(emoji_ok, 1.0,
                        np.clip(cfg.max_emoji_ratio / np.where(emoji_r > 0, emoji_r, 1.0), 0.0, 1.0))
        # sequential accumulation, NOT `weights @ s`: BLAS dot reassociates
        # (pairwise/FMA), giving ULP-different sums than the scalar path's
        # left-to-right `sum(sc*w)` — this order is bit-identical to the
        # scalar kernel and to the SQL oracle restatement (__ray_entry__)
        weighted = _WEIGHTS[0] * s[0]
        for wi, si in zip(_WEIGHTS[1:], s[1:]):
            weighted += wi * si
        weighted /= sum(_WEIGHTS)

        spam = ((vbar > 0) & (vbar_r > cfg.max_vertical_bar_ratio * 2)) | (
            url_r > cfg.max_url_density * 3
        ) | seo_hit
        score = np.where(all_ok, 1.0, np.where(spam, weighted * 0.3, weighted))
        score = np.where(err, 0.0, score)

    return {
        "rule_pass": all_ok,
        "rule_score": score,
        "rule_error": err,
        "checks": {
            "length": length_ok, "avg_line": avg_ok, "chinese": zh_ok,
            "symbol": sym_ok, "dup": dup_ok, "vbar": vbar_ok,
            "comma": comma_ok, "url": url_ok, "emoji": emoji_ok,
        },
    }


def evaluate_rules_batch(texts: list[str], cfg: RuleConfig) -> dict[str, list]:
    """Batch kernel: column lists for map_batches. One pass per row; regex work
    happens in the C regex engine; no intermediate Python objects kept."""
    n_rows = len(texts)
    out = {
        "rule_pass": [False] * n_rows,
        "rule_score": [0.0] * n_rows,
        "rule_error": [False] * n_rows,
    }
    check_cols = {f"rule_{name}_pass": [False] * n_rows for name in CHECK_NAMES}
    for i, text in enumerate(texts):
        s = rule_stats(text)
        checks = rule_checks(s, cfg)
        score, error = rule_score(text, s, checks, cfg)
        out["rule_pass"][i] = all(checks)
        out["rule_score"][i] = score
        out["rule_error"][i] = error
        for name, ok in zip(CHECK_NAMES, checks):
            check_cols[f"rule_{name}_pass"][i] = ok
    out.update(check_cols)
    return out
