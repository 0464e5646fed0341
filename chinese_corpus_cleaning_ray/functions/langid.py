"""Language identification.

The reference loads fastText ``lid.176.bin`` at module import and keeps only
``__label__zh`` predictions with confidence ≥ 0.7 (ref:tool.py:6,16-35). The
model binary is gitignored in the reference (ref:.gitignore:31-33) and
unavailable offline, so this module provides:

- ``HeuristicLangId`` — a deterministic character-class scorer with the same
  call contract and short-circuits as ``is_chinese_fasttext``
  (len<10 → False; empty after whitespace/control cleaning → False;
  ref:tool.py:17-23). Confidence = zh_chars / (zh_chars + latin_chars); the
  text is "zh" when that majority ratio ≥ 0.5, and ``is_zh`` additionally
  requires conf ≥ threshold (0.7, ref:tool.py:16). Fully SQL-expressible, so
  the DuckDB oracle can check it end-to-end.
- ``FastTextLangId`` — the real model path, used automatically when the
  ``fasttext`` package and a model file are present (never in this sandbox).

Both are injectable into the langid stage; tests pin the heuristic.
"""

from __future__ import annotations

import re

import numpy as np

from chinese_corpus_cleaning_ray.config import LangIdConfig
from chinese_corpus_cleaning_ray.functions.textclean import clean_text_ws

_ZH_RE = re.compile(r"[一-鿿]")
_LATIN_RE = re.compile(r"[A-Za-z]")
# predict_batch's lang labels, indexed by und / zh / other
_LANGS = np.array(["und", "zh", "other"], dtype=object)


class HeuristicLangId:
    def __init__(self, cfg: LangIdConfig | None = None):
        self.cfg = cfg or LangIdConfig()

    def predict(self, text: str) -> tuple[str, float, bool]:
        """Returns (lang, conf, is_zh). Mirrors is_chinese_fasttext's guards
        (ref:tool.py:17-23) then scores on character classes."""
        if not text or len(text) < 10:
            return ("und", 0.0, False)
        cleaned = clean_text_ws(text)
        if not cleaned:
            return ("und", 0.0, False)
        zh = len(_ZH_RE.findall(text))
        latin = len(_LATIN_RE.findall(text))
        base = zh + latin
        if base == 0:
            return ("und", 0.0, False)
        conf = zh / base
        lang = "zh" if conf >= self.cfg.zh_majority else "other"
        is_zh = lang == "zh" and conf >= self.cfg.threshold
        return (lang, conf, is_zh)

    def predict_batch(self, texts: list[str], arrow_col=None, zh=None) -> dict:
        """Vectorized batch path, value-identical to ``predict`` (asserted in
        tests): the cleaned-empty guard is redundant in batch form because a
        cleaned-empty text necessarily has zh+latin == 0, and both branches
        return ("und", 0.0, False). ``zh`` is the per-row CJK count when the
        caller already has it (``rules.cjk_counts``); outputs are numpy
        arrays (object ``lang``, float64 ``lang_conf``, bool ``is_zh``)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from chinese_corpus_cleaning_ray.functions.rules import cjk_counts

        arr = arrow_col if arrow_col is not None else pa.array(texts, pa.large_string())
        n = pc.utf8_length(arr).to_numpy(zero_copy_only=False)
        if zh is None:
            zh = cjk_counts(arr)
        lat = pc.count_substring_regex(arr, "[A-Za-z]").to_numpy(zero_copy_only=False).astype(np.float64)
        base = zh + lat
        valid = (n >= 10) & (base > 0)
        conf = np.where(valid, zh / np.where(base > 0, base, 1.0), 0.0)
        majority = conf >= self.cfg.zh_majority
        lang = _LANGS[np.where(~valid, 0, np.where(majority, 1, 2))]
        is_zh = valid & majority & (conf >= self.cfg.threshold)
        return {"lang": lang, "lang_conf": conf, "is_zh": is_zh}


class FastTextLangId:
    """Real fastText scorer (ref:tool.py:6,16-35). Requires the optional
    ``fasttext`` dependency and a local lid.176.bin; raises ImportError /
    FileNotFoundError otherwise — callers fall back to HeuristicLangId."""

    def __init__(self, model_path: str, cfg: LangIdConfig | None = None):
        import fasttext  # optional dependency, absent in this sandbox

        self.cfg = cfg or LangIdConfig()
        self.model = fasttext.load_model(model_path)

    def predict(self, text: str) -> tuple[str, float, bool]:
        if not text or len(text) < 10:
            return ("und", 0.0, False)
        cleaned = clean_text_ws(text)
        if not cleaned:
            return ("und", 0.0, False)
        labels, confs = self.model.predict(cleaned, k=1)  # ref:tool.py:26-27
        lang = labels[0].removeprefix("__label__")
        conf = float(confs[0])
        return (lang, conf, lang == "zh" and conf >= self.cfg.threshold)

    def predict_batch(self, texts: list[str], arrow_col=None) -> dict[str, list]:
        langs, confs, is_zh = [], [], []
        for t in texts:
            lg, cf, z = self.predict(t)
            langs.append(lg)
            confs.append(cf)
            is_zh.append(z)
        return {"lang": langs, "lang_conf": confs, "is_zh": is_zh}


def make_langid(cfg: LangIdConfig | None = None, model_path: str | None = None):
    """Factory: fastText when available, deterministic heuristic otherwise."""
    if model_path:
        try:
            return FastTextLangId(model_path, cfg)
        except Exception:
            pass
    return HeuristicLangId(cfg)
