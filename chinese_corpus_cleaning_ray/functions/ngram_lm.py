"""KenLM-style character n-gram language model + perplexity scorer.

This is the deterministic CPU replacement for the reference's two perplexity
paths:

- the deleted ``perplexity.py`` n-gram module (survives only as bytecode —
  ``ref:text_quality_filter/utils/__pycache__/perplexity.cpython-310.pyc``;
  structure recovered in SURVEY §0: ``NgramModel`` with ``</s>`` terminator,
  smoothed ``get_prob``, perplexity via ``2^(-mean log2 P)``, pickle
  save/load), with order 5 per ref:config/config.py:33;
- the live GPT-2 path, whose *check/score formulas* we reproduce exactly
  (threshold/cap/spam interactions — ref:utils/lmppl_perplexity.py:42-240)
  while swapping the underlying LM for the deterministic n-gram model so
  labels are reproducible without torch/GPUs (SURVEY §7.1).

Model: character-level order-n counts with add-alpha smoothing and
shorten-the-context backoff for unseen histories. Deterministic given the
training corpus. Training compiles the counts into per-context log2 tables
and scoring looks each position up through a capped per-model memo of the
backoff result (see ``NgramModel``); the arithmetic is the per-position
formula's, so perplexities are bit-identical to it.
"""

from __future__ import annotations

import json
import math

from chinese_corpus_cleaning_ray.config import PerplexityConfig
from chinese_corpus_cleaning_ray.functions.textclean import (
    extract_meaningful_segments,
    has_spam_patterns,
    ppl_preprocess,
)

_BOS = "\x02"
_EOS = "\x03"  # sentence terminator (the '</s>' of the deleted module)
# memo entries per model before it is cleared: ≈ 7 MB at ≈ 107 B an entry
_MEMO_CAP = 1 << 16


class NgramModel:
    """Character n-gram LM with add-alpha smoothing.

    P(c | ctx) = (count(ctx + c) + α) / (count(ctx) + α·V); unseen contexts
    back off to the longest seen suffix, bottoming out at the unigram
    distribution. Perplexity = 2^(-mean log2 P) over the char stream + EOS,
    matching the deleted module's formula (SURVEY §0).

    ``counts`` is compiled at ``train``/``load`` into one table per context:
    ``{char: log2 P(char | ctx)}`` for the chars seen after it, plus the
    unseen-char value ``log2(α / den)``, with ``den = count(ctx) + α·V``
    computed by the same int sum and float operations as the formula above,
    so every log2 is the same float it would be if computed per position.
    A memo maps each text context (the n−1 chars before a position) to the
    table of its longest suffix in ``counts``, i.e. the backoff result; it is
    cleared when it reaches ``_MEMO_CAP`` entries, which bounds its memory
    (≈ 107 B an entry) and changes no value. ``perplexity`` adds the looked-up
    log2 values in stream order, as the per-position formula does, so its
    result is bit-identical to it (pinned by tests against
    ``tests/oracle_ref.py``). The tables are derived state: ``save`` writes
    only n, alpha, vocab and counts.
    """

    def __init__(self, n: int = 5, alpha: float = 0.01):
        self.n = n
        self.alpha = alpha
        self.counts: dict[str, dict[str, int]] = {}  # context -> {char: count}
        self.vocab: set[str] = set()
        self._compile()

    def train(self, texts: list[str]) -> "NgramModel":
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
        self._compile()  # V and every context total may have changed
        return self

    def _compile(self) -> None:
        v = max(1, len(self.vocab))
        a = self.alpha
        tables = {}
        for ctx, bucket in self.counts.items():
            den = sum(bucket.values()) + a * v
            tables[ctx] = ({ch: math.log2((k + a) / den) for ch, k in bucket.items()},
                           math.log2(a / den))
        self._tables = tables
        self._empty = ({}, math.log2(1.0 / v))  # no context at all: the empty model
        self._memo: dict[str, tuple[dict[str, float], float]] = {}

    def _backoff(self, ctx: str) -> tuple[dict[str, float], float]:
        tables = self._tables
        while ctx not in tables:
            if not ctx:
                return self._empty
            ctx = ctx[1:]
        return tables[ctx]

    def perplexity(self, text: str) -> float:
        if not text:
            return float("inf")
        n1 = self.n - 1
        stream = _BOS * n1 + text + _EOS
        memo = self._memo
        log_sum = 0.0
        for i, ch in enumerate(stream[n1:]):
            ctx = stream[i : i + n1]
            try:
                table, unseen = memo[ctx]
            except KeyError:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                table, unseen = memo[ctx] = self._backoff(ctx)
            log_sum += table.get(ch, unseen)
        return 2 ** (-log_sum / (len(text) + 1))

    # -- persistence (JSON, not pickle — deterministic and audit-friendly) ---

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

    @classmethod
    def load(cls, path: str) -> "NgramModel":
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
        m = cls(n=d["n"], alpha=d["alpha"])
        m.vocab = set(d["vocab"])
        m.counts = {ctx: {c: int(v) for c, v in b.items()} for ctx, b in d["counts"].items()}
        m._compile()
        return m


class PerplexityScorer:
    """check/score wrapper with the GPT-2 path's exact formulas
    (ref:utils/lmppl_perplexity.py:42-240) over the n-gram model."""

    def __init__(self, model: NgramModel, cfg: PerplexityConfig | None = None):
        self.model = model
        self.cfg = cfg or PerplexityConfig()

    def _lm_ppl(self, text: str) -> float:
        """Raw language-model perplexity of preprocessed text — the ONLY part
        that differs between the n-gram path and the GPT-2 forward pass
        (HFPerplexityScorer overrides this)."""
        return self.model.perplexity(text)

    def calculate_perplexity(self, text: str) -> float:
        """ref:lmppl_perplexity.py:42-90: preprocess → segment-extract (>500
        chars) → LM ppl capped at max_ppl → spam bump max(ppl·1.5, thr·1.2)."""
        cfg = self.cfg
        text = ppl_preprocess(text)
        if len(text) > 500:
            text = extract_meaningful_segments(text, 500)  # ref::55-57
        if not text:
            return cfg.max_ppl  # reference returns max_ppl on any scoring error
        ppl = min(self._lm_ppl(text), cfg.max_ppl)  # ref::80
        if has_spam_patterns(text):
            ppl = max(ppl * 1.5, cfg.ppl_threshold * 1.2)  # ref::83-85
        return ppl

    def check_perplexity(self, text: str) -> tuple[bool, dict]:
        """ref:lmppl_perplexity.py:191-212 — pass iff ppl ≤ threshold AND no
        spam patterns in the RAW text."""
        ppl = self.calculate_perplexity(text)
        is_good = ppl <= self.cfg.ppl_threshold
        spam = has_spam_patterns(text)
        if is_good and spam:
            is_good = False
        return is_good, {"perplexity": ppl, "threshold": self.cfg.ppl_threshold, "has_spam_patterns": spam}

    def get_perplexity_score(self, text: str) -> float:
        """ref:lmppl_perplexity.py:214-240 — 1.0 below thr/2, linear to 0 at
        max_ppl, ×0.5 when spam patterns present."""
        cfg = self.cfg
        ppl = self.calculate_perplexity(text)
        spam = has_spam_patterns(text)
        if ppl >= cfg.max_ppl:
            base = 0.0
        elif ppl <= cfg.ppl_threshold / 2:
            base = 1.0
        else:
            base = max(0.0, 1.0 - (ppl - cfg.ppl_threshold / 2) / (cfg.max_ppl - cfg.ppl_threshold / 2))
        return base * (0.5 if spam else 1.0)

    def evaluate(self, text: str) -> tuple[float, bool, float]:
        """Fused (ppl, pass, score) — one ``calculate_perplexity`` and one
        raw-text spam check instead of the two+three a check_perplexity /
        get_perplexity_score pair costs. Formulas identical to those methods
        (pinned by test), so keep/drop labels and scores never move."""
        cfg = self.cfg
        ppl = self.calculate_perplexity(text)
        spam = has_spam_patterns(text)
        is_good = ppl <= cfg.ppl_threshold and not spam
        if ppl >= cfg.max_ppl:
            base = 0.0
        elif ppl <= cfg.ppl_threshold / 2:
            base = 1.0
        else:
            base = max(0.0, 1.0 - (ppl - cfg.ppl_threshold / 2) / (cfg.max_ppl - cfg.ppl_threshold / 2))
        return ppl, is_good, base * (0.5 if spam else 1.0)


class HFPerplexityScorer(PerplexityScorer):  # pragma: no cover - env-gated
    """GPT-2 forward-pass perplexity (exp(loss) over the causal-LM loss —
    ref:lmppl_perplexity.py:26-90) with the SAME M17/M18 preprocessing and
    A6 check/score formulas as the n-gram path (inherited unchanged: only
    ``_lm_ppl`` differs). Gated behind an import-try like stages.embed's
    HFEmbedder: when torch+transformers are installed this is the production
    GPU path; default pipelines keep the deterministic n-gram scorer so
    keep/drop labels never move — inject on GPU clusters via
    ``PplStage(cfg, scorer_factory=lambda: HFPerplexityScorer(cfg.perplexity))``.
    """

    def __init__(self, cfg: PerplexityConfig | None = None,
                 model_name: str = "uer/gpt2-chinese-cluecorpussmall",
                 max_length: int = 512, device: str | None = None):
        try:
            import torch
            from transformers import AutoModelForCausalLM, AutoTokenizer
        except ImportError as e:
            raise NotImplementedError(
                "HF perplexity requires torch+transformers (absent here); "
                "use the default n-gram PerplexityScorer or inject any "
                "object with check_perplexity/get_perplexity_score"
            ) from e
        self.cfg = cfg or PerplexityConfig()
        self.model = None  # no n-gram model on this path
        self._torch = torch
        self.device = device or ("cuda" if torch.cuda.is_available() else "cpu")
        self.tokenizer = AutoTokenizer.from_pretrained(model_name)
        self.lm = AutoModelForCausalLM.from_pretrained(model_name).to(self.device).eval()
        self.max_length = max_length

    def _lm_ppl(self, text: str) -> float:
        # ref:lmppl_perplexity.py:60-80 — encode, labels = input_ids,
        # perplexity = exp(loss); OverflowError → max_ppl
        enc = self.tokenizer(text, return_tensors="pt", truncation=True,
                             max_length=self.max_length).to(self.device)
        ids = enc["input_ids"]
        with self._torch.no_grad():
            out = self.lm(input_ids=ids, labels=ids.clone())
        try:
            return float(self._torch.exp(out.loss).item())
        except OverflowError:
            return self.cfg.max_ppl
