"""Pipeline configuration.

Mirrors the reference's effective configuration: the class-level defaults of
``ref:text_quality_filter/utils/rule_filter.py:18-26`` overridden by
``ref:text_quality_filter/config/config.py:10-20`` (RULE_FILTER_CONFIG), the
feature-word config (``ref:config/config.py:23-27``), the perplexity config
(``ref:config/config.py:30-37``) and the general toggles/weights
(``ref:config/config.py:47-61``).

Dead reference keys (max_number_ratio, max_english_ratio, max_max_line_length,
max_duplicate_line_ratio, max_avg_paragraph_length — ``ref:config/config.py:14-19``)
are intentionally NOT modeled: they are never read by the reference's rule
filter, so they do not affect labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import hashlib
import json
import unicodedata


@dataclass(frozen=True)
class RuleConfig:
    """Effective thresholds of the reference rule filter.

    Values are RULE_FILTER_CONFIG (ref:config/config.py:11-16) where present,
    else the RuleFilter class defaults (ref:utils/rule_filter.py:18-26).
    """

    min_text_length: int = 100          # ref:config/config.py:11
    min_avg_line_length: float = 5.0    # ref:config/config.py:16
    min_chinese_ratio: float = 0.6      # ref:config/config.py:12
    max_symbol_ratio: float = 0.2       # ref:config/config.py:13
    max_internal_dup_ratio: float = 0.5  # ref:utils/rule_filter.py:22 (class default)
    max_vertical_bar_ratio: float = 0.005  # ref:utils/rule_filter.py:23 (class default)
    max_comma_ratio: float = 0.05       # ref:utils/rule_filter.py:24 (class default)
    max_url_density: float = 0.01       # ref:utils/rule_filter.py:25 (class default)
    max_emoji_ratio: float = 0.02       # ref:utils/rule_filter.py:26 (class default)


@dataclass(frozen=True)
class FeatureConfig:
    """ref:config/config.py:23-27 — word-list path is ours, not the reference's."""

    max_feature_words_per_line: float = 0.2  # ref:config/config.py:25
    # None → packaged mini word list (chinese_corpus_cleaning_ray/data/feature_words.txt)
    feature_words_path: str | None = None


@dataclass(frozen=True)
class PerplexityConfig:
    """ref:config/config.py:30-37 + ref:utils/lmppl_perplexity.py:22-24."""

    order: int = 5                 # ref:config/config.py:33
    ppl_threshold: float = 200.0   # ref:config/config.py:36
    max_ppl: float = 10000.0       # ref:utils/lmppl_perplexity.py:23
    alpha: float = 0.01            # add-alpha smoothing of our n-gram LM (A7 lineage)


@dataclass(frozen=True)
class ClusteringConfig:
    """ref:config/config.py:40-44 + ref:utils/clustering.py:25 — the
    duplicate-ratio clustering component (disabled by default upstream too)."""

    similarity_threshold: float = 0.85  # ref:utils/clustering.py:25 (class default)
    embed_dim: int = 64                 # our deterministic embedder's dim


@dataclass(frozen=True)
class LangIdConfig:
    """ref:tool.py:16-35 — threshold of is_chinese_fasttext."""

    threshold: float = 0.7         # ref:tool.py:16
    zh_majority: float = 0.5       # our heuristic: lang == "zh" iff zh/(zh+latin) >= this


@dataclass(frozen=True)
class PipelineConfig:
    """ref:config/config.py:47-61 (GENERAL_CONFIG) + execution knobs."""

    enable_rule_filter: bool = True        # ref:config/config.py:48
    enable_feature_words: bool = True      # ref:config/config.py:49
    enable_perplexity: bool = False        # ref:config/config.py:50
    enable_clustering: bool = False        # ref:config/config.py:51
    enable_langid: bool = True             # langid column stage (north-star requirement)
    enable_scrub: bool = True              # EP2 step 2 (ref:main.py:363-418)
    enable_pii_redact: bool = False        # structured PII pass (no ref analogue;
                                           # additive redacted_text + counts)
    quality_threshold: float = 0.8         # ref:config/config.py:53
    # component weights — ref:config/config.py:55-60
    weight_rule: float = 0.3
    weight_feature: float = 0.5
    weight_perplexity: float = 0.1
    weight_clustering: float = 0.1         # ref:config/config.py:59

    rule: RuleConfig = field(default_factory=RuleConfig)
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    perplexity: PerplexityConfig = field(default_factory=PerplexityConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    langid: LangIdConfig = field(default_factory=LangIdConfig)

    # --- execution knobs (ours; no reference analogue — it is single-process) ---
    num_partitions: int = 64          # hash(conv_id) checkpoint partitions
    batch_size: int = 4096            # rows per map_batches call in text stages
    # keep the original text column in the checkpointed output (doubles the
    # output-shuffle payload; the scrubbed_text column is always kept)
    keep_original_text: bool = False

    def config_hash(self) -> str:
        """Stable hash over semantic + layout fields — stamped into checkpoint
        manifests. num_partitions and keep_original_text stay IN the hash: both
        change the on-disk layout/schema, so resuming across a change of either
        must invalidate (mixing two part_id layouts in one dir is corruption).
        Only pure execution-throughput knobs are excluded. The Unicode
        database version is in it too: the character classes every check
        uses come from it, so a Python upgrade that moves them invalidates
        manifests instead of silently changing labels."""
        d = asdict(self)
        d.pop("batch_size")
        d["unidata_version"] = unicodedata.unidata_version
        blob = json.dumps(d, sort_keys=True, ensure_ascii=False).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = PipelineConfig()
