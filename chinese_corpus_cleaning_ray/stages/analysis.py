"""Text-analysis stages: token counts, quality signals, fingerprints, and the
ingest normalizers (HTML strip / clean / long-repeat removal) as batch
transforms. These correspond to SURVEY §2.2 M1-M4/M20 plus the added
training-data bookkeeping ops (tokens/fingerprints)."""

from __future__ import annotations

import pyarrow as pa

from chinese_corpus_cleaning_ray.functions.dedup import rolling_fingerprint, simhash64
from chinese_corpus_cleaning_ray.functions.textclean import (
    clean_text_strict,
    clean_text_ws,
    remove_long_repeated_substrings,
)
from chinese_corpus_cleaning_ray.functions.tokens import (
    bpe_token_count,
    quality_signals,
    ws_token_count,
)


def add_token_stats(ds, text_col: str = "text"):
    """ws_tokens, bpe_tokens, n_chars, punct_ratio, stopword_ratio columns."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ws = [ws_token_count(t) for t in texts]
        bpe = [bpe_token_count(t) for t in texts]
        sigs = [quality_signals(t) for t in texts]
        batch = batch.append_column("ws_tokens", pa.array(ws, pa.int64()))
        batch = batch.append_column("bpe_tokens", pa.array(bpe, pa.int64()))
        batch = batch.append_column("punct_ratio", pa.array([s["punct_ratio"] for s in sigs], pa.float64()))
        batch = batch.append_column("stopword_ratio", pa.array([s["stopword_ratio"] for s in sigs], pa.float64()))
        return batch

    return ds.map_batches(fn, batch_format="pyarrow")


def add_fingerprints(ds, text_col: str = "text", window: int = 64, simhash_k: int = 3):
    """rolling-hash doc fingerprint + 64-bit simhash columns."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        fps = [rolling_fingerprint(t, window) for t in texts]
        sh = [simhash64(t, simhash_k) for t in texts]
        batch = batch.append_column("fingerprint", pa.array(fps, pa.int64()))
        batch = batch.append_column("simhash", pa.array(sh, pa.int64()))
        return batch

    return ds.map_batches(fn, batch_format="pyarrow")


def add_clean_text(ds, text_col: str = "text", variant: str = "ws",
                   remove_repeats: bool = False, out_col: str = "clean_text"):
    """M1/M2 normalizers (+ optional M20 ≥21-char repeat removal) as a column."""
    clean = clean_text_ws if variant == "ws" else clean_text_strict

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        out = [clean(t) for t in texts]
        if remove_repeats:
            out = [remove_long_repeated_substrings(t) for t in out]
        return batch.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def segment_documents(ds, text_col: str = "text", id_col: str = "doc_id",
                      max_chars: int = 512):
    """One row per chunk: (id_col, chunk_idx, text) — the embedding-prep
    chunking step (native M22 replacement; see functions.textclean.chunk_text).
    flat_map-shaped via map_batches so output stays columnar Arrow."""
    import pyarrow as pa

    from chinese_corpus_cleaning_ray.functions.textclean import chunk_text

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id, out_idx, out_text = [], [], []
        for i, t in zip(ids, texts):
            for j, c in enumerate(chunk_text(t, max_chars)):
                out_id.append(i)
                out_idx.append(j)
                out_text.append(c)
        return pa.table({
            id_col: pa.array(out_id, batch.schema.field(id_col).type),
            "chunk_idx": pa.array(out_idx, pa.int32()),
            "text": pa.array(out_text, pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def sample_by_hash(ds, id_col: str, pct: int = 10,
                   mult: int = 1103515245, inc: int = 12345,
                   mod: int = 2147483648):
    """Deterministic hash sampling (§2.7 sampling — the reference's WARC
    subsampler keeps a filtered subset per shard, ref:subsample_warc_warc.py;
    here the general operator): keep a row iff
    ``((id % mod) * mult + inc) % mod % 100 < pct``. A classic LCG step —
    exactly expressible in SQL, so the sample is bit-reproducible across the
    engine, the oracle, and reruns (resume-safe: the same row always makes
    the same cut). Stateless vectorized filter; embarrassingly parallel; no
    shuffle. Ids must be NON-NEGATIVE integers (numpy's % is floored, SQL's
    is truncated — they agree only for non-negative dividends); hash string
    ids to non-negative int64 upstream first (``add_nonneg_id``)."""
    import numpy as np
    import pyarrow.compute as pc  # noqa: F401

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % mod) * mult + inc) % mod
        return batch.filter(pa.array((h % 100) < pct))

    return ds.map_batches(keep, batch_format="pyarrow")


def shuffle_by_hash(ds, id_col: str, seed: int = 0,
                    mult: int = 1103515245, inc: int = 12345,
                    mod: int = 2147483648, key_col: str = "shuffle_key"):
    """Deterministic epoch shuffle for training-data export: every row gets
    ``key = lcg(lcg(id + seed))`` (two LCG rounds so consecutive ids
    disperse), then ONE range-partition sort by ``(key, id)`` — Ray Data's
    distributed sort is the scalable global shuffle (sampled range
    boundaries, one all-to-all, no driver materialization).

    Unlike ``ds.random_shuffle()`` the order is a pure function of
    ``(id, seed)``: reproducible across block layouts, cluster sizes, and
    resumes, and a new epoch is just a new seed. Exactly expressible in SQL
    (same integer arithmetic), so the full output ORDER is oracle-checkable.
    Ids must be non-negative integers (see sample_by_hash); the key column
    stays in the output so downstream sharded writers can range-split on it."""
    import numpy as np

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (((ids + seed) % mod) * mult + inc) % mod
        h = (h * mult + inc) % mod
        return batch.append_column(key_col, pa.array(h))

    return ds.map_batches(add_key, batch_format="pyarrow").sort(
        [key_col, id_col])


def train_val_split(ds, id_col: str, val_pct: int = 10, seed: int = 0,
                    mult: int = 1103515245, inc: int = 12345,
                    mod: int = 2147483648, split_col: str = "split"):
    """Deterministic train/validation labeling: one pass adds
    ``split_col`` ∈ {"train", "val"} via ``lcg(id + seed) % 100 < val_pct``
    — the same LCG family as ``sample_by_hash``, so membership is
    bit-reproducible across reruns/resume and restatable in SQL. A document
    can never migrate between splits unless the seed changes (the property
    decontamination pipelines rely on). Stateless vectorized stage, no
    shuffle; ids must be non-negative integers."""
    import numpy as np

    def label(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (((ids + seed) % mod) * mult + inc) % mod
        is_val = (h % 100) < val_pct
        lab = np.where(is_val, "val", "train")
        return batch.append_column(split_col, pa.array(lab, pa.string()))

    return ds.map_batches(label, batch_format="pyarrow")


def stratified_sample(ds, key_col: str, id_col: str, per_key: int,
                      mult: int = 1103515245, inc: int = 12345,
                      mod: int = 2147483648, shards: int = 256):
    """Per-key quota sampling (data-mixing: "≤ N docs per source"): keep the
    ``per_key`` rows with the smallest LCG-hash(id) within each key —
    deterministic and bit-reproducible (same SQL arithmetic as
    ``sample_by_hash``), so quotas survive reruns and resume unchanged.
    Ids must be non-negative integers (see sample_by_hash).

    Plan: hash shard of the key (a key never splits across shards) → one
    vectorized sort + cumcount per shard. Per-shard memory = input/shards;
    a hot key inflates one shard, never one Python group."""
    import numpy as np
    import pandas as pd

    def add_rank_key(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % mod) * mult + inc) % mod
        keys = pd.Series(batch.column(key_col).to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__h", pa.array(h)).append_column(
            "__shard", pa.array(sh))

    def quota(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, "__h", id_col], kind="mergesort")
        keep = g.groupby(key_col, sort=False).cumcount() < per_key
        return g.loc[keep].drop(columns=["__h", "__shard"])

    return (
        ds.map_batches(add_rank_key, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(quota, batch_format="pandas")
    )


def token_budget_sample(ds, key_col: str, id_col: str, budget_tokens: int,
                        text_col: str = "text",
                        mult: int = 1103515245, inc: int = 12345,
                        mod: int = 2147483648, shards: int = 256):
    """Per-key TOKEN-budget sampling — the data-mixing primitive that selects
    by token MASS instead of document count ("≤ B whitespace tokens per
    source"): within each key, walk rows in deterministic LCG-hash(id) order
    and keep while the running inclusive token total stays ≤ ``budget_tokens``.
    Bit-reproducible (integer cumsum, same LCG arithmetic as
    ``stratified_sample``); ids must be non-negative integers.

    Plan: identical shape to ``stratified_sample`` — token counts computed
    at the scan (counts move through the shuffle, text does too only because
    callers usually want it back), hash shard of the key so a key never
    splits, one vectorized sort + per-key cumsum per shard. Appends a
    ``ws_tokens`` column to the survivors."""
    import numpy as np
    import pandas as pd

    def add_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % mod) * mult + inc) % mod
        toks = np.fromiter((ws_token_count(t)
                            for t in batch.column(text_col).to_pylist()),
                           dtype=np.int64, count=batch.num_rows)
        keys = pd.Series(batch.column(key_col).to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return (batch.append_column("__h", pa.array(h))
                .append_column("ws_tokens", pa.array(toks))
                .append_column("__shard", pa.array(sh)))

    def budget(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, "__h", id_col], kind="mergesort")
        cum = g.groupby(key_col, sort=False)["ws_tokens"].cumsum()
        return g.loc[cum <= budget_tokens].drop(columns=["__h", "__shard"])

    return (
        ds.map_batches(add_keys, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(budget, batch_format="pandas")
    )


def top_ngrams(ds, text_col: str = "text", id_col: str = "doc_id",
               k: int = 5, top: int = 20, shards: int | None = None,
               target_docs_per_shard: int = 2048):
    """Corpus-wide top character-k-grams by DOCUMENT frequency (each doc
    counts a gram once), the vocabulary/boilerplate profiling aggregate.

    Plan (partial-aggregate before the shuffle, §2.5 discipline):
    1. map_batches: per-doc distinct grams → per-BATCH partial counts
       (g, n) — the shuffle moves gram counts, never gram instances.
    2. groupby coarse shard of the gram; a gram's partials all land in one
       shard, so per-shard sums are COMPLETE — each shard emits its own
       top-``top`` only (vectorized pandas).
    3. tiny driver-side merge of ≤ shards×top candidate rows → global top.
    Ordering: df DESC, gram ASC (deterministic, matches the SQL oracle).

    Returns a pandas DataFrame (g, df) — the result is top-k small by
    construction; the heavy work stays distributed. ``shards=None`` sizes
    the power-of-two shard count from the input row count
    (~``target_docs_per_shard`` docs of gram-partials per shard) so
    per-shard memory stays flat as the corpus grows."""
    import numpy as np
    import pandas as pd

    if shards is None:
        from chinese_corpus_cleaning_ray.stages.dedup_stage import _pow2_shards

        shards = _pow2_shards(ds.count(), target_docs_per_shard)

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch.column(text_col).to_pylist():
            for g in {t[i : i + k] for i in range(len(t) - k + 1)}:
                counts[g] = counts.get(g, 0) + 1
        grams = list(counts.keys())
        h = (pd.util.hash_array(np.asarray(grams, dtype=object)).astype(np.int64)
             & (shards - 1)) if grams else np.array([], dtype=np.int64)
        return pa.table(
            {
                "g": pa.array(grams, pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
                "shard": pa.array(h.astype(np.int32) if grams else [], pa.int32()),
            }
        )

    def shard_top(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("g", sort=False)["n"].sum().reset_index(name="df")
        return agg.sort_values(["df", "g"], ascending=[False, True],
                               kind="mergesort").head(top)

    cand = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_top, batch_format="pandas")
        .to_pandas()
    )
    out = cand.sort_values(["df", "g"], ascending=[False, True],
                           kind="mergesort").head(top).reset_index(drop=True)
    return out.astype({"df": "int64"})


def contamination_check(ds, probe_texts: list[str], text_col: str = "text",
                        id_col: str = "doc_id", k: int = 5,
                        min_overlap: int = 1):
    """Test-set decontamination: flag corpus docs sharing ≥ ``min_overlap``
    distinct character k-grams with ANY probe text (the union of probe
    shingles). The standard pre-training hygiene op: probes = eval/test set,
    output = (id, overlap) rows to drop or audit.

    Scale shape: the probe shingle set is built ONCE on the driver (probe
    sets are small by definition — an eval suite, not a corpus), shipped via
    ``ray.put``, and each batch computes ``len(doc_grams & probe_set)`` with
    C-speed set intersection — stateless map_batches, no shuffle. Exactly
    SQL-expressible (distinct-shingle join), so it is oracle-checked."""
    probe: set[str] = set()
    for t in probe_texts:
        probe.update(t[i : i + k] for i in range(len(t) - k + 1))
    try:
        import ray

        probe_ref = ray.put(frozenset(probe))
    except Exception:
        probe_ref = frozenset(probe)

    def scan(batch: pa.Table) -> pa.Table:
        import ray as _ray

        p = probe_ref
        if isinstance(p, _ray.ObjectRef):
            p = _ray.get(p)
        ids = batch.column(id_col)
        overlaps = []
        for t in batch.column(text_col).to_pylist():
            grams = {t[i : i + k] for i in range(len(t) - k + 1)}
            overlaps.append(len(grams & p))
        import numpy as np

        ov = np.asarray(overlaps, dtype=np.int64)
        keep = ov >= min_overlap
        return pa.table(
            {
                id_col: ids.filter(pa.array(keep)),
                "overlap": pa.array(ov[keep]),
            }
        )

    return ds.map_batches(scan, batch_format="pyarrow")


def length_histogram(ds, text_col: str = "text", bucket: int = 100):
    """Corpus length profile: (bucket_lo, n_docs) — floor(len/bucket)*bucket.
    Partial counts per batch → one tiny groupby over ≤ a few hundred bucket
    keys. The shuffle moves bucket counts, never rows."""
    import numpy as np
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lens = pc.utf8_length(batch.column(text_col)).to_numpy(zero_copy_only=False)
        b = (lens // bucket) * bucket
        uniq, counts = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket_lo": pa.array(uniq.astype(np.int64)),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    def total(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bucket_lo": [int(group["bucket_lo"].iloc[0])],
                "n_docs": [int(group["n"].sum())],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket_lo")
        .map_groups(total, batch_format="pandas")
    )


def repetition_signals(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher/MassiveText-style intra-document repetition quality signals
    (Rae et al. 2021, §A1.1 repetition filters — public paper): per doc,
    over its newline-split lines (empties included),

    - ``n_lines``: line count;
    - ``dup_line_frac``: (n_lines − n_distinct_lines) / n_lines;
    - ``dup_line_char_frac``: characters in lines whose value occurs ≥ 2
      times in the doc / total line characters (0.0 for all-empty docs).

    Purely row-local (a doc's lines never leave its batch — no shuffle);
    the kernel is one pandas groupby over (row, line) per batch. Both
    fractions are BIGINT ratios cast to double, so the SQL restatement is
    bit-exact."""
    import numpy as np
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = batch.column(text_col)
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(pc.cast(txt, pa.string()), "")
        parts = pc.split_pattern(txt, "\n")
        flat = pc.list_flatten(parts)
        parent = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"p": parent,
                           "line": flat.to_numpy(zero_copy_only=False),
                           "ln": lens.astype(np.int64)})
        per = (df.groupby(["p", "line"], sort=False)
               .agg(c=("ln", "size"), ln=("ln", "first")).reset_index())
        per["chars"] = per["c"] * per["ln"]
        per["dup_chars"] = np.where(per["c"] > 1, per["chars"], 0)
        agg = per.groupby("p", sort=False).agg(
            n_lines=("c", "sum"), n_distinct=("c", "size"),
            total_chars=("chars", "sum"), dup_chars=("dup_chars", "sum"))
        agg = agg.reindex(range(batch.num_rows))  # docs are never empty-line-less, but be total
        n_lines = agg["n_lines"].to_numpy(dtype=np.float64)
        dup_line_frac = (n_lines - agg["n_distinct"].to_numpy(dtype=np.float64)) / n_lines
        total = agg["total_chars"].to_numpy(dtype=np.float64)
        dup = agg["dup_chars"].to_numpy(dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            dup_char_frac = np.where(total == 0, 0.0, dup / np.where(total == 0, 1, total))
        return pa.table({
            id_col: batch.column(id_col),
            "n_lines": pa.array(agg["n_lines"].to_numpy(dtype=np.int64)),
            "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
            "dup_line_char_frac": pa.array(dup_char_frac, pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def exact_quantiles(ds, col: str, quantiles: list[float],
                    max_distinct: int = 5_000_000):
    """EXACT order statistics of an integer-valued column via value-count
    compaction: per-batch ``value_counts`` partials → one groupby over the
    DISTINCT values → driver-side cumulative walk. Returns a pandas
    DataFrame (q, value) matching DuckDB's ``quantile_disc`` definition
    (empirically pinned: value at 1-based rank ``max(1, ceil(q·n))`` of the
    sorted multiset).

    Scale shape: the shuffle and the driver pull both carry one row per
    DISTINCT value, never per input row — exact quantiles of a length,
    count or score-bucket column over 10^12 rows move a few thousand
    (value, count) pairs. Raises ``ValueError`` above ``max_distinct``
    (a near-continuous column is not this operator's shape; bucket it
    first, or accept approximation elsewhere)."""
    import math

    import numpy as np
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(batch.column(col))
        return pa.table({
            "v": pc.cast(vc.field("values"), pa.int64()),
            "c": pc.cast(vc.field("counts"), pa.int64()),
        })

    def total(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": [int(group["v"].iloc[0])],
                             "c": [int(group["c"].sum())]})

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .map_groups(total, batch_format="pandas")
        .materialize()
    )
    n_distinct = counts.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"column {col!r} has {n_distinct} distinct values "
            f"(> {max_distinct}); exact_quantiles is for low-cardinality "
            "columns — bucket the column first")
    pdf = counts.to_pandas().sort_values("v").reset_index(drop=True)
    if not len(pdf):
        return pd.DataFrame({"q": pd.Series(quantiles, dtype=np.float64),
                             "value": pd.Series([np.nan] * len(quantiles))})
    cum = pdf["c"].cumsum().to_numpy()
    n = int(cum[-1])
    vals = pdf["v"].to_numpy()
    out = []
    for q in quantiles:
        k = max(1, math.ceil(q * n))
        out.append(int(vals[int(np.searchsorted(cum, k))]))
    return pd.DataFrame({"q": pd.Series(quantiles, dtype=np.float64),
                         "value": pd.Series(out, dtype=np.int64)})


def quantile_filter(ds, col: str, lo_q: float = 0.05, hi_q: float = 0.95,
                    max_distinct: int = 5_000_000):
    """Adaptive outlier filtering (Gopher-style length/score gating with
    thresholds learned from the CORPUS, not hardcoded): computes the exact
    ``lo_q``/``hi_q`` order statistics of ``col`` via
    :func:`exact_quantiles`, then keeps rows with ``lo ≤ col ≤ hi``.

    Two passes over ``ds`` — pass 1 moves one row per DISTINCT value (the
    value-count compaction), pass 2 is a stateless vectorized filter with
    the two scalar thresholds captured in the closure (no broadcast join,
    no shuffle). Pass ``ds`` as a re-readable source (a parquet read) or
    ``materialize()`` a derived input first, as with the join operators."""
    import pyarrow.compute as pc

    qdf = exact_quantiles(ds, col, [lo_q, hi_q], max_distinct=max_distinct)
    lo = qdf.loc[qdf["q"] == lo_q, "value"].iloc[0]
    hi = qdf.loc[qdf["q"] == hi_q, "value"].iloc[0]

    def keep(batch: pa.Table) -> pa.Table:
        v = batch.column(col)
        return batch.filter(pc.and_(pc.greater_equal(v, lo),
                                    pc.less_equal(v, hi)))

    return ds.map_batches(keep, batch_format="pyarrow")


def exact_quantiles_by_key(ds, key_col: str, col: str,
                           quantiles: list[float], shards: int = 64):
    """Per-key exact order statistics, fully distributed: per-batch
    (key, value) count partials → ONE groupby over a coarse hash shard of
    the key (a key's whole distribution meets in one shard as distinct
    (value, count) pairs) → vectorized per-key cumulative walk inside the
    shard. Same ``quantile_disc`` definition as ``exact_quantiles``;
    returns a Dataset (key, q, value) with one row per key × quantile.

    Unlike the global variant nothing is pulled to the driver, so
    cardinality needs no guard: per-shard memory is (distinct (key, value)
    pairs)/shards."""
    import math

    import numpy as np
    import pandas as pd

    qs = list(quantiles)

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        df = pd.DataFrame({
            key_col: batch.column(key_col).to_pandas(),
            "v": batch.column(col).to_pandas().astype(np.int64),
        })
        agg = (df.groupby([key_col, "v"], sort=False)
               .size().reset_index(name="c"))
        h = pd.util.hash_pandas_object(agg[key_col], index=False).to_numpy()
        agg["shard"] = (h % np.uint64(shards)).astype(np.int32)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def walk(group: pd.DataFrame) -> pd.DataFrame:
        agg = (group.groupby([key_col, "v"], sort=False)["c"].sum()
               .reset_index().sort_values([key_col, "v"], kind="mergesort"))
        out_k, out_q, out_v = [], [], []
        for key, g in agg.groupby(key_col, sort=False):
            cum = g["c"].cumsum().to_numpy()
            vals = g["v"].to_numpy()
            n = int(cum[-1])
            for q in qs:
                k = max(1, math.ceil(q * n))
                out_k.append(key)
                out_q.append(q)
                out_v.append(int(vals[int(np.searchsorted(cum, k))]))
        return pd.DataFrame({key_col: pd.Series(out_k,
                                                dtype=agg[key_col].dtype),
                             "q": pd.Series(out_q, dtype=np.float64),
                             "value": pd.Series(out_v, dtype=np.int64)})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(walk, batch_format="pandas")
    )


def boilerplate_report(ds, text_col: str = "text", top_n: int = 50,
                       min_len: int = 1, min_count: int = 2,
                       shards: int = 256):
    """Boilerplate AUDIT for paragraph dedup: the ``top_n`` most-repeated
    paragraphs corpus-wide as (para, n_occurrences), ordered by count
    descending then paragraph ascending (deterministic). The explode and
    batch pre-collapse follow ``paragraph_dedup``; counts then compact
    through a content-shard groupby and a per-shard top-n before the tiny
    global cut, so the shuffle moves (paragraph, count) rows and the
    driver sees shards × top_n rows at most."""
    import numpy as np
    import pandas as pd

    def explode_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = batch.column(text_col)
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(pc.cast(txt, pa.string()), "")
        flat = pc.list_flatten(pc.split_pattern(txt, "\n"))
        keep = pc.greater_equal(pc.utf8_length(flat), min_len)
        vc = pc.value_counts(flat.filter(keep))
        paras = vc.field("values")
        h = pd.util.hash_array(paras.to_numpy(zero_copy_only=False))
        return pa.table({
            "para": paras,
            "n": pc.cast(vc.field("counts"), pa.int64()),
            "shard": pa.array((h % np.uint64(shards)).astype(np.int32)),
        })

    def shard_top(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("para", sort=False)["n"].sum().reset_index()
        agg = agg[agg["n"] >= min_count]
        agg = agg.sort_values(["n", "para"], ascending=[False, True],
                              kind="mergesort").head(top_n)
        return agg[["para", "n"]]

    tops = (
        ds.map_batches(explode_counts, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_top, batch_format="pandas")
    )
    pdf = tops.to_pandas()
    if not len(pdf):
        return pd.DataFrame({"para": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype=np.int64)})
    return (pdf.sort_values(["n", "para"], ascending=[False, True],
                            kind="mergesort").head(top_n)
            .reset_index(drop=True))


def winnow_fingerprints(ds, text_col: str = "text", id_col: str = "doc_id",
                        window: int = 64, stride: int = 32):
    """Winnowing-style document fingerprint: the MIN of MD5 over sliding
    character windows (start positions 0, stride, 2·stride, …; whole text
    when shorter than one window). Near-identical docs share their minimal
    window with high probability, so equal fingerprints are dedup/grouping
    candidates. MD5 is chosen as the window hash ONLY because it exists
    bit-identically in SQL — unlike ``add_fingerprints``'s internal rolling
    hash, this one is oracle-checkable end to end. Stateless map_batches."""
    import hashlib

    def fp(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch.column(text_col).to_pylist():
            starts = range(0, max(len(t) - window + 1, 1), stride)
            out.append(min(
                hashlib.md5(t[i : i + window].encode("utf-8")).hexdigest()
                for i in starts
            ))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "fp": pa.array(out, pa.string()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


def strip_html_text(html: str) -> str:
    """Scalar HTML→text (ref:tool.py:38-63 semantics): bs4 when available,
    regex tag stripper fallback. Row-local helper for task-side sinks; the
    Dataset-level variant is ``strip_html``."""
    import re

    if not html:
        return ""
    try:
        from bs4 import BeautifulSoup  # optional

        soup = BeautifulSoup(html, "html.parser")
        for el in soup(["script", "style", "meta", "noscript", "header", "footer", "nav"]):
            el.extract()
        return clean_text_ws(soup.get_text(separator=" "))
    except ImportError:
        script_re = re.compile(
            r"<(script|style|meta|noscript|header|footer|nav)\b[^>]*>.*?</\1>",
            re.IGNORECASE | re.DOTALL,
        )
        return clean_text_ws(re.sub(r"<[^>]+>", " ", script_re.sub(" ", html)))


def strip_html(ds, html_col: str = "text", out_col: str = "clean_text",
               drop_tags: bool = True):
    """ref:tool.py:38-63 — bs4 HTML strip; gated behind an import-try since
    bs4 may be absent. Falls back to a regex tag stripper (documented
    approximation) when bs4 is unavailable."""
    import re

    tag_re = re.compile(r"<[^>]+>")
    script_re = re.compile(
        r"<(script|style|meta|noscript|header|footer|nav)\b[^>]*>.*?</\1>",
        re.IGNORECASE | re.DOTALL,
    )

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(html_col).to_pylist()
        out = []
        try:
            from bs4 import BeautifulSoup  # optional

            for t in texts:
                if not t:
                    out.append("")
                    continue
                soup = BeautifulSoup(t, "html.parser")
                if drop_tags:
                    for el in soup(["script", "style", "meta", "noscript", "header", "footer", "nav"]):
                        el.extract()
                out.append(clean_text_ws(soup.get_text(separator=" ")))
        except ImportError:
            for t in texts:
                t = script_re.sub(" ", t or "")
                out.append(clean_text_ws(tag_re.sub(" ", t)))
        return batch.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def keyword_extract(ds, text_col: str = "text", id_col: str = "doc_id",
                    k: int = 4, top: int = 3,
                    df_broadcast_limit: int = 2_000_000,
                    shards: int | None = None,
                    target_docs_per_shard: int = 2048,
                    num_rows_hint: int | None = None):
    """Per-document TF-IDF keyword extraction over character ``k``-grams:
    for each doc, the ``top`` grams ranked by ``(tf DESC, df ASC, gram ASC)``
    — highest in-doc frequency, rarest in the corpus, deterministic
    tie-break. Appends the real ``tfidf = tf·ln(N/df)`` as an informational
    double; the RANKING key is pure-integer so the result (and the driver's
    SQL oracle) is bit-reproducible with no float-log divergence.

    Plan (two passes over ``ds`` — pass a re-readable source or
    ``materialize()`` a derived input, as with quantile_filter):
    1. DF pass: per-batch partial distinct-doc counts per gram (same
       partial-agg discipline as ``top_ngrams``) → gram-shard groupby →
       full (g, df) table. One row per DISTINCT gram moves, never one per
       occurrence.
    2. Score pass: if the vocabulary fits ``df_broadcast_limit``, the df
       table ships ONCE via ``ray.put`` and scoring is a stateless
       map_batches with ZERO shuffles — a doc's grams are all computed in
       its own batch, so per-doc top-k is batch-local. Otherwise the
       (doc, g, tf) pair stream joins df distributedly (``hash_join`` on
       the gram) and ranks per doc under a doc-hash-shard groupby: the
       exact same output, two extra exchanges, never a driver-side vocab.

    Returns one row per kept (doc, gram): ``(id, g, tf, df, rnk, tfidf)``.
    """
    import collections

    import numpy as np
    import pandas as pd
    import ray

    from chinese_corpus_cleaning_ray.stages.dedup_stage import _pow2_shards

    n_docs = num_rows_hint if num_rows_hint is not None else ds.count()
    if shards is None:
        shards = _pow2_shards(n_docs, target_docs_per_shard)

    def df_partials(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch.column(text_col).to_pylist():
            t = t or ""
            for g in {t[i:i + k] for i in range(len(t) - k + 1)}:
                counts[g] = counts.get(g, 0) + 1
        grams = list(counts.keys())
        h = (pd.util.hash_array(np.asarray(grams, dtype=object)).astype(np.int64)
             & (shards - 1)) if grams else np.array([], dtype=np.int64)
        return pa.table({
            "g": pa.array(grams, pa.string()),
            "n": pa.array(list(counts.values()), pa.int64()),
            "shard": pa.array(h.astype(np.int32) if grams else [], pa.int32()),
        })

    def shard_sum(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("g", sort=False)["n"].sum().reset_index(name="df")
        return agg

    df_ds = (ds.map_batches(df_partials, batch_format="pyarrow")
             .groupby("shard").map_groups(shard_sum, batch_format="pandas")
             .materialize())
    vocab = df_ds.count()

    def doc_gram_tf(batch: pa.Table):
        ids_out, grams_out, tf_out = [], [], []
        ids = batch.column(id_col).to_pylist()
        for i, t in zip(ids, batch.column(text_col).to_pylist()):
            t = t or ""
            c = collections.Counter(t[j:j + k] for j in range(len(t) - k + 1))
            ids_out.extend([i] * len(c))
            grams_out.extend(c.keys())
            tf_out.extend(c.values())
        return ids_out, grams_out, tf_out

    def rank_frame(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "tf", "df", "g"],
                            ascending=[True, False, True, True],
                            kind="mergesort")
        df["rnk"] = df.groupby(id_col, sort=False).cumcount() + 1
        df = df[df["rnk"] <= top]
        with np.errstate(divide="ignore"):
            df["tfidf"] = df["tf"].to_numpy(dtype=np.float64) * np.log(
                float(n_docs) / df["df"].to_numpy(dtype=np.float64))
        return df[[id_col, "g", "tf", "df", "rnk", "tfidf"]]

    if vocab <= df_broadcast_limit:
        df_pdf = df_ds.to_pandas()
        df_ref = ray.put(dict(zip(df_pdf["g"], df_pdf["df"].astype(np.int64))))

        def score(batch: pa.Table) -> pa.Table:
            dfmap = ray.get(df_ref)
            ids_out, grams_out, tf_out = doc_gram_tf(batch)
            pdf = pd.DataFrame({id_col: ids_out, "g": grams_out,
                                "tf": np.asarray(tf_out, dtype=np.int64)})
            pdf["df"] = pdf["g"].map(dfmap).astype(np.int64)
            return pa.Table.from_pandas(rank_frame(pdf), preserve_index=False)

        return ds.map_batches(score, batch_format="pyarrow")

    # distributed fallback: vocabulary too large to broadcast
    from chinese_corpus_cleaning_ray.stages.joins import hash_join

    def pairs(batch: pa.Table) -> pa.Table:
        ids_out, grams_out, tf_out = doc_gram_tf(batch)
        return pa.table({id_col: pa.array(ids_out),
                         "g": pa.array(grams_out, pa.string()),
                         "tf": pa.array(tf_out, pa.int64())})

    pair_ds = ds.map_batches(pairs, batch_format="pyarrow").materialize()
    joined = hash_join(pair_ds, df_ds, on="g", how="inner", shards=shards)

    def add_doc_shard(batch: pa.Table) -> pa.Table:
        ids = pd.Series(batch.column(id_col).to_pandas())
        sh = (pd.util.hash_pandas_object(ids, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__dshard", pa.array(sh))

    def rank_group(group: pd.DataFrame) -> pd.DataFrame:
        return rank_frame(group.drop(columns=["__dshard"]))

    return (joined.map_batches(add_doc_shard, batch_format="pyarrow")
            .groupby("__dshard").map_groups(rank_group, batch_format="pandas"))


#: Default token proxy for shard sizing: each CJK character (Han / kana /
#: Hangul — scripts written without spaces) counts as one token, everything
#: else as whitespace-delimited runs. A plain ``\S+`` proxy counts an entire
#: unsegmented Chinese document as ~1 token and undersizes every shard.
CJK_TOKEN_PATTERN = (r"\p{Han}|\p{Hiragana}|\p{Katakana}|\p{Hangul}"
                     r"|[^\s\p{Han}\p{Hiragana}\p{Katakana}\p{Hangul}]+")


def export_training_shards(ds, out_dir: str, id_col: str = "doc_id",
                           text_col: str = "text",
                           shard_tokens: int = 1_000_000, seed: int = 0,
                           mult: int = 1103515245, inc: int = 12345,
                           mod: int = 2147483648,
                           token_pattern: str = CJK_TOKEN_PATTERN):
    """Training-data export: write the corpus as ``shard=<k>/`` parquet
    directories of ≈ ``shard_tokens`` token mass each — the
    unit downstream training jobs consume and resume over (a failed reader
    re-pulls one shard directory, never one giant file).

    Token mass is ``token_pattern`` match count per doc (RE2, vectorized).
    The default counts each CJK character as one token plus whitespace
    runs for spaced scripts, so unsegmented Chinese corpora — this
    engine's target — size correctly; pass ``r"\\S+"`` for the classic
    whitespace-token proxy.

    Shard membership is the two-round LCG of ``(id, seed)`` mod n_shards —
    deterministic (rerunning the export reproduces byte-identical shard
    membership), embarrassingly parallel, and NO shuffle: sizing needs one
    cheap token-sum aggregate, assignment is a stateless map, and
    ``write_parquet(partition_cols)`` routes rows. Random assignment gives
    each shard a near-equal EXPECTED mass (CLT: relative deviation
    ~1/sqrt(docs per shard)); exact per-shard budgets are what
    ``token_budget_sample`` is for. Ids must be non-negative integers.

    ``ds`` is consumed three times (token sum, metadata count, write) —
    pass a re-readable source (a parquet read, where the count is
    metadata-only) or ``materialize()`` a derived input first, as with
    quantile_filter and the join operators.

    Returns ``{"n_shards", "total_tokens", "rows", "out_dir"}``."""
    import numpy as np
    import pyarrow.compute as pc

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch.column(text_col),
                                     pattern=token_pattern)
        return pa.table({"toks": pc.cast(n, pa.int64())})

    tok_ds = ds.map_batches(count_tokens, batch_format="pyarrow")
    total_tokens = int(tok_ds.sum("toks") or 0)
    rows = ds.count()
    n_shards = max(1, -(-total_tokens // shard_tokens))

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (((ids + seed) % mod) * mult + inc) % mod
        h = (h * mult + inc) % mod
        return batch.append_column("shard",
                                   pa.array((h % n_shards).astype(np.int64)))

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["shard"])
    return {"n_shards": int(n_shards), "total_tokens": total_tokens,
            "rows": int(rows), "out_dir": out_dir}


def quantile_filter_by_key(ds, key_col: str, col: str,
                           lo_q: float = 0.05, hi_q: float = 0.95,
                           shards: int = 64):
    """Per-key adaptive outlier gate: keep a row iff ``col`` lies within
    ITS OWN key's exact [lo_q, hi_q] order statistics — per-source length
    gating where every source gets thresholds learned from its own
    distribution (a web-crawl source and a books source should not share
    one cutoff).

    Two passes: :func:`exact_quantiles_by_key` (fully distributed, one row
    per distinct (key, value) moves) produces the per-key threshold table,
    which is small by construction (2 rows per key) and ships ONCE via
    ``ray.put`` as a dict — then a stateless vectorized filter, no join.
    Pass a re-readable source or ``materialize()`` a derived input."""
    import numpy as np
    import pandas as pd
    import ray

    qdf = exact_quantiles_by_key(ds, key_col, col, [lo_q, hi_q],
                                 shards=shards).to_pandas()
    lo_map = dict(zip(qdf.loc[qdf["q"] == lo_q, key_col],
                      qdf.loc[qdf["q"] == lo_q, "value"]))
    hi_map = dict(zip(qdf.loc[qdf["q"] == hi_q, key_col],
                      qdf.loc[qdf["q"] == hi_q, "value"]))
    maps_ref = ray.put((lo_map, hi_map))

    def keep(batch: pa.Table) -> pa.Table:
        lo_m, hi_m = ray.get(maps_ref)
        keys = pd.Series(batch.column(key_col).to_pandas())
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        lo = keys.map(lo_m).to_numpy(dtype=np.float64)
        hi = keys.map(hi_m).to_numpy(dtype=np.float64)
        return batch.filter(pa.array((v >= lo) & (v <= hi)))

    return ds.map_batches(keep, batch_format="pyarrow")


def add_nonneg_id(ds, from_col: str, id_col: str = "row_id"):
    """Derive the NON-NEGATIVE int64 id the LCG family (sample / shuffle /
    split / quotas / shard export) requires, from any column — the
    documented upstream step for string-keyed corpora (url, conv_id, ...).

    ``id = hash64(value) >> 1`` — deterministic (pandas hash_pandas_object
    with its fixed default key), dtype-agnostic, uniform, and always ≥ 0
    (top bit dropped, keeping 63 bits: collision odds over even 10^10 rows
    stay below 1%, and the LCG consumers only need uniformity, not
    uniqueness). Stateless vectorized stage, no shuffle."""
    import numpy as np
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        s = pd.Series(batch.column(from_col).to_pandas())
        h = pd.util.hash_pandas_object(s, index=False).to_numpy()
        ids = (h >> np.uint64(1)).astype(np.int64)
        return batch.append_column(id_col, pa.array(ids))

    return ds.map_batches(fn, batch_format="pyarrow")


def mixture_plan(ds, key_col: str, weights: dict[str, int],
                 budget_tokens: int, text_col: str = "text",
                 token_pattern: str = CJK_TOKEN_PATTERN) -> dict[str, int]:
    """Compute per-source subsampling rates for a target data MIXTURE:
    given integer mixture ``weights`` (parts — e.g. {"web": 6, "books": 3,
    "wiki": 1}) and a total token ``budget_tokens``, each source's token
    quota is ``budget * w_s // sum(w)`` and its keep rate (in permyriad,
    0..10000) is ``min(10000, 10000 * quota_s // mass_s)`` — all INTEGER
    arithmetic, so the plan is bit-reproducible and restatable in SQL.
    A source whose corpus is smaller than its quota keeps everything
    (rate 10000); callers wanting hard quotas compose ``token_budget_sample``
    downstream instead.

    One aggregation pass: token masses are pre-summed per source inside each
    batch (CJK-aware pattern by default — see CJK_TOKEN_PATTERN), then a
    small groupby moves one row per (block, source). The result is one row
    per source — driver traffic bounded by the source vocabulary, not the
    corpus. Sources absent from ``weights`` get rate 0 (dropped)."""
    import pyarrow.compute as pc

    from chinese_corpus_cleaning_ray.pipelines.conversations import _select_renamed

    def partial(batch: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(batch.column(text_col),
                                             pattern=token_pattern), pa.int64())
        t = pa.table({key_col: batch.column(key_col), "toks": n})
        agg = t.group_by(key_col).aggregate([("toks", "sum")])
        return _select_renamed(agg, {key_col: key_col, "toks_sum": "toks"})

    mass_rows = (ds.map_batches(partial, batch_format="pyarrow")
                 .groupby(key_col).sum("toks").take_all())
    # normalize over sources PRESENT in the corpus — weight mass assigned to
    # absent sources would otherwise silently shrink every real quota
    w_total = sum(int(weights.get(row[key_col], 0)) for row in mass_rows)
    if w_total <= 0:
        return {row[key_col]: 0 for row in mass_rows}
    rates: dict[str, int] = {}
    for row in mass_rows:
        src, mass = row[key_col], int(row["sum(toks)"])
        w = int(weights.get(src, 0))
        quota = budget_tokens * w // w_total
        rates[src] = min(10000, 10000 * quota // mass) if mass > 0 else 0
    return rates


def mixture_sample(ds, key_col: str, id_col: str,
                   weights: dict[str, int], budget_tokens: int,
                   text_col: str = "text",
                   token_pattern: str = CJK_TOKEN_PATTERN,
                   mult: int = 1103515245, inc: int = 12345,
                   mod: int = 2147483648, rates: dict[str, int] | None = None):
    """Source-mixture subsampling — the DoReMi-style reweighting primitive
    for assembling a training mix: resample each source toward its target
    token share with a stateless per-row LCG cut, keeping a row iff
    ``lcg(id) % 10000 < rate[source]`` where the per-source rates come from
    :func:`mixture_plan` (or are passed precomputed via ``rates``).

    Expected kept token mass per source ≈ its quota (CLT over documents);
    membership is a pure function of (id, source), so the mix is
    bit-reproducible across reruns, resumes, and cluster layouts, and the
    whole operator is exactly restatable in SQL (integer LCG + integer
    rate table). Two streaming passes, NO shuffle: the plan aggregate
    (one row per source to the driver) and a vectorized filter with the
    tiny rate dict shipped once via ``ray.put``. ``ds`` is consumed twice —
    pass a re-readable source or ``materialize()`` a derived input, as with
    quantile_filter. Ids must be non-negative integers (see sample_by_hash;
    ``add_nonneg_id`` for string-keyed corpora)."""
    import numpy as np
    import pandas as pd
    import ray

    if rates is None:
        rates = mixture_plan(ds, key_col, weights, budget_tokens,
                             text_col=text_col, token_pattern=token_pattern)
    rates_ref = ray.put(dict(rates))

    def keep(batch: pa.Table) -> pa.Table:
        rm = ray.get(rates_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids % mod) * mult + inc) % mod
        pm = (pd.Series(batch.column(key_col).to_pandas())
              .map(rm).fillna(0).to_numpy(dtype=np.int64))
        return batch.filter(pa.array((h % 10000) < pm))

    return ds.map_batches(keep, batch_format="pyarrow")


def pack_chunks(ds, id_col: str = "doc_id", text_col: str = "text",
                ctx_len: int = 4096, token_pattern: str = CJK_TOKEN_PATTERN,
                n_buckets: int = 256):
    """Sequence PACKING (concat-and-chunk) — the pretraining batch-assembly
    op: documents are conceptually concatenated in ``id_col`` order into one
    token stream and split every ``ctx_len`` tokens; each doc is labeled with
    the chunk its FIRST token lands in (``chunk_id = start_tok // ctx_len``,
    with ``start_tok`` the exclusive prefix sum of CJK-aware token counts in
    id order). Pure integer arithmetic over a total order, so the layout is
    bit-reproducible and exactly restatable in SQL as a window cumsum.

    Plan — a distributed PREFIX-SCAN, no global sort and no text shuffle:
    1. range-bucket each row by id (``(id - lo) // width`` with lo/hi from a
       one-row min/max aggregate; bucket order == id order by construction);
    2. per-bucket token sums via in-batch partial aggregation → ≤
       ``n_buckets`` rows to the driver, which computes each bucket's
       exclusive prefix OFFSET (the scan step — O(n_buckets), driver-bounded);
    3. per-bucket ``map_groups``: vectorized id-sort + cumsum + broadcast
       offset → chunk ids. Only (id, n_tokens, bucket) moves through the
       shuffle — document text never does.
    Bucket ranges only affect load balance, never the result; sparse or
    skewed id spaces degrade to fewer effective buckets (perf, not
    correctness). ``ds`` is consumed twice — pass a re-readable source, as
    with ``quantile_filter`` / ``mixture_sample``. Ids must be integers.

    Returns (id_col, n_tokens, chunk_id); order within a bucket is id-sorted,
    global order is per-consumer (sort downstream if needed)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from chinese_corpus_cleaning_ray.pipelines.conversations import _select_renamed

    bounds = ds.select_columns([id_col]).aggregate(
        ray.data.aggregate.Min(id_col), ray.data.aggregate.Max(id_col))
    if bounds is None or bounds.get(f"min({id_col})") is None:
        # empty input: emit the output shape with zero rows
        def empty(batch: pa.Table) -> pa.Table:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "chunk_id": pa.array([], pa.int64())})

        return ds.map_batches(empty, batch_format="pyarrow")
    lo, hi = int(bounds[f"min({id_col})"]), int(bounds[f"max({id_col})"])
    width = max(1, (hi - lo + n_buckets) // n_buckets)

    def count_and_bucket(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks = pc.cast(pc.count_substring_regex(batch.column(text_col),
                                                pattern=token_pattern),
                       pa.int64())
        return pa.table({id_col: pa.array(ids),
                         "n_tokens": toks,
                         "__bucket": pa.array((ids - lo) // width)})

    def bucket_partials(batch: pa.Table) -> pa.Table:
        agg = (count_and_bucket(batch).select(["__bucket", "n_tokens"])
               .group_by("__bucket").aggregate([("n_tokens", "sum")]))
        return _select_renamed(agg, {"__bucket": "__bucket", "n_tokens_sum": "toks"})

    sums = (ds.map_batches(bucket_partials, batch_format="pyarrow")
            .groupby("__bucket").sum("toks").take_all())
    sums.sort(key=lambda r: r["__bucket"])
    offsets, run = {}, 0
    for r in sums:
        offsets[int(r["__bucket"])] = run
        run += int(r["sum(toks)"])
    offsets_ref = ray.put(offsets)

    def assign(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)[int(group["__bucket"].iloc[0])]
        g = group.sort_values(id_col, kind="mergesort")
        start = off + g["n_tokens"].cumsum() - g["n_tokens"]
        g["chunk_id"] = (start // ctx_len).astype(np.int64)
        return g.drop(columns=["__bucket"])

    return (ds.map_batches(count_and_bucket, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(assign, batch_format="pandas"))


def rank_by_value(ds, col: str, out_col: str = "rank_lt",
                  max_distinct: int = 2_000_000):
    """Global competition rank WITHOUT a global sort: ``out_col`` = number
    of rows in the whole dataset whose ``col`` is STRICTLY less (ties share
    a rank — exactly SQL ``RANK() OVER (ORDER BY col) - 1``).

    Plan: a value-count aggregate (partial counts inside each batch, then a
    groupby-sum over one row per DISTINCT value) → the driver sorts the
    distinct values and takes the exclusive prefix sum — the classic
    CDF-broadcast trick — and a second streaming pass maps each row through
    the broadcast rank table (``ray.put`` once, searchsorted per batch).
    No all-to-all over the data; the only driver-side object is the distinct
    value table, so this is for QUANTIZED columns (lengths, integer scores,
    bucketed floats) — guarded by ``max_distinct`` (raises, never silently
    truncates). ``ds`` is consumed twice, as with ``quantile_filter``."""
    import numpy as np
    import ray

    from chinese_corpus_cleaning_ray.pipelines.conversations import _select_renamed

    def partials(batch: pa.Table) -> pa.Table:
        t = batch.select([col]).group_by(col).aggregate([([], "count_all")])
        return _select_renamed(t, {col: col, "count_all": "n"})

    rows = (ds.map_batches(partials, batch_format="pyarrow")
            .groupby(col).sum("n").take_all())
    if len(rows) > max_distinct:
        raise ValueError(
            f"rank_by_value: {len(rows)} distinct {col!r} values exceeds "
            f"max_distinct={max_distinct}; rank a quantized column instead."
        )
    vals = np.sort(np.array([r[col] for r in rows]))
    counts_by_val = {r[col]: int(r["sum(n)"]) for r in rows}
    counts = np.array([counts_by_val[v] for v in vals], dtype=np.int64)
    ranks = np.concatenate(([0], np.cumsum(counts)[:-1]))
    table_ref = ray.put((vals, ranks))

    def attach(batch: pa.Table) -> pa.Table:
        v, rk = ray.get(table_ref)
        x = batch.column(col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(v, x)
        return batch.append_column(out_col, pa.array(rk[idx], pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def heavy_hitters(ds, col: str, k: int, max_candidates: int = 2_000_000):
    """Exact phi-heavy hitters: every value of ``col`` whose global count
    satisfies ``cnt * k > n`` (frequency strictly above ``n/k``), with its
    EXACT count — two streaming passes, no full-cardinality shuffle.

    Pass 1 (candidates): inside each batch, an Arrow ``group_by`` count keeps
    only values with batch-local count strictly above ``n_b/(k+1)`` — at most
    ``k`` values per batch. By averaging, any globally heavy value must be
    batch-heavy (count_b > n_b/k > n_b/(k+1)) in at least one batch, so the
    union of batch candidates is a SUPERSET of the answer (the frequent-items
    guarantee of a Misra-Gries summary, realised with exact batch-local
    counts instead of the sequential k-counter sweep — a batch already fits
    in memory, so the vectorized kernel wins). Each batch also emits one
    null-valued sentinel row carrying ``n_b``, so ``n`` needs no extra pass.

    Pass 2 (exact recount): the candidate set is broadcast once via
    ``ray.put``; each batch emits partial counts for candidate values only,
    and a groupby-sum over <= |C| distinct rows yields exact global counts.
    The driver holds only the candidate set (guarded by ``max_candidates``
    — raises, never truncates) and the final <= k result rows; at 100 TB the
    shuffle volume is O(k x batches), never O(distinct values).

    Nulls in ``col`` are ignored (restate with ``WHERE col IS NOT NULL``).
    Returns an Arrow table (value-typed ``col``, int64 ``cnt``) sorted by
    ``cnt`` desc then ``col`` asc. ``ds`` is consumed twice.
    """
    import numpy as np
    import ray

    from chinese_corpus_cleaning_ray.pipelines.conversations import _select_renamed

    sch = ds.schema()
    val_type = sch.base_schema.field(col).type

    def candidates(batch: pa.Table) -> pa.Table:
        vals = batch.select([col]).drop_null()
        n_b = vals.num_rows
        g = vals.group_by(col).aggregate([([], "count_all")])
        cnt = g.column("count_all").to_numpy(zero_copy_only=False)
        keep = g.filter(pa.array(cnt * (k + 1) > n_b)).column(col)
        return pa.table({
            col: pa.concat_arrays([keep.combine_chunks(),
                                   pa.array([None], val_type)]),
            "n_b": pa.array([0] * len(keep) + [n_b], pa.int64()),
        })

    rows = ds.map_batches(candidates, batch_format="pyarrow").take_all()
    n = sum(r["n_b"] for r in rows if r[col] is None)
    cand = {r[col] for r in rows if r[col] is not None}
    if len(cand) > max_candidates:
        raise ValueError(
            f"heavy_hitters: {len(cand)} candidates exceeds "
            f"max_candidates={max_candidates}; raise k's quality or shard."
        )
    if not cand or n == 0:
        return pa.table({col: pa.array([], val_type),
                         "cnt": pa.array([], pa.int64())})
    cand_arr = pa.array(sorted(cand), val_type)
    cand_ref = ray.put(cand_arr)

    def recount(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cset = ray.get(cand_ref)
        vals = batch.select([col]).drop_null()
        hit = vals.filter(pc.is_in(vals.column(col), value_set=cset))
        g = hit.group_by(col).aggregate([([], "count_all")])
        return _select_renamed(g, {col: col, "count_all": "cnt"})

    totals = (ds.map_batches(recount, batch_format="pyarrow")
              .groupby(col).sum("cnt").take_all())
    keep = [(r[col], int(r["sum(cnt)"])) for r in totals
            if r["sum(cnt)"] * k > n]
    keep.sort(key=lambda t: (-t[1], t[0]))
    return pa.table({col: pa.array([t[0] for t in keep], val_type),
                     "cnt": pa.array([t[1] for t in keep], pa.int64())})


def heavy_hitters_by_key(ds, key_col: str, col: str, k: int,
                         max_candidates: int = 2_000_000):
    """Per-group exact phi-heavy hitters: within each ``key_col`` group,
    every ``col`` value with ``cnt * k > n_key`` and its exact count — the
    grouped sibling of ``heavy_hitters`` with the same two-pass shape.

    Pass 1 keeps, per batch, the (key, value) pairs whose batch-local count
    within the key strictly exceeds ``n_b(key)/(k+1)`` — at most k values
    per key per batch; by the same averaging argument, a group-heavy value
    is batch-heavy within its key in at least one batch, so the union is a
    superset. One null-value sentinel per (batch, key) carries ``n_b(key)``.
    Pass 2 broadcasts the candidate pair set and recounts exactly; the
    driver holds candidates + per-key totals only (``max_candidates``
    guard raises, never truncates). Nulls in either column are ignored.
    Returns Arrow (key_col, col, cnt) sorted by (key, cnt desc, value)."""
    import numpy as np
    import pandas as pd
    import ray

    sch = ds.schema().base_schema
    key_type = sch.field(key_col).type
    val_type = sch.field(col).type

    def candidates(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, col]).drop_null().to_pandas()
        if not len(df):
            return pa.table({key_col: pa.array([], key_type),
                             col: pa.array([], val_type),
                             "n_b": pa.array([], pa.int64())})
        cnt = (df.groupby([key_col, col], sort=False).size()
               .reset_index(name="c"))
        tot = df.groupby(key_col, sort=False).size()
        nb = cnt[key_col].map(tot).to_numpy()
        keep = cnt[cnt["c"].to_numpy() * (k + 1) > nb]
        sent_keys = tot.index.to_numpy()
        return pa.table({
            key_col: pa.array(
                list(keep[key_col]) + list(sent_keys), key_type),
            col: pa.array(
                list(keep[col]) + [None] * len(sent_keys), val_type),
            "n_b": pa.array(
                [0] * len(keep) + [int(v) for v in tot.to_numpy()],
                pa.int64()),
        })

    rows = ds.map_batches(candidates, batch_format="pyarrow").take_all()
    n_by_key: dict = {}
    cand: set = set()
    for r in rows:
        if r[col] is None:
            n_by_key[r[key_col]] = n_by_key.get(r[key_col], 0) + r["n_b"]
        else:
            cand.add((r[key_col], r[col]))
    if len(cand) > max_candidates:
        raise ValueError(
            f"heavy_hitters_by_key: {len(cand)} candidates exceeds "
            f"max_candidates={max_candidates}."
        )
    empty = pa.table({key_col: pa.array([], key_type),
                      col: pa.array([], val_type),
                      "cnt": pa.array([], pa.int64())})
    if not cand:
        return empty
    cand_df = pd.DataFrame(sorted(cand), columns=[key_col, col])
    cand_ref = ray.put(cand_df)

    def recount(batch: pa.Table) -> pa.Table:
        cdf = ray.get(cand_ref)
        df = batch.select([key_col, col]).drop_null().to_pandas()
        if not len(df):
            return pa.table({key_col: pa.array([], key_type),
                             col: pa.array([], val_type),
                             "cnt": pa.array([], pa.int64())})
        hit = df.merge(cdf, on=[key_col, col], how="inner")  # vectorized
        g = (hit.groupby([key_col, col], sort=False).size()
             .reset_index(name="cnt"))
        return pa.table({key_col: pa.array(list(g[key_col]), key_type),
                         col: pa.array(list(g[col]), val_type),
                         "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64),
                                         pa.int64())})

    totals = (ds.map_batches(recount, batch_format="pyarrow")
              .groupby([key_col, col]).sum("cnt").take_all())
    out = [(r[key_col], r[col], int(r["sum(cnt)"])) for r in totals
           if r["sum(cnt)"] * k > n_by_key.get(r[key_col], 0)]
    out.sort(key=lambda t: (t[0], -t[2], t[1]))
    return pa.table({key_col: pa.array([t[0] for t in out], key_type),
                     col: pa.array([t[1] for t in out], val_type),
                     "cnt": pa.array([t[2] for t in out], pa.int64())})


def format_check(ds, text_col: str = "text", keep_cols: list[str] | None = None):
    """Generation-truncation / formatting QA signals per row — the cheap
    structural checks an SFT corpus is gated on before training:

    - ``n_code_fences``: count of non-overlapping triple-backtick markers;
    - ``fences_balanced``: even fence count (an odd count means an unclosed
      code block — the classic truncated-generation signature);
    - ``ends_clean``: after stripping ASCII trailing whitespace, the last
      character is terminal punctuation (CJK or ASCII) — mid-sentence
      endings flag cut-off responses.

    Exact semantics (bit-restatable in SQL): fence count =
    (length(text) - length(replace(text, '```', ''))) / 3 (same
    non-overlapping greedy scan as str.count); trailing-strip charset is
    EXPLICIT (space, TAB, LF, CR, VT, FF) on both sides so Python's
    unicode-aware rstrip() can never drift from SQL rtrim.

    Zero shuffle — one vectorized map_batches pass (pandas C string
    kernels); ``keep_cols`` are carried through for downstream joins."""
    import numpy as np
    import pandas as pd  # noqa: F401  (str accessor backs the kernels)

    _WS = " \t\n\r\x0b\x0c"
    _TERM = list('。！？.!?…"」）)')

    def fn(batch: pa.Table) -> pa.Table:
        s = batch.column(text_col).to_pandas().astype(str)
        n = s.str.count("```").astype(np.int64)
        stripped = s.str.rstrip(_WS)
        last = stripped.str[-1:]
        ends = (stripped.str.len() > 0) & last.isin(_TERM)
        cols = {}
        for c in keep_cols or []:
            cols[c] = batch.column(c)
        cols["n_code_fences"] = pa.array(n, pa.int64())
        cols["fences_balanced"] = pa.array((n % 2 == 0), pa.bool_())
        cols["ends_clean"] = pa.array(ends.to_numpy(), pa.bool_())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")
