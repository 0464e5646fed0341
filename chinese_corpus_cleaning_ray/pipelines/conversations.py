"""Conversation-level and stream-shaped operators.

The reference has no conversation concept (documents are independent files),
but the transcript data model makes per-conversation reading natural
(SURVEY §1 "conversation/turn duality"):

- ``conversation_stats`` — groupby(conv_id) aggregate: turns, distinct roles,
  total text chars, first/last ts. Pre-aggregates inside map_batches (one
  partial row per conv per batch) before the small groupby, so the shuffle
  moves per-conv partials, not rows (SURVEY §4 "pre-aggregate" discipline).
- ``sessionize_events`` — the streaming-window pattern from the events table:
  per-user tumbling sessions split on gaps > ``gap``. Shuffle key is a COARSE
  shard of user_id (never raw user_id: groupby.map_groups pays ~0.3 ms Python
  per group, so one group per user is pathological at millions of users); the
  per-shard kernel sessionizes ALL of the shard's users in one numpy pass over
  the (user, ts, event_id)-sorted frame. Shard count is the memory knob — a
  shard must fit one worker.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _select_renamed(table: pa.Table, names: dict[str, str]) -> pa.Table:
    """``table``'s columns named by ``names``' keys, in that order, renamed
    to its values. pyarrow's aggregate output order (keys first or
    aggregates first) differs across versions, so aggregate outputs are
    relabelled by name, never by position; a missing name raises."""
    return table.select(list(names)).rename_columns(list(names.values()))


def conversation_stats(ds):
    """One row per conv_id: n_turns, n_roles, total_chars, first_ts, last_ts
    (epoch us). Partial-aggregation inside each batch → tiny groupby."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    def partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "conv_id": batch.column("conv_id").to_pylist(),
                "role": batch.column("role").to_pylist(),
                "chars": pc.utf8_length(batch.column("text")).to_numpy(zero_copy_only=False),
                "ts": pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")),
                              pa.int64()).to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("conv_id").agg(
            n_turns=("role", "size"),
            total_chars=("chars", "sum"),
            first_ts=("ts", "min"),
            last_ts=("ts", "max"),
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    grouped = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("total_chars", alias_name="total_chars"),
            Min("first_ts", alias_name="first_ts"),
            Max("last_ts", alias_name="last_ts"),
        )
    )
    return grouped


def topk_per_group(ds, group_col: str, key_col: str, k: int = 3):
    """Top-k keys by count within each group (e.g. top users per event_type).

    Plan: partial (group, key) counts inside each batch → one small groupby
    aggregate over the pre-aggregated pairs → per-group top-k. The final
    map_groups runs one group per ``group_col`` value — safe ONLY because the
    group column is low-cardinality by contract (event types, languages,
    labels); for high-cardinality groups use the shard discipline instead.
    Output: (group_col, key_col, n, rank) with rank 1..k, count-desc,
    key-asc tie-break."""
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        # Arrow-native hash aggregation (C++, zero-copy) — no pylist/pandas
        agg = (batch.select([group_col, key_col])
               .group_by([group_col, key_col], use_threads=False)
               .aggregate([([], "count_all")]))
        return _select_renamed(agg, {group_col: group_col, key_col: key_col,
                                     "count_all": "n"})

    counts = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby([group_col, key_col])
        .aggregate(Sum("n", alias_name="n"))
    )

    def top(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["n", key_col], ascending=[False, True],
                              kind="mergesort").head(k).reset_index(drop=True)
        g["n"] = g["n"].astype("int64")
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return counts.groupby(group_col).map_groups(top, batch_format="pandas")


def sliding_window_counts(ds, window_hours: int = 3):
    """Gap-aware sliding-window event counts: for every present hour bucket,
    the event count summed over [hour - window + 1, hour] (RANGE semantics —
    missing hours contribute zero, matching SQL ``RANGE BETWEEN N PRECEDING``).

    Plan: hourly counts via pre-aggregated groupby (≤ hours-in-corpus rows),
    then the window sum is computed on the tiny aggregate with a vectorized
    prefix-sum + searchsorted — post-aggregation compute on a result this
    small belongs on the driver, not in another shuffle."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def bucket(batch: pa.Table) -> pa.Table:
        # unit-normalize first (pandas blocks are ns, parquet us)
        us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")),
                     pa.int64())
        return pa.table({"hour_bucket": pc.cast(pc.divide(us, 3_600_000_000), pa.int64())})

    hourly = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("hour_bucket")
        .aggregate(Count(alias_name="n_events"))
        .to_pandas()
        .sort_values("hour_bucket", kind="mergesort")
        .reset_index(drop=True)
    )
    hours = hourly["hour_bucket"].to_numpy(np.int64)
    n = hourly["n_events"].to_numpy(np.int64)
    csum = np.concatenate([[0], np.cumsum(n)])
    lo = np.searchsorted(hours, hours - (window_hours - 1), side="left")
    hi = np.arange(1, len(hours) + 1)
    return pd.DataFrame({
        "hour_bucket": hours,
        "n_events": n,
        "window_events": (csum[hi] - csum[lo]).astype(np.int64),
    })


def burst_flags(ds, window_hours: int = 24, factor_num: int = 2,
                factor_den: int = 1, min_baseline_hours: int = 3):
    """Per-event-type burst detection over hourly counts: an hour is a
    BURST when its count exceeds ``factor`` × the trailing-window hourly
    average (present hours in ``[hour-window, hour-1]``, RANGE semantics).
    The comparison is INTEGER-exact — ``n · baseline_hours · den >
    factor_num · baseline_sum`` — so the flag is bit-reproducible and
    restatable in SQL with no float-stddev divergence; hours with fewer
    than ``min_baseline_hours`` trailing present hours are never flagged
    (cold start).

    Plan: one pre-aggregated groupby to (event_type, hour) counts — the
    shuffle moves counts, never events — then the trailing windows are a
    vectorized prefix-sum + searchsorted per type on the tiny aggregate
    (same post-aggregation discipline as sliding_window_counts)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def bucket(batch: pa.Table) -> pa.Table:
        # normalize the unit first: a pandas-sourced block is timestamp[ns]
        # while parquet reads are [us] — a raw int64 cast would be 1000× off
        us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")),
                     pa.int64())
        return pa.table({
            "event_type": batch.column("event_type"),
            "hour_bucket": pc.cast(pc.divide(us, 3_600_000_000), pa.int64()),
        })

    hourly = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "hour_bucket"])
        .aggregate(Count(alias_name="n_events"))
        .to_pandas()
        .sort_values(["event_type", "hour_bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    out = []
    for _, g in hourly.groupby("event_type", sort=False):
        hours = g["hour_bucket"].to_numpy(np.int64)
        n = g["n_events"].to_numpy(np.int64)
        csum = np.concatenate([[0], np.cumsum(n)])
        lo = np.searchsorted(hours, hours - window_hours, side="left")
        hi = np.searchsorted(hours, hours, side="left")  # exclusive of self
        base_sum = csum[hi] - csum[lo]
        base_cnt = hi - lo
        flag = (base_cnt >= min_baseline_hours) & (
            n * base_cnt * factor_den > factor_num * base_sum)
        out.append(pd.DataFrame({
            "event_type": g["event_type"].to_numpy(),
            "hour_bucket": hours,
            "n_events": n,
            "baseline_hours": base_cnt.astype(np.int64),
            "baseline_events": base_sum.astype(np.int64),
            "is_burst": flag,
        }))
    return (pd.concat(out, ignore_index=True)
            .sort_values(["event_type", "hour_bucket"], kind="mergesort")
            .reset_index(drop=True))


def conversation_keep(scored_ds, pass_col: str = "rule_pass",
                      min_pass_ratio: float = 0.5):
    """Conversation-LEVEL keep decision over a per-turn scored Dataset: a
    conversation survives iff ≥ ``min_pass_ratio`` of its turns pass. The
    transcript-native composite the reference can't express (its documents
    are independent files) — drop whole low-quality conversations instead of
    leaving ragged ones.

    Partial-aggregate discipline: per-batch (conv, n, n_pass) partials → one
    small groupby; the keep test is exact integer arithmetic
    (n_pass ≥ ratio·n evaluated as n_pass·DEN ≥ n·NUM with the ratio reduced
    to a fraction) so the SQL oracle matches bit-for-bit. Output: one row
    per conv (conv_id, n_turns, n_pass, conv_keep)."""
    from fractions import Fraction

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    frac = Fraction(min_pass_ratio).limit_denominator(10_000)
    num, den = frac.numerator, frac.denominator

    def partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "conv_id": batch.column("conv_id").to_pylist(),
                "p": pc.cast(batch.column(pass_col), pa.int64()).to_numpy(
                    zero_copy_only=False),
            }
        )
        g = df.groupby("conv_id").agg(n_turns=("p", "size"), n_pass=("p", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    grouped = (
        scored_ds.map_batches(partials, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("n_turns", alias_name="n_turns"),
                   Sum("n_pass", alias_name="n_pass"))
    )

    def decide(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            pc.multiply(batch.column("n_pass"), pa.scalar(den, pa.int64())),
            pc.multiply(batch.column("n_turns"), pa.scalar(num, pa.int64())),
        )
        return batch.append_column("conv_keep", keep)

    return grouped.map_batches(decide, batch_format="pyarrow")


def sessionize_events(ds, gap_seconds: int = 1800, shards: int = 256):
    """Per-user sessions: consecutive events ≤ gap apart share a session.
    Output: one row per session (user_id, session_idx, n_events, start_ts,
    end_ts as epoch seconds).

    Partitioning: groupby(hash-shard of user_id) — a user never splits across
    shards, so the per-shard kernel sees every event of its users. Inside a
    shard everything is one vectorized numpy pass (sort → boundary flags →
    cumsum), no per-user Python."""
    import pyarrow.compute as pc

    if shards < 1 or shards & (shards - 1):
        raise ValueError(
            f"shards must be a power of two (shard = user_id & (shards-1)); "
            f"got {shards} — a non-power-of-two silently skews the shard "
            "distribution (some shard values can never occur)."
        )

    def add_shard(batch: pa.Table) -> pa.Table:
        # shards must be a power of two: shard = user_id & (shards-1)
        col = batch.column("user_id")
        if not pa.types.is_integer(col.type):
            raise TypeError(
                f"sessionize_events shards on integer user_id; got {col.type}. "
                "Hash string ids to int64 in an upstream map_batches first."
            )
        shard = pc.bit_wise_and(col, shards - 1)
        return batch.append_column("shard", pc.cast(shard, pa.int32()))

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        # unit-normalize before the integer view (ns-sourced pandas blocks
        # would otherwise read 1000x off against the [us] parquet schema)
        ts_s = (g["ts"].astype("datetime64[us]").astype("int64")
                // 1_000_000).to_numpy()
        n = len(g)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.empty(n, dtype=np.int64)
        gap[0] = gap_seconds + 1
        gap[1:] = ts_s[1:] - ts_s[:-1]
        is_new = new_user | (gap > gap_seconds)
        starts = np.flatnonzero(is_new)            # one per session, sorted
        ends = np.append(starts[1:], n)            # exclusive
        # per-user session ordinal: session counter minus the counter at the
        # user's first session
        sess_cum = np.cumsum(is_new)               # 1-based counter per row
        user_starts = np.flatnonzero(new_user)
        sessions_per_user = np.diff(np.append(
            np.searchsorted(starts, user_starts), len(starts)))
        base = np.repeat(sess_cum[user_starts], sessions_per_user)
        session_idx = sess_cum[starts] - base
        return pd.DataFrame(
            {
                "user_id": uid[starts],
                "session_idx": session_idx.astype(np.int64),
                "n_events": (ends - starts).astype(np.int64),
                "start_ts": ts_s[starts],
                "end_ts": ts_s[ends - 1],
            }
        )

    return (
        ds.map_batches(add_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(sessions, batch_format="pandas")
    )


def funnel_depths(ds, steps: list[str], user_col: str = "user_id",
                  ts_col: str = "ts", type_col: str = "event_type",
                  shards: int = 256):
    """Ordered FUNNEL analysis: per user, how many of ``steps`` were
    completed as a subsequence with strictly increasing timestamps (greedy
    earliest-match, which is optimal for subsequence existence and equals
    the SQL chain-of-MIN restatement: step k+1's timestamp is the MIN ts of
    that event type strictly after step k's). Output: one row per user that
    has at least one step-type event — (user_id, funnel_depth in 0..len).

    Plan: rows of non-step types are dropped AT THE SCAN (the only shuffle
    moves (user, ts, type) for step events only); hash-shard by user so a
    user's history lands whole; inside a shard the kernel is len(steps)
    vectorized rounds — mask by type, compare against the per-user frontier,
    groupby-min — no sort and no per-user Python. Driver traffic: none."""
    import pyarrow.compute as pc

    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")
    if not steps:
        raise ValueError("steps must be a non-empty ordered list")

    def prep(batch: pa.Table) -> pa.Table:
        col = batch.column(user_col)
        if not pa.types.is_integer(col.type):
            raise TypeError(
                f"funnel_depths shards on integer {user_col}; got {col.type}."
            )
        b = batch.filter(pc.is_in(batch.column(type_col),
                                  value_set=pa.array(steps)))
        ts_us = pc.cast(pc.cast(b.column(ts_col), pa.timestamp("us")),
                        pa.int64())
        return pa.table({
            user_col: b.column(user_col),
            "__ts": ts_us,
            type_col: b.column(type_col),
            "shard": pc.cast(pc.bit_wise_and(b.column(user_col), shards - 1),
                             pa.int32()),
        })

    NEG_INF = np.int64(-(2 ** 62))

    def depths(group: pd.DataFrame) -> pd.DataFrame:
        users = pd.Index(group[user_col].unique())
        depth = pd.Series(0, index=users, dtype=np.int64)
        frontier = pd.Series(NEG_INF, index=users)  # last matched step's ts
        for k, et in enumerate(steps, start=1):
            sel = group.loc[group[type_col].eq(et), [user_col, "__ts"]]
            prev = sel[user_col].map(frontier).to_numpy()
            # users past the frontier only; NaN (user already dropped out)
            # compares False and falls away
            sel = sel.loc[sel["__ts"].to_numpy() > prev]
            frontier = sel.groupby(user_col)["__ts"].min()
            if frontier.empty:
                break
            depth.loc[frontier.index] = k
        return pd.DataFrame({user_col: users.to_numpy(),
                             "funnel_depth": depth.to_numpy()})

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(depths, batch_format="pandas")
    )


def retention_cohorts(ds, user_col: str = "user_id", ts_col: str = "ts",
                      shards: int = 256):
    """Retention-cohort matrix: users cohorted by their FIRST active day
    (UTC days since epoch), counted once per (cohort_day, day_offset) they
    were active on. Output: (cohort_day, day_offset, n_users) — the classic
    triangle table, all integer arithmetic (day = epoch_us // 86400e6), so
    bit-exact against the SQL MIN/DATEDIFF restatement.

    Plan: one user-sharded pass — (user, day) pruned at the scan, hash-shard
    by user so each user's history is whole, per-shard vectorized kernel
    (distinct days → per-user min → offsets → PARTIAL (cohort, offset)
    counts), then a tiny global groupby-sum over at most
    shards × |day-pairs| partial rows. Users are whole per shard, so partial
    counts never double-count; no text or raw event ever shuffles twice."""
    import pyarrow.compute as pc

    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    US_PER_DAY = 86_400_000_000

    def prep(batch: pa.Table) -> pa.Table:
        col = batch.column(user_col)
        if not pa.types.is_integer(col.type):
            raise TypeError(
                f"retention_cohorts shards on integer {user_col}; got {col.type}."
            )
        ts_us = pc.cast(pc.cast(batch.column(ts_col), pa.timestamp("us")),
                        pa.int64())
        return pa.table({
            user_col: col,
            "__day": pc.divide(ts_us, US_PER_DAY),
            "shard": pc.cast(pc.bit_wise_and(col, shards - 1), pa.int32()),
        })

    def partial_counts(group: pd.DataFrame) -> pd.DataFrame:
        g = group[[user_col, "__day"]].drop_duplicates()
        d0 = g.groupby(user_col)["__day"].transform("min")
        out = pd.DataFrame({"cohort_day": d0.to_numpy(),
                            "day_offset": (g["__day"] - d0).to_numpy()})
        c = (out.groupby(["cohort_day", "day_offset"], sort=False)
             .size().reset_index(name="n_users"))
        return c

    parts = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("shard")
             .map_groups(partial_counts, batch_format="pandas"))
    return (parts.groupby(["cohort_day", "day_offset"]).sum("n_users")
            .map_batches(lambda b: b.rename_columns(
                ["cohort_day", "day_offset", "n_users"]),
                batch_format="pyarrow"))


def dedup_conversation_turns(ds, text_col: str = "text", shards: int = 256):
    """Within-conversation turn dedup (agent-loop degeneration filter):
    drop every turn whose ``text_col`` exactly equals an EARLIER turn's text
    in the SAME conversation, keeping the min-turn_idx occurrence. Agent
    transcripts degenerate into loops — identical tool calls, identical
    retries, identical apologies — and this removes the repeats while
    leaving cross-conversation duplicates alone (that is corpus-level
    dedup's job).

    Exact semantics (bit-restatable in SQL): keep a turn iff
    row_number() OVER (PARTITION BY conv_id, text ORDER BY turn_idx) = 1.

    Plan: one shuffle on a COARSE hash shard of conv_id (a conversation
    never splits across shards — the same partitioning key the flagship
    writer and sessionize use), then one vectorized sort +
    drop_duplicates per shard. Per-batch pre-collapse is implicit: the
    per-shard kernel is already vectorized, and a conversation's turns are
    bounded, so no hot-key valve is needed."""

    def add_shard(batch: pa.Table) -> pa.Table:
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        g = g.drop_duplicates(subset=["conv_id", text_col], keep="first")
        return g.drop(columns=["__shard"])

    return (
        ds.map_batches(add_shard, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(keep_first, batch_format="pandas")
    )


def conversation_role_check(ds, shards: int = 256):
    """Conversation-structure validation: one row per conv_id with
    ``n_turns``, ``starts_with_user`` (is the min-turn_idx role 'user'),
    and ``role_repeats`` (count of turns whose role equals the PREVIOUS
    turn's role in turn_idx order — consecutive same-speaker turns, the
    transcript-shape analogue of a malformed document). Downstream filters
    drop or re-segment conversations that fail the shape check.

    Exact semantics (bit-restatable in SQL): role_repeats =
    COUNT(*) FILTER (role = lag(role) OVER (PARTITION BY conv_id
    ORDER BY turn_idx)).

    Plan: conv-sharded shuffle + one vectorized pass per shard (sort by
    (conv_id, turn_idx), compare each role to its predecessor with a
    same-conv mask, per-conv sums via groupby aggregation)."""

    def add_shard(batch: pa.Table) -> pa.Table:
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def check(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_turns": pd.Series([], dtype=np.int64),
                                 "role_repeats": pd.Series([], dtype=np.int64),
                                 "starts_with_user": pd.Series([], dtype=bool)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        same_conv = np.empty(len(g), dtype=bool)
        same_conv[0] = False
        same_conv[1:] = conv[1:] == conv[:-1]
        rep = np.zeros(len(g), dtype=np.int64)
        rep[1:] = (role[1:] == role[:-1]) & same_conv[1:]
        out = pd.DataFrame({"conv_id": conv, "rep": rep,
                            "is_first": ~same_conv,
                            "first_user": ~same_conv & (role == "user")})
        agg = out.groupby("conv_id", sort=False).agg(
            n_turns=("rep", "size"),
            role_repeats=("rep", "sum"),
            starts_with_user=("first_user", "any"),
        )
        return agg.reset_index()

    return (
        ds.map_batches(add_shard, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(check, batch_format="pandas")
    )


def conversation_prefixes(ds, k: int = 3, text_col: str = "text",
                          shards: int = 256):
    """Per-conversation first-``k``-turn prefix strings: one row per
    conversation (conv_id, n_prefix_turns:int64, __prefix) where __prefix
    is the separator-joined (role, text) sequence of the k smallest-
    turn_idx turns (all turns when the conversation is shorter). The
    shared first stage of prefix dedup and incremental prefix dedup.

    Plan: per-batch pre-prune to each conversation's batch-local first-k
    (a superset of the global first-k) -> conv-hash shard -> per-shard
    vectorized first-k + prefix build; <= k rows per conversation per
    batch ever ship."""
    import pyarrow.compute as pc

    if k < 1:
        raise ValueError(f"k must be >= 1; got {k}")
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    U1, U2 = "\x1e", "\x1f"  # role/text and turn/turn separators

    def prep(batch: pa.Table) -> pa.Table:
        sub = pd.DataFrame({
            "conv_id": batch.column("conv_id").to_pylist(),
            "turn_idx": batch.column("turn_idx").to_numpy(zero_copy_only=False),
            "role": batch.column("role").to_pylist(),
            "__text": batch.column(text_col).to_pylist(),
        })
        if len(sub):
            sub = sub.sort_values(["conv_id", "turn_idx"], kind="mergesort")
            sub = sub[sub.groupby("conv_id", sort=False).cumcount() < k]
        sh = (pd.util.hash_pandas_object(sub["conv_id"], index=False)
              .to_numpy() % np.uint64(shards)).astype(np.int32)
        t = pa.Table.from_pandas(sub.assign(__shard=sh), preserve_index=False)
        return t.set_column(t.schema.get_field_index("turn_idx"), "turn_idx",
                            pc.cast(t.column("turn_idx"), pa.int64()))

    def build_prefix(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_prefix_turns": pd.Series([], dtype=np.int64),
                                 "__prefix": pd.Series([], dtype=object)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        g = g[g.groupby("conv_id", sort=False).cumcount() < k]
        seg = g["role"].astype(str) + U1 + g["__text"].astype(str)
        agg = (pd.DataFrame({"conv_id": g["conv_id"], "seg": seg})
               .groupby("conv_id", sort=False)["seg"]
               .agg([("__prefix", U2.join), ("n_prefix_turns", "size")])
               .reset_index())
        agg["n_prefix_turns"] = agg["n_prefix_turns"].astype(np.int64)
        return agg[["conv_id", "n_prefix_turns", "__prefix"]]

    prefixes = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(build_prefix, batch_format="pandas")
    )
    return prefixes


def conversation_prefix_dedup(ds, k: int = 3, text_col: str = "text",
                              shards: int = 256):
    """Cross-conversation PREFIX dedup: two conversations are duplicates when
    their first ``k`` turns (rank by ``turn_idx``) carry identical
    (role, text) sequences — the dominant duplication mode in agent
    transcripts, where reruns share a verbatim system-prompt + task prefix
    and diverge only in the tail. Keeps the min-``conv_id`` conversation of
    each prefix group and labels every conversation.

    Exact semantics (bit-restatable in SQL): prefix(conv) =
    string_agg(role || US1 || text, US2 ORDER BY turn_idx) over the rows
    with row_number() ≤ k; keeper(conv) = min(conv_id) OVER
    (PARTITION BY prefix). Conversations with fewer than ``k`` turns use
    all their turns — the separator-joined encoding keeps a 2-turn prefix
    from ever colliding with the first 2 turns of a 3-turn prefix.

    Output: one row per conversation
    (conv_id, n_prefix_turns, keep, keeper_conv_id), no particular order.

    Plan (two bounded shuffles, document text never ships in full):
    1. per-batch pre-prune: keep only each conversation's k smallest-
       turn_idx rows IN THIS BATCH (a superset of the global first-k, since
       the global first-k is contained in the union of batch-local
       first-k) — so the conv-shard shuffle moves ≤ k rows per conversation
       per batch it appears in, not the whole transcript;
    2. conv-hash shard → per-shard vectorized first-k + prefix build
       (one row per conversation leaves this stage);
    3. prefix-content-hash shard → per-shard keep-first on the EXACT prefix
       string (the hash only routes; a collision can never merge distinct
       prefixes), same discipline as ``stages.dedup_stage.exact_dedup``.
    """
    prefixes = conversation_prefixes(ds, k=k, text_col=text_col,
                                     shards=shards)

    def add_prefix_shard(batch: pa.Table) -> pa.Table:
        from chinese_corpus_cleaning_ray.stages.dedup_stage import (
            text_hash64_column,
        )

        hashes = np.asarray(text_hash64_column(batch.column("__prefix")),
                            dtype=np.int64)
        sh = (hashes & np.int64(shards - 1)).astype(np.int32)
        return batch.append_column("__pshard", pa.array(sh))

    def label(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_prefix_turns": pd.Series([], dtype=np.int64),
                                 "keep": pd.Series([], dtype=bool),
                                 "keeper_conv_id": pd.Series([], dtype=object)})
        g = g.sort_values(["conv_id"], kind="mergesort")
        # keeper = first conv_id per EXACT prefix (hash only routed the shard)
        g["keeper_conv_id"] = g.groupby("__prefix", sort=False)["conv_id"].transform("first")
        g["keep"] = g["conv_id"] == g["keeper_conv_id"]
        g["n_prefix_turns"] = g["n_prefix_turns"].astype(np.int64)
        return g[["conv_id", "n_prefix_turns", "keep", "keeper_conv_id"]]

    return (
        prefixes.map_batches(add_prefix_shard, batch_format="pyarrow")
        .groupby("__pshard")
        .map_groups(label, batch_format="pandas")
    )


def tool_transition_counts(ds, tool_col: str = "tool", shards: int = 256):
    """Tool-transition matrix over agent transcripts: among tool-call turns
    (``tool_col`` non-empty), count global (prev_tool, tool) transitions
    within each conversation in ``turn_idx`` order; a conversation's FIRST
    tool call transitions from ``''``. The result is the Markov-style
    tool-usage fingerprint of a corpus (which tool follows which), the
    transcript-native analogue of the events funnel.

    Exact semantics (bit-restatable in SQL): prev_tool =
    coalesce(lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx), '')
    over rows WHERE tool <> ''.

    Output: (prev_tool, tool, n:int64), no particular order.

    Plan: non-tool rows (and the text column) are dropped AT THE SCAN —
    the only shuffle moves (conv_id, turn_idx, tool) for tool turns only;
    conv-hash shard so a conversation's calls land whole; per-shard
    vectorized lag (sort + same-conv shift) emits PARTIAL (prev, tool)
    counts; a tiny global groupby-sum over ≤ shards × |tool-pairs| partial
    rows finishes. Driver traffic: none."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.not_equal(batch.column(tool_col), ""))
        keys = pd.Series(b.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return pa.table({
            "conv_id": b.column("conv_id"),
            "turn_idx": pc.cast(b.column("turn_idx"), pa.int64()),
            "tool": pc.cast(b.column(tool_col), pa.string()),
            "__shard": pa.array(sh),
        })

    def partial_counts(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"prev_tool": pd.Series([], dtype=object),
                                 "tool": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        tool = g["tool"].to_numpy()
        prev = np.empty(len(g), dtype=object)
        prev[0] = ""
        same = conv[1:] == conv[:-1]
        prev[1:] = np.where(same, tool[:-1], "")
        out = (pd.DataFrame({"prev_tool": prev, "tool": tool})
               .groupby(["prev_tool", "tool"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(partial_counts, batch_format="pandas")
        .groupby(["prev_tool", "tool"])
        .aggregate(Sum("n", alias_name="n"))
    )


def build_sft_pairs(ds, context_turns: int = 3, shards: int = 256,
                    sep: str = "\n"):
    """Render transcripts into supervised fine-tuning examples: one row per
    ASSISTANT turn with ``context`` = the up-to-``context_turns`` preceding
    turns of the same conversation formatted ``role: text`` and joined by
    ``sep`` (oldest first), and ``target`` = the assistant turn's text. The
    transcript-native exporter every SFT data pipeline ends in.

    Exact semantics (bit-restatable in SQL): context =
    coalesce(string_agg(role || ': ' || text, sep) OVER (PARTITION BY
    conv_id ORDER BY turn_idx ROWS BETWEEN context_turns PRECEDING AND
    1 PRECEDING), '') filtered to role = 'assistant'.

    Output: (conv_id, turn_idx, context, target), no particular order.

    Plan: one conv-hash-shard shuffle (text ships exactly once — it IS the
    output); per-shard kernel is ``context_turns`` vectorized shift+mask
    accumulations over the (conv_id, turn_idx)-sorted frame — no per-row
    Python, no per-conversation groups."""

    if context_turns < 1:
        raise ValueError(f"context_turns must be >= 1; got {context_turns}")
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int64()),
            "role": batch.column("role"),
            "text": batch.column("text"),
            "__shard": pa.array(sh),
        })

    def render(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "turn_idx": pd.Series([], dtype=np.int64),
                                 "context": pd.Series([], dtype=object),
                                 "target": pd.Series([], dtype=object)})
        g = g.sort_values(["conv_id", "turn_idx"],
                          kind="mergesort").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        seg = (g["role"].astype(str) + ": " + g["text"].astype(str))
        ctx = pd.Series([""] * len(g))
        # accumulate oldest-first: offset context_turns .. 1
        for o in range(context_turns, 0, -1):
            piece = seg.shift(o)
            same = np.zeros(len(g), dtype=bool)
            same[o:] = conv[o:] == conv[:-o]
            have = same & piece.notna().to_numpy()
            joiner = np.where((ctx.to_numpy() != "") & have, sep, "")
            ctx = ctx + pd.Series(joiner) + piece.where(
                pd.Series(have), "").fillna("")
        out = pd.DataFrame({"conv_id": conv, "turn_idx": g["turn_idx"],
                            "context": ctx, "target": g["text"]})
        out = out[g["role"].to_numpy() == "assistant"].reset_index(drop=True)
        out["turn_idx"] = out["turn_idx"].astype(np.int64)
        return out

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(render, batch_format="pandas")
    )


def clip_context_budget(ds, budget_chars: int, shards: int = 256):
    """Context-window clipping: per conversation, label the LONGEST SUFFIX of
    turns whose cumulative character count fits ``budget_chars`` — the
    keep-the-recent-turns truncation every bounded-context trainer applies.
    A turn is kept iff the total chars from it through the conversation's
    END is within budget (so kept turns are exactly a suffix; a single
    oversized final turn drops everything including itself).

    Exact semantics (bit-restatable in SQL): suffix_chars =
    SUM(length(text)) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC
    ROWS UNBOUNDED PRECEDING); keep = suffix_chars <= budget_chars.

    Output: (conv_id, turn_idx, suffix_chars:int64, keep:bool) — one row
    per turn, no particular order.

    Plan: text never shuffles — the prep stage reduces each turn to its
    utf8 length at the scan, so the conv-shard exchange moves three
    integers + conv_id per turn; the per-shard kernel is one sort + one
    groupby-cumsum."""
    import pyarrow.compute as pc

    if budget_chars < 0:
        raise ValueError(f"budget_chars must be >= 0; got {budget_chars}")
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int64()),
            "__n": pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
            "__shard": pa.array(sh),
        })

    def clip(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "turn_idx": pd.Series([], dtype=np.int64),
                                 "suffix_chars": pd.Series([], dtype=np.int64),
                                 "keep": pd.Series([], dtype=bool)})
        g = g.sort_values(["conv_id", "turn_idx"],
                          kind="mergesort").reset_index(drop=True)
        grp = g.groupby("conv_id", sort=False)["__n"]
        suffix = (grp.transform("sum") - grp.cumsum() + g["__n"]).astype(np.int64)
        return pd.DataFrame({
            "conv_id": g["conv_id"],
            "turn_idx": g["turn_idx"].astype(np.int64),
            "suffix_chars": suffix,
            "keep": suffix <= budget_chars,
        })

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(clip, batch_format="pandas")
    )


def conversation_language_profile(ds, lang_col: str = "lang",
                                  shards: int = 256):
    """Conversation-level language profile over a per-turn language-ID'd
    Dataset (compose after the langid stage): one row per conversation with
    its majority language — the gate that drops mixed-language
    conversations, which per-turn langid cannot express.

    Exact semantics (bit-restatable in SQL): top_lang = the lang with the
    highest turn count in the conversation, ties broken lang-ascending
    (row_number() OVER (PARTITION BY conv_id ORDER BY n DESC, lang) = 1).

    Output: (conv_id, n_turns:int64, top_lang, top_lang_turns:int64).

    Plan: per-batch (conv, lang) partial counts (Arrow hash aggregation,
    no text) → global groupby-sum (exact counts, one row per conv×lang)
    → conv-hash shard → vectorized per-shard argmax (sort +
    drop_duplicates). The only rows that ever shuffle are (conv, lang,
    count) triples — bounded by convs × distinct langs."""
    from ray.data.aggregate import Sum

    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def partials(batch: pa.Table) -> pa.Table:
        agg = (batch.select(["conv_id", lang_col])
               .group_by(["conv_id", lang_col], use_threads=False)
               .aggregate([([], "count_all")]))
        return _select_renamed(agg, {"conv_id": "conv_id", lang_col: lang_col,
                                     "count_all": "n"})

    counts = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["conv_id", lang_col])
        .aggregate(Sum("n", alias_name="n"))
    )

    def add_shard(batch: pa.Table) -> pa.Table:
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def top(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_turns": pd.Series([], dtype=np.int64),
                                 "top_lang": pd.Series([], dtype=object),
                                 "top_lang_turns": pd.Series([], dtype=np.int64)})
        totals = g.groupby("conv_id", sort=False)["n"].transform("sum")
        g = g.assign(n_turns=totals).sort_values(
            ["conv_id", "n", lang_col], ascending=[True, False, True],
            kind="mergesort").drop_duplicates(subset=["conv_id"], keep="first")
        return pd.DataFrame({
            "conv_id": g["conv_id"],
            "n_turns": g["n_turns"].astype(np.int64),
            "top_lang": g[lang_col],
            "top_lang_turns": g["n"].astype(np.int64),
        })

    return (
        counts.map_batches(add_shard, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(top, batch_format="pandas")
    )


def assistant_selfrep(ds, role: str = "assistant", text_col: str = "text",
                      shards: int = 256):
    """Consecutive same-role repetition (generation-loop detector): one row
    per conversation with ``n_role_turns`` (turns whose role equals
    ``role``) and ``n_selfrep`` (count of those turns whose text EXACTLY
    equals the previous same-role turn's text in turn_idx order). Looping
    assistants — identical apologies, identical retries — are the
    transcript-native failure mode the reference's intra-document repeat
    checks (`Assess_Quality/main.py` repetition rules) cannot see, because
    the repeats span rows.

    Exact semantics (bit-restatable in SQL): over the role-filtered turn
    stream, n_selfrep = COUNT(*) FILTER (text = lag(text) OVER
    (PARTITION BY conv_id ORDER BY turn_idx)). Conversations with zero
    ``role`` turns yield no row (matching the filtered SQL stream).

    Plan: role filter runs IN the scan task (other roles' text never
    leaves it) -> conv-hash shard -> one vectorized pass per shard (sort
    by (conv, turn), neighbour compare under a same-conv mask,
    groupby-sum). Only the scored role's text crosses the exchange, once.
    """
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.equal(batch.column("role"), role))
        batch = batch.select(["conv_id", "turn_idx", text_col])
        # null-text contract: treated as "" (two consecutive null turns ARE
        # a repeat) — stated here because numpy object equality would
        # otherwise silently diverge from any SQL restatement
        idx = batch.schema.get_field_index(text_col)
        batch = batch.set_column(
            idx, text_col,
            pc.fill_null(pc.cast(batch.column(text_col), pa.string()), ""))
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def count_rep(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_role_turns": pd.Series([], dtype=np.int64),
                                 "n_selfrep": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        txt = g[text_col].to_numpy()
        rep = np.zeros(len(g), dtype=np.int64)
        if len(g) > 1:
            rep[1:] = (txt[1:] == txt[:-1]) & (conv[1:] == conv[:-1])
        agg = (pd.DataFrame({"conv_id": conv, "rep": rep})
               .groupby("conv_id", sort=False)
               .agg(n_role_turns=("rep", "size"), n_selfrep=("rep", "sum")))
        return agg.reset_index()

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("__shard").map_groups(count_rep, batch_format="pandas"))


def conversation_completeness(ds, text_col: str = "text", shards: int = 256):
    """Conversation-completeness gate: one row per conversation judging
    whether the transcript looks FINISHED — the last turn (max turn_idx)
    must be an assistant turn, its code fences balanced and its text ending
    in terminal punctuation (the same EXACT fence/ending semantics as
    ``stages.analysis.format_check``). Truncated exports, crashed agent
    runs and user-abandoned chats all fail this gate before training.

    Output: (conv_id, n_turns:int64, last_role, last_fences_balanced:bool,
    last_ends_clean:bool, conv_complete:bool).

    Plan: per-batch partial aggregate — ONE row per conversation per batch
    (count + batch-max turn_idx + that row's role/text), so text crosses
    the exchange for at most convs x batches rows and every other turn's
    text dies in the scan task -> conv-hash shard -> per-shard global-max
    + vectorized fence / ending checks (pandas C string kernels).
    """
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    _WS = " \t\n\r\x0b\x0c"
    _TERM = list('。！？.!?…"」）)')

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.select(["conv_id", "turn_idx", "role", text_col]).to_pandas()
        # null-text contract: treated as "" (an all-null last turn is
        # incomplete, never the string "None")
        df[text_col] = df[text_col].fillna("")
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        n = df.groupby("conv_id", sort=False)["turn_idx"].transform("size")
        df = df.assign(__n=n.astype(np.int64)).drop_duplicates(
            subset=["conv_id"], keep="last")
        keys = pd.util.hash_pandas_object(df["conv_id"], index=False).to_numpy()
        df = df.assign(__shard=(keys % np.uint64(shards)).astype(np.int32))
        # strip the pandas schema metadata: it is an unhashable dict that
        # defeats Ray's block-schema deduplication (one warning per block)
        return pa.Table.from_pandas(
            df, preserve_index=False).replace_schema_metadata(None)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "conv_id": pd.Series([], dtype=object),
                "n_turns": pd.Series([], dtype=np.int64),
                "last_role": pd.Series([], dtype=object),
                "last_fences_balanced": pd.Series([], dtype=bool),
                "last_ends_clean": pd.Series([], dtype=bool),
                "conv_complete": pd.Series([], dtype=bool)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        n = g.groupby("conv_id", sort=False)["__n"].transform("sum")
        g = g.assign(n_turns=n.astype(np.int64)).drop_duplicates(
            subset=["conv_id"], keep="last")
        s = g[text_col].astype(str)
        fences = s.str.count("```").astype(np.int64)
        balanced = (fences % 2 == 0).to_numpy()
        stripped = s.str.rstrip(_WS)
        ends = ((stripped.str.len() > 0)
                & stripped.str[-1:].isin(_TERM)).to_numpy()
        is_asst = (g["role"] == "assistant").to_numpy()
        return pd.DataFrame({
            "conv_id": g["conv_id"],
            "n_turns": g["n_turns"],
            "last_role": g["role"],
            "last_fences_balanced": balanced,
            "last_ends_clean": ends,
            "conv_complete": is_asst & balanced & ends,
        })

    return (ds.map_batches(partials, batch_format="pyarrow")
            .groupby("__shard").map_groups(finish, batch_format="pandas"))


def turn_gap_stats(ds, ts_col: str = "ts_s", shards: int = 256):
    """Per-conversation inter-turn latency stats over an integer-seconds
    timestamp column: ``n_gaps``, ``sum_gap_s``, ``max_gap_s``, where
    gap = lead(ts) - ts in turn_idx order. Long silences mark session
    breaks and stalled agent loops; negative gaps mark upstream clock skew
    worth auditing (they participate in sum/max as-is).

    Exact semantics (bit-restatable in SQL): gap = lead(ts_s) OVER
    (PARTITION BY conv_id ORDER BY turn_idx) - ts_s; per conv,
    n_gaps = count(gap), sum/max are COALESCE(...., 0) — single-turn
    conversations report (0, 0, 0).

    Plan: text is never read (select only conv/turn/ts in the scan task);
    conv-hash shard over 3-integer rows -> per-shard sorted diff +
    groupby aggregation. The exchange carries integers only.
    """
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.select(["conv_id", "turn_idx", ts_col])
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "n_gaps": pd.Series([], dtype=np.int64),
                                 "sum_gap_s": pd.Series([], dtype=np.int64),
                                 "max_gap_s": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        same = np.zeros(len(g), dtype=bool)
        same[1:] = conv[1:] == conv[:-1]
        gap = np.zeros(len(g), dtype=np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        df = pd.DataFrame({"conv_id": conv, "gap": gap, "is_gap": same})
        sizes = df.groupby("conv_id", sort=False).size()
        gaps = (df[df["is_gap"]].groupby("conv_id", sort=False)["gap"]
                .agg(["count", "sum", "max"]))
        out = gaps.reindex(sizes.index).fillna(0).astype(np.int64)
        return pd.DataFrame({"conv_id": out.index.to_numpy(),
                             "n_gaps": out["count"].to_numpy(),
                             "sum_gap_s": out["sum"].to_numpy(),
                             "max_gap_s": out["max"].to_numpy()})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("__shard").map_groups(stats, batch_format="pandas"))


def split_conversation_sessions(ds, ts_col: str = "ts_s",
                                gap_seconds: int = 1800, shards: int = 256):
    """Split each conversation into SESSIONS on inter-turn silence — the
    transcripts-shape twin of ``sessionize_events``: a turn opens a new
    session when the gap to the previous turn (turn_idx order) exceeds
    ``gap_seconds``. Long-running chat threads resumed days later should
    not train as one context; downstream SFT export windows per
    (conv_id, session_idx) instead of per conv_id.

    Output: one row per turn (conv_id, turn_idx, session_idx:int64),
    session_idx 0-based per conversation.

    Exact semantics (bit-restatable in SQL): session_idx = SUM(CASE WHEN
    ts - lag(ts) OVER w > gap THEN 1 ELSE 0 END) OVER (w ROWS UNBOUNDED
    PRECEDING) with w = (PARTITION BY conv_id ORDER BY turn_idx).

    Plan: text is never read (conv/turn/ts only in the scan task);
    conv-hash shard over 3-integer rows -> per-shard sorted diff +
    same-conv masked cumulative sum. Integers-only exchange."""
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.select(["conv_id", "turn_idx", ts_col])
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def split(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                 "turn_idx": pd.Series([], dtype=np.int64),
                                 "session_idx": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        same = np.zeros(len(g), dtype=bool)
        same[1:] = conv[1:] == conv[:-1]
        brk = np.zeros(len(g), dtype=np.int64)
        brk[1:] = (ts[1:] - ts[:-1] > gap_seconds)
        brk[~same] = 0
        # per-conv cumulative sum of breaks: global cumsum minus the cumsum
        # value at each conv's first row (conv runs are contiguous after the
        # sort and brk is forced to 0 on first rows, so the first row's cs IS
        # the conv's base; forward-fill via maximum.accumulate works because
        # cs is non-decreasing)
        cs = np.cumsum(brk)
        base = np.maximum.accumulate(np.where(~same, cs, 0))
        sess = cs - base
        return pd.DataFrame({"conv_id": conv,
                             "turn_idx": g["turn_idx"].to_numpy().astype(np.int64),
                             "session_idx": sess.astype(np.int64)})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("__shard").map_groups(split, batch_format="pandas"))


def conversation_qa_gate(ds, max_selfrep_num: int = 1, max_selfrep_den: int = 5,
                         shards: int = 256):
    """Composed conversation-level QA gate — the structural keep decision a
    transcript corpus passes before the per-turn quality pipeline:

    keep = conv_complete                               (completeness gate)
           AND n_selfrep * den <= n_role_turns * num   (loop-rate gate,
                                                        INTEGER-exact:
                                                        default <= 1/5)
           AND starts_with_user                        (role-shape gate)

    Conversations with zero assistant turns fail the loop-rate gate by
    definition (no assistant turn stream to score) — they also always fail
    completeness (the last turn cannot be an assistant turn), so the
    composition is consistent. Semantics are EXACTLY the composition
    conversation_completeness ⋈ assistant_selfrep ⋈ conversation_role_check
    (LEFT join on the selfrep side, nulls -> 0), and the SQL oracle
    restates that composition verbatim.

    Output: one row per conversation (conv_id, n_turns:int64,
    conv_complete:bool, n_role_turns:int64, n_selfrep:int64,
    starts_with_user:bool, keep:bool).

    Plan: ONE conv-sharded exchange, fused. Each batch ships skinny
    (conv_id, turn_idx, role, text?) rows where text is non-empty ONLY for
    assistant turns (the selfrep compare needs them) and for each
    conversation's batch-max turn (the global last turn is some batch's
    max, so the completeness check always sees real text); every other
    turn's text is blanked in the scan task. One vectorized per-shard
    kernel then computes n_turns, starts_with_user, the last-turn
    fence/ending checks and the consecutive-assistant repeat count from
    the same sorted frame. The literal 3-operator + 2-hash_join
    composition is semantically identical but pays 5 sort barriers; fused
    it pays one (measured 237 s -> 12.4 s on a 4M-turn corpus, 32 CPUs,
    identical output)."""
    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    _WS = " \t\n\r\x0b\x0c"
    _TERM = list('。！？.!?…"」）)')

    def prep(batch: pa.Table) -> pa.Table:
        df = batch.select(["conv_id", "turn_idx", "role", "text"]).to_pandas()
        # null-text contract: treated as "" (matches the standalone ops)
        df["text"] = df["text"].fillna("")
        is_asst = (df["role"] == "assistant").to_numpy()
        mx = df.groupby("conv_id", sort=False)["turn_idx"].transform("max")
        keep_text = is_asst | (df["turn_idx"].to_numpy() == mx.to_numpy())
        df["text"] = df["text"].where(keep_text, "")
        keys = pd.util.hash_pandas_object(df["conv_id"], index=False).to_numpy()
        df["__shard"] = (keys % np.uint64(shards)).astype(np.int32)
        return pa.Table.from_pandas(
            df, preserve_index=False).replace_schema_metadata(None)

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "conv_id": pd.Series([], dtype=object),
                "n_turns": pd.Series([], dtype=np.int64),
                "conv_complete": pd.Series([], dtype=bool),
                "n_role_turns": pd.Series([], dtype=np.int64),
                "n_selfrep": pd.Series([], dtype=np.int64),
                "starts_with_user": pd.Series([], dtype=bool),
                "keep": pd.Series([], dtype=bool)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        n = len(g)
        same = np.zeros(n, dtype=bool)
        same[1:] = conv[1:] == conv[:-1]
        first = ~same
        last = np.zeros(n, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        convs = conv[first]
        n_turns = np.flatnonzero(np.append(first, True))
        n_turns = (n_turns[1:] - n_turns[:-1]).astype(np.int64)
        starts_user = role[first] == "user"
        # completeness on the last rows (their text always shipped intact)
        s = pd.Series(g["text"].to_numpy()[last]).astype(str)
        fences = s.str.count("```").astype(np.int64)
        balanced = (fences % 2 == 0).to_numpy()
        stripped = s.str.rstrip(_WS)
        ends = ((stripped.str.len() > 0)
                & stripped.str[-1:].isin(_TERM)).to_numpy()
        complete = (role[last] == "assistant") & balanced & ends
        # consecutive-assistant repeats over the assistant subsequence
        a = role == "assistant"
        conv_a = conv[a]
        txt_a = g["text"].to_numpy()[a]
        rep = np.zeros(len(conv_a), dtype=np.int64)
        if len(conv_a) > 1:
            rep[1:] = (txt_a[1:] == txt_a[:-1]) & (conv_a[1:] == conv_a[:-1])
        ra = (pd.DataFrame({"conv_id": conv_a, "rep": rep})
              .groupby("conv_id", sort=False)
              .agg(n_role_turns=("rep", "size"), n_selfrep=("rep", "sum")))
        ra = ra.reindex(convs).fillna(0).astype(np.int64)
        n_role = ra["n_role_turns"].to_numpy()
        n_rep = ra["n_selfrep"].to_numpy()
        rep_ok = (n_rep * max_selfrep_den <= n_role * max_selfrep_num) & (n_role > 0)
        return pd.DataFrame({
            "conv_id": convs,
            "n_turns": n_turns,
            "conv_complete": complete,
            "n_role_turns": n_role,
            "n_selfrep": n_rep,
            "starts_with_user": starts_user,
            "keep": complete & rep_ok & starts_user,
        })

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("__shard").map_groups(gate, batch_format="pandas"))


def incremental_prefix_dedup(new_ds, seen_ds, k: int = 3,
                             text_col: str = "text", shards: int = 256):
    """Incremental conversation ingestion — today's transcript batch vs the
    committed corpus: drop every NEW conversation whose first-``k``
    (role, text) prefix already exists among the committed conversations,
    then keep-first (min conv_id) among the new conversations that share a
    prefix with each other. The daily-rerun shape: yesterday's corpus never
    re-ships, today's reruns of yesterday's tasks collapse.

    Output: the kept NEW conversations' prefix rows
    (conv_id, n_prefix_turns:int64) — semi_filter the turn stream by these
    conv_ids to materialize the surviving transcripts.

    Plan: both sides reduce to one bounded prefix row per conversation
    (``conversation_prefixes`` — ≤ k rows/conv/batch ship, never the
    transcript body); the committed side then reduces further to 64-bit
    prefix hashes through ``dedup_against_corpus`` (8 bytes per seen
    conversation, broadcast under the limit / co-sharded join above it),
    which also performs the keep-first among the new side. Mirrors the
    documents-shape ``doc_incremental_dedup`` contract on the transcripts
    shape."""
    from chinese_corpus_cleaning_ray.stages.dedup_stage import (
        dedup_against_corpus,
    )

    # materialize the conv-sized prefix table: dedup_against_corpus counts
    # its input for shard sizing, and counting a derived plan would execute
    # the whole prefix build twice (the table is one bounded row per new
    # conversation — blocks spill rather than re-scan)
    newp = conversation_prefixes(new_ds, k=k, text_col=text_col,
                                 shards=shards).materialize()
    seenp = conversation_prefixes(seen_ds, k=k, text_col=text_col,
                                  shards=shards).select_columns(["__prefix"])
    kept, _ = dedup_against_corpus(newp, seenp, id_col="conv_id",
                                   text_col="__prefix",
                                   seen_text_col="__prefix")
    return kept.select_columns(["conv_id", "n_prefix_turns"])


def corpus_profile(ds, text_col: str = "text"):
    """One-call corpus profile — the first thing run on a new transcript
    drop: a tidy (metric:string, value:int64) table with
    ``n_turns``, ``n_convs``, ``total_chars``, ``max_turn_idx``,
    ``n_roles``, and one ``turns_role_<role>`` row per distinct role.
    Integer-exact by construction, so the whole profile is bit-restatable
    in SQL (no float means).

    Plan: one pass of per-batch partials — per (conv, role): count,
    char-sum, max turn (Arrow hash aggregation, no text leaves the scan
    beyond its length) — then a single tiny groupby over conv×role rows
    and a driver-side fold of the ≤ convs×roles aggregate. The only
    exchange carries 4-column integer rows."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Sum

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "conv_id": batch.column("conv_id"),
            "role": batch.column("role"),
            "chars": pc.utf8_length(
                pc.fill_null(pc.cast(batch.column(text_col), pa.string()),
                             "")).cast(pa.int64()),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int64()),
        })
        agg = (t.group_by(["conv_id", "role"], use_threads=False)
               .aggregate([("chars", "count"), ("chars", "sum"),
                           ("turn_idx", "max")]))
        return _select_renamed(agg, {
            "conv_id": "conv_id", "role": "role", "chars_count": "n",
            "chars_sum": "chars", "turn_idx_max": "max_turn"})

    rows = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["conv_id", "role"])
        .aggregate(Sum("n", alias_name="n"),
                   Sum("chars", alias_name="chars"),
                   Max("max_turn", alias_name="max_turn"))
        .to_pandas()
    )
    out = {
        "n_turns": int(rows["n"].sum()) if len(rows) else 0,
        "n_convs": int(rows["conv_id"].nunique()) if len(rows) else 0,
        "total_chars": int(rows["chars"].sum()) if len(rows) else 0,
        "max_turn_idx": int(rows["max_turn"].max()) if len(rows) else 0,
        "n_roles": int(rows["role"].nunique()) if len(rows) else 0,
    }
    if len(rows):
        per_role = rows.groupby("role", sort=True)["n"].sum()
        for role, n in per_role.items():
            out[f"turns_role_{role}"] = int(n)
    return pd.DataFrame({"metric": list(out.keys()),
                         "value": pd.array(list(out.values()),
                                           dtype="int64")})


def tool_latency_stats(ds, ts_col: str = "ts_s", tool_col: str = "tool",
                       shards: int = 256):
    """Per-TOOL call latency over agent transcripts: for every turn with a
    non-empty ``tool_col``, latency = next turn's ts - this turn's ts
    (turn_idx order within the conversation) — the time the conversation
    waited on that tool. One row per tool: (tool, n_calls:int64,
    sum_gap_s:int64, max_gap_s:int64). Tool calls that end their
    conversation have no next turn and are excluded from all three counts.

    Exact semantics (bit-restatable in SQL): gap = lead(ts_s) OVER
    (PARTITION BY conv_id ORDER BY turn_idx) - ts_s; aggregate over rows
    WHERE tool <> '' AND gap IS NOT NULL.

    Plan: text is never read; conv-shard over (conv, turn, tool, ts) rows
    -> per-shard sorted lead-diff + per-tool partial aggregate (one row
    per tool per shard) -> global groupby-sum over <= shards x tools
    rows."""
    from ray.data.aggregate import Max, Sum

    if shards < 1 or shards & (shards - 1):
        raise ValueError(f"shards must be a power of two; got {shards}")

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.select(["conv_id", "turn_idx", tool_col, ts_col])
        keys = pd.Series(batch.column("conv_id").to_pandas())
        sh = (pd.util.hash_pandas_object(keys, index=False).to_numpy()
              % np.uint64(shards)).astype(np.int32)
        return batch.append_column("__shard", pa.array(sh))

    def partials(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"tool": pd.Series([], dtype=object),
                                 "n_calls": pd.Series([], dtype=np.int64),
                                 "sum_gap_s": pd.Series([], dtype=np.int64),
                                 "max_gap_s": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        tool = g[tool_col].fillna("").to_numpy()
        has_next = np.zeros(len(g), dtype=bool)
        has_next[:-1] = conv[:-1] == conv[1:]
        gap = np.zeros(len(g), dtype=np.int64)
        gap[:-1] = ts[1:] - ts[:-1]
        m = has_next & (tool != "")
        if not m.any():
            return pd.DataFrame({"tool": pd.Series([], dtype=object),
                                 "n_calls": pd.Series([], dtype=np.int64),
                                 "sum_gap_s": pd.Series([], dtype=np.int64),
                                 "max_gap_s": pd.Series([], dtype=np.int64)})
        agg = (pd.DataFrame({"tool": tool[m], "gap": gap[m]})
               .groupby("tool", sort=False)["gap"]
               .agg([("n_calls", "size"), ("sum_gap_s", "sum"),
                     ("max_gap_s", "max")]).reset_index())
        for c in ("n_calls", "sum_gap_s", "max_gap_s"):
            agg[c] = agg[c].astype(np.int64)
        return agg

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("__shard").map_groups(partials, batch_format="pandas")
            .groupby("tool")
            .aggregate(Sum("n_calls", alias_name="n_calls"),
                       Sum("sum_gap_s", alias_name="sum_gap_s"),
                       Max("max_gap_s", alias_name="max_gap_s")))
