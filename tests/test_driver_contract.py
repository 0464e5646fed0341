"""Driver-contract self-check: every queries() entry runs at sf0.001; entries
with an oracle_sql() must match DuckDB exactly (row count, schema-shape,
values — floats bit-exact, mirroring the driver's value-hash)."""

import math
import os

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import importlib
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as mod

    importlib.reload(mod)
    return mod


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def assert_frames_match(ray_df: pd.DataFrame, sql_df: pd.DataFrame, name: str):
    assert len(ray_df) == len(sql_df), f"{name}: row count {len(ray_df)} != {len(sql_df)}"
    assert sorted(ray_df.columns) == sorted(sql_df.columns), (
        f"{name}: columns {sorted(ray_df.columns)} != {sorted(sql_df.columns)}"
    )
    a, b = _canon(ray_df), _canon(sql_df)
    for col in a.columns:
        av, bv = list(a[col]), list(b[col])
        for i, (x, y) in enumerate(zip(av, bv)):
            if x is None and y is None:
                continue
            if isinstance(x, float) and isinstance(y, float):
                if math.isnan(x) and math.isnan(y):
                    continue
                assert x == y, f"{name}.{col}[{i}]: {x!r} != {y!r} (float not bit-exact)"
            else:
                assert x == y or (pd.isna(x) and pd.isna(y)), f"{name}.{col}[{i}]: {x!r} != {y!r}"


def test_entry_smoke(entry_mod):
    ds = entry_mod.entry()
    df = _to_df(ds)
    assert len(df) >= 0
    assert {"conv_id", "turn_idx", "keep", "quality_score", "scrubbed_text"} <= set(df.columns)


def test_every_query_runs(entry_mod):
    qs = entry_mod.queries()
    assert len(qs) >= 15
    for name, fn in qs.items():
        df = _to_df(fn(SF_DIR))
        assert len(df) >= 0, name


def test_oracle_keys_subset(entry_mod):
    qs, sqls = entry_mod.queries(), entry_mod.oracle_sql()
    assert set(sqls) <= set(qs)
    assert len(sqls) >= 10


@pytest.mark.parametrize("name", [
    "agg_pricing_summary", "topk_users_by_events", "join_orders_by_nation",
    "events_hourly", "event_type_counts", "doc_rule_metrics", "doc_langid",
    "doc_token_stats", "doc_exact_dedup", "doc_distinct_sources", "knn_brute",
    "transcripts_rule_metrics", "transcripts_langid",
    "transcripts_conversation_stats", "events_sessionize",
    "transcripts_prefix_dedup", "transcripts_tool_stats",
    "transcripts_sft_pairs", "transcripts_context_clip",
    "transcripts_sft_pipeline", "transcripts_conv_langid",
    "transcripts_format_check",
    "transcripts_selfrep", "transcripts_conv_complete",
    "transcripts_turn_latency", "transcripts_session_split",
    "transcripts_conv_qa_gate", "transcripts_response_dedup",
    "transcripts_incr_prefix_dedup", "transcripts_profile",
    "transcripts_qa_pipeline", "transcripts_tool_latency",
])
def test_query_matches_oracle(entry_mod, con, name):
    ray_df = _to_df(entry_mod.queries()[name](SF_DIR))
    sql_df = con.execute(entry_mod.oracle_sql()[name]).df()
    assert_frames_match(ray_df, sql_df, name)


def test_keep_label_oracle_on_planted_rows(entry_mod, wordlist):
    """The keep-label SQL restates the kernel's keyword lists and character
    classes; planted rows hit each list and class, and every label must
    equal ``tests/oracle_ref.py``'s. ``加QQ`` is a high-weight keyword the
    kernel tests against lowercased text, so it never fires there and must
    not fire in the SQL either. ``\\x0b`` and ``\\x1c``-``\\x1f`` are
    whitespace to Python's ``re`` (not symbols), and a tab-only line is blank
    to ``str.strip``; RE2's ``\\s`` and DuckDB's ``trim`` see neither."""
    from chinese_corpus_cleaning_ray.functions.rules import rule_stats

    import oracle_ref as o

    body = "今天我们一起讨论分布式数据处理系统的设计原则与实现细节问题，大家都很认真地参与了。"
    short = "今天我们一起讨论数据处理"
    texts = [
        body + "有需要的朋友请加QQ详细咨询。" + body,
        body + "限时特价促销活动现在开始。" + body,
        body + "本站内容不包含任何色情信息。" + body,
        body + "高清视频在线播放。" + body,
        body + "联系电话是多少呢，手机和系统都可以。" + body,
        short + "\x0b" * 5,
        short + "\x1c\x1d\x1e\x1f\x1c",
        short + "\u3000" * 5,
        short + "\u0130" * 3 + "\u0130bc" + body,
        short + "系统的设计原则" + "\n\t" * 10,
        body + "\n\t\n" + body,
    ]
    con = duckdb.connect()
    con.execute("CREATE TABLE planted (doc_id INTEGER, text VARCHAR)")
    con.executemany("INSERT INTO planted VALUES (?, ?)", list(enumerate(texts)))
    got = con.execute(
        f"WITH {entry_mod._keep_label_sql('SELECT doc_id, text FROM planted', keys='doc_id')} "
        "SELECT doc_id, rule_score, feature_score, quality_score, keep FROM k ORDER BY doc_id"
    ).fetchall()
    trie = o.build_trie(wordlist)
    for (doc_id, rule, feature, quality, keep), text in zip(got, texts):
        want = o.o_decide(trie, text)
        assert (rule, feature, quality, keep) == (
            want["rule_score"], want["feature_score"], want["quality_score"], want["keep"]
        ), (doc_id, text)
    lines = con.execute(f"SELECT avg_line_len FROM (SELECT doc_id, {entry_mod._rule_metric_sql_cols()} "
                        "FROM planted) ORDER BY doc_id").fetchall()
    for (avg,), text in zip(lines, texts):
        want = rule_stats(text).avg_line_len
        assert avg == (-1.0 if want is None else want), text


def test_python_char_classes_hold_every_codepoint_in_re2(entry_mod):
    """The oracle's classes built from Python's ``re`` match, in DuckDB's
    RE2, exactly the codepoints Python matches (NUL and surrogates aside)."""
    import re

    from chinese_corpus_cleaning_ray.functions.rules import SYMBOL_RE

    for pattern in (SYMBOL_RE.pattern, r"\s"):
        got = duckdb.sql(
            "SELECT i FROM (SELECT i FROM range(1, 55296) t(i) "
            "UNION ALL SELECT i FROM range(57344, 1114112) t(i)) "
            f"WHERE regexp_matches(chr(CAST(i AS INTEGER)), '[{entry_mod._py_class_sql(pattern)}]') "
            "ORDER BY i"
        ).fetchnumpy()["i"]
        rx = re.compile(pattern)
        want = [i for i in range(1, 0x110000)
                if not 0xD800 <= i <= 0xDFFF and rx.match(chr(i))]
        assert got.tolist() == want, pattern
