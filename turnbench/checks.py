"""Output checks made apart from the engine, and their self-test.

Flagship outputs are checked with DuckDB over the input and output Parquet,
with ``zlib`` for the partition ids, and against the naive restatement in
``tests/oracle_ref.py`` on a sample of turns. Conversation dedup outputs are
checked against a DuckDB SQL restatement of both operators. Each check
returns a list of ``(check_name, detail)`` failures; empty means it passed.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import zlib

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

ORACLE_SAMPLE = 500


def _lit(path: str) -> str:
    return "'" + path.replace("'", "''") + "'"


def _connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads TO 4")
    return con


class FlagshipOracle:
    """Expected ``keep`` and ``scrubbed_text`` of sampled input turns, from
    ``tests/oracle_ref.py``; on perplexity workloads the ppl component comes
    from a ``PerplexityScorer`` trained here on the same seed pool."""

    def __init__(self, words: list[str], cfg, corpus_dir: str, sample: int | None, seed: int):
        import oracle_ref as o

        self.trie = o.build_trie(words)
        ppl = None
        if cfg.enable_perplexity:
            from chinese_corpus_cleaning_ray.functions.ngram_lm import NgramModel, PerplexityScorer
            from chinese_corpus_cleaning_ray.sources.transcripts import CLEAN_SENTENCES

            model = NgramModel(n=cfg.perplexity.order, alpha=cfg.perplexity.alpha)
            ppl = PerplexityScorer(model.train(list(CLEAN_SENTENCES)), cfg.perplexity)
        rows = pq.read_table(corpus_dir, columns=["conv_id", "turn_idx", "text"]).to_pylist()
        if sample is not None and sample < len(rows):
            rows = [rows[i] for i in sorted(random.Random(seed).sample(range(len(rows)), sample))]
        self.expected = {}
        for r in rows:
            score = ppl.get_perplexity_score(r["text"]) if ppl else None
            keep = o.o_decide(self.trie, r["text"], ppl_score=score)["keep"]
            self.expected[(r["conv_id"], r["turn_idx"])] = (keep, o.o_scrub(self.trie, r["text"]))


def check_flagship(corpus_dir: str, out_dir: str, num_partitions: int, totals: dict,
                   oracle: FlagshipOracle) -> list[tuple[str, str]]:
    fails: list[tuple[str, str]] = []
    if not glob.glob(os.path.join(out_dir, "data", "part_id=*", "*.parquet")):
        return [("exactly_once", "no output pieces")]
    con = _connect()
    con.execute(f"CREATE VIEW inp AS SELECT * FROM read_parquet({_lit(corpus_dir + '/*.parquet')})")
    # one scan of the many small pieces; every check below reads this table
    con.execute(
        "CREATE TEMP TABLE out AS SELECT * FROM read_parquet("
        f"{_lit(out_dir + '/data/*/*.parquet')}, hive_partitioning = true,"
        " filename = true, file_row_number = true)")

    # every input (conv_id, turn_idx) appears exactly once in the output
    n_in, n_out, n_once = con.execute("""
        WITH o AS (SELECT conv_id, turn_idx, count(*) AS c FROM out GROUP BY ALL)
        SELECT (SELECT count(*) FROM inp), (SELECT count(*) FROM out),
               (SELECT count(*) FROM inp JOIN o USING (conv_id, turn_idx) WHERE c = 1)
    """).fetchone()
    if not n_in == n_out == n_once:
        fails.append(("exactly_once", f"input {n_in}, output {n_out}, matched once {n_once}"))

    # part_id = crc32(conv_id) % num_partitions, computed here
    pairs = con.execute("SELECT DISTINCT conv_id, part_id FROM out").fetchall()
    bad = [c for c, p in pairs if zlib.crc32(c.encode("utf-8")) % num_partitions != p]
    if bad:
        fails.append(("part_id", f"{len(bad)} conversations in the wrong partition, e.g. {bad[0]}"))

    # rows inside each piece are ordered by (conv_id, turn_idx)
    (unordered,) = con.execute("""
        SELECT count(*) FROM (
            SELECT conv_id, turn_idx, lag(conv_id) OVER w AS pc, lag(turn_idx) OVER w AS pt
            FROM out WINDOW w AS (PARTITION BY filename ORDER BY file_row_number))
        WHERE pc > conv_id OR (pc = conv_id AND pt >= turn_idx)
    """).fetchone()
    if unordered:
        fails.append(("piece_order", f"{unordered} rows out of (conv_id, turn_idx) order"))

    # stats.json and the manifests agree with counts over the pieces
    sql_counts = dict(zip(("total", "kept", "errors", "scrubbed"), con.execute("""
        SELECT count(*), sum(keep::INT), sum(rule_error::INT), sum((sensitive_count > 0)::INT)
        FROM out""").fetchone()))
    sql_parts = {(s, int(p)): int(n) for s, p, n in con.execute(r"""
        SELECT regexp_extract(filename, '([^/]+)-[0-9a-f]{8}\.parquet$', 1), part_id, count(*)
        FROM out GROUP BY ALL""").fetchall()}
    try:
        with open(os.path.join(out_dir, "stats.json")) as f:
            stats = json.load(f)
        man_parts: dict = {}
        man_counts = dict.fromkeys(sql_counts, 0)
        for path in glob.glob(os.path.join(out_dir, "_manifest", "file-*.json")):
            with open(path) as f:
                rec = json.load(f)
            for pid, n in rec["per_partition"].items():
                if n:
                    man_parts[(rec["stem"], int(pid))] = int(n)
            for k in man_counts:
                man_counts[k] += int(rec["counters"][k])
    except (OSError, KeyError, ValueError) as e:
        fails.append(("counters", f"unreadable stats.json or manifest: {e!r}"))
    else:
        for k, v in sql_counts.items():
            if not (stats.get(k) == man_counts[k] == totals.get(k) == v):
                fails.append(("counters", f"{k}: stats.json {stats.get(k)}, manifests "
                              f"{man_counts[k]}, job {totals.get(k)}, pieces {v}"))
        if man_parts != sql_parts:
            diff = set(man_parts.items()) ^ set(sql_parts.items())
            fails.append(("counters", f"per_partition differs from the pieces at {sorted(diff)[:3]}"))

    # keep and scrubbed_text equal the naive restatement on the sample
    keys = list(oracle.expected)
    con.register("sample_keys", pa.table({"conv_id": [k[0] for k in keys],
                                          "turn_idx": pa.array([k[1] for k in keys], pa.int32())}))
    got = {(c, t): (k, s) for c, t, k, s in con.execute("""
        SELECT conv_id, turn_idx, keep, scrubbed_text FROM out JOIN sample_keys USING (conv_id, turn_idx)
    """).fetchall()}
    wrong = [k for k in keys if got.get(k) != oracle.expected[k]]
    if wrong:
        fails.append(("oracle_sample", f"{len(wrong)} of {len(keys)} sampled turns differ, e.g. {wrong[0]}"))
    con.close()
    return fails


def check_conv(corpus_dir: str, out_dir: str) -> list[tuple[str, str]]:
    """Kept turns: row_number() OVER (PARTITION BY conv_id, text ORDER BY
    turn_idx) = 1. Prefix labels: the first-3 string_agg prefix over the kept
    turns and min(conv_id) OVER (PARTITION BY prefix)."""
    fails: list[tuple[str, str]] = []
    con = _connect()
    con.execute(f"CREATE VIEW inp AS SELECT * FROM read_parquet({_lit(corpus_dir + '/*.parquet')})")
    for name in ("kept", "prefix"):
        if not glob.glob(os.path.join(out_dir, name, "*.parquet")):
            return [(f"conv_{name}", "no output files")]
        con.execute(f"CREATE VIEW out_{name} AS SELECT * FROM "
                    f"read_parquet({_lit(os.path.join(out_dir, name, '*.parquet'))})")
    con.execute("""
        CREATE TEMP TABLE want_kept AS
        SELECT conv_id, turn_idx, role, text FROM (
            SELECT *, row_number() OVER (PARTITION BY conv_id, text ORDER BY turn_idx) AS rn
            FROM inp)
        WHERE rn = 1""")
    con.execute("""
        CREATE TEMP TABLE want_prefix AS
        WITH r AS (SELECT *, row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS rn
                   FROM want_kept),
             pref AS (SELECT conv_id, count(*)::BIGINT AS n_prefix_turns,
                             string_agg(role || chr(30) || text, chr(31) ORDER BY turn_idx) AS prefix
                      FROM r WHERE rn <= 3 GROUP BY conv_id)
        SELECT conv_id, n_prefix_turns,
               conv_id = min(conv_id) OVER (PARTITION BY prefix) AS keep,
               min(conv_id) OVER (PARTITION BY prefix) AS keeper_conv_id
        FROM pref""")
    for name, cols in (("kept", "conv_id, turn_idx, role, text"),
                       ("prefix", "conv_id, n_prefix_turns, keep, keeper_conv_id")):
        extra, missing = con.execute(f"""
            SELECT (SELECT count(*) FROM (SELECT {cols} FROM out_{name}
                                          EXCEPT ALL SELECT {cols} FROM want_{name})),
                   (SELECT count(*) FROM (SELECT {cols} FROM want_{name}
                                          EXCEPT ALL SELECT {cols} FROM out_{name}))
        """).fetchone()
        if extra or missing:
            fails.append((f"conv_{name}", f"{extra} rows not in the SQL restatement, {missing} missing"))
    con.close()
    return fails


# ---------------------------------------------------------------- self-test

def _pieces(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "data", "part_id=*", "*.parquet")))


def _rewrite_first(paths: list[str], edit) -> None:
    """Apply ``edit`` to the first file with at least two rows."""
    for path in paths:
        t = pq.read_table(path)
        if t.num_rows >= 2:
            pq.write_table(edit(t), path)
            return
    raise RuntimeError("no file with two rows to plant a defect in")


def _set_first(t: pa.Table, col: str, fn) -> pa.Table:
    vals = t.column(col).to_pylist()
    vals[0] = fn(vals[0], vals)
    return t.set_column(t.schema.get_field_index(col), col, pa.array(vals, t.schema.field(col).type))


def _move_piece(out_dir: str, num_partitions: int) -> None:
    src = _pieces(out_dir)[0]
    pid = int(os.path.basename(os.path.dirname(src)).split("=")[1])
    dst_dir = os.path.join(out_dir, "data", f"part_id={(pid + 1) % num_partitions}")
    os.makedirs(dst_dir, exist_ok=True)
    shutil.move(src, os.path.join(dst_dir, os.path.basename(src)))


FLAGSHIP_DEFECTS = {
    "dropped_row": ("exactly_once", lambda out, p: _rewrite_first(_pieces(out), lambda t: t.slice(1))),
    "duplicated_row": ("exactly_once", lambda out, p: _rewrite_first(
        _pieces(out), lambda t: pa.concat_tables([t.slice(0, 1), t]))),
    "flipped_keep": ("oracle_sample", lambda out, p: _rewrite_first(
        _pieces(out), lambda t: _set_first(t, "keep", lambda v, _: not v))),
    "scrubbed_char": ("oracle_sample", lambda out, p: _rewrite_first(
        _pieces(out), lambda t: _set_first(
            t, "scrubbed_text", lambda v, _: ("y" if v[:1] == "x" else "x") + v[1:]))),
    "wrong_part_id": ("part_id", lambda out, p: _move_piece(out, p)),
}


def _other_conv(v, vals):
    return next(c for c in vals if c != v)


CONV_DEFECTS = {
    "wrong_keeper": ("conv_prefix", lambda out: _rewrite_first(
        sorted(glob.glob(os.path.join(out, "prefix", "*.parquet"))),
        lambda t: _set_first(t, "keeper_conv_id", _other_conv))),
}


def selftest(scratch: str, flagship: tuple, conv: tuple) -> dict[str, bool]:
    """Plant one defect at a time in a copy of a small output and report
    whether the check meant to catch it did. ``flagship`` is the argument
    tuple of ``check_flagship`` (its oracle must cover every row); ``conv``
    that of ``check_conv``. The untouched copies must pass first."""
    corpus, out, parts, totals, oracle = flagship
    conv_corpus, conv_out = conv
    caught = {"clean_flagship_passes": not check_flagship(*flagship),
              "clean_conv_passes": not check_conv(*conv)}
    copy = os.path.join(scratch, "selftest")
    for name, (check, plant) in FLAGSHIP_DEFECTS.items():
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        plant(copy, parts)
        caught[name] = check in {c for c, _ in check_flagship(corpus, copy, parts, totals, oracle)}
    for name, (check, plant) in CONV_DEFECTS.items():
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(conv_out, copy)
        plant(copy)
        caught[name] = check in {c for c, _ in check_conv(conv_corpus, copy)}
    shutil.rmtree(copy, ignore_errors=True)
    return caught
