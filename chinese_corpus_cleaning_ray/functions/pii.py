"""Structured-PII redaction: emails, CN mobile numbers, IPv4 addresses and
CN resident-ID numbers replaced by typed placeholder tokens, with per-category
occurrence counts.

Complements the DFA sensitive-WORD scrub (`functions/scrub.py`, the
reference's A2 — ref:`utils/sensitive_filter.py`): the scrub removes listed
terms, this removes structured identifiers no word list can enumerate. The
reference has no structured-PII pass; this is one of the standard
training-data operators the engine adds (C4/CCNet-style pipelines run both).

Everything is RE2 via `pyarrow.compute` string kernels — vectorized
C++-side, zero Python per row, and stateless (module-constant patterns, no
actor state needed). RE2 has NO lookaround, so digit patterns are fenced
with ``\\b`` (ASCII word boundary; CJK characters are non-word chars in RE2,
so a phone number glued to Chinese text still matches, while a digit run
longer than the pattern cannot match mid-run). DuckDB's regexp functions are
ALSO RE2, which is what makes the driver oracle (`doc_pii_redact`) bit-exact:
the same engine interprets the same pattern on both sides.

Order matters and is part of the contract: ID card (18 digits) runs before
phone (11) so an ID is never half-eaten as a phone; counts for pattern i are
taken on the text AFTER patterns 0..i-1 were replaced (the SQL oracle nests
its `regexp_replace` calls in the same order).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# (name, RE2 pattern, replacement) — applied strictly in this order
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email",
     r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("idcard",  # CN 18-digit resident id, last digit may be X
     r"\b\d{17}[0-9Xx]\b",
     "<IDCARD>"),
    ("phone",  # CN mobile: 1[3-9] + 9 digits
     r"\b1[3-9]\d{9}\b",
     "<PHONE>"),
    ("ipv4",
     r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
     "<IP>"),
)


def redact_pii_batch(texts: pa.ChunkedArray | pa.Array) -> dict[str, pa.Array]:
    """Redact all PII_PATTERNS from a string array. Returns
    ``{"redacted_text": ..., "<name>_count": ..., "pii_total": ...}``;
    counts are int64, taken sequentially (see module docstring)."""
    cur = texts
    out: dict[str, pa.Array] = {}
    total = None
    for name, pattern, repl in PII_PATTERNS:
        n = pc.count_substring_regex(cur, pattern=pattern)
        n = pc.cast(n, pa.int64())
        out[f"{name}_count"] = n
        total = n if total is None else pc.add(total, n)
        cur = pc.replace_substring_regex(cur, pattern=pattern, replacement=repl)
    out["redacted_text"] = cur
    out["pii_total"] = total
    return out


def append_pii_columns(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """``batch`` with ``redacted_text``, one ``<name>_count`` per category
    and ``pii_total`` appended, redacted from ``text_col``."""
    for name, arr in redact_pii_batch(batch.column(text_col)).items():
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        batch = batch.append_column(name, arr)
    return batch


def redact_pii(ds, text_col: str = "text"):
    """Dataset op: ``append_pii_columns`` on every batch. Stateless task
    stage — no shuffle, no actor pool (patterns are module constants
    compiled once per worker process by RE2's internal cache)."""
    return ds.map_batches(append_pii_columns, fn_kwargs={"text_col": text_col},
                          batch_format="pyarrow")
