"""Benchmark inputs: transcript corpora made from the run's seed.

Every corpus is generated in this one process by the package's own
``synthesize_transcripts`` (the FIXTURES §2 class mix), written as Parquet
shards and cached under the work directory by its parameters. A corpus is
written into a private temporary directory and renamed into place only when
it is complete, so a killed run never leaves a half-written corpus that a
later run would reuse.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

# Bump when the generator below changes, so cached corpora are rebuilt.
CORPUS_VERSION = 1
N_FILES = 8
# The production-shaped list: 43,378 synthetic entries (seed fixed, so the
# list is the same artifact on every run), joined with the packaged list.
WORDLIST_SIZE = 43_378
WORDLIST_SEED = 42
WARM_SEED = 7
WARM_TURNS = 2_000


@dataclasses.dataclass(frozen=True)
class CorpusSpec:
    turns: int
    skew: bool = False
    # share of turns that get one word of the 43k list planted into them
    plant_share: float = 0.0

    def key(self, seed: int) -> str:
        return (f"v{CORPUS_VERSION}-n{self.turns}-s{seed}-skew{int(self.skew)}"
                f"-plant{self.plant_share:g}-f{N_FILES}")


@functools.cache
def _synthetic_words() -> tuple[str, ...]:
    from chinese_corpus_cleaning_ray.functions.wordlists import synthesize_wordlist

    return tuple(synthesize_wordlist(WORDLIST_SIZE, seed=WORDLIST_SEED))


def production_wordlist() -> list[str]:
    from chinese_corpus_cleaning_ray.functions.wordlists import load_words

    return sorted(set(_synthetic_words()) | set(load_words()))


def _plant(table: pa.Table, share: float, seed: int) -> pa.Table:
    """Insert one word of the synthetic 43k list at a random position of a
    ``share`` of the turns, so the production-sized trie really scrubs."""
    words = _synthetic_words()
    rng = random.Random(seed * 7919 + 1)
    texts = table.column("text").to_pylist()
    for i, t in enumerate(texts):
        if rng.random() < share:
            at = rng.randint(0, len(t))
            texts[i] = t[:at] + rng.choice(words) + t[at:]
    return table.set_column(table.schema.get_field_index("text"), "text",
                            pa.array(texts, pa.string()))


def clear_dead(base: str, marker: str) -> None:
    """Remove the entries of ``base`` named ``<anything><marker><pid>`` whose
    process is gone: the leftovers of runs that were killed."""
    import psutil

    for d in os.listdir(base) if os.path.isdir(base) else ():
        if marker not in d:
            continue
        pid = d.rsplit(marker, 1)[1]
        if not (pid.isdigit() and psutil.pid_exists(int(pid))):
            shutil.rmtree(os.path.join(base, d), ignore_errors=True)


def ensure_corpus(work_dir: str, spec: CorpusSpec, seed: int) -> str:
    """Return the directory of the corpus for ``(spec, seed)``, generating it
    first when it is not cached."""
    from chinese_corpus_cleaning_ray.sources.transcripts import synthesize_transcripts

    base = os.path.join(work_dir, "corpora")
    os.makedirs(base, exist_ok=True)
    final = os.path.join(base, spec.key(seed))
    if os.path.isdir(final):
        return final
    clear_dead(base, ".tmp-")
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    table = synthesize_transcripts(spec.turns, seed=seed, skew=spec.skew)
    if spec.plant_share:
        table = _plant(table, spec.plant_share, seed)
    rows_per_file = math.ceil(spec.turns / N_FILES)
    # four row groups per shard: Ray splits a shard into several read blocks
    row_group = max(1, math.ceil(rows_per_file / 4))
    for fi, off in enumerate(range(0, table.num_rows, rows_per_file)):
        pq.write_table(table.slice(off, rows_per_file),
                       os.path.join(tmp, f"transcripts-{fi:05d}.parquet"),
                       row_group_size=row_group)
    os.rename(tmp, final)
    return final


def corpus_files(corpus_dir: str) -> list[str]:
    return sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir)
                  if f.endswith(".parquet"))


def corpus_turns(corpus_dir: str) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in corpus_files(corpus_dir))
