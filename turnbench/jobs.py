"""Workloads, the Ray session each run starts, and the jobs it times.

Every job goes through the package's public entry points only:
``state.checkpoint.run_quality_job`` for the flagship workloads and
``pipelines.conversations.dedup_conversation_turns`` /
``conversation_prefix_dedup`` for conversation dedup.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import shutil
import signal
import tempfile
import time

import psutil

from corpus import CorpusSpec, WARM_TURNS, corpus_files, corpus_turns, production_wordlist
from proctree import reap

# Two CPUs stay for Ray's own processes and the read tasks; on 4 CPUs
# stages/pools.py:resolve_pool(reserve=2) then gives each actor pool one actor.
RAY_CPUS = min(4, len(os.sched_getaffinity(0)))
OBJECT_STORE_BYTES = 256 * 2**20
# AF_UNIX socket paths are limited to 107 bytes on Linux.
SOCKET_PATH_MAX = 107


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "flagship" or "conv"
    corpus: CorpusSpec
    perplexity: bool = False
    production_list: bool = False

    @property
    def cfg(self):
        from chinese_corpus_cleaning_ray.config import DEFAULT_CONFIG

        return dataclasses.replace(DEFAULT_CONFIG, enable_perplexity=self.perplexity)

    def engine_words(self):
        """``words=`` for run_quality_job: None selects the packaged list."""
        return production_wordlist() if self.production_list else None

    def oracle_words(self) -> list[str]:
        from chinese_corpus_cleaning_ray.functions.wordlists import load_words

        return production_wordlist() if self.production_list else load_words()

    def warm_corpus(self) -> CorpusSpec:
        return dataclasses.replace(self.corpus, turns=WARM_TURNS)


# Corpus sizes are chosen so one job takes a few seconds on 4 CPUs, which
# lets a run time several whole jobs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("flagship_mix", "flagship", CorpusSpec(40_000)),
        Workload("flagship_43k", "flagship", CorpusSpec(8_000, plant_share=0.2),
                 production_list=True),
        Workload("flagship_ppl", "flagship", CorpusSpec(4_000), perplexity=True),
        Workload("conv_dedup_skew", "conv", CorpusSpec(10_000, skew=True)),
    )
}


def _ray_temp_dir(work_dir: str) -> str:
    """Ray's session directory: inside the work directory when its socket
    paths fit, else a short private directory under the system temp dir.
    Either is removed when the session ends."""
    cand = os.path.join(work_dir, "ray")
    longest = os.path.join(cand, "session_0000-00-00_00-00-00_000000_4194304",
                           "sockets", "plasma_store")
    if len(longest.encode()) <= SOCKET_PATH_MAX:
        return cand
    return tempfile.mkdtemp(prefix="tb-", dir="/tmp")


class RaySession:
    """A fresh single-node Ray session with a fixed CPU count; on exit it
    shuts Ray down and reaps every process the session started."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir

    def __enter__(self) -> "RaySession":
        import ray

        self.temp_dir = _ray_temp_dir(self.work_dir)
        # ray.init installs its own SIGTERM handler, which ends the process
        # without unwinding; put back ours so the session is torn down
        sigterm = signal.getsignal(signal.SIGTERM)
        t0 = time.perf_counter()
        try:
            ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                     log_to_driver=False, logging_level="ERROR",
                     object_store_memory=OBJECT_STORE_BYTES,
                     _node_ip_address="127.0.0.1", _temp_dir=self.temp_dir)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.init_s = time.perf_counter() - t0
        signal.signal(signal.SIGTERM, sigterm)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        return self

    def __exit__(self, *exc) -> None:
        import ray

        seen = psutil.Process().children(recursive=True)
        try:
            ray.shutdown()
        finally:
            reap(seen)
            # the session's logs and sockets; each run starts its own session
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def _import_stages() -> None:
    import chinese_corpus_cleaning_ray.pipelines.conversations  # noqa: F401
    import chinese_corpus_cleaning_ray.state.checkpoint  # noqa: F401
    import chinese_corpus_cleaning_ray.stages.quality_stages  # noqa: F401

    # hold this worker so the other tasks must start their own
    time.sleep(0.5)


def warm_workers() -> None:
    """Give every CPU a worker that has imported the package. Ray Data's
    first execution turns two of the pre-started workers into its own
    actors, so without this the first timed job starts and imports two new
    workers, and pays for it."""
    import ray

    task = ray.remote(num_cpus=1)(_import_stages)
    ray.get([task.remote() for _ in range(RAY_CPUS)])


def run_job(w: Workload, corpus_dir: str, out_dir: str, words, span=None) -> dict:
    """One whole job. Returns the flagship's counters, or, for conversation
    dedup, the input turn count under ``total``. ``span(name)`` is a context
    manager around each conversation stage (the traced run's tracer)."""
    if w.kind == "flagship":
        from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

        return run_quality_job(corpus_dir, out_dir, w.cfg, resume=False, words=words)

    import ray.data

    from chinese_corpus_cleaning_ray.pipelines.conversations import (
        conversation_prefix_dedup,
        dedup_conversation_turns,
    )

    span = span or (lambda name: contextlib.nullcontext())
    with span("conversations.turn_dedup"):
        kept = dedup_conversation_turns(ray.data.read_parquet(corpus_files(corpus_dir)))
        kept = kept.materialize()
    with span("conversations.prefix_dedup"):
        prefixes = conversation_prefix_dedup(kept).materialize()
    with span("conversations.write"):
        kept.write_parquet(os.path.join(out_dir, "kept"))
        prefixes.write_parquet(os.path.join(out_dir, "prefix"))
    return {"total": corpus_turns(corpus_dir)}


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total
