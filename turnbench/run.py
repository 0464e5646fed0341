#!/usr/bin/env python3
"""Benchmark of the checkpointed filter+scrub job and of conversation dedup.

    python3 turnbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 turnbench/run.py --smoke

One invocation runs one workload (see ``jobs.WORKLOADS``) in a fresh
single-node Ray session: one set-up (Ray start plus an untimed warm-up job on
a tiny corpus), then whole timed jobs until ``--seconds`` of job wall time
have passed. Every timed job's output is checked apart from the engine
(``checks.py``), and one resume re-run per run must find nothing to do. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ledger of ``ledger.py``. ``--smoke`` runs every
workload once at a tiny size with its checks and the checks' self-test.
Units and metric names come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# this run's job outputs; removed at exit, or by a later run if this one is killed
OUT = os.path.join(WORK, "out", f"run-{os.getpid()}")


def _prepare_process() -> None:
    """Import the package (and, in Ray workers, the benchmark's own modules)
    from this checkout; keep temporary files inside it; turn SIGTERM into an
    interrupt so the session is torn down and reaped on every exit path."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE] + ([old] if old else []))
    for var in ("RAY_ADDRESS", "RAY_TMPDIR"):
        os.environ.pop(var, None)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")

    def interrupt(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupt)


def _spec_units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def _resume_check(w, corpus: str, out: str, words, first: dict) -> list[tuple[str, str]]:
    """A resume=True re-run over a committed output processes 0 files,
    deletes 0 pieces and reports the first run's counters."""
    from chinese_corpus_cleaning_ray.state.checkpoint import run_quality_job

    again = run_quality_job(corpus, out, w.cfg, resume=True, words=words)
    fails = []
    for k, want in (("files_this_run", 0), ("pieces_cleaned", 0)):
        if again[k] != want:
            fails.append(("resume", f"{k} = {again[k]}"))
    for k in ("total", "kept", "errors", "scrubbed", "files_done"):
        if again[k] != first[k]:
            fails.append(("resume", f"{k}: first {first[k]}, resumed {again[k]}"))
    return fails


class Run:
    """State shared by the three modes: the workload, its inputs and the
    oracle sample, all prepared before Ray starts."""

    def __init__(self, name: str, seed: int, sample: int | None, tiny: bool = False):
        import checks
        from corpus import WARM_SEED, corpus_turns, ensure_corpus
        from jobs import WORKLOADS

        self.w = WORKLOADS[name]
        spec = self.w.warm_corpus() if tiny else self.w.corpus
        self.corpus = ensure_corpus(WORK, spec, WARM_SEED if tiny else seed)
        self.warm = ensure_corpus(WORK, self.w.warm_corpus(), WARM_SEED)
        self.turns = corpus_turns(self.corpus)
        self.words = self.w.engine_words()
        self.oracle = (checks.FlagshipOracle(self.w.oracle_words(), self.w.cfg, self.corpus,
                                             sample, seed)
                       if self.w.kind == "flagship" else None)
        self.out = os.path.join(OUT, name)

    def job(self, corpus: str, out: str, span=None) -> tuple[dict, float]:
        from jobs import run_job

        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        totals = run_job(self.w, corpus, out, self.words, span)
        return totals, time.perf_counter() - t0

    def check(self, out: str, totals: dict, resume: bool = False) -> list[tuple[str, str]]:
        """The output checks, and with ``resume`` the resume re-run; an
        exception in either is a failed check."""
        import checks

        try:
            if self.w.kind != "flagship":
                return checks.check_conv(self.corpus, out)
            fails = checks.check_flagship(self.corpus, out, self.w.cfg.num_partitions, totals,
                                          self.oracle)
            if resume:
                fails += _resume_check(self.w, self.corpus, out, self.words, totals)
            return fails
        except Exception as e:
            traceback.print_exc()
            return [("check raised", repr(e))]

    def warm_up(self) -> float:
        """The untimed warm-up job on the tiny corpus, then a worker per CPU
        with the package imported. Returns its wall seconds."""
        from jobs import warm_workers

        t0 = time.perf_counter()
        self.job(self.warm, os.path.join(OUT, "warm"))
        warm_workers()
        return time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, import_s: float) -> dict:
    from checks import ORACLE_SAMPLE
    from jobs import RaySession, dir_bytes
    from proctree import Measure

    r = Run(name, seed, ORACLE_SAMPLE)
    jobs: list[dict] = []
    fails: list[tuple[str, str]] = []
    with RaySession(WORK) as session:
        setup_s = import_s + session.init_s + r.warm_up()
        timed = 0.0
        while timed < seconds or not jobs:
            t0 = time.perf_counter()
            try:
                with Measure() as m:
                    totals, wall = r.job(r.corpus, r.out)
            except Exception:
                traceback.print_exc()
                timed += time.perf_counter() - t0
                jobs.append({"raised": True})
                continue
            timed += wall
            print(f"job {len(jobs)}: {wall:.3f} s, {m.cpu_s:.2f} cpu-s", file=sys.stderr)
            job_fails = r.check(r.out, totals, resume=not jobs)
            fails += job_fails
            jobs.append({"raised": False, "failed": bool(job_fails),
                         "wall": wall, "cpu": m.cpu_s, "pss": m.peak_pss,
                         "out_bytes": dir_bytes(r.out)})
    ran = [j for j in jobs if not j["raised"]]
    if not ran:
        raise RuntimeError("every timed job raised")
    for check, detail in fails:
        print(f"check failed: {check}: {detail}", file=sys.stderr)
    metrics = {
        "turns_per_s": statistics.median(r.turns / j["wall"] for j in ran),
        "setup_s": setup_s,
        "cpu_s_per_mturn": sum(j["cpu"] for j in ran) / (r.turns * len(ran)) * 1e6,
        "peak_rss_mb": statistics.median(j["pss"] for j in ran) / 1e6,
        "out_mb_per_mturn": statistics.median(j["out_bytes"] for j in ran) / r.turns,
    }
    return {"correct": not fails, "attempted": len(jobs),
            "failed": sum(j["raised"] or j["failed"] for j in jobs), "metrics": metrics}


def trace(name: str, seed: int) -> dict:
    import ledger
    from checks import ORACLE_SAMPLE
    from corpus import corpus_files
    from jobs import RAY_CPUS, RaySession, WORKLOADS, run_job
    from proctree import Measure, host_cpu_ticks

    r = Run(name, seed, ORACLE_SAMPLE)
    tr = ledger.Tracer()
    with RaySession(WORK) as session:
        warm_s = r.warm_up()
        _, untraced_s = r.job(r.corpus, r.out)
        steal0, ticks0 = host_cpu_ticks()
        with Measure() as m:
            with tr.span("job"):
                totals, traced_s = r.job(r.corpus, r.out, span=tr.span)
        steal1, ticks1 = host_cpu_ticks()
        fails = r.check(r.out, totals)
        n_files = len(glob.glob(os.path.join(r.out, "**", "*.parquet"), recursive=True))
        if r.w.kind == "flagship":
            # the conversation stages over this workload's corpus
            run_job(WORKLOADS["conv_dedup_skew"], r.corpus, os.path.join(OUT, "conv"), None,
                    span=tr.span)
    layers = ledger.flagship_layers(tr, r.w, corpus_files(r.corpus), os.path.join(OUT, "layers"))
    inproc_us = layers.pop("inproc_us")
    job_cpu_us = m.cpu_s * 1e6 / r.turns
    metrics = {
        **layers,
        "checkpoint.pieces_per_mturn": n_files * 1e6 / r.turns,
        "ray.cpu_busy_share": m.cpu_s / (traced_s * RAY_CPUS),
        "ray.overhead_us_per_turn": job_cpu_us - inproc_us,
        "ray.parallel_efficiency": (r.turns / traced_s) / (RAY_CPUS * 1e6 / inproc_us),
        "setup.ray_init_s": session.init_s,
        "setup.warm_job_s": warm_s,
        **{f"{s}_us_per_turn": tr.total_s(s) * 1e6 / r.turns
           for s in ("conversations.turn_dedup", "conversations.prefix_dedup",
                     "conversations.write")},
        "trace.overhead_s": traced_s - untraced_s,
        "host.steal_share": (steal1 - steal0) / max(1, ticks1 - ticks0),
    }
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tr.write(os.path.join(WORK, "traces", f"{name}-{seed}-{os.getpid()}.json"))
    for check, detail in fails:
        print(f"check failed: {check}: {detail}", file=sys.stderr)
    return {"correct": not fails, "attempted": 2, "failed": int(bool(fails)), "metrics": metrics}


def smoke() -> dict:
    """Every workload once on its tiny warm-up corpus, each output checked in
    full, then the checks' self-test on the small outputs."""
    import checks
    from jobs import RaySession, WORKLOADS

    report: dict = {}
    kept: dict = {}
    with RaySession(WORK):
        for name in WORKLOADS:
            r = Run(name, 0, None, tiny=True)
            totals, wall = r.job(r.corpus, r.out)
            fails = r.check(r.out, totals, resume=True)
            report[name] = {"wall_s": round(wall, 3), "failures": fails}
            kept[name] = (r, totals)
    (mix, mix_totals), (conv, _) = kept["flagship_mix"], kept["conv_dedup_skew"]
    report["selftest"] = checks.selftest(
        OUT, (mix.corpus, mix.out, mix.w.cfg.num_partitions, mix_totals, mix.oracle),
        (conv.corpus, conv.out))
    ok = (all(not v["failures"] for k, v in report.items() if k != "selftest")
          and all(report["selftest"].values()))
    return {"ok": ok, "smoke": report}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    _prepare_process()
    import chinese_corpus_cleaning_ray  # noqa: F401  (fails fast outside a checkout)
    import ray  # noqa: F401
    import psutil  # vendored by Ray, importable once ray is

    import_s = time.time() - psutil.Process().create_time()
    from corpus import clear_dead
    from jobs import WORKLOADS

    if not args.smoke and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    clear_dead(os.path.dirname(OUT), "run-")
    # Ray and its libraries log to standard output; keep it for the result.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        if args.smoke:
            result = smoke()
        elif args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds, import_s)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(result_fd, 1)
    if not args.smoke:
        units = _spec_units("per_layer" if args.trace else "end_to_end")
        result["metrics"] = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    print(json.dumps(result, default=str), flush=True)
    return 0 if result.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
