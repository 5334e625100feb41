"""GMS benchmark: one seeded mining workload, run through the public API.

    python3 perfbench/run.py --workload mc-caveman --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client in one driver process; each
query waits for the previous one; Spark ``local[*]``. The session comes
from the program's own factory, ``jobs/_common.get_spark``; master,
driver memory and scratch directories are deployment settings passed
through ``PYSPARK_SUBMIT_ARGS``. The program sees only the edges
generated from ``--seed``.

A run sets up ``SETUP_REPS`` times (session start, generation,
``Graph.from_pandas`` + ``adjacency()`` materialised), runs untimed
warm-up queries until ``WARMUP_S`` have passed (at least one), then timed
queries until ``--seconds`` have passed and at least ``MIN_TIMED`` have
run. Every query is checked outside its timed region; one that raises or
returns a wrong answer counts as failed.
The first set-up launches the JVM, as every ``jobs/*.py`` run does, and is
reported alone as ``cold_setup_s``; the later ones reuse the JVM, so
``setup_s``, the median of all of them, is a set-up in a running JVM.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` tags every
layer call with a Spark job group, reads the jobs and stages back from
the status store, reports the per-layer metrics and writes the spans to
``perfbench/out/``. The timed queries of a traced run are half traced
and half untraced, at least ``MIN_TIMED`` of each, and
``trace.overhead_s`` is the difference of their medians. The last line
of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer_metrics, median
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 3
MIN_TIMED = 2
# Queries get faster over about a dozen runs as the JVM compiles Spark's
# code. Warming up for a fixed time gives a short query (tc-rmat) several
# warm-up runs, so the number of timed queries in the window moves their
# median less.
WARMUP_S = 10.0
DRIVER_MEMORY = "2g"

END_TO_END = {"setup_s": "s", "cold_setup_s": "s", "query_s.p50": "s",
              "patterns_per_s": "1/s"}
LAYER_UNITS = {
    "wall_s": "s", "rounds": "count", "jobs": "count", "stages": "count",
    "tasks": "count", "failed_tasks": "count", "job_wall_s": "s", "driver_s": "s",
    "busy_s": "s", "cpu_s": "s", "util": "ratio", "shuffle_mb": "MB",
    "offcpu_s": "s", "gc_s": "s", "fetch_wait_s": "s", "patterns": "count",
}
ORDERINGS_FIELDS = ["wall_s", "rounds", "jobs", "stages", "tasks", "failed_tasks",
                    "job_wall_s", "driver_s", "busy_s", "cpu_s", "util", "shuffle_mb"]
MINING_FIELDS = [f for f in ORDERINGS_FIELDS if f != "rounds"] + [
    "offcpu_s", "gc_s", "fetch_wait_s", "patterns"]
PER_LAYER = {
    "session.launch_s": "s", "session.start_s": "s", "session.warmup_s": "s",
    "generators.gen_s": "s", "generators.edges": "count",
    "graph.represent_s": "s", "graph.jobs": "count", "graph.tasks": "count",
    "graph.busy_s": "s", "graph.shuffle_mb": "MB",
    **{f"orderings.{f}": LAYER_UNITS[f] for f in ORDERINGS_FIELDS},
    **{f"mining.{f}": LAYER_UNITS[f] for f in MINING_FIELDS},
    "query.wall_s": "s", "query.untraced_s": "s", "query.layer_share": "ratio",
    "query.samples": "count", "trace.overhead_s": "s", "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class QueryContext:
    """What a workload's query sees: the graph, and ``layer(name)`` to wrap
    a call into an ``orderings``/``mining`` layer."""

    def __init__(self, graph, tracer: Tracer | None = None, qid: int | None = None):
        self.graph = graph
        self.tracer, self.qid = tracer, qid
        self.recorder = None
        self.span = None
        self.layers: dict[str, dict] = {}
        if tracer is not None:
            # for the orderings' rounds only: kclique_count(recorder=...)
            # would add an aggregate job per level to the measured program
            from repro.core.work_depth import WorkDepthRecorder
            self.recorder = WorkDepthRecorder()

    @contextmanager
    def timed(self):
        if self.tracer is None:
            yield
            return
        with self.tracer.span("query", query=self.qid) as rec:
            self.span = rec
            yield

    @contextmanager
    def layer(self, name: str):
        if self.tracer is None:
            yield
            return
        with self.tracer.layer(name, self.span, self.qid) as rec:
            self.layers[name] = rec
            yield


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    warmup_s: float = 0.0  # the first, untimed query
    times: list[float] = field(default_factory=list)  # timed queries
    rates: list[float] = field(default_factory=list)  # their patterns/s; 0 if wrong


def run_queries(workload, expected, ctx_for, seconds: float, min_timed: int,
                warmup_s: float, after=None) -> Tally:
    """Warm-up queries until ``warmup_s`` have passed (at least one), then
    timed queries until ``seconds`` have passed and at least ``min_timed``
    ran. ``after(i, ctx, seconds, result)`` runs outside the timed region
    of query ``i``: 0 for a warm-up query, 1, 2, .. for the timed ones."""
    tally = Tally()
    warm_until = time.perf_counter() + warmup_s
    deadline = None
    i = 0
    while deadline is None or i <= min_timed or time.perf_counter() < deadline:
        ctx = ctx_for(i)
        ok, result = False, None
        t0 = time.perf_counter()
        try:
            with ctx.timed():
                raw = workload.query(ctx)
            elapsed = time.perf_counter() - t0
            result = workload.readback(raw)
            ok = workload.check(result, expected)
        except Exception:  # a failed query is counted, not fatal
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
        tally.attempted += 1
        tally.failed += not ok
        if i == 0:
            if tally.attempted == 1:
                tally.warmup_s = elapsed
        else:
            tally.times.append(elapsed)
            tally.rates.append(workload.patterns(result) / elapsed if ok else 0.0)
        if after is not None:
            after(i, ctx, elapsed, result if ok else None)
        if i > 0:
            i += 1
        elif time.perf_counter() >= warm_until:
            i, deadline = 1, time.perf_counter() + seconds
    return tally


def _span(tracer, name, parent=None):
    return tracer.span(name, parent) if tracer else nullcontext()


def set_up(workload, seed: int, tracer: Tracer | None):
    """``SETUP_REPS`` set-ups; the last one's session and graph are kept."""
    from _common import get_spark
    from repro.core.graph import Graph

    spark, reps = None, []
    for r in range(SETUP_REPS):
        if spark is not None:
            spark.stop()
        with _span(tracer, "setup") as setup:
            t0 = time.perf_counter()
            with _span(tracer, "session", setup):
                spark = get_spark(f"perfbench-{workload.name}")
            t1 = time.perf_counter()
            with _span(tracer, "generators", setup):
                edges = workload.generate(seed)
            t2 = time.perf_counter()
            if tracer is not None:
                tracer.attach(spark.sparkContext)
            layer = tracer.layer("graph", setup, f"setup{r}") if tracer else nullcontext()
            with layer as graph_span:
                graph = Graph.from_pandas(spark, edges)
                graph.adjacency().count()
            t3 = time.perf_counter()
        spark.sparkContext.setLogLevel("ERROR")
        rep = {"setup_s": t3 - t0, "start_s": t1 - t0, "gen_s": t2 - t1,
               "represent_s": t3 - t2, "edges": len(edges)}
        if tracer is not None:
            rep["graph"] = tracer.read_layer(graph_span)
        reps.append(rep)
    return spark, graph, edges, reps


def peak_rss_mb(pid: int) -> float:
    """Σ VmHWM over ``pid`` and its descendants (JVM, Python workers)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    total_kb, todo = 0, [pid]
    while todo:
        p = todo.pop()
        todo.extend(children.get(p, []))
        try:
            status = Path(f"/proc/{p}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def environment(spark) -> dict:
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": DRIVER_MEMORY,
    }


def stop_spark(spark) -> None:
    """Stop the session and the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def end_to_end(reps, tally: Tally) -> dict:
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "cold_setup_s": reps[0]["setup_s"],
        "query_s.p50": median(tally.times),
        "patterns_per_s": median(tally.rates),
    }


def per_layer(reps, tally: Tally, traced: list[dict], untraced: list[float],
              rss_mb: float) -> dict:
    """Medians over set-ups and traced queries; a layer the query does not
    call (orderings on tc-rmat) reports zeros."""
    def layer(name, fields):
        rows = [q[name] for q in traced]
        return {f"{name}.{f}": median(r[f] for r in rows) for f in fields}

    query_s = median(q["query_s"] for q in traced)
    return {
        "session.launch_s": reps[0]["start_s"],
        "session.start_s": median(r["start_s"] for r in reps),
        "session.warmup_s": tally.warmup_s,
        "generators.gen_s": median(r["gen_s"] for r in reps),
        "generators.edges": reps[-1]["edges"],
        "graph.represent_s": median(r["represent_s"] for r in reps),
        **{f"graph.{f}": median(r["graph"][f] for r in reps)
           for f in ("jobs", "tasks", "busy_s", "shuffle_mb")},
        **layer("orderings", ORDERINGS_FIELDS),
        **layer("mining", MINING_FIELDS),
        "query.wall_s": query_s,
        "query.untraced_s": median(untraced),
        "query.layer_share": median(
            (q["orderings"]["wall_s"] + q["mining"]["wall_s"]) / q["query_s"]
            for q in traced),
        "query.samples": len(tally.times),
        "trace.overhead_s": query_s - median(untraced),
        "fail_ratio": tally.failed / tally.attempted,
        "peak_rss_mb": rss_mb,
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer(cores=os.cpu_count() or 1) if trace else None
    spark, graph, edges, reps = set_up(workload, seed, tracer)
    try:
        expected = workload.expect(edges)
        traced, untraced = [], []
        # timed queries alternate traced/untraced as T U U T T U U T ..., so
        # that warming over the run does not bias trace.overhead_s
        is_traced = (lambda i: trace and i > 0 and i % 4 in (0, 1))

        def ctx_for(i):
            return QueryContext(graph, tracer if is_traced(i) else None, qid=i)

        def after(i, ctx, elapsed, result):
            if i == 0:
                return
            if not is_traced(i):
                untraced.append(elapsed)
                return
            q = {"query_s": elapsed}
            for name in ("orderings", "mining"):
                rec = ctx.layers.get(name)
                q[name] = (tracer.read_layer(rec) if rec is not None
                           else layer_metrics(0.0, [], [], tracer.cores))
            q["orderings"]["rounds"] = ctx.recorder.iterations
            q["mining"]["patterns"] = 0 if result is None else workload.patterns(result)
            traced.append(q)

        tally = run_queries(workload, expected, ctx_for, seconds,
                            2 * MIN_TIMED if trace else MIN_TIMED, WARMUP_S,
                            after if trace else None)
        rss = peak_rss_mb(os.getpid())
        env = environment(spark)
    finally:
        stop_spark(spark)
    if trace:
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json", env)
        metrics = per_layer(reps, tally, traced, untraced, rss)
        units = PER_LAYER
    else:
        metrics = end_to_end(reps, tally)
        units = END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def _deploy(tmp: Path, trace: bool) -> None:
    """Deployment settings, fixed before the JVM starts."""
    conf = ["spark.driver.host=127.0.0.1", "spark.ui.enabled=false",
            "spark.ui.showConsoleProgress=false"]
    if trace:  # keep every job and stage of a query in the status store
        conf += ["spark.ui.retainedJobs=1000000", "spark.ui.retainedStages=1000000"]
    args = ["--master", "local[*]", "--driver-memory", DRIVER_MEMORY]
    for c in conf:
        args += ["--conf", c]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    # Spark's local dirs, every JVM (the launcher's too) and the Python
    # workers write under ``tmp``
    os.environ["SPARK_LOCAL_DIRS"] = os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [src, str(ROOT / "jobs")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        print(f"perfbench: no program to measure under {ROOT} (src/repro, jobs/_common.py)",
              file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        _deploy(tmp, bool(args.trace))
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload:<11} {name:<22} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<11} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
