"""Spans, Spark job readout and the interval arithmetic behind the layer metrics.

A traced query is a tree of spans::

    query ─┬─ orderings ── one span per Spark job
           └─ mining ───── one span per Spark job

and each set-up repetition is ``setup`` → ``session``, ``generators``,
``graph``. Every layer call runs under its own Spark job group
(``<layer>:<query id>``); after the query, outside its timed region, the
jobs of that group are read from ``SparkContext.statusTracker()`` and the
JVM status store (which works with the UI disabled), and their stages are
summed into the layer's metrics. Spans stay in memory and are written out
once, when the run ends.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


def median(values) -> float:
    return float(statistics.median(values))


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    return union_length(
        (max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)
    )


@dataclass
class StageStats:
    """One Spark stage attempt, as the status store reports it."""

    tasks: int
    failed_tasks: int
    busy_s: float       # Σ executorRunTime
    cpu_s: float        # Σ executorCpuTime
    gc_s: float
    fetch_wait_s: float
    shuffle_bytes: int  # shuffle bytes written


def layer_metrics(wall_s: float, jobs, stages, cores: int) -> dict:
    """Metrics of one layer call from its wall time, job intervals and stages.

    ``job_wall_s`` is the time covered by the union of the jobs'
    submission→completion intervals, ``driver_s`` the rest of the wall
    time, and ``util`` the share of the cores the jobs kept busy.
    """
    job_wall = union_length(jobs)
    busy = sum(s.busy_s for s in stages)
    cpu = sum(s.cpu_s for s in stages)
    return {
        "wall_s": wall_s,
        "jobs": len(jobs),
        "stages": len(stages),
        "tasks": sum(s.tasks for s in stages),
        "failed_tasks": sum(s.failed_tasks for s in stages),
        "job_wall_s": job_wall,
        "driver_s": wall_s - job_wall,
        "busy_s": busy,
        "cpu_s": cpu,
        "util": busy / (job_wall * cores) if job_wall > 0 else 0.0,
        "offcpu_s": busy - cpu,
        "gc_s": sum(s.gc_s for s in stages),
        "fetch_wait_s": sum(s.fetch_wait_s for s in stages),
        "shuffle_mb": sum(s.shuffle_bytes for s in stages) / 1e6,
    }


class Tracer:
    """Records spans and tags each layer call with a Spark job group."""

    def __init__(self, cores: int):
        self.cores = cores
        self.sc = None
        self.spans: list[dict] = []
        self._seen_stages: set[int] = set()

    def attach(self, sc) -> None:
        """Read jobs from ``sc`` from now on; a new context numbers stages from 0."""
        self.sc = sc
        self._seen_stages.clear()

    @contextmanager
    def span(self, name: str, parent: dict | None = None, query=None):
        rec = {"id": len(self.spans), "name": name,
               "parent": None if parent is None else parent["id"],
               "query": query, "start": time.time(), "end": None}
        self.spans.append(rec)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.time()
            rec["wall_s"] = time.perf_counter() - t0

    @contextmanager
    def layer(self, name: str, parent: dict, query):
        """A layer call whose Spark jobs are tagged ``<name>:<query>``."""
        group = f"{name}:{query}"
        self.sc.setJobGroup(group, name)
        try:
            with self.span(name, parent, query) as rec:
                rec["group"] = group
                yield rec
        finally:
            self.sc._jsc.clearJobGroup()

    def read_layer(self, rec: dict) -> dict:
        """Attach job spans and stage totals to a finished layer span."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        jobs, stages = [], []
        for job_id in sorted(self.sc.statusTracker().getJobIdsForGroup(rec["group"])):
            job = store.job(job_id)
            start = job.submissionTime().get().getTime() / 1000.0
            end = job.completionTime().get().getTime() / 1000.0
            jobs.append((start, end))
            self.spans.append({"id": len(self.spans), "name": f"job {job_id}",
                               "parent": rec["id"], "query": rec["query"],
                               "start": start, "end": end,
                               "status": job.status().toString()})
            ids = job.stageIds()
            for i in range(ids.size()):
                stage = self._stage(store, ids.apply(i))
                if stage is not None:
                    stages.append(stage)
        rec["metrics"] = layer_metrics(rec["wall_s"], jobs, stages, self.cores)
        return rec["metrics"]

    def _stage(self, store, stage_id: int) -> StageStats | None:
        """A stage's totals the first time it is seen, unless it was skipped.

        A shuffle map stage keeps its id when a later job reuses its
        output, so each stage is counted once, in the layer that ran it.
        """
        if stage_id in self._seen_stages:
            return None
        s = store.lastStageAttempt(stage_id)
        if s.status().toString() == "SKIPPED":
            return None
        self._seen_stages.add(stage_id)
        return StageStats(
            tasks=s.numTasks(),
            failed_tasks=s.numFailedTasks(),
            busy_s=s.executorRunTime() / 1e3,
            cpu_s=s.executorCpuTime() / 1e9,
            gc_s=s.jvmGcTime() / 1e3,
            fetch_wait_s=s.shuffleFetchWaitTime() / 1e3,
            shuffle_bytes=s.shuffleWriteBytes(),
        )

    def write(self, path: Path, environment: dict) -> None:
        """Write the environment and every span, with its self time, as JSON."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        for s in self.spans:
            s["self_s"] = (s["end"] - s["start"]) - covered(
                children.get(s["id"], []), s["start"], s["end"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"environment": environment, "spans": self.spans},
                                   indent=1))
