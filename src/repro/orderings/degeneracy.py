"""Peeling engine for DGR and ADG, exact degeneracy ordering + k-cores (§6.1).

Both orderings are the same set-algebra loop (paper Alg. 5): with U the
remaining vertices, take the batch R = {v ∈ U : |N_U(v)| ≤ t} and set
U ← U ∖ R. Only the per-round threshold t differs:

* DGR (exact peeling): t = max(k, min deg_U), with k the previous round's
  t. Removing a whole batch keeps the ordering a valid degeneracy ordering
  (every batch member has ≤ t ≤ d remaining neighbours, however the batch
  is ordered internally) and each vertex's t is exactly its core number.
  This is the Θ(n)-round-worst-case scheme the paper contrasts with ADG's
  O(log n) rounds.
* ADG: t = (1+ε)·avg deg_U, see ``repro.orderings.adg``.

The round count is surfaced through a ``WorkDepthRecorder`` so Tables 5/6
can be validated empirically. ``localCheckpoint`` truncates the lineage
each round so plans do not grow linearly with rounds.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder


def _residual_stats(degs: DataFrame) -> tuple[int, int, int]:
    """(min deg, Σ deg, |U|) of the residual degree table, in one job."""
    return tuple(degs.agg(F.min("deg"), F.sum("deg"), F.count("*")).first())


def peel(
    graph: Graph,
    threshold: Callable[[int, int, int], float],
    recorder: WorkDepthRecorder | None = None,
) -> DataFrame:
    """(vertex, rank, level) — peel batches of low residual degree.

    Each round, ``threshold(min deg, Σ deg, |U|)`` over the residual
    degrees gives t; every vertex with degree ≤ t leaves U with
    ``level`` = t. The threshold must be ≥ the minimum degree, so each
    round removes at least one vertex. ``rank`` is the peeling position:
    batch i before batch i+1, vertex ID order inside a batch.
    """
    rec = recorder or WorkDepthRecorder()
    sym = graph.symmetric_edges().localCheckpoint(eager=True)
    degs = graph.degrees().localCheckpoint(eager=True)
    min_deg, deg_sum, left = _residual_stats(degs)
    n = left
    batches: list[DataFrame] = []
    while left:
        rec.round()
        t = threshold(min_deg, deg_sum, left)
        # ``start``, the batch's first rank, also keys the batch.
        batches.append(degs.where(F.col("deg") <= t).select(
            "vertex", F.lit(n - left).alias("start"), F.lit(t).alias("level")))
        kept = degs.where(F.col("deg") > t).select("vertex")
        sym = (
            sym.join(kept.withColumnRenamed("vertex", "src"), "src", "left_semi")
            .join(kept.withColumnRenamed("vertex", "dst"), "dst", "left_semi")
            .localCheckpoint(eager=True)
        )
        deg = sym.groupBy(F.col("src").alias("vertex")).agg(F.count("*").alias("deg"))
        degs = (
            kept.join(deg, "vertex", "left")
            .select("vertex", F.coalesce("deg", F.lit(0)).alias("deg"))
            .localCheckpoint(eager=True)
        )
        min_deg, deg_sum, now_left = _residual_stats(degs)
        rec.touch(left - now_left)
        left = now_left
    if not batches:
        spark = graph.edges.sparkSession
        return spark.createDataFrame([], "vertex long, rank long, level long")
    out = batches[0]
    for b in batches[1:]:
        out = out.unionByName(b)
    w = Window.partitionBy("start").orderBy("vertex")
    return out.select(
        "vertex",
        (F.col("start") + F.row_number().over(w) - 1).cast("long").alias("rank"),
        "level",
    ).localCheckpoint(eager=True)


def core_decomposition(
    graph: Graph, recorder: WorkDepthRecorder | None = None
) -> DataFrame:
    """(vertex, rank, core) — degeneracy ordering plus core numbers.

    ``rank`` is the peeling position (0-based, batch members ordered by
    vertex ID); ``core`` is the exact k-core number. The graph
    degeneracy is ``max(core)``.
    """
    k = 0

    def dgr(min_deg: int, deg_sum: int, count: int) -> int:
        nonlocal k
        k = max(k, min_deg)
        return k

    return peel(graph, dgr, recorder).select(
        "vertex", "rank", F.col("level").cast("long").alias("core"))


def degeneracy_order(
    graph: Graph, recorder: WorkDepthRecorder | None = None
) -> DataFrame:
    """(vertex, rank) degeneracy ordering — preprocessing-stage signature."""
    return core_decomposition(graph, recorder).select("vertex", "rank")


def degeneracy(graph: Graph) -> int:
    """The graph degeneracy d = max core number."""
    row = core_decomposition(graph).agg(F.max("core")).first()
    return int(row[0] or 0)


def kcore(graph: Graph, k: int) -> DataFrame:
    """Vertices of the k-core (max subgraph with all degrees ≥ k)."""
    return core_decomposition(graph).where(F.col("core") >= k).select("vertex")
