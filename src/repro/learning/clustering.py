"""Jarvis–Patrick clustering (paper §6.5/§A, Table 4 Graph Learning).

JP over a graph: two adjacent vertices belong to the same cluster when
they share at least ``j`` neighbours (a common-neighbour similarity
threshold — the set-intersection cardinality again). Clusters are the
connected components of the thresholded edge set.

Connected components run as iterative min-label propagation in
Catalyst; its fixpoint loop, ``label_fixpoint``, also drives label
propagation in ``repro.learning.community``.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import sets
from repro.core.graph import Graph


def label_fixpoint(labels: DataFrame, step: Callable[[DataFrame], DataFrame],
                   max_iter: int) -> DataFrame:
    """Apply ``step`` to (vertex, label) rows until no label changes.

    Runs at most ``max_iter`` synchronous rounds. Each round's labels are
    checkpointed so the plan does not grow with the rounds.
    """
    labels = labels.localCheckpoint(eager=True)
    for _ in range(max_iter):
        new = step(labels).localCheckpoint(eager=True)
        changed = new.subtract(labels).limit(1).count()
        labels = new
        if changed == 0:
            break
    return labels


def connected_components(edges: DataFrame, vertices: DataFrame,
                         max_iter: int = 50) -> DataFrame:
    """(vertex, component) — component = min vertex ID reachable.

    ``edges`` are canonical (src, dst); isolated vertices from
    ``vertices`` keep themselves as their component.
    """
    sym = edges.unionByName(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    ).localCheckpoint(eager=True)

    def step(labels: DataFrame) -> DataFrame:
        nbr_min = (
            sym.join(labels.withColumnRenamed("vertex", "dst"), "dst")
            .groupBy(F.col("src").alias("vertex"))
            .agg(F.min("component").alias("nbr_component"))
        )
        return labels.join(nbr_min, "vertex", "left").select(
            "vertex",
            F.least(
                "component", F.coalesce("nbr_component", "component")
            ).alias("component"),
        )

    labels = vertices.select("vertex", F.col("vertex").alias("component"))
    return label_fixpoint(labels, step, max_iter)


def jarvis_patrick(graph: Graph, j: int) -> DataFrame:
    """(vertex, cluster) — JP clusters at shared-neighbour threshold j."""
    adj = graph.adjacency()
    shared = (
        graph.edges
        .join(adj.select(F.col("vertex").alias("src"),
                         F.col("nbrs").alias("ns")), "src")
        .join(adj.select(F.col("vertex").alias("dst"),
                         F.col("nbrs").alias("nd")), "dst")
        .withColumn("shared", sets.intersect_count(F.col("ns"), F.col("nd")))
    )
    kept = shared.where(F.col("shared") >= j).select("src", "dst")
    comps = connected_components(kept, adj.select("vertex"))
    return comps.withColumnRenamed("component", "cluster")
