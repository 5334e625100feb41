"""Label propagation community detection (paper Table 4 / §A).

Raghavan-style: every vertex repeatedly adopts the most frequent label
among its neighbours (ties → smallest label, which makes the parallel
sweep deterministic). Converges when no label changes or after
``max_iter`` synchronous rounds.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.learning.clustering import label_fixpoint


def label_propagation(graph: Graph, max_iter: int = 20) -> DataFrame:
    """(vertex, community) after synchronous label propagation."""
    sym = graph.symmetric_edges().localCheckpoint(eager=True)

    def step(labels: DataFrame) -> DataFrame:
        counted = (
            sym.join(
                labels.select(F.col("vertex").alias("dst"), "community"), "dst"
            )
            .groupBy(F.col("src").alias("vertex"), "community")
            .agg(F.count("*").alias("votes"))
        )
        best = (
            counted.groupBy("vertex")
            .agg(
                F.max_by(
                    "community",
                    F.struct(F.col("votes"), -F.col("community")),
                ).alias("new_community")
            )
        )
        return labels.join(best, "vertex", "left").select(
            "vertex",
            F.coalesce("new_community", "community").alias("community"),
        )

    labels = graph.adjacency().select("vertex", F.col("vertex").alias("community"))
    return label_fixpoint(labels, step, max_iter)
