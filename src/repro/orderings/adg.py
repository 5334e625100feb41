"""(2+ε)-approximate degeneracy ordering — ADG, paper Algorithm 5 (§6.1).

Each iteration removes *in one parallel batch* every vertex whose
degree in the remaining induced subgraph U is ≤ (1+ε)·avg_deg(U). At
least a constant fraction of U leaves each round (at most 1/(1+ε) of U
can exceed the threshold by Markov's inequality), so the number of
rounds is O(log n) for any ε > 0 — the paper's Lemma 7.1 — versus the
Θ(n)-round worst case of exact peeling. Every vertex then has at most
(2+2ε)·d̂ neighbours ranked later, the (2+ε)-approximation property
tests assert.

Set-algebra view (5+): the per-round batch is R = {v ∈ U : deg_U(v) ≤
(1+ε)δ̂_U}; U ← U ∖ R is a set difference; deg_U is a set cardinality.
The loop is the peeling engine shared with DGR,
``repro.orderings.degeneracy.peel``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder
from repro.orderings.degeneracy import peel


def adg_order(
    graph: Graph,
    epsilon: float = 0.1,
    recorder: WorkDepthRecorder | None = None,
) -> DataFrame:
    """(vertex, rank) — approximate degeneracy ordering, Algorithm 5.

    Batch i gets ranks before batch i+1; within a batch ranks follow
    vertex ID (the paper assigns the whole batch the same priority, so
    any internal order is valid).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")

    # The paper compares |N_U(v)|/2 ≤ (1+ε)δ̂ with δ̂ = Σ(|N|/2)/|U|; this
    # is the same inequality scaled by 2. Since min ≤ mean and ε ≥ 0, the
    # threshold is never below the minimum degree, so no batch is empty.
    return peel(
        graph, lambda _min, total, count: (1 + epsilon) * (total / count), recorder
    ).select("vertex", "rank")
