"""Checks the benchmark applies to every query, independent of the program.

Maximal cliques and per-vertex triangles are checked against
``repro.graphs.reference`` (networkx). Orderings are checked here: BK
returns the right cliques under any order, so a broken ordering would
otherwise look like a speed-up.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd


def canonical(edges: pd.DataFrame) -> pd.DataFrame:
    """Each undirected edge once as ``src < dst``, without self-loops."""
    s, d = edges["src"].to_numpy(), edges["dst"].to_numpy()
    out = pd.DataFrame({"src": np.minimum(s, d), "dst": np.maximum(s, d)})
    return out[out["src"] != out["dst"]].drop_duplicates(ignore_index=True)


def later_neighbour_max(edges: pd.DataFrame, rank: dict[int, int]) -> int:
    """max over v of the number of neighbours ranked after v."""
    edges = canonical(edges)
    src = np.array([rank[v] for v in edges["src"]])
    dst = np.array([rank[v] for v in edges["dst"]])
    first = np.where(src < dst, edges["src"].to_numpy(), edges["dst"].to_numpy())
    _, counts = np.unique(first, return_counts=True)
    return int(counts.max()) if counts.size else 0


def adg_order_ok(edges: pd.DataFrame, rank: dict[int, int], epsilon: float,
                 degeneracy: int) -> bool:
    """A permutation of V with ≤ ⌈(2+2ε)·d⌉ later neighbours per vertex."""
    vertices = set(edges["src"]) | set(edges["dst"])
    if set(rank) != vertices or sorted(rank.values()) != list(range(len(vertices))):
        return False
    return later_neighbour_max(edges, rank) <= math.ceil((2 + 2 * epsilon) * degeneracy)
