"""The benchmark's workloads: seeded inputs, the query, and its correctness check.

Each query makes exactly the public calls a ``jobs/*.py`` script makes.
``query`` is the timed part; ``readback`` brings what the check needs into
the Spark driver, untimed; ``check`` and ``patterns`` are pure Python, so the
self-tests run them without Spark. ``ctx.layer(name)`` wraps a call into
the ``orderings`` or ``mining`` layer: a span with its own Spark job
group when traced, nothing otherwise.

Inputs are sized so a run takes about a minute and the ADG round count
stays the same on most seeds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pandas as pd

from oracles import adg_order_ok

ADG_EPSILON = 0.1


@dataclass
class Workload:
    name: str
    why: str
    generate: Callable[[int], pd.DataFrame]  # seed -> edges
    expect: Callable[[pd.DataFrame], Any]
    query: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    patterns: Callable[[Any], int]
    readback: Callable[[Any], Any] = lambda raw: raw


# -- mc-caveman: BK-GMS-ADG-S (Fig. 4) --------------------------------------

def _mc_generate(seed: int) -> pd.DataFrame:
    from repro.graphs import generators as gen
    return gen.caveman(8, 30, 0.3, 240, seed=seed)


def _mc_expect(edges: pd.DataFrame):
    from repro.graphs.reference import ref_degeneracy, ref_maximal_cliques
    return ref_maximal_cliques(edges), ref_degeneracy(edges), edges


def _mc_query(ctx):
    from repro.mining.bron_kerbosch import bk_maximal_cliques
    from repro.orderings.adg import adg_order
    with ctx.layer("orderings"):
        order = adg_order(ctx.graph, ADG_EPSILON, recorder=ctx.recorder)
    with ctx.layer("mining"):
        rows = bk_maximal_cliques(ctx.graph, order, set_repr="bitmap",
                                  subgraph_opt=True).collect()
    return order, rows


def _mc_readback(raw):
    order, rows = raw
    rank = {r["vertex"]: r["rank"] for r in order.collect()}
    return rank, [frozenset(r["clique"]) for r in rows]


def _mc_check(result, expected) -> bool:
    rank, cliques = result
    ref_cliques, degeneracy, edges = expected
    return (len(set(cliques)) == len(cliques) and set(cliques) == ref_cliques
            and adg_order_ok(edges, rank, ADG_EPSILON, degeneracy))


# -- tc-rmat: per-vertex triangles (Table 7 T, T/n, T-skew) ------------------

def _tc_generate(seed: int) -> pd.DataFrame:
    from repro.graphs import generators as gen
    return gen.rmat(12, 8.0, seed=seed)


def _tc_expect(edges: pd.DataFrame):
    from repro.graphs.reference import ref_triangles_per_vertex
    return ref_triangles_per_vertex(edges)


def _tc_query(ctx):
    from repro.mining.triangles import triangle_counts_per_vertex
    with ctx.layer("mining"):
        return triangle_counts_per_vertex(ctx.graph).toPandas()


def _tc_check(result: pd.DataFrame, expected) -> bool:
    got = dict(zip(result["vertex"].tolist(), result["triangles"].tolist()))
    return len(got) == len(result) and got == expected


WORKLOADS = {w.name: w for w in [
    Workload(
        name="mc-caveman",
        why="BK-GMS-ADG-S: few large ADG peeling rounds, then the Python-worker "
            "BK kernel and its subproblem build; the only BK path",
        generate=_mc_generate, expect=_mc_expect, query=_mc_query,
        readback=_mc_readback, check=_mc_check,
        patterns=lambda result: len(result[1]),
    ),
    Workload(
        name="tc-rmat",
        why="Catalyst set algebra over full skewed neighbourhoods, no ordering "
            "and no Python worker; the largest input",
        generate=_tc_generate, expect=_tc_expect, query=_tc_query,
        check=_tc_check,
        patterns=lambda result: int(result["triangles"].sum()) // 3,
    ),
]}
