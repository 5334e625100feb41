"""Self-tests of the benchmark's oracles, interval arithmetic and failure count.

    python3 -m pytest perfbench/selftest.py -q -p no:cacheprovider

Needs no Spark session. The file name matches neither ``test_*.py`` nor
``bench_*.py``, so the repository's own pytest run never collects it.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import networkx as nx
import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from oracles import adg_order_ok, later_neighbour_max  # noqa: E402
from spans import StageStats, covered, layer_metrics, median, union_length  # noqa: E402
from workloads import ADG_EPSILON, WORKLOADS  # noqa: E402

from repro.graphs import generators as gen  # noqa: E402
from repro.graphs.reference import ref_degeneracy  # noqa: E402


def _smallest_last(edges: pd.DataFrame) -> dict[int, int]:
    """A degeneracy ordering: repeatedly remove a minimum-degree vertex."""
    g = nx.from_pandas_edgelist(edges, "src", "dst")
    rank = {}
    while g:
        v = min(g.nodes, key=lambda u: (g.degree(u), u))
        rank[v] = len(rank)
        g.remove_node(v)
    return rank


# -- oracles ------------------------------------------------------------------

def test_later_neighbour_max_matches_brute_force():
    edges = gen.barabasi_albert(80, 3, seed=2)
    rank = _smallest_last(edges)
    g = nx.from_pandas_edgelist(edges, "src", "dst")
    brute = max(sum(rank[u] > rank[v] for u in g[v]) for v in g)
    assert later_neighbour_max(edges, rank) == brute


@pytest.mark.parametrize("seed", range(3))
def test_adg_check_accepts_degeneracy_orders(seed):
    edges = gen.caveman(4, 20, 0.3, 40, seed=seed)
    rank = _smallest_last(edges)
    d = ref_degeneracy(edges)
    assert later_neighbour_max(edges, rank) <= d
    assert adg_order_ok(edges, rank, ADG_EPSILON, d)


def test_adg_check_rejects_bad_orders():
    star = pd.DataFrame({"src": [0] * 10, "dst": list(range(1, 11))})
    hub_first = {v: v for v in range(11)}  # the hub has 10 later neighbours
    assert not adg_order_ok(star, hub_first, ADG_EPSILON, 1)
    assert adg_order_ok(star, {v: 10 - v for v in range(11)}, ADG_EPSILON, 1)
    missing = {v: v for v in range(1, 11)}
    assert not adg_order_ok(star, missing, ADG_EPSILON, 1)
    repeated = {v: min(v, 5) for v in range(11)}
    assert not adg_order_ok(star, repeated, ADG_EPSILON, 1)


# -- interval arithmetic and medians ------------------------------------------

def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_union_and_coverage_of_overlapping_intervals():
    jobs = [(1.0, 3.0), (0.0, 2.0), (5.0, 6.0), (5.5, 5.8)]
    assert union_length(jobs) == pytest.approx(4.0)
    assert covered(jobs, 1.5, 5.5) == pytest.approx(2.0)
    assert union_length([]) == 0.0


def test_layer_metrics_from_overlapping_jobs():
    jobs = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    stage = StageStats(tasks=4, failed_tasks=1, busy_s=4.0, cpu_s=1.0, gc_s=0.5,
                       fetch_wait_s=0.25, shuffle_bytes=2_000_000)
    m = layer_metrics(10.0, jobs, [stage, stage], cores=4)
    assert m["job_wall_s"] == pytest.approx(4.0)
    assert m["driver_s"] == pytest.approx(6.0)
    assert m["util"] == pytest.approx(8.0 / (4.0 * 4))
    assert m["offcpu_s"] == pytest.approx(6.0)
    assert m["shuffle_mb"] == 4.0
    assert (m["jobs"], m["stages"], m["tasks"], m["failed_tasks"]) == (3, 2, 8, 2)
    assert layer_metrics(1.0, [], [], cores=4)["util"] == 0.0


# -- failure accounting -------------------------------------------------------

def _mc_with(answer):
    """mc-caveman with a query that returns ``answer`` instead of calling Spark."""
    wl = WORKLOADS["mc-caveman"]
    return dataclasses.replace(wl, query=lambda ctx: answer, readback=lambda raw: raw)


def _mc_case():
    edges = gen.caveman(3, 15, 0.4, 20, seed=5)
    expected = WORKLOADS["mc-caveman"].expect(edges)
    rank = _smallest_last(edges)
    return expected, rank, sorted(expected[0], key=sorted)


def _ctx(i):
    return run.QueryContext(None)


def test_correct_answers_count_no_failures():
    expected, rank, cliques = _mc_case()
    tally = run.run_queries(_mc_with((rank, cliques)), expected, _ctx, 0.0, 2, 0.0)
    assert (tally.attempted, tally.failed) == (3, 0)
    assert len(tally.rates) == 2 and all(r > 0 for r in tally.rates)


def test_dropped_clique_counts_as_failure():
    expected, rank, cliques = _mc_case()
    tally = run.run_queries(_mc_with((rank, cliques[1:])), expected, _ctx, 0.0, 2, 0.0)
    assert tally.failed == tally.attempted == 3
    assert tally.rates == [0.0, 0.0]


def test_broken_ordering_counts_as_failure():
    expected, rank, cliques = _mc_case()
    not_a_permutation = {v: 0 for v in rank}
    tally = run.run_queries(_mc_with((not_a_permutation, cliques)), expected, _ctx, 0.0, 1, 0.0)
    assert tally.failed == tally.attempted == 2


def test_warm_up_lasts_its_seconds_and_is_not_timed():
    expected, rank, cliques = _mc_case()
    wl = _mc_with((rank, cliques))
    wl = dataclasses.replace(wl, query=lambda ctx: time.sleep(0.02) or (rank, cliques))
    seen = []
    tally = run.run_queries(wl, expected, _ctx, 0.0, 1, 0.05,
                            after=lambda i, *rest: seen.append(i))
    assert seen.count(0) >= 2 and seen[-1] == 1 and set(seen) == {0, 1}
    assert tally.attempted == len(seen) and len(tally.times) == 1
    assert tally.failed == 0


def test_raising_query_counts_as_failure():
    def boom(ctx):
        raise RuntimeError("injected")
    wl = dataclasses.replace(WORKLOADS["tc-rmat"], query=boom)
    tally = run.run_queries(wl, {}, _ctx, 0.0, 1, 0.0)
    assert (tally.attempted, tally.failed) == (2, 2)


# -- the metric catalogue matches BENCHMARK.json ------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
