"""Run the benchmark over several seeds and record a baseline with its environment.

    python3 perfbench/baseline.py --seeds 1-10

For each workload in BENCHMARK.json, at its ``run_seconds``: every
end-to-end metric's median and quartile spread (IQR / median, as
``statistics.quantiles(n=4)`` gives the quartiles) over the seeds, then one
traced run for the per-layer metrics. The result goes to
``perfbench/BASELINE.json``.
The environment (cores, versions, effective shuffle partitions, git sha)
comes from the traced run and from git, when the checkout is a repository.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which per-layer metric should move which end-to-end metric, and where.
LAYER_MAP = {
    "orderings.*": "query_s.p50 and patterns_per_s on mc-caveman (ADG is about 40% "
                   "of a query); no change on tc-rmat, which calls no ordering",
    "mining.* (bron_kerbosch: offcpu_s, tasks)": "query_s.p50, patterns_per_s on mc-caveman",
    "mining.* (triangles, Catalyst)": "query_s.p50, patterns_per_s on tc-rmat (about 100%)",
    "session.launch_s": "cold_setup_s on every workload (the JVM launch)",
    "session.start_s, generators.*, graph.*":
        "setup_s and cold_setup_s on every workload, most on tc-rmat (largest input)",
    "orderings.util up with orderings.jobs and orderings.driver_s down":
        "how per-round or per-task overhead fixes show on mc-caveman; "
        "tc-rmat is the workload that must not lose",
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"git_sha": _git_sha(), "seeds": args.seeds, "run_seconds": seconds,
              "layer_map": LAYER_MAP, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in args.seeds:
            runs.append(_run(name, seed, seconds, 0))
            print(name, seed, {k: round(m["value"], 4) for k, m in runs[-1]["metrics"].items()},
                  file=sys.stderr, flush=True)
        traced = _run(name, args.seeds[0], seconds, 1)
        spans = json.loads((ROOT / "perfbench" / "out" /
                            f"spans-{name}-seed{args.seeds[0]}.json").read_text())
        report["environment"] = spans["environment"]
        e2e = {k: summarise([r["metrics"][k]["value"] for r in runs])
               for k in runs[0]["metrics"]}
        report["workloads"][name] = {
            "why": workload["why"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for k, s in e2e.items():
            print(f"{name:<11} {k:<16} median {s['median']:.6g} spread {s['spread']:.3f}")
    (ROOT / "perfbench" / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
