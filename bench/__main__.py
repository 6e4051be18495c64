"""``python3 -m bench`` — run workloads, print metrics, compare results.

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
  in a fresh subprocess and prints its one-line JSON result last.  This
  is the form ``BENCHMARK.json``'s ``command`` is driven with.
* No ``--workload``: all five workloads, one after another (never in
  parallel — the reference box has 2 cores), untraced then traced, every
  metric printed by name with its unit, results in ``bench/out/``.
* ``--compare A.json B.json``: see :mod:`bench.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench import compare
from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               scale: float) -> dict:
    """One workload in its own interpreter; returns its parsed result."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"bench: no engine to measure: {src}/repro is missing")
    env = dict(os.environ)
    # Str hashing is salted per process unless pinned; the engine does not
    # depend on it, but timings of dict-heavy code do, a little.
    env.setdefault("PYTHONHASHSEED", "0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench.worker", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", str(scale)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"bench: worker for {workload} exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, scale: float, runs: int) -> int:
    """Every workload, untraced then traced, ``runs`` times each."""
    results: dict = {
        "claim": None,
        "args": {"seed": seed, "seconds": seconds, "scale": scale,
                 "runs": runs},
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        entry = {"attempted": 0, "failed": 0, "metrics": {}}
        for _ in range(runs):
            for trace in (0, 1):
                result = run_worker(workload, seed, seconds, trace, scale)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for name, cell in result["metrics"].items():
                    slot = entry["metrics"].setdefault(
                        name, {"unit": cell["unit"], "values": []}
                    )
                    slot["values"].append(cell["value"])
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        ok = ok and entry["failed"] == 0
        results["workloads"][workload] = entry
        print(f"== {workload}: attempted {entry['attempted']} calls, "
              f"failed {entry['failed']} "
              f"(failed_frac {entry['failed_frac']:.6f})")
        for metric in END_TO_END + PER_LAYER:
            cell = entry["metrics"][metric.name]
            value = statistics.median(cell["values"])
            print(f"  {metric.name:<44} {value:>16.4f} {cell['unit']:<7}"
                  f" n={len(cell['values'])}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced measured phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data and op counts (tests use 0.02)")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeats per workload when running all of them")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload:
        print(json.dumps(run_worker(
            args.workload, args.seed, args.seconds, args.trace, args.scale
        )))
        return 0
    return run_all(args.seed, args.seconds, args.scale, args.runs)


if __name__ == "__main__":
    raise SystemExit(main())
