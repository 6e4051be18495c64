"""``python3 -m bench --compare A.json B.json`` — do two result sets agree?

For every (workload, metric) both files hold, prints A's and B's median,
the relative difference (positive = B worse), the bound and a verdict:

* ``equal`` / ``DIFFERS`` — an exact metric (a count over a fixed number
  of calls) must print the same digits on both sides when both sides ran
  the same seed and scale;
* ``within`` / ``WORSE`` — a timed end-to-end metric may worsen by at most
  its bound;
* ``unresolved`` — the run-to-run spread on either side exceeds the
  bound, so the data cannot tell a change from noise (never ``within``);
* ``info`` — timed per-layer metrics carry no bound; shown, not judged.

A workload whose two ``bench.host.calib_us`` medians differ by more than
10% is flagged ``noisy-host``: the machine changed speed between the two
sets, so its timed verdicts deserve a rerun.  Exit status is non-zero if
any line is ``DIFFERS`` or ``WORSE``.
"""

from __future__ import annotations

import json
import statistics

from bench.metrics import END_TO_END, PER_LAYER

NOISY_HOST = 0.10


def spread(values: list) -> float:
    """Inter-quartile range over the median (range when under 4 runs)."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def worsening(metric, a: float, b: float) -> float:
    """Relative change from A to B, signed so that positive is worse."""
    if a == b:
        return 0.0
    if not a:
        return float("inf")
    change = (b - a) / abs(a)
    return -change if metric.better == "higher" else change


def verdict(metric, a_values, b_values, same_inputs: bool) -> tuple:
    a, b = statistics.median(a_values), statistics.median(b_values)
    worse = worsening(metric, a, b)
    if metric.exact:
        if not same_inputs:
            return a, b, worse, "info"
        return a, b, worse, "equal" if a_values == b_values else "DIFFERS"
    if metric.bound is None:
        return a, b, worse, "info"
    if max(spread(a_values), spread(b_values)) > metric.bound:
        return a, b, worse, "unresolved"
    return a, b, worse, "WORSE" if worse > metric.bound else "within"


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    same_inputs = all(
        a["args"][k] == b["args"][k] for k in ("seed", "scale")
    )
    if not same_inputs:
        print("seed or scale differ: exact metrics are shown, not judged")
    violations = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        flags = ""
        calib_a = entry_a["metrics"].get("bench.host.calib_us")
        calib_b = entry_b["metrics"].get("bench.host.calib_us")
        if calib_a and calib_b:
            ca = statistics.median(calib_a["values"])
            cb = statistics.median(calib_b["values"])
            if abs(ca - cb) / min(ca, cb) > NOISY_HOST:
                flags = "  noisy-host"
        print(f"== {workload}{flags}")
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["failed"]:
                print(f"  {side}: {entry['failed']} of {entry['attempted']} "
                      "calls failed")
                violations += 1
        for metric in END_TO_END + PER_LAYER:
            cell_a = entry_a["metrics"].get(metric.name)
            cell_b = entry_b["metrics"].get(metric.name)
            if cell_a is None or cell_b is None:
                continue
            va, vb, worse, word = verdict(
                metric, cell_a["values"], cell_b["values"], same_inputs
            )
            bound = f"{metric.bound:.0%}" if metric.bound is not None else "-"
            print(f"  {metric.name:<44} {va:>14.4f} {vb:>14.4f} "
                  f"{worse:>+9.2%} {bound:>5} {word}{flags}")
            violations += word in ("DIFFERS", "WORSE")
    print(f"{violations} violation(s)")
    return 1 if violations else 0
