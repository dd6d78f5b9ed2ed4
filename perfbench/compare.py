#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the standard output of benchmark runs, one file per run
(for example `python3 perfbench/run.py --workload star_inline --seed 3
--seconds 30 --trace 0 > base/star_inline-3.log`). A run is identified by
the `workload <name> seed <n>` line it prints; its metrics come from the
JSON line it prints last. Runs of the two sides are paired by workload and
seed.

For every workload and metric the tool prints each side's median and
quartiles, the share of pairs the change won (ties count for neither side),
and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ,
              in the better direction, by more than the base's own
              interquartile distance;
  worse       the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  not worse by more than the bound, but the run-to-run spread of
              either side is wider than the bound, and not every change run
              reads better than every base run;
  unchanged   otherwise.

Per-layer metrics have no bound: they get `improved` or `worse` by the
pairing rule in either direction, and `no claim` otherwise. A run whose
result is not correct is reported and left out.
"""

import argparse
import json
import os
import re
import statistics
import sys

RUN_LINE = re.compile(r"^workload (\S+) seed (\d+)")


def load_runs(directory):
    """Returns {(workload, seed, traced): metrics} for every run log in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = [line.strip() for line in f if line.strip()]
        header = next((m for m in map(RUN_LINE.match, lines) if m), None)
        if header is None:
            print(f"skipping {path}: no 'workload ... seed ...' line", file=sys.stderr)
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {path}: last line is not JSON", file=sys.stderr)
            continue
        if not result.get("correct"):
            print(f"skipping {path}: result not correct "
                  f"({result.get('failed')} of {result.get('attempted')} failed)",
                  file=sys.stderr)
            continue
        traced = header.string.endswith("(traced)")
        key = (header.group(1), int(header.group(2)), traced)
        runs[key] = {k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base, change, pairs, better, bound):
    """Applies the pairing rule; `bound` is None for per-layer metrics."""
    sign = 1 if better == "higher" else -1
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    gain = sign * (c_med - b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1:
        return "improved", wins
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > b_q3 - b_q1:
            return "worse", wins
        return "no claim", wins
    worse_share = -gain / abs(b_med) if b_med else 0
    if worse_share > bound:
        return "worse", wins
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args(argv[1:])

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load_runs(args.base), load_runs(args.change)

    verdicts = []
    header = (f"{'workload':<13} {'metric':<27} {'base median [q1, q3]':<38} "
              f"{'change median [q1, q3]':<38} {'won':>7}  verdict")
    print(header)
    print("-" * len(header))
    workloads = sorted({(w, t) for (w, _, t) in base} & {(w, t) for (w, _, t) in change})
    for workload, traced in workloads:
        b_runs = {s: m for (w, s, t), m in base.items() if (w, t) == (workload, traced)}
        c_runs = {s: m for (w, s, t), m in change.items() if (w, t) == (workload, traced)}
        for name, spec in specs.items():
            b = [m[name] for m in b_runs.values() if name in m]
            c = [m[name] for m in c_runs.values() if name in m]
            pairs = [(b_runs[s][name], c_runs[s][name])
                     for s in sorted(b_runs.keys() & c_runs.keys())
                     if name in b_runs[s] and name in c_runs[s]]
            if not b or not c:
                continue
            result, wins = verdict(b, c, pairs, spec["better"], spec.get("bound"))
            label = workload + ("*" if traced else "")
            print(f"{label:<13} {name:<27} {summary(b):<38} {summary(c):<38} "
                  f"{wins:>3}/{len(pairs):<3}  {result}")
            verdicts.append(result)
    if not verdicts:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    if any(traced for _, traced in workloads):
        print("\n* traced runs (per-layer metrics)")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
