#!/usr/bin/env python3
"""Judges two sets of benchmark results against the BENCHMARK.json bounds.

  python3 benchmark/compare.py --base A1.json A2.json ... \\
                               --head B1.json B2.json ...

Each file is the results.json of one benchmark/run.py invocation (use a
separate --out directory per invocation). Run the two sides alternately
(base, head, base, head, ...) on one seed, so a drift of the machine hits
both, and list each side's files in the order they ran: base[i] and head[i]
form pair i.

For every workload and end-to-end metric it prints each side's median and
quartiles over its invocations, the change of the median (positive means
worse), the bound applied, the pairs the head won (ties count for neither)
and a verdict:

  ok          the head's median is not worse than the base's by more than
              the bound
  worse       it is
  unresolved  the base's own spread, (q3 - q1) / median, exceeds the bound,
              so a change within it cannot be told from noise; a head whose
              every run reads better than every base run is ok instead

The BENCHMARK.json bound of a virtual-time metric covers its spread between
seeds. On one seed such a metric is exact, so here it is held to
EXACT_BOUND instead.

Exits 1 when any metric is worse, 2 when the files mix seeds.
"""

import argparse
import json
import sys

from run import is_virtual, load_spec, quartiles

EXACT_BOUND = 0.005


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def values(runs, workload, metric):
    return [r["workloads"][workload]["end_to_end"][metric]["value"]
            for r in runs if workload in r["workloads"]]


def judge(base, head, better, bound):
    """Returns (change, head pair wins, verdict) for one metric."""
    b_med, b_q1, b_q3 = quartiles(base)
    h_med = quartiles(head)[0]
    sign = 1 if better == "lower" else -1
    # "+ 0.0" turns the -0.0 of an unchanged higher-is-better metric into 0.
    change = sign * (h_med - b_med) / b_med + 0.0 if b_med else 0.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    if b_med and (b_q3 - b_q1) / b_med > bound:
        if max(sign * h for h in head) < min(sign * b for b in base):
            return change, wins, "ok"
        return change, wins, "unresolved"
    return change, wins, "worse" if change > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    spec = load_spec()
    base, head = load(args.base), load(args.head)
    seeds = {r["seed"] for r in base + head}
    if len(seeds) != 1:
        print(f"error: the results mix seeds {sorted(seeds)}; compare runs "
              f"of one seed", file=sys.stderr)
        sys.exit(2)

    header = (f"{'workload':14} {'metric':22} {'base median [q1, q3]':30} "
              f"{'head median [q1, q3]':30} {'change':>8} {'bound':>6} "
              f"{'wins':>5}  verdict")
    print(header)
    any_worse = False
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            b, h = values(base, w, m["name"]), values(head, w, m["name"])
            if not b or not h:
                continue
            bound = m["bound"]
            if is_virtual(m["name"]):
                bound = min(bound, EXACT_BOUND)
            change, wins, verdict = judge(b, h, m["better"], bound)
            any_worse |= verdict == "worse"
            cols = []
            for side in (b, h):
                med, q1, q3 = quartiles(side)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{w:14} {m['name']:22} {cols[0]:30} {cols[1]:30} "
                  f"{change:+8.2%} {bound:6.1%} "
                  f"{wins:>2}/{min(len(b), len(h)):<2}  {verdict}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
