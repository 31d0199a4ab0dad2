"""Run perfbench on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload entire-1d --seeds 31 32 33 [--seconds 40] [--trace 0]

Pair i runs ``DIR/perfbench/run.py --workload W --seed S_i --seconds T
--trace F`` on both checkouts, each from its own files, one after the
other; the parent runs first in even pairs and the change first in odd
ones. Each run's last JSON line is printed as it finishes.

The last line of standard output is one JSON object: the per-run lists
(``pairs``: seeds, which side ran first, correct, attempted, failed and
every metric) and, per metric, ``summary``: each side's median and
quartiles, the change's median relative to the parent's in percent (None
where the parent's is 0), the number of pairs in which the change read
lower (ties count for neither) and the parent's interquartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _run(checkout: str, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         repr(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: dict) -> dict:
    """Per metric: medians, quartiles, pairs won and the parent's spread."""
    summary = {}
    for name, sides in pairs["metrics"].items():
        parent, change = sides["parent"], sides["change"]
        p_q, c_q = _quartiles(parent), _quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "parent_median": p_med,
            "parent_quartiles": [p_q[0], p_q[2]],
            "change_median": c_med,
            "change_quartiles": [c_q[0], c_q[2]],
            # None where the parent's median is 0 (a layer the workload skips)
            "change_pct": 100.0 * (c_med / p_med - 1.0) if p_med else None,
            "change_lower_in": f"{sum(c < p for p, c in zip(parent, change))}"
                               f" of {len(parent)}",
            "parent_iqr": p_q[2] - p_q[0]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout root")
    parser.add_argument("--change", required=True, help="changed checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    pairs = {"seeds": args.seeds, "first": [],
             **{key: {side: [] for side in SIDES}
                for key in ("correct", "attempted", "failed")},
             "metrics": {}}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs["first"].append(order[0])
        for side in order:
            result = _run(roots[side], args.workload, seed, args.seconds,
                          args.trace)
            print(json.dumps({"side": side, "seed": seed, **result}),
                  flush=True)
            for key in ("correct", "attempted", "failed"):
                pairs[key][side].append(result[key])
            for name, metric in result["metrics"].items():
                pairs["metrics"].setdefault(
                    name, {s: [] for s in SIDES})[side].append(metric["value"])
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace, "pairs": pairs,
                      "summary": summarise(pairs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
