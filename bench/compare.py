"""Compare two result files written by `run.py --out`.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Prints one row per (workload, end-to-end metric): each side's median and
quartiles over its untraced runs, and a verdict under the bounds in
BENCHMARK.json:

  worse       the new median is worse than the old by more than the bound
  better      the new median is better by more than the old quartile
              spread, and the new run wins at least 9 in 10 seed pairs
  unresolved  a side's quartile spread exceeds the bound, unless every
              new run reads better than every old run
  same        otherwise

The ungated wall-clock times take the bound of their CPU-time twins,
and the ungated fractions (failed_frac, wrong_frac) get bound 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ungated metrics and the gated metric whose bound they borrow
EXTRA = [("setup_wall_s", "setup_s"), ("wall_s", "cpu_s"),
         ("point_ms_p50", "point_cpu_ms_p50"),
         ("point_ms_p90", "point_cpu_ms_p50"), ("failed_frac", None),
         ("wrong_frac", None)]


def load(path):
    """{workload: {seed: record}} of the untraced records in `path`."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for name, like in EXTRA:
        base = specs.get(like, {"better": "lower", "bound": 0.0})
        specs[name] = {"name": name, "better": base["better"],
                       "bound": base["bound"]}
    return specs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, spec):
    """old, new: {seed: value}.  Returns the verdict word."""
    sign = 1 if spec["better"] == "lower" else -1
    o1, om, o3 = quartiles(list(old.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    worse_by = sign * (nm - om)
    if worse_by > spec["bound"] * abs(om):
        return "worse"
    pairs = [(old[s], new[s]) for s in old if s in new]
    wins = sum(sign * (n - o) < 0 for o, n in pairs)
    if -worse_by > (o3 - o1) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    all_better = all(sign * (n - o) < 0
                     for o in old.values() for n in new.values())
    spread = max((o3 - o1) / abs(om) if om else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > spec["bound"] and not all_better:
        return "unresolved"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    specs = metric_specs()
    print("%-18s %-16s %5s %32s %32s  %s" % (
        "workload", "metric", "runs", "old q1 / median / q3",
        "new q1 / median / q3", "verdict"))
    for workload in sorted(set(old) & set(new)):
        for name, spec in specs.items():
            o = {s: r["metrics"][name]["value"]
                 for s, r in old[workload].items() if name in r["metrics"]}
            n = {s: r["metrics"][name]["value"]
                 for s, r in new[workload].items() if name in r["metrics"]}
            if not o or not n:
                continue
            print("%-18s %-16s %2d/%-2d %32s %32s  %s" % (
                workload, name, len(o), len(n),
                "%.4g / %.4g / %.4g" % quartiles(list(o.values())),
                "%.4g / %.4g / %.4g" % quartiles(list(n.values())),
                verdict(o, n, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
