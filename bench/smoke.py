"""Smoke test of the benchmark: every workload at tiny size.

    python3 bench/smoke.py

For each workload it runs one untraced and one traced pass set and checks
that every metric BENCHMARK.json names is emitted with its unit, that the
ungated metrics are there too, that the outputs are correct, and that
tracing leaves the CSV bytes unchanged.  Takes about a minute; exits 1 on
the first failed check.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def units_of(metrics):
    return {k: m["unit"] for k, m in metrics.items()}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        plain = run.run(name, 0, 0, False, tiny=True)
        traced = run.run(name, 0, 0, True, tiny=True)
        for rec, kind in ((plain, "untraced"), (traced, "traced")):
            check(rec["correct"], "%s %s: outputs not correct" % (name, kind))
            check(rec["failed"] == 0, "%s %s: failed points" % (name, kind))
        check(units_of(run.gated(plain)) == e2e,
              "%s: end-to-end metrics or units differ from BENCHMARK.json"
              % name)
        extra = dict(run.EXTRA)
        if plain["attempted"] < run.P90_MIN_POINTS:
            extra.pop("point_ms_p90")
        check(units_of(plain["metrics"]) == dict(e2e, **extra),
              "%s: printed metrics %s" % (name, sorted(plain["metrics"])))
        check(units_of(run.gated(traced)) == layers,
              "%s: per-layer metrics or units differ from BENCHMARK.json"
              % name)
        check(not traced["missing"],
              "%s: untraced functions %s" % (name, traced["missing"]))
        check(isinstance(plain["csv_sha256"], str)
              and plain["csv_sha256"] == traced["csv_sha256"],
              "%s: tracing changed the CSV output" % name)
        if name == "route-crosscheck":
            check(plain["known_defect"] >= 1
                  and plain["metrics"]["wrong_frac"]["value"] > 0,
                  "route-crosscheck: the mehler-fock |P| defect did not show")
        print("ok %-18s %d points, csv %s" % (name, plain["attempted"],
                                              plain["csv_sha256"][:12]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print("FAIL %s" % exc, file=sys.stderr)
        sys.exit(1)
