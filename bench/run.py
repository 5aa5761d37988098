"""index-kernels benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out RESULTS.jsonl]

Run from the root of a source checkout.  Load comes from this one
process and one thread, in a closed loop: each pass of the workload (see
workloads.py) runs in a fresh interpreter (child.py), and the next starts
only after it ends, until --seconds of passes are done (at least one).
Set-up is also probed on its own in fresh interpreters.  After timing,
the first pass's CSV output is checked against mpmath references
(oracle.py) and every pass must write the same CSV bytes.  The child's
second thread only times a reference chunk: every CPU time is scaled
by it to nominal speed (see child.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes (tracer.py) and prints the per-layer metrics plus the
tracing overhead (median traced minus median untraced cpu_s).  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; --out also appends the full record, samples and
environment included, as one JSON line (compare two such files with
compare.py).
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# oracle rows checked per command (None: all rows)
ORACLE_SAMPLE = {"verify-grid": 3, "fit-envelope": 5, "expand-remainder": 4,
                 "route-crosscheck": None}

# Gated times are CPU times scaled to nominal speed: on a shared VM the
# wall clock also counts time stolen by other tenants, which spread
# wall-clock medians by up to 23% from run to run, and the CPU's own
# speed drifts by tens of percent, which the child's probe measures.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "point_cpu_ms_p50": "ms",
              "peak_rss_mb": "MB"}
# printed and recorded, but not gated: the wall-clock twins of the gated
# times, fractions that are 0 when all is well, and a p90 that needs 100
# points to be defined
EXTRA = {"setup_wall_s": "s", "wall_s": "s", "point_ms_p50": "ms",
         "point_ms_p90": "ms", "failed_frac": "1", "wrong_frac": "1"}
P90_MIN_POINTS = 100


class ChildError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("INDEX_KERNELS_CFG", None)
    # set-up is timed with the bytecode cache on, as an installed package
    # has it, whatever the calling shell says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(args, timeout):
    """Start child.py; return (set-up wall seconds, set-up CPU seconds at
    nominal speed, the child's result line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise ChildError("child failed (exit %s): %s"
                         % (proc.returncode, err.strip()[-2000:]))
    result = json.loads(out.strip().splitlines()[-1])
    return setup, float(ready.split()[1]) * result["setup_scale"], result


def run_pass(cmds, trace):
    spec = {"commands": cmds, "entries": workloads.point_entries(cmds),
            "trace": trace}
    setup, setup_cpu, result = spawn([json.dumps(spec)], CHILD_TIMEOUT_S)
    return (setup, setup_cpu), result


def digest(result):
    h = hashlib.sha256()
    for out in result["outputs"]:
        h.update(("\0".join(out["argv"]) + "\n").encode())
        h.update(out["csv"].encode())
    return h.hexdigest()


def quantile90(values):
    return statistics.quantiles(values, n=10)[8]


def source_commit():
    """HEAD of the checkout's .git, if it has one (no git call: the
    search would leave the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(dps):
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "dps": dps,
            "commit": source_commit(), "machine": platform.machine()}


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; return the full record (see module docstring)."""
    cmds = workloads.commands(name, seed, tiny)
    setups = [spawn([], 30)[:2] for _ in range(SETUP_PROBES)]
    # with trace, untraced and traced passes alternate, so the tracing
    # overhead is measured under the same machine load
    kinds = (False, True) if trace else (False,)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for kind in kinds:
            setup, res = run_pass(cmds, kind)
            setups.append(setup)
            (traced if kind else plain).append(res)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break

    every = plain + traced
    digests = {digest(p) for p in every}
    exits = [o["exit"] for p in every for o in p["outputs"]]
    checked, wrong, known = oracle_check(name, seed, plain[0])
    points = [ms for p in plain for ms in p["point_ms"]]
    attempted = sum(len(p["point_ms"]) for p in every)
    failed = sum(p["raised"] for p in every)
    cpu_s = statistics.median(p["cpu_s"] * p["scale"] for p in plain)

    metrics = {
        "setup_s": statistics.median(cpu for _, cpu in setups),
        "cpu_s": cpu_s,
        "point_cpu_ms_p50": statistics.median(
            ms * k for p in plain
            for ms, k in zip(p["point_cpu_ms"], p["point_scale"])),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "point_ms_p50": statistics.median(points),
        "failed_frac": failed / attempted,
        "wrong_frac": wrong / checked if checked else 0.0,
    }
    if len(points) >= P90_MIN_POINTS:
        metrics["point_ms_p90"] = quantile90(points)
    units = dict(END_TO_END, **EXTRA)
    if trace:
        # counts repeat exactly from pass to pass; times are scaled to
        # nominal speed like cpu_s and take the median
        metrics = {k: (statistics.median(p["layers"][k] * p["scale"]
                                         for p in traced)
                       if k.endswith("_s") else traced[0]["layers"][k])
                   for k in tracer.metric_names()}
        metrics["trace.overhead_s"] = statistics.median(
            p["cpu_s"] * p["scale"] for p in traced) - cpu_s
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "commands": cmds,
        "correct": (len(digests) == 1 and all(c == 0 for c in exits)
                    and wrong == known),
        "attempted": attempted, "failed": failed, "passes": len(every),
        "checked": checked, "wrong": wrong, "known_defect": known,
        "exits": exits, "csv_sha256": digests.pop() if len(digests) == 1
        else sorted(digests),
        "samples": {"setup_wall_s": [wall for wall, _ in setups],
                    "setup_s": [cpu for _, cpu in setups],
                    "wall_s": [p["wall_s"] for p in plain],
                    "cpu_s": [p["cpu_s"] for p in plain],
                    "scale": [p["scale"] for p in plain],
                    "traced_cpu_s": [p["cpu_s"] for p in traced],
                    "point_ms": [p["point_ms"] for p in plain]},
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "missing": traced[0]["missing"] if traced else [],
        "env": environment(plain[0]["dps"]),
    }


def oracle_check(name, seed, result):
    rng = random.Random("oracle:%s:%d" % (name, seed))
    import oracle
    return oracle.check(result["outputs"], result["dps"], rng,
                        ORACLE_SAMPLE[name])


def gated(record):
    """The metrics the last stdout line carries for this record."""
    names = (tracer.metric_names() + ["trace.overhead_s"]
             if record["trace"] else list(END_TO_END))
    return {k: record["metrics"][k] for k in names}


def report(record):
    lines = ["workload %s seed %d: %d passes, %d points, %d checked "
             "against mpmath" % (record["workload"], record["seed"],
                                 record["passes"], record["attempted"],
                                 record["checked"])]
    for k, m in record["metrics"].items():
        lines.append("  %-40s %14.6g %s" % (k, m["value"], m["unit"]))
    if record["known_defect"]:
        lines.append("  known defect: %d mehler-fock quadrature value(s) "
                     "came back as |P| where P < 0" % record["known_defect"])
    if record["missing"]:
        lines.append("  not traced (absent): %s"
                     % ", ".join(record["missing"]))
    lines.append("  csv_sha256 %s" % (record["csv_sha256"],))
    lines.append("  env %s" % json.dumps(record["env"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this file")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "indexkernels",
                                       "cli.py")):
        print("no package source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(report(record))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": gated(record)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
