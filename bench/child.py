"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py            # set-up probe: import, parse, exit
    python3 bench/child.py SPEC_JSON  # set-up, then run one pass

The first line on stdout, "ready <cpu seconds>", marks the end of
set-up (the package CLI imported and its parser built) and carries the
process CPU time spent to get there; the parent also times the wall
interval from process start to that line.  A pass then runs each argv
list through `indexkernels.cli.main` with stdout and stderr captured,
timing every grid point (wall and CPU) with one outer timer around the
CLI's per-point entry, and prints one JSON line with its measurements.
SPEC_JSON holds "commands" (argv lists), "entries" ([module, attribute]
pairs to time) and "trace" (wrap every traced function, see tracer.py).

CPU speed on a shared host drifts by tens of percent within seconds, so
every child also measures it (SpeedProbe): it times a fixed mpmath
reference chunk, back to back right after set-up, and every
PROBE_INTERVAL_S from a second thread while a pass runs.  The
pass itself runs in the main thread, whose CPU clock does not count the
probe's chunks, and `scale` converts its CPU time to seconds at nominal
speed.
"""

import sys
import time

import indexkernels.cli as cli

cli.build_parser()
sys.stdout.write("ready %r\n" % time.process_time())
sys.stdout.flush()

import bisect  # noqa: E402  (after the set-up mark on purpose)
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

import mpmath  # noqa: E402

# CPU seconds of one reference chunk at nominal speed (about this chunk's
# median on a 2-vCPU Xeon VM, Python 3.11, pure-Python mpmath backend)
REF_NOMINAL_S = 7e-4
# wall time between two reference chunks during a pass
PROBE_INTERVAL_S = 0.02
# reference chunks timed back to back right after set-up
SETUP_CHUNKS = 40
# a point's own scale comes from the chunks timed within this many
# seconds of it: the CPU's speed changes by tens of percent from one
# tenth of a second to the next
POINT_WINDOW_S = 0.1


class SpeedProbe:
    """Times a fixed reference chunk, on demand or from a sampling thread.

    The chunk is mpmath work like the package's own (a hypergeometric
    series and mpf arithmetic) in a private context at 40 digits: no
    transcendental constants, whose caches mpmath shares with the
    package, and no change to the package's precision, so the CSV output
    is the same with or without the probe.  The garbage collector is off
    during a chunk, so its time does not depend on the package's heap.
    """

    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.dps = 40
        self.a = self.ctx.mpf(1) / 3
        self.chunk()
        self.cpu = self.wall = 0.0
        self.n = 0
        self.log = []            # (end time, CPU seconds) of each chunk
        self.thread = None
        self.halt = threading.Event()

    def chunk(self):
        ctx, a = self.ctx, self.a
        s = ctx.mpf(0)
        for j in range(1, 4):
            s += ctx.hyp1f1(a * j, a + j, a + 2 * j)
        for k in range(1, 24):
            s += ctx.sqrt(a * k + 1) / (a + k) - a * s / k

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()
        c0, t0 = time.thread_time(), time.perf_counter()
        self.chunk()
        cpu = time.thread_time() - c0
        self.wall += time.perf_counter() - t0
        self.cpu += cpu
        self.n += 1
        self.log.append((time.perf_counter(), cpu))
        if collecting:
            gc.enable()

    def _sample_until_halted(self):
        while not self.halt.wait(PROBE_INTERVAL_S):
            self.sample()

    def start(self):
        self.thread = threading.Thread(target=self._sample_until_halted,
                                       daemon=True)
        self.thread.start()

    def stop(self):
        if self.thread is not None:
            self.halt.set()
            self.thread.join()

    def scale(self):
        """Nominal over measured speed: multiply a CPU time by this."""
        return REF_NOMINAL_S * self.n / self.cpu if self.n else 1.0

    def local_scale(self, start, end):
        """The scale from the median chunk timed within POINT_WINDOW_S of
        the interval [start, end]; the pass's scale if there is none.
        The median, because a window holds only about ten chunks, and one
        slowed by a thread switch would move their mean."""
        times = [t for t, _ in self.log]
        lo = bisect.bisect_left(times, start - POINT_WINDOW_S)
        hi = bisect.bisect_right(times, end + POINT_WINDOW_S)
        if lo == hi:
            return self.scale()
        return REF_NOMINAL_S / statistics.median(
            cpu for _, cpu in self.log[lo:hi])


class PointTimer:
    """Times each call of the per-point entries and counts raised calls.
    CPU time is the main thread's; the probe's wall time is taken out."""

    def __init__(self, probe):
        self.probe = probe
        self.ms = []
        self.cpu_ms = []
        self.spans = []          # (start, end) wall time of each point
        self.raised = 0

    def wrap(self, fn):
        clock, cpu, probe = time.perf_counter, time.thread_time, self.probe

        def timed(*args, **kwargs):
            t0, c0, p_wall = clock(), cpu(), probe.wall
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            finally:
                self.cpu_ms.append((cpu() - c0) * 1e3)
                self.ms.append((clock() - t0 - probe.wall + p_wall) * 1e3)
                self.spans.append((t0, clock()))

        return timed


def run_pass(spec, probe):
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    timer = PointTimer(probe)
    for mod_name, attr in spec["entries"]:
        mod = sys.modules["indexkernels." + mod_name]
        setattr(mod, attr, timer.wrap(getattr(mod, attr)))

    outputs = []
    probe.start()
    c0, t0 = time.thread_time(), time.perf_counter()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        outputs.append({"argv": argv, "exit": code, "csv": out.getvalue(),
                        "stderr": err.getvalue()})
    cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
    probe.stop()
    wall -= probe.wall
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from indexkernels import config
    result = {"wall_s": wall, "cpu_s": cpu, "point_ms": timer.ms,
              "point_cpu_ms": timer.cpu_ms, "raised": timer.raised,
              "peak_rss_mb": rss_kb / 1024.0, "outputs": outputs,
              "dps": config.get().dps, "scale": probe.scale(),
              "point_scale": [probe.local_scale(*s) for s in timer.spans]}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
    return result


def setup_scale():
    """The probe's scale from chunks timed back to back."""
    probe = SpeedProbe()
    for _ in range(SETUP_CHUNKS):
        probe.sample()
    return probe.scale()


if __name__ == "__main__":
    result = {"setup_scale": setup_scale()}
    if len(sys.argv) > 1:
        result.update(run_pass(json.loads(sys.argv[1]), SpeedProbe()))
    print(json.dumps(result))
