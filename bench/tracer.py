"""In-memory span tracer for the package's public functions.

Each listed function is replaced, in every `indexkernels` module namespace
that binds the same object, by a wrapper that records a span
(name, start, end, parent) on the main thread's CPU clock, like the
gated end-to-end times; the speed probe's thread (see child.py) is not
counted.  `from .special import ln_gamma` copies the binding
into several modules, so wrapping only the defining module would miss
most calls.  Self time is a span's duration minus the time its direct
child spans cover.  A few counters are read from arguments,
return values and the K caches at the same boundaries.
"""

import sys
import time

TRACED = {
    "special": ("ln_gamma", "hyp1f1", "hyp1f2", "hyp2f1", "binet_r",
                "_series_adaptive", "_series_sum"),
    "bessel": ("bessel_i", "bessel_j", "bessel_k_real", "k_itau_series",
               "k_itau_quad", "k_index"),
    "quadrature": ("mehler_fock_sq", "product_kernel_quad", "whittaker_quad",
                   "olevskii_quad"),
    "kernels": ("eval", "conical_p", "olevskii_direct", "whittaker_direct",
                "product_kernel_direct", "k_squared_direct", "thm1_report",
                "thm2_main_and_bound", "thm3_main_and_bound",
                "thm4_main_and_bound"),
    "bounds": ("evaluate_bound", "fit_lebedev_constants"),
    "cli": ("main",),
}

# mpmath.quad as bound (by `from mpmath import quad`) in these modules
QUAD_MODULES = ("bessel", "special", "quadrature")

COUNTERS = ("special.series.terms", "special.series.passes",
            "special.series.sums", "bessel.k_index.to_series",
            "bessel.k_index.to_quad", "bessel.k_cache.lookups",
            "bessel.k_cache.hits", "quadrature.nodes")


def metric_names():
    """Per-layer metric names, in report order."""
    names = []
    for mod, fns in TRACED.items():
        for fn in fns:
            names += ["%s.%s.calls" % (mod, fn), "%s.%s.self_s" % (mod, fn)]
    names += ["mpmath.quad.calls", "mpmath.quad.self_s"]
    return names + list(COUNTERS)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "indexkernels"
                                  or name.startswith("indexkernels."))]


def rebind(obj, replacement, modules=None):
    """Replace every module-level binding of `obj` by `replacement`."""
    for mod in modules or _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is obj:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.calls = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []

    def _wrap(self, name, fn, after=None):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.thread_time
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            state = after.before() if after else None
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after.done(result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function; call once, after importing the CLI."""
        import mpmath
        from indexkernels import bessel
        hooks = _hooks(self, bessel)
        for mod_name, fns in TRACED.items():
            mod = sys.modules["indexkernels." + mod_name]
            for fn_name in fns:
                name = "%s.%s" % (mod_name, fn_name)
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                rebind(fn, self._wrap(name, fn, hooks.get(name)))
        quad_mods = [sys.modules["indexkernels." + m] for m in QUAD_MODULES]
        rebind(mpmath.quad, self._wrap("mpmath.quad", mpmath.quad), quad_mods)

    def metrics(self):
        """Calls, self seconds and counters, keyed by metric name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(self.calls, 0.0)
        for (name, start, end, _), cov in zip(self.spans, covered):
            self_s[name] += (end - start) - cov
        out = {}
        for name in metric_names():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls.get(base, 0)
            elif kind == "self_s":
                out[name] = self_s.get(base, 0.0)
            else:
                out[name] = self.counts[name]
        return out


class _After:
    def __init__(self, before, done):
        self.before = before
        self.done = done


def _hooks(tracer, bessel):
    counts, calls = tracer.counts, tracer.calls

    def cache_size():
        return len(bessel._ks_cache) + len(bessel._kq_cache)

    def cache_done(result, size_before):
        # a raising call never reaches here, so it counts as neither
        counts["bessel.k_cache.lookups"] += 1
        if cache_size() == size_before:
            counts["bessel.k_cache.hits"] += 1

    def route_before():
        return (calls.get("bessel.k_itau_series", 0),
                calls.get("bessel.k_itau_quad", 0))

    def route_done(result, before):
        if calls.get("bessel.k_itau_series", 0) > before[0]:
            counts["bessel.k_index.to_series"] += 1
        elif calls.get("bessel.k_itau_quad", 0) > before[1]:
            counts["bessel.k_index.to_quad"] += 1

    def series_done(result, _):
        counts["special.series.passes"] += 1
        counts["special.series.terms"] += result[2]

    def adaptive_done(result, _):
        counts["special.series.sums"] += 1

    def nodes_done(result, _):
        counts["quadrature.nodes"] += getattr(result, "nodes_used", 0)

    cache = _After(cache_size, cache_done)
    nodes = _After(lambda: None, nodes_done)
    return {
        "bessel.k_itau_series": cache,
        "bessel.k_itau_quad": cache,
        "bessel.k_index": _After(route_before, route_done),
        "special._series_sum": _After(lambda: None, series_done),
        "special._series_adaptive": _After(lambda: None, adaptive_done),
        "quadrature.product_kernel_quad": nodes,
        "quadrature.whittaker_quad": nodes,
        "quadrature.olevskii_quad": nodes,
    }
