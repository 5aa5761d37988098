"""Workload definitions: CLI argv lists generated from a seed.

Each workload is one *pass*: a fixed list of `index-kernels` argv lists
run in order inside one fresh interpreter.  The seed shifts grid offsets
by whole thousandths inside the ranges stated below, so a seed always
names the same inputs and different seeds cost about the same.
`tiny=True` shrinks every grid for the smoke test.

POINT_ENTRIES names, per subcommand, the per-point entry that the child
process times (one outer timer around each grid point).
"""

import random

NAMES = ("verify-grid", "fit-envelope", "expand-remainder",
         "route-crosscheck")

# (module, attribute) the CLI calls once per grid point
POINT_ENTRIES = {
    "verify": [("bounds", "evaluate_bound")],
    "sweep": [("kernels", "eval")],
    "expand": [("kernels", "thm1_report"), ("kernels", "thm2_main_and_bound"),
               ("kernels", "thm3_main_and_bound"),
               ("kernels", "thm4_main_and_bound")],
    # fit_lebedev_constants calls k_index through the name bound in bounds
    "fit-constants": [("bounds", "k_index")],
}


def _num(v):
    return ("%.4f" % v).rstrip("0").rstrip(".")


def _axis(axis, start, step, count):
    stop = start + step * (count - 1)
    return "%s=%s:%s:%s" % (axis, _num(start), _num(stop), _num(step))


def _offset(rng, top, start, step=0.0, count=1):
    """A seed-chosen offset in (0, top) on a 0.001 lattice.

    No shifted value start + offset + i*step (i < count) is a multiple of
    1/8.  Such values are exact in binary, and the package's arithmetic
    on them is cheaper: the mehler-fock verify sweeps cost 17% less at
    tau = 0.5 than at tau = 0.502, which would make the cost jump with
    the seed.
    """
    while True:
        o = rng.randrange(1, int(round(top * 1000))) / 1000.0
        if all(round((start + o + i * step) * 1000) % 125
               for i in range(count)):
            return o


def verify_grid(rng, tiny):
    # the 10 criterion-4 argv lists of the acceptance suite, on a 4x4
    # subgrid of its grid tau in [0.5, 10], x in [0.1, 2]
    n = 2 if tiny else 4
    tau = _axis("tau", 0.5 + _offset(rng, 0.05, 0.5, 2.5, n), 2.5, n)
    x = _axis("x", 0.1 + _offset(rng, 0.03, 0.1, 0.5, n), 0.5, n)
    grid = ["--grid", tau, "--grid", x]
    cmds = [["verify", "--bound", "kl", "--n", k] + grid
            for k in ("1", "2", "3")]
    cmds += [["verify", "--bound", "mehler-fock", "--n", "1", "--mu", mu]
             + grid for mu in ("0.5", "1")]
    cmds.append(["verify", "--bound", "product"] + grid)
    cmds += [["verify", "--bound", "whittaker", "--n", "1", "--mu", mu]
             + grid for mu in ("0.5", "1")]
    cmds += [["verify", "--bound", "olevskii", "--mu", mu, "--nu", nu] + grid
             for mu, nu in (("0.5", "0.25"), ("0.75", "0"))]
    return cmds


def fit_envelope(rng, tiny):
    n = "4" if tiny else "16"
    T = 1 + _offset(rng, 0.05, 1.0)
    return [["fit-constants", "--T", _num(T), "--nx", n, "--ntau", n]]


def expand_remainder(rng, tiny):
    # default tau grid 5:12:0.5 (15 points) at one seed-shifted x per
    # kernel.  The product runs at another x than the square, so its
    # k_itau_quad calls miss the cache the square filled, whatever the
    # seed.  whittaker needs x <= x0 = 0.5, so it cannot use the default
    # x grid.
    tau = ["--grid", "tau=5:5.5:0.5"] if tiny else []
    x = 0.5 + _offset(rng, 0.03, 0.5, 0.05, 2)
    cmds = [["expand", "--kernel", kernel] + tau
            + ["--grid", _axis("x", x + shift, 1, 1)]
            for kernel, shift in (("kl", 0), ("lebedev-square", 0),
                                  ("lebedev-product", 0.05))]
    cmds.append(["expand", "--kernel", "whittaker"] + tau
                + ["--grid", _axis("x", 0.3 + _offset(rng, 0.03, 0.3), 1, 1)])
    return cmds


# Quadrature routes cost seconds per point and their adaptive degree
# jumps with the point, so they run at fixed points inside each route's
# domain: product tau <= 2, whittaker rho < 0, olevskii x <= 10.  The
# mehler-fock point has P < 0, where the quadrature route returns |P|.
CROSS_POINTS = [
    ("lebedev-product", "0.5", "1", []),
    ("whittaker", "3", "2", ["--rho", "-0.3"]),
    ("olevskii", "3", "0.3", ["--mu", "0.5", "--nu", "0.25"]),
    ("mehler-fock", "3", "0.8", ["--mu", "0.7"]),
]


def route_crosscheck(rng, tiny):
    # kl quadrature runs on a 2x2 subgrid of the 8x8 kl series grid, so
    # series points are the large majority and the median point is a
    # series one rather than the gap between the series and quadrature
    # clusters.  The series x grid is dense because series costs come in
    # steps: on a sparse grid the median fell between steps and moved 12%
    # from seed to seed.  Each kernel runs its series sweep, then its
    # quadrature sweep, with one kl series row before and one after, so
    # the series points (and the median) sample the whole pass at eight
    # moments, not its first fraction of a second.
    n = 1 if tiny else 2
    # kl runs at tau0 + j (j < 8) and on the x0 + 0.35 j grid
    tau0 = 1 + _offset(rng, 0.05, 1.0, 1.0, 8)
    x0 = 0.5 + _offset(rng, 0.05, 0.5, 0.35, 4 * n)
    kl_x = ["--grid", _axis("x", x0, 0.35, 4 * n)]
    points = CROSS_POINTS[3:] if tiny else CROSS_POINTS

    def kl_row(row):
        return (["sweep", "--kernel", "kl", "--route", "series",
                 "--grid", _axis("tau", tau0 + row, 1, 1)] + kl_x)

    cmds = []
    for k, (kernel, tau, x, extra) in enumerate(points):
        cmds.append(kl_row(2 * k))
        for route in ("series", "quadrature"):
            cmds.append(["sweep", "--kernel", kernel, "--route", route,
                         "--grid", "tau=%s:%s:1" % (tau, tau),
                         "--grid", "x=%s:%s:1" % (x, x)] + extra)
        cmds.append(kl_row(2 * k + 1))
    cmds.append(["sweep", "--kernel", "kl", "--route", "quadrature",
                 "--grid", _axis("tau", tau0, 4, n),
                 "--grid", _axis("x", x0, 1.4, n)])
    return cmds


_BUILDERS = {
    "verify-grid": verify_grid,
    "fit-envelope": fit_envelope,
    "expand-remainder": expand_remainder,
    "route-crosscheck": route_crosscheck,
}


def commands(name, seed, tiny=False):
    """The argv lists of one pass of workload `name` for `seed`."""
    return _BUILDERS[name](random.Random("%s:%d" % (name, seed)), tiny)


def point_entries(cmds):
    """The (module, attribute) pairs timed per point for these argv lists."""
    kinds = {argv[0] for argv in cmds}
    if len(kinds) != 1:
        raise ValueError("a pass mixes subcommands %s" % sorted(kinds))
    return POINT_ENTRIES[kinds.pop()]
