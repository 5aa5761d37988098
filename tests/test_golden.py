"""Golden CLI outputs: stdout, exit code and stderr of a fixed set of
commands, byte-compared against the files in tests/golden/.

    python tests/test_golden.py    # rewrite tests/golden/ from this tree

A refactor leaves these files untouched.  Only a change that means to
move values rewrites them, and says why.  Lines carrying wall times
(`*_time_s`) are dropped.  A usage error (exit 2) is recorded by its
stdout and exit code only: its message is wording, not a value.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

VGRID = "--grid tau=0.5:3:2.5 --grid x=0.3:1.3:1"
SWEEP = "--grid tau=1.5:2:0.5 --grid x=0.8:0.8:1"

COMMANDS = {
    # one value per (kernel, route)
    "eval-kl-series": "eval --kernel kl --x 1 --tau 2 --route series",
    "eval-kl-default-route": "eval --kernel kl --x 0.5 --tau 3",
    "eval-kl-quadrature": "eval --kernel kl --x 1 --tau 2 --route quadrature",
    "eval-kl-asymptotic": "eval --kernel kl --x 1 --tau 8 --route asymptotic",
    "eval-square-asymptotic": ("eval --kernel lebedev-square --x 1 --tau 8 "
                               "--route asymptotic"),
    "eval-product-asymptotic": ("eval --kernel lebedev-product --x 1 "
                                "--tau 8 --route asymptotic"),
    "eval-whittaker-asymptotic": ("eval --kernel whittaker --rho 0.3 "
                                  "--x 0.5 --tau 8 --route asymptotic"),
    "eval-whittaker-f11": ("eval --kernel whittaker --rho 0.3 --x 0.5 "
                           "--tau 2 --route f11"),
    "eval-whittaker-series218": ("eval --kernel whittaker --rho 0.3 "
                                 "--x 0.5 --tau 2 --route series218"),
    "eval-mehler-fock-conical": ("eval --kernel mehler-fock --mu 0.7 "
                                 "--x 0.8 --tau 3 --route conical"),
    "eval-olevskii-series": ("eval --kernel olevskii --mu 1.3 --nu 0.2 "
                             "--x 0.5 --tau 1"),
    "eval-olevskii-asymptotic": ("eval --kernel olevskii --mu 1.3 --nu 0.2 "
                                 "--x 0.5 --tau 12 --route asymptotic"),
    "eval-precision-loss": "eval --kernel kl --x 1 --tau 200",
    # raw values by every route, on two points
    "sweep-kl-series": "sweep --kernel kl " + SWEEP,
    "sweep-kl-quadrature": "sweep --kernel kl --route quadrature " + SWEEP,
    "sweep-kl-asymptotic": "sweep --kernel kl --route asymptotic " + SWEEP,
    "sweep-square-series": "sweep --kernel lebedev-square " + SWEEP,
    "sweep-square-quadrature": ("sweep --kernel lebedev-square "
                                "--route quadrature " + SWEEP),
    "sweep-square-asymptotic": ("sweep --kernel lebedev-square "
                                "--route asymptotic " + SWEEP),
    "sweep-product-series": "sweep --kernel lebedev-product " + SWEEP,
    "sweep-product-quadrature": ("sweep --kernel lebedev-product "
                                 "--route quadrature --grid tau=0.5:0.5:1 "
                                 "--grid x=1:1:1"),
    "sweep-product-quadrature-cap": ("sweep --kernel lebedev-product "
                                     "--route quadrature --grid tau=3:3:1 "
                                     "--grid x=1:1:1"),
    "sweep-product-quadrature-nonconvergence": (
        "sweep --kernel lebedev-product --route quadrature "
        "--grid tau=100:100:1 --grid x=0.5:0.5:1"),
    "sweep-product-asymptotic": ("sweep --kernel lebedev-product "
                                 "--route asymptotic " + SWEEP),
    "sweep-whittaker-series": "sweep --kernel whittaker --rho -0.3 " + SWEEP,
    "sweep-whittaker-series218": ("sweep --kernel whittaker --rho -0.3 "
                                  "--route series218 " + SWEEP),
    "sweep-whittaker-quadrature": ("sweep --kernel whittaker --rho -0.3 "
                                   "--route quadrature --grid tau=3:3:1 "
                                   "--grid x=2:2:1"),
    "sweep-whittaker-asymptotic": ("sweep --kernel whittaker --rho -0.3 "
                                   "--route asymptotic " + SWEEP),
    "sweep-mehler-fock-series": ("sweep --kernel mehler-fock --mu 0.7 "
                                 + SWEEP),
    "sweep-mehler-fock-quadrature": ("sweep --kernel mehler-fock --mu 0.7 "
                                     "--route quadrature --grid tau=3:3:1 "
                                     "--grid x=0.8:0.8:1"),
    "sweep-olevskii-series": ("sweep --kernel olevskii --mu 0.5 --nu 0.25 "
                              + SWEEP),
    "sweep-olevskii-quadrature": ("sweep --kernel olevskii --mu 0.5 "
                                  "--nu 0.25 --route quadrature "
                                  "--grid tau=3:3:1 --grid x=0.3:0.3:1"),
    "sweep-olevskii-quadrature-cap": ("sweep --kernel olevskii --mu 0.5 "
                                      "--nu 0.25 --route quadrature "
                                      "--grid tau=3:3:1 --grid x=12:12:1"),
    "sweep-olevskii-asymptotic": ("sweep --kernel olevskii --mu 1.3 "
                                  "--nu 0.2 --route asymptotic " + SWEEP),
    # every bound
    "verify-kl-n1": "verify --bound kl " + VGRID,
    "verify-kl-n2": "verify --bound kl --n 2 " + VGRID,
    "verify-kl-n3": "verify --bound kl --n 3 " + VGRID,
    "verify-mehler-fock-mu05": ("verify --bound mehler-fock --n 1 --mu 0.5 "
                                + VGRID),
    "verify-mehler-fock-mu1": "verify --bound mehler-fock --mu 1 " + VGRID,
    "verify-product": "verify --bound product " + VGRID,
    "verify-whittaker-mu05": "verify --bound whittaker --mu 0.5 " + VGRID,
    "verify-whittaker-mu1-n2": ("verify --bound whittaker --n 2 --mu 1 "
                                + VGRID),
    "verify-olevskii-a": ("verify --bound olevskii --mu 0.5 --nu 0.25 "
                          + VGRID),
    "verify-olevskii-b": "verify --bound olevskii --mu 0.75 --nu 0 " + VGRID,
    "verify-kummer": ("verify --bound kummer --grid tau=1:2:1 "
                      "--grid x=0.2:0.8:0.3"),
    "verify-kummer-rho": ("verify --bound kummer --rho 0.2 "
                          "--grid tau=1:2:1 --grid x=0.2:0.8:0.3"),
    "verify-binet": "verify --bound binet --grid r=0.25:2.75:2.5",
    "verify-binet-floor": "verify --bound binet --grid r=0.05:0.05:1",
    "verify-kl-large-index": ("verify --bound kl --grid tau=17:17:1 "
                              "--grid x=1:1:1"),
    "verify-slack": ("verify --bound product --slack 0.5 --grid tau=1:1:1 "
                     "--grid x=1:1:1"),
    # every expansion
    "expand-kl": "expand --kernel kl --grid tau=6:8:2 --grid x=0.5:1:0.5",
    "expand-kl-options": ("expand --kernel kl --N 1 --tau0 4 --X 1 "
                          "--grid tau=5:5:1 --grid x=0.5:1:0.5"),
    "expand-square": ("expand --kernel lebedev-square --grid tau=5:6:1 "
                      "--grid x=1:1:1"),
    "expand-product": ("expand --kernel lebedev-product --grid tau=5:6:1 "
                       "--grid x=1:1:1"),
    "expand-whittaker": ("expand --kernel whittaker --grid tau=5:6:1 "
                         "--grid x=0.25:0.25:1"),
    "expand-whittaker-options": ("expand --kernel whittaker --rho 0.2 "
                                 "--x0 0.6 --tau0 4 --slack 1e-3 "
                                 "--grid tau=5:5:1 --grid x=0.5:0.5:1"),
    # crossover, hit and missed
    "crossover-kl": "crossover --kernel kl --x 1 --tol 10 --grid tau=2:6:1",
    "crossover-kl-bisect": ("crossover --kernel kl --x 1 --tol 1e-3 "
                            "--grid tau=0.5:4:0.5"),
    "crossover-unreachable": ("crossover --kernel kl --x 1 --tol 1e-35 "
                              "--grid tau=2:6:1"),
    "fit-constants": "fit-constants --T 1 --nx 4 --ntau 4",
    # usage errors
    "usage-eval-no-x": "eval --kernel kl --tau 2",
    "usage-eval-no-tau": "eval --kernel kl --x 1",
    "usage-eval-bad-route": "eval --kernel kl --x 1 --tau 2 --route nope",
    "usage-eval-no-rho": "eval --kernel whittaker --x 0.5 --tau 2",
    "usage-verify-no-bound": "verify --grid tau=1:1:1",
    "usage-verify-unknown-bound": "verify --bound nope --grid tau=1:1:1",
    "usage-verify-kummer-domain": ("verify --bound kummer --grid tau=1:1:1 "
                                   "--grid x=1.5:1.5:1"),
    "usage-verify-olevskii-mu": ("verify --bound olevskii --mu 1.2 "
                                 "--nu 0.2 --grid tau=1:1:1 --grid x=1:1:1"),
    "usage-expand-kernel": ("expand --kernel olevskii --grid tau=6:6:1 "
                            "--grid x=1:1:1"),
    "usage-bad-grid": "sweep --kernel kl --grid tau=3:1:1",
    "usage-fit-range": "fit-constants --T 50",
}


def render(argv):
    """The golden text of one command, run in this process."""
    from indexkernels.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = "$ index-kernels %s\nexit %d\n--- stdout\n%s" % (
        " ".join(argv), code, out.getvalue())
    if code != 2:
        kept = [l for l in err.getvalue().splitlines(True)
                if "_time_s = " not in l]
        text += "--- stderr\n" + "".join(kept)
    return text


def _path(name):
    return GOLDEN / (name + ".txt")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name, monkeypatch):
    monkeypatch.delenv("INDEX_KERNELS_CFG", raising=False)
    want = _path(name).read_bytes().decode()
    assert render(COMMANDS[name].split()) == want


def rewrite():
    os.environ.pop("INDEX_KERNELS_CFG", None)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name, cmd in sorted(COMMANDS.items()):
        _path(name).write_bytes(render(cmd.split()).encode())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    rewrite()
