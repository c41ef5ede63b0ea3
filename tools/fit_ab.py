"""A/B timing of fit_postestimator per step: one source tree against another.

    python tools/fit_ab.py PARENT_SRC CHANGE_SRC
    python tools/fit_ab.py PARENT_SRC CHANGE_SRC --pairs 10 --iterations 500
    python tools/fit_ab.py PARENT_SRC CHANGE_SRC --sizes 4096 --pairs 20

PARENT_SRC and CHANGE_SRC are directories that hold a ``whdpd`` package
(the ``src/`` of two checkouts). For each capture length N (``--sizes``,
default 64, 4096 and 16384 samples; K1 = K2 = 15) and each fit mode, a WH
fit and one with the cubic held at 0 (``lr_nl = 0``; the sweep's linear mode
does not run Adam but solves for its filter, see ``learn.fit_linear``), the
tool runs ``--pairs`` pairs of fresh interpreters, one per side,
alternating which side runs first, so a host whose speed drifts slows both
sides alike. Each run imports whdpd from its tree only, with one BLAS
thread, fits a cubic distortion of a fixed random capture for 20 steps to
warm up, then times one fit of ``--iterations`` steps that runs its whole
budget. It reports the time per step and a SHA-256 digest of the fit's
history (iteration, loss and gradient norm of every step, as float hex),
final coefficients and stored amplitudes. The tool prints, per N, mode and
side, the median and quartiles of the time per step, the pairs the change
won, and the digests: one digest per N and mode on both sides means the
two trees fit bit for bit alike. ``--json PATH`` also writes every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIZES = (64, 4096, 16384)
K = 15
# fit mode -> the nonlinear learning rate it fits with
MODES = {"wh": 1e-4, "lr_nl=0": 0.0}

RUN = r"""
import hashlib, json, sys, time
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import numpy as np
import whdpd
from whdpd import FitConfig, SampledSignal, WhModel, fit_postestimator
from whdpd.learn import pack
if not Path(whdpd.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported whdpd from {whdpd.__file__}, not {src}")
n, k, iterations = map(int, sys.argv[2:5])
lr_nl = float(sys.argv[5])
x = np.random.default_rng(0).normal(size=n) * 0.3
args = (SampledSignal(x), SampledSignal(x + 0.1 * x ** 3))
fit_postestimator(*args, WhModel.lnl(k, k),
                  FitConfig(iterations=20, lr_nl=lr_nl))
t = time.perf_counter()
art = fit_postestimator(*args, WhModel.lnl(k, k),
                        FitConfig(iterations=iterations, lr_nl=lr_nl,
                                  tol=1e-300))
per_step = (time.perf_counter() - t) / art.iterations
h = hashlib.sha256()
for it, j, gn in art.history:
    h.update(f"{it} {float(j).hex()} {float(gn).hex()};".encode())
h.update(pack(art.model).tobytes())
h.update(repr(sorted(art.nl_input_amplitudes.items())).encode())
print(json.dumps({"us_per_step": per_step * 1e6, "digest": h.hexdigest(),
                  "iterations": art.iterations}))
"""


def run(src, n, iterations, mode):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", RUN, str(src), str(n),
                           str(K), str(iterations), str(MODES[mode])],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("change_src", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--sizes", type=int, nargs="+", default=SIZES,
                   metavar="N", help="capture lengths to time (default: "
                   "%(default)s)")
    p.add_argument("--json", type=Path, help="write every run here")
    args = p.parse_args(argv)
    if args.pairs < 2 or args.iterations < 1 or min(args.sizes) < 1:
        p.error("quartiles need --pairs >= 2; --iterations and --sizes "
                "must be >= 1")
    sides = {"parent": args.parent_src, "change": args.change_src}
    cases = [(n, mode) for n in args.sizes for mode in MODES]
    runs = []
    for n, mode in cases:
        for pair in range(args.pairs):
            for side in sorted(sides, reverse=pair % 2 == 1):
                runs.append(dict(run(sides[side], n, args.iterations, mode),
                                 n=n, mode=mode, pair=pair, side=side))
    for n, mode in cases:
        at = {side: [r for r in runs if (r["n"], r["mode"], r["side"])
                     == (n, mode, side)] for side in sides}
        times = {side: [r["us_per_step"] for r in rs]
                 for side, rs in at.items()}
        wins = sum(c < q for q, c in zip(times["parent"], times["change"]))
        print(f"N = {n}, K = {K}, {mode} fit, {args.iterations} steps, "
              f"{args.pairs} pairs; change faster in {wins}")
        for side in sides:
            med, q1, q3 = quartiles(times[side])
            digests = sorted({r["digest"] for r in at[side]})
            print(f"  {side:6s} {med:8.1f} us/step [{q1:.1f}, {q3:.1f}]  "
                  f"history digest {', '.join(d[:16] for d in digests)}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
