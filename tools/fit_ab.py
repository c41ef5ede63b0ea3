"""A/B timing of the fit step or of an evaluation: one source tree against
another.

    python tools/fit_ab.py PARENT_SRC CHANGE_SRC
    python tools/fit_ab.py PARENT_SRC CHANGE_SRC --pairs 10 --iterations 500
    python tools/fit_ab.py PARENT_SRC CHANGE_SRC --sizes 4096 --pairs 20
    python tools/fit_ab.py PARENT_SRC CHANGE_SRC --sizes 131072 --k 401

PARENT_SRC and CHANGE_SRC are directories that hold a ``whdpd`` package
(the ``src/`` of two checkouts). For each capture length N (``--sizes``,
default 64, 4096 and 16384 samples; K1 = K2 = ``--k``, default 15, and
401 at the stress workload's point) and each fit mode, a WH fit and one
with the cubic held at 0 (``lr_nl = 0``; the sweep's linear mode does not
run Adam but solves for its filter, see ``learn.fit_linear``), the tool
runs ``--pairs`` pairs of fresh interpreters, one per side,
alternating which side runs first, so a host whose speed drifts slows both
sides alike. Each run imports whdpd from its tree only, with one BLAS
thread, fits a cubic distortion of a fixed random capture for 20 steps to
warm up, then times one fit of ``--iterations`` steps with a tolerance of
1e-300, which stops it only where its loss repeats exactly over the stop
window (as a fit's float32 losses can, once converged to their
resolution). It reports the time per step, the steps run, a SHA-256
digest of the fit's
history (iteration, loss and gradient norm of every step, as float hex),
final coefficients and stored amplitudes, and the returned model's loss/N
recomputed by a float64 forward. The tool prints, per N, mode and side,
the median and quartiles of the time per step, the pairs the change won,
the digests and the recomputed loss: one digest per N and mode on both
sides means the two trees fit bit for bit alike, and where they differ,
as when a tree fits in another precision, the relative gap between the
sides' losses shows what it cost. ``--json PATH`` also writes every run.

    python tools/fit_ab.py PARENT_SRC CHANGE_SRC --evaluate

``--evaluate`` times ``Workbench.evaluate`` instead, by the same pairs of
interpreters, at the benchmark workloads' sizes (``--sizes`` symbols,
default 8192, 65536 and 2048, with K1 = K2 = 15, 401 and 15; other sizes
take K = 15; ``--k`` sets K1 = K2 at every size). Each run builds a
Workbench on the paper-like channel, takes a WH fit of ``--iterations``
steps (default 50) at drive 0.9, then makes ten rounds of evaluations
without and with that DPD at drives 0.6, 0.9 and 1.3. It reports its mean
evaluation, the mean of the first evaluation of each artifact in a round
(cold: the artifact differs from the one before) and of the two that
repeat it (held), its fastest evaluation, and two SHA-256 digests of every
evaluation as float hex: one of its SNR and output RMS, one of its PAPR,
so that a change that moves only the PAPR's last bits reads apart from one
that moves the SNR. Where the two sides' digests differ, it also prints,
as the fit mode prints its loss gap, the largest change, over the
evaluations of each pair's two runs, of ``snr_db`` in dB and of
``out_rms`` and ``papr_db`` relative to the parent's. At each size a
second case times a raw ``sweep_amplitude_with_fixed_dpd`` of that fit
over drives 0.9 to 1.3 in steps of 0.1, as the stress workload runs it,
ten times, with the same two digests of its report rows. The tool prints,
per case and side, the median and quartiles of the runs' means, the
fastest evaluation or sweep of all runs, and the digests. The runs use
only ``Workbench``, ``ExperimentConfig``, ``FitConfig``,
``sweep_amplitude_with_fixed_dpd`` and ``paper_like_preset``, so they run
on older trees too.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIZES = (64, 4096, 16384)
K = 15
# fit mode -> the nonlinear learning rate it fits with
MODES = {"wh": 1e-4, "lr_nl=0": 0.0}
# --evaluate: symbols -> K1 = K2, the paper-train, stress and sweep-small
# workloads' sizes
EVAL_SIZES = {8192: 15, 65536: 401, 2048: 15}
ROUNDS = 10

IMPORT = r"""
import hashlib, json, sys, time
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import numpy as np
import whdpd
if not Path(whdpd.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported whdpd from {whdpd.__file__}, not {src}")
"""

RUN = IMPORT + r"""
from whdpd import FitConfig, SampledSignal, WhModel, fit_postestimator
from whdpd.learn import loss, pack
from whdpd.model import wh_forward
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
out, _ = wh_forward(art.model, args[0])
print(json.dumps({"time": per_step * 1e6, "digest": h.hexdigest(),
                  "iterations": art.iterations,
                  "loss": loss(out, args[1]) / n}))
"""

EVALUATE = IMPORT + r"""
from whdpd.experiment import (ExperimentConfig, Workbench,
                              sweep_amplitude_with_fixed_dpd)
from whdpd.learn import FitConfig
from whdpd.txsim import paper_like_preset
sweep, n_symbols, k, iterations, rounds = map(int, sys.argv[2:7])
cfg = ExperimentConfig(n_symbols=n_symbols, k1=k, k2=k,
                       channel=paper_like_preset(),
                       fit=FitConfig(iterations=iterations),
                       amplitudes=(0.9, 1.0, 1.1, 1.2, 1.3))
bench = Workbench(cfg)
artifact = bench.train(0.9)
h, h_papr = hashlib.sha256(), hashlib.sha256()
values = []
def record(m):
    h.update(f"{float(m['snr_db']).hex()} {float(m['out_rms']).hex()};"
             .encode())
    h_papr.update(f"{float(m['papr_db']).hex()};".encode())
    values.append([float(m[c]) for c in ("snr_db", "out_rms", "papr_db")])
cold, held = [], []
for _ in range(rounds):
    if sweep:
        # timed whole: its first evaluation is cold, the other four held
        t = time.perf_counter()
        rows = sweep_amplitude_with_fixed_dpd(cfg, artifact).rows
        cold.append(time.perf_counter() - t)
        for m in rows:
            record(m)
        continue
    for art in (None, artifact):
        for i, v in enumerate((0.6, 0.9, 1.3)):
            t = time.perf_counter()
            m = bench.evaluate(art, v)
            (held if i else cold).append(time.perf_counter() - t)
            record(m)
def mean_ms(times):
    return sum(times) / len(times) * 1e3
out = {"time": mean_ms(cold + held), "min": min(cold + held) * 1e3,
       "digest": h.hexdigest(), "papr_digest": h_papr.hexdigest(),
       "values": values}
if held:
    out.update(cold=mean_ms(cold), held=mean_ms(held))
print(json.dumps(out))
"""


def run(src, script, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script, str(src),
                           *map(str, args)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def evaluation_gaps(parent, change):
    """The largest |change - parent| of snr_db (dB) and of out_rms and
    papr_db relative to the parent's, over the evaluations of each pair's
    two runs."""
    gaps = [0.0, 0.0, 0.0]
    for p, c in zip(parent, change):
        for pv, cv in zip(p["values"], c["values"]):
            for j, (a, b) in enumerate(zip(pv, cv)):
                gap = abs(b - a) / (abs(a) if j and a else 1.0)
                gaps[j] = max(gaps[j], gap)
    return gaps


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("change_src", type=Path)
    p.add_argument("--evaluate", action="store_true",
                   help="time Workbench.evaluate instead of the fit step")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--iterations", type=int,
                   help="fit steps (default: 500, or 50 with --evaluate)")
    p.add_argument("--sizes", type=int, nargs="+", metavar="N",
                   help="capture lengths, or symbol counts with --evaluate "
                   f"(default: {SIZES}, or {tuple(EVAL_SIZES)})")
    p.add_argument("--k", type=int,
                   help=f"taps of each FIR block, K1 = K2 (default: {K}, "
                   "or with --evaluate the workload's K at each size)")
    p.add_argument("--json", type=Path, help="write every run here")
    args = p.parse_args(argv)
    iterations = args.iterations
    if iterations is None:
        iterations = 50 if args.evaluate else 500
    sizes = args.sizes or (EVAL_SIZES if args.evaluate else SIZES)
    if args.pairs < 2 or min(iterations, *sizes, args.k or K) < 1:
        p.error("quartiles need --pairs >= 2; --iterations, --sizes and "
                "--k must be >= 1")
    if args.evaluate:
        ks = {n: args.k or EVAL_SIZES.get(n, K) for n in sizes}
        cases = {f"{n} symbols, K = {ks[n]}, "
                 f"{what} after a {iterations}-step fit, {ROUNDS} rounds":
                 (EVALUATE, sweep, n, ks[n], iterations, ROUNDS)
                 for n in sizes
                 for sweep, what in enumerate(("evaluate",
                                               "raw 5-drive fixed sweep"))}
        unit, digest = "ms", "SNR and RMS digest"
    else:
        k = args.k or K
        cases = {f"N = {n}, K = {k}, {mode} fit, {iterations} steps":
                 (RUN, n, k, iterations, MODES[mode])
                 for n in sizes for mode in MODES}
        unit, digest = "us/step", "history digest"
    sides = {"parent": args.parent_src, "change": args.change_src}
    runs = []
    for case, (script, *case_args) in cases.items():
        for pair in range(args.pairs):
            for side in sorted(sides, reverse=pair % 2 == 1):
                runs.append(dict(run(sides[side], script, *case_args),
                                 case=case, pair=pair, side=side))
    for case in cases:
        at = {side: [r for r in runs if (r["case"], r["side"])
                     == (case, side)] for side in sides}
        times = {side: [r["time"] for r in rs] for side, rs in at.items()}
        wins = sum(c < q for q, c in zip(times["parent"], times["change"]))
        print(f"{case}, {args.pairs} pairs; change faster in {wins}")
        for side in sides:
            med, q1, q3 = quartiles(times[side])
            fastest = (f", fastest {min(r['min'] for r in at[side]):.3f}"
                       if args.evaluate else "")
            digests = sorted({r["digest"] for r in at[side]})
            steps = ("" if args.evaluate else ", steps " + ", ".join(
                map(str, sorted({r["iterations"] for r in at[side]}))))
            print(f"  {side:6s} {med:8.3f} {unit} [{q1:.3f}, {q3:.3f}]"
                  f"{fastest}{steps}  {digest} "
                  f"{', '.join(d[:16] for d in digests)}")
            if args.evaluate:
                print("    PAPR digest " + ", ".join(sorted(
                    {r["papr_digest"][:16] for r in at[side]})))
            for part in ("cold", "held"):
                if part in at[side][0]:
                    med, q1, q3 = quartiles([r[part] for r in at[side]])
                    print(f"    {part} {med:8.3f} {unit} "
                          f"[{q1:.3f}, {q3:.3f}]")
            if "loss" in at[side][0]:
                losses = sorted({r["loss"] for r in at[side]})
                print("    float64 loss/N of the returned model "
                      + ", ".join(f"{j:.10e}" for j in losses))
        if "loss" in at["parent"][0]:
            parent, change = (statistics.median(r["loss"] for r in at[side])
                              for side in ("parent", "change"))
            gap = (change - parent) / parent if parent else math.nan
            print(f"  loss/N, change against parent: {gap:+.3e} relative")
        if args.evaluate and any(
                {r[d] for r in at["parent"]} != {r[d] for r in at["change"]}
                for d in ("digest", "papr_digest")):
            snr, rms, papr = evaluation_gaps(at["parent"], at["change"])
            print(f"  change against parent, largest: |d snr_db| {snr:.3e}"
                  f" dB, |d out_rms| {rms:.3e} and |d papr_db| {papr:.3e}"
                  " relative")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
