"""whdpd benchmark: run one workload from a seed and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 36 --trace 0

The workloads are described in workloads.py. A run sets up the workload,
then repeats timed passes of it until another pass would overrun
``--seconds`` (always at least one pass), checks the outputs of the passes,
and prints one line per metric followed by a JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts operations: every ``Workbench.train`` and
``Workbench.evaluate`` call, every CLI invocation and every output check.
``failed`` counts passes that raised, failed checks, error rows and non-zero
exits. ``failed_share`` is their ratio.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes. ``run_s``, ``train_s`` and ``eval_point_ms`` are means over the
run's passes, trains and evaluations (with and without DPD, in the
workload's fixed mix). On a shared host whose speed switches between levels
up to 40 % apart for seconds at a time, the median of a run's samples jumps
from one level to the other between runs; the mean moves only with the share
of time spent at each.

With ``--trace 1`` the run alternates untraced and traced passes (at least
one of each). In traced passes spans are recorded around the calls into
every whdpd layer (see spans.py), and the metrics are per layer, for the
set-up plus one traced pass. Tracing overhead is the median traced pass time
minus the median untraced pass time.

Each run writes its environment, results and checks to
``perfbench/out/<workload>-s<seed>-t<trace>.json``, and a traced run its spans
to ``perfbench/out/<workload>-s<seed>.spans.jsonl``.

BLAS and OpenMP thread counts are pinned to the number of usable cores
before numpy loads, and all load comes from this one process. ``setup_s`` is
the median of three set-ups (import of whdpd plus construction of the
workload's configuration and Workbench): this process's own and two in
fresh interpreters started one after the other.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("paper-train", "stress", "sweep-small")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
# No pass starts after this many seconds, so a run ends well within 180 s.
PASS_CUTOFF_S = 120.0

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("train_s", "s"),
    ("eval_point_ms", "ms"), ("points_per_s", "1/s"),
    ("final_loss", "loss/N"), ("snr_db", "dB"), ("wh_gain_db", "dB"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("kernels.fir_grad_taps.calls", "count"), ("kernels.fir_grad_taps.ms", "ms"),
    ("kernels.fir_grad_input.calls", "count"),
    ("kernels.fir_grad_input.ms", "ms"),
    ("kernels.fir_same.calls", "count"), ("kernels.fir_same.ms", "ms"),
    ("kernels.poly_apply.ms", "ms"), ("kernels.poly_slope.ms", "ms"),
    ("kernels.fir.mflop", "Mflop"), ("kernels.fir.mb", "MB"),
    ("model.wh_forward.calls", "count"), ("model.wh_forward.ms", "ms"),
    ("model.wh_forward.self_ms", "ms"), ("model.copy.calls", "count"),
    ("learn.fit.ms", "ms"), ("learn.fit.self_ms", "ms"),
    ("learn.fit.iterations", "count"), ("learn.fit.iter_ms", "ms"),
    ("learn.fit.improve_ratio", "ratio"),
    ("learn.wh_backward.ms", "ms"), ("learn.wh_backward.self_ms", "ms"),
    ("learn.adam_step.ms", "ms"),
    ("learn.apply_dpd.ms", "ms"), ("learn.apply_dpd.msps", "MS/s"),
    ("txsim.simulate_tx.calls", "count"), ("txsim.simulate_tx.ms", "ms"),
    ("dsp.synchronize.calls", "count"), ("dsp.synchronize.ms", "ms"),
    ("dsp.snr_db.ms", "ms"), ("dsp.shape_pulse.ms", "ms"),
    ("experiment.self_ms", "ms"), ("experiment.bytes_written", "B"),
    ("experiment.train.fit_loop_share", "ratio"),
    ("experiment.evaluate.path_share", "ratio"),
    ("trace.overhead_ms", "ms"),
)

FIR_KERNELS = ("kernels.fir_same", "kernels.fir_grad_input",
               "kernels.fir_grad_taps")
# Evaluation path: the calls of Workbench.evaluate that do the signal work.
EVAL_PATH = ("learn.apply_dpd", "txsim.simulate_tx", "dsp.synchronize",
             "dsp.snr_db")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print it as JSON")
    return p.parse_args(argv)


def pin_threads():
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_whdpd():
    """Import whdpd from this checkout's src/, never from elsewhere."""
    if not (SRC / "whdpd" / "__init__.py").is_file():
        sys.exit(f"error: whdpd sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import whdpd
    if not Path(whdpd.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported whdpd from {whdpd.__file__}, not {SRC}")


def probe_setup(args):
    """Set-up times measured in fresh interpreters, one after the other."""
    times, errors = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            errors.append("set-up probe ran for more than 120 s")
            continue
        try:
            times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        except (IndexError, ValueError, KeyError):
            errors.append(f"set-up probe exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
    return times, errors


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args, nproc):
    import numpy
    import scipy
    from whdpd import kernels

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "backend": kernels.backend(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": nproc,
        "cpu": read_first("/proc/cpuinfo", "model name"), "caches": caches,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Run:
    """State of one benchmark run: tracer, passes, operation counts."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.passes = []     # dicts: root, traced, wall, outcome
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = []

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def record_checks(self, checks):
        for name, ok, detail in checks:
            self.attempted += 1
            self.checks.append({"check": name, "ok": ok, "detail": detail})
            if not ok:
                self.fail(f"check failed: {name} ({detail})")

    def ok_passes(self, traced):
        return [p for p in self.passes
                if p["outcome"] is not None and p["traced"] == traced]


def run_passes(args, workload, run, fine_sites):
    tracer = run.tracer
    t_start = time.perf_counter()
    while True:
        k = len(run.passes)
        traced = bool(args.trace) and k % 2 == 1
        entry = {"traced": traced, "outcome": None}
        run.passes.append(entry)
        try:
            with (spans.patched(tracer, fine_sites) if traced
                  else nullcontext()):
                with tracer.span("bench.pass") as root:
                    entry["root"] = root
                    data = workload.run()
            entry["wall"] = tracer.duration(root)
            outcome = workload.finish(data, full_checks=(k == 0))
            run.record_checks(outcome.checks)
            entry["outcome"] = outcome
        except Exception:
            run.attempted += 1
            run.fail(f"pass {k} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - t_start
        walls = [p["wall"] for p in run.passes if p["outcome"] is not None]
        typical = statistics.median(walls) if walls else elapsed / (k + 1)
        need_both = args.trace and k < 1
        if elapsed > PASS_CUTOFF_S or (
                not need_both and elapsed + typical > args.seconds):
            break


def count_operations(run):
    """Train and evaluate calls and CLI invocations made inside passes."""
    tracer = run.tracer
    roots = tracer.root_of()
    pass_roots = {p["root"] for p in run.passes if "root" in p}
    ops = ("experiment.train", "experiment.evaluate", "cli.main")
    return sum(1 for i, name in enumerate(tracer.names)
               if name in ops and roots[i] in pass_roots)


def check_determinism(run):
    outs = [p["outcome"].outputs for p in run.passes
            if p["outcome"] is not None]
    if outs:
        run.record_checks([("every pass gives identical quality outputs",
                            all(o == outs[0] for o in outs), str(outs[0]))])


def end_to_end(run, setup_times):
    tracer = run.tracer
    good = run.ok_passes(traced=False)
    roots = tracer.root_of()
    good_roots = {p["root"] for p in good}
    trains, evals = [], []
    for i, name in enumerate(tracer.names):
        if roots[i] not in good_roots:
            continue
        if name == "experiment.train":
            trains.append(tracer.duration(i))
        elif name == "experiment.evaluate":
            evals.append(tracer.duration(i))
    walls = [p["wall"] for p in good]
    outputs = good[0]["outcome"].outputs
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.mean(walls),
        "train_s": statistics.mean(trains),
        "eval_point_ms": statistics.mean(evals) * 1e3,
        "points_per_s": sum(p["outcome"].rows for p in good) / sum(walls),
        "final_loss": outputs["final_loss"],
        "snr_db": outputs["snr_db"],
        "wh_gain_db": outputs["wh_gain_db"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    samples = {"setup_s": setup_times, "run_s": walls, "train_s": trains,
               "eval_point_s": evals}
    return values, samples


# (ancestor, spans under it whose time is "its path") for the share metrics
PATHS = (
    ("experiment.train", ("learn.wh_backward", "kernels.poly_apply")),
    ("experiment.evaluate", EVAL_PATH),
    ("experiment.sweep_fixed", EVAL_PATH),
)


def span_sums(tracer, selected):
    """Flat sums over the spans whose root is in ``selected``: calls, ms and
    self ms per span name; computed FIR Mflop and MB; FIR calls and ms per
    (kernel, N, K); apply_dpd samples; model copies inside fits; and the
    time of each PATHS ancestor's path."""
    roots = tracer.root_of()
    selfs = tracer.self_times()
    in_fit = tracer.under("learn.fit")
    under = {a: (tracer.under(a), names) for a, names in PATHS}
    sums = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for i, name in enumerate(tracer.names):
        if roots[i] not in selected:
            continue
        ms = tracer.duration(i) * 1e3
        add(f"{name}.calls", 1)
        add(f"{name}.ms", ms)
        add(f"{name}.self_ms", selfs[i] * 1e3)
        if name in FIR_KERNELS:
            n, k = tracer.tags[i]
            add("kernels.fir.mflop", 2.0 * n * k / 1e6)
            add("kernels.fir.mb", 8.0 * (2 * n + k) / 1e6)
            group = f"{name} N={n} K={k}"
            add(f"{group}|calls", 1)
            add(f"{group}|ms", ms)
            add(f"{group}|mflop", 2.0 * n * k / 1e6)
            add(f"{group}|mb", 8.0 * (2 * n + k) / 1e6)
        elif name == "learn.apply_dpd":
            add("learn.apply_dpd.samples", tracer.tags[i][0])
        elif name == "model.copy" and in_fit[i]:
            add("model.copy.in_fit", 1)
        for ancestor, (flags, names) in under.items():
            if flags[i] and name in names:
                add(f"{ancestor}.path_ms", ms)
    return sums


def per_layer(run, setup_root):
    """Layer metrics for the set-up plus one traced pass (the mean of the
    traced passes), and the full span table for the results file."""
    tracer = run.tracer
    traced = run.ok_passes(traced=True)
    once = span_sums(tracer, {setup_root})
    passes = span_sums(tracer, {p["root"] for p in traced})
    sums = {k: once.get(k, 0.0) + passes.get(k, 0.0) / len(traced)
            for k in once.keys() | passes.keys()}

    def get(key):
        return sums.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = get("learn.adam_step.calls")
    traced_walls = [p["wall"] for p in traced]
    untraced_walls = [p["wall"] for p in run.ok_passes(traced=False)]
    values = {name: get(name) for name, _ in PER_LAYER}
    values.update({
        "learn.fit.iterations": iterations,
        "learn.fit.iter_ms": ratio(get("learn.fit.ms"), iterations),
        # every fit copies its initial model and its first best model
        # before the first iteration; the other copies are improvements
        "learn.fit.improve_ratio": ratio(
            get("model.copy.in_fit") - 2 * get("learn.fit.calls"),
            iterations),
        "learn.apply_dpd.msps": ratio(get("learn.apply_dpd.samples"),
                                      get("learn.apply_dpd.ms") * 1e3),
        "experiment.self_ms": sum(v for k, v in sums.items()
                                  if k.startswith("experiment.")
                                  and k.endswith(".self_ms")),
        "experiment.bytes_written": statistics.mean(
            p["outcome"].bytes_written for p in traced),
        "experiment.train.fit_loop_share": ratio(
            get("experiment.train.path_ms"), get("experiment.train.ms")),
        "experiment.evaluate.path_share": ratio(
            get("experiment.evaluate.path_ms"), get("experiment.evaluate.ms")),
        "trace.overhead_ms": (statistics.median(traced_walls)
                              - statistics.median(untraced_walls)) * 1e3,
    })
    spans_table = {name: {stat: get(f"{name}.{stat}")
                          for stat in ("calls", "ms", "self_ms")}
                   for name in set(tracer.names) if get(f"{name}.calls")}
    fir = {}
    for key, value in sums.items():
        group, sep, stat = key.partition("|")
        if sep:
            fir.setdefault(group, {})[stat] = value
    extra = {
        "cli.main.self_ms": get("cli.main.self_ms"),
        "experiment.run_point.ms": get("experiment.run_point.ms"),
        "experiment.sweep_fixed.path_share": ratio(
            get("experiment.sweep_fixed.path_ms"),
            get("experiment.sweep_fixed.ms")),
        "traced_pass_s": traced_walls, "untraced_pass_s": untraced_walls,
    }
    return values, {"spans": spans_table, "fir_kernels": fir, **extra}


def print_layers(layers):
    print(f"{'span':<28}{'calls':>8}{'ms':>12}{'self ms':>12}"
          f"{'ms/call':>12}")
    for name, row in sorted(layers["spans"].items()):
        print(f"{name:<28}{row['calls']:>8.0f}{row['ms']:>12.2f}"
              f"{row['self_ms']:>12.2f}{row['ms'] / row['calls']:>12.4f}")
    print("FIR kernels by size (Mflop and MB are computed from N and K for "
          "direct-form convolution, not measured):")
    for group, g in sorted(layers["fir_kernels"].items()):
        calls = g["calls"]
        print(f"  {group:<40} {calls:>7.0f} calls {g['ms'] / calls:>9.3f} "
              f"ms/call {g['mflop'] / calls:>9.3f} Mflop "
              f"{g['mb'] / calls:>8.3f} MB "
              f"{g['mflop'] / g['ms']:>7.3f} Gflop/s computed")
    for key in ("cli.main.self_ms", "experiment.run_point.ms",
                "experiment.sweep_fixed.path_share"):
        print(f"{key} = {layers[key]!r}")


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_threads()
    t0 = time.perf_counter()
    import_whdpd()
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workloads.make(args.workload, args.seed, args.size, OUT)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    tracer = spans.Tracer()
    run = Run(tracer)
    fine = spans.FINE_SITES if args.trace else ()
    with spans.patched(tracer, spans.COARSE_SITES):
        with spans.patched(tracer, fine), tracer.span("bench.setup") as setup:
            workload = workloads.make(args.workload, args.seed, args.size, OUT)
        setup_times = [time.perf_counter() - t0]
        probes, errors = probe_setup(args)
        setup_times += probes
        run.attempted += SETUP_PROBES
        for message in errors:
            run.fail(message)
        run_passes(args, workload, run, spans.FINE_SITES)
    run.attempted += count_operations(run)
    check_determinism(run)
    if args.trace:
        problems = tracer.check_trees()
        run.record_checks([("span nesting and self times add up to each "
                            "root", not problems, "; ".join(problems[:5]))])

    env = environment(args, nproc)
    if not run.ok_passes(traced=False) or (
            args.trace and not run.ok_passes(traced=True)):
        print("error: no pass completed; no metrics", file=sys.stderr)
        return 1
    e2e, samples = end_to_end(run, setup_times)
    result = {"env": env, "end_to_end": e2e, "samples": samples,
              "checks": run.checks, "failures": run.failures}
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, unit in END_TO_END:
        print(f"{name} = {e2e[name]!r} {unit}")
    share = run.failed / run.attempted
    print(f"failed_share = {share!r} ratio ({run.failed} failed of "
          f"{run.attempted} operations: train/evaluate calls, CLI calls, "
          f"set-up probes and output checks)")
    if args.trace:
        values, layers = per_layer(run, setup)
        result.update(per_layer=values, layers=layers)
        print_layers(layers)
        for name, unit in PER_LAYER:
            print(f"{name} = {values[name]!r} {unit}")
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        tracer.to_jsonl(OUT / f"{args.workload}-s{args.seed}.spans.jsonl")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    line = {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}
    result["result"] = line
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
