"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from whdpd.experiment import Workbench  # noqa: E402
from whdpd.txsim import simulate_tx  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("final_loss", "snr_db", "wh_gain_db")


def bench(workload, seed, trace=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, proc.stderr
    assert line["attempted"] >= 1
    return line["metrics"]


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(list(run.WORKLOADS) == list(sizes)
               for sizes in workloads.SIZES.values())
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.PER_LAYER)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_is_deterministic_per_seed(workload):
    first = result(bench(workload, 5))
    second = result(bench(workload, 5))
    for metrics in (first, second):
        assert {k: v["unit"] for k, v in metrics.items()} == \
            declared("end_to_end")
        assert all(v["value"] > 0 for k, v in metrics.items()
                   if k != "wh_gain_db")
    for key in QUALITY:
        assert first[key]["value"] == second[key]["value"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    metrics = result(bench(workload, 6, trace=1))
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["kernels.fir_grad_taps.calls"]["value"] > 0
    assert metrics["learn.fit.iterations"]["value"] > 0
    assert 0 < metrics["experiment.train.fit_loop_share"]["value"] < 1
    assert (ROOT / "perfbench" / "out"
            / f"{workload}-s6.spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_another_seed_changes_the_inputs(workload, tmp_path):
    a, b = (workloads.make(workload, seed, "smoke", tmp_path)
            for seed in (1, 2))
    rail = Workbench(a.cfg).i_rail
    assert not np.array_equal(simulate_tx(a.cfg.channel, rail).samples,
                              simulate_tx(b.cfg.channel, rail).samples)


def test_patching_restores_every_lookup_place():
    sites = spans.COARSE_SITES + spans.FINE_SITES
    before = [(place, attr, getattr(place, attr))
              for spec, attr, _, _ in sites
              for place in spans.lookup_places(spec, attr)[1]]
    # the names bound at import in other modules are found too
    places = {(getattr(p, "__name__", p), a) for p, a, _ in before}
    for name in ("whdpd.learn", "whdpd.experiment"):
        assert (name, "synchronize") in places
    assert ("whdpd.txsim", "fir_same") in places
    assert ("whdpd.learn", "wh_forward") in places
    tracer = spans.Tracer()
    with spans.patched(tracer, sites):
        assert all(getattr(p, a) is not f for p, a, f in before)
    assert all(getattr(p, a) is f for p, a, f in before)


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert tracer.check_trees() == []
    tracer.ends[1] = tracer.ends[0] + 1.0  # a child outlives its parent
    assert tracer.check_trees()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("stress", 1, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
