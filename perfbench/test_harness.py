"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload at smoke size through ``run.py`` and checks that each
metric of BENCHMARK.json is printed with its unit, that solver failures are
counted as failed ops instead of crashing the harness, that the proxies do
not change results, and that work counters repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rkentropy as rk  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, layer_metrics, timed_problem  # noqa: E402
from worker import COUNT_KEYS, layer_values, one_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric(name, trace):
    proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']}" in proc.stdout  # human-readable line


def test_attempted_and_failed_count_one_job(tmp_path):
    counts = []
    for seconds in ("0.2", "1.5"):
        proc = run_bench(ROOT, "--workload", "gap_sweep", "--seed", "4",
                         "--seconds", seconds, "--trace", "0", "--size", "smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    job = one_pass(workloads.GapSweep(4, "smoke"), False, tmp_path)["rec"].ops
    assert counts == [(len(job), sum(c is not None for _, c in job))] * 2


def test_gap_sweep_seed_only_orders_the_schemes():
    base, other = workloads.GapSweep(0, "full"), workloads.GapSweep(7, "full")
    assert np.array_equal(base.u0.flat, other.u0.flat)
    assert sorted(other.schemes) == sorted(base.schemes)
    assert not other.seed_moves_inputs


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "march", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class DomainFailing(rk.PorousMedium):
    """Stub whose operator rejects every state after ``budget`` calls."""

    budget = 1

    def apply_flat(self, x):
        DomainFailing.budget -= 1
        if DomainFailing.budget < 0:
            raise rk.DomainError("stub rejects the state")
        return super().apply_flat(x)


@pytest.mark.parametrize("trace", [False, True])
def test_domain_error_is_a_failed_op(trace, tmp_path):
    grid = rk.Grid1D(16)
    stub = DomainFailing(grid, beta=2.0)
    u0 = rk.StateField.scalar(1.0 + 0.1 * np.cos(2 * np.pi * grid.x()))
    scheme = rk.get_scheme("implicit_euler")
    rec = Recorder(trace)
    DomainFailing.budget = 1
    problem = timed_problem(stub, rec) if trace else stub
    states = workloads._forward(rec, problem, scheme, u0, 1e-4, 5,
                                rk.NewtonConfig())
    assert len(states) == 1  # the first step failed, the rest not attempted
    assert rec.ops and rec.ops[-1][1] == "DomainError" and len(rec.ops) == 1
    DomainFailing.budget = 1
    prof = workloads._sweep(rec, rk.ExperimentPower(5.0), problem, scheme, u0,
                            1e-4, 4, rk.NewtonConfig())
    assert prof is None
    assert [cause for _, cause in rec.ops] == ["DomainError", "DomainError"]
    if trace:
        metrics = layer_metrics(rec.spans)
        assert metrics["stepping.solves"] == metrics["stepping.solves_failed"] == 2


def test_proxies_do_not_change_results():
    wl = workloads.GapSweep(0, "smoke")
    scheme = rk.get_scheme("trapezoidal")
    plain = rk.profile_g(wl.entropy, wl.problem, scheme, wl.u0, 1e-3, 12)
    rec = Recorder(True)
    traced = workloads._sweep(rec, wl.entropy, timed_problem(wl.problem, rec),
                              scheme, wl.u0, 1e-3, 12, rk.NewtonConfig())
    assert traced.to_csv() == plain.to_csv()
    assert np.isfinite(plain.q[1])  # the quotient Q still sees a PorousMedium
    attempted = 12 if plain.failed_index is None else plain.failed_index
    assert len(rec.ops) == attempted


def test_iterations_from_jacobian_counts_match_newton_iters():
    wl = workloads.March(0, "smoke")
    newton_iters = []
    rec = Recorder(True)
    problem = timed_problem(wl.problem, rec)
    for name in wl.schemes:
        traj = rk.run(wl.problem, rk.get_scheme(name), wl.u0, wl.tau,
                      wl.steps * wl.tau, wl.cfg)
        newton_iters += traj.newton_iters
        workloads._forward(rec, problem, rk.get_scheme(name), wl.u0, wl.tau,
                           wl.steps, wl.cfg)
    assert layer_metrics(rec.spans)["stepping.iters"] == sum(newton_iters)


@pytest.mark.parametrize("name", NAMES)
def test_work_counters_repeat_exactly(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    counts = []
    for _ in range(2):
        wl = cls(5, "smoke")
        values = layer_values(wl, one_pass(wl, True, tmp_path))
        counts.append({k: values[k] for k in COUNT_KEYS})
    assert counts[0] == counts[1]


def test_reference_outputs_pass_their_own_checks(tmp_path):
    for name in ("march", "gap_sweep", "regions"):
        wl = workloads.WORKLOADS[name](0, "full")
        reference = wl.reference()
        assert reference is not None, name
        if name == "march":  # a shortened march is compared as a prefix
            wl.steps = 2
        if name == "gap_sweep":
            wl.schemes = ("implicit_euler",)
        if name == "regions":
            wl.masks = (("pme0", 2, 1.0), ("pme1", 1, 1.0))
        outputs = one_pass(wl, False, tmp_path)["outputs"]
        assert wl.check(outputs, reference) == [], name


def test_reference_check_catches_a_wrong_mask(tmp_path):
    wl = workloads.Regions(0, "full")
    wl.masks = (("pme0", 1, 1.0),)
    outputs = one_pass(wl, False, tmp_path)["outputs"]
    mask = outputs["masks"]["pme0_d1_c1"]
    assert wl.check(outputs, wl.reference()) == []
    row = mask["member"][0]
    i = row.index("1")
    mask["member"][0] = row[:i] + "0" + row[i + 1:]
    assert any("pme0_d1_c1 cell (0," in m for m in wl.check(outputs, wl.reference()))


def test_reference_check_catches_a_shortened_column(tmp_path):
    wl = workloads.GapSweep(0, "full")
    wl.schemes, wl.base_times = ("trapezoidal",), (0.001,)
    outputs = one_pass(wl, False, tmp_path)["outputs"]
    assert wl.check(outputs, wl.reference()) == []
    column = outputs["trapezoidal"]["0.001"]["G"]
    column[5:] = [None] * (len(column) - 5)  # the sweep now stops at node 5
    assert any("t=0.001: sweep stops before node 5" in m
               for m in wl.check(outputs, wl.reference()))


def test_fourth_order_n128_must_reach_the_end():
    wl = workloads.FourthOrder(0, "smoke")
    stopped = {"mass": [1.0] * (wl.steps + 1), "G": None, "failed_index": None}
    assert wl.check({"n256_simpson": stopped}, None) == []
    assert wl.check({"n128_simpson": stopped}, None) == [
        "fourth_order n128_simpson: stopped before the end"]
