"""rkentropy benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh process
(``worker.py``) with OpenBLAS, OpenMP and MKL pinned to one thread and the
checkout's ``src`` on PYTHONPATH; the package is never taken from anywhere
else.  Set-up is timed in ``SETUP_SAMPLES`` fresh processes, from just
before each is started to the moment its inputs and references are built.
They run before and after the measuring process, which is one of them, and
their mean is reported: the speed of a shared machine drifts over tens of
seconds, and samples spread over the run average the drift (``worker.py``
takes means over the timed passes for the same reason).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones plus the tracing overhead.  Metric names and units come from
BENCHMARK.json.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count the ops of one job (every timed pass repeats the job and
must fail on the same ops); the exit code is 0 when every output check
passed and 1 otherwise.  Full results, and the spans of
a traced run, are written under ``perfbench/out/``.

Workloads, metrics and what each should move are described in
``README.md``; ``test_harness.py`` checks the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_SAMPLES = 7  # three before the measuring process, three after
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, mode: str, timeout: float) -> tuple[float, dict]:
    """Run one worker; returns (monotonic start time, its JSON report)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    try:
        return started, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise RuntimeError(f"worker ({mode}) printed no report") from err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rkentropy" / "__init__.py").is_file():
        print(f"error: no rkentropy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    begin = time.monotonic()
    try:
        setups, imports = [], []
        for k in range(SETUP_SAMPLES):
            left = DEADLINE_S - (time.monotonic() - begin)
            if k == SETUP_SAMPLES // 2:
                started, rep = spawn(args, "measure", timeout=left)
                measured, sample = rep, rep
            else:
                started, sample = spawn(args, "setup", timeout=min(60.0, left))
            setups.append(sample["setup_done"] - started)
            imports.append(sample["import_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    rep = measured

    values = dict(rep["metrics"])
    values["setup_s"] = statistics.fmean(setups)
    values["cli.import_s"] = statistics.fmean(imports)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not rep["messages"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in rep["machine"].items()))
    print(f"ops      per job: attempted={rep['attempted']} "
          f"failed={rep['failed']} causes={rep['fail_causes']}; "
          f"passes={rep['passes']} timed_ops={rep['timed_ops']} "
          f"setup_samples={len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"counters repeat exactly across passes: {rep['counters_repeat']}")
        print(f"spans written to {rep['spans_file']}")
    for msg in rep["messages"]:
        print(f"CHECK FAILED: {msg}")

    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    full = dict(rep, setup_samples_s=setups, import_samples_s=imports,
                metrics=metrics, correct=correct)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
