"""One workload in one fresh process: set up, measure, check, report.

``run.py`` starts this with the BLAS thread count fixed in the environment
and ``src`` on PYTHONPATH.  The last line of stdout is one JSON object.

  --mode setup     import the package and build inputs and references
  --mode measure   then run timed passes for --seconds and check outputs

With --trace 1 a first traced pass warms the process up, then untraced
and traced passes alternate; the tracing overhead is the median wall-time
difference within these pairs, so that a slow drift of the machine's speed
falls on both sides of each difference.  The warm-up pass takes no part
in the timings; its work counters must equal those of the later passes.
Every pass must attempt and fail the same ops as the first timed pass;
``attempted`` and ``failed`` count those ops once.
numpy and the package are imported inside functions so that ``import_s``
covers them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
# per-layer values that are work counts and must repeat exactly
COUNT_KEYS = tuple(m["name"] for m in PER_LAYER
                   if m["unit"] in ("count", "bytes"))


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def machine(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def one_pass(wl, trace: bool, out_dir: Path):
    from tracing import Recorder
    rec = Recorder(trace)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = wl.run_pass(rec, out_dir)
    return {"rec": rec, "outputs": outputs,
            "wall": time.perf_counter() - wall0,
            "cpu": time.process_time() - cpu0}


def layer_values(wl, p) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for one pass; 0 where the
    pass has no such work."""
    from tracing import layer_metrics
    values = layer_metrics(p["rec"].spans)
    values.update(wl.counters(p["outputs"]))
    return {m["name"]: values.get(m["name"], 0) for m in PER_LAYER}


def measure(wl, ref_wl, reference, args, out_dir: Path) -> dict:
    import numpy as np
    import workloads
    # passes repeat the same job; stop before the next round (one pass, or
    # an untraced and a traced one) would overrun --seconds
    start = time.perf_counter()
    warm = [one_pass(wl, True, out_dir)] if args.trace else []
    untraced, passes = [], []
    while not passes or (time.perf_counter() - start + statistics.median(
            p["wall"] for p in untraced + passes) * (1 + args.trace)
            <= args.seconds):
        if args.trace:
            untraced.append(one_pass(wl, False, out_dir))
        passes.append(one_pass(wl, bool(args.trace), out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    own_ref = (reference if args.seed == workloads.DEFAULT_SEED
               or not wl.seed_moves_inputs else None)
    messages: list[str] = []
    job = [cause for _, cause in passes[0]["rec"].ops]
    for k, p in enumerate(warm + untraced + passes):
        messages += [m for m in wl.check(p["outputs"], own_ref) if m not in messages]
        if [cause for _, cause in p["rec"].ops] != job:
            messages.append(f"pass {k}: its ops or their failures differ "
                            "from those of the first timed pass")
    if ref_wl is not None:
        ref_pass = one_pass(ref_wl, False, out_dir)
        messages += [f"reference pass: {m}"
                     for m in ref_wl.check(ref_pass["outputs"], reference)]

    # attempted and failed count the ops of the job once: every pass repeats
    # the same job and must fail on the same ops, so these counts depend on
    # the inputs only, not on how many passes fit into --seconds
    failed = sum(1 for cause in job if cause is not None)
    causes: dict[str, int] = {}
    for cause in job:
        if cause is not None:
            causes[cause] = causes.get(cause, 0) + 1
    ops = [op for p in passes for op in p["rec"].ops]
    result = {
        "attempted": len(job), "failed": failed, "fail_causes": causes,
        "timed_ops": len(ops), "passes": len(passes),
        "pass_s": [p["wall"] for p in passes], "messages": messages,
    }
    if not args.trace:
        # the speed of a shared machine drifts by up to a factor of two
        # over tens of seconds; a mean over the run's passes averages the
        # drift, where a median or a minimum picks one speed state of it.
        # An op's time is its mean over the passes; the percentiles are
        # over the job's ops.
        op_ms = [1000.0 * statistics.fmean(ds) for ds in zip(
            *([d for d, _ in p["rec"].ops] for p in passes))]
        result["metrics"] = {
            "solve_s": statistics.fmean(p["wall"] for p in passes),
            "cpu_s": statistics.fmean(p["cpu"] for p in passes),
            "op_ms_p50": float(np.percentile(op_ms, 50)),
            "op_ms_p90": float(np.percentile(op_ms, 90)),
            "ok_frac": (len(job) - failed) / len(job),
            "peak_rss_mb": peak_rss_mb,
        }
        return result

    per_pass = [layer_values(wl, p) for p in passes]
    layers = dict(per_pass[0])
    for key in layers:
        if key not in COUNT_KEYS:
            layers[key] = statistics.fmean(v[key] for v in per_pass)
    layers["fail_frac"] = failed / len(job)
    layers["trace_overhead_s"] = statistics.median(
        t["wall"] - u["wall"] for u, t in zip(untraced, passes))
    result["metrics"] = layers
    result["counters"] = {k: per_pass[0][k] for k in COUNT_KEYS}
    result["counters_repeat"] = all(
        v[k] == per_pass[0][k] for v in per_pass + [layer_values(wl, warm[0])]
        for k in COUNT_KEYS)
    spans_path = out_dir / f"trace-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "extra"],
        "passes": [p["rec"].spans for p in passes]}))
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import rkentropy
    import_s = time.perf_counter() - start
    package = Path(rkentropy.__file__).resolve().parent
    if package != (ROOT / "src" / "rkentropy").resolve():
        print(f"rkentropy imported from {package}, not from this checkout",
              file=sys.stderr)
        return 3
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, args.size)
    reference = wl.reference()
    ref_wl = (cls(workloads.DEFAULT_SEED, args.size)
              if reference is not None and args.seed != workloads.DEFAULT_SEED
              and wl.seed_moves_inputs
              else None)
    report = {"setup_done": time.monotonic(), "import_s": import_s}
    if args.mode == "measure":
        out_dir = ROOT / "perfbench" / "out" / args.workload
        out_dir.mkdir(parents=True, exist_ok=True)
        report.update(measure(wl, ref_wl, reference, args, out_dir))
        report["machine"] = machine(args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
