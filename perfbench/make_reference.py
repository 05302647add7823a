"""Write the committed reference outputs and the work-counter baseline.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Reference outputs (``reference/<workload>.json``) are the seed-0,
full-size outputs the benchmark compares against: the march H and mass
series, the gap_sweep G columns and the region masks.  They were written at
the program version that introduced the benchmark and are meant to stay
fixed; regenerate them only when a change of results is intended and
explained.  ``baseline.json`` holds the deterministic work counters of one
traced seed-0 pass per workload, the base for later count-based claims.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from worker import COUNT_KEYS, layer_values, machine, one_pass

HERE = Path(__file__).resolve().parent


def reference_of(name: str, outputs: dict) -> dict:
    if name == "march":
        return outputs
    if name == "gap_sweep":
        return {scheme: {t: {"G": rec["G"], "failed_index": rec["failed_index"]}
                         for t, rec in per_time.items()}
                for scheme, per_time in outputs.items()}
    return {"masks": {key: m["member"] for key, m in outputs["masks"].items()},
            "condition_flags": {preset: workloads._condition_flags(lines)
                                for preset, lines in outputs["conditions"].items()}}


def main():
    out_dir = HERE / "out" / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    counters = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED, "full")
        p = one_pass(wl, True, out_dir)
        msgs = wl.check(p["outputs"], None)
        if msgs:
            raise SystemExit(f"{name}: invariant checks failed: {msgs}")
        values = layer_values(wl, p)
        counters[name] = {k: values[k] for k in COUNT_KEYS}
        if name != "fourth_order":
            path = HERE / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(reference_of(name, p["outputs"])) + "\n")
    (HERE / "baseline.json").write_text(json.dumps(
        {"machine": machine(workloads.DEFAULT_SEED), "counters": counters},
        indent=1) + "\n")


if __name__ == "__main__":
    main()
