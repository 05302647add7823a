"""Digest of every Newton solve in one pass of the stepping workloads.

Runs one untimed pass of the march, gap_sweep and fourth_order benchmark
workloads (perfbench/workloads.py, used as it is) at each seed, and hashes
what every ``stepping._step`` call returns: the other endpoint, the residual
norm of each Newton iterate and W.  A solve that raises adds its exception
type and, for a StepError, its iteration count.  Prints one line per
workload and seed, then the sha256 over all of them.  Two checkouts, or two
BLAS thread counts, that print the same digest took the same iterates bit
for bit.

With ``--decisions`` only the Newton decisions are hashed: each solve's
iteration count, or its exception type and failing iteration.  Two CPU
dispatch paths (numpy's ``NPY_DISABLE_CPU_FEATURES``) round differently,
so their iterates differ in the last bits, but they must print the same
decisions digest.

    python tools/iterate_digest.py [--seeds 0 1 2] [--decisions]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

WORKLOADS = ("march", "gap_sweep", "fourth_order")


def digest_pass(name: str, seed: int, decisions: bool = False
                ) -> tuple[str, int, int]:
    """(sha256, solves, failed solves) of one pass of one workload; with
    ``decisions``, of its Newton decisions only."""
    import numpy as np
    from rkentropy import DomainError, StepError, entropy, stepping
    from tracing import Recorder
    from workloads import WORKLOADS as ALL

    sha, counts = hashlib.sha256(), [0, 0]
    step = stepping._step

    def recorded(*args, **kwargs):
        counts[0] += 1
        try:
            other, norms, w = step(*args, **kwargs)
        except (StepError, DomainError) as err:
            counts[1] += 1
            sha.update(f"{type(err).__name__} {getattr(err, 'iterations', '')};"
                       .encode())
            raise
        if decisions:
            sha.update(f"{len(norms) - 1};".encode())
        else:
            for part in (other, np.asarray(norms, float), w):
                sha.update(np.ascontiguousarray(part).tobytes())
        return other, norms, w

    # run() looks _step up in stepping, profile_g in entropy
    stepping._step = entropy._step = recorded
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            ALL[name](seed, "full").run_pass(Recorder(False), Path(out_dir))
    finally:
        stepping._step = entropy._step = step
    return sha.hexdigest(), counts[0], counts[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--decisions", action="store_true",
                        help="hash only iteration counts and failures")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for seed in args.seeds:
        for name in WORKLOADS:
            sha, solves, failed = digest_pass(name, seed, args.decisions)
            total.update(sha.encode())
            print(f"{name} seed {seed}: {solves} solves, {failed} failed, {sha}")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
