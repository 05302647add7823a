"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Seed 0 gives exactly the configs below; any other seed perturbs them inside
the stated ranges, so that the work per pass stays nearly the same:

* march -- forward ``run`` on PorousMedium beta=2 from the Barenblatt datum
  (t0=0.01, x_r=0.25), n=512, tau=1e-4, 12 steps each with implicit_euler,
  trapezoidal and simpson.  Op: one step.  The dense stepping core does ~80%
  of the work here; entropy and regions are idle.  Seed: the datum is
  rolled by a whole number of cells in [-n/16, n/16] and scaled by a
  factor in [0.99, 1.01].
* gap_sweep -- the README ``gprofile`` reproduction: n=64, entropy
  experiment_power alpha=5, base times 0.001/0.003/0.006, tau_max=1e-3,
  m=100, all four schemes, each profile written with ``GProfile.to_csv``.
  Op: one backward solve at one tau node.  Small warm-started systems, so
  per-call overhead dominates; 8 profiles truncate on a Newton stall.
  Seed: only the order of the schemes.  The datum is the same for every
  seed, because the number of stalls moves with it (4 to 8 over seeds
  0-11 of a rolled and scaled datum), and the failures of a run must
  repeat from run to run; the G columns are then compared with the
  reference at every seed.
* regions -- ``emit_mask`` on a 21x21 grid over [0.5, 4]^2 for pme0 with
  d=1 and d=2 at c_rk 0, 1, 2, and pme1; every witness certified, the d=1
  masks checked against ``r0_strip_discriminant``; plus
  ``scalar_conditions`` (pme_power, heat_log) and ``dlss_chain``.  Each
  mask is one ``emit_mask`` call on the full grid, as the ``region``
  command makes it.  Op: one (alpha, beta) grid cell, its decisions in all
  seven configurations checked and certified.  Seed: alpha and beta ranges
  each shifted by an offset in [-h/4, h/4], h the grid spacing.
* fourth_order -- Dlss from 1 + 0.3 cos(2 pi x), n in {128, 256},
  tau=1e-6, implicit_euler / trapezoidal / simpson: 10 forward steps, then
  ``profile_g`` with the log entropy (tau_max=1e-6, m=20) at the last state
  reached.  Op: one Newton solve.  The only dense n^3 Jacobian product; at
  n=256 every forward march stalls at step 1 and the sweeps truncate, while
  the n=128 marches and sweeps must run to the end.
  Seed: the n=128 datum is shifted by a whole number of cells and its
  amplitude scaled by a factor in [0.98, 1.02]; the n=256 datum is fixed.

Failed ops (StepError, DomainError, a failed per-op check) are counted and
the pass goes on; ops skipped after a failure are not attempted.  Output
checks return messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import rkentropy as rk
from rkentropy.cli import barenblatt_profile, cmd_check_conditions
from tracing import NodeClock, Recorder, stages_per_iteration, timed_problem

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
FAILURES = (rk.StepError, rk.DomainError)

# Tolerances of the output checks.  Rounding-level changes (two BLAS threads
# instead of one, Newton tol 1e-13 instead of 1e-12) move H by at most 3e-16
# relative, mass by 3e-17 and G by 1e-10 of its largest value.  At seed 0 the
# slope and d2g_at_zero estimates are within 7e-6 and 7e-5 of their targets.
MASS_DRIFT = 1e-10      # |mass_k - mass_0| / max(1, |mass_0|), as criterion 6
H_RTOL = 1e-9           # march entropy series against the reference
G_RTOL = 1e-8           # G against the reference, relative to max |G_ref|
SLOPE_RTOL = 1e-4       # (4 G(h) - G(2h)) / 2h against -production(u)
D2G_RTOL = 1e-3         # d2g_at_zero against -i0
CERT_FLOOR = -1e-9      # worst normalized certificate value, criteria 3 and 4


def _rng(seed: int):
    return np.random.default_rng([seed, 20261017])


def _roll_and_scale(seed: int, u: np.ndarray, max_shift: int, lo: float,
                    hi: float) -> np.ndarray:
    if seed == DEFAULT_SEED:
        return u
    rng = _rng(seed)
    shift = int(rng.integers(-max_shift, max_shift + 1))
    return rng.uniform(lo, hi) * np.roll(u, shift)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _mass_checks(label: str, masses: list[float]) -> list[str]:
    drift = max(abs(m - masses[0]) for m in masses)
    if drift > MASS_DRIFT * max(1.0, abs(masses[0])):
        return [f"{label}: mass drift {drift:.3e}"]
    return []


def _write_csv(rec: Recorder, path: Path, make_text):
    """Format and write one CSV through the program's own formatter."""
    index = rec.open("cli.csv") if rec.trace else None
    data = make_text().encode()
    path.write_bytes(data)
    if index is not None:
        rec.close(index, extra=len(data))


def _forward(rec: Recorder, problem, scheme, u0, tau, steps, cfg):
    """``steps`` single-step ``run`` calls, one op each; stops at a failure."""
    states = [u0]
    for _ in range(steps):
        try:
            with rec.op("stepping.forward", stages_per_iteration(scheme)):
                traj = rk.run(problem, scheme, states[-1], tau, tau, cfg)
        except FAILURES:
            break
        states.append(traj.states[-1])
    return states


def _sweep(rec: Recorder, e, problem, scheme, u, tau_max, m, cfg,
           base_time=0.0):
    """One ``profile_g`` sweep, one op per tau node; None if it raised."""
    clock = NodeClock(rec, e, m, stages_per_iteration(scheme))
    with rec.span("entropy.profile_g"):
        try:
            prof = rk.profile_g(clock.entropy, problem, scheme, u, tau_max, m,
                                cfg, base_time=base_time)
        except FAILURES as err:
            clock.fail(type(err).__name__)
            return None
        clock.finish(prof)
    return prof


def _profile_record(rec, e, problem, scheme, u, prof) -> dict:
    """G column and the seed-independent quantities it is checked against."""
    out = {"production": rk.production(e, problem, u), "failed_index": None,
           "G": None}
    if prof is None:
        return out
    out["failed_index"] = prof.failed_index
    out["G"] = [None if math.isnan(g) else float(g) for g in prof.g]
    out["tau1"] = float(prof.taus[1])
    if all(g is not None for g in out["G"][:5]):
        out["d2g0"] = rk.d2g_at_zero(prof)
        with rec.span("entropy.i0"):
            out["i0"] = rk.i0(e, problem, u, scheme.c_rk_effective)
    return out


def _profile_checks(label: str, rec: dict) -> list[str]:
    msgs = []
    g = rec["G"]
    if g is None:
        return msgs
    if g[0] != 0.0:
        msgs.append(f"{label}: G(0) = {g[0]!r}")
    if g[1] is not None and g[2] is not None:
        slope = (4.0 * g[1] - g[2]) / (2.0 * rec["tau1"])
        if not _close(slope, -rec["production"], SLOPE_RTOL):
            msgs.append(f"{label}: G'(0) {slope:.6e} vs -production "
                        f"{-rec['production']:.6e}")
    if "d2g0" in rec:
        if not _close(rec["d2g0"], -rec["i0"], D2G_RTOL):
            msgs.append(f"{label}: d2g_at_zero {rec['d2g0']:.6e} vs -i0 "
                        f"{-rec['i0']:.6e}")
    return msgs


def _compare_column(label: str, got: list, ref: list) -> list[str]:
    """Compare a G column with the reference node by node.  Every node the
    reference reached must be reached again, with the same value; a sweep
    that now gets further than the reference is not an error."""
    atol = G_RTOL * max(abs(b) for b in ref if b is not None)
    for j, (a, b) in enumerate(zip(got, ref)):
        if b is None:
            break
        if a is None:
            return [f"{label}: sweep stops before node {j}, which the "
                    "reference reaches"]
        if abs(a - b) > atol:
            return [f"{label}: G[{j}] = {a!r}, reference {b!r}"]
    return []


class Workload:
    name = ""
    # False where every seed gives the seed-0 inputs, so that the reference
    # outputs apply to each run directly
    seed_moves_inputs = True

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.cfg = rk.NewtonConfig()

    def reference(self) -> dict | None:
        """Committed reference outputs; they apply to seed 0 at full size."""
        path = REFERENCE_DIR / f"{self.name}.json"
        if self.size != "full" or not path.is_file():
            return None
        return json.loads(path.read_text())

    def run_pass(self, rec: Recorder, out_dir: Path) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        raise NotImplementedError

    def problem_for(self, problem, rec: Recorder):
        return timed_problem(problem, rec) if rec.trace else problem

    def counters(self, outputs: dict) -> dict[str, float]:
        """Per-layer counts that the spans do not show."""
        return {"regions.cells": 0, "regions.members": 0,
                "regions.cert_worst": 0.0}


class March(Workload):
    name = "march"
    schemes = ("implicit_euler", "trapezoidal", "simpson")

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.n, self.steps = (512, 12) if size == "full" else (32, 3)
        self.tau = 1e-4
        grid = rk.Grid1D(self.n)
        self.problem = rk.PorousMedium(grid, beta=2.0)
        u = barenblatt_profile(grid.x(), 2.0, 0.01, 0.25)
        self.u0 = rk.StateField.scalar(
            _roll_and_scale(seed, u, self.n // 16, 0.99, 1.01))
        self.entropy = rk.ExperimentPower(5.0)

    def run_pass(self, rec, out_dir):
        problem = self.problem_for(self.problem, rec)
        grid = self.problem.grid
        out = {}
        for name in self.schemes:
            scheme = rk.get_scheme(name)
            states = _forward(rec, problem, scheme, self.u0, self.tau,
                              self.steps, self.cfg)
            with rec.span("entropy.evaluate"):
                h = [rk.evaluate(self.entropy, s, grid) for s in states]
            out[name] = {"H": h,
                         "mass": [float(s.flat.sum()) * grid.dx for s in states]}
        return out

    def check(self, outputs, reference):
        msgs = []
        for name, series in outputs.items():
            msgs += _mass_checks(f"march {name}", series["mass"])
            h = series["H"]
            slack = 1e-12 * max(1.0, abs(h[0]))
            if any(b - a > slack for a, b in zip(h, h[1:])):
                msgs.append(f"march {name}: entropy increased")
            if reference is None:
                continue
            ref = reference[name]
            for k, (a, b) in enumerate(zip(h, ref["H"])):
                if not _close(a, b, H_RTOL):
                    msgs.append(f"march {name}: H[{k}] = {a!r}, reference {b!r}")
                    break
            for k, (a, b) in enumerate(zip(series["mass"], ref["mass"])):
                if abs(a - b) > MASS_DRIFT * max(1.0, abs(b)):
                    msgs.append(f"march {name}: mass[{k}] = {a!r}, "
                                f"reference {b!r}")
                    break
        return msgs


class GapSweep(Workload):
    name = "gap_sweep"
    schemes = ("explicit_euler", "implicit_euler", "trapezoidal", "simpson")
    seed_moves_inputs = False

    def __init__(self, seed, size):
        super().__init__(seed, size)
        if seed != DEFAULT_SEED:
            order = _rng(seed).permutation(len(self.schemes))
            self.schemes = tuple(self.schemes[i] for i in order)
        self.tau = 1e-4
        if size == "full":
            self.base_times, self.tau_max, self.m = (0.001, 0.003, 0.006), 1e-3, 100
        else:
            self.base_times, self.tau_max, self.m = (0.001,), 1e-4, 6
        grid = rk.Grid1D(64)
        self.problem = rk.PorousMedium(grid, beta=2.0)
        u = barenblatt_profile(grid.x(), 2.0, 0.01, 0.25)
        self.u0 = rk.StateField.scalar(u)
        self.entropy = rk.ExperimentPower(5.0)

    def run_pass(self, rec, out_dir):
        problem = self.problem_for(self.problem, rec)
        out = {}
        for name in self.schemes:
            scheme = rk.get_scheme(name)
            out[name] = per_time = {}
            try:
                with rec.span("stepping.run"):
                    traj = rk.run(problem, scheme, self.u0, self.tau,
                                  self.base_times[-1], self.cfg)
            except FAILURES as err:
                per_time["error"] = f"forward run failed: {err}"
                continue
            for t_base in self.base_times:
                k = int(round(t_base / self.tau))
                u = traj.states[k]
                prof = _sweep(rec, self.entropy, problem, scheme, u,
                              self.tau_max, self.m, self.cfg,
                              base_time=traj.times[k])
                if prof is not None:
                    _write_csv(rec, out_dir / f"gprofile_{name}_t{t_base:g}.csv",
                               prof.to_csv)
                per_time[f"{t_base:g}"] = _profile_record(
                    rec, self.entropy, problem, scheme, u, prof)
        return out

    def check(self, outputs, reference):
        msgs = []
        for name, per_time in outputs.items():
            if "error" in per_time:
                msgs.append(f"gap_sweep {name}: {per_time['error']}")
                continue
            for t_base, rec in per_time.items():
                label = f"gap_sweep {name} t={t_base}"
                if rec["G"] is None:
                    msgs.append(f"{label}: profile_g raised")
                    continue
                msgs += _profile_checks(label, rec)
                if reference is not None:
                    ref = reference[name][t_base]
                    msgs += _compare_column(label, rec["G"], ref["G"])
        return msgs


class Regions(Workload):
    name = "regions"
    masks = (("pme0", 1, 0.0), ("pme0", 1, 1.0), ("pme0", 1, 2.0),
             ("pme0", 2, 0.0), ("pme0", 2, 1.0), ("pme0", 2, 2.0),
             ("pme1", 1, 1.0))

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.steps = 21 if size == "full" else 5
        lo, hi = 0.5, 4.0
        shift_a = shift_b = 0.0
        if seed != DEFAULT_SEED:
            h = (hi - lo) / (self.steps - 1)
            shift_a, shift_b = _rng(seed).uniform(-h / 4, h / 4, size=2)
        self.alpha_range = (lo + shift_a, hi + shift_a)
        self.beta_range = (lo + shift_b, hi + shift_b)

    def _certify_cell(self, rec, family, d, c_rk, a, b, member, w):
        """Certify one decided cell; returns (failure cause or None, value)."""
        if family == "pme0" and d == 1:
            if c_rk == 0.0:  # implicit Euler admits every point
                return (None if member else "strip"), None
            disc = rk.r0_strip_discriminant(a, b, c_rk)
            z = a - b
            scale = max(1.0, ((c_rk - 2.0) * z + 2.0 * (c_rk + 1.0)) ** 2,
                        9.0 * c_rk**2 * z**2)
            if abs(disc) > 1e-12 * scale and member != (disc > 0):
                return "discriminant", None
            return None, None
        if family == "pme1" and member and not -2.0 <= a - 2.0 * b <= 1.0:
            return "gate", None
        if not member:
            return None, None
        if w is None:
            return "witness", None
        with rec.span("regions.certify"):
            if family == "pme0":
                value = rk.certify_r0(rk.RegionQuery(a, b, d, c_rk), w)
            else:
                value = rk.certify_r1(a, b, w)
        return ("certificate" if value < CERT_FLOOR else None), value

    def run_pass(self, rec, out_dir):
        """Each mask from one ``emit_mask`` call on the full grid, as the
        ``region`` command makes it; then one op per (alpha, beta) cell, its
        decisions in all seven configurations checked and certified."""
        keys = [f"{family}_d{d}_c{c_rk:g}" for family, d, c_rk in self.masks]
        masks = {}
        for key, (family, d, c_rk) in zip(keys, self.masks):
            with rec.span("regions.emit_mask"):
                masks[key] = rk.emit_mask(family, self.alpha_range,
                                          self.beta_range, self.steps,
                                          self.steps, d=d, c_rk=c_rk)
            _write_csv(rec, out_dir / f"region_{key}.csv", masks[key].to_csv)
        grid = masks[keys[0]]
        out = {"masks": {}, "worst": math.inf, "bad_cells": []}
        for i, a in enumerate(grid.alphas):
            for j, b in enumerate(grid.betas):
                rec.begin_op("regions.cell")
                causes = []
                for key, (family, d, c_rk) in zip(keys, self.masks):
                    mask = masks[key]
                    cause, value = self._certify_cell(
                        rec, family, d, c_rk, float(a), float(b),
                        bool(mask.member[i, j]), mask.witnesses.get((i, j)))
                    if value is not None:
                        out["worst"] = min(out["worst"], value)
                    if cause is not None:
                        causes.append(cause)
                        out["bad_cells"].append(f"{key} ({i},{j}): {cause}")
                rec.end_op(causes[0] if causes else None)
        for key, (family, d, _) in zip(keys, self.masks):
            mask = masks[key]
            out["masks"][key] = {
                "member": ["".join("1" if x else "0" for x in row)
                           for row in mask.member],
                "certified": ["".join(
                    "1" if (i, j) in mask.witnesses or (family, d) == ("pme0", 1)
                    else "0" for j in range(self.steps))
                    for i in range(self.steps)],
            }
        with rec.span("regions.scalar_conditions"):
            out["conditions"] = {
                preset: cmd_check_conditions(preset, 1.0, 2.0, 0.5, 2.0, 16,
                                             1, 1.0)
                for preset in ("pme_power", "heat_log")}
        with rec.span("regions.dlss_chain"):
            c8 = Fraction(17, 172)
            p = rk.dlss_chain(Fraction(-29, 1000), c8).p
            out["dlss_ok"] = (rk.dlss_b12(c8) == Fraction(20, 129)
                              and rk.dlss_b12_derivative(c8) == 0
                              and Fraction(4, 1000) < p < Fraction(5, 1000))
        return out

    def counters(self, outputs) -> dict[str, float]:
        members = sum(row.count("1") for m in outputs["masks"].values()
                      for row in m["member"])
        worst = outputs["worst"]
        return {"regions.cells": len(self.masks) * self.steps**2,
                "regions.members": members,
                "regions.cert_worst": worst if math.isfinite(worst) else 0.0}

    def check(self, outputs, reference):
        msgs = list(outputs["bad_cells"][:5])
        if not outputs["dlss_ok"]:
            msgs.append("regions: a dlss_chain identity failed")
        for preset, lines in outputs["conditions"].items():
            msgs += _condition_checks(preset, lines)
        if reference is None:
            return msgs
        for key, mask in outputs["masks"].items():
            ref_rows = reference["masks"][key]
            for i, (row, ref_row) in enumerate(zip(mask["member"], ref_rows)):
                for j, (x, y) in enumerate(zip(row, ref_row)):
                    # a certified new member is a scan false negative fixed;
                    # losing a reference member is an error
                    if x != y and not (x == "1" and mask["certified"][i][j] == "1"):
                        msgs.append(f"regions {key} cell ({i},{j}): member={x},"
                                    f" reference {y}")
        for preset, lines in outputs["conditions"].items():
            if _condition_flags(lines) != reference["condition_flags"][preset]:
                msgs.append(f"regions {preset}: condition flags differ from "
                            "the reference")
        return msgs[:20]


def _condition_flags(lines: list[str]) -> list[str]:
    return ["".join(line.split(",")[-3:]) for line in lines[1:]]


def _condition_checks(preset: str, lines: list[str]) -> list[str]:
    """b is 0 at the anchor and nondecreasing: for both presets the
    integrand mu mu' h'' is positive on the u grid."""
    rows = [[float(x) for x in line.split(",")[:6]] for line in lines[1:]]
    if rows[0][1] != 0.0:
        return [f"regions {preset}: b at the anchor is {rows[0][1]!r}"]
    if any(r2[1] < r1[1] for r1, r2 in zip(rows, rows[1:])):
        return [f"regions {preset}: b decreases"]
    return []


class FourthOrder(Workload):
    name = "fourth_order"
    schemes = ("implicit_euler", "trapezoidal", "simpson")

    def __init__(self, seed, size):
        super().__init__(seed, size)
        full = size == "full"
        self.ns = (128, 256) if full else (32,)
        self.steps, self.m = (10, 20) if full else (2, 4)
        self.tau = self.tau_max = 1e-6
        phase, amplitude = 0.0, 0.3
        if seed != DEFAULT_SEED:
            rng = _rng(seed)
            phase = int(rng.integers(0, 128)) / 128
            amplitude *= rng.uniform(0.98, 1.02)
        self.cases = []
        for n in self.ns:
            grid = rk.Grid1D(n)
            if n == 256:
                # this case sits at Newton's rounding floor, where any change
                # of input moves its iteration count by up to 40%; it keeps
                # the configured datum so that its cost depends on the
                # program, not on the seed
                phase, amplitude = 0.0, 0.3
            u0 = 1.0 + amplitude * np.cos(2.0 * np.pi * (grid.x() - phase))
            self.cases.append((rk.Dlss(grid), rk.StateField.scalar(u0)))
        self.entropy = rk.LogEntropySum()

    def run_pass(self, rec, out_dir):
        out = {}
        for base_problem, u0 in self.cases:
            problem = self.problem_for(base_problem, rec)
            dx = base_problem.grid.dx
            for name in self.schemes:
                scheme = rk.get_scheme(name)
                states = _forward(rec, problem, scheme, u0, self.tau,
                                  self.steps, self.cfg)
                u = states[-1]
                prof = _sweep(rec, self.entropy, problem, scheme, u,
                              self.tau_max, self.m, self.cfg)
                record = _profile_record(rec, self.entropy, problem, scheme,
                                         u, prof)
                record["mass"] = [float(s.flat.sum()) * dx for s in states]
                out[f"n{base_problem.grid.n}_{name}"] = record
        return out

    def check(self, outputs, reference):
        msgs = []
        for label, rec in outputs.items():
            msgs += _mass_checks(f"fourth_order {label}", rec["mass"])
            msgs += _profile_checks(f"fourth_order {label}", rec)
            # n=128 converges well above the rounding floor, so its marches
            # and sweeps must reach the end; the n=256 ones stop at the floor
            if label.startswith("n128_") and (
                    len(rec["mass"]) != self.steps + 1
                    or rec["G"] is None or rec["failed_index"] is not None):
                msgs.append(f"fourth_order {label}: stopped before the end")
        return msgs


WORKLOADS = {cls.name: cls for cls in (March, GapSweep, Regions, FourthOrder)}
