"""Command-line front end: simulations, profiles, regions, condition checks.

Config files are flat ``key = value`` lines with ``#`` comments.  All output
is CSV with a header row and shortest-round-trip floats, written by the one
writer ``operators._csv``, so identical configs produce byte-identical files.

Subcommands: simulate, gprofile, region, check-conditions, dlss-constants.
A command checks every input before its first step and returns its files
as ``{name: text}``; ``main`` alone writes them, after the last step, so a
failed command writes no file and makes no directory.  ``main`` prints one
``wrote <path>`` line per file written; check-conditions prints its CSV
instead, which equals its ``--out`` file.  Failures exit nonzero after one
line ``error:<category>: <message>``, classified by ``_CATEGORIES`` alone.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from . import entropy as ent
from .operators import Dlss, DomainError, Grid1D, LinearSystem, PorousMedium, \
    StateField, _csv, _require_count, _require_real
from .regions import ConditionRow, dlss_b12, dlss_b12_derivative, dlss_chain, \
    emit_mask, scalar_conditions
from .stepping import NewtonConfig, StepError, _band_lapack, run, step_count
from .tableau import get_scheme, registry


_PROBLEMS = {
    "pme": lambda cfg, grid: PorousMedium(grid, beta=cfg.beta),
    "linear_system": lambda cfg, grid: LinearSystem(grid, rho1=cfg.rho1,
                                                    rho2=cfg.rho2, mu=cfg.mu),
    "dlss": lambda cfg, grid: Dlss(grid),
}
_ENTROPIES = {
    "power": lambda cfg: ent.PowerEntropy(cfg.alpha),
    "log_sum": lambda cfg: ent.LogEntropySum(),
    "experiment_power": lambda cfg: ent.ExperimentPower(cfg.alpha),
    "first_order": lambda cfg: ent.FirstOrder(cfg.alpha),
}
_ICS = ("barenblatt", "cosine", "file")


@dataclass
class RunConfig:
    """Fully resolved run parameters (defaults filled in)."""

    problem: str = "pme"
    beta: float = 2.0
    rho1: float = 1.0
    rho2: float = 1.0
    mu: float = 1.0
    scheme: str = "implicit_euler"
    n: int = 64
    length: float = 1.0
    tau: float = 1e-4
    t_end: float = 0.01
    newton_tol: float = NewtonConfig.tol
    newton_max_iter: int = NewtonConfig.max_iter
    entropy: str = "experiment_power"
    alpha: float = 5.0
    ic: str = "barenblatt"
    t0: float = 0.01
    x_r: float = 0.25
    mean: float = 1.0
    amplitude: float = 0.1
    ic_file: str = ""
    snapshot_times: list[float] = field(default_factory=list)


def _validate(cfg: RunConfig):
    for key, names in (("problem", _PROBLEMS), ("entropy", _ENTROPIES),
                       ("ic", _ICS), ("scheme", registry())):
        if getattr(cfg, key) not in names:
            raise ValueError(f"{key} must be one of {', '.join(names)}; "
                             f"got {getattr(cfg, key)!r}")
    for key in ("beta", "length", "tau", "t_end", "t0"):
        _require_real(key, getattr(cfg, key), 0.0)
    _require_count("n", cfg.n, 4)
    if cfg.ic == "barenblatt":
        if cfg.problem != "pme" or cfg.beta <= 1.0:
            raise ValueError(
                "barenblatt initial data needs problem=pme with beta > 1")
        if not (0.0 < cfg.x_r < 0.5):
            raise ValueError("x_r must lie in (0, 1/2)")
    if cfg.ic == "file" and not cfg.ic_file:
        raise ValueError("ic=file needs ic_file=<path>")


def parse_config(path) -> RunConfig:
    """Read a flat key=value config file into a validated RunConfig."""
    raw, types, first = vars(RunConfig()), get_type_hints(RunConfig), {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in raw:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if first.setdefault(key, lineno) != lineno:
            raise ValueError(f"line {lineno}: duplicate key {key!r} "
                             f"(first set on line {first[key]})")
        try:
            raw[key] = ([float(tok) for tok in value.split(",") if tok]
                        if key == "snapshot_times" else types[key](value))
        except ValueError:
            raise ValueError(
                f"line {lineno}: cannot parse value for {key!r}: {value!r}"
            ) from None
    cfg = RunConfig(**raw)
    _validate(cfg)
    return cfg


def barenblatt_profile(x: np.ndarray, beta: float, t0: float, x_r: float
                       ) -> np.ndarray:
    """Compactly supported self-similar porous-medium profile on [0, 1].

    The height constant is chosen so the support is exactly
    [1/2 - x_r, 1/2 + x_r] at time t0.
    """
    shape = (beta - 1.0) / (2.0 * beta * (beta + 1.0)) / t0 ** (2.0 / (beta + 1.0))
    height = shape * (x_r - 0.5) ** 2
    core = np.maximum(0.0, height - shape * (x - 0.5) ** 2)
    return t0 ** (-1.0 / (beta + 1.0)) * core ** (1.0 / (beta - 1.0))


def make_initial(cfg: RunConfig, grid: Grid1D) -> StateField:
    """Initial datum per the config (barenblatt, cosine, or file)."""
    x = grid.x()
    species = 2 if cfg.problem == "linear_system" else 1
    if cfg.ic == "barenblatt":
        return StateField.scalar(barenblatt_profile(x, cfg.beta, cfg.t0, cfg.x_r))
    if cfg.ic == "cosine":
        u = cfg.mean + cfg.amplitude * np.cos(2.0 * np.pi * x / grid.length)
        return StateField(np.tile(u, (species, 1)))
    values = np.loadtxt(cfg.ic_file, ndmin=2)
    if values.shape[0] not in (1, 2) and values.shape[1] in (1, 2):
        values = values.T
    if values.shape != (species, grid.n):
        raise ValueError(
            f"ic_file shape {values.shape} does not match ({species}, {grid.n})")
    return StateField(values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _platform_meta() -> list[str]:
    """numpy's version and SIMD targets (its kernels round differently on
    each), and the LAPACK that solves every Newton system: the library its
    dgbsv was found through, the symbol, its integer width and the live
    OpenBLAS thread count."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    _, width, path, name = _band_lapack()
    threads = getattr(ctypes.CDLL(path),
                      name.replace("dgbsv_", "openblas_get_num_threads"), None)
    if threads:
        threads.argtypes, threads.restype = [], ctypes.c_int
    return [f"numpy_version = {np.__version__}",
            f"numpy_simd = baseline {' '.join(simd['baseline'])}; "
            f"found {' '.join(simd.get('found', [])) or 'none'}",
            f"lapack = {name}, {8 * width}-bit integers, found through {path}",
            f"blas_threads = {threads() if threads else 'unknown'}"]


def _run_meta(cfg: RunConfig, **inputs) -> str:
    """run_meta.txt: the config, the command's other inputs, the version and
    the platform facts that change results."""
    meta = [f"{key} = {value}" for key, value in {**vars(cfg), **inputs}.items()]
    meta.append(f"rkentropy_version = {__version__}")
    return "\n".join(meta + _platform_meta()) + "\n"


def _inputs(cfg: RunConfig):
    """The problem, entropy, initial state and Newton settings of a config."""
    problem = _PROBLEMS[cfg.problem](cfg, Grid1D(n=cfg.n, length=cfg.length))
    return (problem, _ENTROPIES[cfg.entropy](cfg), make_initial(cfg, problem.grid),
            NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.newton_max_iter))


def _steps(times, cfg: RunConfig, what: str) -> list[int]:
    """Sorted distinct indices k of the step times k*tau nearest to the times,
    which must lie on the trajectory of step_count(tau, t_end) steps."""
    ks, last = set(), step_count(cfg.tau, cfg.t_end)
    for t in times:
        k = np.rint(t / cfg.tau)  # NaN for a NaN time
        if not 0 <= k <= last:
            raise ValueError(f"{what} {t} outside the trajectory")
        ks.add(int(k))
    return sorted(ks)


def cmd_simulate(cfg: RunConfig) -> dict[str, str]:
    """Run the configured trajectory; return entropy.csv, one snapshot per
    distinct step, named by its step time, and run_meta.txt by file name."""
    ks = _steps(cfg.snapshot_times, cfg, "snapshot time")
    problem, e, u0, ncfg = _inputs(cfg)
    ent.evaluate(e, u0, problem.grid)  # the entropy's domain, before any step
    traj = run(problem, get_scheme(cfg.scheme), u0, cfg.tau, cfg.t_end, ncfg)
    files = {"entropy.csv": _csv(("t", "H", "mass", "min", "max", "iters"), (
        (traj.times[k], ent.evaluate(e, state, problem.grid),
         float(state.flat.sum()) * problem.grid.dx, state.flat.min(),
         state.flat.max(), traj.newton_iters[k - 1] if k else 0)
        for k, state in enumerate(traj.states)))}
    x = problem.grid.x()
    for k in ks:
        state = traj.states[k]
        files[f"snapshot_t{traj.times[k]:g}.csv"] = _csv(
            ["x", *(f"u{j + 1}" for j in range(state.species))],
            zip(x, *state.values))
    files["run_meta.txt"] = _run_meta(replace(
        cfg, snapshot_times=[float(traj.times[k]) for k in ks]))
    return files


def cmd_gprofile(cfg: RunConfig, base_times, tau_max: float, m: int,
                 schemes) -> dict[str, str]:
    """Freeze states at the base times; return one profile CSV per distinct
    (scheme, step), named by its step time, and run_meta.txt, by file name."""
    if not base_times or not schemes:
        raise ValueError("need at least one base time and one scheme")
    ent._check_sweep(tau_max, m)  # before any step
    schemes = {name: get_scheme(name) for name in schemes}
    ks = _steps(base_times, cfg, "base time")
    problem, e, u0, ncfg = _inputs(cfg)
    files = {}
    for name, scheme in schemes.items():
        states = (run(problem, scheme, u0, cfg.tau, ks[-1] * cfg.tau,
                      ncfg).states if ks[-1] else [u0])
        for k in ks:
            prof = ent.profile_g(e, problem, scheme, states[k], tau_max, m, ncfg,
                                 base_time=k * cfg.tau)
            files[f"gprofile_{name}_t{prof.base_time:g}.csv"] = prof.to_csv()
    files["run_meta.txt"] = _run_meta(cfg, base_times=[k * cfg.tau for k in ks],
                                      tau_max=tau_max, m=m, schemes=list(schemes))
    return files


def cmd_check_conditions(preset: str, alpha: float, beta: float, u_min: float,
                         u_max: float, points: int, d: int, c_rk: float) -> list[str]:
    if preset == "heat_log":
        # the heat equation, log entropy: mobility u (beta = 1), h'' = 1/u (alpha = 0)
        alpha, beta = 0.0, 1.0
    elif preset != "pme_power":
        raise ValueError(f"unknown preset {preset!r}; use heat_log or pme_power")
    _require_count("points", points, 1)
    _require_real("u_min", u_min, 0.0)
    _require_real("u_max", u_max, u_min, closed=points == 1)  # one point: u_max = u_min
    u_grid = np.linspace(u_min, u_max, points)
    if not np.all(np.diff(u_grid) > 0.0):  # closer than the floats near u_min resolve
        raise ValueError(f"u_max must be far enough above {u_min!r} for {points} "
                         f"distinct points, got {u_max!r}")
    rows = scalar_conditions(alpha, beta, u_grid, d=d, c_rk=c_rk)
    return _csv([f.name for f in fields(ConditionRow)], map(astuple, rows)).splitlines()


def cmd_dlss_constants() -> tuple[list[str], bool]:
    """Check the three exact identities of the fourth-order chain."""
    c8_star = Fraction(17, 172)
    b12 = dlss_b12(c8_star)
    db12 = dlss_b12_derivative(c8_star)
    p = dlss_chain(Fraction(-29, 1000), c8_star).p
    checks = [
        (f"b12(17/172) = {b12}", b12 == Fraction(20, 129)),
        (f"d b12 / d c8 at 17/172 = {db12}", db12 == 0),
        (f"p(-29/1000) = {float(p):.10g}",
         Fraction(4, 1000) < p < Fraction(5, 1000)),
    ]
    lines = [f"{desc}  {'PASS' if ok else 'FAIL'}" for desc, ok in checks]
    return lines, all(ok for _, ok in checks)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkentropy",
        description="Entropy-dissipation diagnostics for Runge-Kutta "
                    "time discretizations of nonlinear diffusion equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a trajectory and emit entropy.csv")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default="out")

    gpr = sub.add_parser("gprofile", help="entropy-gap profiles G(tau) per "
                                          "scheme and base time")
    gpr.add_argument("--config", required=True)
    gpr.add_argument("--base-times", default="0.001,0.003,0.006",
                     help="comma-separated times at which to freeze the state")
    gpr.add_argument("--tau-max", type=float, default=1e-3)
    gpr.add_argument("--m", type=int, default=100)
    gpr.add_argument("--schemes", default="all",
                     help="'all' or comma-separated scheme names")
    gpr.add_argument("--out", default="out")

    reg = sub.add_parser("region", help="admissibility-region mask as CSV")
    reg.add_argument("--family", choices=("pme0", "pme1"), required=True)
    reg.add_argument("--d", type=int, default=1)
    reg.add_argument("--c-rk", type=float, default=1.0)
    reg.add_argument("--alpha-min", type=float, default=0.5)
    reg.add_argument("--alpha-max", type=float, default=4.0)
    reg.add_argument("--beta-min", type=float, default=0.5)
    reg.add_argument("--beta-max", type=float, default=4.0)
    reg.add_argument("--alpha-steps", type=int, default=8)
    reg.add_argument("--beta-steps", type=int, default=8)
    reg.add_argument("--out", default="out/region.csv")

    chk = sub.add_parser("check-conditions",
                         help="scalar-diffusion condition triple over a u grid")
    chk.add_argument("--preset", choices=("heat_log", "pme_power"),
                     default="heat_log")
    chk.add_argument("--alpha", type=float, help="pme_power only (default 1)")
    chk.add_argument("--beta", type=float, help="pme_power only (default 2)")
    chk.add_argument("--u-min", type=float, default=0.5)
    chk.add_argument("--u-max", type=float, default=2.0)
    chk.add_argument("--points", type=int, default=16)
    chk.add_argument("--d", type=int, default=1)
    chk.add_argument("--c-rk", type=float, default=1.0)
    chk.add_argument("--out", default=None)

    sub.add_parser("dlss-constants",
                   help="verify the exact fourth-order chain identities")
    return parser


# the first match wins: a DomainError is a ValueError, so it precedes the catch-all
_CATEGORIES = {KeyError: "lookup", DomainError: "domain", StepError: "step",
               OSError: "io", ValueError: "config"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out, files, shown = Path(), {}, None  # shown: printed in place of "wrote" lines
    try:
        if args.command == "simulate":
            out, files = Path(args.out), cmd_simulate(parse_config(args.config))
        elif args.command == "gprofile":
            cfg = parse_config(args.config)
            base_times = [float(tok) for tok in args.base_times.split(",") if tok]
            schemes = (list(registry()) if args.schemes == "all"
                       else [tok for tok in args.schemes.split(",") if tok])
            out, files = Path(args.out), cmd_gprofile(cfg, base_times, args.tau_max,
                                                      args.m, schemes)
        elif args.command == "region":
            files = {args.out: emit_mask(
                args.family, (args.alpha_min, args.alpha_max),
                (args.beta_min, args.beta_max), args.alpha_steps,
                args.beta_steps, d=args.d, c_rk=args.c_rk).to_csv()}
        elif args.command == "check-conditions":
            if args.preset == "heat_log" and (args.alpha, args.beta) != (None, None):
                raise ValueError("--alpha and --beta go with --preset pme_power")
            shown = "\n".join(cmd_check_conditions(
                args.preset, 1.0 if args.alpha is None else args.alpha,
                2.0 if args.beta is None else args.beta, args.u_min, args.u_max,
                args.points, args.d, args.c_rk))
            if args.out is not None:
                files = {args.out: shown + "\n"}
        elif args.command == "dlss-constants":
            lines, ok = cmd_dlss_constants()
            print("\n".join(lines))
            if not ok:
                print("error:check: a fourth-order chain identity failed",
                      file=sys.stderr)
                return 1
        for name, text in files.items():
            path = out / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            if shown is None:
                print(f"wrote {path}")
        if shown is not None:
            print(shown)
    except tuple(_CATEGORIES) as err:
        category = next(c for kind, c in _CATEGORIES.items() if isinstance(err, kind))
        print(f"error:{category}: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
