"""Command-line front end: simulations, profiles, regions, condition checks.

Config files are flat ``key = value`` lines with ``#`` comments.  All
output is CSV with a header row and shortest-round-trip float formatting,
so identical configs produce byte-identical files.

Subcommands: simulate, gprofile, region, check-conditions, dlss-constants.
Failures exit nonzero after printing one line ``error:<category>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import entropy as ent
from .operators import Dlss, DomainError, Grid1D, LinearSystem, PorousMedium, \
    Problem, StateField
from .regions import dlss_b12, dlss_b12_derivative, dlss_chain, emit_mask, \
    scalar_conditions
from .stepping import NewtonConfig, StepError, run
from .tableau import get_scheme


class ConfigError(ValueError):
    """Bad key, unparsable value, or violated constraint in a config."""


_PROBLEMS = ("pme", "linear_system", "dlss")
_ENTROPIES = ("power", "log_sum", "experiment_power", "first_order")
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
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    entropy: str = "experiment_power"
    alpha: float = 5.0
    ic: str = "barenblatt"
    t0: float = 0.01
    x_r: float = 0.25
    mean: float = 1.0
    amplitude: float = 0.1
    ic_file: str = ""
    snapshot_times: list[float] = field(default_factory=list)


_TYPES = get_type_hints(RunConfig)
_INT_KEYS = {key for key, kind in _TYPES.items() if kind is int}
_FLOAT_KEYS = {key for key, kind in _TYPES.items() if kind is float}


def _validate(cfg: RunConfig):
    if cfg.problem not in _PROBLEMS:
        raise ConfigError(
            f"problem must be one of {', '.join(_PROBLEMS)}; got {cfg.problem!r}")
    if cfg.entropy not in _ENTROPIES:
        raise ConfigError(
            f"entropy must be one of {', '.join(_ENTROPIES)}; got {cfg.entropy!r}")
    if cfg.ic not in _ICS:
        raise ConfigError(f"ic must be one of {', '.join(_ICS)}; got {cfg.ic!r}")
    try:
        get_scheme(cfg.scheme)
    except KeyError as err:
        raise ConfigError(str(err)) from None
    for key in ("beta", "length", "tau", "t_end", "newton_tol", "t0"):
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key} must be positive, got {getattr(cfg, key)}")
    if cfg.n < 4:
        raise ConfigError(f"n must be at least 4, got {cfg.n}")
    if cfg.newton_max_iter < 1:
        raise ConfigError("newton_max_iter must be at least 1")
    if cfg.ic == "barenblatt":
        if cfg.problem != "pme" or cfg.beta <= 1.0:
            raise ConfigError(
                "barenblatt initial data needs problem=pme with beta > 1")
        if not (0.0 < cfg.x_r < 0.5):
            raise ConfigError("x_r must lie in (0, 1/2)")
    if cfg.ic == "file" and not cfg.ic_file:
        raise ConfigError("ic=file needs ic_file=<path>")


def parse_config(path) -> RunConfig:
    """Read a flat key=value config file into a validated RunConfig."""
    raw = vars(RunConfig())
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in raw:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                raw[key] = int(value)
            elif key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key == "snapshot_times":
                raw[key] = [float(tok) for tok in value.split(",") if tok]
            else:
                raw[key] = value
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse value for {key!r}: {value!r}"
            ) from None
    cfg = RunConfig(**raw)
    _validate(cfg)
    return cfg


def build_problem(cfg: RunConfig) -> Problem:
    grid = Grid1D(n=cfg.n, length=cfg.length)
    if cfg.problem == "pme":
        return PorousMedium(grid, beta=cfg.beta)
    if cfg.problem == "linear_system":
        return LinearSystem(grid, rho1=cfg.rho1, rho2=cfg.rho2, mu=cfg.mu)
    return Dlss(grid)


def build_entropy(cfg: RunConfig):
    if cfg.entropy == "power":
        return ent.PowerEntropy(cfg.alpha)
    if cfg.entropy == "log_sum":
        return ent.LogEntropySum()
    if cfg.entropy == "first_order":
        return ent.FirstOrder(cfg.alpha)
    return ent.ExperimentPower(cfg.alpha)


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
        if species == 2:
            return StateField.pair(u, u.copy())
        return StateField.scalar(u)
    values = np.loadtxt(cfg.ic_file, ndmin=2)
    if values.shape[0] not in (1, 2) and values.shape[1] in (1, 2):
        values = values.T
    if values.shape != (species, grid.n):
        raise ConfigError(
            f"ic_file shape {values.shape} does not match ({species}, {grid.n})")
    return StateField(values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _package_version() -> str:
    from . import __version__
    return __version__


def _scipy_meta() -> list[str]:
    """scipy's version and the LAPACK it was built against, which factors
    every Newton matrix and can be another build than numpy's BLAS."""
    import scipy

    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return [f"scipy_version = {scipy.__version__}",
            f"scipy_lapack = {lapack['name']} {lapack['version']}"]


def cmd_simulate(cfg: RunConfig, out_dir) -> Path:
    """Run the configured trajectory; write entropy.csv and snapshots."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    scheme = get_scheme(cfg.scheme)
    e = build_entropy(cfg)
    u0 = make_initial(cfg, problem.grid)
    ncfg = NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    traj = run(problem, scheme, u0, cfg.tau, cfg.t_end, ncfg)
    dx = problem.grid.dx
    lines = ["t,H,mass,min,max,iters"]
    for k, state in enumerate(traj.states):
        iters = traj.newton_iters[k - 1] if k > 0 else 0
        lines.append(",".join([
            _fmt(traj.times[k]),
            _fmt(ent.evaluate(e, state, problem.grid)),
            _fmt(float(state.flat.sum()) * dx),
            _fmt(float(state.flat.min())),
            _fmt(float(state.flat.max())),
            str(iters),
        ]))
    path = out / "entropy.csv"
    path.write_text("\n".join(lines) + "\n")
    for t_snap in cfg.snapshot_times:
        k = int(round(t_snap / cfg.tau))
        k = min(max(k, 0), len(traj.states) - 1)
        rows = ["x" + "".join(f",u{j + 1}" for j in range(traj.states[k].species))]
        x = problem.grid.x()
        for i in range(problem.grid.n):
            rows.append(",".join(
                [_fmt(x[i])] + [_fmt(traj.states[k].values[j, i])
                                for j in range(traj.states[k].species)]))
        (out / f"snapshot_t{t_snap:g}.csv").write_text("\n".join(rows) + "\n")
    meta = [f"{key} = {getattr(cfg, key)}" for key in vars(cfg)]
    meta.append(f"rkentropy_version = {_package_version()}")
    meta.append(f"numpy_version = {np.__version__}")
    meta += _scipy_meta()
    (out / "run_meta.txt").write_text("\n".join(meta) + "\n")
    return path


def cmd_gprofile(cfg: RunConfig, base_times, tau_max: float, m: int,
                 schemes, out_dir) -> list[Path]:
    """Freeze states at the base times and emit one profile CSV per
    (scheme, base time) pair."""
    if not tau_max > 0:
        raise ConfigError("tau_max must be positive")
    if m < 3:
        raise ConfigError("m must be at least 3")
    base_times = sorted(base_times)
    if not base_times:
        raise ConfigError("need at least one base time")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    e = build_entropy(cfg)
    u0 = make_initial(cfg, problem.grid)
    ncfg = NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    paths = []
    for name in schemes:
        scheme = get_scheme(name)
        traj = run(problem, scheme, u0, cfg.tau, base_times[-1], ncfg)
        for t_base in base_times:
            k = int(round(t_base / cfg.tau))
            if not 0 <= k < len(traj.states):
                raise ConfigError(f"base time {t_base} outside the trajectory")
            prof = ent.profile_g(e, problem, scheme, traj.states[k], tau_max, m,
                                 ncfg, base_time=traj.times[k])
            path = out / f"gprofile_{name}_t{t_base:g}.csv"
            path.write_text(prof.to_csv())
            paths.append(path)
    return paths


def cmd_region(family: str, alpha_range, beta_range, alpha_steps: int,
               beta_steps: int, d: int, c_rk: float, out_path) -> Path:
    mask = emit_mask(family, alpha_range, beta_range, alpha_steps, beta_steps,
                     d=d, c_rk=c_rk)
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(mask.to_csv())
    return path


_PRESETS = {
    # heat equation with logarithmic entropy: a = 1, h'' = 1/u, mobility u
    "heat_log": {
        "mu": lambda u: u,
        "dmu": lambda u: np.ones_like(np.asarray(u, float)) if np.ndim(u) else 1.0,
        "d2mu": lambda u: np.zeros_like(np.asarray(u, float)) if np.ndim(u) else 0.0,
        "hpp": lambda u: 1.0 / u,
    },
}


def _pme_handles(alpha: float, beta: float):
    """Power-law mobility mu(u) = beta u^(beta - alpha), h''(u) = u^(alpha-1)."""
    e = beta - alpha
    return {
        "mu": lambda u: beta * u**e,
        "dmu": lambda u: beta * e * u ** (e - 1.0),
        "d2mu": lambda u: beta * e * (e - 1.0) * u ** (e - 2.0),
        "hpp": lambda u: u ** (alpha - 1.0),
    }


def cmd_check_conditions(preset: str, alpha: float, beta: float, u_min: float,
                         u_max: float, points: int, d: int, c_rk: float,
                         out_path=None) -> list[str]:
    if preset == "heat_log":
        handles = _PRESETS["heat_log"]
    elif preset == "pme_power":
        handles = _pme_handles(alpha, beta)
    else:
        raise ConfigError(f"unknown preset {preset!r}; use heat_log or pme_power")
    u_grid = np.linspace(u_min, u_max, points)
    rows = scalar_conditions(handles["mu"], handles["dmu"], handles["d2mu"],
                             handles["hpp"], u_grid, d=d, c_rk=c_rk)
    lines = ["u,b,b_alt,cond2_residual,cond2_residual_alt,cond3_value,"
             "cond1_ok,cond2_ok,cond3_ok"]
    for r in rows:
        lines.append(",".join([
            _fmt(r.u), _fmt(r.b), _fmt(r.b_alt), _fmt(r.cond2_residual),
            _fmt(r.cond2_residual_alt), _fmt(r.cond3_value),
            str(int(r.cond1_ok)), str(int(r.cond2_ok)), str(int(r.cond3_ok)),
        ]))
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    return lines


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
    chk.add_argument("--alpha", type=float, default=1.0)
    chk.add_argument("--beta", type=float, default=2.0)
    chk.add_argument("--u-min", type=float, default=0.5)
    chk.add_argument("--u-max", type=float, default=2.0)
    chk.add_argument("--points", type=int, default=16)
    chk.add_argument("--d", type=int, default=1)
    chk.add_argument("--c-rk", type=float, default=1.0)
    chk.add_argument("--out", default=None)

    sub.add_parser("dlss-constants",
                   help="verify the exact fourth-order chain identities")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = parse_config(args.config)
            path = cmd_simulate(cfg, args.out)
            print(f"wrote {path}")
        elif args.command == "gprofile":
            cfg = parse_config(args.config)
            base_times = [float(tok) for tok in args.base_times.split(",") if tok]
            schemes = (["explicit_euler", "implicit_euler", "trapezoidal",
                        "simpson"] if args.schemes == "all"
                       else [tok for tok in args.schemes.split(",") if tok])
            paths = cmd_gprofile(cfg, base_times, args.tau_max, args.m, schemes,
                                 args.out)
            for path in paths:
                print(f"wrote {path}")
        elif args.command == "region":
            path = cmd_region(
                args.family, (args.alpha_min, args.alpha_max),
                (args.beta_min, args.beta_max), args.alpha_steps,
                args.beta_steps, args.d, args.c_rk, args.out)
            print(f"wrote {path}")
        elif args.command == "check-conditions":
            lines = cmd_check_conditions(
                args.preset, args.alpha, args.beta, args.u_min, args.u_max,
                args.points, args.d, args.c_rk, args.out)
            print("\n".join(lines))
        elif args.command == "dlss-constants":
            lines, ok = cmd_dlss_constants()
            print("\n".join(lines))
            if not ok:
                print("error:check: a fourth-order chain identity failed",
                      file=sys.stderr)
                return 1
    except ConfigError as err:
        print(f"error:config: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        print(f"error:lookup: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"error:domain: {err}", file=sys.stderr)
        return 2
    except StepError as err:
        print(f"error:step: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error:io: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
