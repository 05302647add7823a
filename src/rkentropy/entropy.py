"""Discrete entropy functionals and dissipation diagnostics.

Two zeroth-order families (cell sums of h(u)) and one first-order family,
``FirstOrder`` (cell sum of the squared gradient of f(u)), are provided;
an entropy is first order iff it is a ``FirstOrder``.  The diagnostics:

* production:     the instantaneous dissipation rate -dH/dt = DH[u](A[u])
                  along the semi-discrete flow,
* i0 / i1:        the condition integrals whose positivity certifies that
                  the entropy gap G(tau) = H[u] - H[v(tau)] is concave at
                  tau = 0: both are the one second variation
                  -G''(0) = c_rk DH[u](DA[u](A[u])) + D^2H[u](A[u], A[u]),
                  exact at the spatially discrete level,
* profile_g:      a tau sweep of G with discrete second derivative and
                  the normalized quotient Q,
* fit_rate_series: the exponential decay rate of a positive series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (DomainError, Grid1D, PorousMedium, Problem, StateField, _csv,
                        _power, _require_count, _require_positive, _require_real, diff1)
from .stepping import NewtonConfig, StepError, _Linearization, _step
from .tableau import Scheme


class PowerEntropy:
    """h(u) = u^(alpha+1) / (alpha (alpha+1)) for alpha > 0.

    At alpha = 0 the family degenerates to h(u) = u (log u - 1).  h''(u) =
    u^(alpha - 1) > 0 on the positive axis for every alpha >= 0.  h, h' and
    h'' each pass ``operators._require_positive`` for their log or power.
    """

    def __init__(self, alpha: float):
        _require_real("alpha", alpha, 0.0, closed=True)
        self.alpha = float(alpha)

    def h(self, u):
        if self.alpha == 0.0:
            return u * (self.hp(u) - 1.0)
        a = self.alpha
        return _power(u, a + 1.0) / (a * (a + 1.0))

    def hp(self, u):
        if self.alpha == 0.0:
            _require_positive(u, "entropy")
            return np.log(u)
        return _power(u, self.alpha) / self.alpha

    def hpp(self, u):
        return _power(u, self.alpha - 1.0)


class LogEntropySum(PowerEntropy):
    """Species-summed logarithmic entropy sum_j u_j (log u_j - 1): the
    alpha = 0 member of PowerEntropy (u ** -1.0 is numpy's reciprocal)."""

    def __init__(self):
        super().__init__(0.0)


class ExperimentPower:
    """Plain power sum H_d[u] = sum_i u_i^alpha dx (no normalization); h, h'
    and h'' each take their power through ``operators._power``."""

    def __init__(self, alpha: float):
        _require_real("alpha", alpha)
        self.alpha = float(alpha)

    def h(self, u):
        return _power(u, self.alpha)

    def hp(self, u):
        return _power(u, self.alpha - 1.0, self.alpha)

    def hpp(self, u):
        return _power(u, self.alpha - 2.0, self.alpha * (self.alpha - 1.0))


class FirstOrder:
    """Gradient functional with f(u) = u^(alpha/2), e.g. Fisher information.

    Single species, strictly positive states only.
    """

    def __init__(self, alpha: float):
        _require_real("alpha", alpha, 0.0)
        self.alpha = float(alpha)

    def f(self, u):
        return u ** (self.alpha / 2.0)

    def fp(self, u):
        return (self.alpha / 2.0) * u ** (self.alpha / 2.0 - 1.0)

    def fpp(self, u):
        e = self.alpha / 2.0
        return e * (e - 1.0) * u ** (e - 2.0)


def _check_state(e, u: np.ndarray):
    if isinstance(e, FirstOrder):
        if u.shape[0] != 1:
            raise ValueError("first-order entropies are single-species")
        _require_positive(u, "entropy")


def _total(e, u: np.ndarray, dx: float) -> float:
    """H of a species x n array of cells; a zeroth-order entropy calls h once.
    A non-finite H is a DomainError that names its first non-finite term."""
    _check_state(e, u)
    terms = diff1(e.f(u[0]), dx) ** 2 if isinstance(e, FirstOrder) else e.h(u)
    total = float(np.sum(terms) * dx)
    if not -np.inf < total < np.inf:  # name the first non-finite term, if any
        bad = int(np.argmin(np.isfinite(terms)))
        raise DomainError(f"entropy is not finite at cell {bad % u.shape[-1]}, where "
                          f"u={u.flat[bad]:.6g}" if not np.isfinite(terms.flat[bad])
                          else "entropy overflows: its cell sum is not finite")
    return total


def evaluate(e, u: StateField, grid: Grid1D) -> float:
    """Discrete entropy of the state (species-summed cell sum)."""
    if u.n != grid.n:
        raise ValueError(f"state has {u.n} cells but the grid has {grid.n}")
    return _total(e, u.values, grid.dx)


def _variations(e, u: np.ndarray, dx: float):
    """DH[u] per cell (DH[u](w) = sum_i DH[u]_i w_i dx) and w -> D^2H[u] w.

    Zeroth order: h'(u) and h''(u) w.  First order: D1 is antisymmetric on
    the periodic grid, so DH[u](w) = 2 sum (D1 f(u)) D1(f'(u) w) dx gives
    DH[u] = -2 f'(u) D1 D1 f(u); D^2H[u] w is its derivative along w.
    Both are species x n arrays, as u is.
    """
    _check_state(e, u)
    if not isinstance(e, FirstOrder):  # h'' only for D^2H: the rate needs h' alone
        return e.hp(u), lambda w: e.hpp(u) * w
    fp = e.fp(u)
    curv = diff1(diff1(e.f(u), dx), dx)
    return -2.0 * fp * curv, lambda w: -2.0 * (
        e.fpp(u) * curv * w + fp * diff1(diff1(fp * w, dx), dx))


def production(e, problem: Problem, u: StateField) -> float:
    """Dissipation rate -dH/dt = -G'(0) = DH[u](A[u]) along du/dt = -A[u],
    nonnegative in dissipating regimes."""
    problem._check_state(u)
    dh, _ = _variations(e, u.values, problem.grid.dx)
    au = problem.apply_flat(u.flat).reshape(dh.shape)
    return float(np.sum(dh * au) * problem.grid.dx)


def _second_variation(e, problem: Problem, u: StateField, c_rk: float) -> float:
    """-G''(0) = c_rk DH[u](DA[u](A[u])) + D^2H[u](A[u], A[u]), exactly at
    the spatially discrete level."""
    _require_real("c_rk", c_rk)
    problem._check_state(u)
    dh, second = _variations(e, u.values, problem.grid.dx)
    au = problem.apply_flat(u.flat)
    daa = problem.deriv_flat(u.flat, au).reshape(dh.shape)
    au = au.reshape(dh.shape)
    return float(np.sum(c_rk * dh * daa + second(au) * au) * problem.grid.dx)


def i0(e, problem: Problem, u: StateField, c_rk: float) -> float:
    """Condition integral -G''(0) for zeroth-order entropies (diagonal
    Hessians): sum_i [c_rk h'(u_i) DA[u](A[u])_i + h''(u_i) A[u]_i^2] dx."""
    if isinstance(e, FirstOrder):
        raise ValueError("i0 takes a zeroth-order entropy")
    return _second_variation(e, problem, u, c_rk)


def i1(e, problem: Problem, u: StateField, c_rk: float) -> float:
    """Condition integral -G''(0) for first-order entropies; summation by
    parts makes it the gradient form of the continuous condition integral,
    2 sum_i [(D1(f' A))^2 + D1 f D1(f'' A^2 + c_rk f' DA[u](A))]_i dx."""
    if not isinstance(e, FirstOrder):
        raise ValueError("i1 takes a first-order entropy")
    return _second_variation(e, problem, u, c_rk)


@dataclass
class GProfile:
    """Backward-solve sweep of the entropy gap G(tau) = H[u] - H[v(tau)].

    ``d2g`` holds central second differences on the interior tau nodes
    (NaN at the endpoints); ``q`` is d2g normalized by the porous-medium
    gradient norm (NaN where undefined).  When a backward solve fails the
    profile is truncated: entries from ``failed_index`` on are NaN.
    """

    taus: np.ndarray
    g: np.ndarray
    d2g: np.ndarray
    q: np.ndarray
    base_time: float = 0.0
    failed_index: int | None = None

    def to_csv(self) -> str:
        return _csv(("tau", "G", "d2G", "Q"),
                    zip(self.taus, self.g, self.d2g, self.q))


def q_denominator(e, problem: Problem, u: StateField) -> float:
    """Porous-medium normalization || u^p (D1 u)^4 ||_L1 for the quotient Q,
    with p = alpha + 2 beta - 2.  Returns NaN for problems without a power
    nonlinearity.
    """
    if not isinstance(problem, PorousMedium):
        return float("nan")
    p = e.alpha + 2.0 * problem.beta - 2.0
    uu = u.values[0]
    dx = problem.grid.dx
    return float(np.sum(uu**p * diff1(uu, dx) ** 4) * dx)


def _check_sweep(tau_max: float, m: int):
    """profile_g's checks of its sweep, which callers may make before any step."""
    _require_real("tau_max", tau_max, 0.0)
    _require_count("m", m, 3)


def profile_g(e, problem: Problem, scheme: Scheme, u: StateField, tau_max: float,
              m: int, cfg: NewtonConfig | None = None,
              base_time: float = 0.0) -> GProfile:
    """Sweep tau_j = j * tau_max / m, j = 0..m, backward-solving at each.

    g[0] = 0 exactly (v(0) = u).  Each solve continues from the previous
    tau node's solution: the backward problem can develop spurious Newton
    roots away from the physical branch at larger tau, and continuation
    keeps the iteration inside the correct basin.  Every node solves from
    the same endpoint u, so the sweep evaluates A[u] once and J(u), which
    Newton's rounding floor needs, at most once.  A backward solve that
    fails (StepError), or leaves the problem's domain or the entropy's
    (DomainError), truncates the sweep at that node and records it in
    ``failed_index``; everything computed so far is kept.
    """
    _check_sweep(tau_max, m)
    _require_real("base_time", base_time)
    cfg = cfg or NewtonConfig()
    problem._check_state(u)
    taus = np.linspace(0.0, tau_max, m + 1)
    g = np.full(m + 1, np.nan)
    g[0] = 0.0
    dx = problem.grid.dx
    h_u = _total(e, u.values, dx)
    failed: int | None = None
    w_prev = None
    base = _Linearization(problem, u.flat)
    for j in range(1, m + 1):
        try:
            v, _, w_prev = _step(problem, scheme, u.flat, taus[j], cfg,
                                 backward=True, w_init=w_prev, base=base)
            g[j] = h_u - _total(e, v.reshape(u.values.shape), dx)
        except (StepError, DomainError):
            failed = j
            break
    h = taus[1] - taus[0]
    d2g = np.full(m + 1, np.nan)  # NaN g past a failed solve keeps its d2g NaN
    d2g[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h**2
    den = q_denominator(e, problem, u)
    q = d2g / den if np.isfinite(den) and den != 0.0 else np.full(m + 1, np.nan)
    return GProfile(taus=taus, g=g, d2g=d2g, q=q, base_time=base_time,
                    failed_index=failed)


def d2g_at_zero(profile: GProfile) -> float:
    """Second-order estimate of G''(0) from the left edge of a profile.

    The centered second difference at the first interior node estimates
    G'' at tau = h with an O(h) offset from 0; combining the h and 2h
    stencils cancels that leading term (Richardson), leaving O(h^2).
    Needs g at nodes 0..4.
    """
    g, taus = profile.g, profile.taus
    if g.size < 5 or not np.all(np.isfinite(g[:5])):
        raise ValueError("profile too short for extrapolation (need nodes 0..4)")
    h = taus[1] - taus[0]
    d_h = (g[2] - 2.0 * g[1] + g[0]) / h**2
    d_2h = (g[4] - 2.0 * g[2] + g[0]) / (2.0 * h) ** 2
    return 2.0 * d_h - d_2h


def fit_rate_series(times: np.ndarray, values: np.ndarray) -> float:
    """Exponential decay rate of a positive series: -slope of log(values)."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("decay fit requires 1-D times and values of one length, "
                         f"got shapes {times.shape} and {values.shape}")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValueError("decay fit requires finite times and values")
    if np.unique(times).size < 2:
        raise ValueError("need at least two distinct times to fit a rate")
    if np.any(values <= 0.0):
        raise ValueError("decay fit requires strictly positive values")
    slope = np.polyfit(times, np.log(values), 1)[0]
    return float(-slope)
