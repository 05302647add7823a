"""Newton-based forward stepping, backward solving, and trajectories.

Both directions solve one relation.  Let x be the known endpoint of a
step and g_i = x + Y_i the stage values.  The stage offsets satisfy

    Y = -tau M A[x + Y],   M = a forward (x = u_old),
                           M = a - 1 b^T backward (x = u_new),

and the other endpoint follows explicitly: u_new = u_old - tau b.A[g]
forward, u_old = u_new + tau b.A[g] backward.  The offsets live on the
scale of the state itself, so the Newton tolerance keeps its meaning at
tight settings (slope residuals carry an extra 1/dx^2 and would sit above
any tolerance below stencil noise).

Newton does not iterate on rows it does not need.  Writing M = C B, where
B keeps the nonzero rows of M that are not exact multiples of a larger
row (decided in rational arithmetic), gives Y = C W and
W = -tau B A[x + C W].  Because the eliminated rows are linear in Y, the
iterates of the reduced system are those of the full one from any start
that satisfies them.  Forward explicit Euler and backward implicit Euler
have M with no nonzero row and are closed-form; trapezoidal and composite
Simpson (both stiffly accurate, so one row carries u_new - u_old) solve
for one state-sized W in either direction.

Each Newton iteration builds the matrix I + tau sum_i (B[:, i] C[i]) (x)
J(g_i) in the cyclic band form of the problem's Jacobian
(``Problem.jacobian_flat``), scatters it into LAPACK band storage laid
out per grid size, block count and stencil (``_layout``), and factors it
with LAPACK's banded LU (``dgbtrf``, partial pivoting, fill inside the
band).  Folding the cells (0, n-1, 1, n-2, ...) makes the cyclic band a
plain band of half-width at most blocks*(2*reach + 1) - 1: O(n) work and
storage per iteration for every family.  scipy's LAPACK wrappers load
with the first solve that factors.

Newton stops at ``NewtonConfig.tol`` or at the rounding floor of the
residual, 8 eps max(|W| + tau |B| mag(g)) with mag the running error scale
of A (``Problem.magnitude_flat``): the stencil terms cancel in A far below
mag, so a fixed tol can lie below what the arithmetic resolves.  No damping
or line search is used; non-convergence is surfaced as StepError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .operators import DomainError, Problem, StateField, band_coordinates
from .tableau import ButcherTableau, Scheme


_FLOOR = 8.0 * np.finfo(float).eps  # residual rounding floor per unit of scale


class StepError(RuntimeError):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class NewtonConfig:
    """Newton stops when the max-norm of the stage residual, in state units,
    is at most ``tol``, or when it sits at the residual's rounding floor
    (see ``_newton``); ``max_iter`` iterations above both fail."""

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class Trajectory:
    """Uniformly spaced states t^k = k*tau produced by ``run``."""

    times: np.ndarray
    states: list[StateField]
    scheme: Scheme
    problem: Problem
    tau: float
    newton_iters: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.states)


def _newton(residual, factor, scale, y0: np.ndarray, cfg: NewtonConfig):
    """Plain Newton iteration; returns (solution, iterations_used).

    ``factor(y)`` factors the Newton matrix at y and returns a function
    that solves with it; it raises RuntimeError when the matrix is singular.
    ``scale(y)`` is the running error scale of the residual, which also
    passes at its rounding floor 8 eps max(scale(y)); the floor is read only
    after an iteration that cut the residual by less than half and at the
    last iterate, so a quadratically converging solve never pays for it.
    """
    y = y0.copy()
    res = residual(y)
    norm = float(np.max(np.abs(res))) if res.size else 0.0
    slow = False
    for it in range(cfg.max_iter + 1):
        if norm <= cfg.tol:
            return y, it
        if slow or it == cfg.max_iter:
            floor = _FLOOR * float(np.max(scale(y)))
            if norm <= floor:
                return y, it
        if it == cfg.max_iter:
            break
        try:
            solve = factor(y)
        except RuntimeError as err:
            raise StepError(f"singular Newton matrix at iteration {it} "
                            f"(residual {norm:.3e}): {err}", norm, it) from err
        y -= solve(res)
        res = residual(y)
        new = float(np.max(np.abs(res)))
        norm, slow = new, new > 0.5 * norm
    raise StepError(f"Newton stalled at residual {norm:.3e} after {cfg.max_iter} "
                    f"iterations (tol {cfg.tol:.1e}, rounding floor {floor:.1e})",
                    norm, cfg.max_iter)


def _proportional(row, base):
    """The exact factor lam with row == lam * base, or None."""
    j = next(j for j, v in enumerate(base) if v)
    lam = row[j] / base[j]
    return lam if all(v == lam * w for v, w in zip(row, base)) else None


@dataclass(frozen=True)
class _Relation:
    """W = -tau B A[x + C W] for one tableau and direction (Y = C W, M = C B).

    ``start`` gives the tau -> 0 initial iterate W = -tau * start * A[x].
    ``moving`` lists the stages whose value depends on W (nonzero row of
    C), and ``coupling[q]`` is the outer product B[:, i] C[i] of the q-th
    of them: the Newton matrix is I + tau sum_q coupling[q] (x) J(g_i).
    """

    B: np.ndarray
    C: np.ndarray
    start: np.ndarray
    moving: tuple[int, ...]
    coupling: np.ndarray


@cache
def _relation(tableau: ButcherTableau, backward: bool) -> _Relation:
    """Factor M = C B exactly: B keeps the nonzero rows of M that are not
    a multiple of a row at least as large (ties keep the first row)."""
    rows = [[Fraction(float(a)) - (Fraction(float(b)) if backward else 0)
             for a, b in zip(row, tableau.b)] for row in tableau.a]
    nonzero = [i for i, row in enumerate(rows) if any(row)]
    kept, multiple = [], {}
    for i in sorted(nonzero, key=lambda i: -max(map(abs, rows[i]))):
        for k in kept:
            lam = _proportional(rows[i], rows[k])
            if lam is not None:
                multiple[i] = (k, lam)
                break
        else:
            kept.append(i)
    kept.sort()
    C = np.zeros((tableau.s, len(kept)))
    for pos, k in enumerate(kept):
        C[k, pos] = 1.0
    for i, (k, lam) in multiple.items():
        C[i, kept.index(k)] = float(lam)
    B = np.array([[float(v) for v in rows[k]] for k in kept]).reshape(-1, tableau.s)
    moving = tuple(int(i) for i in np.flatnonzero(np.any(C != 0.0, axis=1)))
    return _Relation(B=B, C=C, start=tableau.a.sum(axis=1)[kept], moving=moving,
                     coupling=B.T[list(moving), :, None] * C[list(moving), None, :])


@cache
def _layout(n: int, blocks: int, offsets: tuple[int, ...]):
    """LAPACK band storage of a cyclic band array: (kl, ku, scatter, order, rank).

    Cell i goes to position 2i if i < ceil(n/2), else 2(n-1-i)+1, so cyclic
    neighbours sit at most two positions apart; unknown k of the cell at
    position p is row p*blocks + k.  The cyclic band becomes a plain band
    with kl, ku <= blocks*(2*reach + 1) - 1.  Entry e of the band array
    (``operators.band_coordinates``) adds into slot ``scatter[e]`` of the
    Fortran-ordered (2kl+ku+1, blocks*n) storage, so entries that name one
    position on small grids add.  Row j holds unknown ``order[j]``, and
    unknown i sits in row ``rank[i]``.
    """
    cell = np.arange(n)
    pos = np.where(cell < (n + 1) // 2, 2 * cell, 2 * (n - 1 - cell) + 1)
    rows, cols = (pos[index % n] * blocks + index // n
                  for index in band_coordinates(blocks, offsets, n))
    kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
    unknown = np.arange(blocks * n)
    rank = pos[unknown % n] * blocks + unknown // n
    scatter = (cols * (2 * kl + ku + 1) + kl + ku + rows - cols).ravel()
    return kl, ku, scatter, np.argsort(rank), rank


def _step(problem: Problem, scheme: Scheme, x: np.ndarray, tau: float,
          cfg: NewtonConfig, backward: bool = False,
          w_init: np.ndarray | None = None):
    """Solve the stage relation from the known endpoint x.

    Forward, x = u_old and the result is u_new; backward, x = u_new and
    the result is u_old.  ``w_init`` overrides the tau -> 0 initial
    iterate with a W from a neighbouring solve, which lets sweeps continue
    along a solution branch instead of restarting.  Returns (the other
    endpoint, Newton iterations, W).
    """
    rel = _relation(scheme.tableau, backward)
    s, r = rel.C.shape
    m = x.size
    a_x = problem.apply_flat(x)
    last = {}  # A[g] at the latest iterate, which _newton returns

    def residual(w):
        y = rel.C @ w.reshape(r, m)
        ag = np.array([problem.apply_flat(x + y[i]) if i in rel.moving else a_x
                       for i in range(s)])
        last["ag"] = ag
        return (w.reshape(r, m) + tau * rel.B @ ag).reshape(-1)

    def scale(w):
        y = rel.C @ w.reshape(r, m)
        mag = np.array([problem.magnitude_flat(x + y[i]) for i in range(s)])
        return np.abs(w) + tau * (np.abs(rel.B) @ mag).reshape(-1)

    if r:  # closed-form relations (r = 0) never factor
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        kl, ku, scatter, order, rank = _layout(
            problem.grid.n, r * problem.species, problem.offsets)
        coupling = tau * rel.coupling[:, :, None, :, None, None, None]

    def factor(w):
        # band form of I + tau sum_q coupling[q] (x) J(g_i): block (k, s)
        # x (l, t) of the (r*species)^2 cyclic band blocks
        y = rel.C @ w.reshape(r, m)
        jac = np.stack([problem.jacobian_flat(x + y[i]) for i in rel.moving])
        bands = (coupling * jac[:, None, :, None]).sum(axis=0)
        ab = np.bincount(scatter, weights=bands.ravel(), minlength=order.size
                         * (2 * kl + ku + 1)).reshape(order.size, -1).T
        ab[kl + ku] += 1.0
        lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError(f"zero pivot in row {info - 1} of the band LU")

        return lambda rhs: dgbtrs(lu, kl, ku, rhs[order], piv)[0][rank]

    if w_init is None:
        w_init = ((-tau * rel.start)[:, None] * a_x).reshape(-1)
    w, iters = _newton(residual, factor, scale, w_init, cfg)
    b = scheme.tableau.b
    other = x + (tau if backward else -tau) * (b[:, None] * last["ag"]).sum(axis=0)
    return other, iters, w


def forward_step(problem: Problem, scheme: Scheme, u_prev: StateField, tau: float,
                 cfg: NewtonConfig | None = None) -> StateField:
    """Advance one step of size tau from u_prev."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    cfg = cfg or NewtonConfig()
    problem._check_state(u_prev)
    u_new, _, _ = _step(problem, scheme, u_prev.flat, tau, cfg)
    return StateField.from_flat(u_new, problem.species)


def backward_solve(problem: Problem, scheme: Scheme, u: StateField, tau: float,
                   cfg: NewtonConfig | None = None) -> StateField:
    """Recover the previous state v(tau) that steps forward onto u.

    v(0) = u exactly; for small tau the solution follows the expansion
    v(tau) = u + tau*A[u] + (tau^2/2) * c_rk * DA[u](A[u]) + O(tau^3).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    cfg = cfg or NewtonConfig()
    problem._check_state(u)
    if tau == 0.0:
        return u.copy()
    v, _, _ = _step(problem, scheme, u.flat, tau, cfg, backward=True)
    return StateField.from_flat(v, problem.species)


def run(problem: Problem, scheme: Scheme, u0: StateField, tau: float, t_end: float,
        cfg: NewtonConfig | None = None) -> Trajectory:
    """Advance ceil(t_end/tau) uniform steps from t = 0, keeping every state.

    A failed Newton solve (StepError) or an iterate outside the problem's
    domain (DomainError) is re-raised with the same type, its message
    prefixed by the step index and time.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if t_end < tau:
        raise ValueError("t_end must be at least one step")
    cfg = cfg or NewtonConfig()
    problem._check_state(u0)
    n_steps = int(np.ceil(t_end / tau - 1e-12))
    states = [u0.copy()]
    iters: list[int] = []
    x = u0.flat
    for k in range(n_steps):
        where = f"step {k + 1} (t={k * tau:.6g} -> {(k + 1) * tau:.6g}) failed"
        try:
            x, it, _ = _step(problem, scheme, x, tau, cfg)
        except StepError as err:
            raise StepError(f"{where}: {err}", err.residual, err.iterations) from err
        except DomainError as err:
            raise DomainError(f"{where}: {err}") from err
        if not np.all(np.isfinite(x)):
            raise StepError(f"step {k + 1} produced non-finite values (overflow or "
                            f"blow-up at t={(k + 1) * tau:.6g})", float("inf"), it)
        states.append(StateField.from_flat(x, problem.species))
        iters.append(it)
    return Trajectory(times=np.arange(n_steps + 1) * tau, states=states,
                      scheme=scheme, problem=problem, tau=tau, newton_iters=iters)
