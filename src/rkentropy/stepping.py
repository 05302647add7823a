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

``_step`` runs one plain Newton loop: each iterate forms the stage values
g = x + C W once and makes one A and one J evaluation per iterate for all
moving stages, as one batch (fixed ones keep A[x]; an iterate that stops
builds no J); W is updated with the matrix I + tau sum_i (B[:, i] C[i]) (x)
J(g_i).  A[x], and the floor scale at x if it is read, are built once per
solve (``_Linearization``), or once per ``profile_g`` sweep, whose nodes
all solve from x.  ``_band_solver`` sums that matrix in the cyclic band
form of the problem's Jacobian (``Problem.jacobian_flat``), scatters it into
LAPACK band storage laid out per grid size, block count and stencil
(``_layout``), and solves with it in one call of LAPACK's band driver
``dgbsv``: the banded LU ``dgbtrf`` (partial pivoting, fill inside the
band), then ``dgbtrs``.  Folding the cells (0, n-1, 1, n-2, ...) makes
the cyclic band a plain band of half-width at most blocks*(2*reach + 1) - 1:
O(n) work and storage per iteration for every family.  dgbsv comes from the
LAPACK numpy's linalg already loaded, called through ctypes (``_band_lapack``).

Newton stops at ``NewtonConfig.tol`` or at the rounding floor of the
residual, 8 eps max(|W| + tau |B| mag(g)) with mag(g) = |J| |g| + |A[g]|
(``_magnitude``): the stencil terms cancel in A far below mag, so a fixed
tol can lie below what the arithmetic resolves.  |J| holds the bands of
the last factored Newton matrix, J at the previous iterate: the floor
decides only near rounding level, where consecutive iterates differ by
about the residual, and an iterate that stops builds no J for it.  The
floor is read once convergence stops speeding up, when r_k/r_{k-1}
exceeds 1/2 or reaches r_{k-1}/r_{k-2} (Deuflhard, Newton Methods for
Nonlinear Problems, 2004, section 2.1), and at max_iter.  No damping or
line search is used; a non-finite residual or endpoint, or max_iter
iterations above both, is a StepError.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .operators import (DomainError, Problem, StateField, _band_matvec, _cells_at,
                        _require_count, _require_real)
from .tableau import ButcherTableau, Scheme


_FLOOR = 8.0 * np.finfo(float).eps  # residual rounding floor per unit of scale


def _magnitude(problem: Problem, jac, g: np.ndarray, ag: np.ndarray) -> np.ndarray:
    """Rounding-error scale |J| |g| + |A[g]| of A per cell of g, given the
    Jacobian bands jac and ag = A[g], with the same leading batch axes.  To
    first order, rounding x moves A[x] by eps |J(x)| |x| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.3); |A[x]| keeps the
    scale above A there.  Moving stages get the bands of the last factored
    Newton matrix (J at the previous iterate), fixed ones J(x)."""
    return _band_matvec(np.abs(jac), problem.offsets, np.abs(g)) + np.abs(ag)


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
    (see ``_step``); ``max_iter`` iterations above both fail."""

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        _require_real("tol", self.tol, 0.0)  # an infinite tol would accept any iterate
        _require_count("max_iter", self.max_iter, 1)


@dataclass
class Trajectory:
    """States at t^k = k*tau from ``run``, and each step's Newton iterations."""

    times: np.ndarray
    states: list[StateField]
    newton_iters: list[int]


class _Linearization:
    """A[x] and, from the first floor read that needs it, the fixed stages'
    floor scale |J(x)| |x| + |A[x]| at the known endpoint x of a solve.  A
    sweep shares one across its nodes, which all solve from the same x."""

    def __init__(self, problem: Problem, x: np.ndarray):
        self.problem, self.x = problem, x
        self.a = problem.apply_flat(x)

    @cached_property
    def mag(self) -> np.ndarray:
        jac = self.problem.jacobian_flat(self.x)
        return _magnitude(self.problem, jac, self.x, self.a)


def _proportional(row, base):
    """The exact factor lam with row == lam * base, or None."""
    j = next(j for j, v in enumerate(base) if v)
    lam = row[j] / base[j]
    return lam if all(v == lam * w for v, w in zip(row, base)) else None


@dataclass(frozen=True)
class _Relation:
    """W = -tau B A[x + C W] for one tableau and direction (Y = C W, M = C B).

    A cold solve starts at its tau -> 0 limit W = -tau (B 1) A[x] (``_step``).
    ``moving`` indexes the stages whose value depends on W (nonzero row of
    C), as a slice where they are contiguous (every built-in), and
    ``coupling[q]`` is the outer product B[:, i] C[i] of the q-th of them:
    the Newton matrix is I + tau sum_q coupling[q] (x) J(g_i).
    """

    B: np.ndarray
    C: np.ndarray
    moving: slice | np.ndarray
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
    stages = np.flatnonzero(np.any(C != 0.0, axis=1))
    moving = (slice(int(stages[0]), int(stages[-1]) + 1)
              if stages.size and stages[-1] - stages[0] == stages.size - 1 else stages)
    return _Relation(B, C, moving, B.T[stages, :, None] * C[stages, None, :])


@cache
def _layout(n: int, blocks: int, offsets: tuple[int, ...]):
    """LAPACK band storage of a cyclic band array: (kl, ku, scatter, order, rank).

    Cell i goes to position 2i if i < ceil(n/2), else 2(n-1-i)+1, so cyclic
    neighbours sit at most two positions apart; unknown k of the cell at
    position p is row p*blocks + k.  The cyclic band becomes a plain band
    with kl, ku <= blocks*(2*reach + 1) - 1.  Entry e = [s, t, j, i] of the
    band array (``Problem.jacobian_flat``) sits in the row of unknown s of
    cell i and the column of unknown t of cell (i + offsets[j]) mod n; it
    adds into slot ``scatter[e]`` of the Fortran-ordered (2kl+ku+1,
    blocks*n) storage, so entries that name one position on small grids
    add.  Row j holds unknown ``order[j]``, and unknown i sits in row
    ``rank[i]``.
    """
    cell = np.arange(n)
    pos = np.where(cell < (n + 1) // 2, 2 * cell, 2 * (n - 1 - cell) + 1)
    place = pos * blocks + np.arange(blocks)[:, None]  # row of unknown k, cell i
    rows, cols = np.broadcast_arrays(place[:, None, None, :],
                                     place[:, _cells_at(offsets, n)])
    kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
    scatter = (cols * (2 * kl + ku + 1) + kl + ku + rows - cols).ravel()
    rank = place.ravel()
    return kl, ku, scatter, np.argsort(rank), rank


@cache
def _band_lapack():
    """(dgbsv, integer width, library file, symbol) of the LAPACK numpy's
    linalg links, found through the handle of numpy.linalg._umath_linalg
    (whose lookups search its dependencies), then numpy's vendored libraries."""
    import glob
    from numpy.linalg import _umath_linalg

    names = ("scipy_dgbsv_64_", "dgbsv_64_", "scipy_dgbsv_", "dgbsv_")
    vendored = (os.path.join(np.__path__[0], "..", "numpy.libs", "*"),
                os.path.join(np.__path__[0], ".dylibs", "*"))
    libs = [_umath_linalg.__file__, *sorted(sum(map(glob.glob, vendored), []))]
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            ilaver = getattr(lib, name.replace("dgbsv", "ilaver"), None)
            if ilaver and hasattr(lib, name):
                # ilaver fills all 8 bytes of each slot only with 64-bit integers
                slots = np.full(3, -1, dtype=np.int64)
                ilaver.argtypes, ilaver.restype = [ctypes.c_void_p] * 3, None
                ilaver(*(slots.ctypes.data + 8 * k for k in range(3)))
                dgbsv = getattr(lib, name)
                dgbsv.argtypes, dgbsv.restype = [ctypes.c_void_p] * 10, None
                return (dgbsv, 8 if np.all((slots >= 0) & (slots < 2**31)) else 4,
                        path, name)
    raise ImportError(f"no dgbsv and ilaver in numpy's LAPACK: looked for "
                      f"{', '.join(names)} in {', '.join(libs)}")


_SOLVERS = threading.local()  # each thread's band solvers, by layout


def _band_solver(n: int, r: int, species: int, offsets: tuple[int, ...]):
    """This thread's solver of the Newton systems of r stage rows, ``species``
    species and n cells: solve(coupling, jac, rhs) is y with (I + sum_q
    coupling[q] (x) J(g_i)) y = rhs, by dgbsv on ``_layout``'s band storage,
    with the other arrays' addresses taken once.  dgbsv runs without the GIL,
    so each thread has its own; LinAlgError on a zero pivot."""
    solve = vars(_SOLVERS).get((n, r, species, offsets))
    if solve:
        return solve
    kl, ku, scatter, order, rank = _layout(n, r * species, offsets)
    dgbsv, width = _band_lapack()[:2]
    size, ldab = order.size, 2 * kl + ku + 1
    ints = np.zeros(7 + size, f"i{width}")  # N, KL, KU, NRHS, LDAB, LDB, INFO, pivots
    ints[:6] = size, kl, ku, 1, ldab, size
    b = np.empty(size)
    at = range(ints.ctypes.data, ints.ctypes.data + 8 * width, width)
    args = [*at[:4], None, at[4], at[7], b.ctypes.data, at[5], at[6]]
    # the bands, then I: bincount adds each slot's band entries, then its 1, into
    # the Fortran (ldab, size) band storage
    scatter = np.concatenate([scatter, np.arange(size) * ldab + kl + ku])
    weights = np.ones(scatter.size)
    # block (k, s) x (l, t) of the (r*species)^2 cyclic band blocks
    bands = weights[:-size].reshape(r, species, r, species, len(offsets), n)

    def solve(coupling, jac, rhs: np.ndarray) -> np.ndarray:
        np.add.reduce(coupling * jac[:, None, :, None], axis=0, out=bands)
        ab = np.bincount(scatter, weights=weights, minlength=size * ldab)
        args[4] = ctypes.addressof(ctypes.c_char.from_buffer(ab))
        rhs.take(order, out=b, mode="clip")  # order is a permutation
        dgbsv(*args)
        info = ints.item(6)
        if info > 0:
            raise np.linalg.LinAlgError(f"zero pivot in row {info - 1} of the band LU")
        if info < 0:  # an illegal argument is a bug: no StepError, which sweeps catch
            raise RuntimeError(f"dgbsv rejected argument {-info} (info {info})")
        return b[rank]

    vars(_SOLVERS)[n, r, species, offsets] = solve
    return solve


def _step(problem: Problem, scheme: Scheme, x: np.ndarray, tau: float,
          cfg: NewtonConfig, backward: bool = False,
          w_init: np.ndarray | None = None, base: _Linearization | None = None):
    """Solve the stage relation from the known endpoint x by plain Newton.

    Forward, x = u_old and the result is u_new; backward, x = u_new and
    the result is u_old.  Newton starts at W = -tau (B 1) A[x], the tau -> 0
    limit of the relation (stages x - tau c_i A[x] forward, x + tau (1 - c_i)
    A[x] backward; the root W = 0 at tau = 0), or at ``w_init``, a W from a
    neighbouring solve, which lets sweeps continue along a solution branch
    instead of restarting; ``base``, the ``_Linearization`` of x, lets them
    evaluate A[x] and its floor scale once for all their solves.  Returns (the other
    endpoint, the residual max-norm of each Newton iterate, W).

    Newton stops when the residual is at most ``cfg.tol`` or at its
    rounding floor 8 eps max(|W| + tau |B| mag(g)); a non-finite residual or
    endpoint fails at once.  The floor is read once convergence stops
    speeding up, after an iteration that cut the residual r by less than half
    or with r_k/r_{k-1} >= r_{k-1}/r_{k-2}, and at the last iterate, so a
    quadratically converging solve never pays for it.  It reads the bands of
    the last factored Newton matrix, so an iterate that stops builds no J:
    there is one A and one J evaluation per iterate for all moving stages.
    """
    rel = _relation(scheme.tableau, backward)
    s, r = rel.C.shape
    m, tau_b = rel.moving, tau * rel.B
    base = base or _Linearization(problem, x)
    ag = np.tile(base.a, (s, 1))  # A[g_i]; the rows of fixed stages stay A[x]
    w = (-tau * rel.B.sum(axis=1))[:, None] * base.a if w_init is None else w_init
    norms: list[float] = []
    coupling = tau * rel.coupling[:, :, None, :, None, None, None]
    # (a closed-form relation, r = 0, solves no Newton system)
    solve = r and _band_solver(problem.grid.n, r, problem.species, problem.offsets)
    for it in range(cfg.max_iter + 1):
        g = rel.C @ w
        g += x
        if r:  # a closed-form relation (r = 0) calls no kernel
            ag[m] = problem.apply_flat(g[m])
        res = tau_b @ ag
        res += w
        norms.append(float(np.max(np.abs(res), initial=0.0)))
        if norms[-1] <= cfg.tol:
            break
        if not np.isfinite(norms[-1]):
            raise StepError(f"residual {norms[-1]} at Newton iteration {it}",
                            norms[-1], it)
        slowing = it > 0 and (norms[-1] > 0.5 * norms[-2] or it > 1 and
                              norms[-1] / norms[-2] >= norms[-2] / norms[-3])
        if slowing or it == cfg.max_iter:  # it > 0: jac is the last factored J
            mag = (np.tile(base.mag, (s, 1)) if len(rel.coupling) < s  # some stage fixed
                   else np.empty_like(ag))
            mag[m] = _magnitude(problem, jac, g[m], ag[m])
            floor = _FLOOR * float(np.max(np.abs(w) + tau * (np.abs(rel.B) @ mag)))
            if norms[-1] <= floor:
                break
        if it == cfg.max_iter:
            raise StepError(f"Newton stalled at residual {norms[-1]:.3e} after "
                            f"{cfg.max_iter} iterations (tol {cfg.tol:.1e}, "
                            f"rounding floor {floor:.1e})", norms[-1], cfg.max_iter)
        jac = problem.jacobian_flat(g[m])
        try:
            update = solve(coupling, jac, res.reshape(-1))
        except np.linalg.LinAlgError as err:
            raise StepError(f"singular Newton matrix at iteration {it} "
                            f"(residual {norms[-1]:.3e}): {err}", norms[-1], it) from err
        w = w - update.reshape(r, -1)
    b = scheme.tableau.b
    other = x + (tau if backward else -tau) * (b[:, None] * ag).sum(axis=0)
    if not np.all(np.isfinite(other)):
        raise StepError("the step produced non-finite values (overflow or blow-up)",
                        float("inf"), len(norms) - 1)
    return other, norms, w


def backward_solve(problem: Problem, scheme: Scheme, u: StateField, tau: float,
                   cfg: NewtonConfig | None = None) -> StateField:
    """Recover the previous state v(tau) that steps forward onto u.

    v(0) = u exactly; for small tau the solution follows the expansion
    v(tau) = u + tau*A[u] + (tau^2/2) * c_rk * DA[u](A[u]) + O(tau^3).
    Newton starts at v = u + tau*A[u] (``_step``), the root v = u at tau = 0.
    """
    _require_real("tau", tau, 0.0, closed=True)
    problem._check_state(u)
    v, _, _ = _step(problem, scheme, u.flat, tau, cfg or NewtonConfig(), backward=True)
    return StateField.from_flat(v, problem.species)


def step_count(tau: float, t_end: float) -> int:
    """Steps of size tau that ``run`` takes to reach t_end: ceil(t_end/tau),
    less 1e-12 so that a quotient rounded just above an integer adds none."""
    _require_real("tau", tau, 0.0)
    _require_real("t_end", t_end, tau, closed=True)  # at least one step
    _require_real("t_end / tau", t_end / tau)  # overflows for a tiny tau
    return int(np.ceil(t_end / tau - 1e-12))


def run(problem: Problem, scheme: Scheme, u0: StateField, tau: float, t_end: float,
        cfg: NewtonConfig | None = None) -> Trajectory:
    """Advance step_count(tau, t_end) steps from t = 0, keeping every state.

    A failed Newton solve (StepError) or an iterate outside the problem's
    domain (DomainError) is re-raised with the same type, its message
    prefixed by the step index and time.
    """
    n_steps = step_count(tau, t_end)
    cfg = cfg or NewtonConfig()
    problem._check_state(u0)
    states = [u0.copy()]
    iters: list[int] = []
    x = u0.flat
    for k in range(n_steps):
        where = f"step {k + 1} (t={k * tau:.6g} -> {(k + 1) * tau:.6g}) failed"
        try:
            x, norms, _ = _step(problem, scheme, x, tau, cfg)
        except StepError as err:
            raise StepError(f"{where}: {err}", err.residual, err.iterations) from err
        except DomainError as err:
            raise DomainError(f"{where}: {err}") from err
        iters.append(len(norms) - 1)
        states.append(StateField.from_flat(x, problem.species))
    return Trajectory(times=np.arange(n_steps + 1) * tau, states=states,
                      newton_iters=iters)
