"""Discrete 1D periodic spatial operators for four diffusion families.

Sign convention: the semi-discrete problem is du/dt = -A[u], so A[u] is the
negated right-hand side.  All stencils are second-order central differences
on a uniform periodic grid, and every kernel finds the neighbours (i + k)
mod n of cell i through one gather, ``_cells_at``, whose index table is
built once per stencil and grid.  Every flat kernel takes leading batch axes
of independent states, gathered along the last axis, each row bit for bit as
alone.  The diffusion families are written so that sum_i A[u]_i telescopes
to zero (discrete mass conservation).

Each family provides two kernels, the operator A and its exact Jacobian in
cyclic band form: cell i of species s depends only on the cells
(i + k) mod n, k in ``offsets``, of each species, so ``jacobian_flat``
returns one band of n entries per species pair and offset, O(n) storage.
The directional derivative DA[u](w) is the product of these bands with w,
written once in ``Problem``.  The stepping Newton matrices keep the band
structure, and Newton's rounding-error scale of A is the product of their
absolute values with |u| (see ``stepping``); ``deriv_flat`` on the identity,
one batch row per unit vector, is the transposed dense Jacobian.  Where a
family takes a log or a power of the state (Dlss; PorousMedium), every
kernel first checks the one rule of ``_require_positive`` (``_check_domain``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np


class DomainError(ValueError):
    """State outside a problem's admissible set (e.g. nonpositive cells)."""


def _require_count(name: str, value, least: int):
    """ValueError unless value is an integer (not a bool) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


def _require_real(name: str, value, low: float = -np.inf, closed: bool = False):
    """ValueError unless value is finite and above ``low`` (or equal to it,
    when ``closed``); the message states the bound.  None is not finite."""
    if value is None or not (-np.inf < value < np.inf
                             and (value >= low if closed else value > low)):
        bound = ("finite" if low == -np.inf else
                 f"{'nonnegative' if closed else 'positive'} and finite" if low == 0.0
                 else f"finite and {'at least' if closed else 'above'} {low!r}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _csv(header, rows) -> str:
    """The CSV text of every output: the header row, then one line per row,
    each float in shortest round-trip form, an integer or flag as an integer
    and None as an empty cell, so equal values give byte-identical files."""
    lines = [",".join(header)]  # cells inline: no call per cell in the timed passes
    lines += [",".join([repr(float(x)) if isinstance(x, float)  # numpy's float64 too
                        else "" if x is None
                        else str(int(x)) if isinstance(x, (np.bool_, numbers.Integral))
                        else repr(float(x)) for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic cell grid on [0, length) with nodes x_i = i*dx."""

    n: int
    length: float = 1.0

    def __post_init__(self):
        _require_count("n", self.n, 4)
        _require_real("length", self.length, 0.0)
        # the stencils divide by dx**2, a normal float: no overflow, no underflow
        _require_real(f"dx * dx (length {self.length!r}, n {self.n})", self.dx * self.dx,
                      float(np.finfo(float).tiny), closed=True)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


class StateField:
    """Per-cell solution values, one row per species (shape species x n)."""

    def __init__(self, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.ndim > 2:  # a batch of states is not a state
            raise ValueError(f"state must be species x n, got shape {values.shape}")
        if values.shape[0] not in (1, 2):
            raise ValueError(f"species count must be 1 or 2, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("state contains non-finite entries")
        self.values = values

    @classmethod
    def scalar(cls, values) -> "StateField":
        return cls(np.asarray(values, dtype=float)[None, :])

    @classmethod
    def from_flat(cls, flat: np.ndarray, species: int) -> "StateField":
        return cls(np.asarray(flat, float).reshape(species, -1))

    @property
    def species(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def copy(self) -> "StateField":
        return StateField(self.values.copy())

    def __repr__(self):
        return f"StateField(species={self.species}, n={self.n})"


@cache
def _cells_at(offsets: tuple[int, ...], n: int) -> np.ndarray:
    """Cell (i + offsets[j]) mod n at [j, i], built once per stencil and grid."""
    cells = (np.arange(n) + np.asarray(offsets)[:, None]) % n
    cells.flags.writeable = False
    return cells


def diff1(w: np.ndarray, dx: float) -> np.ndarray:
    """Periodic central first difference (w_{i+1} - w_{i-1}) / (2 dx) along
    the last axis, bit for bit (np.roll(w, -1) - np.roll(w, 1)) / (2.0 * dx)."""
    cells = _cells_at((-1, 0, 1), w.shape[-1])
    return (w.take(cells[2], axis=-1) - w.take(cells[0], axis=-1)) / (2.0 * dx)


def diff2(w: np.ndarray, dx: float) -> np.ndarray:
    """Periodic second difference (w_{i+1} - 2 w_i + w_{i-1}) / dx^2 along the
    last axis, bit for bit (np.roll(w, -1) - 2.0 * w + np.roll(w, 1)) / dx**2."""
    cells = _cells_at((-1, 0, 1), w.shape[-1])
    return (w.take(cells[2], axis=-1) - 2.0 * w + w.take(cells[0], axis=-1)) / dx**2


def _band_matvec(bands: np.ndarray, offsets: tuple[int, ...], w: np.ndarray
                 ) -> np.ndarray:
    """Product of cyclic bands (layout of ``Problem.jacobian_flat``) with
    the flat vector w: entry s*n + i is the sum over t and j of
    bands[s, t, j, i] * w[t*n + (i + offsets[j]) mod n].  Leading axes of
    bands and w, if any, index independent products."""
    blocks, n = bands.shape[-4], bands.shape[-1]
    near = w.reshape(*w.shape[:-1], 1, blocks, n).take(_cells_at(offsets, n), axis=-1)
    # species before offsets: LinearSystem's -mu u_other meets its rounded centre
    # band first, which keeps some (not all) equal constant states exactly steady
    return (bands * near).sum(axis=-3).sum(axis=-2).reshape(w.shape)


class Problem:
    """Base for the equation families; subclasses fill in the flat kernels."""

    species = 1
    offsets: tuple[int, ...] = (-1, 0, 1)  # stencil reach, in cells

    def __init__(self, grid: Grid1D):
        self.grid = grid
        # D2 at the offsets (-1, 0, 1), and cell (i + k) mod n at [k + 1, i]
        self._d2 = np.array([1.0, -2.0, 1.0]) / grid.dx**2
        self._neighbours = _cells_at((-1, 0, 1), grid.n)

    # -- flat kernels ----------------------------------------------------
    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def deriv_flat(self, x: np.ndarray, wx: np.ndarray) -> np.ndarray:
        """DA[x](wx): the product of the Jacobian bands at x with wx."""
        return _band_matvec(self.jacobian_flat(x), self.offsets, wx)

    def jacobian_flat(self, x: np.ndarray) -> np.ndarray:
        """Jacobian bands, shape (..., species, species, len(offsets), n).

        Entry [..., s, t, j, i] is dA_{s,i} / dx_{t,(i + offsets[j]) mod n}.
        """
        raise NotImplementedError

    # -- validation ------------------------------------------------------
    def _check_state(self, u: StateField):
        if u.species != self.species or u.n != self.grid.n:
            raise ValueError(
                f"state shape ({u.species}, {u.n}) does not match problem "
                f"({self.species}, {self.grid.n})"
            )
        self._check_domain(u.flat)

    def _check_domain(self, x: np.ndarray):
        """DomainError for a state the kernels do not accept."""


def _require_positive(x: np.ndarray, what: str, p: float = -1.0):
    """DomainError unless every cell lies in the domain of x**p: x > 0 for a
    p < 0 and for a log (the default), x >= 0 for any other non-integer p, and
    any x for an integer p >= 0.  One reduction, which a NaN cell fails too."""
    if p >= 0.0 and float(p).is_integer():
        return
    low, neg = np.minimum.reduce(x, axis=None), p < 0.0
    if not (low > 0.0 if neg else low >= 0.0):
        bad = int(np.argmin(x > 0.0 if neg else x >= 0.0))  # in the first bad batch row
        raise DomainError(f"{what} requires {'strictly positive' if neg else 'nonnegative'}"
                          f" values; cell {bad % x.shape[-1]} has u={x.flat[bad]:.6g}")


def _power(x: np.ndarray, p: float, k: float = 1.0):
    """An entropy's k * x**p, x checked by ``_require_positive``; k itself if k is 0."""
    if k == 0.0:
        return np.full_like(x, k)
    _require_positive(x, "entropy", p)
    return x**p if k == 1.0 else k * x**p


class PorousMedium(Problem):
    """A[u] = -D2(u^beta), the porous-medium / fast-diffusion operator.

    Every kernel first checks the state against the domain of the mobility's
    power beta - 1 (``_require_positive``), which holds that of beta.
    """

    def __init__(self, grid: Grid1D, beta: float):
        _require_real("beta", beta, 0.0)
        super().__init__(grid)
        self.beta = float(beta)
        self._what = f"porous medium with beta={self.beta}"

    def _check_domain(self, x):
        _require_positive(x, self._what, self.beta - 1.0)

    def apply_flat(self, x):
        self._check_domain(x)
        return -diff2(x**self.beta, self.grid.dx)

    def jacobian_flat(self, x):
        self._check_domain(x)
        mobility = (self.beta * x ** (self.beta - 1.0)).take(self._neighbours, axis=-1)
        return (-self._d2[:, None] * mobility)[..., None, None, :, :]


class ScalarDiffusion(Problem):
    """A[u] = -div(a(u) grad u) in conservative flux form.

    Interface coefficients use the arithmetic mean of the two neighbours,
    which keeps the stencil mass-conservative.  ``a`` and its derivative
    ``da`` are vectorized callables.
    """

    def __init__(self, grid: Grid1D, a, da):
        super().__init__(grid)
        self.a = a
        self.da = da

    def apply_flat(self, x):
        # flux numerator g_i = a((x_i + x_{i+1})/2) * (x_{i+1} - x_i), interface i+1/2
        xp = x.take(self._neighbours[2], axis=-1)
        g = np.asarray(self.a(0.5 * (x + xp))) * (xp - x)
        return -(g - g.take(self._neighbours[0], axis=-1)) / self.grid.dx**2

    def jacobian_flat(self, x):
        xp = x.take(self._neighbours[2], axis=-1)
        mid = 0.5 * (x + xp)
        av = np.asarray(self.a(mid)) * np.ones_like(x)
        pv = 0.5 * np.asarray(self.da(mid)) * (xp - x) * np.ones_like(x)
        pm, am = (v.take(self._neighbours[0], axis=-1) for v in (pv, av))
        dx2 = self.grid.dx**2
        # dA_i/du_{i-1} from flux i-1, dA_i/du_{i+1} from flux i
        bands = np.stack([(pm - am) / dx2,
                          -((pv - av) - (pm + am)) / dx2,
                          -(pv + av) / dx2], axis=-2)
        return bands[..., None, None, :, :]


class LinearSystem(Problem):
    """Two coupled heat equations with symmetric exchange term.

    du1/dt = rho1 * Lap(u1) + mu * (u2 - u1), and symmetrically for u2,
    so A[u]_j = -rho_j * D2(u_j) - mu * (u_other - u_j).  The operator is
    linear, so it is just its constant Jacobian bands: A[u] is their
    product with u, and DA[u](w) = A[w].
    """

    species = 2

    def __init__(self, grid: Grid1D, rho1: float, rho2: float, mu: float):
        for name, value in (("rho1", rho1), ("rho2", rho2), ("mu", mu)):
            _require_real(name, value, 0.0, closed=True)
        super().__init__(grid)
        self.rho1 = float(rho1)
        self.rho2 = float(rho2)
        self.mu = float(mu)
        d2 = self._d2
        eye = np.array([0.0, 1.0, 0.0])
        bands = np.array([[-self.rho1 * d2 + self.mu * eye, -self.mu * eye],
                          [-self.mu * eye, -self.rho2 * d2 + self.mu * eye]])
        self._bands = np.repeat(bands[..., None], grid.n, axis=-1)
        self._bands.flags.writeable = False

    def apply_flat(self, x):
        return _band_matvec(self._bands, self.offsets, x)

    def jacobian_flat(self, x):
        return np.broadcast_to(self._bands, x.shape[:-1] + self._bands.shape)


class Dlss(Problem):
    """Fourth-order quantum diffusion operator A[u] = D2(u * D2(log u)).

    Every kernel rejects a state with a cell that is not strictly positive
    (NaN included) with a DomainError; positivity is a precondition, not
    enforced by regularization, so the entropy identities tested against
    this operator stay exact.
    """

    offsets = (-2, -1, 0, 1, 2)

    def __init__(self, grid: Grid1D):
        super().__init__(grid)
        # d2[p] at [p + 1, q + 1, i], and the flat index of core_q[(i + p) mod n]
        self._weights = np.repeat(self._d2, 3 * grid.n).reshape(3, 3, grid.n)
        self._pairs = np.arange(3)[:, None] * grid.n + self._neighbours[:, None]

    def _check_domain(self, x):
        _require_positive(x, "the fourth-order log-diffusion operator")

    def apply_flat(self, x):
        self._check_domain(x)
        return diff2(x * diff2(np.log(x), self.grid.dx), self.grid.dx)

    def jacobian_flat(self, x):
        # D2 @ core with the tridiagonal core diag(D2 log x) + diag(x) D2
        # diag(1/x): row i of the product picks core row i+p with weight
        # D2[i, i+p], so band p+q collects d2[p] * core_q[i+p].  One gather
        # shifts the core bands by every p; each band adds in the order of p
        self._check_domain(x)
        core = x[..., None, :] * self._weights[:, 0]
        core *= (1.0 / x).take(self._neighbours, axis=-1)
        core[..., 1, :] += diff2(np.log(x), self.grid.dx)
        terms = core.reshape(*x.shape[:-1], -1).take(self._pairs, axis=-1)
        terms *= self._weights
        bands = np.zeros((*x.shape[:-1], 5, self.grid.n))
        for p in range(3):
            band = bands[..., p:p + 3, :]
            band += terms[..., p, :, :]
        return bands[..., None, None, :, :]
