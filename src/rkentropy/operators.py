"""Discrete 1D periodic spatial operators for four diffusion families.

Sign convention: the semi-discrete problem is du/dt = -A[u], so A[u] is
the negated right-hand side.  All stencils are second-order central
differences on a uniform periodic grid; the diffusion families are written
so that sum_i A[u]_i telescopes to zero (discrete mass conservation).

Each problem provides the operator A, its exact directional derivative
DA[u](w), and the exact Jacobian in cyclic band form: cell i of species s
depends only on the cells (i + k) mod n, k in ``offsets``, of each
species, so ``jacobian_flat`` returns one band of n entries per species
pair and offset, O(n) storage.  The stepping Newton matrices keep this
structure (see ``stepping``); ``jacobian`` assembles the dense matrix for
inspection and tests.  ``magnitude_flat`` is the running error scale of
A, from which Newton reads the rounding floor of its residual.  Where a
family has a domain (Dlss; PorousMedium with beta < 1), every kernel checks
it first (``_check_domain``, one reduction that a NaN cell fails too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """State outside a problem's admissible set (e.g. nonpositive cells)."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic cell grid on [0, length) with nodes x_i = i*dx."""

    n: int
    length: float = 1.0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"grid needs n >= 4 cells, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"grid length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


class StateField:
    """Per-cell solution values, one row per species (shape species x n)."""

    def __init__(self, values, species: int | None = None):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if species is not None and values.shape[0] != species:
            raise ValueError(
                f"expected {species} species, got array with {values.shape[0]} rows"
            )
        if values.shape[0] not in (1, 2):
            raise ValueError(f"species count must be 1 or 2, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("state contains non-finite entries")
        self.values = values

    @classmethod
    def scalar(cls, values) -> "StateField":
        return cls(np.asarray(values, dtype=float)[None, :])

    @classmethod
    def pair(cls, u1, u2) -> "StateField":
        return cls(np.stack([np.asarray(u1, float), np.asarray(u2, float)]))

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


def _shift(w: np.ndarray, k: int) -> np.ndarray:
    """w_{(i+k) mod n} for every cell i (np.roll(w, -k) for |k| < n)."""
    return np.concatenate((w[k:], w[:k]))


def diff1(w: np.ndarray, dx: float) -> np.ndarray:
    """Periodic central first difference (w_{i+1} - w_{i-1}) / (2 dx)."""
    return (_shift(w, 1) - _shift(w, -1)) / (2.0 * dx)


def diff2(w: np.ndarray, dx: float) -> np.ndarray:
    """Periodic second difference (w_{i+1} - 2 w_i + w_{i-1}) / dx^2."""
    return (_shift(w, 1) - 2.0 * w + _shift(w, -1)) / dx**2


def _diff2_abs(w: np.ndarray, dx: float) -> np.ndarray:
    """diff2 with every coefficient replaced by its absolute value."""
    return (_shift(w, 1) + 2.0 * w + _shift(w, -1)) / dx**2


def _cells_at(offsets: tuple[int, ...], n: int) -> np.ndarray:
    """Cell (i + offsets[j]) mod n at [j, i]."""
    return (np.arange(n) + np.asarray(offsets)[:, None]) % n


def band_coordinates(blocks: int, offsets: tuple[int, ...], n: int):
    """Dense (row, column) of each entry of a cyclic band array.

    A band array has shape (blocks, blocks, len(offsets), n); its entry
    [s, t, j, i] sits in row s*n + i and column t*n + (i + offsets[j]) mod n.
    On grids with n <= 2*max|offset| two offsets can name the same column;
    such entries add.  Returns two integer arrays of the band array's shape.
    """
    s = np.arange(blocks)[:, None, None, None]
    t = np.arange(blocks)[None, :, None, None]
    return np.broadcast_arrays(s * n + np.arange(n), t * n + _cells_at(offsets, n))


def diff2_matrix(n: int, dx: float) -> np.ndarray:
    """Dense cyclic matrix D2 with diff2(w) == D2 @ w: the dense reference
    that tests compare the Jacobian bands against; stepping never uses it."""
    eye = np.eye(n)
    up = np.roll(eye, 1, axis=1)  # picks w_{i+1}
    dn = np.roll(eye, -1, axis=1)  # picks w_{i-1}
    return (up - 2.0 * eye + dn) / dx**2


class Problem:
    """Base for the equation families; subclasses fill in the flat kernels."""

    species = 1
    offsets: tuple[int, ...] = (-1, 0, 1)  # stencil reach, in cells

    def __init__(self, grid: Grid1D):
        self.grid = grid
        # D2 at the offsets (-1, 0, 1), and cell (i + k) mod n at [k + 1, i]
        self._d2 = np.array([1.0, -2.0, 1.0]) / grid.dx**2
        self._neighbours = _cells_at((-1, 0, 1), grid.n)

    # -- StateField API -------------------------------------------------
    def apply(self, u: StateField) -> StateField:
        """Evaluate A[u] on the same grid."""
        self._check_state(u)
        return StateField.from_flat(self.apply_flat(u.flat), self.species)

    def deriv_apply(self, u: StateField, w: StateField) -> StateField:
        """Exact Jacobian-vector product DA[u](w)."""
        self._check_state(u)
        self._check_shape(w)
        return StateField.from_flat(
            self.deriv_flat(u.flat, w.flat), self.species
        )

    def jacobian(self, u: StateField) -> np.ndarray:
        """Exact Jacobian of apply at u, dense (species*n) x (species*n).

        Assembled from the bands of ``jacobian_flat``.  This is the dense
        reference implementation that tests compare the bands against;
        stepping never uses it.
        """
        self._check_state(u)
        size = self.species * self.grid.n
        rows, cols = band_coordinates(self.species, self.offsets, self.grid.n)
        dense = np.zeros((size, size))
        np.add.at(dense, (rows, cols), self.jacobian_flat(u.flat))
        return dense

    # -- flat kernels (stepping works on these) -------------------------
    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def deriv_flat(self, x: np.ndarray, wx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def magnitude_flat(self, x: np.ndarray) -> np.ndarray:
        """Running error scale of ``apply_flat`` at x, per cell.

        The same stencil evaluated on the absolute values of every
        intermediate term, with each difference turned into a sum, so that
        eps * magnitude_flat(x) bounds the rounding of A[x] to first order
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        section 3.3) where |A[x]| itself shows only what is left after the
        stencil cancels.
        """
        raise NotImplementedError

    def jacobian_flat(self, x: np.ndarray) -> np.ndarray:
        """Jacobian bands, shape (species, species, len(offsets), n).

        Entry [s, t, j, i] is dA_{s,i} / dx_{t,(i + offsets[j]) mod n}.
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

    def _check_shape(self, w: StateField):
        if w.species != self.species or w.n != self.grid.n:
            raise ValueError("direction field shape does not match problem")


def _require_positive(x: np.ndarray, what: str):
    if not np.minimum.reduce(x) > 0.0:  # one reduction; a NaN cell fails it too
        bad = int(np.argmin(x > 0.0))
        raise DomainError(f"{what} requires strictly positive values; "
                          f"cell {bad} has u={x[bad]:.6g}")


class PorousMedium(Problem):
    """A[u] = -D2(u^beta), the porous-medium / fast-diffusion operator.

    Zero cells are admissible for beta >= 1 (u^(beta-1) stays finite);
    for beta < 1 every kernel rejects a nonpositive cell with a
    DomainError before it takes the power, because the mobility blows up.
    """

    def __init__(self, grid: Grid1D, beta: float):
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        super().__init__(grid)
        self.beta = float(beta)

    def _check_domain(self, x):
        if self.beta < 1.0:
            _require_positive(x, f"porous medium with beta={self.beta} < 1")

    def apply_flat(self, x):
        self._check_domain(x)
        return -diff2(x**self.beta, self.grid.dx)

    def deriv_flat(self, x, wx):
        self._check_domain(x)
        return -diff2(self.beta * x ** (self.beta - 1.0) * wx, self.grid.dx)

    def magnitude_flat(self, x):
        self._check_domain(x)
        return _diff2_abs(np.abs(x**self.beta), self.grid.dx)

    def jacobian_flat(self, x):
        self._check_domain(x)
        mobility = self.beta * x ** (self.beta - 1.0)
        return (-self._d2[:, None] * mobility[self._neighbours])[None, None]


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

    def _fluxes(self, x):
        # flux numerator g_i = a((x_i + x_{i+1})/2) * (x_{i+1} - x_i), interface i+1/2
        xp = _shift(x, 1)
        mid = 0.5 * (x + xp)
        return np.asarray(self.a(mid)) * (xp - x), mid, xp

    def apply_flat(self, x):
        g, _, _ = self._fluxes(x)
        return -(g - _shift(g, -1)) / self.grid.dx**2

    def deriv_flat(self, x, wx):
        _, mid, xp = self._fluxes(x)
        wp = _shift(wx, 1)
        dg = np.asarray(self.da(mid)) * 0.5 * (wx + wp) * (xp - x) + np.asarray(
            self.a(mid)
        ) * (wp - wx)
        return -(dg - _shift(dg, -1)) / self.grid.dx**2

    def magnitude_flat(self, x):
        xp = _shift(x, 1)
        g = np.abs(self.a(0.5 * (x + xp))) * (np.abs(x) + np.abs(xp))
        return (g + _shift(g, -1)) / self.grid.dx**2

    def jacobian_flat(self, x):
        n = self.grid.n
        xp = _shift(x, 1)
        mid = 0.5 * (x + xp)
        av = np.asarray(self.a(mid)) * np.ones(n)
        pv = 0.5 * np.asarray(self.da(mid)) * (xp - x) * np.ones(n)
        pm, am = _shift(pv, -1), _shift(av, -1)
        dx2 = self.grid.dx**2
        # dA_i/du_{i-1} from flux i-1, dA_i/du_{i+1} from flux i
        bands = np.stack([(pm - am) / dx2,
                          -((pv - av) - (pm + am)) / dx2,
                          -(pv + av) / dx2])
        return bands[None, None]


class LinearSystem(Problem):
    """Two coupled heat equations with symmetric exchange term.

    du1/dt = rho1 * Lap(u1) + mu * (u2 - u1), and symmetrically for u2,
    so A[u]_j = -rho_j * D2(u_j) - mu * (u_other - u_j).  The operator is
    linear: DA[u](w) = A[w], and its Jacobian bands are constant.
    """

    species = 2

    def __init__(self, grid: Grid1D, rho1: float, rho2: float, mu: float):
        if rho1 < 0 or rho2 < 0 or mu < 0:
            raise ValueError("rho1, rho2, mu must be nonnegative")
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
        n = self.grid.n
        u1, u2 = x[:n], x[n:]
        dx = self.grid.dx
        return np.concatenate(
            [
                -self.rho1 * diff2(u1, dx) - self.mu * (u2 - u1),
                -self.rho2 * diff2(u2, dx) - self.mu * (u1 - u2),
            ]
        )

    def deriv_flat(self, x, wx):
        return self.apply_flat(wx)

    def magnitude_flat(self, x):
        n = self.grid.n
        u1, u2 = np.abs(x[:n]), np.abs(x[n:])
        dx = self.grid.dx
        return np.concatenate([
            self.rho1 * _diff2_abs(u1, dx) + self.mu * (u2 + u1),
            self.rho2 * _diff2_abs(u2, dx) + self.mu * (u1 + u2),
        ])

    def jacobian_flat(self, x):
        return self._bands


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
        dx = self.grid.dx
        return diff2(x * diff2(np.log(x), dx), dx)

    def deriv_flat(self, x, wx):
        self._check_domain(x)
        dx = self.grid.dx
        inner = wx * diff2(np.log(x), dx) + x * diff2(wx / x, dx)
        return diff2(inner, dx)

    def magnitude_flat(self, x):
        # a relative rounding of x moves log x by an absolute eps, so the
        # log term counts |log x| + 1
        self._check_domain(x)
        dx = self.grid.dx
        return _diff2_abs(x * _diff2_abs(np.abs(np.log(x)) + 1.0, dx), dx)

    def jacobian_flat(self, x):
        # D2 @ core with the tridiagonal core diag(D2 log x) + diag(x) D2
        # diag(1/x): row i of the product picks core row i+p with weight
        # D2[i, i+p], so band p+q collects d2[p] * core_q[i+p].  One gather
        # shifts the core bands by every p; each band adds in the order of p
        self._check_domain(x)
        log_x = np.log(x)
        near = log_x[self._neighbours]
        core = x * self._weights[:, 0]
        core *= (1.0 / x)[self._neighbours]
        core[1] += (near[2] - 2.0 * log_x + near[0]) / self.grid.dx**2
        terms = core.take(self._pairs)
        terms *= self._weights
        bands = np.zeros((5, self.grid.n))
        for p, term in enumerate(terms):
            band = bands[p:p + 3]
            band += term
        return bands[None, None]
