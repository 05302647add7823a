"""Runge-Kutta scheme descriptions and the structural dissipation constant.

Every scheme is a Butcher tableau, the composite Simpson rule included:
its middle stage is exactly (u_old + u_new)/2, which makes it the
rank-one, stiffly accurate tableau

    a = [[0, 0, 0], [1/12, 1/3, 1/12], [1/6, 2/3, 1/6]],
    b = [1/6, 2/3, 1/6],  c = [0, 1/2, 1].

Every scheme carries the constant (``Scheme.c_rk_effective``)

    c_rk = 2 * sum_i b_i * (1 - c_i)

which takes the value 0 for implicit Euler, 1 for any method of order
at least two, and 2 for explicit Euler.  This constant is the only piece
of scheme structure the dissipation diagnostics need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSISTENCY_TOL = 1e-14  # absorbs decimal-literal rounding; entries are rationals in practice


class TableauError(ValueError):
    """Raised when a tableau violates the consistency sums."""


class ButcherTableau:
    """Immutable Runge-Kutta coefficient arrays (a_ij, b_i, c_i), checked
    for consistency when built: sum_j a[i, j] == c[i] for every stage i and
    sum_i b[i] == 1, both within CONSISTENCY_TOL.
    """

    def __init__(self, a, b, c):
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.c = np.array(c, dtype=float)
        s = self.b.size
        if self.a.shape != (s, s) or self.c.shape != (s,) or s < 1:
            raise TableauError(
                f"shape mismatch: a{self.a.shape}, b({self.b.size},), c{self.c.shape}"
            )
        for name, arr in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not np.all(np.isfinite(arr)):
                raise TableauError(f"{name} must be finite, got {arr.tolist()}")
            arr.setflags(write=False)
        row, bsum = self.a.sum(axis=1), float(self.b.sum())
        violations = [f"row {i + 1}: sum(a)={float(row[i])!r} != c={float(self.c[i])!r}"
                      for i in range(s) if abs(row[i] - self.c[i]) > CONSISTENCY_TOL]
        if abs(bsum - 1.0) > CONSISTENCY_TOL:
            violations.append(f"sum(b)={bsum!r} != 1")
        if violations:
            raise TableauError("inconsistent tableau: " + "; ".join(violations))

    @property
    def s(self) -> int:
        return self.b.size

    def __repr__(self):
        return f"ButcherTableau(s={self.s}, b={self.b.tolist()}, c={self.c.tolist()})"


SIMPSON = ButcherTableau(
    a=[[0.0, 0.0, 0.0], [1 / 12, 1 / 3, 1 / 12], [1 / 6, 2 / 3, 1 / 6]],
    b=[1 / 6, 2 / 3, 1 / 6],
    c=[0.0, 0.5, 1.0],
)


@dataclass(frozen=True)
class Scheme:
    """A named time-stepping scheme: a tableau, whose constant c_rk it reads."""

    name: str
    tableau: ButcherTableau

    @property
    def c_rk_effective(self) -> float:
        return 2.0 * float(np.dot(self.tableau.b, 1.0 - self.tableau.c))

    @property
    def is_composite_simpson(self) -> bool:
        """True when the tableau is the composite Simpson tableau."""
        t = self.tableau
        return all(np.array_equal(x, y) for x, y in (
            (t.a, SIMPSON.a), (t.b, SIMPSON.b), (t.c, SIMPSON.c)))


_REGISTRY: dict[str, Scheme] = {scheme.name: scheme for scheme in (
    Scheme("explicit_euler", ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])),
    Scheme("implicit_euler", ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0])),
    Scheme("trapezoidal", ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5],
                                         c=[0.0, 1.0])),
    Scheme("simpson", SIMPSON),
)}


def registry() -> dict[str, Scheme]:
    """The four built-in schemes by name, as a copy; any other tableau runs
    as ``Scheme(name, tableau)``."""
    return dict(_REGISTRY)


def get_scheme(name: str) -> Scheme:
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scheme {name!r}; known schemes: {valid}") from None
