"""Runge-Kutta scheme descriptions and the structural dissipation constant.

Every scheme is a Butcher tableau, the composite Simpson rule included:
its middle stage is exactly (u_old + u_new)/2, which makes it the
rank-one, stiffly accurate tableau

    a = [[0, 0, 0], [1/12, 1/3, 1/12], [1/6, 2/3, 1/6]],
    b = [1/6, 2/3, 1/6],  c = [0, 1/2, 1].

Every scheme carries the constant

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
    """Immutable Runge-Kutta coefficient arrays (a_ij, b_i, c_i).

    Consistency requires sum_j a[i, j] == c[i] for every stage i and
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

    @property
    def s(self) -> int:
        return self.b.size

    def validate(self) -> list[str]:
        """Return a list of violated-sum descriptions, empty when consistent."""
        violations = []
        row = self.a.sum(axis=1)
        for i in range(self.s):
            if abs(row[i] - self.c[i]) > CONSISTENCY_TOL:
                violations.append(
                    f"row {i + 1}: sum(a)={float(row[i])!r} != c={float(self.c[i])!r}"
                )
        bsum = float(self.b.sum())
        if abs(bsum - 1.0) > CONSISTENCY_TOL:
            violations.append(f"sum(b)={bsum!r} != 1")
        return violations

    def __repr__(self):
        return f"ButcherTableau(s={self.s}, b={self.b.tolist()}, c={self.c.tolist()})"


def c_rk(tableau: ButcherTableau) -> float:
    """Structural constant 2 * sum_i b_i (1 - c_i) of a consistent tableau."""
    violations = tableau.validate()
    if violations:
        raise TableauError("inconsistent tableau: " + "; ".join(violations))
    return 2.0 * float(np.dot(tableau.b, 1.0 - tableau.c))


SIMPSON = ButcherTableau(
    a=[[0.0, 0.0, 0.0], [1 / 12, 1 / 3, 1 / 12], [1 / 6, 2 / 3, 1 / 6]],
    b=[1 / 6, 2 / 3, 1 / 6],
    c=[0.0, 0.5, 1.0],
)


@dataclass(frozen=True)
class Scheme:
    """A named time-stepping scheme: a tableau and its constant c_rk."""

    name: str
    tableau: ButcherTableau
    c_rk_effective: float

    @property
    def is_composite_simpson(self) -> bool:
        """True when the tableau is the composite Simpson tableau."""
        t = self.tableau
        return all(np.array_equal(x, y) for x, y in (
            (t.a, SIMPSON.a), (t.b, SIMPSON.b), (t.c, SIMPSON.c)))

    @staticmethod
    def from_tableau(name: str, tableau: ButcherTableau) -> "Scheme":
        return Scheme(name=name, tableau=tableau, c_rk_effective=c_rk(tableau))


def _builtin_schemes() -> dict[str, Scheme]:
    explicit_euler = ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])
    implicit_euler = ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0])
    trapezoidal = ButcherTableau(
        a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5], c=[0.0, 1.0]
    )
    return {
        "explicit_euler": Scheme.from_tableau("explicit_euler", explicit_euler),
        "implicit_euler": Scheme.from_tableau("implicit_euler", implicit_euler),
        "trapezoidal": Scheme.from_tableau("trapezoidal", trapezoidal),
        "simpson": Scheme.from_tableau("simpson", SIMPSON),
    }


_REGISTRY: dict[str, Scheme] = _builtin_schemes()


def registry() -> dict[str, Scheme]:
    """All named schemes: the four built-ins plus user registrations."""
    return dict(_REGISTRY)


def register(name: str, tableau: ButcherTableau) -> Scheme:
    """Register a user tableau under ``name`` and return its Scheme."""
    scheme = Scheme.from_tableau(name, tableau)
    _REGISTRY[name] = scheme
    return scheme


def get_scheme(name: str) -> Scheme:
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scheme {name!r}; known schemes: {valid}") from None
