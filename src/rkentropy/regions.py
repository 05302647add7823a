"""Admissibility regions and polynomial nonnegativity checks.

The dissipation analysis of the power-law diffusion families reduces to
deciding whether certain polynomials in derivative variables admit
integration-by-parts multipliers making them pointwise nonnegative.  This
module decides those questions numerically:

* closed-form strips in one space dimension,
* region membership for d >= 2 and the first-order-entropy region in
  closed form: exact quadratic fits locate one witness per point,
* the scalar-diffusion condition triple of the power-law family in closed form,
* the fourth-order (log-diffusion) multiplier chain in exact rational
  arithmetic.

A point is a member iff ``certify_r0`` / ``certify_r1`` accept its
witness: at a fixed multiplier the polynomial is a quadratic form in
monomials of the derivative variables, and one rational LDL^T of its Gram
matrix (``fractions.Fraction``, into which floats convert exactly)
decides positive semidefiniteness with no tolerance.  The float witness
search maximizes the determinant of the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import _csv, _require_count, _require_real


@dataclass(frozen=True)
class RegionQuery:
    """Point query for the power-law entropy/diffusion exponent plane."""

    alpha: float
    beta: float
    d: int = 1
    c_rk: float = 1.0

    def __post_init__(self):
        _require_real("alpha", self.alpha, 0.0)
        _require_real("beta", self.beta, 0.0)
        _require_count("d", self.d, 1)
        if self.c_rk not in (0.0, 1.0, 2.0):
            raise ValueError("c_rk must be one of 0, 1, 2")


@dataclass(frozen=True)
class Witness:
    """Multiplier choice certifying a membership decision: (c1, c2) for the
    zeroth-order region, (c1, c2, c3) for the first-order one."""

    c1: float
    c2: float
    c3: float | None = None


@dataclass
class RegionMask:
    """Boolean membership over an (alpha, beta) grid with witnesses."""

    alphas: np.ndarray
    betas: np.ndarray
    member: np.ndarray  # shape (len(alphas), len(betas))
    witnesses: dict[tuple[int, int], Witness]

    def to_csv(self) -> str:
        rows, blank = [], Witness(None, None)  # only members have a witness
        for i, a in enumerate(self.alphas):
            for j, b in enumerate(self.betas):
                w = self.witnesses.get((i, j), blank)
                rows.append((a, b, self.member[i, j], w.c1, w.c2, w.c3))
        return _csv(("alpha", "beta", "member", "witness_c1", "witness_c2",
                     "witness_c3"), rows)


# ---------------------------------------------------------------------------
# zeroth-order region, d = 1: closed-form strips
# ---------------------------------------------------------------------------

def r0_1d(q: RegionQuery) -> bool:
    """Closed-form admissibility in one space dimension (strict strips).

    Implicit Euler (c_rk = 0) admits every (alpha, beta) > 0; order >= 2
    (c_rk = 1) needs -2 < alpha - beta < 1; explicit Euler (c_rk = 2)
    needs -1 < alpha - beta < 1.
    """
    if q.d != 1:
        raise ValueError("r0_1d is the one-dimensional closed form; use "
                         "r0_membership for d >= 2")
    z = q.alpha - q.beta
    if q.c_rk == 0.0:
        return True
    lo = -(q.c_rk + 1.0) / (2.0 * q.c_rk - 1.0)
    return lo < z < 1.0


def r0_strip_discriminant(alpha: float, beta: float, c_rk: float) -> float:
    """Independent decision path for the 1D strips.

    Nonnegativity of the quartic a1 y^2 + a2 y + a3 (y the curvature to
    gradient-squared ratio) for some multiplier c2 reduces to a quadratic
    in c2 with a real solution iff this discriminant is nonnegative:

        ((c_rk - 2) z + 2 (c_rk + 1))^2 - 9 c_rk^2 z^2,   z = alpha - beta.

    Positive strictly inside the strips, zero on their boundary.  alpha
    and beta must be positive and finite, as in a ``RegionQuery``, and
    c_rk finite.
    """
    _require_real("alpha", alpha, 0.0)
    _require_real("beta", beta, 0.0)
    _require_real("c_rk", c_rk)
    z = alpha - beta
    return ((c_rk - 2.0) * z + 2.0 * (c_rk + 1.0)) ** 2 - 9.0 * c_rk**2 * z**2


# ---------------------------------------------------------------------------
# zeroth-order region, d >= 2
# ---------------------------------------------------------------------------

def r0_poly_coeffs(alpha, beta, d, c_rk, c1, c2):
    """Coefficients (b1..b6) of the dimension-reduced derivative polynomial

        Q(eta) = b1 eta_L^2 + b2 eta_L eta_G^2 + b3 eta_G^4
                 + b4 eta_S eta_G^2 + b5 eta_R^2 + b6 eta_S^2

    for multiplier choice (c1, c2).
    """
    b1 = (c_rk + 1) + (1 - 1 / d) * c1
    b2 = ((c_rk + 2) * (beta - alpha)
          + (1 - 1 / d) * (2 * beta - alpha - 1) * c1
          - (2 / d + 1) * c2)
    b3 = (beta - alpha) ** 2 - (2 * beta - 2 * alpha - 1) * c2
    b4 = -(d - 1) * ((2 * beta - alpha - 1) * c1 + 2 * c2)
    b5 = -c1
    b6 = -d * (d - 1) * c1
    return b1, b2, b3, b4, b5, b6


def _r0_gram(alpha, beta, d, c_rk, c1, c2):
    """Gram matrix of Q in the monomials (eta_L, eta_G^2, eta_S, eta_R)."""
    b1, b2, b3, b4, b5, b6 = r0_poly_coeffs(alpha, beta, d, c_rk, c1, c2)
    return [[b1, b2 / 2, 0, 0], [b2 / 2, b3, b4 / 2, 0],
            [0, b4 / 2, b6, 0], [0, 0, 0, b5]]


def _det4(g):
    """Four times the determinant of the leading 3x3 block of ``g``."""
    return (4 * g[0][0] * g[2][2] * g[1][1] - 4 * g[2][2] * g[0][1] ** 2
            - 4 * g[0][0] * g[1][2] ** 2 - 4 * g[1][1] * g[0][2] ** 2
            + 8 * g[0][1] * g[0][2] * g[1][2])


def _quadratic(f, mid=0, h=1):
    """Coefficients (a, b, c) of a x^2 + b x + c through f at mid - h, mid
    and mid + h: exact for a quadratic f in exact arithmetic."""
    f_m, f_0, f_p = f(mid - h), f(mid), f(mid + h)
    a = ((f_p + f_m) / 2 - f_0) / (h * h)
    b = (f_p - f_m) / (2 * h) - 2 * a * mid
    return a, b, f_0 - (a * mid + b) * mid


def _best_point(inner, window):
    """Multipliers (t, s) with inner(t, s) >= 0 up to rounding in the window()
    (lo, hi), or None, also where a float ** in window or inner overflows.

    inner opens downward in s, so s is its vertex, >= 0 iff the
    discriminant in s is.  That vanishes at each finite end of (lo, hi);
    divided by the distances to them it is a quadratic p(t), of one sign
    between consecutive ends and real roots.  t is the best of p's vertex
    and those pieces' midpoints, except ones rounding onto an end or on a
    half-line (where p opens downward in every use).
    """
    def fit(t):
        return _quadratic(lambda s: inner(t, s))

    def reduced(t):
        a, b, c = fit(t)
        ends = (t - lo) * (hi - t) if hi < math.inf else t - lo
        return (b * b - 4.0 * a * c) / ends

    try:
        lo, hi = window()
        span = hi - lo if hi < math.inf else 4.0
        a, b, c = _quadratic(reduced, lo + span / 2, span / 4)
        # the stable root pair r / a, c / r, also for a = 0; without real
        # roots p has one sign throughout, so the two spurious cuts do no harm
        r = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        roots = [x / y for x, y in ((r, a), (c, r)) if y]
        cuts = sorted(x for x in (lo, hi, *roots) if lo <= x <= hi)
        points = [(x + y) / 2.0 for x, y in zip(cuts, cuts[1:])]
        points += [-b / (2.0 * a)] if a else []
        inside = [((a * x + b) * x + c, x) for x in points if lo < x < hi]
        value, t = max(inside, default=(-math.inf, None))
        if not value >= 0.0:  # also NaN, from overflowing coefficients
            return None
        a, b, _ = fit(t)
    except OverflowError:
        return None
    return (t, -b / (2.0 * a)) if a else None  # a rounded to 0: no vertex


def r0_membership(q: RegionQuery) -> tuple[bool, Witness | None]:
    """Membership for d >= 2: a member iff ``certify_r0`` accepts the witness.

    Implicit Euler (c_rk = 0) takes c1 = c2 = 0, where Q is the square
    (eta_L + (beta - alpha) eta_G^2)^2.  Otherwise c1 = -lambda (c_rk + 1)
    / (1 - 1/d), lambda in (0, 1), and the search maximizes R = 4 b1 b6 b3 -
    b6 b2^2 - b1 b4^2 = ``_det4`` of the Gram matrix, which with b1, b6 > 0
    has the sign of Q's completed-square remainder.  R opens downward in c2
    (coefficient -b6 (2/d + 1)^2 - 4 b1 (d - 1)^2), and its discriminant in
    c2 is K lambda (lambda - 1) q(lambda) with K > 0 and q quadratic.  On
    the diagonal alpha = beta, where the search finds none, lambda = 0 may.
    """
    if q.d < 2:
        raise ValueError("r0_membership needs d >= 2; use r0_1d for d = 1")
    if q.c_rk == 0.0:
        return True, Witness(c1=0.0, c2=0.0)

    k = (q.c_rk + 1.0) / (1.0 - 1.0 / q.d)  # c1 = -k lambda
    best = _best_point(lambda lam, c2: _det4(_r0_gram(
        q.alpha, q.beta, q.d, q.c_rk, -k * lam, c2)), lambda: (0.0, 1.0))
    if best is not None:
        w = Witness(c1=-k * best[0], c2=best[1])
        if certify_r0(q, w) >= 0.0:
            return True, w
    if q.alpha == q.beta:  # c1 = c2 = 0: Gram determinant -c_rk^2 (beta - alpha)^2 / 4
        w = Witness(c1=0.0, c2=0.0)
        if certify_r0(q, w) >= 0.0:
            return True, w
    return False, None


def certify_r0(q: RegionQuery, w: Witness) -> float:
    """Exact certificate that Q(eta) >= 0 everywhere at the witness: the
    ``_psd_margin`` (>= 0, or -1.0 if not positive semidefinite) of Q's
    Gram matrix, built in Fraction from the exact values of the inputs."""
    return _psd_margin(_r0_gram(*(_exact(name, getattr(q, name))
                                  for name in ("alpha", "beta", "d", "c_rk")),
                                _exact("c1", w.c1), _exact("c2", w.c2)))


# ---------------------------------------------------------------------------
# first-order region (order >= 2 schemes, one space dimension)
# ---------------------------------------------------------------------------

def _r1_a_coeffs(alpha, beta):
    a1 = (beta - 1) * (2 * alpha**2 * beta - 3 * alpha**2 + 2 * alpha * beta**2
                       - 16 * alpha * beta + 19 * alpha + 2 * beta**3
                       - 14 * beta**2 + 40 * beta - 34)
    a2 = (beta - 1) * (4 * alpha**2 + 15 * alpha * beta - 41 * alpha
                       + 12 * beta**2 - 66 * beta + 90)
    a3 = alpha**2 + 2 * alpha * beta - 7 * alpha + 8 * beta**2 - 26 * beta + 24
    a4 = 2 * (beta - 1) * (10 * alpha + 9 * beta - 29)
    a5 = 6 * alpha + 20 * beta - 32
    a6 = 2 - alpha
    a7 = 4
    return a1, a2, a3, a4, a5, a6, a7


def r1_c2_lower_bound(alpha: float, beta: float) -> float:
    """Threshold c2* above which the (x, y) quadratic part can be definite."""
    return (6 * alpha**2 - 4 * alpha * beta - 18 * alpha + 14 * beta**2
            - 20 * beta + 26) / 6


def r1_poly_coeffs(alpha, beta, c2, c3):
    """Coefficients (b1..b7) of the first-order derivative polynomial

        P(xi) = b1 xi1^6 + b2 xi1^4 xi2 + b3 xi1^3 xi3 + b4 xi1^2 xi2^2
                + b5 xi1 xi2 xi3 + b6 xi2^3 + b7 xi3^2

    at c_rk = 1, with the cubic term eliminated by fixing c1 = -(2 - alpha).
    """
    a1, a2, a3, a4, a5, a6, a7 = _r1_a_coeffs(alpha, beta)
    c1 = -a6
    b1 = a1 + (alpha + 2 * beta - 7) * c3
    b2 = a2 + (alpha + 2 * beta - 6) * c2 + 5 * c3
    b3 = a3 + c2
    b4 = a4 + (alpha + 2 * beta - 5) * c1 + 3 * c2
    b5 = a5 + 2 * c1
    b6 = a6 + c1  # zero by construction
    b7 = a7
    return b1, b2, b3, b4, b5, b6, b7


def _r1_gram(alpha, beta, c2, c3):
    """Gram matrix of P (b6 = 0) in the monomials (xi1^3, xi1 xi2, xi3)."""
    b1, b2, b3, b4, b5, _, b7 = r1_poly_coeffs(alpha, beta, c2, c3)
    return [[b1, b2 / 2, b3 / 2], [b2 / 2, b4, b5 / 2], [b3 / 2, b5 / 2, b7]]


def r1_membership(alpha: float, beta: float) -> tuple[bool, Witness | None]:
    """First-order region (order >= 2, 1D): a member iff ``certify_r1``
    accepts the witness.

    Gate: the first-derivative dissipation direction needs
    -2 <= alpha - 2 beta <= 1; outside it the point is rejected outright.
    The search maximizes E = ``_det4`` of the Gram matrix.  For c2 > c2*
    the quadratic part is definite, E opens downward in c3 (coefficient
    -100), and its peak over c3 is -3 (c2 - c2*) g(c2) / 25, g quadratic.
    """
    _require_real("alpha", alpha, 0.0)
    _require_real("beta", beta, 0.0)
    if not (-2.0 <= alpha - 2.0 * beta <= 1.0):
        return False, None
    best = _best_point(lambda c2, c3: _det4(_r1_gram(alpha, beta, c2, c3)),
                       lambda: (r1_c2_lower_bound(alpha, beta), math.inf))
    if best is None:
        return False, None
    w = Witness(c1=-(2.0 - alpha), c2=best[0], c3=best[1])
    return (True, w) if certify_r1(alpha, beta, w) >= 0.0 else (False, None)


def certify_r1(alpha: float, beta: float, w: Witness) -> float:
    """Exact certificate that P(xi) >= 0 everywhere at the witness, scored
    like ``certify_r0``.  It reads c2 and c3 only: c1 is fixed at -(2 - alpha)."""
    return _psd_margin(_r1_gram(_exact("alpha", alpha, 0.0), _exact("beta", beta, 0.0),
                                _exact("c2", w.c2), _exact("c3", w.c3)))


# ---------------------------------------------------------------------------
# exact positive-semidefiniteness and the quadratic-form lemma
# ---------------------------------------------------------------------------

def _psd_margin(m) -> float:
    """Exact LDL^T of the symmetric rational matrix ``m``: the smallest
    pivot over the largest |entry| (>= 0) if ``m`` is positive semidefinite
    (a zero pivot needs a zero rest of its row), else -1.0.  Fraction-free:
    ``m`` is scaled to integers, and each Schur complement is kept
    multiplied by the product ``s`` of the pivots before it."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    top = max(abs(x) for row in a for x in row) or 1
    n, s, ratios = len(a), 1, []
    for k in range(n):
        p = a[k][k]
        if p < 0 or (p == 0 and any(a[k][k + 1:])):
            return -1.0
        ratios.append(Fraction(p, s * top))  # pivot k of m over max |entry|
        if p:
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = p * a[i][j] - a[i][k] * a[k][j]
            s *= p
    return float(min(ratios))


def _exact(name: str, x, low: float = -np.inf) -> Fraction:
    """The exact value of an x that is finite and above low (``_require_real``)."""
    _require_real(name, x, low)
    return Fraction(x)


def quad_form_nonneg(A: float, B: float, C: float, D: float, E: float,
                     F: float) -> bool:
    """Decide whether A + B x + C y + D x^2 + E xy + F y^2 >= 0 on R^2.

    Requires finite coefficients and F > 0.  Nonnegative iff the homogenized
    form in (1, x, y), matrix [[A, B/2, C/2], [B/2, D, E/2], [C/2, E/2, F]], is
    positive semidefinite; decided exactly in Fraction by ``_psd_margin``, so
    the verdict has no tolerance and is invariant under positive rescaling.
    """
    A, B, C, D, E, F = (_exact(name, value, 0.0 if name == "F" else -np.inf)
                        for name, value in zip("ABCDEF", (A, B, C, D, E, F)))
    return _psd_margin([[A, B / 2, C / 2], [B / 2, D, E / 2],
                        [C / 2, E / 2, F]]) >= 0


# ---------------------------------------------------------------------------
# scalar-diffusion conditions
# ---------------------------------------------------------------------------

@dataclass
class ConditionRow:
    """Pointwise report for the scalar-diffusion condition triple.

    ``b_alt`` carries the variant of the first condition with the
    (c_rk + 2)/3 prefactor arising in the multiplier derivation; the main
    columns use the (c_rk + 1)/3 form of the stated condition.  Pass flags
    refer to the main columns.
    """

    u: float
    b: float
    b_alt: float
    cond2_residual: float
    cond2_residual_alt: float
    cond3_value: float
    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool


def scalar_conditions(alpha: float, beta: float, u_grid, d: int, c_rk: float
                      ) -> list[ConditionRow]:
    """Evaluate the three admissibility conditions of the power-law family:
    mobility mu(u) = beta u^e with e = beta - alpha, and h''(u) = u^(alpha - 1).

    For each u in the ascending positive grid (whose first point anchors
    the mobility integral):

      cond1:  b(u) = (2/3)(c_rk + 1) * int_{u0}^{u} mu mu' h'' dv  >= 0
      cond2:  (c_rk + 1) h''(u) mu(u)^2 - ((d-1)/d) b(u)           >= 0
      cond3:  (c_rk + 2) mu(u) mu''(u) + (c_rk - 1) mu'(u)^2       <  0

    The integrand is beta^2 e v^(p-1) with p = 2 beta - alpha - 1, so the
    integral is beta^2 e (u^p - u0^p) / p, or beta^2 e log(u / u0) at p = 0;
    a row whose powers overflow is a ValueError that names its u.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    _require_count("d", d, 1)
    _require_real("c_rk", c_rk)
    _require_real("alpha", alpha)
    _require_real("beta", beta, 0.0)
    if (u_grid.size < 1 or not np.all(np.isfinite(u_grid))
            or np.any(u_grid <= 0) or np.any(np.diff(u_grid) <= 0)):
        raise ValueError("u_grid must be finite, > 0 and strictly ascending")

    e, p = beta - alpha, 2.0 * beta - alpha - 1.0
    rows = []
    with np.errstate(all="ignore"):  # a row that overflows is rejected below
        log_ratio = np.log1p((u_grid - u_grid[0]) / u_grid[0])
        # (u^p - u0^p) / p = w^p (-expm1(-|p| log(u/u0))) / |p| with w^p the
        # larger power, so no factor overflows unless the integral does; + 0.0
        # makes the anchor's -0.0 (e < 0) a 0.0
        acc = beta**2 * e * (log_ratio if p == 0.0 else
                             (u_grid if p > 0.0 else u_grid[0]) ** p
                             * -np.expm1(-abs(p) * log_ratio) / abs(p)) + 0.0
        for u, acc_u in zip(u_grid, acc):
            mu, dmu = beta * u**e, beta * e * u ** (e - 1.0)
            d2mu, hpp = beta * e * (e - 1.0) * u ** (e - 2.0), u ** (alpha - 1.0)
            b_main = (2.0 / 3.0) * (c_rk + 1.0) * acc_u
            b_alt = (2.0 / 3.0) * (c_rk + 2.0) * acc_u
            lead = (c_rk + 1.0) * hpp * mu ** 2
            res2 = lead - (d - 1.0) / d * b_main
            res2_alt = lead - (d - 1.0) / d * b_alt
            c3v = (c_rk + 2.0) * mu * d2mu + (c_rk - 1.0) * dmu ** 2
            values = [float(v) for v in (u, b_main, b_alt, res2, res2_alt, c3v)]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"the conditions at u = {values[0]!r} are not "
                                 "finite: the powers of u overflow")
            rows.append(ConditionRow(*values, b_main >= 0.0, res2 >= 0.0, c3v < 0.0))
    return rows


# ---------------------------------------------------------------------------
# fourth-order (log-diffusion) multiplier chain
# ---------------------------------------------------------------------------

@dataclass
class DlssChainReport:
    """All intermediate coefficients of the fourth-order multiplier chain.

    Every value is a Fraction: the inputs convert exactly, floats included.
    ``p`` is the final residual coefficient b1 - b2^2 b12 / b7^2 whose
    positivity closes the dissipation argument.
    """

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    c5: Fraction
    c6: Fraction
    c7: Fraction
    c8: Fraction
    a: tuple
    b1: Fraction
    b2: Fraction
    b4: Fraction
    b7: Fraction
    b12: Fraction
    p: Fraction


# coefficient of c1 in the elimination of the mixed quartic term
_C1_CUBIC = (
    Fraction(449307, 175),
    Fraction(741681, 2150),
    Fraction(35780649411, 2393160700),
    Fraction(34135130165539, 163091166664200),
)


def dlss_c1_of_c3(c3):
    """Multiplier c1 closing the two-square decomposition, as a cubic in c3
    (valid at the optimal c8 = 17/172)."""
    c3 = _exact("c3", c3)
    p3, p2, p1, p0 = _C1_CUBIC
    return p3 * c3**3 + p2 * c3**2 + p1 * c3 + p0


def dlss_chain(c3, c8) -> DlssChainReport:
    """Run the full multiplier chain of the fourth-order operator.

    Eliminations fix c6, c5, c7, c4, c2 as polynomials in (c3, c8); c1
    comes from the cubic closing the square decomposition; the a and b
    coefficient tables follow, all in exact rational arithmetic: a float
    input is the Fraction of its exact value, and a NaN or infinite one is a
    ValueError that names it.
    """
    c3, c8 = _exact("c3", c3), _exact("c8", c8)
    c6 = -2 * c8
    c5 = 8 * c8**2 - 6 * c8
    c7 = Fraction(-20, 3) * c8**2 + Fraction(8, 3) * c8
    c4 = -2 * c3 - 16 * c8**3 + 16 * c8**2 - 5 * c8
    c2 = c3 - 4 * c3 * c8
    c1 = dlss_c1_of_c3(c3)

    a = (
        4 * c1,                                # a1
        28 * c1 + 4 * c2,                      # a2
        4 * c2 + 4 * c3,                       # a3
        2 + 20 * c2 + 4 * c4,                  # a4
        4 * c3,                                # a5
        8 + 16 * c3 + 8 * c4 + 4 * c5,         # a6
        5 + 12 * c4 + 4 * c7,                  # a7
        4 + 4 * c5,                            # a8
        8 + 4 * c5 + 4 * c6,                   # a9
        10 + 8 * c5 + 12 * c7 + 4 * c8,        # a10
        8 + 8 * c6,                            # a11
        3 + 4 * c7,                            # a12
        5 + 4 * c8,                            # a13
        4 * c6 + 8 * c8,                       # a14
        Fraction(2),                           # a15
    )
    a1, a2_, a3_, a4_, a5_, a6_, a7_, a8_, a9_, a10_, a11_, a12_, a13_, a14_, a15_ = a

    b1 = a1 - a5_**2 / (4 * a15_)
    b2 = a2_ - a5_ * a8_ / (2 * a15_)
    b4 = a4_ - a8_**2 / (4 * a15_) - a5_ * a13_ / (2 * a15_)
    b7 = a7_ - a8_ * a13_ / (2 * a15_)
    b12 = a12_ - a13_**2 / (4 * a15_)
    if b7 == 0:
        raise ZeroDivisionError("b7 vanished; the square decomposition degenerates")
    p = b1 - b2**2 * b12 / b7**2
    return DlssChainReport(
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8,
        a=a, b1=b1, b2=b2, b4=b4, b7=b7, b12=b12, p=p,
    )


def dlss_b12(c8):
    """The quartic-term coefficient b12 as a function of c8 alone."""
    return dlss_chain(Fraction(0), c8).b12


def dlss_b12_derivative(c8):
    """Exact derivative of b12 at c8 (b12 is quadratic in c8, so a central
    difference with unit step is exact in rational arithmetic)."""
    c8 = _exact("c8", c8)
    return (dlss_b12(c8 + 1) - dlss_b12(c8 - 1)) / 2


# ---------------------------------------------------------------------------
# mask generation
# ---------------------------------------------------------------------------

def emit_mask(family: str, alpha_range: tuple[float, float],
              beta_range: tuple[float, float], alpha_steps: int,
              beta_steps: int, d: int = 1, c_rk: float = 1.0) -> RegionMask:
    """Evaluate a membership operation over a rectangular grid.

    ``family`` is "pme0" (zeroth-order region: closed-form strips for d = 1,
    ``r0_membership`` for d >= 2) or "pme1" (first-order region, defined
    for d = 1 and c_rk = 1 only).  Deterministic for fixed inputs.
    """
    if family not in ("pme0", "pme1"):
        raise ValueError(f"unknown region family {family!r}")
    if family == "pme1" and (d != 1 or c_rk != 1.0):
        raise ValueError("family pme1 is the region of d = 1 and c_rk = 1")
    _require_count("alpha_steps", alpha_steps, 1)
    _require_count("beta_steps", beta_steps, 1)
    for name, end in zip(("alpha_min", "alpha_max", "beta_min", "beta_max"),
                         (*alpha_range, *beta_range)):
        _require_real(name, end, 0.0)
    alphas = np.linspace(alpha_range[0], alpha_range[1], alpha_steps)
    betas = np.linspace(beta_range[0], beta_range[1], beta_steps)
    member = np.zeros((alpha_steps, beta_steps), dtype=bool)
    witnesses: dict[tuple[int, int], Witness] = {}
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            q = RegionQuery(float(a), float(b), d, c_rk)
            if family == "pme1":
                member[i, j], w = r1_membership(q.alpha, q.beta)
            elif d == 1:
                member[i, j], w = r0_1d(q), None
            else:
                member[i, j], w = r0_membership(q)
            if w is not None:
                witnesses[(i, j)] = w
    return RegionMask(alphas=alphas, betas=betas, member=member,
                      witnesses=witnesses)
