"""Admissibility regions and polynomial nonnegativity checks.

The dissipation analysis of the power-law diffusion families reduces to
deciding whether certain polynomials in derivative variables admit
integration-by-parts multipliers making them pointwise nonnegative.  This
module decides those questions exactly:

* closed-form strips in one space dimension,
* region membership for d >= 2 and the first-order-entropy region by the
  sign of one quadratic, in ``fractions.Fraction`` on the exact inputs,
* the scalar-diffusion condition triple of the power-law family in closed form,
* the fourth-order (log-diffusion) multiplier chain in exact rational
  arithmetic.

Every member has a rational witness that ``certify_r0`` / ``certify_r1``
accept: at a fixed multiplier the polynomial is a quadratic form in
monomials of the derivative variables, and one rational LDL^T of its Gram
matrix decides positive semidefiniteness with no tolerance.  The rules
factor that matrix's determinant, so the certificates check them.
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
    """Exact multiplier choice certifying a membership decision: (c1, c2) for
    the zeroth-order region, (c1, c2, c3) for the first-order one."""

    c1: Fraction
    c2: Fraction
    c3: Fraction | None = None


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


def _short_root(k2, k1, k0, lo, hi=math.inf):
    """A rational x in (lo, hi) with f(x) = k2 x^2 + k1 x + k0 <= 0, k2 >= 0,
    or None if there is none.  f's vertex decides if it lies inside; else the
    end e beyond it needs f(e) < 0, and f <= 0 at e stepped inwards by
    -f(e) / (|f'(e)| - f(e) + k2).  x is the multiple of 2^-k nearest that point
    that passes, for the least k < 60, else the point: short x, cheap certificate."""
    def passes(x):
        return lo < x < hi and (k2 * x + k1) * x + k0 <= 0

    if k2 and lo < -k1 / (2 * k2) < hi:
        t = -k1 / (2 * k2)
    else:
        e, s = (lo, 1) if 2 * k2 * lo + k1 >= 0 else (hi, -1)  # hi < inf for both callers
        f_e = (k2 * e + k1) * e + k0
        t = e - s * f_e / (s * (2 * k2 * e + k1) - f_e + k2) if f_e < 0 else None
    if t is None or not passes(t):
        return None
    return next((x for x in (Fraction(round(t * 2**k), 2**k) for k in range(60))
                 if passes(x)), t)


def r0_membership(q: RegionQuery) -> tuple[bool, Witness | None]:
    """Membership for d >= 2, decided exactly; a witness passes ``certify_r0``.

    c_rk = 0 and the diagonal alpha = beta take c1 = c2 = 0, where Q is a
    sum of squares.  Else (a, b, c = alpha, beta, c_rk, exactly) c1 =
    -lambda (c+1) d / (d-1) for lambda in (0, 1) makes b1, b5, b6 > 0, so Q's
    Gram matrix is positive semidefinite iff four times its leading 3 x 3
    minor, R = A2 c2^2 + A1 c2 + A0, is >= 0.  R peaks at c2 = -A1 / (2 A2):

        A2 = (c+1)(3 d (d-4) lambda - 4 (d-1)^2) < 0,
        A1 = -2 d lambda (c+1)[d lambda (c+1)(a + 2b - 1) + (2 - cd) a
             - (cd + 2d - 2c) b - 2 (c+1)].

    Its discriminant in c2 is 4 d^2 (c+1)^2 lambda (lambda - 1) q(lambda), so a
    cell is a member iff q = Q2 l^2 + Q1 l + Q0 is <= 0 somewhere in (0, 1):

        Q2 = (d (c+1)(a + 2b - 1))^2,   Q0 = (2c (d-1) z)^2 > 0,   z = a - b,
        Q1 = -4 d (c+1)[(z-1)((2-d)(z-1) - 2 (d-1) b)
             + c ((d-1) b (z+2) + (z-1)((d-3) z + d - 2))].
    """
    if q.d < 2:
        raise ValueError("r0_membership needs d >= 2; use r0_1d for d = 1")
    if q.c_rk == 0.0 or q.alpha == q.beta:
        return True, Witness(c1=Fraction(0), c2=Fraction(0))
    a, b, d, c = Fraction(q.alpha), Fraction(q.beta), q.d, int(q.c_rk)
    z, root_q2 = a - b, d * (c + 1) * (a + 2 * b - 1)
    lam = _short_root(root_q2**2, -4 * d * (c + 1) * (
        (z - 1) * ((2 - d) * (z - 1) - 2 * (d - 1) * b)
        + c * ((d - 1) * b * (z + 2) + (z - 1) * ((d - 3) * z + d - 2))),
        (2 * c * (d - 1) * z) ** 2, 0, 1)
    if lam is None:
        return False, None
    top = lam * root_q2 + (2 - c * d) * a - (c * d + 2 * d - 2 * c) * b - 2 * (c + 1)
    c2 = d * lam * top / (3 * d * (d - 4) * lam - 4 * (d - 1) ** 2)  # -A1 / (2 A2)
    return True, Witness(c1=-lam * (c + 1) * d / (d - 1), c2=c2)


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
    """First-order region (order >= 2, 1D), decided exactly; a witness passes
    ``certify_r1``.  Gate: the first-derivative dissipation direction needs
    -2 <= alpha - 2 beta <= 1; outside it the point is rejected outright.

    Inside it (a, b = alpha, beta, exactly) the lower 2 x 2 block of P's
    Gram matrix is definite iff c2 > c2*, and there the matrix is positive
    semidefinite iff E = four times its determinant is >= 0.  E peaks over
    c3 (coefficient -100) at -3 (c2 - c2*) g(c2) / 25, where c3 is
    [(12a + 29b - 69) c2 - 2a^3 - 11a^2 b + 45a^2 - 32a b^2 + 91ab - 159a
    + 24b^3 + 46b^2 - 174b + 184] / 50.  So a cell is a member iff
    g = 25 c2^2 + G1 c2 + G0 is <= 0 somewhere above c2*:

        G1 = 2a^2 - 132ab + 202a + 128b^2 + 84b - 312,
        G0 = -7a^4 + 60a^3 b - 6a^3 - 44a^2 b^2 - 432a^2 b + 441a^2 + 72a b^2
             + 996ab - 1208a - 32b^4 + 384b^3 - 540b^2 - 624b + 912.
    """
    a, b = _exact("alpha", alpha, 0.0), _exact("beta", beta, 0.0)
    if not -2 <= a - 2 * b <= 1:
        return False, None
    c2 = _short_root(25, 2 * a * a - 132 * a * b + 202 * a + 128 * b * b + 84 * b - 312,
                     a * a * (-7 * a * a + 60 * a * b - 6 * a - 44 * b * b - 432 * b + 441)
                     + a * (72 * b * b + 996 * b - 1208)
                     + b * (b * (-32 * b * b + 384 * b - 540) - 624) + 912,
                     r1_c2_lower_bound(a, b))
    if c2 is None:
        return False, None
    c3 = (a * (a * (45 - 2 * a - 11 * b) - 32 * b * b + 91 * b - 159)
          + b * (b * (24 * b + 46) - 174) + 184 + (12 * a + 29 * b - 69) * c2) / 50
    return True, Witness(c1=a - 2, c2=c2, c3=c3)


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
