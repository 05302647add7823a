"""Admissibility regions and polynomial nonnegativity checks.

The dissipation analysis of the power-law diffusion families reduces to
deciding whether certain polynomials in derivative variables admit
integration-by-parts multipliers making them pointwise nonnegative.  This
module decides those questions numerically:

* closed-form strips in one space dimension,
* region membership for d >= 2 via a scan over the multiplier parameter
  (lambda, c2) with exact low-degree polynomial fits replacing symbolic
  quantifier elimination,
* the first-order-entropy region via a (c2, c3) scan and a quadratic-form
  nonnegativity lemma,
* the scalar-diffusion condition triple as a numeric per-state checker,
* the fourth-order (log-diffusion) multiplier chain in exact rational
  arithmetic.

Every accepted point returns a witness; ``certify_r0`` / ``certify_r1``
re-check a witness by direct sampling of the underlying polynomial, which
keeps the numeric search honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

DISC_TOL = 1e-12  # acceptance slack on discriminants / vertex values (scaled)


@dataclass(frozen=True)
class RegionQuery:
    """Point query for the power-law entropy/diffusion exponent plane."""

    alpha: float
    beta: float
    d: int = 1
    c_rk: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if self.d < 1:
            raise ValueError("dimension d must be at least 1")
        if self.c_rk not in (0.0, 1.0, 2.0):
            raise ValueError("c_rk must be one of 0, 1, 2")


@dataclass(frozen=True)
class Witness:
    """Multiplier choice certifying a membership decision."""

    c1: float
    c2: float
    c3: float | None = None
    lam: float | None = None


@dataclass
class RegionMask:
    """Boolean membership over an (alpha, beta) grid with witnesses."""

    alphas: np.ndarray
    betas: np.ndarray
    member: np.ndarray  # shape (len(alphas), len(betas))
    witnesses: dict[tuple[int, int], Witness]

    def to_csv(self) -> str:
        lines = ["alpha,beta,member,witness_c1,witness_c2,witness_c3"]
        for i, a in enumerate(self.alphas):
            for j, b in enumerate(self.betas):
                if self.member[i, j]:
                    w = self.witnesses.get((i, j))
                    c1 = repr(float(w.c1)) if w else ""
                    c2 = repr(float(w.c2)) if w else ""
                    c3 = repr(float(w.c3)) if w and w.c3 is not None else ""
                    lines.append(f"{float(a)!r},{float(b)!r},1,{c1},{c2},{c3}")
                else:
                    lines.append(f"{float(a)!r},{float(b)!r},0,,,")
        return "\n".join(lines) + "\n"


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

    Positive strictly inside the strips, zero on their boundary.
    """
    z = alpha - beta
    return ((c_rk - 2.0) * z + 2.0 * (c_rk + 1.0)) ** 2 - 9.0 * c_rk**2 * z**2


# ---------------------------------------------------------------------------
# zeroth-order region, d >= 2
# ---------------------------------------------------------------------------

def r0_poly_coeffs(alpha, beta, d, c_rk, c1, c2):
    """Coefficients (b1..b6) of the dimension-reduced derivative polynomial

        Q(eta) = b1 eta_L^2 + b2 eta_L eta_G^2 + b3 eta_G^4
                 + b4 eta_S eta_G^2 + b5 eta_R^2 + b6 eta_S^2

    for multiplier choice (c1, c2).  All arguments broadcast, so c1/c2 may
    be arrays for a vectorized scan.
    """
    b1 = (c_rk + 1.0) + (1.0 - 1.0 / d) * c1
    b2 = ((c_rk + 2.0) * (beta - alpha)
          + (1.0 - 1.0 / d) * (2.0 * beta - alpha - 1.0) * c1
          - (2.0 / d + 1.0) * c2)
    b3 = (beta - alpha) ** 2 - (2.0 * beta - 2.0 * alpha - 1.0) * c2
    b4 = -(d - 1.0) * ((2.0 * beta - alpha - 1.0) * c1 + 2.0 * c2)
    b5 = -c1
    b6 = -d * (d - 1.0) * c1
    return b1, b2, b3, b4, b5, b6


def eval_q_poly(eta: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate Q(eta) rowwise for eta of shape (k, 4) = (eta_G, eta_L,
    eta_R, eta_S); returns (values, pointwise magnitude scales)."""
    eg, el, er, es = eta[:, 0], eta[:, 1], eta[:, 2], eta[:, 3]
    mon = np.stack(
        [el**2, el * eg**2, eg**4, es * eg**2, er**2, es**2], axis=1
    )
    c = np.asarray(coeffs, dtype=float)
    return mon @ c, np.maximum(np.abs(mon) @ np.abs(c), 1e-300)


def _r0_r_value(alpha, beta, d, c_rk, c1, c2):
    """R(c2) = 4 b1 b6 b3 - b6 b2^2 - b1 b4^2, quadratic in c2.

    With b1, b6 > 0 this has the sign of the completed-square remainder of
    Q, so Q is pointwise nonnegative iff R(c2) >= 0 for some c2.
    """
    b1, b2, b3, b4, b5, b6 = r0_poly_coeffs(alpha, beta, d, c_rk, c1, c2)
    return 4.0 * b1 * b6 * b3 - b6 * b2**2 - b1 * b4**2


def r0_membership(q: RegionQuery, n_lambda: int = 1999
                  ) -> tuple[bool, Witness | None]:
    """Membership for d >= 2 by scanning the multiplier parameter lambda.

    c1 = -lambda (c_rk + 1) / (1 - 1/d) for lambda in (0, 1); for each
    lambda the remainder R is quadratic in c2 (recovered exactly from
    three evaluations) and satisfiable iff its discriminant is
    nonnegative.  Returns the first witnessing (lambda, c2 at the vertex).
    """
    if q.d < 2:
        raise ValueError("r0_membership needs d >= 2; use r0_1d for d = 1")
    lams = np.arange(1, n_lambda + 1) / (n_lambda + 1)
    c1s = -lams * (q.c_rk + 1.0) / (1.0 - 1.0 / q.d)
    r_m = _r0_r_value(q.alpha, q.beta, q.d, q.c_rk, c1s, -1.0)
    r_0 = _r0_r_value(q.alpha, q.beta, q.d, q.c_rk, c1s, 0.0)
    r_p = _r0_r_value(q.alpha, q.beta, q.d, q.c_rk, c1s, 1.0)
    quad_a = 0.5 * (r_p + r_m) - r_0
    quad_b = 0.5 * (r_p - r_m)
    quad_c = r_0
    disc = quad_b**2 - 4.0 * quad_a * quad_c
    scale = np.maximum(1.0, np.maximum(quad_b**2, np.abs(4.0 * quad_a * quad_c)))
    ok = (quad_a > 0.0) | (disc >= -DISC_TOL * scale)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return False, None
    k = int(hits[0])
    if quad_a[k] < 0.0:
        c2 = -quad_b[k] / (2.0 * quad_a[k])  # vertex of the downward parabola
    elif quad_a[k] > 0.0:
        # upward parabola: step past the rightmost root (the leading
        # coefficient is negative for every lambda in (0, 1), so this
        # branch is defensive only)
        vertex = -quad_b[k] / (2.0 * quad_a[k])
        c2 = vertex + np.sqrt(max(disc[k], 0.0)) / (2.0 * quad_a[k]) + 1.0
    elif quad_b[k] != 0.0:
        # degenerate linear remainder: step past its root on the rising side
        c2 = -quad_c[k] / quad_b[k] + np.sign(quad_b[k])
    else:
        c2 = 0.0
    return True, Witness(c1=float(c1s[k]), c2=float(c2), lam=float(lams[k]))


def certify_r0(q: RegionQuery, w: Witness, n_samples: int = 10_000,
               seed: int = 20240601) -> float:
    """Worst normalized value of Q(eta) at the witness over random samples.

    Samples mix magnitudes (the polynomial is inhomogeneous).  A certified
    witness stays above -1e-9.
    """
    rng = np.random.default_rng(seed)
    eta = rng.normal(size=(n_samples, 4)) * 10.0 ** rng.uniform(
        -2.0, 2.0, size=(n_samples, 1)
    )
    coeffs = r0_poly_coeffs(q.alpha, q.beta, q.d, q.c_rk, w.c1, w.c2)
    values, scales = eval_q_poly(eta, coeffs)
    return float(np.min(values / scales))


# ---------------------------------------------------------------------------
# first-order region (order >= 2 schemes, one space dimension)
# ---------------------------------------------------------------------------

def _r1_a_coeffs(alpha, beta, c_rk=1.0):
    a1 = (beta - 1.0) * (
        2.0 * c_rk * alpha**2 * beta - 3.0 * c_rk * alpha**2
        + 2.0 * alpha * beta**2 - 2.0 * (5.0 * c_rk + 3.0) * alpha * beta
        + (15.0 * c_rk + 4.0) * alpha + 2.0 * beta**3 - 14.0 * beta**2
        + 4.0 * (3.0 * c_rk + 7.0) * beta - 2.0 * (9.0 * c_rk + 8.0)
    )
    a2 = (beta - 1.0) * (
        4.0 * c_rk * alpha**2 + (8.0 * c_rk + 7.0) * alpha * beta
        - (32.0 * c_rk + 9.0) * alpha + 12.0 * beta**2
        - 2.0 * (8.0 * c_rk + 25.0) * beta + 6.0 * (8.0 * c_rk + 7.0)
    )
    a3 = (c_rk * alpha**2 + 2.0 * alpha * beta - (5.0 * c_rk + 2.0) * alpha
          + 4.0 * (c_rk + 1.0) * beta**2 - 2.0 * (5.0 * c_rk + 8.0) * beta
          + 12.0 * (c_rk + 1.0))
    a4 = 2.0 * (beta - 1.0) * (
        2.0 * (4.0 * c_rk + 1.0) * alpha + 9.0 * beta - (16.0 * c_rk + 13.0)
    )
    a5 = (2.0 * (2.0 * c_rk + 1.0) * alpha + 4.0 * (2.0 * c_rk + 3.0) * beta
          - 16.0 * (c_rk + 1.0))
    a6 = 2.0 - alpha
    a7 = 2.0 * (c_rk + 1.0)
    return a1, a2, a3, a4, a5, a6, a7


def r1_c2_lower_bound(alpha: float, beta: float, c_rk: float = 1.0) -> float:
    """Threshold c2* above which the (x, y) quadratic part can be definite."""
    return (
        (c_rk + 1.0) * (2.0 * c_rk + 1.0) * alpha**2
        - (2.0 * c_rk + 2.0) * (4.0 * c_rk - 3.0) * alpha * beta
        - (9.0 * c_rk + 9.0) * alpha
        + 2.0 * c_rk * (4.0 * c_rk + 3.0) * beta**2
        - (8.0 * c_rk + 12.0) * beta
        + (12.0 * c_rk + 14.0)
    ) / (3.0 * (c_rk + 1.0))


def r1_poly_coeffs(alpha, beta, c2, c3, c_rk=1.0):
    """Coefficients (b1..b7) of the first-order derivative polynomial

        P(xi) = b1 xi1^6 + b2 xi1^4 xi2 + b3 xi1^3 xi3 + b4 xi1^2 xi2^2
                + b5 xi1 xi2 xi3 + b6 xi2^3 + b7 xi3^2

    with the cubic term eliminated by fixing c1 = -(2 - alpha).  Arguments
    broadcast for vectorized scans.
    """
    a1, a2, a3, a4, a5, a6, a7 = _r1_a_coeffs(alpha, beta, c_rk)
    c1 = -a6
    b1 = a1 + (alpha + 2.0 * beta - 7.0) * c3
    b2 = a2 + (alpha + 2.0 * beta - 6.0) * c2 + 5.0 * c3
    b3 = a3 + c2
    b4 = a4 + (alpha + 2.0 * beta - 5.0) * c1 + 3.0 * c2
    b5 = a5 + 2.0 * c1
    b6 = a6 + c1  # zero by construction
    b7 = a7
    return b1, b2, b3, b4, b5, b6, b7


def eval_p_poly(xi: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate P(xi) rowwise for xi of shape (k, 3); returns (values,
    pointwise magnitude scales)."""
    x1, x2, x3 = xi[:, 0], xi[:, 1], xi[:, 2]
    mon = np.stack(
        [x1**6, x1**4 * x2, x1**3 * x3, x1**2 * x2**2, x1 * x2 * x3,
         x2**3, x3**2],
        axis=1,
    )
    c = np.asarray(coeffs, dtype=float)
    return mon @ c, np.maximum(np.abs(mon) @ np.abs(c), 1e-300)


def _r1_lemma_expr(alpha, beta, c2, c3, c_rk=1.0):
    """Case-(i) expression of the quadratic-form lemma for P/xi1^6:
    E = b1 (4 b4 b7 - b5^2) - b2^2 b7 - b3^2 b4 + b2 b3 b5."""
    b1, b2, b3, b4, b5, _, b7 = r1_poly_coeffs(alpha, beta, c2, c3, c_rk)
    return b1 * (4.0 * b4 * b7 - b5**2) - b2**2 * b7 - b3**2 * b4 + b2 * b3 * b5


def r1_membership(alpha: float, beta: float, n_c2: int = 4001,
                  c2_span: float = 100.0) -> tuple[bool, Witness | None]:
    """First-order-entropy admissibility for order >= 2 schemes (1D).

    Gate: the first-derivative dissipation direction needs
    -2 <= alpha - 2 beta <= 1; outside it the point is rejected outright.
    Then c2 is scanned on (c2*, c2* + c2_span]; for each c2 with definite
    quadratic part, the lemma expression E is quadratic in c3 with
    negative leading coefficient, so its vertex (exact 3-point fit)
    decides satisfiability.
    """
    c_rk = 1.0
    if not (-2.0 <= alpha - 2.0 * beta <= 1.0):
        return False, None
    c2_star = r1_c2_lower_bound(alpha, beta, c_rk)
    c2s = c2_star + c2_span * np.arange(1, n_c2 + 1) / n_c2
    _, _, b3, b4, b5, _, b7 = r1_poly_coeffs(alpha, beta, c2s, 0.0, c_rk)
    disc0 = 4.0 * b4 * b7 - b5**2
    e_m = _r1_lemma_expr(alpha, beta, c2s, -1.0, c_rk)
    e_0 = _r1_lemma_expr(alpha, beta, c2s, 0.0, c_rk)
    e_p = _r1_lemma_expr(alpha, beta, c2s, 1.0, c_rk)
    quad_a = 0.5 * (e_p + e_m) - e_0  # equals -50 (c_rk + 1) identically
    quad_b = 0.5 * (e_p - e_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -quad_b / (2.0 * quad_a)
        value = e_0 - quad_b**2 / (4.0 * quad_a)
    scale = np.maximum(
        1.0, np.maximum(np.abs(e_m), np.maximum(np.abs(e_0), np.abs(e_p)))
    )
    ok = (disc0 > 0.0) & (value >= -DISC_TOL * scale)
    hits = np.flatnonzero(ok)
    if hits.size:
        k = int(hits[0])
        a6 = _r1_a_coeffs(alpha, beta, c_rk)[5]
        return True, Witness(c1=float(-a6), c2=float(c2s[k]),
                             c3=float(vertex[k]))
    # degenerate quadratic part: lemma case with 4 b4 b7 = b5^2
    near0 = np.flatnonzero(np.abs(disc0) <= DISC_TOL * np.maximum(1.0, b5**2))
    for k in near0:
        c2 = float(c2s[k])
        a1, a2, a3, a4, a5, a6, a7 = _r1_a_coeffs(alpha, beta, c_rk)
        b3k = a3 + c2
        b5k = a5 + 2.0 * (-a6)
        # 2 b2 b7 - b3 b5 = 0 is linear in c3
        c3 = (b3k * b5k / (2.0 * a7) - (a2 + (alpha + 2.0 * beta - 6.0) * c2)) / 5.0
        b1k = a1 + (alpha + 2.0 * beta - 7.0) * c3
        if 4.0 * b1k * a7 - b3k**2 >= -DISC_TOL * max(1.0, b3k**2):
            return True, Witness(c1=float(-a6), c2=c2, c3=float(c3))
    return False, None


def certify_r1(alpha: float, beta: float, w: Witness, n_samples: int = 10_000,
               seed: int = 20240602) -> float:
    """Worst normalized value of P(xi) at the witness over random samples."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n_samples, 3)) * 10.0 ** rng.uniform(
        -2.0, 2.0, size=(n_samples, 1)
    )
    coeffs = r1_poly_coeffs(alpha, beta, w.c2, w.c3, 1.0)
    values, scales = eval_p_poly(xi, coeffs)
    return float(np.min(values / scales))


# ---------------------------------------------------------------------------
# quadratic-form nonnegativity lemma
# ---------------------------------------------------------------------------

def quad_form_nonneg(A: float, B: float, C: float, D: float, E: float,
                     F: float) -> bool:
    """Decide whether A + B x + C y + D x^2 + E xy + F y^2 >= 0 on R^2.

    Requires F > 0.  Nonnegative iff either
      (i)  4DF - E^2 > 0 and A (4DF - E^2) - B^2 F - C^2 D + B C E >= 0, or
      (ii) 4DF - E^2 = 0, 2BF - CE = 0 and 4AF - C^2 >= 0
    (equalities within 1e-12 after normalizing out the coefficient scale,
    which makes the decision invariant under positive rescaling).
    """
    if not F > 0:
        raise ValueError("quad_form_nonneg requires F > 0")
    m = max(abs(A), abs(B), abs(C), abs(D), abs(E), abs(F))
    a, b, c, d, e, f = (v / m for v in (A, B, C, D, E, F))
    g = 4.0 * d * f - e**2
    if g > DISC_TOL:
        return a * g - b**2 * f - c**2 * d + b * c * e >= 0.0
    if g < -DISC_TOL:
        return False
    return abs(2.0 * b * f - c * e) <= DISC_TOL and 4.0 * a * f - c**2 >= -DISC_TOL


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


def scalar_conditions(mu, dmu, d2mu, hpp, u_grid, d: int, c_rk: float
                      ) -> list[ConditionRow]:
    """Evaluate the three admissibility conditions of the scalar family.

    For each u in the ascending positive grid (whose first point anchors
    the mobility integral):

      cond1:  b(u) = (2/3)(c_rk + 1) * int_{u0}^{u} mu mu' h'' dv  >= 0
      cond2:  (c_rk + 1) h''(u) mu(u)^2 - ((d-1)/d) b(u)           >= 0
      cond3:  (c_rk + 2) mu(u) mu''(u) + (c_rk - 1) mu'(u)^2       <  0

    The integral is accumulated segment by segment with adaptive
    quadrature (absolute tolerance 1e-10 per segment).
    """
    from scipy.integrate import quad  # not at module top: it dominates import time

    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size < 1 or np.any(u_grid <= 0) or np.any(np.diff(u_grid) <= 0):
        raise ValueError("u_grid must be strictly positive and ascending")

    def integrand(v):
        return mu(v) * dmu(v) * hpp(v)

    rows = []
    acc = 0.0
    prev = u_grid[0]
    for u in u_grid:
        if u > prev:
            seg, _ = quad(integrand, prev, u, epsabs=1e-10, limit=200)
            acc += seg
            prev = u
        b_main = (2.0 / 3.0) * (c_rk + 1.0) * acc
        b_alt = (2.0 / 3.0) * (c_rk + 2.0) * acc
        lead = (c_rk + 1.0) * hpp(u) * mu(u) ** 2
        res2 = lead - (d - 1.0) / d * b_main
        res2_alt = lead - (d - 1.0) / d * b_alt
        c3v = (c_rk + 2.0) * mu(u) * d2mu(u) + (c_rk - 1.0) * dmu(u) ** 2
        rows.append(
            ConditionRow(
                u=float(u), b=float(b_main), b_alt=float(b_alt),
                cond2_residual=float(res2), cond2_residual_alt=float(res2_alt),
                cond3_value=float(c3v),
                cond1_ok=b_main >= 0.0, cond2_ok=res2 >= 0.0, cond3_ok=c3v < 0.0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# fourth-order (log-diffusion) multiplier chain
# ---------------------------------------------------------------------------

@dataclass
class DlssChainReport:
    """All intermediate coefficients of the fourth-order multiplier chain.

    Values are Fractions when both inputs are rational, floats otherwise.
    ``p`` is the final residual coefficient b1 - b2^2 b12 / b7^2 whose
    positivity closes the dissipation argument.
    """

    c1: object
    c2: object
    c3: object
    c4: object
    c5: object
    c6: object
    c7: object
    c8: object
    a: tuple
    b1: object
    b2: object
    b4: object
    b7: object
    b12: object
    p: object


def _frac(x):
    """Exact conversion for rationals; floats stay floats (and poison the
    arithmetic downstream, which is the intended fallback)."""
    if isinstance(x, Rational):
        return Fraction(x)
    return x


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
    c3 = _frac(c3)
    p3, p2, p1, p0 = _C1_CUBIC
    return p3 * c3**3 + p2 * c3**2 + p1 * c3 + p0


def dlss_chain(c3, c8) -> DlssChainReport:
    """Run the full multiplier chain of the fourth-order operator.

    Eliminations fix c6, c5, c7, c4, c2 as polynomials in (c3, c8); c1
    comes from the cubic closing the square decomposition; the a and b
    coefficient tables follow.  With Fraction inputs everything is exact.
    """
    c3 = _frac(c3)
    c8 = _frac(c8)
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
    c8 = _frac(c8)
    return (dlss_b12(c8 + 1) - dlss_b12(c8 - 1)) / 2


# ---------------------------------------------------------------------------
# mask generation
# ---------------------------------------------------------------------------

def emit_mask(family: str, alpha_range: tuple[float, float],
              beta_range: tuple[float, float], alpha_steps: int,
              beta_steps: int, d: int = 1, c_rk: float = 1.0) -> RegionMask:
    """Evaluate a membership operation over a rectangular grid.

    ``family`` is "pme0" (zeroth-order region, closed form for d = 1 and
    the lambda scan for d >= 2) or "pme1" (first-order region, c_rk
    fixed to 1).  Deterministic for fixed inputs.
    """
    if alpha_steps < 1 or beta_steps < 1:
        raise ValueError("step counts must be at least 1")
    alphas = np.linspace(alpha_range[0], alpha_range[1], alpha_steps)
    betas = np.linspace(beta_range[0], beta_range[1], beta_steps)
    member = np.zeros((alpha_steps, beta_steps), dtype=bool)
    witnesses: dict[tuple[int, int], Witness] = {}
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            if family == "pme0":
                q = RegionQuery(alpha=float(a), beta=float(b), d=d, c_rk=c_rk)
                if d == 1:
                    member[i, j] = r0_1d(q)
                else:
                    ok, w = r0_membership(q)
                    member[i, j] = ok
                    if ok and w is not None:
                        witnesses[(i, j)] = w
            elif family == "pme1":
                ok, w = r1_membership(float(a), float(b))
                member[i, j] = ok
                if ok and w is not None:
                    witnesses[(i, j)] = w
            else:
                raise ValueError(f"unknown region family {family!r}")
    return RegionMask(alphas=alphas, betas=betas, member=member,
                      witnesses=witnesses)
