"""Sampling reference for the region certificates.

``certify_r0`` / ``certify_r1`` decide a witness exactly through an LDL^T
of a Gram matrix.  The functions here decide nothing: they evaluate the
derivative polynomial itself at random points of mixed magnitude (the
polynomials are inhomogeneous) and return the worst value normalized by
the pointwise magnitude, so a sound witness stays above -1e-9.  They are
an independent cross-check of the exact path.
"""

import numpy as np

from rkentropy.regions import r0_poly_coeffs, r1_poly_coeffs


def eval_q_poly(eta: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate Q(eta) rowwise for eta of shape (k, 4) = (eta_G, eta_L,
    eta_R, eta_S); returns (values, pointwise magnitude scales)."""
    eg, el, er, es = eta[:, 0], eta[:, 1], eta[:, 2], eta[:, 3]
    mon = np.stack(
        [el**2, el * eg**2, eg**4, es * eg**2, er**2, es**2], axis=1
    )
    c = np.asarray(coeffs, dtype=float)
    return mon @ c, np.maximum(np.abs(mon) @ np.abs(c), 1e-300)


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


def _mixed_points(n_samples: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_samples, dim)) * 10.0 ** rng.uniform(
        -2.0, 2.0, size=(n_samples, 1)
    )


def sample_r0(q, w, n_samples: int = 10_000, seed: int = 20240601) -> float:
    """Worst normalized value of Q(eta) at the witness over random samples."""
    coeffs = r0_poly_coeffs(q.alpha, q.beta, q.d, q.c_rk, w.c1, w.c2)
    values, scales = eval_q_poly(_mixed_points(n_samples, 4, seed), coeffs)
    return float(np.min(values / scales))


def sample_r1(alpha, beta, w, n_samples: int = 10_000,
              seed: int = 20240602) -> float:
    """Worst normalized value of P(xi) at the witness over random samples."""
    coeffs = r1_poly_coeffs(alpha, beta, w.c2, w.c3)
    values, scales = eval_p_poly(_mixed_points(n_samples, 3, seed), coeffs)
    return float(np.min(values / scales))
