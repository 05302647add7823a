from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkentropy.regions import (
    RegionQuery,
    Witness,
    _best_point,
    _det4,
    _quadratic,
    _r0_gram,
    _r1_a_coeffs,
    _r1_gram,
    certify_r0,
    certify_r1,
    dlss_b12,
    dlss_b12_derivative,
    dlss_c1_of_c3,
    dlss_chain,
    emit_mask,
    quad_form_nonneg,
    r0_1d,
    r0_membership,
    r0_poly_coeffs,
    r0_strip_discriminant,
    r1_c2_lower_bound,
    r1_membership,
    r1_poly_coeffs,
    scalar_conditions,
)
from range_cases import range_cases
from sampling_oracle import eval_p_poly, eval_q_poly, sample_r0, sample_r1


# -- one-dimensional strips ---------------------------------------------------

def test_r0_1d_reference_points():
    assert r0_1d(RegionQuery(1.0, 1.0, 1, 0.0))
    assert r0_1d(RegionQuery(1.0, 1.0, 1, 1.0))
    assert r0_1d(RegionQuery(1.0, 1.0, 1, 2.0))
    assert not r0_1d(RegionQuery(3.0, 1.0, 1, 1.0))  # alpha - beta = 2
    assert r0_1d(RegionQuery(3.0, 1.0, 1, 0.0))


def test_r0_1d_strips_and_strictness():
    # c_rk = 1: -2 < z < 1; c_rk = 2: -1 < z < 1, boundaries excluded
    assert not r0_1d(RegionQuery(2.0, 1.0, 1, 1.0))  # z = 1 boundary
    assert not r0_1d(RegionQuery(2.0, 1.0, 1, 2.0))
    assert r0_1d(RegionQuery(2.0, 1.0, 1, 0.0))
    assert r0_1d(RegionQuery(1.0, 2.9, 1, 1.0))      # z = -1.9 inside for c_rk=1
    assert not r0_1d(RegionQuery(1.0, 2.9, 1, 2.0))  # outside for c_rk=2
    assert not r0_1d(RegionQuery(1.0, 3.0, 1, 1.0))  # z = -2 boundary


def test_r0_1d_symmetric_strip_for_explicit_euler():
    for z in (0.3, 0.7, 0.99):
        assert r0_1d(RegionQuery(1.0 + z, 1.0, 1, 2.0)) == \
            r0_1d(RegionQuery(1.0, 1.0 + z, 1, 2.0))


def test_r0_1d_matches_discriminant_off_boundary():
    grid = np.linspace(0.25, 5.0, 40)
    for c_rk in (0.0, 1.0, 2.0):
        for a in grid:
            for b in grid:
                disc = r0_strip_discriminant(a, b, c_rk)
                z = a - b
                scale = max(1.0, ((c_rk - 2.0) * z + 2.0 * (c_rk + 1.0)) ** 2,
                            9.0 * c_rk**2 * z**2)
                if abs(disc) <= 1e-12 * scale:
                    continue  # boundary of the strip
                assert r0_1d(RegionQuery(a, b, 1, c_rk)) == (disc > 0.0)


def test_r0_1d_rejects_higher_dimension():
    with pytest.raises(ValueError):
        r0_1d(RegionQuery(1.0, 1.0, 2, 1.0))


# -- multi-dimensional membership ----------------------------------------------

def test_r0_membership_unit_point_all_cases():
    for d in (2, 10):
        for c_rk in (0.0, 1.0, 2.0):
            ok, w = r0_membership(RegionQuery(1.0, 1.0, d, c_rk))
            assert ok and w is not None
            if c_rk == 0.0:
                assert w == Witness(c1=0.0, c2=0.0)
            else:  # c1 = -k lambda with lambda in (0, 1)
                k = (c_rk + 1.0) / (1.0 - 1.0 / d)
                assert -k < w.c1 < 0.0
            assert certify_r0(RegionQuery(1.0, 1.0, d, c_rk), w) >= -1e-9


def test_r0_membership_rejects_far_points():
    assert not r0_membership(RegionQuery(5.0, 0.5, 2, 1.0))[0]
    assert not r0_membership(RegionQuery(0.5, 5.0, 2, 1.0))[0]


def test_r0_membership_requires_d_at_least_two():
    with pytest.raises(ValueError):
        r0_membership(RegionQuery(1.0, 1.0, 1, 1.0))


def test_r0_membership_monotone_in_c_rk():
    # wherever the order >= 2 condition holds, implicit Euler holds too
    # (an empirical grid observation, not proved)
    grid = np.linspace(0.5, 4.0, 8)
    for a in grid:
        for b in grid:
            if r0_membership(RegionQuery(a, b, 2, 1.0))[0]:
                assert r0_membership(RegionQuery(a, b, 2, 0.0))[0], (a, b)


def test_r0_membership_against_sampling_oracle():
    # independent decision path: scan a (c1, c2) multiplier grid and accept
    # a point when Q sampled over a large eta batch stays nonnegative at
    # some grid pair.  The batch mixes 10^4 random points with a
    # deterministic probe grid along the completed-square vertex
    # directions (eta_G = 1, eta_R = 0, eta_L and eta_S on a ratio grid
    # dense near the origin), which is where a barely indefinite Q dips.
    # Disagreements may only sit on the membership boundary.
    rng = np.random.default_rng(99)
    eta_rand = rng.normal(size=(10_000, 4)) * 10.0 ** rng.uniform(
        -2, 2, (10_000, 1))
    ratios = np.unique(np.concatenate([
        np.linspace(-5.0, 5.0, 101), np.linspace(-48.0, 48.0, 25),
        [-1e4, -1e3, -1e2, 1e2, 1e3, 1e4]]))
    rl, rs = np.meshgrid(ratios, ratios, indexing="ij")
    eta_probe = np.stack([np.ones(rl.size), rl.ravel(), np.zeros(rl.size),
                          rs.ravel()], axis=1)
    eta = np.vstack([eta_rand, eta_probe])
    mon = np.stack([eta[:, 1] ** 2, eta[:, 1] * eta[:, 0] ** 2, eta[:, 0] ** 4,
                    eta[:, 3] * eta[:, 0] ** 2, eta[:, 2] ** 2, eta[:, 3] ** 2],
                   axis=1)
    mon_abs = np.abs(mon)
    # prescan on a strided subset: a pair passing the full batch passes any
    # subset, so pruning with the subset loses no accepted pairs
    sub, sub_abs = mon[::20], mon_abs[::20]
    d, c_rk = 2, 1.0
    lams = np.concatenate([[0.01, 0.02, 0.03], np.linspace(0.05, 0.95, 19)])
    fixed_c2 = np.linspace(-25.0, 25.0, 26)
    scaled_c2 = np.linspace(-40.0, 40.0, 81)  # feasible windows shrink with lam
    pair_list = []
    for lam in lams:
        c1 = -lam * (c_rk + 1.0) / (1.0 - 1.0 / d)
        for c2 in np.unique(np.concatenate([fixed_c2, lam * scaled_c2])):
            pair_list.append((c1, c2))
    pairs = np.array(pair_list)

    def brute_member(alpha, beta):
        b = np.stack(r0_poly_coeffs(alpha, beta, d, c_rk, pairs[:, 0],
                                    pairs[:, 1]))  # (6, P)
        worst = ((sub @ b) / np.maximum(sub_abs @ np.abs(b), 1e-300)).min(axis=0)
        order = np.flatnonzero(worst >= -1e-9)
        for k in order[np.argsort(-worst[order])]:
            bk = b[:, k]
            full = (mon @ bk) / np.maximum(mon_abs @ np.abs(bk), 1e-300)
            if full.min() >= -1e-9:
                return True
        return False

    grid = np.linspace(0.2, 5.0, 21)
    member = np.zeros((21, 21), dtype=bool)
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            member[i, j] = r0_membership(RegionQuery(float(a), float(b), d, c_rk))[0]
    disagreements = []
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            if brute_member(float(a), float(b)) != member[i, j]:
                disagreements.append((i, j))
    assert len(disagreements) <= 2, disagreements
    for i, j in disagreements:
        # must be a boundary cell: some 4-neighbour has the other verdict
        neighbours = [member[i + di, j + dj]
                      for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                      if 0 <= i + di < 21 and 0 <= j + dj < 21]
        assert any(v != member[i, j] for v in neighbours), (i, j)


# -- first-order region ---------------------------------------------------------

def test_r1_gate_rejects_wrong_slope():
    # alpha - 2 beta = 3 fails the first-derivative dissipation direction
    assert not r1_membership(4.0, 0.5)[0]
    assert not r1_membership(8.0, 2.0)[0]


def test_r1_nonempty_with_certified_witnesses():
    found = 0
    for a in np.linspace(0.5, 4.0, 8):
        for b in np.linspace(0.5, 4.0, 8):
            ok, w = r1_membership(float(a), float(b))
            if ok:
                found += 1
                assert certify_r1(float(a), float(b), w) >= -1e-9
    assert found > 0


def test_r1_witness_eliminates_cubic_term():
    ok, w = r1_membership(1.0, 1.0)
    assert ok
    b = r1_poly_coeffs(1.0, 1.0, w.c2, w.c3)
    assert b[5] == 0.0  # xi2^3 coefficient


def test_r1_c2_lower_bound_is_the_root_of_disc0():
    # disc0 = 4 b4 b7 - b5^2 vanishes exactly at c2* and rises with slope
    # 12 a7 > 0, so the quadratic part is definite on all of c2 > c2*
    for a, b in ((1, 1), (Fraction(7, 4), Fraction(1, 3)),
                 (Fraction(1, 2), Fraction(5, 2)), (3, Fraction(9, 8))):
        a, b = Fraction(a), Fraction(b)
        c2_star = r1_c2_lower_bound(a, b)
        assert isinstance(c2_star, Fraction)
        disc0 = []
        for c2 in (c2_star, c2_star + 1):
            _, _, _, b4, b5, _, b7 = r1_poly_coeffs(a, b, c2, 0)
            disc0.append(4 * b4 * b7 - b5**2)
        assert disc0[0] == 0
        assert disc0[1] == 12 * _r1_a_coeffs(a, b)[6] > 0


def test_r0_remainder_opens_downward():
    # the c2^2 coefficient of R is -b6 (2/d + 1)^2 - 4 b1 (d - 1)^2 < 0 for
    # every lambda in (0, 1), so the vertex in c2 is always a maximum
    a, b = Fraction(13, 10), Fraction(7, 10)
    for d in (2, 3, 10):
        d = Fraction(d)
        for c_rk in (0, 1, 2):
            for lam in (Fraction(1, 2000), Fraction(1, 2),
                        Fraction(1999, 2000)):
                c1 = -lam * (c_rk + 1) / (1 - 1 / d)
                r_m, r_0, r_p = (_det4(_r0_gram(a, b, d, c_rk, c1, c2))
                                 for c2 in (-1, 0, 1))
                b1, _, _, _, _, b6 = r0_poly_coeffs(a, b, d, c_rk, c1, 0)
                lead = -b6 * (2 / d + 1) ** 2 - 4 * b1 * (d - 1) ** 2
                assert (r_p + r_m) / 2 - r_0 == lead < 0


def test_r0_discriminant_vanishes_at_the_interval_ends():
    # disc(lambda) = K lambda (lambda - 1) q(lambda) with q quadratic, so
    # disc / (lambda (1 - lambda)) has zero third differences: the
    # three-node fit in r0_membership recovers it exactly
    for a, b in ((Fraction(13, 10), Fraction(7, 10)), (Fraction(1, 2),
                                                       Fraction(9, 4))):
        for d in (2, 3, 10):
            d = Fraction(d)
            for c_rk in (1, 2):
                def disc(lam):
                    c1 = -lam * (c_rk + 1) / (1 - 1 / d)
                    qa, qb, qc = _quadratic(
                        lambda c2: _det4(_r0_gram(a, b, d, c_rk, c1, c2)))
                    return qb * qb - 4 * qa * qc

                assert disc(Fraction(0)) == 0 and disc(Fraction(1)) == 0
                p = [disc(lam) / (lam * (1 - lam))
                     for lam in (Fraction(k, 5) for k in range(1, 5))]
                assert p[3] - 3 * p[2] + 3 * p[1] - p[0] == 0


def test_r1_peak_over_c3_vanishes_at_c2_star():
    # E has c3^2 coefficient -100, and its peak over c3 is
    # F(c2) = -3 (c2 - c2*) g(c2) / 25 with g quadratic
    for a, b in ((1, 1), (Fraction(7, 4), Fraction(1, 3)),
                 (Fraction(3, 2), Fraction(6, 5))):
        a, b = Fraction(a), Fraction(b)
        c2_star = r1_c2_lower_bound(a, b)

        def peak(c2):
            qa, qb, qc = _quadratic(
                lambda c3: _det4(_r1_gram(a, b, c2, c3)))
            assert qa == -100
            return qc - qb * qb / (4 * qa)

        assert peak(c2_star) == 0
        f = [peak(c2_star + k) / k for k in range(1, 5)]
        assert f[3] - 3 * f[2] + 3 * f[1] - f[0] == 0
        assert (f[2] - 2 * f[1] + f[0]) / 2 == -3  # the c2^2 coefficient


def test_r1_accepts_a_witness_just_above_c2_star():
    # the witness needs c2 - c2* ~ 0.0103: a c2 grid of step 100/4001 on
    # (c2*, c2* + 100] has no feasible node here
    a, b = 1.5818239901211149, 1.1931352500525725
    ok, w = r1_membership(a, b)
    assert ok
    assert 0.0 < w.c2 - r1_c2_lower_bound(a, b) < 100 / 4001
    assert certify_r1(a, b, w) > 0.0
    assert sample_r1(a, b, w) == pytest.approx(0.0198, abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.05, 6.0), b=st.floats(0.05, 6.0), d=st.integers(2, 10))
def test_implicit_euler_witness_is_a_perfect_square(a, b, d):
    # c1 = c2 = 0 leaves Q = (eta_L + (beta - alpha) eta_G^2)^2: the Gram
    # matrix is singular, so the certificate is exactly 0
    q = RegionQuery(a, b, d, 0.0)
    ok, w = r0_membership(q)
    assert ok and w == Witness(c1=0.0, c2=0.0)
    assert certify_r0(q, w) == 0.0
    assert sample_r0(q, w) >= -1e-9


def test_best_point_finds_narrow_and_one_sided_windows():
    # inner(t, s) = ends(t) q(t) - s^2, where ends(t) is the product of the
    # distances to the finite ends, so the reduced quadratic is 4 q(t)
    def search(q, lo=0.0, hi=1.0):
        def ends(t):
            return (t - lo) * (hi - t) if hi < np.inf else t - lo
        return _best_point(lambda t, s: ends(t) * q(t) - s * s, lambda: (lo, hi))

    t, s = search(lambda t: -(t - 0.9) * (t - 0.95))  # vertex inside
    assert t == pytest.approx(0.925) and s == 0.0
    t, _ = search(lambda t: -(t - 0.95) * (t - 1.2))  # vertex beyond hi
    assert t == pytest.approx(0.975)
    t, _ = search(lambda t: t - 0.99)  # linear
    assert t == pytest.approx(0.995)
    assert search(lambda t: -1.0 - t * t) is None  # no real root
    assert search(lambda t: -(t - 0.5) ** 2 - 1e-3) is None
    t, _ = search(lambda t: -(t - 3.0) * (t + 1.0), 2.0, np.inf)
    assert 2.0 < t < 3.0


def test_best_point_has_no_witness_where_a_float_power_overflows():
    # one rule for the window and the objective: a float ** that overflows
    # leaves no witness, in the r1 lower bound c2* as in the Gram entries
    def inner(t, s):
        return -(t - 0.5) ** 2 + 1.0 - s * s

    assert _best_point(inner, lambda: (0.0, 1.0)) is not None
    assert _best_point(lambda t, s: inner(t, s) * 1e200 ** 2,
                       lambda: (0.0, 1.0)) is None
    assert _best_point(inner, lambda: (r1_c2_lower_bound(2e200, 1e200), np.inf)) is None
    assert r1_membership(2e200, 1e200) == (False, None)
    assert r0_membership(RegionQuery(1e300, 0.5, 2, 1.0)) == (False, None)


# -- exact certificates against the sampling oracle ------------------------------

_CONFIGS = st.one_of(
    st.tuples(st.just("pme0"), st.integers(2, 10),
              st.sampled_from([0.0, 1.0, 2.0])),
    st.just(("pme1", 1, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS, i=st.integers(0, 20), j=st.integers(0, 20),
       shift=st.tuples(st.floats(-0.04, 0.04), st.floats(-0.04, 0.04)))
def test_every_witness_passes_the_exact_certificate(config, i, j, shift):
    # a cell of the 21 x 21 grid on [0.5, 4]^2, offset as the benchmark does
    family, d, c_rk = config
    a = 0.5 + 3.5 * i / 20 + shift[0]
    b = 0.5 + 3.5 * j / 20 + shift[1]
    if family == "pme0":
        q = RegionQuery(a, b, d, c_rk)
        ok, w = r0_membership(q)
        if ok:
            assert certify_r0(q, w) >= 0.0
            assert sample_r0(q, w) >= -1e-9
    else:
        ok, w = r1_membership(a, b)
        if ok:
            assert certify_r1(a, b, w) >= 0.0
            assert sample_r1(a, b, w) >= -1e-9


def test_exact_certificates_reject_a_shifted_witness():
    for d in (2, 10):
        for c_rk in (0.0, 1.0, 2.0):
            q = RegionQuery(1.0, 1.0, d, c_rk)
            w = r0_membership(q)[1]
            bad = replace(w, c2=w.c2 + 1e3)
            assert certify_r0(q, w) >= 0.0
            assert certify_r0(q, bad) == -1.0
            assert sample_r0(q, bad) < -1e-9  # the oracle sees Q dip too
    w = r1_membership(1.0, 1.0)[1]
    bad = replace(w, c2=w.c2 + 1e3)
    assert certify_r1(1.0, 1.0, bad) == -1.0
    assert sample_r1(1.0, 1.0, bad) < -1e-9


def test_exact_certificate_accepts_a_singular_gram_matrix():
    # a boundary witness of the benchmark grid: R(c2) peaks at exactly 0,
    # so the third pivot is 0 (its rest of row, towards the b5 block, is 0
    # too); any other c2 fails
    q = RegionQuery(0.5, 2.25, 2, 1.0)
    w = Witness(c1=-0.5, c2=0.5)  # lambda = 1/8
    assert (w.c1, w.c2) == (-0.5, 0.5)
    assert certify_r0(q, w) == 0.0
    for c2 in (0.5 - 2.0**-40, 0.5 + 2.0**-40):
        assert certify_r0(q, replace(w, c2=c2)) == -1.0


def test_certify_r1_rejects_a_borrowed_witness_outside_the_gate():
    w = r1_membership(1.0, 1.0)[1]
    for a, b in ((4.0, 0.5), (8.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        assert not -2.0 <= a - 2.0 * b <= 1.0
        assert certify_r1(a, b, w) == -1.0
        assert sample_r1(a, b, w) < -1e-9


def test_coefficients_are_type_generic():
    # Fraction in, Fraction out (a float literal would silently demote the
    # certificate to floats), except the constant a7 = b7 = 4; float
    # inputs keep their former values bit for bit
    fr = Fraction
    r1 = r1_poly_coeffs(fr(13, 10), fr(7, 10), fr(5, 2), fr(-3, 10))
    a = _r1_a_coeffs(fr(13, 10), fr(7, 10))
    exact = (*r0_poly_coeffs(fr(13, 10), fr(7, 10), fr(3), fr(1), fr(-9, 10),
                             fr(2, 5)),
             *r1[:6], *a[:6], r1_c2_lower_bound(fr(13, 10), fr(7, 10)))
    assert all(type(x) is Fraction for x in exact)
    assert type(r1[6]) is type(a[6]) is int and r1[6] == a[6] == 4
    assert r0_poly_coeffs(1.3, 0.7, 3, 1.0, -0.9, 0.4) == (
        1.4, -1.9266666666666667, 1.2400000000000002, -3.2200000000000006,
        0.9, 5.4)
    assert r1_poly_coeffs(1.3, 0.7, 2.5, -0.3) == (
        2.3291999999999993, -14.787000000000003, 6.629999999999999, 14.93,
        -11.6, 0.0, 4.0)
    assert _r1_a_coeffs(1.3, 0.7) == (
        1.0391999999999997, -5.037000000000003, 4.129999999999999, 5.82,
        -10.2, 0.7, 4.0)
    assert r1_c2_lower_bound(1.3, 0.7) == 0.3266666666666662


def test_r0_gram_determinant_is_the_remainder():
    # four times the leading 3 x 3 determinant is R = 4 b1 b6 b3 - b6 b2^2
    # - b1 b4^2, the completed-square remainder of Q
    fr = Fraction
    for d, c_rk, c1, c2 in ((2, 1, fr(-3, 2), fr(2, 5)),
                            (3, 2, fr(-9, 10), fr(-7, 3)),
                            (10, 0, fr(0), fr(11, 4))):
        args = (fr(13, 10), fr(7, 10), fr(d), fr(c_rk), c1, c2)
        b1, b2, b3, b4, _, b6 = r0_poly_coeffs(*args)
        assert _det4(_r0_gram(*args)) == 4 * b1 * b6 * b3 - b6 * b2**2 - b1 * b4**2


def test_r1_gram_determinant_is_the_lemma_expression():
    # four times the determinant of P's Gram matrix is E = b1 (4 b4 b7 -
    # b5^2) - b2^2 b7 - b3^2 b4 + b2 b3 b5
    fr = Fraction
    for a, b, c2, c3 in ((fr(13, 10), fr(7, 10), fr(5, 2), fr(-3, 10)),
                         (fr(1), fr(1), fr(1, 3), fr(7)),
                         (fr(7, 4), fr(1, 3), fr(-2), fr(5, 9))):
        b1, b2, b3, b4, b5, _, b7 = r1_poly_coeffs(a, b, c2, c3)
        assert _det4(_r1_gram(a, b, c2, c3)) == (
            b1 * (4 * b4 * b7 - b5**2) - b2**2 * b7 - b3**2 * b4 + b2 * b3 * b5)


@settings(max_examples=60, deadline=None)
@given(args=st.tuples(*[st.floats(-1e3, 1e3)] * 4), exact=st.booleans())
def test_r1_cubic_coefficient_is_zero(args, exact):
    # c1 = -(2 - alpha) cancels a6 = 2 - alpha in any arithmetic, so the
    # Gram matrix of P need not carry b6
    if exact:
        args = tuple(map(Fraction, args))
    assert r1_poly_coeffs(*args)[5] == 0


# -- quadratic-form lemma --------------------------------------------------------

def test_quad_form_reference_cases():
    assert quad_form_nonneg(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)       # x^2 + y^2
    assert not quad_form_nonneg(-1.0, 0.0, 0.0, 1.0, 0.0, 1.0)  # min is -1
    assert quad_form_nonneg(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    assert quad_form_nonneg(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)       # y^2 alone
    assert not quad_form_nonneg(0.0, 1.0, 0.0, 0.0, 0.0, 1.0)   # x + y^2
    assert not quad_form_nonneg(0.0, 0.0, 0.0, -1.0, 0.0, 1.0)  # indefinite


def test_quad_form_requires_positive_f():
    with pytest.raises(ValueError):
        quad_form_nonneg(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def test_quad_form_scaling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        coeffs = rng.normal(size=6) * 10.0 ** rng.uniform(-2, 2)
        coeffs[5] = abs(coeffs[5]) + 0.1
        verdict = quad_form_nonneg(*coeffs)
        for s in (1e-6, 0.5, 3.0, 1e6):
            assert quad_form_nonneg(*(s * coeffs)) == verdict


def test_quad_form_against_sampling_oracle():
    # verdicts must agree with direct minimization wherever the decision
    # margin is clear; probe random points, far-field rays, and the
    # stationary point of the quadratic part
    rng = np.random.default_rng(32)
    pts = rng.uniform(-100.0, 100.0, size=(100_000, 2))
    checked = 0
    for _ in range(1000):
        A, B, C, D, E = rng.normal(size=5) * rng.choice([0.1, 1.0, 10.0])
        F = abs(rng.normal()) + 0.05
        g = 4.0 * D * F - E**2
        second = A * g - B**2 * F - C**2 * D + B * C * E
        scale = max(abs(v) for v in (A, B, C, D, E, F))
        if abs(g) <= 1e-6 * scale**2 or abs(second) <= 1e-6 * scale**3:
            continue  # boundary case, no clear margin
        probes = [pts]
        if g != 0.0:
            sx = (-B * 2.0 * F + C * E) / g
            sy = (-C * 2.0 * D + B * E) / g
            probes.append(np.array([[sx, sy]]))
        ray = rng.normal(size=(50, 2))
        ray /= np.linalg.norm(ray, axis=1, keepdims=True)
        probes.append(1e4 * ray)
        xy = np.vstack(probes)
        vals = (A + B * xy[:, 0] + C * xy[:, 1] + D * xy[:, 0] ** 2
                + E * xy[:, 0] * xy[:, 1] + F * xy[:, 1] ** 2)
        mags = (abs(A) + abs(B * xy[:, 0]) + abs(C * xy[:, 1])
                + abs(D) * xy[:, 0] ** 2 + abs(E * xy[:, 0] * xy[:, 1])
                + abs(F) * xy[:, 1] ** 2)
        sampled_nonneg = bool(np.all(vals >= -1e-9 * np.maximum(mags, 1e-300)))
        assert quad_form_nonneg(A, B, C, D, E, F) == sampled_nonneg
        checked += 1
    assert checked >= 500


# -- scalar-diffusion conditions ----------------------------------------------

def test_scalar_conditions_heat_log_entropy():
    # alpha = 0, beta = 1: mobility u and h'' = 1/u, so the third condition
    # value is c_rk - 1 for every u and only implicit Euler passes strictly
    u_grid = np.linspace(0.5, 3.0, 7)
    for c_rk, passes in ((0.0, True), (1.0, False), (2.0, False)):
        rows = scalar_conditions(0.0, 1.0, u_grid=u_grid, d=3, c_rk=c_rk)
        for row in rows:
            assert row.cond3_value == pytest.approx(c_rk - 1.0, abs=1e-14)
            assert row.cond3_ok == passes
            # b(u) = (2/3)(c_rk + 1)(u - u0) in closed form
            want = (2.0 / 3.0) * (c_rk + 1.0) * (row.u - u_grid[0])
            assert row.b == pytest.approx(want, abs=1e-8)
            assert row.cond1_ok


def test_scalar_conditions_d1_second_condition_trivial():
    rows = scalar_conditions(0.0, 1.0, u_grid=np.linspace(1.0, 2.0, 5), d=1,
                             c_rk=1.0)
    for row in rows:
        lead = (1.0 + 1.0) * (1.0 / row.u) * row.u**2
        assert row.cond2_residual == pytest.approx(lead, rel=1e-12)
        assert row.cond2_ok


@pytest.mark.parametrize("d", [1.5, True])
def test_scalar_conditions_dimension_must_be_an_integer(d):
    with pytest.raises(ValueError, match="d must be an integer of at least 1"):
        scalar_conditions(0.0, 1.0, u_grid=np.array([1.0, 2.0]), d=d, c_rk=1.0)


def test_scalar_conditions_variant_prefactor():
    rows = scalar_conditions(0.0, 1.0, u_grid=np.array([1.0, 2.0]), d=2,
                             c_rk=1.0)
    r = rows[-1]
    assert r.b_alt == pytest.approx(r.b * 1.5, rel=1e-12)  # (c+2)/(c+1) at c=1


def test_scalar_conditions_integral_matches_closed_form():
    # mu mu' h'' = beta^2 e u^(p-1) with e = beta - alpha, p = 2 beta - alpha - 1:
    # steep near u0 = 1e-3, where the naive antiderivative is still accurate
    alpha, beta = 1.0, 0.6
    e, p = beta - alpha, 2.0 * beta - alpha - 1.0
    u_grid = np.array([1e-3, 2e-3, 0.1, 1.0])
    rows = scalar_conditions(alpha, beta, u_grid=u_grid, d=2, c_rk=1.0)
    for row in rows[1:]:
        integral = beta**2 * e * (row.u**p - 1e-3**p) / p
        assert row.b == pytest.approx((4.0 / 3.0) * integral, rel=1e-13)


@pytest.mark.parametrize("alpha, beta", [
    (1.0, 2.0), (3.0, 2.0), (0.5, 3.0),
    (0.0, 0.5),  # p = 0: the log limit
    (0.0, 0.5 + 5e-10), (0.0, 0.5 - 5e-10),  # p = +-1e-9
])
def test_scalar_conditions_b_matches_the_antiderivative(alpha, beta):
    e, p = beta - alpha, 2.0 * beta - alpha - 1.0
    u_grid = np.array([1e-3, 2e-3, 0.1, 1.0, 7.5])
    rows = scalar_conditions(alpha, beta, u_grid=u_grid, d=2, c_rk=1.0)
    for row in rows[1:]:
        if abs(p) > 1e-6:  # the naive antiderivative cancels as p -> 0
            integral = beta**2 * e * (row.u**p - 1e-3**p) / p
        else:  # u0^p log(u/u0) (1 + p log(u/u0) / 2): the series of expm1
            log_ratio = np.log(row.u / 1e-3)
            integral = (beta**2 * e * 1e-3**p * log_ratio
                        * (1.0 + 0.5 * p * log_ratio))
        assert row.b == pytest.approx((4.0 / 3.0) * integral, rel=1e-13)


def test_scalar_conditions_b_does_not_overflow_before_the_integral():
    # u0^p = 1e-400 underflows to 0 and expm1(p log(u/u0)) overflows, but
    # (4/3) beta^2 e (1 - u0^p) / p = 6733.5 is exact in floats
    rows = scalar_conditions(1.0, 100.5, u_grid=[0.01, 1.0], d=1, c_rk=1.0)
    assert rows[1].b == 6733.5


@pytest.mark.parametrize("alpha, beta, u_grid, u", [
    (1e308, 2.0, [0.5, 2.0], 0.5),
    (-400.0, 400.0, [0.5, 1.75, 3.0], 1.75),
])
def test_scalar_conditions_overflow_names_the_first_row(alpha, beta, u_grid, u):
    # the rows printed NaN with every flag 0, which read as "condition fails"
    with pytest.raises(ValueError, match=rf"^the conditions at u = {u} are not "
                                         "finite: the powers of u overflow$"):
        scalar_conditions(alpha, beta, u_grid=u_grid, d=1, c_rk=1.0)


def test_scalar_conditions_input_validation():
    with pytest.raises(ValueError):
        scalar_conditions(0.0, 1.0, np.array([2.0, 1.0]), 1, 1.0)


# -- fourth-order multiplier chain ----------------------------------------------

def test_dlss_b12_exact_maximum():
    c8 = Fraction(17, 172)
    assert dlss_b12(c8) == Fraction(20, 129)
    assert dlss_b12_derivative(c8) == 0


def test_dlss_c1_constant_term():
    assert dlss_c1_of_c3(Fraction(0)) == Fraction(34135130165539, 163091166664200)


def test_dlss_chain_internal_consistency():
    # the b coefficients produced by the chain must satisfy the
    # square-decomposition constraint b4 b7 = 2 b2 b12 + b7^3 / (4 b12)
    # that defined c1 in the first place
    for c3 in (Fraction(0), Fraction(-29, 1000), Fraction(1, 7)):
        rep = dlss_chain(c3, Fraction(17, 172))
        lhs = rep.b4 * rep.b7
        rhs = 2 * rep.b2 * rep.b12 + rep.b7**3 / (4 * rep.b12)
        assert lhs == rhs


def test_dlss_chain_residual_window():
    rep = dlss_chain(Fraction(-29, 1000), Fraction(17, 172))
    assert Fraction(4, 1000) < rep.p < Fraction(5, 1000)
    assert isinstance(rep.p, Fraction)


def test_dlss_chain_float_input_is_exact():
    # a float converts to the Fraction of its exact value, so a float input
    # gives the exact chain of that value, not a rounded float chain
    rep = dlss_chain(-0.029, 17 / 172)
    assert rep == dlss_chain(Fraction(-0.029), Fraction(17 / 172))
    values = [getattr(rep, f.name) for f in fields(rep) if f.name != "a"]
    assert all(isinstance(v, Fraction) for v in values + list(rep.a))
    assert Fraction(4, 1000) < rep.p < Fraction(5, 1000)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call, name", [
    (lambda x: dlss_chain(x, Fraction(17, 172)), "c3"),
    (lambda x: dlss_chain(Fraction(0), x), "c8"),
    (dlss_c1_of_c3, "c3"),
    (dlss_b12_derivative, "c8"),
], ids=["chain-c3", "chain-c8", "c1_of_c3", "b12_derivative"])
def test_dlss_chain_names_a_non_finite_input(call, name, value):
    # Fraction raised OverflowError for +-inf, and for NaN a ValueError
    # that named no argument
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        call(value)


# -- masks -----------------------------------------------------------------------

def test_emit_mask_1d_matches_strip():
    mask = emit_mask("pme0", (0.5, 4.0), (0.5, 4.0), 8, 8, d=1, c_rk=1.0)
    for i, a in enumerate(mask.alphas):
        for j, b in enumerate(mask.betas):
            assert mask.member[i, j] == (-2.0 < a - b < 1.0)


def test_emit_mask_d2_matches_pointwise():
    mask = emit_mask("pme0", (0.8, 2.0), (0.8, 2.0), 3, 3, d=2, c_rk=1.0)
    for i, a in enumerate(mask.alphas):
        for j, b in enumerate(mask.betas):
            ok, _ = r0_membership(RegionQuery(float(a), float(b), 2, 1.0))
            assert mask.member[i, j] == ok


def test_emit_mask_pme1_nonempty():
    mask = emit_mask("pme1", (0.5, 4.0), (0.5, 4.0), 8, 8)
    assert mask.member.any()


def test_mask_csv_layout():
    mask = emit_mask("pme0", (1.0, 2.0), (1.0, 2.0), 2, 2, d=1, c_rk=0.0)
    lines = mask.to_csv().strip().split("\n")
    assert lines[0] == "alpha,beta,member,witness_c1,witness_c2,witness_c3"
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_emit_mask_validation():
    with pytest.raises(ValueError):
        emit_mask("nope", (0.5, 1.0), (0.5, 1.0), 2, 2)
    with pytest.raises(ValueError):
        emit_mask("pme0", (0.5, 1.0), (0.5, 1.0), 0, 2)


@pytest.mark.parametrize("steps", [(2.5, 2), (2, 2.5)])
def test_emit_mask_step_counts_must_be_integers(steps):
    with pytest.raises(ValueError, match="steps must be an integer of at least 1"):
        emit_mask("pme0", (0.5, 1.0), (0.5, 1.0), *steps)


def test_emit_mask_rejects_pme1_outside_its_definition():
    # the first-order region is defined for d = 1 and c_rk = 1 only, and
    # its exponents must be positive like every region query's
    with pytest.raises(ValueError, match="pme1"):
        emit_mask("pme1", (0.5, 1.0), (0.5, 1.0), 2, 2, d=3, c_rk=2.0)
    with pytest.raises(ValueError, match="pme1"):
        emit_mask("pme1", (0.5, 1.0), (0.5, 1.0), 2, 2, d=1, c_rk=0.0)
    with pytest.raises(ValueError, match="positive"):
        emit_mask("pme1", (-1.0, 1.0), (0.5, 1.0), 2, 2)


# -- query validation --------------------------------------------------------------

def test_region_query_validation():
    with pytest.raises(ValueError):
        RegionQuery(-1.0, 1.0)
    with pytest.raises(ValueError):
        RegionQuery(1.0, 1.0, 1, 0.5)
    with pytest.raises(ValueError):
        RegionQuery(1.0, 1.0, 0, 1.0)


@pytest.mark.parametrize("name, build, value", range_cases(
    # an infinite alpha reached certify_r0, whose Fraction raised OverflowError
    ("alpha", lambda v: RegionQuery(v, 1.0), 0.0, False, "RegionQuery.alpha"),
    ("beta", lambda v: RegionQuery(1.0, v), 0.0, False, "RegionQuery.beta"),
    # an infinite end gave NaN nodes, which RegionQuery blamed on their sign
    ("alpha_min", lambda v: emit_mask("pme0", (v, 1.0), (0.5, 1.0), 2, 2, d=2),
     0.0, False),
    ("alpha_max", lambda v: emit_mask("pme0", (0.5, v), (0.5, 1.0), 2, 2, d=2),
     0.0, False),
    ("beta_min", lambda v: emit_mask("pme0", (0.5, 1.0), (v, 1.0), 2, 2, d=2),
     0.0, False),
    ("beta_max", lambda v: emit_mask("pme0", (0.5, 1.0), (0.5, v), 2, 2, d=2),
     0.0, False),
    # a NaN or negative exponent read as a non-member, an infinite one made
    # certify_r1's Fraction raise OverflowError
    ("alpha", lambda v: r1_membership(v, 1.0), 0.0, False, "r1_membership.alpha"),
    ("beta", lambda v: r1_membership(1.0, v), 0.0, False, "r1_membership.beta"),
    ("alpha", lambda v: certify_r1(v, 1.0, r1_membership(1.0, 1.0)[1]), 0.0, False,
     "certify_r1.alpha"),
    ("beta", lambda v: certify_r1(1.0, v, r1_membership(1.0, 1.0)[1]), 0.0, False,
     "certify_r1.beta"),
    # Fraction raised OverflowError on an infinite coefficient, its own
    # unnamed ValueError on a NaN; F must also be positive
    *[(name, lambda v, k=k: quad_form_nonneg(*[v if i == k else 1.0 for i in range(6)]),
       0.0 if name == "F" else -np.inf, False, f"quad_form_nonneg.{name}")
      for k, name in enumerate("ABCDEF")],
    # a NaN c_rk gave all-NaN rows with every flag 0
    ("c_rk", lambda v: scalar_conditions(0.0, 1.0, [1.0, 2.0], 1, v),
     -np.inf, False, "scalar_conditions.c_rk"),
    # a NaN exponent gave all-NaN rows, an infinite beta RuntimeWarnings too,
    # and beta <= 0 a degenerate table
    ("alpha", lambda v: scalar_conditions(v, 2.0, [1.0, 2.0], 1, 1.0),
     -np.inf, False, "scalar_conditions.alpha"),
    ("beta", lambda v: scalar_conditions(1.0, v, [1.0, 2.0], 1, 1.0),
     0.0, False, "scalar_conditions.beta"),
    # a witness coordinate went straight to Fraction: OverflowError on an
    # infinity, Fraction's own unnamed ValueError on a NaN
    ("c1", lambda v: certify_r0(RegionQuery(1.0, 1.0, 2, 1.0), Witness(v, 0.0)),
     -np.inf, False, "certify_r0.c1"),
    ("c2", lambda v: certify_r0(RegionQuery(1.0, 1.0, 2, 1.0), Witness(0.0, v)),
     -np.inf, False, "certify_r0.c2"),
    ("c2", lambda v: certify_r1(1.0, 1.0, Witness(-1.0, v, 0.0)), -np.inf, False,
     "certify_r1.c2"),
    ("c3", lambda v: certify_r1(1.0, 1.0, Witness(-1.0, 1.0, v)), -np.inf, False,
     "certify_r1.c3"),
) + [
    # a witness without c3 made certify_r1 raise TypeError
    pytest.param("c3", lambda v: certify_r1(1.0, 1.0, Witness(-1.0, 1.0, v)),
                 None, id="certify_r1.c3=None"),
])
def test_region_reals_are_range_checked(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(value)


@pytest.mark.parametrize("a", [0.1, 0.2])
@pytest.mark.parametrize("d", [3, 4])
def test_diagonal_takes_the_lambda_zero_witness(a, d):
    # at c1 = c2 = 0 the Gram determinant is -c_rk^2 (beta - alpha)^2 / 4, so
    # on the diagonal the lambda = 0 witness certifies (exactly 0) where the
    # search over the open interval finds none
    q = RegionQuery(a, a, d, 1.0)
    zero = Witness(c1=0.0, c2=0.0)
    assert certify_r0(q, zero) == 0.0
    assert r0_membership(q) == (True, zero)


def test_lambda_zero_witness_on_and_off_the_diagonal():
    zero = Witness(c1=0.0, c2=0.0)
    mask = emit_mask("pme0", (0.1, 4.0), (0.1, 4.0), 21, 21, d=3)
    assert mask.member[0, 0] and mask.witnesses[(0, 0)] == zero
    assert certify_r0(RegionQuery(0.1, 0.1 + 2.0**-40, 3, 1.0), zero) < 0.0


@pytest.mark.parametrize("d", [2.5, True])
def test_region_query_dimension_must_be_an_integer(d):
    with pytest.raises(ValueError, match="d must be an integer of at least 1"):
        RegionQuery(1.0, 1.0, d)


def test_poly_evaluators_match_direct_sums():
    rng = np.random.default_rng(41)
    eta = rng.normal(size=(10, 4))
    coeffs = tuple(rng.normal(size=6))
    vals, scales = eval_q_poly(eta, coeffs)
    b1, b2, b3, b4, b5, b6 = coeffs
    eg, el, er, es = eta[:, 0], eta[:, 1], eta[:, 2], eta[:, 3]
    direct = (b1 * el**2 + b2 * el * eg**2 + b3 * eg**4 + b4 * es * eg**2
              + b5 * er**2 + b6 * es**2)
    assert np.allclose(vals, direct, rtol=1e-13)
    assert np.all(scales > 0.0)
    xi = rng.normal(size=(10, 3))
    coeffs7 = tuple(rng.normal(size=7))
    vals7, _ = eval_p_poly(xi, coeffs7)
    c = coeffs7
    x1, x2, x3 = xi[:, 0], xi[:, 1], xi[:, 2]
    direct7 = (c[0] * x1**6 + c[1] * x1**4 * x2 + c[2] * x1**3 * x3
               + c[3] * x1**2 * x2**2 + c[4] * x1 * x2 * x3 + c[5] * x2**3
               + c[6] * x3**2)
    assert np.allclose(vals7, direct7, rtol=1e-13)
