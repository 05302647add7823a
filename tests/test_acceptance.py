"""Acceptance suite: one test per release criterion, one PASS line each.

The heavy porous-medium reproduction runs (four schemes, Barenblatt datum,
n = 64, tau = 1e-4, Newton tolerance 1e-15) are shared between the
dissipation and profile criteria through module-scoped fixtures.
"""

import numpy as np
import pytest

from rkentropy.cli import barenblatt_profile
from rkentropy.entropy import (
    ExperimentPower,
    FirstOrder,
    LogEntropySum,
    PowerEntropy,
    d2g_at_zero,
    evaluate,
    fit_rate_series,
    i0,
    i1,
    production,
    profile_g,
)
from rkentropy.operators import Grid1D, LinearSystem, PorousMedium, StateField
from rkentropy.regions import (
    RegionQuery,
    certify_r0,
    certify_r1,
    dlss_b12,
    dlss_b12_derivative,
    dlss_chain,
    r0_1d,
    r0_strip_discriminant,
    r1_membership,
    r0_membership,
)
from rkentropy.stepping import NewtonConfig, backward_solve, run
from rkentropy.tableau import get_scheme
from fractions import Fraction

SCHEMES = ["explicit_euler", "implicit_euler", "trapezoidal", "simpson"]
TABLEAU_SCHEMES = ["explicit_euler", "implicit_euler", "trapezoidal"]


@pytest.fixture(scope="module")
def reproduction_runs():
    """Four 100-step trajectories from the Barenblatt datum (tau = 1e-4)."""
    grid = Grid1D(64, 1.0)
    problem = PorousMedium(grid, 2.0)
    u0 = StateField.scalar(barenblatt_profile(grid.x(), 2.0, 0.01, 0.25))
    cfg = NewtonConfig(tol=1e-15)
    trajectories = {
        name: run(problem, get_scheme(name), u0, 1e-4, 0.01, cfg)
        for name in SCHEMES
    }
    return problem, trajectories, cfg


@pytest.fixture(scope="module")
def smooth_pme32():
    grid = Grid1D(32, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    return problem, u


def test_criterion_01_scheme_constants():
    values = {name: get_scheme(name).c_rk_effective for name in SCHEMES}
    assert values["explicit_euler"] == 2.0
    assert values["implicit_euler"] == 0.0
    assert values["trapezoidal"] == 1.0
    assert values["simpson"] == 1.0
    print("PASS criterion 1: scheme constants {explicit: 2, implicit: 0, "
          "trapezoidal: 1} exact")


def test_criterion_02_strip_closed_forms():
    grid = np.linspace(0.05, 5.0, 100)
    checked = skipped = 0
    for c_rk in (0.0, 1.0, 2.0):
        for a in grid:
            for b in grid:
                z = a - b
                member = r0_1d(RegionQuery(float(a), float(b), 1, c_rk))
                if c_rk == 0.0:
                    expected = True
                else:
                    expected = -(c_rk + 1.0) / (2.0 * c_rk - 1.0) < z < 1.0
                assert member == expected
                disc = r0_strip_discriminant(float(a), float(b), c_rk)
                scale = max(1.0,
                            ((c_rk - 2.0) * z + 2.0 * (c_rk + 1.0)) ** 2,
                            9.0 * c_rk**2 * z**2)
                if abs(disc) <= 1e-12 * scale:
                    skipped += 1  # strip boundary
                    continue
                assert member == (disc > 0.0), (a, b, c_rk)
                checked += 1
    print(f"PASS criterion 2: 1D strips exact on 100x100 grid, discriminant "
          f"path agrees at {checked} off-boundary cells ({skipped} boundary)")


def test_criterion_03_r0_certified_membership():
    grid = np.linspace(0.2, 5.0, 21)
    accepted = 0
    for d in (2, 10):
        for c_rk in (0.0, 1.0, 2.0):
            q11 = RegionQuery(1.0, 1.0, d, c_rk)
            ok, w = r0_membership(q11)
            assert ok, (d, c_rk)
            for a in grid:
                for b in grid:
                    q = RegionQuery(float(a), float(b), d, c_rk)
                    ok, w = r0_membership(q)
                    if ok:
                        accepted += 1
                        assert certify_r0(q, w) >= -1e-9, (a, b, d, c_rk)
    print(f"PASS criterion 3: {accepted} accepted points certified by an "
          f"exact LDL^T certificate; (1,1) accepted for d in {{2,10}}, "
          f"all c_rk")


def test_criterion_04_r1_region():
    members = 0
    for a in np.linspace(0.5, 4.0, 15):
        for b in np.linspace(0.5, 4.0, 15):
            ok, w = r1_membership(float(a), float(b))
            if not (-2.0 <= a - 2.0 * b <= 1.0):
                assert not ok, (a, b)
                continue
            if ok:
                members += 1
                assert certify_r1(float(a), float(b), w) >= -1e-9, (a, b)
    assert members > 0
    print(f"PASS criterion 4: first-order region nonempty ({members} members "
          f"certified by an exact LDL^T certificate), slope gate rejections "
          f"verified")


def test_criterion_05_dlss_constants():
    c8 = Fraction(17, 172)
    assert dlss_b12(c8) == Fraction(20, 129)
    assert dlss_b12_derivative(c8) == 0
    p = dlss_chain(Fraction(-29, 1000), c8).p
    assert Fraction(4, 1000) < p < Fraction(5, 1000)
    print(f"PASS criterion 5: b12(17/172) = 20/129 exactly, stationary, "
          f"p(-0.029) = {float(p):.6f} in (0.004, 0.005)")


def test_criterion_06_dissipation_run(reproduction_runs):
    problem, trajectories, _ = reproduction_runs
    e = ExperimentPower(5.0)
    dx = problem.grid.dx
    for name, traj in trajectories.items():
        entropies = np.array(
            [evaluate(e, state, problem.grid) for state in traj.states])
        slack = 1e-15 * max(1.0, abs(entropies[0]))
        assert np.all(np.diff(entropies) <= slack), name
        masses = np.array([state.flat.sum() * dx for state in traj.states])
        assert np.max(np.abs(masses - masses[0])) <= 1e-10, name
    print("PASS criterion 6: H_d nonincreasing over 100 steps for all four "
          "schemes, mass drift <= 1e-10")


def test_criterion_07_profile_negativity(reproduction_runs):
    problem, trajectories, cfg = reproduction_runs
    e = ExperimentPower(5.0)
    count = 0
    for name, traj in trajectories.items():
        scheme = get_scheme(name)
        for step in (10, 30, 60):  # t = 0.001, 0.003, 0.006
            prof = profile_g(e, problem, scheme, traj.states[step], 1e-3, 100,
                             cfg, base_time=traj.times[step])
            sel = (prof.taus > 0) & (prof.taus <= 3e-4 + 1e-12)
            sel[0] = sel[-1] = False
            assert np.all(np.isfinite(prof.d2g[sel])), (name, step)
            assert np.all(prof.d2g[sel] < 0.0), (name, step)
            assert np.all(prof.q[sel] < 0.0), (name, step)
            count += 1
    print(f"PASS criterion 7: d2G < 0 and Q < 0 on tau <= 3e-4 for "
          f"{count} (scheme, time) profiles")


def _richardson_errors(problem, scheme, u, e, target, cfg, levels):
    errors = []
    for h in levels:
        prof = profile_g(e, problem, scheme, u, 4.0 * h, 4, cfg)
        errors.append(abs(d2g_at_zero(prof) + target))
    return errors


def test_criterion_08_cross_oracle(reproduction_runs, smooth_pme32):
    problem, u = smooth_pme32
    cfg = NewtonConfig(tol=1e-15)
    levels = [5e-5, 2.5e-5, 1.25e-5]
    e0 = PowerEntropy(1.0)
    e1 = FirstOrder(1.0)
    for name in TABLEAU_SCHEMES:
        scheme = get_scheme(name)
        for e, integral, label in ((e0, i0, "i0"), (e1, i1, "i1")):
            target = integral(e, problem, u, scheme.c_rk_effective)
            errs = _richardson_errors(problem, scheme, u, e, target, cfg,
                                      levels)
            floor = 1e-6 * abs(target)
            if errs[0] <= floor and errs[1] <= floor:
                # the entropy gap is polynomial in tau for this scheme and
                # functional (one-stage implicit with quadratic entropy), so
                # the identity holds to solver noise at every grid spacing
                continue
            for k in range(len(levels) - 1):
                ratio = errs[k] / errs[k + 1]
                assert 3.5 <= ratio <= 4.5, (name, label, errs)
    print("PASS criterion 8: extrapolated d2G(0) matches -i0/-i1 with "
          "second-order Richardson ratios in 4 +- 0.5")


def test_criterion_09_backward_expansion(smooth_pme32):
    problem, u = smooth_pme32
    cfg = NewtonConfig(tol=1e-15)
    au = problem.apply_flat(u.flat)
    daa = problem.deriv_flat(u.flat, au)
    taus = [2e-4, 1e-4, 5e-5]
    for name in ("trapezoidal", "implicit_euler"):
        scheme = get_scheme(name)

        def remainder(tau):
            v = backward_solve(problem, scheme, u, tau, cfg)
            return np.max(np.abs(
                v.flat - u.flat - tau * au
                - 0.5 * tau**2 * scheme.c_rk_effective * daa))

        rem = [remainder(t) for t in taus]
        floor = 1000.0 * cfg.tol * max(1.0, np.max(np.abs(u.flat)))
        if all(r <= floor for r in rem):
            # the expansion terminates for the one-stage implicit scheme
            # (previous state is exactly u + tau A[u]), so the remainder
            # sits at solver noise for every tau
            continue
        for k in range(len(taus) - 1):
            ratio = rem[k] / rem[k + 1]
            assert 7.0 <= ratio <= 9.0, (name, rem)
    print("PASS criterion 9: third-order remainder ratio of the backward "
          "expansion in 8 +- 1 (trapezoidal); implicit Euler exact to "
          "solver noise")


def test_criterion_10_linear_system():
    grid = Grid1D(64, 1.0)
    problem = LinearSystem(grid, 1.0, 1.0, 1.0)
    scheme = get_scheme("trapezoidal")
    cfg = NewtonConfig(tol=1e-13)
    rng = np.random.default_rng(7)
    u0 = StateField([rng.uniform(0.5, 1.5, 64), rng.uniform(0.5, 1.5, 64)])
    traj = run(problem, scheme, u0, 1e-4, 0.02, cfg)
    assert len(traj.states) == 201
    e = LogEntropySum()
    entropies = np.array(
        [evaluate(e, state, problem.grid) for state in traj.states])
    slack = 1e-14 * max(1.0, abs(entropies[0]))
    assert np.all(np.diff(entropies) <= slack)
    i0_min = min(i0(e, problem, state, 1.0) for state in traj.states[1:])
    assert i0_min > 0.0
    # equal initial species stay equal
    same = StateField([u0.values[0], u0.values[0].copy()])
    traj_eq = run(problem, scheme, same, 1e-4, 0.02, cfg)
    gap = max(np.max(np.abs(s.values[0] - s.values[1])) for s in traj_eq.states)
    assert gap <= 1e-12
    print(f"PASS criterion 10: system entropy nonincreasing over 200 steps, "
          f"min i0 = {i0_min:.3f} > 0, species symmetry gap {gap:.1e}")


def test_criterion_11_implicit_euler_any_tau():
    grid = Grid1D(64, 1.0)
    problem = PorousMedium(grid, 2.0)
    u0 = StateField.scalar(barenblatt_profile(grid.x(), 2.0, 0.01, 0.25))
    scheme = get_scheme("implicit_euler")
    cfg = NewtonConfig(tol=1e-12)
    traj = run(problem, scheme, u0, 1e-4, 3e-4, cfg)
    u = traj.states[-1]
    e = PowerEntropy(1.0)  # convex on all of R, safe for huge backward steps
    prod = production(e, problem, u)
    h_u = evaluate(e, u, problem.grid)
    for tau in (1e-4, 1e-2, 1.0):
        v = backward_solve(problem, scheme, u, tau, cfg)
        g = h_u - evaluate(e, v, problem.grid)
        slack = 1e-12 * max(1.0, abs(g))
        assert g <= tau * prod + slack, tau
        # convexity gives the sharper signed form as well
        assert g <= -tau * prod + slack, tau
    print("PASS criterion 11: implicit-Euler entropy gap bounded by the "
          "production for tau in {1e-4, 1e-2, 1}")


def test_criterion_12_decay_rate_fit():
    kappa, tau = 3.0, 1e-3
    k = np.arange(200)
    values = 2.5 * (1.0 + kappa * tau) ** (-k.astype(float))
    rate = fit_rate_series(k * tau, values)
    target = np.log(1.0 + kappa * tau) / tau
    rel = abs(rate - target) / target
    assert rel <= 1e-10
    print(f"PASS criterion 12: geometric sequence rate recovered to "
          f"{rel:.2e} relative")
