import ctypes
import glob
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from range_cases import range_cases
from rkentropy import stepping, tableau
from rkentropy.cli import barenblatt_profile
from rkentropy.entropy import ExperimentPower, PowerEntropy, profile_g
from rkentropy.operators import (
    Dlss,
    DomainError,
    Grid1D,
    LinearSystem,
    PorousMedium,
    ScalarDiffusion,
    StateField,
)
from rkentropy.stepping import (
    NewtonConfig,
    StepError,
    _band_solver,
    _layout,
    _step,
    backward_solve,
    run,
    step_count,
)
from rkentropy.tableau import ButcherTableau, Scheme, get_scheme

ALL_SCHEMES = ["explicit_euler", "implicit_euler", "trapezoidal", "simpson"]


@pytest.fixture
def pme32():
    grid = Grid1D(32, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    return problem, u


def test_explicit_euler_is_one_apply(pme32):
    problem, u = pme32
    tau = 1e-4
    got = run(problem, get_scheme("explicit_euler"), u, tau, tau).states[-1]
    want = u.flat - tau * problem.apply_flat(u.flat)
    assert np.array_equal(got.flat, want)


def test_constant_state_is_fixed_point(pme32):
    problem, _ = pme32
    c = StateField.scalar(np.full(problem.grid.n, 0.8))
    for name in ALL_SCHEMES:
        out = run(problem, get_scheme(name), c, 1e-3, 1e-3).states[-1]
        assert np.array_equal(out.values, c.values), name


def test_step_mass_bound(pme32):
    problem, u = pme32
    cfg = NewtonConfig(tol=1e-12)
    tau = 1e-4
    dx = problem.grid.dx
    for name in ALL_SCHEMES:
        out = run(problem, get_scheme(name), u, tau, tau, cfg).states[-1]
        drift = abs((out.flat - u.flat).sum()) * dx
        assert drift <= 10.0 * cfg.tol * tau, name


def _smooth_random_field(grid, rng, amp=0.1, modes=3):
    # backward solvability is local in tau: white-noise states leave the
    # solvable neighbourhood at tau near dx^2, so random fields are drawn
    # from a few smooth modes with bounded amplitude
    field = np.ones(grid.n)
    x = grid.x()
    for k in range(1, modes + 1):
        field += rng.uniform(0.0, amp) * np.cos(
            2.0 * np.pi * k * x + rng.uniform(0.0, 2.0 * np.pi))
    return StateField.scalar(field)


def test_round_trip(pme32):
    problem, _ = pme32
    cfg = NewtonConfig(tol=1e-12)
    for seed in range(5):
        u = _smooth_random_field(problem.grid, np.random.default_rng(seed))
        for name in ALL_SCHEMES:
            scheme = get_scheme(name)
            for tau in (1e-4, 1e-3):
                v = backward_solve(problem, scheme, u, tau, cfg)
                u_again = run(problem, scheme, v, tau, tau, cfg).states[-1]
                err = np.max(np.abs(u_again.flat - u.flat))
                assert err <= 100.0 * cfg.tol, (name, tau, err)


def test_backward_tau_zero_is_identity(pme32):
    problem, u = pme32
    for name in ALL_SCHEMES:
        v = backward_solve(problem, get_scheme(name), u, 0.0)
        assert np.array_equal(v.values, u.values)


def test_cold_solves_start_at_the_tau_to_zero_limit():
    # W0 = -tau (B 1) A[x]: B 1 = c forward (the row sums of a, bit for bit)
    # and c - 1 backward on the kept rows, so a cold backward solve starts
    # at v = u + tau A[u], within O(tau^2) of its root: one Newton iteration
    # at tau = 1e-5 where a start at v = u took two
    for scheme in tableau.registry().values():
        t = scheme.tableau
        for backward in (False, True):
            rel = stepping._relation(t, backward)
            kept = [int(np.flatnonzero(rel.C[:, q] == 1.0)[0])
                    for q in range(rel.C.shape[1])]
            row_sums = rel.B.sum(axis=1)
            if backward:
                assert np.allclose(row_sums, t.c[kept] - 1.0, rtol=0.0,
                                   atol=2 * np.finfo(float).eps), scheme.name
            else:
                assert np.array_equal(row_sums, t.a.sum(axis=1)[kept]), scheme.name
    grid = Grid1D(64, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = barenblatt_profile(grid.x(), 2.0, 0.01, 0.25)
    for name in ("explicit_euler", "trapezoidal", "simpson"):
        _, norms, _ = _step(problem, get_scheme(name), u, 1e-5, NewtonConfig(),
                            backward=True)
        assert len(norms) - 1 == 1, (name, norms)


def test_backward_implicit_euler_closed_form(pme32):
    problem, u = pme32
    tau = 1e-4
    v = backward_solve(problem, get_scheme("implicit_euler"), u, tau,
                       NewtonConfig(tol=1e-14))
    want = u.flat + tau * problem.apply_flat(u.flat)
    assert np.max(np.abs(v.flat - want)) <= 1e-12


def test_backward_slope_is_apply(pme32):
    # v(tau) = u + tau A[u] + O(tau^2): the slope error halves with tau
    # at first order (trapezoidal has a nonzero second-order term).
    problem, u = pme32
    scheme = get_scheme("trapezoidal")
    cfg = NewtonConfig(tol=1e-14)
    au = problem.apply_flat(u.flat)

    def slope_err(tau):
        v = backward_solve(problem, scheme, u, tau, cfg)
        return np.max(np.abs((v.flat - u.flat) / tau - au))

    e1, e2 = slope_err(2e-4), slope_err(1e-4)
    assert 1.6 <= e1 / e2 <= 2.4


def test_run_single_step(pme32):
    problem, u = pme32
    tau = 1e-4
    scheme = get_scheme("implicit_euler")
    traj = run(problem, scheme, u, tau, tau)
    assert len(traj.states) == 2
    assert np.array_equal(traj.states[0].values, u.values)
    again, _, _ = _step(problem, scheme, u.flat, tau, NewtonConfig())
    assert np.array_equal(traj.states[1].flat, again)
    assert traj.times[1] == tau
    assert len(traj.newton_iters) == 1


def test_run_constant_initial(pme32):
    problem, _ = pme32
    c = StateField.scalar(np.full(problem.grid.n, 1.1))
    traj = run(problem, get_scheme("trapezoidal"), c, 1e-4, 1e-3)
    for state in traj.states:
        assert np.array_equal(state.values, c.values)


def test_run_mass_conservation(pme32):
    problem, u = pme32
    cfg = NewtonConfig(tol=1e-12)
    tau = 1e-4
    traj = run(problem, get_scheme("trapezoidal"), u, tau, 2e-3, cfg)
    dx = problem.grid.dx
    m0 = u.flat.sum() * dx
    for k, state in enumerate(traj.states):
        drift = abs(state.flat.sum() * dx - m0)
        assert drift <= 10.0 * max(k, 1) * cfg.tol * tau


def test_explicit_euler_bit_reproducible(pme32):
    problem, u = pme32
    scheme = get_scheme("explicit_euler")
    t1 = run(problem, scheme, u, 1e-4, 1e-3)
    t2 = run(problem, scheme, u, 1e-4, 1e-3)
    for s1, s2 in zip(t1.states, t2.states):
        assert np.array_equal(s1.values, s2.values)


def test_newton_failure_surfaces(pme32):
    problem, u = pme32
    cfg = NewtonConfig(tol=1e-15, max_iter=2)
    with pytest.raises(StepError) as exc:
        run(problem, get_scheme("implicit_euler"), u, 0.5, 0.5, cfg)
    assert exc.value.residual > 0.0
    assert exc.value.iterations == 2


def test_run_failure_carries_step_index(pme32):
    problem, u = pme32
    cfg = NewtonConfig(tol=1e-15, max_iter=2)
    with pytest.raises(StepError, match="step 1"):
        run(problem, get_scheme("implicit_euler"), u, 0.5, 1.0, cfg)


def test_two_species_stepping():
    grid = Grid1D(16, 1.0)
    problem = LinearSystem(grid, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(13)
    u = StateField([rng.uniform(0.5, 1.5, 16), rng.uniform(0.5, 1.5, 16)])
    out = run(problem, get_scheme("trapezoidal"), u, 1e-4, 1e-4).states[-1]
    assert out.species == 2
    total0 = u.flat.sum() * grid.dx
    assert abs(out.flat.sum() * grid.dx - total0) <= 1e-12


def test_invalid_arguments(pme32):
    problem, u = pme32
    with pytest.raises(ValueError):
        run(problem, get_scheme("implicit_euler"), u, 0.0, 0.0)
    with pytest.raises(ValueError):
        backward_solve(problem, get_scheme("implicit_euler"), u, -1.0)
    with pytest.raises(ValueError):
        run(problem, get_scheme("implicit_euler"), u, 1e-4, 1e-5)
    with pytest.raises(ValueError):
        NewtonConfig(tol=-1.0)
    for bad in (np.inf, np.nan):
        # not a StepError, which profile_g would take for a truncation; an
        # infinite tol would return the unconverged predictor
        with pytest.raises(ValueError, match="positive and finite"):
            run(problem, get_scheme("trapezoidal"), u, bad, bad)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            backward_solve(problem, get_scheme("trapezoidal"), u, bad)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            NewtonConfig(tol=bad)


_PME = PorousMedium(Grid1D(8), 2.0)
_U = StateField.scalar(1.0 + 0.5 * np.cos(2.0 * np.pi * _PME.grid.x()))


@pytest.mark.parametrize("name, build, value", range_cases(
    ("tol", lambda v: NewtonConfig(tol=v), 0.0, False),
    ("tau", lambda v: run(_PME, get_scheme("trapezoidal"), _U, v, v), 0.0, False,
     "forward_step"),  # one forward step
    ("tau", lambda v: backward_solve(_PME, get_scheme("trapezoidal"), _U, v), 0.0,
     True, "backward_solve"),
    ("tau", lambda v: step_count(v, 1.0), 0.0, False, "step_count"),
    ("t_end", lambda v: step_count(1e-4, v), 1e-4, True),  # at least one step
))
def test_stepping_reals_are_range_checked(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(value)


def test_step_count_rejects_an_overflowing_quotient():
    # each time is finite, but the count is not: int(ceil(inf)) once raised
    # an OverflowError
    with pytest.raises(ValueError, match=r"^t_end / tau must be finite, got inf$"):
        step_count(1e-300, 1e300)
    assert step_count(1e-300, 1e-298) == 100


@pytest.mark.parametrize("bad", [0, -2, 2.5, float("inf"), float("nan"), True,
                                 "5", None])
def test_max_iter_must_be_an_integer(bad):
    # a float failed in range() at the first solve, and True ran as 1
    with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
        NewtonConfig(max_iter=bad)


def test_expansion_constant_matches_scheme(pme32):
    # v(tau) - u - tau A[u] has leading term (tau^2/2) c_rk DA[u](A[u});
    # check the coefficient by a two-level fit for each tableau scheme.
    problem, u = pme32
    cfg = NewtonConfig(tol=1e-15)
    au = problem.apply_flat(u.flat)
    daa = problem.deriv_flat(u.flat, au)
    for name in ["explicit_euler", "trapezoidal"]:
        scheme = get_scheme(name)
        tau = 1e-5
        v = backward_solve(problem, scheme, u, tau, cfg)
        second = 2.0 * (v.flat - u.flat - tau * au) / tau**2
        err = np.max(np.abs(second - scheme.c_rk_effective * daa))
        scale = max(np.max(np.abs(daa)), 1.0)
        assert err <= 0.05 * scale, (name, err, scale)


def test_run_domain_error_names_step_and_time():
    grid = Grid1D(32, 1.0)
    problem = Dlss(grid)
    u = StateField.scalar(1.0 + 0.9 * np.cos(2.0 * np.pi * grid.x()))
    with pytest.raises(DomainError, match=r"step 1 \(t=0 -> 0\.01\) failed: "):
        run(problem, get_scheme("implicit_euler"), u, 1e-2, 1e-2)


def _smooth_dlss32():
    grid = Grid1D(32, 1.0)
    u = StateField.scalar(1.0 + 0.2 * np.cos(2.0 * np.pi * grid.x()))
    return Dlss(grid), u


@pytest.mark.parametrize("case", ["pme", "dlss"])
def test_simpson_satisfies_the_composite_rule(pme32, case):
    problem, u = pme32 if case == "pme" else _smooth_dlss32()
    tau = 1e-3 if case == "pme" else 1e-6
    cfg = NewtonConfig(tol=1e-12)
    scheme = get_scheme("simpson")

    def simpson_residual(u0, u1):
        a = problem.apply_flat
        return u1 - u0 + tau / 6.0 * (a(u0) + 4.0 * a(0.5 * (u0 + u1)) + a(u1))

    u1 = run(problem, scheme, u, tau, tau, cfg).states[-1]
    v = backward_solve(problem, scheme, u, tau, cfg)
    for u_old, u_new in ((u.flat, u1.flat), (v.flat, u.flat)):
        assert np.max(np.abs(simpson_residual(u_old, u_new))) <= 100.0 * cfg.tol


def test_newton_solves_one_state_or_nothing(pme32):
    # stage rows that vanish or repeat a larger row are eliminated exactly:
    # every built-in scheme solves for one state-sized W, except the
    # closed-form forward explicit Euler and backward implicit Euler
    problem, u = pme32
    closed_form = {("explicit_euler", False), ("implicit_euler", True)}
    for name in ALL_SCHEMES:
        for backward in (False, True):
            _, _, w = _step(problem, get_scheme(name), u.flat, 1e-4,
                            NewtonConfig(), backward=backward)
            want = 0 if (name, backward) in closed_form else u.flat.size
            assert w.size == want, (name, backward)


def _gauss2():
    """The two-stage Gauss scheme: a tableau outside the registry, which runs
    as a Scheme of its own."""
    r = np.sqrt(3.0) / 6.0
    return Scheme("gauss2", ButcherTableau(
        a=[[0.25, 0.25 - r], [0.25 + r, 0.25]], b=[0.5, 0.5],
        c=[0.5 - r, 0.5 + r]))


def test_registered_heun_is_its_closed_form(pme32):
    problem, u = pme32
    heun = Scheme("heun", ButcherTableau(
        a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5], c=[0.0, 1.0]))
    tau = 1e-4
    a0 = problem.apply_flat(u.flat)
    want = u.flat - tau / 2.0 * (a0 + problem.apply_flat(u.flat - tau * a0))
    got = run(problem, heun, u, tau, tau).states[-1]
    assert np.array_equal(got.flat, want)


def test_registered_gauss_keeps_every_stage(pme32):
    problem, u = pme32
    gauss = _gauss2()
    cfg = NewtonConfig(tol=1e-12)
    tau = 1e-3
    for backward in (False, True):
        _, _, w = _step(problem, gauss, u.flat, tau, cfg, backward=backward)
        assert w.size == 2 * u.flat.size
    v = backward_solve(problem, gauss, u, tau, cfg)
    u_again = run(problem, gauss, v, tau, tau, cfg).states[-1]
    assert np.max(np.abs(u_again.flat - u.flat)) <= 100.0 * cfg.tol


def test_registered_gauss_on_a_two_species_system():
    # two kept stage rows times two species: four coupled blocks of bands
    grid = Grid1D(16, 1.0)
    problem = LinearSystem(grid, 1.0, 2.0, 0.7)
    rng = np.random.default_rng(17)
    u = StateField([rng.uniform(0.5, 1.5, 16), rng.uniform(0.5, 1.5, 16)])
    gauss = _gauss2()
    cfg = NewtonConfig(tol=1e-12)
    tau = 1e-3
    _, _, w = _step(problem, gauss, u.flat, tau, cfg, backward=True)
    assert w.size == 2 * u.flat.size
    v = backward_solve(problem, gauss, u, tau, cfg)
    u_again = run(problem, gauss, v, tau, tau, cfg).states[-1]
    assert np.max(np.abs(u_again.flat - u.flat)) <= 100.0 * cfg.tol


def test_singular_newton_matrix_is_a_step_error():
    # backward explicit Euler solves W = tau A[u + W]; for beta = 1 the
    # Newton matrix is I + tau D2, singular at tau = dx^2 / 2 on n = 4
    problem = PorousMedium(Grid1D(4, 1.0), 1.0)
    u = StateField.scalar([1.0, 2.0, 1.0, 3.0])
    with pytest.raises(StepError, match="singular Newton matrix at iteration 0"):
        backward_solve(problem, get_scheme("explicit_euler"), u, 1.0 / 32.0)


def test_non_finite_residual_stops_newton_at_once():
    # u^2 = 1e300 at one cell: the stencil overflows to nan in the first
    # residual, and Newton stops there instead of iterating max_iter times
    u = np.ones(16)
    u[3] = 1e150
    with np.errstate(all="ignore"), pytest.raises(
            StepError, match="residual nan at Newton iteration 0") as exc:
        run(PorousMedium(Grid1D(16, 1.0), 2.0), get_scheme("trapezoidal"),
            StateField.scalar(u), 1e-3, 1e-3)
    assert exc.value.iterations == 0


def test_overflowing_endpoint_is_a_step_error():
    # the closed-form steps skip Newton, so the endpoint itself is checked:
    # u^2 overflows in A, and u -/+ tau A[u] is no state
    grid = Grid1D(16, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = StateField.scalar(1e154 + 1e153 * np.cos(2.0 * np.pi * grid.x()))
    with np.errstate(all="ignore"):
        with pytest.raises(StepError, match="non-finite values"):
            run(problem, get_scheme("explicit_euler"), u, 1e-3, 1e-3)
        with pytest.raises(StepError, match="non-finite values"):
            backward_solve(problem, get_scheme("implicit_euler"), u, 1e-3)
        for name in ("implicit_euler", "trapezoidal"):
            prof = profile_g(ExperimentPower(1.0), problem, get_scheme(name), u,
                             1e-4, 4)
            assert prof.failed_index == 1, name
        # H[u] = 5.025e307 is finite though its cell sum overflows, so this
        # profile starts too; on a grid four times as long H[u] overflows, and
        # no profile starts from it
        prof = profile_g(PowerEntropy(1.0), problem, get_scheme("trapezoidal"), u,
                         1e-4, 4)
        assert prof.failed_index == 1
        longer = PorousMedium(Grid1D(16, 4.0), 2.0)
        with pytest.raises(DomainError, match="entropy overflows"):
            profile_g(PowerEntropy(1.0), longer, get_scheme("trapezoidal"), u, 1e-4, 4)


def test_fast_diffusion_run_raises_domain_error_not_a_warning():
    grid = Grid1D(32, 1.0)
    problem = PorousMedium(grid, 0.5)
    u = StateField.scalar(1.0 + 0.9 * np.cos(2.0 * np.pi * grid.x()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"step \d+ \(t=\S+ -> \S+\) failed: "
                                              r"porous medium with beta=0\.5"):
            run(problem, get_scheme("explicit_euler"), u, 1e-3, 0.1)


def test_non_integer_mobility_rejects_a_negative_cell():
    # beta = 1.5: u^0.5 has no real value below 0, so every kernel and both
    # directions of stepping raise where x**1.5 once gave a NaN residual
    grid = Grid1D(32, 1.0)
    problem = PorousMedium(grid, 1.5)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    u.values[0, 7] = -0.25
    scheme = get_scheme("implicit_euler")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: problem.apply_flat(u.flat),
                     lambda: problem.jacobian_flat(u.flat),
                     lambda: run(problem, scheme, u, 1e-4, 1e-4),
                     lambda: backward_solve(problem, scheme, u, 1e-4)):
            with pytest.raises(DomainError, match=r"porous medium with beta=1\.5 "
                               r"requires nonnegative values; cell 7 has u=-0\.25$"):
                call()


@pytest.mark.parametrize("blocks, offsets", [(1, (-1, 0, 1)), (2, (-1, 0, 1)),
                                             (4, (-1, 0, 1)),
                                             (2, (-2, -1, 0, 1, 2)),
                                             (1, (-2, -1, 0, 1, 2))])
def test_newton_matrix_is_a_narrow_cyclic_band(blocks, offsets):
    # folding the cells turns the cyclic band into a plain band whose
    # half-widths do not grow with n: O(n) storage and LU work
    reach = max(map(abs, offsets))
    bound = blocks * (2 * reach + 1) - 1
    for n in range(4, 41):
        kl, ku, scatter, order, rank = _layout(n, blocks, offsets)
        assert max(kl, ku) <= bound, n
        assert np.array_equal(order[rank], np.arange(blocks * n))
        ldab = 2 * kl + ku + 1
        assert scatter.size == blocks**2 * len(offsets) * n
        assert np.all(scatter < ldab * blocks * n)
        # every entry lands in the rows LAPACK reads (the top kl hold fill)
        assert np.all(scatter % ldab >= kl)
    assert kl == ku == bound  # e.g. 2 for PME, 4 for Dlss


def _initial_stages(problem, rel, u, tau):
    """Stage values g = x + C W at the tau -> 0 initial iterate of ``_step``."""
    w = (-tau * rel.B.sum(axis=1))[:, None] * problem.apply_flat(u.flat)
    return u.flat + rel.C @ w


def _dense_newton_matrix(problem, rel, g, tau):
    """I + tau sum_i (B[:, i] C[i]) (x) J(g_i), from the dense Jacobian."""
    r, m = rel.C.shape[1], g.shape[1]
    dense = np.eye(r * m)
    for i in _moving(rel):
        jac = problem.deriv_flat(g[i], np.eye(m)).T  # dense: one row per unit vector
        dense += tau * np.kron(np.outer(rel.B[:, i], rel.C[i]), jac)
    return dense


def _newton_update(problem, rel, jac, tau, rhs):
    """One Newton update as ``_step`` makes it: the band solver of the
    relation's rows and the problem's species, given the tau-scaled
    couplings and the moving stages' Jacobian bands."""
    coupling = tau * rel.coupling[:, :, None, :, None, None, None]
    solve = _band_solver(problem.grid.n, rel.C.shape[1], problem.species,
                         problem.offsets)
    return solve(coupling, jac, rhs)


def _moving(rel):
    """The indices of the moving stages, which ``rel.moving`` holds as a
    slice where they are contiguous."""
    return np.arange(rel.C.shape[0])[rel.moving]


@pytest.mark.parametrize("case", ["pme", "simpson", "dlss4", "dlss32", "linear",
                                  "gauss4"])
def test_band_solve_equals_the_dense_solve(case):
    # tau makes tau*J of order one; at n = 4 the Dlss offsets -2 and +2
    # name the same cell; Simpson has one kept row and two moving stages in
    # either direction, so its band sum adds the two stacked stage Jacobians
    rng = np.random.default_rng(5)
    n = {"dlss4": 4, "pme": 16, "simpson": 16}.get(case, 32)
    grid = Grid1D(n, 1.0)
    scheme, tau = get_scheme("simpson" if case == "simpson" else "trapezoidal"), 1e-3
    if case in ("linear", "gauss4"):
        problem = LinearSystem(grid, 1.0, 2.0, 0.7)
        u = StateField([rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)])
        if case == "gauss4":
            scheme = _gauss2()  # two kept stage rows x two species
    else:
        problem = PorousMedium(grid, 2.0) if case in ("pme", "simpson") else Dlss(grid)
        u = StateField.scalar(rng.uniform(0.8, 1.2, n))
        tau = 1e-7 if case == "dlss32" else 1e-3
    for backward in (False, True):
        rel = stepping._relation(scheme.tableau, backward)
        assert case != "simpson" or (rel.C.shape[1], _moving(rel).size) == (1, 2)
        g = _initial_stages(problem, rel, u, tau)
        jac = problem.jacobian_flat(g[rel.moving])  # one batch: the moving stages
        dense = _dense_newton_matrix(problem, rel, g, tau)
        rhs = rng.standard_normal(dense.shape[0])
        want = np.linalg.solve(dense, rhs)
        got = _newton_update(problem, rel, jac, tau, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), backward


def _recording_lapack(monkeypatch, calls: list, info: int | None = None):
    """Make every dgbsv call append (kl, ku, A, b, x, LU, pivots) to calls,
    the band storages A and LU as (ldab, n) arrays, read through the
    addresses dgbsv is passed; with ``info``, also overwrite its status."""
    dgbsv, width, *rest = stepping._band_lapack()
    cint = {4: ctypes.c_int32, 8: ctypes.c_int64}[width]

    def read(address, count, ctype=ctypes.c_double):
        return np.ctypeslib.as_array(ctypes.cast(address, ctypes.POINTER(ctype)),
                                     (count,)).copy()

    def recorded(*args):
        n, kl, ku, _, ldab = (int(read(a, 1, cint)[0]) for a in args[:4] + args[5:6])
        ab, b = read(args[4], ldab * n).reshape(n, ldab).T, read(args[7], n)
        dgbsv(*args)
        calls.append((kl, ku, ab, b, read(args[7], n),
                      read(args[4], ldab * n).reshape(n, ldab).T, read(args[6], n, cint)))
        if info is not None:
            cint.from_address(args[9]).value = info

    monkeypatch.setattr(stepping, "_band_lapack", lambda: (recorded, width, *rest))
    monkeypatch.setattr(stepping, "_SOLVERS", threading.local())  # none made yet


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    u = np.finfo(float).eps / 2.0
    return k * u / (1.0 - k * u)


def _dense_from_band(ab: np.ndarray, kl: int, ku: int, lower: int, upper: int):
    """Entries (i, j) with -upper <= i - j <= lower of LAPACK band storage
    ab, where (i, j) sits at ab[kl + ku + i - j, j]; zero elsewhere."""
    i, j = np.indices((ab.shape[1],) * 2)
    inside = (i - j <= lower) & (j - i <= upper)
    return np.where(inside, ab[np.clip(kl + ku + i - j, 0, ab.shape[0] - 1), j], 0.0)


def test_band_lapack_meets_its_backward_error_bound(monkeypatch):
    # the PME (kl = ku = 2) and Dlss (kl = ku = 4) Newton matrices of real
    # solves.  Band LU and its two triangular solves form inner products of
    # at most m = kl + ku + 1 terms, so the computed x solves (A + dA) x = b
    # with |dA| <= gamma_3m |L||U| for the computed factors (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., Thm 9.4), and forming
    # the residual adds at most gamma_(m+1) (|b| + |A||x|).  No row is
    # swapped on these matrices, so L and U read straight off dgbsv's
    # output.  np.linalg.solve takes the same pivots and meets the bound
    # with gamma_3n; the two solutions differ by at most both perturbations
    # carried through |A^-1| (twice that, for the computed inverse).
    calls = []
    _recording_lapack(monkeypatch, calls)
    grid = Grid1D(16, 1.0)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    for problem, tau in ((PorousMedium(grid, 2.0), 1e-3), (Dlss(grid), 1e-6)):
        run(problem, get_scheme("trapezoidal"), u, tau, tau)
    assert sorted({(kl, ku) for kl, ku, *_ in calls}) == [(2, 2), (4, 4)]
    for kl, ku, ab, b, x, lu, piv in calls:
        n, m = b.size, kl + ku + 1
        assert np.array_equal(piv, np.arange(1, n + 1)), (kl, ku)
        dense = _dense_from_band(ab, kl, ku, kl, ku)
        factors = (np.abs(_dense_from_band(lu, kl, ku, kl, -1)) + np.eye(n)) @ np.abs(
            _dense_from_band(lu, kl, ku, 0, kl + ku))
        residual = _gamma(m + 1) * (np.abs(b) + np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(b - dense @ x) <= _gamma(3 * m) * factors @ np.abs(x)
                      + residual), (kl, ku)
        x_dense = np.linalg.solve(dense, b)
        carried = factors @ (_gamma(3 * m) * np.abs(x) + _gamma(3 * n) * np.abs(x_dense))
        assert np.all(np.abs(x - x_dense)
                      <= 2.0 * np.abs(np.linalg.inv(dense)) @ carried), (kl, ku)


def test_illegal_lapack_argument_is_not_a_step_error(pme32, monkeypatch):
    # a negative LAPACK status names an illegal argument: a bug that run
    # and profile_g pass on, not a failed solve that a sweep truncates at
    _recording_lapack(monkeypatch, [], info=-3)
    problem, u = pme32
    scheme = get_scheme("trapezoidal")
    for call in (lambda: run(problem, scheme, u, 1e-4, 1e-3),
                 lambda: profile_g(PowerEntropy(1.0), problem, scheme, u, 1e-4, 4)):
        with pytest.raises(RuntimeError,
                           match=r"dgbsv rejected argument 3 \(info -3\)") as exc:
            call()
        assert not isinstance(exc.value, StepError)


def test_threads_keep_their_own_band_workspace(pme32):
    # dgbsv runs without the GIL, so each thread solves in a workspace of
    # its own, made once per layout; marches in four threads at once (more
    # than the cores) equal the serial ones bit for bit
    problem, u = pme32
    scheme = get_scheme("trapezoidal")

    def march(k):
        start = StateField.scalar(u.flat * (1.0 + 0.01 * k))
        end = run(problem, scheme, start, 1e-4, 2e-3).states[-1].flat
        return end, stepping._band_solver(problem.grid.n, 1, 1, problem.offsets)

    serial = [march(k) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = [job.result(timeout=60)
                        for job in [pool.submit(march, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(serial, threaded))
    assert len({id(solve) for _, solve in serial}) == 1
    assert serial[0][1] not in {solve for _, solve in threaded}


class _Library:
    """A stand-in for ctypes.CDLL: the given symbols, and no others."""

    symbols: dict = {}

    def __init__(self, path):
        pass

    def __getattr__(self, name):
        if name not in self.symbols:
            raise AttributeError(name)
        return self.symbols[name]


def test_failed_lapack_lookup_names_libraries_and_symbols(monkeypatch):
    # one lookup, in the LAPACK numpy links, with no fallback: libraries
    # without the symbols are an ImportError that names every library and
    # symbol it tried
    from numpy.linalg import _umath_linalg

    monkeypatch.setattr(ctypes, "CDLL", _Library)
    with pytest.raises(ImportError) as exc:
        stepping._band_lapack.__wrapped__()
    message = str(exc.value)
    vendored = glob.glob(os.path.join(np.__path__[0], "..", "numpy.libs", "*"))
    for name in (_umath_linalg.__file__, *vendored, "scipy_dgbsv_64_",
                 "dgbsv_64_", "scipy_dgbsv_", "dgbsv_"):
        assert name in message, name


@pytest.mark.parametrize("width", [4, 8])
def test_integer_width_is_read_from_ilaver(monkeypatch, width):
    # a stand-in LAPACK whose ilaver writes its version (3, 12, 0) as
    # integers of the given width: the lookup tells the widths apart by the
    # -1 bytes that a 4-byte write leaves in each 8-byte slot, whatever the
    # symbol's name says
    cint = {4: ctypes.c_int32, 8: ctypes.c_int64}[width]

    def ilaver(*slots):
        for slot, value in zip(slots, (3, 12, 0)):
            cint.from_address(slot).value = value

    symbols = {"dgbsv_": ctypes.CFUNCTYPE(None)(lambda: None),
               "ilaver_": ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 3)(ilaver)}
    monkeypatch.setattr(_Library, "symbols", symbols)
    monkeypatch.setattr(ctypes, "CDLL", _Library)
    dgbsv, found, _, name = stepping._band_lapack.__wrapped__()
    assert (dgbsv, found, name) == (symbols["dgbsv_"], width, "dgbsv_")


def test_numpys_lapack_width_follows_its_symbol():
    # an ILP64 OpenBLAS marks its symbols with a 64_ suffix, and the width
    # read from its ilaver agrees
    _, width, path, name = stepping._band_lapack()
    assert name in ("scipy_dgbsv_64_", "dgbsv_64_", "scipy_dgbsv_", "dgbsv_")
    assert os.path.exists(path)
    assert width == (8 if name.endswith("64_") else 4)


def test_simd_dispatch_moves_no_fourth_order_endpoint_by_1e_6(tmp_path):
    # numpy's SIMD kernels round differently on each dispatch path, and the
    # Dlss stencils (1/dx^4 = 4.3e9 at n = 256) amplify the difference; with
    # every dispatch target numpy found disabled, each endpoint of the
    # fourth_order benchmark's 180 solves per seed stays within 1e-6 of its
    # max-norm (6.7e-7 at seeds 0 and 1 on an AVX-512 machine, solve 119:
    # a closed-form n = 256 sweep)
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    tool = os.path.join(os.path.dirname(__file__), "..", "tools", "iterate_digest.py")
    runs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}):
        out = tmp_path / f"endpoints{len(runs)}.npz"
        subprocess.run([sys.executable, tool, "--workloads", "fourth_order",
                        "--seeds", "0", "1", "--endpoints", str(out)],
                       env=dict(os.environ, **disabled), check=True,
                       capture_output=True, timeout=300)
        with np.load(out) as ends:
            runs.append([ends[k] for k in ends.files])
    assert len(runs[0]) == len(runs[1]) == 360
    for k, (a, b) in enumerate(zip(*runs)):
        assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(a)), k


def _floor(problem, name, x, tau, w):
    """Newton's rounding floor of a forward solve at the iterate w."""
    rel = stepping._relation(get_scheme(name).tableau, False)
    g = rel.C @ w + x
    jac = [problem.jacobian_flat(gi) for gi in g]
    ag = np.stack([problem.apply_flat(gi) for gi in g])
    mag = stepping._magnitude(problem, jac, g, ag)
    return stepping._FLOOR * np.max(np.abs(w) + tau * (np.abs(rel.B) @ mag))


@pytest.mark.parametrize("name", ["implicit_euler", "trapezoidal", "simpson"])
def test_dlss_stall_stops_at_the_rounding_floor(name):
    # n = 256, tau = 1e-6: 1/dx^4 = 4.3e9, so the residual cannot go below
    # about 1e-11 > tol; Newton stops there instead of iterating 50 times
    grid = Grid1D(256, 1.0)
    problem = Dlss(grid)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    cfg = NewtonConfig(tol=1e-12)
    _, norms, w = _step(problem, get_scheme(name), u.flat, 1e-6, cfg)
    assert len(norms) - 1 <= 5
    assert norms[-1] > cfg.tol
    # the contraction grows at the second iterate, which reads the floor there
    assert len(norms) - 1 == 2 and norms[-1] <= _floor(problem, name, u.flat, 1e-6, w)


def test_pme_stall_stops_at_the_rounding_floor():
    grid = Grid1D(4096, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = StateField.scalar(1.0 + 0.5 * np.cos(2.0 * np.pi * grid.x()))
    cfg = NewtonConfig(tol=1e-12)
    _, norms, _ = _step(problem, get_scheme("trapezoidal"), u.flat, 1e-4, cfg)
    assert len(norms) - 1 <= 4
    assert norms[-1] > cfg.tol


def test_stall_above_the_floor_names_it(pme32):
    # tol and the floor are both out of reach in two iterations
    problem, u = pme32
    with pytest.raises(StepError, match=r"rounding floor \d\.\de-\d+\)"):
        run(problem, get_scheme("implicit_euler"), u, 0.5, 0.5,
            NewtonConfig(tol=1e-15, max_iter=2))


def test_stalled_solve_builds_each_jacobian_once(pme32, monkeypatch):
    # a stall reads the floor at several iterates; J at the moving stages is
    # built once per factored Newton matrix, as one batch whose bands the next
    # floor read reuses, so the last iterate builds none; J(x) at the fixed
    # stage is built once per solve, and A once per iterate for both stages
    grid, u = pme32[0].grid, pme32[1]
    problem, scheme = _CountingPME(grid, 2.0), get_scheme("simpson")
    reads = []
    magnitude = stepping._magnitude
    monkeypatch.setattr(stepping, "_magnitude",
                        lambda *args: reads.append(1) or magnitude(*args))
    cfg = NewtonConfig(tol=1e-15, max_iter=8)
    with pytest.raises(StepError, match="rounding floor"):
        _step(problem, scheme, u.flat, 0.5, cfg)
    rel = stepping._relation(scheme.tableau, False)
    assert len(reads) >= 2 and _moving(rel).size == 2 < scheme.tableau.s
    assert problem.calls == {"apply": 1 + (cfg.max_iter + 1),
                             "jacobian": cfg.max_iter + 1}


def test_quadratic_convergence_never_reads_the_floor(pme32, monkeypatch):
    problem, u = pme32
    calls = []
    monkeypatch.setattr(stepping, "_magnitude",
                        lambda *args: calls.append(1) or np.ones_like(args[2]))
    for name in ALL_SCHEMES:
        for backward in (False, True):
            _step(problem, get_scheme(name), u.flat, 1e-4, NewtonConfig(),
                  backward=backward)
    assert not calls


class _CountingPME(PorousMedium):
    """Porous medium that counts its operator kernel calls."""

    def __init__(self, grid, beta):
        super().__init__(grid, beta)
        self.calls = {"apply": 0, "jacobian": 0}

    def apply_flat(self, x):
        self.calls["apply"] += 1
        return super().apply_flat(x)

    def jacobian_flat(self, x):
        self.calls["jacobian"] += 1
        return super().jacobian_flat(x)


def _gapped():
    """Forward, stages 0 and 2 move and stage 1 does not: the moving stages
    are not contiguous, so ``rel.moving`` is an index array."""
    return Scheme("gapped", ButcherTableau(
        a=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5]], b=[0.5, 0.0, 0.5],
        c=[1.0, 0.0, 1.0]))


def test_newton_work_per_solve(pme32):
    # A at the known endpoint once, then A at all moving stages in one call
    # per iterate and J there in one call per iteration, whatever their
    # number; the stages are never recomputed, and a quadratically
    # converging solve builds no J for its rounding floor
    grid, u = pme32[0].grid, pme32[1]
    trapezoidal, simpson = get_scheme("trapezoidal"), get_scheme("simpson")
    for scheme, backward, moving in ((trapezoidal, False, 1), (trapezoidal, True, 1),
                                     (simpson, False, 2), (simpson, True, 2),
                                     (_gauss2(), False, 2), (_gauss2(), True, 2),
                                     (_gapped(), False, 2)):
        problem = _CountingPME(grid, 2.0)
        _, norms, _ = _step(problem, scheme, u.flat, 1e-3, NewtonConfig(),
                            backward=backward)
        iters = len(norms) - 1
        rel = stepping._relation(scheme.tableau, backward)
        assert iters >= 2 and _moving(rel).size == moving, (scheme.name, backward)
        assert problem.calls == {"apply": 1 + (iters + 1), "jacobian": iters}


def test_moving_stages_are_a_slice_where_contiguous():
    # every built-in relation that iterates holds its moving stages as a
    # slice, so g[rel.moving] is a view; the gapped ones are an index array
    for name in ALL_SCHEMES:
        for backward in (False, True):
            rel = stepping._relation(get_scheme(name).tableau, backward)
            assert isinstance(rel.moving, slice) or not rel.C.shape[1], (name, backward)
    assert stepping._relation(_gapped().tableau, False).moving.tolist() == [0, 2]


FAMILIES = ["pme", "scalar", "linear", "dlss"]


def _family_case(family, n, seed):
    """A problem, a smooth random state and a step with tau |J| about 0.2."""
    grid = Grid1D(n, 1.0)
    rng = np.random.default_rng(seed)
    u = _smooth_random_field(grid, rng)
    dx2 = grid.dx**2
    if family == "pme":
        return PorousMedium(grid, 2.0), u, 0.02 * dx2
    if family == "scalar":
        problem = ScalarDiffusion(grid, a=lambda v: 1.0 + v**2,
                                  da=lambda v: 2.0 * v)
        return problem, u, 0.02 * dx2
    if family == "linear":
        other = _smooth_random_field(grid, rng)
        return (LinearSystem(grid, 1.0, 2.0, 0.7), StateField([u.flat, other.flat]),
                0.02 * dx2)
    return Dlss(grid), u, 0.005 * dx2**2


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(8, 48), seed=st.integers(0, 2**32 - 1))
def test_every_step_conserves_mass(family, name, n, seed):
    problem, u, tau = _family_case(family, n, seed)
    out = run(problem, get_scheme(name), u, tau, tau).states[-1]
    mass0 = u.values.sum(axis=1)
    drift = np.abs(out.values.sum(axis=1) - mass0)
    assert np.all(drift <= 1e-13 * mass0), drift


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(8, 48), seed=st.integers(0, 2**32 - 1))
def test_backward_solve_undoes_a_forward_step(family, name, n, seed):
    problem, u, tau = _family_case(family, n, seed)
    cfg = NewtonConfig(tol=1e-12)
    scheme = get_scheme(name)
    u_new = run(problem, scheme, u, tau, tau, cfg).states[-1]
    v = backward_solve(problem, scheme, u_new, tau, cfg)
    assert np.max(np.abs(v.flat - u.flat)) <= 100.0 * cfg.tol
