import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from range_cases import range_cases
from rkentropy.operators import (
    Dlss,
    DomainError,
    Grid1D,
    LinearSystem,
    PorousMedium,
    ScalarDiffusion,
    StateField,
    diff1,
    diff2,
    _require_real,
)
from rkentropy.stepping import _magnitude


@pytest.fixture
def grid32():
    return Grid1D(32, 1.0)


def _problems(grid, rng):
    """One instance of each family with an admissible random state."""
    u_pos = rng.uniform(0.5, 2.0, grid.n)
    return [
        (PorousMedium(grid, 2.0), StateField.scalar(u_pos)),
        (PorousMedium(grid, 0.5), StateField.scalar(u_pos)),
        (ScalarDiffusion(grid, a=lambda u: 1.0 + u**2, da=lambda u: 2.0 * u),
         StateField.scalar(u_pos)),
        (LinearSystem(grid, 1.0, 2.0, 0.7),
         StateField([u_pos, rng.uniform(0.5, 2.0, grid.n)])),
        (Dlss(grid), StateField.scalar(u_pos)),
    ]


def _complex_step(p, x, w, h=1e-30):
    """DA[x](w) from A alone, a reference independent of the bands:
    Im(A[x + i h w]) / h has no subtractive cancellation, so h can sit far
    below the rounding of x (Squire & Trapp, SIAM Review 40, 1998)."""
    return p.apply_flat(x + 1j * h * w).imag / h


def test_grid_basics():
    g = Grid1D(64, 1.0)
    assert g.dx * g.n == g.length
    assert g.x()[0] == 0.0 and g.x()[-1] == (g.n - 1) * g.dx
    with pytest.raises(ValueError):
        Grid1D(3, 1.0)
    with pytest.raises(ValueError):
        Grid1D(8, -1.0)


@pytest.mark.parametrize("bad", [64.0, 4.5, True, 3, np.int64(3)])
def test_grid_cell_count_must_be_an_integer(bad):
    # a float n would otherwise fail far from its cause: 64.0 in the first
    # step, 4.5 in the state shape check
    with pytest.raises(ValueError, match="n must be an integer of at least 4"):
        Grid1D(bad)


def test_grid_accepts_a_numpy_integer():
    grid = Grid1D(np.int64(8))
    assert grid.dx == 0.125 and diff2(np.ones(grid.n), grid.dx).shape == (8,)


@pytest.mark.parametrize("n", [4, 5, 63, 64, 4096])
def test_differences_match_the_roll_formulas(n):
    w = np.random.default_rng(n).standard_normal(n)
    dx = 0.37 / n
    assert np.array_equal(diff1(w, dx),
                          (np.roll(w, -1) - np.roll(w, 1)) / (2.0 * dx))
    assert np.array_equal(diff2(w, dx),
                          (np.roll(w, -1) - 2.0 * w + np.roll(w, 1)) / dx**2)


@pytest.mark.parametrize("low, closed, bound", [
    (-np.inf, False, "finite"), (0.0, False, "positive and finite"),
    (0.0, True, "nonnegative and finite"), (0.5, True, "finite and at least 0.5"),
    (0.5, False, "finite and above 0.5"),
])
def test_require_real_states_its_bound(low, closed, bound):
    # the bound itself passes only when closed; the message names it
    for value in (np.nan, np.inf, -np.inf, low - 1.0) + (() if closed else (low,)):
        with pytest.raises(ValueError, match=re.escape(f"x must be {bound}, got ")):
            _require_real("x", value, low, closed)
    _require_real("x", max(low, 0.0) + 1.0, low, closed)
    if closed:
        _require_real("x", low, low, closed)


@pytest.mark.parametrize("name, build, value", range_cases(
    ("length", lambda v: Grid1D(8, v), 0.0, False),
    ("beta", lambda v: PorousMedium(Grid1D(8), v), 0.0, False),
    ("rho1", lambda v: LinearSystem(Grid1D(8), v, 1.0, 1.0), 0.0, True),
    ("rho2", lambda v: LinearSystem(Grid1D(8), 1.0, v, 1.0), 0.0, True),
    ("mu", lambda v: LinearSystem(Grid1D(8), 1.0, 1.0, v), 0.0, True),
))
def test_operator_reals_are_range_checked(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(value)


@pytest.mark.parametrize("length", [1e200, 1e-200])
def test_grid_spacing_squared_must_be_a_normal_float(length):
    # dx**2 raised OverflowError at 1e200 and was 0 at 1e-200, where A[u]
    # then divided by zero; just inside both ends the kernels run cleanly
    with pytest.raises(ValueError, match=re.escape(f"dx * dx (length {length!r}, n 8)")):
        Grid1D(8, length)
    inside = Grid1D(8, length ** 0.75)
    u = StateField.scalar(1.0 + 0.5 * np.cos(2.0 * np.pi * inside.x() / inside.length))
    assert np.all(np.isfinite(PorousMedium(inside, 2.0).apply_flat(u.flat)))


def test_state_field_shapes():
    u = StateField.scalar(np.ones(8))
    assert u.species == 1 and u.n == 8 and u.flat.shape == (8,)
    w = StateField([np.ones(8), np.zeros(8)])
    assert w.species == 2 and w.flat.shape == (16,)
    assert np.array_equal(StateField.from_flat(w.flat, 2).values, w.values)
    with pytest.raises(ValueError, match="finite"):
        StateField.scalar([1.0, np.nan, 1.0, 1.0])


def test_state_field_rejects_a_batch():
    # kernels take batches of states, but a state is species x n: a (1, 8, 2)
    # array once passed for 16 cells and failed later in an unrelated broadcast
    with pytest.raises(ValueError, match=r"species x n, got shape \(1, 8, 2\)"):
        PorousMedium(Grid1D(8, 1.0), 2.0)._check_state(StateField(np.ones((1, 8, 2))))


def test_pme_stencil_hand_value():
    # n=4, L=1 (dx=1/4), u=(1,2,1,2): w = u^2 = (1,4,1,4),
    # A[u]_i = -(w_{i+1} - 2 w_i + w_{i-1}) * 16
    g = Grid1D(4, 1.0)
    p = PorousMedium(g, 2.0)
    out = p.apply_flat(np.array([1.0, 2.0, 1.0, 2.0]))
    assert np.array_equal(out, [-96.0, 96.0, -96.0, 96.0])


def test_constant_states_are_steady(grid32):
    c = StateField.scalar(np.full(grid32.n, 1.7))
    for p in [PorousMedium(grid32, 2.0),
              ScalarDiffusion(grid32, a=lambda u: 1.0 + u, da=lambda u: 1.0),
              Dlss(grid32)]:
        assert np.all(p.apply_flat(c.flat) == 0.0)
    # the coupled system is steady only when both species share the constant
    sys = LinearSystem(grid32, 1.0, 1.0, 1.0)
    both = StateField([np.full(grid32.n, 1.7), np.full(grid32.n, 1.7)])
    assert np.all(sys.apply_flat(both.flat) == 0.0)


def test_zero_sum(grid32):
    rng = np.random.default_rng(3)
    for p, u in _problems(grid32, rng):
        au = p.apply_flat(u.flat)
        bound = 1e-12 * grid32.n * max(np.max(np.abs(au)), 1.0)
        assert abs(au.sum()) <= bound, type(p).__name__


def test_deriv_apply_matches_finite_differences(grid32):
    rng = np.random.default_rng(4)
    eps = 1e-6
    for p, u in _problems(grid32, rng):
        w = StateField(rng.uniform(-1.0, 1.0, u.values.shape))
        exact = p.deriv_flat(u.flat, w.flat)
        up = StateField(u.values + eps * w.values)
        dn = StateField(u.values - eps * w.values)
        approx = (p.apply_flat(up.flat) - p.apply_flat(dn.flat)) / (2.0 * eps)
        scale = max(np.max(np.abs(exact)), 1.0)
        assert np.max(np.abs(exact - approx)) <= 1e-6 * scale, type(p).__name__


def test_deriv_apply_zero_direction(grid32):
    p = PorousMedium(grid32, 2.0)
    u = StateField.scalar(np.linspace(0.5, 1.5, grid32.n))
    zero = StateField.scalar(np.zeros(grid32.n))
    assert np.all(p.deriv_flat(u.flat, zero.flat) == 0.0)


def test_linear_system_deriv_is_apply(grid32):
    rng = np.random.default_rng(5)
    p = LinearSystem(grid32, 1.0, 2.0, 0.3)
    u = StateField([rng.uniform(0.5, 2, grid32.n), rng.uniform(0.5, 2, grid32.n)])
    w = StateField([rng.normal(size=grid32.n), rng.normal(size=grid32.n)])
    assert np.array_equal(p.deriv_flat(u.flat, w.flat), p.apply_flat(w.flat))


def test_jacobian_matches_deriv_apply(grid32):
    # deriv_flat is the product of the bands, so both are checked against
    # the complex step; LinearSystem's A is its bands too, and
    # test_linear_system_apply_closed_form checks it by its formula
    rng = np.random.default_rng(6)
    for p, u in _problems(grid32, rng):
        jac = p.deriv_flat(u.flat, np.eye(u.flat.size)).T
        for _ in range(20):
            w = StateField(rng.uniform(-1.0, 1.0, u.values.shape))
            ref = _complex_step(p, u.flat, w.flat)
            scale = 1e-13 * max(np.max(np.abs(ref)), 1.0)
            name = type(p).__name__
            assert np.max(np.abs(p.deriv_flat(u.flat, w.flat) - ref)) <= scale, name
            assert np.max(np.abs(jac @ w.flat - ref)) <= scale, name


def test_linear_system_apply_closed_form(grid32):
    # A[u]_j = -rho_j D2(u_j) - mu (u_other - u_j), with mu != 0
    rng = np.random.default_rng(10)
    p = LinearSystem(grid32, 1.5, 2.5, 0.7)
    u1, u2 = rng.uniform(0.5, 2.0, (2, grid32.n))
    got = p.apply_flat(np.concatenate([u1, u2]))
    want = np.concatenate([-1.5 * diff2(u1, grid32.dx) - 0.7 * (u2 - u1),
                           -2.5 * diff2(u2, grid32.dx) - 0.7 * (u1 - u2)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pme_jacobian_at_unit_state(grid32):
    p = PorousMedium(grid32, 2.0)
    u = StateField.scalar(np.ones(grid32.n))
    jac = p.deriv_flat(u.flat, np.eye(grid32.n)).T
    assert np.allclose(jac, -2.0 * diff2(np.eye(grid32.n), grid32.dx),
                       rtol=0.0, atol=0.0)


def test_linear_system_jacobian_decoupled(grid32):
    p = LinearSystem(grid32, 1.5, 2.5, 0.0)
    u = StateField([np.ones(grid32.n), np.ones(grid32.n)])
    jac = p.deriv_flat(u.flat, np.eye(u.flat.size)).T
    n = grid32.n
    d2m = diff2(np.eye(n), grid32.dx)
    assert np.array_equal(jac[:n, :n], -1.5 * d2m)
    assert np.array_equal(jac[n:, n:], -2.5 * d2m)
    assert np.all(jac[:n, n:] == 0.0) and np.all(jac[n:, :n] == 0.0)


def test_translation_equivariance(grid32):
    rng = np.random.default_rng(7)
    for p, u in _problems(grid32, rng):
        shifted = StateField(np.roll(u.values, 5, axis=1))
        au = p.apply_flat(u.flat).reshape(u.values.shape)
        assert np.array_equal(p.apply_flat(shifted.flat).reshape(u.values.shape),
                              np.roll(au, 5, axis=1)), type(p).__name__


def test_constant_coefficient_reduces_to_laplacian(grid32):
    # flux form with a == rho collapses (up to rounding) to -rho * D2 u
    rho = 1.3
    p = ScalarDiffusion(grid32, a=lambda u: rho + 0.0 * u, da=lambda u: 0.0 * u)
    rng = np.random.default_rng(8)
    u = rng.uniform(0.5, 2.0, grid32.n)
    got = p.apply_flat(u)
    want = -rho * diff2(u, grid32.dx)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dlss_rejects_nonpositive(grid32):
    p = Dlss(grid32)
    u = np.ones(grid32.n)
    u[10] = 0.0
    with pytest.raises(DomainError, match="cell 10"):
        p.apply_flat(u)


def test_pme_zero_cells(grid32):
    u = np.ones(grid32.n)
    u[3] = 0.0
    # beta >= 1: degenerate cells are fine
    out = PorousMedium(grid32, 2.0).apply_flat(u)
    assert np.all(np.isfinite(out))
    # beta < 1: the mobility blows up at zero
    with pytest.raises(DomainError):
        PorousMedium(grid32, 0.5).apply_flat(u)


def test_problem_shape_checks(grid32):
    p = PorousMedium(grid32, 2.0)
    wrong = StateField.scalar(np.ones(16))
    with pytest.raises(ValueError, match="does not match"):
        p._check_state(wrong)


def test_parameter_validation(grid32):
    with pytest.raises(ValueError):
        PorousMedium(grid32, -1.0)
    with pytest.raises(ValueError):
        LinearSystem(grid32, -1.0, 1.0, 1.0)


def test_pme_fast_diffusion_kernels_reject_nonpositive_cells(grid32):
    # beta < 1: each kernel raises before it takes the power of a
    # nonpositive cell (which would only warn and return nan)
    p = PorousMedium(grid32, 0.5)
    x = np.ones(grid32.n)
    x[7] = -0.25
    for kernel in (lambda: p.apply_flat(x), lambda: p.deriv_flat(x, x),
                   lambda: p.jacobian_flat(x)):
        with pytest.raises(DomainError, match="cell 7"):
            kernel()


def test_kernels_reject_a_nan_cell(grid32):
    # NaN is not > 0: the positivity checks raise instead of returning nan
    x = np.ones(grid32.n)
    x[5] = np.nan
    dlss, pme = Dlss(grid32), PorousMedium(grid32, 0.5)
    for kernel in (dlss.apply_flat, dlss.jacobian_flat,
                   pme.apply_flat, pme.jacobian_flat):
        with pytest.raises(DomainError, match="cell 5 has u=nan"):
            kernel(x)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 48), seed=st.integers(0, 2**32 - 1))
def test_jacobian_bands(n, seed):
    # n = 4 makes the Dlss offsets -2 and +2 name the same column
    grid = Grid1D(n, 1.0)
    rng = np.random.default_rng(seed)
    d2m = diff2(np.eye(n), grid.dx)
    for p, u in _problems(grid, rng):
        name = type(p).__name__
        x = u.flat
        bands = p.jacobian_flat(x)
        assert isinstance(bands, np.ndarray), name
        assert bands.nbytes == 8 * p.species**2 * len(p.offsets) * n, name
        jac = p.deriv_flat(u.flat, np.eye(u.flat.size)).T
        w = rng.uniform(-1.0, 1.0, x.size)
        ref = _complex_step(p, x, w)
        scale = 1e-13 * max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(p.deriv_flat(x, w) - ref)) <= scale, name
        assert np.max(np.abs(jac @ w - ref)) <= scale, name
        # the dense formulas the bands replace
        if isinstance(p, PorousMedium):
            want = -d2m * (p.beta * x ** (p.beta - 1.0))[None, :]
            assert np.array_equal(jac, want), name
        if isinstance(p, Dlss):
            core = np.diag(diff2(np.log(x), grid.dx)) + x[:, None] * d2m * (1.0 / x)[None, :]
            want = d2m @ core
            assert np.max(np.abs(jac - want)) <= 1e-13 * np.max(np.abs(want)), name


BATCH_CASES = {
    "pme2": lambda grid: PorousMedium(grid, 2.0),
    "pme1.5": lambda grid: PorousMedium(grid, 1.5),
    "pme0.5": lambda grid: PorousMedium(grid, 0.5),
    "scalar": lambda grid: ScalarDiffusion(grid, a=lambda u: 1.0 + u**2,
                                           da=lambda u: 2.0 * u),
    "linear": lambda grid: LinearSystem(grid, 1.0, 2.0, 0.7),
    "dlss": Dlss,
}


def _bits(a):
    return a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", [4, 7, 64])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_kernels_equal_per_row_calls(case, n):
    # every flat kernel takes leading batch axes, and each row of a (2, 3)
    # batch is bit for bit the 1-D call on that row: at n = 4 the Dlss offsets
    # -2 and +2 name the same cell, and at n = 7 no row fills whole SIMD vectors
    grid = Grid1D(n, 1.0)
    problem = BATCH_CASES[case](grid)
    rng = np.random.default_rng(n)
    x = rng.uniform(0.5, 2.0, (2, 3, problem.species * n))
    w = rng.uniform(-1.0, 1.0, x.shape)
    kernels = {"apply": (problem.apply_flat, (x,)),
               "jacobian": (problem.jacobian_flat, (x,)),
               "deriv": (problem.deriv_flat, (x, w)),
               "diff1": (lambda v: diff1(v, grid.dx), (x,)),
               "diff2": (lambda v: diff2(v, grid.dx), (x,))}
    for name, (kernel, args) in kernels.items():
        batch = kernel(*args)
        assert batch.shape[:2] == x.shape[:2], name
        for row in np.ndindex(x.shape[:-1]):
            assert _bits(batch[row]) == _bits(kernel(*(a[row] for a in args))), (name, row)


@pytest.mark.parametrize("case", ["pme0.5", "dlss", "pme1.5"])
def test_batched_domain_error_names_the_per_row_cell(case):
    # a batch fails at its first row with a bad cell, naming the same cell and
    # value as the 1-D call on that row
    problem = BATCH_CASES[case](Grid1D(8, 1.0))
    x = np.ones((2, 2, 8))
    x[0, 1, 5], x[1, 0, 2] = -0.25, np.nan
    for kernel in (problem.apply_flat, problem.jacobian_flat,
                   lambda v: problem.deriv_flat(v, v)):
        with pytest.raises(DomainError, match="cell 5 has u=-0.25$") as row:
            kernel(x[0, 1])
        with pytest.raises(DomainError) as batch:
            kernel(x)
        assert str(batch.value) == str(row.value)


def _no_apply(self, x):
    raise AssertionError("the rounding-error scale must not evaluate apply_flat")


def _scale(problem, x, ax):
    """Newton's rounding-error scale at the one state x, given ax = A[x]."""
    jac = [problem.jacobian_flat(x)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(problem), "apply_flat", _no_apply)
        return _magnitude(problem, jac, x[None], ax[None])[0]


def _assert_scale_bounds_rounding(problem, x, rng, draws=1):
    # |A[x]| <= mag(x), and rounding every cell of x moves A[x] by at most
    # 8 eps mag(x), the scale of Newton's rounding floor
    eps = np.finfo(float).eps
    name = type(problem).__name__
    ax = problem.apply_flat(x)
    mag = _scale(problem, x, ax)
    assert mag.shape == x.shape, name
    assert np.all(np.abs(ax) <= mag), name
    for _ in range(draws):
        rounded = x * (1.0 + eps * rng.uniform(-1.0, 1.0, x.size))
        change = np.abs(problem.apply_flat(rounded) - ax)
        assert np.all(change <= 8.0 * eps * mag), name
    # Newton reads every stage in one call: each row is its own state's scale
    a2x = problem.apply_flat(2.0 * x)
    jac = [problem.jacobian_flat(x), problem.jacobian_flat(2.0 * x)]
    both = _magnitude(problem, jac, np.stack([x, 2.0 * x]), np.stack([ax, a2x]))
    assert np.array_equal(both, [mag, _scale(problem, 2.0 * x, a2x)]), name


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
def test_magnitude_bounds_the_rounding_of_apply(n, seed):
    # the scale takes A[x] as given, so the apply counts of a solve do not
    # move when Newton reads its floor
    rng = np.random.default_rng(seed)
    for problem, u in _problems(Grid1D(n, 1.0), rng):
        _assert_scale_bounds_rounding(problem, u.flat, rng)


@pytest.mark.parametrize("beta", [0.3, 0.5])
def test_magnitude_bounds_fast_diffusion_on_rough_states(beta):
    # cells in [0.1, 2]: for beta < 1, |J(x)| |x| = beta |D2| x^beta alone
    # falls below |A[x]| = |D2 x^beta| where a small cell sits between large
    # ones, so the scale needs its |A[x]| term
    grid = Grid1D(16, 1.0)
    problem = PorousMedium(grid, beta)
    rng = np.random.default_rng(11)
    for x in (np.tile([0.1, 2.0], 8), np.tile([0.1, 2.0, 2.0, 0.3], 4)):
        ax = problem.apply_flat(x)
        assert np.any(_scale(problem, x, 0.0 * ax) < np.abs(ax))
        _assert_scale_bounds_rounding(problem, x, rng, draws=200)


_COEFFICIENT = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 48), c=st.floats(0.05, 20.0), beta=st.floats(0.3, 3.0),
       rho1=_COEFFICIENT, rho2=_COEFFICIENT, mu=_COEFFICIENT)
def test_constant_states_are_steady_to_the_scale(n, c, beta, rho1, rho2, mu):
    # A[c] = 0 in exact arithmetic; where the bands round (LinearSystem), it
    # is left at eps times the scale, under Newton's rounding floor
    grid = Grid1D(n, 1.0)
    eps = np.finfo(float).eps
    const = np.full(n, c)
    for problem, x in [
            (PorousMedium(grid, beta), const),
            (ScalarDiffusion(grid, a=lambda u: 1.0 + u**2, da=lambda u: 2.0 * u),
             const),
            (LinearSystem(grid, rho1, rho2, mu), np.concatenate([const, const])),
            (Dlss(grid), const)]:
        ax = problem.apply_flat(x)
        assert np.all(np.abs(ax) <= 8.0 * eps * _scale(problem, x, ax)), \
            type(problem).__name__
