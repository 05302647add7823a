import numpy as np
import pytest

from range_cases import range_cases
from rkentropy import entropy, stepping
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
    q_denominator,
)
from rkentropy.operators import (
    Dlss,
    DomainError,
    Grid1D,
    LinearSystem,
    PorousMedium,
    StateField,
    diff1,
)
from rkentropy.stepping import NewtonConfig, StepError, _step, backward_solve, run
from rkentropy.tableau import get_scheme


@pytest.fixture
def pme32():
    grid = Grid1D(32, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    return problem, u


def barenblatt(grid, beta=2.0, t0=0.01, x_r=0.25):
    shape = (beta - 1.0) / (2.0 * beta * (beta + 1.0)) / t0 ** (2.0 / (beta + 1.0))
    height = shape * (x_r - 0.5) ** 2
    core = np.maximum(0.0, height - shape * (grid.x() - 0.5) ** 2)
    return StateField.scalar(t0 ** (-1.0 / (beta + 1.0)) * core ** (1.0 / (beta - 1.0)))


# -- evaluate ---------------------------------------------------------------

def test_evaluate_reference_values():
    grid = Grid1D(16, 1.0)
    one = StateField.scalar(np.ones(16))
    two = StateField.scalar(np.full(16, 2.0))
    assert evaluate(ExperimentPower(5.0), one, grid) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(PowerEntropy(0.0), one, grid) == pytest.approx(-1.0, abs=1e-15)
    assert evaluate(PowerEntropy(1.0), two, grid) == pytest.approx(2.0, abs=1e-14)


def test_evaluate_first_order_constant_is_zero():
    grid = Grid1D(16, 1.0)
    one = StateField.scalar(np.ones(16))
    assert evaluate(FirstOrder(1.0), one, grid) == 0.0


def test_evaluate_two_species_log_sum():
    grid = Grid1D(16, 2.0)
    u = StateField([np.full(16, np.e), np.ones(16)])
    # e (1 - 1) * 2 + 1 * (0 - 1) * 2 = -2
    assert evaluate(LogEntropySum(), u, grid) == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize("species", [1, 2])
def test_log_sum_is_power_entropy_at_zero(species):
    # the alpha = 0 power entropy is the log entropy bit for bit: u ** -1.0
    # takes numpy's reciprocal path, so hpp is exactly 1/u; h, h' and h''
    # each need positive cells
    e = LogEntropySum()
    assert isinstance(e, PowerEntropy) and e.alpha == 0.0
    for take in (e.h, e.hp, e.hpp):
        with pytest.raises(DomainError, match="cell 3 has u=0$"):
            take(np.array([[1.0, 2.0, 1.0, 0.0, 1.0]] * species))
    u = 10.0 ** np.random.default_rng(species).uniform(-300, 300, (species, 257))
    np.testing.assert_array_equal(e.h(u), u * (np.log(u) - 1.0))
    np.testing.assert_array_equal(e.hp(u), np.log(u))
    np.testing.assert_array_equal(e.hpp(u), 1.0 / u)


def test_evaluate_rejects_a_state_of_another_grid():
    # an 8-cell state on a 16-cell grid once gave half its entropy
    u = StateField.scalar(np.ones(8))
    for e in (PowerEntropy(1.0), FirstOrder(1.0)):
        with pytest.raises(ValueError, match="8 cells but the grid has 16"):
            evaluate(e, u, Grid1D(16, 1.0))


def test_evaluate_rejects_nonpositive_for_log_kinds():
    grid = Grid1D(16, 1.0)
    u = StateField.scalar(np.linspace(-0.5, 1.0, 16))
    for e in (PowerEntropy(0.0), FirstOrder(2.0)):
        with pytest.raises(DomainError):
            evaluate(e, u, grid)
    # a cell of the second species is named by its place in that species
    both = StateField([np.ones(16), u.values[0]])
    with pytest.raises(DomainError, match="cell 0 has u=-0.5$"):
        evaluate(LogEntropySum(), both, grid)


def test_evaluate_rejects_negative_cells_for_non_integer_powers():
    # a negative base has no real non-integer power: these once gave NaN
    grid = Grid1D(16, 1.0)
    u = StateField.scalar(np.cos(2.0 * np.pi * grid.x()))  # cell 5 is the first < 0
    for e in (PowerEntropy(0.5), ExperimentPower(2.5)):
        with pytest.raises(DomainError, match=r"^entropy requires nonnegative "
                           r"values; cell 5 has u=-0\.382683$"):
            evaluate(e, u, grid)
    # integer powers are real on the whole axis and keep their values
    assert evaluate(ExperimentPower(5.0), u, grid) == float(np.sum(u.values**5.0)
                                                            * grid.dx)
    assert evaluate(PowerEntropy(1.0), u, grid) == float(np.sum(u.values**2.0 / 2.0)
                                                         * grid.dx)


@pytest.mark.parametrize("alpha", [-1.0, -0.5])
def test_negative_powers_need_positive_cells(pme32, alpha):
    # u^alpha is infinite at a zero cell and not convex at a negative one:
    # H = inf once came back with a RuntimeWarning
    problem, v = pme32
    e = ExperimentPower(alpha)
    for bad in (0.0, -0.25):
        u = StateField(v.values.copy())
        u.values[0, 7] = bad
        # alpha = 0 takes any cell: h = 1, and h' and h'' vanish
        flat = ExperimentPower(0.0)
        assert (evaluate(flat, u, problem.grid), production(flat, problem, u),
                i0(flat, problem, u, 1.0)) == (1.0, 0.0, 0.0)
        for diagnose in (lambda: evaluate(e, u, problem.grid),
                         lambda: production(e, problem, u),
                         lambda: i0(e, problem, u, 1.0)):
            with pytest.raises(DomainError, match=rf"^entropy requires strictly "
                               rf"positive values; cell 7 has u={bad:g}$"):
                diagnose()
    assert evaluate(e, v, problem.grid) == float(np.sum(v.values**alpha)
                                                 * problem.grid.dx)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e, rate, curvature", [
    (ExperimentPower(0.0), 0.0, 0.0),
    (ExperimentPower(0.5), None, None),
    (ExperimentPower(1.0), 0.0, 0.0),  # h' = 1: sums of A and DA, 0 by mass conservation
    (ExperimentPower(1.5), 1.914914545789971, None),
    (PowerEntropy(0.5), 2.553219394386628, None),
    (ExperimentPower(5.0), 0.9413288855185628, 219.1388598780792),
], ids=["exp0", "exp0.5", "exp1", "exp1.5", "power0.5", "exp5"])
def test_variations_at_the_zero_cells_of_the_barenblatt_datum(e, rate, curvature):
    # h' and h'' each pass the domain rule of their own power: a term with
    # coefficient 0 is 0, and a negative power needs positive cells, so the
    # rate stays defined where only h'' is not (None: a DomainError).  i0 was
    # NaN with a RuntimeWarning for every alpha below 2, and the rate too
    # below 1; where defined, both keep their values
    grid = Grid1D(64, 1.0)
    problem, u = PorousMedium(grid, 2.0), barenblatt(grid)
    for diagnose, want in ((lambda: production(e, problem, u), rate),
                           (lambda: i0(e, problem, u, 1.0), curvature)):
        if want is None:
            with pytest.raises(DomainError, match=r"^entropy requires strictly "
                               r"positive values; cell 0 has u=0$"):
                diagnose()
        else:
            assert diagnose() == pytest.approx(want, rel=1e-12, abs=1e-11)


# -- production -------------------------------------------------------------

def test_production_constant_state_is_zero(pme32):
    problem, _ = pme32
    c = StateField.scalar(np.full(problem.grid.n, 1.3))
    assert production(PowerEntropy(1.0), problem, c) == 0.0
    assert production(FirstOrder(1.0), problem, c) == 0.0


def test_production_matches_gradient_form():
    # two discretizations of the same dissipation integral agree to a few
    # permille at n = 256: cell sum h'(u) A[u] versus beta u^(a+b-2) u_x^2
    grid = Grid1D(256, 1.0)
    problem = PorousMedium(grid, 2.0)
    x = grid.x()
    u = 1.0 + 0.5 * np.cos(2.0 * np.pi * x) + 0.2 * np.sin(4.0 * np.pi * x)
    field = StateField.scalar(u)
    alpha, beta = 1.0, 2.0
    prod = production(PowerEntropy(alpha), problem, field)
    grad_form = np.sum(beta * u ** (alpha + beta - 2.0) * diff1(u, grid.dx) ** 2) * grid.dx
    assert prod >= 0.0
    assert abs(prod - grad_form) <= 0.05 * abs(grad_form)


def test_production_is_minus_entropy_slope(pme32):
    # explicit Euler: (H[u1] - H[u0]) / tau -> -production(u0) as tau -> 0
    problem, u = pme32
    e = PowerEntropy(1.0)
    scheme = get_scheme("explicit_euler")
    prod = production(e, problem, u)
    h0 = evaluate(e, u, problem.grid)

    def err(tau):
        u1 = run(problem, scheme, u, tau, tau).states[-1]
        return abs((evaluate(e, u1, problem.grid) - h0) / tau + prod)

    e1, e2 = err(1e-5), err(5e-6)
    assert 1.5 <= e1 / e2 <= 2.5  # first order in tau


# -- condition integrals ----------------------------------------------------

def test_i0_constant_state_is_zero(pme32):
    problem, _ = pme32
    c = StateField.scalar(np.full(problem.grid.n, 2.0))
    for crk in (0.0, 1.0, 2.0):
        assert i0(PowerEntropy(1.0), problem, c, crk) == 0.0


def test_i0_nonnegative_for_implicit_euler(pme32):
    # c_rk = 0 leaves only the h'' A^2 term, nonnegative for convex h
    problem, _ = pme32
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = StateField.scalar(rng.uniform(0.5, 2.0, problem.grid.n))
        assert i0(PowerEntropy(1.0), problem, u, 0.0) >= 0.0


def test_i0_positive_on_barenblatt_run():
    grid = Grid1D(64, 1.0)
    problem = PorousMedium(grid, 2.0)
    traj = run(problem, get_scheme("implicit_euler"), barenblatt(grid), 1e-4, 1e-3,
               NewtonConfig(tol=1e-13))
    value = i0(ExperimentPower(5.0), problem, traj.states[-1], 1.0)
    assert value > 0.0


def test_i0_rejects_first_order_kind(pme32):
    problem, u = pme32
    with pytest.raises(ValueError):
        i0(FirstOrder(1.0), problem, u, 1.0)


def test_i1_constant_state_is_zero(pme32):
    problem, _ = pme32
    c = StateField.scalar(np.full(problem.grid.n, 2.0))
    assert i1(FirstOrder(1.0), problem, c, 1.0) == 0.0


def test_i1_near_constant_dominated_by_square_term():
    grid = Grid1D(64, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = StateField.scalar(1.0 + 1e-3 * np.cos(2.0 * np.pi * grid.x()))
    assert i1(FirstOrder(2.0), problem, u, 0.0) >= 0.0


# -- G profile ---------------------------------------------------------------

def test_profile_g_starts_at_zero(pme32):
    problem, u = pme32
    prof = profile_g(ExperimentPower(5.0), problem, get_scheme("implicit_euler"),
                     u, 1e-4, 5)
    assert prof.g[0] == 0.0
    assert np.isnan(prof.d2g[0]) and np.isnan(prof.d2g[-1])
    assert prof.taus.size == 6


@pytest.mark.parametrize("e", [PowerEntropy(1.0), FirstOrder(1.0)],
                         ids=["power", "first_order"])
def test_profile_small_tau_slope_matches_production(pme32, e):
    # G(tau) = -tau * production + O(tau^2), so the leading slope error
    # halves with the grid spacing
    problem, u = pme32
    scheme = get_scheme("trapezoidal")
    cfg = NewtonConfig(tol=1e-14)
    prod = production(e, problem, u)

    def slope_err(h):
        prof = profile_g(e, problem, scheme, u, 4.0 * h, 4, cfg)
        return abs(prof.g[1] / prof.taus[1] + prod)

    e1, e2 = slope_err(2e-5), slope_err(1e-5)
    assert 1.5 <= e1 / e2 <= 2.5


def test_profile_cross_oracle_quick(pme32):
    # the extrapolated left-edge second difference approaches -i0
    problem, u = pme32
    e = PowerEntropy(1.0)
    scheme = get_scheme("trapezoidal")
    prof = profile_g(e, problem, scheme, u, 4 * 2.5e-5, 4, NewtonConfig(tol=1e-15))
    target = i0(e, problem, u, scheme.c_rk_effective)
    assert abs(d2g_at_zero(prof) + target) <= 2e-3 * abs(target)


@pytest.mark.parametrize("name", ["trapezoidal", "simpson", "explicit_euler"])
def test_two_species_i0_is_the_profile_curvature(name):
    # d2g_at_zero is O(h^2) from -G''(0), so with the right i0 its error
    # quarters when h halves; LogEntropySum sums both species and mu != 0
    # couples them
    grid = Grid1D(32, 1.0)
    x = grid.x()
    problem = LinearSystem(grid, 1.0, 2.0, 0.7)
    u = StateField([1.0 + 0.3 * np.cos(2.0 * np.pi * x),
                    1.0 + 0.2 * np.sin(4.0 * np.pi * x)])
    e, scheme = LogEntropySum(), get_scheme(name)
    target = i0(e, problem, u, scheme.c_rk_effective)

    def err(h):
        prof = profile_g(e, problem, scheme, u, 4.0 * h, 4, NewtonConfig(tol=1e-15))
        return abs(d2g_at_zero(prof) + target)

    assert 3.5 <= err(2e-5) / err(1e-5) <= 4.5


def test_h_is_evaluated_once_per_tau_node(pme32):
    # perfbench/tracing.py's NodeClock ends a tau node at each call of h:
    # H[u] once, then H[v(tau_j)] once per node; the derivatives never call it
    problem, u = pme32
    calls = []

    class Counted(PowerEntropy):
        def h(self, u):
            calls.append(u)
            return super().h(u)

    e, m = Counted(1.0), 5
    production(e, problem, u)
    i0(e, problem, u, 1.0)
    assert calls == []
    profile_g(e, problem, get_scheme("trapezoidal"), u, 1e-4, m)
    assert len(calls) == m + 1


def _count_at(problem, u):
    """Count the kernel calls that ``problem`` gets on the array of u itself."""
    calls = {"apply": 0, "jacobian": 0}

    def counted(kind, kernel):
        def call(x):
            calls[kind] += np.shares_memory(x, u.values)
            return kernel(x)
        return call

    problem.apply_flat = counted("apply", problem.apply_flat)
    problem.jacobian_flat = counted("jacobian", problem.jacobian_flat)
    return calls


@pytest.mark.parametrize("family", ["dlss", "pme"])
def test_sweep_linearizes_its_endpoint_once(family, monkeypatch):
    # every node solves from u: A[u] once per sweep, and J(u) only for the
    # rounding floor, which the Dlss n = 256 solves read and the PME ones never
    grid = Grid1D(256 if family == "dlss" else 32, 1.0)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    if family == "dlss":
        problem, e, tau_max = Dlss(grid), LogEntropySum(), 1e-6
    else:
        problem, e, tau_max = PorousMedium(grid, 2.0), PowerEntropy(1.0), 1e-4
    reads = []
    magnitude = stepping._magnitude
    monkeypatch.setattr(stepping, "_magnitude",
                        lambda *args: reads.append(1) or magnitude(*args))
    calls = _count_at(problem, u)
    prof = profile_g(e, problem, get_scheme("simpson"), u, tau_max, 4)
    assert prof.failed_index is None
    assert bool(reads) == (family == "dlss")
    assert calls == {"apply": 1, "jacobian": int(family == "dlss")}


def _chained_profile(e, problem, scheme, u, tau_max, m, cfg):
    """profile_g's G and failed_index from ``_step`` calls chained by w_init,
    each of which linearizes u on its own."""
    h_u = evaluate(e, u, problem.grid)
    g, w = [0.0], None
    for tau in np.linspace(0.0, tau_max, m + 1)[1:]:
        try:
            v, _, w = _step(problem, scheme, u.flat, tau, cfg, backward=True,
                            w_init=w)
        except (StepError, DomainError):
            return g, len(g)
        g.append(h_u - evaluate(e, StateField.from_flat(v, problem.species),
                                problem.grid))
    return g, None


@pytest.mark.parametrize("e", [ExperimentPower(5.0), FirstOrder(1.0)],
                         ids=["zeroth", "first"])
def test_each_node_is_the_entropy_of_its_endpoint(pme32, e, monkeypatch):
    # profile_g sums H straight from each flat endpoint _step returns, bit for
    # bit the entropy of that endpoint as a state
    problem, u = pme32
    ends = []

    def recorded(*args, **kwargs):
        out = _step(*args, **kwargs)
        ends.append(out[0].copy())
        return out

    monkeypatch.setattr(entropy, "_step", recorded)
    prof = profile_g(e, problem, get_scheme("simpson"), u, 1e-4, 6)
    h_u = evaluate(e, u, problem.grid)
    want = [h_u - evaluate(e, StateField.from_flat(v, problem.species), problem.grid)
            for v in ends]
    assert prof.failed_index is None and len(ends) == 6
    assert prof.g[0] == 0.0 and prof.g[1:].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("family", ["dlss", "pme"])
def test_sweep_equals_a_chain_of_solves(family):
    # sharing A[u] and J(u) across the nodes changes no bit: the Dlss n = 256
    # sweep stops at the rounding floor, the PME one stalls at node 3
    grid = Grid1D(256 if family == "dlss" else 32, 1.0)
    u = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    if family == "dlss":
        args = LogEntropySum(), Dlss(grid), get_scheme("simpson"), u, 1e-6, 6
        cfg = NewtonConfig()
    else:
        args = (PowerEntropy(1.0), PorousMedium(grid, 2.0),
                get_scheme("trapezoidal"), u, 1e-2, 5)
        cfg = NewtonConfig(tol=1e-15, max_iter=4)
    prof = profile_g(*args, cfg)
    g, failed = _chained_profile(*args, cfg)
    assert prof.failed_index == failed == (None if family == "dlss" else 3)
    assert prof.g[:len(g)].tobytes() == np.array(g).tobytes()
    assert np.all(np.isnan(prof.g[len(g):]))


def test_profile_truncates_on_failure(pme32):
    problem, u = pme32
    cfg = NewtonConfig(tol=1e-15, max_iter=1)
    prof = profile_g(PowerEntropy(1.0), problem, get_scheme("trapezoidal"), u,
                     1e-2, 5, cfg)
    assert prof.failed_index is not None
    assert prof.g[0] == 0.0
    assert np.isnan(prof.g[prof.failed_index])


@pytest.mark.parametrize(
    "name", ["explicit_euler", "implicit_euler", "trapezoidal", "simpson"])
def test_profile_truncates_on_domain_error(name):
    # the backward iterates (or the closed-form implicit-Euler v) leave the
    # positive cone that Dlss and the log entropy need
    grid = Grid1D(32, 1.0)
    u = StateField.scalar(1.0 + 0.9 * np.cos(2.0 * np.pi * grid.x()))
    prof = profile_g(LogEntropySum(), Dlss(grid), get_scheme(name), u, 1e-2, 20)
    assert prof.failed_index is not None
    assert prof.g[0] == 0.0
    assert np.all(np.isnan(prof.g[prof.failed_index:]))


def test_q_denominator_variants(pme32):
    problem, u = pme32
    e = ExperimentPower(5.0)
    uu = u.values[0]
    want = np.sum(uu ** (5.0 + 2.0 * 2.0 - 2.0) * diff1(uu, problem.grid.dx) ** 4) \
        * problem.grid.dx
    assert q_denominator(e, problem, u) == pytest.approx(want, rel=1e-15)


def _huge(grid, mean, amplitude):
    return StateField.scalar(mean + amplitude * np.cos(2.0 * np.pi * grid.x()))


@pytest.mark.parametrize("call, what", [
    (lambda e, p, u: production(e, p, u), "entropy production"),
    (lambda e, p, u: i0(e, p, u, 1.0), "condition integral"),
    (lambda e, p, u: q_denominator(e, p, u), "Q denominator"),
    (lambda e, p, u: evaluate(e, u, p.grid), "entropy"),
], ids=["production", "i0", "q_denominator", "evaluate"])
def test_cell_sum_with_a_non_finite_term_is_a_domain_error(call, what):
    # u^5 and its companions overflow at u = 1e70: production, i0 and
    # q_denominator returned NaN (with RuntimeWarnings) where evaluate raised
    grid = Grid1D(16, 1.0)
    problem = PorousMedium(grid, 2.0)
    with np.errstate(all="ignore"), pytest.raises(
            DomainError, match=rf"^{what} is not finite at cell 0, where u=1\.1e\+70$"):
        call(ExperimentPower(5.0), problem, _huge(grid, 1e70, 1e69))


def test_cell_sum_that_overflows_is_retried_scaled():
    # terms of about 5e307 on 16 cells: the sum overflows, H = 5.025e307 does
    # not, and the scaled retry gives it (the sum overflowed into a DomainError
    # before); a sum that does not overflow keeps its bits, and an H past the
    # float range is a DomainError
    grid = Grid1D(16, 1.0)
    u = _huge(grid, 1e154, 1e153)
    terms = u.values**2 / 2.0
    assert evaluate(PowerEntropy(1.0), u, grid) == float(np.sum(terms / 16.0))
    assert evaluate(PowerEntropy(1.0), u, grid) == pytest.approx(5.025e307, rel=1e-12)
    v = _huge(grid, 1e150, 1e149)
    assert evaluate(PowerEntropy(1.0), v, grid) == float(np.sum(v.values**2 / 2.0) / 16.0)
    with pytest.raises(DomainError, match=r"^entropy overflows: its cell sum times dx "
                                          r"is not finite$"):
        evaluate(PowerEntropy(1.0), u, Grid1D(16, 4.0))
    # the first-order sum of (D1 u)^2 overflows too, and is retried the same way
    w = StateField.scalar(1e153 * (2.0 + np.cos(2.0 * np.pi * grid.x())))
    terms = diff1(w.values[0], grid.dx) ** 2
    assert evaluate(FirstOrder(2.0), w, grid) == pytest.approx(np.sum(terms / 16.0),
                                                               rel=1e-15)


def test_profile_q_is_nan_where_its_norm_overflows():
    # q_denominator raises, and the profile keeps G with an undefined Q
    grid = Grid1D(16, 1.0)
    problem = PorousMedium(grid, 2.0)
    u = _huge(grid, 1e40, 1e39)
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match="^Q denominator is not finite"):
            q_denominator(ExperimentPower(5.0), problem, u)
        prof = profile_g(ExperimentPower(5.0), problem, get_scheme("implicit_euler"),
                         u, 1e-30, 4)
    assert np.all(np.isnan(prof.q))


def test_q_nan_for_non_power_problems():
    grid = Grid1D(16, 1.0)
    problem = LinearSystem(grid, 1.0, 1.0, 1.0)
    u = StateField([np.full(16, 1.0), np.full(16, 2.0)])
    prof = profile_g(LogEntropySum(), problem, get_scheme("implicit_euler"),
                     u, 1e-4, 4)
    assert np.all(np.isnan(prof.q))


def test_profile_csv_format(pme32):
    problem, u = pme32
    prof = profile_g(ExperimentPower(5.0), problem, get_scheme("implicit_euler"),
                     u, 1e-4, 4)
    text = prof.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "tau,G,d2G,Q"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_profile_argument_validation(pme32):
    problem, u = pme32
    e = ExperimentPower(5.0)
    with pytest.raises(ValueError):
        profile_g(e, problem, get_scheme("implicit_euler"), u, 0.0, 5)


@pytest.mark.parametrize("bad", [2, 0, 3.5, 4.0, float("inf"), True, None])
def test_sweep_intervals_must_be_an_integer(pme32, bad):
    # a float failed in np.linspace
    problem, u = pme32
    with pytest.raises(ValueError, match="m must be an integer of at least 3"):
        profile_g(ExperimentPower(5.0), problem, get_scheme("implicit_euler"), u,
                  1e-4, bad)


@pytest.mark.parametrize("base_time", [np.nan, np.inf])
def test_profile_base_time_must_be_finite(pme32, base_time):
    problem, u = pme32
    with pytest.raises(ValueError, match="base_time must be finite"):
        profile_g(ExperimentPower(5.0), problem, get_scheme("implicit_euler"), u,
                  1e-4, 4, base_time=base_time)


_PME = PorousMedium(Grid1D(8), 2.0)
_U = StateField.scalar(1.0 + 0.5 * np.cos(2.0 * np.pi * _PME.grid.x()))


def _profile(tau_max=1e-4, base_time=0.0):
    return profile_g(ExperimentPower(5.0), _PME, get_scheme("implicit_euler"), _U,
                     tau_max, 4, base_time=base_time)


@pytest.mark.parametrize("name, build, value", range_cases(
    ("alpha", PowerEntropy, 0.0, True, "PowerEntropy"),
    ("alpha", ExperimentPower, -np.inf, False, "ExperimentPower"),
    ("alpha", FirstOrder, 0.0, False, "FirstOrder"),
    ("tau_max", lambda v: _profile(tau_max=v), 0.0, False),
    ("base_time", lambda v: _profile(base_time=v), -np.inf, False),
    # a NaN or infinite c_rk gave a NaN condition integral
    ("c_rk", lambda v: i0(ExperimentPower(5.0), _PME, _U, v), -np.inf, False, "i0"),
    ("c_rk", lambda v: i1(FirstOrder(1.0), _PME, _U, v), -np.inf, False, "i1"),
))
def test_entropy_reals_are_range_checked(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(value)


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: Grid1D(8, length=np.inf), "length", id="grid-inf"),
    pytest.param(lambda: PorousMedium(Grid1D(8), np.inf), "beta", id="pme-inf"),
    pytest.param(lambda: PorousMedium(Grid1D(8), np.nan), "beta", id="pme-nan"),
    pytest.param(lambda: LinearSystem(Grid1D(8), np.nan, 1.0, 1.0), "rho1",
                 id="rho1-nan"),
    pytest.param(lambda: LinearSystem(Grid1D(8), 1.0, np.inf, 1.0), "rho2",
                 id="rho2-inf"),
    pytest.param(lambda: LinearSystem(Grid1D(8), 1.0, 1.0, np.nan), "mu",
                 id="mu-nan"),
    pytest.param(lambda: PowerEntropy(np.nan), "alpha", id="power-nan"),
    pytest.param(lambda: PowerEntropy(np.inf), "alpha", id="power-inf"),
    pytest.param(lambda: ExperimentPower(np.nan), "alpha", id="experiment-nan"),
    pytest.param(lambda: ExperimentPower(-np.inf), "alpha", id="experiment-inf"),
    pytest.param(lambda: FirstOrder(np.inf), "alpha", id="first-order-inf"),
])
def test_constructors_reject_non_finite_parameters(build, name):
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        build()


# -- decay-rate fitting -------------------------------------------------------

def test_fit_rate_series_exact_geometric():
    kappa, tau = 3.0, 1e-3
    k = np.arange(200)
    values = 2.5 * (1.0 + kappa * tau) ** (-k.astype(float))
    rate = fit_rate_series(k * tau, values)
    target = np.log(1.0 + kappa * tau) / tau
    assert abs(rate - target) <= 1e-10 * target


def test_fit_rate_series_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_rate_series([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])


@pytest.mark.parametrize("times, values, match", [
    pytest.param([0, 1, 2], [1.0, np.nan, 0.5], "finite", id="nan-value"),
    pytest.param([0, 1, 2], [1.0, np.inf, 0.5], "finite", id="inf-value"),
    pytest.param([0, np.nan, 2], [1.0, 0.7, 0.5], "finite", id="nan-time"),
    pytest.param([0, np.inf, 2], [1.0, 0.7, 0.5], "finite", id="inf-time"),
    pytest.param([1, 1, 1], [1.0, 0.7, 0.5], "two distinct", id="equal-times"),
    pytest.param([1], [1.0], "two distinct", id="one-sample"),
])
def test_fit_rate_series_rejects_unusable_samples(times, values, match):
    with pytest.raises(ValueError, match=match):
        fit_rate_series(times, values)


@pytest.mark.parametrize("times, values, shapes", [
    pytest.param([0, 1, 2], [1.0, 2.0], r"\(3,\) and \(2,\)", id="lengths"),
    pytest.param([[0, 1], [2, 3]], [[1.0, 0.5], [0.2, 0.1]],
                 r"\(2, 2\) and \(2, 2\)", id="2-D"),
    pytest.param(1.0, 2.0, r"\(\) and \(\)", id="0-D"),
])
def test_fit_rate_series_rejects_mismatched_shapes(times, values, shapes):
    # np.polyfit raised its own TypeError for unequal lengths and 2-D input
    with pytest.raises(ValueError, match=f"got shapes {shapes}$"):
        fit_rate_series(times, values)


def _gap_series(traj, e, grid):
    """H[u_k] - H[c] along a trajectory, c the constant state of its mass."""
    u0 = traj.states[0].values
    steady = StateField(u0.mean(axis=1, keepdims=True) * np.ones_like(u0))
    h_steady = evaluate(e, steady, grid)
    return np.array([evaluate(e, state, grid) - h_steady for state in traj.states])


def test_fit_rate_series_on_barenblatt_gap():
    grid = Grid1D(64, 1.0)
    problem = PorousMedium(grid, 2.0)
    traj = run(problem, get_scheme("implicit_euler"), barenblatt(grid), 1e-4,
               0.01, NewtonConfig(tol=1e-12))
    gaps = _gap_series(traj, ExperimentPower(5.0), grid)

    def rate(t0, t1):
        window = (traj.times >= t0) & (traj.times <= t1)
        return fit_rate_series(traj.times[window], gaps[window])

    full = rate(0.005, 0.01)
    assert full > 0.0
    # sliding 80% sub-windows stay within 5% of the full-window fit
    assert abs(rate(0.005, 0.009) - full) <= 0.05 * full
    assert abs(rate(0.006, 0.01) - full) <= 0.05 * full


def test_dlss_dissipation_and_cross_oracle():
    # fourth-order log-diffusion: the logarithmic entropy decays under
    # implicit stepping and the profile curvature matches -i0
    from rkentropy.operators import Dlss
    from rkentropy.stepping import run as run_traj

    grid = Grid1D(32, 1.0)
    problem = Dlss(grid)
    u0 = StateField.scalar(1.0 + 0.2 * np.cos(2.0 * np.pi * grid.x()))
    e = PowerEntropy(0.0)
    cfg = NewtonConfig(tol=1e-12)
    scheme = get_scheme("trapezoidal")
    traj = run_traj(problem, scheme, u0, 1e-6, 3e-5, cfg)
    entropies = [evaluate(e, s, grid) for s in traj.states]
    assert np.all(np.diff(entropies) <= 1e-14)
    assert min(s.flat.min() for s in traj.states) > 0.0
    assert i0(e, problem, traj.states[-1], 1.0) > 0.0
    prof = profile_g(e, problem, scheme, u0, 4e-8, 4, NewtonConfig(tol=1e-13))
    target = i0(e, problem, u0, 1.0)
    assert abs(d2g_at_zero(prof) + target) <= 1e-3 * abs(target)


def test_scalar_diffusion_stepping_dissipates():
    from rkentropy.operators import ScalarDiffusion

    grid = Grid1D(32, 1.0)
    problem = ScalarDiffusion(grid, a=lambda u: 1.0 + u**2,
                              da=lambda u: 2.0 * u)
    u0 = StateField.scalar(1.0 + 0.3 * np.cos(2.0 * np.pi * grid.x()))
    e = PowerEntropy(1.0)
    cfg = NewtonConfig(tol=1e-13)
    scheme = get_scheme("trapezoidal")
    traj = run(problem, scheme, u0, 1e-5, 3e-4, cfg)
    entropies = [evaluate(e, s, grid) for s in traj.states]
    assert np.all(np.diff(entropies) <= 1e-14)
    v = backward_solve(problem, scheme, u0, 1e-5, cfg)
    u_again = run(problem, scheme, v, 1e-5, 1e-5, cfg).states[-1]
    assert np.max(np.abs(u_again.flat - u0.flat)) <= 100.0 * cfg.tol


def test_fit_rate_series_rejects_constant_trajectory_gap():
    grid = Grid1D(16, 1.0)
    problem = PorousMedium(grid, 2.0)
    c = StateField.scalar(np.full(16, 1.0))
    traj = run(problem, get_scheme("implicit_euler"), c, 1e-4, 1e-3)
    gaps = _gap_series(traj, ExperimentPower(5.0), grid)
    with pytest.raises(ValueError, match="strictly positive"):
        fit_rate_series(traj.times, gaps)
