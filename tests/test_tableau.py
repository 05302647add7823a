import numpy as np
import pytest

from rkentropy.tableau import (
    ButcherTableau,
    Scheme,
    TableauError,
    c_rk,
    get_scheme,
    register,
    registry,
)


def test_c_rk_reference_values():
    assert c_rk(ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0])) == 0.0
    assert c_rk(ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])) == 2.0
    trap = ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5], c=[0.0, 1.0])
    assert c_rk(trap) == 1.0


def test_registry_builtins():
    reg = registry()
    assert set(reg) >= {"explicit_euler", "implicit_euler", "trapezoidal", "simpson"}
    assert get_scheme("implicit_euler").c_rk_effective == 0.0
    assert get_scheme("explicit_euler").c_rk_effective == 2.0
    assert get_scheme("trapezoidal").c_rk_effective == 1.0
    simpson = get_scheme("simpson")
    assert simpson.is_composite_simpson
    assert simpson.c_rk_effective == 1.0
    # every registered tableau lands exactly on the three-value table
    for scheme in reg.values():
        assert scheme.c_rk_effective in (0.0, 1.0, 2.0)


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="rk9000"):
        get_scheme("rk9000")
    with pytest.raises(KeyError, match="implicit_euler"):
        get_scheme("rk9000")  # error message lists the valid names


def test_register_user_tableau():
    # implicit midpoint: order 2, so the constant must be 1
    mid = ButcherTableau(a=[[0.5]], b=[1.0], c=[0.5])
    scheme = register("implicit_midpoint", mid)
    assert scheme.c_rk_effective == 1.0
    assert get_scheme("implicit_midpoint") is scheme


def test_validate_reports_bad_b_sum():
    t = ButcherTableau(a=[[0.0, 0.0], [0.0, 0.0]], b=[0.6, 0.6], c=[0.0, 0.0])
    report = t.validate()
    assert any("sum(b)=1.2" in line for line in report)


def test_validate_reports_bad_row_sum():
    t = ButcherTableau(a=[[0.0, 0.0], [0.3, 0.0]], b=[0.5, 0.5], c=[0.0, 1.0])
    report = t.validate()
    assert any("row 2" in line and "0.3" in line for line in report)


def test_validate_ok_for_consistent():
    assert ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0]).validate() == []


def test_c_rk_rejects_inconsistent():
    bad = ButcherTableau(a=[[0.0]], b=[0.9], c=[0.0])
    with pytest.raises(TableauError, match="sum"):
        c_rk(bad)


def test_order_two_identity_exact_dyadic():
    # sum(b) = 1 and sum(b c) = 1/2 force c_rk = 2 - 2 sum(b c) = 1;
    # dyadic entries make the identity exact in floating point.
    cases = [
        ([0.25, 0.25, 0.5], [0.0, 0.5, 0.75]),
        ([0.5, 0.5], [0.0, 1.0]),
        ([0.125, 0.375, 0.5], [1.0, 0.0, 0.75]),
    ]
    for b, c in cases:
        assert abs(np.dot(b, c) - 0.5) == 0.0
        a = np.zeros((len(b), len(b)))
        a[:, 0] = c  # rows sum to c_i
        assert c_rk(ButcherTableau(a=a, b=b, c=c)) == 1.0


def test_order_two_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = int(rng.integers(2, 5))
        b = rng.uniform(0.1, 1.0, s)
        b /= b.sum()
        c = rng.uniform(0.0, 1.0, s)
        c = c + (0.5 - np.dot(b, c))  # shift the knots so sum(b c) = 1/2
        a = np.zeros((s, s))
        a[:, 0] = c
        assert abs(c_rk(ButcherTableau(a=a, b=b, c=c)) - 1.0) < 1e-12


def test_tableau_shape_mismatch():
    with pytest.raises(TableauError, match="shape"):
        ButcherTableau(a=[[0.0]], b=[1.0, 0.0], c=[0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_tableau_rejects_non_finite_entries(name, bad):
    # a NaN entry once passed validate() and gave c_rk = NaN, an infinite one
    # c_rk = -inf; both failed only at the first solve, without naming the array
    arrays = {"a": np.array([[0.0, 0.0], [0.5, 0.5]]), "b": np.array([0.5, 0.5]),
              "c": np.array([0.0, 1.0])}
    arrays[name].flat[-1] = bad
    with pytest.raises(TableauError, match=f"^{name} must be finite, got"):
        ButcherTableau(**arrays)


def test_tableau_is_immutable():
    t = ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0])
    with pytest.raises(ValueError):
        t.b[0] = 2.0


def test_scheme_from_tableau_name():
    s = Scheme.from_tableau("ie", ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0]))
    assert s.name == "ie" and not s.is_composite_simpson
