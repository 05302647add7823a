import numpy as np
import pytest

from rkentropy.tableau import (
    ButcherTableau,
    Scheme,
    TableauError,
    get_scheme,
    registry,
)


def test_c_rk_reference_values():
    assert Scheme("ie", ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0])).c_rk_effective == 0.0
    assert Scheme("ee", ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])).c_rk_effective == 2.0
    trap = ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5], c=[0.0, 1.0])
    assert Scheme("trap", trap).c_rk_effective == 1.0


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
    # implicit midpoint: order 2, so the constant must be 1; a user tableau
    # runs as a Scheme of its own and leaves the registry as it is
    mid = ButcherTableau(a=[[0.5]], b=[1.0], c=[0.5])
    scheme = Scheme("implicit_midpoint", mid)
    assert scheme.c_rk_effective == 1.0 and scheme.tableau is mid
    assert "implicit_midpoint" not in registry()
    with pytest.raises(KeyError, match="implicit_midpoint"):
        get_scheme("implicit_midpoint")


def test_registry_is_the_four_builtins_and_a_copy():
    reg = registry()
    assert list(reg) == ["explicit_euler", "implicit_euler", "trapezoidal", "simpson"]
    assert all(scheme.name == name for name, scheme in reg.items())
    reg["implicit_midpoint"] = Scheme("implicit_midpoint",
                                      ButcherTableau(a=[[0.5]], b=[1.0], c=[0.5]))
    del reg["simpson"]
    assert list(registry()) == ["explicit_euler", "implicit_euler", "trapezoidal",
                                "simpson"]
    assert get_scheme("simpson").is_composite_simpson
    with pytest.raises(KeyError):
        get_scheme("implicit_midpoint")


# a tableau is checked for consistency when it is built

def test_validate_reports_bad_b_sum():
    with pytest.raises(TableauError, match=r"^inconsistent tableau: sum\(b\)=1\.2 != 1$"):
        ButcherTableau(a=[[0.0, 0.0], [0.0, 0.0]], b=[0.6, 0.6], c=[0.0, 0.0])


def test_validate_reports_bad_row_sum():
    with pytest.raises(TableauError, match=r"^inconsistent tableau: row 2: "
                                           r"sum\(a\)=0\.3 != c=1\.0$"):
        ButcherTableau(a=[[0.0, 0.0], [0.3, 0.0]], b=[0.5, 0.5], c=[0.0, 1.0])


def test_validate_ok_for_consistent():
    assert ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0]).s == 1


def test_c_rk_rejects_inconsistent():
    # no inconsistent tableau exists, so c_rk never sees one
    with pytest.raises(TableauError, match=r"^inconsistent tableau: sum\(b\)=0\.9 != 1$"):
        ButcherTableau(a=[[0.0]], b=[0.9], c=[0.0])


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
        assert Scheme("dyadic", ButcherTableau(a=a, b=b, c=c)).c_rk_effective == 1.0


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
        assert abs(Scheme("random", ButcherTableau(a=a, b=b, c=c)).c_rk_effective
                   - 1.0) < 1e-12


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
    s = Scheme("ie", ButcherTableau(a=[[1.0]], b=[1.0], c=[1.0]))
    assert s.name == "ie" and not s.is_composite_simpson and s.c_rk_effective == 0.0


def test_scheme_reads_c_rk_from_its_tableau():
    # a stored constant once let Scheme("ie2", <implicit Euler>, 2.0) claim
    # c_rk = 2 for a tableau whose c_rk is 0
    with pytest.raises(TypeError):
        Scheme("ie2", get_scheme("implicit_euler").tableau, 2.0)
