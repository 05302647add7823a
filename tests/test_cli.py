import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkentropy import cli
from rkentropy.cli import (
    barenblatt_profile,
    cmd_check_conditions,
    cmd_dlss_constants,
    cmd_gprofile,
    cmd_simulate,
    main,
    make_initial,
    parse_config,
)
from rkentropy.entropy import GProfile
from rkentropy.operators import Grid1D, _csv
from rkentropy.regions import RegionMask, Witness
from rkentropy.stepping import _band_lapack, run, step_count
from rkentropy.tableau import get_scheme

MINIMAL = """\
# reproduction run
problem = pme
beta = 2.0
scheme = implicit_euler
n = 64
tau = 1e-4
t_end = 0.01
ic = barenblatt
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.problem == "pme" and cfg.beta == 2.0
    assert cfg.scheme == "implicit_euler"
    assert cfg.n == 64 and cfg.tau == 1e-4 and cfg.t_end == 0.01
    assert cfg.ic == "barenblatt" and cfg.t0 == 0.01 and cfg.x_r == 0.25
    assert cfg.newton_tol == 1e-12 and cfg.newton_max_iter == 50
    assert cfg.entropy == "experiment_power" and cfg.alpha == 5.0


def test_parse_config_rejects_negative_beta(tmp_path):
    # the library's own ValueError reaches the caller as it was raised; main
    # reports it as a config error (test_config_reals_are_range_checked)
    path = write_config(tmp_path, MINIMAL.replace("beta = 2.0", "beta = -1"))
    with pytest.raises(ValueError, match=r"^beta must be positive and finite, got -1\.0$"):
        parse_config(path)


def test_parse_config_rejects_unknown_scheme(tmp_path):
    path = write_config(tmp_path,
                        MINIMAL.replace("implicit_euler", "rk5"))
    with pytest.raises(ValueError, match="trapezoidal"):
        parse_config(path)  # message lists the valid schemes


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, MINIMAL + "frobnicate = 3\n")
    with pytest.raises(ValueError, match="line 9.*frobnicate"):
        parse_config(path)


def test_parse_config_rejects_a_repeated_key(tmp_path, capsys):
    # the second n once silently won, and run_meta.txt showed only it
    path = write_config(tmp_path, "problem = pme\nn = 16\nn = 32\n")
    with pytest.raises(ValueError, match=r"^line 3: duplicate key 'n' "
                                         r"\(first set on line 2\)$"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error:config: line 3: duplicate key 'n' "
                                       "(first set on line 2)\n")
    assert not out.exists()


def test_parse_config_rejects_bad_value(tmp_path):
    path = write_config(tmp_path, MINIMAL.replace("tau = 1e-4", "tau = fast"))
    with pytest.raises(ValueError, match="tau"):
        parse_config(path)


def test_parse_config_barenblatt_needs_pme(tmp_path):
    text = MINIMAL.replace("problem = pme", "problem = dlss")
    with pytest.raises(ValueError, match="barenblatt"):
        parse_config(write_config(tmp_path, text))


def test_barenblatt_profile_support():
    grid = Grid1D(64, 1.0)
    u = barenblatt_profile(grid.x(), beta=2.0, t0=0.01, x_r=0.25)
    x = grid.x()
    # zero exactly at the support endpoints 1/2 +- x_r (grid points here)
    assert u[x == 0.25][0] == 0.0
    assert u[x == 0.75][0] == 0.0
    assert np.all(u[(x < 0.25) | (x > 0.75)] == 0.0)
    # peak value at the centre: t0^(-1/3) * height constant
    height = (1.0 / 12.0) * (1.0 / 16.0) / 0.01 ** (2.0 / 3.0)
    assert u[x == 0.5][0] == pytest.approx(0.01 ** (-1.0 / 3.0) * height,
                                           rel=1e-14)
    assert np.all(u >= 0.0)


def test_make_initial_cosine_constant(tmp_path):
    text = MINIMAL.replace("ic = barenblatt",
                           "ic = cosine\nmean = 1.0\namplitude = 0.0")
    cfg = parse_config(write_config(tmp_path, text))
    u = make_initial(cfg, Grid1D(cfg.n, cfg.length))
    assert np.all(u.values == 1.0)


def test_make_initial_from_file(tmp_path):
    text = MINIMAL.replace("ic = barenblatt", "ic = file\nic_file = IC")
    text = text.replace("n = 64", "n = 8")
    data = tmp_path / "IC"
    np.savetxt(data, np.linspace(1.0, 2.0, 8))
    text = text.replace("ic_file = IC", f"ic_file = {data}")
    cfg = parse_config(write_config(tmp_path, text))
    u = make_initial(cfg, Grid1D(8, 1.0))
    assert u.values.shape == (1, 8)
    assert u.values[0, 0] == 1.0 and u.values[0, -1] == 2.0


def test_simulate_writes_deterministic_csv(tmp_path):
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4")
    text = text.replace("n = 64", "n = 16")
    cfg = parse_config(write_config(tmp_path, text))
    files = cmd_simulate(cfg)
    assert files == cmd_simulate(cfg)
    lines = files["entropy.csv"].strip().split("\n")
    assert lines[0] == "t,H,mass,min,max,iters"
    assert len(lines) == 7  # header + 6 states (5 steps + initial)
    for line in lines[1:]:
        assert len(line.split(",")) == 6
    # the mass column drifts by at most the stepping bound
    masses = [float(line.split(",")[2]) for line in lines[1:]]
    for k, m in enumerate(masses):
        assert abs(m - masses[0]) <= 10.0 * max(k, 1) * cfg.newton_tol * cfg.tau


def test_simulate_csv_floats_round_trip(tmp_path):
    text = MINIMAL.replace("t_end = 0.01", "t_end = 3e-4").replace("n = 64",
                                                                   "n = 16")
    cfg = parse_config(write_config(tmp_path, text))
    for line in cmd_simulate(cfg)["entropy.csv"].strip().split("\n")[1:]:
        for tok in line.split(","):
            assert repr(float(tok)) == tok or tok.isdigit()


def _same_float(text, x):
    y = float(text)
    if math.isnan(x):
        return math.isnan(y)
    return y == x and math.copysign(1.0, y) == math.copysign(1.0, x)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4))
def test_region_and_profile_csv_floats_round_trip(data, n, k):
    # every float a CSV writer emits parses back to the same value: NaN
    # as NaN, -0.0 with its sign, infinities and subnormals exactly
    floats = st.lists(st.floats(), min_size=n, max_size=n)
    taus, g, d2g, q = (np.array(data.draw(floats)) for _ in range(4))
    lines = GProfile(taus=taus, g=g, d2g=d2g, q=q).to_csv().splitlines()
    assert lines[0] == "tau,G,d2G,Q" and len(lines) == n + 1
    for line, row in zip(lines[1:], zip(taus, g, d2g, q)):
        assert all(map(_same_float, line.split(","), row))

    alphas = np.array(data.draw(st.lists(st.floats(), min_size=k,
                                         max_size=k)))
    betas = np.array(data.draw(floats))
    member = np.zeros((k, n), dtype=bool)
    witnesses = {}
    for i in range(k):
        for j in range(n):
            member[i, j] = data.draw(st.booleans())
            if member[i, j]:
                witnesses[(i, j)] = Witness(
                    *data.draw(st.tuples(st.floats(), st.floats())),
                    c3=data.draw(st.none() | st.floats()))
    mask = RegionMask(alphas=alphas, betas=betas, member=member,
                      witnesses=witnesses)
    lines = mask.to_csv().splitlines()
    assert len(lines) == k * n + 1
    for (i, j), line in zip(np.ndindex(k, n), lines[1:]):
        a, b, flag, c1, c2, c3 = line.split(",")
        assert _same_float(a, alphas[i]) and _same_float(b, betas[j])
        assert flag == str(int(member[i, j]))
        w = witnesses.get((i, j))
        if w is None:
            assert c1 == c2 == c3 == ""
            continue
        assert _same_float(c1, w.c1) and _same_float(c2, w.c2)
        assert c3 == "" if w.c3 is None else _same_float(c3, w.c3)


def _parse_cell(text):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.floats() | st.integers() | st.none(),
                              min_size=3, max_size=3)))
def test_csv_cells_round_trip(rows):
    # the one CSV writer: NaN, -0.0, infinities and subnormals parse back
    # exactly, integers stay integers and None is an empty cell
    rows = [[math.nan, -0.0, math.inf], [-math.inf, 5e-324, 0], [None, 7, 0.1],
            *rows]
    text = _csv(("a", "b", "c"), rows)
    assert text.endswith("\n") and text.count("\n") == len(rows) + 1
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    for line, row in zip(lines[1:], rows):
        for cell, x in zip(map(_parse_cell, line.split(",")), row, strict=True):
            if isinstance(x, float):
                assert isinstance(cell, float) and _same_float(cell, x)
            else:
                assert cell == x and type(cell) is type(x)


def test_simulate_two_species_snapshot_round_trips(tmp_path):
    text = ("problem = linear_system\nmu = 0.5\nscheme = trapezoidal\nn = 16\n"
            "tau = 1e-3\nt_end = 5e-3\nic = cosine\nentropy = log_sum\n"
            "snapshot_times = 3e-3\n")
    cfg = parse_config(write_config(tmp_path, text))
    lines = cmd_simulate(cfg)["snapshot_t0.003.csv"].splitlines()
    assert lines[0] == "x,u1,u2" and len(lines) == cfg.n + 1
    problem, _, u0, ncfg = cli._inputs(cfg)
    state = run(problem, get_scheme(cfg.scheme), u0, cfg.tau, cfg.t_end,
                ncfg).states[3]
    table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table[:, 0], problem.grid.x())
    assert np.array_equal(table[:, 1:].T, state.values)


def test_check_conditions_file_equals_its_lines(tmp_path, capsys):
    assert main(["check-conditions", "--preset", "pme_power", "--points", "5",
                 "--out", str(tmp_path / "cond.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == cmd_check_conditions("pme_power", 1.0, 2.0, 0.5, 2.0, 5, 1, 1.0)
    assert (tmp_path / "cond.csv").read_text() == "\n".join(lines) + "\n"
    assert lines[0].split(",")[-3:] == ["cond1_ok", "cond2_ok", "cond3_ok"]
    assert all(flag in ("0", "1") for line in lines[1:] for flag in line.split(",")[-3:])


def test_simulate_snapshots(tmp_path):
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4")
    text = text.replace("n = 64", "n = 16") + "snapshot_times = 0,3e-4\n"
    cfg = parse_config(write_config(tmp_path, text))
    files = cmd_simulate(cfg)
    assert "snapshot_t0.csv" in files
    assert "snapshot_t0.0003.csv" in files


def test_gprofile_minimal_grid(tmp_path):
    text = MINIMAL.replace("t_end = 0.01", "t_end = 1e-3").replace("n = 64",
                                                                   "n = 16")
    cfg = parse_config(write_config(tmp_path, text))
    files = cmd_gprofile(cfg, [5e-4], 1e-4, 3, ["implicit_euler"])
    assert len(files) == 2
    # run_meta.txt records the command's own inputs after the config's
    assert ("\nbase_times = [0.0005]\ntau_max = 0.0001\nm = 3\n"
            "schemes = ['implicit_euler']\nrkentropy_version = "
            in files["run_meta.txt"])
    lines = files["gprofile_implicit_euler_t0.0005.csv"].strip().split("\n")
    assert lines[0] == "tau,G,d2G,Q"
    assert len(lines) == 5


def test_gprofile_rejects_bad_arguments(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    for argv, line in ((["--tau-max", "0"], "tau_max must be positive and finite, got 0.0"),
                       (["--m", "2"], "m must be an integer of at least 3, got 2")):
        out = tmp_path / argv[0][2:]
        assert main(["gprofile", "--config", str(cfg_path), "--base-times", "0",
                     "--schemes", "implicit_euler", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error:config: {line}\n"
        assert not out.exists()


def test_region_command(tmp_path, capsys):
    path = tmp_path / "region.csv"
    assert main(["region", "--family", "pme0", "--alpha-max", "2", "--beta-max",
                 "2", "--alpha-steps", "4", "--beta-steps", "4", "--d", "1",
                 "--c-rk", "1", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,member,witness_c1,witness_c2,witness_c3"
    assert len(lines) == 17


def test_check_conditions_heat_log():
    lines = cmd_check_conditions("heat_log", 1.0, 2.0, 0.5, 2.0, 4, 3, 1.0)
    assert lines[0].startswith("u,b,")
    # cond3 value for the heat/log pair is c_rk - 1 at every u
    for line in lines[1:]:
        assert float(line.split(",")[5]) == pytest.approx(0.0, abs=1e-14)
    lines0 = cmd_check_conditions("heat_log", 1.0, 2.0, 0.5, 2.0, 4, 3, 0.0)
    for line in lines0[1:]:
        assert float(line.split(",")[5]) == pytest.approx(-1.0, abs=1e-14)
        assert line.split(",")[8] == "1"  # cond3 passes only for c_rk = 0


def test_check_conditions_anchor_prints_positive_zero(capsys):
    # e = beta - alpha < 0 makes b negative past the anchor, where the
    # closed form's product is -0.0 before it is normalized
    assert main(["check-conditions", "--preset", "pme_power", "--alpha", "3",
                 "--beta", "2", "--points", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0].startswith("0.5,0.0,0.0,")
    assert all(float(row.split(",")[1]) < 0.0 for row in rows[1:])


def test_dlss_constants_pass():
    lines, ok = cmd_dlss_constants()
    assert ok
    assert len(lines) == 3
    assert all(line.endswith("PASS") for line in lines)
    assert "20/129" in lines[0]


def test_main_exit_codes(tmp_path, capsys):
    assert main(["dlss-constants"]) == 0
    bad = write_config(tmp_path, MINIMAL.replace("implicit_euler", "rk5"))
    assert main(["simulate", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config:")


@pytest.mark.parametrize("argv", [
    ["region", "--family", "pme0", "--d", "0"],
    ["region", "--family", "pme0", "--d", "2", "--c-rk", "0.5"],
    ["region", "--family", "pme0", "--alpha-steps", "0"],
    ["region", "--family", "pme0", "--alpha-min", "-1"],
    ["region", "--family", "pme1", "--beta-min", "-1"],
    ["region", "--family", "pme1", "--d", "3", "--c-rk", "2"],
    ["check-conditions", "--u-min", "0"],
    ["check-conditions", "--d", "0"],
    ["check-conditions", "--points", "-1"],
    ["check-conditions", "--u-max", "inf"],
    ["check-conditions", "--alpha", "3", "--beta", "2"],  # heat_log fixes both
    # a NaN exponent printed all-NaN rows, beta <= 0 a degenerate table, and
    # exponents whose powers overflow NaN rows with every flag 0
    ["check-conditions", "--preset", "pme_power", "--alpha", "nan"],
    ["check-conditions", "--preset", "pme_power", "--beta", "inf"],
    ["check-conditions", "--preset", "pme_power", "--beta", "0"],
    ["check-conditions", "--preset", "pme_power", "--beta=-1"],
    ["check-conditions", "--preset", "pme_power", "--alpha", "1e308", "--points", "2"],
    ["check-conditions", "--preset", "pme_power", "--alpha=-400", "--beta", "400",
     "--points", "3", "--u-max", "3"],
])
def test_main_rejects_out_of_range_arguments(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}={value}")
    for key in ("beta", "length", "tau", "t_end", "t0")
    for value in ("nan", "inf", "-inf", "0.0", "-1")
] + [pytest.param("n", "3", id="n=3")])
def test_config_reals_are_range_checked(tmp_path, capsys, key, value):
    # each through the library's own check, reported as a config error; the
    # value replaces MINIMAL's own line, since a repeated key is an error too
    text = "".join(line for line in MINIMAL.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    cfg_path = write_config(tmp_path, text + f"{key} = {value}\n")
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error:config: {key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["u_min", "u_max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_check_conditions_range_ends_must_be_finite(tmp_path, capsys, key, value):
    out = tmp_path / "out.csv"
    assert main(["check-conditions", "--preset", "pme_power",
                 f"--{key.replace('_', '-')}={value}", "--out", str(out)]) == 2
    bound = {"u_min": "positive and finite", "u_max": "finite and above 0.5"}[key]
    assert capsys.readouterr().err == f"error:config: {key} must be {bound}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    # the first three once blamed u_grid, which is no option, and the range
    # ends alpha_range and beta_range
    (["check-conditions", "--u-min", "0"], "u_min must be positive and finite, got 0.0"),
    (["check-conditions", "--u-min", "3", "--u-max", "2"],
     "u_max must be finite and above 3.0, got 2.0"),
    (["check-conditions", "--u-min", "1", "--u-max", "1", "--points", "2"],
     "u_max must be finite and above 1.0, got 1.0"),
    (["region", "--family", "pme0", "--alpha-min=-1"],
     "alpha_min must be positive and finite, got -1.0"),
    (["region", "--family", "pme0", "--beta-max=inf"],
     "beta_max must be positive and finite, got inf"),
    # above u_min, but by less than 3 distinct float nodes need: the grid
    # repeats a node, which once blamed u_grid
    (["check-conditions", "--u-min", "1", "--u-max", "1.0000000000000002", "--points",
      "3"], "u_max must be far enough above 1.0 for 3 distinct points, "
            "got 1.0000000000000002"),
], ids=["u_min=0", "u_max<u_min", "u_max=u_min", "alpha_min=-1", "beta_max=inf",
        "u_max=u_min+ulp"])
def test_range_errors_name_the_option(tmp_path, capsys, argv, line):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error:config: {line}\n"
    assert not out.exists()


def test_check_conditions_one_point_grid(tmp_path, capsys):
    # at --points 1 the grid is u_min alone, and u_max may equal it
    assert main(["check-conditions", "--u-min", "1", "--u-max", "1", "--points",
                 "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1.0,")


@pytest.mark.parametrize("points", ["-3", "0"])
def test_check_conditions_points_is_a_count(tmp_path, capsys, points):
    # -3 reached numpy's "Number of samples, -3, must be non-negative.", and
    # 0 an empty grid blamed on u_grid
    out = tmp_path / "out.csv"
    assert main(["check-conditions", f"--points={points}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error:config: points must be an integer of at least 1, got {points}\n")
    assert not out.exists()


def test_main_reports_overflowing_run(tmp_path, capsys):
    # an explicit step far beyond the stability limit blows up; the run
    # must abort with a categorized error, not a traceback
    text = MINIMAL.replace("implicit_euler", "explicit_euler")
    text = text.replace("tau = 1e-4", "tau = 1.0")
    text = text.replace("t_end = 0.01", "t_end = 20.0")
    cfg_path = write_config(tmp_path, text, name="blowup.cfg")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:step:")


@pytest.mark.parametrize("edits, argv, category", [
    ({}, ["gprofile", "--base-times", "nan"], "config"),
    ({}, ["gprofile", "--base-times", "inf"], "config"),
    ({}, ["gprofile", "--base-times", "-0.5"], "config"),
    ({}, ["gprofile", "--base-times=-1,1e-3"], "config"),  # valid one listed
    ({}, ["gprofile", "--base-times", "nan,3e-4"], "config"),  # NaN not last
    ({}, ["gprofile", "--base-times", "abc"], "config"),
    ({}, ["gprofile", "--schemes", ",,"], "config"),
    ({"tau = 1e-4": "tau = inf"}, ["simulate"], "config"),
    ({"ic = barenblatt": "ic = barenblatt\nsnapshot_times = nan"}, ["simulate"],
     "config"),
    ({"ic = barenblatt": "ic = cosine\nmean = nan"}, ["simulate"], "config"),
    ({"problem = pme": "problem = linear_system\nrho1 = -1",
      "ic = barenblatt": "ic = cosine"}, ["simulate"], "config"),
    ({"problem = pme": "problem = linear_system\nentropy = first_order",
      "ic = barenblatt": "ic = cosine"}, ["simulate"], "config"),
    # a state outside the operator's domain is not a config error
    ({"problem = pme": "problem = dlss", "ic = barenblatt": "ic = cosine\nmean = 0"},
     ["simulate"], "domain"),
    # snapshot times must lie on the trajectory, which ends at t_end = 5e-4
    ({"ic = barenblatt": "ic = barenblatt\nsnapshot_times = 5"}, ["simulate"],
     "config"),
    ({"ic = barenblatt": "ic = barenblatt\nsnapshot_times = -1"}, ["simulate"],
     "config"),
    # the last two categories of main's error table
    ({}, ["gprofile", "--schemes", "rk5"], "lookup"),
    ({"ic = barenblatt": "ic = file\nic_file = no/such/ic.txt"}, ["simulate"], "io"),
    # the Newton settings rest on NewtonConfig's own checks
    ({"ic = barenblatt": "ic = barenblatt\nnewton_tol = inf"}, ["simulate"], "config"),
    ({"ic = barenblatt": "ic = barenblatt\nnewton_tol = 0"}, ["gprofile"], "config"),
    ({"ic = barenblatt": "ic = barenblatt\nnewton_max_iter = 0"}, ["simulate"],
     "config"),
    # each time is finite, but the step count t_end / tau is not
    ({"tau = 1e-4": "tau = 1e-300", "t_end = 5e-4": "t_end = 1e300"}, ["simulate"],
     "config"),
    # a negative cell has no real power 1.5 in h(u) = u^1.5 / 0.75
    ({"ic = barenblatt": "ic = cosine\nmean = 0\namplitude = 1\nentropy = power\n"
                         "alpha = 0.5"}, ["simulate"], "domain"),
])
def test_main_rejects_unusable_values(tmp_path, capsys, edits, argv, category):
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64",
                                                                   "n = 16")
    for old, new in edits.items():
        text = text.replace(old, new)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, text)
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error:{category}:") and err.count("\n") == 1
    assert not out.exists()


def test_main_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    # its UnicodeDecodeError is a ValueError: once a traceback and exit 1
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(MINIMAL.replace("reproduction", "r\xe9sum\xe9").encode("latin-1"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:config: 'utf-8' codec can't decode byte 0xe9 ")
    assert err.count("\n") == 1 and not out.exists()


def test_main_simulate_and_gprofile(tmp_path, capsys):
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64",
                                                                   "n = 16")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    # one line per file written
    assert capsys.readouterr().out == (f"wrote {out / 'entropy.csv'}\n"
                                       f"wrote {out / 'run_meta.txt'}\n")
    assert (out / "entropy.csv").exists()
    meta = (out / "run_meta.txt").read_text()
    # the LAPACK numpy links solves the Newton systems, at the live thread count
    _, width, path, name = _band_lapack()
    assert (f"\nlapack = {name}, {8 * width}-bit integers, found through {path}\n"
            in meta)
    assert re.search(r"\nblas_threads = (\d+|unknown)\n", meta)
    # the SIMD targets numpy dispatches to, read as numpy states them
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    assert (f"\nnumpy_simd = baseline {' '.join(simd['baseline'])}; found "
            f"{' '.join(simd.get('found', [])) or 'none'}\n") in meta
    out2 = tmp_path / "prof"
    assert main(["gprofile", "--config", str(cfg_path), "--base-times",
                 "3e-4", "--tau-max", "1e-4", "--m", "4", "--schemes",
                 "implicit_euler,trapezoidal", "--out", str(out2)]) == 0
    assert capsys.readouterr().out == "".join(
        f"wrote {out2 / name}\n" for name in (
            "gprofile_implicit_euler_t0.0003.csv", "gprofile_trapezoidal_t0.0003.csv",
            "run_meta.txt"))
    # the SIMD targets that made the profiles are on record beside them
    assert "\nnumpy_simd = " in (out2 / "run_meta.txt").read_text()
    assert (out2 / "gprofile_implicit_euler_t0.0003.csv").exists()
    assert (out2 / "gprofile_trapezoidal_t0.0003.csv").exists()


def _count_runs(monkeypatch):
    """Record the (tau, t_end) of every trajectory the CLI runs."""
    calls, real = [], cli.run

    def counted(problem, scheme, u0, tau, t_end, *rest):
        calls.append((tau, t_end))
        return real(problem, scheme, u0, tau, t_end, *rest)

    monkeypatch.setattr(cli, "run", counted)
    return calls


@pytest.mark.parametrize("edits, argv, category", [
    ({"ic = barenblatt": "ic = barenblatt\nsnapshot_times = 5"}, ["simulate"],
     "config"),
    ({}, ["gprofile", "--base-times=-1,3e-4"], "config"),
    ({}, ["gprofile", "--base-times", "1"], "config"),  # past t_end = 5e-4
    # profile_g's own checks, made before the march to the base time
    ({}, ["gprofile", "--base-times", "3e-4", "--m", "2"], "config"),
    ({}, ["gprofile", "--base-times", "3e-4", "--tau-max", "0"], "config"),
    # the entropy at the initial state: a negative cell has no real power 1.5
    ({"ic = barenblatt": "ic = cosine\nmean = 0\namplitude = 1\nentropy = power\n"
                         "alpha = 0.5"}, ["simulate"], "domain"),
    ({"problem = pme": "problem = linear_system\nentropy = first_order",
      "ic = barenblatt": "ic = cosine"}, ["simulate"], "config"),
], ids=[f"edits{i}-argv{i}" for i in range(7)])
def test_times_are_checked_before_any_step(tmp_path, capsys, monkeypatch,
                                           edits, argv, category):
    calls = _count_runs(monkeypatch)
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64",
                                                                   "n = 16")
    for old, new in edits.items():
        text = text.replace(old, new)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, text)
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error:{category}:") and err.count("\n") == 1
    assert calls == [] and not out.exists()


def test_gprofile_failing_on_a_later_scheme_writes_nothing(tmp_path, capsys):
    # implicit Euler's profile is complete before explicit Euler blows up
    # on its march at tau = 1e-2 (past its stability limit at n = 16)
    cfg_path = write_config(tmp_path, "problem = pme\nn = 16\ntau = 1e-2\n"
                                      "t_end = 1.0\nic = cosine\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["gprofile", "--config", str(cfg_path), "--base-times", "1.0",
                     "--m", "4", "--tau-max", "1e-4", "--schemes",
                     "implicit_euler,explicit_euler", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:step:") and err.count("\n") == 1
    assert not out.exists()


def test_gprofile_steps_only_to_the_last_base_time(tmp_path, monkeypatch):
    # base time 0 needs no step; 0 and 3e-4 need three steps of 1e-4, and
    # the profile at 0 is the same either way
    calls = _count_runs(monkeypatch)
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64",
                                                                   "n = 16")
    cfg_path = write_config(tmp_path, text)
    csv = {}
    for times in ("0", "0,3e-4"):
        out = tmp_path / times
        assert main(["gprofile", "--config", str(cfg_path), "--base-times",
                     times, "--tau-max", "1e-4", "--m", "4", "--schemes",
                     "implicit_euler", "--out", str(out)]) == 0
        csv[times] = (out / "gprofile_implicit_euler_t0.csv").read_text()
    assert csv["0"] == csv["0,3e-4"]
    assert [step_count(*call) for call in calls] == [3]


def _count_profiles(monkeypatch):
    """Record the (scheme name, base time) of every profile_g call."""
    calls, real = [], cli.ent.profile_g

    def counted(e, problem, scheme, *rest, base_time):
        calls.append((scheme.name, base_time))
        return real(e, problem, scheme, *rest, base_time=base_time)

    monkeypatch.setattr(cli.ent, "profile_g", counted)
    return calls


def test_gprofile_files_are_named_by_their_step_time(tmp_path):
    # 1.5e-4 and 2.5e-4 snap to the steps at 1e-4 and 2e-4 (tau = 1e-4);
    # the files once carried the requested times
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64",
                                                                   "n = 16")
    cfg = parse_config(write_config(tmp_path, text))
    files = cmd_gprofile(cfg, [2.5e-4, 1.5e-4], 1e-4, 3, ["implicit_euler"])
    assert list(files) == ["gprofile_implicit_euler_t0.0001.csv",
                           "gprofile_implicit_euler_t0.0002.csv", "run_meta.txt"]
    assert "\nbase_times = [0.0001, 0.0002]\n" in files["run_meta.txt"]


def test_gprofile_computes_each_step_and_scheme_once(tmp_path, capsys, monkeypatch):
    # three base times on one step and a repeated scheme once made three
    # sweeps per march, two marches and two files named by the requests
    runs, profiles = _count_runs(monkeypatch), _count_profiles(monkeypatch)
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64",
                                                                   "n = 16")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["gprofile", "--config", str(cfg_path), "--base-times",
                 "0.0002,0.0002,0.00021", "--tau-max", "1e-4", "--m", "3",
                 "--schemes", "trapezoidal,trapezoidal,implicit_euler",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "".join(
        f"wrote {out / name}\n" for name in (
            "gprofile_trapezoidal_t0.0002.csv", "gprofile_implicit_euler_t0.0002.csv",
            "run_meta.txt"))
    assert runs == [(1e-4, 2e-4)] * 2
    assert profiles == [("trapezoidal", 2e-4), ("implicit_euler", 2e-4)]
    meta = (out / "run_meta.txt").read_text()
    assert ("\nbase_times = [0.0002]\ntau_max = 0.0001\nm = 3\n"
            "schemes = ['trapezoidal', 'implicit_euler']\n") in meta


def test_simulate_snapshots_are_named_by_their_step_time(tmp_path, monkeypatch):
    calls = _count_runs(monkeypatch)
    text = MINIMAL.replace("t_end = 0.01", "t_end = 5e-4").replace("n = 64", "n = 16")
    cfg = parse_config(write_config(
        tmp_path, text + "snapshot_times = 2.5e-4,1.5e-4,2e-4,2.1e-4\n"))
    files = cmd_simulate(cfg)
    assert len(calls) == 1
    assert list(files) == ["entropy.csv", "snapshot_t0.0001.csv",
                           "snapshot_t0.0002.csv", "run_meta.txt"]
    assert "\nsnapshot_times = [0.0001, 0.0002]\n" in files["run_meta.txt"]
    problem, _, u0, ncfg = cli._inputs(cfg)
    state = run(problem, get_scheme(cfg.scheme), u0, cfg.tau, cfg.t_end,
                ncfg).states[1]
    table = np.array([[float(cell) for cell in line.split(",")]
                      for line in files["snapshot_t0.0001.csv"].splitlines()[1:]])
    assert np.array_equal(table[:, 1], state.values[0])


def test_main_region_command(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["region", "--family", "pme0", "--d", "1", "--c-rk", "1",
                 "--alpha-steps", "3", "--beta-steps", "3", "--out",
                 str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["--family", "pme0", "--d", "2", "--alpha-max", "1e300"],
    ["--family", "pme1", "--alpha-min", "2e200", "--alpha-max", "2e200",
     "--beta-min", "1e200", "--beta-max", "1e200", "--alpha-steps", "1",
     "--beta-steps", "1"],
])
def test_main_region_overflow_is_a_non_member(tmp_path, argv):
    # the float witness search overflows at these exponents: no witness,
    # so the cell is a non-member and the command still succeeds
    out = tmp_path / "r.csv"
    assert main(["region", *argv, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    huge = [row for row in rows if float(row[0]) > 1e100]
    assert huge and all(row[2:] == ["0", "", "", ""] for row in huge)


def test_run_meta_records_the_live_blas_thread_count():
    # the count OpenBLAS runs with, read from the library that solves the
    # Newton systems, not the count it was built for
    probe = "from rkentropy import cli; print(cli._platform_meta()[-1])"
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        if out.stdout.strip() == "blas_threads = unknown":
            pytest.skip("numpy's LAPACK is not OpenBLAS")
        assert out.stdout.strip() == f"blas_threads = {threads}"


def test_main_region_flat_fit_is_a_non_member(tmp_path):
    # at these exponents the fitted c2 coefficient of R rounds to 0, so the
    # fit has no vertex: no witness, and the cell is a non-member
    out = tmp_path / "r.csv"
    assert main(["region", "--family", "pme0", "--d", "2", "--alpha-min", "1e-300",
                 "--alpha-max", "1e-300", "--beta-min", "1e50", "--beta-max", "1e50",
                 "--alpha-steps", "1", "--beta-steps", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["1e-300,1e+50,0,,,"]


def test_import_leaves_scipy_unloaded(tmp_path):
    # Newton's band solves call the dgbsv of the LAPACK numpy already
    # loaded, so no command and no library path imports any scipy module;
    # the condition triple is in closed form, so nothing loads numpy's
    # quadrature rules (numpy.polynomial) either
    show = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    conditions = ("from rkentropy.cli import cmd_check_conditions as c; "
                  "c('pme_power', 1.0, 2.0, 0.5, 2.0, 16, 1, 1.0); "
                  "c('heat_log', 1.0, 1.0, 0.5, 2.0, 16, 3, 0.0); ")
    state = ("import numpy as np; from rkentropy import Grid1D, PorousMedium, "
             "PowerEntropy, StateField, get_scheme, profile_g, run; "
             "g = Grid1D(16); p = PorousMedium(g, 2.0); "
             "u = StateField.scalar(1.0 + 0.3 * np.cos(g.x())); ")
    step = "run(p, get_scheme('trapezoidal'), u, 1e-4, 1e-4); "
    sweep = ("assert profile_g(PowerEntropy(1.0), p, get_scheme('trapezoidal'), "
             "u, 1e-4, 4).failed_index is None; ")
    cfg = write_config(tmp_path, MINIMAL)
    where = str(tmp_path / "o")
    simulate, gprofile, region = (
        f"from rkentropy.cli import main; assert main({argv!r}) == 0; " for argv in (
            ["simulate", "--config", str(cfg), "--out", where],
            ["gprofile", "--config", str(cfg), "--base-times", "1e-3", "--m", "4",
             "--out", where],
            ["region", "--family", "pme0", "--alpha-steps", "2", "--beta-steps", "2",
             "--out", os.path.join(where, "region.csv")]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for probe in ("import sys, rkentropy; " + show,
                  "import sys, rkentropy; " + conditions + show,
                  "import sys; " + state + step + show,
                  "import sys; " + state + sweep + show,
                  "import sys; " + simulate + show,
                  "import sys; " + gprofile + show,
                  "import sys; " + region + show):
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=60)
        assert out.stdout.splitlines()[-1] == "[]", probe
