"""CLI dispatch, report files, determinism, and the convergence table."""

import ast
import dataclasses
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import semiprop
from semiprop.cli import CHECKS, POSITIVE, _merge_params, main
from semiprop.core import SpacetimeGrid, assemble_propagator
from semiprop.cosmo import ClassicalState, CosmoParams, evolve_classical, friedmann_residual
from semiprop.lattice import SIGNATURES, LatticeConfig, QuadraticFunctional
from semiprop.quadratic import PREFACTOR_CASES, free_particle_factors, harmonic_factors
from semiprop.report import above, build_convergence_rows, judge, last_order, near, write_csv
from semiprop.runners.cosmo import TRAJECTORY_HEADER, _trajectory_rows
from semiprop.runners import lattice as lattice_runners
from semiprop.runners.lattice import _site_rows
from semiprop.runners.quadratic import (
    PROPAGATOR_HEADER,
    _propagator_rows,
    _run_quadratic_schrodinger,
)


def read_report(out_dir):
    with open(out_dir / "report.json") as handle:
        return json.load(handle)


def record(report, name):
    matches = [c for c in report["checks"] if c["name"] == name]
    assert len(matches) == 1, "missing record {}".format(name)
    return matches[0]


# ------------------------------------------------------------- examples


def test_lattice_conformal_transport_example(tmp_path):
    code = main(
        [
            "lattice", "conformal-transport",
            "--lam", "8", "--dims", "[4,4]", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = read_report(tmp_path)
    assert report["scenario"] == "lattice"
    assert report["pass"] is True
    assert record(report, "curvature-functional")["value"] == 16.0
    lattice_csv = (tmp_path / "lattice.csv").read_text().splitlines()
    assert lattice_csv[0] == "site_index_0,site_index_1,value"
    assert len(lattice_csv) == 1 + 16


def test_quadratic_van_vleck_example(tmp_path):
    code = main(["quadratic", "van-vleck", "--family", "free", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    rec = record(report, "van-vleck-deviation")
    assert rec["pass"] and rec["value"] <= 1e-8 and rec["tolerance"] == 1e-6


def test_cosmo_de_sitter_example(tmp_path):
    code = main(["cosmo", "de-sitter", "--lam", "3.0", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert record(report, "scale-factor-growth")["value"] <= 1e-6
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,a,adot,phi,phidot,constraint_residual"


def test_de_sitter_refuses_where_rk4_truncation_reaches_the_growth_tolerance(
    tmp_path, capsys
):
    # t_end H^5 step^4 exp(H t_end) / 120 at the default step reaches half of
    # 1e-6 near t_end 15.1; a run either certifies or is refused, never fails
    codes = {}
    for t_end in (10.0 + 0.5 * k for k in range(21)):
        argv = ["cosmo", "de-sitter", "--t_end", repr(t_end)]
        codes[t_end] = main(argv + ["--out", str(tmp_path / str(t_end))])
        err = capsys.readouterr().err
        assert codes[t_end] in (0, 2), argv
        if codes[t_end] == 2:
            assert "'lam' = 3.0, 't_end' = {!r}, 'step' = 0.001".format(t_end) in err
            assert "RK4's global error" in err
    assert codes[10.0] == codes[14.0] == 0
    assert codes[16.0] == codes[20.0] == 2


# ------------------------------------------------------- report contract


def test_report_key_order_and_checks_shape(tmp_path):
    main(["lattice", "greens", "--out", str(tmp_path)])
    report = read_report(tmp_path)
    assert list(report) == [
        "scenario", "checks", "seed", "runtime_seconds", "version", "pass",
    ]
    for check in report["checks"]:
        assert set(check) == {
            "name", "value", "tolerance", "pass", "diagnostic", "detail",
        }


AT_MOST = "pass iff value <= tolerance"
# (name, tolerance, diagnostic, detail, pass) of each record, in order; the
# value is left out, since its last bits follow the CPU's vector libm
RECORD_SHAPES = {
    ("quadratic", "hj"): [
        ("hamilton-jacobi", 1e-8, False, AT_MOST, True),
        ("consistency", 1e-8, False, AT_MOST, True),
    ],
    ("quadratic", "van-vleck"): [("van-vleck-deviation", 1e-6, False, AT_MOST, True)],
    ("quadratic", "prefactor-ode"): [
        ("closed-form-deviation", 1e-8, False, AT_MOST, True),
        ("observed-order", 0.5, False, "pass iff |value - 4| <= tolerance", True),
    ],
    ("quadratic", "schrodinger-order"): [
        ("stencil-order", 0.3, False, "pass iff |value - 2| <= tolerance", True),
    ],
    ("general-hj", "decoupling"): [("decoupling-residual", 1e-8, False, AT_MOST, True)],
    ("general-hj", "exponential"): [
        ("hamilton-jacobi", 1e-10, False, AT_MOST, True),
        ("decoupling-residual", 1e-12, False, AT_MOST, True),
    ],
    ("general-hj", "hbar-slope"): [
        ("imaginary-slope", 0.01, False, "pass iff |value - 1| <= tolerance", True),
    ],
    ("oracle", "kernel-vs-grid"): [
        ("kernel-vs-grid", 1e-3, False, AT_MOST, True),
        (
            "perturbed-kernel-separation", 1e-2, False,
            "pass iff value > tolerance (a wrong kernel must stand out)", True,
        ),
    ],
    ("oracle", "kernel-vs-grid", "harmonic"): [
        (
            "kernel-vs-grid", 1e-3, False,
            "boundary amplitude reached 2.255e-06 (threshold 1e-08); "
            "Dirichlet walls are interfering", True,
        ),
        (
            "perturbed-kernel-separation", None, True,
            "recorded; the 1e-2 floor applies to the free-particle span", True,
        ),
    ],
    ("cosmo", "de-sitter"): [
        ("scale-factor-growth", 1e-6, False, AT_MOST, True),
        ("friedmann-residual", 1e-8, False, AT_MOST, True),
    ],
    ("cosmo", "stiff"): [
        ("expansion-exponent", 1e-3, False, "pass iff |value - 1/3| <= tolerance", True),
        (
            "momentum-drift", None, True,
            "relative p_phi drift over the run (truncation transient)", True,
        ),
    ],
    ("lattice", "conformal-transport"): [
        ("curvature-functional", None, True, "R[sigma] on this lattice", True),
        # 1e-12 max(1, |closed form|), and the closed form is 16 on [4, 4]
        ("closed-form-deviation", 1.6e-11, False, AT_MOST, True),
        ("functional-derivative-deviation", 1e-6, False, AT_MOST, True),
    ],
    ("lattice", "greens"): [
        ("defining-property", 1e-8, False, AT_MOST, True),
        ("kernel-symmetry", 1e-12, False, AT_MOST, True),
    ],
    ("lattice", "hj-positivity"): [
        (
            "minimum-residual", 0.0, False,
            "pass iff value > tolerance (euclidean residual is positive off phi = 0)", True,
        ),
        (
            "lorentzian-on-shell-residual", None, True,
            "recorded for comparison across refinements; no pass threshold", True,
        ),
    ],
    ("lattice", "imaginary-part"): [("imaginary-part-residual", 1e-12, False, AT_MOST, True)],
    ("lattice", "kg-wave"): [
        ("stencil-residual", 1e-8, False, AT_MOST, True),
        ("dispersion-tracking", 1e-8, False, AT_MOST, True),
    ],
}


def test_every_check_emits_its_records_in_their_declared_shape(tmp_path, capsys):
    assert {key[:2] for key in RECORD_SHAPES} == set(CHECKS)
    for key, shapes in RECORD_SHAPES.items():
        family = ["--family", key[2]] if len(key) == 3 else []
        out = tmp_path / "-".join(key)
        assert main([*key[:2], *family, "--out", str(out)]) == 0, key
        checks = read_report(out)["checks"]
        seen = [
            (c["name"], c["tolerance"], c["diagnostic"], c["detail"], c["pass"]) for c in checks
        ]
        assert seen == shapes, key


def test_convergence_block_present_for_refinement_checks(tmp_path):
    code = main(["quadratic", "prefactor-ode", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path)
    assert list(report) == [
        "scenario", "checks", "convergence", "seed", "runtime_seconds",
        "version", "pass",
    ]
    rows = report["convergence"]
    assert len(rows) == 4
    assert rows[0]["observed_order"] is None
    assert all(3.5 <= r["observed_order"] <= 4.5 for r in rows[1:])
    table = (tmp_path / "convergence.csv").read_text().splitlines()
    assert table[0] == "h,residual,observed_order"
    assert table[1].endswith(",n/a")


def test_failing_tolerance_exits_one(tmp_path, monkeypatch):
    # a functional-derivative deviation past its tolerance of 1e-6 fails the run
    from semiprop.runners import lattice as runner

    real = runner.conformal_transport_check
    monkeypatch.setattr(
        runner, "conformal_transport_check", lambda sigma, lam: (real(sigma, lam)[0], 1e-3)
    )
    code = main(["lattice", "conformal-transport", "--out", str(tmp_path)])
    assert code == 1
    assert read_report(tmp_path)["pass"] is False


def test_infinite_floor_value_fails(tmp_path, capsys):
    # a floor check must not pass on inf or NaN
    for value in (math.inf, math.nan):
        assert judge(above("minimum-residual", 0.0, ""), value).passed is False
    # phi ~ 1e200 would square to inf: the runner refuses it before any draw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(
            ["lattice", "hj-positivity", "--amplitude", "1e200", "--out", str(tmp_path)]
        )
    assert code == 2
    assert (
        "'amplitude' = 1e+200, 'spacing' = 1.0, 'mass' = 1.0: the Hamilton-Jacobi residual "
        "on this lattice overflows" in capsys.readouterr().err
    )
    assert not (tmp_path / "report.json").exists()


# ------------------------------------------------------------ bad input


def test_unknown_scenario_and_check_exit_two(tmp_path, capsys):
    assert main(["bogus", "anything", "--out", str(tmp_path)]) == 2
    assert "unknown scenario 'bogus'" in capsys.readouterr().err
    assert main(["lattice", "bogus", "--out", str(tmp_path)]) == 2
    assert "unknown check 'bogus'" in capsys.readouterr().err


def test_parameter_errors_name_the_parameter(tmp_path, capsys):
    assert main(["lattice", "conformal-transport", "--lam", "abc",
                 "--out", str(tmp_path)]) == 2
    assert "parameter 'lam'" in capsys.readouterr().err
    assert main(["lattice", "conformal-transport", "--no_such", "1",
                 "--out", str(tmp_path)]) == 2
    assert "unknown parameter 'no_such'" in capsys.readouterr().err
    assert main(["lattice", "conformal-transport", "--derivative_tol", "-1",
                 "--out", str(tmp_path)]) == 2
    assert "unknown parameter 'derivative_tol'" in capsys.readouterr().err
    assert main(["lattice", "conformal-transport", "--dims", "[4,1]",
                 "--out", str(tmp_path)]) == 2
    assert "parameter 'dims'" in capsys.readouterr().err
    for argv, message in [
        (["oracle", "kernel-vs-grid", "--dt", "0"], "parameter 'dt'"),
        (["oracle", "kernel-vs-grid", "--dt", "5"], "parameter 'dt'"),
        (["lattice", "hj-positivity", "--draws", "0"], "parameter 'draws'"),
        (["lattice", "imaginary-part", "--draws", "0"], "parameter 'draws'"),
        (["quadratic", "hj", "--mass", "-1"], "mass must be positive"),
        (["general-hj", "exponential", "--slope", "0"], "slope b must be nonzero"),
        (["general-hj", "exponential", "--amplitude", "-1"], "amplitude A must be positive"),
        (["general-hj", "exponential", "--mass", "-1"], "mass must be positive"),
        (["general-hj", "exponential", "--hbar", "0"], "hbar must be positive"),
        (["general-hj", "exponential", "--hbar", "-1"], "hbar must be positive"),
        # refused by the RK4 step budget before any history is allocated
        (["cosmo", "stiff", "--t_end", "1e9", "--step", "1.0"], "step 1.0 needs"),
        (["quadratic", "prefactor-ode", "--step", "1e-9"], "step 1e-09 needs"),
        (
            ["lattice", "kg-wave", "--dims", "[16,16]", "--mode", "[3,1]",
             "--dt", "0.9", "--steps", "2000"],
            "dt = 0.9 violates the leapfrog CFL bound",
        ),
        (["lattice", "greens", "--mass", "1e200"], "mass must be a nonnegative"),
        (["lattice", "hj-positivity", "--mass", "1e200"], "mass must be a nonnegative"),
        (["lattice", "kg-wave", "--mass", "1e200"], "mass must be a nonnegative"),
        # refused by the node and leapfrog work budgets before anything is allocated;
        # dt 0.5 leaves Crank-Nicolson 2 steps
        (["oracle", "kernel-vs-grid", "--n_x", "4097", "--dt", "0.5"], "n_x 4097 needs"),
        (["lattice", "kg-wave", "--steps", "312500"], "steps 312500 on 32 sites need"),
        # refused by the Crank-Nicolson step budget; 1e-320 overflows 1/dt to inf
        (["oracle", "kernel-vs-grid", "--dt", "1e-200"], "parameter 'dt'"),
        (["oracle", "kernel-vs-grid", "--dt", "1e-320"], "parameter 'dt'"),
        # spacing^2 overflows to inf, or underflows so that 4/spacing^2 does
        (["lattice", "greens", "--spacing", "1e200"], "spacing must be"),
        (["lattice", "greens", "--spacing", "1e-200"], "spacing must be"),
        (["lattice", "hj-positivity", "--spacing", "1e-200"], "spacing must be"),
        (["lattice", "conformal-transport", "--spacing", "1e200"], "spacing must be"),
        (["lattice", "conformal-transport", "--spacing", "1e-200"], "spacing must be"),
        (["cosmo", "de-sitter", "--csv_stride", "0"], "parameter 'csv_stride'"),
        (["cosmo", "de-sitter", "--csv_stride", "-1"], "parameter 'csv_stride'"),
        (["cosmo", "stiff", "--csv_stride", "0"], "parameter 'csv_stride'"),
        (["cosmo", "stiff", "--csv_stride", "-1"], "parameter 'csv_stride'"),
        # spacing^4 overflows, or underflows to 0, in the cell volume
        (["lattice", "conformal-transport", "--spacing", "1e100", "--dims", "[4,4,4,4]"],
         "spacing must be"),
        (["lattice", "hj-positivity", "--spacing", "1e100", "--dims", "[4,4,4,4]"],
         "spacing must be"),
        (["lattice", "conformal-transport", "--spacing", "1e-100", "--dims", "[4,4,4,4]"],
         "spacing must be"),
        # dt^2, a0^3 and phi_dot0^2 overflow; dt^2 and a0^3 underflow to 0
        (["lattice", "kg-wave", "--dt", "1e200"], "dt must be positive"),
        (["lattice", "kg-wave", "--dt", "1e-200"], "dt must be positive"),
        (["cosmo", "de-sitter", "--a0", "1e200"], "'a0' = 1e+200"),
        (["cosmo", "de-sitter", "--a0", "1e-200"], "'a0' = 1e-200"),
        (["cosmo", "stiff", "--phi_dot0", "1e200"], "parameter 'phi_dot0'"),
        # the explicit RK4 stages overflow; the run stops early and is refused
        (["cosmo", "stiff", "--phi_dot0", "1e80"], "'phi_dot0' = 1e+80"),
        (["cosmo", "stiff", "--phi_dot0", "1e153"], "'phi_dot0' = 1e+153, 'step' = 0.001"),
        (["general-hj", "decoupling", "--mass", "0"], "mass must be positive"),
        (["general-hj", "decoupling", "--c2", "1e200"], "c2 = (1e+200+0j)"),
        (["general-hj", "exponential", "--slope", "1e200"], "slope b = 1e+200"),
        (["quadratic", "hj", "--family", "harmonic", "--x0", "1e200"], "x0 must be"),
        (["quadratic", "hj", "--family", "free", "--x0", "1e200"], "x0 must be"),
        (["quadratic", "schrodinger-order", "--family", "harmonic", "--x0", "1e200"],
         "x0 must be"),
        (["quadratic", "schrodinger-order", "--family", "free", "--x0", "1e200"],
         "x0 must be"),
        (["lattice", "hj-positivity", "--amplitude", "-1"], "parameter 'amplitude'"),
        # the residual's squares underflow, so a correct field would read 0
        (["lattice", "hj-positivity", "--amplitude", "1e-200"],
         "parameters 'amplitude' = 1e-200, 'spacing' = 1.0, 'mass' = 1.0: the "
         "Hamilton-Jacobi residual on this lattice underflows"),
        (["lattice", "hj-positivity", "--amplitude", "5e-324"],
         "parameters 'amplitude' = 5e-324, 'spacing' = 1.0, 'mass' = 1.0: the "
         "Hamilton-Jacobi residual on this lattice underflows"),
        # the residual's squares overflow; the bound grows with the cell volume
        (["lattice", "hj-positivity", "--amplitude", "1e200"],
         "parameters 'amplitude' = 1e+200, 'spacing' = 1.0, 'mass' = 1.0: the "
         "Hamilton-Jacobi residual on this lattice overflows"),
        (["lattice", "hj-positivity", "--spacing", "1e100"],
         "parameters 'amplitude' = 2.0, 'spacing' = 1e+100, 'mass' = 1.0: the "
         "Hamilton-Jacobi residual on this lattice overflows"),
        (["quadratic", "hj", "--mass", "1e200"], "mass 1e+200 with x0 0.0 takes (dS/dx)^2"),
        (["quadratic", "hj", "--family", "harmonic", "--mass", "1e200"],
         "mass 1e+200 with x0 0.0 takes (dS/dx)^2"),
        (["cosmo", "stiff", "--fit_from", "0"], "parameter 'fit_from'"),
        (["cosmo", "de-sitter", "--t_end", "0"], "parameter 't_end'"),
        (["general-hj", "hbar-slope", "--hbars", "[]"], "hbars must hold"),
        # a float literal that reads as inf, and an integer literal past 1e308
        (["cosmo", "stiff", "--t_end", "1e400"], "parameter 't_end' must be finite"),
        (["quadratic", "hj", "--x0", "1" + "0" * 400], "parameter 'x0' is an integer"),
        # a step longer than the whole RK4 window
        (["cosmo", "de-sitter", "--step", "10"],
         "'step' = 10.0: step 10.0 needs 0.1 steps to cover 1.0, which round to none"),
        (["quadratic", "prefactor-ode", "--step", "10"],
         "window [0.0, 0.5] is shorter than one step on both sides of t0 = 0.0: step = 10.0"),
        # the closed forms overflow on the fixed [-2, 2] grid
        (["general-hj", "decoupling", "--c2", "1000"], "c2 = (1000+0j)"),
        # cos^2, which d2R/dx2 divides by, overflows before cos does
        (["general-hj", "decoupling", "--c2", "300"], "c2 = (300+0j)"),
        (["general-hj", "decoupling", "--c2", "200", "--c3", "0.3"], "c2 = (200+0j)"),
        (["lattice", "greens", "--dims", "[65,65]"], "dims (65, 65) give 4225 sites"),
        # site counts past 2**64, which a numpy int64 product wraps to 4 and 0
        (["lattice", "greens", "--dims", "[4611686018427387905,4]"],
         "dims (4611686018427387905, 4) give 18446744073709551620 sites"),
        (["lattice", "greens", "--dims", "[4294967296,4294967296]"],
         "dims (4294967296, 4294967296) give 18446744073709551616 sites"),
        # the step alone breaks the run at the default phi_dot0
        (["cosmo", "stiff", "--step", "10"], "'step' = 10.0: the RK4 run overflowed"),
        (["general-hj", "exponential", "--slope", "1000"], "slope b = 1000.0"),
        # list elements are checked against their declared kind
        (["lattice", "kg-wave", "--mode", "['a']"], "parameter 'mode' element 0"),
        (["lattice", "kg-wave", "--mode", "[[1]]"], "parameter 'mode' element 0"),
        (["lattice", "kg-wave", "--mode", "[None]"], "parameter 'mode' element 0"),
        (["lattice", "kg-wave", "--mode", "[1.5]"], "parameter 'mode' element 0"),
        (["lattice", "kg-wave", "--mode", "[True]"], "parameter 'mode' element 0"),
        (["general-hj", "hbar-slope", "--hbars", "[1,2,[3]]"], "parameter 'hbars' element 2"),
        (["general-hj", "hbar-slope", "--hbars", "[1,2,None]"], "parameter 'hbars' element 2"),
        (["general-hj", "hbar-slope", "--hbars", "[1,2,'a']"], "parameter 'hbars' element 2"),
        (["general-hj", "hbar-slope", "--hbars", "[1,2,1e400]"],
         "parameter 'hbars' element 2 must be finite"),
        (["lattice", "greens", "--dims", "[]"], "dims must list at least one extent"),
        # a precondition names every parameter that feeds it
        (["general-hj", "hbar-slope", "--curvature", "1e200"], "parameter 'curvature'"),
        (["cosmo", "de-sitter", "--lam", "1e200"], "'lam' = 1e+200"),
        (["cosmo", "de-sitter", "--t_end", "1e-200"], "'t_end' = 1e-200, 'step' = 0.001"),
        (["cosmo", "stiff", "--t_end", "1e-200"], "'t_end' = 1e-200, 'step' = 0.001"),
        (["cosmo", "stiff", "--t_end", "1e200"],
         "'t_end' = 1e+200, 'step' = 0.001: step 0.001 needs 1e+203 steps, more than the budget"),
        (["cosmo", "stiff", "--phi_dot0", "1e10"], "'phi_dot0' = 10000000000.0"),
        (["lattice", "conformal-transport", "--sigma_const", "1e200"],
         "parameter 'sigma_const'"),
        (["lattice", "greens", "--mass", "0"], "null at mass = 0"),
        (["lattice", "greens", "--mass", "1e-200"], "null at mass = 1e-200"),
        (["lattice", "hj-positivity", "--mass", "0"], "null at mass = 0"),
        (["lattice", "hj-positivity", "--mass", "1e-200"], "null at mass = 1e-200"),
        (["lattice", "greens", "--use_regulator", "true"], "use_regulator applies"),
        (["lattice", "kg-wave", "--steps", "1"], "got 1 steps"),
        # p_phi(0), which the momentum drift divides by, vanishes
        (["cosmo", "stiff", "--phi_dot0", "0"], "parameter 'phi_dot0'"),
        # omega^2 overflows; the caustics of a huge omega are found without a
        # walk over each of them
        (["quadratic", "hj", "--family", "harmonic", "--omega", "1e200"],
         "omega must keep mass * omega^2 finite"),
        (["quadratic", "schrodinger-order", "--family", "harmonic", "--omega", "1e200"],
         "omega = 1e+200 puts a caustic"),
        (["quadratic", "van-vleck", "--family", "harmonic", "--omega", "1e-200"],
         "omega = 1e-200 puts a valid time node on a caustic"),
        # the action is too small for its mixed finite difference
        (["quadratic", "van-vleck", "--mass", "1e-305"], "action at mass = 1e-305"),
        # the check differences the two-point action over x0 itself
        (["quadratic", "van-vleck", "--x0", "3"], "unknown parameter 'x0' for quadratic van-vleck"),
        # the last RK4 sample misses t_end, where the closed form is taken
        (["cosmo", "de-sitter", "--step", "3e-4"],
         "parameters 'step' = 0.0003, 't_end' = 1.0: the steps end at t = 0.9998999999999999"),
        (["cosmo", "de-sitter", "--step", "7e-4", "--t_end", "2"],
         "parameters 'step' = 0.0007, 't_end' = 2.0"),
    ]:
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "argv, names",
    [
        # the step count (t_end or the prefactor window) / step is infinite
        (["cosmo", "stiff", "--step", "5e-324"], ["step"]),
        (["cosmo", "de-sitter", "--step", "5e-324"], ["step"]),
        (["quadratic", "prefactor-ode", "--step", "5e-324"], ["step"]),
        # csc(omega t)^2 overflows, or sin(omega t) vanishes
        (["quadratic", "hj", "--family", "harmonic", "--omega", "0"], ["omega"]),
        (["quadratic", "hj", "--family", "harmonic", "--omega", "1e-200"], ["omega"]),
        # the cube a^3 stays finite, the constraint's p_a^2 ~ a^4 H^2 does not
        (["cosmo", "de-sitter", "--lam", "1e5"], ["lam", "a0", "t_end"]),
        # the field is drawn from [-amplitude, amplitude], whose width overflows
        (["lattice", "hj-positivity", "--amplitude", "1e308"], ["amplitude"]),
        # A e^(|b| X_EDGE), the size of V and of (dS/dx)^2 / (2m), overflows
        # while 2 m A e^(|b| X_EDGE) does not, since m < 1/2
        (["general-hj", "exponential", "--amplitude", "1e200", "--slope", "300",
          "--mass", "1e-200"], ["amplitude", "slope"]),
        (["general-hj", "exponential", "--amplitude", "1e300", "--slope", "20",
          "--mass", "1e-10"], ["amplitude", "slope"]),
    ],
)
def test_overflowing_inputs_exit_two_without_a_warning(argv, names, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
    err = capsys.readouterr().err
    for name in names:
        assert re.search(r"\b{}\b".format(name), err), (argv, err)


def test_round_off_floors_refuse_instead_of_failing(tmp_path, capsys):
    # a correct closed form leaves about machine epsilon times its cancelling
    # terms; where that reaches the tolerance the check is refused, and every
    # value below that floor passes
    sweeps = [
        (["quadratic", "hj", "--mass"], ["1e{}".format(e) for e in range(13)], 1e7, "'mass'"),
        (["general-hj", "exponential", "--slope"], [str(b) for b in range(1, 21)], 7, "'slope'"),
        # the decoupling terms reach hbar b^2 / 8, so at slope 1 hbar 3.6e4 and up
        (["general-hj", "exponential", "--hbar"], ["1e{}".format(e) for e in range(-3, 10)],
         36029, "'hbar'"),
        (["general-hj", "exponential", "--mass", "0.3", "--slope", "5", "--hbar"],
         ["1e{}".format(e) for e in range(-3, 10)], 1441, "'slope' = 5.0"),
        # the cos-log decoupling residual reads up to 3.57 epsilons times its
        # largest term, hbar c2^2 here, so it is refused from 4 eps hbar = 1e-8
        (["general-hj", "decoupling", "--hbar"],
         ["1", "1e6", "1e7", "3e7", "1e8", "1e20", "1e200"], 1.126e7, "'hbar'"),
        # the imaginary-part terms reach |lam| (2 + sin 1) e^4, refused at half
        # the tolerance from lam 14.5 on; a correct residual fails from about 25
        *(
            (["lattice", "imaginary-part", "--seed", str(seed), "--lam"],
             ["1", "10", "14", "15", "25", "40", "1e2", "1e3", "1e4", "1e5", "1e6"], 14.5, "'lam'")
            for seed in range(4)
        ),
    ]
    for argv, values, refused_from, name in sweeps:
        for value in values:
            code = main(argv + [value, "--out", str(tmp_path / value)])
            err = capsys.readouterr().err
            if float(value) < refused_from:
                assert code == 0, (argv, value)
            else:
                assert code == 2 and name in err and "round-off alone" in err, (argv, value)
    # the leapfrog stencil's round-off grows as eps / dt^2: refused below dt
    # 1.92e-4, where 0.6 of its 1e-8 tolerance is reached; it fails from about 8e-5
    for dt in ["1e-6", "1e-5", "5e-5", "8e-5", "1e-4", "1.5e-4", "2e-4", "3e-4", "1e-3"]:
        code = main(["lattice", "kg-wave", "--dt", dt, "--out", str(tmp_path / dt)])
        err = capsys.readouterr().err
        if float(dt) >= 2e-4:
            assert code == 0, dt
        else:
            assert code == 2 and "'dt'" in err and "round-off alone" in err, dt
    # the smallest amplitudes whose squares stay normal floats still pass
    for amplitude in (["--amplitude", "1e-150"], []):
        argv = ["lattice", "hj-positivity"] + amplitude + ["--out", str(tmp_path / "h")]
        assert main(argv) == 0, amplitude


def test_greens_records_fail_on_a_planted_kernel_defect(tmp_path, monkeypatch):
    # each defect goes into the kernel the runner certifies, not into the check
    build = lattice_runners.lattice_greens_function

    def one_site_moved(g):
        g = g.copy()
        g[1, 0] += 1e-10
        return g

    controls = [
        # a uniform relative error breaks op @ G = I and keeps G symmetric
        (lambda g: g * (1.0 + 1e-6), "defining-property", "kernel-symmetry"),
        # G(1, 0) moved apart from G(0, 1) by far less than op @ G notices
        (one_site_moved, "kernel-symmetry", "defining-property"),
    ]
    for index, (plant, failing, passing) in enumerate(controls):
        def planted(config, use_regulator=False, plant=plant):
            kernel = build(config, use_regulator)
            return QuadraticFunctional(plant(kernel.g), config, kernel.regulator)

        monkeypatch.setattr(lattice_runners, "lattice_greens_function", planted)
        out = tmp_path / str(index)
        assert main(["lattice", "greens", "--out", str(out)]) == 1, failing
        report = read_report(out)
        assert record(report, failing)["pass"] is False, failing
        assert record(report, passing)["pass"] is True, failing


def moved_by_1e_3(fn):
    """``fn`` with its value moved by a relative 1e-3."""
    return lambda *args: fn(*args) * (1.0 + 1e-3)


def test_equation_records_fail_on_a_planted_derivative_defect(tmp_path, monkeypatch):
    # each defect moves one derivative a family supplies by a relative 1e-3;
    # the equations, the checks and their tolerances are untouched
    from semiprop import general_hj, quadratic
    from semiprop.runners import general_hj as general_runners

    identities = quadratic._identity_residuals

    def planted_identities(index):
        # derivatives() gives (dS/dt, dS/dx, d2S/dx2, dR/dt, V)
        def planted(mass, reach, x0, derivatives):
            def moved():
                terms = list(derivatives())
                terms[index] = terms[index] * (1.0 + 1e-3)
                return tuple(terms)

            return identities(mass, reach, x0, moved)

        return quadratic, "_identity_residuals", planted

    def with_moved_rate(ansatz):
        return dataclasses.replace(ansatz, dR_dt=moved_by_1e_3(ansatz.dR_dt))

    cos_log, exponential = general_runners.cos_log_family, general_hj.exponential_family

    def exponential_with_moved_rate(*args):
        ansatz, s_fn, v_fn = exponential(*args)
        return with_moved_rate(ansatz), s_fn, v_fn

    slope = (general_hj, "_exponential_action_slope",
             moved_by_1e_3(general_hj._exponential_action_slope))
    controls = [
        (["quadratic", "hj"], planted_identities(1), "hamilton-jacobi", "consistency"),
        (["quadratic", "hj"], planted_identities(3), "consistency", "hamilton-jacobi"),
        (["quadratic", "hj", "--family", "harmonic"], planted_identities(1),
         "hamilton-jacobi", "consistency"),
        (["quadratic", "hj", "--family", "harmonic"], planted_identities(3),
         "consistency", "hamilton-jacobi"),
        (["general-hj", "decoupling"],
         (general_runners, "cos_log_family", lambda **params: with_moved_rate(cos_log(**params))),
         "decoupling-residual", None),
        (["general-hj", "exponential"], slope, "hamilton-jacobi", "decoupling-residual"),
        (["general-hj", "exponential"],
         (general_hj, "exponential_family", exponential_with_moved_rate),
         "decoupling-residual", "hamilton-jacobi"),
    ]
    for index, (argv, (module, name, plant), failing, passing) in enumerate(controls):
        out = tmp_path / str(index)
        assert main(argv + ["--out", str(out)]) == 0, (argv, failing)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, plant)
            assert main(argv + ["--out", str(out)]) == 1, (argv, failing)
        report = read_report(out)
        assert record(report, failing)["pass"] is False, (argv, failing)
        if passing is not None:
            assert record(report, passing)["pass"] is True, (argv, failing)


def test_hj_positivity_is_not_refused_at_the_greens_round_off_floor(tmp_path):
    # the floor refuses `lattice greens` here (1.2e-7 against 1e-8), but
    # hj-positivity never reads the kernel's defect
    argv = ["lattice", "hj-positivity", "--dims", "[4,4]", "--mass", "3e-5", "--draws", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_an_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("lam=1.0\nlam=2.0\n")
    for extra in ([], ["--sweep", str(sweep)]):
        for out in (taken, taken / "sub"):
            argv = ["lattice", "conformal-transport", "--out", str(out)] + extra
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "--out" in err and "Traceback" not in err, argv
    assert taken.read_text() == ""


def test_an_out_that_cannot_be_a_directory_is_refused_before_the_runner_runs(
    tmp_path, monkeypatch, capsys
):
    # the nearest existing ancestor of --out decides, before the check runs,
    # and a refused set, single or swept, leaves no directory behind
    real, calls = lattice_runners._run_lattice_transport, []

    def runner(params, seed):
        calls.append(params["lam"])
        return real(params, seed)

    monkeypatch.setattr(lattice_runners, "_run_lattice_transport", runner)
    taken = tmp_path / "taken"
    taken.write_text("")
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("lam=1.0\nlam=2.0\n")
    for extra in ([], ["--sweep", str(sweep)]):
        for out in (taken, taken / "sub", taken / "sub" / "deeper"):
            argv = ["lattice", "conformal-transport", "--out", str(out)] + extra
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "--out" in err and "{} exists and is not one".format(taken) in err, argv
    assert calls == []
    # a sweep whose second directory is taken by a file runs its first set only
    out = tmp_path / "out"
    out.mkdir()
    (out / "run-001").write_text("")
    assert main(["lattice", "conformal-transport", "--sweep", str(sweep), "--out", str(out)]) == 2
    assert calls == [1.0]
    assert read_report(out / "run-000")["pass"] is True
    assert (out / "run-001").read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "sweep.txt", "taken"]


def test_negative_omega_still_runs_the_harmonic_identities(tmp_path):
    argv = ["quadratic", "hj", "--family", "harmonic", "--omega", "-1"]
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_oracle_at_the_benchmark_size(tmp_path):
    # the chirp-convolution kernel and the once-factored Crank-Nicolson
    # make n_x 2048 cheap enough for tier-1
    for family in ("free", "harmonic"):
        out = tmp_path / family
        argv = ["oracle", "kernel-vs-grid", "--family", family, "--n_x", "2048"]
        assert main(argv + ["--out", str(out)]) == 0, family
        assert read_report(out)["pass"] is True


def test_oracle_free_family_steps_to_the_kernel_time(tmp_path):
    # round(1 / dt) = 333 steps of 1/333 end at t = 1, where the kernel is
    # compared; steps of dt = 0.003 itself would end at t = 0.999 (2.7e-4)
    argv = ["oracle", "kernel-vs-grid", "--family", "free", "--dt", "0.003"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert record(read_report(tmp_path), "kernel-vs-grid")["value"] < 1e-4


# ---------------------------------------------------- config and sweeps


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 2.0\nsigma_const = 0.1\n# comment line\n")
    out = tmp_path / "out"
    code = main(
        [
            "lattice", "conformal-transport",
            "--config", str(cfg), "--lam", "8.0", "--out", str(out),
        ]
    )
    assert code == 0
    # lam comes from the flag (8.0), sigma_const from the file (0.1)
    expected = 8.0 / 8.0 * 16 * math.exp(0.2)
    value = record(read_report(out), "curvature-functional")["value"]
    assert value == pytest.approx(expected, rel=1e-12)
    # a config file value passes the same declared check as a flag
    cfg.write_text("dims = [4, 1]\n")
    argv = ["lattice", "conformal-transport", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert "parameter 'dims' element 1 must be at least 2" in capsys.readouterr().err


def test_name_equals_value_flag_reads_like_name_then_value(tmp_path):
    joined, spaced = tmp_path / "joined", tmp_path / "spaced"
    assert main(["cosmo", "de-sitter", "--t_end=2", "--out", str(joined)]) == 0
    assert main(["cosmo", "de-sitter", "--t_end", "2", "--out", str(spaced)]) == 0
    trajectory = (joined / "trajectory.csv").read_bytes()
    assert trajectory == (spaced / "trajectory.csv").read_bytes()
    # the run took t_end = 2, not the default 1
    assert trajectory.splitlines()[-1].startswith(b"2,")
    reports = [read_report(out) for out in (joined, spaced)]
    for rep in reports:
        rep.pop("runtime_seconds")
    assert reports[0] == reports[1]


def test_a_stray_positional_argument_exits_two(tmp_path, capsys):
    argv = ["cosmo", "de-sitter", "stray", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "unrecognized argument 'stray'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_a_trailing_flag_without_a_value_exits_two(tmp_path, capsys):
    argv = ["cosmo", "de-sitter", "--out", str(tmp_path), "--t_end"]
    assert main(argv) == 2
    assert "parameter '--t_end' is missing a value" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_sweep_runs_each_line_into_its_own_directory(tmp_path):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("sigma_const=0.0\nsigma_const=0.2\n")
    out = tmp_path / "out"
    code = main(
        ["lattice", "conformal-transport", "--sweep", str(sweep), "--out", str(out)]
    )
    assert code == 0
    first = record(read_report(out / "run-000"), "curvature-functional")["value"]
    second = record(read_report(out / "run-001"), "curvature-functional")["value"]
    assert first == 16.0
    assert second == pytest.approx(16.0 * math.exp(0.4), rel=1e-12)


def test_sweep_run_error_exits_two_and_the_other_runs_still_report(tmp_path, capsys):
    sweep = tmp_path / "sweep.txt"
    # t_end=0 breaks a declared domain; a0=1e200 is refused by the runner
    sweep.write_text("lam=1.0\nlam=-1.0\nlam=2.0\nt_end=0\na0=1e200\n")
    out = tmp_path / "out"
    assert main(["cosmo", "de-sitter", "--sweep", str(sweep), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[run-001] semiprop: parameter 'lam'" in captured.err
    assert "[run-003] semiprop: parameter 't_end' must be positive" in captured.err
    assert "[run-004] semiprop: parameters 'a0' = 1e+200" in captured.err
    assert "Traceback" not in captured.err
    for run in ("run-000", "run-002"):
        assert "[{}] overall: PASS".format(run) in captured.out
        assert read_report(out / run)["pass"] is True
    for run in ("run-001", "run-003", "run-004"):
        assert not (out / run).exists()


def test_one_line_sweep_matches_a_single_run(tmp_path):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("draws=7\n")
    base = ["lattice", "hj-positivity", "--seed", "3"]
    single, swept = tmp_path / "single", tmp_path / "swept"
    assert main(base + ["--draws", "7", "--out", str(single)]) == 0
    assert main(base + ["--sweep", str(sweep), "--out", str(swept)]) == 0
    run = swept / "run-000"
    assert sorted(p.name for p in run.iterdir()) == sorted(p.name for p in single.iterdir())
    assert (run / "lattice.csv").read_bytes() == (single / "lattice.csv").read_bytes()
    reports = [read_report(d) for d in (single, run)]
    for rep in reports:
        rep.pop("runtime_seconds")
    assert reports[0] == reports[1]


def test_sweep_rejects_malformed_lines(tmp_path, capsys):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("sigma_const 0.2\n")
    assert main(["lattice", "conformal-transport", "--sweep", str(sweep),
                 "--out", str(tmp_path / "out")]) == 2
    assert "key=value" in capsys.readouterr().err


# ------------------------------------------------- exit-contract fuzzing


FUZZ_VALUES = [
    "0", "-1", "1e200", "1e-200", "1e-305", "5e-324", "1e400", "1.7e308", "-1.7e308", "abc"
]
FUZZ_LISTS = ["[]", "[0]", "[1.5]", "['a']", "[None]", "[[1]]"]
# Cheaper starting points than the defaults. No budget bounds the draws, so
# they stay small; the quadratic bases are harmonic, where omega matters.
FUZZ_BASES = {
    ("quadratic", "hj"): ["--family", "harmonic"],
    ("quadratic", "van-vleck"): ["--family", "harmonic"],
    ("quadratic", "schrodinger-order"): ["--family", "harmonic"],
    ("oracle", "kernel-vs-grid"): ["--n_x", "64", "--dt", "0.05"],
    ("cosmo", "stiff"): ["--t_end", "3.5", "--step", "0.01", "--fit_from", "0.35"],
    ("lattice", "hj-positivity"): ["--draws", "2"],
    ("lattice", "imaginary-part"): ["--draws", "2"],
    ("lattice", "kg-wave"): ["--dims", "[8]", "--mode", "[1]", "--steps", "10"],
}


# Interior inputs no one-parameter edge reaches: the lattice Green's function
# at masses whose round-off floor reaches its 1e-8 tolerance, and a spacing
# that makes a unit mass null
COMBINED_CASES = [
    ("mass", ["lattice", "greens", "--dims", "[4,4]", "--mass", "3e-5"]),
    ("mass", ["lattice", "greens", "--dims", "[4,4]", "--mass", "5e-5"]),
    ("mass", ["lattice", "greens", "--dims", "[32,32]", "--signature", "lorentzian",
              "--use_regulator", "true", "--mass", "1e-5"]),
    ("mass", ["lattice", "greens", "--dims", "[4,4]", "--signature", "lorentzian",
              "--use_regulator", "true", "--mass", "1e-6"]),
    ("spacing", ["lattice", "greens", "--dims", "[16,16]", "--spacing", "1e-6"]),
]


def edge_values(kind, edge):
    """Each value a declared domain allows at its edge, and the one just outside."""
    if isinstance(kind, tuple):
        return list(kind)
    if kind is bool:
        return ["true", "false"]
    if edge == POSITIVE:
        return ["5e-324", "-5e-324"]
    if edge is not None:
        return [str(edge), str(edge - 1)]
    return []


def fuzz_cases():
    for (scenario, check), (declared, *_) in CHECKS.items():
        base = [scenario, check] + FUZZ_BASES.get((scenario, check), [])
        for name, (_, kind, edge) in declared.items():
            if isinstance(kind, list):
                values = FUZZ_LISTS + ["[{}]".format(v) for v in edge_values(kind[0], edge)]
            else:
                values = FUZZ_VALUES + edge_values(kind, edge)
            for value in values:
                yield name, base + ["--" + name, value]
    yield from COMBINED_CASES


def test_exit_contract_holds_on_every_declared_edge(tmp_path, capsys):
    cases = list(fuzz_cases())
    assert len(cases) > 400
    for index, (name, argv) in enumerate(cases):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(tmp_path / str(index))])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not numeric, (argv, numeric)
        if code == 2:
            assert re.search(r"\b{}\b".format(re.escape(name)), err), (argv, err)


# ---------------------------------------------------------- determinism


def test_seeded_runs_are_bit_identical(tmp_path):
    out_a, out_b, out_c = (tmp_path / name for name in ("a", "b", "c"))
    base = ["lattice", "hj-positivity", "--draws", "5"]
    assert main(base + ["--seed", "3", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "3", "--out", str(out_b)]) == 0
    assert main(base + ["--seed", "4", "--out", str(out_c)]) == 0
    assert (out_a / "lattice.csv").read_bytes() == (out_b / "lattice.csv").read_bytes()
    assert (out_a / "lattice.csv").read_bytes() != (out_c / "lattice.csv").read_bytes()
    rep_a, rep_b = read_report(out_a), read_report(out_b)
    for rep in (rep_a, rep_b):
        rep.pop("runtime_seconds")
    assert rep_a == rep_b
    assert read_report(out_c)["seed"] == 4


def test_lattice_draws_are_a_fixed_standard_library_stream():
    # literals, so that each supported Python must reproduce the stream:
    # random.Random(1), 8 little-endian bytes a site, their top 53 bits
    square, line = LatticeConfig(dims=(2, 2)), LatticeConfig(dims=(4,))
    unit = [[0.5692038708679295, 0.802265059400218], [0.06310682412324808, 0.11791870213464573]]
    assert lattice_runners._uniform(random.Random(1), 0.0, 1.0, square).tolist() == unit
    assert lattice_runners._uniform(random.Random(1), -2.0, 2.0, square).tolist() == [
        [0.2768154834717178, 1.209060237600872], [-1.7475727035070077, -1.528325191461417]
    ]
    # a second draw continues the stream
    rng = random.Random(1)
    lattice_runners._uniform(rng, 0.0, 1.0, square)
    assert lattice_runners._uniform(rng, 0.0, 1.0, line).tolist() == [
        0.7609624426102812, 0.4722452390588566, 0.3796152227212658, 0.20995480888260598
    ]


@pytest.mark.parametrize("check", ["hj-positivity", "imaginary-part"])
def test_draw_checks_pass_at_their_defaults_for_the_first_32_seeds(tmp_path, check, capsys):
    argv = ["lattice", check, "--out", str(tmp_path), "--seed"]
    assert [seed for seed in range(32) if main(argv + [str(seed)]) != 0] == []


def test_negative_seed_is_refused_by_every_check(tmp_path, capsys):
    # checks that never draw refuse it too
    for check in (["lattice", "hj-positivity"], ["quadratic", "hj"]):
        assert main(check + ["--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "parameter 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ------------------------------------------------------- report helpers


def test_write_csv_uses_17_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1.0 / 3.0, 2)])
    assert path.read_text() == "a,b\n0.33333333333333331,2\n"


def test_convergence_rows_orders_and_plateau():
    rows = build_convergence_rows([0.1, 0.05, 0.025], [4e-2, 1e-2, 2.5e-3])
    assert rows[0]["observed_order"] is None
    assert rows[1]["observed_order"] == pytest.approx(2.0)
    assert rows[2]["observed_order"] == pytest.approx(2.0)
    flat = build_convergence_rows([0.1, 0.05, 0.025], [3e-16, 2e-16, 3e-16])
    assert all(r["observed_order"] is None for r in flat)
    with pytest.raises(ValueError, match="at least 3"):
        build_convergence_rows([0.1, 0.05], [1.0, 0.5])
    with pytest.raises(ValueError, match="one residual per"):
        build_convergence_rows([0.1, 0.05, 0.025], [1.0, 0.5])


def test_order_record_gates_the_last_fitted_order():
    rows = build_convergence_rows([0.1, 0.05, 0.025], [4e-2, 1e-2, 2.5e-3])
    fitted = judge(near("stencil-order", 2.0, 0.3), last_order(rows))
    assert fitted.passed and fitted.value == rows[-1]["observed_order"]
    assert fitted.detail == "pass iff |value - 2| <= tolerance"
    # an all-plateau table fits no order: the record is NaN and fails
    flat = build_convergence_rows([0.1, 0.05, 0.025], [3e-16, 2e-16, 3e-16])
    plateau = judge(near("observed-order", 4.0, 0.5), last_order(flat))
    assert math.isnan(plateau.value) and not plateau.passed
    assert plateau.detail == "pass iff |value - 4| <= tolerance"


# ------------------------------------------------------ CSV rows and bytes


def reference_cell(value) -> str:
    """The per-cell CSV rendering write_csv replaced."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) or (
        hasattr(value, "dtype") and value.dtype.kind in "iu"
    ):
        return str(int(value))
    return "%.17g" % float(value)


def reference_csv(header, rows):
    lines = [",".join(header)] + [",".join(reference_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_site_rows(config, values):
    return [tuple(int(i) for i in idx) + (values[idx],) for idx in np.ndindex(config.dims)]


def reference_trajectory_rows(traj, friedmann, stride):
    return [
        (traj.t[i], traj.a[i], traj.a_dot[i], traj.phi[i], traj.phi_dot[i], friedmann[i])
        for i in range(0, len(traj.t), stride)
    ]


def reference_propagator_rows(factors, grid):
    x, t = grid.x, grid.t
    rows = []
    for tj in t:
        r_col = np.broadcast_to(np.asarray(factors.R(x, tj), dtype=complex), x.shape)
        s_col = np.broadcast_to(np.asarray(factors.S(x, tj), dtype=complex), x.shape)
        k_col = np.exp(r_col + 1j * s_col / factors.hbar)
        for i, xi in enumerate(x):
            rows.append((
                xi, tj, k_col[i].real, k_col[i].imag,
                r_col[i].real, r_col[i].imag, s_col[i].real, s_col[i].imag,
            ))
    return rows


def lattice_case():
    config = LatticeConfig(dims=(3, 5, 4))
    values = np.random.default_rng(5).standard_normal(config.dims)
    values[0, 0, 1] = -0.0
    return config, values


def propagator_cases():
    # between the caustics at t = pi and 2 pi, sin(t) < 0 makes the harmonic R
    # complex; the free R is one scalar per time node
    between = SpacetimeGrid(-2.0, 2.0, 17, 3.4, 6.0, 30)
    plain = SpacetimeGrid(-2.0, 2.0, 9, 0.5, 2.0, 6)
    return [
        (harmonic_factors(between, mass=1.3, omega=1.0, x0=0.2), between),
        (free_particle_factors(plain, mass=0.7, x0=-0.1), plain),
    ]


def trajectory_case():
    """A short de Sitter run and its parameters."""
    params = CosmoParams(lam=3.0)
    state = ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0)
    return evolve_classical(state, params, (0.0, 0.05), 1e-3), params


def test_write_csv_matches_the_per_cell_reference(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1.0 / 3.0]
    rows = [(x, np.float64(x), 7, np.int64(-7), True, "n/a") for x in specials]
    rows += [
        [0.1, 2, "n/a"],
        (0.5, 3, True, "s", -0.0),
        (np.float32(0.1), np.uint8(200), False, 10**20),
        (1e-300, 1, -1),
        ("x",),
        (),
    ]
    header = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "mixed.csv"
    write_csv(path, header, rows)
    assert path.read_text() == reference_csv(header, rows)


def test_csv_row_builders_match_the_per_cell_rows(tmp_path):
    path = tmp_path / "t.csv"
    config, values = lattice_case()
    cases = [(_site_rows(config, values), reference_site_rows(config, values))]
    for factors, grid in propagator_cases():
        rows = _propagator_rows(factors, assemble_propagator(factors, grid))
        cases.append((rows, reference_propagator_rows(factors, grid)))
    traj, params = trajectory_case()
    # the reference strides the residual of every sample
    friedmann = friedmann_residual(traj, params)
    assert len(traj.t) % 7 != 0
    for stride in (1, 7, len(traj.t) + 3):
        cases.append((
            _trajectory_rows(traj, params, stride),
            reference_trajectory_rows(traj, friedmann, stride),
        ))
    for rows, reference in cases:
        assert len(rows) == len(reference)
        write_csv(path, ["h"], rows)
        assert path.read_text() == reference_csv(["h"], reference)


def test_csv_path_keeps_the_benchmark_tracer_contract():
    # perfbench/layers.py binds write_csv's arguments by name and, after the
    # call, counts len(rows) and len(row) over a second pass of the rows
    assert list(inspect.signature(write_csv).parameters) == ["path", "header", "rows"]
    config, values = lattice_case()
    (factors, grid), _ = propagator_cases()
    for header, rows in (
        (["i", "j", "k", "value"], _site_rows(config, values)),
        (PROPAGATOR_HEADER, _propagator_rows(factors, assemble_propagator(factors, grid))),
        (TRAJECTORY_HEADER, _trajectory_rows(*trajectory_case(), 7)),
    ):
        first = list(rows)
        assert first and len(rows) == len(first)
        assert all(type(row) is tuple and len(row) == len(header) for row in first)
        # plain Python cells take write_csv's one-format-per-row path
        assert {type(cell) for row in first for cell in row} <= {float, int}
        assert list(rows) == first


def test_propagator_table_is_written_without_holding_its_rows(tmp_path):
    # the coarse table of `quadratic schrodinger-order`, 129 x 65 nodes by 8
    # columns: as Python rows, lines and one joined string it traced 5.3 MB
    grid = SpacetimeGrid(x_min=-4.0, x_max=4.0, n_x=129, t_min=0.5, t_max=2.0, n_t=65)
    factors = harmonic_factors(grid, mass=1.0, omega=1.0, x0=0.0)
    propagator = assemble_propagator(factors, grid)
    path = tmp_path / "propagator.csv"
    tracemalloc.start()
    try:
        write_csv(path, PROPAGATOR_HEADER, _propagator_rows(factors, propagator))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    reference = reference_propagator_rows(factors, grid)
    assert len(reference) == 129 * 65
    assert path.read_text() == reference_csv(PROPAGATOR_HEADER, reference)


def test_schrodinger_order_never_holds_a_fine_level_propagator():
    # whole, the 513 x 257 K and its two factor samples took the check past
    # 7 MB traced; the finer levels are assembled a band of columns at a time
    for family in ("free", "harmonic"):
        params = _merge_params("quadratic", "schrodinger-order", {"family": family})
        _run_quadratic_schrodinger(params, 0)  # the first call loads and caches
        tracemalloc.start()
        try:
            _run_quadratic_schrodinger(params, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, (family, peak)


# ------------------------------------------------------ module loading


SRC = Path(semiprop.__file__).resolve().parents[1]


def run_fresh(*argv, timeout=120):
    """``python argv...`` in a fresh interpreter that finds this package."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_cli_choice_literals_equal_the_library_constants():
    # CHECKS writes these out so that importing the CLI loads no scenario
    assert CHECKS[("quadratic", "prefactor-ode")][0]["family"][1] == tuple(PREFACTOR_CASES)
    assert CHECKS[("lattice", "greens")][0]["signature"][1] == SIGNATURES


def test_python_m_runs_one_check_of_each_scenario(tmp_path):
    commands = [
        "quadratic hj",
        "general-hj exponential",
        "oracle kernel-vs-grid --n_x 256 --dt 1e-2",
        "cosmo de-sitter --t_end 0.1",
        "lattice greens",
    ]
    for n, command in enumerate(commands):
        argv = ["-m", "semiprop.cli"] + command.split() + ["--out", str(tmp_path / str(n))]
        done = run_fresh(*argv)
        assert done.returncode == 0, (command, done.stderr)
        assert "overall: PASS" in done.stdout, command


def test_no_package_module_imports_the_cli():
    # under python -m semiprop.cli such an import would run a second CLI module
    package = Path(semiprop.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        parts = list(path.relative_to(package.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        here = parts if path.name == "__init__.py" else parts[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = here[: len(here) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                targets = [module] + ["{}.{}".format(module, a.name) for a in node.names]
            else:
                continue
            if "semiprop.cli" in targets:
                offenders.append("{}:{}".format(path.name, node.lineno))
    assert not offenders


def test_every_runner_refusal_goes_through_one_helper():
    # a raise outside runners._refuse, or a message that names a parameter by
    # hand ("parameter 'x'", "'x' = v", "with x = v"), is a second refusal path
    runners = Path(semiprop.__file__).parent / "runners"
    by_hand = re.compile(r"\bparameters? '|' = |\bwith \w+ = ")
    offenders = []
    for path in sorted(runners.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(inner)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_refuse"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            text = node.value if isinstance(node, ast.Constant) else None
            if isinstance(node, ast.Raise) or (isinstance(text, str) and by_hand.search(text)):
                offenders.append("{}:{}".format(path.name, node.lineno))
    assert not offenders


def test_no_runner_builds_a_record():
    # a runner only measures; cli.run_scenario judges every record CHECKS
    # declares, so a runner that builds or declares one is a second path
    builders = {
        "CheckRecord", "judge", "at_most", "above", "near", "diagnostic",
        "_bound", "_floor", "_target", "_diagnostic", "_order_record",
    }
    runners = Path(semiprop.__file__).parent / "runners"
    offenders = []
    for path in sorted(runners.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = node.func
                name = called.id if isinstance(called, ast.Name) else getattr(called, "attr", "")
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in builders:
                offenders.append("{}:{} {}".format(path.name, node.lineno, name))
    assert not offenders


CHECKS_PROBE = """
import contextlib, io, sys
import semiprop.cli as cli

for scenario, check in cli.CHECKS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([scenario, check, "--out", "{}/{}-{}".format(sys.argv[1], scenario, check)])
    assert code == 0, (scenario, check, code)
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every check at its defaults, all in one process per thread count;
    # numpy reads the variable once, when it loads OpenBLAS
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")]))
    runs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", CHECKS_PROBE, str(tmp_path / threads)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for threads in ("1", "2")
    }
    for run in runs.values():
        _, errors = run.communicate(timeout=300)
        assert run.returncode == 0, errors
    one, two = tmp_path / "1", tmp_path / "2"
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    assert {f.parent.name for f in files} == {"{}-{}".format(*key) for key in CHECKS}
    for name in files:
        if name.name == "report.json":
            reports = [read_report(root / name.parent) for root in (one, two)]
            for report in reports:
                report.pop("runtime_seconds")
            assert reports[0] == reports[1], name
        else:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


LOADED_PROBE = """
import contextlib, io, json, sys, types
import semiprop.cli as cli

def executed():
    # a lazily bound module becomes a plain module when its body runs
    return sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "semiprop" and type(module) is types.ModuleType
    )

at_import = executed()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"import": at_import, "run": executed(), "exit": code}))
"""

BASE_MODULES = ["semiprop", "semiprop.cli", "semiprop.core", "semiprop.report"]
# the modules each scenario's checks add, beyond the runner package
SCENARIO_LOADS = {
    "quadratic": ["semiprop.quadratic"],
    "general-hj": ["semiprop.general_hj"],
    "oracle": ["semiprop.oracle", "semiprop.quadratic"],
    "cosmo": ["semiprop.cosmo"],
    "lattice": ["semiprop.lattice"],
}


def test_each_check_loads_only_its_own_scenario(tmp_path):
    cases = [
        (scenario, check, [scenario, check] + FUZZ_BASES.get((scenario, check), []))
        for scenario, check in CHECKS
    ]
    cases += [(None, None, argv) for argv in (["bogus", "x"], ["lattice", "bogus"], ["--help"])]

    def probe(index):
        _, _, argv = cases[index]
        done = run_fresh("-c", LOADED_PROBE, *argv, "--out", str(tmp_path / str(index)))
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(probe, range(len(cases))))
    for (scenario, check, argv), result in zip(cases, results):
        assert result["import"] == BASE_MODULES, argv
        if scenario is None:
            assert result["run"] == BASE_MODULES, argv
            continue
        # a cheap base may miss a tolerance (exit 1); the check ran either way
        assert result["exit"] in (0, 1), argv
        runner = "semiprop.runners." + scenario.replace("-", "_")
        # the Schrodinger order is the one quadratic check that needs the oracle
        extra = ["semiprop.oracle"] if check == "schrodinger-order" else []
        expected = BASE_MODULES + SCENARIO_LOADS[scenario] + extra + ["semiprop.runners", runner]
        assert result["run"] == sorted(expected), argv
