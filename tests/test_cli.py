"""CLI dispatch, report files, determinism, and the convergence table."""

import ast
import importlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import semiprop
from semiprop import cli
from semiprop.cli import CHECKS, _merge_params, main
from semiprop.core import SpacetimeGrid, assemble_propagator
from semiprop.cosmo import ClassicalState, CosmoParams, evolve_classical, friedmann_residual
from semiprop.lattice import SIGNATURES, LatticeConfig
from semiprop.quadratic import PREFACTOR_CASES, free_particle_factors, harmonic_factors
from semiprop.report import (
    Floor, _refuse, above, build_convergence_rows, judge, last_order, near, write_csv,
)
from semiprop.runners import cosmo as cosmo_runners
from semiprop.runners.cosmo import TRAJECTORY_HEADER, _trajectory_rows
from semiprop.runners import lattice as lattice_runners
from semiprop.runners.lattice import _site_rows
from semiprop.runners.quadratic import (
    PROPAGATOR_HEADER,
    _propagator_rows,
    _run_quadratic_schrodinger,
)

import fresh
from cases import (
    CONTROLS,
    FUZZ_BASES,
    FLOOR_MESSAGES,
    FUZZ_EXIT_ONE,
    OVERFLOWS,
    PARAMETER_ERRORS,
    ROUND_OFF_FLOORS,
    ROUND_OFF_PASSES,
    VACUOUS_PASSES,
    WITHOUT_CONTROL,
    _x0_sign_flipped,
    control_triple,
    fuzz_cases,
    gating_triples,
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
    for argv, message in PARAMETER_ERRORS:
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv, names", OVERFLOWS)
def test_overflowing_inputs_exit_two_without_a_warning(argv, names, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
    err = capsys.readouterr().err
    for name in names:
        assert re.search(r"\b{}\b".format(name), err), (argv, err)


def test_round_off_floors_refuse_instead_of_failing(tmp_path, capsys):
    for row, (argv, values, (low, high), name) in enumerate(ROUND_OFF_FLOORS):
        for value in values:
            code = main(argv + [value, "--out", str(tmp_path / str(row) / value)])
            err = capsys.readouterr().err
            if low <= float(value) < high:
                assert code == 2 and name in err and "round-off alone" in err, (argv, value)
            else:
                assert code == 0, (argv, value)
    for argv in ROUND_OFF_PASSES:
        assert main(argv + ["--out", str(tmp_path / "passes")]) == 0, argv


@pytest.fixture
def floored_work_unreachable(monkeypatch):
    """The work that a floor set by the parameters alone bounds, made to raise:
    the imaginary-part draws, the leapfrog and de Sitter's RK4 run."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a refused run reached the work its floor bounds")

    for module, name in (
        (lattice_runners, "conformal_imaginary_part_residual"),
        (lattice_runners, "lattice_klein_gordon_check"),
        (cosmo_runners, "evolve_classical"),
    ):
        monkeypatch.setattr(module, name, unreachable)


@pytest.mark.parametrize(
    "argv, message", FLOOR_MESSAGES, ids=[" ".join(argv) for argv, _ in FLOOR_MESSAGES]
)
def test_each_floor_refusal_keeps_its_message(
    argv, message, tmp_path, capsys, floored_work_unreachable
):
    # the whole message, byte for byte, no report.json behind it, and no
    # work done past a floor that the parameters alone set
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "semiprop: {}\n".format(message)
    assert not out.exists()


LONG_REFUSED_RUNS = [
    ["lattice", "imaginary-part", "--lam", "1e6", "--draws", "50000"],
    ["lattice", "kg-wave", "--dims", "[32]", "--dt", "1e-5", "--steps", "300000"],
    ["lattice", "kg-wave", "--dims", "[2]", "--dt", "1e-6", "--steps", "3000000"],
    ["cosmo", "de-sitter", "--t_end", "100", "--step", "1e-4"],
]


@pytest.mark.parametrize("argv", LONG_REFUSED_RUNS, ids=" ".join)
def test_a_long_refused_run_stops_before_its_work(argv, tmp_path, floored_work_unreachable):
    # each of these ran for seconds to minutes before its floor refused it
    assert main(argv + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "control", CONTROLS, ids=lambda control: "-".join(filter(None, control_triple(control)))
)
def test_a_planted_defect_fails_its_record(control, tmp_path, monkeypatch):
    argv, plant, failing, passing = control
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0, argv
    monkeypatch.setattr(*plant())
    assert main(argv + ["--out", str(tmp_path / "planted")]) == 1, argv
    report = read_report(tmp_path / "planted")
    assert record(report, failing)["pass"] is False
    if passing is not None:
        assert record(report, passing)["pass"] is True


def test_every_gating_record_has_a_control_or_is_listed_without_one():
    controlled = [control_triple(control) for control in CONTROLS]
    assert len(set(controlled)) == len(controlled)
    assert not set(controlled) & WITHOUT_CONTROL
    assert set(controlled) | WITHOUT_CONTROL == gating_triples()


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="an absolute tolerance above every term it compares (ROADMAP item 15)",
)
@pytest.mark.parametrize(
    "argv, plant", VACUOUS_PASSES,
    ids=["{}={}".format(argv[2][2:], argv[3]) for argv, _ in VACUOUS_PASSES],
)
def test_a_planted_defect_is_caught_or_refused_where_its_record_is_vacuous(
    argv, plant, tmp_path, monkeypatch
):
    monkeypatch.setattr(*plant())
    assert main(argv + ["--out", str(tmp_path)]) in (1, 2), argv


def test_a_flipped_x0_sign_fails_hamilton_jacobi_away_from_x0_zero(tmp_path, monkeypatch):
    # m (x + x0) / t for the free particle's dS/dx reads 22.4 here
    monkeypatch.setattr(*_x0_sign_flipped())
    assert main(["quadratic", "hj", "--x0", "0.7", "--out", str(tmp_path)]) == 1
    report = read_report(tmp_path)
    assert record(report, "hamilton-jacobi")["pass"] is False
    assert record(report, "consistency")["pass"] is True


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the default x0 = 0 cannot tell x - x0 from x + x0 (ROADMAP item 20)",
)
def test_a_flipped_x0_sign_fails_hamilton_jacobi_at_the_defaults(tmp_path, monkeypatch):
    monkeypatch.setattr(*_x0_sign_flipped())
    assert main(["quadratic", "hj", "--out", str(tmp_path)]) == 1


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

    def runner(params, seed, hold):
        calls.append(params["lam"])
        return real(params, seed, hold)

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


def test_every_check_has_a_fuzz_base_and_a_parameter_error():
    assert set(FUZZ_BASES) == set(CHECKS)
    assert {tuple(argv[:2]) for argv, _ in PARAMETER_ERRORS} >= set(CHECKS)
    cases = [tuple(argv) for _, argv in fuzz_cases()]
    assert len(set(cases)) == len(cases)


def test_exit_contract_holds_on_every_declared_edge(tmp_path, capsys):
    cases = list(fuzz_cases())
    assert len(cases) > 400
    exit_one = []
    for index, (name, argv) in enumerate(cases):
        out = tmp_path / str(index)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not numeric, (argv, numeric)
        if code == 1:
            exit_one.append(argv)
        if code == 2:
            assert re.search(r"\b{}\b".format(re.escape(name)), err), (argv, err)
            assert not (out / "report.json").exists(), argv
    assert exit_one == FUZZ_EXIT_ONE


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
        _run_quadratic_schrodinger(params, 0, None)  # the first call loads and caches
        tracemalloc.start()
        try:
            _run_quadratic_schrodinger(params, 0, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, (family, peak)


# ------------------------------------------------------ module loading


# what a spawned interpreter needs to find this checkout's package
SPAWN_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(fresh.SRC), os.environ.get("PYTHONPATH", "")])),
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
        done = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=SPAWN_ENV, timeout=120
        )
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
    # a raise in a runner, a runner-side _refuse, or a message that names a
    # parameter by hand ("parameter 'x'", "'x' = v", "with x = v") is a second
    # refusal path; report._refuse is the one helper, and run_scenario's floor
    # refusals go through it too
    package = Path(semiprop.__file__).parent
    by_hand = re.compile(r"\bparameters? '|' = |\bwith \w+ = ")

    def hand_made(node):
        text = node.value if isinstance(node, ast.Constant) else None
        return isinstance(text, str) and bool(by_hand.search(text))

    offenders = []
    for path in sorted((package / "runners").glob("*.py")):
        module = importlib.import_module("semiprop.runners." + path.stem)
        if getattr(module, "_refuse", _refuse) is not _refuse:
            offenders.append("{} binds another _refuse".format(path.name))
        for node in ast.walk(ast.parse(path.read_text())):
            helper = isinstance(node, ast.FunctionDef) and node.name == "_refuse"
            if isinstance(node, ast.Raise) or helper or hand_made(node):
                offenders.append("{}:{}".format(path.name, node.lineno))
    source = textwrap.dedent(inspect.getsource(cli.run_scenario))
    offenders += [
        "run_scenario:{}".format(node.lineno)
        for node in ast.walk(ast.parse(source)) if hand_made(node)
    ]
    assert "_refuse(params, names, reason)" in source
    assert not offenders


def test_no_runner_reads_a_tolerance():
    # the hold that run_scenario passes a runner compares each floor with its
    # share of the tolerance, so no runner names a tolerance or a floor refusal
    forbidden = {"tolerance", "tolerances", "RunParams", "_refuse_predicted"}
    runners = Path(semiprop.__file__).parent / "runners"
    offenders = []
    for path in sorted(runners.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            fields = ("id", "attr", "name", "asname", "arg")
            words = [getattr(node, field, None) for field in fields]
            if isinstance(node, ast.Constant):
                words.append(node.value)
            hit = forbidden.intersection(word for word in words if isinstance(word, str))
            if hit:
                offenders.append("{}:{} {}".format(path.name, node.lineno, sorted(hit)))
    assert not offenders


FAMILY_VARIANTS = [
    (scenario, check, family)
    for (scenario, check), (declared, *_) in CHECKS.items()
    for family in (declared["family"][1] if "family" in declared else (None,))
]


@pytest.mark.parametrize(
    "scenario, check, family", FAMILY_VARIANTS,
    ids=[" ".join(filter(None, variant)) for variant in FAMILY_VARIANTS],
)
def test_the_records_that_return_a_floor_are_the_records_that_declare_one(
    scenario, check, family
):
    # the runner hands each record that declares floor= to hold, once, with a
    # Floor set by parameters of the check; no other record is held
    _, name, records = CHECKS[(scenario, check)]
    params = _merge_params(scenario, check, {"family": family} if family else {})
    module = importlib.import_module("semiprop.runners." + scenario.replace("-", "_"))
    held = []

    def hold(record, floor):
        error, cause, names = floor
        assert isinstance(error, float) and cause and set(names) <= set(params), record
        held.append(record)

    getattr(module, name)(params, 0, hold)
    floored = [d.name for d in records if d.floor is not None and d.family in (None, family)]
    assert sorted(held) == sorted(floored)


def test_a_floor_held_twice_or_never_fails_loudly(tmp_path, monkeypatch):
    runner = lattice_runners._run_lattice_kg

    def twice(params, seed, hold):
        hold("stencil-residual", Floor(0.0, "nothing", ("dt",)))
        return runner(params, seed, hold)

    def never(params, seed, hold):
        return runner(params, seed, lambda record, floor: None)

    for planted, error in ((twice, KeyError), (never, RuntimeError)):
        monkeypatch.setattr(lattice_runners, "_run_lattice_kg", planted)
        with pytest.raises(error):
            main(["lattice", "kg-wave", "--out", str(tmp_path)])


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
    # numpy reads the variable once, when it loads OpenBLAS, so each
    # process is spawned
    runs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", CHECKS_PROBE, str(tmp_path / threads)],
            env=dict(SPAWN_ENV, OPENBLAS_NUM_THREADS=threads),
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
    cases = [(scenario, check, [scenario, check] + FUZZ_BASES[scenario, check])
             for scenario, check in CHECKS]
    cases += [(None, None, argv) for argv in (["bogus", "x"], ["lattice", "bogus"], ["--help"])]
    for index, (scenario, check, argv) in enumerate(cases):
        done = fresh.run(LOADED_PROBE, *argv, "--out", tmp_path / str(index))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
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
