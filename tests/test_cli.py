"""CLI dispatch, report files, determinism, and the convergence table."""

import json
import math

import numpy as np
import pytest

from semiprop.cli import main
from semiprop.report import build_convergence_rows, write_csv


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


def test_failing_tolerance_exits_one(tmp_path):
    code = main(
        [
            "lattice", "conformal-transport",
            "--derivative_tol", "1e-16", "--out", str(tmp_path),
        ]
    )
    assert code == 1
    assert read_report(tmp_path)["pass"] is False


def test_infinite_floor_value_fails(tmp_path):
    # phi ~ 1e200 squares to inf: a floor check must not pass on it
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(
            ["lattice", "hj-positivity", "--amplitude", "1e200", "--out", str(tmp_path)]
        )
    assert code == 1
    check = record(read_report(tmp_path), "minimum-residual")
    assert check["value"] == math.inf and check["pass"] is False


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
    assert "must be positive" in capsys.readouterr().err
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
        # refused by the node and history budgets before anything is allocated;
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
    ]:
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_oracle_at_the_benchmark_size(tmp_path):
    # the chirp-convolution kernel and the once-factored Crank-Nicolson
    # make n_x 2048 cheap enough for tier-1
    for family in ("free", "harmonic"):
        out = tmp_path / family
        argv = ["oracle", "kernel-vs-grid", "--family", family, "--n_x", "2048"]
        assert main(argv + ["--out", str(out)]) == 0, family
        assert read_report(out)["pass"] is True


# ---------------------------------------------------- config and sweeps


def test_config_file_with_flag_override(tmp_path):
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
    sweep.write_text("lam=1.0\nlam=-1.0\nlam=2.0\n")
    out = tmp_path / "out"
    assert main(["cosmo", "de-sitter", "--sweep", str(sweep), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[run-001] semiprop: parameter 'lam'" in captured.err
    assert "Traceback" not in captured.err
    for run in ("run-000", "run-002"):
        assert "[{}] overall: PASS".format(run) in captured.out
        assert read_report(out / run)["pass"] is True
    assert not (out / "run-001").exists()


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
