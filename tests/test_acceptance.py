"""Acceptance gate: every shipped guarantee, one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each criterion test prints exactly one ``[criterion-NN] PASS/FAIL`` line
and then asserts it.  Tolerances here are the shipped contract, not
aspirations: loosening one is an interface change.  The last test holds
the CLI checks that mirror a criterion to the same tolerances.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from semiprop.cli import main
from semiprop.core import (
    ComplexField,
    SpacetimeGrid,
    SpatialGrid,
    assemble_propagator,
    observed_orders,
)
from semiprop.cosmo import (
    ClassicalState,
    ComplexActionFields,
    CosmoParams,
    Trajectory,
    evolve_classical,
    friedmann_residual,
    klein_gordon_residual,
    matched_a_dot,
    quadratic_potential,
    relative_constraint,
    scale_factor_equation_residual,
)
from semiprop.cosmo import ActionGrids, complex_action_residuals
from semiprop.general_hj import (
    GeneralAnsatz,
    cos_log_family,
    decoupling_residual,
    exponential_family_residuals,
    imaginary_scaling_probe,
)
from semiprop.lattice import (
    LatticeConfig,
    LatticeField,
    PointwiseFunction,
    analytic_conformal_derivative,
    conformal_imaginary_part_residual,
    conformal_real_part_residual,
    conformal_transport_check,
    constant_function,
    functional_hj_residual,
    lattice_greens_function,
    lattice_klein_gordon_check,
    lattice_operator,
    lattice_plane_wave,
)
from semiprop.oracle import (
    cn_evolve,
    gaussian_state,
    kernel_propagate,
    l2_difference,
    schrodinger_residual,
)
from semiprop.quadratic import (
    PREFACTOR_CASES,
    QuadraticPotential,
    free_particle_factors,
    free_particle_identity_residuals,
    harmonic_factors,
    harmonic_identity_residuals,
    prefactor_error,
    solve_prefactor_odes,
    van_vleck_check,
)


def verdict(criterion: int, passed: bool, detail: str) -> None:
    print("[criterion-{:02d}] {}: {}".format(criterion, "PASS" if passed else "FAIL", detail))
    assert passed, detail


def quadratic_factors(family, grid, omega=1.0):
    if family == "free":
        return free_particle_factors(grid), 0.0
    return harmonic_factors(grid, omega=omega), QuadraticPotential(g2=0.5 * omega**2).value


def test_criterion_01_closed_form_certification():
    grid = SpacetimeGrid(x_min=-4.0, x_max=4.0, n_x=257, t_min=0.5, t_max=2.0, n_t=129)
    analytic = max(
        max(free_particle_identity_residuals(grid).values()),
        max(harmonic_identity_residuals(grid).values()),
    )
    orders = []
    for family in ("free", "harmonic"):
        dxs, rels = [], []
        for n_x in (512, 1024, 2048):
            fine = SpacetimeGrid(
                x_min=-4.0, x_max=4.0, n_x=n_x, t_min=0.5, t_max=2.0, n_t=n_x // 4
            )
            factors, pot = quadratic_factors(family, fine)
            rel = schrodinger_residual(
                assemble_propagator(factors, fine), pot, hbar=1.0, mass=1.0
            )
            dxs.append(fine.dx)
            rels.append(rel)
        orders.extend(observed_orders(dxs, rels))
    ok = analytic <= 1e-8 and all(abs(p - 2.0) <= 0.3 for p in orders)
    verdict(
        1,
        ok,
        "analytic residual {:.3e} (tol 1e-8); stencil orders {} (2.0 +/- 0.3)".format(
            analytic, ["%.2f" % p for p in orders]
        ),
    )


def test_criterion_02_prefactor_odes():
    deviations = {}
    for family, (pot, init, window, t0) in PREFACTOR_CASES.items():
        sol = solve_prefactor_odes(pot, init, window, 1e-4, t0=t0)
        deviations[family] = prefactor_error(family, sol)
    pot, init, window, t0 = PREFACTOR_CASES["driven"]
    steps = [0.02, 0.01, 0.005, 0.0025]
    errors = [
        prefactor_error("driven", solve_prefactor_odes(pot, init, window, h, t0=t0))
        for h in steps
    ]
    orders = observed_orders(steps, errors)
    ok = max(deviations.values()) <= 1e-8 and all(abs(p - 4.0) <= 0.5 for p in orders)
    verdict(
        2,
        ok,
        "closed-form deviations {} (tol 1e-8); RK4 orders {} (4.0 +/- 0.5)".format(
            {k: "%.2e" % v for k, v in deviations.items()},
            ["%.2f" % p for p in orders],
        ),
    )


def test_criterion_03_van_vleck():
    grid = SpacetimeGrid(x_min=-3.0, x_max=3.0, n_x=49, t_min=0.4, t_max=1.2, n_t=25)
    x0s = np.linspace(-1.0, 1.0, 9)
    deviations = {
        family: van_vleck_check(quadratic_factors(family, grid)[0], grid, x0s).deviation
        for family in ("free", "harmonic")
    }
    ok = max(deviations.values()) <= 1e-6
    verdict(
        3,
        ok,
        "prefactor/sqrt(D_VV) deviations {} (tol 1e-6)".format(
            {k: "%.2e" % v for k, v in deviations.items()}
        ),
    )


@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_criterion_04_oracle_equivalence():
    agreements = {}
    # free family on [-12, 12]
    grid = SpatialGrid(-12.0, 12.0, 512)
    psi0 = gaussian_state(grid, sigma0=1.0)
    span = SpacetimeGrid(x_min=-12.0, x_max=12.0, n_x=512, t_min=0.05, t_max=1.5, n_t=8)
    factors = free_particle_factors(span)
    via_kernel = kernel_propagate(psi0, factors, 1.0, reference_time=1e-2)
    via_cn = cn_evolve(psi0, 0.0, dt=1e-3, n_steps=1000)
    agreements["free"] = l2_difference(via_kernel, via_cn)
    perturbed = dataclasses.replace(
        via_kernel, psi=via_kernel.psi * np.exp(0.01 * grid.x**2)
    )
    separation = l2_difference(perturbed, via_cn)
    # oscillator on [-6, 6] over a quarter period
    grid = SpatialGrid(-6.0, 6.0, 512)
    psi0 = gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)
    span = SpacetimeGrid(x_min=-6.0, x_max=6.0, n_x=512, t_min=0.05, t_max=2.0, n_t=8)
    quarter = math.pi / 2.0
    via_kernel = kernel_propagate(
        psi0, harmonic_factors(span, omega=1.0), quarter, reference_time=1e-2
    )
    via_cn = cn_evolve(
        psi0, QuadraticPotential(g2=0.5).value, dt=quarter / 1571, n_steps=1571
    )
    agreements["harmonic"] = l2_difference(via_kernel, via_cn)
    ok = max(agreements.values()) <= 1e-3 and separation >= 1e-2
    verdict(
        4,
        ok,
        "kernel-vs-CN L2 {} (tol 1e-3); perturbed separation {:.2e} (floor 1e-2)".format(
            {k: "%.2e" % v for k, v in agreements.items()}, separation
        ),
    )


def test_criterion_05_general_hj_families():
    grid = SpacetimeGrid(x_min=-2.0, x_max=2.0, n_x=65, t_min=0.0, t_max=1.0, n_t=33)
    ansatz = cos_log_family(c2=1.0)
    cos_log = decoupling_residual(ansatz, grid).max_abs()
    exponential = exponential_family_residuals()["hamilton_jacobi"]
    slope_grid = SpacetimeGrid(x_min=-2.0, x_max=2.0, n_x=81, t_min=0.0, t_max=1.0, n_t=5)
    gaussian = GeneralAnsatz(R=lambda x, t: -(x**2) / 4.0 + 0.0 * t)
    report = imaginary_scaling_probe(gaussian, [0.5, 1.0, 2.0], slope_grid)
    ok = (
        cos_log <= 1e-8
        and exponential <= 1e-10
        and not report.vacuous
        and abs(report.slope - 1.0) <= 0.01
    )
    verdict(
        5,
        ok,
        "cos-log decoupling {:.2e} (tol 1e-8); exponential HJ {:.2e} (tol 1e-10); "
        "Im S slope {:.4f} (1 +/- 0.01)".format(cos_log, exponential, report.slope),
    )


def test_criterion_06_cosmology():
    de_sitter = CosmoParams(lam=3.0)
    traj = evolve_classical(
        ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0), de_sitter, (0.0, 1.0), 1e-3
    )
    growth = abs(traj.a[-1] - math.e)
    constraint = float(np.max(relative_constraint(traj, de_sitter)))

    vacuum = CosmoParams()
    stiff_state = ClassicalState(
        a=1.0, a_dot=matched_a_dot(1.0, 0.0, 20.0, vacuum), phi=0.0, phi_dot=20.0
    )
    stiff = evolve_classical(stiff_state, vacuum, (0.0, 35.0), 1e-3)
    sel = stiff.t >= 3.5
    slope = np.polyfit(np.log(stiff.t[sel]), np.log(stiff.a[sel]), 1)[0]

    params = CosmoParams(lam=0.5, potential=quadratic_potential(1.0))
    state = ClassicalState(
        a=1.0, a_dot=matched_a_dot(1.0, 0.3, 0.2, params), phi=0.3, phi_dot=0.2
    )
    kg_maxima = []
    for step in (2e-3, 1e-3):
        run = evolve_classical(state, params, (0.0, 1.0), step)
        kg_maxima.append(float(np.max(np.abs(klein_gordon_residual(run, params)))))
        constraint = max(constraint, float(np.max(relative_constraint(run, params))))
    kg_ratio = kg_maxima[0] / kg_maxima[1]

    ok = (
        growth <= 1e-6
        and abs(slope - 1.0 / 3.0) <= 1e-3
        and constraint <= 1e-8
        and 3.2 <= kg_ratio <= 4.8
    )
    verdict(
        6,
        ok,
        "de Sitter |a(1)-e| {:.2e} (tol 1e-6); stiff slope {:.6f} (1/3 +/- 1e-3); "
        "constraint residual {:.2e} (tol 1e-8 relative); KG step ratio {:.2f} "
        "(4.0 expected)".format(growth, slope, constraint, kg_ratio),
    )


def test_criterion_07_complex_action_system():
    grids = ActionGrids(
        a=np.linspace(0.5, 2.0, 7), phi=np.linspace(-1.0, 1.0, 5), t=np.linspace(0.0, 1.0, 6)
    )
    vacuum = CosmoParams()
    _, res_b_const = complex_action_residuals(
        ComplexActionFields(
            s_a=lambda a, t: 0.0 * a, s_phi=lambda p, t: 0.0 * p, s_g=lambda a, t: 2.3 + 0.0 * a
        ),
        vacuum,
        grids,
    )
    const_max = float(np.max(np.abs(res_b_const)))
    _, res_b_hand = complex_action_residuals(
        ComplexActionFields(
            s_a=lambda a, t: a + 0.0 * t, s_phi=lambda p, t: 0.0 * p, s_g=lambda a, t: a * t
        ),
        vacuum,
        grids,
    )
    hand_dev = float(
        np.max(np.abs(res_b_hand - (grids.a[:, None] + 16.0 * grids.t[None, :])))
    )
    de_sitter = CosmoParams(lam=3.0)
    traj = evolve_classical(
        ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0), de_sitter, (0.0, 1.0), 2.5e-4
    )
    scale_factor = float(np.max(np.abs(scale_factor_equation_residual(traj, 0.0, de_sitter))))
    ok = const_max <= 1e-12 and hand_dev <= 1e-10 and scale_factor <= 1e-6
    verdict(
        7,
        ok,
        "residual B (constant S_g) {:.2e} (tol 1e-12); hand-field deviation {:.2e} "
        "(tol 1e-10); de Sitter scale-factor residual {:.2e} (tol 1e-6)".format(
            const_max, hand_dev, scale_factor
        ),
    )


def test_criterion_08_conformal_sector():
    config = LatticeConfig(dims=(4, 4))
    rng = np.random.default_rng(2026)
    w = PointwiseFunction(value=lambda p: 2.0 + np.sin(p), derivative=np.cos)
    imag_worst = 0.0
    for _ in range(100):
        sigma = LatticeField(config, rng.uniform(-1.0, 1.0, size=(4, 4)))
        phi = LatticeField(config, rng.uniform(-1.0, 1.0, size=(4, 4)))
        res = conformal_imaginary_part_residual(
            sigma, phi, w, analytic_conformal_derivative(sigma, 1.3), lam=1.3
        )
        imag_worst = max(imag_worst, float(np.max(np.abs(res.values))))
    sigma = LatticeField(config, rng.uniform(-1.0, 1.0, size=(4, 4)))
    _, derivative_dev = conformal_transport_check(sigma, lam=1.7)
    lam = 2.7
    flat_sigma = LatticeField(config, np.full((4, 4), 0.4))
    real_part = conformal_real_part_residual(
        LatticeField(config, np.zeros((4, 4))),
        flat_sigma,
        constant_function(lam / 8.0),
        constant_function(1.0),
        lam=lam,
    )
    real_max = float(np.max(np.abs(real_part.values)))
    ok = imag_worst <= 1e-12 and derivative_dev <= 1e-6 and real_max <= 1e-12
    verdict(
        8,
        ok,
        "imaginary-part residual {:.2e} over 100 draws (tol 1e-12); functional "
        "derivative deviation {:.2e} (tol 1e-6 rel); constant real-part {:.2e} "
        "(tol 1e-12)".format(imag_worst, derivative_dev, real_max),
    )


def dense_kernel(functional):
    """The n x n kernel G(x, y) = g[x - y], one roll of the column per site."""
    axes = tuple(range(functional.g.ndim))
    return np.stack(
        [
            np.roll(functional.g, y, axis=axes).reshape(-1)
            for y in np.ndindex(functional.config.dims)
        ],
        axis=1,
    )


def test_criterion_09_lattice_greens_sector():
    defect = 0.0
    for config in (
        LatticeConfig(dims=(4, 4), spacing=0.5, mass=1.3),
        LatticeConfig(dims=(4, 4), signature="lorentzian", mass=1.0),
    ):
        functional = lattice_greens_function(config)
        operator = lattice_operator(config)
        defect = max(
            defect,
            float(np.max(np.abs(operator @ dense_kernel(functional) - np.eye(config.n_sites)))),
        )
    pair = lattice_greens_function(LatticeConfig(dims=(2,)))
    oracle_dev = float(
        np.max(np.abs(dense_kernel(pair) - np.array([[0.6, 0.4], [0.4, 0.6]])))
    )
    wave_config = LatticeConfig(dims=(32,), mass=0.7)
    phi0, velocity, _ = lattice_plane_wave(wave_config, mode=(3,), dt=0.05)
    run = lattice_klein_gordon_check(phi0, velocity, dt=0.05, n_steps=200)
    kg_residual = float(np.max(run.residual))
    positive_config = LatticeConfig(dims=(4, 4))
    functional = lattice_greens_function(positive_config)
    rng = np.random.default_rng(99)
    minimum = math.inf
    for _ in range(100):
        phi = LatticeField(positive_config, rng.uniform(-2.0, 2.0, size=(4, 4)))
        minimum = min(minimum, functional_hj_residual(functional, phi))
    lightcone = LatticeConfig(dims=(8, 8), signature="lorentzian", mass=1.0)
    t_idx, s_idx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    on_shell = functional_hj_residual(
        lattice_greens_function(lightcone),
        LatticeField(lightcone, np.cos(2.0 * np.pi * (t_idx - s_idx) / 8.0)),
    )
    ok = defect <= 1e-8 and oracle_dev <= 1e-12 and kg_residual <= 1e-8 and minimum > 0.0
    verdict(
        9,
        ok,
        "op*G defect {:.2e} (tol 1e-8); 2-site oracle {:.2e} (tol 1e-12); KG plane "
        "wave {:.2e} (tol 1e-8); positivity minimum {:.2e} over 100 draws (> 0); "
        "lorentzian on-shell diagnostic {:.4f} (recorded, no threshold)".format(
            defect, oracle_dev, kg_residual, minimum, on_shell
        ),
    )


def test_criterion_10_negative_controls():
    rels = []
    for n_x, n_t in ((129, 65), (257, 129)):
        grid = SpacetimeGrid(
            x_min=-4.0, x_max=4.0, n_x=n_x, t_min=0.5, t_max=2.0, n_t=n_t
        )
        bad = ComplexField.from_callable(grid, lambda x, t: np.exp(x + t))
        rel = schrodinger_residual(bad, 0.0, hbar=1.0, mass=1.0)
        rels.append(rel)
    ratio = rels[1] / rels[0]
    ts = np.linspace(0.0, 1.0, 21)
    linear = Trajectory(
        t=ts, a=1.0 + ts, a_dot=np.ones_like(ts),
        phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts),
    )
    friedmann_dev = float(
        np.max(np.abs(friedmann_residual(linear, CosmoParams()) - 1.0 / (1.0 + ts) ** 2))
    )
    ok = rels[1] > 0.5 and 0.8 <= ratio <= 1.25 and friedmann_dev <= 1e-8
    verdict(
        10,
        ok,
        "non-solution residual stays {:.3f} -> {:.3f} under refinement (ratio "
        "{:.3f}, must stay O(1)); Friedmann hand-case deviation {:.2e} "
        "(tol 1e-8)".format(rels[0], rels[1], ratio, friedmann_dev),
    )


def test_cli_tolerances_equal_the_criteria(tmp_path, capsys):
    mirrored = {
        ("quadratic", "schrodinger-order"): {"stencil-order": 0.3},  # criterion 01
        ("quadratic", "prefactor-ode"): {  # criterion 02
            "closed-form-deviation": 1e-8,
            "observed-order": 0.5,
        },
        ("quadratic", "van-vleck"): {"van-vleck-deviation": 1e-6},  # criterion 03
        ("oracle", "kernel-vs-grid"): {  # criterion 04
            "kernel-vs-grid": 1e-3,
            "perturbed-kernel-separation": 1e-2,
        },
        ("general-hj", "exponential"): {"hamilton-jacobi": 1e-10},  # criterion 05
        ("general-hj", "decoupling"): {"decoupling-residual": 1e-8},
        ("general-hj", "hbar-slope"): {"imaginary-slope": 0.01},
        ("cosmo", "de-sitter"): {  # criterion 06
            "scale-factor-growth": 1e-6,
            "friedmann-residual": 1e-8,
        },
        ("cosmo", "stiff"): {"expansion-exponent": 1e-3},
        ("lattice", "imaginary-part"): {"imaginary-part-residual": 1e-12},  # criterion 08
        ("lattice", "greens"): {"defining-property": 1e-8},  # criterion 09
        ("lattice", "kg-wave"): {"stencil-residual": 1e-8},
    }
    for (scenario, check), tolerances in mirrored.items():
        out = tmp_path / scenario / check
        assert main([scenario, check, "--out", str(out)]) == 0, (scenario, check)
        report = json.loads((out / "report.json").read_text())
        recorded = {c["name"]: c["tolerance"] for c in report["checks"]}
        for name, tolerance in tolerances.items():
            assert recorded[name] == tolerance, (scenario, check, name)
