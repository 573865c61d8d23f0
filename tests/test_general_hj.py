"""Action quadrature, decoupling residual, and the two exact families.

Frozen reference numbers come from 30-digit mpmath evaluations of the
closed forms and of the Im S double integral.
"""

import dataclasses
import math

import numpy as np
import pytest

from semiprop.core import ComplexField, SpacetimeGrid
from semiprop.general_hj import (
    GeneralAnsatz,
    build_S_from_R,
    cos_log_action,
    cos_log_family,
    cos_log_quadrature_inputs,
    cos_log_recovered_potential,
    decoupling_residual,
    exponential_family,
    exponential_family_residuals,
    imaginary_scaling_probe,
    recover_potential,
)
from semiprop.quadratic import free_particle_factors, harmonic_factors


def make_grid(n_x=41, n_t=21, x_min=-2.0, x_max=2.0, t_min=0.0, t_max=1.0):
    return SpacetimeGrid(
        x_min=x_min, x_max=x_max, n_x=n_x, t_min=t_min, t_max=t_max, n_t=n_t
    )


# ---------------------------------------------------------------------------
# decoupling residual
# ---------------------------------------------------------------------------


def test_decoupling_residual_constant_r_is_zero():
    grid = make_grid()
    res = decoupling_residual(lambda x, t: 0.4 + 0.0 * x * t, grid, mass=1.0, hbar=1.0)
    assert res.max_abs() < 1e-12


def test_decoupling_residual_linear_r_is_minus_i_hbar():
    grid = make_grid()
    hbar = 1.3
    res = decoupling_residual(lambda x, t: x + 0.0 * t, grid, mass=1.0, hbar=hbar)
    assert np.max(np.abs(res.values[res.mask] + 1j * hbar)) < 1e-9


def test_cos_log_family_point_values_and_residual():
    ansatz = cos_log_family(c2=0.8, c3=0.4, c4=0.1, hbar=1.0, mass=1.0)
    # frozen closed-form samples at x=0.6, t=0.7
    r_val = complex(ansatz.R(np.array([0.6]), 0.7)[0])
    assert abs(r_val - (0.146289907202116465 + 0.0375232112972703055j)) < 1e-14
    assert abs(complex(np.asarray(ansatz.dR_dx(0.6, 0.7)))
               - (0.406344972902109915 - 0.261569967815326973j)) < 1e-14
    assert abs(complex(np.asarray(ansatz.d2R_dx2(0.6, 0.7)))
               - (0.543302611060094748 + 0.212575282967849603j)) < 1e-14
    grid = make_grid()
    res = decoupling_residual(
        ansatz.R, grid, mass=1.0, hbar=1.0,
        dR_dt=ansatz.dR_dt, dR_dx=ansatz.dR_dx, d2R_dx2=ansatz.d2R_dx2,
    )
    assert res.max_abs() < 1e-8


def test_cos_log_stencil_residual_converges():
    ansatz = cos_log_family(c2=0.8, c3=0.4, c4=0.1)
    coarse = decoupling_residual(ansatz.R, make_grid(n_x=81), mass=1.0, hbar=1.0)
    fine = decoupling_residual(ansatz.R, make_grid(n_x=161), mass=1.0, hbar=1.0)
    assert fine.max_abs() < 1e-3
    assert 3.0 < coarse.max_abs() / fine.max_abs() < 5.0


def test_cos_log_branch_is_continuous_along_x():
    # cos(c3) < 0 pushes cos(i c2 x + c3) across the negative real axis,
    # where a principal-branch log would jump by 2 pi
    ansatz = cos_log_family(c2=1.0, c3=2.5)
    x = np.linspace(-1.0, 1.0, 201)[:, None]
    r_vals = np.asarray(ansatz.R(x, 0.0))
    jumps = np.abs(np.diff(r_vals.imag, axis=0))
    assert np.max(jumps) < 0.1


# ---------------------------------------------------------------------------
# action quadrature
# ---------------------------------------------------------------------------


def test_build_s_time_only_r_reduces_to_quadratic_template():
    mass, x0 = 1.4, 0.3
    grid = make_grid(n_x=41, n_t=41, t_min=0.5, t_max=2.0)
    ansatz = GeneralAnsatz(
        R=lambda x, t: -0.5 * np.log(t) + 0.0 * x,
        f0=lambda t: mass * (grid.x_min - x0) ** 2 / (2.0 * t),
        f1=lambda t: mass * (grid.x_min - x0) / t**2,
        mass=mass,
        dR_dt=lambda x, t: -0.5 / t + 0.0 * x,
        dR_dx=lambda x, t: 0.0 * x * t,
        d2R_dx2=lambda x, t: 0.0 * x * t,
    )
    s_field = build_S_from_R(ansatz, grid)
    target = mass * (grid.x[:, None] - x0) ** 2 / (2.0 * grid.t[None, :])
    assert np.max(np.abs(s_field.values - target)[s_field.mask]) < 1e-6
    # with R independent of x the action is exactly quadratic in x
    third = np.diff(s_field.values, 3, axis=0)
    assert np.max(np.abs(third)) < 1e-8


def test_build_s_matches_cos_log_closed_form():
    c2, f1_d, f0_d = 1.0, 0.8, 0.3
    ansatz = cos_log_family(c2=c2, c3=0.0, c4=0.0, hbar=1.0, mass=1.0)
    grid = make_grid(n_x=161, n_t=5)
    f1_fn, f0_quad = cos_log_quadrature_inputs(
        c2=c2, f1_const=f1_d, f0_const=f0_d, x_min=grid.x_min
    )
    built = build_S_from_R(
        GeneralAnsatz(
            R=ansatz.R, f0=f0_quad, f1=f1_fn, hbar=1.0, mass=1.0,
            dR_dt=ansatz.dR_dt, dR_dx=ansatz.dR_dx, d2R_dx2=ansatz.d2R_dx2,
        ),
        grid,
    )
    closed = cos_log_action(c2=c2, f1_const=f1_d, f0_const=f0_d)
    target = np.asarray(closed(grid.x[:, None], grid.t[None, :]))
    assert np.max(np.abs(built.values - target)[built.mask]) < 1e-6
    # frozen point: S(0.5) = 0.8 tanh(0.5) + 0.3, real-valued for c3 = 0
    i_half = int(np.argmin(np.abs(grid.x - 0.5)))
    assert abs(built.values[i_half, 2] - 0.669693725808007807) < 1e-6
    assert np.max(np.abs(built.values.imag[built.mask])) < 1e-10


def test_build_s_matches_exponential_closed_form():
    a, b, hbar, mass = 1.0, 1.0, 1.0, 1.0
    ansatz, s_fn, _ = exponential_family(a, b, hbar, mass)
    grid = make_grid(n_x=161, n_t=5)
    rate16 = 1j * hbar * b**2 / (16.0 * mass)
    f1_fn = lambda t: 1j * math.sqrt(2.0 * mass * a) * np.exp(rate16 * np.asarray(t))
    f0_quad = complex(np.asarray(s_fn(grid.x_min, 0.0)))
    built = build_S_from_R(
        GeneralAnsatz(
            R=ansatz.R, f0=f0_quad, f1=f1_fn, hbar=hbar, mass=mass,
            dR_dt=ansatz.dR_dt, dR_dx=ansatz.dR_dx, d2R_dx2=ansatz.d2R_dx2,
        ),
        grid,
    )
    target = np.asarray(s_fn(grid.x[:, None], grid.t[None, :]))
    target = np.broadcast_to(target, built.values.shape)
    assert np.max(np.abs(built.values - target)[built.mask]) < 1e-6


def test_build_s_constant_and_callable_constants_agree():
    ansatz = cos_log_family(c2=1.0)
    grid = make_grid(n_x=41, n_t=9)
    constant = build_S_from_R(dataclasses.replace(ansatz, f0=0.3, f1=0.8 + 0.1j), grid)
    callable_twin = build_S_from_R(
        dataclasses.replace(
            ansatz, f0=lambda t: 0.3 + 0.0 * t, f1=lambda t: 0.8 + 0.1j + 0.0 * t
        ),
        grid,
    )
    assert np.array_equal(constant.values, callable_twin.values)
    assert np.array_equal(constant.mask, callable_twin.mask)


def test_build_s_rejects_misaligned_panels():
    grid = make_grid(n_x=41)
    ansatz = GeneralAnsatz(R=lambda x, t: 0.0 * x * t)
    with pytest.raises(ValueError, match="multiple of n_x-1"):
        build_S_from_R(ansatz, grid, n_panels=7)


def test_build_s_overflow_diagnostic_names_node():
    grid = make_grid(n_x=41)
    ansatz = GeneralAnsatz(
        R=lambda x, t: -400.0 * x**2 + 0.0 * t,
        dR_dt=lambda x, t: 0.0 * x * t,
        dR_dx=lambda x, t: -800.0 * x + 0.0 * t,
        d2R_dx2=lambda x, t: -800.0 + 0.0 * x * t,
    )
    with pytest.raises(ValueError, match=r"overflow in exp\(-2R\)"):
        build_S_from_R(ansatz, grid)


def test_build_s_refuses_nonfinite_r():
    grid = make_grid(t_min=0.5, t_max=2.0)
    ansatz = GeneralAnsatz(R=lambda x, t: np.log(t - 1.0) + 0.0 * x)
    with pytest.raises(ValueError, match="not finite"):
        build_S_from_R(ansatz, grid)


# ---------------------------------------------------------------------------
# potential recovery
# ---------------------------------------------------------------------------


def test_recover_potential_free_particle_vanishes_at_second_order():
    norms = []
    for n_t in (61, 121):
        grid = make_grid(n_x=81, n_t=n_t, t_min=0.5, t_max=2.0)
        factors = free_particle_factors(grid, mass=1.0, x0=0.0)
        s_field = ComplexField.from_callable(grid, factors.S)
        v = recover_potential(s_field, mass=1.0)
        norms.append(float(np.max(np.abs(v.values[v.mask]))))
    assert norms[1] < 0.03
    assert 3.2 < norms[0] / norms[1] < 4.8


def test_recover_potential_oscillator_matches_quadratic_well():
    norms = []
    for n_t in (61, 121):
        grid = make_grid(n_x=81, n_t=n_t, t_min=0.5, t_max=2.5)
        factors = harmonic_factors(grid, mass=1.0, omega=1.0, x0=0.0)
        s_field = ComplexField.from_callable(grid, factors.S)
        v = recover_potential(s_field, mass=1.0)
        target = 0.5 * grid.x[:, None] ** 2 + 0.0 * grid.t[None, :]
        norms.append(float(np.max(np.abs(v.values - target)[v.mask])))
    assert norms[1] < 0.05
    assert 3.0 < norms[0] / norms[1] < 4.8


def test_recover_potential_cos_log_matches_displayed_form():
    c2, f1_d, mass = 1.0, 0.8, 1.0
    grid = make_grid(n_x=2049, n_t=5)
    closed = cos_log_action(c2=c2, f1_const=f1_d)
    s_field = ComplexField.from_callable(grid, closed)
    v = recover_potential(s_field, mass=mass)
    v_ref = cos_log_recovered_potential(c2=c2, f1_const=f1_d, mass=mass)
    target = np.broadcast_to(
        np.asarray(v_ref(grid.x[:, None], grid.t[None, :])), v.values.shape
    )
    assert np.max(np.abs(v.values - target)[v.mask]) < 1e-6
    # displayed form at x = 0: V = -f1^2/(2m) sech^4(0) = -0.32
    i_zero = int(np.argmin(np.abs(grid.x)))
    assert abs(v.values[i_zero, 2] - (-0.32)) < 1e-6


# ---------------------------------------------------------------------------
# exponential-potential family
# ---------------------------------------------------------------------------


def test_exponential_family_identities():
    res = exponential_family_residuals(1.0, 1.0, 1.0, 1.0)
    assert res["hamilton_jacobi"] < 1e-10
    assert res["decoupling"] < 1e-14
    _, s_fn, v_fn = exponential_family(1.0, 1.0)
    assert abs(complex(np.asarray(s_fn(0.4, 0.0))) - 3.45464869142003534j) < 1e-14
    assert abs(float(np.asarray(v_fn(0.4, 0.0))) - math.exp(0.4)) < 1e-14


def test_exponential_family_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="nonzero"):
        exponential_family(1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        exponential_family(-1.0, 1.0)


# ---------------------------------------------------------------------------
# Im S scaling in hbar
# ---------------------------------------------------------------------------


def test_imaginary_scaling_probe_gaussian_like_r():
    grid = make_grid(n_x=81, n_t=5)
    report = imaginary_scaling_probe(
        lambda x, t: -(x**2) / 4.0 + 0.0 * t, [0.5, 1.0, 2.0], grid
    )
    assert not report.vacuous
    assert abs(report.slope - 1.0) < 1e-9
    norms = dict(report.samples)
    assert abs(norms[2.0] / norms[1.0] - 2.0) < 1e-9
    assert abs(norms[1.0] / norms[0.5] - 2.0) < 1e-9
    # frozen endpoint value of the double integral at hbar = 1
    built = build_S_from_R(
        GeneralAnsatz(R=lambda x, t: -(x**2) / 4.0 + 0.0 * t, hbar=1.0), grid
    )
    assert abs(built.values[-1, 2].imag - (-3.46855592458225996)) < 3e-3


def test_imaginary_scaling_probe_vacuous_for_time_only_r():
    grid = make_grid(n_x=41, n_t=21, t_min=0.5, t_max=2.0)
    report = imaginary_scaling_probe(
        lambda x, t: -0.5 * np.log(t) + 0.0 * x, [0.5, 1.0, 2.0], grid
    )
    assert report.vacuous
    assert report.slope is None
    assert all(norm < 1e-13 for _, norm in report.samples)


def test_imaginary_scaling_probe_validates_input():
    grid = make_grid()
    with pytest.raises(ValueError, match="three distinct"):
        imaginary_scaling_probe(lambda x, t: 0.0 * x * t, [1.0, 2.0], grid)
    with pytest.raises(ValueError, match="real R"):
        imaginary_scaling_probe(
            lambda x, t: 1j * x + 0.0 * t, [0.5, 1.0, 2.0], grid
        )
