"""Action quadrature, decoupling residual, and the two exact families.

Frozen reference numbers come from 30-digit mpmath evaluations of the
closed forms and of the Im S double integral.
"""

import dataclasses
import math

import numpy as np
import pytest

from semiprop.core import (
    ComplexField,
    SpacetimeGrid,
    _stencil,
    at_time,
    cumulative_simpson,
    finite_difference,
)
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
    res = decoupling_residual(GeneralAnsatz(R=lambda x, t: 0.4 + 0.0 * x * t), grid)
    assert res.max_abs() < 1e-12


def test_decoupling_residual_linear_r_is_minus_i_hbar():
    grid = make_grid()
    hbar = 1.3
    res = decoupling_residual(GeneralAnsatz(R=lambda x, t: x + 0.0 * t, hbar=hbar), grid)
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
    res = decoupling_residual(ansatz, grid)
    assert res.max_abs() < 1e-8


def test_cos_log_stencil_residual_converges():
    stencil_only = GeneralAnsatz(R=cos_log_family(c2=0.8, c3=0.4, c4=0.1).R)
    coarse = decoupling_residual(stencil_only, make_grid(n_x=81))
    fine = decoupling_residual(stencil_only, make_grid(n_x=161))
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
    built = build_S_from_R(dataclasses.replace(ansatz, f0=f0_quad, f1=f1_fn), grid)
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
    built = build_S_from_R(dataclasses.replace(ansatz, f0=f0_quad, f1=f1_fn), grid)
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
        GeneralAnsatz(R=lambda x, t: -(x**2) / 4.0 + 0.0 * t), [0.5, 1.0, 2.0], grid
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
        GeneralAnsatz(R=lambda x, t: -0.5 * np.log(t) + 0.0 * x), [0.5, 1.0, 2.0], grid
    )
    assert report.vacuous
    assert report.slope is None
    assert all(norm < 1e-13 for _, norm in report.samples)


def test_imaginary_scaling_probe_validates_input():
    grid = make_grid()
    with pytest.raises(ValueError, match="three distinct"):
        imaginary_scaling_probe(GeneralAnsatz(R=lambda x, t: 0.0 * x * t), [1.0, 2.0], grid)
    with pytest.raises(ValueError, match="real R"):
        imaginary_scaling_probe(
            GeneralAnsatz(R=lambda x, t: 1j * x + 0.0 * t), [0.5, 1.0, 2.0], grid
        )


# ---------------------------------------------------------------------------
# bit-for-bit against the former two-path implementations
# ---------------------------------------------------------------------------


def reference_build_S_from_R(ansatz, grid):
    """The action quadrature as it was before R's derivatives and the
    bracket moved into one helper: analytic derivatives per time slice,
    stencils over the whole window, one Simpson panel per cell."""
    n_panels = grid.n_x - 1
    stride = 2 * n_panels // (grid.n_x - 1)
    xs = np.linspace(grid.x_min, grid.x_max, 2 * n_panels + 1)
    hs = (grid.x_max - grid.x_min) / (2 * n_panels)
    m, hbar = ansatz.mass, ansatz.hbar
    tmask = grid.time_mask()
    analytic = ansatz.dR_dt is not None

    if analytic:
        col_ok = tmask
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_all = np.asarray(ansatz.R(xs[:, None], grid.t[None, :]), dtype=complex)
        r_all = np.broadcast_to(r_all, (xs.size, grid.n_t)).copy()
        r_all[:, ~tmask] = 0.0
        assert np.all(np.isfinite(r_all[:, tmask]))
        valid = np.broadcast_to(tmask, r_all.shape)
        r_t, t_ok = _stencil(r_all, valid, grid.dt, 1, 1)
        col_ok = t_ok[0]
        r_x, _ = _stencil(r_all, valid, hs, 0, 1)
        r_xx, _ = _stencil(r_all, valid, hs, 0, 2)

    values = np.zeros((grid.n_x, grid.n_t), dtype=complex)
    for j, t in enumerate(grid.t):
        if not col_ok[j]:
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_slice = np.asarray(ansatz.R(xs, t), dtype=complex)
            r_slice = np.broadcast_to(r_slice, xs.shape)
            if analytic:
                drt = np.broadcast_to(np.asarray(ansatz.dR_dt(xs, t), dtype=complex), xs.shape)
                drx = np.broadcast_to(np.asarray(ansatz.dR_dx(xs, t), dtype=complex), xs.shape)
                drxx = np.broadcast_to(np.asarray(ansatz.d2R_dx2(xs, t), dtype=complex), xs.shape)
            else:
                drt, drx, drxx = r_t[:, j], r_x[:, j], r_xx[:, j]
            e_plus = np.exp(2.0 * r_slice)
            e_minus = np.exp(-2.0 * r_slice)
        assert np.all(np.isfinite(e_plus)) and np.all(np.isfinite(e_minus))
        inner = e_plus * (2.0 * m * drt - 1j * hbar * (drxx + drx**2))
        a_tab = cumulative_simpson(inner, hs)
        outer = e_minus * (complex(at_time(ansatz.f1, t)) - a_tab)
        s_tab = cumulative_simpson(outer, hs)
        values[:, j] = complex(at_time(ansatz.f0, t)) + s_tab[::stride]
    mask = grid.node_mask() & col_ok[None, :]
    return ComplexField(grid=grid, values=values, mask=mask)


def reference_decoupling_residual(
    R, grid, mass=1.0, hbar=1.0, dR_dt=None, dR_dx=None, d2R_dx2=None
):
    """The decoupling residual as it was, with its own derivative branch."""
    if dR_dt is not None and dR_dx is not None and d2R_dx2 is not None:
        X, T = grid.mesh()
        drt = np.broadcast_to(np.asarray(dR_dt(X, T), dtype=complex), (grid.n_x, grid.n_t))
        drx = np.broadcast_to(np.asarray(dR_dx(X, T), dtype=complex), (grid.n_x, grid.n_t))
        drxx = np.broadcast_to(np.asarray(d2R_dx2(X, T), dtype=complex), (grid.n_x, grid.n_t))
        values = 2.0 * mass * drt - 1j * hbar * (drxx + drx**2)
        values = np.where(grid.node_mask(), values, 0.0)
        return ComplexField(grid=grid, values=values, mask=grid.node_mask())
    field = ComplexField.from_callable(grid, R)
    drt = finite_difference(field, "t", 1)
    drx = finite_difference(field, "x", 1)
    drxx = finite_difference(field, "x", 2)
    mask = drt.mask & drx.mask & drxx.mask
    values = 2.0 * mass * drt.values - 1j * hbar * (drxx.values + drx.values**2)
    values = np.where(mask, values, 0.0)
    return ComplexField(grid=grid, values=values, mask=mask)


REFERENCE_ANSATZE = {
    "cos-log": lambda: cos_log_family(0.8, 0.4, 0.1),
    "exponential": lambda: exponential_family(1.0, 1.0)[0],
    "cos-log-callable-constants": lambda: dataclasses.replace(
        cos_log_family(0.8, 0.4, 0.1),
        f0=lambda t: 0.3 - 0.2j * t,
        f1=lambda t: (0.8 + 0.1j) * np.exp(0.5j * t),
    ),
    "cos-log-heavy": lambda: cos_log_family(0.8, 0.4, 0.1, hbar=0.9, mass=1.7),
    "cos-log-stencil": lambda: GeneralAnsatz(R=cos_log_family(0.8, 0.4, 0.1).R),
    "cos-log-heavy-stencil": lambda: dataclasses.replace(
        cos_log_family(0.8, 0.4, 0.1, hbar=0.9, mass=1.7),
        dR_dt=None, dR_dx=None, d2R_dx2=None,
    ),
    "gaussian-stencil": lambda: GeneralAnsatz(
        R=lambda x, t: -(x**2) / 4.0 + 0.0 * t, hbar=0.7
    ),
}

REFERENCE_GRIDS = {
    "41x21": lambda: make_grid(),
    "65x33-excluded": lambda: SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=65, t_min=0.0, t_max=1.0, n_t=33,
        exclusions=((0.4, 0.6),),
    ),
    "161x5": lambda: make_grid(n_x=161, n_t=5),
}


@pytest.mark.parametrize("grid_name", sorted(REFERENCE_GRIDS))
@pytest.mark.parametrize("ansatz_name", sorted(REFERENCE_ANSATZE))
def test_build_s_equals_the_reference(ansatz_name, grid_name):
    ansatz = REFERENCE_ANSATZE[ansatz_name]()
    grid = REFERENCE_GRIDS[grid_name]()
    built = build_S_from_R(ansatz, grid)
    reference = reference_build_S_from_R(ansatz, grid)
    assert np.array_equal(built.values, reference.values)
    assert np.array_equal(built.mask, reference.mask)


@pytest.mark.parametrize("ansatz_name", sorted(REFERENCE_ANSATZE))
def test_decoupling_residual_equals_the_reference(ansatz_name):
    ansatz = REFERENCE_ANSATZE[ansatz_name]()
    grid = REFERENCE_GRIDS["65x33-excluded"]()
    assert not grid.time_mask().all()
    res = decoupling_residual(ansatz, grid)
    reference = reference_decoupling_residual(
        ansatz.R, grid, ansatz.mass, ansatz.hbar,
        ansatz.dR_dt, ansatz.dR_dx, ansatz.d2R_dx2,
    )
    assert np.array_equal(res.values, reference.values)
    assert np.array_equal(res.mask, reference.mask)


@pytest.mark.parametrize(
    "given",
    [{"dR_dt": 0}, {"dR_dx": 0}, {"d2R_dx2": 0}, {"dR_dt": 0, "d2R_dx2": 0}],
)
def test_ansatz_refuses_a_partial_set_of_derivatives(given):
    derivatives = {name: (lambda x, t: 0.0 * x * t) for name in given}
    with pytest.raises(ValueError, match="dR_dt, dR_dx and d2R_dx2 come all three or none"):
        GeneralAnsatz(R=lambda x, t: 0.0 * x * t, **derivatives)
