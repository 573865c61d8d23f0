"""Closed-form families, prefactor ODEs, Van Vleck, and the necessity probe.

Reference values in this file were frozen from 30-digit mpmath
evaluations of the closed forms; the tests compare solver output against
those numbers rather than recomputing them with package code.
"""

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import pytest

from semiprop.core import SpacetimeGrid, observed_orders
from semiprop.quadratic import (
    PREFACTOR_FLOWS,
    QuadraticPotential,
    free_particle_factors,
    free_particle_identity_residuals,
    harmonic_factors,
    harmonic_identity_residuals,
    riccati_tan_reference,
    solve_prefactor_odes,
    van_vleck_check,
)


# test-side helper: the probe that the quadratic template fails a
# non-quadratic potential


@dataclass(frozen=True)
class NecessityReport:
    residual_norm: float
    fit_residual: float
    coefficients: np.ndarray = field(repr=False)
    blow_up_time: float | None = None


def quadratic_necessity_probe(
    potential_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: SpacetimeGrid,
    mass: float = 1.0,
    init: Sequence[float] = (0.0, 0.0, 1.0, 0.0),
    step: float = 5.0e-5,
) -> NecessityReport:
    """Hamilton-Jacobi residual of the quadratic template against a general V.

    V(x, t) is least-squares fitted by g2 x^2 + g1 x + g0 on each time
    slice, the prefactor system is integrated for the fitted
    coefficients, and the residual dS/dt + (dS/dx)^2/(2m) + V is formed
    with stencil time derivatives of the integrated series.  The norm is
    ~0 exactly when V is quadratic in x; the non-quadratic remainder
    survives in the residual otherwise.
    """
    x = grid.x
    t_nodes = grid.t
    vandermonde = np.stack([np.ones_like(x), x, x**2], axis=1)
    v_slices = np.asarray(potential_fn(x[:, None], t_nodes[None, :]), dtype=float)
    v_slices = np.broadcast_to(v_slices, (grid.n_x, grid.n_t))
    coeffs, _, _, _ = np.linalg.lstsq(vandermonde, v_slices, rcond=None)
    g0_n, g1_n, g2_n = coeffs  # per time node
    fit_residual = float(np.max(np.abs(v_slices - vandermonde @ coeffs)))

    def interp(series):
        return lambda t: np.interp(t, t_nodes, series)

    potential = QuadraticPotential(g2=interp(g2_n), g1=interp(g1_n), g0=interp(g0_n))
    sol = solve_prefactor_odes(potential, init, (grid.t_min, grid.t_max), step, mass=mass)

    # interior stencil derivatives of the integrated series; the 5-point
    # form keeps the differencing error below the 1e-8 scale the probe
    # must resolve for genuinely quadratic potentials
    h = sol.step
    tm = sol.t[2:-2]

    def d_dt(y):
        return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)

    d_dR, d_f1, d_f0 = d_dt(sol.dR), d_dt(sol.f1), d_dt(sol.f0)
    xs = x[:, None]
    s_t = d_f0[None, :] + d_f1[None, :] * xs - mass * d_dR[None, :] * xs**2
    s_x = sol.f1[None, 2:-2] - 2.0 * mass * sol.dR[None, 2:-2] * xs
    v_mid = np.asarray(potential_fn(xs, tm[None, :]), dtype=float)
    residual = s_t + s_x**2 / (2.0 * mass) + v_mid
    return NecessityReport(
        residual_norm=float(np.max(np.abs(residual))),
        fit_residual=fit_residual,
        coefficients=coeffs,
        blow_up_time=sol.blow_up_time,
    )


def make_grid(t_min, t_max, n_x=31, n_t=41, x_min=-2.0, x_max=2.0):
    return SpacetimeGrid(
        x_min=x_min, x_max=x_max, n_x=n_x, t_min=t_min, t_max=t_max, n_t=n_t
    )


# ---------------------------------------------------------------------------
# closed-form point values
# ---------------------------------------------------------------------------


def test_free_particle_point_values():
    grid = make_grid(0.5, 4.0)
    factors = free_particle_factors(grid, mass=1.0, x0=0.0)
    assert abs(factors.S(1.0, 1.0) - 0.5) < 1e-12
    assert abs(factors.S(0.0, 2.7)) < 1e-12  # coincidence x = x0
    assert abs(np.exp(factors.time_amplitude(4.0)) - 0.5) < 1e-12


def test_free_particle_refuses_nonpositive_time():
    with pytest.raises(ValueError, match="t > 0; the grid starts at t_min=-0.5"):
        free_particle_factors(make_grid(-0.5, 1.0))
    with pytest.raises(ValueError, match="t > 0; the grid starts at t_min=0$"):
        free_particle_factors(make_grid(0.0, 1.0))
    free_particle_factors(make_grid(1e-300, 1.0))


def test_harmonic_point_values():
    grid = make_grid(0.2, 3.0)
    factors = harmonic_factors(grid, mass=1.0, omega=1.0, x0=0.0)
    t_star = math.pi / 2.0
    assert abs(factors.S(1.0, t_star)) < 1e-12
    assert abs(factors.R(1.0, t_star)) < 1e-12
    # frozen two-point value: m=1.3, omega=0.9, x=0.7, x0=0.2, t=1
    factors2 = harmonic_factors(grid, mass=1.3, omega=0.9)
    s_val = factors2.two_point_action(0.7, 0.2, 1.0)
    assert abs(s_val - 0.0369324356239433425) < 1e-14
    assert abs(factors2.time_amplitude(1.0) - 0.122102580510609651) < 1e-14


def test_harmonic_small_time_coincidence_limit():
    # S(x0, x0, t) = m w x0^2 (cos wt - 1)/sin wt -> 0 linearly in t
    grid = make_grid(1e-4, 1.0)
    factors = harmonic_factors(grid, mass=1.0, omega=1.0, x0=0.3)
    assert abs(factors.S(0.3, 1e-4)) < 1e-5
    assert abs(factors.S(0.3, 5e-5)) < 0.6 * abs(factors.S(0.3, 1e-4))


def test_harmonic_matches_free_at_small_omega():
    grid = make_grid(0.5, 1.5)
    harm = harmonic_factors(grid, mass=1.0, omega=1e-4, x0=0.0)
    free = free_particle_factors(grid, mass=1.0, x0=0.0)
    assert abs(harm.S(1.0, 1.0) - free.S(1.0, 1.0)) < 1e-6


def reference_first_caustic(omega, grid):
    """The walk over every caustic in the span that harmonic_factors replaced:
    the first one more than 1e-12 inside either end."""
    period = math.pi / omega
    n_lo = math.ceil((grid.t_min - 1e-12) / period)
    n_hi = math.floor((grid.t_max + 1e-12) / period)
    for n in range(n_lo, n_hi + 1):
        tc = n * period
        if abs(tc - grid.t_min) >= 1e-12 and abs(tc - grid.t_max) >= 1e-12:
            return "{:.6g}".format(tc)
    return None


def test_caustic_test_matches_the_per_caustic_walk():
    refused = 0
    for omega in (0.5, 1.0, 2.0, 3.7, 10.0, 25.0):
        for t_min, t_max in (
            (0.5, 4.0), (0.1, 2.0), (1.0, 7.0), (0.5, math.pi), (math.pi, 6.0), (0.2, 0.3)
        ):
            grid = make_grid(t_min, t_max)
            found = None
            try:
                harmonic_factors(grid, omega=omega)
            except ValueError as exc:
                match = re.search(r"caustic at t=(\S+) inside", str(exc))
                found = match and match.group(1)
            assert found == reference_first_caustic(omega, grid), (omega, t_min, t_max)
            refused += found is not None
    assert refused > 20


def test_harmonic_refuses_uncovered_caustic():
    for omega, t_min, t_max, caustic in (
        (1.0, 0.5, 4.0, "3.14159"),
        (2.0, 0.5, 4.0, "1.5708"),  # the first of three inside is named
        (25.0, 0.1, 2.0, "0.125664"),
        (1.0, math.pi, 7.0, "6.28319"),  # the one on the start node is not
        (1e200, 0.5, 2.0, "0.5"),
    ):
        message = f"omega = {omega!r} puts a caustic at t={caustic} inside"
        with pytest.raises(ValueError, match=re.escape(message)):
            harmonic_factors(make_grid(t_min, t_max), omega=omega)


@pytest.mark.parametrize(
    "t_min, t_max, refused",
    [
        # a caustic within 1e-12 of an end is left to the node test
        (0.5, math.pi, True),
        (math.pi, 6.0, True),
        (0.5, math.pi + 5e-13, True),
        (math.pi - 5e-13, 6.0, True),
        # a node 2e-12 from the caustic has |sin(omega t)| above 1e-12
        (0.5, math.pi - 2e-12, False),
        (math.pi + 2e-12, 6.0, False),
    ],
)
def test_harmonic_caustic_within_1e_12_of_an_end(t_min, t_max, refused):
    grid = make_grid(t_min, t_max)
    if refused:
        with pytest.raises(ValueError, match="omega = 1.0 puts a valid time node on a caustic"):
            harmonic_factors(grid, omega=1.0)
    else:
        harmonic_factors(grid, omega=1.0)
    # 2e-12 past an end, the caustic is inside the span
    with pytest.raises(ValueError, match="puts a caustic at t=3.14159 inside"):
        harmonic_factors(make_grid(min(t_min, math.pi - 2e-12), max(t_max, math.pi + 2e-12)))


# ---------------------------------------------------------------------------
# analytic identity residuals
# ---------------------------------------------------------------------------


def test_free_particle_identities_analytic():
    grid = make_grid(0.3, 2.5, n_x=41, n_t=61)
    res = free_particle_identity_residuals(grid, mass=1.2, x0=0.4)
    assert res["hamilton_jacobi"] < 1e-12
    assert res["consistency"] < 1e-12


def test_harmonic_identities_analytic():
    grid = make_grid(0.1, 3.0, n_x=41, n_t=61)
    res = harmonic_identity_residuals(grid, mass=1.0, omega=1.0, x0=0.25)
    assert res["hamilton_jacobi"] < 1e-10
    assert res["consistency"] < 1e-12


# ---------------------------------------------------------------------------
# prefactor ODE system vs closed forms
# ---------------------------------------------------------------------------


def test_prefactor_free_family_matches_closed_form():
    # init matched to u = -1/(2t): at t0=1, (R, dR, f1, f0) = (0, -0.5, 0.8, 0.2)
    pot = QuadraticPotential()
    sol = solve_prefactor_odes(pot, (0.0, -0.5, 0.8, 0.2), (1.0, 2.0), 1e-4)
    t = sol.t
    assert np.max(np.abs(sol.R - (-0.5 * np.log(t)))) < 1e-8
    assert np.max(np.abs(sol.dR - (-0.5 / t))) < 1e-8
    assert np.max(np.abs(sol.f1 - 0.8 / t)) < 1e-8
    assert np.max(np.abs(sol.f0 - (0.2 - 0.32 * (1.0 - 1.0 / t)))) < 1e-8
    # frozen endpoint values at t = 2
    assert abs(sol.R[-1] - (-0.5 * math.log(2.0))) < 1e-10
    assert abs(sol.dR[-1] - (-0.25)) < 1e-10
    assert abs(sol.f1[-1] - 0.4) < 1e-10
    assert abs(sol.f0[-1] - 0.04) < 1e-10


def test_prefactor_harmonic_from_interior_reference_time():
    # g2 = m omega^2 / 2 with m = omega = 1; data matched to R = -1/2 ln sin t
    # at t0 = pi/2, integrated outward over [pi/4, 3pi/4]
    pot = QuadraticPotential(g2=0.5)
    t0 = math.pi / 2.0
    sol = solve_prefactor_odes(
        pot, (0.0, 0.0, 0.0, 0.0), (math.pi / 4.0, 3.0 * math.pi / 4.0), 1e-4, t0=t0
    )
    assert sol.blow_up_time is None
    assert sol.t[0] < t0 < sol.t[-1]
    assert np.max(np.abs(sol.R - (-0.5 * np.log(np.sin(sol.t))))) < 1e-8
    assert np.max(np.abs(sol.dR - (-0.5 * np.cos(sol.t) / np.sin(sol.t)))) < 1e-8


def test_prefactor_harmonic_with_linear_terms():
    # omega=1.5, m=2, init at t0=0.2: closed form
    #   f1 = f1(t0) sin(w t0)/sin(w t),
    #   f0 = f0(t0) + f1(t0)^2 sin^2(w t0)/(2 m w) [cot(w t) - cot(w t0)]
    omega, m, t0 = 1.5, 2.0, 0.2
    pot = QuadraticPotential(g2=0.5 * m * omega**2)
    init = (0.609509031608613704, -2.42454610782437064, 0.7, -0.1)
    sol = solve_prefactor_odes(pot, init, (t0, 1.2), 1e-4, mass=m)
    assert abs(sol.dR[-1] - 0.174977651140508254) < 1e-8
    assert abs(sol.R[-1] - 0.0132502120235441391) < 1e-8
    assert abs(sol.f1[-1] - 0.212419415629108215) < 1e-8
    assert abs(sol.f0[-1] - (-0.12472018525052981)) < 1e-8


def test_prefactor_driven_family_matches_tan_sec_reference():
    # m=1, omega=2, g0=0.5; phase constants c0=0.3, c1=1.2 fix the init
    pot = QuadraticPotential(g2=2.0, g0=0.5)
    init = (0.0, 0.309336249609623233, 1.25610192184570272, 0.0)
    sol = solve_prefactor_odes(pot, init, (0.0, 0.5), 1e-4)
    r_ref, dr_ref, f1_ref, f0_ref = riccati_tan_reference(
        sol.t, init, 0.0, 2.0, g0_const=0.5
    )
    assert np.max(np.abs(sol.R - r_ref)) < 1e-8
    assert np.max(np.abs(sol.dR - dr_ref)) < 1e-8
    assert np.max(np.abs(sol.f1 - f1_ref)) < 1e-8
    assert np.max(np.abs(sol.f0 - f0_ref)) < 1e-8
    # frozen endpoint values at t = 0.5
    assert abs(sol.dR[-1] - 3.60210244796797815) < 1e-8
    assert abs(sol.R[-1] - 0.636474217851555274) < 1e-8
    assert abs(sol.f1[-1] - 4.48600095249052941) < 1e-8
    assert abs(sol.f0[-1] - (-1.43539583140900777)) < 1e-8
    # constant coefficients and their callable twins are one coercion rule
    twin = QuadraticPotential(
        g2=lambda t: 2.0 + 0.0 * t, g1=lambda t: 0.0 * t, g0=lambda t: 0.5 + 0.0 * t
    )
    twin_sol = solve_prefactor_odes(twin, init, (0.0, 0.5), 1e-4)
    for name in ("t", "R", "dR", "f1", "f0"):
        assert np.array_equal(getattr(sol, name), getattr(twin_sol, name)), name
    assert sol.ode_residuals() == twin_sol.ode_residuals()
    x = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(pot.value(x, 0.3), twin.value(x, 0.3))


def test_prefactor_odes_compile_two_flows():
    # all-constant coefficients bind as floats; with any callable, every
    # coefficient is called, a constant one through a callable returning it
    assert len(PREFACTOR_FLOWS) == 2
    init = (0.0, 0.3, 0.2, 0.0)
    sol = solve_prefactor_odes(QuadraticPotential(g2=2.0, g1=0.3, g0=0.5), init, (0.0, 0.5), 1e-3)
    mixed = QuadraticPotential(g2=lambda t: 2.0 + 0.0 * t, g1=0.3, g0=0.5)
    mixed_sol = solve_prefactor_odes(mixed, init, (0.0, 0.5), 1e-3)
    for name in ("t", "R", "dR", "f1", "f0"):
        assert np.array_equal(getattr(sol, name), getattr(mixed_sol, name)), name


def test_prefactor_observed_order_is_four():
    pot = QuadraticPotential(g2=2.0, g0=0.5)
    init = (0.0, 0.309336249609623233, 1.25610192184570272, 0.0)
    steps = [0.02, 0.01, 0.005, 0.0025]
    errors = []
    for h in steps:
        sol = solve_prefactor_odes(pot, init, (0.0, 0.5), h)
        _, dr_ref, f1_ref, _ = riccati_tan_reference(sol.t, init, 0.0, 2.0, g0_const=0.5)
        errors.append(max(np.max(np.abs(sol.dR - dr_ref)), np.max(np.abs(sol.f1 - f1_ref))))
    orders = observed_orders(steps, errors)
    assert all(3.5 <= p <= 4.5 for p in orders)
    assert 12.0 <= errors[-2] / errors[-1] <= 20.0


def test_prefactor_blow_up_truncates_at_caustic_approach():
    # tan branch point of the driven family sits at t* = (pi/2 - 0.3)/2
    pot = QuadraticPotential(g2=2.0, g0=0.5)
    init = (0.0, 0.309336249609623233, 1.25610192184570272, 0.0)
    sol = solve_prefactor_odes(pot, init, (0.0, 0.7), 1e-4)
    t_star = (math.pi / 2.0 - 0.3) / 2.0
    assert sol.blow_up_time is not None
    assert abs(sol.blow_up_time - t_star) < 5e-3
    assert sol.t[-1] == sol.blow_up_time
    assert abs(sol.dR[-1]) > 1.0e6


def test_prefactor_merged_axis_is_uniform_and_holds_init():
    pot = QuadraticPotential(g2=0.5)
    t0 = math.pi / 2.0
    sol = solve_prefactor_odes(
        pot, (0.0, 0.0, 0.3, -0.2), (math.pi / 4.0, 3.0 * math.pi / 4.0), 1e-3, t0=t0
    )
    gaps = np.diff(sol.t)
    assert np.max(np.abs(gaps - 1e-3)) < 1e-9
    k = int(np.argmin(np.abs(sol.t - t0)))
    assert abs(sol.t[k] - t0) < 1e-12
    assert abs(sol.R[k]) < 1e-15 and abs(sol.f1[k] - 0.3) < 1e-15


def test_prefactor_rejects_bad_windows():
    pot = QuadraticPotential()
    with pytest.raises(ValueError, match="increasing"):
        solve_prefactor_odes(pot, (0, 0, 0, 0), (2.0, 1.0), 1e-3)
    with pytest.raises(ValueError, match="outside the window"):
        solve_prefactor_odes(pot, (0, 0, 0, 0), (1.0, 2.0), 1e-3, t0=2.5)


def test_ode_residuals_are_independent_substitution_checks():
    omega, m = 1.5, 2.0
    pot = QuadraticPotential(g2=0.5 * m * omega**2)
    init = (0.609509031608613704, -2.42454610782437064, 0.7, -0.1)
    coarse = solve_prefactor_odes(pot, init, (0.2, 1.2), 2e-3, mass=m).ode_residuals()
    fine = solve_prefactor_odes(pot, init, (0.2, 1.2), 1e-3, mass=m).ode_residuals()
    for key in ("amplitude", "linear", "constant", "dR_consistency"):
        assert fine[key] < 1e-3
        # stencil truncation, so halving the step shrinks residuals ~4x
        if coarse[key] > 1e-12:
            assert 2.5 < coarse[key] / fine[key] < 6.0


# ---------------------------------------------------------------------------
# Van Vleck identification
# ---------------------------------------------------------------------------


def test_van_vleck_free_particle():
    grid = make_grid(0.5, 3.0, n_x=21, n_t=25)
    factors = free_particle_factors(grid, mass=1.0)
    report = van_vleck_check(factors, grid, np.linspace(-1.0, 1.0, 9))
    assert report.deviation < 1e-8
    assert abs(report.constant - 1.0) < 1e-8  # exp(R)/sqrt(m/t) = 1/sqrt(m)
    heavy = van_vleck_check(
        free_particle_factors(grid, mass=2.5), grid, np.linspace(-1.0, 1.0, 9)
    )
    assert abs(heavy.constant - 1.0 / math.sqrt(2.5)) < 1e-8


def test_van_vleck_harmonic_away_from_caustics():
    grid = make_grid(0.1, 3.0, n_x=21, n_t=25)
    factors = harmonic_factors(grid, mass=1.0, omega=1.0)
    report = van_vleck_check(factors, grid, np.linspace(-1.0, 1.0, 9))
    assert report.deviation < 1e-6
    assert report.constant.real > 0 and abs(report.constant.imag) < 1e-10


def test_van_vleck_deviation_invariant_under_r_shift():
    grid = make_grid(0.5, 3.0, n_x=21, n_t=25)
    base = van_vleck_check(
        free_particle_factors(grid), grid, np.linspace(-1.0, 1.0, 9)
    )
    shifted = van_vleck_check(
        free_particle_factors(grid, r_const=0.7), grid, np.linspace(-1.0, 1.0, 9)
    )
    assert abs(shifted.deviation - base.deviation) < 1e-12
    assert abs(shifted.constant - math.exp(0.7) * base.constant) < 1e-10


def test_van_vleck_scaled_action_control_fails_correctly():
    grid = make_grid(0.5, 3.0, n_x=21, n_t=25)
    factors = free_particle_factors(grid)
    s2 = factors.two_point_action
    doubled = dataclasses.replace(
        factors,
        S=lambda x, t: 2.0 * factors.S(x, t),
        two_point_action=lambda x, xa, t: 2.0 * s2(x, xa, t),
    )
    x0s = np.linspace(-1.0, 1.0, 9)
    c_one = van_vleck_check(factors, grid, x0s).constant
    c_two = van_vleck_check(doubled, grid, x0s).constant
    # constant shifts by 1/sqrt(2); against the scale-1 fit that is a
    # relative deviation of sqrt(2) - 1, far outside any pass threshold
    assert abs(abs(c_one / c_two) - math.sqrt(2.0)) < 1e-10
    assert abs(abs(c_one / c_two) - 1.0 - 0.414213562373095049) < 1e-10
    assert abs(1.0 - abs(c_two / c_one) - 0.292893218813452476) < 1e-10
    assert abs(c_one / c_two) - 1.0 > 0.1


def test_van_vleck_reports_signature_breakdown():
    # sin(omega t) < 0 on (pi, 2pi): D_VV = m omega csc < 0, no caustic inside
    grid = make_grid(3.3, 5.9, n_x=15, n_t=15)
    factors = harmonic_factors(grid, mass=1.0, omega=1.0)
    with pytest.raises(ValueError, match="signature breakdown"):
        van_vleck_check(factors, grid, np.linspace(-1.0, 1.0, 7))


def test_van_vleck_needs_two_point_action():
    grid = make_grid(0.5, 3.0)
    bare = dataclasses.replace(
        free_particle_factors(grid), two_point_action=None
    )
    with pytest.raises(ValueError, match="two-point action"):
        van_vleck_check(bare, grid, np.linspace(-1.0, 1.0, 5))


# ---------------------------------------------------------------------------
# necessity probe
# ---------------------------------------------------------------------------


def test_necessity_probe_quadratic_potential_is_exact():
    grid = make_grid(0.1, 0.6, n_x=21, n_t=11, x_min=-1.0, x_max=1.0)
    report = quadratic_necessity_probe(lambda x, t: x**2 + 0.0 * t, grid)
    assert report.fit_residual < 1e-10
    assert report.residual_norm < 1e-8


def test_necessity_probe_free_potential_is_exact():
    grid = make_grid(0.1, 0.6, n_x=21, n_t=11, x_min=-1.0, x_max=1.0)
    report = quadratic_necessity_probe(lambda x, t: 0.0 * x * t, grid)
    assert report.residual_norm < 1e-8


def test_necessity_probe_quartic_residual_survives():
    # continuum best quadratic fit of x^4 on [-1,1] leaves max error 8/35
    grid = make_grid(0.1, 0.6, n_x=41, n_t=11, x_min=-1.0, x_max=1.0)
    report = quadratic_necessity_probe(lambda x, t: x**4 + 0.0 * t, grid)
    assert report.fit_residual > 0.15
    assert 0.15 < report.residual_norm < 0.40
