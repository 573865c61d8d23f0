"""Closed-form families, prefactor ODEs, Van Vleck, and the necessity probe.

Reference values in this file were frozen from 30-digit mpmath
evaluations of the closed forms; the tests compare solver output against
those numbers rather than recomputing them with package code.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from semiprop.core import SpacetimeGrid, observed_orders
from semiprop.quadratic import (
    QuadraticPotential,
    caustic_windows,
    free_particle_factors,
    free_particle_identity_residuals,
    harmonic_factors,
    harmonic_identity_residuals,
    quadratic_necessity_probe,
    riccati_tan_reference,
    solve_prefactor_odes,
    van_vleck_check,
)


def make_grid(t_min, t_max, n_x=31, n_t=41, x_min=-2.0, x_max=2.0, exclusions=()):
    return SpacetimeGrid(
        x_min=x_min,
        x_max=x_max,
        n_x=n_x,
        t_min=t_min,
        t_max=t_max,
        n_t=n_t,
        exclusions=exclusions,
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
    with pytest.raises(ValueError, match="t > 0"):
        free_particle_factors(make_grid(-0.5, 1.0))
    # hiding t <= 0 behind an exclusion makes the same span acceptable
    grid = make_grid(-0.5, 1.0, exclusions=((-0.6, 0.05),))
    factors = free_particle_factors(grid)
    assert factors.label == "free-particle"


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


def reference_uncovered_caustic(omega, grid):
    """The walk over every caustic that harmonic_factors used to make."""
    period = math.pi / omega
    n_lo = math.ceil((grid.t_min - 1e-12) / period)
    n_hi = math.floor((grid.t_max + 1e-12) / period)
    for n in range(n_lo, n_hi + 1):
        tc = n * period
        covered = any(lo < tc < hi for lo, hi in grid.exclusions)
        boundary = abs(tc - grid.t_min) < 1e-12 or abs(tc - grid.t_max) < 1e-12
        if not covered and not boundary:
            return "{:.6g}".format(tc)
    return None


def test_caustic_test_matches_the_per_caustic_walk():
    refused = 0
    for omega in (0.5, 1.0, 2.0, 3.7, 10.0, 25.0):
        for t_min, t_max in ((0.5, 4.0), (0.1, 2.0), (1.0, 7.0), (0.5, math.pi)):
            windows = caustic_windows(omega, t_min, t_max)
            for exclusions in (
                (), windows, windows[1:], windows[:-1], windows[::2],
                windows + ((0.5 * (t_min + t_max), t_max),),
            ):
                grid = make_grid(t_min, t_max, exclusions=exclusions)
                found = None
                try:
                    harmonic_factors(grid, omega=omega)
                except ValueError as exc:
                    match = re.search(r"caustic at t=(\S+) outside", str(exc))
                    found = match and match.group(1)
                assert found == reference_uncovered_caustic(omega, grid), (omega, exclusions)
                refused += found is not None
    assert refused > 50


def test_harmonic_refuses_uncovered_caustic():
    with pytest.raises(ValueError, match="caustic"):
        harmonic_factors(make_grid(0.5, 4.0), omega=1.0)  # t = pi uncovered
    windows = caustic_windows(1.0, 0.5, 4.0)
    assert any(lo < math.pi < hi for lo, hi in windows)
    factors = harmonic_factors(make_grid(0.5, 4.0, exclusions=windows), omega=1.0)
    assert factors.label == "harmonic"


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
