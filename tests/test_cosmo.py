"""Constraint dynamics, the split-action system, and their hand oracles.

Polynomial hand cases are exact under the second-order stencils, so most
expected fields are checked to round-off rather than a stencil tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from semiprop.core import fit_loglog_slope
from semiprop.cosmo import (
    ActionGrids,
    ClassicalState,
    ComplexActionFields,
    CosmoParams,
    ScalarPotential,
    Trajectory,
    _constraint_terms,
    _State,
    closure_check,
    complex_action_residuals,
    evolve_classical,
    friedmann_residual,
    klein_gordon_residual,
    matched_a_dot,
    momenta,
    quadratic_potential,
    quantum_transport_residual,
    relative_constraint,
    scale_factor_equation_residual,
)


# test-side references: the constraint at a phase-space point and the
# entropy-scaling fit, built from the library's terms and helpers


@dataclass(frozen=True)
class CosmoState(_State):
    """Phase-space point (a, p_a, phi, p_phi)."""

    a: float
    p_a: float
    phi: float
    p_phi: float


def momentum_state(state: ClassicalState) -> CosmoState:
    """The phase-space point of ``state`` under ``momenta``."""
    p_a, p_phi = momenta(state.a, state.a_dot, state.phi_dot)
    return CosmoState(a=state.a, p_a=p_a, phi=state.phi, p_phi=p_phi)


def hamiltonian_constraint(state: CosmoState, params: CosmoParams) -> float:
    """-(2 pi/(3a)) p_a^2 - (3k/(8 pi)) a + (Lambda/(8 pi)) a^3
    + p_phi^2/(2 a^3) + a^3 V(phi); a CosmoState holds a > 0."""
    terms = _constraint_terms(state.a, state.p_a, state.phi, state.p_phi, params)
    return float(sum(terms))


@dataclass(frozen=True)
class EntropyScalingReport:
    """Fitted log-log exponent of S_g against a, next to the quadratic
    expectation.  Diagnostic only; nothing is asserted."""

    exponent: float
    deviation_from_square: float
    used_absolute: bool
    n_nonpositive: int


def entropy_scaling_probe(a_samples, s_g_samples) -> EntropyScalingReport:
    """Log-log fit of S_g(a) over at least one decade in a.

    Non-positive S_g samples switch the fit to |S_g| and are counted in
    the report; an exact zero leaves the logarithm undefined and refuses.
    """
    a = np.asarray(a_samples, dtype=float)
    s = np.asarray(s_g_samples, dtype=float)
    if a.ndim != 1 or a.shape != s.shape or a.size < 3:
        raise ValueError("need matching 1-d sample arrays, at least 3 points")
    if not np.all(a > 0) or not np.all(np.diff(a) > 0):
        raise ValueError("a samples must be positive and increasing")
    if a[-1] / a[0] < 10.0:
        raise ValueError(
            f"need at least one decade in a, got span factor {a[-1] / a[0]:.3g}"
        )
    if np.any(s == 0.0):
        raise ValueError("S_g vanishes at a sample; log-log fit undefined")
    n_nonpos = int(np.count_nonzero(s < 0.0))
    slope = fit_loglog_slope(a, np.abs(s))
    return EntropyScalingReport(
        exponent=slope,
        deviation_from_square=slope - 2.0,
        used_absolute=n_nonpos > 0,
        n_nonpositive=n_nonpos,
    )


VACUUM = CosmoParams()
DE_SITTER = CosmoParams(lam=3.0)


def small_grids():
    return ActionGrids(
        a=np.linspace(0.5, 2.0, 7),
        phi=np.linspace(-1.0, 1.0, 5),
        t=np.linspace(0.0, 1.0, 6),
    )


# ---------------------------------------------------------------------------
# constraint evaluation
# ---------------------------------------------------------------------------


def test_constraint_vanishes_for_trivial_data():
    state = CosmoState(a=1.7, p_a=0.0, phi=0.0, p_phi=0.0)
    assert hamiltonian_constraint(state, VACUUM) == 0.0


def test_constraint_vanishes_on_de_sitter_slice():
    lam = 2.4
    a = 1.3
    p_a = math.sqrt(3.0 * lam) / (4.0 * math.pi) * a**2
    state = CosmoState(a=a, p_a=p_a, phi=0.0, p_phi=0.0)
    assert abs(hamiltonian_constraint(state, CosmoParams(lam=lam))) < 1e-13


def test_constraint_curvature_value():
    state = CosmoState(a=1.0, p_a=0.0, phi=0.0, p_phi=0.0)
    val = hamiltonian_constraint(state, CosmoParams(k=1))
    assert abs(val + 0.1193662073189215) < 1e-15  # -3/(8 pi)


def test_momentum_map_values_and_consistency():
    state = ClassicalState(a=1.2, a_dot=0.8, phi=0.3, phi_dot=-0.4)
    mom = momentum_state(state)
    assert abs(mom.p_a + 0.2291831180523293) < 1e-15
    assert mom.p_phi == pytest.approx(-0.6912, abs=1e-15)

    # matched initial data must sit on the constraint surface in both forms
    params = CosmoParams(k=1, lam=1.2, potential=quadratic_potential(0.4))
    a_dot = matched_a_dot(1.3, 0.2, 0.5, params)
    matched = ClassicalState(a=1.3, a_dot=a_dot, phi=0.2, phi_dot=0.5)
    assert abs(hamiltonian_constraint(momentum_state(matched), params)) < 1e-12


def test_state_refuses_nonpositive_scale_factor():
    with pytest.raises(ValueError, match="positive"):
        CosmoState(a=0.0, p_a=0.0, phi=0.0, p_phi=0.0)
    with pytest.raises(ValueError, match="positive"):
        ClassicalState(a=-1.0, a_dot=0.0, phi=0.0, phi_dot=0.0)


def test_params_validation():
    with pytest.raises(ValueError, match="curvature"):
        CosmoParams(k=2)
    with pytest.raises(ValueError, match="potential must be a ScalarPotential"):
        CosmoParams(potential=lambda phi: 0.0 * phi)


@pytest.mark.parametrize("m_squared", [math.inf, -math.inf, math.nan])
def test_potential_refuses_a_non_finite_mass(m_squared):
    with pytest.raises(ValueError, match="m_squared must be finite"):
        ScalarPotential(m_squared=m_squared)


@pytest.mark.parametrize("phi_dot", [0.1, 20.0, 1e3])
def test_matched_a_dot_on_the_stiff_path_keeps_its_closed_form(phi_dot):
    # the rate `cosmo stiff` starts from: k = 0, Lambda = 0, V = 0, a = 1
    rhs = (8.0 * math.pi / 3.0) * (0.5 * phi_dot**2 + 0.0) + 0.0 / 3.0 - 0 / 1.0**2
    assert matched_a_dot(1.0, 0.0, phi_dot, VACUUM) == 1.0 * 1.0 * math.sqrt(rhs)


def test_matched_a_dot_refuses_imaginary_rate():
    with pytest.raises(ValueError, match="no real expansion rate"):
        matched_a_dot(10.0, 0.0, 0.0, CosmoParams(k=1))


def test_matched_a_dot_refuses_an_infinite_right_side():
    # V(1e200) of a massive potential is inf, and so is the rate it would give
    massive = CosmoParams(potential=quadratic_potential(0.5))
    with pytest.raises(ValueError, match="Friedmann right side is inf"):
        matched_a_dot(1.0, 1e200, 2.0, massive)


def test_a_potential_past_the_float_range_is_refused_not_integrated():
    # phi^2 overflows past |phi| = 1.3e154; the massless V = ((0 / 2) phi) phi
    # still reads +0.0, so that state integrates like any other
    assert ScalarPotential().v(1e200) == 0.0 and ScalarPotential().v(-1e200) == 0.0
    a_dot = matched_a_dot(1.0, 1e200, 2.0, VACUUM)
    state = ClassicalState(a=1.0, a_dot=a_dot, phi=1e200, phi_dot=2.0)
    traj = evolve_classical(state, VACUUM, (0.0, 1.0), 1e-3)
    assert len(traj.t) == 1001 and traj.collapse_time is None
    assert np.max(np.abs(friedmann_residual(traj, VACUUM))) < 1e-8
    # a massive V is infinite there, and its Friedmann residual is refused
    massive = CosmoParams(potential=quadratic_potential(0.5))
    with pytest.raises(ValueError, match="violates the Friedmann constraint: residual -inf"):
        evolve_classical(state, massive, (0.0, 1.0), 1e-3)


# ---------------------------------------------------------------------------
# classical evolution
# ---------------------------------------------------------------------------


def test_de_sitter_growth_and_constraint_preservation():
    state = ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0)
    traj = evolve_classical(state, DE_SITTER, (0.0, 1.0), 1e-3)
    assert abs(traj.a[-1] - math.e) < 1e-6
    assert abs(traj.a[-1] - math.e) < 1e-9  # RK4 is far inside the contract
    assert np.max(np.abs(friedmann_residual(traj, DE_SITTER))) < 1e-8
    assert np.max(relative_constraint(traj, DE_SITTER)) < 1e-8
    assert traj.collapse_time is None


def test_constraint_rel_matches_the_stacked_terms():
    # reference: the five constraint terms stacked, then summed and maxed
    # along the stack; relative_constraint must equal it bit for bit
    params = CosmoParams(k=-1, lam=3.0, potential=quadratic_potential(0.5))
    phi0, phi_dot0 = 0.3, 0.4
    a_dot0 = matched_a_dot(1.0, phi0, phi_dot0, params)
    state = ClassicalState(a=1.0, a_dot=a_dot0, phi=phi0, phi_dot=phi_dot0)
    traj = evolve_classical(state, params, (0.0, 1.0), 1e-2)
    a, a_dot, phi, phi_dot = traj.a, traj.a_dot, traj.phi, traj.phi_dot
    p_a = -(3.0 / (4.0 * math.pi)) * a * a_dot
    p_phi = a**3 * phi_dot
    terms = np.stack(
        [
            -(2.0 * math.pi / (3.0 * a)) * p_a**2,
            -(3.0 * params.k / (8.0 * math.pi)) * a,
            (params.lam / (8.0 * math.pi)) * a**3,
            p_phi**2 / (2.0 * a**3),
            a**3 * params.potential.v(phi),
        ]
    )
    expected = np.abs(terms.sum(axis=0)) / np.max(np.abs(terms), axis=0)
    assert np.array_equal(relative_constraint(traj, params), expected)


def test_de_sitter_rk4_order():
    state = ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0)
    errs = []
    for step in (0.05, 0.025):
        traj = evolve_classical(state, DE_SITTER, (0.0, 1.0), step)
        errs.append(abs(traj.a[-1] - math.e))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_stiff_fluid_scaling():
    phi_dot0 = 20.0
    a_dot0 = matched_a_dot(1.0, 0.0, phi_dot0, VACUUM)
    state = ClassicalState(a=1.0, a_dot=a_dot0, phi=0.0, phi_dot=phi_dot0)
    traj = evolve_classical(state, VACUUM, (0.0, 35.0), 1e-3)

    sel = traj.t >= 3.5
    slope = np.polyfit(np.log(traj.t[sel]), np.log(traj.a[sel]), 1)[0]
    assert abs(slope - 1.0 / 3.0) < 1e-3

    # p_phi = a^3 phidot is a constant of motion up to the transient truncation
    p_phi = traj.a**3 * traj.phi_dot
    assert np.max(np.abs(p_phi - p_phi[0])) < 1e-5 * abs(p_phi[0])

    # independent reduction: d(a^3)/dt = 3 sqrt(4 pi / 3) p_phi, so a^3 is linear
    rate = 3.0 * math.sqrt(4.0 * math.pi / 3.0) * p_phi[0]
    cubed = 1.0 + rate * traj.t
    assert np.max(np.abs(traj.a**3 - cubed) / cubed) < 1e-2

    # the matter scale dies as a^-3, so the relative constraint degrades on a
    # long under-resolved window, past 1e-8
    assert np.max(relative_constraint(traj, VACUUM)) > 1e-8


def test_static_vacuum_stays_put():
    state = ClassicalState(a=1.4, a_dot=0.0, phi=0.6, phi_dot=0.0)
    traj = evolve_classical(state, VACUUM, (0.0, 2.0), 1e-2)
    assert np.all(traj.a == 1.4)
    assert np.all(traj.phi == 0.6)
    assert np.all(friedmann_residual(traj, VACUUM) == 0.0)
    assert np.max(relative_constraint(traj, VACUUM)) <= 1e-8


def test_contracting_stiff_fluid_collapses():
    phi_dot0 = 10.0
    a_dot0 = matched_a_dot(1.0, 0.0, phi_dot0, VACUUM, expanding=False)
    state = ClassicalState(a=1.0, a_dot=a_dot0, phi=0.0, phi_dot=phi_dot0)
    traj = evolve_classical(state, VACUUM, (0.0, 0.02), 1e-5)
    # exact singularity of a^3 = 1 - 3 sqrt(4 pi/3) * 10 * t
    t_star = 0.016286750396763996
    assert traj.collapse_time is not None
    assert abs(traj.collapse_time - t_star) < 1e-4
    assert np.all(traj.a > 0)
    assert traj.t[-1] < traj.collapse_time
    # the final steps under-resolve the crunch
    assert np.max(relative_constraint(traj, VACUUM)) > 1e-8


def test_evolve_refuses_off_constraint_data():
    state = ClassicalState(a=1.0, a_dot=1.001, phi=0.0, phi_dot=0.0)
    with pytest.raises(ValueError, match="Friedmann"):
        evolve_classical(state, DE_SITTER, (0.0, 1.0), 1e-3)


def test_evolve_window_validation():
    state = ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0)
    # the state holds at the window start, wherever that is
    traj = evolve_classical(state, DE_SITTER, (0.5, 1.0), 1e-3)
    assert traj.t[0] == 0.5
    assert traj.a[0] == 1.0
    with pytest.raises(ValueError, match="needs 0.001 steps to cover 1e-06, which round to none"):
        evolve_classical(state, DE_SITTER, (0.0, 1e-6), 1e-3)
    with pytest.raises(ValueError, match="increasing"):
        evolve_classical(state, DE_SITTER, (1.0, 0.0), 1e-3)


# ---------------------------------------------------------------------------
# residual series on trajectories
# ---------------------------------------------------------------------------


def test_friedmann_residual_nonsolution():
    ts = np.linspace(0.0, 2.0, 41)
    traj = Trajectory(
        t=ts, a=1.0 + ts, a_dot=np.ones_like(ts),
        phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts),
    )
    res = friedmann_residual(traj, VACUUM)
    assert np.max(np.abs(res - 1.0 / (1.0 + ts) ** 2)) < 1e-12


def test_friedmann_residual_static_vacuum():
    ts = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(
        t=ts, a=np.full_like(ts, 2.0), a_dot=np.zeros_like(ts),
        phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts),
    )
    assert np.all(friedmann_residual(traj, VACUUM) == 0.0)


def test_klein_gordon_residual_is_second_order_in_step():
    params = CosmoParams(lam=0.5, potential=quadratic_potential(1.0))
    a_dot0 = matched_a_dot(1.0, 0.3, 0.2, params)
    state = ClassicalState(a=1.0, a_dot=a_dot0, phi=0.3, phi_dot=0.2)
    maxima = []
    for step in (2e-3, 1e-3):
        traj = evolve_classical(state, params, (0.0, 1.0), step)
        maxima.append(float(np.max(np.abs(klein_gordon_residual(traj, params)))))
        assert np.max(relative_constraint(traj, params)) < 1e-8
    assert 3.2 < maxima[0] / maxima[1] < 4.8


def test_scale_factor_equation_on_de_sitter():
    # the one-sided stencil rows at the window ends carry 2a * h^2/3 * e^t,
    # which only clears 1e-6 below step 5e-4
    state = ClassicalState(a=1.0, a_dot=1.0, phi=0.0, phi_dot=0.0)
    traj = evolve_classical(state, DE_SITTER, (0.0, 1.0), 2.5e-4)
    res = scale_factor_equation_residual(traj, 0.0, DE_SITTER)
    assert np.max(np.abs(res)) < 1e-6


def test_scale_factor_equation_hand_cases():
    ts = np.linspace(0.0, 1.0, 21)
    linear = Trajectory(
        t=ts, a=1.0 + ts, a_dot=np.ones_like(ts),
        phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts),
    )
    res = scale_factor_equation_residual(linear, 0.0, VACUUM)
    assert np.max(np.abs(res - 1.0)) < 1e-12

    static = Trajectory(
        t=ts, a=np.ones_like(ts), a_dot=np.zeros_like(ts),
        phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts),
    )
    assert np.all(scale_factor_equation_residual(static, 0.0, VACUUM) == 0.0)


# ---------------------------------------------------------------------------
# split-action residuals
# ---------------------------------------------------------------------------


def test_split_action_trivial_fields_vanish():
    fields = ComplexActionFields(
        s_a=lambda a, t: 0.0 * a,
        s_phi=lambda p, t: 0.0 * p,
        s_g=lambda a, t: 2.3 + 0.0 * a,
    )
    res_a, res_b = complex_action_residuals(fields, VACUUM, small_grids())
    # edge stencils leave eps-level dust on constant fields
    assert np.max(np.abs(res_a)) < 1e-13
    assert np.max(np.abs(res_b)) < 1e-13


def test_split_action_hand_case_b():
    grids = small_grids()
    fields = ComplexActionFields(
        s_a=lambda a, t: a + 0.0 * t,
        s_phi=lambda p, t: 0.0 * p,
        s_g=lambda a, t: a * t,
    )
    res_a, res_b = complex_action_residuals(fields, VACUUM, grids)
    expect_b = grids.a[:, None] + 16.0 * grids.t[None, :]
    assert np.max(np.abs(res_b - expect_b)) < 1e-12
    # for the same fields residual A reduces to (dS_a/da)^2 - (dS_g/da)^2
    expect_a = 1.0 - grids.t[None, None, :] ** 2
    assert np.max(np.abs(res_a - expect_a)) < 1e-12


def test_split_action_b_without_a_dependence():
    grids = small_grids()
    fields = ComplexActionFields(
        s_a=lambda a, t: np.sin(a) + 0.0 * t,
        s_phi=lambda p, t: 0.0 * p,
        s_g=lambda a, t: t**2 + 0.0 * a,
    )
    _, res_b = complex_action_residuals(fields, VACUUM, grids)
    assert np.max(np.abs(res_b - 2.0 * grids.t[None, :])) < 1e-12


def test_split_action_hand_case_a_with_curvature():
    grids = small_grids()
    fields = ComplexActionFields(
        s_a=lambda a, t: a**2 + 0.0 * t,
        s_phi=lambda p, t: p**2 + 0.0 * t,
        s_g=lambda a, t: 0.0 * a,
    )
    res_a, _ = complex_action_residuals(fields, CosmoParams(k=1), grids)
    a = grids.a[:, None, None]
    phi = grids.phi[None, :, None]
    expect = phi**2 / (4.0 * math.pi * a**3) + 4.0 * a**2 - 1.0
    assert np.max(np.abs(res_a - expect)) < 1e-12


def test_split_action_field_validation():
    grids = small_grids()
    bad_vals = ComplexActionFields(
        s_a=lambda a, t: 0.0 * a,
        s_phi=lambda p, t: 0.0 * p,
        s_g=lambda a, t: np.where((a == grids.a[2]) & (t == grids.t[3]), np.nan, 0.0),
    )
    with pytest.raises(ValueError, match=r"non-finite S_g at node \(i=2, j=3\), a=1, t=0\.6$"):
        complex_action_residuals(bad_vals, VACUUM, grids)


def test_matter_sector_blind_to_gravitational_fields():
    grids = small_grids()
    zero_phi = lambda p, t: 0.0 * p
    one = ComplexActionFields(
        s_a=lambda a, t: a**2 + 0.0 * t, s_phi=zero_phi, s_g=lambda a, t: a * t
    )
    two = ComplexActionFields(
        s_a=lambda a, t: np.sin(a) + 0.0 * t, s_phi=zero_phi, s_g=lambda a, t: a + t
    )
    # with no matter action the a-only terms broadcast along phi, so the
    # finite difference in phi is bitwise zero for either gravity choice
    for fields in (one, two):
        res, _ = complex_action_residuals(fields, VACUUM, grids)
        assert np.all(np.diff(res, axis=1) == 0.0)

    # with matter switched on, swapping the a-only fields must not move the
    # phi-derivative structure of residual A
    s_phi = lambda p, t: p**3 * t
    import dataclasses

    res_one, _ = complex_action_residuals(
        dataclasses.replace(one, s_phi=s_phi), VACUUM, grids
    )
    res_two, _ = complex_action_residuals(
        dataclasses.replace(two, s_phi=s_phi), VACUUM, grids
    )
    gap = np.diff(res_one, axis=1) - np.diff(res_two, axis=1)
    assert np.max(np.abs(gap)) < 1e-12


# ---------------------------------------------------------------------------
# closure residual
# ---------------------------------------------------------------------------


def test_closure_static_fields_vanish():
    fields = ComplexActionFields(
        s_a=lambda a, t: a**3 + 0.0 * t,
        s_phi=lambda p, t: np.cos(p) + 0.0 * t,
        s_g=lambda a, t: 0.0 * a,
    )
    assert np.max(np.abs(closure_check(fields, small_grids()))) < 1e-13


def test_closure_linear_s_g():
    fields = ComplexActionFields(
        s_a=lambda a, t: 0.0 * a,
        s_phi=lambda p, t: 0.0 * p,
        s_g=lambda a, t: 2.0 * a + 0.0 * t,
    )
    res = closure_check(fields, small_grids())
    assert np.max(np.abs(res + 0.5)) < 1e-12


def test_closure_hand_case():
    grids = small_grids()
    fields = ComplexActionFields(
        s_a=lambda a, t: 0.37 * t + 0.0 * a,
        s_phi=lambda p, t: 0.0 * p,
        s_g=lambda a, t: a**2 / 2.0 + 0.0 * t,
    )
    res = closure_check(fields, grids)
    expect = 1.0 - grids.a[:, None, None] / 8.0 - 0.37
    assert np.max(np.abs(res - expect)) < 1e-12


def test_grids_validation():
    with pytest.raises(ValueError, match="positive"):
        ActionGrids(
            a=np.linspace(-1.0, 1.0, 5),
            phi=np.linspace(0.0, 1.0, 5),
            t=np.linspace(0.0, 1.0, 5),
        )
    with pytest.raises(ValueError, match="increasing"):
        ActionGrids(
            a=np.linspace(1.0, 2.0, 5),
            phi=np.linspace(0.0, 1.0, 5),
            t=np.linspace(1.0, 0.0, 5),
        )
    with pytest.raises(ValueError, match="at least 4"):
        ActionGrids(
            a=np.linspace(1.0, 2.0, 3),
            phi=np.linspace(0.0, 1.0, 5),
            t=np.linspace(0.0, 1.0, 5),
        )
    # the stencils take one step per axis
    with pytest.raises(ValueError, match="a axis must be increasing in uniform steps"):
        ActionGrids(
            a=np.geomspace(1.0, 2.0, 5),
            phi=np.linspace(0.0, 1.0, 5),
            t=np.linspace(0.0, 1.0, 5),
        )
    ts = np.geomspace(1.0, 2.0, 21)
    uneven = Trajectory(
        t=ts, a=ts, a_dot=np.ones_like(ts), phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts)
    )
    with pytest.raises(ValueError, match="t axis must be increasing in uniform steps"):
        klein_gordon_residual(uneven, VACUUM)
    with pytest.raises(ValueError, match="t axis must be increasing in uniform steps"):
        scale_factor_equation_residual(uneven, 0.0, VACUUM)


# ---------------------------------------------------------------------------
# entropy scaling diagnostic
# ---------------------------------------------------------------------------


def test_entropy_probe_exact_square():
    a = np.logspace(0.0, 1.0, 30)
    report = entropy_scaling_probe(a, a**2)
    assert abs(report.exponent - 2.0) < 1e-6
    assert not report.used_absolute
    assert report.n_nonpositive == 0


def test_entropy_probe_dominant_term():
    a = np.linspace(10.0, 100.0, 50)
    report = entropy_scaling_probe(a, a**2 + 0.01 * a)
    assert 1.99 <= report.exponent <= 2.01


def test_entropy_probe_reports_non_square_scaling():
    a = np.logspace(1.0, 2.0, 40)
    report = entropy_scaling_probe(a, np.log(a))
    assert abs(report.deviation_from_square) > 0.5


def test_entropy_probe_negative_samples_use_abs():
    a = np.logspace(0.0, 1.0, 30)
    report = entropy_scaling_probe(a, -(a**2))
    assert abs(report.exponent - 2.0) < 1e-6
    assert report.used_absolute
    assert report.n_nonpositive == a.size


def test_entropy_probe_refusals():
    a = np.logspace(0.0, 1.0, 30)
    with pytest.raises(ValueError, match="decade"):
        entropy_scaling_probe(np.linspace(1.0, 5.0, 30), np.linspace(1.0, 5.0, 30) ** 2)
    s = a**2
    s[3] = 0.0
    with pytest.raises(ValueError, match="vanishes"):
        entropy_scaling_probe(a, s)


# ---------------------------------------------------------------------------
# amplitude transport residual
# ---------------------------------------------------------------------------


def test_transport_hand_case():
    grids = small_grids()
    res = quantum_transport_residual(
        lambda a, p, t: a * t,
        lambda a, p, t: a**2 + 0.0 * p,
        grids,
        VACUUM,
    )
    a = grids.a[:, None, None]
    t = grids.t[None, None, :]
    expect = a + (8.0 * math.pi / 3.0) * t + 4.0 * math.pi / (3.0 * a)
    assert np.max(np.abs(res - expect)) < 1e-12


def test_transport_static_amplitude_with_flat_action():
    grids = small_grids()
    res = quantum_transport_residual(
        lambda a, p, t: np.sin(a) * np.cos(p) + 0.0 * t,
        lambda a, p, t: 0.0 * a,
        grids,
        VACUUM,
    )
    assert np.max(np.abs(res)) < 1e-14
