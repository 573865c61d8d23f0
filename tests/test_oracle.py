"""Crank-Nicolson evolution, residual substitution, kernel quadrature.

The three routes are independent implementations; the tests below play
them against each other and against analytic evolution laws.
"""

import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from semiprop import oracle
from semiprop.core import (
    ComplexField,
    SpacetimeGrid,
    SpatialGrid,
    assemble_propagator,
    observed_orders,
)
from semiprop.general_hj import (
    build_S_from_R,
    cos_log_family,
    cos_log_quadrature_inputs,
    exponential_family,
    recover_potential,
)
from semiprop.oracle import (
    MAX_CN_STEPS,
    _chirp_split,
    _quadrature_weights,
    as_potential,
    cn_evolve,
    free_gaussian_analytic,
    gaussian_state,
    kernel_propagate,
    l2_difference,
    schrodinger_residual,
)
from semiprop.quadratic import QuadraticPotential, free_particle_factors, harmonic_factors


def spacetime(n_x, n_t, x_max=4.0, t_min=0.5, t_max=2.0):
    return SpacetimeGrid(
        x_min=-x_max, x_max=x_max, n_x=n_x, t_min=t_min, t_max=t_max, n_t=n_t
    )


# ---------------------------------------------------------------------------
# Crank-Nicolson evolution
# ---------------------------------------------------------------------------


def test_gaussian_state_is_normalized():
    grid = SpatialGrid(-12.0, 12.0, 512)
    state = gaussian_state(grid, sigma0=1.0)
    assert abs(state.norm() - 1.0) < 1e-10


def test_cn_single_step_preserves_norm():
    grid = SpatialGrid(-12.0, 12.0, 512)
    state = gaussian_state(grid, sigma0=1.0)
    out = cn_evolve(state, 0.0, dt=1e-3, n_steps=1)
    assert abs(out.norm() - state.norm()) < 1e-10


def test_cn_free_gaussian_spreading_law():
    grid = SpatialGrid(-12.0, 12.0, 512)
    state = gaussian_state(grid, sigma0=1.0)
    out = cn_evolve(state, 0.0, dt=1e-3, n_steps=1000)
    target = math.sqrt(1.25)  # sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2) at t=1
    assert abs(out.density_width() - target) < 1e-3
    assert abs(out.t - 1.0) < 1e-10


# the packet tail reaches ~3e-6 at the wall when centered at x=-1; that is
# 1e-5 of L2 weight, irrelevant at the 1e-3 tolerance but above the warning bar
@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_cn_coherent_state_center_tracks_cosine():
    grid = SpatialGrid(-6.0, 6.0, 512)
    state = gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)
    pot = QuadraticPotential(g2=0.5)
    quarter = math.pi / 2.0
    n = 1571  # quarter period at dt ~ 1e-3
    for _ in range(4):
        state = cn_evolve(state, pot.value, dt=quarter / n, n_steps=n)
        assert abs(state.center() - math.cos(state.t)) < 1e-3
    assert abs(state.t - 2.0 * math.pi) < 1e-10


def test_cn_warns_on_boundary_amplitude():
    grid = SpatialGrid(-3.0, 3.0, 256)
    state = gaussian_state(grid, sigma0=0.8, k0=3.0)
    with pytest.warns(UserWarning, match="boundary amplitude"):
        cn_evolve(state, 0.0, dt=2e-3, n_steps=500)


def test_cn_validates_steps():
    grid = SpatialGrid(-3.0, 3.0, 64)
    state = gaussian_state(grid, sigma0=0.5)
    with pytest.raises(ValueError, match="dt must be positive"):
        cn_evolve(state, 0.0, dt=-1e-3, n_steps=3)
    with pytest.raises(ValueError, match="n_steps"):
        cn_evolve(state, 0.0, dt=1e-3, n_steps=0)
    with pytest.raises(ValueError, match="dt 1e-09 needs 1000001 Crank-Nicolson steps"):
        cn_evolve(state, 0.0, dt=1e-9, n_steps=MAX_CN_STEPS + 1)


def banded_reference(state, pot, dt, n_steps):
    """The per-step banded Crank-Nicolson solve cn_evolve replaced."""
    v_fn = as_potential(pot)
    hbar, mass, dx, x, n = state.hbar, state.mass, state.grid.dx, state.grid.x, state.grid.n_x
    kin_off = -(hbar**2) / (2.0 * mass * dx**2)
    kin_diag = hbar**2 / (mass * dx**2)
    lam = dt / (2.0 * hbar)
    psi, t = state.psi.copy(), state.t
    ab = np.zeros((3, n), dtype=complex)
    for _ in range(n_steps):
        v_mid = np.broadcast_to(np.asarray(v_fn(x, t + 0.5 * dt), dtype=complex), (n,))
        h_diag = kin_diag + v_mid
        h_psi = h_diag * psi
        h_psi[:-1] += kin_off * psi[1:]
        h_psi[1:] += kin_off * psi[:-1]
        ab[0, 1:] = 1j * lam * kin_off
        ab[1, :] = 1.0 + 1j * lam * h_diag
        ab[2, :-1] = 1j * lam * kin_off
        psi = solve_banded((1, 1), ab, psi - 1j * lam * h_psi)
        t += dt
    return psi, t


def oscillator_state(n_x):
    # the tail reaches the walls at ~1e-6 and trips the boundary warning;
    # these tests compare two solvers, not the physics
    grid = SpatialGrid(-6.0, 6.0, n_x)
    return gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)


def assert_matches_banded_reference(monkeypatch, pot, factorizations):
    """cn_evolve equals the banded reference bit for bit, calling zgttrf
    ``factorizations`` times for 40 steps."""
    calls = []
    zgttrf = oracle.zgttrf

    def counted(*args, **kwargs):
        calls.append(None)
        return zgttrf(*args, **kwargs)

    monkeypatch.setattr(oracle, "zgttrf", counted)
    for n_x in (64, 513, 2048):
        psi0 = oscillator_state(n_x)
        calls.clear()
        out = cn_evolve(psi0, pot, dt=1e-2, n_steps=40)
        assert len(calls) == factorizations, n_x
        psi, t = banded_reference(psi0, pot, dt=1e-2, n_steps=40)
        assert np.array_equal(out.psi, psi), n_x
        assert out.t == t


@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_cn_static_potential_is_factored_once_bit_for_bit(monkeypatch):
    for pot in (QuadraticPotential(g2=0.5), 0.25):
        assert_matches_banded_reference(monkeypatch, pot, factorizations=1)


@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_cn_callable_coefficient_takes_the_step_path(monkeypatch):
    # a bound method and a plain callable are opaque, so they count as time-dependent
    for pot in (
        QuadraticPotential(g2=0.5).value,
        QuadraticPotential(g2=lambda t: 0.5 + 0.1 * t, g1=lambda t: 0.2 * math.sin(t)),
        lambda x, t: 0.5 * x**2 + 0.3 * np.cos(t) * x,
    ):
        assert_matches_banded_reference(monkeypatch, pot, factorizations=40)


# ---------------------------------------------------------------------------
# LAPACK loading
# ---------------------------------------------------------------------------


def test_cli_import_leaves_scipy_linalg_unloaded():
    # a fresh interpreter, since this one imported scipy.linalg above
    unwanted = ["scipy", "scipy.linalg", "scipy.linalg._flapack", "numpy.f2py", "numpy.testing"]
    probe = "import sys, semiprop.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    path = [str(Path(oracle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", probe, *unwanted],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_flapack_loader_names_the_directory_it_searched(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        oracle._load_flapack(tmp_path)


def test_flapack_routines_are_the_ones_scipy_linalg_exports():
    from scipy.linalg import lapack

    registered = sys.modules["scipy.linalg._flapack"]
    module = oracle._load_flapack(oracle._scipy_linalg_dir())
    assert sys.modules["scipy.linalg._flapack"] is registered
    assert module.zgttrs is lapack.zgttrs
    assert oracle.zgttrf is lapack.zgttrf
    assert oracle.zgttrs is lapack.zgttrs


# ---------------------------------------------------------------------------
# Schrodinger residual
# ---------------------------------------------------------------------------


def levels_residual(factory, pot, levels):
    rels, hs = [], []
    for n_x, n_t in levels:
        grid = spacetime(n_x, n_t)
        factors = factory(grid)
        K = assemble_propagator(factors, grid)
        _, rel = schrodinger_residual(K, pot, hbar=factors.hbar, mass=factors.mass)
        rels.append(rel)
        hs.append(grid.dx)
    return hs, rels


def test_residual_free_family_second_order():
    hs, rels = levels_residual(
        lambda g: free_particle_factors(g, mass=1.0),
        0.0,
        [(129, 65), (257, 129), (513, 257)],
    )
    orders = observed_orders(hs, rels)
    assert all(1.7 <= p <= 2.3 for p in orders)
    assert rels[-1] < rels[0] / 8.0


def test_residual_oscillator_second_order():
    hs, rels = levels_residual(
        lambda g: harmonic_factors(g, mass=1.0, omega=1.0),
        QuadraticPotential(g2=0.5).value,
        [(129, 65), (257, 129), (513, 257)],
    )
    orders = observed_orders(hs, rels)
    assert all(1.7 <= p <= 2.3 for p in orders)


def test_residual_non_solution_stays_order_one():
    rels = []
    for n_x, n_t in [(129, 65), (257, 129)]:
        grid = spacetime(n_x, n_t)
        K = ComplexField.from_callable(grid, lambda x, t: np.exp(x + t))
        _, rel = schrodinger_residual(K, 0.0)
        rels.append(rel)
    # i dK/dt + (1/2) d2K/dx2 = (i + 1/2) K, so the floor is |0.5 + i|
    floor = math.sqrt(1.25)
    for rel in rels:
        assert abs(rel - floor) < 5e-3
    assert 0.8 < rels[0] / rels[1] < 1.25


def test_residual_refuses_fully_excluded_grid():
    grid = SpacetimeGrid(
        x_min=-1.0, x_max=1.0, n_x=16, t_min=0.0, t_max=1.0, n_t=16,
        exclusions=((-0.5, 1.5),),
    )
    K = ComplexField.from_callable(grid, lambda x, t: 1.0 + 0.0 * x * t)
    with pytest.raises(ValueError, match="every node is excluded"):
        schrodinger_residual(K, 0.0)


# ---------------------------------------------------------------------------
# kernel propagation vs Crank-Nicolson
# ---------------------------------------------------------------------------


def test_kernel_free_family_matches_cn():
    grid = SpatialGrid(-12.0, 12.0, 512)
    psi0 = gaussian_state(grid, sigma0=1.0)
    span = SpacetimeGrid(
        x_min=-12.0, x_max=12.0, n_x=512, t_min=0.05, t_max=1.5, n_t=8
    )
    factors = free_particle_factors(span, mass=1.0)
    via_kernel = kernel_propagate(psi0, factors, 1.0, reference_time=1e-2)
    via_cn = cn_evolve(psi0, 0.0, dt=1e-3, n_steps=1000)
    assert l2_difference(via_kernel, via_cn) < 1e-3


@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_kernel_oscillator_matches_cn_over_quarter_period():
    grid = SpatialGrid(-6.0, 6.0, 512)
    psi0 = gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)
    span = SpacetimeGrid(
        x_min=-6.0, x_max=6.0, n_x=512, t_min=0.05, t_max=2.0, n_t=8
    )
    factors = harmonic_factors(span, mass=1.0, omega=1.0)
    quarter = math.pi / 2.0
    via_kernel = kernel_propagate(psi0, factors, quarter, reference_time=1e-2)
    via_cn = cn_evolve(psi0, QuadraticPotential(g2=0.5).value, dt=quarter / 1571, n_steps=1571)
    assert l2_difference(via_kernel, via_cn) < 1e-3


def test_perturbed_kernel_fails_against_cn():
    grid = SpatialGrid(-12.0, 12.0, 512)
    psi0 = gaussian_state(grid, sigma0=1.0)
    span = SpacetimeGrid(
        x_min=-12.0, x_max=12.0, n_x=512, t_min=0.05, t_max=1.5, n_t=8
    )
    factors = free_particle_factors(span, mass=1.0)
    via_kernel = kernel_propagate(psi0, factors, 1.0, reference_time=1e-2)
    import dataclasses

    perturbed = dataclasses.replace(
        via_kernel, psi=via_kernel.psi * np.exp(0.01 * grid.x**2)
    )
    via_cn = cn_evolve(psi0, 0.0, dt=1e-3, n_steps=1000)
    assert l2_difference(perturbed, via_cn) >= 1e-2


def test_kernel_delta_limit_improves_as_state_narrows():
    grid = SpatialGrid(-2.0, 2.0, 801)
    span = SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=801, t_min=0.005, t_max=0.1, n_t=8
    )
    factors = free_particle_factors(span, mass=1.0)
    tau = 0.02
    errs = {}
    for sigma in (0.4, 0.2):
        psi0 = gaussian_state(grid, sigma0=sigma)
        out = kernel_propagate(psi0, factors, tau, reference_time=tau)
        exact = free_gaussian_analytic(grid, sigma, tau)
        errs[sigma] = l2_difference(out, exact)
    assert errs[0.2] < errs[0.4]
    assert errs[0.2] < 5e-4


def dense_reference(psi0, factors, t_target, reference_time):
    """The quadrature against the full n_x x n_x kernel, 256 rows at a time."""
    hbar, mass, x = psi0.hbar, psi0.mass, psi0.grid.x
    tau = t_target - psi0.t
    norm = cmath.sqrt(mass / (2j * np.pi * hbar * reference_time)) / cmath.exp(
        complex(np.asarray(factors.time_amplitude(reference_time)))
    )
    amp = cmath.exp(complex(np.asarray(factors.time_amplitude(tau))))
    f = _quadrature_weights(psi0.grid) * psi0.psi
    out = np.empty(x.size, dtype=complex)
    for start in range(0, x.size, 256):
        rows = slice(start, start + 256)
        s2 = np.asarray(factors.two_point_action(x[rows, None], x[None, :], tau), dtype=complex)
        out[rows] = np.exp(1j * s2 / hbar) @ f
    return norm * amp * out


def kernel_case(family, n_x):
    if family == "free":
        grid = SpatialGrid(-12.0, 12.0, n_x)
        psi0 = gaussian_state(grid, sigma0=1.0)
        span = SpacetimeGrid(x_min=-12.0, x_max=12.0, n_x=n_x, t_min=0.05, t_max=1.5, n_t=8)
        return psi0, free_particle_factors(span, mass=1.0)
    grid = SpatialGrid(-6.0, 6.0, n_x)
    psi0 = gaussian_state(grid, sigma0=1.0 / math.sqrt(2.0), x_center=1.0)
    span = SpacetimeGrid(x_min=-6.0, x_max=6.0, n_x=n_x, t_min=0.05, t_max=2.0, n_t=8)
    return psi0, harmonic_factors(span, mass=1.0, omega=1.0)


def relative_gap(psi, reference):
    return np.linalg.norm(psi - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("family", ["free", "harmonic"])
@pytest.mark.parametrize("n_x", [512, 513])
@pytest.mark.parametrize("tau", [math.pi / 2.0, 1.0, 0.3])
def test_chirp_kernel_matches_the_dense_quadrature(family, n_x, tau):
    psi0, factors = kernel_case(family, n_x)
    assert _chirp_split(factors.two_point_action, psi0.grid.x, tau) is not None
    out = kernel_propagate(psi0, factors, tau, reference_time=1e-2)
    reference = dense_reference(psi0, factors, tau, 1e-2)
    assert relative_gap(out.psi, reference) < 1e-12


def test_non_quadratic_action_is_refused():
    psi0, factors = kernel_case("free", 513)
    quadratic = factors.two_point_action
    cubic = dataclasses.replace(
        factors,
        two_point_action=lambda x, xa, t: quadratic(x, xa, t) + 1e-3 * x**3 * xa,
    )
    assert _chirp_split(cubic.two_point_action, psi0.grid.x, 1.0) is None
    with pytest.raises(ValueError, match=r"not quadratic in \(x, x0\)"):
        kernel_propagate(psi0, cubic, 1.0, reference_time=1e-2)


def test_kernel_refuses_misconfiguration():
    grid = SpatialGrid(-4.0, 4.0, 128)
    psi0 = gaussian_state(grid, sigma0=1.0)
    span = SpacetimeGrid(
        x_min=-4.0, x_max=4.0, n_x=128, t_min=0.05, t_max=1.5, n_t=8
    )
    factors = free_particle_factors(span, mass=1.0)
    with pytest.raises(ValueError, match="unnormalized kernel"):
        kernel_propagate(psi0, factors, 1.0)
    with pytest.raises(ValueError, match="reference_time"):
        kernel_propagate(psi0, factors, 1.0, reference_time=-0.1)
    with pytest.raises(ValueError, match="not ahead"):
        kernel_propagate(psi0, factors, -1.0, reference_time=1e-2)
    heavy = gaussian_state(grid, sigma0=1.0, mass=2.0)
    with pytest.raises(ValueError, match="disagree"):
        kernel_propagate(heavy, factors, 1.0, reference_time=1e-2)


# ---------------------------------------------------------------------------
# consistency loop: build S, recover V, check the Schrodinger residual
# ---------------------------------------------------------------------------


def consistency_rel(family_builder, n_x, n_t):
    grid = SpacetimeGrid(
        x_min=-2.0, x_max=2.0, n_x=n_x, t_min=0.0, t_max=1.0, n_t=n_t
    )
    ansatz, f1_fn, f0_quad = family_builder(grid)
    s_field = build_S_from_R(dataclasses.replace(ansatz, f0=f0_quad, f1=f1_fn), grid)
    v_field = recover_potential(s_field, mass=ansatz.mass)
    r_field = ComplexField.from_callable(grid, ansatz.R)
    k_values = np.exp(r_field.values + 1j * s_field.values / ansatz.hbar)
    K = ComplexField(grid=grid, values=k_values, mask=s_field.mask)
    _, rel = schrodinger_residual(K, v_field, hbar=ansatz.hbar, mass=ansatz.mass)
    return rel


def cos_log_builder(grid):
    ansatz = cos_log_family(c2=1.0, c3=0.0, c4=0.0, hbar=1.0, mass=1.0)
    f1_fn, f0_quad = cos_log_quadrature_inputs(
        c2=1.0, f1_const=0.8, f0_const=0.3, x_min=grid.x_min
    )
    return ansatz, f1_fn, f0_quad


def exponential_builder(grid):
    ansatz, s_fn, _ = exponential_family(1.0, 1.0, 1.0, 1.0)
    rate16 = 1j / 16.0
    f1_fn = lambda t: 1j * math.sqrt(2.0) * np.exp(rate16 * np.asarray(t))
    f0_quad = complex(np.asarray(s_fn(grid.x_min, 0.0)))
    return ansatz, f1_fn, f0_quad


@pytest.mark.parametrize("builder", [cos_log_builder, exponential_builder])
def test_consistency_loop_residual_converges(builder):
    rel_coarse = consistency_rel(builder, 65, 33)
    rel_fine = consistency_rel(builder, 129, 65)
    assert rel_fine < 0.01
    assert rel_fine < rel_coarse / 2.5
