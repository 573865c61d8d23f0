"""Crank-Nicolson evolution, residual substitution, kernel quadrature.

The three routes are independent implementations; the tests below play
them against each other and against analytic evolution laws.
"""

import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
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
    finite_difference,
    observed_orders,
)
from semiprop.general_hj import (
    build_S_from_R,
    cos_log_family,
    exponential_family,
)
from semiprop.oracle import (
    MAX_CN_STEPS,
    _chirp_split,
    _quadrature_weights,
    as_potential,
    WaveState,
    cn_evolve,
    gaussian_state,
    kernel_propagate,
    l2_difference,
    schrodinger_residual,
)
from semiprop.quadratic import QuadraticPotential, free_particle_factors, harmonic_factors

from general_hj_reference import cos_log_quadrature_inputs, recover_potential


# an independent reference: the exact free evolution of a Gaussian


def free_gaussian_analytic(
    grid: SpatialGrid,
    sigma0: float,
    t: float,
    x_center: float = 0.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> WaveState:
    """Exact V = 0 evolution of the centered Gaussian:

        psi(x, t) = (2 pi s^2)^(-1/4) a^(-1/2) exp(-(x-xc)^2/(4 s^2 a)),
        a = 1 + i hbar t / (2 m s^2).
    """
    alpha = 1.0 + 1j * hbar * t / (2.0 * mass * sigma0**2)
    x = grid.x
    psi = (
        (2.0 * np.pi * sigma0**2) ** (-0.25)
        * alpha ** (-0.5)
        * np.exp(-((x - x_center) ** 2) / (4.0 * sigma0**2 * alpha))
    )
    return WaveState(grid=grid, psi=psi, t=t, hbar=hbar, mass=mass)


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


def banded_reference(state, pot, dt, n_steps, cayley=True):
    """Crank-Nicolson by one banded solve per step.

    With ``cayley`` each step is 2 (1 + i lam H)^-1 psi - psi, the form
    cn_evolve takes; without it, the explicit right-hand side
    (1 - i lam H) psi is assembled and solved, as cn_evolve once did.
    """
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
        ab[0, 1:] = 1j * lam * kin_off
        ab[1, :] = 1.0 + 1j * lam * h_diag
        ab[2, :-1] = 1j * lam * kin_off
        if cayley:
            psi = solve_banded((1, 1), ab, 2.0 * psi) - psi
        else:
            h_psi = h_diag * psi
            h_psi[:-1] += kin_off * psi[1:]
            h_psi[1:] += kin_off * psi[:-1]
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


@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_cn_cayley_step_matches_the_explicit_right_hand_side():
    # the Cayley form only reorders the rounding of each step
    for pot in (
        QuadraticPotential(g2=0.5),
        0.25,
        QuadraticPotential(g2=lambda t: 0.5 + 0.1 * t, g1=lambda t: 0.2 * math.sin(t)),
        lambda x, t: 0.5 * x**2 + 0.3 * np.cos(t) * x,
    ):
        for n_x in (64, 513, 2048):
            psi0 = oscillator_state(n_x)
            out = cn_evolve(psi0, pot, dt=1e-2, n_steps=40)
            psi, t = banded_reference(psi0, pot, dt=1e-2, n_steps=40, cayley=False)
            error = np.max(np.abs(out.psi - psi)) / np.max(np.abs(psi))
            assert error <= 1e-12, (n_x, error)
            assert out.t == t


@pytest.mark.parametrize("pot", [0.25, QuadraticPotential(g2=0.5).value], ids=["static", "stepped"])
def test_cn_memory_does_not_grow_with_steps(pot):
    # the packet stays far from the walls, so no boundary warning is issued
    psi0 = gaussian_state(SpatialGrid(-12.0, 12.0, 2048), sigma0=1.0)
    cn_evolve(psi0, pot, dt=1e-3, n_steps=2)  # loads LAPACK outside the trace
    peaks = []
    for n_steps in (40, 400):
        tracemalloc.start()
        try:
            cn_evolve(psi0, pot, dt=1e-3, n_steps=n_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks


@pytest.mark.filterwarnings("ignore:boundary amplitude")
def test_cn_buffers_leave_the_input_state_alone():
    for pot in (0.25, QuadraticPotential(g2=0.5).value):
        psi0 = oscillator_state(513)
        before = psi0.psi.copy()
        first = cn_evolve(psi0, pot, dt=1e-2, n_steps=41)
        assert np.array_equal(psi0.psi, before)
        second = cn_evolve(psi0, pot, dt=1e-2, n_steps=41)
        assert np.array_equal(first.psi, second.psi)
        assert first.psi is not second.psi


# ---------------------------------------------------------------------------
# LAPACK binding
# ---------------------------------------------------------------------------


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's semiprop."""
    path = [str(Path(oracle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, check=True,
    )


LOAD_STATE_PROBE = """
import contextlib, io, json, os, sys
import semiprop.cli as cli, semiprop.oracle as oracle

out, commands, unwanted = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]

def state():
    loaded = {
        "numpy.random": "numpy.random" in sys.modules,
        "zgttrf": "zgttrf" in vars(oracle),
        "unwanted": sorted(set(unwanted) & set(sys.modules)),
    }
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
        loaded["scipy maps"] = sorted(p for p in paths if "scipy.libs" in p or "_flapack" in p)
    return loaded

states = {"import": state()}
for n, command in enumerate(commands):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command.split() + ["--out", "{}/{}".format(out, n)])
    states[command] = dict(state(), exit=code)
print(json.dumps(states))
"""


def test_cli_import_leaves_scipy_linalg_unloaded(tmp_path):
    # a fresh interpreter, since this one imported scipy.linalg above;
    # LAPACK binds at the first Crank-Nicolson solve, numpy.random at the
    # first lattice draw, and no check loads scipy or maps its libraries
    unwanted = ["scipy", "scipy.linalg", "scipy.linalg._flapack", "numpy.f2py", "numpy.testing"]
    commands = [
        "cosmo stiff",
        "quadratic prefactor-ode",
        "oracle kernel-vs-grid --n_x 256 --dt 1e-2",
        "lattice hj-positivity --draws 2",
    ]
    result = run_fresh(LOAD_STATE_PROBE, tmp_path, json.dumps(commands), *unwanted)
    states = json.loads(result.stdout)
    idle = {"numpy.random": False, "zgttrf": False, "unwanted": []}
    if "scipy maps" in states["import"]:  # absent where there is no /proc
        idle["scipy maps"] = []
    assert states["import"] == idle
    assert states["cosmo stiff"] == dict(idle, exit=0)
    assert states["quadratic prefactor-ode"] == dict(idle, exit=0)
    assert states["oracle kernel-vs-grid --n_x 256 --dt 1e-2"] == dict(idle, exit=0, zgttrf=True)
    assert states["lattice hj-positivity --draws 2"] == dict(
        idle, exit=0, zgttrf=True, **{"numpy.random": True}
    )


def lapack_without_the_routines(monkeypatch):
    """Make the first binding look for zgttrf/zgttrs under names no LAPACK exports."""
    symbols = {"zgttrf": "no_such_zgttrf_64_", "zgttrs": "no_such_zgttrs_64_"}
    monkeypatch.setattr(oracle, "_LAPACK_SYMBOLS", symbols)
    for name in symbols:
        monkeypatch.delitem(vars(oracle), name, raising=False)
    return list(symbols.values())


def test_a_numpy_lapack_without_the_routines_fails_only_crank_nicolson(monkeypatch, tmp_path):
    # with numpy's LAPACK lacking the routines, the Crank-Nicolson check
    # fails at its first solve and every other check still runs
    from semiprop import cli

    lapack_without_the_routines(monkeypatch)
    with pytest.raises(ImportError, match="do not export no_such_zgttrf_64_"):
        cli.main(["oracle", "kernel-vs-grid", "--n_x", "256", "--dt", "1e-2",
                  "--out", str(tmp_path / "kernel")])
    assert "zgttrf" not in vars(oracle)
    assert cli.main(["cosmo", "stiff", "--out", str(tmp_path / "stiff")]) == 0
    assert (tmp_path / "stiff" / "report.json").is_file()


def test_lapack_binding_names_the_library_it_searched(monkeypatch):
    # the binding's failure names the library it opened, so the directory
    # it searched, and both symbols it looked for there
    from numpy.linalg import _umath_linalg

    symbols = lapack_without_the_routines(monkeypatch)
    with pytest.raises(ImportError) as caught:
        oracle._bind_lapack()
    message = str(caught.value)
    assert _umath_linalg.__file__ in message
    assert os.path.dirname(_umath_linalg.__file__) in message
    for symbol in symbols:
        assert symbol in message
    assert "zgttrf" not in vars(oracle) and "zgttrs" not in vars(oracle)


def test_only_one_missing_routine_is_refused_too(monkeypatch):
    # zgttrf alone is not enough: nothing is bound unless both resolve
    lapack_without_the_routines(monkeypatch)
    monkeypatch.setitem(oracle._LAPACK_SYMBOLS, "zgttrf", "scipy_zgttrf_64_")
    with pytest.raises(ImportError, match="do not export scipy_zgttrf_64_ and no_such_zgttrs_64_"):
        oracle._bind_lapack()
    assert "zgttrf" not in vars(oracle)


def test_bound_routines_match_scipy_lapack_bit_for_bit():
    from scipy.linalg import lapack

    for n_x in (64, 513, 2048):
        x = oscillator_state(n_x).grid.x
        dx, lam = x[1] - x[0], 0.5e-2
        off = 1j * lam * (-0.5 / dx**2)
        rhs = 2.0 * oscillator_state(n_x).psi
        system = oracle._Tridiagonal(n_x)
        # the matrices cn_evolve factors: a static potential, and a
        # time-dependent one sampled at three step midpoints
        for v in [0.5 * x**2] + [0.5 * x**2 + 0.3 * math.cos(t) * x for t in (0.005, 0.205, 0.395)]:
            diag = 1.0 + 1j * lam * (1.0 / dx**2 + v)
            system.factor(off, diag)
            full = np.full(n_x - 1, off)
            dl, d, du, du2, ipiv, info = lapack.zgttrf(full, diag, full)
            assert info == 0
            for ours, theirs in zip((system.dl, system.d, system.du, system.du2), (dl, d, du, du2)):
                assert np.array_equal(ours, theirs), n_x
            assert np.array_equal(system.ipiv, ipiv), n_x
            system.rhs[:] = rhs
            system.solve()
            solved, info = lapack.zgttrs(dl, d, du, du2, ipiv, rhs)
            assert info == 0
            assert np.array_equal(system.rhs, solved), n_x


def test_a_singular_crank_nicolson_matrix_is_refused():
    system = oracle._Tridiagonal(8)
    with pytest.raises(np.linalg.LinAlgError, match=r"singular \(zgttrf info 1\)"):
        system.factor(0j, np.zeros(8))


# ---------------------------------------------------------------------------
# Schrodinger residual
# ---------------------------------------------------------------------------


def levels_residual(factory, pot, levels):
    rels, hs = [], []
    for n_x, n_t in levels:
        grid = spacetime(n_x, n_t)
        factors = factory(grid)
        K = assemble_propagator(factors, grid)
        rel = schrodinger_residual(K, pot, hbar=factors.hbar, mass=factors.mass)
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
        rel = schrodinger_residual(K, 0.0)
        rels.append(rel)
    # i dK/dt + (1/2) d2K/dx2 = (i + 1/2) K, so the floor is |0.5 + i|
    floor = math.sqrt(1.25)
    for rel in rels:
        assert abs(rel - floor) < 5e-3
    assert 0.8 < rels[0] / rels[1] < 1.25


def reference_assemble_propagator(factors, grid):
    """assemble_propagator as it was before it built K in one buffer."""
    r = ComplexField.from_callable(grid, factors.R)
    s = ComplexField.from_callable(grid, factors.S)
    return ComplexField(grid, np.exp(r.values + 1j * s.values / factors.hbar))


def reference_residual(K, pot, hbar=1.0, mass=1.0):
    """The whole-grid residual the banded schrodinger_residual replaced.

    The potential may also be a ComplexField on K's grid.
    """
    k_t = finite_difference(K, "t", 1)
    k_xx = finite_difference(K, "x", 2)
    if isinstance(pot, ComplexField):
        v_vals = pot.values
    else:
        X, T = K.grid.mesh()
        v_vals = np.broadcast_to(
            np.asarray(as_potential(pot)(X, T), dtype=complex), K.values.shape
        )
    values = (
        1j * hbar * k_t.values
        + (hbar**2 / (2.0 * mass)) * k_xx.values
        - v_vals * K.values
    )
    return float(np.max(np.abs(values)) / np.max(np.abs(K.values)))


def assert_residual_matches_reference(monkeypatch, K, pot, band_columns, **constants):
    """The banded residual equals the whole-grid one at the default band
    and at bands of each of ``band_columns`` time columns."""
    expected = reference_residual(K, pot, **constants)
    assert schrodinger_residual(K, pot, **constants) == expected
    for columns in band_columns:
        monkeypatch.setattr(oracle, "RESIDUAL_BAND_NODES", columns * K.grid.n_x)
        assert schrodinger_residual(K, pot, **constants) == expected, columns
    monkeypatch.undo()


def test_propagator_and_banded_residual_match_the_whole_grid_forms(monkeypatch):
    # the CLI's three levels for both families, then a grid that ends just
    # short of a caustic, band counts that do not divide n_t, and the
    # smallest time extents
    cases = [
        (family, spacetime(n_x, n_t))
        for family in ("free", "harmonic")
        for n_x, n_t in [(129, 65), (257, 129), (513, 257)]
    ]
    # omega = 2 puts the caustic at t = pi / 2 = 1.5708
    near_caustic = SpacetimeGrid(x_min=-4.0, x_max=4.0, n_x=257, t_min=0.5, t_max=1.45, n_t=129)
    cases += [
        ("near-caustic", near_caustic), ("free", spacetime(513, 200)), ("free", spacetime(513, 193))
    ]
    cases += [(family, spacetime(33, n_t)) for family in ("free", "harmonic") for n_t in (4, 5)]
    for family, grid in cases:
        if family == "free":
            factors, pot = free_particle_factors(grid, mass=1.0), 0.0
        elif family == "harmonic":
            factors, pot = harmonic_factors(grid, mass=1.0, omega=1.0), QuadraticPotential(g2=0.5).value
        else:
            factors, pot = harmonic_factors(grid, mass=1.0, omega=2.0), QuadraticPotential(g2=2.0).value
        K = assemble_propagator(factors, grid)
        reference = reference_assemble_propagator(factors, grid)
        assert np.array_equal(K.values, reference.values), (family, grid)
        narrow = (1, 2, 3, 8) if grid.n_x * grid.n_t < 40_000 else (64,)
        assert_residual_matches_reference(monkeypatch, K, pot, narrow)


def test_banded_residual_matches_on_a_gridded_potential(monkeypatch):
    grid = SpacetimeGrid(x_min=-2.0, x_max=2.0, n_x=129, t_min=0.0, t_max=1.0, n_t=65)
    ansatz, f1_fn, f0_quad = cos_log_builder(grid)
    s_field = build_S_from_R(dataclasses.replace(ansatz, f0=f0_quad, f1=f1_fn), grid)
    v_field = recover_potential(s_field, mass=ansatz.mass)
    r_field = ComplexField.from_callable(grid, ansatz.R)
    k_values = np.exp(r_field.values + 1j * s_field.values / ansatz.hbar)
    K = ComplexField(grid=grid, values=k_values)

    def v_sampled(x, t):
        # the gridded potential, read at the time nodes of each band
        return v_field.values[:, np.searchsorted(grid.t, np.ravel(t))]

    assert_residual_matches_reference(
        monkeypatch, K, v_sampled, (1, 2, 7), hbar=ansatz.hbar, mass=ansatz.mass
    )
    assert reference_residual(K, v_sampled, ansatz.hbar, ansatz.mass) == reference_residual(
        K, v_field, ansatz.hbar, ansatz.mass
    )


def test_banded_residual_peak_memory_stays_below_two_propagators():
    for factory, pot in (
        (lambda g: free_particle_factors(g, mass=1.0), 0.0),
        (lambda g: harmonic_factors(g, mass=1.0, omega=1.0), QuadraticPotential(g2=0.5).value),
    ):
        grid = spacetime(513, 257)
        K = assemble_propagator(factory(grid), grid)
        tracemalloc.start()
        try:
            schrodinger_residual(K, pot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * K.values.nbytes, peak


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
    K = ComplexField(grid=grid, values=k_values)
    return reference_residual(K, v_field, hbar=ansatz.hbar, mass=ansatz.mass)


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
