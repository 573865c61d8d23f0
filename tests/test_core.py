"""Grid, field, stencil and quadrature contracts."""

from __future__ import annotations

import ast
import linecache
import math
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

from semiprop import core, cosmo, quadratic
from semiprop.core import (
    ComplexField,
    PropagatorFactors,
    SpacetimeGrid,
    VectorField,
    assemble_propagator,
    cumulative_simpson,
    finite_difference,
    fit_loglog_slope,
    observed_orders,
    rk4_solve,
    simpson_weights,
)


def make_grid(n_x=32, n_t=16):
    return SpacetimeGrid(-2.0, 2.0, n_x, 0.5, 2.5, n_t)


# ---------------------------------------------------------------------------
# grid validation
# ---------------------------------------------------------------------------


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        SpacetimeGrid(-1.0, 1.0, 3, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        SpacetimeGrid(-1.0, 1.0, 8, 0.0, 1.0, 3)


def test_grid_rejects_reversed_extents():
    with pytest.raises(ValueError):
        SpacetimeGrid(1.0, -1.0, 8, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        SpacetimeGrid(-1.0, 1.0, 8, 1.0, 0.0, 8)


# ---------------------------------------------------------------------------
# fields and assembly
# ---------------------------------------------------------------------------


def test_field_shape_and_finiteness_guard():
    grid = make_grid()
    with pytest.raises(ValueError):
        ComplexField(grid, np.zeros((3, 3)))
    values = np.zeros((grid.n_x, grid.n_t), dtype=complex)
    values[5, 7] = np.nan
    with pytest.raises(ValueError, match=r"i=5, j=7"):
        ComplexField(grid, values)


def test_singular_sample_is_refused_without_warning():
    grid = SpacetimeGrid(-1.0, 1.0, 8, 0.0, 2.0, 41)
    # 1/(t-1) blows up at t = 1, node j = 20: refused by name, and the
    # division by zero raises no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite field value at node \(i=0, j=20\)"):
            ComplexField.from_callable(grid, lambda x, t: 1.0 / (t - 1.0) + 0.0 * x)


def test_assemble_multiplicativity():
    # exp(R1 + iS1/hbar) * exp(R2 + iS2/hbar) == exp((R1+R2) + i(S1+S2)/hbar)
    grid = make_grid()
    rng = np.random.default_rng(7)
    for _ in range(5):
        a1, b1, a2, b2 = rng.uniform(-1.0, 1.0, size=4)
        R1 = lambda x, t, a=a1: a * np.sin(x) * np.cos(t)
        S1 = lambda x, t, b=b1: b * (x**2) * t
        R2 = lambda x, t, a=a2: a * np.cos(2.0 * x) / (1.0 + t)
        S2 = lambda x, t, b=b2: b * np.sin(x + t)
        k1 = assemble_propagator(PropagatorFactors(R=R1, S=S1, hbar=0.7), grid)
        k2 = assemble_propagator(PropagatorFactors(R=R2, S=S2, hbar=0.7), grid)
        k12 = assemble_propagator(
            PropagatorFactors(
                R=lambda x, t: R1(x, t) + R2(x, t),
                S=lambda x, t: S1(x, t) + S2(x, t),
                hbar=0.7,
            ),
            grid,
        )
        product = k1.values * k2.values
        rel = np.max(np.abs(product - k12.values)) / np.max(np.abs(k12.values))
        assert rel <= 1.0e-12


def test_assemble_reports_nonfinite_exponent_node():
    grid = make_grid(n_x=8, n_t=8)
    values = np.zeros((8, 8), dtype=complex)
    values[2, 3] = np.inf
    with pytest.raises(ValueError, match=r"i=2, j=3"):
        r = ComplexField(grid, np.zeros((8, 8), dtype=complex))
        bad = r.values.copy()
        bad[2, 3] = np.inf
        ComplexField(grid, bad)


def test_assemble_reports_exp_overflow():
    grid = make_grid(n_x=8, n_t=8)
    factors = PropagatorFactors(R=lambda x, t: 1.0e4 + 0.0 * x * t, S=lambda x, t: 0.0 * x * t)
    with pytest.raises(ValueError, match="overflow"):
        assemble_propagator(factors, grid)


def test_factors_reject_nonpositive_constants():
    with pytest.raises(ValueError):
        PropagatorFactors(R=None, S=None, hbar=0.0)
    with pytest.raises(ValueError):
        PropagatorFactors(R=None, S=None, mass=-1.0)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_stencils_exact_on_quadratics():
    grid = make_grid(n_x=24, n_t=12)
    field = ComplexField.from_callable(grid, lambda x, t: (2.0 + x) ** 2 + 0.0 * t)
    d1 = finite_difference(field, "x", 1)
    d2 = finite_difference(field, "x", 2)
    X, _ = grid.mesh()
    expected1 = np.broadcast_to(2.0 * (2.0 + X), d1.values.shape)
    scale = np.max(np.abs(expected1))
    assert np.max(np.abs(d1.values - expected1)) / scale <= 1.0e-10
    assert np.max(np.abs(d2.values - 2.0)) / 2.0 <= 1.0e-10


def test_stencils_exact_on_quadratics_in_time():
    grid = make_grid(n_x=8, n_t=24)
    field = ComplexField.from_callable(grid, lambda x, t: 3.0 * t**2 - t + 0.0 * x)
    d1 = finite_difference(field, "t", 1)
    _, T = grid.mesh()
    expected = np.broadcast_to(6.0 * T - 1.0, d1.values.shape)
    assert np.max(np.abs(d1.values - expected)) <= 1.0e-10 * np.max(np.abs(expected))


def test_stencil_refinement_factor_on_sine():
    # halving h must cut the max error by ~4 (second order), factor in [3.5, 4.5]
    errors = []
    for n_x in (65, 129):
        grid = SpacetimeGrid(-2.0, 2.0, n_x, 0.0, 1.0, 4)
        field = ComplexField.from_callable(grid, lambda x, t: np.sin(x) + 0.0 * t)
        d1 = finite_difference(field, "x", 1)
        X, _ = grid.mesh()
        err = np.max(np.abs(d1.values - np.broadcast_to(np.cos(X), d1.values.shape)))
        errors.append(err)
    factor = errors[0] / errors[1]
    assert 3.5 <= factor <= 4.5, f"refinement factor {factor:.3f} outside [3.5, 4.5]"


def test_no_module_takes_a_second_stencil_or_sampler():
    # core._stencil and core._sample are the package's one stencil and one sampler
    package = Path(core.__file__).parent
    offenders = [
        "{}:{}".format(path.name, node.lineno)
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in {"gradient", "meshgrid"}
        and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}
    ]
    assert not offenders


def test_no_module_searches_for_a_bad_node_outside_core():
    # core._refuse_node is the package's one search for the first bad node
    package = Path(core.__file__).parent
    offenders = [
        "{}:{}".format(path.relative_to(package), node.lineno)
        for path in sorted(package.rglob("*.py")) if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in {"argwhere", "nonzero", "unravel_index"}
        and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}
    ]
    assert not offenders


def test_refuse_node_names_every_index_and_details_only_a_refused_node():
    core._refuse_node(np.zeros((2, 3), dtype=bool), "never", detail=lambda node: 1 / 0)
    # twelve axes, the most a lattice under MAX_SITES has: i to t; lo shifts
    # the last index only
    bad = np.zeros((1,) * 11 + (3,), dtype=bool)
    bad[..., 2] = True
    indices = ", ".join(f"{name}=0" for name in "ijklmnopqrs") + ", t=7"
    with pytest.raises(ValueError) as refused:
        core._refuse_node(bad, "odd", lo=5, detail=lambda node: f"local {node[-1]}")
    assert str(refused.value) == f"odd at node ({indices}), local 2"


def test_stencil_rejects_unknown_axis_and_order():
    grid = make_grid(n_x=8, n_t=8)
    field = ComplexField.from_callable(grid, lambda x, t: x + t)
    for axis in ("y", "space", "time"):
        with pytest.raises(ValueError):
            finite_difference(field, axis, 1)
    with pytest.raises(ValueError):
        finite_difference(field, "x", 3)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def simpson_sine(n_panels):
    """Composite Simpson integral of sin over [0, pi] with 2*n_panels subintervals."""
    xs = np.linspace(0.0, math.pi, 2 * n_panels + 1)
    return float(np.sum(simpson_weights(xs.size, xs[1] - xs[0]) * np.sin(xs)))


def test_simpson_sine_reference_value():
    assert abs(simpson_sine(64) - 2.0) <= 1.0e-8


def test_simpson_panel_doubling_factor():
    # fourth-order rule: doubling panels cuts the error ~16x
    e1 = abs(simpson_sine(16) - 2.0)
    e2 = abs(simpson_sine(32) - 2.0)
    assert 12.0 <= e1 / e2 <= 20.0, f"panel-doubling factor {e1 / e2:.2f}"


def test_nested_iterated_polynomial_exact():
    # int_0^1 x * (int_0^x x' dx') dx = int_0^1 x^3/2 = 1/8: the inner
    # antiderivative is exact on a line and composite Simpson on a cubic
    xs = np.linspace(0.0, 1.0, 17)
    h = xs[1] - xs[0]
    val = np.sum(simpson_weights(xs.size, h) * xs * cumulative_simpson(xs, h))
    assert abs(val - 0.125) <= 1.0e-14


def test_cumulative_simpson_exact_on_quadratic():
    xs = np.linspace(0.0, 2.0, 21)
    h = xs[1] - xs[0]
    anti = cumulative_simpson(3.0 * xs**2, h)
    assert np.max(np.abs(anti - xs**3)) <= 1.0e-12
    # along axis 0 of a 2-d array, each column integrates as it does alone
    columns = np.stack([3.0 * xs**2, np.exp(xs), xs], axis=1)
    whole = cumulative_simpson(columns, h)
    for j in range(columns.shape[1]):
        assert np.array_equal(whole[:, j], cumulative_simpson(columns[:, j], h))


def test_cumulative_simpson_order_on_smooth_data():
    errs = []
    for n in (33, 65):
        xs = np.linspace(0.0, 1.0, n)
        anti = cumulative_simpson(np.exp(xs), xs[1] - xs[0])
        errs.append(np.max(np.abs(anti - (np.exp(xs) - 1.0))))
    factor = errs[0] / errs[1]
    assert factor >= 7.0, f"cumulative Simpson refined by only {factor:.2f}x"


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------


def field_of(dim, with_stop=False):
    """A field that hands its state to callables ``deriv`` and ``stop``."""
    names = tuple("s{}".format(i) for i in range(dim))
    state = ", ".join(names)
    return VectorField(
        state=names,
        rates="deriv(t, [{}])".format(state),
        stop="stop(t, ({},))".format(state) if with_stop else None,
    )


def callable_rk4_solve(deriv, y0, t0, step, n_steps, stop=None):
    """rk4_solve driven by a callable deriv(t, y) and stop(t, y), as before fusion."""
    constants = {"deriv": deriv}
    if stop is not None:
        constants["stop"] = stop
    field = field_of(len(y0), stop is not None)
    return rk4_solve(field, y0, t0, step, n_steps, constants)


def test_rk4_exponential_accuracy():
    ts, ys, stopped = callable_rk4_solve(lambda t, y: y, [1.0], 0.0, 1.0e-4, 10_000)
    assert stopped is None
    assert abs(ys[-1, 0] - math.e) <= 1.0e-10


def test_rk4_observed_order():
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        _, ys, _ = callable_rk4_solve(
            lambda t, y: np.array([-2.0 * y[0]]), [1.0], 0.0, h, int(round(1.0 / h))
        )
        errs.append(abs(ys[-1, 0] - math.exp(-2.0)))
    for p in observed_orders(hs, errs):
        assert 3.5 <= p <= 4.5, f"RK4 observed order {p:.2f}"


def test_rk4_matches_the_array_form_bit_for_bit():
    # the float stepper keeps the array form's operation order, backward too
    def deriv(t, y):
        a, b, c = y
        return (b * c - 0.3 * a, math.sin(t) - a * c, a * a - 0.5 * b)

    t0, step, y = 0.5, -0.01, np.array([1.0, 0.2, -0.4])
    expected = [y]
    for k in range(300):
        t = t0 + step * k
        k1 = np.array(deriv(t, y))
        k2 = np.array(deriv(t + 0.5 * step, y + 0.5 * step * k1))
        k3 = np.array(deriv(t + 0.5 * step, y + 0.5 * step * k2))
        k4 = np.array(deriv(t + step, y + step * k3))
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(y)
    ts, ys, stopped = callable_rk4_solve(deriv, [1.0, 0.2, -0.4], t0, step, 300)
    assert stopped is None
    assert np.array_equal(ts, t0 + step * np.arange(301))
    assert np.array_equal(ys, np.array(expected))
    # the same rates fused into the loop as a tuple of expressions
    fused = VectorField(
        state=("a", "b", "c"),
        rates="b * c - 0.3 * a, sin(t) - a * c, a * a - 0.5 * b",
    )
    ts, ys, stopped = rk4_solve(fused, [1.0, 0.2, -0.4], t0, step, 300, {"sin": math.sin})
    assert stopped is None
    assert np.array_equal(ys, np.array(expected))


def zip_loop_rk4_solve(deriv, y0, t0, step, n_steps, stop=None):
    """The zip list-comprehension stepper rk4_solve replaced; the reference."""
    y = tuple(map(float, y0))
    ts = t0 + step * np.arange(n_steps + 1)
    ys = np.empty((n_steps + 1, len(y)))
    ys[0] = y
    half, sixth = 0.5 * step, step / 6.0
    stopped_at = None
    for k in range(n_steps):
        t = t0 + step * k
        k1 = deriv(t, y)
        k2 = deriv(t + half, [yi + half * ki for yi, ki in zip(y, k1)])
        k3 = deriv(t + half, [yi + half * ki for yi, ki in zip(y, k2)])
        k4 = deriv(t + step, [yi + step * ki for yi, ki in zip(y, k3)])
        stages = zip(y, k1, k2, k3, k4)
        y = tuple([yi + sixth * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in stages])
        ys[k + 1] = y
        if not all(map(math.isfinite, y)) or (
            stop is not None and stop(t0 + step * (k + 1), y)
        ):
            stopped_at = k + 1
            break
    if stopped_at is not None:
        return ts[: stopped_at + 1], ys[: stopped_at + 1], stopped_at
    return ts, ys, None


def assert_matches_the_zip_loop(deriv, y0, t0, step, n_steps, stop=None):
    ts, ys, stopped = callable_rk4_solve(deriv, y0, t0, step, n_steps, stop=stop)
    ref_ts, ref_ys, ref_stopped = zip_loop_rk4_solve(deriv, y0, t0, step, n_steps, stop=stop)
    assert stopped == ref_stopped
    assert np.array_equal(ts, ref_ts)
    assert np.array_equal(ys, ref_ys)
    return ys, stopped


def coupled(t, y):
    # a nonlinear right-hand side that mixes every component with its neighbours
    n = len(y)
    return tuple(
        math.sin(t) * y[(i + 1) % n] - 0.3 * y[i] + 0.1 * y[i - 1] * y[(i + 2) % n]
        for i in range(n)
    )


@pytest.mark.parametrize("dim", [1, 2, 4, 5])
@pytest.mark.parametrize("step", [0.013, -0.013])
def test_rk4_matches_the_zip_loop_bit_for_bit(dim, step):
    y0 = [0.7 - 0.25 * i for i in range(dim)]
    _, stopped = assert_matches_the_zip_loop(coupled, y0, 0.3, step, 400)
    assert stopped is None


def test_rk4_matches_the_zip_loop_when_stop_fires():
    _, stopped = assert_matches_the_zip_loop(
        lambda t, y: (y[1], y[0]), [1.0, 0.5], 0.0, 0.01, 1000,
        stop=lambda t, y: y[0] > 3.0,
    )
    assert stopped is not None and stopped < 1000


def test_rk4_matches_the_zip_loop_when_the_state_overflows():
    # y' = y^2 blows up at t = 1; float * overflows to inf and the run truncates
    ys, stopped = assert_matches_the_zip_loop(
        lambda t, y: (y[0] * y[0], 1.0), [1.0, 0.0], 0.0, 0.001, 2000
    )
    assert stopped is not None and stopped < 2000
    assert not math.isfinite(ys[-1, 0])


def test_rk4_matches_the_zip_loop_on_a_numpy_deriv():
    _, stopped = assert_matches_the_zip_loop(
        lambda t, y: np.array([-2.0 * y[0], y[0] - y[1]]), [1.0, 0.0], 0.0, 0.05, 40
    )
    assert stopped is None


def recorded_solves(monkeypatch, module):
    """Every rk4_solve call ``module`` makes, with its arguments and result."""
    calls = []

    def recording(*args):
        result = rk4_solve(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, "rk4_solve", recording)
    return calls


def assert_solves_match(calls, deriv, stop):
    assert calls
    for (_, y0, t0, step, n_steps, _), (ts, ys, stopped) in calls:
        ref_ts, ref_ys, ref_stopped = zip_loop_rk4_solve(deriv, y0, t0, step, n_steps, stop)
        assert stopped == ref_stopped
        assert ts.tobytes() == ref_ts.tobytes()
        assert ys.tobytes() == ref_ys.tobytes()


@pytest.mark.parametrize(
    "params, phi_dot, expanding",
    [
        (cosmo.CosmoParams(), 20.0, True),
        (cosmo.CosmoParams(k=1, lam=0.7, potential=cosmo.quadratic_potential(0.5)), 0.4, True),
        # contracts until a falls below its floor, and the run stops
        (cosmo.CosmoParams(), 0.1, False),
    ],
)
def test_evolve_classical_matches_the_zip_loop_on_its_closure(
    monkeypatch, params, phi_dot, expanding
):
    calls = recorded_solves(monkeypatch, cosmo)
    a_dot = cosmo.matched_a_dot(1.0, 0.3, phi_dot, params, expanding=expanding)
    state = cosmo.ClassicalState(a=1.0, a_dot=a_dot, phi=0.3, phi_dot=phi_dot)
    cosmo.evolve_classical(state, params, (0.0, 2.0), 1e-3)
    k, lam, v_fn, dv_fn = params.k, params.lam, params.potential.v, params.potential.dv

    def deriv(t, y):
        a, a_dot, phi, phi_dot = y
        v = float(v_fn(phi))
        dv = float(dv_fn(phi))
        a_sq = a * a
        a_ddot = (
            -(a_dot * a_dot) - k + lam * a_sq
            - 4.0 * math.pi * a_sq * (phi_dot * phi_dot)
            + 8.0 * math.pi * a_sq * v
        ) / (2.0 * a)
        phi_ddot = -3.0 * (a_dot / a) * phi_dot - dv
        return a_dot, a_ddot, phi_dot, phi_ddot

    assert_solves_match(calls, deriv, lambda t, y: y[0] <= cosmo.COLLAPSE_FRACTION * 1.0)
    if not expanding:
        assert calls[0][1][2] is not None


def test_evolve_classical_hands_rk4_solve_only_numbers(monkeypatch):
    calls = recorded_solves(monkeypatch, cosmo)
    for params in (
        cosmo.CosmoParams(),
        cosmo.CosmoParams(k=1, lam=0.7, potential=cosmo.quadratic_potential(0.5)),
    ):
        a_dot = cosmo.matched_a_dot(1.0, 0.3, 0.4, params)
        state = cosmo.ClassicalState(a=1.0, a_dot=a_dot, phi=0.3, phi_dot=0.4)
        cosmo.evolve_classical(state, params, (0.0, 0.1), 1e-2)
    assert len(calls) == 2
    for (field, *_, constants), _ in calls:
        assert field is cosmo.FRIEDMANN_FLOW
        for name, value in constants.items():
            assert isinstance(value, (int, float)), (name, value)
        assert sorted(constants) == ["a_floor", "k", "lam", "m2", "pi"]


@pytest.mark.parametrize(
    "potential, init, window, t0",
    [
        *quadratic.PREFACTOR_CASES.values(),
        # a callable coefficient; t0 inside the window runs both legs
        (quadratic.QuadraticPotential(g2=lambda t: 0.5 + 0.25 * np.sin(t), g1=0.3),
         (0.0, 0.1, 0.2, 0.0), (0.0, 1.0), 0.4),
    ],
)
def test_solve_prefactor_odes_matches_the_zip_loop_on_its_closure(
    monkeypatch, potential, init, window, t0
):
    calls = recorded_solves(monkeypatch, quadratic)
    mass = 0.8
    quadratic.solve_prefactor_odes(potential, init, window, 1e-3, t0=t0, mass=mass)
    g2, g1, g0 = potential.g2, potential.g1, potential.g0

    def deriv(t, y):
        _, u, f1, _ = y
        return (
            u,
            2.0 * u * u + float(core.at_time(g2, t)) / mass,
            2.0 * u * f1 - float(core.at_time(g1, t)),
            -float(core.at_time(g0, t)) - f1 * f1 / (2.0 * mass),
        )

    assert_solves_match(calls, deriv, lambda t, y: abs(y[1]) > quadratic.BLOW_UP_BOUND)
    if t0 is not None:
        assert sorted(call[0][3] > 0 for call in calls) == [False, True]


@pytest.mark.parametrize("length", [3, 5])
def test_rk4_refuses_a_wrong_length_deriv(length):
    with pytest.raises(ValueError, match="values to unpack"):
        callable_rk4_solve(lambda t, y: [1.0] * length, [1.0, 2.0, 3.0, 4.0], 0.0, 0.1, 10)


def test_rk4_refuses_a_wrong_length_rates_tuple():
    with pytest.raises(ValueError, match="rates list 3 expressions for 2 state components"):
        VectorField(state=("x", "y"), rates="y, -x, 0.0")


def test_rk4_refuses_an_empty_state():
    with pytest.raises(ValueError, match="at least one state component"):
        VectorField(state=(), rates="()")
    with pytest.raises(ValueError, match="y0 holds 2 components"):
        rk4_solve(VectorField(state=("x",), rates="-x,"), [1.0, 2.0], 0.0, 0.1, 10)


@pytest.mark.parametrize(
    "state, rates",
    [
        (("_y0", "x"), "x, -_y0"),  # a state name the loop uses for a component
        (("x",), "-_k * x,"),  # a constant named like the loop's step index
        (("x",), "-_half * x,"),
        (("t",), "-t,"),  # the time
    ],
)
def test_vector_field_refuses_a_name_of_the_loop(state, rates):
    with pytest.raises(ValueError, match="RK4 loop's own names|other than 't'"):
        VectorField(state=state, rates=rates)


def test_rk4_refuses_missing_or_unexpected_constants():
    field = VectorField(state=("x",), rates="-rate * x,")
    with pytest.raises(ValueError, match=r"missing \['rate'\], unexpected \['rat'\]"):
        rk4_solve(field, [1.0], 0.0, 0.1, 10, {"rat": 1.0})


def test_rk4_step_loop_is_compiled_once_per_field():
    field = field_of(3)
    assert core._rk4_steps(field) is core._rk4_steps(field_of(3))
    assert core._rk4_steps(field) is not core._rk4_steps(field_of(4))


def test_two_solves_with_different_constants_share_one_compiled_loop():
    field = VectorField(state=("x", "v"), rates="v, -omega2 * x - 0.5 * gamma * v")
    compiled = len(core._RK4_STEPS)
    _, slow, _ = rk4_solve(field, [1.0, 0.0], 0.0, 0.01, 100, {"omega2": 0.25, "gamma": 0.125})
    assert len(core._RK4_STEPS) == compiled + 1
    loop = core._rk4_steps(field)
    _, fast, _ = rk4_solve(field, [1.0, 0.0], 0.0, 0.01, 100, {"omega2": 4.0, "gamma": 0.375})
    assert len(core._RK4_STEPS) == compiled + 1
    assert core._rk4_steps(field) is loop
    assert not np.array_equal(slow, fast)
    # the values enter as arguments, never as source
    source = "".join(linecache.getlines(loop.__code__.co_filename))
    assert "omega2" in source
    for value in ("0.25", "0.125", "4.0", "0.375"):
        assert value not in source


def test_a_failing_rate_shows_its_generated_line_in_the_traceback():
    field = VectorField(state=("x", "y"), rates="y, 1.0 / (x - shift)")
    with pytest.raises(ZeroDivisionError) as info:
        rk4_solve(field, [1.0, 0.0], 0.0, 0.1, 10, {"shift": 1.0})
    text = "".join(traceback.format_exception(info.value))
    assert "<rk4 step loop" in text and ": x, y>" in text
    assert "_a1 = 1.0 / (x - shift)" in text


def test_the_generated_loop_holds_each_rate_as_written():
    loop = core._rk4_steps(cosmo.FRIEDMANN_FLOW)
    source = "".join(linecache.getlines(loop.__code__.co_filename))
    assert "_b3 = -3.0 * (a_dot / a) * phi_dot - m2 * phi" in source
    assert "(a <= a_floor)" in source
    # a rate written across lines is pasted whole, bracketed
    field = VectorField(state=("x", "v"), rates="(v,\n -omega2\n * x)")
    _, ys, _ = rk4_solve(field, [1.0, 0.0], 0.0, 0.01, 100, {"omega2": 4.0})
    assert abs(ys[-1, 0] - math.cos(2.0)) <= 1e-8
    # a state named like a builtin does not shadow the loop's own range
    _, ys, _ = rk4_solve(VectorField(state=("range",), rates="-range,"), [1.0], 0.0, 0.01, 100)
    assert abs(ys[-1, 0] - math.exp(-1.0)) <= 1e-8


def test_rk4_stop_condition_truncates():
    ts, ys, stopped = callable_rk4_solve(
        lambda t, y: y, [1.0], 0.0, 0.1, 100, stop=lambda t, y: y[0] > 5.0
    )
    assert stopped is not None
    assert ys[-1, 0] > 5.0
    assert len(ts) == stopped + 1


# ---------------------------------------------------------------------------
# convergence fits
# ---------------------------------------------------------------------------


def polyfit_slope(xs, ys):
    """The reference: numpy's least-squares line through the logs."""
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


def stiff_late_samples():
    """The late samples `cosmo stiff` fits at its defaults."""
    phi_dot0 = 20.0
    vacuum = cosmo.CosmoParams()
    a_dot0 = cosmo.matched_a_dot(1.0, 0.0, phi_dot0, vacuum)
    state = cosmo.ClassicalState(a=1.0, a_dot=a_dot0, phi=0.0, phi_dot=phi_dot0)
    traj = cosmo.evolve_classical(state, vacuum, (0.0, 35.0), 1e-3)
    late = traj.t >= 3.5
    return traj.t[late], traj.a[late]


def test_fit_loglog_slope_matches_polyfit():
    rng = np.random.default_rng(11)
    cases = [stiff_late_samples(), ([0.5, 1.0, 2.0], [0.25, 0.5, 1.0]), ([1.0, 3.0], [2.0, 7.0])]
    for size, power in ((5, 2.0), (40, -1.5), (1000, 0.3)):
        xs = rng.uniform(0.01, 100.0, size)
        cases.append((xs, 3.0 * xs**power * np.exp(0.1 * rng.standard_normal(size))))
    for xs, ys in cases:
        expected = polyfit_slope(xs, ys)
        assert fit_loglog_slope(xs, ys) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        ([1.0, 2.0], [1.0], "two matching samples"),
        ([1.0], [1.0], "two matching samples"),
        ([1.0, -2.0], [1.0, 2.0], "positive samples"),
        ([1.0, 2.0], [0.0, 2.0], "positive samples"),
        # equal logs, of equal or of adjacent floats, leave no slope to fit
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "xs: the logs of the samples must spread"),
        ([1e300, math.nextafter(1e300, math.inf)], [1.0, 2.0], "xs: the logs"),
    ],
)
def test_fit_loglog_slope_refusals(xs, ys, message):
    with pytest.raises(ValueError, match=message):
        fit_loglog_slope(xs, ys)
