"""Grid, field, stencil and quadrature contracts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from semiprop import core
from semiprop.core import (
    ComplexField,
    PropagatorFactors,
    SpacetimeGrid,
    assemble_propagator,
    cumulative_simpson,
    finite_difference,
    nested_quadrature,
    observed_orders,
    rk4_solve,
)


def make_grid(n_x=32, n_t=16, exclusions=()):
    return SpacetimeGrid(-2.0, 2.0, n_x, 0.5, 2.5, n_t, exclusions)


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


def test_grid_rejects_bad_exclusions():
    with pytest.raises(ValueError):
        make_grid(exclusions=((1.5, 1.2),))
    with pytest.raises(ValueError):
        make_grid(exclusions=((0.0, 0.4),))  # outside [0.5, 2.5]


def test_exclusion_masks_interior_nodes_only():
    grid = SpacetimeGrid(-1.0, 1.0, 4, 0.0, 2.0, 21, exclusions=((0.9, 1.1),))
    mask = grid.time_mask()
    t = grid.t
    inside = (t > 0.9) & (t < 1.1)
    assert np.array_equal(mask, ~inside)
    assert mask.sum() == 21 - inside.sum()
    assert not mask[10]  # t = 1.0 sits inside the window


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


def test_excluded_nodes_may_be_singular():
    grid = SpacetimeGrid(-1.0, 1.0, 8, 0.0, 2.0, 41, exclusions=((0.95, 1.05),))
    # 1/(t-1) blows up at t = 1, which the window hides.
    field = ComplexField.from_callable(grid, lambda x, t: 1.0 / (t - 1.0) + 0.0 * x)
    assert np.isfinite(field.values[field.mask]).all()


def test_assemble_multiplicativity():
    # exp(R1 + iS1/hbar) * exp(R2 + iS2/hbar) == exp((R1+R2) + i(S1+S2)/hbar)
    grid = make_grid()
    rng = np.random.default_rng(7)
    for _ in range(5):
        a1, b1, a2, b2 = rng.uniform(-1.0, 1.0, size=4)
        f1 = PropagatorFactors(
            R=lambda x, t, a=a1: a * np.sin(x) * np.cos(t),
            S=lambda x, t, b=b1: b * (x**2) * t,
            hbar=0.7,
        )
        f2 = PropagatorFactors(
            R=lambda x, t, a=a2: a * np.cos(2.0 * x) / (1.0 + t),
            S=lambda x, t, b=b2: b * np.sin(x + t),
            hbar=0.7,
        )
        k1 = assemble_propagator(f1, grid)
        k2 = assemble_propagator(f2, grid)
        k12 = assemble_propagator(f1 + f2, grid)
        product = k1 * k2
        rel = np.max(
            np.abs(product.values - k12.values)[k12.mask]
        ) / np.max(np.abs(k12.values[k12.mask]))
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


def test_factor_addition_requires_matching_constants():
    f1 = PropagatorFactors(R=lambda x, t: 0.0 * x * t, S=lambda x, t: 0.0 * x * t, hbar=1.0)
    f2 = PropagatorFactors(R=lambda x, t: 0.0 * x * t, S=lambda x, t: 0.0 * x * t, hbar=2.0)
    with pytest.raises(ValueError):
        _ = f1 + f2


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


def test_stencil_masks_nodes_adjacent_to_exclusion():
    grid = SpacetimeGrid(-1.0, 1.0, 4, 0.0, 2.0, 21, exclusions=((0.9, 1.1),))
    field = ComplexField.from_callable(grid, lambda x, t: t**2 + 0.0 * x)
    dt = finite_difference(field, "t", 1)
    # node j=10 (t=1.0) is excluded; j=9 and j=11 lose their central stencil
    assert not dt.mask[:, 10].any()
    assert not dt.mask[:, 9].any()
    assert not dt.mask[:, 11].any()
    assert dt.mask[:, 8].all() and dt.mask[:, 12].all()
    # valid nodes still carry the right derivative (exact on quadratics)
    T = grid.t[None, :]
    expected = np.broadcast_to(2.0 * T, dt.values.shape)
    err = np.abs(dt.values - expected)[dt.mask]
    assert err.max() <= 1.0e-10


def test_stencil_rejects_unknown_axis_and_order():
    grid = make_grid(n_x=8, n_t=8)
    field = ComplexField.from_callable(grid, lambda x, t: x + t)
    with pytest.raises(ValueError):
        finite_difference(field, "y", 1)
    with pytest.raises(ValueError):
        finite_difference(field, "x", 3)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_simpson_sine_reference_value():
    val = nested_quadrature(np.sin, 0.0, math.pi, 64)
    assert abs(val - 2.0) <= 1.0e-8


def test_simpson_panel_doubling_factor():
    # fourth-order rule: doubling panels cuts the error ~16x
    e1 = abs(nested_quadrature(np.sin, 0.0, math.pi, 16) - 2.0)
    e2 = abs(nested_quadrature(np.sin, 0.0, math.pi, 32) - 2.0)
    assert 12.0 <= e1 / e2 <= 20.0, f"panel-doubling factor {e1 / e2:.2f}"


def test_simpson_rejects_nonfinite_sample():
    with pytest.raises(ValueError, match="x=0"):
        nested_quadrature(lambda x: 1.0 / x, 0.0, 1.0, 8)


def test_nested_iterated_polynomial_exact():
    # int_0^1 x * (int_0^x x' dx') dx = int_0^1 x^3/2 = 1/8, exact for Simpson
    val = nested_quadrature(
        lambda x, inner: x * inner, 0.0, 1.0, 8, inner_integrand=lambda x: x
    )
    assert abs(val - 0.125) <= 1.0e-14


def test_cumulative_simpson_exact_on_quadratic():
    xs = np.linspace(0.0, 2.0, 21)
    h = xs[1] - xs[0]
    anti = cumulative_simpson(3.0 * xs**2, h)
    assert np.max(np.abs(anti - xs**3)) <= 1.0e-12


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


def test_rk4_exponential_accuracy():
    ts, ys, stopped = rk4_solve(lambda t, y: y, [1.0], 0.0, 1.0e-4, 10_000)
    assert stopped is None
    assert abs(ys[-1, 0] - math.e) <= 1.0e-10


def test_rk4_observed_order():
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        _, ys, _ = rk4_solve(lambda t, y: np.array([-2.0 * y[0]]), [1.0], 0.0, h, int(round(1.0 / h)))
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
    ts, ys, stopped = rk4_solve(deriv, [1.0, 0.2, -0.4], t0, step, 300)
    assert stopped is None
    assert np.array_equal(ts, t0 + step * np.arange(301))
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
    ts, ys, stopped = rk4_solve(deriv, y0, t0, step, n_steps, stop=stop)
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


@pytest.mark.parametrize("length", [3, 5])
def test_rk4_refuses_a_wrong_length_deriv(length):
    with pytest.raises(ValueError, match="values to unpack"):
        rk4_solve(lambda t, y: [1.0] * length, [1.0, 2.0, 3.0, 4.0], 0.0, 0.1, 10)


def test_rk4_refuses_an_empty_state():
    with pytest.raises(ValueError, match="y0"):
        rk4_solve(lambda t, y: (), [], 0.0, 0.1, 10)


def test_rk4_step_loop_is_compiled_once_per_size():
    assert core._rk4_steps(3) is core._rk4_steps(3)
    assert core._rk4_steps(3) is not core._rk4_steps(4)


def test_rk4_stop_condition_truncates():
    ts, ys, stopped = rk4_solve(
        lambda t, y: y, [1.0], 0.0, 0.1, 100, stop=lambda t, y: y[0] > 5.0
    )
    assert stopped is not None
    assert ys[-1, 0] > 5.0
    assert len(ts) == stopped + 1
