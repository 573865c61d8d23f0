"""Grids, complex fields, and the shared numerical kernels.

The package certifies propagators of the form

    K(x, t) = exp( R(x, t) + i S(x, t) / hbar )

on rectangular space-time grids.  This module supplies the substrate:
grid and field containers, the exp-assembly of K from its factors,
second-order finite-difference stencils with validity masking around
excluded time windows, composite Simpson quadrature (plain, nested and
cumulative), a classical RK4 stepper, and small fitting helpers used by
the convergence studies.

Everything downstream treats these kernels as trusted instruments, so
their error behavior is pinned by tests (quadratic exactness, h**2 and
h**4 refinement factors) rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SpacetimeGrid",
    "SpatialGrid",
    "ComplexField",
    "PropagatorFactors",
    "assemble_propagator",
    "finite_difference",
    "nested_quadrature",
    "simpson_weights",
    "cumulative_simpson",
    "rk4_solve",
    "rk4_step_count",
    "at_time",
    "fit_loglog_slope",
    "observed_orders",
]

# Tolerance used when classifying grid nodes against exclusion windows.
EDGE_TOL = 1.0e-12

# Most steps one rk4_solve call may take; checked before anything is allocated.
MAX_RK4_STEPS = 10**6


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacetimeGrid:
    """Uniform rectangular grid over [x_min, x_max] x [t_min, t_max].

    ``exclusions`` is a sequence of open time intervals (lo, hi) whose
    interior nodes are masked out; fields and stencils never read values
    there.  Windows are used to fence off caustics and other known
    singular times.
    """

    x_min: float
    x_max: float
    n_x: int
    t_min: float
    t_max: float
    n_t: int
    exclusions: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.n_x < 4 or self.n_t < 4:
            raise ValueError(
                f"grid too small: n_x={self.n_x}, n_t={self.n_t} (need >= 4 each)"
            )
        if not (self.x_max > self.x_min) or not (self.t_max > self.t_min):
            raise ValueError("grid extents must satisfy x_max > x_min and t_max > t_min")
        cleaned = []
        for window in self.exclusions:
            lo, hi = float(window[0]), float(window[1])
            if not lo < hi:
                raise ValueError(f"exclusion window ({lo}, {hi}) is empty or reversed")
            # overhang beyond the span is fine (it just masks less), but a
            # window that misses the span entirely is a configuration slip
            if hi < self.t_min - EDGE_TOL or lo > self.t_max + EDGE_TOL:
                raise ValueError(
                    f"exclusion window ({lo}, {hi}) does not intersect "
                    f"[{self.t_min}, {self.t_max}]"
                )
            cleaned.append((lo, hi))
        object.__setattr__(self, "exclusions", tuple(cleaned))

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_t)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)

    def time_mask(self) -> np.ndarray:
        """True for time nodes outside every exclusion window."""
        t = self.t
        mask = np.ones(self.n_t, dtype=bool)
        for lo, hi in self.exclusions:
            mask &= ~((t > lo + EDGE_TOL) & (t < hi - EDGE_TOL))
        return mask

    def node_mask(self) -> np.ndarray:
        """(n_x, n_t) validity mask implied by the exclusion windows."""
        return np.broadcast_to(self.time_mask(), (self.n_x, self.n_t)).copy()

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays X (n_x, 1) and T (1, n_t)."""
        return self.x[:, None], self.t[None, :]


@dataclass(frozen=True)
class SpatialGrid:
    """Spatial slice of a SpacetimeGrid, used by wavefunction states."""

    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self) -> None:
        if self.n_x < 4:
            raise ValueError(f"spatial grid too small: n_x={self.n_x} (need >= 4)")
        if not self.x_max > self.x_min:
            raise ValueError("spatial grid must satisfy x_max > x_min")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class ComplexField:
    """Complex-valued samples on a SpacetimeGrid with a validity mask.

    ``values[i, j]`` is the sample at (x_i, t_j).  ``mask[i, j]`` is False
    where the sample must not be read (inside exclusion windows, or where
    a stencil could not be evaluated).  Values must be finite at every
    valid node; construction fails loudly otherwise, naming the node.
    """

    def __init__(self, grid: SpacetimeGrid, values: np.ndarray, mask: np.ndarray | None = None):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_x, grid.n_t):
            raise ValueError(
                f"field shape {values.shape} does not match grid "
                f"({grid.n_x}, {grid.n_t})"
            )
        if mask is None:
            mask = grid.node_mask()
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != values.shape:
                raise ValueError("mask shape does not match values")
            mask = mask & grid.node_mask()
        _require_finite(values, mask, grid, what="field value")
        self.grid = grid
        self.values = values
        self.mask = mask

    @classmethod
    def from_callable(cls, grid: SpacetimeGrid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ComplexField":
        X, T = grid.mesh()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.asarray(fn(X, T), dtype=complex)
        values = np.broadcast_to(values, (grid.n_x, grid.n_t)).copy()
        # Nodes inside exclusion windows may legitimately evaluate to
        # inf/nan (that is what the windows are for); zero them so the
        # finiteness audit only sees valid nodes.
        values[~grid.node_mask()] = 0.0
        return cls(grid, values)

    def __mul__(self, other: "ComplexField") -> "ComplexField":
        if not isinstance(other, ComplexField):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return ComplexField(self.grid, self.values * other.values, self.mask & other.mask)

    def max_abs(self) -> float:
        if not self.mask.any():
            raise ValueError("field has no valid nodes")
        return float(np.max(np.abs(self.values[self.mask])))


def _require_finite(values: np.ndarray, mask: np.ndarray, grid: SpacetimeGrid, what: str) -> None:
    bad = ~np.isfinite(values) & mask
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise ValueError(
            f"non-finite {what} at node (i={i}, j={j}), "
            f"x={grid.x[i]:.6g}, t={grid.t[j]:.6g}"
        )


def evaluate_on_grid(obj, grid: SpacetimeGrid) -> ComplexField:
    """Coerce a field-like object (ComplexField or callable f(x, t)) to a field."""
    if isinstance(obj, ComplexField):
        if obj.grid != grid:
            raise ValueError("field was sampled on a different grid")
        return obj
    if callable(obj):
        return ComplexField.from_callable(grid, obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a field")


# ---------------------------------------------------------------------------
# propagator assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagatorFactors:
    """The two factors of K = exp(R + i S / hbar) plus physical constants.

    R and S may be ComplexField samples or closed-form callables f(x, t).
    Closed-form families additionally carry ``two_point_action``
    S(x, x0, t) and ``time_amplitude`` R(t), which the Van Vleck and
    kernel-propagation checks need (the x0-dependence is not recoverable
    from single-source samples).
    """

    R: object
    S: object
    hbar: float = 1.0
    mass: float = 1.0
    two_point_action: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    time_amplitude: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        # hbar^2 / (2 m) is the kinetic coefficient of the Schrodinger equation
        if not (self.mass > 0 and math.isfinite(self.hbar * self.hbar / (2.0 * self.mass))):
            raise ValueError(
                f"mass must be positive with hbar^2 / (2 mass) finite, got {self.mass}"
            )

    def __add__(self, other: "PropagatorFactors") -> "PropagatorFactors":
        """Factor-wise sum: (R1+R2, S1+S2).  Requires matching constants."""
        if not isinstance(other, PropagatorFactors):
            return NotImplemented
        if other.hbar != self.hbar or other.mass != self.mass:
            raise ValueError("cannot add factors with different hbar or mass")
        return PropagatorFactors(
            R=_add_fieldlike(self.R, other.R),
            S=_add_fieldlike(self.S, other.S),
            hbar=self.hbar,
            mass=self.mass,
            label=f"{self.label}+{other.label}" if self.label or other.label else "",
        )


def _add_fieldlike(a, b):
    if isinstance(a, ComplexField) and isinstance(b, ComplexField):
        if a.grid != b.grid:
            raise ValueError("fields live on different grids")
        return ComplexField(a.grid, a.values + b.values, a.mask & b.mask)
    if callable(a) and callable(b):
        return lambda x, t: a(x, t) + b(x, t)
    raise TypeError("factors must both be fields or both be callables to add")


def assemble_propagator(factors: PropagatorFactors, grid: SpacetimeGrid | None = None) -> ComplexField:
    """Evaluate K = exp(R + i S / hbar) on the grid.

    The grid may be omitted when both factors are already gridded fields.
    Non-finite exponents and exp overflow at valid nodes are reported
    with the offending node, never clamped.
    """
    if grid is None:
        for obj in (factors.R, factors.S):
            if isinstance(obj, ComplexField):
                grid = obj.grid
                break
        if grid is None:
            raise ValueError("grid required when both factors are closed-form")
    r = evaluate_on_grid(factors.R, grid)
    s = evaluate_on_grid(factors.S, grid)
    mask = r.mask & s.mask
    exponent = r.values + 1j * s.values / factors.hbar
    _require_finite(exponent, mask, grid, what="propagator exponent")
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.exp(exponent)
    bad = ~np.isfinite(k) & mask
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise ValueError(
            f"exp overflow assembling propagator at node (i={i}, j={j}), "
            f"x={grid.x[i]:.6g}, t={grid.t[j]:.6g}, Re exponent={exponent[i, j].real:.6g}"
        )
    k = np.where(mask, k, 0.0)
    return ComplexField(grid, k, mask)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

_AXIS_NAMES = {"x": 0, "space": 0, "t": 1, "time": 1}


def finite_difference(field: ComplexField, axis: str, order: int) -> ComplexField:
    """Second-order-accurate derivative of a gridded field.

    axis is "x"/"space" or "t"/"time"; order is 1 or 2.  Interior nodes
    use central stencils; the two domain edges use one-sided stencils of
    the same accuracy.  Output nodes whose stencil touches a masked node
    are marked invalid, so nodes adjacent to exclusion windows drop out
    instead of silently reading excluded samples.
    """
    if axis not in _AXIS_NAMES:
        raise ValueError(f"axis must be one of {sorted(_AXIS_NAMES)}, got {axis!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    ax = _AXIS_NAMES[axis]
    n = field.values.shape[ax]
    if n < 4:
        raise ValueError(f"axis extent {n} too small for second-order stencils")
    h = field.grid.dx if ax == 0 else field.grid.dt
    out, ok = _stencil(field.values, field.mask, h, ax, order)
    return ComplexField(field.grid, np.where(ok, out, 0.0), ok)


def _stencil(
    values: np.ndarray, mask: np.ndarray, h: float, axis: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw-array form of ``finite_difference``: derivative values along
    ``axis`` and the mask of nodes whose whole stencil reads valid samples.
    Values at invalid nodes are left as computed."""
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    out = np.zeros_like(v)
    ok = np.zeros_like(m)

    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        ok[1:-1] = m[:-2] & m[1:-1] & m[2:]
        ok[0] = m[0] & m[1] & m[2]
        ok[-1] = m[-1] & m[-2] & m[-3]
    else:
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
        ok[1:-1] = m[:-2] & m[1:-1] & m[2:]
        ok[0] = m[0] & m[1] & m[2] & m[3]
        ok[-1] = m[-1] & m[-2] & m[-3] & m[-4]

    return np.moveaxis(out, 0, axis), np.moveaxis(ok, 0, axis)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def simpson_weights(n_samples: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an odd number of uniform samples."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd sample count >= 3, got {n_samples}")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _sample(fn: Callable, xs: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = fn(xs) if extra is None else fn(xs, extra)
    vals = np.asarray(vals, dtype=complex)
    vals = np.broadcast_to(vals, xs.shape).astype(complex)
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"non-finite integrand sample at x={xs[k]:.6g}")
    return vals


def nested_quadrature(
    integrand: Callable,
    x_lo: float,
    x_hi: float,
    n_panels: int,
    inner_integrand: Callable | None = None,
) -> complex:
    """Composite Simpson integral over [x_lo, x_hi] with 2*n_panels subintervals.

    With ``inner_integrand`` supplied, the inner antiderivative
    A(x) = int_{x_lo}^{x} inner_integrand is tabulated cumulatively at
    the sample nodes and the outer integrand is called as
    ``integrand(x, A)``; this is the iterated-integral form used by the
    general ansatz construction.  Integrands must be numpy-vectorized
    and finite at every sample; a non-finite sample aborts with its
    abscissa.
    """
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    if not x_hi > x_lo:
        raise ValueError(f"empty integration interval [{x_lo}, {x_hi}]")
    n_samples = 2 * n_panels + 1
    xs = np.linspace(x_lo, x_hi, n_samples)
    h = (x_hi - x_lo) / (n_samples - 1)
    if inner_integrand is None:
        fs = _sample(integrand, xs)
    else:
        gs = _sample(inner_integrand, xs)
        fs = _sample(integrand, xs, cumulative_simpson(gs, h))
    return complex(np.sum(simpson_weights(n_samples, h) * fs))


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative tabulated at the sample nodes, A[0] = 0.

    Each subinterval is integrated with the quadratic through its three
    nearest samples, so the rule is exact for quadratics and fourth-order
    accurate per interval on smooth data.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 3:
        raise ValueError(f"cumulative Simpson needs >= 3 samples, got {n}")
    increments = np.empty(n - 1, dtype=values.dtype)
    # first interval: parabola through samples 0, 1, 2
    increments[0] = h * (5.0 * values[0] + 8.0 * values[1] - values[2]) / 12.0
    # interval k -> k+1: parabola through samples k-1, k, k+1
    increments[1:] = h * (-values[:-2] + 8.0 * values[1:-1] + 5.0 * values[2:]) / 12.0
    out = np.empty(n, dtype=values.dtype)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# ODE stepping
# ---------------------------------------------------------------------------


# The RK4 step loop, written out component by component for one state size;
# `_rk4_steps` fills in nothing but that size.  Each component keeps the
# operation order of y + (step/6)*(k1 + 2k2 + 2k3 + k4), and unpacking a
# stage refuses a deriv that returns the wrong number of components.
_RK4_TEMPLATE = """\
def rk4_steps_{dim}(deriv, stop, y, t0, step, n_steps, ys):
    half, sixth = 0.5 * step, step / 6.0
    {y}, = y
    for k in range(n_steps):
        t = t0 + step * k
        {a}, = deriv(t, y)
        {b}, = deriv(t + half, [{half_a}])
        {c}, = deriv(t + half, [{half_b}])
        {d}, = deriv(t + step, [{step_c}])
        {update}
        y = ({y},)
        ys[k + 1] = y
        if not ({finite}) or (stop is not None and stop(t0 + step * (k + 1), y)):
            return k + 1
    return None
"""

# Compiled step loops, keyed by state size.
_RK4_STEPS: dict[int, Callable] = {}


def _rk4_steps(dim: int) -> Callable:
    """The step loop for states of ``dim`` components, compiled once per size.

    It runs ``n_steps`` steps from the state tuple ``y``, writes each new
    state to ``ys[k + 1]`` and returns the index at which the state turned
    non-finite or ``stop`` fired, else None.
    """
    steps = _RK4_STEPS.get(dim)
    if steps is None:
        idx = range(dim)

        def joined(form: str, sep: str = ", ") -> str:
            return sep.join(form.format(i=i) for i in idx)

        source = _RK4_TEMPLATE.format(
            dim=f"{dim:d}",
            y=joined("y{i}"),
            a=joined("a{i}"),
            b=joined("b{i}"),
            c=joined("c{i}"),
            d=joined("d{i}"),
            half_a=joined("y{i} + half * a{i}"),
            half_b=joined("y{i} + half * b{i}"),
            step_c=joined("y{i} + step * c{i}"),
            update=joined(
                "y{i} = y{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})", "\n        "
            ),
            finite=joined("isfinite(y{i})", " and "),
        )
        namespace: dict = {}
        code = compile(source, f"<rk4 step loop, dim {dim:d}>", "exec")
        exec(code, {"isfinite": math.isfinite}, namespace)
        steps = _RK4_STEPS[dim] = namespace[f"rk4_steps_{dim:d}"]
    return steps


def rk4_solve(
    deriv: Callable[[float, Sequence[float]], Sequence[float]],
    y0: Sequence[float],
    t0: float,
    step: float,
    n_steps: int,
    stop: Callable[[float, tuple[float, ...]], bool] | None = None,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Classical fixed-step RK4 with dense recording.

    The state is a tuple of Python floats.  ``deriv(t, y)`` takes a
    sequence of floats (the state, or a stage's list) and returns one of
    the same length; ``stop(t, y)`` sees the state.  Returns (t, Y,
    stopped_at): sample times (n+1,), states (n+1, dim), and the index at
    which ``stop`` fired or the state turned non-finite (truncating the
    arrays), else None.  A negative step integrates backward in time.
    More than MAX_RK4_STEPS steps are refused, naming the step, before
    anything is allocated, and so is an empty ``y0``.

    The steps run in a loop generated for the state size and compiled
    once per size: every stage component is written out (``y0 + half *
    a0``, ...), in the operation order of y + (step/6)*(k1 + 2k2 + 2k3 +
    k4).  A ``deriv`` that returns the wrong number of components raises
    ``ValueError`` when its result is unpacked.
    """
    if step == 0:
        raise ValueError("step must be nonzero")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > MAX_RK4_STEPS:
        raise ValueError(
            f"step {abs(step)!r} needs {n_steps:.3g} RK4 steps, more than the "
            f"budget of {MAX_RK4_STEPS}"
        )
    y = tuple(map(float, y0))
    if not y:
        raise ValueError("y0 must hold at least one component, got none")
    ts = t0 + step * np.arange(n_steps + 1)
    ys = np.empty((n_steps + 1, len(y)))
    ys[0] = y
    stopped_at = _rk4_steps(len(y))(deriv, stop, y, t0, step, n_steps, ys)
    if stopped_at is not None:
        return ts[: stopped_at + 1], ys[: stopped_at + 1], stopped_at
    return ts, ys, None


def rk4_step_count(span: float, step: float) -> int:
    """round(span / step), the RK4 steps that cover ``span``.

    A quotient that is not finite or that rounds past MAX_RK4_STEPS is
    refused, naming the step, before it is converted: round() of an
    infinite float raises.
    """
    quotient = span / step
    if not quotient <= MAX_RK4_STEPS + 0.5:
        raise ValueError(
            f"step {step!r} needs {quotient:.3g} RK4 steps, more than the "
            f"budget of {MAX_RK4_STEPS}"
        )
    return int(round(quotient))


def at_time(g, t):
    """A time coefficient at t: a callable is called on t, a constant is returned as is."""
    return g(t) if callable(g) else g


# ---------------------------------------------------------------------------
# convergence fits
# ---------------------------------------------------------------------------


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log|y| against log|x|."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need at least two matching samples for a slope fit")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive samples")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


def observed_orders(hs: Sequence[float], errors: Sequence[float]) -> list[float]:
    """Pairwise observed convergence orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    hs = list(map(float, hs))
    errors = list(map(float, errors))
    if len(hs) != len(errors) or len(hs) < 2:
        raise ValueError("need matching h and error sequences of length >= 2")
    orders = []
    for (h1, e1), (h2, e2) in zip(zip(hs, errors), zip(hs[1:], errors[1:])):
        if e2 == 0.0 or h2 == h1:
            raise ValueError("degenerate refinement pair in convergence study")
        orders.append(math.log(e1 / e2) / math.log(h1 / h2))
    return orders
