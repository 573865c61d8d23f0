"""Grids, complex fields, and the shared numerical kernels.

The package certifies propagators of the form

    K(x, t) = exp( R(x, t) + i S(x, t) / hbar )

on rectangular space-time grids.  This module supplies the substrate:
grid and field containers, the exp-assembly of K from its factors
(whole, or a band of time columns at a time), second-order
finite-difference stencils, the Hamilton-Jacobi, transport and decoupling
equations over the derivative arrays that each family supplies, composite
Simpson quadrature (plain and cumulative), a classical RK4 stepper, and
small fitting helpers used by the convergence studies.

Everything downstream treats these kernels as trusted instruments, so
their error behavior is pinned by tests (quadratic exactness, h**2 and
h**4 refinement factors) rather than assumed.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import keyword
import linecache
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "SpacetimeGrid",
    "SpatialGrid",
    "ComplexField",
    "PropagatorFactors",
    "LazyPropagator",
    "assemble_propagator",
    "finite_difference",
    "hamilton_jacobi",
    "transport",
    "decoupling",
    "simpson_weights",
    "cumulative_simpson",
    "VectorField",
    "rk4_solve",
    "step_count",
    "at_time",
    "fit_loglog_slope",
    "observed_orders",
]

# Most steps one RK4 or Crank-Nicolson run may take; checked before anything
# is allocated.
MAX_STEPS = 10**6


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacetimeGrid:
    """Uniform rectangular grid over [x_min, x_max] x [t_min, t_max].

    Every node is read: a family with a singular time (a caustic, or t = 0
    for the free particle) refuses a grid whose span holds it.
    """

    x_min: float
    x_max: float
    n_x: int
    t_min: float
    t_max: float
    n_t: int

    def __post_init__(self) -> None:
        if self.n_x < 4 or self.n_t < 4:
            raise ValueError(
                f"grid too small: n_x={self.n_x}, n_t={self.n_t} (need >= 4 each)"
            )
        if not (self.x_max > self.x_min) or not (self.t_max > self.t_min):
            raise ValueError("grid extents must satisfy x_max > x_min and t_max > t_min")

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
    """Complex-valued samples on a SpacetimeGrid.

    ``values[i, j]`` is the sample at (x_i, t_j).  Values must be finite
    at every node; construction fails loudly otherwise, naming the node.
    """

    def __init__(self, grid: SpacetimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_x, grid.n_t):
            raise ValueError(
                f"field shape {values.shape} does not match grid "
                f"({grid.n_x}, {grid.n_t})"
            )
        _require_finite(values, "field value", {"x": grid.x, "t": grid.t})
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid: SpacetimeGrid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ComplexField":
        return cls(grid, _sample(fn, grid.x, grid.t))

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """The samples at time columns lo:hi, a slice of ``values``."""
        return self.values[:, lo:hi]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _sample(fn: Callable[..., np.ndarray], *axes: np.ndarray, dtype=complex) -> np.ndarray:
    """fn on the open mesh np.ix_(*axes), broadcast to a new array on their product grid."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.asarray(fn(*np.ix_(*axes)), dtype=dtype)
    return np.broadcast_to(values, tuple(axis.size for axis in axes)).copy()


def _require_finite(values: np.ndarray, what: str, axes: Mapping | None = None, lo: int = 0) -> None:
    """Refuse the first non-finite sample: ``non-finite {what} at node (i=0, j=20), ...``."""
    _refuse_node(~np.isfinite(values), f"non-finite {what}", axes, lo)


def _refuse_node(bad: np.ndarray, what: str, axes: Mapping | None = None, lo: int = 0,
                 detail: Callable[[tuple], str] | None = None) -> None:
    """Raise ValueError("{what} at node (i=.., j=.., ...), x=.., t=..[, detail]") at
    the first node, in C order, where the boolean array ``bad`` holds: by index
    on each axis (i to z; a lattice has at most 12 axes), by coordinate on each
    of ``axes`` (names of 1-d arrays, in axis order; lattice sites pass none).
    ``bad`` holds the last axis from ``lo`` on.  ``detail(index into bad)`` is
    called only at the refused node, so the normal path formats no message."""
    if bad.any():
        local = np.unravel_index(int(np.argmax(bad)), bad.shape)
        node = [int(n) for n in local]
        if lo:
            node[-1] += lo
        indices = ", ".join(f"{'ijklmnopqrstuvwxyz'[a]}={n}" for a, n in enumerate(node))
        message = f"{what} at node ({indices})"
        for (name, axis), n in zip((axes or {}).items(), node):
            message += f", {name}={axis[n]:.6g}"
        if detail is not None:
            message += ", " + detail(local)
        raise ValueError(message)


# ---------------------------------------------------------------------------
# propagator assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagatorFactors:
    """The two factors of K = exp(R + i S / hbar) plus physical constants.

    R and S are closed-form callables f(x, t), sampled by broadcasting x
    (n_x, 1) against t (1, m): ``assemble_propagator`` samples the whole
    grid, a ``LazyPropagator`` a band of time columns at a time, which
    needs them to act pointwise.  Closed-form families additionally
    carry ``two_point_action`` S(x, x0, t) and ``time_amplitude`` R(t),
    which the Van Vleck and kernel-propagation checks need (the
    x0-dependence is not recoverable from single-source samples).
    """

    R: Callable[[np.ndarray, np.ndarray], np.ndarray]
    S: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hbar: float = 1.0
    mass: float = 1.0
    two_point_action: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    time_amplitude: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        # hbar^2 / (2 m) is the kinetic coefficient of the Schrodinger equation
        if not (self.mass > 0 and math.isfinite(self.hbar * self.hbar / (2.0 * self.mass))):
            raise ValueError(
                f"mass must be positive with hbar^2 / (2 mass) finite, got {self.mass}"
            )


@dataclass(frozen=True)
class LazyPropagator:
    """K = exp(R + i S / hbar) on a grid, assembled only where it is read.

    ``columns(lo, hi)`` samples both factors at the time columns lo:hi and
    assembles K there, so a reader that takes K a band of columns at a time
    never holds it whole.  For factors that act pointwise in (x, t), every
    column has the bits ``assemble_propagator`` gives it, and a bad node is
    reported as there, by its indices on the whole grid.
    """

    factors: PropagatorFactors
    grid: SpacetimeGrid

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """K at the time columns lo:hi, a new (n_x, hi - lo) array.

        Non-finite factor samples, non-finite exponents and exp overflow
        are reported with the offending node, never clamped.
        """
        grid, hbar = self.grid, self.factors.hbar
        axes = {"x": grid.x, "t": grid.t}
        r = _sample(self.factors.R, axes["x"], axes["t"][lo:hi])
        _require_finite(r, "field value", axes, lo)
        s = _sample(self.factors.S, axes["x"], axes["t"][lo:hi])
        _require_finite(s, "field value", axes, lo)
        # one buffer: the exponent r + 1j * s / hbar, then K in its place;
        # an overflow is refused by node, so it is not warned of as well
        with np.errstate(over="ignore", invalid="ignore"):
            k = 1j * s
            k /= hbar
            k += r
            _require_finite(k, "propagator exponent", axes, lo)
            np.exp(k, out=k)
        _refuse_node(~np.isfinite(k), "exp overflow assembling propagator", axes, lo,
                     lambda n: f"Re exponent={(r[n] + 1j * s[n] / hbar).real:.6g}")
        return k


def assemble_propagator(factors: PropagatorFactors, grid: SpacetimeGrid) -> ComplexField:
    """Evaluate K = exp(R + i S / hbar) on the grid: every column of
    ``LazyPropagator(factors, grid)`` at once.

    Both factors are sampled on ``grid``.  Non-finite exponents and exp
    overflow are reported with the offending node, never clamped.
    """
    return ComplexField(grid, LazyPropagator(factors, grid).columns(0, grid.n_t))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

_AXIS_NAMES = {"x": 0, "t": 1}


def finite_difference(field: ComplexField, axis: str, order: int) -> ComplexField:
    """Second-order-accurate derivative of a gridded field.

    axis is "x" or "t"; order is 1 or 2.  Interior nodes use central
    stencils; the two domain edges use one-sided stencils of the same
    accuracy.
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
    return ComplexField(field.grid, _stencil(field.values, h, ax, order))


def _stencil(values: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Raw-array form of ``finite_difference``: the derivative along ``axis``."""
    v = np.moveaxis(values, axis, 0)
    out = np.zeros_like(v)

    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    else:
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# the equations of K = exp(R + i S / hbar), order by order in hbar
# ---------------------------------------------------------------------------


def hamilton_jacobi(s_t, s_x, v, mass: float):
    """dS/dt + (dS/dx)^2 / (2m) + V, the O(hbar^0) equation, for S."""
    return s_t + s_x**2 / (2.0 * mass) + v


def transport(s_xx, r_t, mass: float):
    """d2S/dx2 + 2m dR/dt, the O(hbar) equation, for an R free of x."""
    return s_xx + 2.0 * mass * r_t


def decoupling(r_t, r_x, r_xx, mass: float, hbar: float) -> tuple[np.ndarray, float]:
    """2m dR/dt - i hbar [d2R/dx2 + (dR/dx)^2], whose hbar term is the O(hbar^2)
    equation, and its largest term max(|2m dR/dt|, hbar |d2R/dx2|, hbar |dR/dx|^2)."""
    rate = 2.0 * mass * r_t
    slope = float(np.max(np.abs(r_x)))
    terms = float(np.max(np.abs(rate))), hbar * float(np.max(np.abs(r_xx))), hbar * (slope * slope)
    return rate - 1j * hbar * (r_xx + r_x**2), max(terms)


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


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative along axis 0 of an array of any rank, tabulated at the
    sample nodes, A[0] = 0.

    Each subinterval is integrated with the quadratic through its three
    nearest samples, so the rule is exact for quadratics and fourth-order
    accurate per interval on smooth data.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 3:
        raise ValueError(f"cumulative Simpson needs >= 3 samples, got {n}")
    increments = np.empty((n - 1,) + values.shape[1:], dtype=values.dtype)
    # first interval: parabola through samples 0, 1, 2
    increments[0] = h * (5.0 * values[0] + 8.0 * values[1] - values[2]) / 12.0
    # interval k -> k+1: parabola through samples k-1, k, k+1
    increments[1:] = h * (-values[:-2] + 8.0 * values[1:-1] + 5.0 * values[2:]) / 12.0
    out = np.empty(values.shape, dtype=values.dtype)
    out[0] = 0.0
    np.cumsum(increments, axis=0, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# ODE stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """An ODE right-hand side written as source, for the fused RK4 loop.

    ``state`` names the components.  ``rates`` is one Python expression
    in those names, the time ``t`` and named constants that yields the
    rates in state order: a tuple literal of one expression per component,
    or any expression that evaluates to a sequence of that length.
    ``stop``, if given, is an expression in the new state and its time
    ``t`` that ends the run when true.  Every other name the expressions
    read, apart from builtins, is a constant (``constants``) whose value
    each ``rk4_solve`` call supplies.  Names that begin with an underscore
    belong to the generated loop and are refused, and so is any
    expression that binds a name of its own.

    The expressions are source code and are compiled as they stand, so
    they come only from module constants, never from user input.
    """

    state: tuple[str, ...]
    rates: str
    stop: str | None = None
    constants: tuple[str, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", tuple(self.state))
        if not self.state:
            raise ValueError("a vector field needs at least one state component, got none")
        if len(set(self.state)) != len(self.state):
            raise ValueError(f"state names repeat: {self.state}")
        for name in self.state:
            if not name.isidentifier() or keyword.iskeyword(name) or name == "t":
                raise ValueError(f"state name {name!r} is not an identifier other than 't'")
        rates, names = _expression(self.rates)
        if isinstance(rates, ast.Tuple) and len(rates.elts) != len(self.state):
            raise ValueError(
                f"rates list {len(rates.elts)} expressions for {len(self.state)} "
                f"state components"
            )
        free = set(names).union(_expression(self.stop)[1])
        constants = sorted(free - set(self.state) - {"t"} - set(vars(builtins)))
        for name in self.state + tuple(constants):
            if name.startswith("_"):
                raise ValueError(
                    f"name {name!r} collides with the RK4 loop's own names, "
                    f"which begin with an underscore"
                )
        object.__setattr__(self, "constants", tuple(constants))


def _expression(source: str | None) -> tuple[ast.expr, list[str]]:
    """The parsed expression and every name it reads, once per read.

    An expression that binds a name of its own is refused.
    """
    tree = ast.parse("None" if source is None else source, mode="eval").body
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.NamedExpr, ast.Lambda, ast.comprehension)):
            raise ValueError(f"expression {source!r} binds a name; write it without")
        if isinstance(node, ast.Name):
            names.append(node.id)
    return tree, names


# The fused RK4 step loop.  `_compile_rk4_steps` writes the four stages,
# the update and the stop test into it; the state components are the
# loop's parameters and the constants the factory's.  Each component keeps
# the operation order of y + (step/6)*(k1 + 2k2 + 2k3 + k4).
_RK4_TEMPLATE = """\
def _factory({constants}):
    def _steps({state}, _t0, _step, _n_steps, _out):
        _half, _sixth, _j = 0.5 * _step, _step / 6.0, 0
        for _k in _range(_n_steps):
{body}
            if not ({finite}){stop}:
                return _k + 1
        return None
    return _steps
"""

# Compiled step-loop factories, keyed by vector field.
_RK4_STEPS: dict[VectorField, Callable] = {}


def _rk4_steps(field: VectorField) -> Callable:
    """The step-loop factory for ``field``, compiled once per field.

    Called with the field's constants by keyword, it returns the loop.
    The loop runs ``_n_steps`` steps from the state components, packs
    each new state into the flat byte memoryview ``_out`` after the one
    before, and returns the index at which the state turned non-finite
    or the stop expression held, else None.
    """
    if field not in _RK4_STEPS:
        _RK4_STEPS[field] = _compile_rk4_steps(field, len(_RK4_STEPS))
    return _RK4_STEPS[field]


def _pasted(source: str, node: ast.expr) -> str:
    """The text of ``node`` as written in ``source``, bracketed if it spans lines."""
    text = ast.get_source_segment(source, node)
    return f"({text})" if "\n" in text else text


def _compile_rk4_steps(field: VectorField, number: int) -> Callable:
    """Generate and compile the step-loop factory of ``field``.

    The state names are the loop's variables and the rate and stop text
    is pasted in as written.  A step saves the components the rates read
    in ``_y{i}`` and rebinds them, and ``t`` if the rates read it, to each
    stage's point.  The source is kept in linecache under a file name with
    ``number``, so a traceback shows the failing rate in the flow's names.
    """
    state = field.state
    rates, names = _expression(field.rates)
    read = {i: name for i, name in enumerate(state) if name in names}
    body = [f"_y{i} = {name}" for i, name in read.items()]
    if "t" in names:
        body.append("t = _t = _t0 + _step * _k")
    for stage, out in enumerate("abcd"):
        if stage:
            step, prev = "_step" if stage == 3 else "_half", "abc"[stage - 1]
            body.extend(f"{name} = _y{i} + {step} * _{prev}{i}" for i, name in read.items())
            if "t" in names and stage != 2:  # stage 3 keeps stage 2's time
                body.append(f"t = _t + {step}")
        if isinstance(rates, ast.Tuple):
            body.extend(f"_{out}{i} = {_pasted(field.rates, e)}" for i, e in enumerate(rates.elts))
        else:
            outs = "".join(f"_{out}{i}, " for i in range(len(state)))
            body.append(f"{outs}= {_pasted(field.rates, rates)}")
    for i, name in enumerate(state):
        start = f"_y{i}" if i in read else name
        body.append(f"{name} = {start} + _sixth * (_a{i} + 2.0 * _b{i} + 2.0 * _c{i} + _d{i})")
    # _out is a flat byte view of the states; one pack_into writes a row
    row = struct.Struct(f"{len(state):d}d")
    body += [f"_j += {row.size:d}", f"_pack_into(_out, _j, {', '.join(state)})"]
    stop, stop_names = _expression(field.stop)
    if "t" in stop_names:
        body.append("t = _t0 + _step * (_k + 1)")
    source = _RK4_TEMPLATE.format(
        constants=", ".join(field.constants),
        state=", ".join(state),
        body="\n".join(" " * 12 + line for line in body),
        finite=" and ".join(f"_isfinite({name})" for name in state),
        stop=f" or ({_pasted(field.stop, stop)})" if field.stop is not None else "",
    )
    filename = f"<rk4 step loop {number:d}: {', '.join(state)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    loop_globals = {"_isfinite": math.isfinite, "_pack_into": row.pack_into, "_range": range}
    exec(compile(source, filename, "exec"), loop_globals)
    return loop_globals["_factory"]


def rk4_solve(
    field: VectorField,
    y0: Sequence[float],
    t0: float,
    step: float,
    n_steps: int,
    constants: Mapping[str, object] | None = None,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Classical fixed-step RK4 of ``field`` with dense recording.

    ``constants`` gives a value to each of ``field.constants``, no more
    and no fewer.  Returns (t, Y, stopped_at): sample times (n+1,), states
    (n+1, dim), and the index at which the field's stop expression held or
    the state turned non-finite (truncating the arrays), else None.  A
    negative step integrates backward in time.  More than MAX_STEPS
    steps are refused, naming the step, before anything is allocated.

    The steps run in a loop generated for the field and compiled once:
    the rates are pasted as written into each of the four stages, in the
    operation order of y + (step/6)*(k1 + 2k2 + 2k3 + k4), and the
    constants enter as arguments, never as source.  Rates that are not a
    tuple literal and yield the wrong number of components raise
    ``ValueError`` when they are unpacked.
    """
    if step == 0:
        raise ValueError("step must be nonzero")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_step_budget(abs(step), n_steps)
    y = tuple(map(float, y0))
    if len(y) != len(field.state):
        raise ValueError(f"y0 holds {len(y)} components for the state {field.state}")
    constants = dict(constants or {})
    if set(constants) != set(field.constants):
        missing = sorted(set(field.constants) - set(constants))
        unexpected = sorted(set(constants) - set(field.constants))
        raise ValueError(
            f"constants must be exactly {list(field.constants)}: "
            f"missing {missing}, unexpected {unexpected}"
        )
    ts = t0 + step * np.arange(n_steps + 1)
    ys = np.empty((n_steps + 1, len(y)))
    ys[0] = y
    steps = _rk4_steps(field)(**constants)
    stopped_at = steps(*y, t0, step, n_steps, memoryview(ys).cast("B"))
    if stopped_at is not None:
        return ts[: stopped_at + 1], ys[: stopped_at + 1], stopped_at
    return ts, ys, None


def _check_step_budget(step: float, count: float) -> None:
    """Refuse ``count`` steps of ``step`` past MAX_STEPS, naming the step."""
    if not count <= MAX_STEPS + 0.5:
        raise ValueError(
            f"step {step!r} needs {count:.7g} steps, more than the budget of {MAX_STEPS}"
        )


def step_count(span: float, step: float) -> int:
    """round(span / step), the steps that cover ``span``.

    A step that is not positive, or a quotient that is not finite, rounds past
    MAX_STEPS or rounds to no step, is refused, naming the step, before it is
    converted: round() of an infinite float raises.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    quotient = span / step
    _check_step_budget(step, quotient)
    if not round(quotient) >= 1:
        raise ValueError(
            f"step {step!r} needs {quotient:.3g} steps to cover {span!r}, which round to none"
        )
    return int(round(quotient))


def at_time(g, t):
    """A time coefficient at t: a callable is called on t, a constant is returned as is."""
    return g(t) if callable(g) else g


# ---------------------------------------------------------------------------
# convergence fits
# ---------------------------------------------------------------------------


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x.

    The closed form of a straight-line fit, sum(dx dy) / sum(dx^2), with dx
    and dy the logs less their means.  Both sums are numpy reductions, not
    BLAS dot products, so the slope does not depend on the BLAS thread count.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need at least two matching samples for a slope fit")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive samples")
    # centred, and dy multiplied by dx, in place: a cosmo stiff fit takes
    # 31,501 samples, and each extra array of them shows in the peak RSS
    dx, dy = np.log(xs), np.log(ys)
    dx -= dx.mean()
    dy -= dy.mean()
    spread = np.sum(dx * dx)
    if not spread > 0.0:
        raise ValueError(
            f"xs: the logs of the samples must spread for a slope fit, got spread {spread!r}"
        )
    return float(np.sum(np.multiply(dx, dy, out=dy)) / spread)


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
