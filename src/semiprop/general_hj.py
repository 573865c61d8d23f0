"""Position-dependent amplitude exponents R(x, t) and their actions.

When the amplitude exponent of K = exp(R + i S / hbar) depends on x, the
Schrodinger equation reduces (given the Hamilton-Jacobi equation for S)
to one complex constraint,

    i [ d2S/dx2 + 2 (dR/dx)(dS/dx) + 2 m dR/dt ] + hbar [ d2R/dx2 + (dR/dx)^2 ] = 0,

whose general solution for S at each time is a double x-quadrature:

    S = f0 + int dx e^(-2R) ( f1 - int dx' e^(2R) [ 2 m dR/dt - i hbar (d2R/dx'2 + (dR/dx')^2) ] ).

This module builds that S by nested Simpson quadrature, evaluates the
decoupling residual 2 m dR/dt - i hbar [d2R/dx2 + (dR/dx)^2] (``core.decoupling``
over R's derivatives), whose zero set marks exponents with x-independent
actions, and carries two exact families: a log-of-cosine exponent and an
exponential-potential pair whose S satisfies the Hamilton-Jacobi equation
identically.  Each family supplies only its derivatives; the equations are
the ones in ``core``.

For real R the bracketed hbar-term is the only imaginary source, so
Im S is exactly linear in hbar; ``imaginary_scaling_probe`` measures
that slope.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    ComplexField,
    SpacetimeGrid,
    _require_finite,
    _sample,
    _stencil,
    at_time,
    cumulative_simpson,
    decoupling,
    fit_loglog_slope,
    hamilton_jacobi,
)

__all__ = [
    "GeneralAnsatz",
    "build_S_from_R",
    "decoupling_residual",
    "DecouplingField",
    "imaginary_scaling_probe",
    "ImaginaryScalingReport",
    "cos_log_family",
    "exponential_family",
    "exponential_family_residuals",
    "X_EDGE",
]

# The exact families are checked on x in [-X_EDGE, X_EDGE], and they refuse
# parameters whose closed forms overflow there.
X_EDGE = 2.0


@dataclass(frozen=True)
class GeneralAnsatz:
    """Amplitude exponent R(x, t) with the per-time action constants.

    R is a vectorized callable of (x, t).  f0 and f1 are constants or
    callables of t; they fix the two integration constants of the action
    quadrature at each time.  dR_dt, dR_dx and d2R_dx2 are analytic
    derivative callables of (x, t), given all three or none; without
    them the derivatives are second-order stencils on the sampling grid.
    """

    R: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f0: object = 0.0
    f1: object = 0.0
    hbar: float = 1.0
    mass: float = 1.0
    dR_dt: Callable | None = None
    dR_dx: Callable | None = None
    d2R_dx2: Callable | None = None

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        # the decoupling bracket takes 2m dR/dt
        if not (self.mass > 0 and math.isfinite(2.0 * self.mass)):
            raise ValueError(f"mass must be positive with 2 * mass finite, got {self.mass}")
        given = sum(d is not None for d in (self.dR_dt, self.dR_dx, self.d2R_dx2))
        if given not in (0, 3):
            raise ValueError(
                f"dR_dt, dR_dx and d2R_dx2 come all three or none, got {given} of them"
            )


def _bracket(
    ansatz: GeneralAnsatz, xs: np.ndarray, grid: SpacetimeGrid
) -> tuple[np.ndarray, np.ndarray, float]:
    """R on (xs, grid.t), the decoupling bracket 2m dR/dt - i hbar [d2R/dx2 +
    (dR/dx)^2] there and the largest of its terms.

    xs spans [x_min, x_max] uniformly.  The derivatives are the ansatz's
    analytic ones when it carries them, otherwise second-order stencils.
    """
    r = _sample(ansatz.R, xs, grid.t)
    _require_finite(r, "R", {"x": xs, "t": grid.t})
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if ansatz.dR_dt is None:
            h = (grid.x_max - grid.x_min) / (xs.size - 1)
            r_t = _stencil(r, grid.dt, 1, 1)
            r_x = _stencil(r, h, 0, 1)
            r_xx = _stencil(r, h, 0, 2)
        else:
            r_t, r_x, r_xx = (
                _sample(d, xs, grid.t) for d in (ansatz.dR_dt, ansatz.dR_dx, ansatz.d2R_dx2)
            )
        bracket, largest = decoupling(r_t, r_x, r_xx, ansatz.mass, ansatz.hbar)
    return r, bracket, largest


def build_S_from_R(ansatz: GeneralAnsatz, grid: SpacetimeGrid) -> ComplexField:
    """Action field of ``ansatz`` from the double x-quadrature, sampled at
    the grid nodes.

    The quadrature runs on the spatial grid with one midpoint added per
    cell, one Simpson panel per cell, so S lands back on the grid.  The
    inner antiderivative is tabulated cumulatively from x_min; f0 and f1
    absorb the lower-limit constants.
    """
    xs = np.linspace(grid.x_min, grid.x_max, 2 * grid.n_x - 1)
    hs = (grid.x_max - grid.x_min) / (2 * (grid.n_x - 1))
    r, bracket, _ = _bracket(ansatz, xs, grid)
    axes = {"x": xs, "t": grid.t}
    with np.errstate(over="ignore", invalid="ignore"):
        e_plus = np.exp(2.0 * r)
        e_minus = np.exp(-2.0 * r)
    _require_finite(e_plus, "exp(2R)", axes)
    _require_finite(e_minus, "exp(-2R)", axes)
    # f0 and f1 are called on one time at a time: on an array of times a
    # callable may round differently, through numpy's vector loops
    f0, f1 = (np.array([complex(at_time(f, t)) for t in grid.t]) for f in (ansatz.f0, ansatz.f1))
    a_tab = cumulative_simpson(e_plus * bracket, hs)
    s_tab = cumulative_simpson(e_minus * (f1 - a_tab), hs)
    return ComplexField(grid=grid, values=f0 + s_tab[::2])


class DecouplingField(ComplexField):
    """The decoupling residual on a grid, with ``largest``, the largest of its
    terms |2m dR/dt|, hbar |d2R/dx2| and hbar |dR/dx|^2 there."""

    def __init__(self, grid: SpacetimeGrid, values: np.ndarray, largest: float):
        super().__init__(grid, values)
        self.largest = largest


def decoupling_residual(ansatz: GeneralAnsatz, grid: SpacetimeGrid) -> DecouplingField:
    """2m dR/dt - i hbar [d2R/dx2 + (dR/dx)^2] of ``ansatz`` nodewise.

    Zero exactly when the x-dependence of R decouples from the action
    quadrature (the inner integrand above vanishes).  With stencil
    derivatives the accuracy is O(h^2).
    """
    _, bracket, largest = _bracket(ansatz, grid.x, grid)
    return DecouplingField(grid, bracket, largest)


@dataclass(frozen=True)
class ImaginaryScalingReport:
    samples: tuple[tuple[float, float], ...]
    slope: float | None
    vacuous: bool


def imaginary_scaling_probe(
    ansatz: GeneralAnsatz, hbars: Sequence[float], grid: SpacetimeGrid
) -> ImaginaryScalingReport:
    """Norm of Im S versus hbar for the real amplitude exponent of
    ``ansatz``, whose action is built again at each hbar.

    For real R (and real f0, f1) the only imaginary source in the action
    quadrature is the explicit i*hbar term, so ||Im S|| must scale
    exactly linearly in hbar.  Returns the per-hbar norms and the fitted
    log-log slope; when R has no x-dependence Im S vanishes identically
    and the fit is flagged vacuous instead of raising.
    """
    values = [float(h) for h in hbars]
    if len(set(values)) < 3:
        raise ValueError(f"hbars must hold at least three distinct values, got {hbars!r}")
    if any(h <= 0 for h in values):
        raise ValueError(f"hbars must all be positive, got {hbars!r}")
    r_vals = _sample(ansatz.R, grid.x, grid.t)
    if np.max(np.abs(r_vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(r_vals.real))):
        raise ValueError("imaginary_scaling_probe requires a real R")
    norms = []
    for hb in values:
        s_field = build_S_from_R(replace(ansatz, hbar=hb), grid)
        norms.append(float(np.max(np.abs(s_field.values.imag))))
    vacuous = max(norms) < 1e-13
    slope = None if vacuous else fit_loglog_slope(values, norms)
    return ImaginaryScalingReport(samples=tuple(zip(values, norms)), slope=slope, vacuous=vacuous)


# ---------------------------------------------------------------------------
# exact family: log-of-cosine exponent
# ---------------------------------------------------------------------------


def _cos_iu(c2: complex, c3: complex, x: np.ndarray) -> np.ndarray:
    """cos(i c2 x + c3) = cos(c3) cosh(c2 x) - i sin(c3) sinh(c2 x)."""
    u = np.asarray(c2 * np.asarray(x, dtype=complex))
    return np.cos(complex(c3)) * np.cosh(u) - 1j * np.sin(complex(c3)) * np.sinh(u)


def _log_unwrapped(w: np.ndarray) -> np.ndarray:
    """Complex log with the phase unwrapped along the leading (x) axis."""
    w = np.asarray(w, dtype=complex)
    phase = np.angle(w)
    if w.ndim >= 1 and w.shape[0] > 1:
        phase = np.unwrap(phase, axis=0)
    return np.log(np.abs(w)) + 1j * phase


def cos_log_family(
    c2: complex,
    c3: complex = 0.0,
    c4: complex = 0.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> GeneralAnsatz:
    """Exact zero of the decoupling residual:

        R = ln cos(i c2 x + c3) + i hbar c2^2 t / (2m) + c4.

    2m dR/dt = i hbar c2^2 while d2R/dx2 + (dR/dx)^2 = c2^2 (sec^2 -
    tan^2) = c2^2, so the residual cancels identically.  The cosine of
    an imaginary argument is evaluated through cosh/sinh and the
    logarithm's branch is kept continuous along x.  Refuses a mass that
    is not positive (the rate divides by it), a c2 whose rate overflows and
    a c2 whose squared cosine overflows at |x| = X_EDGE.
    """
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    c2 = complex(c2)
    c3 = complex(c3)
    c4 = complex(c4)
    # complex * overflows to inf where ** would raise
    c2_sq = c2 * c2
    rate = 1j * hbar * c2_sq / (2.0 * mass)
    if not cmath.isfinite(rate):
        raise ValueError(
            f"c2 = {c2!r} with hbar = {hbar!r} and mass = {mass!r} overflows the "
            "rate i hbar c2^2 / (2m)"
        )
    # |cos(i c2 x + c3)| grows with |Re(c2) x|, so the edges bound it; its
    # square overflows first, and d2R/dx2 = c2^2 / cos^2 divides by it
    with np.errstate(over="ignore", invalid="ignore"):
        edge = _cos_iu(c2, c3, np.array([-X_EDGE, X_EDGE])) ** 2
    if not np.all(np.isfinite(edge)):
        raise ValueError(
            f"c2 = {c2!r} with c3 = {c3!r} overflows cos^2(i c2 x + c3), "
            f"which d2R/dx2 divides by, at |x| = {X_EDGE}"
        )

    def r_fn(x, t):
        return _log_unwrapped(_cos_iu(c2, c3, x)) + rate * np.asarray(t) + c4

    def dr_dt(x, t):
        return rate + 0.0 * (np.asarray(x) + np.asarray(t))

    def u_of(x):
        return 1j * c2 * np.asarray(x, dtype=complex) + c3

    def dr_dx(x, t):
        # d/dx ln cos(u) = -i c2 tan(u)
        return -1j * c2 * np.tan(u_of(x)) + 0.0 * np.asarray(t)

    def d2r_dx2(x, t):
        return c2_sq / np.cos(u_of(x)) ** 2 + 0.0 * np.asarray(t)

    return GeneralAnsatz(
        R=r_fn,
        hbar=hbar,
        mass=mass,
        dR_dt=dr_dt,
        dR_dx=dr_dx,
        d2R_dx2=d2r_dx2,
    )


# ---------------------------------------------------------------------------
# exact family: exponential potential
# ---------------------------------------------------------------------------


def _exponential_parameters(
    amplitude: float, slope: float, hbar: float, mass: float
) -> tuple[float, float, float]:
    """(A, b, e^(|b| X_EDGE)) of V = A e^(b x), refused unless b != 0, A > 0,
    hbar > 0, m > 0, the rate i hbar b^2 / (32 m) is finite and so are, on
    |x| <= X_EDGE, (dS/dx)^2 = -2 m A e^(b x) and A e^(b x), the size of
    (dS/dx)^2 / (2m) and of V."""
    a, b = float(amplitude), float(slope)
    if b == 0.0:
        raise ValueError("slope b must be nonzero")
    if a <= 0.0:
        raise ValueError(f"amplitude A must be positive, got {a}")
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    # float * overflows to inf where the family's b**2 would raise
    if not math.isfinite(hbar * (b * b) / (32.0 * mass)):
        raise ValueError(
            f"slope b = {b!r} with hbar = {hbar!r} and mass = {mass!r} overflows "
            "the rate i hbar b^2 / (32 m)"
        )
    try:
        growth = math.exp(abs(b) * X_EDGE)
    except OverflowError:
        growth = math.inf
    if not (math.isfinite(a * growth) and math.isfinite(2.0 * mass * a * growth)):
        raise ValueError(
            f"slope b = {b!r} with amplitude A = {a!r} and mass = {mass!r} "
            f"overflows A e^(b x) or 2 m A e^(b x) at |x| = {X_EDGE}"
        )
    return a, b, growth


def exponential_family(
    amplitude: float = 1.0,
    slope: float = 1.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> tuple[GeneralAnsatz, Callable, Callable]:
    """Exact (R, S, V) triple for V = A e^(b x):

        R = i hbar b^2 t / (32 m) - b x / 4
        S = (2 i sqrt(2 m A) / b) e^(b x / 2)

    Returns (ansatz, S(x, t), V(x, t)); K = exp(R + iS/hbar) solves the
    Schrodinger equation with this V identically, and S alone solves the
    Hamilton-Jacobi equation since (dS/dx)^2 / (2m) = -A e^(b x).
    """
    a, b, _ = _exponential_parameters(amplitude, slope, hbar, mass)
    rate = 1j * hbar * b**2 / (32.0 * mass)
    s_coef = 2j * math.sqrt(2.0 * mass * a) / b

    def r_fn(x, t):
        return rate * np.asarray(t, dtype=complex) - b * np.asarray(x) / 4.0

    def dr_dt(x, t):
        return rate + 0.0 * (np.asarray(x) + np.asarray(t))

    def dr_dx(x, t):
        return -b / 4.0 + 0.0j + 0.0 * (np.asarray(x) + np.asarray(t))

    def d2r_dx2(x, t):
        return 0.0j + 0.0 * (np.asarray(x) + np.asarray(t))

    ansatz = GeneralAnsatz(
        R=r_fn,
        hbar=hbar,
        mass=mass,
        dR_dt=dr_dt,
        dR_dx=dr_dx,
        d2R_dx2=d2r_dx2,
    )

    def s_fn(x, t):
        return s_coef * np.exp(b * np.asarray(x, dtype=complex) / 2.0) + 0.0 * np.asarray(t)

    def v_fn(x, t):
        return a * np.exp(b * np.asarray(x, dtype=float)) + 0.0 * np.asarray(t)

    return ansatz, s_fn, v_fn


def _exponential_action_slope(x, amplitude: float, slope: float, mass: float):
    """dS/dx = i sqrt(2 m A) e^(b x / 2) of the exponential pair."""
    return 1j * math.sqrt(2.0 * mass * amplitude) * np.exp(slope * x / 2.0)


def exponential_family_residuals(
    amplitude: float = 1.0,
    slope: float = 1.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> dict[str, float]:
    """Residuals of the exponential-potential pair on 101 points of
    [-X_EDGE, X_EDGE], from the family's analytic derivatives.

    hamilton_jacobi: dS/dt + (dS/dx)^2/(2m) + V with dS/dt = 0, exactly zero
    since (dS/dx)^2 = (i sqrt(2mA))^2 e^(bx) = -2mA e^(bx).
    decoupling: the decoupling residual of the family's ansatz, exactly zero
    since 2m dR/dt = i hbar b^2/16 = i hbar (dR/dx)^2 and d2R/dx2 = 0.
    """
    ansatz, _, v_fn = exponential_family(amplitude, slope, hbar, mass)
    grid = SpacetimeGrid(x_min=-X_EDGE, x_max=X_EDGE, n_x=101, t_min=0.0, t_max=1.0, n_t=4)
    s_x = _exponential_action_slope(grid.x, amplitude, slope, mass)
    hj = hamilton_jacobi(0.0, s_x, v_fn(grid.x, 0.0), mass)
    return {
        "hamilton_jacobi": float(np.max(np.abs(hj))),
        "decoupling": decoupling_residual(ansatz, grid).max_abs(),
    }
