"""Position-dependent amplitude exponents R(x, t) and their actions.

When the amplitude exponent of K = exp(R + i S / hbar) depends on x, the
Schrodinger equation reduces (given the Hamilton-Jacobi equation for S)
to one complex constraint,

    i [ d2S/dx2 + 2 (dR/dx)(dS/dx) + 2 m dR/dt ] + hbar [ d2R/dx2 + (dR/dx)^2 ] = 0,

whose general solution for S at each time is a double x-quadrature:

    S = f0 + int dx e^(-2R) ( f1 - int dx' e^(2R) [ 2 m dR/dt - i hbar (d2R/dx'2 + (dR/dx')^2) ] ).

This module builds that S by nested Simpson quadrature, evaluates the
decoupling residual 2 m dR/dt - i hbar [d2R/dx2 + (dR/dx)^2] whose zero
set marks exponents with x-independent actions, recovers the potential a
given action solves, and carries two exact families: a log-of-cosine
exponent and an exponential-potential pair whose S satisfies the
Hamilton-Jacobi equation identically.

For real R the bracketed hbar-term is the only imaginary source, so
Im S is exactly linear in hbar; ``imaginary_scaling_probe`` measures
that slope.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    ComplexField,
    SpacetimeGrid,
    _stencil,
    at_time,
    cumulative_simpson,
    finite_difference,
    fit_loglog_slope,
)

__all__ = [
    "GeneralAnsatz",
    "build_S_from_R",
    "decoupling_residual",
    "recover_potential",
    "imaginary_scaling_probe",
    "ImaginaryScalingReport",
    "cos_log_family",
    "cos_log_action",
    "cos_log_recovered_potential",
    "cos_log_quadrature_inputs",
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
    quadrature at each time.  Analytic derivative callables are used
    when supplied; otherwise derivatives fall back to second-order
    stencils on the sampling grid.
    """

    R: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f0: object = 0.0
    f1: object = 0.0
    hbar: float = 1.0
    mass: float = 1.0
    dR_dt: Callable | None = None
    dR_dx: Callable | None = None
    d2R_dx2: Callable | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    def has_analytic_derivatives(self) -> bool:
        return (
            self.dR_dt is not None
            and self.dR_dx is not None
            and self.d2R_dx2 is not None
        )


def _audit_exp(values: np.ndarray, xs: np.ndarray, t: float, sign: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"overflow in exp({sign}2R) at x={xs[k]:.6g}, t={t:.6g}"
        )


def build_S_from_R(
    ansatz: GeneralAnsatz, grid: SpacetimeGrid, n_panels: int | None = None
) -> ComplexField:
    """Action field from the double x-quadrature, sampled at the grid nodes.

    The quadrature runs on a refinement of the spatial grid (``n_panels``
    Simpson panels, default n_x - 1, always an integer multiple of the
    node spacing so S lands back on the grid).  The inner antiderivative
    is tabulated cumulatively from x_min; f0 and f1 absorb the
    lower-limit constants.  Excluded time slices are skipped and masked.
    """
    if n_panels is None:
        n_panels = grid.n_x - 1
    if n_panels < 1 or n_panels % (grid.n_x - 1) != 0:
        raise ValueError(
            f"n_panels={n_panels} must be a positive multiple of n_x-1={grid.n_x - 1}"
        )
    stride = 2 * n_panels // (grid.n_x - 1)
    xs = np.linspace(grid.x_min, grid.x_max, 2 * n_panels + 1)
    hs = (grid.x_max - grid.x_min) / (2 * n_panels)
    m, hbar = ansatz.mass, ansatz.hbar
    tmask = grid.time_mask()

    if ansatz.has_analytic_derivatives():
        col_ok = tmask
        r_t = r_x = r_xx = None
    else:
        # sample R over all valid times once and difference in t; columns
        # whose time stencil would read an excluded neighbor are dropped
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_all = np.asarray(
                ansatz.R(xs[:, None], grid.t[None, :]), dtype=complex
            )
        r_all = np.broadcast_to(r_all, (xs.size, grid.n_t)).copy()
        r_all[:, ~tmask] = 0.0
        if not np.all(np.isfinite(r_all[:, tmask])):
            raise ValueError("R is not finite on the working window")
        valid = np.broadcast_to(tmask, r_all.shape)
        r_t, t_ok = _stencil(r_all, valid, grid.dt, 1, 1)
        col_ok = t_ok[0]
        r_x, _ = _stencil(r_all, valid, hs, 0, 1)
        r_xx, _ = _stencil(r_all, valid, hs, 0, 2)

    values = np.zeros((grid.n_x, grid.n_t), dtype=complex)
    for j, t in enumerate(grid.t):
        if not col_ok[j]:
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_slice = np.asarray(ansatz.R(xs, t), dtype=complex)
            r_slice = np.broadcast_to(r_slice, xs.shape)
            if ansatz.has_analytic_derivatives():
                drt = np.broadcast_to(np.asarray(ansatz.dR_dt(xs, t), dtype=complex), xs.shape)
                drx = np.broadcast_to(np.asarray(ansatz.dR_dx(xs, t), dtype=complex), xs.shape)
                drxx = np.broadcast_to(np.asarray(ansatz.d2R_dx2(xs, t), dtype=complex), xs.shape)
            else:
                drt, drx, drxx = r_t[:, j], r_x[:, j], r_xx[:, j]
            e_plus = np.exp(2.0 * r_slice)
            e_minus = np.exp(-2.0 * r_slice)
        if not np.all(np.isfinite(r_slice)):
            k = int(np.flatnonzero(~np.isfinite(r_slice))[0])
            raise ValueError(f"R is not finite at x={xs[k]:.6g}, t={t:.6g}")
        _audit_exp(e_plus, xs, t, "+")
        _audit_exp(e_minus, xs, t, "-")
        inner = e_plus * (2.0 * m * drt - 1j * hbar * (drxx + drx**2))
        a_tab = cumulative_simpson(inner, hs)
        outer = e_minus * (complex(at_time(ansatz.f1, t)) - a_tab)
        s_tab = cumulative_simpson(outer, hs)
        values[:, j] = complex(at_time(ansatz.f0, t)) + s_tab[::stride]
    mask = grid.node_mask() & col_ok[None, :]
    return ComplexField(grid=grid, values=values, mask=mask)


def decoupling_residual(
    R,
    grid: SpacetimeGrid,
    mass: float = 1.0,
    hbar: float = 1.0,
    dR_dt: Callable | None = None,
    dR_dx: Callable | None = None,
    d2R_dx2: Callable | None = None,
) -> ComplexField:
    """2m dR/dt - i hbar [d2R/dx2 + (dR/dx)^2] nodewise.

    Zero exactly when the x-dependence of R decouples from the action
    quadrature (the inner integrand above vanishes).  Analytic
    derivative callables are used when given; otherwise R is sampled on
    the grid and differenced, which limits accuracy to O(h^2).
    """
    if dR_dt is not None and dR_dx is not None and d2R_dx2 is not None:
        X, T = grid.mesh()
        drt = np.broadcast_to(np.asarray(dR_dt(X, T), dtype=complex), (grid.n_x, grid.n_t))
        drx = np.broadcast_to(np.asarray(dR_dx(X, T), dtype=complex), (grid.n_x, grid.n_t))
        drxx = np.broadcast_to(np.asarray(d2R_dx2(X, T), dtype=complex), (grid.n_x, grid.n_t))
        values = 2.0 * mass * drt - 1j * hbar * (drxx + drx**2)
        values = np.where(grid.node_mask(), values, 0.0)
        return ComplexField(grid=grid, values=values, mask=grid.node_mask())
    field = R if isinstance(R, ComplexField) else ComplexField.from_callable(grid, R)
    drt = finite_difference(field, "t", 1)
    drx = finite_difference(field, "x", 1)
    drxx = finite_difference(field, "x", 2)
    mask = drt.mask & drx.mask & drxx.mask
    values = 2.0 * mass * drt.values - 1j * hbar * (drxx.values + drx.values**2)
    values = np.where(mask, values, 0.0)
    return ComplexField(grid=grid, values=values, mask=mask)


def recover_potential(S: ComplexField, mass: float = 1.0, hbar: float = 1.0) -> ComplexField:
    """Potential the action solves: V = -dS/dt - (dS/dx)^2/(2m) nodewise.

    Derivatives are stencil-based, so the recovery is O(h^2) accurate;
    hbar is accepted for signature symmetry but does not enter.
    """
    del hbar
    s_t = finite_difference(S, "t", 1)
    s_x = finite_difference(S, "x", 1)
    mask = s_t.mask & s_x.mask
    values = -s_t.values - s_x.values**2 / (2.0 * mass)
    values = np.where(mask, values, 0.0)
    return ComplexField(grid=S.grid, values=values, mask=mask)


@dataclass(frozen=True)
class ImaginaryScalingReport:
    samples: tuple[tuple[float, float], ...]
    slope: float | None
    vacuous: bool


def imaginary_scaling_probe(
    R: Callable[[np.ndarray, np.ndarray], np.ndarray],
    hbars: Sequence[float],
    grid: SpacetimeGrid,
    mass: float = 1.0,
    f0: object = 0.0,
    f1: object = 0.0,
    dR_dt: Callable | None = None,
    dR_dx: Callable | None = None,
    d2R_dx2: Callable | None = None,
) -> ImaginaryScalingReport:
    """Norm of Im S versus hbar for a real amplitude exponent.

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
    X, T = grid.mesh()
    r_vals = np.asarray(R(X, T), dtype=complex)
    r_valid = np.broadcast_to(r_vals, (grid.n_x, grid.n_t))[grid.node_mask()]
    if np.max(np.abs(r_valid.imag)) > 1e-12 * max(1.0, np.max(np.abs(r_valid.real))):
        raise ValueError("imaginary_scaling_probe requires a real R")
    norms = []
    for hb in values:
        ansatz = GeneralAnsatz(
            R=R, f0=f0, f1=f1, hbar=hb, mass=mass,
            dR_dt=dR_dt, dR_dx=dR_dx, d2R_dx2=d2R_dx2,
        )
        s_field = build_S_from_R(ansatz, grid)
        im = np.abs(s_field.values.imag[s_field.mask])
        norms.append(float(im.max()) if im.size else 0.0)
    scale = max(norms)
    if scale < 1e-13:
        return ImaginaryScalingReport(
            samples=tuple(zip(values, norms)), slope=None, vacuous=True
        )
    slope = fit_loglog_slope(values, norms)
    return ImaginaryScalingReport(
        samples=tuple(zip(values, norms)), slope=slope, vacuous=False
    )


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
    a c2 whose cosine overflows at |x| = X_EDGE.
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
    # |cos(i c2 x + c3)| grows with |Re(c2) x|, so the edges bound it
    with np.errstate(over="ignore", invalid="ignore"):
        edge = np.abs(_cos_iu(c2, c3, np.array([-X_EDGE, X_EDGE])))
    if not np.all(np.isfinite(edge)):
        raise ValueError(
            f"c2 = {c2!r} with c3 = {c3!r} overflows the closed form "
            f"ln cos(i c2 x + c3) at |x| = {X_EDGE}"
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
        label="cos-log",
    )


def cos_log_action(
    c2: complex, c3: complex = 0.0, f1_const: complex = 1.0, f0_const: complex = 0.0
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Closed-form action of the family: S = -(i/c2) f1 tan(i c2 x + c3) + f0."""
    c2 = complex(c2)
    c3 = complex(c3)

    def s_fn(x, t):
        u = 1j * c2 * np.asarray(x, dtype=complex) + c3
        return -(1j / c2) * complex(f1_const) * np.tan(u) + complex(f0_const) + 0.0 * np.asarray(t)

    return s_fn


def cos_log_recovered_potential(
    c2: complex,
    c3: complex = 0.0,
    f1_const: complex = 1.0,
    mass: float = 1.0,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Potential recovered analytically from the constant-f1 action:

        V = -(f1^2 / 2m) sec^4(i c2 x + c3)

    (the dS/dt and time-dependent terms drop for constant f1, f0 = 0).
    """
    c2 = complex(c2)
    c3 = complex(c3)
    f1c = complex(f1_const)

    def v_fn(x, t):
        u = 1j * c2 * np.asarray(x, dtype=complex) + c3
        return -(f1c**2 / (2.0 * mass)) / np.cos(u) ** 4 + 0.0 * np.asarray(t)

    return v_fn


def cos_log_quadrature_inputs(
    c2: complex,
    c3: complex = 0.0,
    c4: complex = 0.0,
    f1_const: complex = 1.0,
    f0_const: complex = 0.0,
    hbar: float = 1.0,
    mass: float = 1.0,
    x_min: float = 0.0,
) -> tuple[Callable, complex]:
    """f1(t), f0 for build_S_from_R that land on the closed-form action.

    The closed form's f1 multiplies sec^2(u) directly, while the
    quadrature's outer integrand carries e^(-2R); the two agree when the
    quadrature f1 carries the compensating factor e^(2 c4 + i hbar c2^2
    t / m).  The x_min lower limit shifts f0 by the closed form's value
    there.
    """
    c2 = complex(c2)
    c3 = complex(c3)
    rate = 1j * hbar * c2**2 / mass

    def f1_fn(t):
        return complex(f1_const) * np.exp(2.0 * complex(c4) + rate * np.asarray(t))

    u_min = 1j * c2 * x_min + c3
    f0_quad = complex(f0_const) - (1j / c2) * complex(f1_const) * cmath.tan(u_min)
    return f1_fn, f0_quad


# ---------------------------------------------------------------------------
# exact family: exponential potential
# ---------------------------------------------------------------------------


def _exponential_parameters(
    amplitude: float, slope: float, hbar: float, mass: float
) -> tuple[float, float]:
    """(A, b) of V = A e^(b x), refused unless b != 0, A > 0, hbar > 0, m > 0,
    the rate i hbar b^2 / (32 m) is finite and so is 2 m A e^(b x), the
    Hamilton-Jacobi terms' size, on |x| <= X_EDGE."""
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
    if not math.isfinite(2.0 * mass * a * growth):
        raise ValueError(
            f"slope b = {b!r} with amplitude A = {a!r} and mass = {mass!r} "
            f"overflows 2 m A e^(b x) at |x| = {X_EDGE}"
        )
    return a, b


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
    a, b = _exponential_parameters(amplitude, slope, hbar, mass)
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
        label="exponential-potential",
    )

    def s_fn(x, t):
        return s_coef * np.exp(b * np.asarray(x, dtype=complex) / 2.0) + 0.0 * np.asarray(t)

    def v_fn(x, t):
        return a * np.exp(b * np.asarray(x, dtype=float)) + 0.0 * np.asarray(t)

    return ansatz, s_fn, v_fn


def exponential_family_residuals(
    amplitude: float = 1.0,
    slope: float = 1.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> dict[str, float]:
    """Analytic-derivative residuals of the exponential-potential pair on
    101 points of [-X_EDGE, X_EDGE].

    hamilton_jacobi: dS/dt + (dS/dx)^2/(2m) + V, exactly zero since
    (dS/dx)^2 = (i sqrt(2mA))^2 e^(bx) = -2mA e^(bx).
    decoupling: 2m dR/dt - i hbar [(b/4)^2] = i hbar b^2/16 - i hbar b^2/16.
    """
    a, b = _exponential_parameters(amplitude, slope, hbar, mass)
    x = np.linspace(-X_EDGE, X_EDGE, 101)
    s_x = 1j * math.sqrt(2.0 * mass * a) * np.exp(b * x / 2.0)
    hj = s_x**2 / (2.0 * mass) + a * np.exp(b * x)  # dS/dt = 0
    dec = 2.0 * mass * (1j * hbar * b**2 / (32.0 * mass)) - 1j * hbar * (b / 4.0) ** 2
    return {
        "hamilton_jacobi": float(np.max(np.abs(hj))),
        "decoupling": abs(dec),
    }
