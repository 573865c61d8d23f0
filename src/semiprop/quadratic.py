"""Propagator factors for quadratic potentials V = g2(t) x^2 + g1(t) x + g0(t).

With a space-independent amplitude, R = R(t), the factor pair of
K = exp(R + i S / hbar) closes on the polynomial template

    S(x, t) = f0(t) + f1(t) x - m R'(t) x^2,

and the Schrodinger equation splits into three ordinary differential
equations in time:

    m R''  = 2 m (R')^2 + g2
    f1'    = 2 R' f1 - g1
    f0'    = -g0 - f1^2 / (2 m)

together with the consistency relation d2S/dx2 + 2 m dR/dt = 0, which the
template satisfies identically.  This module integrates that system with
RK4, carries the two closed-form families (free particle and harmonic
oscillator) with their exact R and two-point S, identifies exp(R) with
the Van Vleck determinant.

Caveat on the driven family: the tan/sec reference solutions used for
verification fix f0 through f0' = -g0 - f1^2/(2m) above.  A variant
f0' = (m/2) f1^2 + g0 circulates for this family but fails direct
substitution into the Hamilton-Jacobi equation, so it is not used here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    PropagatorFactors,
    SpacetimeGrid,
    VectorField,
    at_time,
    rk4_solve,
    rk4_step_count,
)

__all__ = [
    "QuadraticPotential",
    "PrefactorSolution",
    "solve_prefactor_odes",
    "free_particle_factors",
    "harmonic_factors",
    "free_particle_identity_residuals",
    "harmonic_identity_residuals",
    "van_vleck_check",
    "VanVleckReport",
    "riccati_tan_reference",
    "PREFACTOR_CASES",
    "prefactor_error",
]

# |dR/dt| beyond this is treated as a caustic approach and truncates the solve.
BLOW_UP_BOUND = 1.0e6


@dataclass(frozen=True)
class QuadraticPotential:
    """Coefficients of V(x, t) = g2(t) x^2 + g1(t) x + g0(t).

    Each coefficient is a constant or a vectorized callable of t.
    """

    g2: object = 0.0
    g1: object = 0.0
    g0: object = 0.0

    def value(self, x, t):
        x = np.asarray(x, dtype=float)
        return at_time(self.g2, t) * x**2 + at_time(self.g1, t) * x + at_time(self.g0, t)


@dataclass(frozen=True)
class PrefactorSolution:
    """Sampled solution of the prefactor ODE system.

    Arrays share the sample times ``t``.  ``dR`` is dR/dt.  When the
    integration hit the blow-up bound the arrays stop there and
    ``blow_up_time`` records the truncation time.
    """

    t: np.ndarray
    R: np.ndarray
    dR: np.ndarray
    f1: np.ndarray
    f0: np.ndarray
    blow_up_time: float | None = None


def _prefactor_rates(call: bool) -> str:
    """The prefactor rates; with ``call`` each coefficient is read as float(g(t))."""
    g2, g1, g0 = (f"float({name}(t))" if call else name for name in ("g2", "g1", "g0"))
    return f"u, 2.0 * u * u + {g2} / mass, 2.0 * u * f1 - {g1}, -{g0} - f1 * f1 / (2.0 * mass)"


# The flows of solve_prefactor_odes, keyed by whether any of (g2, g1, g0)
# is callable.  With none, each coefficient is bound as a float.  With
# one, each constant is bound as a callable that returns its float, so
# float(g(t)) reads the same value.  |u| past BLOW_UP_BOUND stops the run.
PREFACTOR_FLOWS = {
    call: VectorField(
        state=("R", "u", "f1", "f0"), rates=_prefactor_rates(call), stop="abs(u) > bound"
    )
    for call in (False, True)
}


def solve_prefactor_odes(
    potential: QuadraticPotential,
    init: Sequence[float],
    t_window: Sequence[float],
    step: float,
    t0: float | None = None,
    mass: float = 1.0,
) -> PrefactorSolution:
    """Integrate the prefactor system over t_window = (lo, hi).

    init = (R, dR/dt, f1, f0) holds at the reference time t0, which
    defaults to the window start but may sit strictly inside the window
    (the natural place to match closed forms that are singular at an
    edge).  The solve then sweeps backward to the start and forward to
    the end with the same step, merging both legs on one ascending axis.

    The state derivative is
        R' = u,  u' = 2 u^2 + g2/m,  f1' = 2 u f1 - g1,  f0' = -g0 - f1^2/(2m).
    |u| crossing BLOW_UP_BOUND marks a caustic approach: the
    affected leg is truncated there and the truncation time reported
    (the forward one if both legs truncate), never smoothed over.
    """
    lo, hi = map(float, t_window)
    if not hi > lo:
        raise ValueError(f"need an increasing window, got [{lo}, {hi}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if t0 is None:
        t0 = lo
    if not (lo <= t0 <= hi):
        raise ValueError(f"reference time {t0} lies outside the window [{lo}, {hi}]")
    y_init = [float(v) for v in init]
    coefficients = {"g2": potential.g2, "g1": potential.g1, "g0": potential.g0}
    call = any(map(callable, coefficients.values()))
    flow = PREFACTOR_FLOWS[call]
    constants = {
        name: g if callable(g) else (lambda t, c=float(g): c) if call else float(g)
        for name, g in coefficients.items()
    }
    constants.update(mass=mass, bound=BLOW_UP_BOUND)

    back = forth = None
    if t0 - lo > 0.5 * step:
        n_back = max(1, rk4_step_count(t0 - lo, step))
        back = rk4_solve(flow, y_init, t0, -step, n_back, constants)
    if hi - t0 > 0.5 * step:
        n_forth = max(1, rk4_step_count(hi - t0, step))
        forth = rk4_solve(flow, y_init, t0, step, n_forth, constants)
    if back is None and forth is None:
        raise ValueError(
            f"window [{lo}, {hi}] is shorter than one step on both sides of "
            f"t0 = {t0}: step = {step!r}"
        )

    blow_up_time: float | None = None
    parts_t, parts_y = [], []
    if back is not None:
        ts_b, ys_b, stop_b = back
        if stop_b is not None:
            blow_up_time = float(ts_b[stop_b])
        keep = slice(1, None) if forth is not None else slice(None)
        parts_t.append(ts_b[keep][::-1])
        parts_y.append(ys_b[keep][::-1])
    if forth is not None:
        ts_f, ys_f, stop_f = forth
        if stop_f is not None:
            blow_up_time = float(ts_f[stop_f])
        parts_t.append(ts_f)
        parts_y.append(ys_f)
    ts = np.concatenate(parts_t)
    ys = np.concatenate(parts_y)
    return PrefactorSolution(
        t=ts,
        R=ys[:, 0],
        dR=ys[:, 1],
        f1=ys[:, 2],
        f0=ys[:, 3],
        blow_up_time=blow_up_time,
    )


def riccati_tan_reference(
    t: np.ndarray,
    init: Sequence[float],
    t0: float,
    omega: float,
    g0_const: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form prefactor solution for m = 1, g2 = omega^2 / 2, g1 = 0, g0 const.

    dR/dt = (omega/2) tan(omega t + c0) and f1 = c1 sec(omega t + c0),
    with c0, c1 fixed by the initial data; R and f0 follow by quadrature:

        R  = R0 - (1/2) ln[ cos(omega t + c0) / cos(omega t0 + c0) ]
        f0 = f00 - g0 (t - t0)
             - (c1^2 / (2 m omega)) [ tan(omega t + c0) - tan(omega t0 + c0) ]

    The free particle (omega -> 0) and the oscillator amplitude
    -(omega/2) cot(omega t) (a phase shift c0 = -pi/2 - omega t0') are
    members of the same family.  Valid only while omega t + c0 stays
    inside one branch of tan.
    """
    t = np.asarray(t, dtype=float)
    r0, u0, f10, f00 = map(float, init)
    c0 = math.atan2(2.0 * u0, omega) - omega * t0
    phase0 = omega * t0 + c0
    phase = omega * t + c0
    if np.any(np.cos(phase) <= 0) or math.cos(phase0) <= 0:
        raise ValueError("reference window crosses a tan branch point")
    c1 = f10 * math.cos(phase0)
    dR = 0.5 * omega * np.tan(phase)
    R = r0 - 0.5 * (np.log(np.cos(phase)) - math.log(math.cos(phase0)))
    f1 = c1 / np.cos(phase)
    f0 = (
        f00
        - g0_const * (t - t0)
        - (c1**2 / (2.0 * omega)) * (np.tan(phase) - math.tan(phase0))
    )
    return R, dR, f1, f0


# Prefactor-ODE cases with closed-form solutions, shared by the CLI check
# and the acceptance test: family -> (potential, init, window, t0).
PREFACTOR_CASES = {
    "free": (QuadraticPotential(), (0.0, -0.5, 0.8, 0.2), (1.0, 2.0), None),
    "harmonic": (
        QuadraticPotential(g2=0.5),
        (0.0, 0.0, 0.0, 0.0),
        (math.pi / 4.0, 3.0 * math.pi / 4.0),
        math.pi / 2.0,
    ),
    "driven": (
        QuadraticPotential(g2=2.0, g0=0.5),
        (0.0, 0.309336249609623233, 1.25610192184570272, 0.0),
        (0.0, 0.5),
        None,
    ),
}


def prefactor_error(family: str, sol: PrefactorSolution) -> float:
    """Max deviation of (R, dR, f1, f0) from the family's closed form."""
    t = sol.t
    if family == "free":
        refs = (-0.5 * np.log(t), -0.5 / t, 0.8 / t, 0.2 - 0.32 * (1.0 - 1.0 / t))
    elif family == "harmonic":
        refs = (
            -0.5 * np.log(np.sin(t)),
            -0.5 * np.cos(t) / np.sin(t),
            np.zeros_like(t),
            np.zeros_like(t),
        )
    else:
        refs = riccati_tan_reference(
            t, PREFACTOR_CASES["driven"][1], 0.0, 2.0, g0_const=0.5
        )
    series = (sol.R, sol.dR, sol.f1, sol.f0)
    return max(float(np.max(np.abs(s - r))) for s, r in zip(series, refs))


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def _source_point(x0: float) -> float:
    """x0 as a float, refused unless its square is finite (every action squares it)."""
    x0 = float(x0)
    if not math.isfinite(x0 * x0):
        raise ValueError(f"x0 must be a real number with a finite square, got {x0!r}")
    return x0


def _check_slope_square(mass: float, reach: float, x0: float) -> None:
    """Refuse, naming mass and x0, a grid where (dS/dx)^2 leaves the float range.

    ``reach`` bounds |dS/dx| / mass over the grid; the Hamilton-Jacobi
    residual squares dS/dx, so both reach^2 and (mass * reach)^2 must stay
    finite.
    """
    slope = mass * reach
    if not (math.isfinite(reach * reach) and math.isfinite(slope * slope)):
        raise ValueError(
            f"mass {mass!r} with x0 {x0!r} takes (dS/dx)^2 past the float range "
            f"on this grid: |dS/dx| reaches {slope:.3g}"
        )


def free_particle_factors(
    grid: SpacetimeGrid,
    mass: float = 1.0,
    x0: float = 0.0,
    r_const: float = 0.0,
) -> PropagatorFactors:
    """Exact factors for V = 0 at hbar = 1:

        R = -(1/2) ln t + const,   S = m (x - x0)^2 / (2 t).

    Refuses a grid with t_min <= 0: the kernel is singular at coincidence.
    """
    x0 = _source_point(x0)
    if not grid.t_min > 0.0:
        raise ValueError(
            f"free-particle factors need t > 0; the grid starts at t_min={grid.t_min:.6g}"
        )

    def time_amplitude(t):
        return -0.5 * np.log(t) + r_const

    def two_point_action(x, xa, t):
        return mass * (x - xa) ** 2 / (2.0 * t)

    return PropagatorFactors(
        R=lambda x, t: time_amplitude(t) + 0.0 * x,
        S=lambda x, t: two_point_action(x, x0, t),
        mass=mass,
        two_point_action=two_point_action,
        time_amplitude=time_amplitude,
    )


def harmonic_factors(
    grid: SpacetimeGrid,
    mass: float = 1.0,
    omega: float = 1.0,
    x0: float = 0.0,
) -> PropagatorFactors:
    """Exact factors for V = (1/2) m omega^2 x^2 at hbar = 1:

        R = -(1/2) ln sin(omega t)
        S = (m omega / 2) [ (x0^2 + x^2) cot(omega t) - 2 x0 x csc(omega t) ]

    Caustics sit at omega t = n pi; construction refuses a grid whose time
    span holds one, and a time node where |sin(omega t)| < 1e-12.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    x0 = _source_point(x0)
    # the first caustic past t_min decides, so the cost is free of omega; one
    # within 1e-12 of an end is left to the node test below
    period = math.pi / omega
    tc = math.ceil((grid.t_min + 1e-12) / period) * period
    if tc <= grid.t_max - 1e-12:
        raise ValueError(
            f"omega = {omega!r} puts a caustic at t={tc:.6g} inside the grid's "
            f"time span [{grid.t_min:.6g}, {grid.t_max:.6g}]"
        )
    if np.any(np.abs(np.sin(omega * grid.t)) < 1.0e-12):
        raise ValueError(
            f"omega = {omega!r} puts a valid time node on a caustic: "
            "|sin(omega t)| < 1e-12 there"
        )

    def time_amplitude(t):
        sin_c = np.sin(omega * np.asarray(t, dtype=float)).astype(complex)
        return -0.5 * np.log(sin_c)

    def s2_fn(x, xa, t):
        s = np.sin(omega * t)
        c = np.cos(omega * t)
        return (mass * omega / 2.0) * ((xa**2 + x**2) * c / s - 2.0 * xa * x / s)

    return PropagatorFactors(
        R=lambda x, t: time_amplitude(t) + 0.0 * x,
        S=lambda x, t: s2_fn(x, x0, t),
        mass=mass,
        two_point_action=s2_fn,
        time_amplitude=time_amplitude,
    )


# ---------------------------------------------------------------------------
# analytic identity residuals
# ---------------------------------------------------------------------------


def free_particle_identity_residuals(
    grid: SpacetimeGrid, mass: float = 1.0, x0: float = 0.0
) -> dict[str, float]:
    """Hamilton-Jacobi and consistency residuals from analytic derivatives.

    HJ:  dS/dt + (dS/dx)^2 / (2m) + V = 0  with V = 0.
    Consistency:  d2S/dx2 + 2 m dR/dt = 0.
    """
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if not grid.t_min > 0.0:
        raise ValueError(
            f"free-particle identities need t > 0; the grid starts at t_min={grid.t_min:.6g}"
        )
    x0 = _source_point(x0)
    x = grid.x[:, None]
    t = grid.t[None, :]
    # |dS/dx| = m |x - x0| / t
    reach = (float(np.max(np.abs(x))) + abs(x0)) / float(np.min(t))
    _check_slope_square(mass, reach, x0)
    s_t = -mass * (x - x0) ** 2 / (2.0 * t**2)
    s_x = mass * (x - x0) / t
    hj = s_t + s_x**2 / (2.0 * mass)
    s_xx = mass / t
    dr_dt = -0.5 / t
    consistency = s_xx + 2.0 * mass * dr_dt
    return {
        "hamilton_jacobi": float(np.max(np.abs(hj))),
        "consistency": float(np.max(np.abs(consistency))),
    }


def harmonic_identity_residuals(
    grid: SpacetimeGrid, mass: float = 1.0, omega: float = 1.0, x0: float = 0.0
) -> dict[str, float]:
    """Analytic-derivative residuals for the oscillator family."""
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    # float ** raises where the square leaves the float range
    if not math.isfinite(mass * omega * omega):
        raise ValueError(f"omega must keep mass * omega^2 finite, got {omega!r}")
    x0 = _source_point(x0)
    x = grid.x[:, None]
    t = grid.t[None, :]
    s, c = np.sin(omega * t), np.cos(omega * t)
    # the residuals take csc^2 = 1 / sin^2, finite while |sin| > 1 / sqrt(float max)
    smallest = float(np.min(np.abs(s)))
    if not smallest > sys.float_info.max ** -0.5:
        raise ValueError(
            f"omega = {omega!r} brings |sin(omega t)| down to {smallest:.3g} on a "
            "valid time node, where csc^2 overflows"
        )
    # |dS/dx| = m |omega| |x cot - x0 csc| <= m |omega| (|x| + |x0|) |csc|
    reach = abs(omega) * (float(np.max(np.abs(x))) + abs(x0)) / smallest
    _check_slope_square(mass, reach, x0)
    csc = 1.0 / s
    cot = c / s
    s_t = (mass * omega**2 / 2.0) * (2.0 * x0 * x * csc * cot - (x0**2 + x**2) * csc**2)
    s_x = mass * omega * (x * cot - x0 * csc)
    v = 0.5 * mass * omega**2 * x**2
    hj = s_t + s_x**2 / (2.0 * mass) + v
    s_xx = mass * omega * cot
    dr_dt = -0.5 * omega * cot
    consistency = s_xx + 2.0 * mass * dr_dt
    return {
        "hamilton_jacobi": float(np.max(np.abs(hj))),
        "consistency": float(np.max(np.abs(consistency))),
    }


# ---------------------------------------------------------------------------
# Van Vleck identification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VanVleckReport:
    deviation: float
    constant: complex


def van_vleck_check(
    factors: PropagatorFactors,
    grid: SpacetimeGrid,
    x0_grid: Sequence[float],
) -> VanVleckReport:
    """Deviation of exp(R) / sqrt(D_VV) from a fitted constant.

    D_VV = -d2S/(dx dx0) is formed by mixed central finite differences of
    the two-point action.  For a genuine Van Vleck pair the prefactor is
    proportional to sqrt(D_VV), so the ratio above is time-independent;
    the report carries the max relative deviation from the fitted
    constant over all (x, x0, t) nodes.

    A real D_VV that is not positive at some node means the determinant
    has changed signature there; the node is reported and the check
    refuses rather than continuing onto another square-root branch.
    """
    if factors.two_point_action is None or factors.time_amplitude is None:
        raise ValueError(
            "van_vleck_check needs closed-form factors with a two-point action"
        )
    x0_grid = np.asarray(x0_grid, dtype=float)
    x = grid.x[:, None, None]
    xa = x0_grid[None, :, None]
    t = grid.t[None, None, :]
    h = grid.dx
    k = float(x0_grid[1] - x0_grid[0]) if x0_grid.size > 1 else grid.dx
    s2 = factors.two_point_action
    mixed = (
        s2(x + h, xa + k, t)
        - s2(x + h, xa - k, t)
        - s2(x - h, xa + k, t)
        + s2(x - h, xa - k, t)
    ) / (4.0 * h * k)
    d_vv = np.asarray(-mixed, dtype=complex)
    d_vv = np.broadcast_to(d_vv, np.broadcast_shapes(mixed.shape, t.shape))
    scale = float(np.max(np.abs(d_vv)))
    if np.max(np.abs(d_vv.imag)) <= 1.0e-9 * max(scale, 1.0e-300):
        bad = d_vv.real <= 0.0
        if np.any(bad):
            i, j, n = (int(v[0]) for v in np.nonzero(bad))
            t_flat = np.broadcast_to(t, d_vv.shape)
            raise ValueError(
                "Van Vleck signature breakdown: D_VV = "
                f"{d_vv.real[i, j, n]:.6g} <= 0 at x={grid.x[i]:.6g}, "
                f"x0={x0_grid[j]:.6g}, t={t_flat[i, j, n]:.6g}"
            )
    if np.any(np.abs(d_vv) < 1.0e-300):
        # the mixed difference of an action that scales with the mass rounds to 0
        raise ValueError(
            "degenerate Van Vleck determinant (zero mixed derivative): the "
            f"two-point action at mass = {factors.mass!r} is too small to difference"
        )
    amp = np.exp(np.asarray(factors.time_amplitude(t), dtype=complex))
    ratio = np.broadcast_to(amp / np.sqrt(d_vv), mixed.shape)
    constant = complex(ratio.mean())
    if abs(constant) < 1.0e-300:
        raise ValueError("fitted Van Vleck constant is zero")
    deviation = float(np.max(np.abs(ratio - constant)) / abs(constant))
    return VanVleckReport(deviation=deviation, constant=constant)
