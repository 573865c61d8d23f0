"""Homogeneous isotropic cosmology: constraint checks and split-action residuals.

Two operator normalizations coexist here and are deliberately never
converted into each other.  The constraint sector (evolve_classical,
friedmann_residual, relative_constraint, quantum_transport_residual) carries
the 2*pi/(3a) gravitational kinetic factor and matter kinetic term
p_phi^2/(2 a^3).  The split-action sector (complex_action_residuals,
closure_check, scale_factor_equation_residual) separates the action into
S_a(a, t) + S_phi(phi, t) + i S_g(a, t), uses a plain d^2/da^2 kinetic
normalization, and scales matter by 1/(16 pi a^3).  Each identity is
checked in its own convention.

Momentum map: p_a = -(3/(4 pi)) a adot and p_phi = a^3 phidot.  The p_a
constant and sign are forced by requiring the vanishing constraint to
reproduce the Friedmann equation (adot/a)^2 + k/a^2 = (8 pi/3)(phidot^2/2
+ V) + Lambda/3 with lapse fixed to one.

The matter potential is the mass term V = m^2 phi^2 / 2 (ScalarPotential).
FRIEDMANN_FLOW writes it into its rates, so its RK4 loop reads only numbers.

The closure residual squares a second derivative of S_g.  That is odd
dimensionally, but the expression is checked literally; this module never
repairs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import VectorField, rk4_solve, rk4_step_count

__all__ = [
    "ScalarPotential",
    "ZERO_POTENTIAL",
    "quadratic_potential",
    "CosmoParams",
    "ClassicalState",
    "Trajectory",
    "ComplexActionFields",
    "ActionGrids",
    "momenta",
    "matched_a_dot",
    "evolve_classical",
    "friedmann_residual",
    "relative_constraint",
    "klein_gordon_residual",
    "complex_action_residuals",
    "closure_check",
    "scale_factor_equation_residual",
    "quantum_transport_residual",
    "COLLAPSE_FRACTION",
    "FRIEDMANN_PRECHECK_TOL",
]

COLLAPSE_FRACTION = 1.0e-6
FRIEDMANN_PRECHECK_TOL = 1.0e-10

_PI = math.pi


@dataclass(frozen=True)
class ScalarPotential:
    """The mass term V(phi) = m^2 phi^2 / 2; v and dv take floats or arrays.

    v is ((m^2 / 2) phi) phi, so a massless V reads +0.0 at every finite
    phi, also where phi^2 alone overflows.
    """

    m_squared: float = 0.0

    def __post_init__(self) -> None:
        m2 = float(self.m_squared)
        if not math.isfinite(m2):
            raise ValueError(f"m_squared must be finite, got {m2!r}")
        object.__setattr__(self, "m_squared", m2)

    def v(self, phi):
        return 0.5 * self.m_squared * phi * phi

    def dv(self, phi):
        return self.m_squared * phi


ZERO_POTENTIAL = ScalarPotential()
quadratic_potential = ScalarPotential


@dataclass(frozen=True)
class CosmoParams:
    """Curvature k, cosmological constant Lambda and matter potential V."""

    k: int = 0
    lam: float = 0.0
    potential: ScalarPotential = ZERO_POTENTIAL

    def __post_init__(self) -> None:
        if self.k not in (-1, 0, 1):
            raise ValueError(f"curvature k must be -1, 0, or 1, got {self.k}")
        if not isinstance(self.potential, ScalarPotential):
            raise ValueError(f"potential must be a ScalarPotential, got {self.potential!r}")


@dataclass(frozen=True)
class _State:
    """Both state forms: every entry finite, the scale factor a > 0."""

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValueError("state contains non-finite entries")
        if not self.a > 0:
            raise ValueError(f"scale factor must be positive, got {self.a}")


@dataclass(frozen=True)
class ClassicalState(_State):
    """Velocity parameterization (a, adot, phi, phidot)."""

    a: float
    a_dot: float
    phi: float
    phi_dot: float


def momenta(a, a_dot, phi_dot):
    """(p_a, p_phi) under the module's momentum map, for floats or arrays."""
    return -(3.0 / (4.0 * _PI)) * a * a_dot, a**3 * phi_dot


def _constraint_terms(a, p_a, phi, p_phi, params: CosmoParams):
    """The five terms of the Hamiltonian constraint, in summation order."""
    yield -(2.0 * _PI / (3.0 * a)) * p_a**2
    yield -(3.0 * params.k / (8.0 * _PI)) * a
    yield (params.lam / (8.0 * _PI)) * a**3
    yield p_phi**2 / (2.0 * a**3)
    yield a**3 * params.potential.v(phi)


@dataclass(frozen=True)
class Trajectory:
    """Dense classical history: the samples only.  Each residual series is
    a function of the trajectory and the parameters."""

    t: np.ndarray
    a: np.ndarray
    a_dot: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    collapse_time: float | None = None


def _friedmann_series(a, a_dot, phi, phi_dot, params) -> np.ndarray:
    return (
        (a_dot / a) ** 2
        + params.k / a**2
        - (8.0 * _PI / 3.0) * (0.5 * phi_dot**2 + params.potential.v(phi))
        - params.lam / 3.0
    )


def matched_a_dot(
    a: float, phi: float, phi_dot: float, params: CosmoParams, expanding: bool = True
) -> float:
    """Expansion rate satisfying the Friedmann equation for the given data."""
    # the right side is minus the residual at adot = 0; 0.0 - keeps a zero at +0.0
    rhs = 0.0 - float(_friedmann_series(a, 0.0, phi, phi_dot, params))
    if not rhs >= 0.0:
        raise ValueError(
            f"no real expansion rate: Friedmann right side is {rhs:.3e}, not >= 0"
        )
    if rhs == math.inf:
        raise ValueError(
            "no finite expansion rate: Friedmann right side is inf, past the float range"
        )
    return (1.0 if expanding else -1.0) * a * math.sqrt(rhs)


# The classical flow of evolve_classical, with ScalarPotential's V and V' written out.
# float * overflows to inf where ** would raise; rk4_solve then truncates.
# The run stops once a falls to a_floor, COLLAPSE_FRACTION of its start.
FRIEDMANN_FLOW = VectorField(
    state=("a", "a_dot", "phi", "phi_dot"),
    rates=(
        "a_dot,"
        " (-(a_dot * a_dot) - k + lam * (a * a) - 4.0 * pi * (a * a) * (phi_dot * phi_dot)"
        " + 8.0 * pi * (a * a) * (0.5 * m2 * phi * phi)) / (2.0 * a),"
        " phi_dot,"
        " -3.0 * (a_dot / a) * phi_dot - m2 * phi"
    ),
    stop="a <= a_floor",
)


def evolve_classical(
    state0: ClassicalState,
    params: CosmoParams,
    t_window: tuple[float, float],
    step: float,
) -> Trajectory:
    """RK4 integration of the coupled scale-factor and matter equations.

        addot = (-adot^2 - k + Lambda a^2 - 4 pi a^2 phidot^2
                 + 8 pi a^2 V) / (2a)
        phiddot = -3 (adot/a) phidot - V'(phi)

    The acceleration comes from the constraint-consistent second-order
    form; on the constraint surface it equals the Raychaudhuri form.
    state0 holds at t_window[0]; off the Friedmann surface the call refuses.
    Collapse (a at or below COLLAPSE_FRACTION of the initial value, or a
    non-finite state) truncates the trajectory and records the time.
    """
    lo, hi = float(t_window[0]), float(t_window[1])
    if not hi > lo:
        raise ValueError(f"need an increasing window, got ({lo}, {hi})")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    fried0 = float(
        _friedmann_series(state0.a, state0.a_dot, state0.phi, state0.phi_dot, params)
    )
    if not abs(fried0) <= FRIEDMANN_PRECHECK_TOL:
        raise ValueError(
            "initial data violates the Friedmann constraint: residual "
            f"{fried0:.3e} exceeds {FRIEDMANN_PRECHECK_TOL:.0e}"
        )
    n_steps = rk4_step_count(hi - lo, step)
    if n_steps < 1:
        raise ValueError(
            f"window ({lo}, {hi}) is shorter than one step: step = {step!r}"
        )

    ts, ys, stopped = rk4_solve(
        FRIEDMANN_FLOW,
        (state0.a, state0.a_dot, state0.phi, state0.phi_dot),
        lo,
        step,
        n_steps,
        {
            "k": params.k,
            "lam": params.lam,
            "pi": _PI,
            "m2": params.potential.m_squared,
            "a_floor": COLLAPSE_FRACTION * state0.a,
        },
    )
    collapse_time = None
    if stopped is not None:
        collapse_time = float(ts[-1])
        ts, ys = ts[:-1], ys[:-1]
    a, a_dot, phi, phi_dot = ys.T
    return Trajectory(
        t=ts, a=a, a_dot=a_dot, phi=phi, phi_dot=phi_dot, collapse_time=collapse_time
    )


def _samples(trajectory: Trajectory) -> tuple[np.ndarray, ...]:
    """(a, adot, phi, phidot) as float arrays; an empty trajectory is refused."""
    if np.size(trajectory.t) == 0:
        raise ValueError("empty trajectory")
    return tuple(
        np.asarray(getattr(trajectory, name), dtype=float)
        for name in ("a", "a_dot", "phi", "phi_dot")
    )


def friedmann_residual(trajectory: Trajectory, params: CosmoParams) -> np.ndarray:
    """(adot/a)^2 + k/a^2 - (8 pi/3)(phidot^2/2 + V) - Lambda/3 per sample."""
    return _friedmann_series(*_samples(trajectory), params)


def relative_constraint(trajectory: Trajectory, params: CosmoParams) -> np.ndarray:
    """|constraint in momentum variables| over its largest single term, per sample."""
    a, a_dot, phi, phi_dot = _samples(trajectory)
    p_a, p_phi = momenta(a, a_dot, phi_dot)
    # term by term, summed in this order: a stack would hold all five series
    total = np.zeros(np.shape(a))
    scale = np.zeros(np.shape(a))
    for term in _constraint_terms(a, p_a, phi, p_phi, params):
        total += term
        np.maximum(scale, np.abs(term), out=scale)
    total = np.abs(total)
    return np.where(scale > 0.0, total / np.where(scale > 0.0, scale, 1.0), 0.0)


def klein_gordon_residual(trajectory: Trajectory, params: CosmoParams) -> np.ndarray:
    """phiddot + 3 (adot/a) phidot + V'(phi) with phiddot by stencil."""
    t = np.asarray(trajectory.t, dtype=float)
    if t.size < 3:
        raise ValueError("need at least three samples for the stencil")
    phi_dot = np.asarray(trajectory.phi_dot, dtype=float)
    phi_ddot = np.gradient(phi_dot, t, edge_order=2)
    a = np.asarray(trajectory.a, dtype=float)
    a_dot = np.asarray(trajectory.a_dot, dtype=float)
    dv = params.potential.dv(np.asarray(trajectory.phi, dtype=float))
    return phi_ddot + 3.0 * (a_dot / a) * phi_dot + dv


# ---------------------------------------------------------------------------
# split-action system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionGrids:
    """Strictly increasing sample axes; the a axis must stay positive."""

    a: np.ndarray
    phi: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "phi", "t"):
            axis = np.asarray(getattr(self, name), dtype=float)
            if axis.ndim != 1 or axis.size < 4:
                raise ValueError(f"{name} axis needs at least 4 samples")
            if not np.all(np.isfinite(axis)):
                raise ValueError(f"{name} axis contains non-finite samples")
            if not np.all(np.diff(axis) > 0):
                raise ValueError(f"{name} axis must be strictly increasing")
            object.__setattr__(self, name, axis)
        if not np.all(self.a > 0):
            raise ValueError("scale-factor axis must be positive")


@dataclass(frozen=True)
class ComplexActionFields:
    """S_a(a, t), S_phi(phi, t), S_g(a, t): callables of the two axes,
    or arrays already sampled on the matching product grid."""

    s_a: object
    s_phi: object
    s_g: object


def _sampled(field, axes: tuple[np.ndarray, ...], name: str) -> np.ndarray:
    """A field on the product grid of ``axes``: a callable is evaluated on
    the mesh, an array is shape-checked; either must be finite."""
    shape = tuple(axis.size for axis in axes)
    if callable(field):
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = np.broadcast_to(np.asarray(field(*mesh), dtype=float), shape).copy()
    else:
        vals = np.asarray(field, dtype=float)
        if vals.shape != shape:
            raise ValueError(f"{name} has shape {vals.shape}, grid expects {shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} contains non-finite samples")
    return vals


def _split_samples(
    fields: ComplexActionFields, grids: ActionGrids
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_a on a x t, S_phi on phi x t and S_g on a x t."""
    return (
        _sampled(fields.s_a, (grids.a, grids.t), "S_a"),
        _sampled(fields.s_phi, (grids.phi, grids.t), "S_phi"),
        _sampled(fields.s_g, (grids.a, grids.t), "S_g"),
    )


def complex_action_residuals(
    fields: ComplexActionFields, params: CosmoParams, grids: ActionGrids
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the split-action system.

    A (on the a x phi x t product grid):
        dS_phi/dt + (dS_phi/dphi)^2/(16 pi a^3) + 8 pi a^3 V
        + dS_a/dt + (dS_a/da)^2 + (Lambda/3) a^2 - k - (dS_g/da)^2
    B (on the a x t grid):
        dS_g/dt + 16 (dS_a/da)(dS_g/da)

    Derivatives are second-order stencils, so polynomial hand cases are
    exact to round-off.
    """
    a, phi, t = grids.a, grids.phi, grids.t
    s_a, s_p, s_g = _split_samples(fields, grids)
    sa_t = np.gradient(s_a, t, axis=1, edge_order=2)
    sa_a = np.gradient(s_a, a, axis=0, edge_order=2)
    sp_t = np.gradient(s_p, t, axis=1, edge_order=2)
    sp_p = np.gradient(s_p, phi, axis=0, edge_order=2)
    sg_t = np.gradient(s_g, t, axis=1, edge_order=2)
    sg_a = np.gradient(s_g, a, axis=0, edge_order=2)

    a_col = a[:, None, None]
    v_row = params.potential.v(phi)[None, :, None]
    res_a = (
        sp_t[None, :, :]
        + sp_p[None, :, :] ** 2 / (16.0 * _PI * a_col**3)
        + 8.0 * _PI * a_col**3 * v_row
        + sa_t[:, None, :]
        + sa_a[:, None, :] ** 2
        + (params.lam / 3.0) * a_col**2
        - params.k
        - sg_a[:, None, :] ** 2
    )
    res_b = sg_t + 16.0 * sa_a * sg_a
    return res_a, res_b


def closure_check(fields: ComplexActionFields, grids: ActionGrids) -> np.ndarray:
    """(d2S_g/da2)^2 - S_g/(4a) - (dS_a/dt + dS_phi/dt) on the product grid."""
    a, t = grids.a, grids.t
    s_a, s_p, s_g = _split_samples(fields, grids)
    sg_aa = np.gradient(
        np.gradient(s_g, a, axis=0, edge_order=2), a, axis=0, edge_order=2
    )
    sa_t = np.gradient(s_a, t, axis=1, edge_order=2)
    sp_t = np.gradient(s_p, t, axis=1, edge_order=2)
    a_col = grids.a[:, None, None]
    return (
        sg_aa[:, None, :] ** 2
        - s_g[:, None, :] / (4.0 * a_col)
        - sa_t[:, None, :]
        - sp_t[None, :, :]
    )


def scale_factor_equation_residual(
    trajectory: Trajectory, p_phi_series, params: CosmoParams
) -> np.ndarray:
    """2 a addot + adot^2 + k - Lambda a^2 - (p_phi^2/(16 pi a^3) + 8 pi a^3 V).

    addot comes from a stencil on the recorded adot, so the residual on an
    integrated trajectory carries an O(step^2) stencil floor.  p_phi is
    supplied by the caller because this sector's matter normalization
    differs from the momentum map of the constraint sector.
    """
    t = np.asarray(trajectory.t, dtype=float)
    if t.size < 3:
        raise ValueError("need at least three samples for the stencil")
    a = np.asarray(trajectory.a, dtype=float)
    a_dot = np.asarray(trajectory.a_dot, dtype=float)
    a_ddot = np.gradient(a_dot, t, edge_order=2)
    p_phi = np.broadcast_to(np.asarray(p_phi_series, dtype=float), a.shape)
    v = params.potential.v(np.asarray(trajectory.phi, dtype=float))
    return (
        2.0 * a * a_ddot
        + a_dot**2
        + params.k
        - params.lam * a**2
        - (p_phi**2 / (16.0 * _PI * a**3) + 8.0 * _PI * a**3 * v)
    )


def quantum_transport_residual(
    R, S, grids: ActionGrids, params: CosmoParams
) -> np.ndarray:
    """Residual of the amplitude transport equation in the constraint sector:

        dR/dt + (4 pi/(3a))(dS/da)(dR/da) + (1/a^3)(dS/dphi)(dR/dphi)
        + (2 pi/(3a)) d2S/da2 + (1/(2 a^3)) d2S/dphi2

    for caller-supplied R(a, phi, t) and S(a, phi, t).  Evaluation only;
    no solutions are constructed here.
    """
    a, phi, t = grids.a, grids.phi, grids.t
    r = _sampled(R, (a, phi, t), "R")
    s = _sampled(S, (a, phi, t), "S")
    r_t = np.gradient(r, t, axis=2, edge_order=2)
    r_a = np.gradient(r, a, axis=0, edge_order=2)
    r_p = np.gradient(r, phi, axis=1, edge_order=2)
    s_a = np.gradient(s, a, axis=0, edge_order=2)
    s_p = np.gradient(s, phi, axis=1, edge_order=2)
    s_aa = np.gradient(s_a, a, axis=0, edge_order=2)
    s_pp = np.gradient(s_p, phi, axis=1, edge_order=2)
    a_col = a[:, None, None]
    return (
        r_t
        + (4.0 * _PI / (3.0 * a_col)) * s_a * r_a
        + s_p * r_p / a_col**3
        + (2.0 * _PI / (3.0 * a_col)) * s_aa
        + s_pp / (2.0 * a_col**3)
    )
