"""Lattice functional Hamilton-Jacobi checks on periodic hypercubic grids.

Fields live on a periodic lattice with every dimension at least two sites
wide.  The quadratic action S[phi] = (1/2) sum_xy phi(x) G(x,y) phi(y) vol^2
is built from the Green's function of the discretized (d'Alembert + m^2)
operator, and the functional derivative convention throughout is
(1 / cell volume) * (partial / partial site value), so continuum formulas
hold on the lattice with no extra volume factors.

Sign conventions: the euclidean operator is -laplacian + m^2 (positive
definite for m > 0), and the lorentzian operator treats dimension 0 as time,
-D_t^2 + laplacian_spatial + m^2.  Lorentzian operators can be exactly
singular on-shell; inversion then refuses with the null mode, unless the
i*epsilon prescription (epsilon = 1e-3 m^2) is requested.

Periodic operators are circulant: a Green's function is its one column g,
G(x, y) = g[(x - y) mod dims], built by one inverse FFT of the closed-form
spectrum and certified by the periodic stencil.  Lattices are capped at 4096
sites and leapfrog runs at 10**7 site updates.  These are verification
probes, not production field solvers.

Every refused site is named by index through ``core._refuse_node``.  The exps
keep no headroom below the float range, so a sum or residual built from them
is refused where it overflows.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import _refuse_node, _require_finite

__all__ = [
    "LatticeConfig",
    "LatticeField",
    "QuadraticFunctional",
    "KleinGordonRun",
    "PlaneWave",
    "PointwiseFunction",
    "constant_function",
    "lattice_operator",
    "lattice_greens_function",
    "functional_hj_residual",
    "lattice_klein_gordon_check",
    "lattice_plane_wave",
    "plane_wave_phase",
    "conformal_transport_check",
    "analytic_conformal_derivative",
    "conformal_real_part_residual",
    "conformal_imaginary_part_residual",
]

MAX_SITES = 4096
# (steps + 1) x sites per leapfrog run: a time budget, as it keeps 3 slices
MAX_SITE_UPDATES = 10**7
SIGNATURES = ("euclidean", "lorentzian")


@dataclass(frozen=True)
class LatticeConfig:
    """Shape and physics of a periodic hypercubic lattice.

    ``dims`` lists the site counts per dimension, ``spacing`` is the common
    lattice constant, and ``signature`` selects whether dimension 0 is time.
    ``mass`` may be zero (free evolution); operations that need positive
    definiteness refuse the massless case themselves.
    """

    dims: Tuple[int, ...]
    spacing: float = 1.0
    signature: str = "euclidean"
    mass: float = 1.0

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("dims must list at least one extent, got none")
        if any(n < 2 for n in dims):
            raise ValueError(
                "every lattice dimension needs at least 2 sites, got {}".format(dims)
            )
        if self.n_sites > MAX_SITES:
            raise ValueError(
                "dims {} give {} sites; lattices are capped at {}".format(
                    dims, self.n_sites, MAX_SITES
                )
            )
        # the stencils divide by spacing^2, the CFL bound by 4/spacing^2, and
        # the action sums weigh each site by the cell volume spacing^d; the
        # float product overflows to inf or underflows to 0, float ** raises
        spacing = float(self.spacing)
        square = spacing * spacing
        try:
            volume = self.cell_volume
        except OverflowError:
            volume = np.inf
        if not (spacing > 0 and np.isfinite(square) and square > 0
                and np.isfinite(4.0 / square) and np.isfinite(volume) and volume > 0):
            raise ValueError(
                "spacing must be a positive real number whose square, "
                "4/spacing^2 and cell volume spacing^d are finite and nonzero"
            )
        if self.signature not in SIGNATURES:
            raise ValueError(
                "signature must be one of {}, got {!r}".format(
                    SIGNATURES, self.signature
                )
            )
        # a float product overflows to inf where mass**2 would raise
        mass = float(self.mass)
        if not (mass >= 0 and np.isfinite(mass * mass)):
            raise ValueError(
                "mass must be a nonnegative real number with a finite square"
            )

    @property
    def n_sites(self) -> int:
        # Python ints: a numpy product wraps around past 2**63
        return math.prod(self.dims)

    @property
    def cell_volume(self) -> float:
        return float(self.spacing ** len(self.dims))

    def axis_signs(self) -> np.ndarray:
        """Metric sign of each (forward-difference) gradient square."""
        signs = np.ones(len(self.dims))
        if self.signature == "lorentzian":
            signs[0] = -1.0
        return signs


@dataclass(frozen=True)
class LatticeField:
    """Per-site values on a lattice, shaped like ``config.dims``."""

    config: LatticeConfig
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != self.config.dims:
            raise ValueError(
                "field has shape {}, lattice expects {}".format(
                    values.shape, self.config.dims
                )
            )
        _require_finite(values, "field value")
        object.__setattr__(self, "values", values)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


@dataclass(frozen=True)
class QuadraticFunctional:
    """Green's-function kernel of a quadratic lattice action.

    ``g`` is the kernel's column at the origin, shaped like ``config.dims``,
    with G(x, y) = g[(x - y) mod dims], and ``regulator`` records the
    i*epsilon shift baked into the inverted operator (zero when none was
    applied).  Wherever it was built, the kernel measures itself on request;
    holding a measure to a tolerance is the caller's part.
    """

    g: np.ndarray
    config: LatticeConfig
    regulator: float = 0.0

    def __post_init__(self) -> None:
        g = np.asarray(self.g)
        if g.shape != self.config.dims:
            raise ValueError(
                "kernel has shape {}, lattice expects {}".format(g.shape, self.config.dims)
            )
        object.__setattr__(self, "g", g)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """fftn of the kernel column, taken at first use and kept."""
        return np.fft.fftn(self.g)

    @cached_property
    def asymmetry(self) -> float:
        """Relative max |G - G^T| = max |g - g[-x mod dims]| over max(1, max |g|)."""
        g = self.g
        reflected = np.roll(np.flip(g), 1, axis=tuple(range(g.ndim)))
        return float(np.max(np.abs(g - reflected))) / max(1.0, float(np.max(np.abs(g))))

    @cached_property
    def roundoff(self) -> float:
        """The defect round-off alone leaves: op g sums terms up to
        max |lambda + i epsilon| max |g|, times machine epsilon."""
        shifted = _spectrum(self.config, _operator_signs(self.config)) + 1j * self.regulator
        reach = float(np.max(np.abs(shifted))) * float(np.max(np.abs(self.g)))
        return sys.float_info.epsilon * reach

    @cached_property
    def defect(self) -> float:
        """max |op @ G - I|: the stencil ``_laplacian``, not an FFT, forms op g -
        delta, and every column of G is a roll of g that the stencil commutes with."""
        config, g = self.config, self.g
        shift = config.mass**2 + 1j * self.regulator if self.regulator else config.mass**2
        image = shift * g - _laplacian(g, config.spacing, _operator_signs(config))
        image[(0,) * g.ndim] -= 1.0
        return float(np.max(np.abs(image)))


def _second_difference(n: int, spacing: float) -> np.ndarray:
    """Periodic 1-d second-difference matrix (eigenvalues <= 0)."""
    d = np.zeros((n, n))
    for i in range(n):
        d[i, i] = -2.0
        d[i, (i + 1) % n] += 1.0
        d[i, (i - 1) % n] += 1.0
    return d / spacing**2


def lattice_operator(config: LatticeConfig, regulator: float = 0.0) -> np.ndarray:
    """Dense matrix of the discretized wave operator plus m^2.

    Euclidean signature gives -laplacian + m^2; lorentzian flips the sign
    of every spatial block: -D_t^2 + laplacian_spatial + m^2.  A nonzero
    ``regulator`` adds i*regulator to the diagonal and makes the result
    complex.
    """
    dims = config.dims
    n = config.n_sites
    op = config.mass**2 * np.eye(n)
    for axis, n_axis in enumerate(dims):
        if config.signature == "lorentzian" and axis > 0:
            sign = 1.0
        else:
            sign = -1.0
        blocks = [np.eye(m) for m in dims]
        blocks[axis] = sign * _second_difference(n_axis, config.spacing)
        op = op + reduce(np.kron, blocks)
    if regulator != 0.0:
        op = op + 1j * regulator * np.eye(n)
    return op


def _operator_signs(config: LatticeConfig) -> np.ndarray:
    """signs[mu] in op = m^2 - sum_mu signs[mu] D_mu^2, as in lattice_operator."""
    signs = np.ones(len(config.dims))
    if config.signature == "lorentzian":
        signs[1:] = -1.0
    return signs


def _spectrum(config: LatticeConfig, signs: np.ndarray) -> np.ndarray:
    """Eigenvalues m^2 + sum_mu signs[mu] (4 / h^2) sin^2(pi j_mu / n_mu) by
    wavenumber index j; j -> min(j, n - j) makes the array exactly even."""
    total = np.full(config.dims, config.mass**2)
    for axis, (n, sign) in enumerate(zip(config.dims, signs)):
        j = np.minimum(np.arange(n), n - np.arange(n))
        part = sign * 4.0 / config.spacing**2 * np.sin(np.pi * j / n) ** 2
        total = total + part.reshape((n,) + (1,) * (len(config.dims) - axis - 1))
    return total


def lattice_greens_function(
    config: LatticeConfig, use_regulator: bool = False
) -> QuadraticFunctional:
    """Invert the lattice operator into a quadratic-action kernel.

    The kernel's column g is the inverse FFT of 1 / lambda.  A null mode
    (|lambda| <= 1e-10 of the largest) refuses with its wavenumber index
    unless ``use_regulator`` asks for the lorentzian i*epsilon prescription
    with epsilon = 1e-3 m^2.  The returned kernel measures its own defect
    and symmetry; this function certifies neither.
    """
    if use_regulator and config.signature != "lorentzian":
        raise ValueError("use_regulator applies to the lorentzian signature only")
    regulator = 1e-3 * config.mass**2 if use_regulator else 0.0
    if use_regulator and regulator == 0.0:
        raise ValueError(
            "i*epsilon regulator vanishes at m = 0; the operator stays singular"
        )

    eigenvalues = _spectrum(config, _operator_signs(config))
    scale = max(float(np.max(np.abs(eigenvalues))), 1.0)
    null = np.abs(eigenvalues) <= 1e-10 * scale
    if not use_regulator:
        # a euclidean spectrum is smallest on the constant mode, where it is m^2
        if config.signature == "euclidean" and null.any():
            raise ValueError(
                "euclidean operator is singular: its constant mode, eigenvalue "
                "mass^2, is null at mass = {:.3g} with spacing = {!r}: mass^2 is {:.3g} "
                "of max(1, largest eigenvalue) = {:.3g}, not above 1e-10".format(
                    config.mass, config.spacing, config.mass**2 / scale, scale
                )
            )
        _refuse_node(null, "lorentzian operator is singular: null mode", detail=lambda n: (
            "eigenvalue {:.3e}; pass use_regulator=True for the i*epsilon "
            "prescription".format(eigenvalues[n])))
    g = np.fft.ifftn(1.0 / (eigenvalues + 1j * regulator))
    if not use_regulator:
        g = g.real
    return QuadraticFunctional(g=g, config=config, regulator=regulator)


def _forward_gradient_square(values: np.ndarray, config: LatticeConfig) -> np.ndarray:
    """Signature-weighted sum over axes of periodic forward-difference squares."""
    total = np.zeros(config.dims)
    for axis, sign in enumerate(config.axis_signs()):
        diff = (np.roll(values, -1, axis=axis) - values) / config.spacing
        total = total + sign * diff**2
    return total


def functional_hj_residual(functional: QuadraticFunctional, phi: LatticeField) -> float:
    """Hamilton-Jacobi defect of the quadratic action on a field configuration.

    Evaluates sum_x [ (1/2)(dS/dphi)^2 + (1/2)(grad phi)^2
    + (1/2) m^2 phi^2 ] * vol with dS/dphi(x) = sum_y G(x,y) phi(y) * vol, a
    circular convolution of the kernel column with phi, and
    signature-weighted gradients.  In the euclidean signature every term is
    nonnegative, so the residual is >= 0 with equality only at phi = 0; the
    lorentzian value is an indefinite diagnostic.
    """
    if phi.config != functional.config:
        raise ValueError("field and functional live on different lattices")
    if np.iscomplexobj(phi.values):
        raise ValueError("functional Hamilton-Jacobi residual needs a real field")
    config = phi.config
    vol = config.cell_volume
    ds = np.fft.ifftn(functional.spectrum * np.fft.fftn(phi.values)) * vol
    if functional.regulator != 0.0:
        ds_sq = np.abs(ds) ** 2
    else:
        ds_sq = np.real(ds) ** 2
    density = (
        0.5 * ds_sq
        + 0.5 * _forward_gradient_square(phi.values, config)
        + 0.5 * config.mass**2 * phi.values**2
    )
    return float(np.sum(density) * vol)


def _neighbour_sum(values: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """out = v[i+1] + v[i-1] along ``axis``, periodic, for C-ordered arrays.

    The same bits as np.roll(values, -1, axis) + np.roll(values, 1, axis),
    with no rolled copies.  In C order the neighbours along ``axis`` sit
    ``stride`` elements away, so one contiguous addition over the flat
    arrays fills every interior site; it also writes wrong sums at the two
    edges of the axis, which two slice additions then overwrite with the
    wrapped neighbours.
    """
    n = values.shape[axis]
    stride = math.prod(values.shape[axis + 1 :])
    flat = values.reshape(-1)
    np.add(flat[2 * stride :], flat[: -2 * stride], out=out.reshape(-1)[stride:-stride])
    lead = (slice(None),) * axis
    for target, up, down in ((0, 1, n - 1), (n - 1, 0, n - 2)):
        np.add(
            values[lead + (slice(up, up + 1),)],
            values[lead + (slice(down, down + 1),)],
            out=out[lead + (slice(target, target + 1),)],
        )
    return out


def _laplacian(values: np.ndarray, spacing: float, weights: np.ndarray) -> np.ndarray:
    """Periodic sum_a weights[a] D_a^2 over the leading axes; axes past
    len(weights) are batch axes.

    Each axis adds weight * ((v[i+1] + v[i-1]) - 2 v) to a total that
    starts at zero, and the total is divided by spacing^2 at the end: the
    operation order of the np.roll formula, so the result has its bits.
    """
    values = np.ascontiguousarray(values)
    total = np.zeros(values.shape, values.dtype)
    term = np.empty(values.shape, values.dtype)
    twice = 2.0 * values
    for axis, weight in enumerate(weights):
        np.subtract(_neighbour_sum(values, axis, term), twice, out=term)
        np.multiply(weight, term, out=term)
        np.add(total, term, out=total)
    return np.divide(total, spacing**2, out=total)


@dataclass(frozen=True)
class KleinGordonRun:
    """Final leapfrog slice plus the largest defects over the run.

    ``residual`` is the max-norm defect of the second-difference d'Alembert
    stencil over interior times; update and stencil are one formula, so it
    catches integrator bugs, not discretization error.  ``tracking`` is the
    max-norm deviation from the caller's exact solution (None without one),
    the oracle that is independent of the update rule.
    """

    final: np.ndarray
    residual: float
    tracking: Optional[float]


@dataclass(frozen=True)
class PlaneWave:
    """The exact lattice solution cos(phase - omega t), phase = k.x per site.

    cos(phase) and sin(phase) are taken once; a call evaluates
    cos(phase) cos(omega t) + sin(phase) sin(omega t), so it costs one
    cosine and one sine, not one cosine per site.
    """

    phase: np.ndarray
    omega: float
    cos_phase: np.ndarray = field(init=False, repr=False)
    sin_phase: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cos_phase", np.cos(self.phase))
        object.__setattr__(self, "sin_phase", np.sin(self.phase))

    def __call__(self, t: float) -> np.ndarray:
        angle = self.omega * t
        wave = self.cos_phase * math.cos(angle)
        wave += self.sin_phase * math.sin(angle)
        return wave


def _check_time_step(dt: float) -> None:
    # the leapfrog formulas multiply and divide by dt**2, which raises where
    # dt * dt gives inf and turns the stencil to NaN where it underflows
    square = dt * dt
    if not (dt > 0 and np.isfinite(square) and square > 0 and np.isfinite(1.0 / square)):
        raise ValueError(
            "dt must be positive with dt^2 and 1/dt^2 finite, got {!r}".format(dt)
        )


def lattice_klein_gordon_check(
    phi0: LatticeField,
    velocity: LatticeField,
    dt: float,
    n_steps: int,
    exact: Optional[Callable[[float], np.ndarray]] = None,
) -> KleinGordonRun:
    """Leapfrog-evolve phi_tt = laplacian(phi) - m^2 phi on periodic space.

    Every config dimension is spatial here; time is the integration axis.
    A step is its formulas on whole slices; each slice is held to the
    stencil and to ``exact(t)``, if given, as it is made.  Refuses dt^2 *
    max Lambda > 4 over the eigenvalues Lambda of -laplacian + m^2: past
    that CFL bound some lattice mode grows unboundedly.  More than
    MAX_SITE_UPDATES site updates are refused, naming the steps, before the
    first step.
    """
    if velocity.config != phi0.config:
        raise ValueError("initial field and velocity live on different lattices")
    config = phi0.config
    _check_time_step(dt)
    unit = np.ones(len(config.dims))
    largest = float(np.max(_spectrum(config, unit)))
    if dt**2 * largest > 4.0:
        raise ValueError(
            "dt = {:.6g} violates the leapfrog CFL bound dt <= {:.6g} "
            "(dt^2 * max Lambda <= 4)".format(dt, 2.0 / np.sqrt(largest))
        )
    if n_steps < 2:
        raise ValueError(f"need n_steps >= 2 to form the time stencil, got {n_steps} steps")
    updates = (n_steps + 1) * config.n_sites
    if updates > MAX_SITE_UPDATES:
        raise ValueError(
            "steps {} on {} sites need {} site updates, more than the budget "
            "of {}".format(n_steps, config.n_sites, updates, MAX_SITE_UPDATES)
        )

    mass_sq, dt_sq = config.mass**2, dt**2
    previous = phi0.values
    force = _laplacian(previous, config.spacing, unit) - mass_sq * previous
    current = previous + dt * velocity.values + 0.5 * dt_sq * force
    residual, tracking = 0.0, None
    if exact is not None:
        tracking = max(
            float(np.abs(previous - exact(0.0)).max()), float(np.abs(current - exact(dt)).max())
        )
    # a blow-up is refused by site below, so its overflow is not warned of as well
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps):
            force = _laplacian(current, config.spacing, unit) - mass_sq * current
            twice = 2.0 * current
            upcoming = (twice - previous) + dt_sq * force
            stencil = ((upcoming - twice) + previous) / dt_sq
            defect = float(np.abs(stencil - force).max())
            # a non-finite slice makes the defect non-finite, so only then is it scanned
            if not math.isfinite(defect):
                _refuse_node(~np.isfinite(upcoming), "leapfrog blew up at step {} (t = {:.6g}): "
                             "non-finite field value".format(step + 1, (step + 1) * dt))
            residual = max(residual, defect)
            if exact is not None:
                tracking = max(tracking, float(np.abs(upcoming - exact((step + 1) * dt)).max()))
            previous, current = current, upcoming
    return KleinGordonRun(final=current, residual=residual, tracking=tracking)


def plane_wave_phase(
    config: LatticeConfig, mode: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Wavevector k_mu = 2 pi j_mu / (n_mu h) of the integer mode index j
    and the phase k.x per site.  Each j is reduced mod n: a huge one would
    only round the phase."""
    if len(mode) != len(config.dims):
        raise ValueError(
            "mode index has {} entries, lattice has {} dimensions".format(
                len(mode), len(config.dims)
            )
        )
    h = config.spacing
    k = np.array([2.0 * np.pi * (int(j) % n) / (n * h) for j, n in zip(mode, config.dims)])
    grids = np.ix_(*[h * np.arange(n) for n in config.dims])
    return k, sum(k_mu * x_mu for k_mu, x_mu in zip(k, grids))


def lattice_plane_wave(
    config: LatticeConfig, mode: Sequence[int], dt: float
) -> Tuple[LatticeField, LatticeField, PlaneWave]:
    """Initial data that the leapfrog scheme propagates exactly.

    For the lattice mode with integer index ``mode`` the fully discrete
    dispersion relation is cos(omega dt) = 1 - (dt^2 / 2)(lambda_k + m^2)
    with lambda_k = (4 / h^2) sum_mu sin^2(k_mu h / 2).  Starting from
    phi = cos(k.x) and velocity sin(omega dt)/dt * sin(k.x), the Taylor
    first step lands exactly on cos(k.x - omega dt), so the evolved field
    tracks the returned ``PlaneWave`` cos(k.x - omega n dt) to roundoff.
    """
    k, phase = plane_wave_phase(config, mode)
    _check_time_step(dt)
    h = config.spacing
    lam = float(np.sum(4.0 / h**2 * np.sin(k * h / 2.0) ** 2))
    cos_omega_dt = 1.0 - 0.5 * dt**2 * (lam + config.mass**2)
    if abs(cos_omega_dt) > 1.0:
        raise ValueError(
            "mode {} is unstable at dt = {:.6g}: |cos(omega dt)| = {:.6g} > 1".format(
                tuple(mode), dt, abs(cos_omega_dt)
            )
        )
    omega = float(np.arccos(cos_omega_dt) / dt)
    phi0 = LatticeField(config, np.cos(phase))
    velocity = LatticeField(config, np.sin(omega * dt) / dt * np.sin(phase))
    return phi0, velocity, PlaneWave(phase, omega)


@dataclass(frozen=True)
class PointwiseFunction:
    """Scalar function of a field value with its analytic derivative.

    ``value`` and ``derivative`` must accept and return ndarrays.
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


def constant_function(c: float) -> PointwiseFunction:
    return PointwiseFunction(
        value=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _checked_exp(exponent: np.ndarray, what: str) -> np.ndarray:
    """exp(exponent), refusing the first site where it leaves the float range."""
    with np.errstate(over="ignore"):
        value = np.exp(exponent)
    _refuse_node(~np.isfinite(value), what + " overflows",
                 detail=lambda n: "exponent = {:.6g}".format(exponent[n]))
    return value


def conformal_transport_check(sigma: LatticeField, lam: float) -> Tuple[float, float]:
    """Curvature functional of a conformal factor and its derivative check.

    Evaluates R[sigma] = (Lambda / 8) sum_x exp(2 sigma) * vol, then verifies
    the analytic functional derivative (Lambda / 4) exp(2 sigma(x)) against a
    single-site central difference of the full sum, step 1e-6, using the
    (1 / vol)(partial / partial site) convention.  Returns the pair
    (R value, max deviation); the deviation is relative to the analytic value
    when Lambda is nonzero and absolute otherwise.

    The difference re-evaluates the whole functional per site, so the check
    stays independent of the analytic shortcut; cancellation roundoff grows
    with site count, which keeps the probe meaningful on small lattices.
    """
    if np.iscomplexobj(sigma.values):
        raise ValueError("conformal factor must be a real field")
    config = sigma.config
    vol = config.cell_volume
    weights = _checked_exp(2.0 * sigma.values, "exp(2 sigma)")
    with np.errstate(over="ignore"):
        total = float(np.sum(weights))
    # the bumped sums below stay within a factor 1 + 3e-6 of the sum; twice the
    # sum, bare and scaled by lam / 8 and the cell volume, leaves room for them
    if not math.isfinite(2.0 * max(total, abs(lam) / 8.0 * total * max(1.0, vol))):
        raise ValueError("the curvature functional (lam / 8) sum exp(2 sigma) vol overflows")
    r_value = float(lam / 8.0 * total * vol)

    analytic = lam / 4.0 * weights.reshape(-1)
    flat = sigma.flat.astype(float)
    epsilon = 1e-6
    deviations = np.zeros(config.n_sites)
    for site in range(config.n_sites):
        bumped = flat.copy()
        bumped[site] = flat[site] + epsilon
        r_plus = lam / 8.0 * np.sum(np.exp(2.0 * bumped)) * vol
        bumped[site] = flat[site] - epsilon
        r_minus = lam / 8.0 * np.sum(np.exp(2.0 * bumped)) * vol
        numeric = (r_plus - r_minus) / (2.0 * epsilon * vol)
        denom = abs(analytic[site]) if analytic[site] != 0.0 else 1.0
        deviations[site] = abs(numeric - analytic[site]) / denom
    return r_value, float(np.max(deviations))


def analytic_conformal_derivative(sigma: LatticeField, lam: float) -> np.ndarray:
    """Closed-form functional derivative (Lambda / 4) exp(2 sigma)."""
    return lam / 4.0 * np.exp(2.0 * sigma.values)


def conformal_real_part_residual(
    phi: LatticeField,
    sigma: LatticeField,
    w: PointwiseFunction,
    f: PointwiseFunction,
    lam: float,
) -> LatticeField:
    """Real-part constraint density of the conformally split action.

    Nodewise value of (grad phi)^2 + f(sigma) m^2 phi^2
    + 4 exp(4 sigma) W(phi)^2 + (exp(4 sigma) / f(sigma)) W'(phi)^2
    - (grad sigma)^2 - (Lambda^2 / 16) exp(4 sigma), with signature-weighted
    forward-difference gradients.  Refuses when f(sigma) is not positive
    somewhere; warns when W vanishes identically, since the underlying split
    assumed W != 0.
    """
    if phi.config != sigma.config:
        raise ValueError("phi and sigma live on different lattices")
    if np.iscomplexobj(phi.values) or np.iscomplexobj(sigma.values):
        raise ValueError("conformal residuals need real fields")
    config = phi.config
    f_values = np.asarray(f.value(sigma.values), dtype=float)
    _refuse_node(f_values <= 0.0, "f(sigma) must be positive: nonpositive value",
                 detail=lambda n: "f(sigma) = {:.6g}".format(f_values[n]))
    w_values = np.asarray(w.value(phi.values), dtype=float)
    w_prime = np.asarray(w.derivative(phi.values), dtype=float)
    if np.max(np.abs(w_values)) == 0.0:
        warnings.warn(
            "W vanishes identically; the real/imaginary split assumed W != 0",
            stacklevel=2,
        )
    e4 = _checked_exp(4.0 * sigma.values, "exp(4 sigma)")
    # a term past the float range is refused by site below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        residual = (
            _forward_gradient_square(phi.values, config)
            + f_values * config.mass**2 * phi.values**2
            + 4.0 * e4 * w_values**2
            + e4 / f_values * w_prime**2
            - _forward_gradient_square(sigma.values, config)
            - lam**2 / 16.0 * e4
        )
    _require_finite(residual, "real-part residual")
    return LatticeField(config, residual)


def conformal_imaginary_part_residual(
    sigma: LatticeField,
    phi: LatticeField,
    w: PointwiseFunction,
    dr_dsigma: np.ndarray,
    lam: float,
) -> LatticeField:
    """Imaginary-part constraint density for a candidate curvature derivative.

    Nodewise value of -2 (dR/dsigma) (2 exp(2 sigma) W(phi))
    + Lambda W(phi) exp(4 sigma).  ``dr_dsigma`` is a per-site array shaped
    like the lattice.  Plugging in the analytic derivative
    (Lambda / 4) exp(2 sigma) cancels the two terms to roundoff.
    Refuses when W vanishes at any site: the split divides the flow by W.
    """
    if phi.config != sigma.config:
        raise ValueError("phi and sigma live on different lattices")
    config = sigma.config
    w_values = np.asarray(w.value(phi.values), dtype=float)
    _refuse_node(w_values == 0.0, "W vanishes (the imaginary-part equation divides by W)")
    derivative = np.asarray(dr_dsigma, dtype=float)
    if derivative.shape != config.dims:
        raise ValueError(
            "dr_dsigma has shape {}, the lattice {}".format(derivative.shape, config.dims)
        )
    e2 = _checked_exp(2.0 * sigma.values, "exp(2 sigma)")
    e4 = _checked_exp(4.0 * sigma.values, "exp(4 sigma)")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = -4.0 * derivative * e2 * w_values + lam * w_values * e4
    _require_finite(residual, "imaginary-part residual")
    return LatticeField(config, residual)
