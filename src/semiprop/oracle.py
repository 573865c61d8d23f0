"""Independent checks that an assembled propagator solves the dynamics.

Three instruments, none of which share code paths with the propagator
construction they certify:

* ``cn_evolve``: a Crank-Nicolson integrator for i hbar dpsi/dt =
  -(hbar^2/2m) d2psi/dx2 + V psi on a Dirichlet grid.  The update is a
  Cayley transform of the Hermitian discrete Hamiltonian, so the L2 norm
  is conserved to round-off for real potentials.  A static potential's
  tridiagonal system is LU-factored once; a time-dependent one is
  refactored at every step.
* ``schrodinger_residual``: direct stencil substitution of a gridded K
  into the Schrodinger equation.  It reads K a band of time columns at a
  time, so K may be a ``ComplexField`` or a view that assembles only the
  columns asked for.
* ``kernel_propagate``: treats closed-form factors as a two-point kernel
  and evolves a state by quadrature, with the overall constant fixed by
  matching the free-particle normalization (m/(2 pi i hbar t))^(1/2) at
  a small reference elapsed time.  The action must be quadratic in
  (x, x0): the quadrature is then one chirp FFT convolution, and any
  other action is refused.

Agreement between the kernel route and the Crank-Nicolson route is the
oracle equivalence test; their disagreement under a deliberate kernel
perturbation is the corresponding negative control.  The two routes share
no code: Crank-Nicolson never uses an FFT, and the kernel route never
steps in time.

The two LAPACK routines Crank-Nicolson needs, zgttrf and zgttrs, come from
the LAPACK numpy itself links: they are looked up through the shared object
of ``numpy.linalg._umath_linalg``, whose dependencies the dynamic linker
searches, and called through ctypes.  No second BLAS is loaded and scipy is
not needed.  Only the names numpy 2 wheels export (scipy-openblas64,
64-bit integers) are bound; a numpy linked to any other LAPACK fails the
first Crank-Nicolson solve with ImportError.  They are bound at the first
``cn_evolve`` call or the first access to ``oracle.zgttrf`` /
``oracle.zgttrs``, which then stay module globals.  Neither importing this
module nor running it loads ``numpy.random``.
"""

from __future__ import annotations

import cmath
import ctypes
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    PropagatorFactors,
    SpatialGrid,
    _check_step_budget,
    _stencil,
    simpson_weights,
)
from .quadratic import QuadraticPotential

__all__ = [
    "WaveState",
    "gaussian_state",
    "as_potential",
    "cn_evolve",
    "schrodinger_residual",
    "kernel_propagate",
    "l2_difference",
    "BOUNDARY_AMPLITUDE_WARN",
]

# Dirichlet walls are only trustworthy while the state stays this small there.
BOUNDARY_AMPLITUDE_WARN = 1.0e-8
# Largest oracle grid kernel_propagate accepts.  The chirp convolution
# needs only O(n_x) memory; the cap bounds the grid the kernel is checked
# on, not a dense n_x^2 kernel (none is built).
MAX_KERNEL_NODES = 4096
# Nodes per band of the streamed Schrodinger residual: 128 kB of complex K.
RESIDUAL_BAND_NODES = 1 << 13
# The chirp split must reproduce every checked row of S to this share of max|S|.
CHIRP_ROW_TOL = 1e-12


# zgttrf and zgttrs under the names numpy's own wheels export them: numpy 2
# wheels bundle the scipy-openblas64 build of OpenBLAS, which prefixes every
# LAPACK routine with "scipy_", suffixes it with "64_" and takes 64-bit
# integers.  A LAPACK exporting other names (another numpy build, a system
# LAPACK, MKL) is refused rather than called with a guessed integer width.
_LAPACK_SYMBOLS = {"zgttrf": "scipy_zgttrf_64_", "zgttrs": "scipy_zgttrs_64_"}
_LAPACK_INTEGER = ctypes.c_int64


def _bind_lapack() -> None:
    """Bind zgttrf and zgttrs from numpy's LAPACK as module globals, once.

    The routines are looked up in the library that holds
    ``numpy.linalg._umath_linalg`` and the libraries it loads; if they are
    not exported under _LAPACK_SYMBOLS, ImportError names the library and
    both symbols.  A name already bound (say, replaced by a test) is left
    as it is.
    """
    if all(name in globals() for name in _LAPACK_SYMBOLS):
        return
    from numpy.linalg import _umath_linalg

    library = ctypes.CDLL(_umath_linalg.__file__)
    symbols = _LAPACK_SYMBOLS.values()
    try:
        zgttrf, zgttrs = (getattr(library, symbol) for symbol in symbols)
    except AttributeError:
        raise ImportError(
            f"{_umath_linalg.__file__} and the libraries it loads do not export "
            + " and ".join(symbols)
        ) from None
    # every argument is a pointer, but for the length of TRANS that
    # Fortran passes last by value
    zgttrf.argtypes = [ctypes.c_void_p] * 7
    zgttrs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
    zgttrf.restype = zgttrs.restype = None
    globals().setdefault("zgttrf", zgttrf)
    globals().setdefault("zgttrs", zgttrs)


def __getattr__(name: str):
    if name in _LAPACK_SYMBOLS:
        _bind_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Tridiagonal:
    """An n x n tridiagonal system kept in the buffers LAPACK works in.

    ``factor`` LU-factors the matrix with ``off`` on both off-diagonals
    and ``diag`` on the diagonal (zgttrf, in place in dl, d, du, du2 and
    ipiv); ``solve`` then overwrites ``rhs`` with the solution (zgttrs).
    Both argument tuples point at these buffers and are built here once,
    so a step converts no argument.  A nonzero LAPACK ``info`` raises
    LinAlgError.
    """

    def __init__(self, n: int) -> None:
        _bind_lapack()
        integer = _LAPACK_INTEGER
        self.dl, self.du = np.empty(n - 1, complex), np.empty(n - 1, complex)
        self.d, self.du2 = np.empty(n, complex), np.empty(n - 2, complex)
        self.ipiv = np.empty(n, np.dtype(integer))
        self.rhs = np.empty(n, complex)
        # the ctypes scalars must outlive the tuples that point at them
        self._n, self._one, self._info = integer(n), integer(1), integer()
        self._trans = ctypes.c_char(b"N")
        n_ref, info = ctypes.byref(self._n), ctypes.byref(self._info)
        dl, d, du, du2, ipiv, rhs = (
            ctypes.c_void_p(a.ctypes.data)
            for a in (self.dl, self.d, self.du, self.du2, self.ipiv, self.rhs)
        )
        self._factor_args = (n_ref, dl, d, du, du2, ipiv, info)
        self._solve_args = (
            ctypes.byref(self._trans), n_ref, ctypes.byref(self._one),
            dl, d, du, du2, ipiv, rhs, n_ref, info, ctypes.c_size_t(1),
        )

    def factor(self, off: complex, diag: np.ndarray) -> None:
        self.dl.fill(off)
        self.du.fill(off)
        self.d[:] = diag
        zgttrf(*self._factor_args)
        if self._info.value != 0:
            raise np.linalg.LinAlgError(
                f"Crank-Nicolson matrix is singular (zgttrf info {self._info.value})"
            )

    def solve(self) -> None:
        zgttrs(*self._solve_args)
        if self._info.value != 0:
            raise np.linalg.LinAlgError(
                f"zgttrs refused its input (info {self._info.value})"
            )


@dataclass(frozen=True)
class WaveState:
    """A wavefunction sampled on a spatial grid at one instant."""

    grid: SpatialGrid
    psi: np.ndarray
    t: float = 0.0
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.n_x,):
            raise ValueError(
                f"psi has shape {psi.shape}, grid expects ({self.grid.n_x},)"
            )
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi contains non-finite samples")
        if not self.hbar > 0 or not self.mass > 0:
            raise ValueError("hbar and mass must be positive")
        object.__setattr__(self, "psi", psi)

    def norm(self) -> float:
        """L2 norm with trapezoid weights."""
        dx = self.grid.dx
        dens = np.abs(self.psi) ** 2
        total = dx * (dens.sum() - 0.5 * (dens[0] + dens[-1]))
        return float(np.sqrt(total))


def gaussian_state(
    grid: SpatialGrid,
    sigma0: float,
    x_center: float = 0.0,
    k0: float = 0.0,
    mass: float = 1.0,
) -> WaveState:
    """Normalized Gaussian psi = (2 pi s^2)^(-1/4) exp(-(x-xc)^2/(4 s^2) + i k0 x)."""
    if not sigma0 > 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    x = grid.x
    psi = (2.0 * np.pi * sigma0**2) ** (-0.25) * np.exp(
        -((x - x_center) ** 2) / (4.0 * sigma0**2) + 1j * k0 * x
    )
    return WaveState(grid=grid, psi=psi, mass=mass)


def as_potential(pot) -> "callable":
    """Coerce a potential argument to a vectorized V(x, t).

    Accepts quadratic coefficient bundles, plain callables of (x, t),
    or constants.
    """
    if isinstance(pot, QuadraticPotential):
        return pot.value
    if callable(pot):
        return pot
    value = float(pot)
    return lambda x, t: value + 0.0 * np.asarray(x) * np.asarray(t)


def cn_evolve(state: WaveState, pot, dt: float, n_steps: int) -> WaveState:
    """Crank-Nicolson evolution over n_steps of size dt.

    (1 + i lam H) psi_new = (1 - i lam H) psi_old with lam = dt/(2 hbar)
    and H the tridiagonal discrete Hamiltonian; a time-dependent potential
    is sampled at the step midpoint.  The step is taken in Cayley form,
    psi_new = 2 (1 + i lam H)^-1 psi_old - psi_old, so H is never applied
    to psi: a step is one scaled copy of psi into the right-hand-side
    buffer, one LAPACK zgttrs solve there in place against the zgttrf LU
    factors of 1 + i lam H, and one subtraction into psi's own buffer.
    ``state.psi`` is never written.  A static potential (a constant, or a
    QuadraticPotential without callable coefficients) gives the same
    matrix at every step, so it is factored once; any other potential is
    refactored at every step.  More than core.MAX_STEPS steps are refused,
    naming dt, before anything is allocated.
    Boundary amplitude above BOUNDARY_AMPLITUDE_WARN at any step triggers
    a single warning with the worst value seen (Dirichlet walls reflect,
    they do not absorb).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_step_budget(dt, n_steps)
    v_fn = as_potential(pot)
    grid, hbar, mass = state.grid, state.hbar, state.mass
    x = grid.x
    dx = grid.dx
    n = grid.n_x
    kin_off = -(hbar**2) / (2.0 * mass * dx**2)
    kin_diag = hbar**2 / (mass * dx**2)
    lam = dt / (2.0 * hbar)
    psi = state.psi.copy()
    system = _Tridiagonal(n)
    # zgttrs solves in system.rhs; psi is then updated in place
    rhs = system.rhs
    t = state.t
    worst_boundary = 0.0
    static = pot.static if isinstance(pot, QuadraticPotential) else not callable(pot)
    off = 1j * lam * kin_off
    for step in range(n_steps):
        if step == 0 or not static:
            # 1 + i lam H with H's diagonal at the step midpoint, LU-factored
            v_mid = np.broadcast_to(
                np.asarray(v_fn(x, t + 0.5 * dt), dtype=complex), (n,)
            )
            system.factor(off, 1.0 + 1j * lam * (kin_diag + v_mid))
        np.multiply(2.0, psi, out=rhs)
        system.solve()
        np.subtract(rhs, psi, out=psi)
        t += dt
        worst_boundary = max(worst_boundary, abs(psi[0]), abs(psi[-1]))
    if worst_boundary > BOUNDARY_AMPLITUDE_WARN:
        warnings.warn(
            f"boundary amplitude reached {worst_boundary:.3e} (threshold "
            f"{BOUNDARY_AMPLITUDE_WARN:.0e}); Dirichlet walls are interfering",
            stacklevel=2,
        )
    return WaveState(grid=grid, psi=psi, t=t, hbar=hbar, mass=mass)


def schrodinger_residual(K, pot, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Stencil substitution into i hbar dK/dt + (hbar^2/2m) d2K/dx2 - V K.

    Returns max|residual| / max|K| over every node.  K is read only
    through ``K.grid`` and ``K.columns(lo, hi)``, the (n_x, hi - lo)
    samples at time columns lo:hi: a ``ComplexField`` hands back slices of
    its values, a ``core.LazyPropagator`` assembles just those columns.
    The potential is a constant, a QuadraticPotential or a callable of
    (x, t); a callable is sampled band by band, so it must act pointwise
    in (x, t).

    The residual is formed in bands of whole time columns, about
    RESIDUAL_BAND_NODES nodes each, and only the two maxima are kept
    across bands.  A band reads one halo column on each side for the
    t-stencil (three columns at a time edge, for the one-sided stencil),
    so every node sees the values a whole-grid stencil would give it.
    """
    grid = K.grid
    v_fn = as_potential(pot)
    x, t, n_t = grid.x[:, None], grid.t[None, :], grid.n_t
    kinetic = hbar**2 / (2.0 * mass)
    width = -(-RESIDUAL_BAND_NODES // grid.n_x)
    residual_peaks, k_peaks = [], []
    for j0 in range(0, n_t, width):
        j1 = min(j0 + width, n_t)
        lo, hi = max(0, min(j0 - 1, n_t - 3)), min(n_t, max(j1 + 1, 3))
        band = K.columns(lo, hi)
        k_t = _stencil(band, grid.dt, 1, 1)[:, j0 - lo : j1 - lo]
        k = band[:, j0 - lo : j1 - lo]
        k_xx = _stencil(k, grid.dx, 0, 2)
        v = np.broadcast_to(np.asarray(v_fn(x, t[:, j0:j1]), dtype=complex), k.shape)
        residual = 1j * hbar * k_t + kinetic * k_xx - v * k
        residual_peaks.append(np.max(np.abs(residual)))
        k_peaks.append(np.max(np.abs(k)))
    scale = float(np.max(k_peaks))
    if scale == 0.0:
        raise ValueError("K vanishes on every node")
    return float(np.max(residual_peaks) / scale)


def _quadrature_weights(grid: SpatialGrid) -> np.ndarray:
    """Composite Simpson weights; an even node count falls back to
    Simpson on the first n-1 nodes plus a trapezoid closing panel."""
    n = grid.n_x
    dx = grid.dx
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[:m] = simpson_weights(m, dx)
    if m != n:
        w[-2] += 0.5 * dx
        w[-1] += 0.5 * dx
    return w


def _chirp_split(action, x: np.ndarray, tau: float):
    """Split S(x_i, x_j) = a_i + c_j - beta (i - j)^2 / 2 on a uniform grid.

    Every action quadratic in (x, x0) has this form.  a comes from the
    column S(x_i, x_0), c from the row S(x_0, x_j), and beta from the four
    corners, (S_{n-1,n-1} - S_{n-1,0} - S_{0,n-1} + S_{0,0}) / (n-1)^2
    (neighbouring samples would amplify their rounding by n^2).  The split
    is then held against full rows of the callable: the first, middle and
    last rows and five seeded others.  Returns (a, c, beta) when every row
    agrees to CHIRP_ROW_TOL of the largest |S| seen, else None.
    """
    n = x.size

    def row(i: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(action(x[i], x, tau), dtype=complex), (n,))

    seeded = random.Random(0).sample(range(n), min(n, 5))
    rows = {i: row(i) for i in sorted({0, n // 2, n - 1, *seeded})}
    column = np.broadcast_to(np.asarray(action(x, x[0], tau), dtype=complex), (n,))
    first, last = rows[0], rows[n - 1]
    beta = (last[-1] - column[-1] - first[-1] + first[0]) / (n - 1) ** 2
    k = np.arange(n)
    a = column + 0.5 * beta * k**2
    c = first - first[0] + 0.5 * beta * k**2
    scale = max(float(np.max(np.abs(s))) for s in rows.values())
    for i, exact in rows.items():
        split = a[i] + c - 0.5 * beta * (i - k) ** 2
        if not np.max(np.abs(split - exact)) <= CHIRP_ROW_TOL * scale:
            return None
    return a, c, beta


def _chirp_quadrature(a, c, beta, f: np.ndarray, hbar: float) -> np.ndarray:
    """sum_j exp(i S_ij / hbar) f_j for the split S, as one FFT convolution.

    exp(i S_ij / hbar) = exp(i a_i / hbar) T_(i-j) exp(i c_j / hbar) with
    T_k = exp(-i beta k^2 / (2 hbar)) a chirp (Bluestein's chirp-z
    factorization).  Zero-padding to a power of two at least 2n - 1 long
    makes the circular convolution a linear one.
    """
    n = f.size
    size = 1 << (2 * n - 2).bit_length()
    chirp = np.exp(-1j * beta * np.arange(n) ** 2 / (2.0 * hbar))
    taps = np.zeros(size, dtype=complex)
    taps[:n] = chirp
    taps[size - n + 1 :] = chirp[:0:-1]  # lags -(n-1) .. -1
    spectrum = np.fft.fft(np.exp(1j * c / hbar) * f, size) * np.fft.fft(taps)
    return np.exp(1j * a / hbar) * np.fft.ifft(spectrum)[:n]


def kernel_propagate(
    psi0: WaveState,
    factors: PropagatorFactors,
    t_target: float,
    reference_time: float,
) -> WaveState:
    """Evolve by quadrature against the closed-form two-point kernel.

        psi(x, t) = C exp(R(tau)) int exp(i S(x, x0, tau)/hbar) psi0(x0) dx0

    with tau the elapsed time and C fixed so that C exp(R(tau_ref))
    equals the free-particle normalization (m/(2 pi i hbar tau_ref))^(1/2)
    at the positive reference elapsed time ``reference_time``, say 1e-2.

    ``factors.two_point_action`` is the only source of S.  It must be
    quadratic in (x, x0), checked on full rows by ``_chirp_split``; the
    quadrature is then one chirp FFT convolution in O(n_x log n_x) time
    and O(n_x) memory.  Any other action is refused.  More than
    MAX_KERNEL_NODES grid nodes are refused, naming n_x, before any
    sample of S is taken.
    """
    n_x = psi0.grid.n_x
    if n_x > MAX_KERNEL_NODES:
        raise ValueError(
            f"n_x {n_x} needs a grid larger than the kernel quadrature's "
            f"budget of {MAX_KERNEL_NODES} nodes"
        )
    if factors.two_point_action is None or factors.time_amplitude is None:
        raise ValueError("kernel propagation needs closed-form two-point factors")
    if not reference_time > 0:
        raise ValueError(f"reference_time must be positive, got {reference_time}")
    if factors.hbar != psi0.hbar or factors.mass != psi0.mass:
        raise ValueError("state and factors disagree on hbar or mass")
    tau = t_target - psi0.t
    if tau <= 0:
        raise ValueError(f"t_target={t_target} is not ahead of the state at t={psi0.t}")
    hbar, mass = psi0.hbar, psi0.mass
    free_norm = cmath.sqrt(mass / (2j * np.pi * hbar * reference_time))
    amp_ref = complex(np.asarray(factors.time_amplitude(reference_time), dtype=complex))
    norm_const = free_norm / cmath.exp(amp_ref)
    x = psi0.grid.x
    f = _quadrature_weights(psi0.grid) * psi0.psi
    split = _chirp_split(factors.two_point_action, x, tau)
    if split is None:
        raise ValueError(
            "two_point_action is not quadratic in (x, x0): kernel propagation "
            "needs an action of the form a(x) + c(x0) - beta (x - x0)^2 / 2"
        )
    quad = _chirp_quadrature(*split, f, hbar)
    amp = cmath.exp(complex(np.asarray(factors.time_amplitude(tau), dtype=complex)))
    psi = norm_const * amp * quad
    return WaveState(grid=psi0.grid, psi=psi, t=t_target, hbar=hbar, mass=mass)


def l2_difference(a: WaveState, b: WaveState) -> float:
    """Trapezoid-weighted L2 distance between two states on one grid."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return WaveState(grid=a.grid, psi=a.psi - b.psi).norm()
