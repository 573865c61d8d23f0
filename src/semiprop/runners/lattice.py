"""Runners of the ``lattice`` checks: conformal transport, Green's functions,
functional Hamilton-Jacobi positivity, the conformal imaginary part and the
Klein-Gordon leapfrog."""

from __future__ import annotations

import math
import random
import sys

import numpy as np

from ..lattice import (
    MAX_SITE_UPDATES,
    LatticeConfig,
    LatticeField,
    PointwiseFunction,
    analytic_conformal_derivative,
    conformal_imaginary_part_residual,
    conformal_transport_check,
    functional_hj_residual,
    lattice_greens_function,
    lattice_klein_gordon_check,
    lattice_plane_wave,
    plane_wave_phase,
)
from ..report import Floor, Measured, _CsvRows, _refuse, roundoff
from . import _LOG_MAX


def _lattice_config(params: dict) -> LatticeConfig:
    return LatticeConfig(
        dims=tuple(params["dims"]),
        spacing=params.get("spacing", 1.0),
        signature=params.get("signature", "euclidean"),
        mass=params.get("mass", 1.0),
    )


def _site_rows(config: LatticeConfig, values: np.ndarray) -> _CsvRows:
    # np.indices flattened in C order enumerates the sites as np.ndindex does
    sites = np.indices(config.dims).reshape(len(config.dims), -1)
    return _CsvRows(*sites, np.asarray(values).ravel())


def _uniform(rng: random.Random, low: float, high: float, config: LatticeConfig) -> np.ndarray:
    """A field of shape ``config.dims`` drawn uniformly from [low, high).

    Each site takes the next 8 bytes of ``rng.randbytes``, read as a
    little-endian integer; its top 53 bits give u = (bits >> 11) 2^-53 in
    [0, 1), exactly, and the site holds low + (high - low) u.  The stream is
    the seed's Mersenne Twister, the same on every Python, and drawing it
    loads nothing beyond the standard library's ``random``.
    """
    data = rng.randbytes(8 * config.n_sites)
    bits = np.frombuffer(data, dtype="<u8") >> 11
    return low + (high - low) * (bits * 2.0**-53).reshape(config.dims)


def _lattice_header(config: LatticeConfig) -> list[str]:
    return ["site_index_{}".format(i) for i in range(len(config.dims))] + ["value"]


def _budget_draws(params: dict, config: LatticeConfig) -> None:
    """Refuse, before the first draw, draws that update more sites than the
    leapfrog's budget, ``lattice.MAX_SITE_UPDATES``."""
    updates = params["draws"] * config.n_sites
    if updates > MAX_SITE_UPDATES:
        reason = "the draws on {} sites need {} site updates, more than the budget of {}"
        _refuse(params, ("draws", "dims"), reason.format(config.n_sites, updates, MAX_SITE_UPDATES))


def _run_lattice_transport(params: dict, seed: int) -> tuple:
    config = _lattice_config(params)
    # the check takes exp(2 sigma) at every site
    if not abs(2.0 * params["sigma_const"]) < _LOG_MAX:
        reason = "exp(2 sigma_const) needs |sigma_const| below {:.6g}".format(_LOG_MAX / 2.0)
        _refuse(params, ("sigma_const",), reason)
    weight = math.exp(2.0 * params["sigma_const"])
    site_sum = params["lam"] / 8.0 * config.n_sites * weight
    # the check sums exp(2 sigma) over the sites, then scales the sum by lam / 8
    # and the cell volume; twice each leaves room for its bumped sums
    if not (math.isfinite(2.0 * config.n_sites * weight)
            and math.isfinite(2.0 * site_sum * max(1.0, config.cell_volume))):
        _refuse(
            params, ("lam", "sigma_const", "dims", "spacing"),
            "the curvature functional (lam / 8) sum exp(2 sigma) vol overflows",
        )
    sigma = LatticeField(config, np.full(config.dims, params["sigma_const"]))
    r_value, deviation = conformal_transport_check(sigma, params["lam"])
    closed = site_sum * config.cell_volume
    values = {"curvature-functional": r_value, "functional-derivative-deviation": deviation}
    values["closed-form-deviation"] = Measured(abs(r_value - closed), magnitude=closed)
    weights = params["lam"] / 8.0 * np.exp(2.0 * sigma.values) * config.cell_volume
    csv = {"lattice": (_lattice_header(config), _site_rows(config, weights))}
    return values, None, csv


def _run_lattice_greens(params: dict, seed: int) -> tuple:
    config = _lattice_config(params)
    functional = lattice_greens_function(config, use_regulator=params["use_regulator"])
    names = ("mass", "spacing") + (("use_regulator",) if params["use_regulator"] else ())
    cause = "round-off alone in op @ G, machine epsilon times max |lambda + i epsilon| max |g|,"
    defect = Measured(functional.defect, floor=Floor(functional.roundoff, cause, names))
    values = {"defining-property": defect, "kernel-symmetry": functional.asymmetry}
    csv = {"lattice": (_lattice_header(config), _site_rows(config, np.real(functional.g)))}
    return values, None, csv


def _run_lattice_positivity(params: dict, seed: int) -> tuple:
    config = _lattice_config(params)
    _budget_draws(params, config)
    amplitude = params["amplitude"]
    functional = lattice_greens_function(config)
    # the residual sums, over the sites, halves of (dS/dphi)^2, of one
    # gradient square per axis and of m^2 phi^2; |phi| <= amplitude bounds
    # each root by amplitude * reach, so refuse an amplitude whose squares
    # and their sum (times the cell volume, when that exceeds 1) overflow.
    # reach >= 1 (vol sum |g| = spacing^d / m^2), so the draw's width
    # 2 amplitude stays finite too
    vol = config.cell_volume
    reach = max(vol * float(np.sum(np.abs(functional.g))), 2.0 / config.spacing, config.mass)
    terms = 0.5 * (2 + len(config.dims)) * config.n_sites * max(1.0, vol)
    limit = math.sqrt(sys.float_info.max / terms) / reach
    names = ("amplitude", "spacing", "mass")
    if not amplitude < limit:
        _refuse(
            params, names,
            "the Hamilton-Jacobi residual on this lattice overflows; amplitude must "
            "stay below {:.3g}".format(limit),
        )
    # the mass term alone, m^2 phi^2 vol / 2 at every site, keeps the
    # euclidean residual positive while it is a normal float at |phi| =
    # amplitude; below that the squares underflow and the residual reads 0
    least = math.sqrt(2.0 * sys.float_info.min / vol) / config.mass
    if not amplitude >= least:
        _refuse(
            params, names,
            "the Hamilton-Jacobi residual on this lattice underflows; amplitude must "
            "be at least {:.3g}".format(least),
        )
    rng = random.Random(seed)
    worst = math.inf
    last = None
    for _ in range(params["draws"]):
        last = LatticeField(config, _uniform(rng, -amplitude, amplitude, config))
        worst = min(worst, functional_hj_residual(functional, last))
    lightcone = LatticeConfig(dims=(8, 8), signature="lorentzian", mass=1.0)
    _, phase = plane_wave_phase(lightcone, (1, -1))
    wave = LatticeField(lightcone, np.cos(phase))
    diag = functional_hj_residual(lattice_greens_function(lightcone), wave)
    csv = {"lattice": (_lattice_header(config), _site_rows(config, last.values))}
    return {"minimum-residual": worst, "lorentzian-on-shell-residual": diag}, None, csv


def _run_lattice_imaginary(params: dict, seed: int) -> tuple:
    config = _lattice_config(params)
    _budget_draws(params, config)
    w = PointwiseFunction(value=lambda p: 2.0 + np.sin(p), derivative=np.cos)
    lam = params["lam"]
    # -4 (lam / 4) e^(2 sigma) e^(2 sigma) W and lam W e^(4 sigma) cancel; with
    # sigma and phi drawn from [-1, 1] each stays below |lam| (2 + sin 1) e^4,
    # and a correct residual reads up to about twice eps times that
    terms = abs(lam) * (2.0 + math.sin(1.0)) * math.exp(4.0)
    if not math.isfinite(terms):
        _refuse(params, ("lam",), "the imaginary-part terms, up to |lam| (2 + sin 1) e^4, overflow")
    rng = random.Random(seed)
    worst = 0.0
    last = None
    for _ in range(params["draws"]):
        sigma = LatticeField(config, _uniform(rng, -1.0, 1.0, config))
        phi = LatticeField(config, _uniform(rng, -1.0, 1.0, config))
        last = conformal_imaginary_part_residual(
            sigma, phi, w, analytic_conformal_derivative(sigma, lam), lam
        )
        worst = max(worst, float(np.max(np.abs(last.values))))
    csv = {"lattice": (_lattice_header(config), _site_rows(config, last.values))}
    floor = roundoff(terms, "the two imaginary-part terms", ("lam",))
    return {"imaginary-part-residual": Measured(worst, floor=floor)}, None, csv


def _run_lattice_kg(params: dict, seed: int) -> tuple:
    config = _lattice_config(params)
    dt = params["dt"]
    phi0, velocity, wave = lattice_plane_wave(config, params["mode"], dt)
    run = lattice_klein_gordon_check(phi0, velocity, dt=dt, n_steps=params["steps"], exact=wave)
    # the stencil divides time differences of a unit wave by dt^2; a correct
    # leapfrog reads up to about 1.25 eps / dt^2, so 0.6 of the tolerance
    floor = roundoff(1.0 / (dt * dt), "the stencil's time differences over dt^2", ("dt",))
    stencil = Measured(run.residual, floor=floor)
    values = {"stencil-residual": stencil, "dispersion-tracking": run.tracking}
    csv = {"lattice": (_lattice_header(config), _site_rows(config, run.final))}
    return values, None, csv
