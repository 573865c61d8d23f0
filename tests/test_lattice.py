"""Lattice Green's functions, leapfrog evolution, and conformal residuals."""

import math
import tracemalloc

import numpy as np
import pytest

from semiprop.lattice import (
    LatticeConfig,
    LatticeField,
    PointwiseFunction,
    QuadraticFunctional,
    _forward_gradient_square,
    _laplacian,
    analytic_conformal_derivative,
    conformal_imaginary_part_residual,
    conformal_real_part_residual,
    conformal_transport_check,
    constant_function,
    functional_hj_residual,
    lattice_greens_function,
    lattice_klein_gordon_check,
    lattice_operator,
    lattice_plane_wave,
    plane_wave_phase,
)

PAIR = LatticeConfig(dims=(2,))
GRID_4X4 = LatticeConfig(dims=(4, 4))


def zero_field(config):
    return LatticeField(config, np.zeros(config.dims))


def dense(q):
    """The n x n kernel G(x, y) = g[x - y], one roll of the column per site."""
    axes = tuple(range(q.g.ndim))
    return np.stack(
        [np.roll(q.g, y, axis=axes).reshape(-1) for y in np.ndindex(q.config.dims)],
        axis=1,
    )


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2 sites"):
        LatticeConfig(dims=(4, 1))
    with pytest.raises(ValueError, match="capped"):
        LatticeConfig(dims=(16, 16, 17))
    with pytest.raises(ValueError, match="signature"):
        LatticeConfig(dims=(4,), signature="riemannian")
    with pytest.raises(ValueError, match="mass"):
        LatticeConfig(dims=(4,), mass=-1.0)
    with pytest.raises(ValueError, match="spacing"):
        LatticeConfig(dims=(4,), spacing=0.0)


def test_field_validation():
    with pytest.raises(ValueError, match="shape"):
        LatticeField(GRID_4X4, np.zeros((4, 3)))
    bad = np.zeros((2,))
    bad[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        LatticeField(PAIR, bad)


def test_kernel_symmetry_enforced():
    # every 2-site circulant is symmetric, so this needs 3 sites: G(0, 1) = g[2]
    # and G(1, 0) = g[1]; the kernel measures max |G - G^T| over max(1, max |g|),
    # and `lattice greens` holds that to its kernel-symmetry tolerance
    ring = LatticeConfig(dims=(3,))
    assert QuadraticFunctional(g=np.array([1.0, 2.0, 0.0]), config=ring).asymmetry == 1.0
    assert QuadraticFunctional(g=np.array([0.5, 0.2, 0.0]), config=ring).asymmetry == 0.2
    g = np.array([4.0, 2.0, 2.0 + 2e-12])
    assert QuadraticFunctional(g=g, config=ring).asymmetry == (g[2] - g[1]) / 4.0
    # the kernel is its column, not the dense matrix
    with pytest.raises(ValueError, match="shape"):
        QuadraticFunctional(g=np.eye(3), config=ring)


# ------------------------------------------------- Green's functions


def test_two_site_operator_and_kernel():
    # hand inversion: rows [3, -2] have determinant 5, so G = (1/5)[[3,2],[2,3]]
    op = lattice_operator(PAIR)
    assert np.array_equal(op, np.array([[3.0, -2.0], [-2.0, 3.0]]))
    q = lattice_greens_function(PAIR)
    expected = np.array([[0.6, 0.4], [0.4, 0.6]])
    assert np.max(np.abs(dense(q) - expected)) < 1e-12


def test_three_site_kernel_hand_value():
    # L = 4I - ones(3): eigenvalue 1 on the constant mode, 4 on the rest,
    # so the inverse is 0.25 I + 0.25 * ones / 1 -> diag 0.5, off-diag 0.25
    q = lattice_greens_function(LatticeConfig(dims=(3,)))
    expected = np.full((3, 3), 0.25) + 0.25 * np.eye(3)
    assert np.max(np.abs(dense(q) - expected)) < 1e-12


def test_defining_property_euclidean():
    for config in (
        LatticeConfig(dims=(4, 4), spacing=0.5, mass=1.3),
        LatticeConfig(dims=(3, 5, 4), spacing=0.7, mass=0.9),
    ):
        q = lattice_greens_function(config)
        op = lattice_operator(config)
        kernel = dense(q)
        assert np.max(np.abs(op @ kernel - np.eye(config.n_sites))) < 1e-8
        assert np.max(np.abs(kernel - kernel.T)) < 1e-12
        assert q.defect < 1e-8 and q.asymmetry < 1e-12


def test_a_kernel_built_elsewhere_measures_its_own_defect():
    # the column of the dense inverse of lattice_operator is G(x, 0) = g[x]; the
    # stencil certifies it without the FFT that lattice_greens_function inverts by
    for config in (
        LatticeConfig(dims=(4, 4), spacing=0.5, mass=1.3),
        LatticeConfig(dims=(4, 4), signature="lorentzian", mass=1.0),
    ):
        column = np.linalg.inv(lattice_operator(config))[:, 0].reshape(config.dims)
        assert QuadraticFunctional(g=column, config=config).defect < 1e-8
        # the same column off by one part in 10^6 is not a Green's function
        wrong = QuadraticFunctional(g=column * (1.0 + 1e-6), config=config)
        assert wrong.defect > 1e-8


def test_heavy_mass_kernel_is_diagonal():
    config = LatticeConfig(dims=(4, 4), mass=1e3)
    q = lattice_greens_function(config)
    assert np.max(np.abs(dense(q) * 1e6 - np.eye(16))) < 1e-2


def test_euclidean_massless_refused():
    with pytest.raises(ValueError, match="constant mode"):
        lattice_greens_function(LatticeConfig(dims=(4,), mass=0.0))


def test_lorentzian_kernel_invertible_case():
    # eigenvalues are lambda_t - lambda_x + 1 with lambda in {0, 2, 4},
    # so the smallest magnitude is 1 and the inverse is well defined
    config = LatticeConfig(dims=(4, 4), signature="lorentzian", mass=1.0)
    q = lattice_greens_function(config)
    op = lattice_operator(config)
    assert np.max(np.abs(op @ dense(q) - np.eye(16))) < 1e-8
    assert not np.iscomplexobj(q.g)


def test_lorentzian_null_mode_refused_then_regulated():
    # m^2 = 2 puts lambda_t = 0, lambda_x = 2 exactly on shell; j = (0, 1) is
    # the first such mode in index order
    config = LatticeConfig(dims=(4, 4), signature="lorentzian", mass=np.sqrt(2.0))
    with pytest.raises(ValueError, match=r"null mode near wavenumber index \(0, 1\)"):
        lattice_greens_function(config)
    q = lattice_greens_function(config, use_regulator=True)
    assert np.iscomplexobj(q.g)
    assert q.regulator == pytest.approx(2e-3)
    four_d = LatticeConfig(dims=(4, 4, 4, 4), signature="lorentzian", mass=1.1)
    regulated = (q, lattice_greens_function(four_d, use_regulator=True))
    for q in regulated:
        config = q.config
        op = lattice_operator(config, regulator=q.regulator)
        kernel = dense(q)
        assert np.max(np.abs(op @ kernel - np.eye(config.n_sites))) < 1e-8
        assert np.max(np.abs(kernel - kernel.T)) < 1e-12 * np.max(np.abs(kernel))


def test_regulator_rejected_off_lorentzian():
    with pytest.raises(ValueError, match="lorentzian signature only"):
        lattice_greens_function(PAIR, use_regulator=True)
    with pytest.raises(ValueError, match="vanishes at m = 0"):
        lattice_greens_function(
            LatticeConfig(dims=(4, 4), signature="lorentzian", mass=0.0),
            use_regulator=True,
        )


# ------------------------------------------- functional HJ residual


def test_hj_residual_zero_field():
    q = lattice_greens_function(GRID_4X4)
    assert functional_hj_residual(q, zero_field(GRID_4X4)) == 0.0


def test_hj_residual_two_site_hand_value():
    # phi = (1, 0): dS/dphi = first column of G = (0.6, 0.4), so the kernel
    # term is 0.26; wrap-around gradients give 1.0 and the mass term 0.5
    q = lattice_greens_function(PAIR)
    phi = LatticeField(PAIR, np.array([1.0, 0.0]))
    assert functional_hj_residual(q, phi) == pytest.approx(1.76, abs=1e-12)


def test_hj_residual_euclidean_positivity():
    q = lattice_greens_function(GRID_4X4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        phi = LatticeField(GRID_4X4, rng.uniform(-2.0, 2.0, size=(4, 4)))
        assert functional_hj_residual(q, phi) > 0.0


def roll_gradient_square(values, config):
    """The forward-difference square as formed with np.roll."""
    total = np.zeros(config.dims)
    for axis, sign in enumerate(config.axis_signs()):
        diff = (np.roll(values, -1, axis=axis) - values) / config.spacing
        total = total + sign * diff**2
    return total


def test_hj_residual_matches_the_dense_kernel():
    # the FFT convolution against the column equals the dense sum over G
    for config in (
        GRID_4X4,
        LatticeConfig(dims=(3, 5, 4)),
        LatticeConfig(dims=(4, 4), signature="lorentzian", mass=np.sqrt(2.0)),
    ):
        q = lattice_greens_function(config, use_regulator=config.signature == "lorentzian")
        phi = np.random.default_rng(5).uniform(-2.0, 2.0, size=config.dims)
        vol = config.cell_volume
        ds = (dense(q) @ phi.reshape(-1)) * vol
        expected = np.sum(
            0.5 * np.abs(ds.reshape(config.dims)) ** 2
            + 0.5 * roll_gradient_square(phi, config)
            + 0.5 * config.mass**2 * phi**2
        ) * vol
        value = functional_hj_residual(q, LatticeField(config, phi))
        assert abs(value - expected) <= 1e-12 * abs(expected)


def test_hj_residual_keeps_its_bits_with_one_kernel_transform():
    # the kernel spectrum is taken once per functional and the gradient
    # without np.roll; each residual is the per-call roll formula bit for bit
    for config in (
        PAIR,
        LatticeConfig(dims=(3,)),
        LatticeConfig(dims=(3, 5, 4), spacing=0.7, mass=1.3),
        LatticeConfig(dims=(32, 32)),
        LatticeConfig(dims=(4, 6), signature="lorentzian", mass=np.sqrt(2.0)),
    ):
        q = lattice_greens_function(config, use_regulator=config.signature == "lorentzian")
        rng = np.random.default_rng(2)
        for _ in range(3):
            phi = rng.uniform(-2.0, 2.0, size=config.dims)
            vol = config.cell_volume
            ds = np.fft.ifftn(np.fft.fftn(q.g) * np.fft.fftn(phi)) * vol
            ds_sq = np.abs(ds) ** 2 if q.regulator != 0.0 else np.real(ds) ** 2
            density = (
                0.5 * ds_sq
                + 0.5 * roll_gradient_square(phi, config)
                + 0.5 * config.mass**2 * phi**2
            )
            expected = float(np.sum(density) * vol)
            assert functional_hj_residual(q, LatticeField(config, phi)) == expected
            gradient = _forward_gradient_square(phi, config)
            assert gradient.tobytes() == roll_gradient_square(phi, config).tobytes()


def test_hj_residual_refusals():
    q = lattice_greens_function(GRID_4X4)
    with pytest.raises(ValueError, match="different lattices"):
        functional_hj_residual(q, zero_field(PAIR))
    with pytest.raises(ValueError, match="real field"):
        functional_hj_residual(
            q, LatticeField(GRID_4X4, np.zeros((4, 4), dtype=complex))
        )


def test_hj_residual_lorentzian_diagnostic_recorded():
    # on the lattice light cone (equal mode index on both axes) the operator
    # eigenvalue is exactly m^2, so the value stays finite under refinement;
    # this is a recorded diagnostic with no tolerance attached
    values = []
    for n in (8, 16):
        config = LatticeConfig(dims=(n, n), signature="lorentzian", mass=1.0)
        x = np.arange(n)
        t, s = np.meshgrid(x, x, indexing="ij")
        phi = LatticeField(config, np.cos(2.0 * np.pi * (t - s) / n))
        values.append(functional_hj_residual(lattice_greens_function(config), phi))
    assert all(np.isfinite(v) for v in values)


# ------------------------------------------------ Klein-Gordon runs


def test_klein_gordon_plane_wave_tracks_dispersion():
    config = LatticeConfig(dims=(32,), mass=0.7)
    x = np.arange(32.0)
    k = 2.0 * np.pi * 3.0 / 32.0
    # 10**9 + 3 is mode 3 on 32 sites; unless the index is reduced mod 32
    # before k is formed, rounding the huge phase breaks the tracking bound
    for mode in (3, 1_000_000_003):
        phi0, velocity, wave = lattice_plane_wave(config, mode=(mode,), dt=0.05)
        # frozen 30-digit evaluation of arccos(1 - dt^2/2 (lambda_k + m^2)) / dt;
        # arccos near 1 amplifies one ulp of the cosine by ~1/(sin(w dt) dt)
        assert wave.omega == pytest.approx(0.9095071857035232568, abs=1e-13)
        run = lattice_klein_gordon_check(
            phi0, velocity, dt=0.05, n_steps=200,
            exact=lambda t: np.cos(k * x - wave.omega * t),
        )
        assert run.residual < 1e-8
        assert run.tracking < 1e-8


def test_klein_gordon_plane_wave_two_dimensional():
    config = LatticeConfig(dims=(8, 8), mass=0.5)
    phi0, velocity, wave = lattice_plane_wave(config, mode=(2, 1), dt=0.05)
    grids = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
    phase = 2.0 * np.pi * (2.0 * grids[0] + 1.0 * grids[1]) / 8.0
    run = lattice_klein_gordon_check(
        phi0, velocity, dt=0.05, n_steps=150,
        exact=lambda t: np.cos(phase - wave.omega * t),
    )
    assert run.residual < 1e-8
    assert run.tracking < 1e-8


def _history_klein_gordon(phi0, velocity, dt, n_steps, exact):
    """The leapfrog as it stood when it kept every slice: the reference the
    streamed check must match bit for bit."""
    config = phi0.config

    def acceleration(values):
        total = np.zeros_like(values)
        for axis in range(values.ndim):
            total = total + 1.0 * (
                np.roll(values, -1, axis=axis) + np.roll(values, 1, axis=axis)
                - 2.0 * values
            )
        return total / config.spacing**2 - config.mass**2 * values

    fields = np.zeros((n_steps + 1,) + config.dims)
    fields[0] = phi0.values
    fields[1] = (
        phi0.values + dt * velocity.values + 0.5 * dt**2 * acceleration(phi0.values)
    )
    residual = np.zeros(n_steps - 1)
    for step in range(1, n_steps):
        force = acceleration(fields[step])
        fields[step + 1] = 2.0 * fields[step] - fields[step - 1] + dt**2 * force
        stencil = (fields[step + 1] - 2.0 * fields[step] + fields[step - 1]) / dt**2
        residual[step - 1] = np.max(np.abs(stencil - force))
    tracking = 0.0
    for step, t in enumerate(dt * np.arange(n_steps + 1)):
        tracking = max(tracking, float(np.max(np.abs(fields[step] - exact(t)))))
    return fields[-1], float(np.max(residual)), tracking


@pytest.mark.parametrize(
    "dims, mode, mass, n_steps",
    [((32,), (3,), 0.7, 200), ((8, 8), (2, 1), 0.5, 150), ((64, 64), (3, 1), 0.7, 200)],
    ids=["32", "8x8", "64x64"],
)
def test_klein_gordon_stream_matches_history_bit_for_bit(dims, mode, mass, n_steps):
    config = LatticeConfig(dims=dims, mass=mass)
    phi0, velocity, wave = lattice_plane_wave(config, mode=mode, dt=0.05)
    run = lattice_klein_gordon_check(phi0, velocity, dt=0.05, n_steps=n_steps, exact=wave)
    final, residual, tracking = _history_klein_gordon(phi0, velocity, 0.05, n_steps, wave)
    assert np.array_equal(run.final, final)
    assert run.residual == residual
    assert run.tracking == tracking


def test_klein_gordon_memory_does_not_grow_with_steps():
    config = LatticeConfig(dims=(64, 64), mass=0.7)
    phi0, velocity, wave = lattice_plane_wave(config, mode=(3, 1), dt=0.05)
    peaks = []
    for n_steps in (40, 400):
        tracemalloc.start()
        try:
            lattice_klein_gordon_check(phi0, velocity, dt=0.05, n_steps=n_steps, exact=wave)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks


def roll_laplacian(values, spacing, weights):
    """The periodic second-difference sum as formed with np.roll."""
    total = np.zeros_like(values)
    for axis, weight in enumerate(weights):
        total = total + weight * (
            np.roll(values, -1, axis=axis) + np.roll(values, 1, axis=axis) - 2.0 * values
        )
    return total / spacing**2


@pytest.mark.parametrize("shape", [(2,), (3,), (48,), (2, 3), (48, 3), (3, 48, 2), (3, 2, 4)])
def test_laplacian_matches_the_roll_formula_bit_for_bit(shape):
    rng = np.random.default_rng(7)
    real = rng.uniform(-1.0, 1.0, size=shape)
    # signed zeros: the roll formula sums from +0, which turns a -0 term into +0
    zeros = np.where(rng.uniform(size=shape) < 0.5, -0.0, 0.0)
    samples = [
        real,
        zeros,
        real + 1j * rng.uniform(-1.0, 1.0, size=shape),
        zeros - 1j * zeros,
        np.asfortranarray(real),
    ]
    for values in samples:
        before = values.copy()
        for n_axes in range(1, values.ndim + 1):  # the rest are batch axes
            for weights in (np.ones(n_axes), -np.ones(n_axes), rng.uniform(-2.0, 2.0, n_axes)):
                got = _laplacian(values, 0.7, weights)
                want = roll_laplacian(values, 0.7, weights)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n_axes, weights)
        assert values.tobytes() == before.tobytes()


@pytest.mark.parametrize("dims, mode", [((8,), (3,)), ((8, 6), (1_000_000_003, 2)), ((16, 16), (5, -7))])
def test_plane_wave_angle_addition_matches_the_direct_cosine(dims, mode):
    config = LatticeConfig(dims=dims, mass=0.7)
    _, phase = plane_wave_phase(config, mode)
    _, _, wave = lattice_plane_wave(config, mode, dt=0.05)
    assert np.array_equal(wave.phase, phase)
    for t in np.linspace(0.0, 3.0, 61):
        direct = np.cos(phase - wave.omega * t)
        assert np.max(np.abs(wave(t) - direct)) <= 1e-14, t


def test_klein_gordon_trivial_cases():
    run = lattice_klein_gordon_check(
        zero_field(GRID_4X4), zero_field(GRID_4X4), dt=0.1, n_steps=20
    )
    assert run.residual == 0.0
    assert run.tracking is None
    massless = LatticeConfig(dims=(4, 4), mass=0.0)
    constant = LatticeField(massless, np.full((4, 4), 0.7))
    run = lattice_klein_gordon_check(
        constant, zero_field(massless), dt=0.1, n_steps=20
    )
    assert run.residual == 0.0
    assert np.array_equal(run.final, constant.values)


def test_klein_gordon_refusals():
    with pytest.raises(ValueError, match="CFL"):
        lattice_klein_gordon_check(
            zero_field(GRID_4X4), zero_field(GRID_4X4), dt=1.5, n_steps=10
        )
    # dt below the spacing still breaks the bound in 2-d: 0.9^2 * (8 + 1) > 4
    with pytest.raises(ValueError, match=r"dt = 0\.9 violates the leapfrog CFL"):
        lattice_klein_gordon_check(
            zero_field(GRID_4X4), zero_field(GRID_4X4), dt=0.9, n_steps=10
        )
    with pytest.raises(ValueError, match="dt must be positive"):
        lattice_klein_gordon_check(
            zero_field(GRID_4X4), zero_field(GRID_4X4), dt=0.0, n_steps=10
        )
    with pytest.raises(ValueError, match="n_steps"):
        lattice_klein_gordon_check(
            zero_field(GRID_4X4), zero_field(GRID_4X4), dt=0.1, n_steps=1
        )
    with pytest.raises(ValueError, match="different lattices"):
        lattice_klein_gordon_check(
            zero_field(GRID_4X4), zero_field(PAIR), dt=0.1, n_steps=10
        )


def test_plane_wave_refusals():
    with pytest.raises(ValueError, match="dimensions"):
        lattice_plane_wave(GRID_4X4, mode=(1,), dt=0.1)
    # the plane wave makes its own stability test: at dt = 1 the zone-boundary
    # mode has cos(omega dt) = 1 - (4 + 1) / 2 = -1.5
    with pytest.raises(ValueError, match="unstable"):
        lattice_plane_wave(LatticeConfig(dims=(2,), mass=1.0), mode=(1,), dt=1.0)


# --------------------------------------------- conformal transport


def test_transport_flat_sigma():
    r_value, deviation = conformal_transport_check(zero_field(GRID_4X4), lam=8.0)
    assert r_value == 16.0
    assert deviation < 1e-6


def test_transport_constant_sigma_closed_form():
    config = LatticeConfig(dims=(3, 3))
    sigma = LatticeField(config, np.full((3, 3), 0.3))
    r_value, deviation = conformal_transport_check(sigma, lam=2.4)
    # frozen 30-digit value of (2.4/8) * 9 * exp(0.6)
    assert r_value == pytest.approx(4.9197207610543742322, rel=1e-14)
    assert deviation < 1e-6


def test_transport_nonunit_volume():
    config = LatticeConfig(dims=(2, 3), spacing=0.5)
    r_value, deviation = conformal_transport_check(zero_field(config), lam=8.0)
    assert r_value == pytest.approx(1.5, abs=1e-14)
    assert deviation < 1e-6


def test_transport_random_sigma_derivative():
    rng = np.random.default_rng(7)
    sigma = LatticeField(GRID_4X4, rng.uniform(-1.0, 1.0, size=(4, 4)))
    _, deviation = conformal_transport_check(sigma, lam=1.7)
    assert deviation < 1e-6


def test_transport_zero_lambda_and_overflow():
    r_value, deviation = conformal_transport_check(zero_field(GRID_4X4), lam=0.0)
    assert r_value == 0.0
    assert deviation < 1e-12
    blown = np.zeros((4, 4))
    blown[2, 1] = 400.0
    with pytest.raises(ValueError, match=r"overflows at site \(2, 1\)"):
        conformal_transport_check(LatticeField(GRID_4X4, blown), lam=1.0)


# ------------------------------------------ conformal residual fields


def test_real_part_superpotential_cancellation():
    # with phi = 0, constant sigma, and W = Lambda / 8 every term cancels:
    # 4 e^{4 sigma} (Lambda/8)^2 equals (Lambda^2/16) e^{4 sigma} in floats
    sigma = LatticeField(GRID_4X4, np.full((4, 4), 0.4))
    res = conformal_real_part_residual(
        zero_field(GRID_4X4), sigma, constant_function(1.0), constant_function(2.0), lam=8.0
    )
    assert np.all(res.values == 0.0)
    sigma = LatticeField(GRID_4X4, np.full((4, 4), -0.2))
    res = conformal_real_part_residual(
        zero_field(GRID_4X4),
        sigma,
        constant_function(2.7 / 8.0),
        constant_function(1.0),
        lam=2.7,
    )
    assert np.max(np.abs(res.values)) < 1e-15


def test_real_part_flags_vanishing_superpotential():
    sigma = zero_field(GRID_4X4)
    with pytest.warns(UserWarning, match="W vanishes identically"):
        res = conformal_real_part_residual(
            zero_field(GRID_4X4), sigma, constant_function(0.0), constant_function(1.0), lam=4.0
        )
    # only the -(Lambda^2/16) e^{4 sigma} term survives
    assert np.allclose(res.values, -1.0, rtol=0.0, atol=1e-15)


def test_real_part_zero_lambda_constant_fields():
    sigma = LatticeField(GRID_4X4, np.full((4, 4), 0.3))
    with pytest.warns(UserWarning, match="W vanishes identically"):
        res = conformal_real_part_residual(
            zero_field(GRID_4X4), sigma, constant_function(0.0), constant_function(1.0), lam=0.0
        )
    assert np.all(res.values == 0.0)


def test_real_part_refuses_nonpositive_f():
    sigma = LatticeField(GRID_4X4, np.linspace(-1.0, 1.0, 16).reshape(4, 4))
    identity = PointwiseFunction(value=lambda s: s, derivative=np.ones_like)
    with pytest.raises(ValueError, match="must be positive"):
        conformal_real_part_residual(
            zero_field(GRID_4X4), sigma, constant_function(1.0), identity, lam=1.0
        )
    with pytest.raises(ValueError, match="different lattices"):
        conformal_real_part_residual(
            zero_field(PAIR), sigma, constant_function(1.0), constant_function(1.0), lam=1.0
        )


def test_real_part_lorentzian_gradient_sign():
    # sigma varying along the time axis contributes -(d_t sigma)^2 with the
    # lorentzian metric sign, so the residual is +1 at every site
    config = LatticeConfig(dims=(2, 2), signature="lorentzian")
    sigma = LatticeField(config, np.array([[0.0, 0.0], [1.0, 1.0]]))
    phi = LatticeField(config, np.zeros((2, 2)))
    res = conformal_real_part_residual(
        phi, sigma, constant_function(1.0), constant_function(1.0), lam=8.0
    )
    assert np.allclose(res.values, 1.0, rtol=0.0, atol=1e-12)


def test_imaginary_part_analytic_derivative_cancels():
    rng = np.random.default_rng(23)
    w = PointwiseFunction(
        value=lambda p: 2.0 + np.sin(p),
        derivative=np.cos,
    )
    for _ in range(10):
        sigma = LatticeField(GRID_4X4, rng.uniform(-1.0, 1.0, size=(4, 4)))
        phi = LatticeField(GRID_4X4, rng.uniform(-1.0, 1.0, size=(4, 4)))
        res = conformal_imaginary_part_residual(
            sigma, phi, w, analytic_conformal_derivative(sigma, 1.3), lam=1.3
        )
        assert np.max(np.abs(res.values)) < 1e-12


def test_imaginary_part_zero_derivative_closed_form():
    rng = np.random.default_rng(5)
    sigma = LatticeField(GRID_4X4, rng.uniform(-0.5, 0.5, size=(4, 4)))
    res = conformal_imaginary_part_residual(
        sigma, zero_field(GRID_4X4), constant_function(1.0), np.zeros((4, 4)), lam=2.0
    )
    assert np.array_equal(res.values, 2.0 * np.exp(4.0 * sigma.values))


def test_imaginary_part_callable_derivative():
    sigma = LatticeField(GRID_4X4, np.full((4, 4), 0.1))
    res = conformal_imaginary_part_residual(
        sigma,
        zero_field(GRID_4X4),
        constant_function(1.0),
        0.75 * np.exp(2.0 * sigma.values),
        lam=3.0,
    )
    assert np.max(np.abs(res.values)) < 1e-12


def test_imaginary_part_refuses_a_derivative_not_shaped_like_the_lattice():
    for derivative in (0.0, np.zeros(16)):
        with pytest.raises(ValueError, match=r"dr_dsigma has shape .*, the lattice \(4, 4\)"):
            conformal_imaginary_part_residual(
                zero_field(GRID_4X4), zero_field(GRID_4X4), constant_function(1.0),
                derivative, lam=1.0,
            )


def test_imaginary_part_refuses_vanishing_w():
    identity = PointwiseFunction(value=lambda p: p, derivative=np.ones_like)
    phi = np.ones((4, 4))
    phi[1, 3] = 0.0
    with pytest.raises(ValueError, match=r"W vanishes at site \(1, 3\)"):
        conformal_imaginary_part_residual(
            zero_field(GRID_4X4), LatticeField(GRID_4X4, phi), identity, 0.0, lam=1.0
        )


def test_constant_function_descriptor():
    f = constant_function(2.5)
    x = np.linspace(-1.0, 1.0, 5)
    assert np.all(f.value(x) == 2.5)
    assert np.all(f.derivative(x) == 0.0)
