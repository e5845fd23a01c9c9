import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from contactfatigue.kernels import (BOUNDARY_FACTOR, basis_at,
                                    build_hsgp_1d, build_hsgp_2d,
                                    build_hsgp_2d_symmetric, gram_matrix,
                                    kernel_eval, spectral_density,
                                    spectral_weights_vjp)

from conftest import assert_matches_reference

ALL_FAMILIES = ("se", "matern32", "matern52")


def realized_covariance(basis, family, hyper, *inputs):
    """Phi S Phi^T at ``inputs``, from the dense reference basis, for the
    hyperparameters (sigma_1, ell_1[, sigma_2, ell_2])."""
    phi = basis_at(basis, *inputs)
    return (phi * basis.spectral_weights(family, np.asarray(hyper))) @ phi.T


def density(family, sigma, ell, omega):
    """The spectral density S alone, at the frequencies ``omega``."""
    return spectral_density(family, sigma, ell, np.square(omega))[0]


class TestKernelEval:
    def test_magnitude_at_zero_distance(self):
        assert kernel_eval("matern32", 2.0, 1.0, 0.0, 0.0) == pytest.approx(
            2.0)

    def test_se_plugin(self):
        assert kernel_eval("se", 1.0, 1.0, 0.0, np.sqrt(2.0)) == pytest.approx(
            np.exp(-1.0), rel=1e-12)

    def test_matern52_high_precision_oracle(self):
        # (1 + sqrt(5) + 5/3) e^{-sqrt(5)} at 50 digits via mpmath
        mpmath.mp.dps = 50
        s5 = mpmath.sqrt(5)
        expected = float((1 + s5 + mpmath.mpf(5) / 3) * mpmath.exp(-s5))
        assert kernel_eval("matern52", 1.0, 1.0, 0.0, 1.0) == pytest.approx(
            expected, rel=1e-14)
        assert expected == pytest.approx(0.52399, abs=5e-6)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_symmetry(self, family):
        x = np.linspace(-3, 7, 11)
        k = gram_matrix(family, 1.3, 2.1, x)
        np.testing.assert_allclose(k, k.T, rtol=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gram_is_psd_with_jitter(self, family):
        rng = np.random.default_rng(11)
        for trial in range(3):
            x = rng.uniform(0, 40, size=50)
            k = gram_matrix(family, 1.0 + trial, 3.0, x) + 1e-10 * np.eye(50)
            np.linalg.cholesky(k)  # raises if not PSD


class TestSpectralDensity:
    def test_se_at_zero(self):
        assert density("se", 1.0, 1.0, 0.0) == pytest.approx(
            np.sqrt(2 * np.pi), rel=1e-12)

    def test_matern32_at_zero(self):
        assert density("matern32", 1.0, 1.0, 0.0) == pytest.approx(
            12 * np.sqrt(3) / 9, rel=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("ell", [0.7, 2.0])
    def test_matches_numerical_fourier_transform(self, family, ell):
        # S(w) = int k(r) cos(w r) dr, trapezoid on [-40, 40]
        r = np.linspace(-40, 40, 40001)
        k = kernel_eval(family, 1.4, ell, r, 0.0)
        for omega in np.linspace(0.0, 10.0, 21):
            numeric = trapezoid(k * np.cos(omega * r), r)
            analytic = density(family, 1.4, ell, omega)
            if analytic > 1e-12:
                assert analytic == pytest.approx(numeric, rel=1e-3,
                                                 abs=1e-9)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_total_power_equals_magnitude_1d(self, family):
        total, _ = quad(lambda w: density(family, 1.7, 1.3, w), -np.inf,
                        np.inf, limit=200)
        assert total / (2 * np.pi) == pytest.approx(1.7, abs=1e-4)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gradients_match_finite_differences(self, family):
        # S and d log S / d ell; S is linear in sigma
        omega = np.linspace(0, 6, 13)
        s, d_log_ell = spectral_density(family, 1.2, 0.8, omega**2)
        h = 1e-6
        num_sigma = (density(family, 1.2 + h, 0.8, omega)
                     - density(family, 1.2 - h, 0.8, omega)) / (2 * h)
        num_ell = (density(family, 1.2, 0.8 + h, omega)
                   - density(family, 1.2, 0.8 - h, omega)) / (2 * h)
        np.testing.assert_allclose(s / 1.2, num_sigma, rtol=1e-6)
        np.testing.assert_allclose(s * d_log_ell, num_ell, rtol=1e-5)


class TestHsgp1d:
    def test_first_eigenfrequency(self):
        # inputs chosen so the box half-width is exactly 1
        basis = build_hsgp_1d(np.array([-1.0, 1.0]) / BOUNDARY_FACTOR, m=4)
        assert basis.half_width[0] == pytest.approx(1.0)
        assert basis.freqs[0, 0] == pytest.approx(np.pi / 2)

    def test_se_covariance_error(self):
        x = np.linspace(-5, 5, 41)
        basis = build_hsgp_1d(x, m=64)
        exact = gram_matrix("se", 1.0, 1.0, x)
        approx = realized_covariance(basis, "se", (1.0, 1.0), x)
        assert np.max(np.abs(approx - exact)) < 1e-3

    def test_matern32_covariance_error(self):
        x = np.linspace(-5, 5, 41)
        basis = build_hsgp_1d(x, m=128)
        exact = gram_matrix("matern32", 1.0, 1.0, x)
        assert np.max(np.abs(realized_covariance(basis, "matern32",
                                                 (1.0, 1.0), x)
                             - exact)) < 5e-3

    def test_error_monotone_in_basis_size(self):
        x = np.linspace(-5, 5, 41)
        exact = gram_matrix("se", 1.0, 1.0, x)
        errors = []
        for m in (8, 16, 32, 64):
            basis = build_hsgp_1d(x, m=m)
            errors.append(np.max(np.abs(
                realized_covariance(basis, "se", (1.0, 1.0), x) - exact)))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_columns_orthonormal_under_uniform_measure(self):
        basis = build_hsgp_1d(np.linspace(-4, 4, 11), m=12)
        half = basis.half_width[0]
        grid = np.linspace(-half, half, 20001) + basis.center[0]
        phi = basis_at(basis, grid)
        gram = trapezoid(phi[:, :, None] * phi[:, None, :],
                        grid - basis.center[0], axis=0)
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-6)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_hsgp_1d(np.arange(5.0), m=0)


def _grid_points(axis_a, axis_b):
    """The points of a 2D basis on ``axis_a`` x ``axis_b``, in its order:
    point i n_b + j pairs axis_a[i] with axis_b[j]."""
    return tuple(x.ravel() for x in np.meshgrid(axis_a, axis_b,
                                                indexing="ij"))


class TestHsgp2dSymmetric:
    AGES = np.linspace(0, 84, 10)

    def test_symmetric_column_count(self):
        basis = build_hsgp_2d_symmetric(self.AGES[:4], m=2)
        assert basis.n_basis == 3  # m(m+1)/2

    def test_points_are_the_grid_of_the_axes(self):
        basis = build_hsgp_2d(self.AGES[:4], self.AGES[:7], m=3)
        assert basis.n_points == 28
        assert [s.shape for s in basis.sines] == [(4, 3), (7, 3)]

    def test_realizations_symmetric_to_machine_precision(self):
        basis = build_hsgp_2d_symmetric(self.AGES[:8], m=6)
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.standard_normal(basis.n_basis)
            s = basis.spectral_weights("matern52",
                                       np.array([1.0, 15.0, 1.0, 15.0]))
            f = basis.matvec(np.sqrt(s) * w).reshape(8, 8)
            np.testing.assert_array_equal(f, f.T)

    def test_covariance_matches_symmetrized_kernel(self):
        # oracle: dense product kernel, symmetrized over axis swap
        sigma, ell = 1.0, 12.0
        basis = build_hsgp_2d_symmetric(self.AGES, m=16)
        a, b = _grid_points(self.AGES, self.AGES)
        k_a = kernel_eval("se", sigma, ell, a[:, None], a[None, :])
        k_b = kernel_eval("se", sigma, ell, b[:, None], b[None, :])
        k = k_a * k_b / sigma      # product kernel, k(0) = sigma
        k_swap = (kernel_eval("se", sigma, ell, a[:, None], b[None, :])
                  * kernel_eval("se", sigma, ell, b[:, None], a[None, :])
                  / sigma)
        target = 0.5 * (k + k_swap)
        approx = realized_covariance(basis, "se", (sigma, ell) * 2, a, b)
        assert np.max(np.abs(approx - target)) < 5e-2

    def test_full_2d_covariance(self):
        sigma, ell = 1.0, 12.0
        ages = self.AGES[:9]
        basis = build_hsgp_2d(ages, ages, m=14)
        a, b = _grid_points(ages, ages)
        k = (kernel_eval("se", sigma, ell, a[:, None], a[None, :])
             * kernel_eval("se", sigma, ell, b[:, None], b[None, :]) / sigma)
        approx = realized_covariance(basis, "se", (sigma, ell) * 2, a, b)
        assert np.max(np.abs(approx - k)) < 5e-2

    def test_basis_at_matches_build_inputs(self):
        # the dense reference at the build inputs is the 1D basis matrix,
        # and reproduces the products of the factored 2D bases
        ages = self.AGES[:5]
        np.testing.assert_array_equal(basis_at(build_hsgp_1d(ages, m=5), ages),
                                      build_hsgp_1d(ages, m=5).phi)
        rng = np.random.default_rng(3)
        for basis, axes in ((build_hsgp_2d_symmetric(ages, m=5), (ages, ages)),
                            (build_hsgp_2d(ages, 0.5 * ages[:4], m=5),
                             (ages, 0.5 * ages[:4]))):
            phi = basis_at(basis, *_grid_points(*axes))
            v = rng.standard_normal(basis.n_basis)
            g = rng.standard_normal(basis.n_points)
            np.testing.assert_allclose(basis.matvec(v), phi @ v,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(basis.rmatvec(g), phi.T @ g,
                                       rtol=1e-12, atol=1e-12)


AGE_SD = np.arange(85.0).std()
AGE_AXIS = np.arange(85.0) / AGE_SD


def _surface_basis(kind, centered):
    """A 2D basis on axes like the models': the age grid (a symmetric or
    unrestricted surface), or participant ages x band midpoints
    (variant_c)."""
    if kind == "variant_c":
        axes = (np.array([10.0, 25.0, 40.0, 60.0]) / AGE_SD,
                np.array([2.0, 9.5, 24.5, 49.5, 72.0]) / AGE_SD)
        basis = build_hsgp_2d(*axes, m=12)
    elif kind == "symmetric":
        axes = (AGE_AXIS, AGE_AXIS)
        basis = build_hsgp_2d_symmetric(AGE_AXIS, m=12)
    else:
        axes = (AGE_AXIS, AGE_AXIS)
        basis = build_hsgp_2d(*axes, m=12)
    if centered:
        weights = np.random.default_rng(5).uniform(0.5, 2.0, basis.n_points)
        basis = basis.centered(weights)
    return basis, *_grid_points(*axes)


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("kind", ["symmetric", "unrestricted", "variant_c"])
class TestFactoredBasis:
    """2D bases keep per-axis sine factors; their products agree with the
    dense reference basis ``basis_at``."""

    def test_products_at_build_points(self, kind, centered):
        basis, a, b = _surface_basis(kind, centered)
        phi = basis_at(basis, a, b)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.standard_normal(basis.n_basis)
            g = rng.standard_normal(a.size)
            assert_matches_reference(basis.matvec(v), phi @ v)
            assert_matches_reference(basis.rmatvec(g), phi.T @ g)

    @pytest.mark.parametrize("whole", [False, True])
    def test_subgrid_reads_the_grid(self, kind, centered, whole):
        # a sub-grid basis gives the grid's values at its coordinates, and
        # its transpose product is the grid's on a gradient zero elsewhere
        basis, _, _ = _surface_basis(kind, centered)
        n_a, n_b = (s.shape[0] for s in basis.sines)
        rows, cols = ((np.arange(n_a), np.arange(n_b)) if whole
                      else (np.array([0, 2, 3]), np.arange(1, n_b, 2)))
        sub = basis.subgrid(rows, cols)
        rng = np.random.default_rng(12)
        for _ in range(3):
            v = rng.standard_normal(basis.n_basis)
            full = basis.matvec(v).reshape(n_a, n_b)[np.ix_(rows, cols)]
            np.testing.assert_allclose(
                sub.matvec(v), full.ravel(), rtol=1e-13,
                atol=1e-13 * np.max(np.abs(full)))
            g = rng.standard_normal((rows.size, cols.size))
            grid = np.zeros((n_a, n_b))
            grid[np.ix_(rows, cols)] = g
            reference = basis.rmatvec(grid.ravel())
            np.testing.assert_allclose(
                sub.rmatvec(g.ravel()), reference, rtol=1e-13,
                atol=1e-13 * np.max(np.abs(reference)))


@pytest.mark.parametrize("kind", ["symmetric", "unrestricted", "variant_c"])
def test_spectral_weights_equal_the_per_column_formula(kind):
    # column (j, k) pairs axis frequencies j and k, j-major; a symmetric
    # basis keeps j <= k and averages both orderings
    basis, _, _ = _surface_basis(kind, centered=False)
    m = basis.m
    j, k = (np.triu_indices(m) if basis.symmetric
            else np.divmod(np.arange(m * m), m))
    hyper = np.array([0.7, 1.3, 1.9, 0.4])

    def density(sigma, ell, omega):
        # S, dS/dsigma and dS/dell at the frequencies omega
        s, d_log_ell = spectral_density("matern52", sigma, ell, omega**2)
        return s, s / sigma, s * d_log_ell

    sa1, dsa1, dla1 = density(*hyper[:2], basis.freqs[j, 0])
    sb1, dsb1, dlb1 = density(*hyper[2:], basis.freqs[k, 1])
    s = sa1 * sb1
    grads = [dsa1 * sb1, dla1 * sb1, sa1 * dsb1, sa1 * dlb1]
    if basis.symmetric:
        sa2, dsa2, dla2 = density(*hyper[:2], basis.freqs[k, 1])
        sb2, dsb2, dlb2 = density(*hyper[2:], basis.freqs[j, 0])
        s = 0.5 * (s + sa2 * sb2)
        grads = [0.5 * (grads[0] + dsa2 * sb2),
                 0.5 * (grads[1] + dla2 * sb2),
                 0.5 * (grads[2] + sa2 * dsb2),
                 0.5 * (grads[3] + sa2 * dlb2)]
    weights, partials = basis.spectral_weights_grad("matern52", hyper)
    np.testing.assert_array_equal(weights, s)
    # the per-column partials enter only through the product with a
    # gradient on the columns, which the vjp takes in log S
    rng = np.random.default_rng(3)
    for _ in range(3):
        g = rng.standard_normal(weights.size)
        np.testing.assert_allclose(
            spectral_weights_vjp(basis, g * weights, partials),
            [g @ want for want in grads], rtol=1e-12)


class TestRealize:
    def test_zero_weights_zero_function(self):
        basis = build_hsgp_1d(np.linspace(-3, 3, 15), m=8)
        s = basis.spectral_weights("se", np.array([1.0, 1.0]))
        assert np.all(basis.matvec(np.sqrt(s) * np.zeros(8)) == 0.0)

    def test_monte_carlo_covariance(self):
        x = np.linspace(-3, 3, 9)
        basis = build_hsgp_1d(x, m=16)
        rng = np.random.default_rng(42)
        n = 10_000
        s = basis.spectral_weights("se", np.array([1.0, 1.5]))
        draws = np.stack([basis.matvec(np.sqrt(s) * rng.standard_normal(16))
                          for _ in range(n)])
        sample_cov = np.cov(draws.T)
        target = realized_covariance(basis, "se", (1.0, 1.5), x)
        # MC error on covariance entries ~ sqrt(2/n)
        assert np.max(np.abs(sample_cov - target)) < 6 * np.sqrt(2.0 / n)

    def test_magnitude_scales_covariance_linearly(self):
        x = np.linspace(-3, 3, 9)
        basis = build_hsgp_1d(x, m=16)
        np.testing.assert_allclose(
            realized_covariance(basis, "matern52", (4.0, 1.5), x),
            4.0 * realized_covariance(basis, "matern52", (1.0, 1.5), x),
            rtol=1e-12)

