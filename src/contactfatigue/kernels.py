"""Covariance kernels, spectral densities, and reduced-rank GP bases.

A Gaussian process on a bounded interval is approximated by the Laplacian
eigenfunctions of the box [-L, L],

    phi_j(x) = L^{-1/2} sin(sqrt(lambda_j) (x + L)),  sqrt(lambda_j) = j pi / (2L),

weighted by the kernel's spectral density evaluated at the eigenfrequencies.
Two-dimensional bases are tensor products; for exchangeable surfaces the
basis columns are symmetrized so every realization satisfies
f(a, b) = f(b, a) exactly.

Magnitude convention: ``magnitude`` is the marginal variance, k(0) = sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gamma as gamma_fn

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)

_FAMILIES = ("se", "matern32", "matern52")
_NU = {"matern32": 1.5, "matern52": 2.5}


@dataclass(frozen=True)
class KernelSpec:
    family: str
    magnitude: float     # k(0) = magnitude
    lengthscale: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.magnitude <= 0 or self.lengthscale <= 0:
            raise ValueError("magnitude and lengthscale must be > 0")


def kernel_eval(spec: KernelSpec, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Evaluate k(x, x') elementwise (broadcasting over inputs)."""
    r = np.abs(np.asarray(x, dtype=float) - np.asarray(x2, dtype=float))
    s = r / spec.lengthscale
    if spec.family == "se":
        return spec.magnitude * np.exp(-0.5 * s**2)
    if spec.family == "matern32":
        return spec.magnitude * (1.0 + SQRT3 * s) * np.exp(-SQRT3 * s)
    return spec.magnitude * (1.0 + SQRT5 * s + (5.0 / 3.0) * s**2) * np.exp(-SQRT5 * s)


def gram_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray | None = None
                ) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    return kernel_eval(spec, x[:, None], y[None, :])


def _matern_const(nu: float, dim: int) -> float:
    # S(w) = sigma * (prod ell_d) * C * (2 nu + sum ell_d^2 w_d^2)^-(nu + d/2)
    return (2.0**dim * np.pi ** (dim / 2.0) * gamma_fn(nu + dim / 2.0)
            * (2.0 * nu) ** nu / gamma_fn(nu))


def spectral_density(spec: KernelSpec, omega: np.ndarray, dim: int = 1
                     ) -> np.ndarray:
    """Spectral density S(omega) with the convention
    k(r) = (2 pi)^-d \\int S(w) exp(i w.r) dw, so total power equals k(0).

    For ``dim`` > 1 the kernel is the isotropic d-dimensional version and
    ``omega`` has the frequency vectors in its last axis.
    """
    omega = np.asarray(omega, dtype=float)
    if dim == 1:
        wsq = omega**2
    else:
        if omega.shape[-1] != dim:
            raise ValueError(f"omega last axis must have length {dim}")
        wsq = np.sum(omega**2, axis=-1)
    sigma, ell = spec.magnitude, spec.lengthscale
    if spec.family == "se":
        return sigma * (2.0 * np.pi) ** (dim / 2.0) * ell**dim * np.exp(
            -0.5 * ell**2 * wsq)
    nu = _NU[spec.family]
    c = _matern_const(nu, dim)
    return sigma * c * ell**dim * (2.0 * nu + ell**2 * wsq) ** -(nu + dim / 2.0)


def spectral_density_grad(spec: KernelSpec, omega: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1D spectral density with partial derivatives (S, dS/dsigma, dS/dell)."""
    omega = np.asarray(omega, dtype=float)
    s = spectral_density(spec, omega, dim=1)
    d_sigma = s / spec.magnitude
    ell = spec.lengthscale
    if spec.family == "se":
        d_ell = s * (1.0 / ell - ell * omega**2)
    else:
        nu = _NU[spec.family]
        q = 2.0 * nu + ell**2 * omega**2
        d_ell = s * (1.0 / ell - (nu + 0.5) * 2.0 * ell * omega**2 / q)
    return s, d_sigma, d_ell


@dataclass(frozen=True)
class HsgpBasis:
    """Precomputed eigenfunction matrix on centered inputs.

    ``freqs`` holds the per-dimension eigenfrequencies of each column:
    shape (M, 1) in 1D; (M, 2) in 2D, where symmetric bases keep only
    index pairs j <= k and average the two tensor orderings.
    """

    dim: int
    m: int
    half_width: tuple[float, ...]
    center: tuple[float, ...]
    phi: np.ndarray            # (n, M)
    freqs: np.ndarray          # (M, dim)
    symmetric: bool = False

    @property
    def n_basis(self) -> int:
        return self.phi.shape[1]

    def spectral_weights(self, specs: KernelSpec | tuple[KernelSpec, ...]
                         ) -> np.ndarray:
        """Per-column variance weights for the given kernel(s)."""
        return self.spectral_weights_grad(specs)[0]

    def spectral_weights_grad(self, specs: KernelSpec | tuple[KernelSpec, ...]
                              ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Weights plus partials w.r.t. (sigma_1, ell_1[, sigma_2, ell_2])."""
        if self.dim == 1:
            spec = specs if isinstance(specs, KernelSpec) else specs[0]
            s, ds, dl = spectral_density_grad(spec, self.freqs[:, 0])
            return s, [ds, dl]
        spec_a, spec_b = specs if not isinstance(specs, KernelSpec) else (specs, specs)
        sa1, dsa1, dla1 = spectral_density_grad(spec_a, self.freqs[:, 0])
        sb1, dsb1, dlb1 = spectral_density_grad(spec_b, self.freqs[:, 1])
        if not self.symmetric:
            return sa1 * sb1, [dsa1 * sb1, dla1 * sb1, sa1 * dsb1, sa1 * dlb1]
        sa2, dsa2, dla2 = spectral_density_grad(spec_a, self.freqs[:, 1])
        sb2, dsb2, dlb2 = spectral_density_grad(spec_b, self.freqs[:, 0])
        s = 0.5 * (sa1 * sb1 + sa2 * sb2)
        grads = [0.5 * (dsa1 * sb1 + dsa2 * sb2),
                 0.5 * (dla1 * sb1 + dla2 * sb2),
                 0.5 * (sa1 * dsb1 + sa2 * dsb2),
                 0.5 * (sa1 * dlb1 + sa2 * dlb2)]
        return s, grads

    def realized_covariance(self, specs) -> np.ndarray:
        s = self.spectral_weights(specs)
        return (self.phi * s) @ self.phi.T


def build_hsgp_1d(inputs: np.ndarray, m: int = 30,
                  c: float = 1.5) -> HsgpBasis:
    """Reduced-rank basis on centered inputs with boundary factor ``c``."""
    if m < 1:
        raise ValueError("basis size m must be >= 1")
    if c < 1.2:
        raise ValueError("boundary factor c must be >= 1.2")
    inputs = np.asarray(inputs, dtype=float)
    center = 0.5 * (inputs.max() + inputs.min())
    half_width = c * max(np.max(np.abs(inputs - center)), 1e-8)
    freqs = np.arange(1, m + 1) * np.pi / (2.0 * half_width)
    basis = HsgpBasis(dim=1, m=m, half_width=(half_width,), center=(center,),
                      phi=None, freqs=freqs[:, None])
    return replace(basis, phi=basis_at(basis, inputs))


def _build_hsgp_2d(grid_a: np.ndarray, grid_b: np.ndarray, m: int, c: float,
                   symmetric: bool) -> HsgpBasis:
    if m < 1:
        raise ValueError("basis size m must be >= 1")
    grid_a = np.asarray(grid_a, dtype=float)
    grid_b = np.asarray(grid_b, dtype=float)
    if grid_a.shape != grid_b.shape:
        raise ValueError("grid_a and grid_b must list coordinates pairwise")
    if symmetric:
        # Exchangeable axes share one box so swapped points stay in domain.
        both = np.concatenate([grid_a, grid_b])
        ca = cb = 0.5 * (both.max() + both.min())
        la = lb = c * max(np.max(np.abs(both - ca)), 1e-8)
    else:
        ca = 0.5 * (grid_a.max() + grid_a.min())
        cb = 0.5 * (grid_b.max() + grid_b.min())
        la = c * max(np.max(np.abs(grid_a - ca)), 1e-8)
        lb = c * max(np.max(np.abs(grid_b - cb)), 1e-8)
    freq_a, freq_b = (np.arange(1, m + 1) * np.pi / (2.0 * half)
                      for half in (la, lb))
    # column (j, k) pairs frequency j on a with k on b; a symmetric basis
    # keeps j <= k
    pairs = [(freq_a[j], freq_b[k]) for j in range(m)
             for k in range(j if symmetric else 0, m)]
    basis = HsgpBasis(dim=2, m=m, half_width=(la, lb), center=(ca, cb),
                      phi=None, freqs=np.asarray(pairs), symmetric=symmetric)
    return replace(basis, phi=basis_at(basis, grid_a, grid_b))


def build_hsgp_2d_symmetric(grid_a: np.ndarray, grid_b: np.ndarray,
                            m: int = 40, c: float = 1.5) -> HsgpBasis:
    """Symmetrized tensor-product basis: realizations obey f(a,b) = f(b,a).

    ``grid_a`` and ``grid_b`` list the two coordinates of every evaluation
    point (same length). Basis columns pair tensor eigenfunctions with
    j <= k; the j < k columns average both orderings, the antisymmetric
    complement is dropped.
    """
    return _build_hsgp_2d(grid_a, grid_b, m, c, symmetric=True)


def build_hsgp_2d(grid_a: np.ndarray, grid_b: np.ndarray, m: int = 40,
                  c: float = 1.5) -> HsgpBasis:
    """Unrestricted tensor-product basis (M = m^2 columns)."""
    return _build_hsgp_2d(grid_a, grid_b, m, c, symmetric=False)


def realize(basis: HsgpBasis, specs: KernelSpec | tuple[KernelSpec, ...],
            w: np.ndarray) -> np.ndarray:
    """Evaluate f = Phi (sqrt(S) * w) at the basis inputs."""
    w = np.asarray(w, dtype=float)
    if w.shape != (basis.n_basis,):
        raise ValueError(
            f"weight vector must have length {basis.n_basis}, got {w.shape}")
    s = basis.spectral_weights(specs)
    return basis.phi @ (np.sqrt(s) * w)


def basis_at(basis: HsgpBasis, inputs_a: np.ndarray,
             inputs_b: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the basis columns at new input points.

    1D bases take one coordinate array; 2D bases take the two coordinates
    pairwise. Points should lie inside the boundary box used at build time.
    """
    if basis.dim == 1:
        x = np.asarray(inputs_a, dtype=float) - basis.center[0]
        la = basis.half_width[0]
        return np.sin(np.outer(x + la, basis.freqs[:, 0])) / np.sqrt(la)
    if inputs_b is None:
        raise ValueError("2D basis requires both coordinates")
    xa = np.asarray(inputs_a, dtype=float) - basis.center[0]
    xb = np.asarray(inputs_b, dtype=float) - basis.center[1]
    la, lb = basis.half_width
    fa = np.sin((xa + la)[:, None] * basis.freqs[:, 0][None, :]) / np.sqrt(la)
    fb = np.sin((xb + lb)[:, None] * basis.freqs[:, 1][None, :]) / np.sqrt(lb)
    cols = fa * fb
    if basis.symmetric:
        fa2 = np.sin((xa + la)[:, None] * basis.freqs[:, 1][None, :]) / np.sqrt(la)
        fb2 = np.sin((xb + lb)[:, None] * basis.freqs[:, 0][None, :]) / np.sqrt(lb)
        off_diag = basis.freqs[:, 0] != basis.freqs[:, 1]
        cols = np.where(off_diag[None, :], (cols + fa2 * fb2) / np.sqrt(2.0), cols)
    return cols
