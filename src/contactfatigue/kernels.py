"""Covariance kernels, spectral densities, and reduced-rank GP bases.

A Gaussian process on a bounded interval is approximated by the Laplacian
eigenfunctions of the box [-L, L],

    phi_j(x) = L^{-1/2} sin(sqrt(lambda_j) (x + L)),  sqrt(lambda_j) = j pi / (2L),

weighted by the kernel's spectral density evaluated at the eigenfrequencies.
Two-dimensional bases are tensor products; for exchangeable surfaces the
basis columns are symmetrized so every realization satisfies
f(a, b) = f(b, a) exactly.

A 2D basis is kept as per-axis factors, never as its dense (n, M) matrix:
each tensor eigenfunction is a product of two 1D sines, so the basis holds
the m sines of each axis at that axis's distinct coordinates (at most 85 on
single-year ages) and each point's cell in their grid. A realization is
then S_a C S_b^T and the transpose product of a gradient S_a^T G S_b, small
matrix products on the grid, where the dense matrix costs n x M (680 x 820
for an age surface, 7225 x 820 on the full age grid) in memory and time.

Magnitude convention: ``magnitude`` is the marginal variance, k(0) = sigma.
"""

from __future__ import annotations

import functools
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


#: the constant C of each Matern family's spectral density,
#: S(w) = sigma * ell * C * (2 nu + ell^2 w^2)^-(nu + 1/2)
_MATERN_CONST = {family: (2.0 * np.pi ** 0.5 * gamma_fn(nu + 0.5)
                          * (2.0 * nu) ** nu / gamma_fn(nu))
                 for family, nu in _NU.items()}


def spectral_density(spec: KernelSpec, omega: np.ndarray) -> np.ndarray:
    """1D spectral density S(omega) with the convention
    k(r) = (2 pi)^-1 \\int S(w) exp(i w r) dw, so total power equals k(0).
    A 2D basis multiplies the densities of its axes.
    """
    omega = np.asarray(omega, dtype=float)
    wsq = omega**2
    sigma, ell = spec.magnitude, spec.lengthscale
    if spec.family == "se":
        return sigma * (2.0 * np.pi) ** 0.5 * ell * np.exp(-0.5 * ell**2 * wsq)
    nu = _NU[spec.family]
    return (sigma * _MATERN_CONST[spec.family] * ell
            * (2.0 * nu + ell**2 * wsq) ** -(nu + 0.5))


def spectral_density_grad(spec: KernelSpec, omega: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1D spectral density with partial derivatives (S, dS/dsigma, dS/dell)."""
    omega = np.asarray(omega, dtype=float)
    s = spectral_density(spec, omega)
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
    """Laplacian eigenfunctions of a box at a set of points.

    ``freqs`` holds the eigenfrequencies of each axis, shape (m, dim). A 1D
    basis keeps its (n, m) eigenfunction matrix ``phi``. Column (j, k) of a
    2D basis pairs frequency j on the first axis with k on the second,
    j-major; a symmetric basis keeps j <= k and averages the two tensor
    orderings.

    A 2D basis is stored as per-axis factors, not as its (n, M) matrix,
    which an age surface (680 points, 820 columns) would stream twice a
    gradient: ``sines`` holds the m sines of each axis at that axis's
    distinct coordinates and ``cell`` each point's flat index
    n_b * row_a + row_b into their grid. A realization is S_a C S_b^T read
    at the cells, C being the m x m coefficient matrix; the transpose
    product is S_a^T G S_b, G being the point values summed on the grid.
    The two axes of a symmetric basis share one coordinate set, the
    distinct values of both coordinates, and its grid is symmetrized.

    ``col_means`` are the weighted column means that a centered basis
    subtracts from every column, or None.
    """

    dim: int
    m: int
    half_width: tuple[float, ...]
    center: tuple[float, ...]
    freqs: np.ndarray                      # (m, dim)
    phi: np.ndarray | None = None          # 1D: (n, m)
    sines: tuple[np.ndarray, ...] = ()     # 2D: (n_a, m), (n_b, m)
    cell: np.ndarray | None = None         # 2D: (n,)
    symmetric: bool = False
    col_means: np.ndarray | None = None    # (M,)

    @property
    def n_basis(self) -> int:
        if self.dim == 1:
            return self.m
        return self.m * (self.m + 1) // 2 if self.symmetric else self.m**2

    @property
    def n_points(self) -> int:
        return self.phi.shape[0] if self.dim == 1 else self.cell.size

    def spectral_weights(self, specs: KernelSpec | tuple[KernelSpec, ...]
                         ) -> np.ndarray:
        """Per-column variance weights for the given kernel(s)."""
        return self.spectral_weights_grad(specs)[0]

    def spectral_weights_grad(self, specs: KernelSpec | tuple[KernelSpec, ...]
                              ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Weights plus partials w.r.t. (sigma_1, ell_1[, sigma_2, ell_2]).

        The densities are evaluated at the m frequencies of each axis; a 2D
        column multiplies those of its two frequencies."""
        if self.dim == 1:
            spec = specs if isinstance(specs, KernelSpec) else specs[0]
            s, ds, dl = spectral_density_grad(spec, self.freqs[:, 0])
            return s, [ds, dl]
        spec_a, spec_b = specs if not isinstance(specs, KernelSpec) else (specs, specs)
        sa, dsa, dla = spectral_density_grad(spec_a, self.freqs[:, 0])
        sb, dsb, dlb = spectral_density_grad(spec_b, self.freqs[:, 1])
        # x_j y_k on each column (j, k), averaged with x_k y_j if symmetric
        x = np.stack([sa, dsa, dla, sa, sa])
        y = np.stack([sb, sb, sb, dsb, dlb])
        cols = (x[:, :, None] * y[:, None, :]).reshape(5, -1)
        if self.symmetric:
            jk, kj, _ = _symmetric_columns(self.m)
            cols = 0.5 * (cols.take(jk, axis=1) + cols.take(kj, axis=1))
        return cols[0], list(cols[1:])

    def _grid(self, v: np.ndarray) -> np.ndarray:
        """S_a C S_b^T, flattened: the 2D realization with column weights
        ``v`` on the grid of the axis coordinates."""
        m = self.m
        if not self.symmetric:
            return np.linalg.multi_dot([self.sines[0], v.reshape(m, m),
                                        self.sines[1].T]).ravel()
        # C = c + c^T for the upper triangle c, so S C S^T is the grid
        # plus its transpose: f(a, b) = f(b, a) to the last bit
        jk, _, scale = _symmetric_columns(m)
        c = np.zeros(m * m)
        c[jk] = scale * v
        f = np.linalg.multi_dot([self.sines[0], c.reshape(m, m),
                                 self.sines[1].T])
        return (f + f.T).ravel()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Phi v at the basis points: the function with column weights v."""
        if self.dim == 1:
            return self.phi @ v
        f = self._grid(v).take(self.cell)
        return f if self.col_means is None else f - self.col_means @ v

    def rmatvec(self, g: np.ndarray) -> np.ndarray:
        """Phi^T g: the column sums of ``g`` over the basis points."""
        if self.dim == 1:
            return self.phi.T @ g
        s_a, s_b = self.sines
        grid = np.bincount(self.cell, weights=g,
                           minlength=s_a.shape[0] * s_b.shape[0])
        t = np.linalg.multi_dot([s_a.T, grid.reshape(s_a.shape[0], -1),
                                 s_b]).ravel()
        if self.symmetric:
            jk, kj, scale = _symmetric_columns(self.m)
            t = scale * (t.take(jk) + t.take(kj))
        return t if self.col_means is None else t - self.col_means * g.sum()

    def centered(self, weights: np.ndarray) -> HsgpBasis:
        """The basis minus its column means under ``weights`` over the
        points, so every realization has weighted mean zero."""
        w = np.asarray(weights, dtype=float)
        col_means = self.rmatvec(w) / w.sum()
        if self.dim == 1:
            return replace(self, phi=self.phi - col_means[None, :],
                           col_means=col_means)
        return replace(self, col_means=col_means)


@functools.cache
def _symmetric_columns(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices j m + k and k m + j of the j <= k columns of a symmetric
    basis, and the scale of each column's weight v in the upper triangle c
    of the coefficient matrix C = c + c^T: C_jk = C_kj = v / sqrt(2) off the
    diagonal, C_jj = v."""
    j, k = np.triu_indices(m)
    out = (j * m + k, k * m + j, np.where(j == k, 0.5, np.sqrt(0.5)))
    for arr in out:   # shared by every caller
        arr.flags.writeable = False
    return out


def _sines(x: np.ndarray, center: float, half_width: float,
           freqs: np.ndarray) -> np.ndarray:
    """The 1D eigenfunctions of the box at the coordinates ``x``, (n, m)."""
    return (np.sin(np.outer(x - center + half_width, freqs))
            / np.sqrt(half_width))


def on_points(basis: HsgpBasis, inputs_a: np.ndarray,
              inputs_b: np.ndarray | None = None) -> HsgpBasis:
    """The basis, with its box, frequencies and centering, on new points.

    1D bases take one coordinate array; 2D bases take the two coordinates
    pairwise and get the per-axis factors at the new points. Points should
    lie inside the boundary box used at build time.
    """
    if basis.dim == 1:
        phi = _sines(np.asarray(inputs_a, dtype=float), basis.center[0],
                     basis.half_width[0], basis.freqs[:, 0])
        if basis.col_means is not None:
            phi = phi - basis.col_means[None, :]
        return replace(basis, phi=phi)
    if inputs_b is None:
        raise ValueError("2D basis requires both coordinates")
    a, b = (np.asarray(x, dtype=float) for x in (inputs_a, inputs_b))
    if basis.symmetric:
        # the axes share their box; one shared coordinate set lets the grid
        # be symmetrized exactly
        coords, rows = np.unique(np.concatenate([a, b]), return_inverse=True)
        sines = (_sines(coords, basis.center[0], basis.half_width[0],
                        basis.freqs[:, 0]),) * 2
        row_a, row_b, n_b = rows[:a.size], rows[a.size:], coords.size
    else:
        (coords_a, row_a), (coords_b, row_b) = (
            np.unique(x, return_inverse=True) for x in (a, b))
        sines = tuple(_sines(x, basis.center[d], basis.half_width[d],
                             basis.freqs[:, d])
                      for d, x in enumerate((coords_a, coords_b)))
        n_b = coords_b.size
    return replace(basis, sines=sines, cell=row_a * n_b + row_b)


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
                      freqs=freqs[:, None])
    return on_points(basis, inputs)


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
    freqs = np.column_stack([np.arange(1, m + 1) * np.pi / (2.0 * half)
                             for half in (la, lb)])
    basis = HsgpBasis(dim=2, m=m, half_width=(la, lb), center=(ca, cb),
                      freqs=freqs, symmetric=symmetric)
    return on_points(basis, grid_a, grid_b)


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


def basis_at(basis: HsgpBasis, inputs_a: np.ndarray,
             inputs_b: np.ndarray | None = None) -> np.ndarray:
    """The dense (n, M) basis matrix at new input points.

    A reference for the factored evaluation (``on_points``), which no
    model calls: on the 85 x 85 age grid a 2D basis matrix takes 47 MB.
    1D bases take one coordinate array; 2D bases take the two coordinates
    pairwise.
    """
    if basis.dim == 1:
        return on_points(basis, inputs_a).phi
    if inputs_b is None:
        raise ValueError("2D basis requires both coordinates")
    fa, fb = (_sines(np.asarray(x, dtype=float), basis.center[d],
                     basis.half_width[d], basis.freqs[:, d])
              for d, x in enumerate((inputs_a, inputs_b)))
    m = basis.m
    j, k = np.triu_indices(m) if basis.symmetric else np.divmod(
        np.arange(m * m), m)
    cols = fa[:, j] * fb[:, k]
    if basis.symmetric:
        cols = np.where(j != k, (cols + fa[:, k] * fb[:, j]) / np.sqrt(2.0),
                        cols)
    if basis.col_means is not None:
        cols = cols - basis.col_means[None, :]
    return cols
