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
the m sines of each axis at that axis's coordinates, and its points are
the grid of the two axes (85 x 85 for an age surface). A realization is
then S_a C S_b^T and the transpose product of a grid-shaped gradient
S_a^T G S_b, small matrix products, where the dense matrix costs n x M
(7225 x 820 on the age grid) in memory and time. A basis on a sub-grid
(``subgrid``), the coordinates I of the first axis by J of the second,
keeps only the sines S_a[I] and S_b[J], so a realization read at a few
participant ages costs S_a[I] C S_b[J]^T (8 x 85 on the benchmark's BRC
cells); the whole grid is the sub-grid of all coordinates.

A kernel is a family name (``KERNEL_FAMILIES``) plus its magnitude and
lengthscale. The models pass the NumPy scalars of their state, so an
overflowing square is inf, never an exception. ``spectral_density``
gives the density and its log-derivative in the lengthscale in one pass,
once per basis axis, at the squared frequencies that the basis keeps
from its build.

Magnitude convention: ``magnitude`` is the marginal variance, k(0) = sigma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gamma as gamma_fn

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)

#: the boundary factor c: a basis's box reaches c times the largest
#: distance of its inputs from their center (Riutort-Mayol et al. 2023)
BOUNDARY_FACTOR = 1.5

#: the kernel families, by name
KERNEL_FAMILIES = ("se", "matern32", "matern52")
_NU = {"matern32": 1.5, "matern52": 2.5}


def kernel_eval(family: str, magnitude: float, lengthscale: float,
                x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Evaluate k(x, x') elementwise (broadcasting over inputs)."""
    r = np.abs(np.asarray(x, dtype=float) - np.asarray(x2, dtype=float))
    s = r / lengthscale
    if family == "se":
        return magnitude * np.exp(-0.5 * s**2)
    if family == "matern32":
        return magnitude * (1.0 + SQRT3 * s) * np.exp(-SQRT3 * s)
    return (magnitude * (1.0 + SQRT5 * s + (5.0 / 3.0) * s**2)
            * np.exp(-SQRT5 * s))


def gram_matrix(family: str, magnitude: float, lengthscale: float,
                x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    return kernel_eval(family, magnitude, lengthscale, x[:, None],
                       y[None, :])


#: the constant C of each Matern family's spectral density,
#: S(w) = sigma * ell * C * (2 nu + ell^2 w^2)^-(nu + 1/2)
_MATERN_CONST = {family: (2.0 * np.pi ** 0.5 * gamma_fn(nu + 0.5)
                          * (2.0 * nu) ** nu / gamma_fn(nu))
                 for family, nu in _NU.items()}


def spectral_density(family: str, sigma, ell, wsq
                     ) -> tuple[np.ndarray, np.ndarray]:
    """1D spectral density S at the squared frequencies ``wsq`` and its
    log-derivative d log S / d ell, with k(r) = (2 pi)^-1 \\int S(w)
    exp(i w r) dw, so total power equals k(0) = sigma. S is linear in
    sigma, so d log S / d sigma = 1 / sigma. A 2D basis multiplies the
    densities of its axes."""
    if family == "se":
        s = sigma * (2.0 * np.pi) ** 0.5 * ell * np.exp(-0.5 * ell**2 * wsq)
        d_log_ell = 1.0 / ell - ell * wsq
    else:
        nu = _NU[family]
        q = 2.0 * nu + ell**2 * wsq
        s = sigma * _MATERN_CONST[family] * ell * q ** -(nu + 0.5)
        d_log_ell = 1.0 / ell - (nu + 0.5) * 2.0 * ell * wsq / q
    return s, d_log_ell


@dataclass(frozen=True)
class HsgpBasis:
    """Laplacian eigenfunctions of a box at a set of points.

    ``freqs`` holds the eigenfrequencies of each axis, shape (m, dim), and
    ``freqs_sq`` their squares, at which the spectral densities are
    evaluated. A 1D basis keeps its (n, m) eigenfunction matrix ``phi``.
    Column (j, k) of a 2D basis pairs frequency j on the first axis with k
    on the second, j-major; a symmetric basis keeps j <= k and averages
    the two tensor orderings.

    A 2D basis is stored as per-axis factors, not as its (n, M) matrix,
    which an age surface (7225 points, 820 columns) would stream twice a
    gradient: ``sines`` holds the m sines of each axis at that axis's
    coordinates, and point i n_b + j pairs coordinate i of the first axis
    with coordinate j of the second. A realization is the grid S_a C S_b^T,
    C being the m x m coefficient matrix; the transpose product of a
    grid-shaped gradient G is S_a^T G S_b. The two axes of a symmetric
    basis share one array of sines, and its grid is symmetrized to the
    last bit. ``subgrid`` restricts the sines to some coordinates of each
    axis, and the same products then give the function on that sub-grid.

    ``col_means`` are the weighted column means that a centered basis
    subtracts from every column, or None.
    """

    dim: int
    m: int
    half_width: tuple[float, ...]
    center: tuple[float, ...]
    freqs: np.ndarray                      # (m, dim)
    freqs_sq: np.ndarray                   # (m, dim)
    phi: np.ndarray | None = None          # 1D: (n, m)
    sines: tuple[np.ndarray, ...] = ()     # 2D: (n_a, m), (n_b, m)
    symmetric: bool = False
    col_means: np.ndarray | None = None    # (M,)

    @property
    def n_basis(self) -> int:
        if self.dim == 1:
            return self.m
        return self.m * (self.m + 1) // 2 if self.symmetric else self.m**2

    @property
    def n_points(self) -> int:
        if self.dim == 1:
            return self.phi.shape[0]
        return self.sines[0].shape[0] * self.sines[1].shape[0]

    def spectral_weights(self, family: str, hyper: np.ndarray) -> np.ndarray:
        """Per-column variance weights of the ``family`` kernel with the
        hyperparameters (sigma_1, ell_1[, sigma_2, ell_2])."""
        return self.spectral_weights_grad(family, hyper)[0]

    def spectral_weights_grad(self, family: str, hyper: np.ndarray
                              ) -> tuple[np.ndarray, tuple]:
        """Weights plus the partials that ``spectral_weights_vjp`` turns
        into the gradient of the hyperparameters: ``hyper``, the weights,
        and per axis the density at that axis's m frequencies with
        d log S / d ell (``spectral_density``).

        ``hyper`` holds (sigma, ell) of each axis in turn. A 2D column
        multiplies the densities of its two frequencies."""
        axes = tuple(map(spectral_density, [family] * self.dim, hyper[::2],
                         hyper[1::2], self.freqs_sq.T))
        if self.dim == 1:
            cols = axes[0][0]
        else:
            # sa_j sb_k on each column (j, k), averaged with sa_k sb_j if
            # symmetric
            cols = (axes[0][0][:, None] * axes[1][0][None, :]).ravel()
            if self.symmetric:
                jk, kj, _ = _symmetric_columns(self.m)
                cols = 0.5 * (cols.take(jk) + cols.take(kj))
        return cols, (hyper, cols, axes)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Phi v at the basis points: the function with column weights v,
        on the grid of the axis coordinates in 2D."""
        if self.dim == 1:
            return self.phi @ v
        m = self.m
        if not self.symmetric:
            f = np.linalg.multi_dot([self.sines[0], v.reshape(m, m),
                                     self.sines[1].T])
        else:
            # C = c + c^T for the upper triangle c. On a grid whose axes
            # share one coordinate set, S C S^T is the grid S c S^T plus
            # its transpose, so f(a, b) = f(b, a) to the last bit
            jk, _, scale = _symmetric_columns(m)
            c = np.zeros(m * m)
            c[jk] = scale * v
            c = c.reshape(m, m)
            s_a, s_b = self.sines
            if s_b is s_a:
                f = np.linalg.multi_dot([s_a, c, s_a.T])
                f = f + f.T
            else:
                f = np.linalg.multi_dot([s_a, c + c.T, s_b.T])
        f = f.ravel()
        return f if self.col_means is None else f - self.col_means @ v

    def rmatvec(self, g: np.ndarray) -> np.ndarray:
        """Phi^T g: the column sums of ``g`` over the basis points, a
        flattened grid in 2D."""
        if self.dim == 1:
            return self.phi.T @ g
        s_a, s_b = self.sines
        t = np.linalg.multi_dot([s_a.T, g.reshape(s_a.shape[0], -1),
                                 s_b]).ravel()
        if self.symmetric:
            jk, kj, scale = _symmetric_columns(self.m)
            t = scale * (t.take(jk) + t.take(kj))
        return t if self.col_means is None else t - self.col_means * g.sum()

    def subgrid(self, rows: np.ndarray, cols: np.ndarray) -> HsgpBasis:
        """The 2D basis on the sub-grid of its points: coordinates ``rows``
        of the first axis by ``cols`` of the second. Its realizations are
        this basis's at those points, centering included."""
        s_a, s_b = self.sines
        return replace(self, sines=(s_a[rows], s_b[cols]))

    def centered(self, weights: np.ndarray) -> HsgpBasis:
        """The basis minus its column means under ``weights`` over the
        points, so every realization has weighted mean zero."""
        w = np.asarray(weights, dtype=float)
        col_means = self.rmatvec(w) / w.sum()
        if self.dim == 1:
            return replace(self, phi=self.phi - col_means[None, :],
                           col_means=col_means)
        return replace(self, col_means=col_means)


def spectral_weights_vjp(basis: HsgpBasis, g_log: np.ndarray,
                         partials: tuple) -> list:
    """The gradient of the hyperparameters (sigma_1, ell_1[, sigma_2,
    ell_2]) from ``g_log``, the gradient in the log of each column's
    weight S, and the ``partials`` of ``spectral_weights_grad``.

    Every column is linear in each sigma, so a sigma takes the sum of
    g_log divided by sigma, and a 1D lengthscale takes
    g_log^T d log S / d ell. In 2D, g_s = g_log / S, zero where S
    underflows, goes onto the m x m matrix G of the columns (j, k), half
    to (j, k) and half to (k, j) for a symmetric basis. Since column
    (j, k) of G weighs sa_j sb_k, the ell_1 term is dsa^T G sb and the
    ell_2 term sa^T G dsb, with dS/dell = S d log S / d ell on each
    axis."""
    hyper, cols, axes = partials
    total = g_log.sum()
    if basis.dim == 1:
        return [total / hyper[0], float(g_log @ axes[0][1])]
    g_s = np.divide(g_log, cols, out=np.zeros(cols.size), where=cols > 0.0)
    m = basis.m
    if basis.symmetric:
        upper = np.zeros(m * m)
        upper[_symmetric_columns(m)[0]] = 0.5 * g_s
        grid = upper.reshape(m, m)
        grid = grid + grid.T
    else:
        grid = g_s.reshape(m, m)
    (sa, qa), (sb, qb) = axes
    return [total / hyper[0], float((sa * qa) @ (grid @ sb)),
            total / hyper[2], float((sb * qb) @ (sa @ grid))]


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


def _box(x: np.ndarray, m: int) -> tuple[float, float, np.ndarray]:
    """The center and half-width of the box around the coordinates ``x``,
    and its first ``m`` eigenfrequencies."""
    if m < 1:
        raise ValueError("basis size m must be >= 1")
    center = 0.5 * (x.max() + x.min())
    half_width = BOUNDARY_FACTOR * max(np.max(np.abs(x - center)), 1e-8)
    return center, half_width, np.arange(1, m + 1) * np.pi / (2.0 * half_width)


def build_hsgp_1d(inputs: np.ndarray, m: int) -> HsgpBasis:
    """Reduced-rank basis of ``m`` eigenfunctions on centered inputs."""
    inputs = np.asarray(inputs, dtype=float)
    center, half_width, freqs = _box(inputs, m)
    return HsgpBasis(dim=1, m=m, half_width=(half_width,), center=(center,),
                     freqs=freqs[:, None], freqs_sq=freqs[:, None] ** 2,
                     phi=_sines(inputs, center, half_width, freqs))


def _build_hsgp_2d(axes: tuple[np.ndarray, ...], m: int,
                   symmetric: bool) -> HsgpBasis:
    """The basis on the grid of the two ``axes``."""
    axes = tuple(np.asarray(x, dtype=float) for x in axes)
    center, half_width, freqs = zip(*(_box(x, m) for x in axes))
    freqs_2d = np.column_stack(freqs)
    return HsgpBasis(dim=2, m=m, half_width=half_width, center=center,
                     freqs=freqs_2d, freqs_sq=freqs_2d**2,
                     sines=tuple(map(_sines, axes, center, half_width, freqs)),
                     symmetric=symmetric)


def build_hsgp_2d_symmetric(axis: np.ndarray, m: int) -> HsgpBasis:
    """Symmetrized tensor-product basis on the grid ``axis`` x ``axis``:
    realizations obey f(a, b) = f(b, a).

    Basis columns pair tensor eigenfunctions with j <= k; the j < k columns
    average both orderings, the antisymmetric complement is dropped. The
    two axes share one array of sines.
    """
    basis = _build_hsgp_2d((axis, axis), m, symmetric=True)
    return replace(basis, sines=(basis.sines[0],) * 2)


def build_hsgp_2d(axis_a: np.ndarray, axis_b: np.ndarray,
                  m: int) -> HsgpBasis:
    """Unrestricted tensor-product basis (M = m^2 columns) on the grid
    ``axis_a`` x ``axis_b``."""
    return _build_hsgp_2d((axis_a, axis_b), m, symmetric=False)


def basis_at(basis: HsgpBasis, inputs_a: np.ndarray,
             inputs_b: np.ndarray | None = None) -> np.ndarray:
    """The dense (n, M) basis matrix at new input points.

    A reference for the factored evaluation, which no model calls: on the
    85 x 85 age grid a 2D basis matrix takes 47 MB.
    1D bases take one coordinate array; 2D bases take the two coordinates
    pairwise. The points should lie inside the box used at build time.
    """
    if basis.dim == 1:
        phi = _sines(np.asarray(inputs_a, dtype=float), basis.center[0],
                     basis.half_width[0], basis.freqs[:, 0])
        return phi if basis.col_means is None else phi - basis.col_means
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
