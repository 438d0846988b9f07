"""Cell-centered polar finite-volume grid on the unit disk.

Cells are centered at r_i = (i - 1/2)*dr, theta_j = (j - 1/2)*dtheta with
dr = 1/n_r, dtheta = 2*pi/n_theta; there is no node at the origin and the
innermost face flux vanishes through the metric factor r.  The boundary
circle carries its own unknown ring (the trace variable), coupled to the
bulk through one-sided fluxes across r = 1.

The Laplacians (zero-flux, stiffness and the circle's) are one flux
divergence, written straight into CSR from its five-point stencil in
conservative form, so its rows sum to zero to round-off, quadrature of the
divergence telescopes to the boundary, and summation by parts holds
exactly against the matching face-based H1 seminorms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

__all__ = (
    'DiskGrid',
    'integrate_bulk', 'integrate_trace', 'mean_bulk', 'mean_trace',
    'l2_norm_bulk', 'l2_norm_trace',
    'h1_seminorm_bulk', 'h1_seminorm_trace',
    'neumann_laplacian_matrix', 'dirichlet_laplacian_matrices',
    'circle_laplacian_matrix', 'stiffness_matrix_bulk', 'ThetaModes',
)


@dataclass(frozen=True)
class DiskGrid:
    """Polar grid resolution; all geometry is derived from the two counts."""

    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 4:
            raise ValueError('n_r must be >= 4')
        if self.n_theta < 8 or self.n_theta % 2:
            raise ValueError('n_theta must be even and >= 8')

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    @property
    def r(self) -> np.ndarray:
        """Cell-center radii, shape (n_r,)."""
        return (np.arange(self.n_r) + 0.5) * self.dr

    @property
    def theta(self) -> np.ndarray:
        """Cell-center angles, shape (n_theta,)."""
        return (np.arange(self.n_theta) + 0.5) * self.dtheta

    @property
    def weights(self) -> np.ndarray:
        """Bulk quadrature weights w_ij = r_i*dr*dtheta, shape (n_r, n_theta)."""
        w = self.r * self.dr * self.dtheta
        return np.repeat(w[:, None], self.n_theta, axis=1)

    @property
    def boundary_weights(self) -> np.ndarray:
        """Arclength weights on the unit circle, shape (n_theta,)."""
        return np.full(self.n_theta, self.dtheta)

    @property
    def size(self) -> int:
        return self.n_r * self.n_theta


# ---------------------------------------------------------------------------
# quadrature (bulk arrays have shape (n_r, n_theta), trace arrays (n_theta,))

def integrate_bulk(grid: DiskGrid, u: np.ndarray) -> float:
    # midpoint rule is exact in r for constants: sum_i r_i*dr = 1/2 exactly
    return float(grid.dr * grid.dtheta * (grid.r @ u.sum(axis=1)))


def integrate_trace(grid: DiskGrid, v: np.ndarray) -> float:
    return float(grid.dtheta * v.sum())


def mean_bulk(grid: DiskGrid, u: np.ndarray) -> float:
    return integrate_bulk(grid, u) / math.pi


def mean_trace(grid: DiskGrid, v: np.ndarray) -> float:
    return integrate_trace(grid, v) / (2.0 * math.pi)


def l2_norm_bulk(grid: DiskGrid, u: np.ndarray) -> float:
    return math.sqrt(float(grid.dr * grid.dtheta
                           * (grid.r @ (u * u) @ np.ones(grid.n_theta))))


def l2_norm_trace(grid: DiskGrid, v: np.ndarray) -> float:
    return math.sqrt(float(grid.dtheta * (v @ v)))


# ---------------------------------------------------------------------------
# operator assembly and the theta-Fourier mode solver

def _face_coefficients(grid: DiskGrid):
    """Transmission coefficients s/d of the interior faces.

    Returns (radial kappa, shape (n_r-1,)) and (angular kappa, shape (n_r,)).
    Radial face i sits at R_i = (i+1)*dr between rings i and i+1 with
    arclength R_i*dtheta and distance dr; angular faces of ring i have
    length dr and distance r_i*dtheta.  The boundary face at r = 1 has
    arclength dtheta and distance dr/2 (cell center to boundary).
    """
    dr, dth = grid.dr, grid.dtheta
    face_r = np.arange(1, grid.n_r) * dr
    kappa_rad = face_r * dth / dr
    kappa_ang = dr / (grid.r * dth)
    return kappa_rad, kappa_ang


def _boundary_kappa(grid: DiskGrid) -> float:
    return grid.dtheta / (grid.dr / 2.0)


def _flux_divergence(kappa_rad, kappa_ang, measure) -> sps.csr_matrix:
    """Flux divergence of `lines` lines of n_theta cells, written straight
    into CSR: the sum over the interior faces of kappa*(u_nb - u_me), each
    row divided by its cell's `measure` (shape (lines, n_theta)).

    Line a's angular faces have kappa_ang[a] (shape (lines,)); the radial
    face between lines a and a + 1 has kappa_rad[a] (shape (lines - 1,)).
    A row holds its cell, its two angular and at most two radial
    neighbours.  Its diagonal sums the face terms as
    ((-up - fwd) - down) - back, the order of a face-by-face assembly, with
    an absent radial face as an exact 0, so every row sums to zero to
    round-off.  No row repeats a column.
    """
    lines, n = measure.shape
    up = np.r_[kappa_rad, 0.0][:, None] / measure
    down = np.r_[0.0, kappa_rad][:, None] / measure
    ang = kappa_ang[:, None] / measure
    idx = np.arange(lines * n, dtype=np.int32).reshape(lines, n)
    cols = np.stack([idx - n, np.roll(idx, 1, axis=1), idx, np.roll(idx, -1, axis=1),
                     idx + n], axis=-1)
    vals = np.stack([down, ang, -up - ang - down - ang, ang, up], axis=-1)
    keep = np.ones((lines, n, 5), dtype=bool)
    keep[0, :, 0] = keep[-1, :, 4] = False      # no line below the first, above the last
    indptr = np.zeros(lines * n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2), out=indptr[1:])
    mat = sps.csr_matrix((vals[keep], cols[keep], indptr), shape=(lines * n, lines * n))
    mat.sort_indices()          # the wrapped angular neighbours
    return mat


def neumann_laplacian_matrix(grid: DiskGrid) -> sps.csr_matrix:
    """Zero-flux finite-volume Laplacian; row sums and the weighted column
    sums w^T Lap are zero to round-off."""
    return _flux_divergence(*_face_coefficients(grid), grid.weights)


def stiffness_matrix_bulk(grid: DiskGrid) -> sps.csr_matrix:
    """S = -W*Laplacian_zero_flux, symmetric positive semidefinite.

    Kernel is the constants; (u, S u) equals the squared interior-face
    H1 seminorm exactly.
    """
    return -_flux_divergence(*_face_coefficients(grid), np.ones((grid.n_r, grid.n_theta)))


def dirichlet_laplacian_matrices(grid: DiskGrid, neumann: sps.csr_matrix):
    """Laplacian with a Dirichlet boundary ring: Lap u = A @ u + B @ v.

    A is (N, N), B is (N, n_theta); the boundary face uses the one-sided
    difference (v_j - u_{n_r, j})/(dr/2).  `neumann` is the grid's
    `neumann_laplacian_matrix`, which the caller holds.
    """
    n_r, n_th = grid.n_r, grid.n_theta
    w_last = grid.r[-1] * grid.dr * grid.dtheta
    kb = _boundary_kappa(grid) / w_last
    last = np.arange((n_r - 1) * n_th, n_r * n_th)
    diag = np.zeros(grid.size)
    diag[last] = kb
    A = neumann - sps.diags(diag)
    B = sps.coo_matrix((np.full(n_th, kb), (last, np.arange(n_th))),
                       shape=(grid.size, n_th))
    return A.tocsr(), B.tocsr()


def circle_laplacian_matrix(grid: DiskGrid) -> sps.csr_matrix:
    """Periodic central-difference Laplace-Beltrami on the unit circle: the
    flux divergence of one line with unit measure."""
    return _flux_divergence(np.empty(0), np.array([1.0 / grid.dtheta ** 2]),
                            np.ones((1, grid.n_theta)))


class ThetaModes:
    """Exact solver for a matrix whose n_lines lines of n_theta unknowns
    (rings, the circle) are coupled by symmetric circulants, as every
    theta-invariant polar stencil gives (Swarztrauber & Sweet 1973).

    The real FFT along theta splits it into n_theta/2 + 1 real systems of
    the circulants' symbols, read off the theta-index-0 rows: `first_rows`
    holds the matrix's rows a*n_theta, one per line a, so the whole matrix
    is never needed.  `factorize` is called once on their block-diagonal
    matrix (mode k at rows k*n_lines onward); the real and imaginary parts
    of a mode are two right-hand sides.
    """

    def __init__(self, first_rows, n_theta, factorize):
        n_lines = first_rows.shape[0]
        self._lines, self._nt = n_lines, n_theta
        # entry (a, b*nt + j) of the first rows is entry j of circulant (a, b)
        first = first_rows.tocoo()
        col_line, offset = np.divmod(first.col, n_theta)
        offset = np.where(offset > n_theta // 2, offset - n_theta, offset)
        k = np.arange(n_theta // 2 + 1)[:, None]
        symbols = first.data * np.cos(2.0 * np.pi * k * offset / n_theta)
        size = k.size * n_lines
        self._lu = factorize(sps.coo_matrix(
            (symbols.ravel(), ((k * n_lines + first.row).ravel(),
                               (k * n_lines + col_line).ravel())),
            shape=(size, size)).tocsc())
        self.nnz = self._lu.nnz

    def solve(self, b):
        """x for b of shape (n_lines*n_theta,) or (n_lines*n_theta, m)."""
        lines = b.reshape(self._lines, self._nt, -1)
        m = lines.shape[2]
        bh = np.fft.rfft(lines, axis=1).T
        # the real parts, then the imaginary ones, modes outermost: transposed,
        # the factor's Fortran-ordered right-hand side; each array goes once
        # the next exists
        shape = (2 * m,) + bh.shape[1:]
        rhs = np.empty(shape)
        rhs[:m], rhs[m:] = bh.real, bh.imag
        del bh
        xh = self._lu.solve(rhs.reshape(2 * m, -1).T)
        del rhs
        xh = xh.T.reshape(shape).T
        x = np.multiply(1j, xh[..., m:], order='C')
        x += xh[..., :m]
        del xh
        return np.fft.irfft(x, n=self._nt, axis=1).reshape(b.shape)

    def inverse_block(self, rows, cols):
        """Entries (rows[i], cols[j]) of the inverse, shape (rows.size, cols.size).

        The matrix commutes with theta-shifts, so the solution for the unit
        vector at theta-index s of a line is the one at index 0 shifted by
        s: one solve, with a column per distinct line among `cols`, and a
        gather at shifted theta-indices.
        """
        if not cols.size:
            return np.zeros((rows.size, 0))
        lines, shifts = np.divmod(cols, self._nt)
        distinct, which = np.unique(lines, return_inverse=True)
        b = np.zeros((self._lines * self._nt, distinct.size))
        b[distinct * self._nt, np.arange(distinct.size)] = 1.0
        x = self.solve(b).reshape(self._lines, self._nt, -1)
        row_lines, row_shifts = np.divmod(rows, self._nt)
        return x[row_lines[:, None], (row_shifts[:, None] - shifts) % self._nt, which]


# ---------------------------------------------------------------------------
# seminorms

def h1_seminorm_bulk(grid: DiskGrid, u: np.ndarray, v: np.ndarray | None = None) -> float:
    """Face-based Dirichlet energy sqrt(sum_faces (s/d)*(du)^2).

    Matches the Laplacian stencils exactly (discrete summation by parts);
    when the boundary ring ``v`` is supplied the boundary faces
    (v_j - u_{n_r,j}) enter with coefficient dtheta/(dr/2).
    """
    kappa_rad, kappa_ang = _face_coefficients(grid)
    dru = np.diff(u, axis=0)
    dthu = np.roll(u, -1, axis=1) - u
    total = float(kappa_rad @ (dru * dru) @ np.ones(grid.n_theta))
    total += float(kappa_ang @ (dthu * dthu) @ np.ones(grid.n_theta))
    if v is not None:
        jump = v - u[-1, :]
        total += _boundary_kappa(grid) * float(jump @ jump)
    return math.sqrt(total)


def h1_seminorm_trace(grid: DiskGrid, v: np.ndarray) -> float:
    """sqrt(sum_j (v_{j+1} - v_j)^2 / dtheta), matching the circle stencil."""
    dv = np.roll(v, -1) - v
    return math.sqrt(float(dv @ dv) / grid.dtheta)
