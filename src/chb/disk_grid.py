"""Cell-centered polar finite-volume grid on the unit disk.

Cells are centered at r_i = (i - 1/2)*dr, theta_j = (j - 1/2)*dtheta with
dr = 1/n_r, dtheta = 2*pi/n_theta; there is no node at the origin and the
innermost face flux vanishes through the metric factor r.  The boundary
circle carries its own unknown ring (the trace variable), coupled to the
bulk through one-sided fluxes across r = 1.

All discrete operators are assembled in conservative flux form, so the
zero-flux Laplacian has exact row sums zero, quadrature of the divergence
telescopes to the boundary, and summation by parts holds exactly against
the matching face-based H1 seminorms.
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


def _interior_faces(grid: DiskGrid):
    """(cell, neighbor, kappa) triplets over all interior faces.

    kappa = s/d is the transmission coefficient; each face appears once.
    """
    n_r, n_th = grid.n_r, grid.n_theta
    kappa_rad, kappa_ang = _face_coefficients(grid)
    idx = np.arange(n_r * n_th, dtype=np.int32).reshape(n_r, n_th)

    rad_me = idx[:-1].ravel()
    rad_nb = idx[1:].ravel()
    rad_k = np.repeat(kappa_rad, n_th)

    ang_me = idx.ravel()
    ang_nb = np.roll(idx, -1, axis=1).ravel()
    ang_k = np.repeat(kappa_ang, n_th)

    me = np.concatenate([rad_me, ang_me])
    nb = np.concatenate([rad_nb, ang_nb])
    k = np.concatenate([rad_k, ang_k])
    return me, nb, k


def _flux_divergence_coo(grid: DiskGrid, weighted: bool):
    """COO triplets over the interior faces.

    weighted=True assembles S = -W*Lap (symmetric PSD, entries +-kappa);
    weighted=False assembles the Laplacian itself (each row scaled by the
    receiving cell's measure w_ij, giving row sums exactly zero).
    """
    me, nb, k = _interior_faces(grid)
    if weighted:
        c_me = c_nb = k
    else:
        w = np.repeat(grid.r * grid.dr * grid.dtheta, grid.n_theta)
        c_me = k / w[me]
        c_nb = k / w[nb]
    rows = np.concatenate([me, me, nb, nb])
    cols = np.concatenate([nb, me, me, nb])
    vals = np.concatenate([c_me, -c_me, c_nb, -c_nb])
    if weighted:
        vals = -vals
    return rows, cols, vals


def _assemble(grid, rows, cols, vals):
    n = grid.size
    return sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def neumann_laplacian_matrix(grid: DiskGrid) -> sps.csr_matrix:
    """Zero-flux finite-volume Laplacian; row sums are exactly zero."""
    rows, cols, vals = _flux_divergence_coo(grid, weighted=False)
    return _assemble(grid, rows, cols, vals)


def stiffness_matrix_bulk(grid: DiskGrid) -> sps.csr_matrix:
    """S = -W*Laplacian_zero_flux, symmetric positive semidefinite.

    Kernel is the constants; (u, S u) equals the squared interior-face
    H1 seminorm exactly.
    """
    rows, cols, vals = _flux_divergence_coo(grid, weighted=True)
    return _assemble(grid, rows, cols, vals)


def dirichlet_laplacian_matrices(grid: DiskGrid, neumann=None):
    """Laplacian with a Dirichlet boundary ring: Lap u = A @ u + B @ v.

    A is (N, N), B is (N, n_theta); the boundary face uses the one-sided
    difference (v_j - u_{n_r, j})/(dr/2).  `neumann`, the grid's Neumann
    Laplacian, is assembled unless a caller that holds it passes it.
    """
    n_r, n_th = grid.n_r, grid.n_theta
    w_last = grid.r[-1] * grid.dr * grid.dtheta
    kb = _boundary_kappa(grid) / w_last
    last = np.arange((n_r - 1) * n_th, n_r * n_th)
    diag = np.zeros(grid.size)
    diag[last] = kb
    A = (neumann_laplacian_matrix(grid) if neumann is None else neumann) - sps.diags(diag)
    B = sps.coo_matrix((np.full(n_th, kb), (last, np.arange(n_th))),
                       shape=(grid.size, n_th))
    return A.tocsr(), B.tocsr()


def circle_laplacian_matrix(grid: DiskGrid) -> sps.csr_matrix:
    """Periodic central-difference Laplace-Beltrami on the unit circle."""
    n = grid.n_theta
    h2 = grid.dtheta ** 2
    main = np.full(n, -2.0 / h2)
    off = np.full(n, 1.0 / h2)
    mat = sps.diags([main, off[:-1], off[:-1], [1.0 / h2], [1.0 / h2]],
                    [0, 1, -1, n - 1, -(n - 1)], format='csr')
    return mat


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

    def solve_sparse(self, cols, c):
        """The inverse's columns `cols` times c: one solve of the right-hand
        side that holds c at `cols` and zeros elsewhere."""
        b = np.zeros(self._lines * self._nt)
        b[cols] = c
        return self.solve(b)


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
