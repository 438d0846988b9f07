"""Dual norms, duality-map inverses, and the trace-space norms.

The bulk dual norm splits off the mean: |z|_*^2 = (z - m, F^{-1}(z - m)) + m^2
where F^{-1} is a zero-mean zero-flux Poisson solve on the disk, made in
theta-Fourier modes (`disk_grid.ThetaModes`).  On the boundary circle
everything is spectral: the trace dual norm uses the exact continuum
symbol k^2 and the H^{1/2} norm uses the multiplier (1 + |k|) with the
DFT normalization zhat_k = (1/n) sum_j z_j exp(-i k theta_j): the paper's
continuum trace norms, not the discrete circle Laplacian's.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from . import disk_grid as dg
from .errors import NonzeroMean, SolveFailure

__all__ = ('NormToolkit', 'v_norm_bulk')


def v_norm_bulk(grid: dg.DiskGrid, u: np.ndarray, v: np.ndarray | None = None) -> float:
    """Full H1 norm sqrt(seminorm^2 + L2^2); boundary faces enter when v is given."""
    return math.hypot(dg.h1_seminorm_bulk(grid, u, v), dg.l2_norm_bulk(grid, u))


class NormToolkit:
    """Factorized zero-mean Poisson solve plus the spectral circle norms.

    Construction factorizes the weighted zero-flux stiffness S once in
    theta-Fourier modes; w^T psi = 0 (w the quadrature weights) is added to
    the last row of its singular mode-0 block, which acts on ring sums.
    Every dual-norm evaluation afterwards is an FFT pair and a pair of
    triangular solves.  Instances are read-only after construction.
    """

    def __init__(self, grid: dg.DiskGrid):
        self.grid = grid
        self.stiffness = dg.stiffness_matrix_bulk(grid)
        self.weight_vector = grid.weights.ravel()
        self._modes = dg.ThetaModes(self.stiffness[np.arange(grid.n_r) * grid.n_theta],
                                    grid.n_theta, self._factorize)
        self._wavenumbers = np.fft.fftfreq(grid.n_theta, d=1.0 / grid.n_theta)

    def _factorize(self, modes):
        """splu of the mode matrix, w^T psi added to mode 0's last row."""
        n_r = self.grid.n_r
        last_row = sps.coo_matrix(
            (self.grid.weights[:, 0], (np.full(n_r, n_r - 1), np.arange(n_r))),
            shape=modes.shape)
        return splu((modes + last_row).tocsc())

    # -- bulk ---------------------------------------------------------------

    def f_inverse_bulk(self, z: np.ndarray) -> np.ndarray:
        """Solve -Lap psi = z with zero flux and mean(psi) = 0.

        z and psi have shape (n_r, n_theta).  Requires |mean(z)| <= 1e-10 *
        ||z||; the residual of the weighted system is checked to 1e-11
        relative.
        """
        g = self.grid
        vals = z.ravel()
        rhs = self.weight_vector * vals
        scale = math.sqrt(float(rhs @ vals))  # weighted L2 norm of z
        if abs(dg.mean_bulk(g, z)) > 1e-10 * max(scale, 1e-300):
            raise NonzeroMean('f_inverse_bulk needs a zero-mean operand')
        lam = float(rhs.sum() / self.weight_vector.sum())
        psi = self._modes.solve(rhs - lam * self.weight_vector)
        residual = self.stiffness @ psi + lam * self.weight_vector - rhs
        rnorm = float(np.linalg.norm(residual))
        if rnorm > 1e-11 * max(float(np.linalg.norm(rhs)), 1e-300):
            raise SolveFailure(f'zero-mean Poisson residual {rnorm:.3e} too large')
        return psi.reshape(g.n_r, g.n_theta)

    def dual_norm_bulk(self, z: np.ndarray) -> float:
        """|z|_* = sqrt((z - m, F^{-1}(z - m))_w + m^2), m the bulk mean."""
        m = dg.mean_bulk(self.grid, z)
        z0 = z - m
        psi = self.f_inverse_bulk(z0)
        pairing = float(np.sum(self.grid.weights * z0 * psi))
        return math.sqrt(max(pairing, 0.0) + m * m)

    # -- boundary (spectral) ------------------------------------------------

    def _mode_energies(self, z: np.ndarray) -> np.ndarray:
        zhat = np.fft.fft(z) / self.grid.n_theta
        return (zhat * zhat.conj()).real

    def dual_norm_trace(self, z: np.ndarray) -> float:
        """|z|_{Gamma,*} with the exact symbol: 2*pi*sum_{k!=0} |zhat_k|^2/k^2 + m^2."""
        e = self._mode_energies(z)
        k = self._wavenumbers
        zero_mean_part = 2.0 * math.pi * float(np.sum(e[k != 0] / k[k != 0] ** 2))
        m = math.sqrt(e[0])  # |zhat_0| = |mean|
        return math.sqrt(zero_mean_part + m * m)

    def h_half_norm_trace(self, z: np.ndarray) -> float:
        """H^{1/2}(Gamma) norm sqrt(2*pi*sum_k (1+|k|)*|zhat_k|^2)."""
        e = self._mode_energies(z)
        return math.sqrt(2.0 * math.pi * float(np.sum((1.0 + np.abs(self._wavenumbers)) * e)))
