"""Dual norms against dense eigen-decompositions and Fourier closed forms."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from chb import chd_solver as cs
from chb import disk_grid as dg
from chb import dual_norms as dn
from chb.errors import SolveFailure


@pytest.fixture(scope='module')
def grid():
    return dg.DiskGrid(8, 16)


@pytest.fixture(scope='module')
def toolkit(grid):
    return dn.NormToolkit(grid)


def _weighted_eigp(grid):
    """Generalized eigenpairs S phi = sigma W phi with weighted normalization."""
    S = dg.stiffness_matrix_bulk(grid).toarray()
    W = np.diag(grid.weights.ravel())
    sig, phi = scipy.linalg.eigh(S, W)
    return sig, phi


def test_dual_norm_bulk_matches_eigen_oracle(grid, toolkit):
    sig, phi = _weighted_eigp(grid)
    w = grid.weights.ravel()
    # skip the constant mode (sigma ~ 0)
    for k in range(1, 8):
        vec = phi[:, k]
        vec = vec - (w @ vec) / w.sum()          # enforce zero weighted mean
        z = vec.reshape(grid.n_r, grid.n_theta)
        val = toolkit.dual_norm_bulk(z)
        # |phi|_* = |phi|_H / sqrt(sigma) for a normalized eigenvector
        l2 = np.sqrt(float(np.sum(w * vec ** 2)))
        ref = l2 / np.sqrt(sig[k])
        assert abs(val - ref) < 1e-9 * max(1.0, ref)


def test_f_inverse_bulk_inverts_the_weak_laplacian(grid, toolkit):
    rng = np.random.default_rng(12)
    raw = rng.standard_normal(grid.size)
    w = grid.weights.ravel()
    raw -= (w @ raw) / w.sum()
    z = raw.reshape(grid.n_r, grid.n_theta)
    psi = toolkit.f_inverse_bulk(z)
    S = dg.stiffness_matrix_bulk(grid)
    resid = S @ psi.ravel() - w * raw
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.abs(w * raw).max())
    assert abs(float(w @ psi.ravel())) < 1e-10


@pytest.mark.parametrize('shape', [(8, 16), (16, 32), (32, 64)])
def test_f_inverse_bulk_matches_the_bordered_system(shape):
    # reference: S psi + lam w = w z, w^T psi = 0 as one bordered system
    g = dg.DiskGrid(*shape)
    w = g.weights.ravel()
    raw = np.random.default_rng(5).standard_normal(g.size)
    raw -= (w @ raw) / w.sum()
    bordered = sps.bmat([[dg.stiffness_matrix_bulk(g), w[:, None]], [w[None, :], None]],
                        format='csc')
    ref = spsolve(bordered, np.concatenate([w * raw, [0.0]]))[:-1]
    psi = dn.NormToolkit(g).f_inverse_bulk(raw.reshape(shape)).ravel()
    assert np.linalg.norm(psi - ref) <= 1e-12 * np.linalg.norm(ref)


def test_f_inverse_bulk_absorbs_a_tolerated_mean(grid, toolkit):
    # a mean of 1e-12 relative passes the zero-mean check; the multiplier
    # takes it up, the residual check passes and psi keeps zero mean
    w = grid.weights.ravel()
    raw = np.random.default_rng(8).standard_normal(grid.size)
    raw -= (w @ raw) / w.sum()
    rms = np.sqrt(w @ raw ** 2 / w.sum())
    raw += 1e-12 * rms
    z = raw.reshape(grid.n_r, grid.n_theta)
    assert dg.mean_bulk(grid, z) == pytest.approx(1e-12 * rms, rel=1e-2)
    psi = toolkit.f_inverse_bulk(z).ravel()
    assert abs(float(w @ psi)) <= 1e-14 * np.sqrt(w @ psi ** 2)


def test_toolkit_factorizes_outside_the_newton_hook(grid, monkeypatch):
    # the solver's splu hook sees the Newton factors only
    calls = []
    factorize = cs.splu
    monkeypatch.setattr(cs, 'splu', lambda m, **kw: calls.append(m.shape) or factorize(m, **kw))
    dn.NormToolkit(grid)
    assert calls == []
    problem = cs.preset_problem('obstacle', grid)   # zero slopes at u0
    stepper = cs.NewtonStepper(problem, cs.SolverConfig(0.5, 1e-3, 1e-3, 0.1), 1e-3)
    assert stepper._refresh_lu(problem.u0, problem.v0)
    assert isinstance(stepper._base, dg.ThetaModes)
    assert len(calls) == 1


def test_f_inverse_rejects_nonzero_mean(grid, toolkit):
    z = np.ones((grid.n_r, grid.n_theta))
    with pytest.raises(ValueError, match='zero-mean operand'):
        toolkit.f_inverse_bulk(z)


def test_f_inverse_rejects_a_wrong_mode_solve(grid, monkeypatch):
    # the residual check catches a Poisson solve that is off by 1e-6
    toolkit = dn.NormToolkit(grid)
    solve = toolkit._modes.solve
    monkeypatch.setattr(toolkit._modes, 'solve', lambda b: (1.0 + 1e-6) * solve(b))
    z = np.cos(grid.theta)[None, :] * grid.r[:, None]
    with pytest.raises(SolveFailure, match=r'^zero-mean Poisson residual \S+ too large$'):
        toolkit.f_inverse_bulk(z)


def test_dual_norm_bulk_of_mean_is_the_mean(grid, toolkit):
    c = -0.625
    z = np.full((grid.n_r, grid.n_theta), c)
    assert abs(toolkit.dual_norm_bulk(z) - abs(c)) < 1e-13


def test_dual_norm_trace_modes(grid, toolkit):
    # |cos(k.)|_{Gamma,*} = sqrt(pi)/k on the unit circle
    for k in range(1, grid.n_theta // 4 + 1):
        z = np.cos(k * grid.theta)
        assert abs(toolkit.dual_norm_trace(z) - np.sqrt(np.pi) / k) < 1e-12


def test_h_half_norm_modes(grid, toolkit):
    # |cos(k.)|_{H^1/2} = sqrt((1+k) pi); constants carry sqrt(2 pi)
    for k in range(1, grid.n_theta // 4 + 1):
        z = np.cos(k * grid.theta)
        assert abs(toolkit.h_half_norm_trace(z) - np.sqrt((1 + k) * np.pi)) < 1e-12
    c = 1.7
    z = np.full(grid.n_theta, c)
    assert abs(toolkit.h_half_norm_trace(z) - c * np.sqrt(2 * np.pi)) < 1e-12
    assert abs(toolkit.dual_norm_trace(z) - c) < 1e-13


def test_norm_interpolation_ordering(grid, toolkit):
    # dual <= l2 <= h_half on zero-mean modes (k >= 1 on the unit circle)
    for k in (1, 2, 4):
        z = np.cos(k * grid.theta)
        dual = toolkit.dual_norm_trace(z)
        l2 = dg.l2_norm_trace(grid, z)
        half = toolkit.h_half_norm_trace(z)
        assert dual <= l2 + 1e-12 <= half + 2e-12


def test_v_norm_bulk_hypot(grid):
    rng = np.random.default_rng(21)
    u = rng.standard_normal((grid.n_r, grid.n_theta))
    v = rng.standard_normal(grid.n_theta)
    ref = np.hypot(dg.h1_seminorm_bulk(grid, u, v), dg.l2_norm_bulk(grid, u))
    assert abs(dn.v_norm_bulk(grid, u, v) - ref) < 1e-13


def test_v_norm_includes_boundary_jump(grid):
    u = np.zeros((grid.n_r, grid.n_theta))
    v = np.ones(grid.n_theta)
    # zero bulk with unit trace: only the boundary jump term contributes
    jump = dg.h1_seminorm_bulk(grid, u, v)
    assert jump > 0
    assert abs(dn.v_norm_bulk(grid, u, v) - jump) < 1e-13


def test_dual_norm_scales_linearly(grid, toolkit):
    rng = np.random.default_rng(33)
    raw = rng.standard_normal(grid.size)
    w = grid.weights.ravel()
    raw -= (w @ raw) / w.sum()
    z1 = raw.reshape(grid.n_r, grid.n_theta)
    z3 = 3.0 * raw.reshape(grid.n_r, grid.n_theta)
    a, b = toolkit.dual_norm_bulk(z1), toolkit.dual_norm_bulk(z3)
    assert abs(b - 3.0 * a) < 1e-12 * max(1.0, b)


def test_trace_norms_parseval_consistency(grid, toolkit):
    # a two-mode combination: norms add in quadrature mode by mode
    th = grid.theta
    z = 2.0 * np.cos(th) + 0.5 * np.sin(3 * th)
    ref_dual = np.sqrt(np.pi * (4.0 / 1 + 0.25 / 9))
    ref_half = np.sqrt(np.pi * (4.0 * 2 + 0.25 * 4))
    assert abs(toolkit.dual_norm_trace(z) - ref_dual) < 1e-12
    assert abs(toolkit.h_half_norm_trace(z) - ref_half) < 1e-12
