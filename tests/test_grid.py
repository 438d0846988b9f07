"""Polar finite-volume grid: quadrature exactness, operator identities,
summation-by-parts duality, and refinement behavior."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps

from chb import disk_grid as dg


@pytest.fixture(scope='module')
def grid():
    return dg.DiskGrid(16, 32)


def bulk(grid, fn):
    vals = fn(grid.r[:, None], grid.theta[None, :])
    return np.broadcast_to(vals, (grid.n_r, grid.n_theta)).copy()


def dirichlet_laplacian(grid, u, v):
    """Lap u with the boundary ring v, through the matrices the solver uses."""
    A, B = dg.dirichlet_laplacian_matrices(grid, dg.neumann_laplacian_matrix(grid))
    return (A @ u.ravel() + B @ v).reshape(grid.n_r, grid.n_theta)


def test_weights_sum_to_disk_area():
    for n_r, n_t in ((4, 8), (16, 32), (64, 128)):
        g = dg.DiskGrid(n_r, n_t)
        assert abs(float(np.sum(g.weights)) - np.pi) < 5e-15
        assert abs(float(np.sum(g.boundary_weights)) - 2 * np.pi) < 5e-14


def test_integrate_constant_exact(grid):
    c = 0.7310562
    f = np.full((grid.n_r, grid.n_theta), c)
    assert abs(dg.integrate_bulk(grid, f) - c * np.pi) < 1e-14
    assert abs(dg.mean_bulk(grid, f) - c) < 1e-15
    t = np.full(grid.n_theta, c)
    assert abs(dg.integrate_trace(grid, t) - 2 * np.pi * c) < 1e-13
    assert abs(dg.mean_trace(grid, t) - c) < 1e-15


def test_integrate_r_squared(grid):
    # smooth radial polynomial: midpoint-in-r quadrature is exact for r*r^2? no —
    # the rule integrates r^3 dr exactly only up to O(dr^2); check convergence
    vals = []
    for n in (8, 16, 32):
        g = dg.DiskGrid(n, 16)
        f = np.tile((g.r ** 2)[:, None], (1, g.n_theta))
        vals.append(abs(dg.integrate_bulk(g, f) - np.pi / 2))
    assert vals[1] < vals[0] / 3.5 and vals[2] < vals[1] / 3.5


def test_neumann_laplacian_row_sums_zero(grid):
    A = dg.neumann_laplacian_matrix(grid)
    rs = np.abs(np.asarray(A.sum(axis=1))).max()
    assert rs < 1e-12
    # weighted column sums also vanish: conservation of the flux form
    w = grid.weights.ravel()
    cs = np.abs(w @ A.toarray()).max()
    assert cs < 1e-12


def test_laplacian_annihilates_constants(grid):
    u = np.full(grid.size, 2.25)
    out = dg.neumann_laplacian_matrix(grid) @ u
    # rounding only: the diagonal is the rounded sum of the face terms
    assert np.max(np.abs(out)) < 1e-11


def test_dirichlet_laplacian_exact_on_r_squared(grid):
    # u = r^2: interior face fluxes r*du/dr = 2r^2 are captured exactly by
    # the face-centered stencil.  The one-sided boundary flux (v-u_N)/(dr/2)
    # carries a pointwise O(1) deviation confined to the last ring (the
    # operator is consistent in the summation-by-parts/weak sense).
    u = bulk(grid, lambda r, th: r ** 2)
    v = np.ones(grid.n_theta)
    out = dirichlet_laplacian(grid, u, v)
    assert np.max(np.abs(out[:-1] - 4.0)) < 1e-11
    ring_dev = -1.0 / (2.0 * grid.r[-1])   # one-sided flux error / cell volume
    assert np.max(np.abs(out[-1] - 4.0 - ring_dev)) < 1e-10


def test_laplacian_refinement_on_r4():
    # interior truncation error is O(dr^2)
    errs = []
    for n in (8, 16, 32):
        g = dg.DiskGrid(n, 8)
        u = np.tile((g.r ** 4)[:, None], (1, g.n_theta))
        v = np.ones(g.n_theta)
        out = dirichlet_laplacian(g, u, v)
        errs.append(np.max(np.abs(out[:-1] - 16.0 * g.r[:-1, None] ** 2)))
    assert errs[1] < errs[0] / 3.7 and errs[2] < errs[1] / 3.7


def test_beltrami_eigenvectors(grid):
    # cos(k theta) is an exact eigenvector of the periodic second difference
    th = grid.theta
    dth = grid.dtheta
    for k in (1, 2, 5):
        v = np.cos(k * th)
        out = dg.circle_laplacian_matrix(grid) @ v
        sigma = (2.0 - 2.0 * np.cos(k * dth)) / dth ** 2
        assert np.max(np.abs(out + sigma * v)) < 1e-11


def test_summation_by_parts_interior(grid):
    rng = np.random.default_rng(3)
    u = rng.standard_normal((grid.n_r, grid.n_theta))
    z = rng.standard_normal((grid.n_r, grid.n_theta))
    Au = (dg.neumann_laplacian_matrix(grid) @ u.ravel()).reshape(u.shape)
    lhs = -float(np.sum(grid.weights * Au * z))
    # interior form: sum over faces of kappa * du * dz
    S = dg.stiffness_matrix_bulk(grid)
    rhs = float(z.ravel() @ (S @ u.ravel()))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_summation_by_parts_with_boundary(grid):
    rng = np.random.default_rng(4)
    u = rng.standard_normal((grid.n_r, grid.n_theta))
    v = rng.standard_normal(grid.n_theta)
    Au = dirichlet_laplacian(grid, u, v)
    dnu = (v - u[-1]) / (grid.dr / 2.0)     # one-sided normal derivative
    lhs = -float(np.sum(grid.weights * Au * u)) \
        + float(np.sum(grid.boundary_weights * dnu * v))
    rhs = dg.h1_seminorm_bulk(grid, u, v) ** 2
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def _face_by_face(grid, laplacian):
    """The zero-flux Laplacian, or the stiffness S = -W*Lap, from a list of
    its faces.  The face between cells a and b with transmission
    coefficient kappa (face length over center distance) puts the flux
    kappa*(u_b - u_a) in row a and its negative in row b, each divided by
    the row cell's area (1 for S).  A diagonal entry is the rounded sum of
    its face terms, so they are summed in the assembly's order: every
    face's (a, b) term, then every face's (a, a), (b, a) and (b, b)."""
    n_r, nt, dr, dth = grid.n_r, grid.n_theta, grid.dr, grid.dtheta
    faces = [(i * nt + j, (i + 1) * nt + j, (i + 1) * dr * dth / dr)
             for i in range(n_r - 1) for j in range(nt)]
    faces += [(i * nt + j, i * nt + (j + 1) % nt, dr / ((i + 0.5) * dr * dth))
              for i in range(n_r) for j in range(nt)]
    sign = 1.0 if laplacian else -1.0

    def area(cell):
        return (cell // nt + 0.5) * dr * dr * dth if laplacian else 1.0

    def terms(a, b, k):
        return ((a, b, sign * k / area(a)), (a, a, -sign * k / area(a)),
                (b, a, sign * k / area(b)), (b, b, -sign * k / area(b)))
    rows, cols, vals = zip(*[terms(*face)[part] for part in range(4) for face in faces])
    return sps.coo_matrix((vals, (rows, cols)), shape=(grid.size, grid.size)).tocsr()


def _slots(a):
    """The length of the buffer that the array a is a view of."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.size


def _same_bits(x, y):
    return all(p.dtype == q.dtype and np.array_equal(p, q) for p, q in
               ((x.data, y.data), (x.indices, y.indices), (x.indptr, y.indptr)))


@pytest.mark.parametrize('n_r, n_theta', [(8, 16), (64, 128)])
def test_flux_divergence_matches_a_face_by_face_assembly(n_r, n_theta):
    g = dg.DiskGrid(n_r, n_theta)
    for laplacian, build in ((True, dg.neumann_laplacian_matrix),
                             (False, dg.stiffness_matrix_bulk)):
        x, ref = build(g), _face_by_face(g, laplacian)
        assert _same_bits(x, ref)
        # written straight into CSR, the arrays hold the entries only
        assert _slots(x.data) == _slots(x.indices) == x.nnz == 5 * g.size - 2 * n_theta


@pytest.mark.parametrize('n_r, n_theta', [(4, 8), (12, 30), (64, 128)])
def test_circle_laplacian_is_the_periodic_central_difference(n_r, n_theta):
    # the flux divergence of one line gives the central difference's bits:
    # its diagonal -k - k is -2/h**2 exactly
    g = dg.DiskGrid(n_r, n_theta)
    h2 = g.dtheta ** 2
    off = np.full(n_theta, 1.0 / h2)
    ref = sps.diags([np.full(n_theta, -2.0 / h2), off[:-1], off[:-1], [1.0 / h2], [1.0 / h2]],
                    [0, 1, -1, n_theta - 1, -(n_theta - 1)], format='csr')
    assert _same_bits(dg.circle_laplacian_matrix(g), ref)


def test_neumann_laplacian_build_peak_memory():
    # a bound fixed before the first run: the COO assembly peaked at 29.3
    # grid-size float vectors, the triplets beside the CSR summing them
    g = dg.DiskGrid(64, 128)
    dg.neumann_laplacian_matrix(g)
    tracemalloc.start()
    try:
        dg.neumann_laplacian_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 8 * g.size


def test_stiffness_matrix_is_spd_kernel_constants(grid):
    S = dg.stiffness_matrix_bulk(grid)
    x = np.ones(grid.size)
    assert np.max(np.abs(S @ x)) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(3):
        y = rng.standard_normal(grid.size)
        assert float(y @ (S @ y)) >= -1e-12


def test_h1_trace_seminorm_of_mode(grid):
    dth = grid.dtheta
    for k in (1, 3, 4):
        v = np.cos(k * grid.theta)
        # sum_j (v_{j+1}-v_j)^2 = (n/2) * (2-2cos(k dth)) for a pure mode
        ref = np.sqrt(grid.n_theta * (2.0 - 2.0 * np.cos(k * dth)) / (2.0 * dth))
        assert abs(dg.h1_seminorm_trace(grid, v) - ref) < 1e-12


def test_m_matrix_monotonicity(grid):
    # (I - c*Lap_h) preserves nonnegativity: inverse-positivity of the scheme
    from scipy.sparse.linalg import spsolve
    A = sps.identity(grid.size, format='csc') - 0.1 * dg.neumann_laplacian_matrix(grid).tocsc()
    rng = np.random.default_rng(6)
    b = rng.uniform(0.0, 1.0, grid.size)
    x = spsolve(A, b)
    assert np.min(x) >= -1e-13


def test_normal_derivative_one_sided(grid):
    # the Dirichlet matrices differ from the zero-flux ones only by the
    # boundary flux (v - u_{n_r})/(dr/2) across the arclength dtheta,
    # divided by the volume of the outer ring's cells
    u = bulk(grid, lambda r, th: r ** 2)
    v = np.ones(grid.n_theta)
    flux = dirichlet_laplacian(grid, u, v) \
        - (dg.neumann_laplacian_matrix(grid) @ u.ravel()).reshape(u.shape)
    assert np.max(np.abs(flux[:-1])) < 1e-12
    r_last = grid.r[-1]
    dn = flux[-1] * (r_last * grid.dr * grid.dtheta) / grid.dtheta
    expected = (1.0 - r_last ** 2) / (grid.dr / 2.0)
    assert np.max(np.abs(dn - expected)) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        dg.DiskGrid(3, 16)      # too few rings
    with pytest.raises(ValueError):
        dg.DiskGrid(8, 9)       # odd angular count
    with pytest.raises(ValueError):
        dg.DiskGrid(8, 4)       # too few angles


def test_equal_grids_are_hashable_and_give_equal_matrices():
    # no matrix is cached: each call assembles its own, with the same bits
    a, b = dg.DiskGrid(8, 16), dg.DiskGrid(8, 16)
    assert a == b and hash(a) == hash(b)
    def dirichlet(g):
        return dg.dirichlet_laplacian_matrices(g, dg.neumann_laplacian_matrix(g))
    for build in (dg.neumann_laplacian_matrix, dg.stiffness_matrix_bulk,
                  dg.circle_laplacian_matrix, lambda g: dirichlet(g)[0],
                  lambda g: dirichlet(g)[1]):
        x, y = build(a), build(b)
        assert x is not y
        assert all(np.array_equal(p, q) for p, q in
                   ((x.data, y.data), (x.indices, y.indices), (x.indptr, y.indptr)))
