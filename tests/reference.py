"""Reference code that only the tests use: the complex potential matrix
and the gauge that makes it real, dense <-> band storage, a trapezoidal
antiderivative, the columns of the seed frame U, those of
(U^{-1})^dag, the transformed operator's eigenstates, the two converters
between complex spinors and the real gauge of apply_dirac and apply_darboux,
the matrix of the continuum stencil's Wilson term, the continuum
operator's gamma and its symbol at constant V, which dense eigenvectors
are edge-localised, and the number of a band matrix's eigenvalues below an
energy by inertia, a scipy-free oracle of the banded solve; and
scipy.linalg, the oracle of its bits, with the marker that skips a test
reading it where scipy is missing."""

import numpy as np
import pytest

from susychain.continuum import apply_dirac
from susychain.numcore import BandedHermitian
from susychain.susy import transformed_potential

try:
    import scipy.linalg as scipy_linalg
except ModuleNotFoundError:
    scipy_linalg = None

needs_scipy = pytest.mark.skipif(scipy_linalg is None,
                                 reason="scipy.linalg, the oracle, is not installed")


# the kinetic term of the continuum operator is -i * GAMMA * d/dx
GAMMA = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])


def potential_matrix(comps):
    """The complex Hermitian V of a PotentialComponents, one entry at a time,
    each from its own formula: a broadcast_shape + (3, 3) stack."""
    args = (comps.v11, comps.v12, comps.v13, comps.v23, comps.flat_energy)
    v = np.empty(np.broadcast_shapes(*map(np.shape, args)) + (3, 3), dtype=complex)
    v[..., 0, 0] = comps.v11
    v[..., 0, 1] = -1j * comps.v12
    v[..., 0, 2] = -1j * comps.v13
    v[..., 1, 0] = 1j * comps.v12
    v[..., 1, 1] = -comps.v11
    v[..., 1, 2] = comps.v23
    v[..., 2, 0] = 1j * comps.v13
    v[..., 2, 1] = comps.v23
    v[..., 2, 2] = comps.flat_energy
    return v


def to_gauge(v):
    """P^{-1} v P with P = diag(i, 1, 1), row 0 turned by -i and column 0 by
    i, each turn exact, as a real array: apply_dirac's gauge. Fails where v
    has no real form there."""
    g = v * np.array([[1.0, -1j, -1j], [1j, 1.0, 1.0], [1j, 1.0, 1.0]])
    assert not g.imag.any()
    return g.real


def symbol(comps, k):
    """k * GAMMA + V for a constant V: a k.shape + (3, 3) stack for an array k."""
    return np.multiply.outer(k, GAMMA) + potential_matrix(comps)


def split_spinor(psi):
    """The real parts (x, x') of psi = diag(i, 1, 1) (x + i x'), as a (2, ...,
    3, n) array: the real and imaginary parts of diag(-i, 1, 1) psi."""
    z = np.asarray(psi, dtype=complex) * np.array([-1j, 1.0, 1.0])[:, None]
    return np.stack([z.real, z.imag])


def join_spinor(parts):
    """The complex spinor diag(i, 1, 1) (x + i x') of split_spinor's (x, x')."""
    return np.array([1j, 1.0, 1.0])[:, None] * (parts[0] + 1j * parts[1])


def wilson_matrix(comps):
    """The complex 3x3 M of discretize's Wilson term h*(-d^2/dx^2)*M,
    written out: cos(th)*sigma_z + sin(th)*sigma_y on components 0 and 1,
    th = atan2(v23^2 - v13^2, 2*v13*v23) where |v13| + |v23| is largest,
    and th = 0 where v13 = v23 = 0 everywhere."""
    v13, v23 = np.broadcast_arrays(np.atleast_1d(comps.v13), np.atleast_1d(comps.v23))
    j = np.argmax(np.abs(v13) + np.abs(v23))
    th = 0.0
    if v13[j] != 0.0 or v23[j] != 0.0:
        th = np.arctan2(v23[j] ** 2 - v13[j] ** 2, 2 * v13[j] * v23[j])
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, -1j * s, 0.0], [1j * s, -c, 0.0], [0.0, 0.0, 0.0]])


def edge_localised(vectors):
    """True for each column of `vectors` (dim, k), a state on 3 sites per
    point (cell or grid point), that holds at least half its weight in the
    first and last 5 % of its points, at least one point each."""
    density = np.abs(vectors) ** 2
    n_pts = density.shape[0] // 3
    n_edge = max(1, int(np.ceil(0.05 * n_pts)))
    points = density.reshape(n_pts, 3, -1).sum(axis=1) / density.sum(axis=0)
    return points[:n_edge].sum(axis=0) + points[-n_edge:].sum(axis=0) >= 0.5


def banded_from_dense(m, bandwidth):
    """BandedHermitian of the upper `bandwidth` diagonals of dense m, in m's
    dtype: a complex m is refused as BandedHermitian refuses it."""
    m = np.asarray(m)
    b = np.zeros((bandwidth + 1, m.shape[0]), dtype=m.dtype)
    for d in range(bandwidth + 1):
        b[bandwidth - d, d:] = np.diagonal(m, d)
    return BandedHermitian(b)


def count_below(bands, energy):
    """The number of eigenvalues below `energy` (a float, or an array of them)
    of the real symmetric matrix whose upper band storage is `bands`: by
    Sylvester's law of inertia, the number of negative pivots of an LDL^T
    factorization of M - energy*I. Taken without pivoting, it keeps the band,
    so a window of u + 1 rows of the trailing Schur complement suffices. A
    pivot is 0 where energy is an eigenvalue of a leading block: never probe
    at one."""
    b = np.asarray(bands, dtype=float)
    u, n = b.shape[0] - 1, b.shape[1]
    e = np.asarray(energy, dtype=float)
    # the band columns of M - energy*I, then u + 1 columns of the identity
    cols = np.zeros(e.shape + (n + u + 1, u + 1))
    cols[..., :n, :] = b.T
    cols[..., :n, u] -= e[..., None]
    cols[..., n:, u] = 1.0
    for c in range(min(u, n)):  # the unused storage above row 0
        cols[..., c, : u - c] = 0.0
    # s[..., a, b]: entry (j + a, j + b) of the trailing Schur complement
    # before pivot j; it starts on u + 1 identity rows ahead of row 0, each a
    # positive pivot, and takes in each band column once no pivot can touch it
    s = np.broadcast_to(np.eye(u + 1), e.shape + (u + 1, u + 1)).copy()
    negative = np.zeros(e.shape, dtype=int)
    for col in np.moveaxis(cols, -2, 0):
        d = s[..., 0, 0]
        negative += d < 0.0
        s[..., 1:, 1:] -= s[..., 1:, :1] * s[..., :1, 1:] / d[..., None, None]
        s[..., :-1, :-1] = s[..., 1:, 1:]
        s[..., :, -1] = col
        s[..., -1, :] = col
    return negative


def banded_to_dense(m):
    """The dense symmetric matrix of a BandedHermitian."""
    n, u = m.dim, m.bandwidth
    dense = np.zeros((n, n), dtype=m.bands.dtype)
    for d in range(u + 1):
        dense[np.arange(n - d), np.arange(d, n)] = m.bands[u - d, d:]
    return dense + np.triu(dense, 1).T


def inverse_dagger_states(frame):
    """The columns of (U^{-1})^dag as (3, n) states, their energies E =
    (mass, flat, flat), and each state's sup-norm residual of (H_new - E)
    relative to 1 + its largest |entry|, O(h^2) for an exact frame."""
    s, g = frame.seed, frame.grid
    # U^{-1} = G^{-1} F^{-1} diag(-i, 1, 1): state j, its row j conjugated, is
    # diag(i, 1, 1) times row j of the real G^{-1} F^{-1}, apply_dirac's gauge
    rows = np.exp(-frame.log_g)[:, None, :] * frame.f_inv
    energies = (s.mass, s.flat_energy, s.flat_energy)
    v_new = transformed_potential(frame)
    residuals = [float(np.abs(apply_dirac(v_new, x, g) - e * x).max() / (1.0 + np.abs(x).max()))
                 for x, e in zip(rows, energies)]
    states = rows * np.array([1j, 1.0, 1.0])[:, None]
    return states, energies, residuals


def index_nearest(grid, x0=0.0):
    """Index of the grid point nearest x0."""
    return int(np.argmin(np.abs(grid.x - x0)))


def integrate_cumulative(samples, grid):
    """Trapezoidal antiderivative, anchored to 0 at the point nearest x=0."""
    f = np.asarray(samples)
    steps = 0.5 * grid.h * (f[..., 1:] + f[..., :-1])
    out = np.concatenate(
        [np.zeros(f.shape[:-1] + (1,), dtype=steps.dtype), np.cumsum(steps, axis=-1)],
        axis=-1,
    )
    anchor = index_nearest(grid, 0.0)
    return out - out[..., anchor : anchor + 1]


def seed_columns(frame):
    """The columns of U = Uhat G, F G with row 0 times i, as a complex (3, 3,
    n) array whose [j] is column j, a (3, n) spinor. U leaves the double
    range on wide boxes: (2*kappa0 + A)*box past about 710."""
    u = np.array([1j, 1.0, 1.0])[:, None, None] * (frame.f * np.exp(frame.log_g))
    return u.swapaxes(0, 1)
