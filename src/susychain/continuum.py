"""Continuum Dirac-type operators for the saw chain.

The low-energy operator acts on three-component spinors as

    H = -i * gamma * d/dx + V(x),

where gamma couples the first two components only and V(x) is a 3x3
Hermitian potential with five real components. A constant potential
(one spatial side's asymptotic cell) has symbol eigenvalues that give
the band thresholds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numcore import BandedHermitian, block_tridiagonal_bands, diff_central, real_array

GAMMA = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])


def potential_matrix(v11, v12, v13, v23, scalar_v, flat_energy):
    """Assemble the 3x3 Hermitian potential from its real components.

    Array components give a C-ordered stack of shape broadcast_shape + (3, 3).
    """
    entries = np.broadcast_arrays(
        v11 + scalar_v, -1j * v12, -1j * v13,
        1j * v12, -v11 + scalar_v, v23,
        1j * v13, v23, flat_energy)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


@dataclass(frozen=True)
class PotentialComponents:
    """The real components of V = potential_matrix(v11, v12, v13, v23, 0,
    flat_energy): arrays sampled on a grid's points, or floats for a
    constant potential."""

    v11: np.ndarray
    v12: np.ndarray
    v13: np.ndarray
    v23: np.ndarray
    flat_energy: float

    def samples(self, n):
        """The five components as given, each a scalar or an array of shape
        (n,). Raises NumericalError for any other shape."""
        values = vars(self)  # v11, v12, v13, v23, flat_energy
        for name, v in values.items():
            if np.shape(v) not in ((), (n,)):
                raise NumericalError(f"{name} must be a scalar or of shape ({n},), "
                                     f"got shape {np.shape(v)}")
        return list(values.values())

    def matrix_stack(self):
        """V(x_i) as an (n, 3, 3) complex stack; floats give one 3x3 matrix."""
        return potential_matrix(self.v11, self.v12, self.v13, self.v23,
                                0.0, self.flat_energy)


def symbol_matrix(cell, k):
    """Symbol at momentum k; an array k gives a k.shape + (3, 3) stack."""
    return np.multiply.outer(k, GAMMA) + cell.matrix_stack()


def symbol_dispersion(cell, k):
    """Ascending eigenvalues of the constant-coefficient symbol at momentum k.

    An array k gives one row of three eigenvalues per momentum. For a
    decoupled cell (v13 = v23 = 0) these are flat_energy and
    +-sqrt(k^2 + v11^2 + v12^2).
    """
    return np.linalg.eigvalsh(symbol_matrix(cell, k))


def threshold_scan(cell):
    """Continuum band edges (E-, E+) and the flat energy.

    The dispersive branches attain their extrema at k = 0, giving edges
    +-sqrt(v11^2 + v12^2). Only decoupled constant potentials are supported.
    """
    if cell.v13 != 0.0 or cell.v23 != 0.0:
        raise NumericalError(
            "threshold_scan requires a decoupled asymptotic cell "
            "(v13 = v23 = 0)"
        )
    edge = float(np.hypot(cell.v11, cell.v12))
    return -edge, edge, cell.flat_energy


def discretize(comps, grid, stencil):
    """Band storage of H on a grid, by one of two stencils. Each component
    is a float or holds one sample per grid point.

    "central": the finite-difference matrix, stored as D^H H D with the
    constant gauge D = diag(1, i, i) at every point. -i d/dx becomes the
    antisymmetric central-difference stencil (times -i, hence Hermitian);
    the potential is taken point by point; the chain is simply truncated
    at the box walls. Point-major ordering keeps the bandwidth at 4.
    D is unitary and diagonal, so D^H H D has the spectrum of H, and its
    eigenvectors are D^H times those of H: |v|^2 per point, hence IPR
    and edge flags, are unchanged. D makes every entry real: the on-site
    block is [[v11, v12, v13], [v12, -v11, v23], [v13, v23, flat_energy]],
    and the hop to the next point is +1/(2h) from component 0 to 1 and
    -1/(2h) from 1 to 0. D = i P S with P = diag(i, 1, 1), the gauge of
    apply_dirac, and S = diag(-1, 1, 1), so this band is S times the real
    form that apply_dirac applies, times S.

    "saw": the finite open saw chain, one cell (A, B, C) per grid point.
    The on-site block is [[v11, t + v12, v13], [t + v12, -v11, v23],
    [v13, v23, flat_energy]] and the one hop t runs from B at point j to
    A at point j + 1: bandwidth 2. The chain's kinetic scale is t*h, so
    t = 1/h keeps it at the operator's 1 for any spacing; it is computed
    as (n - 1)/(x_max - x_min), which can differ from 1/h in the last bit.
    """
    n = grid.n_points
    values = [np.broadcast_to(v, (n,)) for v in comps.samples(n)]
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        x = grid.x[np.argmin(finite)]
        raise NumericalError(f"non-finite potential sample at x={x:.6g}")
    v11, v12, v13, v23, lam = values
    if stencil == "central":
        hop = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / (2 * grid.h)
        bandwidth = 4
    elif stencil == "saw":
        t = (n - 1) / (grid.x_max - grid.x_min)
        hop = np.array([[0.0, 0.0, 0.0], [t, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v12 = t + v12
        bandwidth = 2
    else:
        raise NumericalError(f"stencil must be 'central' or 'saw', got {stencil!r}")
    onsite = np.moveaxis(np.array([[v11, v12, v13], [v12, -v11, v23], [v13, v23, lam]]),
                         -1, 0)
    return BandedHermitian(block_tridiagonal_bands(onsite, hop, bandwidth))


def apply_dirac(potential, state, grid):
    """Apply -i*gamma*d/dx + V(x) to real (..., 3, n) spinors x, psi = diag(i, 1, 1) x.

    The one operator action of the package: the seed, the transformed and
    the discretized operators differ only in V, given as PotentialComponents.
    H maps the x of psi to that of H psi: V acts as [[v11, -v12, -v13],
    [-v12, -v11, v23], [-v13, v23, flat_energy]] and -i*gamma*d/dx sends
    (a, b, c) to (-b', a', 0). Any psi is two real states, the real and
    imaginary parts of diag(-i, 1, 1) psi. Each row sums in the order of
    np.einsum("nij,jn->in", potential.matrix_stack(), psi), the kinetic term
    last, so the result has that product's values. Only the shapes of the
    components are checked; a non-finite V gives a non-finite result.
    """
    x = real_array(state, "apply_dirac")
    v11, v12, v13, v23, lam = potential.samples(x.shape[-1])
    out = np.empty_like(x)
    for i, row in enumerate(((v11, -v12, -v13), (-v12, -v11, v23), (-v13, v23, lam))):
        np.multiply(row[0], x[..., 0, :], out=out[..., i, :])
        out[..., i, :] += row[1] * x[..., 1, :]
        out[..., i, :] += row[2] * x[..., 2, :]
    d = diff_central(x[..., :2, :], grid)
    out[..., 0, :] -= d[..., 1, :]
    out[..., 1, :] += d[..., 0, :]
    return out
