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
from .numcore import BandedHermitian, block_tridiagonal_bands, diff_central

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
        """The five components, each broadcast to n read-only samples.
        Raises NumericalError for a component neither scalar nor of shape (n,)."""
        values = []
        for name, v in vars(self).items():  # v11, v12, v13, v23, flat_energy
            v = np.asarray(v)
            if v.shape not in ((), (n,)):
                raise NumericalError(f"{name} must be a scalar or of shape ({n},), "
                                     f"got shape {v.shape}")
            values.append(np.broadcast_to(v, (n,)))
        return values

    def matrix_stack(self):
        """V(x_i) as an (n, 3, 3) complex stack; floats give one 3x3 matrix."""
        return potential_matrix(self.v11, self.v12, self.v13, self.v23,
                                0.0, self.flat_energy)


def continuum_limit(p):
    """Constant potential of the Dirac operator obtained by expanding H(k)
    around the zone corner, as a 3x3 matrix.

    Valid in the regime t_ab ~ t_ab_inter where the two dispersive bands
    nearly touch at k = pi/a. The potential is constant: diagonal
    (eps_a, eps_b, eps_c), AB mass/dimerization split, and the static
    inter-chain couplings. x is in units of t_ab_inter * a, which makes
    the kinetic term -i*gamma*d/dx.
    """
    if p.t_ab_inter == 0.0:
        raise NumericalError("no Dirac expansion for t_ab_inter = 0")
    return potential_matrix(0.5 * (p.eps_a - p.eps_b), p.t_ab - p.t_ab_inter,
                            p.t_ac, p.t_bc, 0.5 * (p.eps_a + p.eps_b), p.eps_c)


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
    -1/(2h) from 1 to 0.

    "saw": the finite open saw chain, one cell (A, B, C) per grid point.
    The on-site block is [[v11, t + v12, v13], [t + v12, -v11, v23],
    [v13, v23, flat_energy]] and the one hop t runs from B at point j to
    A at point j + 1: bandwidth 2. The chain's kinetic scale is t*h, so
    t = 1/h keeps it at the operator's 1 for any spacing; it is computed
    as (n - 1)/(x_max - x_min), which can differ from 1/h in the last bit.
    """
    n = grid.n_points
    values = comps.samples(n)
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
    """Apply -i*gamma*d/dx + V(x) to a sampled (3, n) spinor.

    The one operator action of the package: the seed, the transformed and
    the discretized operators differ only in V, given as PotentialComponents.
    V f is taken entry by entry without forming V: a real component times
    f, turned by +-i where V's entry is imaginary, summed over j = 0, 1, 2
    in einsum's order. Each product is exact either way, so this is
    np.einsum("nij,jn->in", potential.matrix_stack(), f) up to the sign of a
    zero. A constant component enters as a Python float. Only the shapes of
    the components are checked; a non-finite V gives a non-finite result.
    """
    f = np.asarray(state, dtype=complex)
    potential.samples(f.shape[-1])  # raises for a component of the wrong shape
    v11, v12, v13, v23, lam = (v if np.ndim(v) else float(v)
                               for v in vars(potential).values())

    def turned(c, g, phase):
        out = c * g
        out *= phase
        return out

    out = np.empty_like(f)
    np.multiply(v11, f[0], out=out[0])
    out[0] += turned(v12, f[1], -1j)
    out[0] += turned(v13, f[2], -1j)
    out[1] = turned(v12, f[0], 1j)
    out[1] -= v11 * f[1]
    out[1] += v23 * f[2]
    out[2] = turned(v13, f[0], 1j)
    out[2] += v23 * f[1]
    out[2] += lam * f[2]
    # gamma swaps components 0 and 1 and drops component 2; row by row, as
    # numpy may buffer a reversed two-row view whole
    kinetic = diff_central(f, grid)
    kinetic *= -1j
    out[0] += kinetic[1]
    out[1] += kinetic[0]
    return out
