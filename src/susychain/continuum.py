"""Continuum Dirac-type operators for the saw chain.

The low-energy operator acts on three-component spinors as

    H = -i * gamma * d/dx + V(x),

where gamma couples the first two components only and V(x) is a 3x3
Hermitian potential with five real components.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lattice import TightBindingParams, symmetric_block
from .numcore import BandedHermitian, block_tridiagonal_bands, diff_central, real_array


def _gauge_rows(v11, v12, v13, v23, flat_energy):
    # V's rows in apply_dirac's gauge: the one place their signs are written
    return (v11, -v12, -v13), (-v12, -v11, v23), (-v13, v23, flat_energy)


@dataclass(frozen=True)
class PotentialComponents:
    """The real components of the Hermitian V = [[v11, -i*v12, -i*v13],
    [i*v12, -v11, v23], [i*v13, v23, flat_energy]]: arrays sampled on a
    grid's points, or floats for a constant potential."""

    v11: np.ndarray
    v12: np.ndarray
    v13: np.ndarray
    v23: np.ndarray
    flat_energy: float

    def samples(self, n):
        """The five components as given, each a real scalar or an array of
        shape (n,). Raises NumericalError for any other shape or a complex one."""
        values = vars(self)  # v11, v12, v13, v23, flat_energy
        for name, v in values.items():
            if np.shape(v) not in ((), (n,)):
                raise NumericalError(f"{name} must be a scalar or of shape ({n},), "
                                     f"got shape {np.shape(v)}")
            if np.iscomplexobj(v):
                raise NumericalError(f"{name} must be real, got a complex value")
        return list(values.values())

    def gauge(self):
        """V in apply_dirac's gauge, P^{-1} V P with P = diag(i, 1, 1): the real
        symmetric [[v11, -v12, -v13], [-v12, -v11, v23], [-v13, v23, flat_energy]]
        as a broadcast_shape + (3, 3) stack; floats give one 3x3 matrix."""
        return symmetric_block(_gauge_rows(*vars(self).values()))


def _finite_samples(comps, grid):
    """comps' components, one sample per grid point, all finite."""
    n = grid.n_points
    values = [np.broadcast_to(v, (n,)) for v in comps.samples(n)]
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise NumericalError(f"non-finite potential sample at x={grid.x[np.argmin(finite)]:.6g}")
    return values


def discretize(comps, grid):
    """Band storage of apply_dirac's operator on a grid, in its real gauge:
    each on-site block is a gauge(), each component a float or one sample per
    point. -i d/dx becomes the central-difference stencil, the hop to the next
    point -1/(2h) from component 0 to 1 and +1/(2h) from 1 to 0; the
    potential is taken point by point; the chain is simply truncated at the
    box walls. Point-major ordering keeps the bandwidth at 4. A Wilson term
    h*(-d^2/dx^2)*M, M = [[c, -s], [-s, -c]] on components 0 and 1, lifts
    the stencil's doubler at k = pi/h out of the gap: 2M/h on site, a shift
    of v11 by 2c/h and of v12 by 2s/h, and -M/h on the hop. Its angle
    th = atan2(v23^2 - v13^2, 2*v13*v23), where |v13| + |v23| is largest,
    keeps the flat level exact: u^T M u = 0 for u = (v23, v13). The
    potential's mass along M, v11*c + v12*s, has opposite signs at the two
    walls, so one wall binds a domain-wall mode, at -lambda to within the
    box's resolution; the continuum operator has no state there.
    """
    v11, v12, v13, v23, lam = _finite_samples(comps, grid)
    j = np.argmax(np.abs(v13) + np.abs(v23))
    # + 0.0: where v13 = v23 = 0, arctan2(0.0, -0.0) would give pi, not 0
    th = np.arctan2(v23[j] * v23[j] - v13[j] * v13[j], 2 * v13[j] * v23[j] + 0.0)
    c, s = np.cos(th), np.sin(th)
    hop = (np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / (2 * grid.h)
           - PotentialComponents(c, s, 0.0, 0.0, 0.0).gauge() / grid.h)
    onsite = PotentialComponents(v11 + 2 / grid.h * c, v12 + 2 / grid.h * s, v13, v23, lam)
    return BandedHermitian(block_tridiagonal_bands(onsite.gauge(), hop, 4))


def saw_cells(comps, grid):
    """The cells of V's saw chain, one per grid point: each cell's on-site
    block is gauge()'s, its A-B entry shifted by the hop -t, and t_ab_inter =
    -t. The chain's kinetic scale t*h stays the operator's 1 at t = (n - 1)/
    (x_max - x_min), 1/h up to its last bit."""
    (eps_a, ab, ac), (_, eps_b, bc), (_, _, eps_c) = _gauge_rows(*_finite_samples(comps, grid))
    t = (grid.n_points - 1) / (grid.x_max - grid.x_min)
    # -(t - ab) is -(t + v12) bit for bit; ab - t would give +0.0 where ab = t
    return TightBindingParams(eps_a=eps_a, eps_b=eps_b, eps_c=eps_c, t_ab=-(t - ab),
                              t_ab_inter=-t, t_ac=ac, t_bc=bc)


def apply_dirac(potential, state, grid):
    """Apply -i*gamma*d/dx + V(x) to real (..., 3, n) spinors x, psi = diag(i, 1, 1) x.

    The one operator action of the package: the seed, the transformed and
    the discretized operators differ only in V, given as PotentialComponents.
    H maps the x of psi to that of H psi: V acts as potential.gauge() and
    -i*gamma*d/dx sends (a, b, c) to (-b', a', 0). Any psi is two real states,
    the real and imaginary parts of diag(-i, 1, 1) psi. Each row sums in the
    order of np.einsum("nij,jn->in", potential.gauge(), x), the kinetic term
    last, so the result has that product's values. Only the shapes of the
    components are checked; a non-finite V gives a non-finite result.
    """
    x = real_array(state, "apply_dirac")
    out = np.empty_like(x)
    for i, row in enumerate(_gauge_rows(*potential.samples(x.shape[-1]))):
        np.multiply(row[0], x[..., 0, :], out=out[..., i, :])
        out[..., i, :] += row[1] * x[..., 1, :]
        out[..., i, :] += row[2] * x[..., 2, :]
    d = diff_central(x[..., :2, :], grid)
    out[..., 0, :] -= d[..., 1, :]
    out[..., 1, :] += d[..., 0, :]
    return out
