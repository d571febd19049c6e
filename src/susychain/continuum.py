"""Continuum Dirac-type operators for the saw chain.

The low-energy operator acts on three-component spinors as

    H = -i * gamma * d/dx + V(x),

where gamma couples the first two components only and V(x) is a 3x3
Hermitian potential with five real components.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numcore import BandedHermitian, block_tridiagonal_bands, diff_central, real_array


def _gauge_rows(v11, v12, v13, v23, flat_energy):
    # V's rows in apply_dirac's gauge
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
        """V in apply_dirac's gauge, D^{-1} V D with D = diag(i, 1, 1): the real
        symmetric [[v11, -v12, -v13], [-v12, -v11, v23], [-v13, v23, flat_energy]]
        as a broadcast_shape + (3, 3) stack; floats give one 3x3 matrix."""
        entries = [v for row in _gauge_rows(*np.broadcast_arrays(*vars(self).values()))
                   for v in row]
        return np.stack(entries, axis=-1).reshape(np.shape(entries[0]) + (3, 3))


def discretize(comps, grid, stencil):
    """Band storage of H on a grid, by one of two stencils. Each component
    is a float or holds one sample per grid point.

    "central": the finite-difference matrix, stored as D^H H D with the
    constant gauge D = diag(1, i, i) at every point. -i d/dx becomes the
    antisymmetric central-difference stencil (times -i, hence Hermitian);
    the potential is taken point by point; the chain is simply truncated
    at the box walls. Point-major ordering keeps the bandwidth at 4.
    D is unitary and diagonal, so D^H H D has the spectrum of H, and its
    eigenvectors are D^H times those of H. D makes every entry real: the
    on-site block is [[v11, v12, v13], [v12, -v11, v23], [v13, v23, flat_energy]],
    and the hop to the next point is +1/(2h) from component 0 to 1 and
    -1/(2h) from 1 to 0. D = i P S with P = diag(i, 1, 1), the gauge of
    apply_dirac, and S = diag(-1, 1, 1), so this band is S times the real
    form that apply_dirac applies, times S. A Wilson term h*(-d^2/dx^2)*M,
    M = [[c, s], [s, -c]] on components 0 and 1, lifts the stencil's doubler
    at k = pi/h out of the gap: 2M/h on site, -M/h on the hop. Its angle
    th = atan2(v23^2 - v13^2, 2*v13*v23), where |v13| + |v23| is largest,
    keeps the flat level exact: u^T M u = 0 for u = (v23, -v13). The
    potential's mass along M, v11*c + v12*s, has opposite signs at the two
    walls, so one wall binds a domain-wall mode, at -lambda to within the
    box's resolution; the continuum operator has no state there.

    "saw": the finite open saw chain, one cell (A, B, C) per grid point.
    The on-site block is [[v11, t + v12, v13], [t + v12, -v11, v23],
    [v13, v23, flat_energy]] and the one hop t runs from B at point j to
    A at point j + 1: bandwidth 2. The chain's kinetic scale is t*h, so
    t = 1/h keeps it at the operator's 1 for any spacing; it is computed
    as (n - 1)/(x_max - x_min), which can differ from 1/h in the last bit.
    Its A-B backbone is an SSH chain, intra-cell hop t + v12 and
    inter-cell hop t, and a wall that ends on the weak bond, |t + v12| <
    t there, binds an end state in the gap. If both walls do, A at
    point 0 goes and an A site (on site v11 at the last point, hop t to
    the last B, no C bond) follows the last B, so the chain keeps 3n sites
    and ends on strong bonds; if one wall does, NumericalError.
    """
    n = grid.n_points
    values = [np.broadcast_to(v, (n,)) for v in comps.samples(n)]
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        x = grid.x[np.argmin(finite)]
        raise NumericalError(f"non-finite potential sample at x={x:.6g}")
    v11, v12, v13, v23, lam = values
    if stencil == "central":
        j = np.argmax(np.abs(v13) + np.abs(v23))
        # + 0.0: where v13 = v23 = 0, arctan2(0.0, -0.0) would give pi, not 0
        th = np.arctan2(v23[j] * v23[j] - v13[j] * v13[j], 2 * v13[j] * v23[j] + 0.0)
        c, s = np.cos(th), np.sin(th)
        v11 = v11 + 2 / grid.h * c
        v12 = v12 + 2 / grid.h * s
        hop = (np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / (2 * grid.h)
               - np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, 0.0]]) / grid.h)
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
    bands = block_tridiagonal_bands(onsite, hop, bandwidth)
    if stencil == "saw":
        ends = np.abs(v12[[0, -1]])
        weak = ends < t
        if weak[0] != weak[1]:
            raise NumericalError(
                f"the saw chain's {'left' if weak[0] else 'right'} wall ends on its weak "
                f"bond and the other on its strong one (|t + v12| = {ends[0]:.3g} at the "
                f"left wall, {ends[1]:.3g} at the right, t = {t:.3g}): an end state would "
                "sit in the gap; refine the cell spacing")
        if weak.all():
            # column j of the band holds the bonds of site j to the sites before it
            bands = np.concatenate([bands[:, 1:], [[t], [0.0], [v11[-1]]]], axis=1)
            bands[1, 0] = bands[0, 1] = 0.0  # A_0's bonds to B_0 and C_0
    return BandedHermitian(bands)


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
