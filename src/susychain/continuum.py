"""Continuum Dirac-type operators for the saw chain.

The low-energy operator acts on three-component spinors as

    H = -i * kinetic_scale * gamma * d/dx + V(x),

where gamma couples the first two components only and V(x) is a 3x3
Hermitian potential. Constant potentials are summarized by their
asymptotic cell, whose symbol eigenvalues give the band thresholds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numcore import BandedHermitian, block_tridiagonal_bands, diff_central, stack_matvec

GAMMA = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])


def potential_matrix(v11, v12, v13, v23, scalar_v, flat_energy):
    """Assemble the 3x3 Hermitian potential from its real components.

    Array components give a stack of shape broadcast_shape + (3, 3), as a
    view of component-major (3, 3) + broadcast_shape storage.
    """
    entries = np.broadcast_arrays(
        v11 + scalar_v, -1j * v12, -1j * v13,
        1j * v12, -v11 + scalar_v, v23,
        1j * v13, v23, flat_energy)
    stack = np.stack(entries).reshape((3, 3) + entries[0].shape)
    return np.moveaxis(stack, (0, 1), (-2, -1))


@dataclass(frozen=True, eq=False)
class DiracOperatorSpec:
    """-i*kinetic_scale*gamma*d/dx + V(x).

    `potential` holds V sampled on a grid: one 3x3 matrix for a constant
    potential, or an (n_points, 3, 3) stack with one matrix per point.
    """

    potential: np.ndarray
    kinetic_scale: float = 1.0

    def __post_init__(self):
        if self.kinetic_scale == 0.0:
            raise NumericalError("kinetic scale must be nonzero")


@dataclass(frozen=True)
class AsymptoticCell:
    """Constant potential data on one spatial side (x -> +inf or -inf)."""

    v11: float
    v12: float
    v13: float
    v23: float
    flat_energy: float

    @property
    def decoupled(self):
        return self.v13 == 0.0 and self.v23 == 0.0


def continuum_limit(p):
    """Dirac operator obtained by expanding H(k) around the zone corner.

    Valid in the regime t_ab ~ t_ab_inter where the two dispersive bands
    nearly touch at k = pi/a. The potential is constant: diagonal
    (eps_a, eps_b, eps_c), AB mass/dimerization split, and the static
    inter-chain couplings. kinetic_scale = t_ab_inter * a; rescale x to
    normalize it to 1.
    """
    if p.t_ab_inter == 0.0:
        raise NumericalError("no Dirac expansion for t_ab_inter = 0")
    v11 = 0.5 * (p.eps_a - p.eps_b)
    scalar_v = 0.5 * (p.eps_a + p.eps_b)
    v12 = p.t_ab - p.t_ab_inter
    v13 = p.t_ac
    v23 = p.t_bc
    flat_energy = p.eps_c
    mat = potential_matrix(v11, v12, v13, v23, scalar_v, flat_energy)
    return DiracOperatorSpec(potential=mat, kinetic_scale=p.t_ab_inter * p.a)


def symbol_matrix(cell, k):
    """Symbol at momentum k; an array k gives a k.shape + (3, 3) stack."""
    return np.multiply.outer(k, GAMMA) + potential_matrix(
        cell.v11, cell.v12, cell.v13, cell.v23, 0.0, cell.flat_energy)


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
    +-sqrt(v11^2 + v12^2). Only decoupled asymptotic cells are supported.
    """
    if not cell.decoupled:
        raise NumericalError(
            "threshold_scan requires a decoupled asymptotic cell "
            "(v13 = v23 = 0)"
        )
    edge = float(np.hypot(cell.v11, cell.v12))
    return -edge, edge, cell.flat_energy


def _potential_stack(spec, grid):
    """The spec's potential as an (n_points, 3, 3) complex stack."""
    v = np.broadcast_to(_checked_potential(spec, grid), (grid.n_points, 3, 3))
    finite = np.isfinite(v).all(axis=(1, 2))
    if not finite.all():
        x = grid.x[np.argmin(finite)]
        raise NumericalError(f"non-finite potential sample at x={x:.6g}")
    return v


def _checked_potential(spec, grid):
    """The spec's potential as a complex 3x3 or (n_points, 3, 3) array."""
    v = np.asarray(spec.potential, dtype=complex)
    n = grid.n_points
    if v.shape not in ((3, 3), (n, 3, 3)):
        raise NumericalError(
            f"potential must be 3x3 or ({n}, 3, 3), got shape {v.shape}")
    return v


# D = diag(1, i, i) at every point. Every potential that potential_matrix
# builds has imaginary V12, V13 and real V23 and diagonal, and the kinetic
# hop is imaginary, so conj(D_a) * H_ab * D_b is real for all of them.
GAUGE = np.array([1.0, 1j, 1j])


def discretize(spec, grid):
    """Finite-difference matrix of the Dirac operator on a grid, stored as
    D^H H D with the constant gauge D = diag(1, i, i) at every point.

    -i d/dx becomes the antisymmetric central-difference stencil (times
    -i, hence Hermitian); the potential is taken point by point; the
    chain is simply truncated at the box walls. Point-major ordering
    keeps the bandwidth at 4.

    D is unitary and diagonal, so D^H H D has the spectrum of H, and its
    eigenvectors are D^H times those of H: |v|^2 per point, hence IPR
    and edge flags, are unchanged. The potential must have potential_matrix's
    form (both models, continuum_limit): then the gauged matrix is real and
    its float64 bands go to real eigensolves. Any other potential raises
    NumericalError.
    """
    gauge = GAUGE.conj()[:, None] * GAUGE  # entry (a, b) is conj(D_a) * D_b
    v = _potential_stack(spec, grid) * gauge
    if v.imag.any():
        raise NumericalError("potential is not of potential_matrix's form: "
                             "its gauged matrix is complex")
    # kinetic block from point i to i+1: -i * scale * gamma / (2h), gauged: real
    hop = (-1j * spec.kinetic_scale / (2 * grid.h) * GAMMA * gauge).real
    return BandedHermitian(block_tridiagonal_bands(v.real, hop, 4))


def apply_dirac(spec, state, grid):
    """Apply -i*scale*gamma*d/dx + V(x) to a sampled (3, n) spinor.

    The one operator action of the package: the seed, the transformed and
    the discretized operators differ only in V. A constant 3x3 potential
    acts as V @ f, an (n, 3, 3) stack point by point. Only the shape of
    the potential is checked; a non-finite V gives a non-finite result.
    """
    f = np.asarray(state, dtype=complex)
    v = _checked_potential(spec, grid)
    out = v @ f if v.ndim == 2 else stack_matvec(v, f)
    # gamma swaps components 0 and 1 and drops component 2
    kinetic = -1j * spec.kinetic_scale * diff_central(f, grid)
    out[:2] += kinetic[1::-1]
    return out
