"""Saw-chain tight-binding model: Bloch bands of one cell, open chains of many.

Three sites (A, B, C) per cell. Intra-cell bonds t_ab, t_ac, t_bc; the
inter-cell bond t_ab_inter connects A_n with B_{n-1}. The cell spacing a is
the unit of length, so k is in units of 1/a and the Brillouin zone is
[-pi, pi]. The momentum-space Hamiltonian is

    H(k) = [[eps_a,               t_ab + t_ab_inter*e^{-ik},  t_ac ],
            [conj(...),           eps_b,                      t_bc ],
            [t_ac,                t_bc,                       eps_c]]

and the on-site energy eps_c can be fine-tuned so that one root of the
secular determinant becomes k-independent (a flat band).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDispersionError, NumericalError
from .numcore import BandedHermitian, block_tridiagonal_bands, eigh_banded, quad_roots


@dataclass(frozen=True)
class TightBindingParams:
    """Floats for one cell, or arrays over the cells (t_ab_inter a float)."""

    eps_a: float = 0.0
    eps_b: float = 0.0
    eps_c: float = 0.0
    t_ab: float = 0.0
    t_ab_inter: float = 0.0
    t_ac: float = 0.0
    t_bc: float = 0.0

    def __post_init__(self):
        if not np.isfinite(np.concatenate([np.ravel(v) for v in vars(self).values()])).all():
            raise NumericalError("tight-binding parameters must be finite")


@dataclass(frozen=True)
class FlatBandSolution:
    """One fine-tuned (eps_c, flat energy) pair.

    The secular determinant factorizes as
        det(H - E) = -(E - flat_energy) * (E^2 + quad_lin*E + a0(k)),
    with a0(k) = quad_const + quad_cos * cos(k).
    """

    eps_c: float
    flat_energy: float
    quad_lin: float
    quad_const: float
    quad_cos: float


def symmetric_block(rows):
    """The real symmetric 3x3 block with these three rows of floats or arrays:
    one 3x3 matrix for floats, a broadcast_shape + (3, 3) stack for arrays."""
    entries = np.broadcast_arrays(*(v for row in rows for v in row))
    return np.stack(entries, axis=-1).reshape(np.shape(entries[0]) + (3, 3))


def saw_cell(p):
    """The on-site block [[eps_a, t_ab, t_ac], [t_ab, eps_b, t_bc], [t_ac, t_bc,
    eps_c]] of p's cells: 3x3 for float fields, a stack of them for arrays."""
    return symmetric_block(((p.eps_a, p.t_ab, p.t_ac), (p.t_ab, p.eps_b, p.t_bc),
                            (p.t_ac, p.t_bc, p.eps_c)))


def saw_chain(p):
    """The open chain of p's cells (A_j, B_j, C_j), bandwidth 2, t_ab_inter the
    bond from each B to the next A. An SSH (Su-Schrieffer-Heeger) wall on its weak
    bond, |t_ab| < |t_ab_inter|, binds an end state in the gap: if both walls
    are weak, A_0 goes and an A site (eps_a of the last cell, bond t_ab_inter to
    the last B) ends the chain, which keeps 3n sites; if one is, NumericalError."""
    onsite = np.reshape(saw_cell(p), (-1, 3, 3))
    t = p.t_ab_inter
    bands = block_tridiagonal_bands(onsite, [[0.0, 0.0, 0.0], [t, 0.0, 0.0], [0.0, 0.0, 0.0]], 2)
    ends = np.abs(onsite[[0, -1], 0, 1])
    weak = ends < abs(t)
    if weak[0] != weak[1]:
        raise NumericalError(f"the saw chain's {'left' if weak[0] else 'right'} wall ends on "
                             f"its weak bond and the other on its strong one (|t_ab| = "
                             f"{ends[0]:.3g} at the left wall, {ends[1]:.3g} at the right, "
                             f"|t_ab_inter| = {abs(t):.3g}): an end state would sit in the gap")
    if weak.all():
        # column j of the band holds the bonds of site j to the sites before it
        bands = np.concatenate([bands[:, 1:], [[t], [0.0], onsite[-1:, 0, 0]]], axis=1)
        bands[1, 0] = bands[0, 1] = 0.0  # A_0's bonds to B_0 and C_0
    return BandedHermitian(bands)


def bloch_hamiltonian(p, k):
    """Bloch Hamiltonian H(k): saw_cell(p) with t_ab + t_ab_inter*e^{-ik} from A
    to B, 3x3 complex for a scalar k, a k.shape + (3, 3) stack for an array."""
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise NumericalError("k must be finite")
    # + 0.0 turns a -0 part into +0, which the scalar and array paths of
    # the product otherwise sign differently (and eigh then differs)
    off = p.t_ab + p.t_ab_inter * np.exp(-1j * k) + 0.0
    h = np.broadcast_to(saw_cell(p), k.shape + (3, 3)).astype(complex)
    h[..., 0, 1] = off
    h[..., 1, 0] = np.conj(off)
    return h


def default_k_grid(n=513):
    """Uniform k-grid over one Brillouin zone [-pi, pi], both edges included."""
    return np.linspace(-np.pi, np.pi, n)


def band_structure(p, k_grid):
    """The three bands on k_grid: an (nk, 3) array, ascending per k."""
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size == 0:
        raise NumericalError("empty k-grid")
    # eigh, not eigvalsh: only eigh keeps the bits of the per-k solve
    energies, _ = np.linalg.eigh(bloch_hamiltonian(p, k_grid.ravel()))
    return energies


def det_secular(p, k, energy):
    """det(H(k) - energy), evaluated from the closed-form expansion."""
    d1 = p.eps_a - energy
    d2 = p.eps_b - energy
    d3 = p.eps_c - energy
    cos_k = np.cos(k)
    # x * x, not x**2: pow is not correctly rounded, so (s x)**2 may miss s^2 x**2
    b2 = p.t_ab * p.t_ab + p.t_ab_inter * p.t_ab_inter + 2 * p.t_ab * p.t_ab_inter * cos_k
    re_b = p.t_ab + p.t_ab_inter * cos_k
    return (d1 * d2 * d3 - d1 * (p.t_bc * p.t_bc) - d2 * (p.t_ac * p.t_ac)
            - b2 * d3 + 2 * p.t_ac * p.t_bc * re_b)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised below
def tune_flat_band(p):
    """Solve for the eps_c values that make one band exactly flat.

    The cos(k) coefficient of det(H - E) vanishes iff
        eps_c - E = t_ac * t_bc / t_ab,
    and substituting that constant back leaves a k-independent quadratic in
    the flat energy, solved here in closed form. Returns 0, 1 or 2
    solutions, ascending in flat energy; eps_c of the input is ignored.
    NumericalError if a coefficient or a solution overflows (squares are
    products, which reach inf where pow raises OverflowError); quad_roots
    never forms the discriminant in these units.
    """
    if p.t_ab == 0.0 or p.t_ab_inter == 0.0:
        raise DegenerateDispersionError(
            "flat-band tuning needs t_ab != 0 and t_ab_inter != 0"
        )
    if p.t_ac == 0.0 and p.t_bc == 0.0:
        raise DegenerateDispersionError(
            "C chain decoupled (t_ac = t_bc = 0): every eps_c gives a flat "
            "band at eps_c; tuning is ill-posed"
        )
    r = p.t_ac * p.t_bc / p.t_ab
    ab2, ac2, bc2 = p.t_ab * p.t_ab + p.t_ab_inter * p.t_ab_inter, p.t_ac * p.t_ac, p.t_bc * p.t_bc
    p2 = r
    p1 = -r * (p.eps_a + p.eps_b) + bc2 + ac2
    p0 = (p.eps_a * p.eps_b * r - p.eps_a * bc2 - p.eps_b * ac2
          - ab2 * r + 2 * p.t_ab * p.t_ac * p.t_bc)
    if p2 == p1 == p0 == 0.0:
        # p2 = r is 0 only where t_ac or t_bc is, and then p1 = t_ac^2 + t_bc^2 > 0
        raise NumericalError(f"flat-band tuning: t_ac^2 + t_bc^2 underflows to 0 "
                             f"(t_ac = {p.t_ac:g}, t_bc = {p.t_bc:g})")
    solutions = []
    for e_flat in quad_roots(p2, p1, p0):
        eps_c = e_flat + r
        quad_lin = e_flat - (p.eps_a + p.eps_b + eps_c)
        quad_cos = -2 * p.t_ab * p.t_ab_inter
        quad_const = (quad_lin * e_flat + p.eps_a * p.eps_b + (p.eps_a + p.eps_b) * eps_c
                      - bc2 - ac2 - ab2)
        solutions.append(FlatBandSolution(eps_c, e_flat, quad_lin, quad_const, quad_cos))
    values = [v for sol in solutions for v in vars(sol).values()]
    if not np.isfinite([p2, p1, p0, *values]).all():
        raise NumericalError(f"flat-band tuning overflows the double range in {p2:.3g}*E^2 + "
                             f"{p1:.3g}*E + {p0:.3g} or its roots")
    return solutions


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual is raised below
def flat_band_residual(p, sol):
    """max_k |det(H(k) - flat_energy)| over 256 k points with eps_c set to the
    tuned value; NumericalError where that cubic in flat_energy overflows."""
    tuned = replace(p, eps_c=sol.eps_c)
    k = default_k_grid(256)
    residual = float(np.abs(det_secular(tuned, k, sol.flat_energy)).max())
    if not np.isfinite(residual):
        raise NumericalError(f"the flat-band residual overflows the double range at "
                             f"flat energy {sol.flat_energy:.6g}")
    return residual


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral summary of a finite chain or discretized operator."""

    eigenvalues: np.ndarray
    cluster_count: int
    gap_edge_neg: float  # largest bulk eigenvalue below the cluster (nan if none)
    gap_edge_pos: float  # smallest bulk eigenvalue above the cluster (nan if none)


def chain_spectrum(chain, flat_energy=0.0, *, cluster_tol, gap_exclusion=0.0,
                   predicted=()):
    """Diagonalize a banded chain and summarize its spectrum.

    Eigenvalues within cluster_tol of flat_energy form the flat-band cluster;
    cluster_tol has no default, as it follows the chain's energy scale. Gap
    edges are the nearest eigenvalues on either side beyond max(gap_exclusion,
    cluster_tol) of flat_energy (finite-size members of the flat cluster can
    leak slightly past cluster_tol), except the states of `predicted`: the
    energies of in-gap states whose origin is known, such as a wall mode of the
    stencil. Each predicted energy beyond that window must have an eigenvalue
    that lies nearer to it than to any other eigenvalue, and that one is
    skipped; else NumericalError.
    """
    w = eigh_banded(chain)
    offset = w - flat_energy
    excluded = max(gap_exclusion, cluster_tol)
    bulk = np.abs(offset) > excluded
    for energy in predicted:
        if abs(energy - flat_energy) <= excluded:
            continue
        i = int(np.argmin(np.abs(w - energy)))
        near = [j for j in (i - 1, i + 1) if 0 <= j < w.size]
        j = min(near, key=lambda j: abs(w[j] - w[i]), default=None)
        if j is not None and not abs(w[i] - energy) < abs(w[j] - w[i]):
            raise NumericalError(
                f"no eigenvalue resolves the state predicted at {energy:.10g}: the "
                f"nearest, {w[i]:.10g}, lies nearer to the next one, {w[j]:.10g}")
        bulk[i] = False
    above, below = w[bulk & (offset > 0)], w[bulk & (offset < 0)]
    return SpectrumReport(
        eigenvalues=w,
        cluster_count=int((np.abs(offset) <= cluster_tol).sum()),
        gap_edge_neg=float(below.max()) if below.size else float("nan"),
        gap_edge_pos=float(above.min()) if above.size else float("nan"),
    )
