"""Saw-chain tight-binding model.

Three sites (A, B, C) per cell. Intra-cell bonds t_ab, t_ac, t_bc; the
inter-cell bond t_ab_inter connects A_n with B_{n-1}. The momentum-space
Hamiltonian is

    H(k) = [[eps_a,               t_ab + t_ab_inter*e^{-ika}, t_ac ],
            [conj(...),           eps_b,                      t_bc ],
            [t_ac,                t_bc,                       eps_c]]

and the on-site energy eps_c can be fine-tuned so that one root of the
secular determinant becomes k-independent (a flat band).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDispersionError, NumericalError
from .numcore import EIGVEC_RESIDUAL_TOL, banded_eigvec, eigh_banded, norm_1, \
    quad_roots


@dataclass(frozen=True)
class TightBindingParams:
    eps_a: float = 0.0
    eps_b: float = 0.0
    eps_c: float = 0.0
    t_ab: float = 0.0
    t_ab_inter: float = 0.0
    t_ac: float = 0.0
    t_bc: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        vals = (self.eps_a, self.eps_b, self.eps_c, self.t_ab,
                self.t_ab_inter, self.t_ac, self.t_bc, self.a)
        if not all(np.isfinite(v) for v in vals):
            raise NumericalError("tight-binding parameters must be finite")
        if self.a <= 0:
            raise NumericalError("lattice constant must be positive")


@dataclass(frozen=True)
class BandStructure:
    k: np.ndarray
    energies: np.ndarray  # shape (nk, 3), ascending per k

    def band(self, j):
        return self.energies[:, j]

    def spreads(self):
        """max_k - min_k of each band."""
        return self.energies.max(axis=0) - self.energies.min(axis=0)


@dataclass(frozen=True)
class FlatBandSolution:
    """One fine-tuned (eps_c, flat energy) pair.

    The secular determinant factorizes as
        det(H - E) = -(E - flat_energy) * (E^2 + quad_lin*E + a0(k)),
    with a0(k) = quad_const + quad_cos * cos(k a).
    """

    eps_c: float
    flat_energy: float
    quad_lin: float
    quad_const: float
    quad_cos: float


def bloch_hamiltonian(p, k):
    """Bloch Hamiltonian H(k) of the saw chain: a 3x3 complex matrix for a
    scalar k, a k.shape + (3, 3) stack for an array."""
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise NumericalError("k must be finite")
    # + 0.0 turns a -0 part into +0, which the scalar and array paths of
    # the product otherwise sign differently (and eigh then differs)
    off = p.t_ab + p.t_ab_inter * np.exp(-1j * k * p.a) + 0.0
    h = np.empty(k.shape + (3, 3), dtype=complex)
    h[...] = [[p.eps_a, 0.0, p.t_ac],
              [0.0, p.eps_b, p.t_bc],
              [p.t_ac, p.t_bc, p.eps_c]]
    h[..., 0, 1] = off
    h[..., 1, 0] = np.conj(off)
    return h


def default_k_grid(p, n=513):
    """Uniform k-grid over one Brillouin zone, both edges included."""
    return np.linspace(-np.pi / p.a, np.pi / p.a, n)


def band_structure(p, k_grid):
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size == 0:
        raise NumericalError("empty k-grid")
    # eigh, not eigvalsh: only eigh keeps the bits of the per-k solve
    energies, _ = np.linalg.eigh(bloch_hamiltonian(p, k_grid.ravel()))
    return BandStructure(k_grid, energies)


def det_secular(p, k, energy):
    """det(H(k) - energy), evaluated from the closed-form expansion."""
    d1 = p.eps_a - energy
    d2 = p.eps_b - energy
    d3 = p.eps_c - energy
    cos_ka = np.cos(k * p.a)
    b2 = p.t_ab**2 + p.t_ab_inter**2 + 2 * p.t_ab * p.t_ab_inter * cos_ka
    re_b = p.t_ab + p.t_ab_inter * cos_ka
    return (d1 * d2 * d3 - d1 * p.t_bc**2 - d2 * p.t_ac**2
            - b2 * d3 + 2 * p.t_ac * p.t_bc * re_b)


def tune_flat_band(p):
    """Solve for the eps_c values that make one band exactly flat.

    The cos(ka) coefficient of det(H - E) vanishes iff
        eps_c - E = t_ac * t_bc / t_ab,
    and substituting that constant back leaves a k-independent quadratic in
    the flat energy, solved here in closed form. Returns 0, 1 or 2
    solutions, ascending in flat energy; eps_c of the input is ignored.
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
    p2 = r
    p1 = -r * (p.eps_a + p.eps_b) + p.t_bc**2 + p.t_ac**2
    p0 = (p.eps_a * p.eps_b * r - p.eps_a * p.t_bc**2 - p.eps_b * p.t_ac**2
          - (p.t_ab**2 + p.t_ab_inter**2) * r + 2 * p.t_ab * p.t_ac * p.t_bc)
    res = quad_roots(p2, p1, p0)
    solutions = []
    for e_flat in res.roots:
        eps_c = e_flat + r
        quad_lin = e_flat - (p.eps_a + p.eps_b + eps_c)
        quad_cos = -2 * p.t_ab * p.t_ab_inter
        quad_const = (quad_lin * e_flat
                      + p.eps_a * p.eps_b + (p.eps_a + p.eps_b) * eps_c
                      - p.t_bc**2 - p.t_ac**2 - (p.t_ab**2 + p.t_ab_inter**2))
        solutions.append(FlatBandSolution(eps_c, e_flat, quad_lin, quad_const, quad_cos))
    return solutions


def flat_band_residual(p, sol, n_k=256):
    """max_k |det(H(k) - flat_energy)| with eps_c set to the tuned value."""
    tuned = replace(p, eps_c=sol.eps_c)
    k = default_k_grid(p, n_k)
    return float(np.abs(det_secular(tuned, k, sol.flat_energy)).max())


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral summary of a finite chain or discretized operator."""

    eigenvalues: np.ndarray
    cluster_count: int
    gap_edge_neg: float  # largest bulk eigenvalue below the cluster (nan if none)
    gap_edge_pos: float  # smallest bulk eigenvalue above the cluster (nan if none)
    ipr: np.ndarray               # nan where no vector was computed
    edge_state_mask: np.ndarray   # False where no vector was computed


def inverse_participation_ratio(density):
    """IPR of the site densities p = |v|^2 of one state: sum p^2 / (sum p)^2;
    1/dim for an extended state."""
    return (density**2).sum() / density.sum() ** 2


# a state is edge-localized when at least EDGE_MASS of its weight lies in
# the first and last EDGE_FRACTION of its points (cells, or grid points)
SITES_PER_POINT = 3
EDGE_FRACTION = 0.05
EDGE_MASS = 0.5


def _edge_mask(density):
    """True if the state of site densities |v|^2 is edge-localized."""
    n_pts = density.size // SITES_PER_POINT
    n_edge = max(1, int(np.ceil(EDGE_FRACTION * n_pts)))
    cells = (density / density.sum()).reshape(n_pts, SITES_PER_POINT).sum(axis=1)
    return cells[:n_edge].sum() + cells[-n_edge:].sum() >= EDGE_MASS


def _walk_to_gap_edge(chain, w, indices, group_tol, ipr, edge):
    """Fill ipr/edge along `indices` up to the first non-edge state; return
    its eigenvalue (nan if every state on the walk is edge-localized).
    States within group_tol of a group's first form one numerically
    degenerate group: one banded_eigvec call at the group's mean eigenvalue
    gives an orthonormal basis of its eigenspace. Its rows get the IPR and
    edge flag of its mean density, which no rotation within it changes."""
    while len(indices):
        group = indices[np.abs(w[indices] - w[indices[0]]) <= group_tol]
        indices = indices[group.size:]
        vectors = banded_eigvec(chain, w[group].mean(), group.size)
        density = (vectors**2).mean(axis=0)
        ipr[group] = inverse_participation_ratio(density)
        edge[group] = _edge_mask(density)
        if not edge[group[0]]:
            return float(w[group[0]])
    return float("nan")


def chain_spectrum(chain, flat_energy=0.0, cluster_tol=1e-6, gap_exclusion=0.0):
    """Diagonalize a banded chain and summarize its spectrum.

    Eigenvalues within cluster_tol of flat_energy form the flat-band
    cluster. Gap edges are the nearest remaining eigenvalues on either
    side, after discarding edge-localized states (>= 50% of weight in
    the outer 5% of cells) and everything within max(gap_exclusion,
    cluster_tol) of flat_energy (finite-size members of the flat cluster
    can leak slightly past cluster_tol).

    Only eigenvalues come from the full solve. Eigenvectors come from
    inverse iteration, one call and one LU per numerically degenerate
    group, walking outward from flat_energy on each side, starting beyond
    max(gap_exclusion, cluster_tol) and stopping at the first group that
    is not edge-localized, which holds the gap edge. `ipr` holds nan on
    every other row (the flat cluster included) and `edge_state_mask`
    holds False there. Each row of a group holds the IPR and edge flag of
    the group's mean density.
    """
    w = eigh_banded(chain)
    ipr = np.full(w.size, np.nan)
    edge = np.zeros(w.size, dtype=bool)
    offset = w - flat_energy
    excluded = max(gap_exclusion, cluster_tol)
    above = np.flatnonzero(offset > excluded)           # ascending
    below = np.flatnonzero(offset < -excluded)[::-1]    # descending
    group_tol = EIGVEC_RESIDUAL_TOL * norm_1(chain)
    gap_edge_pos = _walk_to_gap_edge(chain, w, above, group_tol, ipr, edge)
    gap_edge_neg = _walk_to_gap_edge(chain, w, below, group_tol, ipr, edge)
    return SpectrumReport(
        eigenvalues=w,
        cluster_count=int((np.abs(offset) <= cluster_tol).sum()),
        gap_edge_neg=gap_edge_neg,
        gap_edge_pos=gap_edge_pos,
        ipr=ipr,
        edge_state_mask=edge,
    )
