"""Shared numerical kernels: grids, stencils, quadrature, eigensolvers.

Everything here is a pure function of its inputs. `Grid` and `QuadRoots`
are immutable; `BandedHermitian` is a plain holder of band storage that no
function here writes to. `stack_matmul` and `stack_matvec` multiply 3x3
stacks point by point over length-n vectors, contiguous for component-major
stacks: (n, 3, 3) views of (3, 3, n) storage, like U, dU/dx and V(x).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonHermitianError, NumericalError

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid on [x_min, x_max] with n_points >= 3 samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise NumericalError("grid endpoints must be finite")
        if self.x_min >= self.x_max:
            raise NumericalError("grid requires x_min < x_max")
        if self.n_points < 3:
            raise NumericalError("grid requires n_points >= 3")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def refined(self):
        """Grid with halved spacing (same endpoints)."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1)

    def index_nearest(self, x0=0.0):
        return int(np.argmin(np.abs(self.x - x0)))


def _require_hermitian(m):
    """Raise NonHermitianError at the worst entry of m - m^H beyond tolerance."""
    scale = max(np.abs(m).max(), 1.0)
    asym = np.abs(m - m.conj().T)
    if asym.max() > HERMITICITY_TOL * scale:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise NonHermitianError(int(i), int(j), float(asym[i, j]))


class BandedHermitian:
    """Hermitian matrix stored by upper diagonals (LAPACK band layout).

    bands[u + i - j, j] == M[i, j] for j - bandwidth <= i <= j.
    """

    def __init__(self, bands):
        b = np.asarray(bands)
        if b.ndim != 2:
            raise NumericalError("band storage must be 2D")
        self.bands = b
        self.bandwidth = b.shape[0] - 1
        self.dim = b.shape[1]

    @classmethod
    def from_dense(cls, m, bandwidth=None):
        m = np.asarray(m)
        n = m.shape[0]
        _require_hermitian(m)
        if bandwidth is None:
            bandwidth = 0
            for d in range(n - 1, 0, -1):
                if np.abs(np.diagonal(m, d)).max() > 0:
                    bandwidth = d
                    break
        b = np.zeros((bandwidth + 1, n), dtype=m.dtype)
        for d in range(bandwidth + 1):
            b[bandwidth - d, d:] = np.diagonal(m, d)
        return cls(b)

    def to_dense(self):
        n, u = self.dim, self.bandwidth
        m = np.zeros((n, n), dtype=self.bands.dtype)
        for d in range(u + 1):
            idx = np.arange(n - d)
            m[idx, idx + d] = self.bands[u - d, d:]
        out = m + np.conj(np.triu(m, 1)).T
        return out


def block_tridiagonal_bands(onsite, coupling, bandwidth):
    """Band storage (BandedHermitian layout) of a Hermitian block-tridiagonal
    matrix with 3x3 blocks.

    `onsite` is the (n, 3, 3) stack of diagonal blocks; only their upper
    triangles are read. `coupling` is the block M[3i:3i+3, 3i+3:3i+6] from
    point i to point i+1: one 3x3 block for every bond, or an (n-1, 3, 3)
    stack. Coupling entries that are zero on every bond are not written; a
    nonzero one farther than `bandwidth` from the diagonal is an error.
    """
    n = onsite.shape[0]
    coupling = np.broadcast_to(coupling, (n - 1, 3, 3))
    bands = np.zeros((bandwidth + 1, 3 * n), dtype=np.result_type(onsite, coupling))
    for a in range(3):
        for b in range(a, 3):
            bands[bandwidth + a - b, b::3] = onsite[:, a, b]
    for a, b in zip(*np.nonzero(coupling.any(axis=0))):
        d = 3 + b - a  # M[3i+a, 3i+3+b] lies d above the diagonal
        if d > bandwidth:
            raise NumericalError(
                f"coupling entry ({a}, {b}) lies outside bandwidth {bandwidth}")
        bands[bandwidth - d, 3 + b::3] = coupling[:, a, b]
    return bands


def eigh_banded(m):
    """Ascending eigenvalues of a BandedHermitian."""
    import scipy.linalg  # loaded on first use: only the spectrum path needs it

    if not np.all(np.isfinite(m.bands)):
        raise NumericalError("non-finite entries in banded matrix")
    return scipy.linalg.eig_banded(m.bands, lower=False, eigvals_only=True)


EIGVEC_ITERATIONS = 3
EIGVEC_RESIDUAL_TOL = 1e-10


def banded_eigvec(m, energy, previous=()):
    """Unit eigenvector of a BandedHermitian at a known eigenvalue `energy`.

    Inverse iteration with a banded LU of M - energy*I (general band
    storage, lower diagonals the conjugates of the stored upper ones, so
    complex matrices work too). The start vector is fixed, so reruns give
    identical vectors. Three solves damp every other eigencomponent by
    (rounding / spectral gap)**3, well below what an IPR or an edge flag
    resolves. Raises NumericalError unless ||Mv - energy*v|| is at most
    EIGVEC_RESIDUAL_TOL times the largest absolute row sum of M.

    Within a numerically degenerate group the vector is some unit vector
    of the group's eigenspace, not a particular basis member. `previous`
    holds (eigenvalue, unit vector) pairs computed before; those whose
    eigenvalue lies within EIGVEC_RESIDUAL_TOL times the row-sum scale of
    `energy` are projected out after every solve, so successive calls over a
    degenerate group give an orthonormal set.
    """
    import scipy.linalg

    if not (np.all(np.isfinite(m.bands)) and np.isfinite(energy)):
        raise NumericalError("non-finite input to banded_eigvec")
    u, n = m.bandwidth, m.dim
    ab = np.zeros((2 * u + 1, n), dtype=np.result_type(m.bands, float))
    ab[: u + 1] = m.bands
    for d in range(1, u + 1):
        ab[u + d, : n - d] = np.conj(m.bands[u - d, d:])
    scale = max(float(np.abs(ab).sum(axis=0).max()), np.finfo(float).tiny)
    group = [q for e, q in previous
             if abs(e - energy) <= EIGVEC_RESIDUAL_TOL * scale]
    shifted = ab.copy()
    shifted[u] -= energy
    v = np.random.default_rng(0).standard_normal(n).astype(ab.dtype)
    v /= np.linalg.norm(v)
    for _ in range(EIGVEC_ITERATIONS):
        try:
            v = scipy.linalg.solve_banded((u, u), shifted, v, check_finite=False)
        except np.linalg.LinAlgError:
            # an exactly zero pivot (say, a decoupled site at the shift):
            # move the shift off the eigenvalue by one rounding unit
            shifted[u] -= np.finfo(float).eps * scale
            try:
                v = scipy.linalg.solve_banded((u, u), shifted, v, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"inverse iteration at E={energy:.6g}: singular shift") from exc
        for q in group:
            v -= q * np.vdot(q, v)
        norm = np.linalg.norm(v)
        if not np.isfinite(norm):
            raise NumericalError(f"inverse iteration overflowed at E={energy:.6g}")
        v /= norm
    residual = float(np.linalg.norm(_band_matvec(ab, v) - energy * v))
    if residual > EIGVEC_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"inverse iteration at E={energy:.6g}: residual {residual:.3e} "
            f"exceeds {EIGVEC_RESIDUAL_TOL:.0e} x {scale:.3e}")
    return v


def _band_matvec(ab, v):
    """M @ v for M in general band storage with equal lower/upper widths."""
    u = ab.shape[0] // 2
    n = v.size
    out = ab[u] * v
    for d in range(1, u + 1):
        out[: n - d] += ab[u - d, d:] * v[d:]   # superdiagonal d
        out[d:] += ab[u + d, : n - d] * v[: n - d]  # subdiagonal d
    return out


def diff_central(samples, grid):
    """O(h^2) first derivative, C-ordered: central interior, one-sided at the ends.
    Complex samples scale by 1/(2h) in their real view: numpy's bits for f/(2h)."""
    f = np.asarray(samples)
    n = f.shape[-1]
    if n < 3:
        raise NumericalError("diff_central needs at least 3 samples")
    if n != grid.n_points:
        raise NumericalError("sample count does not match grid")
    h = grid.h
    d = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    np.subtract(f[..., 2:], f[..., :-2], out=d[..., 1:-1])
    d[..., 0] = -3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]
    d[..., -1] = 3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]
    if np.iscomplexobj(d):
        parts = d.view(d.real.dtype)
        parts *= 1.0 / (2 * h)
    else:
        d /= 2 * h
    return d


def stack_matmul(a, b):
    """np.einsum("nij,njk->nik", a, b) for (n, 3, 3) a and (n, 3, k) b, as a
    view of (3, k, n) storage: multiply-adds over length-n vectors, j = 0, 1,
    2 in einsum's order. Where every entry of a (or of b) is purely real or
    purely imaginary each product is exact, fused or not, so the result is
    einsum's bit for bit (up to the sign of a zero); general complex stacks
    agree to rounding."""
    out = np.empty((3, b.shape[2], a.shape[0]), dtype=np.result_type(a, b))
    tmp = np.empty_like(out[0, 0])
    for i, k in np.ndindex(out.shape[:2]):
        np.multiply(a[:, i, 0], b[:, 0, k], out=out[i, k])
        for j in (1, 2):
            out[i, k] += np.multiply(a[:, i, j], b[:, j, k], out=tmp)
    return np.moveaxis(out, -1, 0)


def stack_matvec(m, f):
    """np.einsum("nij,jn->in", m, f) for a (3, n) spinor f, C-ordered: the
    stack_matmul of m with f as a one-column stack."""
    return stack_matmul(m, f.T[:, :, None])[:, :, 0].T


def integrate_cumulative(samples, grid):
    """Trapezoidal antiderivative, anchored to 0 at the point nearest x=0."""
    f = np.asarray(samples)
    if not np.all(np.isfinite(f)):
        raise NumericalError("non-finite samples")
    if f.shape[-1] != grid.n_points:
        raise NumericalError("sample count does not match grid")
    h = grid.h
    steps = 0.5 * h * (f[..., 1:] + f[..., :-1])
    out = np.concatenate(
        [np.zeros(f.shape[:-1] + (1,), dtype=steps.dtype), np.cumsum(steps, axis=-1)],
        axis=-1,
    )
    anchor = grid.index_nearest(0.0)
    return out - out[..., anchor : anchor + 1]


class QuadRoots(NamedTuple):
    roots: tuple
    discriminant: float


def quad_roots(p2, p1, p0):
    """Real roots of p2*y^2 + p1*y + p0, ascending.

    Uses the q = -(p1 + sign(p1)*sqrt(disc))/2 form so neither root suffers
    cancellation. Degenerate p2 = 0 falls back to the linear solution.
    """
    if p2 == 0.0 and p1 == 0.0 and p0 == 0.0:
        raise NumericalError("quad_roots: all coefficients zero")
    if p2 == 0.0:
        if p1 == 0.0:
            return QuadRoots((), np.inf)  # p0 != 0: no roots
        return QuadRoots((-p0 / p1,), np.nan)
    disc = p1 * p1 - 4.0 * p2 * p0
    if disc < 0.0:
        return QuadRoots((), disc)
    s = np.sqrt(disc)
    if p1 >= 0.0:
        q = -0.5 * (p1 + s)
    else:
        q = -0.5 * (p1 - s)
    if q == 0.0:  # p1 == 0 and p0 == 0
        r = (0.0, 0.0) if disc == 0.0 else tuple(sorted((-s / (2 * p2), s / (2 * p2))))
        return QuadRoots(r, disc)
    r1 = q / p2
    r2 = p0 / q
    return QuadRoots(tuple(sorted((r1, r2))), disc)
