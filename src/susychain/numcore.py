"""Shared numerical kernels: grids, stencils, quadratic roots, eigensolvers.

Everything here is a pure function of its inputs. `Grid` is immutable;
`BandedHermitian` is a plain holder of real band storage
that no function here writes to. The banded eigensolvers reduce, factor
and solve the band by four LAPACK routines (dsbtrd, dsterf, dgbtrf, dgbtrs)
in numpy's own OpenBLAS (`_lapack`), so nothing here imports scipy.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# the largest |value| of a model or tight-binding parameter: kappa0^2 and
# the secular determinant square them, the model formulas are at most cubic
# in them, and the cube root of the largest double is 5.6e102
MAX_PARAM = 1e100


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid on [x_min, x_max] with n_points >= 2 samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise NumericalError("grid endpoints must be finite")
        if self.x_min >= self.x_max:
            raise NumericalError("grid requires x_min < x_max")
        if float(self.x_max) - float(self.x_min) == np.inf:
            raise NumericalError("grid width x_max - x_min overflows")
        if self.n_points < 2:
            raise NumericalError("grid requires n_points >= 2")
        # the stencils divide by h
        if not (self.h > 0.0 and 2.0 / float(self.h) < np.inf):
            raise NumericalError(f"grid spacing h={self.h:.6g} is too small: 2/h overflows")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def refined(self):
        """Grid with halved spacing (same endpoints)."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1)


class BandedHermitian:
    """Real symmetric matrix stored by upper diagonals (LAPACK band layout).

    bands[u + i - j, j] == M[i, j] for j - bandwidth <= i <= j.
    """

    def __init__(self, bands):
        b = np.asarray(bands)
        if b.ndim != 2:
            raise NumericalError("band storage must be 2D")
        if np.iscomplexobj(b):
            raise NumericalError("band storage must be real")
        self.bands = b
        self.bandwidth = b.shape[0] - 1
        self.dim = b.shape[1]


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
    """All `dim` eigenvalues of a BandedHermitian, ascending.

    A site whose off-diagonal absolute column sum r_j is at most
    tau = eps * ||M||_1 / (2 * bandwidth) is deflated: its diagonal entry is
    returned as an eigenvalue. The kept sites are compacted into band storage
    of the same bandwidth (dropping indices only shortens distances) and go
    to _band_eigvalsh, which returns eig_banded's values for them. The
    dropped couplings form a Hermitian E with ||E||_2 <= ||E||_1 <=
    2 * bandwidth * tau = eps * ||M||_1, so by Weyl's inequality no
    eigenvalue moves by more than eps * ||M||_1, the size of LAPACK's own
    backward error. The saw chain's C sites far from the kink, whose
    couplings decay below double precision, are such sites. With no site
    deflated the compact storage is the full matrix's, so the values are
    eig_banded's for it, bit for bit.
    """
    b, u = m.bands, m.bandwidth
    with np.errstate(over="ignore"):  # a non-finite sum is raised below
        off_sums, sums = _column_sums(m)
    if not np.isfinite(sums).all():
        raise NumericalError("the banded matrix has a non-finite entry, or a column sum "
                             "past the double range")
    loose = off_sums <= np.finfo(float).eps * sums.max(initial=0.0) / (2 * max(u, 1))
    kept = np.flatnonzero(~loose)
    compact = np.zeros((u + 1, kept.size), order="F")
    compact[u] = b[u, kept]
    for d in range(1, u + 1):  # compact[u - d, c] = M[kept[c - d], kept[c]]
        dist = kept[d:] - kept[:-d]
        near = np.flatnonzero(dist <= u)
        compact[u - d, d + near] = b[u - dist[near], kept[d + near]]
    w = _band_eigvalsh(compact)
    return np.sort(np.concatenate([w, b[u, loose]]))


@functools.cache
def _lapack(name):
    """LAPACK or BLAS subroutine `name` from the OpenBLAS that numpy links
    (ILP64, exported as scipy_<name>_64_), as a function of Python values:
    an int goes by reference to a ctypes.c_int64 (ctypes would pass a bare
    int by value, as a 32-bit C int), bytes as a char* (gfortran's hidden
    length, 1, appended), a numpy array as the address of its data. A ctypes
    call releases the GIL, so solves on two threads run at once. Raises
    NumericalError if numpy lacks the symbol."""
    import ctypes

    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), symbol)
    except AttributeError:
        raise NumericalError(f"numpy's LAPACK has no {symbol}") from None
    routine.restype = None

    def call(*args):
        # `data` keeps each converted int alive through the call
        data = [a if isinstance(a, bytes) else
                ctypes.byref(ctypes.c_int64(a)) if isinstance(a, (int, np.integer)) else
                ctypes.c_void_p(a.ctypes.data) for a in args]
        routine(*data, *[ctypes.c_size_t(1)] * sum(isinstance(a, bytes) for a in args))
    return call


def _band_eigvalsh(ab):
    """Eigenvalues, ascending, of the real symmetric matrix whose upper band
    storage is `ab` (float64, Fortran order; overwritten).

    The bits of scipy.linalg.eig_banded, by the stages of its LAPACK driver
    (?sbevd, values only): a band whose largest |entry| lies outside
    [rmin, 1/rmin], rmin = sqrt(safmin/eps), is multiplied once by the sigma
    that moves it to the nearer end (dlascl); dsbtrd reduces it to a
    tridiagonal, dsterf takes the values, and they are multiplied by
    1/sigma. dsbtrd starts late. Above the first row s with an entry two or
    more places off the diagonal the matrix is tridiagonal; the rotations
    dsbtrd makes for such a row are identities, and none touches an earlier
    row. So it reduces rows s-3..n-1 alone, and rows 0..s-4 put their
    diagonal and superdiagonal in front of its output. The three extra rows
    keep enough identity rotations in flight that each step still picks
    dsbtrd's many-rotation kernel (?lartv, not ?rot) where the whole
    reduction does; the two kernels round differently. A band of two or more
    rows has a bandwidth of at least 1: eigh_banded deflates every site of a
    diagonal matrix.
    """
    u, n = ab.shape[0] - 1, ab.shape[1]
    if n <= 1:
        return ab[u].copy()
    # rmin = sqrt(safmin / eps) = 2**-485 with LAPACK's dlamch('S'), dlamch('P')
    rmin, anrm = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps), np.abs(ab).max()
    sigma = rmin / anrm if 0 < anrm < rmin else 1 / rmin / anrm if anrm > 1 / rmin else 1.0
    ab *= sigma
    # first row with a nonzero M[i, i + d], d >= 2, stored at ab[u - d, i + d]
    wide = [nz[0] for d in range(2, u + 1) if (nz := np.flatnonzero(ab[u - d, d:])).size]
    start = max(min(wide) - 3, 0) if wide else n
    # e: the superdiagonal and one spare entry
    w, e, work, info = np.empty(n), np.zeros(n), np.empty(n), np.zeros(1, np.int64)
    w[:start] = ab[u, :start]
    e[: min(start, n - 1)] = ab[u - 1, 1 : start + 1]
    if start < n:
        kd = min(u, n - start - 1)
        # its Q argument (e) is not referenced without vectors
        _lapack("dsbtrd")(b"N", b"U", n - start, kd, ab[u - kd :, start:], u + 1,
                          w[start:], e[start:], e, 1, work, info)
    _lapack("dsterf")(n, w, e, info)
    if info[0]:
        raise NumericalError(f"dsterf: {info[0]} off-diagonal elements did not converge")
    w *= 1 / sigma
    return w


def _column_sums(m):
    """Absolute sums of each column of a BandedHermitian, without and with
    its diagonal entry, each added from the column's top entry down."""
    absb, u = np.abs(m.bands), m.bandwidth
    off_sums = np.zeros(m.dim)
    for d in range(u, 0, -1):  # |M[j - d, j]| = absb[u - d, j]
        off_sums[d:] += absb[u - d, d:]
    sums = off_sums + absb[u]
    for d in range(1, u + 1):  # |M[j + d, j]| = absb[u - d, j + d]
        off_sums[:-d] += absb[u - d, d:]
        sums[:-d] += absb[u - d, d:]
    return off_sums, sums


def norm_1(m):
    """||M||_1 of a BandedHermitian, its largest absolute column sum,
    floored at the smallest normal double."""
    return max(float(_column_sums(m)[1].max()), np.finfo(float).tiny)


EIGVEC_ITERATIONS = 3
# residual bound of banded_eigvec, in units of norm_1
EIGVEC_RESIDUAL_TOL = 1e-10


def banded_eigvec(m, energy, count=1):
    """`count` orthonormal eigenvectors of a BandedHermitian at a known
    eigenvalue `energy` of that multiplicity, as the rows of a (count, dim)
    array: some basis of a numerically degenerate group's eigenspace.

    Block inverse iteration with one banded LU (general band storage, lower
    diagonals copied from the stored upper ones) of M minus a shift one
    rounding unit of ||M||_1 above energy: a computed eigenvalue is only that
    close anyway, and the LU at an exact eigenvalue may hold a zero pivot.
    Each solve takes every row as a right-hand side; then each row is divided
    by its largest |entry| and np.linalg.qr orthonormalises the block. The
    start block is fixed, so reruns give identical vectors. Three solves
    damp every other eigencomponent by (rounding / spectral gap)**3, well
    below what an IPR or an edge flag resolves. Raises NumericalError unless
    each row's ||Mv - energy*v||, formed from the stored diagonals, is at
    most EIGVEC_RESIDUAL_TOL * norm_1(m), which also refuses more rows than
    the eigenspace holds.
    """
    if not (np.all(np.isfinite(m.bands)) and np.isfinite(energy)):
        raise NumericalError("non-finite input to banded_eigvec")
    u, n = m.bandwidth, m.dim
    if not 0 < count <= n:
        raise NumericalError(f"banded_eigvec: {count} vectors of a dimension-{n} matrix")
    # M - energy*I, its shift and its residual are multiplied by the power of
    # two s that puts s * ||M||_1 in [1/2, 1): exact, so the vectors have the
    # same bits at every scale at which M stays normal
    scale = norm_1(m)
    s = np.ldexp(1.0, -np.frexp(scale)[1])
    # s*(M - energy*I - shift) in general band storage (gbtrf, the first half
    # of gbsv): u rows on top for the fill-in of pivoting, the u + 1 stored
    # rows, then the u lower diagonals
    lu = np.zeros((3 * u + 1, n), order="F")
    lu[u : 2 * u + 1] = m.bands
    for d in range(1, min(u, n - 1) + 1):
        lu[2 * u + d, : n - d] = m.bands[u - d, d:]
    lu[2 * u] -= energy
    lu *= s
    lu[2 * u] -= np.finfo(float).eps * (s * scale)
    piv, info = np.empty(n, np.int64), np.zeros(1, np.int64)
    _lapack("dgbtrf")(n, n, u, u, lu, 3 * u + 1, piv, info)
    if info[0]:
        raise NumericalError(f"inverse iteration at E={energy:.6g}: singular shift")
    # v's C-ordered (count, n) rows are LAPACK's (n, count) Fortran columns.
    # Fixed chirps cos(golden ratio * k * j^2) overlap every eigenvector as
    # random rows do; sinusoids cos(golden ratio * k * j) miss some
    v = np.cos(np.outer(np.arange(1, count + 1), np.arange(n) ** 2) * ((1 + 5**0.5) / 2))
    for _ in range(EIGVEC_ITERATIONS):
        _lapack("dgbtrs")(b"N", n, u, u, count, lu, 3 * u + 1, piv, v, n, info)
        peak = np.abs(v).max(axis=1, keepdims=True)
        if not np.isfinite(peak).all():
            raise NumericalError(f"inverse iteration overflowed at E={energy:.6g}")
        if not peak.all():
            raise NumericalError(f"inverse iteration at E={energy:.6g}: iterate has norm 0")
        v /= peak
        v = np.linalg.qr(v.T)[0].T.copy()
    # s*(M v - energy v), every row at once, from the stored upper diagonals
    sb = s * m.bands
    r = (sb[u] - s * energy) * v
    for d in range(1, min(u, n - 1) + 1):
        r[:, :-d] += sb[u - d, d:] * v[:, d:]
        r[:, d:] += sb[u - d, d:] * v[:, :-d]
    residual = float(np.linalg.norm(r, axis=1).max()) / s
    if residual > EIGVEC_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"inverse iteration at E={energy:.6g}: residual {residual:.3e} "
            f"exceeds {EIGVEC_RESIDUAL_TOL:.0e} x {scale:.3e}")
    return v


def real_array(a, name):
    """a as a float array; NumericalError for a complex one, which a cast would cut."""
    if np.iscomplexobj(a):
        raise NumericalError(f"{name} takes real arrays, got a complex one")
    return np.asarray(a, dtype=float)


def diff_central(samples, grid):
    """O(h^2) first derivative of real samples, C-ordered: central interior,
    one-sided at the ends. Scaled by the reciprocal 1/(2h): the bits of
    ((f + 0j) / (2h)).real, as numpy divides by 2h + 0j that way."""
    f = real_array(samples, "diff_central")
    n = f.shape[-1]
    if n < 3:
        raise NumericalError("diff_central needs at least 3 samples")
    if n != grid.n_points:
        raise NumericalError("sample count does not match grid")
    d = np.empty(f.shape)
    np.subtract(f[..., 2:], f[..., :-2], out=d[..., 1:-1])
    d[..., 0] = -3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]
    d[..., -1] = 3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]
    d *= 1.0 / (2 * grid.h)
    return d


def quad_roots(p2, p1, p0):
    """Real roots of p2*y^2 + p1*y + p0, ascending, as a tuple.

    Uses the q = -(p1 + sign(p1)*sqrt(disc))/2 form so neither root suffers
    cancellation. Degenerate p2 = 0 falls back to the linear solution. The
    coefficients are first scaled by the power of two that puts the largest
    in [0.5, 1), so the discriminant of finite coefficients is finite. The
    scaling is exact, and leaves the roots' bits as they are, unless a
    coefficient is below 2^-1022 times the largest.
    """
    if p2 == 0.0 and p1 == 0.0 and p0 == 0.0:
        raise NumericalError("quad_roots: all coefficients zero")
    e = -np.frexp(max(abs(p2), abs(p1), abs(p0)))[1]
    p2, p1, p0 = (float(np.ldexp(p, e)) for p in (p2, p1, p0))
    if p2 == 0.0:
        if p1 == 0.0:
            return ()  # p0 != 0: no roots
        return (-p0 / p1,)
    disc = p1 * p1 - 4.0 * p2 * p0
    if disc < 0.0:
        return ()
    s = np.sqrt(disc)
    if p1 >= 0.0:
        q = -0.5 * (p1 + s)
    else:
        q = -0.5 * (p1 - s)
    if q == 0.0:  # p1 == 0 and p0 == 0
        return (0.0, 0.0) if disc == 0.0 else tuple(sorted((-s / (2 * p2), s / (2 * p2))))
    return tuple(sorted((q / p2, p0 / q)))
