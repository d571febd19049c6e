"""Unit tests for grids, banded matrices, stencils and quadratic roots."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susychain import numcore, susy
from susychain.errors import NumericalError
from susychain.lattice import saw_chain
from susychain.continuum import saw_cells
from susychain.models import ModelKind, ModelParams, model_potential_components
from susychain.numcore import (
    BandedHermitian,
    Grid,
    block_tridiagonal_bands,
    diff_central,
    eigh_banded,
    quad_roots,
)

from reference import (banded_from_dense, banded_to_dense, count_below, index_nearest,
                       integrate_cumulative, needs_scipy, scipy_linalg)


# ---------------------------------------------------------------- Grid

def test_grid_basic():
    g = Grid(-1.0, 1.0, 5)
    assert g.h == pytest.approx(0.5)
    np.testing.assert_allclose(g.x, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_refined_halves_spacing():
    g = Grid(-3.0, 7.0, 11)
    r = g.refined()
    assert r.n_points == 21
    assert r.h == pytest.approx(g.h / 2)
    # refinement keeps every coarse node
    np.testing.assert_allclose(r.x[::2], g.x)


def test_grid_index_nearest():
    g = Grid(-1.0, 1.0, 201)
    assert g.x[index_nearest(g, 0.0)] == pytest.approx(0.0, abs=1e-15)
    assert index_nearest(g, 10.0) == 200


def test_grid_rejects_bad_input():
    with pytest.raises(NumericalError):
        Grid(1.0, -1.0, 5)
    with pytest.raises(NumericalError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(NumericalError):
        Grid(0.0, np.inf, 5)
    # both ends finite, their distance not: h and x would be inf and nan
    with pytest.raises(NumericalError, match="width"):
        Grid(-1e308, 1e308, 5)


def test_diff_central_needs_three_samples():
    # a 2-point grid (a 2-cell chain) is a grid, but no central difference
    grid = Grid(0.0, 1.0, 2)
    with pytest.raises(NumericalError, match="at least 3 samples"):
        diff_central(np.array([0.0, 1.0]), grid)
    with pytest.raises(NumericalError, match="sample count does not match grid"):
        diff_central(np.zeros(3), grid)


def _saw_chain(p, n_cells):
    """The model's saw chain of n_cells cells at cell spacing 1."""
    g = Grid(-(n_cells - 1) / 2, (n_cells - 1) / 2, n_cells)
    return saw_chain(saw_cells(model_potential_components(p, g), g))


# ---------------------------------------------------- banded matrices

def test_banded_storage_must_be_real():
    # the gauged continuum operator and the chain are real symmetric; the
    # eigensolvers take real bands only, so complex storage is refused,
    # even with every imaginary part zero
    with pytest.raises(NumericalError, match="must be real"):
        BandedHermitian(np.zeros((3, 5), dtype=complex))
    with pytest.raises(NumericalError, match="must be real"):
        banded_from_dense(np.array([[1.0, 1j], [-1j, 2.0]]), 1)
    for shape in ((5,), (1, 3, 5)):
        with pytest.raises(NumericalError, match="must be 2D"):
            BandedHermitian(np.zeros(shape))
    assert banded_from_dense(np.array([[1.0, 0.5], [0.5, 2.0]]), 1).bands.dtype == float


def test_block_tridiagonal_bands_matches_dense_blocks():
    rng = np.random.default_rng(12)
    n = 5
    onsite = rng.normal(size=(n, 3, 3))
    onsite = onsite + np.swapaxes(onsite, 1, 2)
    coupling = rng.normal(size=(n - 1, 3, 3))
    coupling[:, 0, 2] = 0.0  # 5 above the diagonal
    dense = np.zeros((3 * n, 3 * n))
    for i in range(n):
        dense[3 * i:3 * i + 3, 3 * i:3 * i + 3] = onsite[i]
    for i in range(n - 1):
        dense[3 * i:3 * i + 3, 3 * i + 3:3 * i + 6] = coupling[i]
        dense[3 * i + 3:3 * i + 6, 3 * i:3 * i + 3] = coupling[i].T
    bands = block_tridiagonal_bands(onsite, coupling, 4)
    assert np.array_equal(banded_to_dense(BandedHermitian(bands)), dense)


def test_block_tridiagonal_bands_checks_the_bandwidth():
    onsite = np.zeros((4, 3, 3))
    coupling = np.zeros((3, 3))
    coupling[0, 1] = 1.0  # 4 above the diagonal
    assert block_tridiagonal_bands(onsite, coupling, 4).shape == (5, 12)
    with pytest.raises(NumericalError, match="bandwidth 2"):
        block_tridiagonal_bands(onsite, coupling, 2)
    # structural zeros are not written, so -0.0 does not reach the storage
    coupling[coupling == 0.0] = -0.0
    assert np.signbit(coupling).sum() == 8
    assert not np.signbit(block_tridiagonal_bands(onsite, coupling, 4)).any()


def test_banded_round_trip_and_eigh():
    rng = np.random.default_rng(3)
    dim, bw = 12, 2
    dense = np.zeros((dim, dim))
    for d in range(bw + 1):
        vals = rng.normal(size=dim - d)
        dense += np.diag(vals, d)
        if d:
            dense += np.diag(vals, -d)
    banded = banded_from_dense(dense, bw)
    np.testing.assert_allclose(banded_to_dense(banded), dense, atol=1e-15)
    w = eigh_banded(banded)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(dense), atol=1e-10)


def test_eigh_banded_values_only():
    banded = banded_from_dense(np.diag([3.0, 1.0, 2.0]), 1)
    w = eigh_banded(banded)
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])


# ------------------------------------------- deflation of loose sites

EPS = np.finfo(float).eps


def _full_solve(m):
    """scipy's one LAPACK solve of m, in storage of at most dim - 1
    superdiagonals: dsbevd reads a 1x1 matrix from the top storage row,
    and its scaling of a tiny or huge matrix (dlascl) rejects a wider band,
    leaving it unscaled."""
    bands = m.bands[max(m.bandwidth + 1 - m.dim, 0):]
    return scipy_linalg.eig_banded(bands, lower=False, eigvals_only=True)


def _loose_sites(m):
    """Sites whose off-diagonal row sum is at most eps * ||M||_1 / (2 u)."""
    a = np.abs(banded_to_dense(m))
    tau = EPS * a.sum(axis=0).max(initial=0.0) / (2 * max(m.bandwidth, 1))
    return _off_diagonal_sums(a) <= tau


def _off_diagonal_sums(a):
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return off.sum(axis=1)


def _random_banded(rng, dim, bw):
    dense = np.diag(rng.normal(size=dim))
    for d in range(1, min(bw, dim - 1) + 1):
        vals = rng.normal(size=dim - d)
        dense += np.diag(vals, d) + np.diag(vals, -d)
    return dense


# a factor f sets a site's off-diagonal row sum to f * tau
FACTORS = (None, 0.0, 0.5, 0.99, 0.999999, 1.000001, 1.01, 2.0)
# 1e-150 and 1e150 put the max-abs norm below rmin = 2**-485 and above
# rmax = 2**485, where LAPACK scales the matrix before the solve
SCALES = (1.0, 1e-150, 1e150)


@needs_scipy
@settings(max_examples=120, deadline=None)
@given(dim=st.integers(0, 40), bw=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       factors=st.lists(st.sampled_from(FACTORS), max_size=40), scale=st.sampled_from(SCALES))
# one kept site (5) between loose ones: a 1x1 solve in bandwidth-1 storage
@example(dim=7, bw=1, seed=0, factors=[0.0, 0.0, 0.5, 0.99], scale=1.0)
@example(dim=7, bw=1, seed=0, factors=[0.0, 0.0, 0.5, 0.99], scale=1e-150)
@example(dim=0, bw=2, seed=0, factors=[], scale=1.0)
@example(dim=1, bw=3, seed=0, factors=[], scale=1e150)
# a band wider than the matrix, scaled like LAPACK scales it
@example(dim=3, bw=4, seed=1, factors=[], scale=1e150)
@example(dim=2, bw=3, seed=1, factors=[], scale=1e-150)
# no loose site: one solve of the whole matrix, scipy's bits
@example(dim=40, bw=4, seed=2, factors=[], scale=1e-150)
@example(dim=40, bw=2, seed=2, factors=[], scale=1e150)
def test_eigh_banded_deflation_agrees_with_the_full_solve(dim, bw, seed, factors, scale):
    dense = _random_banded(np.random.default_rng(seed), dim, bw)
    # sites more than bw apart share no entry, so each is scaled on its own
    scaled = [(j, f) for j, f in zip(range(0, dim, bw + 1), factors) if f is not None]
    for _ in range(3):  # tau moves with ||M||_1 as the rows shrink
        a = np.abs(dense)
        tau = EPS * a.sum(axis=0).max(initial=0.0) / (2 * max(bw, 1))
        off = _off_diagonal_sums(a)
        for j, f in scaled:
            s = f * tau / off[j] if off[j] else 0.0
            diag = dense[j, j]
            dense[j, :] *= s
            dense[:, j] *= s
            dense[j, j] = diag
    dense *= scale
    if dim:
        m = banded_from_dense(dense, bw)
    else:
        m = BandedHermitian(np.zeros((bw + 1, 0)))
    w, ref = eigh_banded(m), _full_solve(m)
    assert w.shape == (dim,) and w.dtype == float
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12 * scale)
    if not _loose_sites(m).any():
        assert np.array_equal(w, ref)  # the one full solve, same bits


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_eigh_banded_deflates_exactly_up_to_eps_norm_over_twice_bandwidth(factor):
    # sites 0 and 1 are degenerate at 0 and coupled by c; site 3 sets
    # ||M||_1 = 100, so tau = eps * 100 / (2 * 2). The pair splits to +-c
    # only when c exceeds tau.
    c = factor * EPS * 100.0 / 4
    dense = np.diag([0.0, 0.0, 5.0, 100.0])
    dense[0, 1] = dense[1, 0] = c
    w = eigh_banded(banded_from_dense(dense, 2))
    if factor < 1:
        assert np.array_equal(w, [0.0, 0.0, 5.0, 100.0])
    else:
        np.testing.assert_allclose(w, [-c, c, 5.0, 100.0], rtol=1e-12)


# band storage is real only; the tests below keep `dtype` as a parameter
# with the one value float, so their cases keep their names
@pytest.mark.parametrize("dtype", [float])
def test_eigh_banded_every_site_loose(dtype):
    diag = np.array([3.0, -1.0, 2.0, 0.5, -1.0])
    for bw in (0, 2):
        bands = np.zeros((bw + 1, diag.size), dtype=dtype)
        bands[bw] = diag
        w = eigh_banded(BandedHermitian(bands))
        assert w.dtype == float
        assert np.array_equal(w, np.sort(diag))
    # a 1x1 matrix in bandwidth-1 storage, which ?sbevd itself misreads
    assert np.array_equal(eigh_banded(BandedHermitian([[0.0], [3.0]])), [3.0])


def test_eigh_banded_fewer_kept_sites_than_the_band():
    # bandwidth 4, but only sites 1 and 3 are coupled: two kept sites
    dense = np.diag([0.3, 1.0, -2.0, 0.7, 4.0, -0.1])
    dense[1, 3] = dense[3, 1] = 0.25
    m = banded_from_dense(dense, 4)
    assert np.flatnonzero(~_loose_sites(m)).tolist() == [1, 3]
    np.testing.assert_allclose(eigh_banded(m), np.linalg.eigvalsh(dense), atol=1e-15)


# kept sites of a bandwidth-2 or -4 matrix, fewer than bandwidth + 1: the
# compacted block has fewer rows than its band storage has diagonals
NARROW_BLOCKS = [(2, [1, 3]), (4, [1, 3]), (4, [1, 2, 5]), (4, [0, 1, 3, 4])]


@needs_scipy
@pytest.mark.parametrize("bw, kept", NARROW_BLOCKS)
@pytest.mark.parametrize("dtype", [float])
@pytest.mark.parametrize("scale", [1e-150, 1e150, 1e-300, 1e300])
def test_eigh_banded_narrow_block_is_scaled_like_eig_banded(bw, kept, dtype, scale):
    # at these scales LAPACK scales the matrix before the solve, which it
    # refuses for a band as wide as the block; the values must still be
    # eig_banded's on the block in storage of at most dim - 1 superdiagonals
    rng = np.random.default_rng(bw + len(kept))
    block = _random_banded(rng, len(kept), len(kept) - 1) * scale
    dense = np.diag(rng.normal(size=7) * scale).astype(dtype)
    dense[np.ix_(kept, kept)] = block
    m = banded_from_dense(dense, bw)
    assert np.flatnonzero(~_loose_sites(m)).tolist() == kept
    loose = np.delete(dense.diagonal().real, kept)
    ref = _full_solve(banded_from_dense(block, bw))
    assert np.array_equal(eigh_banded(m), np.sort(np.concatenate([ref, loose])))


def _count_while(solve):
    """Iterations of a Python loop on this thread while `solve` runs on another."""
    started, done = threading.Event(), []

    def work():
        started.set()
        try:
            solve()
        finally:
            done.append(True)

    worker = threading.Thread(target=work)
    worker.start()
    assert started.wait(timeout=60)
    time.sleep(0.005)  # lets the worker reach the solve before the count starts
    count = 0
    while not done:
        count += 1
    worker.join(timeout=60)
    assert not worker.is_alive()
    return count


@needs_scipy
def test_eigh_banded_releases_the_gil():
    # scipy's eig_banded holds the GIL through its LAPACK call, so the loop
    # here stalls while it runs; eigh_banded's LAPACK call lets it run on.
    # The loop also runs whenever the worker waits to take the GIL back, up
    # to one switch interval; a short one keeps that share small
    p = ModelParams(ModelKind.II, 0.03, 0.015)
    chain = _saw_chain(p, 800)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        held = np.median([_count_while(
            lambda: scipy_linalg.eig_banded(chain.bands, eigvals_only=True))
            for _ in range(5)])
        released = np.median([_count_while(lambda: eigh_banded(chain)) for _ in range(5)])
    finally:
        sys.setswitchinterval(interval)
    # on 2 cores the medians differ 250- to 610-fold (18-fold or more with
    # three busy processes beside the test), and at most 3-fold when
    # eigh_banded solves through eig_banded
    assert released > 5 * held


# ------------------------------------- eigenvalue counts by inertia

@pytest.mark.parametrize("bw", [0, 1, 2, 4])
def test_count_below_counts_the_dense_eigenvalues(bw):
    dense = _random_banded(np.random.default_rng(bw), 30, bw)
    probes = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(count_below(banded_from_dense(dense, bw).bands, probes),
                          (np.linalg.eigvalsh(dense)[:, None] < probes).sum(axis=0))


@pytest.mark.parametrize("route,n", [("chain", 400), ("continuum", 301)])
@pytest.mark.parametrize("kind,mass,lam", [(ModelKind.I, 0.07, 0.0),
                                           (ModelKind.II, 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_eigh_banded_counts_as_many_eigenvalues_as_inertia(kind, mass, lam, route, n):
    # below each of 16 energies over [-1.5 E, 1.5 E], eigh_banded holds as
    # many eigenvalues as M - energy*I has negative pivots; no probe lies on
    # an eigenvalue, lambda's cluster included, to 1e-9 of ||M||_1
    seed = ModelParams(kind, mass, lam).seed_data()
    _, op, _ = susy.partner_route(seed, route, n)
    probes = np.linspace(-1.5, 1.5, 16) * seed.gap_edge
    w = eigh_banded(op)
    norm = np.abs(banded_to_dense(op)).sum(axis=0).max()
    assert np.abs(w[:, None] - probes).min() > 1e-9 * norm
    assert np.array_equal((w[:, None] < probes).sum(axis=0), count_below(op.bands, probes))


# ------------------------------- band reduction below a tridiagonal lead

# 1e+-140 lie inside LAPACK's unscaled range [2**-485, 2**485]; 1e+-150
# and 1e+-300 lie outside it, where the band is scaled first, as dsbevd
# scales it
LEAD_SCALES = (1.0, 1e-140, 1e140, 1e-150, 1e150, 1e-300, 1e300)


def _band_with_lead(dim, bw, lead, seed, sparse):
    """Random real band storage whose rows 0..lead-1 have no entry two or
    more places above the diagonal; below them a wide entry is nonzero with
    probability 1 - sparse."""
    rng = np.random.default_rng(seed)
    bands = rng.normal(size=(bw + 1, dim))
    for d in range(1, bw + 1):  # M[i, i + d] = bands[bw - d, i + d]
        bands[bw - d, :d] = 0.0
        if d >= 2:
            bands[bw - d, d : d + lead] = 0.0
            bands[bw - d, rng.random(dim) < sparse] = 0.0
    return bands


@needs_scipy
@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 60), bw=st.integers(2, 4), lead=st.integers(0, 59),
       seed=st.integers(0, 2**32 - 1), sparse=st.sampled_from([0.0, 0.5, 0.9]),
       scale=st.sampled_from(LEAD_SCALES))
# lead lengths 0, 1, n - 2 and n - 1; the last two leave the matrix tridiagonal
@example(dim=30, bw=2, lead=0, seed=1, sparse=0.0, scale=1.0)
@example(dim=30, bw=4, lead=1, seed=2, sparse=0.0, scale=1.0)
@example(dim=30, bw=3, lead=28, seed=3, sparse=0.0, scale=1.0)
@example(dim=30, bw=2, lead=29, seed=4, sparse=0.0, scale=1.0)
@example(dim=40, bw=4, lead=0, seed=5, sparse=0.5, scale=1e-150)
@example(dim=40, bw=3, lead=1, seed=6, sparse=0.0, scale=1e300)
@example(dim=40, bw=2, lead=38, seed=7, sparse=0.0, scale=1e-300)
@example(dim=40, bw=4, lead=39, seed=8, sparse=0.0, scale=1e150)
def test_eigh_banded_below_a_tridiagonal_lead_keeps_eig_banded_bits(
        dim, bw, lead, seed, sparse, scale):
    m = BandedHermitian(_band_with_lead(dim, bw, min(lead, dim - 1), seed, sparse) * scale)
    assert np.array_equal(eigh_banded(m), _full_solve(m))


def _off_diagonal_scaled(bands, f):
    """Band storage of M with each M[i, j], i != j, times f[i] * f[j]."""
    u, out = bands.shape[0] - 1, bands.copy()
    for d in range(1, u + 1):  # M[i, i + d] = bands[u - d, i + d]
        out[u - d, d:] *= f[:-d] * f[d:]
    return out


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 60), bw=st.integers(1, 4), lead=st.integers(0, 59),
       seed=st.integers(0, 2**32 - 1), sparse=st.sampled_from([0.0, 0.5, 0.9]),
       loose=st.sampled_from([0.0, 0.2]), scale=st.sampled_from(LEAD_SCALES))
@example(dim=40, bw=1, lead=0, seed=1, sparse=0.0, loose=0.2, scale=1e-300)
@example(dim=40, bw=4, lead=0, seed=2, sparse=0.5, loose=0.2, scale=1e300)
@example(dim=40, bw=2, lead=10, seed=3, sparse=0.0, loose=0.0, scale=1e-150)
@example(dim=40, bw=3, lead=0, seed=4, sparse=0.9, loose=0.2, scale=1e150)
def test_eigh_banded_keeps_its_bits_under_a_sign_similarity(
        dim, bw, lead, seed, sparse, loose, scale):
    # S M S, S a random +-1 diagonal, has M's spectrum, and eigh_banded
    # returns the same bits for both: dsbtrd's rotations are sign-symmetric,
    # dsterf reads only the squared off-diagonal, and deflation reads |M|.
    # A loose site's couplings are 1e-18 of the rest, so it is deflated
    rng = np.random.default_rng([seed, 1])  # apart from _band_with_lead's draws
    bands = _band_with_lead(dim, bw, min(lead, dim - 1), seed, sparse)
    bands = _off_diagonal_scaled(bands, np.where(rng.random(dim) < loose, 1e-18, 1.0)) * scale
    signs = rng.choice([-1.0, 1.0], size=dim)
    flipped = _off_diagonal_scaled(bands, signs)
    assert np.array_equal(eigh_banded(BandedHermitian(flipped)),
                          eigh_banded(BandedHermitian(bands)))


RMIN = 2.0**-485  # sqrt(safmin / eps): dsbevd scales outside [RMIN, 1 / RMIN]


@needs_scipy
@pytest.mark.parametrize("bw", [2, 4])
@pytest.mark.parametrize("anrm", [RMIN, np.nextafter(RMIN, 0), 1 / RMIN,
                                  np.nextafter(1 / RMIN, np.inf)],
                         ids=["rmin", "below_rmin", "rmax", "above_rmax"])
def test_eigh_banded_scales_exactly_where_dsbevd_does(anrm, bw):
    # max |entry| exactly at a threshold, where sigma would be 1, and one ulp
    # beyond it, where sigma is one ulp from 1 and its rounding moves the bits
    bands = _band_with_lead(40, bw, 0, seed=bw, sparse=0.0)
    bands *= anrm / (2 * np.abs(bands).max())
    bands[bw, 17] = -anrm
    m = BandedHermitian(bands)
    assert np.abs(m.bands).max() == anrm and not _loose_sites(m).any()
    assert np.array_equal(eigh_banded(m), _full_solve(m))


CHAINS = [(ModelKind.I, 0.12, 0.03, 400), (ModelKind.I, 0.12, 0.03, 800),
          (ModelKind.II, 0.1, 0.05, 400), (ModelKind.II, 0.1, 0.05, 800),
          (ModelKind.I, 0.05, 0.0, 400)]


def _chain(kind, mass, flat, cells):
    return _saw_chain(ModelParams(kind, mass, flat), cells)


def _record_band_solves(monkeypatch):
    """Patch numcore._band_eigvalsh to keep, per call, a copy of its band
    storage and its values."""
    seen = []
    solve = numcore._band_eigvalsh

    def recorded(ab):
        copy = ab.copy()
        w = solve(ab)
        seen.append((copy, w))
        return w

    monkeypatch.setattr(numcore, "_band_eigvalsh", recorded)
    return seen


@needs_scipy
@pytest.mark.parametrize("kind, mass, flat, cells", CHAINS)
def test_chain_band_solve_keeps_eig_banded_bits(monkeypatch, kind, mass, flat, cells):
    chain = _chain(kind, mass, flat, cells)
    seen = _record_band_solves(monkeypatch)
    eigh_banded(chain)
    ((ab, w),) = seen
    if mass == 0.05:  # every C site is kept: the kept chain is the chain
        assert ab.shape == chain.bands.shape
    assert np.array_equal(w, scipy_linalg.eig_banded(ab, eigvals_only=True))


def test_chain_band_reduction_starts_below_the_tridiagonal_lead(monkeypatch):
    # dsbtrd reduces rows s - 3 .. n - 1 only, s the first row of the kept
    # chain with an entry two places above the diagonal; dsterf takes every
    # kept site
    seen = _record_band_solves(monkeypatch)
    sizes = []
    lapack = numcore._lapack

    def recorded(name):
        call = lapack(name)

        def counted(*args):
            # N is dsterf's first argument and dsbtrd's third
            sizes.append((name, int(args[0 if name == "dsterf" else 2])))
            return call(*args)
        return counted

    monkeypatch.setattr(numcore, "_lapack", recorded)
    eigh_banded(_chain(ModelKind.II, 0.1, 0.05, 800))
    ((ab, _),) = seen
    kept = ab.shape[1]
    s = np.flatnonzero(ab[0, 2:])[0]
    assert kept < 3 * 800 and s > kept // 4
    assert sizes == [("dsbtrd", kept - (s - 3)), ("dsterf", kept)]


# ----------------------------------------------------------- stencils

def test_diff_central_exact_on_quadratics():
    # a second-order stencil differentiates quadratics exactly,
    # including the one-sided endpoint rows
    g = Grid(-2.0, 3.0, 17)
    f = 1.5 * g.x**2 - 0.3 * g.x + 2.0
    np.testing.assert_allclose(diff_central(f, g), 3.0 * g.x - 0.3,
                               atol=1e-12)


def test_diff_central_second_order():
    errs = []
    g = Grid(-1.0, 1.0, 101)
    for _ in range(2):
        errs.append(np.abs(diff_central(np.exp(g.x), g) - np.exp(g.x)).max())
        g = g.refined()
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_integrate_cumulative_anchor_and_order():
    g = Grid(-4.0, 4.0, 401)
    anti = integrate_cumulative(np.cos(g.x), g)
    # anchored so the antiderivative vanishes at the node nearest x = 0
    assert anti[index_nearest(g, 0.0)] == 0.0
    errs = []
    for _ in range(2):
        anti = integrate_cumulative(np.cos(g.x), g)
        errs.append(np.abs(anti - np.sin(g.x)).max())
        g = g.refined()
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_diff_central_rejects_complex_input():
    # a float cast would keep the real part alone; a complex spinor goes
    # through its two real parts instead
    g = Grid(-1.0, 1.0, 201)
    for f in (np.exp(1j * g.x), np.zeros((3, 201), dtype=complex)):
        with pytest.raises(NumericalError, match="real"):
            diff_central(f, g)
    np.testing.assert_allclose(diff_central(np.sin(g.x), g), np.cos(g.x), atol=1e-4)


# ----------------------------------------------------- quadratic roots

def test_quad_roots_simple():
    res = quad_roots(1.0, -3.0, 2.0)  # (x-1)(x-2)
    np.testing.assert_allclose(res, [1.0, 2.0], atol=1e-14)


def test_quad_roots_linear_and_none():
    res = quad_roots(0.0, 2.0, -4.0)
    np.testing.assert_allclose(res, [2.0])
    assert quad_roots(1.0, 0.0, 1.0) == ()
    assert quad_roots(0.0, 0.0, 1.0) == ()
    assert quad_roots(1.0, 0.0, 0.0) == (0.0, 0.0)
    with pytest.raises(NumericalError, match="all coefficients zero"):
        quad_roots(0.0, 0.0, 0.0)


def test_quad_roots_cancellation():
    # naive formula loses ~8 digits here; the stable form must not
    res = quad_roots(1.0, -1e8, 1.0)
    small = min(res)
    assert small == pytest.approx(1e-8, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
def test_quad_roots_are_scale_free(k):
    # (y + 1.5)(y - 2) and (y - 0.25)^2 times 2^k: from |k| = 600 on their
    # discriminants leave the double range unscaled; the roots keep their bits
    for coeffs, want in [((1.0, -0.5, -3.0), (-1.5, 2.0)),
                         ((1.0, -0.5, 0.0625), (0.25, 0.25))]:
        p2, p1, p0 = (np.ldexp(c, k) for c in coeffs)
        assert quad_roots(p2, p1, p0) == want
        if abs(k) >= 600:
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                disc = p1 * p1 - 4.0 * p2 * p0
            assert not (np.isfinite(disc) and disc > 0.0)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
    r1=st.floats(-50, 50),
    r2=st.floats(-50, 50),
)
def test_quad_roots_reconstructs_factored_polynomials(a, r1, r2):
    # rounding can push the discriminant of a near-double root negative
    assume(abs(r1 - r2) > 1e-3 * (1.0 + abs(r1) + abs(r2)))
    res = quad_roots(a, -a * (r1 + r2), a * r1 * r2)
    got = sorted(res)
    want = sorted([r1, r2])
    scale = 1.0 + max(abs(r1), abs(r2))
    assert len(got) == 2
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-7 * scale
