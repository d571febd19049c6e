"""Unit tests for grids, banded matrices, stencils and quadratic roots."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susychain.errors import NonHermitianError, NumericalError
from susychain.numcore import (
    BandedHermitian,
    Grid,
    banded_eigvec,
    block_tridiagonal_bands,
    diff_central,
    eigh_banded,
    integrate_cumulative,
    quad_roots,
)


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
    assert g.x[g.index_nearest(0.0)] == pytest.approx(0.0, abs=1e-15)
    assert g.index_nearest(10.0) == 200


def test_grid_rejects_bad_input():
    with pytest.raises(NumericalError):
        Grid(1.0, -1.0, 5)
    with pytest.raises(NumericalError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(NumericalError):
        Grid(0.0, np.inf, 5)


# ---------------------------------------------------- banded matrices

def test_banded_from_dense_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(NonHermitianError) as exc:
        BandedHermitian.from_dense(bad)
    assert exc.value.row == 0 and exc.value.col == 1


def test_block_tridiagonal_bands_matches_dense_blocks():
    rng = np.random.default_rng(12)
    n = 5
    onsite = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    onsite = onsite + np.conj(np.swapaxes(onsite, 1, 2))
    coupling = rng.normal(size=(n - 1, 3, 3)) + 1j * rng.normal(size=(n - 1, 3, 3))
    coupling[:, 0, 2] = 0.0  # 5 above the diagonal
    dense = np.zeros((3 * n, 3 * n), dtype=complex)
    for i in range(n):
        dense[3 * i:3 * i + 3, 3 * i:3 * i + 3] = onsite[i]
    for i in range(n - 1):
        dense[3 * i:3 * i + 3, 3 * i + 3:3 * i + 6] = coupling[i]
        dense[3 * i + 3:3 * i + 6, 3 * i:3 * i + 3] = np.conj(coupling[i]).T
    bands = block_tridiagonal_bands(onsite, coupling, 4)
    assert np.array_equal(BandedHermitian(bands).to_dense(), dense)


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
    banded = BandedHermitian.from_dense(dense, bw)
    np.testing.assert_allclose(banded.to_dense(), dense, atol=1e-15)
    w = eigh_banded(banded)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(dense), atol=1e-10)


def test_eigh_banded_values_only():
    banded = BandedHermitian.from_dense(np.diag([3.0, 1.0, 2.0]), 1)
    w = eigh_banded(banded)
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("dtype", [float, complex])
def test_banded_eigvec_matches_dense_eigenvectors(dtype):
    rng = np.random.default_rng(8)
    dim, bw = 40, 3
    dense = np.diag(rng.normal(size=dim)).astype(dtype)
    for d in range(1, bw + 1):
        vals = rng.normal(size=dim - d)
        if dtype is complex:
            vals = vals + 1j * rng.normal(size=dim - d)
        dense += np.diag(vals, d) + np.diag(np.conj(vals), -d)
    banded = BandedHermitian.from_dense(dense, bw)
    w, v = np.linalg.eigh(dense)
    for j in (0, 17, dim - 1):
        x = banded_eigvec(banded, w[j])
        assert np.linalg.norm(x) == pytest.approx(1.0)
        # unique up to a phase: |<v_j, x>| = 1
        assert abs(np.vdot(v[:, j], x)) == pytest.approx(1.0, abs=1e-10)
    # fixed start vector: reruns are bit-identical
    np.testing.assert_array_equal(banded_eigvec(banded, w[5]),
                                  banded_eigvec(banded, w[5]))


def test_banded_eigvec_exact_eigenvalue_of_decoupled_site():
    # the shift hits a zero pivot exactly; the kernel must still succeed
    banded = BandedHermitian.from_dense(np.diag([3.0, 1.0, 2.0]), 1)
    x = banded_eigvec(banded, 2.0)
    np.testing.assert_allclose(np.abs(x), [0.0, 0.0, 1.0], atol=1e-12)


def test_banded_eigvec_rejects_non_eigenvalue():
    banded = BandedHermitian.from_dense(np.diag([3.0, 1.0, 2.0]), 1)
    with pytest.raises(NumericalError, match="residual"):
        banded_eigvec(banded, 1.5)
    with pytest.raises(NumericalError):
        banded_eigvec(banded, np.nan)


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
    assert anti[g.index_nearest(0.0)] == 0.0
    errs = []
    for _ in range(2):
        anti = integrate_cumulative(np.cos(g.x), g)
        errs.append(np.abs(anti - np.sin(g.x)).max())
        g = g.refined()
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_diff_central_complex_input():
    g = Grid(-1.0, 1.0, 201)
    f = np.exp(1j * g.x)
    np.testing.assert_allclose(diff_central(f, g), 1j * f, atol=1e-4)


# ----------------------------------------------------- quadratic roots

def test_quad_roots_simple():
    res = quad_roots(1.0, -3.0, 2.0)  # (x-1)(x-2)
    np.testing.assert_allclose(res.roots, [1.0, 2.0], atol=1e-14)
    assert res.discriminant == pytest.approx(1.0)


def test_quad_roots_linear_and_none():
    res = quad_roots(0.0, 2.0, -4.0)
    np.testing.assert_allclose(res.roots, [2.0])
    assert quad_roots(1.0, 0.0, 1.0).roots == ()


def test_quad_roots_cancellation():
    # naive formula loses ~8 digits here; the stable form must not
    res = quad_roots(1.0, -1e8, 1.0)
    small = min(res.roots)
    assert small == pytest.approx(1e-8, rel=1e-12)


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
    got = sorted(res.roots)
    want = sorted([r1, r2])
    scale = 1.0 + max(abs(r1), abs(r2))
    assert len(got) == 2
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-7 * scale
