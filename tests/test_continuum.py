"""Unit tests for the continuum Dirac layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susychain.continuum import PotentialComponents, apply_dirac, discretize, saw_cells
from susychain.errors import NumericalError
from susychain.lattice import TightBindingParams, band_structure, saw_cell
from susychain.numcore import Grid, eigh_banded

from reference import (
    GAMMA,
    banded_to_dense,
    join_spinor,
    potential_matrix,
    split_spinor,
    symbol,
    to_gauge,
    wilson_matrix,
)


def test_gauge_is_real_symmetric():
    # P^{-1} V P with P = diag(i, 1, 1): V Hermitian, its gauge form symmetric
    comps = PotentialComponents(0.4, -0.2, 0.1, 0.05, 0.7)
    v = comps.gauge()
    assert v.dtype == np.float64 and np.array_equal(v, v.T)
    assert v[0, 0] == 0.4 and v[1, 1] == -0.4 and v[2, 2] == 0.7
    assert v[0, 1] == 0.2  # -v12, where V holds -i*v12
    assert np.array_equal(v, to_gauge(potential_matrix(comps)))


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


_SAMPLE = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), x_min=st.floats(-1e3, 1e3),
       width=st.floats(1e-3, 1e3))
def test_saw_cells_are_the_gauge_blocks_with_the_hop_on_the_a_b_bond(data, n, x_min, width):
    # one map from V to the saw cell: every entry is gauge()'s, bit for bit,
    # except the A-B bond, which adds the hop -t of the kinetic term
    grid = Grid(x_min, x_min + width, n)
    comps = PotentialComponents(*(data.draw(st.one_of(
        _SAMPLE, st.lists(_SAMPLE, min_size=n, max_size=n).map(np.array))) for _ in range(5)))
    t = (n - 1) / (grid.x_max - grid.x_min)
    cell = saw_cell(saw_cells(comps, grid))
    gauge = np.broadcast_to(comps.gauge(), (n, 3, 3))
    ab = np.zeros((3, 3), dtype=bool)
    ab[0, 1] = ab[1, 0] = True
    assert cell.shape == (n, 3, 3)
    assert _same_bits(cell[:, ~ab], gauge[:, ~ab])
    np.testing.assert_array_equal(cell[:, ab], gauge[:, ab] - t)


def test_symbol_dispersion_matches_lattice_near_zone_corner():
    # near k = pi/a the two dispersive lattice bands approach
    # +-sqrt(q^2 + v11^2 + v12^2) with q the deviation from the corner
    p = TightBindingParams(eps_a=0.02, eps_b=-0.02, t_ab=1.01,
                           t_ab_inter=1.0, eps_c=10.0)
    cell = PotentialComponents(v11=0.02, v12=0.01, v13=0.0, v23=0.0,
                               flat_energy=10.0)
    for q in (0.0, 0.01, 0.03):
        k = np.pi - q
        lat = band_structure(p, [k])[0]
        sym = np.linalg.eigvalsh(symbol(cell, q))
        # the C level sits far away; compare the two dispersive bands
        np.testing.assert_allclose(lat[:2], sym[:2], atol=5e-4)


def test_discretize_is_hermitian_and_matches_apply():
    grid = Grid(-5.0, 5.0, 201)
    t, sech = np.tanh(grid.x), 1 / np.cosh(grid.x)
    comps = PotentialComponents(0.03 + 0.01 * t, -0.02 * t, 0.01 * sech,
                                0.005 * sech, 0.004 * t)
    op = discretize(comps, grid)
    assert op.bands.dtype == np.float64
    dense = banded_to_dense(op)
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)
    # the band is the matrix of apply_dirac's operator plus the Wilson term
    # h*(-d^2/dx^2)*M, M in apply_dirac's gauge, on real states, away from
    # the box walls (the truncation differs only in the first/last point)
    rng = np.random.default_rng(2)
    f = rng.normal(size=(3, grid.n_points))
    m = to_gauge(wilson_matrix(comps))
    via_band = (dense @ f.T.ravel()).reshape(grid.n_points, 3).T
    via_apply = apply_dirac(comps, f, grid)
    via_apply[:, 1:-1] += m @ (2 * f[:, 1:-1] - f[:, :-2] - f[:, 2:]) / grid.h
    np.testing.assert_allclose(via_band[:, 1:-1], via_apply[:, 1:-1], atol=1e-10)


def _discretize_reference(comps, grid):
    """Band storage of discretize, filled entry by entry, point by point,
    from the complex potential and hop, each turned to apply_dirac's gauge
    by to_gauge. The Wilson term h*(-d^2/dx^2)*M adds 2M/h on site and -M/h
    to the hop."""
    n = grid.n_points
    m = wilson_matrix(comps)
    v = to_gauge(np.broadcast_to(potential_matrix(comps) + 2 / grid.h * m, (n, 3, 3)))
    # M/h part by part: numpy's complex division by a real rounds otherwise
    hop = to_gauge(-1j / (2 * grid.h) * GAMMA - (m.real / grid.h + 1j * (m.imag / grid.h)))
    bands = np.zeros((5, 3 * n))
    for i in range(n):
        for a in range(3):
            for b in range(a, 3):
                bands[4 + a - b, 3 * i + b] = v[i, a, b]
    for i in range(n - 1):
        for a in range(3):
            for b in range(3):
                if hop[a, b] != 0:
                    row, col = 3 * i + a, 3 * (i + 1) + b
                    bands[4 + row - col, col] = hop[a, b]
    return bands


@pytest.mark.parametrize("stacked", [False, True], ids=["constant", "stack"])
def test_discretize_matches_per_point_reference_bitwise(stacked):
    grid = Grid(-3.0, 4.0, 37)
    rng = np.random.default_rng(7)
    if stacked:
        comps = PotentialComponents(*rng.normal(size=(4, grid.n_points)), -0.2)
    else:
        comps = PotentialComponents(0.03, -0.02, 0.01, 0.005, -0.2)
    bands = discretize(comps, grid).bands
    reference = _discretize_reference(comps, grid)
    assert bands.dtype == np.float64
    assert np.array_equal(bands, reference)


def test_discretize_rejects_bad_potential():
    grid = Grid(-1.0, 1.0, 11)
    short = PotentialComponents(0.0, np.zeros(10), 0.0, 0.0, 0.0)
    # apply_dirac reads the components through the same shape check
    with pytest.raises(NumericalError, match="v12 .*shape"):
        apply_dirac(short, np.zeros((3, 11)), grid)
    # the continuum's band and the chain's cells read V through the same checks
    for build in (discretize, saw_cells):
        with pytest.raises(NumericalError, match="v12 .*shape"):
            build(short, grid)
        v11 = np.zeros(11)
        v11[4] = np.nan
        with pytest.raises(NumericalError, match="x=-0.2"):
            build(PotentialComponents(v11, 0.0, 0.0, 0.0, 0.0), grid)
        # a complex component has no real gauged band
        with pytest.raises(NumericalError, match="real"):
            build(PotentialComponents(0.0, 0.0, 0.0, 0.0, 0.1j), grid)


@pytest.mark.parametrize("caller", [
    lambda comps, grid: apply_dirac(comps, np.zeros((3, grid.n_points)), grid),
    lambda comps, grid: discretize(comps, grid),
], ids=["apply_dirac", "discretize"])
def test_complex_component_is_refused_naming_it(caller):
    # a Hermitian V has real components; both callers read them through
    # PotentialComponents.samples
    grid = Grid(-1.0, 1.0, 11)
    comps = PotentialComponents(0.1, 0.2, np.full(11, 0.05 + 1e-3j), 0.0, 0.3)
    with pytest.raises(NumericalError, match="v13 must be real"):
        caller(comps, grid)


def test_wilson_term_of_a_decoupled_potential_ignores_the_sign_of_zero():
    # v13 = -0.0 makes 2*v13*v23 = -0.0, and arctan2(0.0, -0.0) is pi: the
    # Wilson matrix of a decoupled potential must not flip with that sign
    grid = Grid(-2.0, 2.0, 21)
    plus = discretize(PotentialComponents(0.1, 0.2, 0.0, 0.0, 0.3), grid)
    minus = discretize(PotentialComponents(0.1, 0.2, -0.0, 0.0, 0.3), grid)
    np.testing.assert_array_equal(plus.bands, minus.bands)


def test_apply_dirac_rejects_complex_input():
    # its states are real, x for psi = diag(i, 1, 1) x: a float cast of a
    # complex one would keep the real part alone
    grid = Grid(-1.0, 1.0, 11)
    comps = PotentialComponents(0.1, 0.2, 0.0, 0.0, 0.3)
    with pytest.raises(NumericalError, match="real"):
        apply_dirac(comps, np.ones((3, 11)) + 1e-3j, grid)


def test_discretized_free_dirac_spectrum():
    # constant decoupled potential: eigenvalues must respect the gap
    # +-sqrt(v11^2+v12^2) up to O(h^2) and truncation effects
    cell = PotentialComponents(v11=0.06, v12=0.08, v13=0.0, v23=0.0,
                               flat_energy=0.0)
    grid = Grid(-60.0, 60.0, 1201)
    w = eigh_banded(discretize(cell, grid))
    hi = np.hypot(cell.v11, cell.v12)
    dispersive = w[np.abs(w) > 1e-9]
    assert np.abs(dispersive).min() >= hi - 5e-3
    # flat level of the decoupled C chain: one per grid point
    assert (np.abs(w) <= 1e-9).sum() == grid.n_points
