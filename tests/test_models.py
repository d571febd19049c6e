"""Unit tests for the two closed-form models."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susychain.continuum import PotentialComponents, discretize
from susychain.errors import NumericalError
from susychain.lattice import chain_spectrum
from susychain.models import (
    ModelKind,
    ModelParams,
    model_potential,
    model_potential_components,
    validate_params,
)
from susychain.numcore import Grid
from susychain.susy import assemble_frame, transformed_potential

from reference import potential_matrix, to_gauge

P1 = ModelParams(ModelKind.I, 0.07, 0.02)
P2 = ModelParams(ModelKind.II, 0.03, 0.015)


def closed_form_edge(p):
    """The continuum band edge written out: sqrt(m(2m - lambda)), the
    published Model I edge, or sqrt(2)*|m|, the derived Model II one."""
    m, lam = p.mass, p.flat_energy
    return np.sqrt(m * (2 * m - lam)) if p.kind is ModelKind.I else np.sqrt(2) * abs(m)


# --------------------------------------------------------- parameters

def test_derived_constants_model1():
    m, lam = P1.mass, P1.flat_energy
    assert P1.gauge_a == pytest.approx(np.sqrt(m * (m - lam)))
    assert P1.kappa == pytest.approx(np.sqrt((m - lam) * (2 * m + lam)))
    assert P1.omega == pytest.approx(
        -4 * m / (np.sqrt(m * (m - lam)) * (2 * m + lam)))


def test_derived_constants_model2():
    m, lam = P2.mass, P2.flat_energy
    assert P2.gauge_a == pytest.approx(m)
    assert P2.kappa == pytest.approx(np.sqrt(2 * m * m - lam * lam))
    assert P2.omega == pytest.approx(-2 * (2 * m - lam) / (2 * m * m - lam * lam))


def test_validate_params_accepts_admissible():
    assert validate_params(P1) == []
    assert validate_params(P2) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_params_flags_violations():
    # construction refuses these before .kappa or .seed_data() could take
    # the square root of a negative number
    for kind, m, lam in ((ModelKind.I, 0.07, 0.07), (ModelKind.I, 0.07, 0.08),
                         (ModelKind.I, 0.07, -0.15), (ModelKind.II, 0.03, 0.05),
                         (ModelKind.I, np.nan, 0.0), ("I", 0.07, 0.0)):
        with pytest.raises(NumericalError, match="^invalid model parameters: "):
            ModelParams(kind, m, lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", list(ModelKind))
def test_validate_params_bounds_mass_and_flat_energy(kind):
    # m**2 of a Python float raises OverflowError from m ~ 1.3e154 on
    for m, lam in ((1e155, 0.0), (1e101, 0.0), (1.0, -1e101)):
        with pytest.raises(NumericalError, match="must not exceed 1e"):
            ModelParams(kind, m, lam)
    assert validate_params(ModelParams(kind, 1e100, 0.0)) == []


def test_operations_reject_invalid_params():
    # no operation ever sees an invalid set: construction raises first,
    # naming every violation that validate_params finds
    raw = SimpleNamespace(kind=ModelKind.I, mass=0.07, flat_energy=0.07)
    violations = validate_params(raw)
    assert len(violations) == 3
    with pytest.raises(NumericalError) as exc:
        ModelParams(raw.kind, raw.mass, raw.flat_energy)
    assert str(exc.value) == "invalid model parameters: " + "; ".join(violations)


def test_seed_kappa_consistency():
    # the model kappa equals the seed decay constant kappa0
    for p in (P1, P2):
        s = p.seed_data()
        assert s.kappa0 == pytest.approx(p.kappa, rel=1e-14)


# ---------------------------------------------- closed-form potentials

def test_model1_matches_darboux_pipeline():
    grid = Grid(-20.0, 20.0, 801)
    comps = transformed_potential(assemble_frame(P1.seed_data(), grid))
    v11, v12, v13, v23 = model_potential(P1, grid.x)
    np.testing.assert_allclose(comps.v11, v11, atol=1e-10)
    np.testing.assert_allclose(comps.v12, v12, atol=1e-10)
    np.testing.assert_allclose(comps.v13, v13, atol=1e-10)
    np.testing.assert_allclose(comps.v23, v23, atol=1e-10)


def test_model2_matches_darboux_pipeline():
    grid = Grid(-20.0, 20.0, 801)
    comps = transformed_potential(assemble_frame(P2.seed_data(), grid))
    v11, v12, v13, v23 = model_potential(P2, grid.x)
    np.testing.assert_allclose(comps.v11, v11, atol=1e-10)
    np.testing.assert_allclose(comps.v12, v12, atol=1e-10)
    np.testing.assert_allclose(comps.v13, v13, atol=1e-10)
    np.testing.assert_allclose(comps.v23, v23, atol=1e-10)


def test_model2_constant_dimerization():
    x = np.linspace(-30, 30, 501)
    _, v12, _, _ = model_potential(P2, x)
    np.testing.assert_allclose(v12, -P2.flat_energy, atol=1e-15)


def test_model2_symmetric_interchain_coupling():
    x = np.linspace(-30, 30, 501)
    _, _, v13, v23 = model_potential(P2, x)
    np.testing.assert_allclose(v13, v23, atol=1e-15)


def test_potentials_approach_asymptotic_cells():
    # far from the kink the potential decouples to a constant whose
    # continuum starts at the closed-form edge, on either side
    x_far = 400.0
    for p in (P1, P2):
        v11, v12, v13, v23 = model_potential(p, np.array([-x_far, x_far]))
        np.testing.assert_allclose(np.hypot(v11, v12), closed_form_edge(p),
                                   rtol=0, atol=1e-12)
        assert np.all(np.abs(v13) < 1e-12) and np.all(np.abs(v23) < 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [P1, P2, ModelParams(ModelKind.I, 0.2, -0.1)],
                         ids=["model_I", "model_II", "model_I_mass_0.2"])
def test_potentials_finite_far_beyond_cosh_overflow(p):
    # cosh overflows once |2 kappa x| > 710; the components must stay
    # finite there, decoupled, at the closed-form edge
    x = np.array([-1e6, -1e3, -400.0, 400.0, 1e3, 1e6]) / p.kappa
    v11, v12, v13, v23 = model_potential(p, x)
    np.testing.assert_allclose(np.hypot(v11, v12), closed_form_edge(p), rtol=0, atol=1e-15)
    assert np.all(np.abs(v13) < 1e-300) and np.all(np.abs(v23) < 1e-300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [ModelParams(ModelKind.II, 200.0, 0.0),
                               ModelParams(ModelKind.I, 2e4, 0.0)],
                         ids=["model_II_mass_200", "model_I_mass_2e4"])
def test_large_cosh_coefficient_does_not_overflow(p):
    # the cosh coefficient 2(m - lambda)^2 (Model II) or 2m - lambda
    # (Model I) times cosh(700) exceeds the double range for these masses
    assert validate_params(p) == []
    x = np.array([-1e6, -1e3, 1e3, 1e6]) / p.kappa
    v11, v12, v13, v23 = model_potential(p, x)
    for v in (v11, v12, v13, v23):
        assert np.all(np.isfinite(v))
    assert np.all(np.abs(v13) < 1e-290) and np.all(np.abs(v23) < 1e-290)
    np.testing.assert_allclose(np.hypot(v11, v12), closed_form_edge(p), rtol=1e-14)


def test_model_potential_components_wrapper():
    grid = Grid(-5.0, 5.0, 51)
    comps = model_potential_components(P1, grid)
    assert comps.flat_energy == P1.flat_energy
    stack = comps.gauge()
    v = stack[25]
    np.testing.assert_allclose(v, v.T, atol=1e-15)
    assert stack.shape == (51, 3, 3)
    for i in range(51):
        assert np.array_equal(stack[i], to_gauge(potential_matrix(PotentialComponents(
            comps.v11[i], comps.v12[i], comps.v13[i], comps.v23[i],
            P1.flat_energy))))


# ------------------------------------------------------------ spectra

def test_model1_closed_form_spectrum():
    m, lam = P1.mass, P1.flat_energy
    assert P1.seed_data().gap_edge == pytest.approx(np.sqrt(m * (2 * m - lam)))


def test_model2_derived_thresholds_flagged():
    # the seed's edge is the threshold of the asymptotic cell on either side
    edge = P2.seed_data().gap_edge
    assert edge == pytest.approx(np.sqrt(2) * abs(P2.mass))
    v11, v12, _, _ = model_potential(P2, np.array([-1e3, 1e3]) / P2.kappa)
    np.testing.assert_allclose(np.hypot(v11, v12), edge, rtol=1e-14)


def test_flat_level_sits_in_the_gap():
    for p in (P1, P2):
        assert abs(p.flat_energy) < p.seed_data().gap_edge


@settings(max_examples=40, deadline=None)
@given(m=st.floats(0.02, 0.5), frac=st.floats(-1.9, 0.9))
def test_model1_asymptotic_spectrum_identity(m, frac):
    lam = frac * m
    try:
        p = ModelParams(ModelKind.I, m, lam)
    except NumericalError:
        return
    v11, v12, _, _ = model_potential(p, np.array([-1e3, 1e3]) / p.kappa)
    np.testing.assert_allclose(np.hypot(v11, v12), closed_form_edge(p), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(m=st.floats(0.02, 0.5), frac=st.floats(-1.3, 1.3), side=st.sampled_from([-1, 1]))
def test_model2_asymptotic_spectrum_identity(m, frac, side):
    lam = frac * m
    try:
        p = ModelParams(ModelKind.II, m, lam)
    except NumericalError:
        return
    v11, v12, _, _ = model_potential(p, np.array([side * 1e3]) / p.kappa)
    assert np.hypot(v11[0], v12[0]) == pytest.approx(closed_form_edge(p), rel=1e-12)


# ------------------------------------------------------ saw chain

@pytest.mark.parametrize("p, n_cells, box", [(P1, 101, 50.0), (P2, 21, 5.0)],
                         ids=["spacing_1", "spacing_0.5"])
def test_saw_stencil_entries(p, n_cells, box):
    # one cell per point of [-box, box]; the hop t is 1/spacing
    grid = Grid(-box, box, n_cells)
    bands = discretize(model_potential_components(p, grid), grid, "saw").bands
    t = (n_cells - 1) / (2 * box)
    v11, v12, v13, v23 = model_potential(p, np.linspace(-box, box, n_cells))
    zero = np.zeros(n_cells)
    # per cell (A, B, C) in apply_dirac's gauge: the diagonal, then M[C_prev, A],
    # M[A, B], M[B, C], then M[B_prev, A], M[C_prev, B], M[A, C]
    diag = np.c_[v11, -v11, zero + p.flat_energy].ravel()
    first = np.c_[zero, -(t + v12), v23].ravel()
    second = np.c_[np.r_[0.0, -(zero[1:] + t)], zero, -v13].ravel()
    # lambda > 0: v12 < 0 at both walls, which end on the weak bond t + v12.
    # A_0 and its bonds M[A_0, B_0], M[A_0, C_0] go, and one more A site, on
    # site v11 of the last cell and -t from the last B, ends the chain
    assert (np.abs(t + v12[[0, -1]]) < t).all()
    first[1] = second[2] = 0.0
    np.testing.assert_array_equal(bands[2], np.r_[diag[1:], v11[-1]])
    np.testing.assert_array_equal(bands[1], np.r_[first[1:], 0.0])
    np.testing.assert_array_equal(bands[0], np.r_[second[1:], -t])


# the allowance for lattice corrections of perfbench's chain gap-edge check
LATTICE_EDGE_TOL = 0.01


@pytest.mark.parametrize("p", [ModelParams(ModelKind.I, 0.07, 0.0),
                               ModelParams(ModelKind.II, 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_chain_hopping_follows_cell_spacing(p):
    # at spacing h the hoppings are 1/h, so the chain realizes the model
    # operator at any box: both gap edges stay within the finite-box shift
    # sqrt(1 + (2 pi / (L E))^2) - 1 (box length L = 2 * box) plus the
    # lattice allowance, and the error falls with h
    box = 200.0
    edge = p.seed_data().gap_edge
    bound = np.sqrt(1.0 + (np.pi / (box * edge)) ** 2) - 1.0 + LATTICE_EDGE_TOL
    errors = []
    for h in (2.0, 1.0, 0.5):
        n_cells = int(2 * box / h) + 1
        grid = Grid(-box, box, n_cells)
        chain = discretize(model_potential_components(p, grid), grid, "saw")
        v12 = model_potential(p, np.linspace(-box, box, n_cells))[1]
        # the hop B_j -> A_{j+1}, and M[A_j, B_j], in apply_dirac's gauge; with
        # lambda > 0 the chain starts at B_0 and ends on one more A site (s = 1)
        s = int(p.flat_energy > 0)
        assert np.array_equal(chain.bands[0, 3 - s::3], -np.full(n_cells - 1 + s, 1.0 / h))
        assert np.array_equal(chain.bands[1, 1 - s::3][s:], -(1.0 / h + v12[s:]))
        rep = chain_spectrum(chain, flat_energy=p.flat_energy, cluster_tol=1e-6,
                             gap_exclusion=0.1 * edge)
        err = max(abs(abs(rep.gap_edge_neg) / edge - 1.0),
                  abs(rep.gap_edge_pos / edge - 1.0))
        assert err <= bound, (h, err, bound)
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]
