"""Unit tests for the saw-chain tight-binding layer."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susychain import lattice, models, susy
from susychain.continuum import PotentialComponents, discretize, saw_cells
from susychain.errors import DegenerateDispersionError, NumericalError
from susychain.lattice import (
    TightBindingParams,
    band_structure,
    bloch_hamiltonian,
    chain_spectrum,
    default_k_grid,
    det_secular,
    flat_band_residual,
    saw_chain,
    tune_flat_band,
)
from susychain.models import ModelKind, ModelParams
from susychain.numcore import BandedHermitian, Grid, eigh_banded

from reference import (GAMMA, banded_to_dense, edge_localised, needs_scipy, potential_matrix,
                       scipy_linalg, wilson_matrix)


# the fine-tuned reference chain: t_ab = t_ab_inter = 1, t_ac = 0.2,
# t_bc = 0.01 has the exact flat-band solution eps_c = 1/500 at energy 0
P_REF = TightBindingParams(t_ab=1.0, t_ab_inter=1.0, t_ac=0.2, t_bc=0.01)

finite = st.floats(-3.0, 3.0)


def _params(vals):
    return TightBindingParams(eps_a=vals[0], eps_b=vals[1], eps_c=vals[2],
                              t_ab=vals[3], t_ab_inter=vals[4],
                              t_ac=vals[5], t_bc=vals[6])


# -------------------------------------------------------- Bloch matrix

def test_bloch_hermitian_and_periodic():
    for k in (-2.0, 0.0, 0.7, np.pi):
        h = bloch_hamiltonian(P_REF, k)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
        h2 = bloch_hamiltonian(P_REF, k + 2 * np.pi)
        np.testing.assert_allclose(h, h2, atol=1e-14)


def test_bloch_entries():
    h = bloch_hamiltonian(P_REF, 0.3)
    assert h.shape == (3, 3)
    assert h[0, 1] == pytest.approx(1.0 + np.exp(-0.3j), abs=1e-15)
    assert h[0, 2] == pytest.approx(0.2)
    assert h[1, 2] == pytest.approx(0.01)
    assert h[2, 2] == pytest.approx(0.0)


def test_bloch_inputs_must_be_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError, match="parameters must be finite"):
            TightBindingParams(t_ab=1.0, t_bc=bad)
        with pytest.raises(NumericalError, match="parameters must be finite"):
            TightBindingParams(t_ab=np.array([1.0, 2.0]), eps_c=np.array([0.0, bad]))
        with pytest.raises(NumericalError, match="k must be finite"):
            bloch_hamiltonian(P_REF, [0.0, bad])


def test_det_secular_matches_numpy_det():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _params(rng.uniform(-2, 2, size=7))
        k = rng.uniform(-np.pi, np.pi)
        e = rng.uniform(-3, 3)
        direct = np.linalg.det(bloch_hamiltonian(p, k) - e * np.eye(3))
        assert det_secular(p, k, e) == pytest.approx(direct.real, abs=1e-10)
        assert abs(direct.imag) < 1e-12


def test_band_structure_sorted_and_shapes():
    energies = band_structure(P_REF, default_k_grid(65))
    assert energies.shape == (65, 3)
    assert np.all(np.diff(energies, axis=1) >= 0)
    with pytest.raises(NumericalError, match="empty k-grid"):
        band_structure(P_REF, [])


@settings(max_examples=40, deadline=None)
@given(vals=st.tuples(*[finite] * 7), n_k=st.integers(1, 300))
# -5e-324 * e^{-i pi/2} has a zero real part that the array path signed -0
@example(vals=(0.0, 0.0, 1.8021368491067915, -0.0, -5e-324, 1.0, 2.0), n_k=5)
def test_band_structure_matches_per_k_eigh_bitwise(vals, n_k):
    p = _params(vals)
    k = default_k_grid(n_k)
    per_k = np.array([np.linalg.eigh(bloch_hamiltonian(p, q))[0] for q in k])
    assert np.array_equal(band_structure(p, k), per_k)


# ------------------------------------------------------------- tuning

def test_tune_reference_point_exact():
    sols = tune_flat_band(P_REF)
    assert len(sols) == 2
    best = min(sols, key=lambda s: abs(s.flat_energy))
    assert best.eps_c == pytest.approx(1.0 / 500.0, abs=1e-15)
    assert best.flat_energy == pytest.approx(0.0, abs=1e-15)


def test_tuned_band_is_flat():
    sol = min(tune_flat_band(P_REF), key=lambda s: abs(s.flat_energy))
    p = TightBindingParams(t_ab=1.0, t_ab_inter=1.0, t_ac=0.2, t_bc=0.01,
                           eps_c=sol.eps_c)
    energies = band_structure(p, default_k_grid(257))
    assert np.ptp(energies, axis=0)[1] < 1e-12
    np.testing.assert_allclose(energies[:, 1], sol.flat_energy, atol=1e-12)


def test_tune_factorization_coefficients():
    # det(H - E) must equal -(E - flat)*(E^2 + quad_lin E + quad_const
    # + quad_cos cos k) for every solution
    p = TightBindingParams(eps_a=0.3, eps_b=-0.2, t_ab=1.1, t_ab_inter=0.8,
                           t_ac=0.35, t_bc=0.15)
    for sol in tune_flat_band(p):
        tuned = TightBindingParams(eps_a=0.3, eps_b=-0.2, eps_c=sol.eps_c,
                                   t_ab=1.1, t_ab_inter=0.8, t_ac=0.35,
                                   t_bc=0.15)
        for k in (0.0, 0.9, 2.5):
            for e in (-1.3, 0.4, 2.0):
                quad = (e * e + sol.quad_lin * e + sol.quad_const
                        + sol.quad_cos * np.cos(k))
                want = -(e - sol.flat_energy) * quad
                assert det_secular(tuned, k, e) == pytest.approx(want, abs=1e-10)


def test_tune_degenerate_inputs_raise():
    with pytest.raises(DegenerateDispersionError):
        tune_flat_band(TightBindingParams(t_ab=0.0, t_ab_inter=1.0, t_ac=0.1,
                                          t_bc=0.1))
    with pytest.raises(DegenerateDispersionError):
        tune_flat_band(TightBindingParams(t_ab=1.0, t_ab_inter=1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cast", [float, np.float64])
@pytest.mark.parametrize("kwargs", [
    # p1 = -(t_ac*t_bc/t_ab)*eps_a = -1e400 overflows
    dict(eps_a=1e100, t_ab=1e-100, t_ab_inter=1.0, t_ac=1e100, t_bc=1e100),
    # t_ac*t_bc/t_ab overflows
    dict(t_ab=1e-300, t_ab_inter=1.0, t_ac=1e10, t_bc=1.0),
    # finite coefficients, but a root near -1e300 makes quad_const near 1e400
    dict(eps_a=1e100, t_ab=1e100, t_ab_inter=1.0, t_ac=1e100, t_bc=1e-100)])
def test_tune_overflow_raises_numerical_error(kwargs, cast):
    p = TightBindingParams(**{k: cast(v) for k, v in kwargs.items()})
    with pytest.raises(NumericalError, match="overflows the double range"):
        tune_flat_band(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [260, 300, 330, 332])
def test_tune_is_exact_under_a_power_of_two_rescaling(k):
    # the quadratic's coefficients are up to cubic in the couplings' scale,
    # but quad_roots scales them before it forms the discriminant: at scale
    # 2^k each root and quad_* value is 2^k or 2^2k times its value at scale
    # 1, exactly, and the residual 2^3k times, up to the CLI's 1e100 bound
    scaled = TightBindingParams(t_ab=2.0**k, t_ab_inter=2.0**k, t_ac=0.2 * 2.0**k,
                                t_bc=0.01 * 2.0**k)
    sols, sols_s = tune_flat_band(P_REF), tune_flat_band(scaled)
    assert len(sols) == len(sols_s) == 2
    for sol, sol_s in zip(sols, sols_s):
        for name, power in [("eps_c", 1), ("flat_energy", 1), ("quad_lin", 1),
                            ("quad_const", 2), ("quad_cos", 2)]:
            assert getattr(sol_s, name) == np.ldexp(getattr(sol, name), power * k), name
        assert flat_band_residual(scaled, sol_s) == np.ldexp(flat_band_residual(P_REF, sol),
                                                             3 * k)


nonzero = st.floats(0.05, 3.0).flatmap(
    lambda v: st.sampled_from([v, -v]))


@settings(max_examples=60, deadline=None)
@given(vals=st.tuples(finite, finite, finite, nonzero, nonzero,
                      nonzero, nonzero))
def test_tune_residual_property(vals):
    p = _params(vals)
    for sol in tune_flat_band(p):
        assert flat_band_residual(p, sol) < 1e-9


# ------------------------------------------------------- finite chain

def _unit_grid(n_cells):
    """Grid of n_cells points at spacing 1, centred on 0."""
    return Grid(-(n_cells - 1) / 2, (n_cells - 1) / 2, n_cells)


def _uniform_chain(comps, n_cells):
    """The saw chain of constant components at cell spacing 1 (hop t = 1)."""
    return saw_chain(saw_cells(comps, _unit_grid(n_cells)))


# the dimerized AB chain t_ab = 0.4, t_ab_inter = 1 with the C level parked
# at 10: topological, with two zero modes at its ends
SSH = PotentialComponents(0.0, -0.6, 0.0, 0.0, 10.0)


def _saw_bands_reference(comps, grid, terminate=True):
    """Band storage of the saw chain of V, filled entry by entry, cell by cell,
    from the components and t = (n - 1)/(x_max - x_min), in apply_dirac's
    gauge: M[A, B] = -(t + v12), M[A, C] = -v13 and the hop -t. With
    `terminate`, a chain whose walls both end on the weak bond, |t + v12|
    < t at the first and last cell, starts at B_0 and ends on A_n: A_0 and
    its bonds go, and A_n (on site v11 of the last cell, hop -t from
    B_{n-1}) takes the last of 3n sites."""
    n = grid.n_points
    t = (n - 1) / (grid.x_max - grid.x_min)
    v11, v12, v13, v23, lam = (np.broadcast_to(v, (n,)) for v in (
        comps.v11, comps.v12, comps.v13, comps.v23, comps.flat_energy))
    bands = np.zeros((3, 3 * n))
    shift = int(terminate and abs(t + v12[0]) < t and abs(t + v12[-1]) < t)

    def put(row, col, value):  # M[row, col] with row <= col, less the shift
        if row >= shift:
            bands[2 + row - col, col - shift] = value

    for c in range(n):
        a, b, cc = 3 * c, 3 * c + 1, 3 * c + 2
        put(a, a, v11[c])
        put(b, b, -v11[c])
        put(cc, cc, lam[c])
        put(a, b, -(t + v12[c]))
        put(a, cc, -v13[c])
        put(b, cc, v23[c])
        if c > 0:
            put(3 * (c - 1) + 1, a, -t)  # B of the previous cell to A
    if shift:
        put(3 * n, 3 * n, v11[-1])
        put(3 * n - 2, 3 * n, -t)
    return bands


def _model_chain_case(p, n_cells, box):
    grid = Grid(-box, box, n_cells)
    return models.model_potential_components(p, grid), grid


@pytest.mark.parametrize("case", [
    lambda: _model_chain_case(ModelParams(ModelKind.I, 0.07, 0.0), 101, 50.0),
    lambda: _model_chain_case(ModelParams(ModelKind.II, 0.1, 0.05), 64, 9.0),
    lambda: (SSH, _unit_grid(60)),
    lambda: (PotentialComponents(*np.random.default_rng(6).uniform(-1, 1, size=(5, 2))),
             Grid(-1.7, 2.2, 2)),
], ids=["model_I", "model_II", "ssh", "two_cells"])
def test_saw_stencil_matches_per_entry_reference_bitwise(case):
    comps, grid = case()
    got = saw_chain(saw_cells(comps, grid)).bands
    want = _saw_bands_reference(comps, grid)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_uniform_chain_spectrum_within_bloch_bands():
    # open-chain eigenvalues of a uniform profile must lie inside the
    # Bloch band ranges (union over k), up to edge effects
    sol = min(tune_flat_band(P_REF), key=lambda s: abs(s.flat_energy))
    p = TightBindingParams(t_ab=1.0, t_ab_inter=1.0, t_ac=0.2, t_bc=0.01,
                           eps_c=sol.eps_c)
    # p as components: v11 = eps_a, v12 = t_ab - t_ab_inter, v13 = t_ac, v23 = t_bc
    chain = _uniform_chain(PotentialComponents(0.0, 0.0, 0.2, 0.01, sol.eps_c), 40)
    rep = chain_spectrum(chain, flat_energy=sol.flat_energy, cluster_tol=1e-6)
    energies = band_structure(p, default_k_grid(513))
    lo, hi = energies.min() - 1e-9, energies.max() + 1e-9
    assert np.all(rep.eigenvalues >= lo) and np.all(rep.eigenvalues <= hi)
    # flat band survives the open boundary: N degenerate eigenvalues
    assert rep.cluster_count >= 40 - 2


def test_chain_spectrum_gap_exclusion():
    # a spurious near-flat eigenvalue must not be mistaken for a gap edge
    # t_ab = t_ab_inter = 1, eps_c = 5
    chain = _uniform_chain(PotentialComponents(0.0, 0.0, 0.0, 0.0, 5.0), 30)
    # pure AB chain bands are +-|1 + e^{ik}|: gap closes at k = pi, so
    # every eigenvalue close to 0 is genuine; use eps_c to park the C
    # level far away and fake a "remnant" by a tiny eps shift
    rep_tight = chain_spectrum(chain, flat_energy=0.0, cluster_tol=1e-12)
    rep_wide = chain_spectrum(chain, flat_energy=0.0, cluster_tol=1e-12,
                              gap_exclusion=0.3)
    assert abs(rep_wide.gap_edge_pos) >= 0.3
    assert abs(rep_tight.gap_edge_pos) <= abs(rep_wide.gap_edge_pos)


def test_chain_spectrum_refuses_an_unresolved_predicted_state():
    # 0.3's nearest eigenvalue, 0.5, lies 1e-5 from the next one: which of
    # the two is the predicted state is not resolved
    diagonal = BandedHermitian(np.array([[-1.0, 0.5, 0.50001, 1.0]]))
    with pytest.raises(NumericalError, match="no eigenvalue resolves the state "
                       "predicted at 0.3"):
        chain_spectrum(diagonal, cluster_tol=1e-6, predicted=(0.3,))
    # -1 is resolved as the state at -0.9, and skipped
    rep = chain_spectrum(diagonal, cluster_tol=1e-6, predicted=(-0.9,))
    assert np.isnan(rep.gap_edge_neg) and rep.gap_edge_pos == 0.5


@needs_scipy
def test_ssh_chain_ends_on_its_strong_bonds():
    # the dimerized AB chain ends on its weak bond t_ab = 0.4 at both walls,
    # where it holds two zero modes. saw_chain drops A_0 and ends the
    # chain on one more A site instead: 180 sites, both ends on t_ab_inter = 1,
    # and nothing near 0
    grid = _unit_grid(60)
    open_chain = BandedHermitian(_saw_bands_reference(SSH, grid, terminate=False))
    w, v = scipy_linalg.eigh(banded_to_dense(open_chain))
    near_zero = np.abs(w) < 0.3
    assert near_zero.sum() == 2
    assert edge_localised(v[:, near_zero]).all()
    chain = saw_chain(saw_cells(SSH, grid))
    assert chain.dim == 180
    rep = chain_spectrum(chain, cluster_tol=1e-6)
    assert not (np.abs(rep.eigenvalues) < 0.3).any()
    assert -rep.gap_edge_neg > 0.3 and rep.gap_edge_pos > 0.3


def test_one_weak_wall_is_refused_naming_both():
    # an SSH wall that ends on its weak bond binds an end state; with one
    # weak wall a chain of 3n sites cannot end on strong bonds at both
    v12 = np.r_[np.zeros(59), -0.6]
    comps = PotentialComponents(0.0, v12, 0.0, 0.0, 10.0)
    with pytest.raises(NumericalError, match=r"right wall ends on its weak bond .*"
                       r"\|t_ab\| = 1 at the left wall, 0\.4 at the right, "
                       r"\|t_ab_inter\| = 1\)"):
        saw_chain(saw_cells(comps, _unit_grid(60)))


# -------------------------------- gap edges vs a dense solve's eigenvectors

def _dense_reference(dense, flat_energy, cluster_tol, gap_exclusion):
    """chain_spectrum's summary by the rule it replaces, from every eigenvector
    of a dense solve: beyond max(gap_exclusion, cluster_tol) of flat_energy,
    each gap edge is the nearest state that is not edge-localised."""
    w, v = scipy_linalg.eigh(dense)
    offset = w - flat_energy
    bulk = (np.abs(offset) > max(gap_exclusion, cluster_tol)) & ~edge_localised(v)
    return (w, int((np.abs(offset) <= cluster_tol).sum()),
            w[bulk & (offset < 0)].max(), w[bulk & (offset > 0)].min())


def _predicted(route, lam):
    """The in-gap states of spectrum's route: the continuum's Wilson mode at -lambda."""
    return susy.ROUTES[route][2](lam)


def _route_operator(p, route, size, box=12.0):
    """spectrum's operator of the closed-form potential: the chain of `size`
    cells, or the continuum on `size` points over [-box/kappa, box/kappa]."""
    grid = _unit_grid(size) if route == "chain" else Grid(-box / p.kappa, box / p.kappa, size)
    return susy.ROUTES[route][0](models.model_potential_components(p, grid), grid)


def _model_case(kind, mass, lam, route):
    p = ModelParams(kind, mass, lam)
    op = _route_operator(p, route, 100 if route == "chain" else 101)
    return op, lam, 1e-6, 0.1 * p.seed_data().gap_edge, _predicted(route, lam)


def _ssh_case(end_potentials):
    chain = _uniform_chain(SSH, 60)
    if end_potentials:
        # potentials on the two end sites, B_0 and the last A, which sit on
        # strong bonds: they bind no state in the gap
        chain.bands[2, 0] = 0.05
        chain.bands[2, -1] = 0.08
    return chain, 0.0, 1e-9, 1e-9, ()


@needs_scipy
@pytest.mark.parametrize("case", [
    lambda: _model_case(ModelKind.I, 0.07, 0.0, "chain"),
    lambda: _model_case(ModelKind.II, 0.1, 0.05, "chain"),
    lambda: _ssh_case(end_potentials=False),
    lambda: _ssh_case(end_potentials=True),
    lambda: _model_case(ModelKind.I, 0.07, 0.0, "continuum"),
    lambda: _model_case(ModelKind.II, 0.1, 0.05, "continuum"),
], ids=["model_I_chain", "model_II_chain", "ssh", "ssh_end_potentials",
        "model_I_continuum", "model_II_continuum"])
def test_chain_spectrum_matches_dense_reference(case):
    # the dense rule skips every edge-localised state; chain_spectrum skips
    # only the predicted ones, and finds the same gap edges
    op, flat, tol, excl, predicted = case()
    w, count, edge_neg, edge_pos = _dense_reference(banded_to_dense(op), flat, tol, excl)
    rep = chain_spectrum(op, flat_energy=flat, cluster_tol=tol, gap_exclusion=excl,
                         predicted=predicted)
    np.testing.assert_allclose(rep.eigenvalues, w, atol=1e-12)
    assert rep.cluster_count == count
    assert rep.gap_edge_neg == pytest.approx(edge_neg, abs=1e-12)
    assert rep.gap_edge_pos == pytest.approx(edge_pos, abs=1e-12)


@needs_scipy
@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(ModelKind), mass=st.floats(0.03, 0.5),
       ratio=st.floats(-0.95, 0.95), route=st.sampled_from(["chain", "continuum"]),
       size=st.integers(20, 120))
# 2|lambda| is the flat window's half-width: -lambda's state lies on its edge
@example(kind=ModelKind.II, mass=0.375, ratio=-0.05, route="continuum", size=86)
def test_only_predicted_states_lie_in_the_gap(kind, mass, ratio, route, size):
    # admissible lambda: Model I's (-2m, m), Model II's (-sqrt(2) m, sqrt(2) m).
    # Against every dense eigenvector: the chain keeps 3 sites a cell; the
    # gap edges are not edge-localised, and between them and beyond the
    # flat window lie the predicted states only, each edge-localised
    lam = mass * (1.5 * ratio - 0.5 if kind is ModelKind.I else np.sqrt(2) * ratio)
    try:
        p = ModelParams(kind, mass, lam)
    except NumericalError:
        assume(False)
    op = _route_operator(p, route, size)
    assert op.dim == 3 * size
    excl = 0.1 * p.seed_data().gap_edge
    rep = chain_spectrum(op, flat_energy=lam, cluster_tol=1e-6, gap_exclusion=excl,
                         predicted=_predicted(route, lam))
    _, v = scipy_linalg.eigh(banded_to_dense(op))
    w = rep.eigenvalues
    edges = [np.flatnonzero(w == e)[0] for e in (rep.gap_edge_neg, rep.gap_edge_pos)]
    assert not edge_localised(v[:, edges]).any()
    census = [int(np.argmin(np.abs(w - e))) for e in _predicted(route, lam)]
    census = [i for i in census if abs(w[i] - lam) > excl]
    in_gap = (w > rep.gap_edge_neg) & (w < rep.gap_edge_pos) & (np.abs(w - lam) > excl)
    assert set(np.flatnonzero(in_gap)) <= set(census)
    assert edge_localised(v[:, census]).all()


def _full_eigh_banded(m):
    """eigh_banded without deflation: one LAPACK solve of the whole matrix."""
    return scipy_linalg.eig_banded(m.bands, lower=False, eigvals_only=True)


@needs_scipy
@pytest.mark.parametrize("route,size,box", [("chain", 400, None),
                                            ("chain", 800, None),
                                            ("continuum", 601, 36.0)],
                         ids=["400", "800", "continuum"])
@pytest.mark.parametrize("kind,mass,lam", [(ModelKind.I, 0.07, 0.0),
                                           (ModelKind.II, 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_chain_spectrum_with_deflated_sites_matches_full_solve(monkeypatch, kind,
                                                               mass, lam, route,
                                                               size, box):
    p = ModelParams(kind, mass, lam)
    op = _route_operator(p, route, size, box)
    kwargs = dict(flat_energy=lam, cluster_tol=1e-6,
                  gap_exclusion=0.1 * p.seed_data().gap_edge,
                  predicted=_predicted(route, lam))
    rep = chain_spectrum(op, **kwargs)
    monkeypatch.setattr(lattice, "eigh_banded", _full_eigh_banded)
    full = chain_spectrum(op, **kwargs)
    # sites left uncoupled are deflated, exactly lam: the chain's C sites far
    # from the kink, the continuum's third component where v13, v23 vanish
    assert (rep.eigenvalues == lam).sum() > (full.eigenvalues == lam).sum() + 40
    np.testing.assert_allclose(rep.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12)
    assert rep.cluster_count == full.cluster_count
    assert rep.gap_edge_neg == pytest.approx(full.gap_edge_neg, rel=0, abs=1e-12)
    assert rep.gap_edge_pos == pytest.approx(full.gap_edge_pos, rel=0, abs=1e-12)


@needs_scipy
@pytest.mark.parametrize("kind,mass,lam", [(ModelKind.I, 0.07, 0.0),
                                           (ModelKind.II, 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_continuum_gauge_changes_no_result_beyond_rounding(kind, mass, lam):
    # discretize stores P^H H P with P = diag(i, 1, 1) per point, apply_dirac's
    # gauge, in real bands; a dense solve of the ungauged complex H must give
    # the same report
    p = ModelParams(kind, mass, lam)
    gap_exclusion = 0.1 * p.seed_data().gap_edge
    grid = Grid(-12.0 / p.kappa, 12.0 / p.kappa, 301)
    comps = models.model_potential_components(p, grid)
    gauged = discretize(comps, grid)
    stack = potential_matrix(comps)
    assert gauged.bands.dtype == np.float64
    # the Wilson term h*(-d^2/dx^2)*M adds 2M/h on site and -M/h to the
    # central hop, the block from point i to point i + 1
    m = wilson_matrix(comps)
    hop = -1j / (2 * grid.h) * GAMMA - m / grid.h
    n = grid.n_points
    h = (scipy_linalg.block_diag(*(stack + 2 / grid.h * m)) + np.kron(np.eye(n, k=1), hop)
         + np.kron(np.eye(n, k=-1), hop.conj().T))
    w, count, edge_neg, edge_pos = _dense_reference(h, lam, 1e-6, gap_exclusion)
    rep = chain_spectrum(gauged, flat_energy=lam, cluster_tol=1e-6,
                         gap_exclusion=gap_exclusion, predicted=_predicted("continuum", lam))
    scale = np.abs(h).sum(axis=1).max()
    np.testing.assert_allclose(rep.eigenvalues, w, rtol=0, atol=1e-12 * scale)
    assert rep.cluster_count == count
    assert rep.gap_edge_neg == pytest.approx(edge_neg, abs=1e-12)
    assert rep.gap_edge_pos == pytest.approx(edge_pos, abs=1e-12)

