"""Unit tests for the saw-chain tight-binding layer."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susychain import lattice, models
from susychain.continuum import GAMMA, PotentialComponents, discretize
from susychain.errors import DegenerateDispersionError, NumericalError
from susychain.lattice import (
    TightBindingParams,
    band_structure,
    bloch_hamiltonian,
    chain_spectrum,
    default_k_grid,
    det_secular,
    flat_band_residual,
    tune_flat_band,
    _edge_mask,
    _walk_to_gap_edge,
    inverse_participation_ratio,
)
from susychain.models import ModelKind, ModelParams
from susychain.numcore import EIGVEC_RESIDUAL_TOL, BandedHermitian, Grid, \
    banded_eigvec, eigh_banded, norm_1

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
    bs = band_structure(P_REF, default_k_grid(P_REF, 65))
    assert bs.energies.shape == (65, 3)
    assert np.all(np.diff(bs.energies, axis=1) >= 0)


@settings(max_examples=40, deadline=None)
@given(vals=st.tuples(*[finite] * 7), n_k=st.integers(1, 300))
# -5e-324 * e^{-i pi/2} has a zero real part that the array path signed -0
@example(vals=(0.0, 0.0, 1.8021368491067915, -0.0, -5e-324, 1.0, 2.0), n_k=5)
def test_band_structure_matches_per_k_eigh_bitwise(vals, n_k):
    p = _params(vals)
    k = default_k_grid(p, n_k)
    per_k = np.array([np.linalg.eigh(bloch_hamiltonian(p, q))[0] for q in k])
    assert np.array_equal(band_structure(p, k).energies, per_k)


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
    bs = band_structure(p, default_k_grid(p, 257))
    assert bs.spreads()[1] < 1e-12
    np.testing.assert_allclose(bs.band(1), sol.flat_energy, atol=1e-12)


def test_tune_factorization_coefficients():
    # det(H - E) must equal -(E - flat)*(E^2 + quad_lin E + quad_const
    # + quad_cos cos ka) for every solution
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


nonzero = st.floats(0.05, 3.0).flatmap(
    lambda v: st.sampled_from([v, -v]))


@settings(max_examples=60, deadline=None)
@given(vals=st.tuples(finite, finite, finite, nonzero, nonzero,
                      nonzero, nonzero))
def test_tune_residual_property(vals):
    p = _params(vals)
    for sol in tune_flat_band(p):
        assert flat_band_residual(p, sol, n_k=64) < 1e-9


# ------------------------------------------------------- finite chain

def _unit_grid(n_cells):
    """Grid of n_cells points at spacing 1, centred on 0."""
    return Grid(-(n_cells - 1) / 2, (n_cells - 1) / 2, n_cells)


def _uniform_chain(comps, n_cells):
    """The saw chain of constant components at cell spacing 1 (hop t = 1)."""
    return discretize(comps, _unit_grid(n_cells), "saw")


# the dimerized AB chain t_ab = 0.4, t_ab_inter = 1 with the C level parked
# at 10: topological, with two zero modes at its ends
SSH = PotentialComponents(0.0, -0.6, 0.0, 0.0, 10.0)


def _saw_bands_reference(comps, grid):
    """Band storage of the saw stencil, filled entry by entry, cell by cell,
    from the components and the hop t = (n - 1)/(x_max - x_min)."""
    n = grid.n_points
    t = (n - 1) / (grid.x_max - grid.x_min)
    v11, v12, v13, v23, lam = (np.broadcast_to(v, (n,)) for v in (
        comps.v11, comps.v12, comps.v13, comps.v23, comps.flat_energy))
    bands = np.zeros((3, 3 * n))

    def put(row, col, value):  # M[row, col] with row <= col
        bands[2 + row - col, col] = value

    for c in range(n):
        a, b, cc = 3 * c, 3 * c + 1, 3 * c + 2
        put(a, a, v11[c])
        put(b, b, -v11[c])
        put(cc, cc, lam[c])
        put(a, b, t + v12[c])
        put(a, cc, v13[c])
        put(b, cc, v23[c])
        if c > 0:
            put(3 * (c - 1) + 1, a, t)  # B of the previous cell to A
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
    got, want = discretize(comps, grid, "saw").bands, _saw_bands_reference(comps, grid)
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
    rep = chain_spectrum(chain, flat_energy=sol.flat_energy)
    bs = band_structure(p, default_k_grid(p, 513))
    lo, hi = bs.energies.min() - 1e-9, bs.energies.max() + 1e-9
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


def test_edge_state_detection_ssh_limit():
    # dimerized AB chain in the topological phase hosts midgap edge modes;
    # they sit at |E| ~ 5e-17, so cluster_tol must lie below that for them
    # to be walked (and get vectors) rather than counted as the flat cluster
    chain = _uniform_chain(SSH, 60)
    rep = chain_spectrum(chain, flat_energy=0.0, cluster_tol=1e-20)
    near_zero = np.abs(rep.eigenvalues) < 0.3
    assert near_zero.sum() == 2
    assert np.isfinite(rep.ipr[near_zero]).all()
    assert rep.edge_state_mask[near_zero].all()
    # and the reported gap edges ignore those edge modes
    assert abs(rep.gap_edge_pos) > 0.3


def test_walk_gives_degenerate_pair_orthonormal_vectors(monkeypatch):
    # the two SSH zero modes are split by ~2e-17; inverse iteration from
    # one fixed start vector finds the same vector for both unless the
    # second is kept orthogonal to the first: the walk asks for both at once
    chain = _uniform_chain(SSH, 60)
    w = eigh_banded(chain)
    pair = np.flatnonzero(np.abs(w) < 0.3)
    assert pair.size == 2
    ipr = np.full(w.size, np.nan)
    edge = np.zeros(w.size, dtype=bool)
    walked = []

    def recorded(m, energy, count=1):
        walked.append(banded_eigvec(m, energy, count))
        return walked[-1]

    monkeypatch.setattr(lattice, "banded_eigvec", recorded)
    tol = EIGVEC_RESIDUAL_TOL * norm_1(chain)
    assert np.isnan(_walk_to_gap_edge(chain, w, pair, tol, ipr, edge))
    (vectors,) = walked
    assert vectors.shape == (2, chain.dim)
    np.testing.assert_allclose(vectors @ vectors.conj().T, np.eye(2), atol=1e-8)
    assert edge[pair].all()


def test_degenerate_walked_group_gets_one_ipr_whatever_the_rounding(monkeypatch):
    # Model II's two wall states at 800 cells are 2e-15 apart: one group.
    # Nudging their eigenvalues by 3e-17 rotates the vectors within the
    # group, enough to move a per-vector IPR between 0.026 and 0.030; the
    # group's mean density does not move
    p = ModelParams(ModelKind.II, 0.1, 0.05)
    chain = _route_operator(p, "chain", 800)
    excl = 0.1 * models.model_spectrum(p).gap_edge
    rep = chain_spectrum(chain, flat_energy=p.flat_energy, gap_exclusion=excl)
    walked = np.flatnonzero(np.isfinite(rep.ipr))
    w = rep.eigenvalues
    group = walked[np.abs(w[walked] - 0.1322875655532) < 1e-12]
    assert group.size == 2
    assert rep.edge_state_mask[group].all() and rep.ipr[group[0]] == rep.ipr[group[1]]
    nudged = w.copy()
    nudged[group] += [-3e-17, 3e-17]
    monkeypatch.setattr(lattice, "eigh_banded", lambda m: nudged)
    again = chain_spectrum(chain, flat_energy=p.flat_energy, gap_exclusion=excl)
    assert again.ipr[group[0]] == again.ipr[group[1]]
    np.testing.assert_allclose(again.ipr[group], rep.ipr[group], rtol=1e-10)


# ------------------------------------- walked spectrum vs dense reference

def _dense_reference(dense, tol, flat_energy, cluster_tol, gap_exclusion):
    """chain_spectrum's summary from every eigenvector of a dense solve.

    Outside the excluded zone, eigenvalues within tol (chain_spectrum's
    EIGVEC_RESIDUAL_TOL * norm_1) of the first of a group, counted outward
    from flat_energy on each side, form one group; each of its rows gets
    the IPR and edge flag of the group's mean density."""
    w, v = np.linalg.eigh(dense)
    excluded = max(gap_exclusion, cluster_tol)
    ipr = np.full(w.size, np.nan)
    edge = np.zeros(w.size, dtype=bool)
    offset = w - flat_energy
    for side in (np.flatnonzero(offset > excluded),
                 np.flatnonzero(offset < -excluded)[::-1]):
        while side.size:
            group = side[np.abs(w[side] - w[side[0]]) <= tol]
            side = side[group.size:]
            density = (np.abs(v[:, group]) ** 2).mean(axis=1)
            ipr[group] = inverse_participation_ratio(density)
            edge[group] = _edge_mask(density)
    bulk = (np.abs(offset) > excluded) & ~edge
    return (w, ipr, edge, int((np.abs(w - flat_energy) <= cluster_tol).sum()),
            w[bulk & (w < flat_energy)].max(), w[bulk & (w > flat_energy)].min())


def _route_operator(p, route, size, box=12.0):
    """The chain of `size` cells, or the continuum on `size` points over
    [-box/kappa, box/kappa]."""
    if route == "chain":
        grid, stencil = _unit_grid(size), "saw"
    else:
        grid, stencil = Grid(-box / p.kappa, box / p.kappa, size), "central"
    return discretize(models.model_potential_components(p, grid), grid, stencil)


def _model_case(kind, mass, lam, route):
    p = ModelParams(kind, mass, lam)
    op = _route_operator(p, route, 100 if route == "chain" else 101)
    return op, lam, 1e-6, 0.1 * models.model_spectrum(p).gap_edge


def _ssh_case(end_potentials):
    chain = _uniform_chain(SSH, 60)
    if end_potentials:
        # lift the two zero modes apart (left mode on A_0, right on B_59)
        # so both are walked as distinct in-gap edge states
        chain.bands[2, 0] = 0.05
        chain.bands[2, 3 * 59 + 1] = 0.08
    return chain, 0.0, 1e-9, 1e-9


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
    op, flat, tol, excl = case()
    w, ipr, edge, count, edge_neg, edge_pos = _dense_reference(
        op.to_dense(), EIGVEC_RESIDUAL_TOL * norm_1(op), flat, tol, excl)
    rep = chain_spectrum(op, flat_energy=flat, cluster_tol=tol, gap_exclusion=excl)
    np.testing.assert_allclose(rep.eigenvalues, w, atol=1e-12)
    assert rep.cluster_count == count
    assert rep.gap_edge_neg == pytest.approx(edge_neg, abs=1e-12)
    assert rep.gap_edge_pos == pytest.approx(edge_pos, abs=1e-12)
    has = np.isfinite(rep.ipr)
    assert 2 <= has.sum() < w.size
    np.testing.assert_array_equal(rep.edge_state_mask[has], edge[has])
    np.testing.assert_allclose(rep.ipr[has], ipr[has], rtol=0, atol=1e-8)
    assert not rep.edge_state_mask[~has].any()


def _full_eigh_banded(m):
    """eigh_banded without deflation: one LAPACK solve of the whole matrix."""
    return scipy.linalg.eig_banded(m.bands, lower=False, eigvals_only=True)


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
    gap_exclusion = 0.1 * models.model_spectrum(p).gap_edge
    rep = chain_spectrum(op, flat_energy=lam, gap_exclusion=gap_exclusion)
    monkeypatch.setattr(lattice, "eigh_banded", _full_eigh_banded)
    full = chain_spectrum(op, flat_energy=lam, gap_exclusion=gap_exclusion)
    # sites left uncoupled are deflated, exactly lam: the chain's C sites far
    # from the kink, the continuum's third component where v13, v23 vanish
    assert (rep.eigenvalues == lam).sum() > (full.eigenvalues == lam).sum() + 40
    np.testing.assert_allclose(rep.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12)
    assert rep.cluster_count == full.cluster_count
    assert rep.gap_edge_neg == pytest.approx(full.gap_edge_neg, rel=0, abs=1e-12)
    assert rep.gap_edge_pos == pytest.approx(full.gap_edge_pos, rel=0, abs=1e-12)
    np.testing.assert_array_equal(np.isnan(rep.ipr), np.isnan(full.ipr))
    np.testing.assert_array_equal(rep.edge_state_mask, full.edge_state_mask)


@pytest.mark.parametrize("kind,mass,lam", [(ModelKind.I, 0.07, 0.0),
                                           (ModelKind.II, 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_continuum_gauge_changes_no_result_beyond_rounding(kind, mass, lam):
    # discretize stores D^H H D with D = diag(1, i, i) per point, in real
    # bands; a dense solve of the ungauged complex H must give the same report
    p = ModelParams(kind, mass, lam)
    gap_exclusion = 0.1 * models.model_spectrum(p).gap_edge
    grid = Grid(-12.0 / p.kappa, 12.0 / p.kappa, 301)
    comps = models.model_potential_components(p, grid)
    gauged = discretize(comps, grid, "central")
    stack = comps.matrix_stack()
    assert gauged.bands.dtype == np.float64
    hop = -1j / (2 * grid.h) * GAMMA  # the block from point i to point i + 1
    n = grid.n_points
    h = (scipy.linalg.block_diag(*stack) + np.kron(np.eye(n, k=1), hop)
         + np.kron(np.eye(n, k=-1), hop.conj().T))
    w, ipr, edge, count, edge_neg, edge_pos = _dense_reference(
        h, EIGVEC_RESIDUAL_TOL * norm_1(gauged), lam, 1e-6, gap_exclusion)
    rep = chain_spectrum(gauged, flat_energy=lam, cluster_tol=1e-6,
                         gap_exclusion=gap_exclusion)
    scale = np.abs(h).sum(axis=1).max()
    np.testing.assert_allclose(rep.eigenvalues, w, rtol=0, atol=1e-12 * scale)
    assert rep.cluster_count == count
    assert rep.gap_edge_neg == pytest.approx(edge_neg, abs=1e-12)
    assert rep.gap_edge_pos == pytest.approx(edge_pos, abs=1e-12)
    # each walked group: the IPR and edge flag of its mean |v|^2
    has = np.isfinite(rep.ipr)
    assert has.sum() >= 2
    np.testing.assert_array_equal(rep.edge_state_mask[has], edge[has])
    np.testing.assert_allclose(rep.ipr[has], ipr[has], rtol=0, atol=1e-12)

