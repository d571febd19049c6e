"""Unit tests for the Darboux transformation engine."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susychain import cli, continuum, susy
from susychain.checks import frame_report, smooth_test_states
from susychain.continuum import apply_dirac
from susychain.errors import NumericalError, SingularFrameError
from susychain.lattice import chain_spectrum
from susychain.models import ModelKind, ModelParams, model_potential_components
from susychain.numcore import Grid, diff_central, quad_roots
from susychain.susy import (
    SeedData,
    TransformationFrame,
    _adjugate3,
    apply_darboux,
    assemble_frame,
    commutator_potential,
    darboux_kernel,
    dual_path_difference,
    frame_eigen_residuals,
    frame_factor,
    hermiticity_asymmetry,
    intertwining_residual,
    partner_route,
    seed_components,
    transformed_potential,
)

from reference import (
    integrate_cumulative,
    inverse_dagger_states,
    join_spinor,
    potential_matrix,
    seed_columns,
    split_spinor,
    to_gauge,
)

# a frame known to be regular on the whole line; a generic c0 can give q(t)
# a root in (-1, 1), a pole, which assemble_frame refuses
SEED = ModelParams(ModelKind.I, 0.3, 0.06).seed_data()
GRID = Grid(-20.0, 20.0, 801)


def _frame(seed=SEED, grid=GRID):
    return assemble_frame(seed, grid)


# the complex (3, 3, n) frame stacks, built here from the frame's real
# arrays as references: Uhat = diag(i, 1, 1) F, Uhat^{-1} by the adjugate
# over det Uhat = i*det, and U^{-1} = G^{-1} Uhat^{-1}

def _uhat(frame):
    return np.array([1j, 1.0, 1.0])[:, None, None] * frame.f


def _uhat_inv(frame):
    return _adjugate3(_uhat(frame)) / (1j * frame.det)


def _u_inv(frame):
    return _uhat_inv(frame) * np.exp(-frame.log_g)[:, None, :]


# the complex operators of the paper's gauge, reached through the real parts
# of a complex spinor

def _dirac(v, psi, grid):
    return join_spinor(apply_dirac(v, split_spinor(psi), grid))


def _darboux(frame, psi):
    return join_spinor(apply_darboux(frame, split_spinor(psi)))


def _diff(psi, grid):
    # diff_central on each real part of a complex array
    return diff_central(psi.real, grid) + 1j * diff_central(psi.imag, grid)


# --------------------------------------------------------- seed data

def test_seed_data_validation():
    with pytest.raises(NumericalError):
        SeedData(mass=0.1, flat_energy=0.1, gauge_a=0.2)
    with pytest.raises(NumericalError):
        SeedData(mass=0.1, flat_energy=-0.1, gauge_a=0.2)
    with pytest.raises(NumericalError):
        # kappa0^2 = a^2 + m^2 - lam^2 <= 0
        SeedData(mass=0.1, flat_energy=0.3, gauge_a=0.1)
    # squaring 1e200 in kappa0_sq would overflow; nan would pass every
    # later comparison
    for field in ("mass", "flat_energy", "gauge_a"):
        for value in (1e200, -1.1e100, np.inf, np.nan):
            kwargs = dict(mass=0.3, flat_energy=0.1, gauge_a=0.4)
            kwargs[field] = value
            with pytest.raises(NumericalError, match=field):
                SeedData(**kwargs)
    assert SeedData(mass=1e100, flat_energy=0.0, gauge_a=-1e100).kappa0 > 0.0


def test_kappa0():
    s = SeedData(mass=0.3, flat_energy=0.1, gauge_a=0.4)
    assert s.kappa0 == pytest.approx(np.sqrt(0.16 + 0.09 - 0.01))


@pytest.mark.parametrize("seed", [ModelParams(ModelKind.I, 0.2, -0.1).seed_data(),
                                  ModelParams(ModelKind.II, 0.1, 0.05).seed_data(),
                                  SeedData(mass=0.07, flat_energy=0.01, gauge_a=0.05, c0=50.0)],
                         ids=["model_I", "model_II", "general"])
def test_gap_edge_is_the_threshold_of_v_new_at_both_walls(seed):
    # V_new decouples far from the kink, to a constant potential whose
    # bands start at hypot(v11, v12): that is the seed's hypot(mass, gauge_a)
    v = transformed_potential(assemble_frame(seed, Grid(-200.0, 200.0, 801)))
    for i in (0, -1):
        assert abs(v.v13[i]) + abs(v.v23[i]) < 1e-12
        assert np.hypot(v.v11[i], v.v12[i]) == pytest.approx(seed.gap_edge, rel=1e-12)


# --------------------------------------------------- seed eigenstates

def test_frame_columns_are_seed_eigenstates():
    # the analytic closed forms must satisfy H u = E u with the stencil
    # residual shrinking at second order; Uhat's column 0, (-i*m, A, 0), is
    # constant, so its residual is rounding alone
    res_c = frame_eigen_residuals(_frame())
    res_f = frame_eigen_residuals(_frame(grid=GRID.refined()))
    assert max(res_c) < 1e-4
    assert max(res_c[0], res_f[0]) < 1e-15
    for rc, rf in zip(res_c[1:], res_f[1:]):
        assert np.log2(rc / rf) > 1.9


def test_eigen_residuals_on_uhat_match_those_on_u_columns():
    # (H - E_j)(Uhat_j G_j) = G_j (H - E_j - i*gamma*(log G_j)') Uhat_j: on a
    # box where U stays small, the residual on U's columns over G_j and the
    # one on Uhat_j are both O(h^2) = 1e-6 here, and differ by less
    fr = _frame(grid=Grid(-3.0, 3.0, 601))
    v_seed = seed_components(SEED)
    energies = (SEED.mass, SEED.flat_energy, SEED.flat_energy)
    for j, (col, e, res) in enumerate(zip(seed_columns(fr), energies,
                                          frame_eigen_residuals(fr))):
        on_u = (_dirac(v_seed, col, fr.grid) - e * col) / np.exp(fr.log_g[j])
        scale = 1.0 + np.abs(fr.f[:, j]).max()
        assert res < 1e-5 and abs(np.abs(on_u).max() / scale - res) < 1e-6


def _uhat_eigen_residuals(fr, energies):
    # frame_eigen_residuals' bracket (H - E_j - i*gamma*(log G_j)') Uhat_j
    # at chosen energies
    v_seed = seed_components(fr.seed)
    res = []
    for j, (rate, e) in enumerate(zip(fr.log_g_rate, energies)):
        col = _uhat(fr)[:, j]
        r = _dirac(v_seed, col, fr.grid) - e * col
        r[:2] -= 1j * rate * col[1::-1]
        res.append(float(np.abs(r).max() / (1.0 + np.abs(col).max())))
    return res


def test_negative_control_off_energy_breaks_the_eigen_residual_order():
    # the bracket reads frame_eigen_residuals' bits at the seed's energies;
    # with each E_j off by 1e-3*|E_j| it stops shrinking with h
    s = SEED
    exact = (s.mass, s.flat_energy, s.flat_energy)
    frames = _frame(), _frame(grid=GRID.refined())
    for fr in frames:
        assert _uhat_eigen_residuals(fr, exact) == frame_eigen_residuals(fr)
    off = [e * (1.0 + 1e-3) for e in exact]
    res_c, res_f = (_uhat_eigen_residuals(fr, off) for fr in frames)
    assert np.log2(max(res_c) / max(res_f)) < 0.5
    for rc, rf in zip(res_c, res_f):
        assert np.log2(rc / rf) < 1.0


def test_wronskian_constant_semantics():
    # phi2*psi1 - phi1*psi2 is constant in x on U's columns and equals
    # 1/(m - lambda); on Uhat's, which are U's over cosh, it is that
    # constant times sech^2 = 1 - t^2
    fr = _frame()
    want = 1.0 / (SEED.mass - SEED.flat_energy)
    (_, psi1, psi2), (_, phi1, phi2), _ = fr.f
    np.testing.assert_allclose(phi2 * psi1 - phi1 * psi2, want * (1.0 - fr.t**2),
                               rtol=0.0, atol=1e-14)
    u = seed_columns(fr).T  # (n, 3, 3); its first row carries the factor i
    w = (u[:, 1, 2] * u[:, 0, 1] - u[:, 1, 1] * u[:, 0, 2]) / 1j
    # pointwise agreement is limited by cosh*cosh cancellation at the
    # box walls; the relative stdev is the tighter invariant
    np.testing.assert_allclose(w.real, want, rtol=1e-8)
    assert fr.wronskian_relative_stdev < 1e-9


@pytest.mark.parametrize("kind", [ModelKind.I, ModelKind.II])
@pytest.mark.parametrize("mass", [7.0, 9.0])
def test_wronskian_constancy_holds_on_wide_boxes(kind, mass):
    # U's products phi2*psi1 and phi1*psi2 would reach ~1e170 here; Uhat's
    # stay bounded and are exact to their rounding scale, while a 1e-6
    # error in psi1 still shows
    fr = assemble_frame(ModelParams(kind, mass, 0.0).seed_data(), GRID)
    assert fr.wronskian_relative_stdev < 1e-10
    uhat0, uhat1 = fr.uhat0.copy(), fr.uhat1.copy()
    uhat0[0, 1] *= 1.0 + 1e-6  # psi1
    uhat1[0, 1] *= 1.0 + 1e-6
    bad = replace(fr, uhat0=uhat0, uhat1=uhat1)
    assert bad.wronskian_relative_stdev > 1e-10


def test_analytic_derivatives_match_stencil():
    # dU/dx = diag(i, 1, 1) df G against the stencil on U's samples
    fr = _frame()
    du = np.array([1j, 1.0, 1.0])[:, None, None] * fr.df * np.exp(fr.log_g)
    num = _diff(seed_columns(fr).swapaxes(0, 1), GRID)  # U's rows
    for i, j in np.ndindex(3, 3):
        scale = 1.0 + np.abs(du[i, j]).max()
        assert np.abs(num[i, j] - du[i, j]).max() / scale < 1e-3, (i, j)


def test_xi1_closed_form_vs_quadrature():
    # xi1 = -xi2 * w * Integral dx/xi2^2 with w = (m - lambda) times the
    # actual Wronskian constant; the frame takes the integral in closed
    # form, the trapezoid here
    cols = seed_columns(_frame())
    xi1, xi2 = cols[1, 2].real, cols[2, 2].real
    w = (SEED.mass - SEED.flat_energy) * SEED.wronskian_constant
    numeric = -xi2 * w * integrate_cumulative(1.0 / xi2**2, GRID)
    np.testing.assert_allclose(numeric, xi1, atol=1e-6 * (1 + np.abs(xi1).max()))


# ------------------------------------------------ transformed potential

def test_transformed_potential_hermitian():
    stack = transformed_potential(_frame()).gauge()
    assert hermiticity_asymmetry(stack) < 1e-12
    # a complex V is refused: G - G^T is not V - V^dag there
    with pytest.raises(NumericalError, match="takes real arrays"):
        hermiticity_asymmetry(stack + 0j)


def test_dual_path_agreement():
    fr = _frame()
    assert dual_path_difference(fr, commutator_potential(fr)) < 1e-9


class _RealNumpy:
    """numpy as a module under test sees it: a call that takes or returns a
    complex array fails."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            for a in (*args, *kwargs.values(), out):
                assert not _holds_complex(a), f"np.{name} met a complex array"
            return out
        return call


def _holds_complex(a):
    if isinstance(a, (list, tuple)):
        return any(map(_holds_complex, a))
    return isinstance(a, (np.ndarray, np.generic, complex)) and np.iscomplexobj(a)


def test_commutator_route_forms_no_complex_array(monkeypatch):
    # the commutator form, its Hermiticity and the dual path, from a frame
    # built with nothing cached, in real arithmetic: every numpy call that
    # susy and continuum make refuses a complex array
    fr = _frame()
    uhat0, uhat1 = fr.uhat0.copy(), fr.uhat1.copy()
    uhat0[2, 1], uhat1[2, 1] = uhat0[2, 2], uhat1[2, 2]
    broken = replace(fr, uhat0=uhat0, uhat1=uhat1)
    for module in (susy, continuum):
        monkeypatch.setattr(module, "np", _RealNumpy())
    stack = commutator_potential(fr)
    assert stack.dtype == np.float64 and stack.shape == (GRID.n_points, 3, 3)
    assert hermiticity_asymmetry(stack) < 1e-12
    assert dual_path_difference(fr, stack) < 1e-9
    assert hermiticity_asymmetry(commutator_potential(broken)) > 1e-4


def test_negative_control_breaks_commutator_hermiticity():
    # replacing xi1 by xi2 (in both of Uhat's constants) violates the
    # hermitization condition; the commutator construction must detect it,
    # also when the original frame has already cached its F^{-1}
    fr = _frame()
    commutator_potential(fr)
    uhat0, uhat1 = fr.uhat0.copy(), fr.uhat1.copy()
    uhat0[2, 1], uhat1[2, 1] = uhat0[2, 2], uhat1[2, 2]
    broken = replace(fr, uhat0=uhat0, uhat1=uhat1)
    assert not np.array_equal(broken.f_inv, fr.f_inv)
    assert hermiticity_asymmetry(commutator_potential(broken)) > 1e-4


# --------------------------------------- frame against the closed forms

def _closed_form_uhat(s, t):
    # the rows of Uhat without the factor i, each entry the closed form
    # a + t*b of its column (psi_a = (phi_a' + A*phi_a)/(m - lambda), phi1
    # by reduction of order, xi1 hermitizing) in the frame's operation
    # order; the bitwise reference for frame.f
    m, a, k0, c0 = s.mass, s.gauge_a, s.kappa0, s.c0
    d = s.mass - s.flat_energy
    const, zero = np.ones_like(t), np.zeros_like(t)
    return np.array([
        [-m * const, (1 + a * c0) / d + t * ((k0 * c0 + a / k0) / d),
         a / d + t * (k0 / d)],
        [a * const, c0 + t * (1 / k0), const],
        [zero, zero + t * (-1 / k0), const],
    ])


def _reference_frame_samples(s, x):
    # every sample of U as one closed form per function, as the frame
    # sampled U before it sampled Uhat: psi1 divides by cosh where dphi1
    # multiplies by sech, and w is not simplified to 1. Returns the rows
    # of U without the factor i, the rows of dU/dx, and det U / i
    m, a, k0, c0 = s.mass, s.gauge_a, s.kappa0, s.c0
    denom = s.mass - s.flat_energy
    w = (s.mass - s.flat_energy) * s.wronskian_constant
    ch, sh, th = np.cosh(k0 * x), np.sinh(k0 * x), np.tanh(k0 * x)
    sech = 1.0 / ch
    phi1 = ch * (th / k0 + c0)
    dphi1 = sh * (th + k0 * c0) + sech
    psi0 = -m * np.exp(-a * x)
    phi0 = a * np.exp(-a * x)
    psi1 = (sh * (th + k0 * c0) + 1 / ch + a * phi1) / denom
    psi2 = (k0 * sh + a * ch) / denom
    xi1 = ch * (-w * th / k0)
    zero = np.zeros_like(x)
    f = [[psi0, psi1, psi2], [phi0, phi1, ch], [zero, xi1, ch]]
    df = [[a * m * np.exp(-a * x), (k0**2 * phi1 + a * dphi1) / denom,
           (k0**2 * ch + a * (k0 * sh)) / denom],
          [-(a**2) * np.exp(-a * x), dphi1, k0 * sh],
          [zero, k0 * sh * (-w * th / k0) - w * sech, k0 * sh]]
    det = psi0 * (phi1 * ch - ch * xi1) - phi0 * (psi1 * ch - psi2 * xi1)
    return np.array(f), np.array(df), det


def _sup_rel(got, want):
    # per function: max |got - want| over max |want|
    return max(np.abs(g - w).max() / np.abs(w).max()
               for g, w in zip(got.reshape(-1, got.shape[-1]),
                               want.reshape(-1, want.shape[-1])) if w.any())


# Models I and II, and the general seed of the CLI's susy tests
FRAME_SEEDS = [
    ModelParams(ModelKind.I, 0.07, 0.0).seed_data(),
    ModelParams(ModelKind.II, 0.1, 0.05).seed_data(),
    SeedData(mass=0.3, flat_energy=0.1, gauge_a=0.2, c0=-20.0),
]


@pytest.mark.parametrize("seed", FRAME_SEEDS)
@pytest.mark.parametrize("grid", [GRID, Grid(-7.5, 12.0, 1201)])
def test_frame_samples_match_closed_forms_bitwise(seed, grid):
    fr = assemble_frame(seed, grid)
    t = np.tanh(seed.kappa0 * grid.x)
    assert _same_bits(fr.t, t)
    assert _same_bits(fr.f, _closed_form_uhat(seed, t))
    # U = Uhat * G and dU/dx = diag(i, 1, 1) df G against the old formulas; each
    # determinant, a sum of products of three samples, rounds a few times more
    f, df, det = _reference_frame_samples(seed, grid.x)
    g = np.exp(fr.log_g)
    assert _sup_rel(fr.f * g, f) < 1e-15
    assert _sup_rel(fr.df * g, df) < 1e-15
    assert _sup_rel(fr.det * g.prod(axis=0), det) < 4e-15
    # det Uhat / i is q(t)
    q = np.polyval(np.array(frame_factor(seed)[2]), t)
    assert np.abs(fr.det / q - 1.0).max() < 4e-15


# --------------------------------------------------------- column gauge

def _potentials(fr):
    return transformed_potential(fr).gauge(), commutator_potential(fr)


def _right_factor_gap(seed, c):
    # each route's largest change, relative to 1 + max|V_new|, when the frame
    # of U is swapped for the frame of U*C, C a constant 3x3 right factor
    fr = assemble_frame(seed, GRID)
    moved = replace(fr, uhat0=fr.uhat0 @ c, uhat1=fr.uhat1 @ c)
    return [np.abs(b - a).max() / (1.0 + np.abs(a).max())
            for a, b in zip(_potentials(fr), _potentials(moved))]


@pytest.mark.parametrize("seed", FRAME_SEEDS)
def test_flat_level_column_gauge_leaves_v_new_alone(seed):
    # C mixes only columns 1 and 2, which share the energy lambda and the
    # scale cosh(kappa0*x): L = U d/dx U^{-1} and V_new do not see it, so
    # the seed needs no constant beyond c0
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.7, 0.0], [0.0, -0.4, 1.0]])
    assert max(_right_factor_gap(seed, c)) < 1e-14


@pytest.mark.parametrize("seed", FRAME_SEEDS)
def test_negative_control_mixing_column_0_moves_v_new(seed):
    # column 0 sits at energy mass with scale e^{-Ax}: mixing it into
    # column 1 is no gauge, and both routes see it
    c = np.eye(3)
    c[0, 1] = 0.3
    assert min(_right_factor_gap(seed, c)) > 1e-5


# ---------------------------------------------------------- frame cache

def _adjugate3_by_minors(u):
    # the adjugate through fancy-indexed 2x2 minor copies, kept as the
    # reference for susy._adjugate3
    adj = np.empty_like(u)
    for i in range(3):
        for j in range(3):
            r = [a for a in range(3) if a != j]
            c = [b for b in range(3) if b != i]
            minor = u[r][:, c]
            cof = minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            adj[i, j] = (-1) ** (i + j) * cof
    return adj


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_adjugate3_matches_minor_reference_bitwise():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
    u[:5] = 0.0
    u[5:10] *= 1e-160  # cofactors underflow to signed zeros
    # the same 40 matrices as a (3, 3, 40) array, the real F that F^{-1}
    # takes, and the complex Uhat and U
    fr = _frame()
    stacks = [u.transpose(1, 2, 0), fr.f, _uhat(fr), seed_columns(fr).swapaxes(0, 1),
              seed_columns(_frame(grid=Grid(-3.0, 3.0, 31))).swapaxes(0, 1)]
    for stack in stacks:
        assert _same_bits(_adjugate3(stack), _adjugate3_by_minors(stack))


def test_frame_cache_matches_per_call_recomputation():
    fr = _frame()
    f = _gaussian_states(fr.grid.x)[0]
    # replace() with no changes is a frame with an empty cache, so each
    # right-hand side recomputes F, det and F^{-1} from the constants; the
    # second pass reads fr's cache
    for _ in range(2):
        assert _same_bits(apply_darboux(fr, f), apply_darboux(replace(fr), f))
        assert _same_bits(commutator_potential(fr),
                          commutator_potential(replace(fr)))
        for name in ("f", "det", "f_inv", "df"):
            assert _same_bits(getattr(fr, name), getattr(replace(fr), name))
        fresh = transformed_potential(replace(fr))
        for c in ("v11", "v12", "v13", "v23"):
            assert _same_bits(getattr(transformed_potential(fr), c), getattr(fresh, c))
    for name in ("f", "det", "f_inv"):
        assert getattr(fr, name) is getattr(fr, name)
    assert transformed_potential(fr) is transformed_potential(fr)
    # df is built on each access, not cached
    assert fr.df is not fr.df


def test_frame_cache_is_read_only():
    fr = _frame()
    comps = transformed_potential(fr)
    for stack in (fr.f, fr.f_inv):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        fr.det[0] = 1.0
    for arr in (comps.v11, comps.v12, comps.v13, comps.v23):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_potential_decays_to_asymptotic_constants():
    comps = transformed_potential(_frame())
    # inter-chain couplings vanish at both walls
    for arr in (comps.v13, comps.v23):
        assert abs(arr[0]) < 1e-6 and abs(arr[-1]) < 1e-6


def test_seed_potential_matrix_hermitian():
    # real symmetric in apply_dirac's gauge: Hermitian as P^{-1} V P
    v = seed_components(SEED).gauge()
    assert v.dtype == np.float64 and np.array_equal(v, v.T)
    assert np.array_equal(v, to_gauge(potential_matrix(seed_components(SEED))))


# ------------------------------------------------------- intertwining

def _gaussian_states(x):
    # two Gaussian-enveloped spinors sampled on x: a (2, 3, len(x)) array
    width = 0.1 * (x[-1] - x[0])
    env = np.exp(-((x / width) ** 2))
    waves = np.cos(np.array([1.0, 2.0])[:, None] * x / width)
    weights = np.array([(1.0, 0.4, -0.3), (-0.2, 1.0, 0.5)])
    return weights[:, :, None] * env * waves[:, None, :]


def test_intertwining_second_order():
    fr = _frame(grid=Grid(-15.0, 15.0, 301))
    residuals, orders = intertwining_residual(fr, _gaussian_states, n_levels=3)
    assert residuals.shape == (2, 3)
    assert orders.min() > 1.9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_intertwining_residual_rejects_an_overflowing_stencil():
    # on a box of half-width 1e-300 the stencil's 1/(2h) overflows
    fr = _frame(grid=Grid(-1e-300, 1e-300, 201))
    with pytest.raises(NumericalError, match=r"not finite at grid spacing h=1e-302"):
        intertwining_residual(fr, _gaussian_states, n_levels=2)


# the level loop and the two operator actions as they were before each
# level's frame, V_new and test states were released before the next level:
# all complex test states at once, out-of-place kinetic term and adjugate
# division, and 2-D real-by-complex products in L's stencil; the operators
# act on complex spinors, with the stencil taken on each real part

def _apply_dirac_ref(v, f, grid):
    f = np.asarray(f, dtype=complex)
    v = np.asarray(v, dtype=complex)
    out = v @ f if v.ndim == 2 else np.einsum("nij,jn->in", v, f)
    kinetic = -1j * _diff(f, grid)
    out[:2] += kinetic[1::-1]
    return out


def _apply_darboux_ref(frame, f):
    z = np.einsum("ijn,jn->in", _uhat_inv(frame), np.asarray(f, dtype=complex))
    up, down = np.exp(-np.diff(frame.log_g)), np.exp(np.diff(frame.log_g))
    d = np.empty_like(z)
    d[:, 0] = -3 * z[:, 0] + up[:, 0] * (4 * z[:, 1] - up[:, 1] * z[:, 2])
    d[:, -1] = 3 * z[:, -1] - down[:, -1] * (4 * z[:, -2] - down[:, -2] * z[:, -3])
    np.multiply(up[:, 1:], z[:, 2:], out=d[:, 1:-1])
    z[:, :-2] *= down[:, :-1]
    d[:, 1:-1] -= z[:, :-2]
    d.view(np.float64)[:] *= 1.0 / (2 * frame.grid.h)
    return np.einsum("ijn,jn->in", _uhat(frame), d)


def _intertwining_residual_ref(frame, states, n_levels):
    residuals, g = [], frame.grid
    v_seed = potential_matrix(seed_components(frame.seed))
    for i in range(n_levels):
        fr = frame if i == 0 else assemble_frame(frame.seed, g)
        v_new = potential_matrix(transformed_potential(fr))
        level = []
        for f in np.asarray(states(g.x), dtype=complex):
            lhs = _apply_darboux_ref(fr, _apply_dirac_ref(v_seed, f, g))
            rhs = _apply_dirac_ref(v_new, _apply_darboux_ref(fr, f), g)
            level.append(np.abs(lhs - rhs).max())
        residuals.append(level)
        g = g.refined()
    residuals = np.array(residuals).T
    return residuals, np.log2(residuals[:, :-1] / residuals[:, 1:])


# Models I and II, and the general seed of the CLI's susy tests
LEVEL_SEEDS = {
    "model_I": ModelParams(ModelKind.I, 0.07, 0.0).seed_data(),
    "model_II": ModelParams(ModelKind.II, 0.1, 0.05).seed_data(),
    "general": SeedData(mass=0.3, flat_energy=0.06, gauge_a=0.26832815729997476, c0=-20.0),
}


@pytest.mark.parametrize("n_levels", [2, 3])
@pytest.mark.parametrize("name", LEVEL_SEEDS)
def test_intertwining_residual_matches_reference_loop_bitwise(name, n_levels):
    fr = assemble_frame(LEVEL_SEEDS[name], Grid(-20.0, 20.0, 401))
    want = _intertwining_residual_ref(fr, smooth_test_states, n_levels)
    got = intertwining_residual(replace(fr), smooth_test_states, n_levels)
    for a, b in zip(got, want):
        assert _same_bits(a, b)
    # the cached F^{-1} is untouched by the run
    assert _same_bits(fr.f_inv, replace(fr).f_inv)


@pytest.mark.parametrize("name", LEVEL_SEEDS)
def test_real_frame_factors_match_complex_stacks_bitwise(name):
    # apply_darboux with real F^{-1} and F against the complex Uhat^{-1} and
    # Uhat, and apply_dirac on V_new's components against its complex stack
    fr = assemble_frame(LEVEL_SEEDS[name], Grid(-20.0, 20.0, 401))
    g, comps = fr.grid, transformed_potential(fr)
    stack = potential_matrix(comps)
    rng = np.random.default_rng(29)
    real = rng.standard_normal((3, g.n_points))
    spinors = [real, real + 1j * rng.standard_normal((3, g.n_points)),
               *smooth_test_states(g.x)]
    for f in spinors:
        assert _same_bits(_darboux(fr, f), _apply_darboux_ref(fr, f))
        assert _same_bits(_dirac(comps, f, g), _apply_dirac_ref(stack, f, g))
    # Uhat^{-1} = F^{-1} diag(-i, 1, 1), up to the sign of a zero
    assert np.array_equal(fr.f_inv * np.array([-1j, 1.0, 1.0])[:, None], _uhat_inv(fr))
    assert not fr.f_inv.flags.writeable and fr.f_inv is fr.f_inv


def _traced_peak(call):
    """Peak of traced allocations during call(), above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("p,n_points,n_levels", [
    (ModelParams(ModelKind.I, 0.07, 0.0), 1201, 3),
    (ModelParams(ModelKind.II, 0.1, 0.05), 2001, 2)])
def test_intertwining_residual_holds_one_level_at_a_time(p, n_points, n_levels):
    # the finest level's frame with its real F^{-1}, V_new's components,
    # real test states and one state's two real parts and operator products
    # come to ~538 B a point of the finest grid (Model I; 554 for Model II),
    # 545 and 561 with complex operator products; complex Uhat, Uhat^{-1}
    # and V_new stacks read 907, and keeping the coarser level and all
    # complex test states alive too read 1075 (Model I) and 1107 (Model II).
    # The first call fills the coarsest frame's cache
    fr = assemble_frame(p.seed_data(), Grid(-20.0, 20.0, n_points))
    intertwining_residual(fr, smooth_test_states, n_levels)
    peak = _traced_peak(lambda: intertwining_residual(fr, smooth_test_states, n_levels))
    finest = (n_points - 1) * 2 ** (n_levels - 1) + 1
    assert peak / finest < 650.0


@pytest.mark.parametrize("p,n_points,n_levels", [
    (ModelParams(ModelKind.I, 0.07, 0.0), 1201, 3),
    (ModelParams(ModelKind.II, 0.1, 0.05), 2001, 2)])
def test_frame_report_holds_no_more_than_its_intertwining_test(p, n_points, n_levels):
    # the report builds the commutator form and the oracle on the coarsest
    # grid only after the intertwining test's finest level has died, so its
    # peak is the test's (2.58 and 2.21 MB), give or take a few hundred bytes
    # of Python objects; a commutator stack kept alive through the test
    # would add 144 B a coarse point (173 kB at 1201)
    fr = assemble_frame(p.seed_data(), Grid(-20.0, 20.0, n_points))
    frame_report(fr, n_levels, p)
    alone = _traced_peak(lambda: intertwining_residual(fr, smooth_test_states, n_levels))
    assert _traced_peak(lambda: frame_report(fr, n_levels, p)) <= alone + 4096


def test_darboux_annihilates_frame_columns():
    # on Uhat: L U_j / G_j = L_j Uhat_j, L_j = G_j^{-1} L G_j
    fr = _frame()
    assert max(darboux_kernel(fr)) < 1e-8
    # on U's own columns, with U^{-1} U_j = e_j to rounding
    for col in seed_columns(fr):
        out = _darboux(fr, col)
        scale = 1.0 + np.abs(col).max()
        assert np.abs(out).max() / scale < 1e-8


def test_negative_control_unshifted_kernel_reads_the_rate_of_g():
    # without the shift by log G_j, L acts on Uhat_j as on U_j / G_j: it
    # returns -(log G_j)' Uhat_j, of size kappa0 (A for column 0), not 0
    fr = _frame()
    s = SEED
    for j, scale in enumerate((abs(s.gauge_a), s.kappa0, s.kappa0)):
        col = fr.f[:, j]
        out = np.abs(apply_darboux(fr, col)).max()
        assert out > 0.1 * scale * np.abs(col).max()


def test_apply_darboux_rejects_complex_input():
    # its states are real, x for psi = diag(i, 1, 1) x: a float cast of a
    # complex one would keep the real part alone
    fr = _frame()
    with pytest.raises(NumericalError, match="real"):
        apply_darboux(fr, _uhat(fr)[:, 1])


def test_darboux_intertwines_on_eigenstate():
    # L maps the epsilon seed state to (numerically) zero, so H_new L u0
    # = epsilon L u0 holds trivially; check instead on a generic state
    fr = _frame()
    f = _gaussian_states(fr.grid.x)[0]
    v_seed = seed_components(SEED)
    v_new = transformed_potential(fr)
    lhs = apply_darboux(fr, apply_dirac(v_seed, f, fr.grid))
    rhs = apply_dirac(v_new, apply_darboux(fr, f), fr.grid)
    interior = slice(10, -10)
    scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
    assert np.abs(lhs - rhs)[:, interior].max() / scale < 1e-3


def _seed_operator_rows(s, f, grid):
    # the seed operator written out row by row, kept as a reference
    df = _diff(f, grid)
    m, a, lam = s.mass, s.gauge_a, s.flat_energy
    out = np.empty_like(f)
    out[0] = m * f[0] - 1j * (df[1] + a * f[1])
    out[1] = -1j * (df[0] - a * f[0]) - m * f[1]
    out[2] = lam * f[2]
    return out


def _transformed_operator_rows(c, f, grid):
    # -i*gamma*d/dx + V_new written out row by row, kept as a reference
    df = _diff(f, grid)
    lam = c.flat_energy
    out = np.empty_like(f)
    out[0] = c.v11 * f[0] - 1j * c.v12 * f[1] - 1j * c.v13 * f[2] - 1j * df[1]
    out[1] = 1j * c.v12 * f[0] - c.v11 * f[1] + c.v23 * f[2] - 1j * df[0]
    out[2] = 1j * c.v13 * f[0] + c.v23 * f[1] + lam * f[2]
    return out


def test_apply_dirac_matches_row_by_row_operators():
    fr = _frame()
    g = fr.grid
    rng = np.random.default_rng(21)
    s = SEED
    comps = transformed_potential(fr)
    # the seed potential is the constant V with v12 = A, here in apply_dirac's gauge
    assert np.array_equal(seed_components(s).gauge(), [[s.mass, -s.gauge_a, 0.0],
                                                       [-s.gauge_a, -s.mass, 0.0],
                                                       [0.0, 0.0, s.flat_energy]])
    for _ in range(3):
        f = rng.normal(size=(3, g.n_points)) + 1j * rng.normal(size=(3, g.n_points))
        pairs = [
            (_dirac(seed_components(s), f, g), _seed_operator_rows(s, f, g)),
            (_dirac(comps, f, g), _transformed_operator_rows(comps, f, g)),
        ]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frame_just_inside_the_double_range_stays_finite():
    # U^{-1}, which the reference states (U^{-1})^dag build, stays finite
    # while (2*kappa0 + A)*20 < log(max double) = 709.8: 689 at m = 9
    for kind in ModelKind:
        p = ModelParams(kind, 9.0, 0.0)
        fr = assemble_frame(p.seed_data(), GRID)
        assert np.isfinite(inverse_dagger_states(fr)[0]).all()  # U^{-1}'s rows
        assert np.isfinite(frame_eigen_residuals(fr)).all()
        stack = transformed_potential(fr).gauge()
        oracle = model_potential_components(p, GRID).gauge()
        assert np.abs(stack - oracle).max() < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", list(ModelKind))
def test_frame_past_the_double_range_of_u_matches_model_potential(kind):
    # (2*kappa0 + A)*20 = 727 at m = 9.5, where U leaves the double range;
    # the potential, the commutator route, L and the checks on U's columns
    # read only Uhat
    p = ModelParams(kind, 9.5, 0.0)
    fr = assemble_frame(p.seed_data(), GRID)
    stack = transformed_potential(fr).gauge()
    oracle = model_potential_components(p, GRID).gauge()
    bound = 1e-8 * (1.0 + np.abs(oracle).max())
    assert np.abs(stack - oracle).max() <= bound
    assert dual_path_difference(fr, commutator_potential(fr)) <= bound
    residuals, _ = intertwining_residual(fr, _gaussian_states, n_levels=2)
    assert np.isfinite(residuals).all()
    assert np.isfinite(frame_eigen_residuals(fr)).all()
    assert max(darboux_kernel(fr)) <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_darboux_kernel_stays_at_rounding_on_a_wide_box():
    # at box 400, (2*kappa0 + A)*400 = 1419: U's columns reach 5e230, and L
    # on them, taken to rounding of U^{-1} U_j's unit vector, reads 1e216;
    # L_j on Uhat_j reads rounding alone
    p = ModelParams(ModelKind.I, 1.0, 0.2)
    fr = assemble_frame(p.seed_data(), Grid(-400.0, 400.0, 2001))
    on_u = max(np.abs(_darboux(fr, col)).max() for col in seed_columns(fr))
    assert on_u > 1e200
    assert max(darboux_kernel(fr)) <= 1e-8


# ------------------------------------------------------------ poles

def test_golden_general_seed_of_old_has_a_pole_at_x_minus_1_23():
    # q's root t = -0.40254 is the pole x = atanh(t)/kappa0 = -1.2317,
    # named whether or not the box reaches it
    seed = SeedData(mass=0.3, flat_energy=0.1, gauge_a=0.2)
    for grid in (Grid(-20.0, 20.0, 2001), Grid(-8.0, 8.0, 201), Grid(-1.0, 1.0, 51)):
        with pytest.raises(SingularFrameError, match=r"x=-1\.2317") as err:
            assemble_frame(seed, grid)
        assert err.value.x == pytest.approx(-1.231717912305, abs=1e-9)


def test_root_at_the_end_of_the_line_is_no_pole():
    # A = 0 and kappa0 = 4, so q(t) = -2.5*t - 5*c0 exactly
    seed = SeedData(mass=5.0, flat_energy=3.0, gauge_a=0.0, c0=-0.5)
    assert quad_roots(*frame_factor(seed)[2]) == (1.0,)
    # t = 1 is x = +inf: the seed is regular on the line
    fr = assemble_frame(seed, Grid(-2.0, 2.0, 201))
    assert (fr.det > 0.0).all()
    # where tanh(4x) rounds to 1 the sampled det vanishes, and the sampled
    # test refuses the box that reaches it
    with pytest.raises(SingularFrameError) as err:
        assemble_frame(seed, Grid(-20.0, 20.0, 201))
    assert err.value.value == 0.0 and 4.0 < err.value.x <= 20.0
    # a root inside (-1, 1), if only by one rounding, is a pole wherever
    # the box is
    inside = replace(seed, c0=-0.5 * (1.0 - 2.0**-52))
    (t,) = quad_roots(*frame_factor(inside)[2])
    assert 1.0 - 2.0**-51 < t < 1.0
    with pytest.raises(SingularFrameError) as err:
        assemble_frame(inside, Grid(-2.0, 2.0, 201))
    assert err.value.x == np.arctanh(t) / 4.0


def test_rounding_roots_near_the_model_ii_limit_are_refused():
    # as lambda -> m, Model II's q has roots +-(1 + 2*eps^2) for lambda =
    # m*(1 - eps), and rounding puts some just inside (-1, 1). Box 20
    # reaches t within rounding of +-1, where the sampled test refuses
    # them too
    found = 0
    for eps in np.geomspace(1e-15, 1e-8, 15):
        for lam in (0.43 * (1.0 - eps), 0.43 * (1.0 + eps)):
            seed = ModelParams(ModelKind.II, 0.43, lam).seed_data()
            if not any(abs(t) < 1.0 for t in quad_roots(*frame_factor(seed)[2])):
                continue
            found += 1
            for box in (1.0, 20.0):
                with pytest.raises(SingularFrameError) as err:
                    assemble_frame(seed, Grid(-box, box, 201))
            assert abs(err.value.x) <= 20.0
    assert found > 0


# ------------------------------------------------- transformed states

def test_inverse_dagger_states_are_eigenstates():
    fr = _frame(grid=Grid(-15.0, 15.0, 1201))
    states, energies, residuals = inverse_dagger_states(fr)
    assert energies == (SEED.mass, SEED.flat_energy, SEED.flat_energy)
    for st_, residual in zip(states, residuals):
        assert st_.shape == (3, fr.grid.n_points)
        assert residual < 1e-5
    # state j is row j of U^{-1} conjugated, up to the sign of a zero
    for j, st_ in enumerate(states):
        assert np.array_equal(st_, np.conj(_u_inv(fr)[j]))


# ----------------------------------------------------- property tests

def _seed(m, frac, a, c0):
    return SeedData(mass=m, flat_energy=frac * m, gauge_a=a, c0=c0)


def _regular_seed(m, frac, a, side, margin):
    # q(t) = P(t) - c0*R(t). R(t) = m + A*(A + kappa0*t)/(m - lambda) is
    # linear and has no root in [-1, 1], since (m*(m - lambda) + A^2)^2 -
    # (A*kappa0)^2 = (m - lambda)^2*(m^2 + A^2) > 0; so |c0| > max|P| /
    # min|R| over [-1, 1] leaves q no root there
    p = np.array(frame_factor(_seed(m, frac, a, 0.0))[2])
    r = p - np.array(frame_factor(_seed(m, frac, a, 1.0))[2])
    bound = np.abs(p).sum() / min(abs(r[1] + r[2]), abs(r[2] - r[1]))
    return _seed(m, frac, a, side * (1.5 + margin) * bound)


SEED_RANGES = dict(
    m=st.floats(0.05, 0.3),
    frac=st.floats(-0.9, 0.9),
    a=st.floats(0.05, 0.5),
)
regular_seed = st.builds(_regular_seed, side=st.sampled_from([-1.0, 1.0]),
                         margin=st.floats(0.0, 3.0), **SEED_RANGES)


@settings(max_examples=25, deadline=None)
@given(seed=regular_seed)
def test_transformed_potential_hermitian_property(seed):
    fr = assemble_frame(seed, Grid(-8.0, 8.0, 201))
    stack = transformed_potential(fr).gauge()
    assert hermiticity_asymmetry(stack) < 1e-10
    assert fr.wronskian_relative_stdev < 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.builds(_seed, c0=st.floats(-40.0, 40.0), **SEED_RANGES))
def test_root_of_q_in_open_interval_iff_sampled_det_changes_sign(seed):
    # det Uhat sampled where t covers (-1, 1) to the last double, without
    # assemble_frame's checks
    k0 = seed.kappa0
    grid = Grid(-40.0 / k0, 40.0 / k0, 16001)
    uhat0, uhat1, q = (np.array(c) for c in frame_factor(seed))
    det = TransformationFrame(grid, seed, uhat0, uhat1, np.tanh(k0 * grid.x),
                              np.zeros((3, grid.n_points))).det
    poles = [np.arctanh(t) / k0 for t in quad_roots(*q) if abs(t) < 1.0]
    # two poles within a few samples of each other would cancel their flips
    assume(len(poles) < 2 or abs(poles[1] - poles[0]) > 4 * grid.h)
    flips = np.flatnonzero(np.signbit(det[1:]) != np.signbit(det[:-1]))
    assert len(flips) == len(poles)
    for i, x in zip(flips, poles):
        assert grid.x[i] - 1e-9 <= x <= grid.x[i + 1] + 1e-9


def _model_seed(kind, mass, u):
    """Model I or II at mass, lambda/m at u of its admissible range."""
    lo, hi = {ModelKind.I: (-1.5, 0.9), ModelKind.II: (-0.9, 0.9)}[kind]
    return ModelParams(kind, mass, mass * (lo + u * (hi - lo))).seed_data()


def _flat_bracket(v):
    """v11*(v23^2 - v13^2) - 2*v12*v13*v23 - lambda*(v13^2 + v23^2) at each
    point, and max|V|*(v13^2 + v23^2), the size of its rounding error."""
    w2 = v.v13 * v.v13 + v.v23 * v.v23
    size = max(np.abs([v.v11, v.v12, v.v13, v.v23]).max(), abs(v.flat_energy))
    return (v.v11 * (v.v23 * v.v23 - v.v13 * v.v13) - 2 * v.v12 * v.v13 * v.v23
            - v.flat_energy * w2), size * w2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=regular_seed | st.builds(_model_seed, st.sampled_from(list(ModelKind)),
                                     st.floats(0.02, 0.5), st.floats(0.0, 0.99)))
def test_flat_level_is_exact_at_every_point_of_v_new(seed):
    # det(k*gamma + V(x) - lambda) is minus that bracket whatever k, so the
    # flat level lambda is exact at x for every k iff the bracket vanishes
    # there. Each term is an entry of V times a square of (v13, v23), and the
    # engine rounds an entry to V's size, not to its own (v11 and v12 cross
    # zero), so the bracket is held to 1e-13 of max|V|*(v13^2 + v23^2)
    v = transformed_potential(assemble_frame(seed, Grid(-20.0 / seed.kappa0,
                                                        20.0 / seed.kappa0, 801)))
    bracket, scale = _flat_bracket(v)
    assert (np.abs(bracket) <= 1e-13 * scale).all()
    # negative control: v13 off by 1 % breaks it
    bracket, scale = _flat_bracket(replace(v, v13=1.01 * v.v13))
    assert (np.abs(bracket) > 1e-5 * scale).any()


@pytest.mark.parametrize("box", [None, 40.0], ids=["default_box", "box_40"])
@pytest.mark.parametrize("route,n", [("chain", 120), ("continuum", 301)])
@pytest.mark.parametrize("kind,mass,lam", [("I", 0.07, 0.0), ("II", 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_partner_route_is_the_route_spectrum_runs(tmp_path, kind, mass, lam, route, n, box):
    # chain_spectrum under the route's own arguments gives spectrum's
    # eigenvalues bit for bit, its cluster count and its gap edges
    argv = ["spectrum", "--out", str(tmp_path), "--set", f"model={kind}", "--set",
            f"mass={mass}", "--set", f"flat_energy={lam}", "--set", f"method={route}",
            "--cells" if route == "chain" else "--grid-points", str(n)]
    assert cli.main(argv + ([] if box is None else ["--box", repr(box)])) == cli.EXIT_OK
    seed = ModelParams(ModelKind(kind), mass, lam).seed_data()
    grid, op, args = partner_route(seed, route, n, box)
    rep = chain_spectrum(op, **args)
    rows = (tmp_path / f"spectrum_{route}.csv").read_text().splitlines()[1:]
    assert np.array_equal(rep.eigenvalues, [float(row.split(",")[1]) for row in rows])
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())[route]
    assert [summary[k] for k in ("cluster_count", "gap_edge_neg", "gap_edge_pos")] == \
        [rep.cluster_count, rep.gap_edge_neg, rep.gap_edge_pos]
    if box is None:  # the chain at cell spacing 1, the continuum over 12 decay lengths
        default = (n - 1) / 2 if route == "chain" else 12.0 / seed.kappa0
        assert grid.x_max == -grid.x_min == default


@pytest.mark.parametrize("route", ["chain", "continuum"])
def test_partner_route_refuses_a_singular_frame(route):
    # Model II within 0.1 % of lambda = m: U is too ill-conditioned. spectrum
    # exits 3 on this error (test_spectrum_singular_frame_names_the_ratio_and_its_bound)
    seed = ModelParams(ModelKind.II, 0.1, 0.0999).seed_data()
    with pytest.raises(SingularFrameError):
        partner_route(seed, route, 120)


def _central_flat_energies(kind, mass, n):
    """n flat energies evenly over the central 98 % of the admissible
    interval: Model I's (-2m, m), Model II's (-sqrt(2) m, sqrt(2) m)."""
    lo, hi = (-2 * mass, mass) if kind is ModelKind.I else (-np.sqrt(2) * mass,
                                                             np.sqrt(2) * mass)
    mid, half = (lo + hi) / 2, 0.49 * (hi - lo)
    return np.linspace(mid - half, mid + half, n)


def _worse_edge_error(rep, edge):
    return max(abs(abs(e) / edge - 1.0) for e in (rep.gap_edge_neg, rep.gap_edge_pos))


@pytest.mark.parametrize("route,n", [("chain", 400), ("continuum", 601)])
@pytest.mark.parametrize("kind", list(ModelKind), ids=["model_I", "model_II"])
def test_gap_edges_hold_over_the_admissible_flat_energies(kind, route, n):
    # the flat band can be tuned over the whole admissible range of lambda: at
    # 11 lambda over its central 98 %, m = 0.1, each route on its default box
    # holds a flat cluster of at least a state per two cells or points, and
    # finds both gap edges within spectrum's 1 % of E. The seed's window
    # (E - |lambda|)/2 does this; a fixed 0.1 E, the control, covers the
    # true edge at the outermost lambda, 1.1-4.4 % of E from an edge
    flat_energies = _central_flat_energies(kind, 0.1, 11)
    refused = []
    for lam in flat_energies:
        seed = ModelParams(kind, 0.1, lam).seed_data()
        try:
            _, op, args = partner_route(seed, route, n)
        except SingularFrameError:
            refused.append(lam)
            continue
        rep = chain_spectrum(op, **args)
        assert rep.cluster_count >= n // 2, lam
        assert _worse_edge_error(rep, seed.gap_edge) <= cli.GAP_EDGE_REL_TOL, lam
        if lam in (flat_energies[0], flat_energies[-1]):
            control = chain_spectrum(op, **{**args, "gap_exclusion": 0.1 * seed.gap_edge})
            assert _worse_edge_error(control, seed.gap_edge) > cli.GAP_EDGE_REL_TOL, lam
    # the Hadamard refusal covers Model II within about 0.2 % of |lambda| = m,
    # which no lambda of the grid reaches (the nearest lie 11 % off): a
    # refused lambda is listed here, not skipped
    assert refused == []
