"""Unit tests for the Darboux transformation engine."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susychain.continuum import DiracOperatorSpec, apply_dirac, potential_matrix
from susychain.errors import NumericalError, SingularFrameError
from susychain.models import ModelKind, ModelParams, model_potential_components
from susychain.numcore import Grid, diff_central, integrate_cumulative
from susychain.susy import (
    SeedData,
    _adjugate3,
    apply_darboux,
    assemble_frame,
    commutator_potential,
    dual_path_difference,
    frame_eigen_residuals,
    hermiticity_asymmetry,
    intertwining_residual,
    inverse_dagger_states,
    seed_potential_matrix,
    transformed_potential,
)

# a frame known to be regular on the whole line (c1 shifts the quadrature
# constants without affecting the final potential); generic (c0, c1) pairs
# can produce det U zeros, which the property test below filters out
SEED = ModelParams(ModelKind.I, 0.3, 0.06).seed_data(c1=0.1)
GRID = Grid(-20.0, 20.0, 801)


def _frame(seed=SEED, grid=GRID):
    return assemble_frame(seed, grid)


# --------------------------------------------------------- seed data

def test_seed_data_validation():
    with pytest.raises(NumericalError):
        SeedData(mass=0.1, flat_energy=0.1, gauge_a=0.2)
    with pytest.raises(NumericalError):
        SeedData(mass=0.1, flat_energy=-0.1, gauge_a=0.2)
    with pytest.raises(NumericalError):
        SeedData(mass=0.1, flat_energy=0.0, gauge_a=0.2, w0=0.0)
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


# --------------------------------------------------- seed eigenstates

def test_frame_columns_are_seed_eigenstates():
    # the analytic closed forms must satisfy H u = E u with the stencil
    # residual shrinking at second order
    res_c = frame_eigen_residuals(_frame())
    res_f = frame_eigen_residuals(_frame(grid=GRID.refined()))
    assert max(res_c) < 1e-4
    for rc, rf in zip(res_c, res_f):
        assert np.log2(rc / rf) > 1.9


def test_wronskian_constant_semantics():
    # phi2*psi1 - phi1*psi2 is constant in x and equals w0/(m - lambda)
    fr = _frame()
    (_, psi1, psi2), (_, phi1, phi2), _ = fr.f
    w = phi2 * psi1 - phi1 * psi2
    want = SEED.w0 / (SEED.mass - SEED.flat_energy)
    # pointwise agreement is limited by cosh*cosh cancellation at the
    # box walls; the relative stdev is the tighter invariant
    np.testing.assert_allclose(w, want, rtol=1e-8)
    assert fr.wronskian_relative_stdev < 1e-9


@pytest.mark.parametrize("kind", [ModelKind.I, ModelKind.II])
@pytest.mark.parametrize("mass", [7.0, 9.0])
def test_wronskian_constancy_holds_on_wide_boxes(kind, mass):
    # the two products of phi2*psi1 - phi1*psi2 reach ~1e170 here and
    # cancel to W; measured against each sample's rounding scale the frame
    # is exact, while a 1e-6 error in psi1 still shows
    fr = assemble_frame(ModelParams(kind, mass, 0.0).seed_data(), GRID)
    assert fr.wronskian_relative_stdev < 1e-10
    f = fr.f.copy()
    f[0, 1] *= 1.0 + 1e-6  # psi1
    bad = replace(fr, f=f)
    assert bad.wronskian_relative_stdev > 1e-10


def test_analytic_derivatives_match_stencil():
    fr = _frame()
    for i, j in np.ndindex(3, 3):
        num = diff_central(fr.f[i, j], GRID)
        scale = 1.0 + np.abs(fr.df[i, j]).max()
        assert np.abs(num - fr.df[i, j]).max() / scale < 1e-3, (i, j)


def test_xi1_closed_form_vs_quadrature():
    # xi1 = xi2 * (c1 - w * Integral dx/xi2^2) with w = (m - lambda) times
    # the actual Wronskian constant; the frame takes the integral in
    # closed form, the trapezoid here
    xi1, xi2 = _frame().f[2, 1:]
    w = (SEED.mass - SEED.flat_energy) * SEED.wronskian_constant
    numeric = xi2 * (SEED.c1 - w * integrate_cumulative(1.0 / xi2**2, GRID))
    np.testing.assert_allclose(numeric, xi1, atol=1e-6 * (1 + np.abs(xi1).max()))


# ------------------------------------------------ transformed potential

def test_transformed_potential_hermitian():
    stack = transformed_potential(_frame()).matrix_stack()
    assert hermiticity_asymmetry(stack) < 1e-12


def test_dual_path_agreement():
    assert dual_path_difference(_frame()) < 1e-9


def test_negative_control_breaks_commutator_hermiticity():
    # replacing xi1 by xi2 violates the hermitization condition; the
    # commutator construction must detect it, also when the original
    # frame has already cached its U^{-1}
    fr = _frame()
    commutator_potential(fr)
    f, df = fr.f.copy(), fr.df.copy()
    f[2, 1], df[2, 1] = f[2, 2], df[2, 2]
    broken = replace(fr, f=f, df=df)
    assert not np.array_equal(broken.u_inv, fr.u_inv)
    assert hermiticity_asymmetry(commutator_potential(broken)) > 1e-4


# --------------------------------------- frame against the closed forms

def _reference_frame_samples(s, x):
    # every frame sample as one closed form per function, in the operation
    # order the engine has always used: psi1 divides by cosh where dphi1
    # multiplies by sech, and w is not simplified to w0; kept as the
    # bitwise reference for assemble_frame. Returns the rows of U without
    # the factor i, the rows of dU/dx, and det U / i
    m, a, k0 = s.mass, s.gauge_a, s.kappa0
    w0, c0, c1 = s.w0, s.c0, s.c1
    denom = s.mass - s.flat_energy
    w = (s.mass - s.flat_energy) * s.wronskian_constant
    ch, sh, th = np.cosh(k0 * x), np.sinh(k0 * x), np.tanh(k0 * x)
    sech = 1.0 / ch
    phi1 = ch * (w0 * th / k0 + c0)
    dphi1 = sh * (w0 * th + k0 * c0) + w0 * sech
    psi0 = -m * np.exp(-a * x)
    phi0 = a * np.exp(-a * x)
    psi1 = (sh * (w0 * th + k0 * c0) + w0 / ch + a * phi1) / denom
    psi2 = (k0 * sh + a * ch) / denom
    xi1 = ch * (c1 - w * th / k0)
    zero = np.zeros_like(x)
    f = [[psi0, psi1, psi2], [phi0, phi1, ch], [zero, xi1, ch]]
    df = [[a * m * np.exp(-a * x), (k0**2 * phi1 + a * dphi1) / denom,
           (k0**2 * ch + a * (k0 * sh)) / denom],
          [-(a**2) * np.exp(-a * x), dphi1, k0 * sh],
          [zero, k0 * sh * (c1 - w * th / k0) - w * sech, k0 * sh]]
    det = psi0 * (phi1 * ch - ch * xi1) - phi0 * (psi1 * ch - psi2 * xi1)
    return np.array(f), np.array(df), det


# w0 is chosen so that (m - lambda) * (w0 / (m - lambda)) != w0 in double
# precision, which makes the unsimplified w observable
FRAME_SEEDS = [
    ModelParams(ModelKind.I, 0.07, 0.0).seed_data(w0=1.7, c1=0.1),
    ModelParams(ModelKind.II, 0.1, 0.05).seed_data(w0=1.7, c1=-0.4),
    SeedData(mass=0.3, flat_energy=0.1, gauge_a=0.2, c0=0.3, c1=-0.2, w0=0.9),
]


@pytest.mark.parametrize("seed", FRAME_SEEDS)
@pytest.mark.parametrize("grid", [GRID, Grid(-7.5, 12.0, 1201)])
def test_frame_samples_match_closed_forms_bitwise(seed, grid):
    fr = assemble_frame(seed, grid)
    f, df, det = _reference_frame_samples(seed, grid.x)
    for got, want in ((fr.f, f), (fr.df, df), (fr.det, det)):
        assert _same_bits(got, want)


# ---------------------------------------------------------- frame cache

def _adjugate3_by_minors(u):
    # the adjugate through fancy-indexed 2x2 minor copies, kept as the
    # reference for susy._adjugate3
    adj = np.empty_like(u)
    for i in range(3):
        for j in range(3):
            r = [a for a in range(3) if a != j]
            c = [b for b in range(3) if b != i]
            minor = u[:, r][:, :, c]
            cof = minor[:, 0, 0] * minor[:, 1, 1] - minor[:, 0, 1] * minor[:, 1, 0]
            adj[:, i, j] = (-1) ** (i + j) * cof
    return adj


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_adjugate3_matches_minor_reference_bitwise():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
    u[:5] = 0.0
    u[5:10] *= 1e-160  # cofactors underflow to signed zeros
    stacks = [u, _frame().u, _frame(grid=Grid(-3.0, 3.0, 31)).u]
    for stack in stacks:
        assert _same_bits(_adjugate3(stack), _adjugate3_by_minors(stack))


def test_frame_cache_matches_per_call_recomputation():
    fr = _frame()
    f = _gaussian_states(fr.grid.x)[0]
    # replace() with no changes is a frame with an empty cache, so each
    # right-hand side recomputes U and U^{-1} from the samples; the second
    # pass reads fr's cache
    for _ in range(2):
        assert _same_bits(apply_darboux(fr, f), apply_darboux(replace(fr), f))
        assert _same_bits(commutator_potential(fr),
                          commutator_potential(replace(fr)))
        assert _same_bits(fr.u_inv, replace(fr).u_inv)
        fresh = transformed_potential(replace(fr))
        for c in ("v11", "v12", "v13", "v23"):
            assert _same_bits(getattr(transformed_potential(fr), c), getattr(fresh, c))
    assert fr.u_inv is fr.u_inv and fr.u is fr.u
    assert transformed_potential(fr) is transformed_potential(fr)


def test_frame_cache_is_read_only():
    fr = _frame()
    comps = transformed_potential(fr)
    for stack in (fr.f, fr.df, fr.u, fr.u_inv):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
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
    v = seed_potential_matrix(SEED)
    np.testing.assert_allclose(v, v.conj().T, atol=1e-16)


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


def test_darboux_annihilates_frame_columns():
    fr = _frame()
    u = fr.u
    for j in range(3):
        out = apply_darboux(fr, u[:, :, j].T)
        scale = 1.0 + np.abs(u[:, :, j]).max()
        assert np.abs(out).max() / scale < 1e-8


def test_darboux_intertwines_on_eigenstate():
    # L maps the epsilon seed state to (numerically) zero, so H_new L u0
    # = epsilon L u0 holds trivially; check instead on a generic state
    fr = _frame()
    f = _gaussian_states(fr.grid.x)[0]
    seed_op = DiracOperatorSpec(seed_potential_matrix(SEED))
    new_op = DiracOperatorSpec(transformed_potential(fr).matrix_stack())
    lhs = apply_darboux(fr, apply_dirac(seed_op, f, fr.grid))
    rhs = apply_dirac(new_op, apply_darboux(fr, f), fr.grid)
    interior = slice(10, -10)
    scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
    assert np.abs(lhs - rhs)[:, interior].max() / scale < 1e-3


def _seed_operator_rows(s, v, f, grid):
    # the seed operator plus a scalar shift v on the two Dirac rows,
    # written out row by row, kept as a reference
    df = diff_central(f, grid)
    m, a, lam = s.mass, s.gauge_a, s.flat_energy
    out = np.empty_like(f)
    out[0] = (m + v) * f[0] - 1j * (df[1] + a * f[1])
    out[1] = -1j * (df[0] - a * f[0]) + (-m + v) * f[1]
    out[2] = lam * f[2]
    return out


def _transformed_operator_rows(c, v, f, grid):
    # -i*gamma*d/dx + V_new plus a scalar shift v, written out row by row,
    # kept as a reference
    df = diff_central(f, grid)
    lam = c.flat_energy
    out = np.empty_like(f)
    out[0] = ((c.v11 + v) * f[0] - 1j * c.v12 * f[1]
              - 1j * c.v13 * f[2] - 1j * df[1])
    out[1] = (1j * c.v12 * f[0] + (-c.v11 + v) * f[1]
              + c.v23 * f[2] - 1j * df[0])
    out[2] = 1j * c.v13 * f[0] + c.v23 * f[1] + lam * f[2]
    return out


def test_apply_dirac_matches_row_by_row_operators():
    fr = _frame()
    g = fr.grid
    rng = np.random.default_rng(21)
    s, v = SEED, 0.2
    comps = transformed_potential(fr)
    # the seed potential is the constant potential_matrix with v12 = A
    assert np.array_equal(seed_potential_matrix(s), potential_matrix(
        s.mass, s.gauge_a, 0.0, 0.0, 0.0, s.flat_energy))
    seed_shifted = potential_matrix(s.mass, s.gauge_a, 0.0, 0.0, v, s.flat_energy)
    comps_shifted = potential_matrix(comps.v11, comps.v12, comps.v13, comps.v23,
                                     v, comps.flat_energy)
    for _ in range(3):
        f = rng.normal(size=(3, g.n_points)) + 1j * rng.normal(size=(3, g.n_points))
        pairs = [
            (apply_dirac(DiracOperatorSpec(seed_shifted), f, g),
             _seed_operator_rows(s, v, f, g)),
            (apply_dirac(DiracOperatorSpec(comps_shifted), f, g),
             _transformed_operator_rows(comps, v, f, g)),
        ]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frame_just_inside_the_double_range_stays_finite():
    # (2*kappa0 + A)*20 = 689 at m = 9, below log(max double) = 709.8
    for kind in ModelKind:
        p = ModelParams(kind, 9.0, 0.0)
        fr = assemble_frame(p.seed_data(), GRID)
        assert np.isfinite(fr.u_inv).all()
        assert np.isfinite(frame_eigen_residuals(fr)).all()
        stack = transformed_potential(fr).matrix_stack()
        oracle = model_potential_components(p, GRID).matrix_stack()
        assert np.abs(stack - oracle).max() < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", list(ModelKind))
def test_frame_overflow_raises_naming_kappa0_and_box(kind):
    # (2*kappa0 + A)*20 = 727 at m = 9.5
    with pytest.raises(NumericalError, match=r"kappa0=13.435.*half-width 20"):
        assemble_frame(ModelParams(kind, 9.5, 0.0).seed_data(), GRID)


# ------------------------------------------------- transformed states

def test_inverse_dagger_states_are_eigenstates():
    fr = _frame(grid=Grid(-15.0, 15.0, 1201))
    states, reports = inverse_dagger_states(fr)
    energies = [r.energy for r in reports]
    assert energies == [SEED.mass, SEED.flat_energy, SEED.flat_energy]
    for st_, rep in zip(states, reports):
        assert st_.shape == (3, fr.grid.n_points)
        assert rep.residual < 1e-5
        assert rep.l2_mass > 0.0
        # the columns solve the ODE but are not automatically the
        # decaying combination; the rate is a diagnostic, not a bound
        assert np.isfinite(rep.tail_decay_rate)


# ------------------------------------------------------ property test

valid_seed = st.builds(
    lambda m, frac, a, c0, c1, w0: SeedData(
        mass=m, flat_energy=frac * m, gauge_a=a,
        c0=c0, c1=c1, w0=w0),
    m=st.floats(0.05, 0.3),
    frac=st.floats(-0.9, 0.9),
    a=st.floats(0.05, 0.5),
    c0=st.floats(-1.5, 1.5),
    c1=st.floats(-1.5, 1.5),
    w0=st.floats(0.2, 2.0),
)


@settings(max_examples=25, deadline=None)
@given(seed=valid_seed)
def test_transformed_potential_hermitian_property(seed):
    grid = Grid(-8.0, 8.0, 201)
    try:
        fr = assemble_frame(seed, grid)
    except SingularFrameError:
        assume(False)
    stack = transformed_potential(fr).matrix_stack()
    assert hermiticity_asymmetry(stack) < 1e-10
    assert fr.wronskian_relative_stdev < 1e-9
