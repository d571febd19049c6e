"""The Darboux engine's products and stencil against the complex einsum and
division formulas they replaced, kept here as references. The operators act
on the real parts of a complex spinor, reached through tests/reference.py's
converters."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susychain.continuum import PotentialComponents, apply_dirac
from susychain.models import ModelKind, ModelParams
from susychain.numcore import Grid, diff_central
from susychain.susy import (
    SeedData,
    _adjugate3,
    apply_darboux,
    assemble_frame,
    commutator_potential,
    seed_components,
    transformed_potential,
)

from reference import GAMMA, join_spinor, potential_matrix, split_spinor, to_gauge
from test_susy import regular_seed

GRID = Grid(-20.0, 20.0, 401)
MODELS = {
    "model_I": ModelParams(ModelKind.I, 0.07, 0.0),
    "model_II": ModelParams(ModelKind.II, 0.1, 0.05),
}
SEEDS = {
    **{name: p.seed_data() for name, p in MODELS.items()},
    "general": SeedData(mass=0.3, flat_energy=0.1, gauge_a=0.2, c0=-20.0),
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_values(a, b):
    # equal entry for entry: the same bits except, perhaps, the sign of an
    # exact zero (einsum starts each sum from +0, apply_dirac from the first
    # product)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _spinor(rng, n):
    return rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))


# -------------------------------------------------- the replaced formulas

def _diff_central_ref(f, grid):
    f = np.asarray(f)
    h = grid.h
    d = np.empty_like(f)
    d[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    d[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
    d[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
    return d


def _apply_dirac_ref(comps, f, grid):
    # V as a complex stack; a constant one broadcast to every point
    v = np.broadcast_to(potential_matrix(comps), (grid.n_points, 3, 3))
    kinetic = -1j * (GAMMA @ _diff_central_ref(f, grid))
    return kinetic + np.einsum("nij,jn->in", v, f)


def _weighted_diff_ref(z, log_g, grid):
    # G * D(z / G) point by point, G = exp(log_g): row i takes its
    # stencil neighbour j with the weight G_i/G_j = exp(log_g[i] - log_g[j]),
    # and the end rows reach two points as (G_0/G_1)*(G_1/G_2)
    def w(i, j):
        return np.exp(log_g[:, i] - log_g[:, j])

    n = z.shape[-1]
    d = np.empty_like(z)
    for i in range(1, n - 1):
        d[:, i] = w(i, i + 1) * z[:, i + 1] - w(i, i - 1) * z[:, i - 1]
    d[:, 0] = -3 * z[:, 0] + w(0, 1) * (4 * z[:, 1] - w(1, 2) * z[:, 2])
    d[:, -1] = 3 * z[:, -1] - w(n - 1, n - 2) * (4 * z[:, -2] - w(n - 2, n - 3) * z[:, -3])
    return d / (2 * grid.h)


def _frame_stack_ref(rows):
    # a complex (3, 3, n) frame stack entry by entry from its real rows, the
    # first times i: Uhat from frame.f, (dU/dx) G^{-1} from frame.df
    u = np.zeros(rows.shape, dtype=complex)
    for j in range(3):
        u[0, j] = 1j * rows[0, j]
        u[1, j] = rows[1, j]
    u[2, 1], u[2, 2] = rows[2, 1:]
    return u


def _uhat_inv_ref(frame):
    # Uhat^{-1}: the adjugate of the complex Uhat over det Uhat = i*det
    return _adjugate3(_frame_stack_ref(frame.f)) / (1j * frame.det)


def _apply_darboux_ref(frame, f):
    z = np.einsum("ijn,jn->in", _uhat_inv_ref(frame), f)
    dz = _weighted_diff_ref(z, frame.log_g, frame.grid)
    return np.einsum("ijn,jn->in", _frame_stack_ref(frame.f), dz)


def _commutator_potential_ref(frame):
    m = np.einsum("ijn,jkn->nik", _frame_stack_ref(frame.df), _uhat_inv_ref(frame))
    comm = np.einsum("ij,njk->nik", GAMMA, m) - np.einsum("nij,jk->nik", m, GAMMA)
    return potential_matrix(seed_components(frame.seed))[None, :, :] - 1j * comm


# ---------------------------------------------------------------- stencil

def _stencil_inputs(rng, n):
    yield rng.standard_normal((3, n))
    yield rng.standard_normal((n, 3)).T  # transposed, not C-ordered
    yield rng.standard_normal((2, 3, n))
    yield rng.standard_normal(n)


@pytest.mark.parametrize("n", [3, 4, 201])
def test_diff_central_equals_the_division_formula_bitwise(n):
    # h = 3.4 / (n - 1) is not a power of two, so scaling by 1/(2h) and
    # dividing by 2h round differently; diff_central scales real samples as
    # numpy divides complex ones
    grid = Grid(-1.3, 2.1, n)
    for f in _stencil_inputs(np.random.default_rng(n), n):
        got = diff_central(f, grid)
        assert _same_bits(got, _diff_central_ref(f + 0j, grid).real)
        assert got.flags.c_contiguous


# -------------------------------------------------- the engine's products

def _broken(frame):
    # the negative control's frame: xi1 = xi2 in both of Uhat's constants
    uhat0, uhat1 = frame.uhat0.copy(), frame.uhat1.copy()
    uhat0[2, 1], uhat1[2, 1] = uhat0[2, 2], uhat1[2, 2]
    return replace(frame, uhat0=uhat0, uhat1=uhat1)


@pytest.mark.parametrize("name", SEEDS)
def test_darboux_engine_equals_its_einsum_formulas(name):
    frame = assemble_frame(SEEDS[name], GRID)
    rng = np.random.default_rng(11)
    f = _spinor(rng, GRID.n_points)
    got = join_spinor(apply_darboux(frame, split_spinor(f)))
    assert _same_values(got, _apply_darboux_ref(frame, f))
    # the real commutator form against the complex one in apply_dirac's
    # gauge, also where xi1 = xi2 leaves the result non-Hermitian
    for fr in (frame, _broken(frame)):
        got, want = commutator_potential(fr), _commutator_potential_ref(fr)
        assert _same_values(got, to_gauge(want))
        assert _same_bits(np.abs(got), np.abs(want))
    for v in (seed_components(frame.seed), transformed_potential(frame)):
        got = join_spinor(apply_dirac(v, split_spinor(f), GRID))
        assert _same_values(got, _apply_dirac_ref(v, f, GRID))


@settings(max_examples=25, deadline=None)
@given(seed=regular_seed, n=st.integers(3, 301), rng_seed=st.integers(0, 2**32 - 1))
def test_split_operators_equal_the_complex_formulas(seed, n, rng_seed):
    # H and L on the real parts of a random complex spinor, joined back,
    # give the complex formulas' values on any regular seed and grid size
    grid = Grid(-8.0, 8.0, n)
    frame = assemble_frame(seed, grid)
    f = _spinor(np.random.default_rng(rng_seed), n)
    x = split_spinor(f)
    for v in (seed_components(seed), transformed_potential(frame)):
        assert _same_values(join_spinor(apply_dirac(v, x, grid)), _apply_dirac_ref(v, f, grid))
    assert _same_values(join_spinor(apply_darboux(frame, x)), _apply_darboux_ref(frame, f))


@pytest.mark.parametrize("name", SEEDS)
def test_stack_producers_keep_shape_values_and_flags(name):
    fr = assemble_frame(SEEDS[name], GRID)
    n = GRID.n_points
    s, t = fr.seed, fr.t
    rate = (np.full_like(t, -s.gauge_a), s.kappa0 * t, s.kappa0 * t)
    du_rows = np.empty_like(fr.f)
    for i, j in np.ndindex(3, 3):
        du_rows[i, j] = s.kappa0 * (1.0 - t * t) * fr.uhat1[i, j] + fr.f[i, j] * rate[j]
    # (dU/dx) G^{-1}'s real rows, built on each access
    assert fr.df.shape == (3, 3, n) and fr.df.flags.c_contiguous
    assert _same_bits(fr.df, du_rows) and fr.df.flags.writeable
    # F^{-1} diag(-i, 1, 1) is Uhat^{-1} up to the sign of a zero
    assert fr.f_inv.shape == (3, 3, n) and fr.f_inv.flags.c_contiguous
    assert not fr.f_inv.flags.writeable
    assert _same_values(fr.f_inv * np.array([-1j, 1.0, 1.0])[:, None], _uhat_inv_ref(fr))
    # V_new in apply_dirac's gauge, D^{-1} V D entry for entry
    comps = transformed_potential(fr)
    got = comps.gauge()
    assert got.shape == (n, 3, 3) and got.dtype == np.float64
    assert _same_values(got, to_gauge(potential_matrix(comps)))
    assert got.flags.writeable and got.flags.c_contiguous


def test_gauge_scalar_and_broadcast_shapes():
    comps = PotentialComponents(0.4, -0.2, 0.1, 0.05, 0.7)
    v = comps.gauge()
    assert v.shape == (3, 3) and v.dtype == np.float64 and v.flags.c_contiguous
    assert _same_values(v, to_gauge(potential_matrix(comps)))
    assert np.array_equal(v, v.T)
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    comps = PotentialComponents(np.sin(x), x, np.cos(x), x**2, -0.2)
    stack = comps.gauge()
    assert stack.shape == (3, 4, 3, 3) and stack.dtype == np.float64
    assert _same_values(stack, to_gauge(potential_matrix(comps)))
    assert np.array_equal(stack, np.swapaxes(stack, -1, -2))
