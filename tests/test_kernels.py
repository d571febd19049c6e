"""The per-point 3x3 kernels and the stencil of the Darboux engine against
the einsum and division formulas they replaced, kept here as references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susychain.continuum import GAMMA, apply_dirac, potential_matrix
from susychain.models import ModelKind, ModelParams, model_potential_components
from susychain.numcore import Grid, diff_central, stack_matmul, stack_matvec
from susychain.susy import (
    SeedData,
    _adjugate3,
    apply_darboux,
    assemble_frame,
    commutator_potential,
    seed_potential_matrix,
    transformed_potential,
)

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
    # exact zero (einsum starts each sum from +0, the kernels from the
    # first product)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _spinor(rng, n):
    return rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))


# -------------------------------------------------- the replaced formulas

def _matvec_ref(m, f):
    return np.einsum("nij,jn->in", m, f)


def _matmul_ref(a, b):
    return np.einsum("nij,njk->nik", a, b)


def _diff_central_ref(f, grid):
    f = np.asarray(f)
    h = grid.h
    d = np.empty_like(f)
    d[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    d[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
    d[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
    return d


def _apply_dirac_ref(v, f, grid):
    v = np.asarray(v, dtype=complex)
    kinetic = -1j * (GAMMA @ _diff_central_ref(f, grid))
    if v.ndim == 2:
        return kinetic + v @ f
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


def _apply_darboux_ref(frame, f):
    z = np.einsum("nij,jn->in", frame.uhat_inv, f)
    dz = _weighted_diff_ref(z, frame.log_g, frame.grid)
    return np.einsum("nij,jn->in", frame.uhat, dz)


def _commutator_potential_ref(frame):
    m = np.einsum("nij,njk->nik", frame.duhat, frame.uhat_inv)
    comm = np.einsum("ij,njk->nik", GAMMA, m) - np.einsum("nij,jk->nik", m, GAMMA)
    return seed_potential_matrix(frame.seed)[None, :, :] - 1j * comm


def _frame_stack_ref(rows):
    # a frame stack entry by entry from its real rows, the first times i
    u = np.zeros((rows.shape[-1], 3, 3), dtype=complex)
    for j in range(3):
        u[:, 0, j] = 1j * rows[0, j]
        u[:, 1, j] = rows[1, j]
    u[:, 2, 1], u[:, 2, 2] = rows[2, 1:]
    return u


def _potential_matrix_ref(v11, v12, v13, v23, scalar_v, flat_energy):
    entries = np.broadcast_arrays(
        v11 + scalar_v, -1j * v12, -1j * v13,
        1j * v12, -v11 + scalar_v, v23,
        1j * v13, v23, flat_energy)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def _engine_stacks(frame):
    stacks = [frame.uhat, frame.uhat_inv, frame.duhat, frame.u, frame.u_inv,
              transformed_potential(frame).matrix_stack()]
    for p in MODELS.values():
        stacks.append(model_potential_components(p, frame.grid).matrix_stack())
    return stacks


def _component_major(stack):
    return np.moveaxis(stack, 0, -1).flags.c_contiguous


# ------------------------------------------------------------ the kernels

@pytest.mark.parametrize("name", SEEDS)
def test_kernels_equal_einsum_on_frames_and_potentials(name):
    frame = assemble_frame(SEEDS[name], GRID)
    stacks = _engine_stacks(frame)
    rng = np.random.default_rng(3)
    spinors = [_spinor(rng, GRID.n_points), stacks[0][:, :, 1].T,
               np.ascontiguousarray(stacks[1][:, 2].T)]
    for m in stacks:
        for f in spinors:
            assert _same_values(stack_matvec(m, f), _matvec_ref(m, f))
    for a in stacks:
        for b in stacks:
            assert _same_values(stack_matmul(a, b), _matmul_ref(a, b))


_ENTRIES = st.floats(-1e6, 1e6)


@st.composite
def _pure_stacks(draw, n):
    """An (n, 3, 3) stack whose entries are each purely real or purely
    imaginary, in C or component-major storage."""
    values = draw(arrays(np.float64, (n, 3, 3), elements=_ENTRIES))
    imaginary = draw(arrays(np.bool_, (n, 3, 3)))
    stack = np.where(imaginary, 1j * values, values + 0j)
    if draw(st.booleans()):
        stack = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
    return stack


@st.composite
def _pure_cases(draw):
    n = draw(st.integers(1, 12))
    f = draw(arrays(np.float64, (2, 3, n), elements=_ENTRIES))
    return draw(_pure_stacks(n)), draw(_pure_stacks(n)), f[0] + 1j * f[1]


@settings(max_examples=200, deadline=None)
@given(_pure_cases())
def test_kernels_equal_einsum_on_purely_real_or_imaginary_entries(case):
    a, b, f = case
    assert _same_values(stack_matvec(a, f), _matvec_ref(a, f))
    assert _same_values(stack_matmul(a, b), _matmul_ref(a, b))
    # exact products whichever factor is pure
    general = b + 1j * b[:, ::-1]
    assert _same_values(stack_matmul(a, general), _matmul_ref(a, general))
    assert _same_values(stack_matmul(general, a), _matmul_ref(general, a))


@pytest.mark.parametrize("n", [1, 7, 500])
def test_kernels_agree_with_einsum_on_general_complex_stacks(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    b = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    f = _spinor(rng, n)
    for got, want in ((stack_matvec(a, f), _matvec_ref(a, f)),
                      (stack_matmul(a, b), _matmul_ref(a, b))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_kernel_layouts():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3, 3)) + 0j
    assert _component_major(stack_matmul(a, a))
    out = stack_matvec(a, _spinor(rng, 5))
    assert out.shape == (3, 5) and out.flags.c_contiguous and out.flags.writeable


# ---------------------------------------------------------------- stencil

def _stencil_inputs(rng, n):
    real = rng.standard_normal((3, n))
    yield real
    yield real + 1j * rng.standard_normal((3, n))
    yield rng.standard_normal((n, 3)).T  # transposed, not C-ordered
    yield (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))).T
    yield rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    yield rng.standard_normal(n)


@pytest.mark.parametrize("n", [3, 4, 201])
def test_diff_central_equals_the_division_formula_bitwise(n):
    # h = 3.4 / (n - 1) is not a power of two, so scaling by 1/(2h) and
    # dividing by 2h round differently unless done as numpy divides
    grid = Grid(-1.3, 2.1, n)
    for f in _stencil_inputs(np.random.default_rng(n), n):
        got = diff_central(f, grid)
        assert _same_bits(got, _diff_central_ref(f, grid))
        assert got.flags.c_contiguous


# -------------------------------------------------- the engine's products

@pytest.mark.parametrize("name", SEEDS)
def test_darboux_engine_equals_its_einsum_formulas(name):
    frame = assemble_frame(SEEDS[name], GRID)
    rng = np.random.default_rng(11)
    f = _spinor(rng, GRID.n_points)
    assert _same_values(apply_darboux(frame, f), _apply_darboux_ref(frame, f))
    assert _same_values(commutator_potential(frame), _commutator_potential_ref(frame))
    stack = transformed_potential(frame).matrix_stack()
    for v in (seed_potential_matrix(frame.seed), stack):
        assert _same_values(apply_dirac(v, f, GRID), _apply_dirac_ref(v, f, GRID))


@pytest.mark.parametrize("name", SEEDS)
def test_stack_producers_keep_shape_values_and_flags(name):
    fr = assemble_frame(SEEDS[name], GRID)
    n = GRID.n_points
    s, t, g = fr.seed, fr.t, np.exp(fr.log_g)
    rate = (np.full_like(t, -s.gauge_a), s.kappa0 * t, s.kappa0 * t)
    du_rows = np.empty_like(fr.f)
    for i, j in np.ndindex(3, 3):
        du_rows[i, j] = s.kappa0 * (1.0 - t * t) * fr.uhat1[i, j] + fr.f[i, j] * rate[j]
    uhat_ref = _frame_stack_ref(fr.f)
    uhat_inv_ref = _adjugate3(uhat_ref) / (1j * fr.det)[:, None, None]
    u_ref = _frame_stack_ref(fr.f * g)
    u_inv_ref = uhat_inv_ref * np.exp(-fr.log_g).T[:, :, None]
    comps = transformed_potential(fr)
    v_ref = _potential_matrix_ref(comps.v11, comps.v12, comps.v13, comps.v23,
                                  0.0, comps.flat_energy)
    for got, want, writeable in ((fr.uhat, uhat_ref, False),
                                 (fr.uhat_inv, uhat_inv_ref, False),
                                 (fr.duhat, _frame_stack_ref(du_rows), True),
                                 (fr.u, u_ref, False),
                                 (fr.u_inv, u_inv_ref, False),
                                 (comps.matrix_stack(), v_ref, True)):
        assert got.shape == (n, 3, 3)
        assert _same_bits(got, want)
        assert got.flags.writeable == writeable
        assert _component_major(got)


def test_potential_matrix_scalar_and_broadcast_shapes():
    args = (0.4, -0.2, 0.1, 0.05, 0.3, 0.7)
    v = potential_matrix(*args)
    assert v.shape == (3, 3) and v.flags.c_contiguous
    assert _same_bits(v, _potential_matrix_ref(*args))
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    grid_args = (np.sin(x), x, np.cos(x), x**2, 0.1, -0.2)
    stack = potential_matrix(*grid_args)
    assert stack.shape == (3, 4, 3, 3)
    assert _same_bits(stack, _potential_matrix_ref(*grid_args))
