"""Darboux coupling engine.

Starting from two non-interacting subsystems (a 2x2 Dirac block with mass
m and gauge-like term A, plus a frozen third channel at energy
flat_energy), a 3x3 matrix U of seed eigenfunctions defines

    L = U d/dx U^{-1},        H_new = -i*gamma*d/dx + V_new,
    V_new = V - i [gamma, (dU/dx) U^{-1}],      L H = H_new L.

The third column entries xi1, xi2 are free a priori; xi1 is fixed by an
integral condition so that V_new comes out Hermitian. The resulting
operator couples the two subsystems through exponentially localized
off-diagonal terms while keeping a flat level at flat_energy.

U = Uhat(t) G with t = tanh(kappa0*x), G = diag(e^{-Ax}, cosh(kappa0*x),
cosh(kappa0*x)) and Uhat linear in t. The engine samples only the bounded
Uhat, as G cancels from V_new, from (dU/dx) U^{-1} and from L's stencil
weights; det Uhat = i*q(t) with q quadratic, so the seed's poles are the
roots of q in (-1, 1), found in closed form.

Convention note: phi2*psi1 - phi1*psi2 = w0 / (mass - flat_energy), and the
hermitization integral takes (mass - flat_energy) times it: w0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuum import PotentialComponents, apply_dirac
from .errors import NumericalError, SingularFrameError
from .numcore import Grid, quad_roots

SINGULARITY_REL_TOL = 1e-8

# kappa0^2 squares the seed constants and the model formulas are at most
# cubic in m and lambda; the cube root of the largest double is 5.6e102
MAX_MODEL_PARAM = 1e100


@dataclass(frozen=True)
class SeedData:
    """Constants of the decoupled seed Hamiltonian and its eigencolumns:
    column 0 sits at energy mass, columns 1 and 2 at flat_energy; c0 and c1
    are the quadrature constants of phi1 and xi1, and w0 scales phi1's."""

    mass: float
    flat_energy: float
    gauge_a: float
    c0: float = 0.0
    c1: float = 0.0
    w0: float = 1.0

    def __post_init__(self):
        for name in ("mass", "flat_energy", "gauge_a"):
            value = getattr(self, name)
            if not (np.isfinite(value) and abs(value) <= MAX_MODEL_PARAM):
                raise NumericalError(
                    f"{name} = {value!r} must be finite with magnitude at most "
                    f"{MAX_MODEL_PARAM:g}")
        for name in ("w0", "c1", "c0"):  # c0 last: a model computes it from w0 and c1
            if not np.isfinite(getattr(self, name)):
                raise NumericalError(f"{name} = {getattr(self, name)!r} must be finite")
        if abs(self.flat_energy) == abs(self.mass):
            raise NumericalError("|flat_energy| must differ from |mass|")
        if self.w0 == 0.0:
            raise NumericalError("w0 = 0 makes the two flat-level seeds dependent")
        if self.kappa0_sq <= 0.0:
            raise NumericalError(f"kappa0^2 = {self.kappa0_sq:.3e} <= 0: "
                                 "oscillatory seeds unsupported")

    @property
    def kappa0_sq(self):
        return self.gauge_a**2 + self.mass**2 - self.flat_energy**2

    @property
    def kappa0(self):
        return float(np.sqrt(self.kappa0_sq))

    @property
    def wronskian_constant(self):
        """Actual value of phi2*psi1 - phi1*psi2."""
        return self.w0 / (self.mass - self.flat_energy)


def seed_components(s):
    """Potential part of the seed Hamiltonian (constant in x)."""
    return PotentialComponents(s.mass, s.gauge_a, 0.0, 0.0, s.flat_energy)


def frame_factor(s):
    """The rows uhat0, uhat1 (without the first row's factor i) of the seed
    frame U = (uhat0 + t*uhat1) G, and q = (q2, q1, q0) with det Uhat / i =
    q(t). Plain arithmetic on s's fields: symbols give symbolic constants."""
    m, a, k0, w0, c0, c1 = s.mass, s.gauge_a, s.kappa0, s.w0, s.c0, s.c1
    d = s.mass - s.flat_energy
    # columns (-i*m, A, 0) and (i*psi_a, phi_a, xi_a) over G: phi2 = xi2 =
    # cosh, phi1 by reduction of order, psi_a = (phi_a' + A*phi_a)/d, and
    # xi1 = xi2*(c1 - w0*tanh/kappa0) hermitizes V_new
    uhat0 = ((-m, (w0 + a * c0) / d, a / d), (a, c0, 1), (0, c1, 1))
    uhat1 = ((0, (k0 * c0 + a * w0 / k0) / d, k0 / d), (0, w0 / k0, 0), (0, -w0 / k0, 0))
    delta = c0 - c1
    q = (-(a * w0 / d),
         -(2 * m * w0 / k0 + a / d * (k0 * delta + 2 * a * w0 / k0)),
         -(m * delta + a / d * (w0 + a * delta)))
    return uhat0, uhat1, q


def _frozen(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TransformationFrame:
    """The seed frame U = (uhat0 + t*uhat1) G on a grid: frame_factor's real
    3x3 constants, the samples of t = tanh(kappa0*x), and log G as a (3, n)
    array. Uhat = diag(i, 1, 1) F with F real, so the frame keeps F, its
    determinant and F^{-1} as real arrays, read-only once built; only
    seed_columns multiplies G = diag(e^{-Ax}, cosh(kappa0*x), cosh(kappa0*x))
    back in."""

    grid: Grid
    seed: SeedData
    uhat0: np.ndarray
    uhat1: np.ndarray
    t: np.ndarray
    log_g: np.ndarray

    @cached_property
    def f(self):
        """The rows of Uhat without the factor i, (psi0, psi1, psi2), (phi0,
        phi1, phi2) and (0, xi1, xi2) over G, as a real (3, 3, n) array."""
        return _frozen(self.uhat0[:, :, None] + self.t * self.uhat1[:, :, None])

    @cached_property
    def det(self):
        """det Uhat / i = q(t), from the samples."""
        (psi0, psi1, psi2), (phi0, phi1, phi2), (_, xi1, xi2) = self.f
        return _frozen(psi0 * (phi1 * xi2 - phi2 * xi1) - phi0 * (psi1 * xi2 - psi2 * xi1))

    @cached_property
    def f_inv(self):
        """F^{-1} per point as a real (3, 3, n) array: the adjugate times
        1/det, which numpy's complex division by i*det also computes, so
        Uhat^{-1} = F^{-1} diag(-i, 1, 1) has the values of that division."""
        adj = _adjugate3(self.f)
        adj *= 1.0 / self.det
        return _frozen(adj)

    @property
    def df(self):
        """(dU/dx) G^{-1} = kappa0*(1 - t^2)*uhat1 + F diag(-A, kappa0*t,
        kappa0*t), without the first row's factor i, as a real (3, 3, n)
        array built on each access."""
        k0, t = self.seed.kappa0, self.t
        rate = np.stack([np.full_like(t, -self.seed.gauge_a), k0 * t, k0 * t])
        return k0 * (1.0 - t * t) * self.uhat1[:, :, None] + self.f * rate

    @cached_property
    def _weights(self):
        # G_i/G_{i+1} and G_{i+1}/G_i, (3, n - 1), for apply_darboux
        return np.exp(-np.diff(self.log_g)), np.exp(np.diff(self.log_g))

    @cached_property
    def _potential(self):
        # the closed-form ratios documented at transformed_potential
        s, den = self.seed, self.det
        pref = s.mass - s.flat_energy
        (psi0, psi1, psi2), (phi0, phi1, phi2), (_, xi1, xi2) = self.f
        q_psi = xi2 * psi1 - xi1 * psi2
        q_phi = xi2 * phi1 - xi1 * phi2
        w_flip = phi1 * psi2 - phi2 * psi1
        v12 = -s.gauge_a + pref * (psi0 * q_psi - phi0 * q_phi) / den
        v13 = pref * psi0 * w_flip / den
        v23 = -pref * phi0 * w_flip / den
        v11 = -s.mass + pref * (psi0 * q_phi + phi0 * q_psi) / den
        return PotentialComponents(*map(_frozen, (v11, v12, v13, v23)), s.flat_energy)

    @property
    def wronskian_relative_stdev(self):
        """Rms of (w - W*(1 - t^2)) / (|phi2*psi1| + |phi1*psi2|), w = phi2*psi1 -
        phi1*psi2 on Uhat's rows: each sample's deviation in rounding units."""
        (_, psi1, psi2), (_, phi1, phi2), _ = self.f
        a, b = phi2 * psi1, phi1 * psi2
        exact = self.seed.wronskian_constant * (1.0 - self.t * self.t)
        dev = (a - b - exact) / (np.abs(a) + np.abs(b))
        return float(np.sqrt(np.mean(dev**2)))


def _adjugate3(u):
    """Adjugate (transpose of cofactors) of a (3, 3, n) array per point."""
    adj = np.empty_like(u)
    for i in range(3):
        for j in range(3):
            r0, r1 = (a for a in range(3) if a != j)
            c0, c1 = (b for b in range(3) if b != i)
            adj[i, j] = (-1) ** (i + j) * (u[r0, c0] * u[r1, c1] - u[r0, c1] * u[r1, c0])
    return adj


@np.errstate(over="ignore", invalid="ignore")  # non-finite constants are raised below
def assemble_frame(s, grid):
    """Sample the seed frame's bounded factor Uhat on a grid; check regularity.

    |det Uhat| is compared with the Hadamard bound of Uhat's columns at each
    point, a ratio that column scaling leaves alone, so it guards the
    conditioning of U. det U = i*e^{-Ax}*cosh^2(kappa0*x)*q(t), so a root
    of q with |t| < 1 is a pole at x = atanh(t)/kappa0, wherever the box
    is; a root at t = +-1 lies at x = +-inf. One that rounding alone puts
    inside is refused too: q(+-1) is zero to working precision there."""
    uhat0, uhat1, q = (np.array(c, dtype=float) for c in frame_factor(s))
    if not all(np.isfinite(c).all() for c in (uhat0, uhat1, q)):
        raise NumericalError("the seed constants overflow the frame's factor Uhat: "
                             "shrink the mass or the seed constants")
    x, k0 = grid.x, s.kappa0
    k0x = np.abs(k0 * x)
    log_cosh = k0x + np.log1p(np.exp(-2.0 * k0x)) - np.log(2.0)
    frame = TransformationFrame(grid, s, uhat0, uhat1, np.tanh(k0 * x),
                                np.stack([-s.gauge_a * x, log_cosh, log_cosh]))
    det, hadamard = frame.det, np.sqrt((frame.f**2).sum(axis=0)).prod(axis=0)
    if (np.abs(det) < SINGULARITY_REL_TOL * hadamard).any():
        i = int(np.argmax(hadamard / np.maximum(np.abs(det), 1e-300)))
        raise SingularFrameError(x[i], float(np.abs(det[i])))
    for t in quad_roots(*q).roots:
        if abs(t) < 1.0:
            raise SingularFrameError(float(np.arctanh(t)) / k0, 0.0)
    return frame


def seed_columns(frame):
    """The columns of U = Uhat G, F G with row 0 times i, as a complex (3, 3,
    n) array whose [j] is column j, a (3, n) spinor. Built on each call for
    the checks on U's own columns: U leaves the double range on wide boxes."""
    u = np.array([1j, 1.0, 1.0])[:, None, None] * (frame.f * np.exp(frame.log_g))
    return u.swapaxes(0, 1)


def frame_eigen_residuals(frame):
    """Relative sup-norm residuals of (H - E) on each U column.

    Derivatives come from the finite-difference stencil, so the residual
    is O(h^2) for exact seed functions.
    """
    s = frame.seed
    v_seed = seed_components(s)
    energies = (s.mass, s.flat_energy, s.flat_energy)
    res = []
    for col, e in zip(seed_columns(frame), energies):
        r = apply_dirac(v_seed, col, frame.grid) - e * col
        res.append(float(np.abs(r).max() / (1.0 + np.abs(col).max())))
    return res


def transformed_potential(frame):
    """Transformed potential from the explicit closed-form ratios on Uhat's
    rows, G cancelled. All four components share the denominator det Uhat / i,
    which assemble_frame keeps away from zero; they are computed once per
    frame and returned read-only.
    """
    return frame._potential


def commutator_potential(frame):
    """Independent route: V_new = V - i[gamma, (dU/dx) U^{-1}] per point.

    (dU/dx) U^{-1} = (Uhat' + Uhat G'G^{-1}) Uhat^{-1} takes the analytic
    derivatives of the seed functions, so it shares no algebra with the
    closed-form ratios of transformed_potential. With Uhat = diag(i, 1, 1) F
    it is diag(i, 1, 1) df F^{-1} diag(-i, 1, 1): the real product, its row 0
    turned by i and its column 0 by -i, each turn exact.
    """
    v_seed = seed_components(frame.seed).matrix_stack()
    m = np.einsum("ijn,jkn->nik", frame.df, frame.f_inv).astype(complex)
    m[:, 0] *= 1j
    m[:, :, 0] *= -1j
    # gamma m swaps rows 0 and 1 and drops row 2; m gamma does so to columns
    comm = np.zeros_like(m)
    comm[:, :2] = m[:, 1::-1]
    comm[:, :, :2] -= m[:, :, 1::-1]
    return v_seed[None, :, :] - 1j * comm


def dual_path_difference(frame):
    """Max entrywise gap between the two potential constructions."""
    explicit = transformed_potential(frame).matrix_stack()
    return float(np.abs(explicit - commutator_potential(frame)).max())


def hermiticity_asymmetry(stack):
    """Max over points of ||V - V^dag||_inf / (1 + ||V||_inf)."""
    asym = np.abs(stack - np.conj(np.swapaxes(stack, 1, 2)))
    norm = np.abs(stack).sum(axis=2).max(axis=1)  # inf-norm per point
    return float((asym.sum(axis=2).max(axis=1) / (1.0 + norm)).max())


def apply_darboux(frame, state):
    """L acting on a sampled (3, n) spinor: U d/dx (U^{-1} state) with the
    stencil of diff_central, as Uhat D_G (Uhat^{-1} state), where D_G weights
    the neighbour j of point i by G_i/G_j = exp(log G_i - log G_j). With
    Uhat = diag(i, 1, 1) F, component 0 turns by -i, F^{-1} and F act as
    real stacks and row 0 turns back by i: each product with a real or
    i*real factor is exact, so the result has the complex stacks' values."""
    z = np.array(state, dtype=complex)  # a copy: component 0 turns in place
    z[0] *= -1j
    z = np.einsum("ijn,jn->in", frame.f_inv, z)
    up, down = frame._weights
    d = np.empty_like(z)
    d[:, 0] = -3 * z[:, 0] + up[:, 0] * (4 * z[:, 1] - up[:, 1] * z[:, 2])
    d[:, -1] = 3 * z[:, -1] - down[:, -1] * (4 * z[:, -2] - down[:, -2] * z[:, -3])
    # row by row: numpy 2.4 casts a 1-D real operand in chunks, a 2-D one of
    # up to ~4000 columns whole
    for c in range(3):
        np.multiply(up[c, 1:], z[c, 2:], out=d[c, 1:-1])
        z[c, :-2] *= down[c, :-1]  # in place: the ends are done
    d[:, 1:-1] -= z[:, :-2]
    d.view(np.float64)[:] *= 1.0 / (2 * frame.grid.h)  # numpy's bits for d / (2h)
    del z
    out = np.einsum("ijn,jn->in", frame.f, d)
    out[0] *= 1j
    return out


def _level_residuals(fr, v_seed, states):
    """||(L H - H_new L) psi||_inf on fr's grid for each of states(x).
    V_new, the test states and a frame built for this call die with it."""
    g = fr.grid
    v_new = transformed_potential(fr)
    level = []
    for f in states(g.x):  # real rows: each call makes its own complex copy
        lhs = apply_darboux(fr, apply_dirac(v_seed, f, g))
        lhs -= apply_dirac(v_new, apply_darboux(fr, f), g)
        level.append(np.abs(lhs).max())
    return level


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual is raised below
def intertwining_residual(frame, states, n_levels=3):
    """||(L H - H_new L) psi||_inf across grid refinements.

    states maps a grid's x to an (n_states, 3, n) array of spinors.
    Returns residuals of shape (n_states, n_levels) and the measured
    orders log2(r_l / r_{l+1}). Only one level's frame, V_new and test
    states are alive at a time. Raises NumericalError naming the grid
    spacing where a residual is not finite: the stencil's 1/(2h) overflows
    on a tiny box, L's weights e^{kappa0*h} where h does not resolve kappa0.
    """
    residuals, g = [], frame.grid
    v_seed = seed_components(frame.seed)
    for i in range(n_levels):
        level = _level_residuals(frame if i == 0 else assemble_frame(frame.seed, g),
                                 v_seed, states)
        if not np.all(np.isfinite(level)):
            raise NumericalError(f"intertwining residual is not finite at grid spacing "
                                 f"h={g.h:.6g}")
        residuals.append(level)
        g = g.refined()
    residuals = np.array(residuals).T
    orders = np.log2(residuals[:, :-1] / residuals[:, 1:])
    return residuals, orders


@dataclass(frozen=True)
class EigenstateReport:
    energy: float
    residual: float


def inverse_dagger_states(frame):
    """Candidate eigenstates of the transformed operator: columns of (U^{-1})^dag.

    Returns (states, reports): states[j] is a (3, n) array expected to
    satisfy (H_new - E_j) state = O(h^2) with E = (mass, flat, flat).
    """
    s, g = frame.seed, frame.grid
    # U^{-1} = G^{-1} F^{-1} diag(-i, 1, 1): state j is its row j conjugated
    w = np.exp(-frame.log_g)[:, None, :] * frame.f_inv * np.array([1j, 1.0, 1.0])[:, None]
    v_new = transformed_potential(frame)
    states, reports = [], []
    for st, e in zip(w, (s.mass, s.flat_energy, s.flat_energy)):  # st: (3, n)
        r = apply_dirac(v_new, st, g) - e * st
        states.append(st)
        residual = float(np.abs(r).max() / (1.0 + np.abs(st).max()))
        reports.append(EigenstateReport(e, residual))
    return states, reports
