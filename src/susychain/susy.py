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

L and V_new see U only up to a constant right factor that mixes the two
flat-level columns, so the seed fixes phi1's quadrature scale at 1 and
xi1's constant at 0: c0 alone sets the frame, with phi2*psi1 - phi1*psi2 =
1 / (mass - flat_energy).

ROUTES holds spectrum's two routes from V_new to a banded operator, the saw
chain and the discretized continuum; partner_route builds one of them for a
seed.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .continuum import PotentialComponents, apply_dirac, discretize, saw_cells
from .errors import NumericalError, SingularFrameError
from .lattice import saw_chain
from .numcore import MAX_PARAM, Grid, quad_roots, real_array

SINGULARITY_REL_TOL = 1e-8


@dataclass(frozen=True)
class SeedData:
    """Constants of the decoupled seed Hamiltonian and its eigencolumns:
    column 0 sits at energy mass, columns 1 and 2 at flat_energy; c0 is
    the quadrature constant of phi1."""

    mass: float
    flat_energy: float
    gauge_a: float
    c0: float = 0.0

    def __post_init__(self):
        for name in ("mass", "flat_energy", "gauge_a"):
            value = getattr(self, name)
            if not (np.isfinite(value) and abs(value) <= MAX_PARAM):
                raise NumericalError(
                    f"{name} = {value!r} must be finite with magnitude at most "
                    f"{MAX_PARAM:g}")
        if not np.isfinite(self.c0):
            raise NumericalError(f"c0 = {self.c0!r} must be finite")
        if abs(self.flat_energy) == abs(self.mass):
            raise NumericalError("|flat_energy| must differ from |mass|")
        if self.kappa0_sq <= 0.0:
            # kappa0^2 after the exact power-of-two scaling that brings the
            # largest constant into [1/2, 1): positive only if a square underflowed
            values = (self.gauge_a, self.mass, self.flat_energy)
            e = -np.frexp(max(map(abs, values)))[1]
            a, m, lam = (np.ldexp(v, e) for v in values)
            if a * a + m * m - lam * lam > 0.0:
                raise NumericalError(
                    f"kappa0^2 = A^2 + m^2 - lambda^2 underflows to {self.kappa0_sq:.3e} "
                    f"(A = {self.gauge_a:g}, m = {self.mass:g}, lambda = {self.flat_energy:g})")
            raise NumericalError(f"kappa0^2 = {self.kappa0_sq:.3e} <= 0: "
                                 "oscillatory seeds unsupported")

    @property
    def kappa0_sq(self):
        a, m, lam = self.gauge_a, self.mass, self.flat_energy
        return a * a + m * m - lam * lam

    @property
    def kappa0(self):
        return float(np.sqrt(self.kappa0_sq))

    @property
    def gap_edge(self):
        """Edge of the continuous bands (-inf, -edge] u [edge, inf) of V_new,
        which tends to the seed's constant potential up to a gauge."""
        return float(np.hypot(self.mass, self.gauge_a))

    @property
    def wronskian_constant(self):
        """Actual value of phi2*psi1 - phi1*psi2."""
        return 1.0 / (self.mass - self.flat_energy)


def seed_components(s):
    """Potential part of the seed Hamiltonian (constant in x)."""
    return PotentialComponents(s.mass, s.gauge_a, 0.0, 0.0, s.flat_energy)


def frame_factor(s):
    """The rows uhat0, uhat1 (without the first row's factor i) of the seed
    frame U = (uhat0 + t*uhat1) G, and q = (q2, q1, q0) with det Uhat / i =
    q(t). Plain arithmetic on s's fields: symbols give symbolic constants."""
    m, a, k0, c0 = s.mass, s.gauge_a, s.kappa0, s.c0
    d = s.mass - s.flat_energy
    # columns (-i*m, A, 0) and (i*psi_a, phi_a, xi_a) over G: phi2 = xi2 =
    # cosh, phi1 = cosh*(c0 + tanh/kappa0) by reduction of order, psi_a =
    # (phi_a' + A*phi_a)/d, and xi1 = -xi2*tanh/kappa0 hermitizes V_new
    uhat0 = ((-m, (1 + a * c0) / d, a / d), (a, c0, 1), (0, 0, 1))
    uhat1 = ((0, (k0 * c0 + a / k0) / d, k0 / d), (0, 1 / k0, 0), (0, -1 / k0, 0))
    q = (-(a / d),
         -(2 * m / k0 + a / d * (k0 * c0 + 2 * a / k0)),
         -(m * c0 + a / d * (1 + a * c0)))
    return uhat0, uhat1, q


def _frozen(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TransformationFrame:
    """The seed frame U = (uhat0 + t*uhat1) G on a grid: frame_factor's real
    3x3 constants, the samples of t = tanh(kappa0*x), and log G as a (3, n)
    array. Uhat = diag(i, 1, 1) F with F real, so the frame keeps F, its
    determinant and F^{-1} as real arrays, read-only once built; no method
    samples G = diag(e^{-Ax}, cosh(kappa0*x), cosh(kappa0*x)) itself."""

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
        1/det, as numpy divides Uhat's adjugate by det Uhat = i*det, so
        Uhat^{-1} = F^{-1} diag(-i, 1, 1) has the values of that division."""
        adj = _adjugate3(self.f)
        adj *= 1.0 / self.det
        return _frozen(adj)

    @property
    def log_g_rate(self):
        """(log G)' = (-A, kappa0*t, kappa0*t) as a real (3, n) array."""
        k0, t = self.seed.kappa0, self.t
        return np.stack([np.full_like(t, -self.seed.gauge_a), k0 * t, k0 * t])

    @property
    def df(self):
        """(dU/dx) G^{-1} = kappa0*(1 - t^2)*uhat1 + F diag((log G)'), without
        the first row's factor i, as a real (3, 3, n) array built on each
        access."""
        k0, t = self.seed.kappa0, self.t
        return k0 * (1.0 - t * t) * self.uhat1[:, :, None] + self.f * self.log_g_rate

    @cached_property
    def _weights(self):
        # G_i/G_{i+1} and G_{i+1}/G_i, (3, n - 1), for apply_darboux
        return np.exp(-np.diff(self.log_g)), np.exp(np.diff(self.log_g))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a non-finite component is raised below
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
        if not np.isfinite((v11, v12, v13, v23)).all():
            raise NumericalError("the transformed potential overflows the double range: "
                                 "shrink the mass or c0")
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
    # each column at each point scaled by the power of two that puts its
    # largest entry in [0.5, 1): exact, and no square or product overflows.
    # max and -min give that entry without a (3, 3, n) copy of |F|
    e = -np.frexp(np.maximum(frame.f.max(axis=0), -frame.f.min(axis=0)))[1]
    scaled = np.ldexp(frame.f, e)
    scaled *= scaled
    hadamard = np.sqrt(scaled.sum(axis=0)).prod(axis=0)
    det = np.ldexp(frame.det, e.sum(axis=0))
    if (np.abs(det) < SINGULARITY_REL_TOL * hadamard).any():
        i = int(np.argmax(hadamard / np.maximum(np.abs(det), 1e-300)))
        raise SingularFrameError(x[i], float(np.abs(frame.det[i])),
                                 float(np.abs(det[i]) / hadamard[i]), SINGULARITY_REL_TOL)
    for t in quad_roots(*q):
        if abs(t) < 1.0:
            raise SingularFrameError(float(np.arctanh(t)) / k0, 0.0)
    return frame


def frame_eigen_residuals(frame):
    """Sup-norm residuals of (H - E_j) on each column U_j = Uhat_j G_j of U,
    E = (mass, flat, flat): G_j is scalar, so they are those of
    (H - E_j - i*gamma*(log G_j)') on Uhat_j, taken relative to 1 + max|Uhat_j|:
    in apply_dirac's gauge F_j and (a, b, c) -> (log G_j)' (-b, a, 0).
    The stencil makes them O(h^2); Uhat_0 is constant, so column 0's is rounding.
    """
    s = frame.seed
    v_seed = seed_components(s)
    res = []
    for j, (rate, e) in enumerate(zip(frame.log_g_rate, (s.mass, s.flat_energy, s.flat_energy))):
        col = frame.f[:, j]
        r = apply_dirac(v_seed, col, frame.grid) - e * col
        r[0] -= rate * col[1]
        r[1] += rate * col[0]
        res.append(float(np.abs(r).max() / (1.0 + np.abs(col).max())))
    return res


def darboux_kernel(frame):
    """max |L U_j| / G_j for each column j of U: L U_j = G_j L_j Uhat_j, where
    L_j = G_j^{-1} L G_j is L on the frame whose log G is shifted by log G_j.
    Exactly 0, as Uhat^{-1} Uhat_j = e_j: F^{-1} F's rounding over h remains."""
    out = []
    for j in range(3):
        shifted = replace(frame, log_g=frame.log_g - frame.log_g[j])
        shifted.__dict__.update(f=frame.f, f_inv=frame.f_inv)  # neither reads log G
        out.append(float(np.abs(apply_darboux(shifted, frame.f[:, j])).max()))
    return out


def transformed_potential(frame):
    """Transformed potential from the explicit closed-form ratios on Uhat's
    rows, G cancelled. All four components share the denominator det Uhat / i,
    which assemble_frame keeps away from zero; they are computed once per
    frame and returned read-only.
    """
    return frame._potential


def commutator_potential(frame):
    """Independent route: V_new = V - i[gamma, (dU/dx) U^{-1}] per point, as
    a real (n, 3, 3) stack in apply_dirac's gauge.

    (dU/dx) U^{-1} = (Uhat' + Uhat G'G^{-1}) Uhat^{-1} takes the analytic
    derivatives of the seed functions, so it shares no algebra with the
    closed-form ratios of transformed_potential. With Uhat = diag(i, 1, 1) F
    it is diag(i, 1, 1) m diag(-i, 1, 1), m = df F^{-1} real, and the gauge
    turns gamma into -i*J, J = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], so V_new's
    gauge form is V's minus J m - m J.
    """
    m = np.einsum("ijn,jkn->nik", frame.df, frame.f_inv)
    # J m moves row 1 up and row 0, negated, down; m J does so to columns;
    # the seed term comes last, as in the complex form, whose values this keeps
    comm = np.zeros_like(m)
    comm[:, 0] = m[:, 1]
    np.negative(m[:, 0], out=comm[:, 1])
    comm[:, :, 0] += m[:, :, 1]
    comm[:, :, 1] -= m[:, :, 0]
    return seed_components(frame.seed).gauge() - comm


def dual_path_difference(frame, commutator):
    """Max entrywise gap between the two potential constructions, given the
    frame's commutator_potential stack."""
    explicit = transformed_potential(frame).gauge()
    return float(np.abs(explicit - commutator).max())


def hermiticity_asymmetry(stack):
    """Max over points of ||G - G^T||_inf / (1 + ||G||_inf), G a real (n, 3, 3)
    stack in apply_dirac's unitary gauge: ||V - V^dag||_inf / (1 + ||V||_inf)."""
    stack = real_array(stack, "hermiticity_asymmetry")
    asym = np.abs(stack - np.swapaxes(stack, 1, 2))
    norm = np.abs(stack).sum(axis=2).max(axis=1)  # inf-norm per point
    return float((asym.sum(axis=2).max(axis=1) / (1.0 + norm)).max())


def apply_darboux(frame, state):
    """L acting on real (..., 3, n) spinors in apply_dirac's gauge: U d/dx
    (U^{-1} state) with the stencil of diff_central, as Uhat D_G (Uhat^{-1}
    state), where D_G weights the neighbour j of point i by G_i/G_j =
    exp(log G_i - log G_j). Uhat = diag(i, 1, 1) F, so in the gauge L is
    F D_G F^{-1}, summed in the order of Uhat's products: it has their values."""
    z = np.einsum("ijn,...jn->...in", frame.f_inv, real_array(state, "apply_darboux"))
    up, down = frame._weights
    d = np.empty_like(z)
    d[..., 0] = -3 * z[..., 0] + up[:, 0] * (4 * z[..., 1] - up[:, 1] * z[..., 2])
    d[..., -1] = 3 * z[..., -1] - down[:, -1] * (4 * z[..., -2] - down[:, -2] * z[..., -3])
    np.multiply(up[:, 1:], z[..., 2:], out=d[..., 1:-1])
    z[..., :-2] *= down[:, :-1]  # in place: the ends are done
    d[..., 1:-1] -= z[..., :-2]
    d *= 1.0 / (2 * frame.grid.h)  # diff_central's scaling
    return np.einsum("ijn,...jn->...in", frame.f, d, out=z)


def _level_residuals(fr, v_seed, states):
    """||(L H - H_new L) psi||_inf on fr's grid for each of states(x). A
    real state f is diag(i, 1, 1) (x + i x') with x = (0, f1, f2) and x' =
    (-f0, 0, 0), run as one (2, 3, n) array; the modulus is numpy's complex
    abs. V_new, the test states and a frame built for this call die with it."""
    g = fr.grid
    v_new = transformed_potential(fr)
    level = []
    for f in states(g.x):
        x = np.zeros((2,) + f.shape)
        x[0, 1:] = f[1:]
        np.negative(f[0], out=x[1, 0])
        lhs = apply_darboux(fr, apply_dirac(v_seed, x, g))
        x = apply_darboux(fr, x)  # rebinding frees x: one array fewer while H_new acts
        lhs -= apply_dirac(v_new, x, g)
        z = np.empty(f.shape, dtype=complex)
        z.real, z.imag = lhs
        level.append(np.abs(z, out=lhs[0]).max())
        del x, lhs, z  # before the next state's arrays
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


# route -> (operator of V on a grid, default box half-width for a seed and n
# cells or points, predicted in-gap states at the flat energy lambda): the saw
# chain has cell spacing 1 at its default box, ends on strong bonds and binds
# none; the central stencil's Wilson term binds one domain-wall mode at -lambda.
# Each operator names its builder at call time, so a wrapper installed on this
# module's names (perfbench's tracer) sees the call
ROUTES = {
    "chain": (lambda comps, grid: saw_chain(saw_cells(comps, grid)),
              lambda seed, n: (n - 1) / 2.0, lambda lam: ()),
    "continuum": (lambda comps, grid: discretize(comps, grid),
                  lambda seed, n: 12.0 / seed.kappa0, lambda lam: (-lam,)),
}


def partner_route(seed, route, n_points, box=None):
    """The grid of n_points over [-box, box] (box None: the route's default),
    the banded operator of the seed's V_new on it, and the keyword arguments
    under which chain_spectrum reads that operator, for one route of ROUTES.

    The windows about lambda are fractions of the analytic gap edge E, so that
    no count depends on the units: the flat cluster within 1e-5 E; no gap edge
    within 0.1 E, as the chain holds non-cluster states just past the cluster.
    """
    operator, default_box, predicted = ROUTES[route]
    box = default_box(seed, n_points) if box is None else box
    grid = Grid(-box, box, n_points)
    op = operator(transformed_potential(assemble_frame(seed, grid)), grid)
    return grid, op, dict(flat_energy=seed.flat_energy, cluster_tol=1e-5 * seed.gap_edge,
                          gap_exclusion=0.1 * seed.gap_edge, predicted=predicted(seed.flat_energy))
