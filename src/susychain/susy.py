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

Convention note: the Wronskian-like constant phi2*psi1 - phi1*psi2 equals
w0 / (mass - flat_energy) with the w0 entering phi1's quadrature; the
hermitization integral needs the actual constant, not w0 itself.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuum import GAMMA, DiracOperatorSpec, apply_dirac, potential_matrix
from .errors import NumericalError, SingularFrameError
from .numcore import Grid, diff_central, integrate_cumulative

SINGULARITY_REL_TOL = 1e-8


@dataclass(frozen=True)
class SeedData:
    """Constants defining the decoupled seed Hamiltonian and its eigenstates."""

    mass: float
    flat_energy: float
    gauge_a: float
    epsilon: float
    scalar_v: float = 0.0
    c0: float = 0.0
    c1: float = 0.0
    w0: float = 1.0

    def __post_init__(self):
        if abs(self.flat_energy) == abs(self.mass):
            raise NumericalError("|flat_energy| must differ from |mass|")
        if self.w0 == 0.0:
            raise NumericalError("w0 = 0 makes the two flat-level seeds dependent")
        if self.kappa0_sq <= 0.0:
            raise NumericalError(
                f"kappa0^2 = {self.kappa0_sq:.3e} <= 0: oscillatory seeds unsupported"
            )

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


def seed_potential_matrix(s):
    """Potential part of the seed Hamiltonian (constant in x)."""
    return np.array([
        [s.mass + s.scalar_v, -1j * s.gauge_a, 0.0],
        [1j * s.gauge_a, -s.mass + s.scalar_v, 0.0],
        [0.0, 0.0, s.flat_energy],
    ])


def seed_epsilon_state(s):
    """Closed-form eigenstate (i*psi0, phi0, 0) at energy epsilon = mass."""
    if s.epsilon != s.mass:
        raise NumericalError("only the epsilon = mass specialization is implemented")
    m, a = s.mass, s.gauge_a

    def psi0(x):
        return -m * np.exp(-a * np.asarray(x, dtype=float))

    def phi0(x):
        return a * np.exp(-a * np.asarray(x, dtype=float))

    return psi0, phi0


def seed_lambda_states(s):
    """Closed-form flat-level seeds (phi1, phi2, psi1, psi2).

    phi2 = cosh(kappa0 x); phi1 follows by reduction of order with
    quadrature constant c0; psi_a = (phi_a' + A*phi_a)/(mass - flat_energy).
    """
    if s.mass == s.flat_energy:
        raise NumericalError("mass = flat_energy: psi components diverge")
    k0, a = s.kappa0, s.gauge_a
    denom = s.mass - s.flat_energy
    w0, c0 = s.w0, s.c0

    def phi2(x):
        return np.cosh(k0 * np.asarray(x, dtype=float))

    def phi1(x):
        x = np.asarray(x, dtype=float)
        return np.cosh(k0 * x) * (w0 * np.tanh(k0 * x) / k0 + c0)

    def psi2(x):
        x = np.asarray(x, dtype=float)
        return (k0 * np.sinh(k0 * x) + a * np.cosh(k0 * x)) / denom

    def psi1(x):
        x = np.asarray(x, dtype=float)
        dphi1 = np.sinh(k0 * x) * (w0 * np.tanh(k0 * x) + k0 * c0) + w0 / np.cosh(k0 * x)
        return (dphi1 + a * phi1(x)) / denom

    return phi1, phi2, psi1, psi2


def hermitize_xi1(s, xi2=None, grid=None):
    """Third-column function xi1 that restores hermiticity of V_new.

    xi1 = xi2 * (c1 - (epsilon - flat_energy) * Wbar * Integral dx/xi2^2),
    with Wbar the actual constant phi2*psi1 - phi1*psi2. With xi2 = None
    the default cosh seed is used and the integral is done in closed form
    (tanh); otherwise xi2 is sampled on the given grid and the integral is
    taken by cumulative trapezoid anchored at x = 0.
    """
    w = (s.epsilon - s.flat_energy) * s.wronskian_constant
    if xi2 is None:
        k0, c1 = s.kappa0, s.c1

        def xi1(x):
            x = np.asarray(x, dtype=float)
            return np.cosh(k0 * x) * (c1 - w * np.tanh(k0 * x) / k0)

        return xi1
    if grid is None:
        raise NumericalError("a grid is required to hermitize a general xi2")
    xi2_samples = np.asarray(xi2(grid.x), dtype=float)
    if np.abs(xi2_samples).min() == 0.0:
        i = int(np.argmin(np.abs(xi2_samples)))
        raise SingularFrameError(grid.x[i], 0.0, what="xi2")
    integral = integrate_cumulative(1.0 / xi2_samples**2, grid)
    return xi2_samples * (s.c1 - w * integral)


@dataclass(frozen=True)
class TransformationFrame:
    """Seed functions, their derivatives and det U sampled on a grid."""

    grid: Grid
    seed: SeedData
    psi0: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    phi0: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    dpsi0: np.ndarray
    dpsi1: np.ndarray
    dpsi2: np.ndarray
    dphi0: np.ndarray
    dphi1: np.ndarray
    dphi2: np.ndarray
    dxi1: np.ndarray
    dxi2: np.ndarray
    det: np.ndarray  # det U = i * det (this real array)

    def u_stack(self):
        """U(x_i) as a read-only (n, 3, 3) complex stack, built once per frame."""
        return self._u

    def u_inv_stack(self):
        """Read-only per-point U^{-1}, computed once per frame."""
        return self._u_inv

    @cached_property
    def _u(self):
        u = _frame_stack((self.psi0, self.psi1, self.psi2),
                         (self.phi0, self.phi1, self.phi2), (self.xi1, self.xi2))
        u.flags.writeable = False
        return u

    @cached_property
    def _u_inv(self):
        # the 3x3 adjugate formula; det U = i * self.det
        u_inv = _adjugate3(self._u) / (1j * self.det)[:, None, None]
        u_inv.flags.writeable = False
        return u_inv

    def du_stack(self):
        return _frame_stack((self.dpsi0, self.dpsi1, self.dpsi2),
                            (self.dphi0, self.dphi1, self.dphi2), (self.dxi1, self.dxi2))

    @property
    def wronskian_samples(self):
        return self.phi2 * self.psi1 - self.phi1 * self.psi2

    @property
    def wronskian_relative_stdev(self):
        w = self.wronskian_samples
        return float(np.std(w) / np.abs(np.mean(w)))

    @property
    def min_abs_det(self):
        return float(np.abs(self.det).min())


def _frame_stack(psi, phi, xi):
    """(n, 3, 3) stack with rows (i*psi0, i*psi1, i*psi2), (phi0, phi1, phi2)
    and (0, xi1, xi2): the layout of U and of dU/dx."""
    u = np.zeros((len(phi[0]), 3, 3), dtype=complex)
    for j in range(3):
        u[:, 0, j] = 1j * psi[j]
        u[:, 1, j] = phi[j]
    u[:, 2, 1], u[:, 2, 2] = xi
    return u


def _adjugate3(u):
    """Adjugate of an (n, 3, 3) stack (transpose of cofactors)."""
    adj = np.empty_like(u)
    for i in range(3):
        for j in range(3):
            r0, r1 = (a for a in range(3) if a != j)
            c0, c1 = (b for b in range(3) if b != i)
            cof = u[:, r0, c0] * u[:, r1, c1] - u[:, r0, c1] * u[:, r1, c0]
            adj[:, i, j] = (-1) ** (i + j) * cof
    return adj


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked from the samples
def assemble_frame(s, grid):
    """Sample all seed functions on a grid and validate regularity.

    The entries of U grow like exp(kappa0*|x|) and exp(A*|x|), so det U
    grows like exp((2*kappa0 + |A|)*|x|); a box on which any sample leaves
    the double range raises NumericalError.
    """
    x = grid.x
    psi0f, phi0f = seed_epsilon_state(s)
    phi1f, phi2f, psi1f, psi2f = seed_lambda_states(s)
    xi1f = hermitize_xi1(s)

    k0, a, w0, c0, c1 = s.kappa0, s.gauge_a, s.w0, s.c0, s.c1
    denom = s.mass - s.flat_energy
    ch, sh, th = np.cosh(k0 * x), np.sinh(k0 * x), np.tanh(k0 * x)
    sech = 1.0 / ch
    w = (s.epsilon - s.flat_energy) * s.wronskian_constant

    psi0, phi0 = psi0f(x), phi0f(x)
    phi1, phi2, psi1, psi2 = phi1f(x), phi2f(x), psi1f(x), psi2f(x)
    xi1, xi2 = xi1f(x), ch

    dpsi0 = a * s.mass * np.exp(-a * x)
    dphi0 = -(a**2) * np.exp(-a * x)
    dphi2 = k0 * sh
    dphi1 = sh * (w0 * th + k0 * c0) + w0 * sech
    # phi_a'' = kappa0^2 * phi_a  =>  psi_a' = (kappa0^2*phi_a + A*phi_a')/denom
    dpsi1 = (k0**2 * phi1 + a * dphi1) / denom
    dpsi2 = (k0**2 * phi2 + a * dphi2) / denom
    dxi2 = k0 * sh
    dxi1 = k0 * sh * (c1 - w * th / k0) - w * sech

    det = psi0 * (phi1 * xi2 - phi2 * xi1) - phi0 * (psi1 * xi2 - psi2 * xi1)
    # scale-invariant regularity: compare |det| to the Hadamard bound at
    # each point (the frame functions grow exponentially, so a single
    # global scale would misclassify large boxes)
    hadamard = (np.hypot(psi0, phi0)
                * np.sqrt(psi1**2 + phi1**2 + xi1**2)
                * np.sqrt(psi2**2 + phi2**2 + xi2**2))
    finite = np.isfinite([psi0, psi1, psi2, phi0, phi1, phi2, xi1, xi2, dpsi0, dpsi1,
                          dpsi2, dphi0, dphi1, dphi2, dxi1, dxi2, det, hadamard]).all(axis=0)
    if not finite.all():
        raise NumericalError(
            f"seed frame overflows at x={x[np.argmin(finite)]:.6g}: det U grows like "
            f"exp((2*kappa0 + |A|)*|x|), with kappa0={k0:.6g} and |A|={abs(a):.6g}, "
            f"on a box of half-width {max(-grid.x_min, grid.x_max):.6g}; "
            f"shrink the box, the mass or the seed constants")
    bad = np.abs(det) < SINGULARITY_REL_TOL * hadamard
    if bad.any():
        i = int(np.argmax(hadamard / np.maximum(np.abs(det), 1e-300)))
        raise SingularFrameError(x[i], float(np.abs(det[i])))

    return TransformationFrame(
        grid=grid, seed=s,
        psi0=psi0, psi1=psi1, psi2=psi2,
        phi0=phi0, phi1=phi1, phi2=phi2,
        xi1=xi1, xi2=xi2,
        dpsi0=dpsi0, dpsi1=dpsi1, dpsi2=dpsi2,
        dphi0=dphi0, dphi1=dphi1, dphi2=dphi2,
        dxi1=dxi1, dxi2=dxi2,
        det=det,
    )


def frame_eigen_residuals(frame):
    """Relative sup-norm residuals of (H - E) on each U column.

    Derivatives come from the finite-difference stencil, so the residual
    is O(h^2) for exact seed functions.
    """
    s = frame.seed
    seed_op = DiracOperatorSpec(seed_potential_matrix(s))
    u = frame.u_stack()
    energies = (s.epsilon, s.flat_energy, s.flat_energy)
    res = []
    for j, e in enumerate(energies):
        col = u[:, :, j].T  # (3, n)
        r = apply_dirac(seed_op, col, frame.grid) - e * col
        res.append(float(np.abs(r).max() / (1.0 + np.abs(col).max())))
    return res


@dataclass(frozen=True)
class PotentialComponents:
    """Real component functions of the transformed 3x3 potential."""

    grid: Grid
    v11: np.ndarray
    v12: np.ndarray
    v13: np.ndarray
    v23: np.ndarray
    scalar_v: float
    flat_energy: float

    def matrix_stack(self):
        """V(x_i) as an (n, 3, 3) complex stack."""
        return potential_matrix(self.v11, self.v12, self.v13, self.v23,
                                self.scalar_v, self.flat_energy)


def transformed_potential(frame):
    """Transformed potential from the explicit closed-form ratios.

    All four components share the denominator
        psi0*(xi2*phi1 - xi1*phi2) - phi0*(xi2*psi1 - xi1*psi2),
    which coincides with det U / i, so frame regularity already
    guarantees it is bounded away from zero.
    """
    s = frame.seed
    pref = s.epsilon - s.flat_energy
    den = frame.det
    if np.abs(den).min() == 0.0:
        i = int(np.argmin(np.abs(den)))
        raise SingularFrameError(frame.grid.x[i], 0.0,
                                 what="potential denominator")
    q_psi = frame.xi2 * frame.psi1 - frame.xi1 * frame.psi2
    q_phi = frame.xi2 * frame.phi1 - frame.xi1 * frame.phi2
    w_flip = frame.phi1 * frame.psi2 - frame.phi2 * frame.psi1
    v12 = -s.gauge_a + pref * (frame.psi0 * q_psi - frame.phi0 * q_phi) / den
    v13 = pref * frame.psi0 * w_flip / den
    v23 = -pref * frame.phi0 * w_flip / den
    v11 = -s.mass + pref * (frame.psi0 * q_phi + frame.phi0 * q_psi) / den
    return PotentialComponents(frame.grid, v11, v12, v13, v23,
                               s.scalar_v, s.flat_energy)


def commutator_potential(frame):
    """Independent route: V_new = V - i[gamma, (dU/dx) U^{-1}] per point.

    Uses the analytic derivatives of the seed functions, so it shares no
    algebra with the closed-form ratios of transformed_potential.
    """
    s = frame.seed
    v_seed = seed_potential_matrix(s)
    m = np.einsum("nij,njk->nik", frame.du_stack(), frame.u_inv_stack())
    comm = np.einsum("ij,njk->nik", GAMMA, m) - np.einsum("nij,jk->nik", m, GAMMA)
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
    """L acting on a sampled (3, n) spinor: U d/dx (U^{-1} state)."""
    f = np.asarray(state, dtype=complex)
    y = np.einsum("nij,jn->in", frame.u_inv_stack(), f)
    dy = diff_central(y, frame.grid)
    return np.einsum("nij,jn->in", frame.u_stack(), dy)


def intertwining_residual(frame, states, n_levels=3):
    """||(L H - H_new L) psi||_inf across grid refinements.

    states are callables x -> (3,) or (3, n) complex samples. Returns
    residuals of shape (n_states, n_levels) and the measured orders
    log2(r_l / r_{l+1}).
    """
    grids = [frame.grid]
    for _ in range(n_levels - 1):
        grids.append(grids[-1].refined())
    residuals = np.empty((len(states), n_levels))
    seed_op = DiracOperatorSpec(seed_potential_matrix(frame.seed))
    for li, g in enumerate(grids):
        fr = frame if g is frame.grid else assemble_frame(frame.seed, g)
        new_op = DiracOperatorSpec(transformed_potential(fr).matrix_stack())
        for si, state in enumerate(states):
            f = np.asarray(state(g.x), dtype=complex)
            lhs = apply_darboux(fr, apply_dirac(seed_op, f, g))
            rhs = apply_dirac(new_op, apply_darboux(fr, f), g)
            residuals[si, li] = np.abs(lhs - rhs).max()
    orders = np.log2(residuals[:, :-1] / residuals[:, 1:])
    return residuals, orders


@dataclass(frozen=True)
class EigenstateReport:
    energy: float
    residual: float
    l2_mass: float
    tail_decay_rate: float  # fitted d(log amplitude)/dx on the right tail


def inverse_dagger_states(frame):
    """Candidate eigenstates of the transformed operator: columns of (U^{-1})^dag.

    Returns (states, reports): states[j] is a (3, n) array expected to
    satisfy (H_new - E_j) state = O(h^2) with E = (epsilon, flat, flat).
    """
    s = frame.seed
    g = frame.grid
    w = np.conj(np.swapaxes(frame.u_inv_stack(), 1, 2))  # (n, 3, 3)
    new_op = DiracOperatorSpec(transformed_potential(frame).matrix_stack())
    energies = (s.epsilon, s.flat_energy, s.flat_energy)
    states, reports = [], []
    n_tail = max(3, g.n_points // 5)
    for j, e in enumerate(energies):
        st = w[:, :, j].T  # (3, n)
        r = apply_dirac(new_op, st, g) - e * st
        amp = np.linalg.norm(st, axis=0)
        mass = float(np.trapezoid(amp**2, g.x))
        tail = np.log(np.maximum(amp[-n_tail:], 1e-300))
        rate = float(np.polyfit(g.x[-n_tail:], tail, 1)[0])
        states.append(st)
        reports.append(EigenstateReport(
            energy=e,
            residual=float(np.abs(r).max() / (1.0 + np.abs(st).max())),
            l2_mass=mass,
            tail_decay_rate=rate,
        ))
    return states, reports
