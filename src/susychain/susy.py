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

from .continuum import DiracOperatorSpec, apply_dirac, potential_matrix
from .errors import NumericalError, SingularFrameError
from .numcore import Grid, diff_central, stack_matmul, stack_matvec

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
    return potential_matrix(s.mass, s.gauge_a, 0.0, 0.0, 0.0, s.flat_energy)


@dataclass(frozen=True)
class TransformationFrame:
    """The seed frame sampled on a grid. f holds the rows of U without the
    factor i of its first row, (psi0, psi1, psi2), (phi0, phi1, phi2) and
    (0, xi1, xi2), as a read-only real (3, 3, n) array; df holds the same
    rows of dU/dx; det U = i * det."""

    grid: Grid
    seed: SeedData
    f: np.ndarray
    df: np.ndarray
    det: np.ndarray

    @cached_property
    def u(self):
        """U(x_i) as a read-only (n, 3, 3) complex stack, built once per frame."""
        u = _frame_stack(self.f)
        u.flags.writeable = False
        return u

    @cached_property
    def u_inv(self):
        """Read-only per-point U^{-1}, computed once per frame."""
        # the 3x3 adjugate formula; det U = i * self.det
        u_inv = _adjugate3(self.u) / (1j * self.det)[:, None, None]
        u_inv.flags.writeable = False
        return u_inv

    @property
    def du(self):
        """dU/dx as an (n, 3, 3) complex stack, built on each access."""
        return _frame_stack(self.df)

    @cached_property
    def _potential(self):
        # the closed-form ratios documented at transformed_potential
        s = self.seed
        pref = s.mass - s.flat_energy
        den = self.det
        if np.abs(den).min() == 0.0:
            i = int(np.argmin(np.abs(den)))
            raise SingularFrameError(self.grid.x[i], 0.0,
                                     what="potential denominator")
        (psi0, psi1, psi2), (phi0, phi1, phi2), (_, xi1, xi2) = self.f
        q_psi = xi2 * psi1 - xi1 * psi2
        q_phi = xi2 * phi1 - xi1 * phi2
        w_flip = phi1 * psi2 - phi2 * psi1
        v12 = -s.gauge_a + pref * (psi0 * q_psi - phi0 * q_phi) / den
        v13 = pref * psi0 * w_flip / den
        v23 = -pref * phi0 * w_flip / den
        v11 = -s.mass + pref * (psi0 * q_phi + phi0 * q_psi) / den
        for v in (v11, v12, v13, v23):
            v.flags.writeable = False
        return PotentialComponents(self.grid, v11, v12, v13, v23, s.flat_energy)

    @property
    def wronskian_relative_stdev(self):
        """Rms over samples of (w - W) / (|phi2*psi1| + |phi1*psi2|).

        W is the exact constant. The two products grow like cosh^2 on wide
        boxes and cancel to W, so each sample's deviation is measured in
        units of its own rounding scale, not of W.
        """
        (_, psi1, psi2), (_, phi1, phi2), _ = self.f
        a, b = phi2 * psi1, phi1 * psi2
        dev = (a - b - self.seed.wronskian_constant) / (np.abs(a) + np.abs(b))
        return float(np.sqrt(np.mean(dev**2)))


# U's first row carries a factor i; its other rows are real
ROW_PHASE = np.array([1j, 1.0, 1.0])


def _frame_stack(rows):
    """U (or dU/dx) from its real (3, 3, n) rows, as an (n, 3, 3) view of
    component-major storage."""
    return np.moveaxis(ROW_PHASE[:, None, None] * rows, -1, 0)


def _adjugate3(u):
    """Adjugate of an (n, 3, 3) stack (transpose of cofactors), in u's layout."""
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
    """Sample the seed frame and its x-derivatives on a grid; check regularity.

    The entries of U grow like exp(kappa0*|x|) and exp(A*|x|), so det U
    grows like exp((2*kappa0 + |A|)*|x|); a box on which any sample leaves
    the double range raises NumericalError.
    """
    x = grid.x
    k0, a, w0, c0, c1 = s.kappa0, s.gauge_a, s.w0, s.c0, s.c1
    denom = s.mass - s.flat_energy
    ch, sh, th = np.cosh(k0 * x), np.sinh(k0 * x), np.tanh(k0 * x)
    sech = 1.0 / ch
    ea = np.exp(-a * x)
    # each sample is written into its row of f (U) or df (dU/dx); U[2, 0]
    # and its derivative stay 0
    f, df = np.zeros((2, 3, 3, x.size))
    (psi0, psi1, psi2), (phi0, phi1, phi2), (_, xi1, xi2) = f
    (dpsi0, dpsi1, dpsi2), (dphi0, dphi1, dphi2), (_, dxi1, dxi2) = df

    # first column (i*psi0, phi0, 0), at energy mass
    psi0[:] = -s.mass * ea
    phi0[:] = a * ea
    dpsi0[:] = a * s.mass * ea
    dphi0[:] = -(a**2) * ea
    # flat-level columns: phi2 = cosh(kappa0 x); phi1 follows by reduction
    # of order with quadrature constant c0; psi_a = (phi_a' + A*phi_a)/denom.
    # psi1 divides by ch where dphi1 multiplies by sech: the two differ in
    # the last bit when w0 != 1, and each keeps its own rounding
    phi2[:] = xi2[:] = ch
    phi1[:] = ch * (w0 * th / k0 + c0)
    dphi2[:] = dxi2[:] = k0 * sh
    grow1 = sh * (w0 * th + k0 * c0)
    dphi1[:] = grow1 + w0 * sech
    psi2[:] = (k0 * sh + a * ch) / denom
    psi1[:] = (grow1 + w0 / ch + a * phi1) / denom
    # phi_a'' = kappa0^2 * phi_a  =>  psi_a' = (kappa0^2*phi_a + A*phi_a')/denom
    dpsi1[:] = (k0**2 * phi1 + a * dphi1) / denom
    dpsi2[:] = (k0**2 * phi2 + a * dphi2) / denom
    # third column: with xi2 = cosh(kappa0 x), xi1 = xi2*(c1 - w*Integral dx/xi2^2)
    # hermitizes V_new, where w = (mass - flat_energy) times the actual
    # Wronskian constant phi2*psi1 - phi1*psi2; Integral sech^2 = tanh/kappa0
    w = (s.mass - s.flat_energy) * s.wronskian_constant
    hermit = c1 - w * th / k0
    xi1[:] = ch * hermit
    dxi1[:] = dxi2 * hermit - w * sech

    det = psi0 * (phi1 * xi2 - phi2 * xi1) - phi0 * (psi1 * xi2 - psi2 * xi1)
    # scale-invariant regularity: compare |det| to the Hadamard bound at
    # each point (the frame functions grow exponentially, so a single
    # global scale would misclassify large boxes)
    hadamard = (np.hypot(psi0, phi0)
                * np.sqrt(psi1**2 + phi1**2 + xi1**2)
                * np.sqrt(psi2**2 + phi2**2 + xi2**2))
    finite = (np.isfinite(f).all(axis=(0, 1)) & np.isfinite(df).all(axis=(0, 1))
              & np.isfinite(det) & np.isfinite(hadamard))
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
    f.flags.writeable = df.flags.writeable = False
    return TransformationFrame(grid=grid, seed=s, f=f, df=df, det=det)


def frame_eigen_residuals(frame):
    """Relative sup-norm residuals of (H - E) on each U column.

    Derivatives come from the finite-difference stencil, so the residual
    is O(h^2) for exact seed functions.
    """
    s = frame.seed
    seed_op = DiracOperatorSpec(seed_potential_matrix(s))
    energies = (s.mass, s.flat_energy, s.flat_energy)
    res = []
    for col, e in zip(frame.u.T, energies):  # the columns of U, each (3, n)
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
    flat_energy: float

    def matrix_stack(self):
        """V(x_i) as an (n, 3, 3) complex stack."""
        return potential_matrix(self.v11, self.v12, self.v13, self.v23,
                                0.0, self.flat_energy)


def transformed_potential(frame):
    """Transformed potential from the explicit closed-form ratios.

    All four components share the denominator
        psi0*(xi2*phi1 - xi1*phi2) - phi0*(xi2*psi1 - xi1*psi2),
    which coincides with det U / i, so frame regularity already
    guarantees it is bounded away from zero. The components are computed
    once per frame and returned read-only.
    """
    return frame._potential


def commutator_potential(frame):
    """Independent route: V_new = V - i[gamma, (dU/dx) U^{-1}] per point.

    Uses the analytic derivatives of the seed functions, so it shares no
    algebra with the closed-form ratios of transformed_potential.
    """
    v_seed = seed_potential_matrix(frame.seed)
    m = stack_matmul(frame.du, frame.u_inv)
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
    """L acting on a sampled (3, n) spinor: U d/dx (U^{-1} state)."""
    f = np.asarray(state, dtype=complex)
    y = stack_matvec(frame.u_inv, f)
    return stack_matvec(frame.u, diff_central(y, frame.grid))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual is raised below
def intertwining_residual(frame, states, n_levels=3):
    """||(L H - H_new L) psi||_inf across grid refinements.

    states maps a grid's x to an (n_states, 3, n) array of spinors.
    Returns residuals of shape (n_states, n_levels) and the measured
    orders log2(r_l / r_{l+1}). Raises NumericalError naming the grid
    spacing where a residual is not finite (the stencil's 1/(2h) overflows
    on a tiny box).
    """
    grids = [frame.grid]
    for _ in range(n_levels - 1):
        grids.append(grids[-1].refined())
    residuals = []
    seed_op = DiracOperatorSpec(seed_potential_matrix(frame.seed))
    for g in grids:
        fr = frame if g is frame.grid else assemble_frame(frame.seed, g)
        new_op = DiracOperatorSpec(transformed_potential(fr).matrix_stack())
        level = []
        for f in np.asarray(states(g.x), dtype=complex):
            lhs = apply_darboux(fr, apply_dirac(seed_op, f, g))
            rhs = apply_dirac(new_op, apply_darboux(fr, f), g)
            level.append(np.abs(lhs - rhs).max())
        if not np.all(np.isfinite(level)):
            raise NumericalError(f"intertwining residual is not finite at grid spacing "
                                 f"h={g.h:.6g}")
        residuals.append(level)
    residuals = np.array(residuals).T
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
    satisfy (H_new - E_j) state = O(h^2) with E = (mass, flat, flat).
    """
    s = frame.seed
    g = frame.grid
    w = np.conj(np.swapaxes(frame.u_inv, 1, 2))  # (n, 3, 3)
    new_op = DiracOperatorSpec(transformed_potential(frame).matrix_stack())
    energies = (s.mass, s.flat_energy, s.flat_energy)
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
