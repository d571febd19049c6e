"""The two closed-form coupled-chain models.

Both are two-parameter (mass m, flat energy lambda) specializations of the
Darboux engine in which the quadrature constants are chosen so that w0 and
c1 drop out of the final potential. They serve as analytic oracles for the
general pipeline.

Model I:  gauge A = sqrt(m(m - lambda)), kappa = sqrt((m - lambda)(2m + lambda)).
          Regular for -2m < lambda < m (m > 0). Continuum spectrum
          (-inf, -sqrt(m(2m - lambda))] u [sqrt(m(2m - lambda)), inf) u {lambda}.
Model II: gauge A = m, kappa = sqrt(2 m^2 - lambda^2), regular for
          lambda^2 < 2 m^2. The dimerization component v12 is exactly the
          constant -lambda. Its band edges +-sqrt(2)*|m| are derived here
          from the asymptotics (no published spectrum); reports flag them
          as derived.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .continuum import PotentialComponents, threshold_scan
from .errors import NumericalError
from .susy import MAX_MODEL_PARAM, SeedData


class ModelKind(enum.Enum):
    I = "I"
    II = "II"


@dataclass(frozen=True)
class ModelParams:
    """One admissible (kind, mass, flat energy) triple; construction checks
    it with validate_params and raises NumericalError on any violation."""

    kind: ModelKind
    mass: float
    flat_energy: float

    def __post_init__(self):
        violations = validate_params(self)
        if violations:
            raise NumericalError("invalid model parameters: " + "; ".join(violations))

    @property
    def gauge_a(self):
        if self.kind is ModelKind.I:
            return float(np.sqrt(self.mass * (self.mass - self.flat_energy)))
        return self.mass

    @property
    def kappa(self):
        m, lam = self.mass, self.flat_energy
        if self.kind is ModelKind.I:
            return float(np.sqrt((m - lam) * (2 * m + lam)))
        return float(np.sqrt(2 * m**2 - lam**2))

    @property
    def omega(self):
        m, lam = self.mass, self.flat_energy
        if self.kind is ModelKind.I:
            return -4 * m / (np.sqrt(m * (m - lam)) * (2 * m + lam))
        return -2 * (2 * m - lam) / (2 * m**2 - lam**2)

    def seed_data(self, w0=1.0, c1=0.0):
        """SeedData realizing this model in the general engine."""
        return SeedData(
            mass=self.mass,
            flat_energy=self.flat_energy,
            gauge_a=self.gauge_a,
            c0=w0 * self.omega + c1,
            c1=c1,
            w0=w0,
        )


def validate_params(p):
    """List of violated admissibility conditions (empty means ok)."""
    m, lam = p.mass, p.flat_energy
    out = []
    if not isinstance(p.kind, ModelKind):
        return [f"kind must be a ModelKind, got {p.kind!r}"]
    if not (np.isfinite(m) and np.isfinite(lam)):
        return ["mass and flat_energy must be finite"]
    if max(abs(m), abs(lam)) > MAX_MODEL_PARAM:
        return [f"|mass| and |flat_energy| must not exceed {MAX_MODEL_PARAM:g}"]
    if p.kind is ModelKind.I:
        if m * (m - lam) <= 0:
            out.append(f"m(m - lambda) = {m * (m - lam):.3e} must be > 0")
        if not (-2 * m < lam):
            out.append(f"-2m < lambda violated (lambda = {lam:g}, m = {m:g})")
        if not (lam < m):
            out.append(f"lambda < m violated (lambda = {lam:g}, m = {m:g})")
    else:
        if not (lam**2 < 2 * m**2):
            out.append(f"lambda^2 < 2 m^2 violated (lambda^2 = {lam**2:g}, "
                       f"2m^2 = {2 * m**2:g})")
    if abs(lam) == abs(m):
        out.append("|lambda| = |m| is excluded")
    if not out:
        # the model kappa must equal the seed kappa0
        kappa0 = float(np.sqrt(p.gauge_a**2 + m**2 - lam**2))
        if abs(p.kappa - kappa0) > 1e-14 * max(1.0, p.kappa):
            out.append("internal: kappa != kappa0")
    return out


# beyond |2 kappa x| = 700, tanh is +-1 in double precision and sech is
# below 1e-303, while cosh overflows from 710 on
MAX_HYPERBOLIC_ARG = 700.0


def _hyperbolic_arg(k, x, c):
    """2*kappa*x clipped so that c*cosh of it stays finite.

    The bound is MAX_HYPERBOLIC_ARG, less log(c) when the cosh coefficient
    c exceeds 1; for c <= 1 it is MAX_HYPERBOLIC_ARG exactly.
    """
    limit = MAX_HYPERBOLIC_ARG - max(float(np.log(c)), 0.0)
    return np.clip(2 * k * np.asarray(x, dtype=float), -limit, limit)


def model_potential(p, x):
    """Closed-form potential components (v11, v12, v13, v23) of either model."""
    m, lam, k = p.mass, p.flat_energy, p.kappa
    model1 = p.kind is ModelKind.I
    z = _hyperbolic_arg(k, x, 2 * m - lam if model1 else 2 * (m - lam) ** 2)
    sech2 = 1.0 / np.cosh(z)
    tanh2 = np.tanh(z)
    cosh2 = np.cosh(z)
    if model1:
        root = np.sqrt(m * (m - lam))
        den_a = 2 * m - lam + 4 * m * sech2
        den_b = 4 * m + (2 * m - lam) * cosh2
        v12 = -lam * (2 * root * (1 + sech2) - k * tanh2) / den_a
        v13 = np.sqrt(m * (2 * m + lam)) * k / den_b
        v23 = k**2 / den_b
        v11 = -(lam**2 + 4 * m**2 * sech2 + 2 * root * k * tanh2) / den_a
        return v11, v12, v13, v23
    v12 = -lam * np.ones_like(z)
    v13 = (m - lam) * k**2 / ((2 * m - lam) ** 2 + 2 * (m - lam) ** 2 * cosh2)
    v23 = v13.copy()
    v11 = (-k * ((2 * m - lam) * k * sech2 + 2 * (m - lam) ** 2 * tanh2)
           / (2 * (m - lam) ** 2 + (2 * m - lam) ** 2 * sech2))
    return v11, v12, v13, v23


def model_potential_components(p, grid):
    """PotentialComponents table of either model on a grid."""
    v11, v12, v13, v23 = model_potential(p, grid.x)
    return PotentialComponents(v11, v12, v13, v23, p.flat_energy)


def asymptotic_cell(p, side):
    """Constant potential limit on one side (+1 for x -> +inf), as
    PotentialComponents of floats."""
    m, lam, k = p.mass, p.flat_energy, p.kappa
    s = 1.0 if side > 0 else -1.0
    if p.kind is ModelKind.I:
        root = np.sqrt(m * (m - lam))
        v12 = s * k * lam / (2 * m - lam) - 2 * root * lam / (2 * m - lam)
        v11 = -s * 2 * k * root / (2 * m - lam) - lam**2 / (2 * m - lam)
    else:
        v12 = -lam
        v11 = -s * k
    return PotentialComponents(float(v11), float(v12), 0.0, 0.0, lam)


@dataclass(frozen=True)
class AnalyticSpectrum:
    gap_edge: float  # continuum bands are (-inf, -edge] u [edge, inf)
    flat_energy: float
    derived_not_published: bool


def model_spectrum(p):
    """Band edges +-gap_edge plus the flat level.

    Model I: +-sqrt(m(2m - lambda)), checked against the asymptotic cell.
    Model II: +-sqrt(2)*|m| (independent of lambda), derived from the
    asymptotic cell and flagged as such.
    """
    cell = asymptotic_cell(p, +1)
    if p.kind is ModelKind.I:
        m, lam = p.mass, p.flat_energy
        edge = float(np.sqrt(m * (2 * m - lam)))
        # consistency with the asymptotics: v11^2 + v12^2 = m(2m - lambda)
        if abs(cell.v11**2 + cell.v12**2 - edge**2) > 1e-12 * max(1.0, edge**2):
            raise NumericalError("asymptotic identity v11^2 + v12^2 = m(2m - lambda) failed")
        return AnalyticSpectrum(gap_edge=edge, flat_energy=lam,
                                derived_not_published=False)
    return AnalyticSpectrum(gap_edge=threshold_scan(cell)[1], flat_energy=p.flat_energy,
                            derived_not_published=True)
