"""The two closed-form coupled-chain models.

Both are two-parameter (mass m, flat energy lambda) specializations of the
Darboux engine, each with its own quadrature constant c0 = omega. They serve
as analytic oracles for the general pipeline.

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

from .continuum import PotentialComponents
from .errors import NumericalError
from .numcore import MAX_PARAM
from .susy import SeedData


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
        return float(np.sqrt(2 * (m * m) - lam * lam))

    @property
    def omega(self):
        m, lam = self.mass, self.flat_energy
        if self.kind is ModelKind.I:
            return -4 * m / (np.sqrt(m * (m - lam)) * (2 * m + lam))
        return -2 * (2 * m - lam) / (2 * (m * m) - lam * lam)

    def seed_data(self):
        """SeedData realizing this model in the general engine."""
        return SeedData(mass=self.mass, flat_energy=self.flat_energy,
                        gauge_a=self.gauge_a, c0=self.omega)


def validate_params(p):
    """List of violated admissibility conditions (empty means ok)."""
    m, lam = p.mass, p.flat_energy
    out = []
    if not isinstance(p.kind, ModelKind):
        return [f"kind must be a ModelKind, got {p.kind!r}"]
    if not (np.isfinite(m) and np.isfinite(lam)):
        return ["mass and flat_energy must be finite"]
    if max(abs(m), abs(lam)) > MAX_PARAM:
        return [f"|mass| and |flat_energy| must not exceed {MAX_PARAM:g}"]
    if p.kind is ModelKind.I:
        # m - lambda of two distinct doubles is never 0
        if m * (m - lam) == 0 and m != 0 and m != lam:
            out.append(f"m(m - lambda) underflows to 0 (m = {m:g}, m - lambda = {m - lam:g})")
        elif m * (m - lam) <= 0:
            out.append(f"m(m - lambda) = {m * (m - lam):.3e} must be > 0")
        if not (-2 * m < lam):
            out.append(f"-2m < lambda violated (lambda = {lam:g}, m = {m:g})")
        if not (lam < m):
            out.append(f"lambda < m violated (lambda = {lam:g}, m = {m:g})")
    else:
        if m != 0 and 2 * (m * m) == lam * lam == 0:
            out.append(f"2m^2 and lambda^2 underflow to 0 (m = {m:g}, lambda = {lam:g})")
        elif not (lam * lam < 2 * (m * m)):
            out.append(f"lambda^2 < 2 m^2 violated (lambda^2 = {lam * lam:g}, "
                       f"2m^2 = {2 * (m * m):g})")
    if abs(lam) == abs(m):
        out.append("|lambda| = |m| is excluded")
    return out


@np.errstate(over="ignore")
def model_potential(p, x):
    """Closed-form potential components (v11, v12, v13, v23) of either model.

    Where cosh(2 kappa x) overflows to inf, IEEE arithmetic gives the exact
    far-field limits: sech 0, tanh +-1, and v13 = v23 = 0.
    """
    m, lam, k = p.mass, p.flat_energy, p.kappa
    # x * x, not x**2: pow is not correctly rounded, so (s x)**2 may miss s^2 x**2
    model1 = p.kind is ModelKind.I
    z = 2 * k * np.asarray(x, dtype=float)
    sech2 = 1.0 / np.cosh(z)
    tanh2 = np.tanh(z)
    cosh2 = np.cosh(z)
    if model1:
        root = np.sqrt(m * (m - lam))
        den_a = 2 * m - lam + 4 * m * sech2
        den_b = 4 * m + (2 * m - lam) * cosh2
        v12 = -lam * (2 * root * (1 + sech2) - k * tanh2) / den_a
        v13 = np.sqrt(m * (2 * m + lam)) * k / den_b
        v23 = k * k / den_b
        v11 = -(lam * lam + 4 * (m * m) * sech2 + 2 * root * k * tanh2) / den_a
        return v11, v12, v13, v23
    e, d = 2 * m - lam, m - lam
    v12 = -lam * np.ones_like(z)
    v13 = d * (k * k) / (e * e + 2 * (d * d) * cosh2)
    v23 = v13.copy()
    v11 = -k * (e * k * sech2 + 2 * (d * d) * tanh2) / (2 * (d * d) + e * e * sech2)
    return v11, v12, v13, v23


def model_potential_components(p, grid):
    """PotentialComponents table of either model on a grid."""
    v11, v12, v13, v23 = model_potential(p, grid.x)
    return PotentialComponents(v11, v12, v13, v23, p.flat_energy)

