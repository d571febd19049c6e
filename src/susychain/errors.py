"""Exception hierarchy shared by all susychain modules."""


class SusychainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SusychainError):
    """Invalid user-supplied configuration (bad field, missing file, ...)."""


class NumericalError(SusychainError):
    """Non-finite data, failed convergence, or other numeric breakdown."""


class SingularFrameError(NumericalError):
    """det U vanishes at x, a grid point or a pole anywhere on the line;
    value is |det Uhat| there, det U over its column scales."""

    def __init__(self, x, value):
        self.x = x
        self.value = value
        super().__init__(f"det U too close to zero at x={x:.6g} (|det Uhat|={value:.3e})")


class DegenerateDispersionError(SusychainError):
    """Flat-band tuning is ill-posed because the AB dispersion is degenerate."""
