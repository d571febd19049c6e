"""Exception hierarchy shared by all susychain modules."""


class SusychainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SusychainError):
    """Invalid user-supplied configuration (unknown key, bad value, ...)."""


class NumericalError(SusychainError):
    """Non-finite data, failed convergence, or other numeric breakdown."""


class SingularFrameError(NumericalError):
    """det U vanishes at x, a pole anywhere on the line or a grid point;
    value is |det Uhat| there, det U over its column scales. At a grid
    point, ratio is |det Uhat| over the Hadamard bound of its columns,
    which fell below bound."""

    def __init__(self, x, value, ratio=None, bound=None):
        self.x = x
        self.value = value
        why = (f"|det Uhat|={value:.3e}" if ratio is None else
               f"|det Uhat|/Hadamard bound = {ratio:.3e} < {bound:g}")
        super().__init__(f"det U too close to zero at x={x:.6g} ({why})")


class DegenerateDispersionError(SusychainError):
    """Flat-band tuning is ill-posed because the AB dispersion is degenerate."""
