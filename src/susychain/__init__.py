"""Flat-band engineering of saw chains via Darboux-coupled Dirac operators."""

from .continuum import (
    GAMMA,
    PotentialComponents,
    apply_dirac,
    continuum_limit,
    discretize,
    symbol_dispersion,
    threshold_scan,
)
from .errors import (
    ConfigError,
    DegenerateDispersionError,
    NonHermitianError,
    NumericalError,
    SingularFrameError,
    SusychainError,
)
from .lattice import (
    BandStructure,
    FlatBandSolution,
    SpectrumReport,
    TightBindingParams,
    band_structure,
    bloch_hamiltonian,
    chain_spectrum,
    tune_flat_band,
)
from .models import (
    AnalyticSpectrum,
    ModelKind,
    ModelParams,
    model_potential,
    model_potential_components,
    model_spectrum,
    validate_params,
)
from .numcore import (
    BandedHermitian,
    Grid,
    banded_eigvec,
    diff_central,
    eigh_banded,
    integrate_cumulative,
    quad_roots,
)
from .susy import (
    SeedData,
    TransformationFrame,
    apply_darboux,
    assemble_frame,
    intertwining_residual,
    inverse_dagger_states,
    transformed_potential,
)

__version__ = "0.1.0"
