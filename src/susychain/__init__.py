"""Flat-band engineering of saw chains via Darboux-coupled Dirac operators.

The root exports the README example's names; the rest live in their modules."""

from .lattice import chain_spectrum
from .models import ModelKind, ModelParams, model_potential_components
from .numcore import Grid
from .susy import assemble_frame, partner_route, transformed_potential

__version__ = "0.1.0"
