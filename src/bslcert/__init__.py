"""Sequential Bayesian updating on truncated 1-D domains with certified
learning-error bounds, error-reduction certificates, and online-VI bound
calculators."""

from .domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D,
                      ParticleSet, discretize, moments)
from .models import ConstantsReport, LikelihoodModel, SystemSpec, TransitionModel

__version__ = "0.1.0"

__all__ = [
    "ConstantsReport", "DomainSpec", "Gaussian1D", "GridDensity",
    "JointGrid2D", "LikelihoodModel", "ParticleSet", "SystemSpec",
    "TransitionModel", "discretize", "moments",
]
