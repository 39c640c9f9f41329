"""Sequential Bayesian updating on truncated 1-D domains with certified
learning-error bounds, error-reduction certificates, and online-VI bound
calculators."""

import numpy as np

from .domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D,
                      ParticleSet, discretize, moments)
from .models import ConstantsReport, LikelihoodModel, SystemSpec, TransitionModel

__version__ = "0.1.0"

# glibc serves each allocation at or above its mmap threshold (128 KB at
# start-up) with a fresh mapping, which faults on every page it touches, and
# freeing a mapped block raises the threshold only to that block's size.
# Freeing one 1 MB block here lets the per-system transition kernels and 2-D
# temporaries of the small grids (323 KB at 201 nodes) reuse heap pages.
np.empty(1 << 17)

__all__ = [
    "ConstantsReport", "DomainSpec", "Gaussian1D", "GridDensity",
    "JointGrid2D", "LikelihoodModel", "ParticleSet", "SystemSpec",
    "TransitionModel", "discretize", "moments",
]
