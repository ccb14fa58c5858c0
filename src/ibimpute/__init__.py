"""Variational time series imputation with global latent alignment.

A self-contained research package: a small tape-based autodiff engine, a
masked variational encoder-decoder, the three-term training objective
(closed-form KL regularizer, masked reconstruction, contrastive or cosine
latent alignment), plus data masking, training, evaluation, and a CLI for
reproducible experiments.
"""

import os

# byte-exact outputs need one BLAS thread; OpenBLAS reads this when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import Tape, Tensor, grad_check
from .data import Dataset, MaskSpec, Normalizer, Window
from .losses import LossBreakdown, LossWeights
from .model import ImputationModel, LatentDistribution, ModelConfig
from .training import FitResult, TrainConfig, fit

__all__ = [
    "Dataset",
    "FitResult",
    "ImputationModel",
    "LatentDistribution",
    "LossBreakdown",
    "LossWeights",
    "MaskSpec",
    "ModelConfig",
    "Normalizer",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Window",
    "fit",
    "grad_check",
]
