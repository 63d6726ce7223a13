"""Semi-supervised anomaly detection with VAE ensembles on tabular data.

Two training objectives built on one shared encoder: a max-min-likelihood
loss (ELBO on normals minus a weighted chi-square upper bound on labeled
outliers) and a dual-prior loss (separate Gaussian prior means for normal
and outlier latents). Scores are per-sample ELBOs averaged over an ensemble.
"""

from .datakit import (SsadDataset, DataError, load_csv, synth_gaussian_ad,
                      split_stratified, standardize,
                      subsample_labeled_outliers, pollute, auroc)
from .trainer import TrainConfig, NumericalAbort, train
from .models import (SsadModel, score, ensemble_score, save_ensemble,
                     load_ensemble)

__version__ = "0.1.0"

# the library API that README's "Library use" documents; the engine and the
# step internals are imported from their modules
__all__ = [
    "SsadDataset", "load_csv", "synth_gaussian_ad",
    "split_stratified", "standardize", "subsample_labeled_outliers", "pollute",
    "TrainConfig", "train",
    "SsadModel", "score", "ensemble_score", "save_ensemble", "load_ensemble",
    "auroc",
    "DataError", "NumericalAbort",
]
