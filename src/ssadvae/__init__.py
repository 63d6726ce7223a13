"""Semi-supervised anomaly detection with VAE ensembles on tabular data.

Two training objectives built on one shared encoder: a max-min-likelihood
loss (ELBO on normals minus a weighted chi-square upper bound on labeled
outliers) and a dual-prior loss (separate Gaussian prior means for normal
and outlier latents). Scores are per-sample ELBOs averaged over an ensemble.
"""

from .gradcore import Tensor, Graph
from .netblocks import (MlpSpec, EncoderParams, DecoderParams,
                        GaussianPosterior, philox_rng, init_encoder,
                        init_decoder, encode, decode, reparameterize)
from .vbounds import (BoundReport, CuboReport, elbo, cubo_loss,
                      kl_to_gaussian_prior, reconstruction_loss)
from .models import (SsadModel, LossReport, normal_term, outlier_update_term,
                     score, ensemble_score, save_ensemble, load_ensemble)
from .trainer import (TrainConfig, TrainHistory, AdamState, NumericalAbort,
                      adam_step, kl_anneal_coeff, clip_gradients,
                      outlier_path_lr, train)
from .datakit import (SsadDataset, EvalReport, DataError, load_csv,
                      synth_gaussian_ad, split_stratified, standardize,
                      subsample_labeled_outliers, pollute, auroc)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Graph",
    "MlpSpec", "EncoderParams", "DecoderParams", "GaussianPosterior",
    "philox_rng", "init_encoder", "init_decoder", "encode", "decode",
    "reparameterize",
    "BoundReport", "CuboReport", "elbo", "cubo_loss",
    "kl_to_gaussian_prior", "reconstruction_loss",
    "SsadModel", "LossReport", "normal_term", "outlier_update_term", "score",
    "ensemble_score", "save_ensemble", "load_ensemble",
    "TrainConfig", "TrainHistory", "AdamState", "NumericalAbort",
    "adam_step", "kl_anneal_coeff", "clip_gradients", "outlier_path_lr",
    "train",
    "SsadDataset", "EvalReport", "DataError", "load_csv",
    "synth_gaussian_ad", "split_stratified", "standardize",
    "subsample_labeled_outliers", "pollute", "auroc",
]
