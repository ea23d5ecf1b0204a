"""Dialogue generation with semantics-segmentation-guided latent variables.

The package splits a dialogue context into several "prominent semantics"
vectors via trigger networks, conditions a conditional VAE on the best one,
and regularizes the segmentation with three self-supervised norms.  It also
ships the corpus tooling for mining one-to-many / many-to-one dialogue
mappings and the automatic evaluation metric suite.
"""

__version__ = "0.1.0"

from .autodiff import Rng, Tensor, grad_check, no_grad
from .corpus import (CdmReport, DialoguePair, Vocabulary, build_cdm_dataset,
                     build_vocab, mine_cdm, tokenize)
from .evaluation import (GenerationRecord, bleu_n, coherence, distinct_n,
                         embedding_average, generate_n, length_avg)
from .model import (ModelConfig, SegCVAE, san, scn, sdn, select_positive,
                    total_loss)
from .training import (TrainingConfig, TrainState, fit, kl_anneal,
                       lambda_schedule, perplexity, train_step)

__all__ = [
    "Rng", "Tensor", "grad_check", "no_grad",
    "CdmReport", "DialoguePair", "Vocabulary",
    "build_cdm_dataset", "build_vocab", "mine_cdm", "tokenize",
    "GenerationRecord", "bleu_n", "coherence", "distinct_n",
    "embedding_average", "generate_n", "length_avg",
    "ModelConfig", "SegCVAE",
    "san", "scn", "sdn", "select_positive", "total_loss",
    "TrainingConfig", "TrainState", "fit", "kl_anneal", "lambda_schedule",
    "perplexity", "train_step",
]
