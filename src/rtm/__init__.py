"""Relational topic model: joint modeling of document text and links.

Fits a mixed-membership topic model in which each inter-document link is
a Bernoulli variable conditioned on the two documents' topic
assignments, via variational EM.  Supports four link probability
functions, held-out prediction of links from words and words from
links, and LDA / LDA-plus-regression / unigram baselines.
"""

from .corpus import (Corpus, FoldPlan, SyntheticTruth, generate_synthetic,
                     load_corpus, read_vocab, split_folds, training_view,
                     write_corpus)
from .linkfn import (LinkParams, expected_log_link_batch, gradient_coefficient,
                     grad_phi_gaussian, link_probability)
from .inference import (ElboBreakdown, ModelParams, VariationalState, elbo,
                        init_state, run_e_step)
from .estimation import (FittedModel, RegularizationConfig, SufficientStats,
                         fit, fit_link, fit_link_exponential, fit_link_gaussian,
                         fit_link_sigmoid_probit, load_model, save_model,
                         update_beta)
from .prediction import (HeldoutPosterior, RankReport, evaluate_fold,
                         infer_heldout, predict_word_dist, score_train_docs)
from .baselines import fit_lda, fit_link_regression, fit_lda_regression, unigram

__version__ = "0.1.0"
