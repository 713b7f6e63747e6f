"""Comparator models: plain LDA, LDA plus link regression, and unigram.

Each is the RTM pipeline with one part switched off.  fit_lda runs the
same variational EM with the link terms disabled.  fit_link_regression
then fits a sigmoid link to the observed links by the RTM's link M-step,
on covariates from the frozen LDA posteriors; the regression stage never
feeds back into the topics, so its word predictions are identical to
LDA's.  fit_lda_regression runs both stages.  The unigram baseline is
the M-step's topic update with one topic: smoothed corpus-wide term
frequencies (word prediction only; it assigns no link scores).
"""

import numpy as np

from . import estimation, inference, linkfn, prediction
from .estimation import FittedModel
from .inference import ModelParams


def fit_lda(corpus, num_topics, alpha_total=1.0, reg=None, seed=42,
            em_iters=30, tol=1e-6):
    """LDA via the shared EM pipeline with zero link contribution."""
    return estimation.fit(corpus, num_topics, kind=None,
                          alpha_total=alpha_total, reg=reg, seed=seed,
                          em_iters=em_iters, tol=tol)


def fit_link_regression(corpus, lda):
    """Stage two of LDA+regression: regress links on a fitted LDA's covariates.

    lda must come from fit_lda on corpus, or be read back from its model
    file.  The stage infers corpus's LDA posteriors
    (`prediction.train_posteriors`), then fits the sigmoid link to their
    pair covariates by the RTM's link M-step, `estimation.fit_link`, with
    rho resolved as `estimation.fit` resolves it: a model file keeps no
    rho, so it gets the default.  lda's topics are unchanged.
    """
    reg = estimation.RegularizationConfig(**lda.config).resolved(corpus.num_links)
    link = linkfn.LinkParams(eta=np.zeros(lda.params.num_topics), nu=0.0, kind="sigmoid")
    if corpus.num_links:
        state = prediction.train_posteriors(lda, corpus)
        link = estimation.fit_link(corpus, state, lda.params.alpha, reg, link)
    params = ModelParams(beta=lda.params.beta, alpha=lda.params.alpha, link=link)
    return FittedModel(params=params, kind="lda_regression",
                       config=dict(lda.config),
                       elbo_trace=lda.elbo_trace)


def fit_lda_regression(corpus, num_topics, alpha_total=1.0, reg=None, seed=42,
                       em_iters=30, tol=1e-6):
    """Two-stage baseline: fit_lda, then fit_link_regression on its output."""
    lda = fit_lda(corpus, num_topics, alpha_total=alpha_total, reg=reg,
                  seed=seed, em_iters=em_iters, tol=tol)
    return fit_link_regression(corpus, lda)


def unigram(corpus, smoothing=0.01):
    """Smoothed corpus-wide term frequencies as a one-topic model: the
    M-step's topic update (`estimation.update_beta`) with every row on
    the one topic."""
    state = inference.init_state(corpus, 1, np.ones(1))
    beta = estimation.update_beta(corpus, state, smoothing)
    params = ModelParams(beta=beta, alpha=np.array([1.0]), link=None)
    return FittedModel(params=params, kind="unigram",
                       config={"smoothing": smoothing})
