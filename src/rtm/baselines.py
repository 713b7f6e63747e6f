"""Comparator models: plain LDA, LDA plus link regression, and unigram.

fit_lda runs the same variational EM pipeline with the link terms
disabled.  fit_link_regression then fits a sigmoid link model to the
observed links using covariates from the frozen LDA posteriors; the
regression stage never feeds back into the topics, so its word
predictions are identical to LDA's.  fit_lda_regression runs both
stages.  The unigram baseline is a smoothed corpus-wide term frequency
distribution (word prediction only; it assigns no link scores).
"""

import numpy as np

from . import estimation, linkfn, prediction
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

    lda must come from fit_lda on corpus.  The stage infers corpus's
    LDA posteriors (`prediction.train_posteriors`), then fits the sigmoid
    link parameters to their pair covariates by the RTM's link M-step,
    `estimation.fit_link`, with the rho pseudo non-links lda was fitted
    with.  lda's topics are unchanged.
    """
    reg = estimation.RegularizationConfig(**lda.config)
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
    """Smoothed corpus-wide term frequencies as a one-topic model."""
    counts = np.full(corpus.num_terms, float(smoothing))
    np.add.at(counts, corpus.terms, corpus.counts)
    dist = counts / counts.sum()
    params = ModelParams(beta=dist[None, :], alpha=np.array([1.0]), link=None)
    return FittedModel(params=params, kind="unigram",
                       config={"smoothing": smoothing})
