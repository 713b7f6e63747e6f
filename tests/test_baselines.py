"""Tests for the LDA, LDA-plus-regression, and unigram comparators."""

import numpy as np
import pytest

from rtm import baselines, estimation
from rtm.baselines import fit_lda, fit_lda_regression, fit_link_regression, unigram
from rtm.corpus import Corpus, generate_synthetic, split_folds, training_view
from rtm.prediction import average_ranks, evaluate_fold


@pytest.fixture(scope="module")
def linked_corpus():
    corpus, _ = generate_synthetic(2, 10, 24, 20, np.array([0.5, 0.5]),
                                   np.array([-2.0, -2.0]), -1.5,
                                   "exponential", seed=31)
    return corpus


class TestFitLda:
    def test_equals_shared_pipeline(self, linked_corpus):
        lda = fit_lda(linked_corpus, 2, seed=3, em_iters=4)
        direct = estimation.fit(linked_corpus, 2, kind=None, seed=3, em_iters=4)
        np.testing.assert_array_equal(lda.params.beta, direct.params.beta)
        assert isinstance(lda, estimation.FittedModel)
        assert lda.kind == "lda"
        assert lda.params.link is None

    def test_trace_nondecreasing(self, linked_corpus):
        lda = fit_lda(linked_corpus, 2, seed=3, em_iters=8)
        trace = np.array(lda.elbo_trace)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_single_topic_gives_term_frequencies(self):
        c = Corpus(["a", "b"], [[(0, 3), (1, 1)]])
        lda = fit_lda(c, 1, seed=0, em_iters=2,
                      reg=estimation.RegularizationConfig(smoothing=1e-9))
        np.testing.assert_allclose(lda.params.beta, [[0.75, 0.25]], atol=1e-8)


class TestFitLdaRegression:
    def test_stage_one_unchanged(self, linked_corpus):
        lda = fit_lda(linked_corpus, 2, seed=3, em_iters=4)
        two_stage = fit_lda_regression(linked_corpus, 2, seed=3, em_iters=4)
        np.testing.assert_array_equal(lda.params.beta, two_stage.params.beta)
        assert two_stage.kind == "lda_regression"
        assert two_stage.params.link.kind == "sigmoid"

    def test_regression_stage_on_fitted_lda_equals_two_stage_fit(self):
        # the eval command fits LDA once and passes it to the regression stage
        corpus, _ = generate_synthetic(2, 8, 12, 12, np.array([0.5, 0.5]),
                                       np.array([-2.0, -2.0]), -1.0,
                                       "exponential", seed=5)
        assert corpus.num_links > 0
        reg = estimation.RegularizationConfig(rho=3.0)
        lda = fit_lda(corpus, 2, seed=3, em_iters=2, reg=reg)
        staged = fit_link_regression(corpus, lda)
        direct = fit_lda_regression(corpus, 2, seed=3, em_iters=2, reg=reg)
        np.testing.assert_array_equal(staged.params.link.eta, direct.params.link.eta)
        assert staged.params.link.nu == direct.params.link.nu
        assert staged.config == direct.config == lda.config
        assert staged.config is not lda.config
        assert staged.kind == direct.kind == "lda_regression"

    def test_word_predictions_identical_to_lda(self, linked_corpus):
        # the regression stage never alters beta or the posteriors used
        # for word prediction
        plan = split_folds(linked_corpus, 3, seed=2)
        lda = fit_lda(training_view(linked_corpus, plan, 0)[0], 2,
                      seed=3, em_iters=4)
        two_stage = fit_lda_regression(training_view(linked_corpus, plan, 0)[0],
                                       2, seed=3, em_iters=4)
        r_lda = evaluate_fold(lda, linked_corpus, plan, 0)
        r_reg = evaluate_fold(two_stage, linked_corpus, plan, 0)
        np.testing.assert_allclose(r_lda.mean_word_rank, r_reg.mean_word_rank,
                                   rtol=1e-12)

    def test_zero_coefficients_give_uniform_link_ranks(self, linked_corpus):
        from rtm.linkfn import LinkParams
        plan = split_folds(linked_corpus, 3, seed=2)
        train_corpus, train_ids = training_view(linked_corpus, plan, 0)
        model = fit_lda(train_corpus, 2, seed=3, em_iters=4)
        flat = estimation.FittedModel(
            params=estimation.ModelParams(
                beta=model.params.beta, alpha=model.params.alpha,
                link=LinkParams(eta=np.zeros(2), nu=0.3, kind="sigmoid")),
            kind="lda_regression", config=model.config)
        report = evaluate_fold(flat, linked_corpus, plan, 0)
        c = train_corpus.num_docs
        np.testing.assert_allclose(report.mean_link_rank, (c + 1) / 2)

    def test_lda_alone_scores_no_links(self, linked_corpus):
        plan = split_folds(linked_corpus, 3, seed=2)
        model = fit_lda(training_view(linked_corpus, plan, 0)[0], 2,
                        seed=3, em_iters=3)
        report = evaluate_fold(model, linked_corpus, plan, 0)
        assert np.isnan(report.mean_link_rank)
        assert np.isfinite(report.mean_word_rank)


class TestUnigram:
    def test_frequencies(self):
        c = Corpus(["a", "b"], [[(0, 3), (1, 1)]])
        model = unigram(c, smoothing=1e-9)
        np.testing.assert_allclose(model.params.beta, [[0.75, 0.25]], atol=1e-8)
        assert model.kind == "unigram"

    def test_most_frequent_term_ranks_first(self):
        c = Corpus(["a", "b", "c"], [[(0, 5), (1, 2), (2, 1)]])
        model = unigram(c)
        ranks = average_ranks(model.params.beta[0])
        assert ranks[0] == 1.0

    def test_smoothing_strictly_positive(self):
        c = Corpus(["a", "b", "c"], [[(0, 5)]])
        model = unigram(c, smoothing=0.5)
        assert np.all(model.params.beta > 0)
        np.testing.assert_allclose(model.params.beta.sum(), 1.0)

    def test_word_rank_only(self, linked_corpus):
        plan = split_folds(linked_corpus, 3, seed=2)
        model = unigram(training_view(linked_corpus, plan, 0)[0])
        report = evaluate_fold(model, linked_corpus, plan, 0)
        assert np.isnan(report.mean_link_rank)
        assert np.isfinite(report.mean_word_rank)
