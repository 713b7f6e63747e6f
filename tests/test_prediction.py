"""Tests for held-out inference, prediction, and rank metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import psi

from rtm import estimation, linkfn, prediction
from rtm.corpus import Corpus, generate_synthetic, split_folds, training_view
from rtm.estimation import FittedModel, fit
from rtm.inference import ModelParams, init_state, run_e_step
from rtm.linkfn import LinkParams
from rtm.prediction import (HeldoutPosterior, average_ranks, evaluate_fold,
                            infer_heldout, predict_word_dist,
                            retrieval_order, score_train_docs)


def model_of(beta, alpha, link=None, kind=None):
    params = ModelParams(beta=np.asarray(beta, float),
                         alpha=np.asarray(alpha, float), link=link)
    if kind is None:
        kind = link.kind if link is not None else "lda"
    return FittedModel(params=params, kind=kind, config={"smoothing": 0.01})


def score_one(model, heldout, train):
    """Link probability between two posteriors: score_train_docs on one row."""
    scores = score_train_docs(model, heldout, train.phi_bar[None], train.var[None])
    assert scores.shape == (1,)
    return float(scores[0])


def literal_link_prob(link, mean_h, var_h, mean_t, var_t):
    """exp E[log psi] of one pair, written out from the link function definitions."""
    k = len(link.eta)
    if link.kind == "gaussian":
        return math.exp(-link.nu - sum(
            link.eta[i] * ((mean_h[i] - mean_t[i]) ** 2 + var_h[i] + var_t[i])
            for i in range(k)))
    x = sum(link.eta[i] * mean_h[i] * mean_t[i] for i in range(k)) + link.nu
    if link.kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-x))
    if link.kind == "probit":
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return math.exp(x)


class TestInferHeldout:
    def test_words_only_single_topic(self):
        model = model_of([[0.4, 0.6]], [1.0])
        post = infer_heldout(model, words=[(0, 2), (1, 1)])
        np.testing.assert_allclose(post.phi_bar, [1.0])
        # three word tokens enter gamma
        np.testing.assert_allclose(post.gamma, [4.0])

    def test_words_only_equals_lda_inference(self):
        beta = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
        alpha = np.array([0.4, 0.6])
        model = model_of(beta, alpha)
        words = [(0, 2), (2, 3)]
        post = infer_heldout(model, words=words, tol=1e-12)

        # reference: document-local LDA coordinate ascent written out
        gamma = alpha + 5 / 2
        for _ in range(500):
            elog = psi(gamma) - psi(gamma.sum())
            phi = np.exp(elog[None, :] + np.log(beta[:, [0, 2]]).T)
            phi /= phi.sum(axis=1, keepdims=True)
            gamma_new = alpha + np.array([2.0, 3.0]) @ phi
            if np.abs(gamma_new - gamma).max() < 1e-13:
                gamma = gamma_new
                break
            gamma = gamma_new
        np.testing.assert_allclose(post.gamma, gamma, atol=1e-8)

    def test_links_only_exponential_example(self):
        # neighbor mean (0.9, 0.1), eta (1, 1): with a flat expected log
        # topic term the pseudo-token lands on softmax(eta o neighbor)
        link = LinkParams(eta=np.array([1.0, 1.0]), nu=0.0, kind="exponential")
        model = model_of([[0.5, 0.5], [0.5, 0.5]], [1e6, 1e6], link=link,
                         kind="exponential")
        post = infer_heldout(model, links=[0],
                             train_phi_bar=np.array([[0.9, 0.1]]))
        expected = np.exp([0.9, 0.1])
        expected /= expected.sum()
        np.testing.assert_allclose(post.phi_bar, expected, atol=1e-4)
        # a single pseudo-token enters gamma and the variance
        np.testing.assert_array_equal(post.gamma, model.params.alpha + post.phi_bar)
        np.testing.assert_array_equal(post.var, post.phi_bar * (1.0 - post.phi_bar))

    @pytest.mark.parametrize("term", [-1, 2, 99])
    def test_out_of_range_term_rejected(self, term):
        # a negative id must not wrap around to the last vocabulary term
        model = model_of([[0.5, 0.5]], [1.0])
        with pytest.raises(ValueError, match=f"term id {term} out of range"):
            infer_heldout(model, words=[(0, 1), (term, 2)])

    @pytest.mark.parametrize("doc", [-1, 1])
    def test_out_of_range_link_rejected(self, doc):
        link = LinkParams(eta=np.array([-1.0]), nu=0.0, kind="exponential")
        model = model_of([[0.5, 0.5]], [1.0], link=link)
        with pytest.raises(ValueError, match=f"document id {doc} out of range"):
            infer_heldout(model, links=[0, doc], train_phi_bar=np.ones((1, 1)))

    def test_empty_evidence_rejected(self):
        model = model_of([[0.5, 0.5]], [1.0])
        with pytest.raises(ValueError, match="empty word"):
            infer_heldout(model, words=[])
        with pytest.raises(ValueError, match="empty link"):
            infer_heldout(model, links=[], train_phi_bar=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="exactly one"):
            infer_heldout(model)

    def test_baseline_kind_ignores_links(self):
        # identical beta: the lda_regression links-only posterior must not
        # be tilted by its regression stage
        beta = np.array([[0.6, 0.4], [0.3, 0.7]])
        alpha = np.array([0.5, 0.5])
        reg_link = LinkParams(eta=np.array([3.0, -2.0]), nu=0.5, kind="sigmoid")
        lda = model_of(beta, alpha, kind="lda")
        lda_reg = model_of(beta, alpha, link=reg_link, kind="lda_regression")
        train = np.array([[0.95, 0.05]])
        p1 = infer_heldout(lda, links=[0], train_phi_bar=train)
        p2 = infer_heldout(lda_reg, links=[0], train_phi_bar=train)
        np.testing.assert_allclose(p1.phi_bar, p2.phi_bar, atol=1e-12)


class TestPredict:
    def test_sigmoid_at_zero(self):
        link = LinkParams(eta=np.zeros(2), nu=0.0, kind="sigmoid")
        model = model_of([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], link=link)
        h = HeldoutPosterior(phi_bar=np.array([0.5, 0.5]),
                             gamma=np.ones(2), var=np.zeros(2))
        t = HeldoutPosterior(phi_bar=np.array([0.5, 0.5]),
                             gamma=np.ones(2), var=np.zeros(2))
        assert score_one(model, h, t) == 0.5

    def test_gaussian_identical_posteriors(self):
        link = LinkParams(eta=np.array([1.0, 1.0]), nu=0.0, kind="gaussian")
        model = model_of([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], link=link)
        h = HeldoutPosterior(phi_bar=np.array([0.3, 0.7]), gamma=np.ones(2),
                             var=np.zeros(2))
        np.testing.assert_allclose(score_one(model, h, h), 1.0)

    def test_exponential_matches_exp_of_expectation(self):
        link = LinkParams(eta=np.array([-0.5, -0.9]), nu=-0.3, kind="exponential")
        model = model_of([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], link=link)
        h = HeldoutPosterior(phi_bar=np.array([0.4, 0.6]), gamma=np.ones(2),
                             var=np.zeros(2))
        t = HeldoutPosterior(phi_bar=np.array([0.8, 0.2]), gamma=np.ones(2),
                             var=np.zeros(2))
        expected = np.exp(link.eta @ (h.phi_bar * t.phi_bar) + link.nu)
        np.testing.assert_allclose(score_one(model, h, t), expected, rtol=1e-15)

    def test_link_scores_rejected_without_link_model(self):
        model = model_of([[0.5, 0.5]], [1.0], kind="unigram")
        h = HeldoutPosterior(phi_bar=np.ones(1), gamma=np.ones(1), var=np.zeros(1))
        with pytest.raises(ValueError, match="does not score links"):
            score_one(model, h, h)

    @pytest.mark.parametrize("kind", linkfn.KINDS)
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data(), num_topics=st.integers(1, 4), num_train=st.integers(1, 6))
    def test_scores_match_literal_formula(self, kind, data, num_topics, num_train):
        unit = st.floats(0.0, 1.0)
        simplex = st.lists(st.floats(0.01, 1.0), min_size=num_topics,
                           max_size=num_topics).map(lambda w: np.array(w) / sum(w))
        if kind == "exponential":
            nu = data.draw(st.floats(-3.0, 0.0))
            eta = [-nu - data.draw(st.floats(0.0, 3.0)) for _ in range(num_topics)]
        elif kind == "gaussian":
            nu = data.draw(st.floats(0.0, 2.0))
            eta = [data.draw(st.floats(0.0, 3.0)) for _ in range(num_topics)]
        else:
            nu = data.draw(st.floats(-3.0, 3.0))
            eta = [data.draw(st.floats(-3.0, 3.0)) for _ in range(num_topics)]
        link = LinkParams(eta=np.array(eta), nu=nu, kind=kind)
        model = model_of(np.full((num_topics, 2), 0.5), np.ones(num_topics), link=link)
        h = HeldoutPosterior(phi_bar=data.draw(simplex), gamma=np.ones(num_topics),
                             var=0.25 * np.array([data.draw(unit) for _ in range(num_topics)]))
        train = np.array([data.draw(simplex) for _ in range(num_train)])
        train_var = 0.25 * np.array([[data.draw(unit) for _ in range(num_topics)]
                                     for _ in range(num_train)])
        scores = score_train_docs(model, h, train, train_var)
        assert scores.shape == (num_train,)
        for i in range(num_train):
            expected = literal_link_prob(link, h.phi_bar, h.var, train[i], train_var[i])
            np.testing.assert_allclose(scores[i], expected, rtol=1e-12)

    def test_word_dist_single_topic(self):
        model = model_of([[0.2, 0.3, 0.5]], [1.0])
        h = HeldoutPosterior(phi_bar=np.ones(1), gamma=np.ones(1), var=np.zeros(1))
        np.testing.assert_allclose(predict_word_dist(model, h), [0.2, 0.3, 0.5])

    def test_word_dist_one_hot_and_uniform(self):
        beta = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
        model = model_of(beta, [0.5, 0.5])
        one_hot = HeldoutPosterior(phi_bar=np.array([0.0, 1.0]),
                                   gamma=np.ones(2), var=np.zeros(2))
        np.testing.assert_allclose(predict_word_dist(model, one_hot), beta[1])
        uniform = HeldoutPosterior(phi_bar=np.array([0.5, 0.5]),
                                   gamma=np.ones(2), var=np.full(2, 0.25))
        np.testing.assert_allclose(predict_word_dist(model, uniform),
                                   beta.mean(axis=0))

    def test_word_dist_sums_to_one(self):
        rng = np.random.default_rng(3)
        beta = rng.random((4, 20))
        beta /= beta.sum(axis=1, keepdims=True)
        model = model_of(beta, np.full(4, 0.25))
        phi = rng.dirichlet(np.ones(4))
        h = HeldoutPosterior(phi_bar=phi, gamma=np.ones(4), var=phi * (1.0 - phi))
        assert abs(predict_word_dist(model, h).sum() - 1.0) < 1e-10


class TestRanks:
    def test_strictly_highest_scores_rank_one(self):
        ranks = average_ranks([0.9, 0.1, 0.4])
        assert ranks[0] == 1.0

    def test_uniform_scores_average_rank(self):
        c = 7
        ranks = average_ranks(np.full(c, 0.25))
        np.testing.assert_allclose(ranks, (c + 1) / 2)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), scores=st.lists(st.integers(-4, 4), min_size=1, max_size=25))
    def test_invariant_under_monotone_transform(self, data, scores):
        # integer scores tie often; a strictly increasing map keeps every
        # tie and every order between distinct scores
        scores = np.array(scores, dtype=np.float64)
        values = np.unique(scores)
        steps = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=values.size,
                                   max_size=values.size))
        offset = data.draw(st.floats(-1e3, 1e3))
        mapped = (offset + np.cumsum(steps))[np.searchsorted(values, scores)]
        base_ranks, base_order = average_ranks(scores), retrieval_order(scores)
        for transformed in (mapped, np.exp(scores), 3 * scores - 7):
            np.testing.assert_array_equal(average_ranks(transformed), base_ranks)
            np.testing.assert_array_equal(retrieval_order(transformed), base_order)

    def test_retrieval_order_breaks_ties_by_index(self):
        order = retrieval_order(np.array([0.5, 0.9, 0.5]))
        np.testing.assert_array_equal(order, [1, 0, 2])


def brute_force_fold_metrics(model, corpus, plan, fold, top_k):
    """Independent re-implementation of the rank metrics (slow and literal)."""
    train_corpus, train_ids = training_view(corpus, plan, fold)
    state = prediction.train_posteriors(model, train_corpus, seed=plan.seed)
    train_pos = {int(o): i for i, o in enumerate(train_ids)}
    link_ranks = []
    word_ranks = []
    for doc in plan.test_docs(fold):
        doc = int(doc)
        true = sorted(train_pos[b if a == doc else a]
                      for a, b in corpus.link_set() if doc in (a, b)
                      if (b if a == doc else a) in train_pos)
        if not true:
            continue
        terms, counts = corpus.doc(doc)
        heldout = infer_heldout(model, words=list(zip(terms, counts)))
        scores = [literal_link_prob(model.params.link, heldout.phi_bar, heldout.var,
                                    state.phi_bar[i], state.var_bar[i])
                  for i in range(train_corpus.num_docs)]
        for t in true:
            higher = sum(1 for s in scores if s > scores[t])
            equal = sum(1 for s in scores if s == scores[t]) - 1
            link_ranks.append(1 + higher + equal / 2)
        heldout_l = infer_heldout(model, links=true, train_phi_bar=state.phi_bar)
        dist = predict_word_dist(model, heldout_l)
        for t, cnt in zip(terms, counts):
            higher = sum(1 for v in dist if v > dist[t])
            equal = sum(1 for v in dist if v == dist[t]) - 1
            word_ranks.extend([1 + higher + equal / 2] * int(cnt))
    return float(np.mean(link_ranks)), float(np.mean(word_ranks))


@pytest.fixture(scope="module")
def planted():
    corpus, _ = generate_synthetic(2, 10, 24, 25, np.array([0.5, 0.5]),
                                   np.array([-2.0, -2.0]), -1.6,
                                   "exponential", seed=19)
    plan = split_folds(corpus, 4, seed=19)
    train_corpus, _ = training_view(corpus, plan, 0)
    model = fit(train_corpus, 2, kind="exponential", seed=5, em_iters=8)
    return corpus, plan, model


class TestEvaluateFold:
    def test_matches_brute_force_metrics(self, planted):
        corpus, plan, model = planted
        report = evaluate_fold(model, corpus, plan, 0, top_k=5)
        link_rank, word_rank = brute_force_fold_metrics(model, corpus, plan, 0, 5)
        np.testing.assert_allclose(report.mean_link_rank, link_rank, rtol=1e-9)
        np.testing.assert_allclose(report.mean_word_rank, word_rank, rtol=1e-9)

    def test_report_fields(self, planted):
        corpus, plan, model = planted
        report = evaluate_fold(model, corpus, plan, 0, top_k=5)
        assert report.num_test_docs == plan.test_docs(0).size
        assert 0.0 <= report.precision_at_k <= 1.0
        text = report.to_tsv()
        assert "mean_link_rank" in text and "doc_id\tmetric\tvalue" in text

    def test_linkless_test_docs_skipped(self):
        corpus = Corpus(["a", "b"], [[(0, 2)], [(1, 2)], [(0, 1), (1, 1)],
                                     [(0, 2)], [(1, 2)], [(0, 1), (1, 1)]],
                        links=[(0, 1)])
        plan = split_folds(corpus, 2, seed=3)
        train_corpus, _ = training_view(corpus, plan, 0)
        model = fit(train_corpus, 2, kind="exponential", seed=1, em_iters=2)
        report = evaluate_fold(model, corpus, plan, 0)
        assert report.num_skipped_linkless >= 1

    def test_planted_beats_shuffled_links(self):
        # a model trained on links that reflect topic structure must rank
        # true links better than one trained on shuffled links
        corpus, _ = generate_synthetic(2, 10, 30, 25, np.array([0.5, 0.5]),
                                       np.array([-2.0, -2.0]), -1.4,
                                       "exponential", seed=29)
        rng = np.random.default_rng(0)
        m = corpus.num_links
        fake = set()
        while len(fake) < m:
            a, b = rng.integers(0, corpus.num_docs, size=2)
            if a != b:
                fake.add((min(a, b), max(a, b)))
        shuffled = Corpus(corpus.vocab,
                          [list(zip(*corpus.doc(d))) for d in range(corpus.num_docs)],
                          links=sorted(fake))
        plan = split_folds(corpus, 3, seed=11)
        ranks = {}
        for name, corp in (("planted", corpus), ("shuffled", shuffled)):
            train_corpus, _ = training_view(corp, plan, 0)
            model = fit(train_corpus, 2, kind="exponential", seed=7, em_iters=8)
            ranks[name] = evaluate_fold(model, corp, plan, 0).mean_link_rank
        assert ranks["planted"] < ranks["shuffled"]
