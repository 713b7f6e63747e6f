"""Tests for held-out inference, prediction, and rank metrics."""

import math
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.special import psi
from scipy.stats import rankdata

from rtm import baselines, estimation, linkfn, prediction
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


def links_map(model, links, train_phi_bar):
    """The map G that a links-only query iterates on gamma, written out:
    gamma -> alpha + softmax(psi(gamma) + the link gradient at the
    pseudo-token's phi, gamma - alpha).  links must be unique."""
    alpha = model.params.alpha
    link = model.params.link if model.kind in linkfn.KINDS else None
    neighbor_means = train_phi_bar[links]

    def step(gamma):
        phi = gamma - alpha
        g = np.zeros_like(phi)
        if link is not None and link.kind == "gaussian":
            g = linkfn.grad_phi_gaussian(link, neighbor_means.sum(axis=0),
                                         neighbor_means.shape[0], np.zeros_like(phi), 1)
        elif link is not None:
            x = neighbor_means @ (link.eta * phi) + link.nu
            g = (linkfn.gradient_coefficient(link, x) @ neighbor_means) * link.eta
        v = psi(gamma) + g
        new_phi = np.exp(v - v.max())
        return alpha + new_phi / new_phi.sum()
    return step


def words_map(model, words):
    """The map G that a words-only query iterates on gamma, in log space:
    gamma -> alpha + counts @ the rows' softmax of psi(gamma) + log beta."""
    alpha = model.params.alpha
    evidence = model.params.log_beta[:, [t for t, _ in words]].T
    counts = np.array([c for _, c in words], dtype=np.float64)

    def step(gamma):
        expo = psi(gamma) + evidence
        phi = np.exp(expo - expo.max(axis=1, keepdims=True))
        return alpha + counts @ (phi / phi.sum(axis=1, keepdims=True))
    return step


def plain_loop(step, gamma, stop, cap):
    """The plain iteration gamma <- step(gamma) until sum |change| < stop:
    the last gamma, and whether the test was met within cap maps."""
    for _ in range(cap):
        new_gamma = step(gamma)
        converged = np.abs(new_gamma - gamma).sum() < stop
        gamma = new_gamma
        if converged:
            return gamma, True
    return gamma, False


def log_space_words_loop(model, words, tol):
    """Every (gamma, phi_bar, var) iterate of the words-only loop that
    infer_heldout ran before it took the softmax in factored form: a
    max-shifted log-softmax over every term, and the same start and stop
    rule, run for all _MAX_ITERS iterations.  Also returns the index of
    the iterate at which that loop stopped."""
    alpha = model.params.alpha
    k = alpha.shape[0]
    terms = [t for t, _ in words]
    counts = np.array([c for _, c in words], dtype=np.float64)
    evidence = model.params.log_beta[:, terms].T
    n = counts.sum()
    gamma = alpha + n / k
    iterates, stopped = [], None
    for i in range(prediction._MAX_ITERS):
        expo = psi(gamma) - psi(gamma.sum()) + evidence
        expo -= expo.max(axis=1, keepdims=True)
        phi = np.exp(expo)
        phi /= phi.sum(axis=1, keepdims=True)
        new_gamma = alpha + counts @ phi
        if stopped is None and float(np.abs(new_gamma - gamma).mean()) / n < tol:
            stopped = i
        gamma = new_gamma
        iterates.append((gamma, counts @ phi / n, counts @ (phi * (1.0 - phi)) / n**2))
    return iterates, len(iterates) - 1 if stopped is None else stopped


class PerQueryRowFactor:
    """Stands in for `ModelParams.row_factor`: gathering terms gives the
    query's rows of exp(log beta - its row max), computed from the query's
    own evidence instead of gathered from an array built once per model."""

    def __init__(self, log_beta):
        self.log_beta = log_beta

    def __getitem__(self, terms):
        evidence = self.log_beta[:, terms].T
        return np.exp(evidence - evidence.max(axis=1, keepdims=True))


def assert_same_bytes(got, expected):
    for name in ("gamma", "phi_bar", "var"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def assert_links_only_near_the_fixed_point(model, links, train_phi_bar, tol):
    """A links-only query returns a map output, within 20 * tol * K (summed
    over the topics) of the fixed point that the plain iteration of its
    map reaches from the same start, uncapped, at tol 1e-13.

    Draws whose reference has not converged after 10,000 maps (it cycles)
    are skipped.  Where the plain loop, capped at _MAX_ITERS, meets the
    stop test at the query's tol farther than that from the reference,
    it has stopped on an unstable fixed point that the reference leaves
    by rounding alone, such as two topics that the links cannot tell
    apart at a tiny alpha; the query must stop within the bound of the
    plain loop there.  Each case is counted as a hypothesis event.
    """
    post = infer_heldout(model, links=links, train_phi_bar=train_phi_bar, tol=tol)
    alpha = model.params.alpha
    k = alpha.shape[0]
    # gamma is alpha + the pseudo-token's phi of one map, not an extrapolation
    np.testing.assert_allclose(post.gamma, alpha + post.phi_bar, rtol=0,
                               atol=1e-15 * (1.0 + alpha.max()))
    np.testing.assert_array_equal(post.var, post.phi_bar * (1.0 - post.phi_bar))
    step = links_map(model, np.unique(links), train_phi_bar)
    start = alpha + 1.0 / k
    reference, converged = plain_loop(step, start, 1e-13 * k, 10_000)
    if not converged:
        event("skipped: the reference cycles")
        return
    bound = 20 * tol * k
    plain, stopped = plain_loop(step, start, tol * k, prediction._MAX_ITERS)
    if stopped and np.abs(plain - reference).sum() > bound:
        event("the plain loop stops on an unstable fixed point")
        reference = plain
    assert np.abs(post.gamma - reference).sum() <= bound


def extreme_words_model(data, num_topics, num_terms, alpha_total):
    """A words-only model and query at the loop's extremes: log beta
    entries spread over 900 nats, some of them -inf (zero beta, served as
    the floor), every column keeping one entry that survives
    normalization, and alpha_total split over the topics."""
    entry = st.one_of(st.floats(-900.0, 0.0), st.just(-np.inf))
    logits = np.array([[data.draw(entry) for _ in range(num_terms)]
                       for _ in range(num_topics)])
    for row in logits:
        if np.isneginf(row).all():
            row[data.draw(st.integers(0, num_terms - 1))] = 0.0
    logits -= logits.max(axis=1, keepdims=True)
    for term in range(num_terms):
        if (logits[:, term] < -700.0).all():
            logits[data.draw(st.integers(0, num_topics - 1)), term] = \
                data.draw(st.floats(-700.0, 0.0))
    beta = np.exp(logits)
    alpha = alpha_total * data.draw(simplex(num_topics))
    model = model_of(beta / beta.sum(axis=1, keepdims=True), alpha)
    terms = data.draw(st.lists(st.integers(0, num_terms - 1), min_size=1,
                               max_size=num_terms, unique=True))
    return model, [(t, data.draw(st.integers(1, 5))) for t in terms]


def draw_link(data, kind, num_topics):
    """Hypothesis-drawn admissible coefficients of one link kind."""
    if kind == "exponential":
        nu = data.draw(st.floats(-3.0, 0.0))
        eta = [-nu - data.draw(st.floats(0.0, 3.0)) for _ in range(num_topics)]
    elif kind == "gaussian":
        nu = data.draw(st.floats(0.0, 2.0))
        eta = [data.draw(st.floats(0.0, 3.0)) for _ in range(num_topics)]
    else:
        nu = data.draw(st.floats(-3.0, 3.0))
        eta = [data.draw(st.floats(-3.0, 3.0)) for _ in range(num_topics)]
    return LinkParams(eta=np.array(eta), nu=nu, kind=kind)


class Replay:
    """Stands in for st.data() in an @example: each draw returns the next
    of the given values, whatever its strategy."""

    def __init__(self, values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


def simplex(num_topics):
    return st.lists(st.floats(0.01, 1.0), min_size=num_topics,
                    max_size=num_topics).map(lambda w: np.array(w) / sum(w))


class TestInferHeldout:
    def test_links_only_needs_train_phi_bar_under_an_rtm_kind(self):
        model = model_of([[0.4, 0.6], [0.5, 0.5]], [0.5, 0.5],
                         LinkParams(np.full(2, -0.5), -0.5, "exponential"))
        with pytest.raises(ValueError, match=r"^links-only inference requires train_phi_bar$"):
            infer_heldout(model, links=[0])

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

    @pytest.mark.parametrize("kind", ["lda", "lda_regression", "unigram"])
    def test_negative_link_rejected_without_training_means(self, kind):
        # baseline kinds ignore links, so they need no train_phi_bar; a
        # negative id must still not pass as a training document
        link = LinkParams(eta=np.array([-1.0]), nu=0.0, kind="exponential")
        model = model_of([[0.5, 0.5]], [1.0], link=link if kind == "lda_regression" else None,
                         kind=kind)
        with pytest.raises(ValueError, match=r"^training document id -7 out of range"):
            infer_heldout(model, links=[-7, 10**9])

    @pytest.mark.parametrize("links, message", [
        ([1.7], "training document id 1.7 is not an integer"),
        ([0, 1e30], "training document id 1e+30 is not an integer"),
        (["0"], "training document id '0' is not an integer")])
    def test_non_integer_link_rejected(self, links, message):
        # not truncated to a training document, and no overflow
        link = LinkParams(eta=np.array([-1.0]), nu=0.0, kind="exponential")
        model = model_of([[0.5, 0.5]], [1.0], link=link)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            infer_heldout(model, links=links, train_phi_bar=np.ones((2, 1)))

    @pytest.mark.parametrize("words, message", [
        ([(1, 2.7)], "entry 1:2.7 is not a pair of integers"),
        ([(0, 1), ("1", 1)], "entry '1':1 is not a pair of integers")])
    def test_non_integer_word_rejected(self, words, message):
        model = model_of([[0.5, 0.5]], [1.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            infer_heldout(model, words=words)

    def test_numpy_integer_evidence_accepted(self):
        link = LinkParams(eta=np.array([-1.0, -2.0]), nu=-0.5, kind="exponential")
        model = model_of([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5], link=link)
        means = np.array([[0.9, 0.1], [0.2, 0.8]])
        by_links = infer_heldout(model, links=np.array([1]), train_phi_bar=means)
        np.testing.assert_array_equal(
            by_links.gamma, infer_heldout(model, links=[1], train_phi_bar=means).gamma)
        by_words = infer_heldout(model, words=[(np.int64(1), np.int32(2))])
        np.testing.assert_array_equal(by_words.gamma, infer_heldout(model, words=[(1, 2)]).gamma)

    def test_empty_evidence_rejected(self):
        model = model_of([[0.5, 0.5]], [1.0])
        with pytest.raises(ValueError, match="empty word"):
            infer_heldout(model, words=[])
        with pytest.raises(ValueError, match="empty link"):
            infer_heldout(model, links=[], train_phi_bar=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="exactly one"):
            infer_heldout(model)

    @pytest.mark.parametrize("kind", (*linkfn.KINDS, "lda", "lda_regression", "unigram"))
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), num_topics=st.integers(1, 4), num_train=st.integers(1, 6),
           tol=st.sampled_from([1e-4, 1e-6, 1e-9]))
    def test_links_only_lands_near_the_fixed_point(self, kind, data, num_topics, num_train,
                                                   tol):
        link = None
        if kind in linkfn.KINDS:
            link = draw_link(data, kind, num_topics)
        elif kind == "lda_regression":
            link = draw_link(data, "sigmoid", num_topics)
        alpha = np.array([data.draw(st.floats(0.05, 2.0)) for _ in range(num_topics)])
        model = model_of(np.full((num_topics, 2), 0.5), alpha, link=link, kind=kind)
        train_phi_bar = np.array([data.draw(simplex(num_topics)) for _ in range(num_train)])
        links = data.draw(st.lists(st.integers(0, num_train - 1), min_size=1, max_size=5))
        assert_links_only_near_the_fixed_point(model, links, train_phi_bar, tol)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data(), num_topics=st.integers(1, 5), num_terms=st.integers(1, 8),
           alpha_total=st.one_of(st.sampled_from([1e-300, 1e-150, 1e-20, 1e-3]),
                                 st.floats(1e-300, 10.0)),
           tol=st.sampled_from([1e-4, 1e-6, 1e-9]))
    def test_words_only_matches_log_space_loop(self, data, num_topics, num_terms,
                                               alpha_total, tol):
        model, words = extreme_words_model(data, num_topics, num_terms, alpha_total)
        post = infer_heldout(model, words=words, tol=tol)
        iterates, stopped = log_space_words_loop(model, words, tol)
        n = sum(c for _, c in words)
        # Both loops take the same steps from the same start and stop on the
        # same test, which rounding can move by a step: so each result lies
        # within the steps the log-space loop takes after its first step
        # below twice the threshold.
        steps = [float(np.abs(b[0] - a[0]).sum()) for a, b in zip(iterates, iterates[1:])]
        first = next((i for i, step in enumerate(steps) if step < 2 * num_topics * n * tol),
                     len(steps) - 1)
        for i, name in enumerate(("gamma", "phi_bar", "var")):
            got = getattr(post, name)
            assert np.all(np.isfinite(got))
            path = [it[i] for it in iterates[first:]]
            bound = sum(float(np.abs(b - a).sum()) for a, b in zip(path, path[1:]))
            assert np.abs(got - iterates[stopped][i]).sum() <= bound + 1e-12 * n

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data(), num_topics=st.integers(1, 5), num_terms=st.integers(1, 8),
           alpha_total=st.one_of(st.sampled_from([1e-300, 1e-150, 1e-20, 1e-3]),
                                 st.floats(1e-300, 10.0)),
           tol=st.sampled_from([1e-4, 1e-6, 1e-9]))
    def test_words_only_bytes_match_the_pre_row_factor_loop(self, data, num_topics,
                                                            num_terms, alpha_total, tol):
        # the row factors gathered from the model's, built once, take the
        # loop through the same floating-point steps as the query's own, as
        # each query computed them before the model kept them
        model, words = extreme_words_model(data, num_topics, num_terms, alpha_total)
        per_query = model_of(model.params.beta, model.params.alpha)
        per_query.params.row_factor = PerQueryRowFactor(model.params.log_beta)
        assert_same_bytes(infer_heldout(model, words=words, tol=tol),
                          infer_heldout(per_query, words=words, tol=tol))

    @pytest.mark.parametrize("kind", (*linkfn.KINDS, "lda", "lda_regression", "unigram"))
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), num_topics=st.integers(1, 4), num_train=st.integers(1, 6),
           alpha_total=st.one_of(st.sampled_from([1e-300, 1e-20]), st.floats(1e-3, 10.0)),
           tol=st.sampled_from([1e-4, 1e-6, 1e-9]))
    def test_links_only_at_extreme_alpha(self, kind, data, num_topics, num_train,
                                         alpha_total, tol):
        link = None
        if kind in linkfn.KINDS:
            link = draw_link(data, kind, num_topics)
        elif kind == "lda_regression":
            link = draw_link(data, "sigmoid", num_topics)
        alpha = alpha_total * data.draw(simplex(num_topics))
        model = model_of(np.full((num_topics, 2), 0.5), alpha, link=link, kind=kind)
        train_phi_bar = np.array([data.draw(simplex(num_topics)) for _ in range(num_train)])
        links = data.draw(st.lists(st.integers(0, num_train - 1), min_size=1, max_size=5))
        assert_links_only_near_the_fixed_point(model, links, train_phi_bar, tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # at 0, below or nan the loop ran to its cap; at inf it stopped after
        # one iteration
        link = LinkParams(eta=np.array([-1.0, -1.0]), nu=-0.5, kind="exponential")
        model = model_of([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5], link=link)
        message = f"^{re.escape(f'tol must be finite and > 0, got {tol}')}$"
        with pytest.raises(ValueError, match=message):
            infer_heldout(model, words=[(0, 1)], tol=tol)
        with pytest.raises(ValueError, match=message):
            infer_heldout(model, links=[0], train_phi_bar=np.full((1, 2), 0.5), tol=tol)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), num_topics=st.integers(1, 3), num_terms=st.integers(1, 5))
    def test_zero_beta_in_e_step_and_query_is_served_as_the_floor(self, data, num_topics,
                                                                   num_terms):
        # beta with zero entries, never a whole topic: a corpus term that is
        # zero in some topic and a query term that is zero in every topic
        # give the E-step and the words-only query of the model with those
        # entries at 1e-300, and finite
        zero = np.array([data.draw(st.lists(st.booleans(), min_size=num_terms,
                                            max_size=num_terms)) for _ in range(num_topics)])
        for row in zero:
            if row.all():
                row[data.draw(st.integers(0, num_terms - 1))] = False
        beta = np.where(zero, 0.0, 1.0)
        beta /= beta.sum(axis=1, keepdims=True)
        entry = st.tuples(st.integers(0, num_terms - 1), st.integers(1, 3))
        docs = data.draw(st.lists(st.lists(entry, min_size=1, max_size=3), min_size=1,
                                  max_size=3))
        corpus = Corpus([f"w{i}" for i in range(num_terms)], docs)
        query = data.draw(st.lists(entry, min_size=1, max_size=3))
        results = []
        for served in (beta, np.where(zero, 1e-300, beta)):
            model = model_of(served, np.full(num_topics, 0.5))
            state, trace = run_e_step(corpus, model.params,
                                      init_state(corpus, num_topics, model.params.alpha))
            post = infer_heldout(model, words=query)
            assert np.all(np.isfinite(trace)) and np.all(np.isfinite(post.gamma))
            results.append([state.gamma, state.phi, np.array(trace),
                            post.gamma, post.phi_bar, post.var])
        for got, expected in zip(*results):
            assert got.tobytes() == expected.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=30)
    @example(data=Replay([[5, 0, 1], 1, 1, 4]), num_topics=4, num_terms=7,
             alpha_total=1.0, seed=2188)
    @given(data=st.data(), num_topics=st.integers(2, 5), num_terms=st.integers(1, 10),
           alpha_total=st.floats(0.01, 2.0), seed=st.integers(0, 2**16))
    def test_words_only_posterior_is_the_e_step_posterior(self, data, num_topics, num_terms,
                                                          alpha_total, seed):
        # a lone document without links: infer_heldout and run_e_step
        # iterate the same update from the same start, so where they reach
        # the same fixed point they agree.  The query's cap of 100 maps is
        # lifted.  The E-step stops on the bound's relative change, second
        # order in the step, so it runs at tol 1e-15: the two then differ by
        # at most 1.2e-7 per token in gamma and in phi_bar over 300 draws of
        # this test (4.4e-6 at tol 1e-13).  1e-6 leaves an 8-fold margin.
        # The query's extrapolated steps can carry it out of the basin that
        # the E-step's plain iteration stays in, as on the pinned draw,
        # where gamma / N is (0.710, 0.046, 0.190, 0.221) against the
        # E-step's (0.678, 0.218, 0.048, 0.223).  There the query must
        # have stopped on a fixed point of the same update: one more plain
        # map moves its gamma by less than its stop test allows.
        beta = np.random.default_rng(seed).dirichlet(np.full(num_terms, 0.3), size=num_topics)
        model = model_of(np.maximum(beta, 1e-12), np.full(num_topics, alpha_total / num_topics))
        terms = data.draw(st.lists(st.integers(0, num_terms - 1), min_size=1,
                                   max_size=num_terms, unique=True))
        words = [(t, data.draw(st.integers(1, 5))) for t in terms]
        corpus = Corpus([f"w{i}" for i in range(num_terms)], [words])
        state = init_state(corpus, num_topics, model.params.alpha)
        run_e_step(corpus, model.params, state, tol=1e-15, max_sweeps=100_000)
        tol = 1e-13
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prediction, "_MAX_ITERS", 100_000)
            post = infer_heldout(model, words=words, tol=tol)
        n = corpus.lengths[0]
        apart = max(np.abs(post.gamma - state.gamma[0]).max() / n,
                    np.abs(post.phi_bar - state.phi_bar[0]).max())
        if apart > 1e-6:
            event("the query stops on another fixed point than the E-step")
            moved = np.abs(words_map(model, words)(post.gamma) - post.gamma).sum()
            assert moved < tol * num_topics * n

    def test_slow_words_query_stops_before_the_cap(self, monkeypatch):
        # two nearly equal topics: from the uniform start the plain map
        # creeps towards its fixed point, and after _MAX_ITERS maps it is
        # still 0.074 per token away
        model = model_of([[0.55, 0.45], [0.45, 0.55]], [0.5, 0.5])
        words, n = [(0, 10), (1, 9)], 19
        step = words_map(model, words)
        start = model.params.alpha + n / 2
        assert not plain_loop(step, start, 1e-6 * 2 * n, prediction._MAX_ITERS)[1]
        reference, converged = plain_loop(step, start, 1e-13 * 2 * n, 100_000)
        assert converged
        # one psi call per map
        evaluations = []
        monkeypatch.setattr(prediction, "psi", lambda x: evaluations.append(x) or psi(x))
        post = infer_heldout(model, words=words)
        assert len(evaluations) < prediction._MAX_ITERS
        np.testing.assert_allclose(post.gamma / n, reference / n, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("beta, alpha, words", [
        ([[0.55, 0.45], [0.45, 0.55]], 0.3, [(0, 10), (1, 9)]),
        ([[0.55, 0.45], [0.45, 0.55]], 0.3, [(0, 20), (1, 19)]),
        ([[0.51, 0.49], [0.49, 0.51]], 0.5, [(0, 12), (1, 8)]),
    ])
    def test_steps_below_alpha_are_projected_not_dropped(self, monkeypatch, beta, alpha,
                                                         words):
        # the fixed point has one topic near alpha and the extrapolated
        # steps overshoot it: dropping every step that falls below alpha
        # leaves these queries at the cap, 0.093, 0.74 and 0.41 per token
        # from the fixed point; projected onto gamma >= alpha, they stop
        # after 9, 9 and 18 maps within 4e-6 of it
        model = model_of(beta, [alpha, alpha])
        n = sum(c for _, c in words)
        reference, converged = plain_loop(words_map(model, words), model.params.alpha + n / 2,
                                          1e-13 * 2 * n, 100_000)
        assert converged
        # one psi call per map
        evaluations = []
        monkeypatch.setattr(prediction, "psi", lambda x: evaluations.append(x) or psi(x))
        post = infer_heldout(model, words=words)
        assert len(evaluations) < prediction._MAX_ITERS
        assert np.abs(post.gamma - reference).sum() / n <= 1e-5

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data(), num_topics=st.integers(1, 4), num_terms=st.integers(1, 8))
    def test_repeated_terms_give_the_merged_posterior(self, data, num_topics, num_terms):
        beta = np.array([data.draw(simplex(num_terms)) for _ in range(num_topics)])
        model = model_of(beta, np.full(num_topics, 0.5))
        terms = data.draw(st.lists(st.integers(0, num_terms - 1), min_size=1,
                                   max_size=num_terms, unique=True))
        merged = [(t, data.draw(st.integers(1, 5))) for t in terms]
        # one term's count split over its entry and extra entries after it
        i = data.draw(st.integers(0, len(terms) - 1))
        split = list(merged)
        for part in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            split.insert(data.draw(st.integers(i + 1, len(split))), (terms[i], part))
            merged[i] = (terms[i], merged[i][1] + part)
        want = infer_heldout(model, words=merged)
        got = infer_heldout(model, words=split)
        for name in ("phi_bar", "gamma", "var"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_repeated_links_count_once(self):
        # the corpus loader collapses a repeated link, so a repeated training
        # id must not pull the posterior twice (it gave phi_bar (0.0316,
        # 0.9684) for [0, 0], against (0.0883, 0.9117) for [0])
        link = LinkParams(eta=np.array([-1.0, -1.0]), nu=-0.5, kind="exponential")
        model = model_of([[0.7, 0.3], [0.2, 0.8]], [0.5, 0.5], link=link)
        train_phi_bar = np.array([[0.9, 0.1], [0.2, 0.8]])
        for once, repeated in (([0], [0, 0]), ([0, 1], [1, 0, 1, 0])):
            want = infer_heldout(model, links=once, train_phi_bar=train_phi_bar)
            got = infer_heldout(model, links=repeated, train_phi_bar=train_phi_bar)
            for name in ("phi_bar", "gamma", "var"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        twice = infer_heldout(model, links=[0, 0], train_phi_bar=train_phi_bar)
        np.testing.assert_allclose(twice.phi_bar, [0.0883, 0.9117], atol=1e-4)

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
        link = draw_link(data, kind, num_topics)
        model = model_of(np.full((num_topics, 2), 0.5), np.ones(num_topics), link=link)
        h = HeldoutPosterior(phi_bar=data.draw(simplex(num_topics)), gamma=np.ones(num_topics),
                             var=0.25 * np.array([data.draw(unit) for _ in range(num_topics)]))
        train = np.array([data.draw(simplex(num_topics)) for _ in range(num_train)])
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

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data(), pool=st.lists(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf]) | st.floats(allow_nan=False),
        min_size=1, max_size=50))
    def test_equals_scipy_rankdata(self, data, pool):
        # scores drawn from a pool of 1-50 values tie often; ±inf, 0.0 and
        # -0.0 (which tie with each other) are drawn into the pool often
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=50)),
                          dtype=np.float64)
        ranks = average_ranks(scores)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, rankdata(-scores, method="average"))

    def test_retrieval_order_breaks_ties_by_index(self):
        order = retrieval_order(np.array([0.5, 0.9, 0.5]))
        np.testing.assert_array_equal(order, [1, 0, 2])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data(), pool=st.lists(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf]) | st.floats(allow_nan=False),
        min_size=1, max_size=50))
    def test_retrieval_order_equals_lexsort_by_index(self, data, pool):
        # tie-heavy scores, 0.0 and -0.0 among them: the stable sort of the
        # negated scores is the lexsort with the index as its second key
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=50)),
                          dtype=np.float64)
        expected = np.lexsort((np.arange(scores.shape[0]), -scores))
        assert retrieval_order(scores).tobytes() == expected.tobytes()


def brute_force_fold_metrics(model, corpus, plan, fold, top_k):
    """Independent re-implementation of the rank metrics (slow and literal)."""
    train_corpus, train_ids = training_view(corpus, plan, fold)
    state = prediction.train_posteriors(model, train_corpus)
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
        if model.params.link is not None:
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
    return (float(np.mean(link_ranks)) if link_ranks else float("nan"),
            float(np.mean(word_ranks)))


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

    @pytest.mark.parametrize("name", ["lda", "unigram"])
    def test_word_only_models_skip_training_posteriors(self, planted, monkeypatch, name):
        corpus, plan, _ = planted
        train_corpus, _ = training_view(corpus, plan, 0)
        model = (baselines.fit_lda(train_corpus, 2, seed=5, em_iters=8) if name == "lda"
                 else baselines.unigram(train_corpus))
        # the reference passes training posteriors to every links-only query
        link_rank, word_rank = brute_force_fold_metrics(model, corpus, plan, 0, 5)
        assert math.isnan(link_rank)

        def unused(*args, **kwargs):
            raise AssertionError("a model that scores no links needs no training posteriors")
        monkeypatch.setattr(prediction, "training_view", unused)
        monkeypatch.setattr(prediction, "train_posteriors", unused)
        report = evaluate_fold(model, corpus, plan, 0, top_k=5)
        np.testing.assert_allclose(report.mean_word_rank, word_rank, rtol=1e-12)
        assert math.isnan(report.mean_link_rank) and math.isnan(report.precision_at_k)
        assert report.num_test_docs == plan.test_docs(0).size

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, planted, top_k):
        # top_k 0 would divide by zero, -1 report a negative precision
        corpus, plan, model = planted
        with pytest.raises(ValueError, match=f"^top_k must be at least 1, got {top_k}$"):
            evaluate_fold(model, corpus, plan, 0, top_k=top_k)

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
