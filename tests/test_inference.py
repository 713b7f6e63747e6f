"""Tests for variational state, coordinate updates, and the bound."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, log_ndtr, psi
from scipy.stats import beta as beta_dist
from scipy.stats import norm

from rtm import inference, linkfn
from rtm.corpus import Corpus, generate_synthetic
from rtm.inference import (ElboBreakdown, ModelParams, elbo, init_state,
                           run_e_step, update_gamma)
from rtm.linkfn import LinkParams


def make_params(beta, alpha, link=None):
    return ModelParams(beta=np.asarray(beta, dtype=float),
                       alpha=np.asarray(alpha, dtype=float), link=link)


def one_doc_block(state, params, d):
    """Document d alone as a loaded level block of the E-step."""
    block = inference._corpus_block(state.corpus, params)
    return inference._load(params, state, block.take(block.docs == d))


def new_phi_row(d, term, state, params):
    """Row of term in the E-step's whole-document phi update of document d."""
    terms = state.corpus.doc(d)[0]
    term_index = int(np.searchsorted(terms, term))
    assert terms[term_index] == term
    block = one_doc_block(state, params, d)
    elog_theta = psi(block.gamma) - psi(block.gamma.sum(axis=1))[:, None]
    return inference._phi_update(params, block, elog_theta)[term_index]


def sequential_visit(corpus, params, state, d, tol):
    """Reference per-term visit: rows in term-id order, each from the live mean.

    This is the document iteration the whole-document update replaced:
    one term's row at a time, the document mean updated by the row's
    increment before the next term reads it, then gamma.
    """
    log_beta = params.log_beta
    link = params.link
    neighbors = corpus.neighbors[d]
    terms, counts = corpus.doc(d)
    phi_d = state.phi[corpus.rows(d)]
    n_d = float(corpus.lengths[d])
    for _ in range(inference._DOC_MAX_ITERS):
        elog = psi(state.gamma[d]) - psi(state.gamma[d].sum())
        for t, term in enumerate(terms):
            exponent = elog + log_beta[:, term]
            if link is not None and neighbors.size:
                nb_means = state.phi_bar[neighbors]
                if link.kind == "gaussian":
                    minus = state.phi_bar[d] - phi_d[t] / n_d
                    total = nb_means.sum(axis=0) - neighbors.size * (minus + 0.5 / n_d)
                    exponent = exponent + (2.0 / n_d) * link.eta * total
                else:
                    x = nb_means @ (link.eta * state.phi_bar[d]) + link.nu
                    coeff = linkfn.gradient_coefficient(link, x)
                    exponent = exponent + (coeff @ nb_means) * link.eta / n_d
            row = np.exp(exponent - exponent.max())
            row /= row.sum()
            state.phi_bar[d] += (counts[t] / n_d) * (row - phi_d[t])
            phi_d[t] = row
        new_gamma = params.alpha + corpus.lengths[d] * state.phi_bar[d]
        change = float(np.abs(new_gamma - state.gamma[d]).mean()) / n_d
        state.gamma[d] = new_gamma
        if change < tol:
            break
    state.phi_bar[d], state.var_bar[d] = doc_moments(state, corpus, d)


def two_doc_corpus():
    return Corpus(["a", "b"], [[(0, 1)], [(1, 1)]], links=[(0, 1)])


class TestModelParams:
    def test_log_beta_comes_from_its_own_read_only_copy(self):
        beta = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        params = make_params(beta, [1.0, 1.0])
        beta[0] = [1.0, 0.0, 0.0]
        assert beta.flags.writeable
        np.testing.assert_array_equal(params.beta[0], [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(params.log_beta[0], [np.log(0.5), np.log(0.5), -np.inf])
        np.testing.assert_array_equal(params.log_beta[1], np.log([0.2, 0.3, 0.5]))
        for array in (params.beta, params.log_beta):
            with pytest.raises(ValueError):
                array[0, 0] = 0.1


class TestInitState:
    def test_gamma_rule(self):
        c = Corpus(["a", "b"], [[(0, 2), (1, 2)]])
        state = init_state(c, 2, np.array([0.5, 0.5]), seed=0)
        np.testing.assert_allclose(state.gamma[0], [2.5, 2.5])

    def test_zero_noise_uniform(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 3)]])
        state = init_state(c, 4, np.full(4, 0.25), seed=0, noise=0.0)
        np.testing.assert_array_equal(state.phi[c.rows(0)], np.full((2, 4), 0.25))

    def test_deterministic(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 3)], [(1, 2)]])
        s1 = init_state(c, 3, np.full(3, 1 / 3), seed=5)
        s2 = init_state(c, 3, np.full(3, 1 / 3), seed=5)
        np.testing.assert_array_equal(s1.phi, s2.phi)

    def test_caches_consistent(self):
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(2, 4)], [(0, 1), (1, 3), (2, 1)]])
        state = init_state(c, 3, np.full(3, 1 / 3), seed=1)
        for d in range(c.num_docs):
            mean, var = doc_moments(state, c, d)
            np.testing.assert_allclose(state.phi_bar[d], mean, rtol=1e-12)
            np.testing.assert_allclose(state.var_bar[d], var, rtol=1e-12)


class TestUpdatePhi:
    def test_single_topic(self):
        c = Corpus(["a"], [[(0, 1)]])
        state = init_state(c, 1, np.array([1.0]), seed=0)
        params = make_params([[1.0]], [1.0])
        np.testing.assert_allclose(new_phi_row(0, 0, state, params), [1.0])

    def test_no_links_equals_lda_update(self):
        c = Corpus(["a", "b", "c"], [[(0, 1), (2, 2)]])
        state = init_state(c, 2, np.array([0.4, 0.6]), seed=3)
        beta = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])
        params = make_params(beta, [0.4, 0.6])
        got = new_phi_row(0, 2, state, params)
        elog = psi(state.gamma[0]) - psi(state.gamma[0].sum())
        expected = np.exp(elog + np.log(beta[:, 2]))
        expected /= expected.sum()
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_exponential_neighbor_shifts_exponent(self):
        # one observed link adds eta o phibar_neighbor / N_d to the exponent
        c = two_doc_corpus()
        no_links = Corpus(["a", "b"], [[(0, 1)], [(1, 1)]])
        beta = np.array([[0.7, 0.3], [0.2, 0.8]])
        alpha = np.array([0.5, 0.5])
        link = LinkParams(eta=np.array([-0.4, -0.8]), nu=-0.1, kind="exponential")
        state = init_state(c, 2, alpha, seed=2)
        state_nl = init_state(no_links, 2, alpha, seed=2)
        with_link = new_phi_row(0, 0, state, make_params(beta, alpha, link))
        without = new_phi_row(0, 0, state_nl, make_params(beta, alpha))
        shift = np.log(with_link) - np.log(without)
        expected = link.eta * state.phi_bar[1] / c.lengths[0]
        # equal up to the normalization constant
        np.testing.assert_allclose(shift - shift[0], expected - expected[0],
                                   atol=1e-12)

    def test_exponential_update_is_coordinate_maximizer(self):
        # numerically maximize the bound over this phi with all else fixed;
        # the closed-form update must land on the same point
        c = two_doc_corpus()
        beta = np.array([[0.7, 0.3], [0.2, 0.8]])
        alpha = np.array([0.5, 0.5])
        link = LinkParams(eta=np.array([-0.3, -0.9]), nu=-0.2, kind="exponential")
        params = make_params(beta, alpha, link)
        state = init_state(c, 2, alpha, seed=1)

        def negative_bound(p):
            state.set_phi(0, 0, np.array([p, 1.0 - p]))
            return -elbo(c, params, state).total

        best = minimize_scalar(negative_bound, bounds=(1e-9, 1 - 1e-9),
                               method="bounded",
                               options={"xatol": 1e-12})
        state.set_phi(0, 0, np.full(2, 0.5))
        updated = new_phi_row(0, 0, state, params)
        assert abs(updated[0] - best.x) < 1e-6

    def test_all_zero_beta_column_rejected(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 1)]])
        state = init_state(c, 2, np.array([0.5, 0.5]), seed=0)
        beta = np.array([[1.0, 0.0], [1.0, 0.0]])
        params = make_params(beta, [0.5, 0.5])
        with pytest.raises(ValueError, match="column"):
            new_phi_row(0, 1, state, params)


class TestWholeDocumentVisit:
    def test_exponential_visit_matches_sequential_reference(self):
        # the exponential link gradient does not read the document's own
        # phi, so updating every row at once, and every document of a
        # level at once, is the per-term iteration in index order
        corpus, _ = generate_synthetic(3, 30, 25, 30, np.full(3, 0.3),
                                       np.full(3, -2.0), -1.0, "exponential", seed=17)
        assert corpus.num_links > 0
        beta = np.random.default_rng(4).dirichlet(np.ones(30), size=3)
        link = LinkParams(eta=np.array([-1.5, -2.5, -3.0]), nu=-0.5, kind="exponential")
        params = make_params(beta, np.full(3, 0.3), link)
        whole = init_state(corpus, 3, params.alpha, seed=8)
        reference = init_state(corpus, 3, params.alpha, seed=8)
        inference._sweep(params, whole, inference._level_blocks(corpus, params), 1e-6)
        for d in range(corpus.num_docs):
            sequential_visit(corpus, params, reference, d, 1e-6)
        for d in range(corpus.num_docs):
            rows = corpus.rows(d)
            np.testing.assert_allclose(whole.phi[rows], reference.phi[rows], rtol=0, atol=1e-12)
            np.testing.assert_allclose(whole.gamma[d], reference.gamma[d], rtol=0, atol=1e-12)
            np.testing.assert_allclose(whole.phi_bar[d], reference.phi_bar[d],
                                       rtol=0, atol=1e-12)

    def test_strongly_coupled_gaussian_reaches_sequential_bound(self):
        # with a large gaussian coefficient the undamped whole-document
        # update oscillates; the damped visits must still reach the bound
        # that exact per-term coordinate ascent reaches
        corpus, _ = generate_synthetic(3, 30, 20, 20, np.full(3, 0.3), np.full(3, 2.0),
                                       0.5, "gaussian", seed=5)
        beta = np.random.default_rng(2).dirichlet(np.ones(30), size=3)
        link = LinkParams(eta=np.full(3, 20.0), nu=0.0, kind="gaussian")
        params = make_params(beta, np.full(3, 0.3), link)
        state = init_state(corpus, 3, params.alpha, seed=1)
        _, trace = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=100)

        reference = init_state(corpus, 3, params.alpha, seed=1)
        previous = elbo(corpus, params, reference).total
        for _ in range(100):
            for d in range(corpus.num_docs):
                sequential_visit(corpus, params, reference, d, 1e-10)
            value = elbo(corpus, params, reference).total
            assert value >= previous - 1e-8 * abs(previous)
            if abs(value - previous) <= 1e-10 * abs(previous):
                break
            previous = value
        assert abs(trace[-1] - value) <= 1e-6 * abs(value)

    def test_rejected_visit_restores_its_rows_and_writes_var_bar(self, monkeypatch):
        # a step that puts every row on one topic lowers the block objective
        # at every damping, so the visit must keep the rows it started from;
        # var_bar[d] is written on that exit path too
        corpus, _ = generate_synthetic(3, 30, 20, 20, np.full(3, 0.3), np.full(3, 2.0),
                                       0.5, "gaussian", seed=5)
        beta = np.random.default_rng(2).dirichlet(np.ones(30), size=3)
        link = LinkParams(eta=np.full(3, 2.0), nu=0.0, kind="gaussian")
        params = make_params(beta, np.full(3, 0.3), link)
        state = init_state(corpus, 3, params.alpha, seed=1)
        run_e_step(corpus, params, state, tol=1e-10, max_sweeps=100)
        d = int(np.argmax([ns.size for ns in corpus.neighbors]))
        rows = corpus.rows(d)
        start = state.phi[rows].copy(), state.gamma[d].copy(), state.phi_bar[d].copy()
        worst = np.eye(3)[np.argmin(state.phi_bar[d])]
        monkeypatch.setattr(inference, "_phi_update",
                            lambda *args: np.tile(worst, (rows.stop - rows.start, 1)))
        state.var_bar[d] = np.nan
        inference._visit_level(params, state, one_doc_block(state, params, d), 1e-6)
        for got, expected in zip((state.phi[rows], state.gamma[d], state.phi_bar[d]), start):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(state.var_bar[d], doc_moments(state, corpus, d)[1])


class TestUpdateGamma:
    def test_two_token_example(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 1)]])
        state = init_state(c, 2, np.array([0.5, 0.5]), seed=0, noise=0.0)
        state.set_phi(0, 0, np.array([1.0, 0.0]))
        state.set_phi(0, 1, np.array([0.0, 1.0]))
        np.testing.assert_allclose(update_gamma(0, state, [0.5, 0.5]), [1.5, 1.5])

    def test_count_weighting(self):
        single = Corpus(["a", "b"], [[(0, 1), (1, 1)]])
        double = Corpus(["a", "b"], [[(0, 2), (1, 1)]])
        phi_a = np.array([0.9, 0.1])
        phi_b = np.array([0.2, 0.8])
        states = []
        for c in (single, double):
            s = init_state(c, 2, np.array([0.5, 0.5]), seed=0, noise=0.0)
            s.set_phi(0, 0, phi_a.copy())
            s.set_phi(0, 1, phi_b.copy())
            states.append(update_gamma(0, s, [0.5, 0.5]))
        np.testing.assert_allclose(states[1] - states[0], phi_a)


def oracle_tiny_elbo(alpha, beta, link, gamma, phi_docs, words, links):
    """Enumeration + quadrature bound for 1-token, 2-topic documents.

    E_q[log p] + H(q) computed with numerical integration over each
    theta simplex and exhaustive enumeration of the joint assignments,
    with no digamma/gammaln shortcuts on the q expectations.
    """
    total = 0.0
    for d in range(len(gamma)):
        g1, g2 = gamma[d]
        q_pdf = lambda t: beta_dist.pdf(t, g1, g2)
        prior_logpdf = lambda t: beta_dist.logpdf(t, alpha[0], alpha[1])
        total += quad(lambda t: q_pdf(t) * prior_logpdf(t), 0, 1, limit=200)[0]
        total -= quad(lambda t: q_pdf(t) * beta_dist.logpdf(t, g1, g2),
                      0, 1, limit=200)[0]
        phi = phi_docs[d]
        elog_t = quad(lambda t: q_pdf(t) * np.log(t), 0, 1, limit=200)[0]
        elog_1mt = quad(lambda t: q_pdf(t) * np.log1p(-t), 0, 1, limit=200)[0]
        total += phi[0] * elog_t + phi[1] * elog_1mt
        total += float(phi @ np.log(beta[:, words[d]]))
        total += float(-(phi @ np.log(phi)))
    eye = np.eye(2)
    for d1, d2 in links:
        for z1 in range(2):
            for z2 in range(2):
                weight = phi_docs[d1][z1] * phi_docs[d2][z2]
                total += weight * (link.eta @ (eye[z1] * eye[z2]) + link.nu)
    return total


def doc_moments(state, corpus, d):
    """Mean assignment vector of document d and the variance of each component.

    Sums over the document's rows with np.add.reduceat, in the E-step's
    summation order, so a state the E-step wrote matches exactly.
    """
    counts = corpus.doc(d)[1].astype(float)[:, None]
    n = counts.sum()
    p = state.phi[corpus.rows(d)]
    return (np.add.reduceat(counts * p, [0])[0] / n,
            np.add.reduceat(counts * (p * (1.0 - p)), [0])[0] / n**2)


def literal_log_link(link, mean_a, var_a, mean_b, var_b):
    """E[log psi] of one pair, written out from the link function definitions."""
    if link.kind == "gaussian":
        return -link.nu - sum(e * ((a - b) ** 2 + va + vb) for e, a, b, va, vb
                              in zip(link.eta, mean_a, mean_b, var_a, var_b))
    x = sum(e * a * b for e, a, b in zip(link.eta, mean_a, mean_b)) + link.nu
    if link.kind == "sigmoid":
        return -np.log1p(np.exp(-x))
    if link.kind == "probit":
        return float(log_ndtr(x))
    return x


class TestElbo:
    def test_breakdown_sums(self):
        corpus, _ = generate_synthetic(2, 6, 10, 8, np.array([0.5, 0.5]),
                                       np.array([-0.5, -0.5]), -0.5,
                                       "exponential", seed=3)
        link = LinkParams(eta=np.array([-0.5, -0.5]), nu=-0.5, kind="exponential")
        beta = np.full((2, 6), 1 / 6)
        params = make_params(beta, [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=0)
        bd = elbo(corpus, params, state)
        parts = (bd.link_term + bd.z_given_theta_term + bd.word_term
                 + bd.theta_prior_term + bd.entropy_term)
        assert abs(bd.total - parts) <= 1e-10 * max(1.0, abs(bd.total))

    def test_no_links_equals_lda_bound(self):
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(2, 3)]])
        alpha = np.array([0.6, 0.4])
        beta = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
        params = make_params(beta, alpha)
        state = init_state(c, 2, alpha, seed=7)
        got = elbo(c, params, state).total

        # straight LDA bound computed term by term
        expected = 0.0
        for d in range(c.num_docs):
            g = state.gamma[d]
            elog = psi(g) - psi(g.sum())
            expected += (gammaln(alpha.sum()) - gammaln(alpha).sum()
                         + (alpha - 1) @ elog)
            terms, counts = c.doc(d)
            for t, cnt in zip(terms, counts):
                phi = state.phi[c.rows(d)][np.searchsorted(terms, t)]
                expected += cnt * (phi @ elog + phi @ np.log(beta[:, t])
                                   - phi @ np.log(phi))
            expected += (gammaln(g).sum() - gammaln(g.sum())
                         - (g - 1) @ elog)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_tiny_instance_matches_quadrature_oracle(self):
        corpus = two_doc_corpus()
        alpha = np.array([0.7, 0.5])
        beta = np.array([[0.7, 0.3], [0.2, 0.8]])
        link = LinkParams(eta=np.array([-0.4, -0.3]), nu=-0.2, kind="exponential")
        params = make_params(beta, alpha, link)
        state = init_state(corpus, 2, alpha, seed=0, noise=0.0)
        state.gamma = np.array([[1.4, 0.9], [1.1, 1.6]])
        state.set_phi(0, 0, np.array([0.6, 0.4]))
        state.set_phi(1, 0, np.array([0.25, 0.75]))

        analytic = elbo(corpus, params, state).total
        oracle = oracle_tiny_elbo(alpha, beta, link, state.gamma,
                                  [state.phi[corpus.rows(0)][0], state.phi[corpus.rows(1)][0]],
                                  words=[0, 1], links=[(0, 1)])
        assert abs(analytic - oracle) < 1e-6

    def test_entropy_nonnegative_at_uniform(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 1)]])
        params = make_params([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0])
        state = init_state(c, 2, np.array([1.0, 1.0]), seed=0, noise=0.0)
        state.gamma = np.array([[1.0, 1.0]])
        assert elbo(c, params, state).entropy_term >= 0.0

    def test_link_term_matches_per_pair_values(self):
        corpus, _ = generate_synthetic(3, 9, 12, 10, np.full(3, 1 / 3),
                                       np.full(3, -0.4), -0.3, "exponential",
                                       seed=6)
        for kind in linkfn.KINDS:
            if kind == "gaussian":
                link = LinkParams(eta=np.full(3, 0.7), nu=0.2, kind=kind)
            elif kind == "exponential":
                link = LinkParams(eta=np.full(3, -0.4), nu=-0.3, kind=kind)
            else:
                link = LinkParams(eta=np.array([1.0, -0.5, 0.3]), nu=0.4, kind=kind)
            beta = np.full((3, 9), 1 / 9)
            params = make_params(beta, np.full(3, 1 / 3), link)
            state = init_state(corpus, 3, params.alpha, seed=1)
            bd = elbo(corpus, params, state)
            expected = 0.0
            for d1, d2 in corpus.links:
                expected += literal_log_link(
                    link, *doc_moments(state, corpus, d1), *doc_moments(state, corpus, d2))
            np.testing.assert_allclose(bd.link_term, expected, rtol=1e-10)


class TestEStep:
    def test_exponential_trace_nondecreasing(self):
        corpus, _ = generate_synthetic(2, 8, 20, 12, np.array([0.5, 0.5]),
                                       np.array([-0.6, -0.6]), -0.8,
                                       "exponential", seed=11)
        link = LinkParams(eta=np.array([-0.6, -0.6]), nu=-0.8, kind="exponential")
        beta = np.abs(np.random.default_rng(0).normal(size=(2, 8))) + 0.5
        beta /= beta.sum(axis=1, keepdims=True)
        params = make_params(beta, [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=4)
        _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=30)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_gaussian_trace_nondecreasing(self):
        corpus, _ = generate_synthetic(2, 8, 15, 10, np.array([0.5, 0.5]),
                                       np.zeros(2), 0.5, "gaussian", seed=2)
        link = LinkParams(eta=np.array([1.5, 2.0]), nu=0.1, kind="gaussian")
        beta = np.full((2, 8), 1 / 8)
        params = make_params(beta, [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=9)
        _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=30)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_already_converged_returns_after_one_sweep(self):
        corpus = two_doc_corpus()
        link = LinkParams(eta=np.array([-0.2, -0.2]), nu=-0.2, kind="exponential")
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=0)
        state, _ = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=100)
        state, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=100)
        assert len(trace) == 2  # initial value plus a single sweep

    def test_single_topic_degenerate(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 2)], [(1, 1)]], links=[(0, 1)])
        link = LinkParams(eta=np.array([-0.5]), nu=-0.1, kind="exponential")
        params = make_params([[0.5, 0.5]], [1.0], link)
        state = init_state(c, 1, np.array([1.0]), seed=0)
        state, trace = run_e_step(c, params, state, tol=1e-8)
        assert len(trace) == 2
        np.testing.assert_allclose(state.phi[c.rows(0)], 1.0)
        np.testing.assert_allclose(state.gamma[0], [1.0 + 3.0])

    def test_non_finite_bound_raises(self):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 2, params.alpha, seed=0)
        state.gamma[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            run_e_step(corpus, params, state, tol=1e-6)

    def test_pair_evaluations_scale_with_links(self):
        corpus, _ = generate_synthetic(2, 8, 40, 10, np.array([0.5, 0.5]),
                                       np.array([-0.5, -0.5]), -0.7,
                                       "exponential", seed=21)
        assert corpus.num_links > 0
        link = LinkParams(eta=np.array([-0.5, -0.5]), nu=-0.7, kind="exponential")
        beta = np.full((2, 8), 1 / 8)
        params = make_params(beta, [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=0)
        linkfn.pair_evals.reset()
        _, trace = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=5)
        # one pair evaluation per observed link per bound evaluation:
        # the initial value plus exactly one per sweep
        assert linkfn.pair_evals.count == len(trace) * corpus.num_links

    def test_sweep_cap_is_logged_once(self, caplog):
        corpus, _ = generate_synthetic(2, 8, 20, 12, np.array([0.5, 0.5]),
                                       np.array([-0.6, -0.6]), -0.8, "exponential", seed=11)
        link = LinkParams(eta=np.array([-0.6, -0.6]), nu=-0.8, kind="exponential")
        params = make_params(np.full((2, 8), 1 / 8), [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=4)
        with caplog.at_level(logging.WARNING, logger="rtm.inference"):
            _, trace = run_e_step(corpus, params, state, tol=1e-14, max_sweeps=2)
        assert len(trace) == 3
        records = [r for r in caplog.records if r.name == "rtm.inference"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "max_sweeps=2" in records[0].getMessage()

    def test_converged_e_step_logs_nothing(self, caplog):
        corpus = two_doc_corpus()
        link = LinkParams(eta=np.array([-0.2, -0.2]), nu=-0.2, kind="exponential")
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha, seed=0)
        with caplog.at_level(logging.WARNING, logger="rtm.inference"):
            _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=100)
        assert len(trace) < 101
        assert not [r for r in caplog.records if r.name == "rtm.inference"]

    def test_invalid_tol_rejected(self):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 2, params.alpha, seed=0)
        with pytest.raises(ValueError):
            run_e_step(corpus, params, state, tol=0.0)


@st.composite
def link_params(draw, kind, num_topics):
    """Link coefficients of the given kind; admissible for exponential and gaussian.

    Coefficients reach 40 in magnitude, and sigmoid/probit ones are at
    least 4: with short documents, that is where the linearized per-term
    updates overshoot unless a visit is safeguarded.
    """
    def coefs(values):
        return draw(st.lists(values, min_size=num_topics, max_size=num_topics))

    if kind == "exponential":
        nu = draw(st.floats(-3.0, -0.01))
        eta = [-nu - gap for gap in coefs(st.floats(0.0, 40.0))]
    elif kind == "gaussian":
        nu = draw(st.floats(0.0, 2.0))
        eta = coefs(st.floats(0.0, 40.0))
    else:
        nu = draw(st.floats(-3.0, 3.0))
        eta = coefs(st.floats(-40.0, -4.0) | st.floats(4.0, 40.0))
    return LinkParams(eta=np.array(eta), nu=nu, kind=kind)


@pytest.mark.parametrize("kind", linkfn.KINDS)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data(), num_topics=st.integers(2, 3), doc_length=st.integers(2, 6),
       seed=st.integers(0, 2**16))
def test_e_step_trace_nondecreasing_for_every_kind(kind, data, num_topics, doc_length,
                                                   seed):
    # for sigmoid and probit the traced bound is the first-order surrogate,
    # which the safeguarded sweeps ascend
    alpha = np.full(num_topics, 1.0 / num_topics)
    corpus, _ = generate_synthetic(num_topics, 8, 10, doc_length, alpha,
                                   np.full(num_topics, -1.0), -0.5, "exponential", seed=seed)
    beta = np.random.default_rng(seed).dirichlet(np.ones(8), size=num_topics)
    params = make_params(beta, alpha, data.draw(link_params(kind, num_topics)))
    state = init_state(corpus, num_topics, alpha, seed=seed)
    _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=10)
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))


def reference_visit(corpus, params, state, d, tol):
    """Document d's visit in the per-document sweep that the wavefront replaced.

    Each iteration computes the whole-document update from the live
    state, then gamma.  A safeguarded document (a linked one, for every
    kind but exponential) damps the step geometrically, halving lam
    until its block objective is no lower, and keeps the rows it started
    from if no lam >= 1e-4 is; lam stays small for the rest of the visit.
    """
    rows = corpus.rows(d)
    terms, counts = corpus.doc(d)
    counts = counts.astype(float)
    n_d = float(corpus.lengths[d])
    lb = params.log_beta[:, terms].T
    link = params.link
    neighbors = corpus.neighbors[d] if link is not None else corpus.neighbors[d][:0]

    def write(phi_d, gamma_d):
        state.phi[rows] = phi_d
        state.phi_bar[d] = np.add.reduceat(counts[:, None] * phi_d, [0])[0] / n_d
        state.gamma[d] = gamma_d

    def phi_update():
        exponent = psi(state.gamma[d]) - psi(state.gamma[d].sum()) + lb
        if neighbors.size:
            nb_means = state.phi_bar[neighbors]
            if link.kind == "gaussian":
                minus = state.phi_bar[d] - state.phi[rows] / n_d
                exponent = exponent + linkfn.grad_phi_gaussian(
                    link, nb_means.sum(axis=0), neighbors.size, minus, n_d)
            else:
                x = nb_means @ (link.eta * state.phi_bar[d]) + link.nu
                coeff = linkfn.gradient_coefficient(link, x)
                exponent = exponent + (coeff @ nb_means) * link.eta / n_d
        out = np.exp(exponent - exponent.max(axis=1, keepdims=True))
        return out / out.sum(axis=1, keepdims=True)

    def objective():
        parts = inference._bound_parts(params.alpha, counts, lb, [0], np.array([n_d]),
                                       state.phi[rows], state.gamma[d:d + 1],
                                       state.phi_bar[d:d + 1])
        value = float(sum(parts)[0])
        if neighbors.size:
            value += float(linkfn.expected_log_link_batch(
                link, state.phi_bar[d], state.phi_bar[neighbors],
                doc_moments(state, corpus, d)[1], state.var_bar[neighbors],
                count=False).sum())
        return value

    guard = neighbors.size > 0 and link.kind != "exponential"
    if guard:
        current = objective()
        slack = 1e-12 * (1.0 + abs(current))
    lam = 1.0
    for _ in range(inference._DOC_MAX_ITERS):
        old_phi, old_gamma = state.phi[rows].copy(), state.gamma[d].copy()
        new_phi = phi_update()
        if not guard:
            write(new_phi, old_gamma)
            state.gamma[d] = params.alpha + n_d * state.phi_bar[d]
        else:
            while lam >= 1e-4:
                mix = old_phi ** (1.0 - lam) * new_phi ** lam
                write(mix / mix.sum(axis=1, keepdims=True), old_gamma)
                state.gamma[d] = params.alpha + n_d * state.phi_bar[d]
                value = objective()
                if value >= current - slack:
                    break
                lam *= 0.5
            else:
                write(old_phi, old_gamma)
                break
            current = value
        if float(np.abs(state.gamma[d] - old_gamma).mean()) / n_d < tol:
            break
    state.phi_bar[d], state.var_bar[d] = doc_moments(state, corpus, d)


@st.composite
def mixed_level_corpora(draw, num_terms=6):
    """Small linked corpora with an isolated document, so level 0 mixes both."""
    num_docs = draw(st.integers(3, 10))
    entry = st.tuples(st.integers(0, num_terms - 1), st.integers(1, 3))
    docs = [draw(st.lists(entry, min_size=1, max_size=4)) for _ in range(num_docs)]
    isolated = draw(st.integers(1, num_docs - 1))
    others = [d for d in range(num_docs) if d != isolated]
    pairs = [(a, b) for i, a in enumerate(others) for b in others[i + 1:]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) + [(0, others[1])]
    return Corpus([f"w{i}" for i in range(num_terms)], docs, links)


@pytest.mark.parametrize("kind", linkfn.KINDS)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data(), corpus=mixed_level_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_wavefront_sweep_matches_index_order_sweep(kind, data, corpus, num_topics, seed):
    level = inference._levels(corpus)
    # every link joins a lower level to a higher one, so no level holds
    # both ends of a link; each document sits just above its highest
    # lower-indexed neighbor
    for a, b in corpus.links:
        assert level[a] < level[b]
    for d, ns in enumerate(corpus.neighbors):
        lower = ns[ns < d]
        assert level[d] == (level[lower].max() + 1 if lower.size else 0)
    assert level[0] == 0 and corpus.neighbors[0].size
    assert np.all(level[corpus.isolated_docs()] == 0)

    alpha = np.full(num_topics, 1.0 / num_topics)
    beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms), size=num_topics)
    drawn = data.draw(link_params(kind, num_topics))
    # the drawn link, then eta = 0: one level of all documents, unguarded,
    # against the damped reference
    for link in (drawn, LinkParams(eta=np.zeros(num_topics), nu=drawn.nu, kind=kind)):
        params = make_params(beta, alpha, link)
        wavefront = init_state(corpus, num_topics, alpha, seed=seed)
        reference = init_state(corpus, num_topics, alpha, seed=seed)
        levels = inference._level_blocks(corpus, params)
        assert (len(levels) == 1) == (not link.eta.any())
        for _ in range(2):
            inference._sweep(params, wavefront, levels, 1e-6)
            for d in range(corpus.num_docs):
                reference_visit(corpus, params, reference, d, 1e-6)
        for name in ("phi", "gamma", "phi_bar", "var_bar"):
            np.testing.assert_allclose(getattr(wavefront, name), getattr(reference, name),
                                       rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", linkfn.KINDS)
def test_zero_eta_sweeps_every_document_in_one_level(kind):
    # a chain 0-1-2-3 and an isolated document 4
    corpus = Corpus(["a", "b"], [[(0, 1)], [(1, 2)], [(0, 1), (1, 1)], [(1, 1)], [(0, 3)]],
                    [(0, 1), (1, 2), (2, 3)])
    beta = np.array([[0.6, 0.4], [0.3, 0.7]])
    nu = -1.0 if kind == "exponential" else 0.5

    def blocks(eta):
        link = LinkParams(eta=np.array(eta), nu=nu, kind=kind)
        return inference._level_blocks(corpus, make_params(beta, [0.5, 0.5], link))

    # the link gradient is proportional to eta: at eta = 0 no document
    # reads another, so there are no pairs and no safeguard
    (whole,) = blocks([0.0, 0.0])
    np.testing.assert_array_equal(whole.docs, np.arange(5))
    assert whole.neighbors.size == 0 and not whole.num_pairs.any()
    assert not whole.guard.any() and not whole.guarded

    # one nonzero component couples the documents again
    eta = -0.5 if kind == "exponential" else 2.0
    levels = blocks([0.0, eta])
    assert [block.docs.tolist() for block in levels] == [[0, 4], [1], [2], [3]]
    assert [block.guarded for block in levels] == [kind != "exponential"] * 4


def literal_gradient_coefficient(kind, x):
    """c(x) = d log psi / dx, from the sigmoid and probit link definitions."""
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(x))
    return norm.pdf(x) / norm.cdf(x)


def uncollapsed_fixed_point(tokens_by_doc, links, beta, alpha, link, sweeps=400):
    """Per-token reference implementation (no same-term sharing)."""
    log_beta = np.log(beta)
    k = beta.shape[0]
    num_docs = len(tokens_by_doc)
    phis = [np.full((len(toks), k), 1.0 / k) for toks in tokens_by_doc]
    gammas = [alpha + len(toks) / k for toks in tokens_by_doc]
    neighbor = {d: [] for d in range(num_docs)}
    for a, b in links:
        neighbor[a].append(b)
        neighbor[b].append(a)

    def phibar(d):
        return phis[d].mean(axis=0)

    for _ in range(sweeps):
        for d in range(num_docs):
            n_d = len(tokens_by_doc[d])
            for _ in range(40):
                elog = psi(gammas[d]) - psi(gammas[d].sum())
                for n, w in enumerate(tokens_by_doc[d]):
                    g = np.zeros(k)
                    for dp in neighbor[d]:
                        if link.kind == "exponential":
                            g += link.eta * phibar(dp) / n_d
                        elif link.kind == "gaussian":
                            minus = phibar(d) - phis[d][n] / n_d
                            g += (2.0 / n_d) * link.eta * (
                                phibar(dp) - minus - 0.5 / n_d)
                        else:
                            x = link.eta @ (phibar(d) * phibar(dp)) + link.nu
                            c = literal_gradient_coefficient(link.kind, x)
                            g += c * link.eta * phibar(dp) / n_d
                    expo = elog + log_beta[:, w] + g
                    expo -= expo.max()
                    phis[d][n] = np.exp(expo) / np.exp(expo).sum()
                new_gamma = alpha + phis[d].sum(axis=0)
                done = np.abs(new_gamma - gammas[d]).mean() / n_d < 1e-12
                gammas[d] = new_gamma
                if done:
                    break
    return phis, gammas


@pytest.mark.parametrize("kind", linkfn.KINDS)
def test_collapsed_matches_uncollapsed_fixed_point(kind):
    # same-term tokens share one phi in the production path; a per-token
    # reference must reach the same fixed point with equal rows for
    # equal terms
    beta = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    alpha = np.array([0.5, 0.5])
    if kind == "exponential":
        link = LinkParams(eta=np.array([-0.4, -0.7]), nu=-0.2, kind=kind)
    elif kind == "gaussian":
        link = LinkParams(eta=np.array([0.5, 0.8]), nu=0.1, kind=kind)
    else:
        link = LinkParams(eta=np.array([1.5, -0.8]), nu=0.3, kind=kind)
    corpus = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(2, 2)]], links=[(0, 1)])
    params = make_params(beta, alpha, link)
    state = init_state(corpus, 2, alpha, seed=0, noise=0.0)
    state, _ = run_e_step(corpus, params, state, tol=1e-12, max_sweeps=400)

    phis, gammas = uncollapsed_fixed_point(
        [[0, 0, 1], [2, 2]], [(0, 1)], beta, alpha, link)
    # tokens of the same term agree with each other and with the shared row
    np.testing.assert_allclose(phis[0][0], phis[0][1], atol=1e-9)
    doc0 = state.phi[corpus.rows(0)]
    np.testing.assert_allclose(phis[0][0], doc0[0], atol=1e-7)
    np.testing.assert_allclose(phis[0][2], doc0[1], atol=1e-7)
    np.testing.assert_allclose(gammas[0], state.gamma[0], atol=1e-7)
    np.testing.assert_allclose(gammas[1], state.gamma[1], atol=1e-7)
