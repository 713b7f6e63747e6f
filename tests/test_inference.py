"""Tests for variational state, coordinate updates, and the bound."""

import logging

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, log_ndtr, logsumexp, psi
from scipy.stats import beta as beta_dist
from scipy.stats import norm

from rtm import inference, linkfn
from rtm.corpus import Corpus, generate_synthetic
from rtm.estimation import FittedModel
from rtm.inference import ElboBreakdown, ModelParams, elbo, init_state, run_e_step
from rtm.linkfn import LinkParams
from rtm.prediction import train_posteriors


def make_params(beta, alpha, link=None):
    return ModelParams(beta=np.asarray(beta, dtype=float),
                       alpha=np.asarray(alpha, dtype=float), link=link)


def e_step_blocks(corpus, params):
    """The E-step's blocks in visit order, built as `run_e_step` builds them."""
    layout = inference._block_layout(corpus, inference._coupled(params))
    return inference._e_step_blocks(corpus, params, layout)


def one_doc_block(state, params, d):
    """Document d alone, taken from the E-step block that holds it."""
    (block,) = [block for block in e_step_blocks(state.corpus, params)
                if d in block.docs]
    return block.take(block.docs == d)


def new_phi_row(d, term, state, params):
    """Row of term in the E-step's whole-document phi update of document d.

    The document must be unguarded (no link component, or the
    exponential kind): its update is the factored one on topic weights.
    A visit capped at one iteration writes the rows formed from the
    state's gamma; it visits a copy, so state is left as it is.
    """
    terms = state.corpus.doc(d)[0]
    term_index = int(np.searchsorted(terms, term))
    assert terms[term_index] == term
    block = one_doc_block(state, params, d)
    assert not block.guarded
    visited = inference.VariationalState(state.corpus, state.gamma.copy(), state.phi.copy())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_DOC_MAX_ITERS", 1)
        inference._visit_unguarded(params, visited, block, 1e-6)
    return visited.phi[state.corpus.rows(d)][term_index]


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


def unsmoothed_example(link=None):
    """Two linked documents over terms 0 and 1, and a model whose beta is
    zero for term 1 in topic 0 and for the unused term 2 in topic 1."""
    corpus = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(0, 1), (1, 2)]], [(0, 1)])
    return corpus, make_params([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]], [0.5, 0.5], link)


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

    def test_rows_must_sum_to_one_within_1e_8(self):
        # an absolute test, as load_model's: allclose's default rtol of
        # 1e-5 would also accept a row that sums to 1 + 5e-6
        with pytest.raises(ValueError, match=r"^beta rows must sum to 1$"):
            make_params([[0.5, 0.5 + 5e-6], [0.5, 0.5]], [1.0, 1.0])
        params = make_params([[0.5, 0.5 + 1e-9], [0.5, 0.5]], [1.0, 1.0])
        assert params.beta.sum(axis=1)[0] == 1.0 + 1e-9


class TestInitState:
    def test_gamma_rule(self):
        c = Corpus(["a", "b"], [[(0, 2), (1, 2)]])
        state = init_state(c, 2, np.array([0.5, 0.5]))
        np.testing.assert_allclose(state.gamma[0], [2.5, 2.5])

    def test_uniform_phi_agrees_with_gamma(self):
        # lda-c's start: phi exactly 1/K, and gamma = alpha + n * phi_bar
        c = Corpus(["a", "b", "c"], [[(0, 1), (1, 3)], [(1, 2)], [(0, 4), (1, 1), (2, 7)]])
        alpha = np.array([0.1, 0.2, 0.7])
        state = init_state(c, 3, alpha)
        np.testing.assert_array_equal(state.phi, np.full((c.terms.shape[0], 3), 1 / 3))
        np.testing.assert_allclose(state.gamma, alpha + c.lengths[:, None] * state.phi_bar,
                                   rtol=1e-12, atol=0)

    def test_caches_consistent(self):
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(2, 4)], [(0, 1), (1, 3), (2, 1)]])
        state = init_state(c, 3, np.full(3, 1 / 3))
        for d in range(c.num_docs):
            mean, var = doc_moments(state, c, d)
            np.testing.assert_allclose(state.phi_bar[d], mean, rtol=1e-12)
            np.testing.assert_allclose(state.var_bar[d], var, rtol=1e-12)


class TestUpdatePhi:
    def test_single_topic(self):
        c = Corpus(["a"], [[(0, 1)]])
        state = init_state(c, 1, np.array([1.0]))
        params = make_params([[1.0]], [1.0])
        np.testing.assert_allclose(new_phi_row(0, 0, state, params), [1.0])

    def test_no_links_equals_lda_update(self):
        c = Corpus(["a", "b", "c"], [[(0, 1), (2, 2)]])
        state = init_state(c, 2, np.array([0.4, 0.6]))
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
        state = init_state(c, 2, alpha)
        state_nl = init_state(no_links, 2, alpha)
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
        state = init_state(c, 2, alpha)

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
        state = init_state(c, 2, np.array([0.5, 0.5]))
        beta = np.array([[1.0, 0.0], [1.0, 0.0]])
        params = make_params(beta, [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^beta of topic 0 is zero for term 1 of the "
                                             r"corpus \(unsmoothed model\)$"):
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
        whole = init_state(corpus, 3, params.alpha)
        reference = init_state(corpus, 3, params.alpha)
        inference._sweep(params, whole, e_step_blocks(corpus, params), 1e-6)
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
        state = init_state(corpus, 3, params.alpha)
        _, trace = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=100)

        reference = init_state(corpus, 3, params.alpha)
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
        state = init_state(corpus, 3, params.alpha)
        run_e_step(corpus, params, state, tol=1e-10, max_sweeps=100)
        d = int(np.argmax([ns.size for ns in corpus.neighbors]))
        rows = corpus.rows(d)
        start = state.phi[rows].copy(), state.gamma[d].copy(), state.phi_bar[d].copy()
        worst = np.eye(3)[np.argmin(state.phi_bar[d])]
        monkeypatch.setattr(inference, "_phi_update",
                            lambda *args: np.tile(worst, (rows.stop - rows.start, 1)))
        state.var_bar[d] = np.nan
        inference._visit_guarded(params, state, one_doc_block(state, params, d), 1e-6)
        for got, expected in zip((state.phi[rows], state.gamma[d], state.phi_bar[d]), start):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(state.var_bar[d], doc_moments(state, corpus, d)[1])


class TestUpdateGamma:
    """A visit's gamma_d = alpha + the token-weighted sum of d's phi rows."""

    @staticmethod
    def visited_gamma(doc):
        # each term is nearly all in one topic (beta 1e-300 in the other),
        # so every phi row of the visit is one-hot up to 1e-300: term 0's
        # row is [1, 0] and term 1's [0, 1]; the weights loop of unguarded
        # levels and the log-space reference agree
        c = Corpus(["a", "b"], [doc])
        params = make_params([[1.0, 1e-300], [1e-300, 1.0]], [0.5, 0.5])
        state = init_state(c, 2, params.alpha)
        reference = init_state(c, 2, params.alpha)
        inference._visit_unguarded(params, state, one_doc_block(state, params, 0), 1e-6)
        reference_visit(c, params, reference, 0, 1e-6)
        np.testing.assert_allclose(state.phi, np.eye(2), rtol=0, atol=1e-299)
        np.testing.assert_allclose(state.phi, reference.phi, rtol=0, atol=1e-299)
        np.testing.assert_allclose(state.gamma[0], reference.gamma[0], rtol=1e-15)
        return state.gamma[0]

    def test_two_token_example(self):
        np.testing.assert_allclose(self.visited_gamma([(0, 1), (1, 1)]), [1.5, 1.5])

    def test_count_weighting(self):
        # a second token of term 0 adds term 0's phi row once more
        single = self.visited_gamma([(0, 1), (1, 1)])
        double = self.visited_gamma([(0, 2), (1, 1)])
        np.testing.assert_allclose(double - single, [1.0, 0.0])


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
        state = init_state(corpus, 2, params.alpha)
        bd = elbo(corpus, params, state)
        parts = (bd.link_term + bd.z_given_theta_term + bd.word_term
                 + bd.theta_prior_term + bd.entropy_term)
        assert abs(bd.total - parts) <= 1e-10 * max(1.0, abs(bd.total))

    def test_no_links_equals_lda_bound(self):
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(2, 3)]])
        alpha = np.array([0.6, 0.4])
        beta = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
        params = make_params(beta, alpha)
        state = init_state(c, 2, alpha)
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
        state = init_state(corpus, 2, alpha)
        state.gamma = np.array([[1.4, 0.9], [1.1, 1.6]])
        state.set_phi(0, 0, np.array([0.6, 0.4]))
        state.set_phi(1, 0, np.array([0.25, 0.75]))

        analytic = elbo(corpus, params, state).total
        oracle = oracle_tiny_elbo(alpha, beta, link, state.gamma,
                                  [state.phi[corpus.rows(0)][0], state.phi[corpus.rows(1)][0]],
                                  words=[0, 1], links=[(0, 1)])
        assert abs(analytic - oracle) < 1e-6

    def test_zero_phi_where_beta_is_zero_adds_nothing(self):
        # term 1 has beta 0 in topic 0, and its phi rows put no mass there:
        # that entry adds 0 * log 0 = 0 to the word term, with no "invalid
        # value" warning (the suite turns warnings into errors)
        c, params = unsmoothed_example()
        phi = init_state(c, 2, params.alpha).phi
        phi[c.terms == 1] = [0.0, 1.0]
        state = inference.VariationalState(c, np.full((2, 2), 2.0), phi)
        bd = elbo(c, params, state)
        expected = sum(count * phi[row] @ np.log(params.beta[:, term])
                       for row, (term, count) in enumerate(zip(c.terms, c.counts))
                       if term != 1) + 3 * np.log(0.5)
        np.testing.assert_allclose(bd.word_term, expected, rtol=1e-12)
        assert np.isfinite(bd.total)

    def test_entropy_nonnegative_at_uniform(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 1)]])
        params = make_params([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0])
        state = init_state(c, 2, np.array([1.0, 1.0]))
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
            state = init_state(corpus, 3, params.alpha)
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
        state = init_state(corpus, 2, params.alpha)
        _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=30)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_gaussian_trace_nondecreasing(self):
        corpus, _ = generate_synthetic(2, 8, 15, 10, np.array([0.5, 0.5]),
                                       np.zeros(2), 0.5, "gaussian", seed=2)
        link = LinkParams(eta=np.array([1.5, 2.0]), nu=0.1, kind="gaussian")
        beta = np.full((2, 8), 1 / 8)
        params = make_params(beta, [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha)
        _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=30)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_already_converged_returns_after_one_sweep(self):
        corpus = two_doc_corpus()
        link = LinkParams(eta=np.array([-0.2, -0.2]), nu=-0.2, kind="exponential")
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha)
        state, _ = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=100)
        state, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=100)
        assert len(trace) == 2  # initial value plus a single sweep

    def test_single_topic_degenerate(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 2)], [(1, 1)]], links=[(0, 1)])
        link = LinkParams(eta=np.array([-0.5]), nu=-0.1, kind="exponential")
        params = make_params([[0.5, 0.5]], [1.0], link)
        state = init_state(c, 1, np.array([1.0]))
        state, trace = run_e_step(c, params, state, tol=1e-8)
        assert len(trace) == 2
        np.testing.assert_allclose(state.phi[c.rows(0)], 1.0)
        np.testing.assert_allclose(state.gamma[0], [1.0 + 3.0])

    @pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
    def test_term_zero_in_one_topic_rejected_before_any_bound(self, kind, monkeypatch):
        # init_state puts mass on every topic, so term 1, whose beta is zero
        # in topic 0, would start the bound at -inf; term 2 is zero in topic 1
        # but no document uses it
        link = None if kind is None else LinkParams(eta=np.array([-0.5, 2.0]), nu=-1.0,
                                                    kind=kind)
        corpus, params = unsmoothed_example(link)
        model = FittedModel(params=params, kind=kind or "lda", config={})
        monkeypatch.setattr(inference, "elbo", lambda *args: pytest.fail("bound computed"))
        message = r"^beta of topic 0 is zero for term 1 of the corpus \(unsmoothed model\)$"
        with pytest.raises(ValueError, match=message):
            run_e_step(corpus, params, init_state(corpus, 2, params.alpha))
        with pytest.raises(ValueError, match=message):
            train_posteriors(model, corpus)

    def test_non_finite_bound_raises(self):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 2, params.alpha)
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
        state = init_state(corpus, 2, params.alpha)
        linkfn.pair_evals.count = 0
        _, trace = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=5)
        # one pair evaluation per observed link per bound evaluation:
        # the initial value plus exactly one per sweep
        assert linkfn.pair_evals.count == len(trace) * corpus.num_links

    def test_sweep_cap_is_logged_once(self, caplog):
        corpus, _ = generate_synthetic(2, 8, 20, 12, np.array([0.5, 0.5]),
                                       np.array([-0.6, -0.6]), -0.8, "exponential", seed=11)
        link = LinkParams(eta=np.array([-0.6, -0.6]), nu=-0.8, kind="exponential")
        # topics that tell the terms apart: under uniform beta the uniform
        # start is already the fixed point, and one sweep would stop there
        beta = np.arange(1.0, 9.0)
        params = make_params(np.stack([beta, beta[::-1]]) / beta.sum(), [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha)
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
        state = init_state(corpus, 2, params.alpha)
        with caplog.at_level(logging.WARNING, logger="rtm.inference"):
            _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=100)
        assert len(trace) < 101
        assert not [r for r in caplog.records if r.name == "rtm.inference"]

    def test_invalid_tol_rejected(self):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 2, params.alpha)
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
    state = init_state(corpus, num_topics, alpha)
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
                doc_moments(state, corpus, d)[1], state.var_bar[neighbors]).sum())
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


@pytest.mark.parametrize("kind", ["sigmoid", "exponential"])
def test_first_iteration_leaver_and_capped_document_share_a_block(kind, monkeypatch):
    # level 0 holds documents 0 and 1, each linked to document 2.  Documents
    # 0 and 2 start at their fixed point, one term almost only in topic 0,
    # so their gamma does not change and they leave on the first iteration.
    # Document 1's two terms favour opposite topics by the same ratio, so
    # its gamma moves slowly and it runs to the cap.  Guarded (sigmoid) or
    # not (exponential), the sweep must give what the per-document sweep
    # gives, with every document written once, when its block's visit ends
    corpus = Corpus(["a", "b", "c", "d"], [[(0, 3)], [(1, 30), (2, 20)], [(0, 2)]],
                    [(0, 2), (1, 2)])
    eta = 2.0 if kind == "sigmoid" else -1.0
    params = make_params([[0.4, 0.3, 0.2, 0.1], [1e-300, 0.2, 0.3, 0.5]], [0.5, 0.5],
                         LinkParams(eta=np.full(2, eta), nu=-1.0, kind=kind))
    start = init_state(corpus, 2, params.alpha)
    for d in (0, 2):
        start.phi[corpus.rows(d)] = [1.0, 0.0]
        start.gamma[d] = params.alpha + corpus.lengths[d] * np.array([1.0, 0.0])
    state, reference = (inference.VariationalState(corpus, start.gamma.copy(), start.phi.copy())
                        for _ in range(2))
    blocks = e_step_blocks(corpus, params)
    assert [block.docs.tolist() for block in blocks] == [[0, 1], [2]]
    assert [block.guarded for block in blocks] == [kind == "sigmoid"] * 2

    # the last argument of either loop's per-iteration step has one row per
    # active document
    step = "_phi_update" if kind == "sigmoid" else "_topic_weights"
    original, active = getattr(inference, step), []

    def counted(*args):
        active.append(args[-1].shape[0])
        return original(*args)

    monkeypatch.setattr(inference, step, counted)
    inference._sweep(params, state, blocks, 1e-6)
    assert active == [2] + [1] * (inference._DOC_MAX_ITERS - 1) + [1]
    for d in (0, 2):
        np.testing.assert_array_equal(state.gamma[d], start.gamma[d])
    for d in range(corpus.num_docs):
        reference_visit(corpus, params, reference, d, 1e-6)
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        np.testing.assert_allclose(getattr(state, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    for d in range(corpus.num_docs):
        mean, var = doc_moments(state, corpus, d)
        np.testing.assert_array_equal(state.phi_bar[d], mean)
        np.testing.assert_array_equal(state.var_bar[d], var)


#: Hypothesis phases without shrinking: a failing example over
#: mixed_level_corpora is reported as drawn, as shrinking it can run for
#: minutes
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


@st.composite
def mixed_level_corpora(draw, num_terms=6):
    """Small linked corpora with an isolated document, so a coupled E-step has
    a block without pairs next to its levels."""
    num_docs = draw(st.integers(3, 10))
    entry = st.tuples(st.integers(0, num_terms - 1), st.integers(1, 3))
    docs = [draw(st.lists(entry, min_size=1, max_size=4)) for _ in range(num_docs)]
    isolated = draw(st.integers(1, num_docs - 1))
    others = [d for d in range(num_docs) if d != isolated]
    pairs = [(a, b) for i, a in enumerate(others) for b in others[i + 1:]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) + [(0, others[1])]
    return Corpus([f"w{i}" for i in range(num_terms)], docs, links)


@pytest.mark.parametrize("kind", linkfn.KINDS)
@settings(derandomize=True, deadline=None, max_examples=15, phases=NO_SHRINK)
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
        wavefront = init_state(corpus, num_topics, alpha)
        reference = init_state(corpus, num_topics, alpha)
        levels = e_step_blocks(corpus, params)
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
        return e_step_blocks(corpus, make_params(beta, [0.5, 0.5], link))

    # the link gradient is proportional to eta: at eta = 0 no document
    # reads another, so there are no pairs and no safeguard
    (whole,) = blocks([0.0, 0.0])
    np.testing.assert_array_equal(whole.docs, np.arange(5))
    assert whole.neighbors.size == 0 and not whole.num_pairs.any()
    assert not whole.guarded

    # one nonzero component couples the documents again: the isolated
    # document comes first, alone and unguarded, then the chain level by
    # level, each document with pairs
    eta = -0.5 if kind == "exponential" else 2.0
    isolated, *levels = blocks([0.0, eta])
    assert isolated.docs.tolist() == [4] and not isolated.num_pairs.any()
    assert not isolated.guarded
    assert [block.docs.tolist() for block in levels] == [[0], [1], [2], [3]]
    assert all(block.num_pairs.all() for block in levels)
    assert [block.guarded for block in levels] == [kind != "exponential"] * 4


@pytest.mark.parametrize("kind", [kind for kind in linkfn.KINDS if kind != "exponential"])
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_level_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_isolated_documents_are_visited_unguarded(kind, data, corpus, num_topics, seed):
    # an isolated document reads no mean and no one reads its: even where
    # the linked documents are damped, it is visited on topic weights in
    # the first block, which holds the documents without pairs only
    alpha = np.full(num_topics, 1.0 / num_topics)
    beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms), size=num_topics)
    link = data.draw(link_params(kind, num_topics))
    assume(link.eta.any())
    params = make_params(beta, alpha, link)
    linkless, *levels = e_step_blocks(corpus, params)
    np.testing.assert_array_equal(linkless.docs, corpus.isolated_docs())
    assert not linkless.guarded and not linkless.num_pairs.any()
    assert levels and all(block.guarded and block.num_pairs.all() for block in levels)
    state = init_state(corpus, num_topics, alpha)
    reference = init_state(corpus, num_topics, alpha)
    inference._visit_unguarded(params, state, linkless, 1e-6)
    for d in linkless.docs:
        reference_visit(corpus, params, reference, d, 1e-6)
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        np.testing.assert_allclose(getattr(state, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def assert_same_blocks(blocks, expected):
    assert len(blocks) == len(expected)
    for block, other in zip(blocks, expected):
        assert vars(block).keys() == vars(other).keys()
        for name, value in vars(other).items():
            np.testing.assert_array_equal(getattr(block, name), value, err_msg=name)


@pytest.mark.parametrize("kind", linkfn.KINDS)
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_level_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_e_steps_of_one_state_visit_fresh_blocks(kind, data, corpus, num_topics, seed):
    # a state keeps the E-step's block layout, without log beta; every
    # E-step on it must visit the blocks built afresh from its corpus and
    # parameters: at eta = 0 and then not, under another beta, and with
    # another corpus object of the same documents, here without one link
    alpha = np.full(num_topics, 1.0 / num_topics)
    betas = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms),
                                                  size=(2, num_topics))
    drawn = data.draw(link_params(kind, num_topics))
    assume(drawn.eta.any())
    zero = LinkParams(eta=np.zeros(num_topics), nu=drawn.nu, kind=kind)
    docs = [list(zip(*(part.tolist() for part in corpus.doc(d)))) for d in range(corpus.num_docs)]
    other = Corpus(corpus.vocab, docs, corpus.links[1:].tolist())
    state = init_state(corpus, num_topics, alpha)
    visited, sweep = [], inference._sweep
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_sweep",
                      lambda params, state, blocks, tol: visited.append(blocks)
                      or sweep(params, state, blocks, tol))
        for c, beta, link in ((corpus, betas[0], zero), (corpus, betas[0], drawn),
                              (corpus, betas[1], drawn), (corpus, betas[1], zero),
                              (other, betas[1], drawn), (corpus, betas[0], drawn)):
            params = make_params(beta, alpha, link)
            visited.clear()
            run_e_step(c, params, state, tol=1e-8, max_sweeps=2)
            assert visited
            for blocks in visited:
                assert_same_blocks(blocks, e_step_blocks(c, params))


def zero_eta_or_drawn(data, kind, num_topics):
    """An unguarded link: none, the exponential kind with eta down to -2000,
    or another kind at eta = 0."""
    if kind is None:
        return None
    link = data.draw(link_params(kind, num_topics))
    if kind == "exponential":
        # eta + nu stays <= 0, at up to 50 times link_params' 40
        scale = data.draw(st.sampled_from([1.0, 50.0]))
        return LinkParams(eta=scale * (link.eta + link.nu) - link.nu, nu=link.nu, kind=kind)
    return LinkParams(eta=np.zeros(num_topics), nu=link.nu, kind=kind)


@pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_level_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_e_step_writes_a_consistent_state(kind, data, corpus, num_topics, seed):
    # whichever loop visited a document, the weights loop of unguarded
    # blocks or the damped row loop, its gamma, caches and rows agree
    alpha = np.full(num_topics, 1.0 / num_topics)
    beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms), size=num_topics)
    links = [None]
    if kind is not None:
        drawn = data.draw(link_params(kind, num_topics))
        links = [drawn, LinkParams(eta=np.zeros(num_topics), nu=drawn.nu, kind=kind)]
    for link in links:
        params = make_params(beta, alpha, link)
        state = init_state(corpus, num_topics, alpha)
        run_e_step(corpus, params, state, tol=1e-8, max_sweeps=5)
        np.testing.assert_allclose(state.gamma, alpha + corpus.lengths[:, None] * state.phi_bar,
                                   rtol=1e-12)
        for d in range(corpus.num_docs):
            mean, var = doc_moments(state, corpus, d)
            np.testing.assert_array_equal(state.phi_bar[d], mean)
            np.testing.assert_array_equal(state.var_bar[d], var)
        assert np.all(state.phi >= 0)
        np.testing.assert_allclose(state.phi.sum(axis=1), 1.0, rtol=1e-12)


@st.composite
def extreme_topics(draw, num_topics, num_terms):
    """Positive topics whose log beta entries reach ModelParams' floor.

    ModelParams takes the log of a positive beta no smaller than 1e-300,
    so log beta is at least -690.8: a term's row of log beta spans up to
    ~691 nats, and its row factor exp(lb - max lb) reaches 1e-300.  Log
    weights of -700 or more keep every beta entry a positive normal
    float after normalization (the E-step rejects a zero one).
    """
    weight = st.floats(-700.0, -650.0) | st.floats(-50.0, 0.0)
    log_w = np.array([draw(st.lists(weight, min_size=num_terms, max_size=num_terms))
                      for _ in range(num_topics)])
    log_w[np.arange(num_terms) % num_topics, np.arange(num_terms)] = 0.0
    return np.exp(log_w - logsumexp(log_w, axis=1, keepdims=True))


@pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
@settings(derandomize=True, deadline=None, max_examples=15, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_level_corpora(), num_topics=st.integers(2, 3),
       alpha_total=st.sampled_from([1e-8, 1e-4]) | st.floats(1e-8, 10.0))
def test_weights_loop_matches_log_space_reference(kind, data, corpus, num_topics,
                                                  alpha_total):
    # unguarded blocks iterate on topic weights with factored phi rows and
    # no underflow fallback; they must give what the per-document
    # log-space visit gives, with beta at its 1e-300 floor, a tiny alpha
    # and exponential links far below zero.  At eta = 0 the E-step's level
    # has no pairs, so the reference runs without a link, undamped
    beta = data.draw(extreme_topics(num_topics, corpus.num_terms))
    alpha = np.full(num_topics, alpha_total / num_topics)
    link = zero_eta_or_drawn(data, kind, num_topics)
    params = make_params(beta, alpha, link)
    levels = e_step_blocks(corpus, params)
    assert not any(block.guarded for block in levels)
    reference_params = params if kind == "exponential" else make_params(beta, alpha)
    weights = init_state(corpus, num_topics, alpha)
    reference = init_state(corpus, num_topics, alpha)
    for _ in range(2):
        inference._sweep(params, weights, levels, 1e-6)
        for d in range(corpus.num_docs):
            reference_visit(corpus, reference_params, reference, d, 1e-6)
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        assert np.all(np.isfinite(getattr(weights, name)))
        np.testing.assert_allclose(getattr(weights, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_weights_loop_at_the_beta_floor_stays_finite():
    # term 0 has beta 1e-300 in topic 1, and the link shifts document 0's
    # topic-0 weight by about -1000 nats, to 0: the normaliser F @ w of its
    # term 0 is then 1e-300, the smallest it can be, and still normal
    corpus = Corpus(["a", "b", "c"], [[(0, 1)], [(0, 1), (2, 1)]], [(0, 1)])
    beta = np.array([[0.5, 0.5, 1e-300], [1e-300, 0.5, 0.5]])
    link = LinkParams(eta=np.array([-2000.0, 0.0]), nu=-1.0, kind="exponential")
    params = make_params(beta, [0.5, 0.5], link)
    state = init_state(corpus, 2, params.alpha)
    reference = init_state(corpus, 2, params.alpha)
    for _ in range(2):
        inference._sweep(params, state, e_step_blocks(corpus, params), 1e-6)
        for d in range(corpus.num_docs):
            reference_visit(corpus, params, reference, d, 1e-6)
    assert state.phi_bar[0, 1] == 1.0
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        assert np.all(np.isfinite(getattr(state, name)))
        np.testing.assert_allclose(getattr(state, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)


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
    state = init_state(corpus, 2, alpha)
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
