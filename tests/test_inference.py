"""Tests for variational state, coordinate updates, and the bound."""

import logging
import re
from pathlib import Path
from types import SimpleNamespace

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
from rtm.corpus import Corpus, generate_synthetic, load_corpus
from rtm.estimation import FittedModel
from rtm.inference import ElboBreakdown, ModelParams, elbo, init_state, run_e_step
from rtm.linkfn import LinkParams
from rtm.prediction import infer_heldout


def make_params(beta, alpha, link=None):
    return ModelParams(beta=np.asarray(beta, dtype=float),
                       alpha=np.asarray(alpha, dtype=float), link=link)


def e_step_blocks(corpus, params):
    """The E-step's blocks in visit order, built as `run_e_step` builds them:
    the unguarded runs, then the guarded block if there is one."""
    runs, guarded = inference._blocks(corpus, params)
    return runs if guarded is None else [*runs, guarded]


def assert_padded(block, corpus, params):
    """An unguarded block's padded arrays hold each document's rows in its
    first num_rows slots, in row order: the term, its count, and the
    term's row factor exp(lb - rowmax) and rowmax, which are the model's
    rows of the term bit for bit.  Its pad slots hold count 0, whatever
    their term, and it keeps no flat log beta.  The block's rows are its
    documents' rows in document order."""
    assert not hasattr(block, "lb")
    assert block.factor.shape == (*block.slot_counts.shape, params.num_topics)
    assert block.rowmax.shape == block.slot_terms.shape == block.slot_counts.shape
    np.testing.assert_array_equal(block.rows, np.concatenate(
        [np.arange(corpus.indptr[d], corpus.indptr[d + 1]) for d in block.docs]))
    for p, d in enumerate(block.docs):
        rows = corpus.rows(d)
        terms = corpus.terms[rows]
        lb = params.log_beta[:, terms].T
        rowmax = lb.max(axis=1)
        r = block.num_rows[p]
        assert r == lb.shape[0]
        np.testing.assert_array_equal(block.slot_terms[p, :r], terms)
        np.testing.assert_array_equal(block.factor[p, :r], np.exp(lb - rowmax[:, None]))
        np.testing.assert_array_equal(block.rowmax[p, :r], rowmax)
        assert block.factor[p, :r].tobytes() == params.row_factor[terms].tobytes()
        assert block.rowmax[p, :r].tobytes() == params.row_max[terms].tobytes()
        np.testing.assert_array_equal(block.slot_counts[p, :r], corpus.counts[rows])
        assert not block.slot_counts[p, r:].any()


def one_doc_block(state, params, d):
    """Document d alone, taken from the E-step block that holds it.  Taken
    from an unguarded block, it keeps that block's padding; the padded
    arrays are checked before and after the take."""
    (block,) = [block for block in e_step_blocks(state.corpus, params)
                if d in block.docs]
    alone = block.take(block.docs == d)
    if not hasattr(block, "lb"):
        for padded in (block, alone):
            assert_padded(padded, state.corpus, params)
    return alone


def new_phi_row(d, term, state, params):
    """Row of term in the E-step's whole-document phi update of document d.

    The document must be unguarded (no link component, or the
    exponential kind): its update is the factored one on topic weights,
    and the term's row sits in the slot of its position in d.  A visit
    capped at one iteration writes the rows formed from the state's
    gamma; it visits a copy, so state is left as it is.
    """
    terms, counts = state.corpus.doc(d)
    (slot,) = np.flatnonzero(terms == term)
    block = one_doc_block(state, params, d)
    assert not hasattr(block, "lb")
    assert block.slot_counts[0, slot] == counts[slot]
    visited = inference.VariationalState(state.corpus, state.gamma.copy(), state.phi.copy())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_DOC_MAX_ITERS", 1)
        inference._visit_unguarded(params, visited, [block], 1e-6)
    return visited.phi[block.rows[slot]]


def sequential_visit(corpus, params, state, d, tol, start=None):
    """Reference per-term visit: rows in term-id order, each from the live mean.

    This is the document iteration the whole-document update replaced:
    one term's row at a time, the document mean updated by the row's
    increment before the next term reads it, then gamma.  The neighbors'
    means are read from start's phi_bar, or from state's if start is None.
    """
    log_beta = params.log_beta
    link = params.link
    neighbors = corpus.neighbors[d]
    terms, counts = corpus.doc(d)
    phi_d = state.phi[corpus.rows(d)]
    n_d = float(corpus.lengths[d])
    start = state if start is None else start
    for _ in range(inference._DOC_MAX_ITERS):
        elog = psi(state.gamma[d]) - psi(state.gamma[d].sum())
        for t, term in enumerate(terms):
            exponent = elog + log_beta[:, term]
            if link is not None and neighbors.size:
                nb_means = start.phi_bar[neighbors]
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
        # a zero beta is served as the floor 1e-300
        np.testing.assert_array_equal(params.log_beta[0],
                                      [np.log(0.5), np.log(0.5), np.log(1e-300)])
        np.testing.assert_array_equal(params.log_beta[1], np.log([0.2, 0.3, 0.5]))
        for array in (params.beta, params.log_beta):
            with pytest.raises(ValueError):
                array[0, 0] = 0.1

    @pytest.mark.parametrize("beta, alpha, link, message", [
        ([0.5, 0.5], [1.0], None, "beta must be a K x V matrix"),
        ([[0.5, 0.5]], [0.5, 0.5], None, "alpha must have one entry per topic"),
        ([[0.5, 0.5]], [1.0], LinkParams(np.zeros(2), -1.0, "exponential"),
         "link coefficient length must equal the topic count"),
        # a negative entry would otherwise be served as the floor 1e-300
        ([[1.5, -0.5]], [1.0], None, "beta entries must be nonnegative")])
    def test_rejection_messages(self, beta, alpha, link, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_params(beta, alpha, link)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data(), num_topics=st.integers(1, 4), num_terms=st.integers(1, 8))
    def test_row_factor_is_each_terms_factor_read_only(self, data, num_topics, num_terms):
        # one contiguous row per term, exp(lb - max lb) of that term's log
        # beta bit for bit, down to the floor, with max lb in row_max
        beta = data.draw(extreme_topics(num_topics, num_terms))
        params = make_params(beta, np.ones(num_topics))
        factor = params.row_factor
        assert factor.shape == (num_terms, num_topics) and factor.flags.c_contiguous
        assert params.row_max.shape == (num_terms,)
        for term in range(num_terms):
            evidence = params.log_beta[:, term]
            assert params.row_max[term].tobytes() == evidence.max().tobytes()
            assert factor[term].tobytes() == np.exp(evidence - evidence.max()).tobytes()
        with pytest.raises(ValueError):
            factor[0, 0] = 0.5

    def test_row_max_and_row_factor_are_built_read_only_at_construction(self):
        # every array derived from beta is built with the instance, once:
        # E-steps and queries only gather from them, and leave them as built
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5],
                             LinkParams(np.full(2, -1.0), -1.0, "exponential"))
        built = {name: vars(params)[name] for name in ("log_beta", "row_max", "row_factor")}
        for array in built.values():
            assert not array.flags.writeable
        run_e_step(corpus, params, init_state(corpus, 2, params.alpha))
        infer_heldout(FittedModel(params=params, kind="exponential", config={}), words=[(0, 1)])
        for name, array in built.items():
            assert getattr(params, name) is array

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

    @pytest.mark.parametrize("alpha", [[0.5, 0.5], [0.5] * 4, 0.5])
    def test_alpha_needs_one_entry_per_topic(self, alpha):
        # two entries gave gamma (D, 2) next to phi (nnz, 3)
        c = Corpus(["a", "b"], [[(0, 2), (1, 2)]])
        with pytest.raises(ValueError, match=r"^alpha must have 3 entries, one per topic$"):
            init_state(c, 3, alpha)


class TestSetPhi:
    @pytest.mark.parametrize("d, term_index, message", [
        # wrote document 0's last row and left its phi_bar stale
        (1, -1, "term index -1 out of range [0, 1)"),
        # wrote document 1's row
        (0, 2, "term index 2 out of range [0, 2)"),
        (2, 0, "document 2 out of range [0, 2)"),
        (-1, 0, "document -1 out of range [0, 2)"),
        (0, 1.0, "term index 1.0 is not an integer")])
    def test_index_outside_the_document_is_rejected(self, d, term_index, message):
        c = Corpus(["a", "b", "c"], [[(0, 1), (1, 1)], [(2, 1)]])
        state = init_state(c, 2, np.full(2, 0.5))
        before = [array.copy() for array in (state.phi, state.phi_bar, state.var_bar)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state.set_phi(d, term_index, np.array([0.9, 0.1]))
        for array, old in zip((state.phi, state.phi_bar, state.var_bar), before):
            np.testing.assert_array_equal(array, old)


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


class TestWholeDocumentVisit:
    def test_exponential_visit_matches_sequential_reference(self):
        # the exponential link gradient does not read the document's own
        # phi, so updating every row at once is the per-term iteration;
        # every document reads its neighbors' means from the sweep's start
        corpus, _ = generate_synthetic(3, 30, 25, 30, np.full(3, 0.3),
                                       np.full(3, -2.0), -1.0, "exponential", seed=17)
        assert corpus.num_links > 0
        beta = np.random.default_rng(4).dirichlet(np.ones(30), size=3)
        link = LinkParams(eta=np.array([-1.5, -2.5, -3.0]), nu=-0.5, kind="exponential")
        params = make_params(beta, np.full(3, 0.3), link)
        whole = init_state(corpus, 3, params.alpha)
        reference = init_state(corpus, 3, params.alpha)
        inference._sweep(params, whole, *inference._blocks(corpus, params), 1e-6)
        start = sweep_start(reference)
        for d in range(corpus.num_docs):
            sequential_visit(corpus, params, reference, d, 1e-6, start)
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
        # blocks and the log-space reference agree
        c = Corpus(["a", "b"], [doc])
        params = make_params([[1.0, 1e-300], [1e-300, 1.0]], [0.5, 0.5])
        state = init_state(c, 2, params.alpha)
        reference = init_state(c, 2, params.alpha)
        block = one_doc_block(state, params, 0)
        # the document's two slots: its row factors are one-hot up to 1e-300
        np.testing.assert_allclose(block.factor[0], [[1.0, 1e-300], [1e-300, 1.0]],
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(block.slot_counts[0], [count for _, count in doc])
        inference._visit_unguarded(params, state, [block], 1e-6)
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


def assert_consistent_caches(state, corpus, params):
    """Each document's phi_bar and var_bar agree with its rows and gamma, as
    `run_e_step` leaves them (var_bar refreshed for every document).

    A guarded visit writes phi_bar as the mean of its rows, so it matches
    `doc_moments` exactly.  An unguarded visit writes phi_bar = (gamma -
    alpha) / n exactly; that is the rows' mean up to rounding, as the rows
    and gamma come from the same topic weights w.  Per topic, n phi_bar
    is w times a sum over the R rows of c / (F @ w) F, and n times the
    rows' mean a sum of c F w / (F @ w) with F @ w summed in another
    order: each carries at most 2K + R + 4 roundings of relative size u,
    and gamma's own rounding and the subtraction of alpha add u gamma
    each.  So they differ by at most (2K + R + 6) u gamma / n.  A sweep
    stepped back (see `inference._step_back`) writes every document's
    phi_bar as the mean of its rows instead, and gamma = alpha + n phi_bar.
    """
    _, block = inference._blocks(corpus, params)
    guarded = set() if block is None else set(block.docs.tolist())
    u = np.finfo(np.float64).eps / 2
    for d in range(corpus.num_docs):
        mean, var = doc_moments(state, corpus, d)
        np.testing.assert_array_equal(state.var_bar[d], var)
        if d in guarded:
            np.testing.assert_array_equal(state.phi_bar[d], mean)
            continue
        n = corpus.lengths[d]
        from_gamma = (state.gamma[d] - params.alpha) / n
        assert np.array_equal(state.phi_bar[d], from_gamma) or np.array_equal(
            state.phi_bar[d], mean), (d, state.phi_bar[d], from_gamma, mean)
        num_rows = corpus.rows(d).stop - corpus.rows(d).start
        bound = (2 * state.num_topics + num_rows + 6) * u * state.gamma[d] / n
        for other in (mean, from_gamma):
            assert np.all(np.abs(other - state.phi_bar[d]) <= bound), (d, other - state.phi_bar[d])


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

    def test_zero_phi_where_beta_is_floored_adds_nothing(self):
        # term 1 has beta 0 in topic 0, served as the floor 1e-300, and its
        # phi rows put no mass there: that entry adds 0 * log 1e-300 = 0 to
        # the word term, with no warning (the suite turns warnings into
        # errors).  Term 2 has beta 0 in topic 1, and no document uses it
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(0, 1), (1, 2)]], [(0, 1)])
        params = make_params([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]], [0.5, 0.5])
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

    @pytest.mark.parametrize("kind", linkfn.KINDS)
    def test_uncoupled_link_term_is_computed_once(self, kind, monkeypatch):
        # at eta = 0 every link's predictor is exactly nu (-nu for gaussian),
        # whatever the state, so run_e_step computes the link term once; its
        # trace must be byte for byte the one with each sweep's own link term
        corpus, _ = generate_synthetic(2, 8, 20, 12, np.array([0.5, 0.5]),
                                       np.array([-0.6, -0.6]), -0.8, "exponential", seed=11)
        assert corpus.num_links > 0
        link = LinkParams(eta=np.zeros(2), nu=-0.8 if kind == "exponential" else 0.8, kind=kind)
        beta = np.arange(1.0, 9.0)
        params = make_params(np.stack([beta, beta[::-1]]) / beta.sum(), [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha)
        link_term, sweep = inference._link_term, inference._sweep
        calls, expected = [], []

        def counted_link_term(*args):
            calls.append(args)
            return link_term(*args)

        def sweep_and_its_link_term(params, state, runs, guarded, tol):
            own = sweep(params, state, runs, guarded, tol)
            expected.append(own + link_term(corpus, params, state))
            return own

        monkeypatch.setattr(inference, "_link_term", counted_link_term)
        monkeypatch.setattr(inference, "_sweep", sweep_and_its_link_term)
        _, trace = run_e_step(corpus, params, state, tol=1e-10, max_sweeps=30)
        assert len(trace) > 3
        assert [value.hex() for value in trace[1:]] == [value.hex() for value in expected]
        # elbo's at the start, and the one for every sweep
        assert len(calls) == 2

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

    def test_stepped_back_sweeps_are_logged_once(self, caplog, monkeypatch):
        # the Jacobi sweeps of the strongly linked probit draw lower the bound
        corpus, params = strongly_linked_probit_draw()
        calls, step_back = [], inference._step_back
        monkeypatch.setattr(inference, "_step_back",
                            lambda *args: calls.append(args) or step_back(*args))
        with caplog.at_level(logging.WARNING, logger="rtm.inference"):
            _, trace = run_e_step(corpus, params, init_state(corpus, 2, params.alpha),
                                  tol=1e-8, max_sweeps=100)
        assert len(trace) < 101 and calls
        assert np.all(np.diff(trace) >= -1e-12 * (1.0 + np.abs(trace[:-1])))
        records = [r for r in caplog.records if r.name == "rtm.inference"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].getMessage() == (
            f"the bound fell in {len(calls)} of {len(trace) - 1} E-step sweeps (stepped back "
            f"toward their start state: {len(calls)}, kept at it: 0)")

    def test_sweep_that_no_step_mends_keeps_its_start(self, caplog, monkeypatch):
        # a sweep that puts every row on its least likely topic lowers the
        # bound, and so does each geometric mix of it with the start, one-hot
        # too: the E-step keeps the sweep's start state, bit for bit, logs
        # it, and stops
        corpus = two_doc_corpus()
        link = LinkParams(eta=np.array([-0.2, -0.2]), nu=-0.2, kind="exponential")
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5], link)
        state, _ = run_e_step(corpus, params, init_state(corpus, 2, params.alpha), tol=1e-10)
        start = {name: getattr(state, name).copy() for name in ("phi", "gamma", "phi_bar",
                                                                "var_bar")}

        def worst_sweep(params, state, runs, guarded, tol):
            state.phi[...] = np.eye(2)[np.argmin(state.phi, axis=1)]
            bound = elbo(corpus, params, state)
            return bound.total - bound.link_term

        monkeypatch.setattr(inference, "_sweep", worst_sweep)
        with caplog.at_level(logging.WARNING, logger="rtm.inference"):
            _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=100)
        assert len(trace) == 2 and trace[1] == trace[0]
        for name, value in start.items():
            np.testing.assert_array_equal(getattr(state, name), value, err_msg=name)
        assert [r.getMessage() for r in caplog.records if r.name == "rtm.inference"] == [
            "the bound fell in 1 of 1 E-step sweeps (stepped back toward their start state: 0, "
            "kept at it: 1)"]

    def test_converged_e_step_logs_nothing(self, caplog):
        corpus = two_doc_corpus()
        link = LinkParams(eta=np.array([-0.2, -0.2]), nu=-0.2, kind="exponential")
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5], link)
        state = init_state(corpus, 2, params.alpha)
        with caplog.at_level(logging.WARNING, logger="rtm.inference"):
            _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=100)
        assert len(trace) < 101
        assert not [r for r in caplog.records if r.name == "rtm.inference"]

    @pytest.mark.parametrize("step", [run_e_step, elbo])
    @pytest.mark.parametrize("docs", [
        # the same shapes: both ran silently
        [[(1, 1)], [(0, 1)]],
        # other shapes: numpy failed to broadcast
        [[(0, 1), (1, 2)], [(1, 1)]]])
    def test_state_of_other_documents_is_rejected(self, step, docs):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5],
                             LinkParams(np.full(2, -1.0), -1.0, "exponential"))
        state = init_state(Corpus(["a", "b"], docs, links=[(0, 1)]), 2, params.alpha)
        with pytest.raises(ValueError,
                           match="^the state was built for other documents than the corpus's$"):
            step(corpus, params, state)

    @pytest.mark.parametrize("step", [run_e_step, elbo])
    def test_state_of_another_topic_count_is_rejected(self, step):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 3, np.full(3, 0.5))
        with pytest.raises(ValueError, match="^the model has 2 topics and the state 3$"):
            step(corpus, params, state)

    def test_invalid_tol_rejected(self):
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 2, params.alpha)
        with pytest.raises(ValueError):
            run_e_step(corpus, params, state, tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # nan ran every sweep to max_sweeps and warned; inf stopped after one
        corpus = two_doc_corpus()
        params = make_params([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        state = init_state(corpus, 2, params.alpha)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'tol must be finite and > 0, got {tol}')}$"):
            run_e_step(corpus, params, state, tol=tol)


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


def strongly_linked_probit_draw():
    """test_e_step_trace_nondecreasing_for_every_kind's probit draw at
    K 2, doc_length 2 and seed 0 with eta (-33, -35) and nu 0: its Jacobi
    sweeps lower the bound, and exp underflow leaves exact zeros in its
    rows."""
    alpha = np.full(2, 0.5)
    corpus, _ = generate_synthetic(2, 8, 10, 2, alpha, np.full(2, -1.0), -0.5, "exponential",
                                   seed=0)
    beta = np.random.default_rng(0).dirichlet(np.ones(8), size=2)
    return corpus, make_params(beta, alpha, LinkParams(np.array([-33.0, -35.0]), 0.0, "probit"))


def test_mix_of_rows_with_disjoint_supports_is_defined():
    # where a row and its step have disjoint supports, as exact zeros from
    # exp underflow allow, the geometric mix is 0 in every topic and
    # normalizing it was 0/0, "invalid value encountered in divide"; such
    # a row takes the arithmetic mix, and other rows the geometric one
    start, end = np.array([[1.0, 0.0], [0.2, 0.8]]), np.array([[0.0, 1.0], [0.6, 0.4]])
    geometric = 0.2 ** 0.75 * 0.6 ** 0.25, 0.8 ** 0.75 * 0.4 ** 0.25
    np.testing.assert_allclose(inference._mix(start, end, 0.25),
                               [[0.75, 0.25], np.array(geometric) / sum(geometric)],
                               rtol=1e-15)
    corpus, params = strongly_linked_probit_draw()
    state = init_state(corpus, 2, params.alpha)
    _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=10)
    assert np.all(np.diff(trace) >= -1e-8 * np.maximum(1.0, np.abs(trace[:-1])))
    assert np.all(np.isfinite(state.phi)) and np.all(np.isfinite(state.gamma))


def reference_visit(corpus, params, state, d, tol, start=None):
    """Document d's visit in a per-document sweep.

    Each iteration computes the whole-document update from the live
    state, then gamma.  The neighbors' means and variances are read from
    start, a `sweep_start` copy, or from the live state if start is None
    (the index-order sweep).  A safeguarded document (a linked one, for
    every kind but exponential) damps the step geometrically, halving lam
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
    start = state if start is None else start

    def write(phi_d, gamma_d):
        state.phi[rows] = phi_d
        state.phi_bar[d] = np.add.reduceat(counts[:, None] * phi_d, [0])[0] / n_d
        state.gamma[d] = gamma_d

    def phi_update():
        exponent = psi(state.gamma[d]) - psi(state.gamma[d].sum()) + lb
        if neighbors.size:
            nb_means = start.phi_bar[neighbors]
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
                link, state.phi_bar[d], start.phi_bar[neighbors],
                doc_moments(state, corpus, d)[1], start.var_bar[neighbors]).sum())
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


def sweep_start(state):
    """Copies of the state's phi_bar and var_bar, which every document of
    a Jacobi sweep reads its neighbors' from."""
    return SimpleNamespace(phi_bar=state.phi_bar.copy(), var_bar=state.var_bar.copy())


def reference_sweep(corpus, params, state, tol):
    """The E-step's Jacobi sweep by `reference_visit`: every document reads
    its neighbors' means and variances from the sweep's start."""
    start = sweep_start(state)
    for d in range(corpus.num_docs):
        reference_visit(corpus, params, state, d, tol, start)


def sweep_to_fixed_point(corpus, params, state, reference_params, reference,
                         max_sweeps=1000):
    """Sweep state by the E-step and reference by `reference_sweep`, in step,
    until two sweeps move no entry of the reference's gamma by more than 4
    ulps; fail if max_sweeps sweeps do not get there.  state's var_bar is
    then refreshed, as `run_e_step` does when it returns.

    Near a tie in a document's topics the iteration magnifies differences,
    so two loops that round differently drift apart for a few sweeps (by
    1.7e-12 after 2 sweeps of `test_weights_loop_at_a_near_tie`); at the
    fixed point it contracts, and they agree again.  Under strong links
    a Jacobi sweep without `run_e_step`'s check can settle on a cycle of
    two states instead, each linked pair swapping topics every sweep,
    hence two sweeps.  Rounding can keep gamma cycling by an ulp for
    good, hence the 4 ulps.
    """
    runs, guarded = inference._blocks(corpus, params)
    previous = [reference.gamma.copy()]
    for _ in range(max_sweeps):
        inference._sweep(params, state, runs, guarded, 1e-6)
        reference_sweep(corpus, reference_params, reference, 1e-6)
        if len(previous) == 2 and np.all(
                np.abs(reference.gamma - previous[0]) <= 4 * np.spacing(previous[0])):
            state.refresh_var_bar()
            return
        previous = [*previous, reference.gamma.copy()][-2:]
    pytest.fail(f"the reference's gamma still moves after {max_sweeps} sweeps")


def assert_same_state(state, reference):
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        assert np.all(np.isfinite(getattr(state, name)))
        np.testing.assert_allclose(getattr(state, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", ["sigmoid", "exponential", "probit", "gaussian"])
def test_first_iteration_leaver_and_capped_document_share_a_block(kind, monkeypatch):
    # documents 0 and 1 are each linked to document 2, so all three share
    # one block.  Documents 0 and 2 start at their fixed point, one term
    # almost only in topic 0, so their gamma does not change and they leave
    # on the first iteration.  Document 1's two terms favour opposite topics
    # by the same ratio, so its gamma moves slowly and it runs to the cap.
    # Guarded (sigmoid, probit and gaussian, each its own link gradient) or
    # not (exponential), the sweep must give what the per-document Jacobi
    # sweep gives: a guarded document is written when it leaves, an
    # unguarded one when the visit ends, and neither is read again there
    corpus = Corpus(["a", "b", "c", "d"], [[(0, 3)], [(1, 30), (2, 20)], [(0, 2)]],
                    [(0, 2), (1, 2)])
    eta = -1.0 if kind == "exponential" else 2.0
    nu = 1.0 if kind == "gaussian" else -1.0
    params = make_params([[0.4, 0.3, 0.2, 0.1], [1e-300, 0.2, 0.3, 0.5]], [0.5, 0.5],
                         LinkParams(eta=np.full(2, eta), nu=nu, kind=kind))
    start = init_state(corpus, 2, params.alpha)
    for d in (0, 2):
        start.phi[corpus.rows(d)] = [1.0, 0.0]
        start.gamma[d] = params.alpha + corpus.lengths[d] * np.array([1.0, 0.0])
    state, reference = (inference.VariationalState(corpus, start.gamma.copy(), start.phi.copy())
                        for _ in range(2))
    runs, guarded = inference._blocks(corpus, params)
    (block,) = runs if guarded is None else [*runs, guarded]
    assert block.docs.tolist() == [0, 1, 2]
    assert (block is guarded) == (kind != "exponential")

    # the last argument of either loop's per-iteration step has one row per
    # active document
    step = "_topic_weights" if kind == "exponential" else "_phi_update"
    original, active = getattr(inference, step), []

    def counted(*args):
        active.append(args[-1].shape[0])
        return original(*args)

    monkeypatch.setattr(inference, step, counted)
    inference._sweep(params, state, runs, guarded, 1e-6)
    assert active == [3] + [1] * (inference._DOC_MAX_ITERS - 1)
    for d in (0, 2):
        np.testing.assert_array_equal(state.gamma[d], start.gamma[d])
    reference_sweep(corpus, params, reference, 1e-6)
    state.refresh_var_bar()
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        np.testing.assert_allclose(getattr(state, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    # the leavers' rows move off their start [1, 0] by about 1e-301 in topic
    # 1, so only a relative comparison shows that they were written
    for d in (0, 2):
        rows = corpus.rows(d)
        assert np.all(state.phi[rows, 1] > 0)
        np.testing.assert_allclose(state.phi[rows], reference.phi[rows], rtol=1e-12, atol=0)
    assert_consistent_caches(state, corpus, params)


#: Hypothesis phases without shrinking: a failing example over
#: mixed_corpora is reported as drawn, as shrinking it can run for
#: minutes
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


@st.composite
def mixed_corpora(draw, num_terms=6):
    """Small linked corpora with an isolated document, so a coupled E-step has
    a block without pairs next to those with pairs."""
    num_docs = draw(st.integers(3, 10))
    entry = st.tuples(st.integers(0, num_terms - 1), st.integers(1, 3))
    docs = [draw(st.lists(entry, min_size=1, max_size=4)) for _ in range(num_docs)]
    isolated = draw(st.integers(1, num_docs - 1))
    others = [d for d in range(num_docs) if d != isolated]
    pairs = [(a, b) for i, a in enumerate(others) for b in others[i + 1:]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) + [(0, others[1])]
    return Corpus([f"w{i}" for i in range(num_terms)], docs, links)


def test_pair_sum_of_documents_with_and_without_pairs():
    # a run of the exponential kind holds documents with and without pairs,
    # here first, in the middle and last; each gets the sum of its own
    # pairs' values, and 0 if it has none
    corpus = Corpus(["a"], [[(0, 1)]] * 6, [(1, 2), (1, 4), (2, 4)])
    link = LinkParams(eta=np.full(2, -1.0), nu=-0.5, kind="exponential")
    (run,), guarded = inference._blocks(corpus, make_params(np.ones((2, 1)), [0.5, 0.5], link))
    assert guarded is None and run.num_pairs.tolist() == [0, 2, 2, 0, 2, 0]
    values = np.random.default_rng(3).normal(size=(run.neighbors.size, 3))
    for per_pair in (values, values[:, 0]):
        expected = [per_pair[run.pair_doc == p].sum(axis=0) for p in range(run.docs.size)]
        np.testing.assert_array_equal(run.pair_sum(per_pair), expected)


@pytest.mark.parametrize("kind", linkfn.KINDS)
def test_zero_eta_sweeps_every_document_in_one_level(kind):
    # a chain 0-1-2-3 and an isolated document 4
    corpus = Corpus(["a", "b"], [[(0, 1)], [(1, 2)], [(0, 1), (1, 1)], [(1, 1)], [(0, 3)]],
                    [(0, 1), (1, 2), (2, 3)])
    beta = np.array([[0.6, 0.4], [0.3, 0.7]])
    nu = -1.0 if kind == "exponential" else 0.5

    def blocks(eta):
        link = LinkParams(eta=np.array(eta), nu=nu, kind=kind)
        return inference._blocks(corpus, make_params(beta, [0.5, 0.5], link))

    # the link gradient is proportional to eta: at eta = 0 no document
    # reads another, so there are no pairs and no safeguard
    (whole,), guarded = blocks([0.0, 0.0])
    np.testing.assert_array_equal(whole.docs, np.arange(5))
    assert whole.neighbors.size == 0 and not whole.num_pairs.any()
    assert guarded is None

    # one nonzero component couples the documents again: guarded unless
    # exponential, the whole chain is one block, each document with pairs,
    # and the isolated document is alone and unguarded.  The exponential
    # kind keeps every document in one run, with or without pairs
    eta = -0.5 if kind == "exponential" else 2.0
    (run,), guarded = blocks([0.0, eta])
    if kind == "exponential":
        assert guarded is None and run.docs.tolist() == [0, 1, 2, 3, 4]
        assert run.num_pairs.tolist() == [1, 2, 2, 1, 0]
        return
    assert run.docs.tolist() == [4] and not run.num_pairs.any()
    assert guarded.docs.tolist() == [0, 1, 2, 3] and guarded.num_pairs.all()


@pytest.mark.parametrize("kind", linkfn.KINDS)
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_isolated_documents_are_visited_unguarded(kind, data, corpus, num_topics, seed):
    # an isolated document reads no mean and no one reads its: even where
    # the linked documents are damped, it is visited on topic weights in
    # the unguarded runs, which then hold the documents without pairs
    # only.  The exponential kind has no guarded block: its runs hold the
    # linked documents too, and an isolated document's offset is exactly 0
    alpha = np.full(num_topics, 1.0 / num_topics)
    beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms), size=num_topics)
    link = data.draw(link_params(kind, num_topics))
    assume(link.eta.any())
    params = make_params(beta, alpha, link)
    runs, guarded = inference._blocks(corpus, params)
    docs = np.concatenate([run.docs for run in runs])
    isolated = corpus.isolated_docs()
    if kind == "exponential":
        assert guarded is None
        np.testing.assert_array_equal(np.sort(docs), np.arange(corpus.num_docs))
    else:
        np.testing.assert_array_equal(np.sort(docs), isolated)
        assert not any(run.num_pairs.any() for run in runs)
        assert guarded.num_pairs.all()
    state = init_state(corpus, num_topics, alpha)
    reference = init_state(corpus, num_topics, alpha)
    offsets, weights = [], inference._topic_weights
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_topic_weights",
                      lambda gamma, offset: offsets.append(offset) or weights(gamma, offset))
        inference._visit_unguarded(params, state, runs, 1e-6)
    if kind == "exponential":
        assert not offsets[0][np.isin(docs, isolated)].any()
    else:
        assert offsets[0] is None
    for d in isolated:
        reference_visit(corpus, params, reference, d, 1e-6)
    state.refresh_var_bar()
    # the guarded kinds leave the linked documents as they were; the
    # exponential kind's visit moves them too, so only the isolated ones
    # are compared there
    compared_rows = compared_docs = slice(None)
    if kind == "exponential":
        compared_docs = isolated
        compared_rows = np.concatenate([np.arange(corpus.indptr[d], corpus.indptr[d + 1])
                                        for d in isolated])
    for name, index in (("phi", compared_rows), ("gamma", compared_docs),
                        ("phi_bar", compared_docs), ("var_bar", compared_docs)):
        np.testing.assert_allclose(getattr(state, name)[index], getattr(reference, name)[index],
                                   rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_each_sweep_makes_at_most_two_visits(kind, data, corpus, num_topics, seed):
    # one visit of every unguarded run, then, for a coupled guarded kind,
    # one of the guarded block
    alpha = np.full(num_topics, 1.0 / num_topics)
    beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms), size=num_topics)
    link = None if kind is None else data.draw(link_params(kind, num_topics))
    params = make_params(beta, alpha, link)
    visits = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_sweep", "_visit_unguarded", "_visit_guarded"):
            patch.setattr(inference, name, lambda *args, name=name, visit=getattr(
                inference, name): visits.append(name) or visit(*args))
        _, trace = run_e_step(corpus, params, init_state(corpus, num_topics, alpha),
                              tol=1e-8, max_sweeps=3)
    guarded = kind not in ("exponential", None) and bool(link.eta.any())
    assert visits == ["_sweep", "_visit_unguarded", *["_visit_guarded"] * guarded] * (
        len(trace) - 1)


def assert_same_blocks(blocks, expected):
    """Same arrays in the same blocks, each a pair of the unguarded runs and
    the guarded block or None: a guarded block's log beta rows, a run's
    padded arrays, and every other array."""
    (runs, guarded), (expected_runs, expected_guarded) = blocks, expected
    assert (guarded is None) == (expected_guarded is None) and len(runs) == len(expected_runs)
    pairs = [(run, other, {"factor", "rowmax", "slot_counts"})
             for run, other in zip(runs, expected_runs)]
    if guarded is not None:
        pairs.append((guarded, expected_guarded, {"lb"}))
    for block, other, rows in pairs:
        assert vars(block).keys() == vars(other).keys()
        assert rows <= vars(other).keys()
        for name, value in vars(other).items():
            np.testing.assert_array_equal(getattr(block, name), value, err_msg=name)


@pytest.mark.parametrize("kind", linkfn.KINDS)
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_e_steps_of_one_state_visit_fresh_blocks(kind, data, corpus, num_topics, seed):
    # a state holds no blocks, only its corpus and variational arrays;
    # every E-step on it must visit the blocks built afresh from its
    # corpus and parameters: at eta = 0 and then not, under another beta,
    # and with another corpus object of the same documents, here without
    # one link
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
                      lambda params, state, runs, guarded, tol: visited.append((runs, guarded))
                      or sweep(params, state, runs, guarded, tol))
        for c, beta, link in ((corpus, betas[0], zero), (corpus, betas[0], drawn),
                              (corpus, betas[1], drawn), (corpus, betas[1], zero),
                              (other, betas[1], drawn), (corpus, betas[0], drawn)):
            params = make_params(beta, alpha, link)
            visited.clear()
            run_e_step(c, params, state, tol=1e-8, max_sweeps=2)
            assert visited
            for blocks in visited:
                assert_same_blocks(blocks, inference._blocks(c, params))
            assert vars(state).keys() == {"corpus", "gamma", "phi", "phi_bar", "var_bar"}


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
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_e_step_writes_a_consistent_state(kind, data, corpus, num_topics, seed):
    # whichever loop visited a document, the weights loop of unguarded
    # blocks or the damped row loop, its gamma, caches and rows agree
    # (see assert_consistent_caches)
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
        assert_consistent_caches(state, corpus, params)
        assert np.all(state.phi >= 0)
        np.testing.assert_allclose(state.phi.sum(axis=1), 1.0, rtol=1e-12)


@st.composite
def extreme_topics(draw, num_topics, num_terms):
    """Positive topics whose log beta entries reach ModelParams' floor.

    ModelParams takes the log of a positive beta no smaller than 1e-300,
    so log beta is at least -690.8: a term's row of log beta spans up to
    ~691 nats, and its row factor exp(lb - max lb) reaches 1e-300.  Log
    weights of -700 or more keep every beta entry a positive normal
    float after normalization.
    """
    weight = st.floats(-700.0, -650.0) | st.floats(-50.0, 0.0)
    log_w = np.array([draw(st.lists(weight, min_size=num_terms, max_size=num_terms))
                      for _ in range(num_topics)])
    log_w[np.arange(num_terms) % num_topics, np.arange(num_terms)] = 0.0
    return np.exp(log_w - logsumexp(log_w, axis=1, keepdims=True))


@pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
@settings(derandomize=True, deadline=None, max_examples=15, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       alpha_total=st.sampled_from([1e-8, 1e-4]) | st.floats(1e-8, 10.0))
def test_weights_loop_matches_log_space_reference(kind, data, corpus, num_topics,
                                                  alpha_total):
    # unguarded blocks iterate on topic weights with factored phi rows and
    # no underflow fallback; they must give what the per-document
    # log-space visit gives, with beta at its 1e-300 floor, a tiny alpha
    # and exponential links far below zero.  At eta = 0 the E-step's blocks
    # have no pairs, so the reference runs without a link, undamped
    beta = data.draw(extreme_topics(num_topics, corpus.num_terms))
    alpha = np.full(num_topics, alpha_total / num_topics)
    link = zero_eta_or_drawn(data, kind, num_topics)
    params = make_params(beta, alpha, link)
    assert inference._blocks(corpus, params)[1] is None
    reference_params = params if kind == "exponential" else make_params(beta, alpha)
    weights = init_state(corpus, num_topics, alpha)
    reference = init_state(corpus, num_topics, alpha)
    sweep_to_fixed_point(corpus, params, weights, reference_params, reference)
    assert_same_state(weights, reference)


def test_weights_loop_at_a_near_tie():
    # term 0 is nearly as likely in either topic and alpha is tiny, so from
    # the uniform start each iteration moves gamma about 1.6 times further
    # from the tie: after 2 sweeps the two loops differ by 1.7e-12 in
    # gamma.  Both then settle on topic 0
    corpus = Corpus(["a", "b"], [[(0, 2)]])
    tie = 0.24999923954381417
    params = make_params([[0.25, 0.75], [tie, 1.0 - tie]], [5e-5, 5e-5])
    weights = init_state(corpus, 2, params.alpha)
    reference = init_state(corpus, 2, params.alpha)
    sweep_to_fixed_point(corpus, params, weights, params, reference)
    assert_same_state(weights, reference)
    np.testing.assert_allclose(reference.gamma, [[2.00005, 5e-5]], rtol=1e-12)


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
        inference._sweep(params, state, *inference._blocks(corpus, params), 1e-6)
        reference_sweep(corpus, params, reference, 1e-6)
    state.refresh_var_bar()
    assert state.phi_bar[0, 1] == 1.0
    for name in ("phi", "gamma", "phi_bar", "var_bar"):
        assert np.all(np.isfinite(getattr(state, name)))
        np.testing.assert_allclose(getattr(state, name), getattr(reference, name),
                                   rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
@settings(derandomize=True, deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       seed=st.integers(0, 2**16))
def test_beta_below_the_floor_is_served_as_the_floor(kind, data, corpus, num_topics, seed):
    # beta entries below 1e-300, zero and subnormal ones included, give the
    # bytes of the same model with those entries at 1e-300: the E-step's
    # state and trace, the bound, and words-only and links-only held-out
    # posteriors.  Each topic keeps one entry above the floor
    alpha = np.full(num_topics, 1.0 / num_topics)
    beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms), size=num_topics)
    terms = st.lists(st.booleans(), min_size=corpus.num_terms, max_size=corpus.num_terms)
    below = np.array([data.draw(terms) for _ in range(num_topics)])
    below[np.arange(num_topics), [data.draw(st.integers(0, corpus.num_terms - 1))
                                  for _ in range(num_topics)]] = False
    beta[below] = 0.0
    beta /= beta.sum(axis=1, keepdims=True)
    tiny = st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(0.0, 1e-300)
    drawn = np.array([data.draw(tiny) for _ in range(np.count_nonzero(below))])
    link = None if kind is None else data.draw(link_params(kind, num_topics))
    entry = st.tuples(st.integers(0, corpus.num_terms - 1), st.integers(1, 3))
    words = data.draw(st.lists(entry, min_size=1, max_size=4))
    links = data.draw(st.lists(st.integers(0, corpus.num_docs - 1), min_size=1, max_size=3))
    results = []
    for values in (drawn, 1e-300):
        served = beta.copy()
        served[below] = values
        params = make_params(served, alpha, link)
        state, trace = run_e_step(corpus, params, init_state(corpus, num_topics, alpha),
                                  tol=1e-8, max_sweeps=3)
        model = FittedModel(params=params, kind=kind or "lda", config={})
        posteriors = (infer_heldout(model, words=words),
                      infer_heldout(model, links=links, train_phi_bar=state.phi_bar))
        bound = np.array(list(vars(elbo(corpus, params, state)).values()))
        assert np.all(np.isfinite(trace)) and np.all(np.isfinite(bound))
        results.append([params.log_beta, state.gamma, state.phi, state.phi_bar, state.var_bar,
                        np.array(trace), bound, *(vars(post)[name] for post in posteriors
                                                 for name in ("phi_bar", "gamma", "var"))])
    for got, expected in zip(*results):
        assert got.tobytes() == expected.tobytes()


@st.composite
def skewed_corpora(draw, num_terms=24):
    """Corpora of 1-row documents and documents of 10 to 16 rows, at least
    one of each, with drawn links: an unguarded block pads a 1-row
    document to its longest document's rows."""
    num_docs = draw(st.integers(3, 8))
    short = st.lists(st.integers(0, num_terms - 1), min_size=1, max_size=1)
    long = st.lists(st.integers(0, num_terms - 1), min_size=10, max_size=16, unique=True)
    docs = [draw(short), draw(long)] + [draw(short | long) for _ in range(num_docs - 2)]
    docs = [[(term, draw(st.integers(1, 3))) for term in doc] for doc in docs]
    pairs = [(a, b) for a in range(num_docs) for b in range(a + 1, num_docs)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=num_docs))
    return Corpus([f"w{i}" for i in range(num_terms)], docs, links)


def test_padding_never_leaks():
    # an unguarded block pads every document's rows to its longest
    # document's; a 1-row document next to ones of 10 or more rows must get
    # what the per-document reference gives it, whether the block's
    # documents leave its loop at different iterations or all at the first
    # (tol 1).  The sweep's own terms must be the bound of the state without
    # its link term, to test_sweep_bound_is_the_bound_of_the_state's 1e-12
    # of scale: here N <= 8 documents x 16 slots x 3 topics + 8 links = 392
    # terms, so the two differ by at most about 10 x 450 x 1.1e-16 = 5e-13
    # of scale.  seen records which of the two cases the examples reached
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=40, phases=NO_SHRINK)
    @given(data=st.data(), corpus=skewed_corpora(), num_topics=st.integers(2, 3),
           seed=st.integers(0, 2**16), tol=st.sampled_from([1e-6, 1.0]),
           exponential=st.booleans())
    def check(data, corpus, num_topics, seed, tol, exponential):
        alpha = np.full(num_topics, 1.0 / num_topics)
        beta = np.random.default_rng(seed).dirichlet(np.ones(corpus.num_terms),
                                                     size=num_topics)
        link = data.draw(link_params("exponential", num_topics)) if exponential else None
        params = make_params(beta, alpha, link)
        runs, guarded = inference._blocks(corpus, params)
        state = init_state(corpus, num_topics, alpha)
        reference = init_state(corpus, num_topics, alpha)
        # per visit, the number of documents still iterating in each iteration
        active, visit, weights = [], inference._visit_unguarded, inference._topic_weights
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_visit_unguarded",
                          lambda *args: active.append([]) or visit(*args))
            patch.setattr(inference, "_topic_weights",
                          lambda gamma, offset: active[-1].append(gamma.shape[0])
                          or weights(gamma, offset))
            own = inference._sweep(params, state, runs, guarded, tol)
        reference_sweep(corpus, params, reference, tol)
        state.refresh_var_bar()
        assert_same_state(state, reference)
        bound = elbo(corpus, params, state)
        parts = (bound.z_given_theta_term, bound.word_term, bound.theta_prior_term,
                 bound.entropy_term)
        scale = abs(bound.link_term) + sum(abs(part) for part in parts)
        assert abs(own - sum(parts)) <= 1e-12 * scale
        for run in runs:
            assert_padded(run, corpus, params)
            assert run.slot_counts.size <= 2 * run.rows.size
        # the unguarded runs, with or without pairs, and no guarded block;
        # one visit of them all
        assert guarded is None
        (counts,) = active
        num_rows = np.concatenate([run.num_rows for run in runs])
        if num_rows.min() == 1 and num_rows.max() >= 10:
            if counts == [num_rows.size]:
                seen.add("all at the first iteration")
            elif len(set(counts)) > 1:
                seen.add("at different iterations")
                if len(runs) > 1:
                    seen.add("at different iterations, in several runs")

    check()
    assert seen == {"all at the first iteration", "at different iterations",
                    "at different iterations, in several runs"}


def test_long_document_pads_only_its_run():
    # one document of 200 distinct terms next to 60 of 1 to 6: padded to
    # the longest document, one block of all 61 would hold 61 x 200 slots
    # for about 410 rows.  Each run holds at most twice its rows' slots,
    # and a 6-row document is below half the long one's rows, so the long
    # document's run takes one short document and holds at most 400
    rng = np.random.default_rng(7)
    num_terms = 240
    docs = [[(t, 1 + t % 3) for t in range(200)]]
    docs += [[(int(t), int(rng.integers(1, 4)))
              for t in rng.choice(num_terms, rng.integers(1, 7), replace=False)]
             for _ in range(60)]
    corpus = Corpus([f"w{i}" for i in range(num_terms)], docs)
    alpha = np.full(3, 0.1)
    params = make_params(rng.dirichlet(np.ones(num_terms), size=3), alpha)
    blocks, guarded = inference._blocks(corpus, params)
    assert guarded is None
    np.testing.assert_array_equal(np.sort(np.concatenate([block.docs for block in blocks])),
                                  np.arange(corpus.num_docs))
    assert 1 < len(blocks) <= 1 + np.log2(200)
    for block in blocks:
        assert_padded(block, corpus, params)
        assert block.slot_counts.size <= 2 * block.rows.size
    (long,) = [block for block in blocks if 0 in block.docs]
    assert long.slot_counts.size <= 400
    assert sum(block.slot_counts.size for block in blocks) <= 2 * corpus.terms.size
    # the runs' sweep is the per-document one
    state = init_state(corpus, 3, alpha)
    reference = init_state(corpus, 3, alpha)
    inference._sweep(params, state, blocks, None, 1e-6)
    for d in range(corpus.num_docs):
        reference_visit(corpus, params, reference, d, 1e-6)
    state.refresh_var_bar()
    assert_same_state(state, reference)


@pytest.mark.parametrize("kind, eta", [("exponential", 0.0), ("exponential", -1.0),
                                       ("sigmoid", 1.0)])
def test_skewed_corpus_splits_into_runs(kind, eta):
    # tools/skewed-corpus is the corpus on which CI and tools/parity.py run
    # the E-step's runs: uncoupled (eta = 0, every fit's first E-step) and
    # under the exponential kind its documents split into several runs, and
    # linkless document 8 shares a run with linked documents; under the
    # sigmoid kind the linked documents are guarded and document 8 runs alone
    skewed = Path(__file__).resolve().parents[1] / "tools" / "skewed-corpus"
    corpus = load_corpus(*(str(skewed / f"{part}.txt") for part in ("docs", "vocab", "links")))
    link = LinkParams(eta=np.full(3, eta), nu=-1.0, kind=kind)
    params = make_params(np.full((3, corpus.num_terms), 1 / corpus.num_terms), np.full(3, 1 / 3),
                         link)
    runs, guarded = inference._blocks(corpus, params)
    (run_of_8,) = [run.docs.tolist() for run in runs if 8 in run.docs]
    linked = [d for d in range(corpus.num_docs) if corpus.neighbors[d].size]
    assert 8 not in linked
    if guarded is None:
        assert len(runs) >= 2
        assert set(run_of_8) & set(linked)
    else:
        assert guarded.docs.tolist() == linked
        assert run_of_8 == [8]


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


@pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
@settings(derandomize=True, deadline=None, max_examples=15, phases=NO_SHRINK)
@given(data=st.data(), corpus=mixed_corpora(), num_topics=st.integers(2, 3),
       alpha_total=st.sampled_from([1e-8, 1e-4]) | st.floats(1e-8, 10.0))
def test_sweep_bound_is_the_bound_of_the_state(kind, data, corpus, num_topics, alpha_total):
    # a sweep's trace value is the sum of its visits' own terms and the link
    # term; it must be the bound of the state the sweep leaves.  Both sums
    # add the same per-document and per-link terms in another order, but
    # an unguarded document's terms come from its weights (see
    # _visit_unguarded): the sum over its padded slots of c (rowmax +
    # log(F @ w)), 0 in a pad slot as its count c is, minus n phi_bar .
    # log w for its word and entropy terms, and log Gamma sums for its
    # z|theta and theta terms.  Each of the bound's five parts sums terms
    # of one sign, so their magnitudes add up to the part's; scale adds
    # the five.  log w = d - max d, where d is E[log theta] plus the link
    # offset, and n phi_bar . d is the document's z term plus its links'
    # eta terms; the log Gamma terms are the theta term without its
    # E[log theta] products.  So the weights form's terms are a few times
    # scale at most (take 10).  A sum of N terms with m roundings each is
    # off by at most (N + m) u of its terms' magnitude; here N <= 10
    # documents x 4 slots x 3 topics + 45 links = 165 and m is a few tens,
    # so the two values differ by at most about 10 x 200 x 1.1e-16 =
    # 2.2e-13 of scale.  The tolerance is 1e-12
    beta = data.draw(extreme_topics(num_topics, corpus.num_terms))
    alpha = np.full(num_topics, alpha_total / num_topics)
    links = [None]
    if kind is not None:
        links = [data.draw(link_params(kind, num_topics)),
                 zero_eta_or_drawn(data, kind, num_topics)]
    for link in links:
        params = make_params(beta, alpha, link)
        state = init_state(corpus, num_topics, alpha)
        for _ in range(3):
            _, trace = run_e_step(corpus, params, state, tol=1e-8, max_sweeps=1)
            bound = elbo(corpus, params, state)
            scale = (abs(bound.link_term) + abs(bound.z_given_theta_term) + abs(bound.word_term)
                     + abs(bound.theta_prior_term) + abs(bound.entropy_term))
            assert type(trace[1]) is float
            assert abs(trace[1] - bound.total) <= 1e-12 * scale
