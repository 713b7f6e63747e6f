"""Tests for the M-step updates and the EM driver."""

import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rtm import baselines, estimation, inference, linkfn
from rtm.corpus import Corpus, generate_synthetic
from rtm.estimation import (FittedModel, RegularizationConfig, SufficientStats,
                            collect_stats, em_objective, fit, fit_link_exponential,
                            fit_link_gaussian, fit_link_sigmoid_probit,
                            link_regularizer, load_model,
                            regularized_link_gradient,
                            regularized_link_objective, save_model, update_beta)
from rtm.inference import ModelParams, init_state, run_e_step
from rtm.linkfn import LinkParams, link_probability


class TestUpdateBeta:
    def test_single_topic_frequencies(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 1)]])
        state = init_state(c, 1, np.array([1.0]))
        beta = update_beta(c, state, smoothing=1e-12)
        np.testing.assert_allclose(beta, [[0.5, 0.5]], atol=1e-10)

    def test_hard_assignments_give_topic_counts(self):
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(1, 1), (2, 3)]])
        state = init_state(c, 2, np.array([0.5, 0.5]))
        hard = {0: np.array([1.0, 0.0]), 1: np.array([1.0, 0.0]),
                2: np.array([0.0, 1.0])}
        for d in range(c.num_docs):
            for i, t in enumerate(c.doc(d)[0]):
                state.set_phi(d, i, hard[int(t)].copy())
        beta = update_beta(c, state, smoothing=1e-12)
        # topic 0 saw a:2 b:2, topic 1 saw c:3
        np.testing.assert_allclose(beta[0], [0.5, 0.5, 0.0], atol=1e-10)
        np.testing.assert_allclose(beta[1], [0.0, 0.0, 1.0], atol=1e-10)

    def test_smoothing_keeps_strictly_positive(self):
        c = Corpus(["a", "b", "c"], [[(0, 5)]])
        state = init_state(c, 2, np.array([0.5, 0.5]))
        beta = update_beta(c, state, smoothing=0.01)
        assert np.all(beta > 0)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0)


class TestSigmoidProbitFit:
    @pytest.mark.parametrize("kind", ["sigmoid", "probit"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        k = 3
        alpha = np.full(k, 1.0 / k)
        pi_alpha = estimation.prior_pair_covariate(alpha)
        pi = rng.random((12, k)) * 0.4
        h = 1e-6
        for _ in range(20):
            eta = rng.normal(0, 1.0, size=k)
            nu = rng.normal(0, 1.0)
            rho, lam = 5.0, 0.3
            g_eta, g_nu = regularized_link_gradient(LinkParams(eta, nu, kind), pi, rho,
                                                    lam, pi_alpha)
            grad = np.concatenate([g_eta, [g_nu]])
            theta = np.concatenate([eta, [nu]])
            for i in range(k + 1):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd = (regularized_link_objective(LinkParams(up[:k], up[k], kind), pi,
                                                 rho, lam, pi_alpha)
                      - regularized_link_objective(LinkParams(dn[:k], dn[k], kind), pi,
                                                   rho, lam, pi_alpha)) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_unregularized_config_rejected(self):
        reg = RegularizationConfig(rho=0.0, lam=0.0)
        alpha = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="rho > 0 or lam > 0"):
            fit_link_sigmoid_probit(LinkParams(np.zeros(2), 0.0, "sigmoid"),
                                    np.full((4, 2), 0.2), reg, alpha)

    def test_symmetric_data_fits_to_half(self):
        # every link covariate equals the prior covariate and rho = M:
        # positive and pseudo-negative evidence balance at probability 1/2
        alpha = np.array([0.5, 0.5])
        pi_alpha = estimation.prior_pair_covariate(alpha)
        m = 8
        pi = np.tile(pi_alpha, (m, 1))
        reg = RegularizationConfig(rho=float(m), lam=0.0)
        init = LinkParams(eta=np.array([1.0, -2.0]), nu=0.7, kind="sigmoid")
        params = fit_link_sigmoid_probit(init, pi, reg, alpha)
        prob = expit(params.eta @ pi_alpha + params.nu)
        assert abs(prob - 0.5) < 1e-6

    @pytest.mark.parametrize("kind", ["sigmoid", "probit"])
    def test_ascent_from_warm_start(self, kind):
        rng = np.random.default_rng(23)
        k = 2
        alpha = np.full(k, 0.5)
        pi_alpha = estimation.prior_pair_covariate(alpha)
        pi = rng.random((10, k)) * 0.5
        reg = RegularizationConfig(rho=10.0, lam=0.1)
        init = LinkParams(eta=rng.normal(size=k), nu=0.5, kind=kind)
        fitted = fit_link_sigmoid_probit(init, pi, reg, alpha)
        before = regularized_link_objective(init, pi, reg.rho, reg.lam, pi_alpha)
        after = regularized_link_objective(fitted, pi, reg.rho, reg.lam, pi_alpha)
        assert after >= before


@pytest.mark.parametrize("kind", ["sigmoid", "probit", "exponential"])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data(), num_topics=st.integers(1, 4), num_links=st.integers(0, 6))
def test_objective_is_the_literal_sum_plus_regularizer(kind, data, num_topics, num_links):
    unit = st.floats(0.0, 1.0)
    if kind == "exponential":
        # admissible: nu < 0 and eta_i + nu < 0, so the regularizer is finite
        nu = -data.draw(st.floats(0.1, 3.0))
        eta = [-nu - data.draw(st.floats(0.1, 3.0)) for _ in range(num_topics)]
    else:
        # |x_alpha| <= 4 keeps the literal 1 - F(x_alpha) free of cancellation
        nu = data.draw(st.floats(-2.0, 2.0))
        eta = [data.draw(st.floats(-2.0, 2.0)) for _ in range(num_topics)]
    link = LinkParams(eta=eta, nu=nu, kind=kind)
    pi = np.array([[data.draw(unit) for _ in range(num_topics)] for _ in range(num_links)])
    pi = pi.reshape(num_links, num_topics)
    alpha = np.array([data.draw(st.floats(0.05, 2.0)) for _ in range(num_topics)])
    rho, lam = data.draw(st.floats(0.0, 20.0)), data.draw(st.floats(0.0, 2.0))
    pi_alpha = (alpha / alpha.sum()) ** 2

    def log_f(x):
        if kind == "sigmoid":
            return -math.log1p(math.exp(-x))
        if kind == "probit":
            return math.log(0.5 * math.erfc(-x / math.sqrt(2.0)))
        return x

    loglik = sum(log_f(sum(e * p for e, p in zip(eta, row)) + nu) for row in pi)
    x_alpha = sum(e * p for e, p in zip(eta, pi_alpha)) + nu
    if kind == "exponential":
        nu_lin = math.log(1.0 - math.exp(nu))
        non_link = nu_lin + sum(p * (math.log(1.0 - math.exp(e + nu)) - nu_lin)
                                for e, p in zip(eta, pi_alpha))
    elif kind == "sigmoid":
        non_link = math.log(1.0 - 1.0 / (1.0 + math.exp(-x_alpha)))
    else:
        non_link = math.log(1.0 - 0.5 * math.erfc(-x_alpha / math.sqrt(2.0)))
    # the l2 penalty belongs to the sigmoid/probit ascent, the only update that reads lam
    penalty = 0.0 if kind == "exponential" else lam * sum(e * e for e in eta)
    expected = loglik + rho * non_link - penalty
    value = regularized_link_objective(link, pi, rho, lam, pi_alpha)
    assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-9)


class TestExponentialFit:
    def test_single_topic_example(self):
        stats = SufficientStats(num_links=2, pi_bar_sum=np.array([1.0]),
                                pi_alpha=np.array([1.0]),
                                sq_diff_sum=np.array([0.0]))
        params = fit_link_exponential(stats, rho=2.0)
        np.testing.assert_allclose(params.nu, 0.0, atol=1e-12)
        np.testing.assert_allclose(params.eta, [-np.log(3.0)], rtol=1e-12)
        p = link_probability(params, [1.0], [1.0])
        np.testing.assert_allclose(p, 1.0 / 3.0, rtol=1e-12)

    def test_zero_rho_gives_certain_links(self):
        stats = SufficientStats(num_links=3, pi_bar_sum=np.array([0.4, 0.2]),
                                pi_alpha=np.array([0.25, 0.25]),
                                sq_diff_sum=np.zeros(2))
        params = fit_link_exponential(stats, rho=0.0)
        np.testing.assert_allclose(params.eta, 0.0, atol=1e-12)
        assert params.nu == 0.0

    def test_admissible_over_random_stats(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 50))
            per_link = rng.random((m, k)) * rng.random(k)  # entries in [0, 1]
            mean = rng.dirichlet(np.ones(k))
            stats = SufficientStats(num_links=m, pi_bar_sum=per_link.sum(axis=0),
                                    pi_alpha=mean * mean,
                                    sq_diff_sum=np.zeros(k))
            rho = rng.exponential(float(m)) + 0.01
            params = fit_link_exponential(stats, rho=rho)
            assert params.nu <= 1e-12
            assert np.all(params.eta + params.nu <= 1e-12)
            params.check_admissible()

    def test_closed_form_maximizes_penalized_objective(self):
        # perturbing the solution in any direction must not improve
        # sum_links (eta . pi + nu) + rho * linearized non-link penalty
        rng = np.random.default_rng(5)
        k = 3
        pi = rng.random((9, k)) * 0.3
        alpha = np.full(k, 1.0 / k)
        pi_alpha = estimation.prior_pair_covariate(alpha)
        stats = SufficientStats(num_links=9, pi_bar_sum=pi.sum(axis=0),
                                pi_alpha=pi_alpha, sq_diff_sum=np.zeros(k))
        rho = 9.0
        best = fit_link_exponential(stats, rho=rho)

        def objective(eta, nu):
            link = LinkParams(eta=eta, nu=nu, kind="exponential")
            return (pi @ eta + nu).sum() + link_regularizer(link, rho, 0.0, pi_alpha)

        base = objective(best.eta, best.nu)
        for _ in range(50):
            eta = best.eta + rng.normal(0, 0.05, size=k)
            nu = best.nu + rng.normal(0, 0.05)
            if nu > 0 or np.any(eta + nu > 0):
                continue
            assert objective(eta, nu) <= base + 1e-9

    def test_no_links_rejected(self):
        stats = SufficientStats(num_links=0, pi_bar_sum=np.zeros(2),
                                pi_alpha=np.full(2, 0.25), sq_diff_sum=np.zeros(2))
        with pytest.raises(ValueError):
            fit_link_exponential(stats, rho=1.0)


class TestGaussianFit:
    def test_variance_matching_example(self):
        stats = SufficientStats(num_links=2, pi_bar_sum=np.zeros(1),
                                pi_alpha=np.ones(1),
                                sq_diff_sum=np.array([0.5]))
        params = fit_link_gaussian(stats, rho=2.0)
        np.testing.assert_allclose(params.eta, [2.0])

    def test_nu_clamped_at_zero(self):
        # tight clusters give eta = 2 per component, driving the raw nu
        # formula to log(pi/2) - log(2) < 0, which clamps to zero
        stats = SufficientStats(num_links=4, pi_bar_sum=np.zeros(2),
                                pi_alpha=np.full(2, 0.25),
                                sq_diff_sum=np.full(2, 1.0))
        params = fit_link_gaussian(stats, rho=0.0)
        np.testing.assert_allclose(params.eta, [2.0, 2.0])
        assert params.nu == 0.0
        z = np.array([0.5, 0.5])
        np.testing.assert_allclose(link_probability(params, z, z), 1.0)

    def test_eta_floor(self):
        stats = SufficientStats(num_links=1, pi_bar_sum=np.zeros(1),
                                pi_alpha=np.ones(1),
                                sq_diff_sum=np.array([1e12]))
        params = fit_link_gaussian(stats, rho=1.0)
        assert params.eta[0] >= 1e-8

    def test_no_links_rejected(self):
        stats = SufficientStats(num_links=0, pi_bar_sum=np.zeros(1),
                                pi_alpha=np.ones(1), sq_diff_sum=np.ones(1))
        with pytest.raises(ValueError):
            fit_link_gaussian(stats, rho=1.0)


def permuted_tv(beta_hat, beta_true):
    """Min over topic permutations of the max per-row total variation."""
    from itertools import permutations
    k = beta_true.shape[0]
    best = np.inf
    for perm in permutations(range(k)):
        tv = 0.5 * np.abs(beta_hat[list(perm)] - beta_true).sum(axis=1).max()
        best = min(best, tv)
    return best


class TestFit:
    @pytest.mark.parametrize("kind", [*linkfn.KINDS, None])
    def test_deterministic_serialization(self, tmp_path, kind):
        corpus, _ = generate_synthetic(2, 6, 15, 10, np.array([0.5, 0.5]),
                                       np.array([-1.0, -1.0]), -0.5,
                                       "exponential", seed=2)
        paths = []
        for run in range(2):
            model = fit(corpus, 2, kind=kind, seed=9, em_iters=4)
            p = tmp_path / f"m{run}.txt"
            save_model(model, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_em_objective_nondecreasing_exponential(self):
        corpus, _ = generate_synthetic(2, 8, 20, 15, np.array([0.5, 0.5]),
                                       np.array([-1.5, -1.5]), -1.0,
                                       "exponential", seed=7)
        reg = RegularizationConfig().resolved(corpus.num_links)
        alpha = np.full(2, 0.5)
        rng = np.random.default_rng(0)
        beta = 1.0 + rng.random((2, 8))
        beta /= beta.sum(axis=1, keepdims=True)
        link = LinkParams(eta=np.zeros(2), nu=0.0, kind="exponential")
        params = ModelParams(beta=beta, alpha=alpha, link=link)
        state = init_state(corpus, 2, alpha)
        values = []
        for _ in range(6):
            state, _ = run_e_step(corpus, params, state, tol=1e-8)
            beta = update_beta(corpus, state, reg.smoothing)
            link = fit_link_exponential(collect_stats(corpus, state, alpha),
                                        reg.rho)
            params = ModelParams(beta=beta, alpha=alpha, link=link)
            values.append(em_objective(corpus, params, state, reg))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(values[:-1])))

    def test_em_objective_at_boundary_is_minus_inf_without_warnings(self):
        # the exponential fit starts at eta = 0, nu = 0, on the boundary
        # where the linearized non-link penalty is -inf
        corpus, _ = generate_synthetic(2, 8, 10, 10, np.array([0.5, 0.5]),
                                       np.array([-1.0, -1.0]), -0.5, "exponential", seed=3)
        reg = RegularizationConfig().resolved(corpus.num_links)
        alpha = np.full(2, 0.5)
        link = LinkParams(eta=np.zeros(2), nu=0.0, kind="exponential")
        params = ModelParams(beta=np.full((2, 8), 1 / 8), alpha=alpha, link=link)
        state = init_state(corpus, 2, alpha)
        pi_alpha = estimation.prior_pair_covariate(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert link_regularizer(link, reg.rho, 0.0, pi_alpha) == -np.inf
            boundary = LinkParams(eta=np.array([0.5, -1.0]), nu=-0.5, kind="exponential")
            assert link_regularizer(boundary, reg.rho, 0.0, pi_alpha) == -np.inf
            # without pseudo non-links the penalty has no weight
            assert link_regularizer(link, 0.0, 0.0, pi_alpha) == 0.0
            assert em_objective(corpus, params, state, reg) == -np.inf

    def test_recovers_one_hot_topics(self):
        beta_true = np.eye(2)
        corpus, truth = generate_synthetic(
            2, 2, 40, 30, np.array([0.5, 0.5]), np.array([-2.0, -2.0]), -2.0,
            "exponential", seed=13)
        np.testing.assert_array_equal(truth.beta, beta_true)
        model = fit(corpus, 2, kind="exponential", seed=3, em_iters=10)
        assert permuted_tv(model.params.beta, beta_true) < 0.1

    @pytest.mark.parametrize("kind", linkfn.KINDS)
    def test_linkless_corpus_matches_lda(self, kind):
        # without links the link M-step returns its start, eta = 0 and
        # nu = 0, and every E-step reads no link: the fit is LDA's
        c = Corpus(["a", "b", "c"], [[(0, 2), (1, 1)], [(2, 3)], [(0, 1), (2, 1)]])
        model = fit(c, 2, kind=kind, seed=5, em_iters=5)
        lda = baselines.fit_lda(c, 2, seed=5, em_iters=5)
        np.testing.assert_array_equal(model.params.link.eta, np.zeros(2))
        assert model.params.link.nu == 0.0
        np.testing.assert_array_equal(model.params.beta, lda.params.beta)
        assert model.elbo_trace == lda.elbo_trace

    def test_tiny_alpha_bound_is_the_small_alpha_bound(self):
        # the CI corpus; at alpha_total 1e-20 the theta prior's and the
        # Dirichlet entropy's 1/alpha-sized products must cancel before
        # they are rounded, or the bound reads 0
        corpus, _ = generate_synthetic(3, 30, 30, 20, np.full(3, 1 / 3), np.full(3, -1.0),
                                       -1.0, "exponential", seed=1)
        tiny, small = (fit(corpus, 10, alpha_total=a).elbo_trace[-1] for a in (1e-20, 1e-8))
        assert tiny == pytest.approx(small, rel=1e-6)

    @pytest.mark.parametrize("kind", ["exponential", "sigmoid"])
    def test_levels_are_computed_once_per_fit(self, kind, monkeypatch):
        # the wavefront levels depend only on the corpus: the first coupled
        # E-step of a fit computes them, and the later ones reuse them
        corpus, _ = generate_synthetic(2, 8, 20, 15, np.array([0.5, 0.5]),
                                       np.array([-1.5, -1.5]), -1.0, "exponential", seed=7)
        calls, levels = [], inference._levels
        monkeypatch.setattr(inference, "_levels", lambda c: calls.append(c) or levels(c))
        model = fit(corpus, 2, kind=kind, seed=1, em_iters=4, tol=0)
        assert len(model.elbo_trace) == 4 and model.params.link.eta.any()
        assert calls == [corpus]

    def test_bound_is_computed_once_per_state_and_parameters(self, monkeypatch):
        # fit's bound after an M-step is the next E-step's starting bound: it
        # is passed on, not computed again
        corpus, _ = generate_synthetic(2, 8, 20, 15, np.array([0.5, 0.5]),
                                       np.array([-1.5, -1.5]), -1.0, "exponential", seed=7)
        calls, traces = [], []
        elbo, run_e_step = inference.elbo, inference.run_e_step

        def counted_elbo(*args):
            calls.append(args)
            return elbo(*args)

        def traced_e_step(*args, **kwargs):
            state, trace = run_e_step(*args, **kwargs)
            traces.append(trace)
            return state, trace

        monkeypatch.setattr(inference, "elbo", counted_elbo)
        monkeypatch.setattr(inference, "run_e_step", traced_e_step)
        model = fit(corpus, 2, kind="exponential", seed=1, em_iters=4, tol=0)
        assert len(traces) == len(model.elbo_trace) == 4
        sweeps = sum(len(trace) - 1 for trace in traces)
        assert len(calls) == 1 + sweeps + len(model.elbo_trace)
        for trace, bound in zip(traces[1:], model.elbo_trace):
            assert np.float64(trace[0]).tobytes() == np.float64(bound).tobytes()

    def test_beta_stays_normalized_and_positive(self):
        corpus, _ = generate_synthetic(3, 9, 12, 8, np.full(3, 1 / 3),
                                       np.full(3, -1.0), -0.5, "exponential",
                                       seed=4)
        for kind in ("sigmoid", "exponential", "probit", "gaussian"):
            model = fit(corpus, 3, kind=kind, seed=1, em_iters=3)
            beta = model.params.beta
            np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(beta > 0)
            if kind in ("exponential", "gaussian"):
                model.params.link.check_admissible()


@pytest.mark.parametrize("kind", ["exponential", "sigmoid", "probit", None])
@settings(derandomize=True, deadline=None, max_examples=8)
@given(num_topics=st.integers(2, 4), num_docs=st.integers(4, 16), seed=st.integers(0, 2**16),
       lam=st.floats(0.0, 50.0))
def test_em_objective_nondecreasing_across_em_iterations(kind, num_topics, num_docs, seed, lam):
    # the E-step and both M-step updates ascend em_objective, whatever the
    # l2 weight; gaussian is left out because its moment-matching link
    # update is not an ascent step (see CHANGES.md)
    alpha = np.full(num_topics, 1.0 / num_topics)
    corpus, _ = generate_synthetic(num_topics, 10, num_docs, 12, alpha,
                                   np.full(num_topics, 2.0), -2.0, "exponential", seed=seed)
    reg = RegularizationConfig(lam=lam).resolved(corpus.num_links)
    beta = 1.0 + np.random.default_rng(seed).random((num_topics, 10))
    beta /= beta.sum(axis=1, keepdims=True)
    link = None if kind is None else LinkParams(eta=np.zeros(num_topics), nu=0.0, kind=kind)
    params = ModelParams(beta=beta, alpha=alpha, link=link)
    state = init_state(corpus, num_topics, alpha)
    values = []
    for _ in range(5):
        state, _ = run_e_step(corpus, params, state, tol=1e-8)
        beta = update_beta(corpus, state, reg.smoothing)
        if kind is not None:
            link = estimation.fit_link(corpus, state, alpha, reg, link)
        params = ModelParams(beta=beta, alpha=alpha, link=link)
        values.append(em_objective(corpus, params, state, reg))
    assert np.all(np.isfinite(values))
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-8 * np.maximum(1.0, np.abs(values[:-1])))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), kind=st.sampled_from(linkfn.KINDS), num_topics=st.integers(1, 4),
       num_terms=st.integers(1, 6))
def test_model_file_round_trip_keeps_parameters(data, kind, num_topics, num_terms):
    size = num_topics * num_terms
    beta = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=size, max_size=size)))
    beta = beta.reshape(num_topics, num_terms)
    beta /= beta.sum(axis=1, keepdims=True)
    eta = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=num_topics,
                                      max_size=num_topics)))
    nu = data.draw(st.floats(-10.0, 10.0))
    # load_model accepts admissible links only
    if kind == "exponential":
        nu = -abs(nu)
        eta = -np.abs(eta) - nu
    elif kind == "gaussian":
        eta, nu = np.abs(eta), abs(nu)
    link = LinkParams(eta=eta, nu=nu, kind=kind)
    model = FittedModel(params=ModelParams(beta=beta, alpha=np.full(num_topics, 0.1),
                                           link=link),
                        kind=kind, config={"smoothing": 0.01})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.kind == kind
    np.testing.assert_array_equal(loaded.params.link.eta, link.eta)
    assert loaded.params.link.nu == link.nu
    np.testing.assert_allclose(loaded.params.beta, beta, rtol=1e-9, atol=0)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        corpus, _ = generate_synthetic(2, 5, 10, 8, np.array([0.5, 0.5]),
                                       np.array([-1.0, -1.0]), -0.5,
                                       "exponential", seed=6)
        model = fit(corpus, 2, kind="exponential", seed=2, em_iters=3)
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "exponential"
        np.testing.assert_allclose(loaded.params.beta, model.params.beta,
                                   rtol=1e-14)
        np.testing.assert_allclose(loaded.params.link.eta, model.params.link.eta,
                                   rtol=1e-14)
        np.testing.assert_allclose(loaded.params.link.nu, model.params.link.nu,
                                   rtol=1e-14)
        np.testing.assert_allclose(loaded.params.alpha, model.params.alpha)

    def test_rows_are_written_as_each_entry_alone(self, tmp_path):
        # a topic row is formatted in one call; it must give the text of
        # formatting each entry alone, which parses back to the same bits
        rows = np.array([[-np.inf, -0.0, 5e-324, -1e-300, 0.1],
                         [1 / 3, -np.pi, 2 / 3 - 1, 1e300, -2.2250738585072014e-308]])
        model = FittedModel(params=ModelParams(beta=np.full((2, 5), 0.2), alpha=np.ones(2)),
                            kind="lda", config={"smoothing": 0.01})
        model.params.log_beta = rows
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()[4:]
        assert lines == [" ".join(f"{x:.17g}" for x in row) for row in rows]
        parsed = np.array([[float(x) for x in line.split()] for line in lines])
        assert parsed.tobytes() == rows.tobytes()

        # and load_model reads a normalized model's log beta back exactly,
        # -inf and 17-digit entries included
        beta = np.array([[0.5, 0.25, 0.25, 0.0], [1 / 3, 1 / 3, 1 / 3, 0.0], [0.0, 0.0, 0.0, 1.0]])
        model = FittedModel(params=ModelParams(beta=beta, alpha=np.ones(3)), kind="lda",
                            config={"smoothing": 0.01})
        save_model(model, str(path))
        assert load_model(str(path)).params.log_beta.tobytes() == model.params.log_beta.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("something else\n")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(str(p))

    def test_unnormalized_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        log_row = " ".join(["0.0", "0.0"])  # exp sums to 2, not 1
        p.write_text("rtm-model v1\n1 2 lda 1 0.01\n0\n0\n" + log_row + "\n")
        with pytest.raises(ValueError, match="not normalized"):
            load_model(str(p))

    @pytest.mark.parametrize("kind, eta, nu", [
        ("exponential", [-1.0, -1.0], 0.5), ("exponential", [2.0, -1.0], -1.0),
        ("gaussian", [-1.0, 1.0], 0.0), ("gaussian", [1.0, 1.0], -0.5)])
    def test_inadmissible_link_rejected(self, tmp_path, kind, eta, nu):
        model = FittedModel(params=ModelParams(beta=np.full((2, 2), 0.5),
                                               alpha=np.full(2, 0.5),
                                               link=LinkParams(eta, nu, kind)),
                            kind=kind, config={"smoothing": 0.01})
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: inadmissible {kind} link"):
            load_model(path)

    def test_no_partial_files(self, tmp_path):
        # the writer goes through a temp file and renames at the end
        corpus, _ = generate_synthetic(2, 4, 8, 6, np.array([0.5, 0.5]),
                                       np.array([-1.0, -1.0]), -0.5,
                                       "exponential", seed=1)
        model = fit(corpus, 2, kind="exponential", seed=1, em_iters=2)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        assert path.exists()
        assert not (tmp_path / "model.txt.tmp").exists()


    def test_other_writers_temp_file_untouched(self, tmp_path):
        # a concurrent writer's <path>.tmp must be neither overwritten nor
        # renamed over the model file
        model = FittedModel(params=ModelParams(beta=np.full((1, 2), 0.5),
                                               alpha=np.ones(1)),
                            kind="lda", config={"smoothing": 0.01})
        path = tmp_path / "model.txt"
        other = tmp_path / "model.txt.tmp"
        other.write_text("another writer's partial output\n")
        save_model(model, str(path))
        assert other.read_text() == "another writer's partial output\n"
        assert load_model(str(path)).kind == "lda"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.txt", "model.txt.tmp"]

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        model = FittedModel(params=ModelParams(beta=np.full((1, 2), 0.5),
                                               alpha=np.ones(1)),
                            kind="lda", config={"smoothing": 0.01})

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(estimation.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, str(tmp_path / "model.txt"))
        assert list(tmp_path.iterdir()) == []


class TestRegularizationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizationConfig(rho=-1.0)
        with pytest.raises(ValueError):
            RegularizationConfig(lam=-0.5)
        with pytest.raises(ValueError):
            RegularizationConfig(smoothing=0.0)

    def test_rho_defaults_to_link_count(self):
        reg = RegularizationConfig().resolved(37)
        assert reg.rho == 37.0
