"""Tests for the link probability functions and their expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm import linkfn
from rtm.linkfn import LinkParams


def random_simplex_rows(rng, n, k):
    g = rng.gamma(1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def doc_moments(phi, counts):
    """Mean assignment vector of a document and the variance of each component.

    phi is (T, K) over distinct terms, counts the matching token counts;
    Var(zbar_i) = (1/N^2) sum_n phi_{n,i} (1 - phi_{n,i}).
    """
    phi = np.asarray(phi, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    return counts @ phi / n, counts @ (phi * (1.0 - phi)) / n**2


def pair_value(params, phi_d, counts_d, phi_dp, counts_dp):
    """Expected log link of one document pair, as a one-row batch."""
    mean_d, var_d = doc_moments(phi_d, counts_d)
    mean_dp, var_dp = doc_moments(phi_dp, counts_dp)
    out = linkfn.expected_log_link_batch(params, mean_d[None], mean_dp[None],
                                         var_d[None], var_dp[None])
    assert out.shape == (1,)
    return float(out[0])


def covariate_value(params, pi_bar):
    """Expected log link at pair covariate pi_bar (sigmoid/probit/exponential)."""
    pi_bar = np.asarray(pi_bar, dtype=np.float64)
    return float(linkfn.expected_log_link_batch(params, pi_bar, np.ones_like(pi_bar))[0])


def covariate_gradient(params, pi_bar):
    """d/d(pi_bar) of the expected log link: gradient_coefficient(x) * eta."""
    x = params.eta @ np.asarray(pi_bar, dtype=np.float64) + params.nu
    return float(linkfn.gradient_coefficient(params, x)) * params.eta


def sample_zbar(phi, draws, rng):
    """Empirical mean assignment vectors: one multinomial draw per token."""
    n, k = phi.shape
    counts = np.zeros((draws, k))
    rows = np.arange(draws)
    for token in range(n):
        u = rng.random(draws)
        cat = np.searchsorted(np.cumsum(phi[token]), u)
        np.add.at(counts, (rows, np.minimum(cat, k - 1)), 1.0)
    return counts / n


def monte_carlo_log_link(params, phi_d, phi_dp, draws, rng):
    """Monte-Carlo estimate of E[log psi] plus its standard error."""
    z1 = sample_zbar(phi_d, draws, rng)
    z2 = sample_zbar(phi_dp, draws, rng)
    if params.kind == "gaussian":
        vals = -params.nu - ((z1 - z2) ** 2) @ params.eta
    else:
        x = (z1 * z2) @ params.eta + params.nu
        if params.kind == "sigmoid":
            vals = -np.logaddexp(0.0, -x)
        elif params.kind == "probit":
            from scipy.special import log_ndtr
            vals = log_ndtr(x)
        else:
            vals = x
    return vals.mean(), vals.std(ddof=1) / np.sqrt(draws)


class TestLinkProbability:
    def test_sigmoid_at_zero(self):
        params = LinkParams(eta=np.zeros(2), nu=0.0, kind="sigmoid")
        np.testing.assert_array_equal(
            linkfn.link_probability(params, [0.5, 0.5], [0.5, 0.5]), [0.5])

    def test_exponential_at_zero(self):
        params = LinkParams(eta=np.zeros(2), nu=0.0, kind="exponential")
        np.testing.assert_array_equal(
            linkfn.link_probability(params, [0.5, 0.5], [0.2, 0.8]), [1.0])

    def test_gaussian_zero_distance(self):
        params = LinkParams(eta=np.array([1.0, 2.0]), nu=0.0, kind="gaussian")
        np.testing.assert_array_equal(
            linkfn.link_probability(params, [0.3, 0.7], [0.3, 0.7]), [1.0])

    def test_probit_at_zero(self):
        params = LinkParams(eta=np.zeros(3), nu=0.0, kind="probit")
        z = [1 / 3] * 3
        np.testing.assert_allclose(linkfn.link_probability(params, z, z), 0.5)

    def test_bounded_for_admissible_params(self):
        rng = np.random.default_rng(7)
        for kind in linkfn.KINDS:
            for _ in range(200):
                k = rng.integers(1, 6)
                if kind == "exponential":
                    nu = -rng.exponential(1.0)
                    eta = -nu - rng.exponential(1.0, size=k) - 0.0
                    eta = np.minimum(eta, -nu)  # eta_i + nu <= 0
                elif kind == "gaussian":
                    eta = rng.exponential(2.0, size=k)
                    nu = rng.exponential(1.0)
                else:
                    eta = rng.normal(0, 3, size=k)
                    nu = rng.normal(0, 3)
                params = LinkParams(eta=eta, nu=nu, kind=kind)
                z1 = random_simplex_rows(rng, 1, k)[0]
                z2 = random_simplex_rows(rng, 1, k)[0]
                (p,) = linkfn.link_probability(params, z1, z2)
                assert 0.0 <= p <= 1.0

    def test_monotone_in_linear_predictor(self):
        # the sigmoidal and exponential families are nondecreasing in
        # eta . pi_bar + nu
        for kind in ("sigmoid", "probit", "exponential"):
            probs = []
            for nu in np.linspace(-6, 0, 25):
                params = LinkParams(eta=np.zeros(2), nu=nu, kind=kind)
                probs.extend(linkfn.link_probability(params, [0.5, 0.5], [0.5, 0.5]))
            assert np.all(np.diff(probs) >= 0)

    def test_inadmissible_exponential_rejected(self):
        params = LinkParams(eta=np.array([1.0]), nu=0.5, kind="exponential")
        with pytest.raises(ValueError, match="inadmissible"):
            linkfn.link_probability(params, [1.0], [1.0])

    def test_inadmissible_gaussian_rejected(self):
        params = LinkParams(eta=np.array([-1.0]), nu=0.0, kind="gaussian")
        with pytest.raises(ValueError, match="inadmissible"):
            linkfn.link_probability(params, [1.0], [1.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            LinkParams(eta=np.zeros(1), nu=0.0, kind="cauchy")


class TestExpectedLogLink:
    def test_exponential_ignores_pi_bar_when_eta_zero(self):
        params = LinkParams(eta=np.zeros(3), nu=-0.5, kind="exponential")
        for pi in ([0.1, 0.1, 0.1], [0.0, 0.0, 0.0], [0.3, 0.3, 0.3]):
            assert covariate_value(params, pi) == -0.5

    def test_sigmoid_at_zero(self):
        params = LinkParams(eta=np.zeros(2), nu=0.0, kind="sigmoid")
        np.testing.assert_allclose(covariate_value(params, [0.25, 0.25]),
                                   -np.log(2.0), rtol=1e-12)

    def test_gaussian_single_token_example(self):
        # equal means, one uniform token each: each variance component is
        # 0.5 * 0.5 = 0.25, so the expectation is -(0 + 0.25 + 0.25) * 2
        params = LinkParams(eta=np.array([1.0, 1.0]), nu=0.0, kind="gaussian")
        np.testing.assert_allclose(doc_moments([[0.5, 0.5]], [1])[1], [0.25, 0.25])
        np.testing.assert_allclose(
            pair_value(params, [[0.5, 0.5]], [1], [[0.5, 0.5]], [1]), -1.0)

    def test_gaussian_requires_variances(self):
        params = LinkParams(eta=np.array([1.0]), nu=0.0, kind="gaussian")
        with pytest.raises(ValueError, match="variance"):
            linkfn.expected_log_link_batch(params, np.array([0.5]), np.array([0.5]))

    def test_single_mean_broadcasts_over_rows(self):
        # one document against its neighbors: a K-vector side gives the same
        # values as that vector repeated on every row
        rng = np.random.default_rng(2)
        a, var_a = random_simplex_rows(rng, 1, 3)[0], rng.random(3) * 0.1
        b, var_b = random_simplex_rows(rng, 4, 3), rng.random((4, 3)) * 0.1
        for params in (LinkParams(eta=np.array([1.0, -2.0, 0.5]), nu=0.3, kind="sigmoid"),
                       LinkParams(eta=np.array([1.0, -2.0, 0.5]), nu=0.3, kind="probit"),
                       LinkParams(eta=np.full(3, -0.5), nu=-0.2, kind="exponential"),
                       LinkParams(eta=np.array([1.0, 2.0, 0.5]), nu=0.3, kind="gaussian")):
            rows = linkfn.expected_log_link_batch(params, np.tile(a, (4, 1)), b,
                                                  np.tile(var_a, (4, 1)), var_b)
            np.testing.assert_array_equal(
                linkfn.expected_log_link_batch(params, a, b, var_a, var_b), rows)

    def test_counter_counts_pairs(self):
        params = LinkParams(eta=np.zeros(2), nu=0.0, kind="sigmoid")
        linkfn.pair_evals.count = 0
        linkfn.expected_log_link_batch(params, np.zeros((7, 2)), np.zeros((7, 2)))
        assert linkfn.pair_evals.count == 7

    @pytest.mark.parametrize("kind", ["exponential", "gaussian"])
    def test_exact_kinds_match_monte_carlo(self, kind):
        # the closed forms are exact: the MC estimate must be within
        # sampling error of the analytic value
        rng = np.random.default_rng(11)
        k = 3
        for trial in range(5):
            n_d, n_dp = rng.integers(2, 8, size=2)
            phi_d = random_simplex_rows(rng, n_d, k)
            phi_dp = random_simplex_rows(rng, n_dp, k)
            if kind == "exponential":
                nu = -rng.exponential(0.5)
                eta = -rng.random(k) * 0.5 - nu - 0.1  # keeps eta + nu <= -0.1
            else:
                eta = rng.exponential(1.0, size=k)
                nu = rng.exponential(0.5)
            params = LinkParams(eta=eta, nu=nu, kind=kind)
            analytic = pair_value(params, phi_d, np.ones(n_d), phi_dp, np.ones(n_dp))
            estimate, se = monte_carlo_log_link(params, phi_d, phi_dp, 100_000, rng)
            assert abs(analytic - estimate) < 3.0 * se + 1e-12

    @pytest.mark.parametrize("kind", ["sigmoid", "probit"])
    def test_first_order_error_shrinks_with_doc_length(self, kind):
        # the plug-in approximation improves as documents grow and the
        # variance of the mean assignment vector shrinks
        rng = np.random.default_rng(5)
        k = 3
        eta = np.array([1.5, -1.0, 0.5])
        params = LinkParams(eta=eta, nu=0.2, kind=kind)
        gaps, ses = [], []
        for n in (2, 20, 200):
            phi_d = random_simplex_rows(rng, n, k)
            phi_dp = random_simplex_rows(rng, n, k)
            analytic = pair_value(params, phi_d, np.ones(n), phi_dp, np.ones(n))
            estimate, se = monte_carlo_log_link(params, phi_d, phi_dp, 100_000, rng)
            gaps.append(abs(analytic - estimate))
            ses.append(se)
        assert gaps[1] <= gaps[0] + 3 * (ses[0] + ses[1])
        assert gaps[2] <= gaps[1] + 3 * (ses[1] + ses[2])


class TestGradients:
    def test_covariate_gradient_sigmoid_at_zero(self):
        params = LinkParams(eta=np.array([2.0, -1.0]), nu=0.0, kind="sigmoid")
        # eta . pi_bar = 0
        np.testing.assert_allclose(covariate_gradient(params, [0.25, 0.5]), [1.0, -0.5])

    def test_covariate_gradient_exponential_is_eta(self):
        params = LinkParams(eta=np.array([2.0, -1.0]), nu=0.0, kind="exponential")
        for pi in ([0.0, 0.0], [0.25, 0.5], [1.0, 1.0]):
            np.testing.assert_allclose(covariate_gradient(params, pi), [2.0, -1.0])

    def test_covariate_gradient_probit_at_zero(self):
        params = LinkParams(eta=np.array([1.0, 0.0]), nu=0.0, kind="probit")
        grad = covariate_gradient(params, [0.0, 0.7])
        np.testing.assert_allclose(grad, [0.7978845608, 0.0], atol=1e-9)

    def test_gradient_coefficient_rejects_gaussian(self):
        params = LinkParams(eta=np.ones(2), nu=0.0, kind="gaussian")
        with pytest.raises(ValueError):
            linkfn.gradient_coefficient(params, 0.0)

    @pytest.mark.parametrize("kind", ["sigmoid", "probit", "exponential"])
    def test_covariate_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(23)
        k = 4
        h = 1e-6
        for _ in range(20):
            eta = rng.normal(0, 1.5, size=k)
            nu = rng.normal(0, 1.0)
            params = LinkParams(eta=eta, nu=nu, kind=kind)
            pi = rng.random(k) * 0.5
            grad = covariate_gradient(params, pi)
            for i in range(k):
                up, dn = pi.copy(), pi.copy()
                up[i] += h
                dn[i] -= h
                fd = (covariate_value(params, up) - covariate_value(params, dn)) / (2 * h)
                denom = max(abs(fd), 1e-8)
                assert abs(grad[i] - fd) / denom < 1e-5

    def test_grad_phi_gaussian_zero_eta(self):
        params = LinkParams(eta=np.zeros(3), nu=0.0, kind="gaussian")
        grad = linkfn.grad_phi_gaussian(params, np.ones(3) / 3, 1, np.zeros(3), 5)
        np.testing.assert_allclose(grad, np.zeros(3))

    def test_grad_phi_gaussian_single_token(self):
        # N_d = 1, leave-one-out mean 0, neighbor mean (1, 0):
        # 2 * (1 - 0 - 1/2, 0 - 0 - 1/2) = (1, -1)
        params = LinkParams(eta=np.array([1.0, 1.0]), nu=0.0, kind="gaussian")
        grad = linkfn.grad_phi_gaussian(params, np.array([1.0, 0.0]), 1,
                                        np.zeros(2), 1)
        np.testing.assert_allclose(grad, [1.0, -1.0])

    def test_grad_phi_gaussian_linear_in_eta(self):
        rng = np.random.default_rng(3)
        eta = rng.exponential(1.0, size=3)
        one = linkfn.grad_phi_gaussian(
            LinkParams(eta=eta, nu=0.0, kind="gaussian"),
            np.array([0.2, 0.3, 0.5]), 1, np.array([0.1, 0.1, 0.1]), 4)
        two = linkfn.grad_phi_gaussian(
            LinkParams(eta=2 * eta, nu=0.0, kind="gaussian"),
            np.array([0.2, 0.3, 0.5]), 1, np.array([0.1, 0.1, 0.1]), 4)
        np.testing.assert_allclose(two, 2 * one)

    def test_grad_phi_gaussian_matches_finite_differences(self):
        # perturb one token's phi and re-evaluate the exact expectation
        rng = np.random.default_rng(29)
        k = 3
        h = 1e-6
        for trial in range(40):
            n_d = int(rng.integers(1, 6))
            phi_d = random_simplex_rows(rng, n_d, k)
            # even trials: one neighbor; odd: 2-4
            num_neighbors = 1 if trial % 2 == 0 else int(rng.integers(2, 5))
            phi_dps = [random_simplex_rows(rng, int(rng.integers(1, 6)), k)
                       for _ in range(num_neighbors)]
            means = np.array([phi_dp.mean(axis=0) for phi_dp in phi_dps])
            eta = rng.exponential(1.0, size=k)
            params = LinkParams(eta=eta, nu=rng.exponential(0.5), kind="gaussian")
            token = int(rng.integers(n_d))
            mean_minus = phi_d.mean(axis=0) - phi_d[token] / n_d
            grad = linkfn.grad_phi_gaussian(params, means.sum(axis=0), num_neighbors,
                                            mean_minus, n_d)

            def value(phi_token):
                p = phi_d.copy()
                p[token] = phi_token
                return sum(pair_value(params, p, np.ones(n_d), phi_dp, np.ones(len(phi_dp)))
                           for phi_dp in phi_dps)

            for i in range(k):
                up, dn = phi_d[token].copy(), phi_d[token].copy()
                up[i] += h
                dn[i] -= h
                fd = (value(up) - value(dn)) / (2 * h)
                denom = max(abs(fd), 1e-8)
                assert abs(grad[i] - fd) / denom < 1e-5

    def test_grad_phi_gaussian_rejects_empty_doc(self):
        params = LinkParams(eta=np.ones(2), nu=0.0, kind="gaussian")
        with pytest.raises(ValueError):
            linkfn.grad_phi_gaussian(params, np.zeros(2), 1, np.zeros(2), 0)


def literal_link(kind, x):
    """The link function F written out: sigma, Phi, or exp of the predictor."""
    if kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-x))
    if kind == "probit":
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return math.exp(x)


class TestRejectionMessages:
    def test_eta_must_be_a_vector(self):
        with pytest.raises(ValueError, match=r"^eta must be a 1-D coefficient vector$"):
            LinkParams(np.zeros((2, 1)), -1.0, "exponential")

    @pytest.mark.parametrize("kind", [kind for kind in linkfn.KINDS if kind != "gaussian"])
    def test_grad_phi_gaussian_needs_the_gaussian_kind(self, kind):
        with pytest.raises(ValueError, match=r"^grad_phi_gaussian requires the gaussian kind$"):
            linkfn.grad_phi_gaussian(LinkParams(np.full(2, -0.5), -0.5, kind),
                                     np.full(2, 0.5), 1, np.full(2, 0.25), 2)


class TestSingleDefinitions:
    """log_link and gradient_coefficient against the formulas written out."""

    @pytest.mark.parametrize("kind", linkfn.KINDS)
    @settings(derandomize=True, deadline=None)
    @given(x=st.floats(-20.0, 20.0))
    def test_exp_log_link_is_the_link_function(self, kind, x):
        params = LinkParams(eta=np.zeros(1), nu=0.0, kind=kind)
        assert math.isclose(math.exp(linkfn.log_link(params, x)), literal_link(kind, x),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("kind", ["sigmoid", "probit", "exponential"])
    @settings(derandomize=True, deadline=None)
    @given(x=st.floats(-20.0, 20.0))
    def test_gradient_coefficient_is_the_slope_of_log_link(self, kind, x):
        params = LinkParams(eta=np.zeros(1), nu=0.0, kind=kind)
        h = 1e-5
        fd = (linkfn.log_link(params, x + h) - linkfn.log_link(params, x - h)) / (2 * h)
        assert math.isclose(linkfn.gradient_coefficient(params, x), fd,
                            rel_tol=1e-6, abs_tol=1e-8)

    def test_sigmoid_coefficient_keeps_its_tail(self):
        # 1 - sigma(40) rounds to 0.0; sigma(-40) keeps the value
        params = LinkParams(eta=np.zeros(1), nu=0.0, kind="sigmoid")
        expected = math.exp(-40.0) / (1.0 + math.exp(-40.0))
        assert math.isclose(linkfn.gradient_coefficient(params, 40.0), expected,
                            rel_tol=1e-12)
