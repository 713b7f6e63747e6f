"""Link probability functions for document pairs: the one place for
each kind's formulas.

A link between two documents is a Bernoulli variable whose probability
depends on the documents' mean topic-assignment vectors zbar_d, zbar_dp.
Four families are supported:

  sigmoid       sigma(eta . (zbar_d o zbar_dp) + nu)
  exponential   exp(eta . (zbar_d o zbar_dp) + nu)
  probit        Phi(eta . (zbar_d o zbar_dp) + nu)
  gaussian      exp(-eta . (zbar_d - zbar_dp)**2 - nu)

where `o` is the elementwise product and Phi the standard normal CDF.
Every per-kind formula lives here: `log_link` is log F(x) of the link
function F at the predictor x, and `gradient_coefficient` its slope
d log F / dx.  sigma and Phi are symmetric, 1 - F(x) = F(-x), so the
log probability of a non-link is `log_link` at -x.  Under the mean-field
variational distribution, the expected log link probability is exact
for the exponential and gaussian kinds and a first-order approximation
(evaluated at pi_bar = phibar_d o phibar_dp) for sigmoid and probit.
`expected_log_link_batch` is the one evaluation of that expectation and
`link_probability` the one evaluation of the probability itself: both
take the two sides' mean vectors for a batch of pairs, so that a single
pair is a one-row batch.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import expit, log_ndtr

KINDS = ("sigmoid", "exponential", "probit", "gaussian")

# slack for admissibility checks; closed-form estimators satisfy the
# constraints exactly up to float rounding
_ADMISSIBLE_TOL = 1e-9

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


#: count of pair evaluations by expected_log_link_batch, so that tests can
#: check that inference work scales with the observed links rather than
#: with the document pairs; reset by assigning 0 to its count
pair_evals = SimpleNamespace(count=0)


@dataclass
class LinkParams:
    """Regression coefficients eta (length K), intercept nu, and kind.

    The exponential kind requires nu <= 0 and eta_i + nu <= 0 for every
    component, which is sufficient for the probability to stay in [0, 1]
    over all reachable covariates.  The gaussian kind requires eta >= 0
    and nu >= 0.
    """

    eta: np.ndarray
    nu: float
    kind: str

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=np.float64)
        self.nu = float(self.nu)
        if self.eta.ndim != 1:
            raise ValueError("eta must be a 1-D coefficient vector")
        if not (np.all(np.isfinite(self.eta)) and np.isfinite(self.nu)):
            raise ValueError("link coefficients eta and nu must be finite")
        if self.kind not in KINDS:
            raise ValueError(f"unknown link function kind: {self.kind!r}")

    def check_admissible(self):
        """Raise unless the probability stays within [0, 1] for all inputs.

        Enforced by every operation that evaluates a probability; the
        gradient helpers accept arbitrary coefficients.
        """
        if self.kind == "exponential":
            if self.nu > _ADMISSIBLE_TOL or np.any(self.eta + self.nu > _ADMISSIBLE_TOL):
                raise ValueError(
                    "inadmissible exponential link parameters: require "
                    "nu <= 0 and eta_i + nu <= 0")
        elif self.kind == "gaussian":
            if self.nu < -_ADMISSIBLE_TOL or np.any(self.eta < -_ADMISSIBLE_TOL):
                raise ValueError(
                    "inadmissible gaussian link parameters: require "
                    "eta >= 0 and nu >= 0")


def log_link(params, x):
    """log F(x) of the link function at predictor x: log sigma(x),
    log Phi(x), or x itself for the exponential and gaussian kinds."""
    x = np.asarray(x, dtype=np.float64)
    if params.kind == "sigmoid":
        return -np.logaddexp(0.0, -x)
    if params.kind == "probit":
        return log_ndtr(x)
    return x


def _predictor(params, mean_a, mean_b, var_a, var_b):
    """The link function's argument per pair: eta . (mean_a o mean_b) + nu,
    or -nu - eta . ((mean_a - mean_b)**2 + var_a + var_b) for gaussian."""
    mean_a = np.asarray(mean_a, dtype=np.float64)
    mean_b = np.asarray(mean_b, dtype=np.float64)
    if params.kind == "gaussian":
        if var_a is None or var_b is None:
            raise ValueError("gaussian expected log link requires variances")
        diff = mean_a - mean_b
        return -params.nu - np.atleast_2d(diff * diff + var_a + var_b) @ params.eta
    return np.atleast_2d(mean_a * mean_b) @ params.eta + params.nu


def link_probability(params, mean_a, mean_b):
    """Link probability of each pair, from the two sides' mean assignment
    vectors given as in `expected_log_link_batch`; returns an (L,) array."""
    params.check_admissible()
    return np.exp(log_link(params, _predictor(params, mean_a, mean_b, 0.0, 0.0)))


def expected_log_link_batch(params, mean_a, mean_b, var_a=None, var_b=None):
    """Expected log link probability for a batch of pairs.

    mean_a and mean_b are the two sides' mean assignment vectors, (L, K)
    arrays or K-vectors that broadcast against each other; one row is
    one pair.  The sigmoid, probit and exponential kinds use the pair
    covariate pi_bar = mean_a o mean_b.  The gaussian kind also needs
    var_a and var_b, the per-component variances Var(zbar_i) of each
    side.  Returns an (L,) array and counts L pair evaluations.
    """
    out = log_link(params, _predictor(params, mean_a, mean_b, var_a, var_b))
    pair_evals.count += out.shape[0]
    return out


def gradient_coefficient(params, x):
    """Scalar factor c(x) such that d/d(pi_bar) E[log psi] = c(x) * eta.

    x is eta . pi_bar + nu; vectorized over x.  c is the slope of
    `log_link`: sigma(-x), the inverse Mills ratio pdf(x) / Phi(x), or 1
    for the exponential kind.  Not defined for the gaussian kind, whose
    gradient is not a function of pi_bar.
    """
    x = np.asarray(x, dtype=np.float64)
    if params.kind == "sigmoid":
        return expit(-x)
    if params.kind == "probit":
        return np.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_ndtr(x))
    if params.kind == "exponential":
        return np.ones_like(x)
    raise ValueError("gradient_coefficient is undefined for the gaussian kind")


def grad_phi_gaussian(params, neighbor_sum, num_neighbors, mean_d_minus_n, n_d):
    """Gradient of the gaussian expected log links w.r.t. one token's phi.

    neighbor_sum is the sum of the document's neighbors' means and
    num_neighbors their number.  mean_d_minus_n = phibar_d - phi_{d,n} / N_d
    is the document mean without token n.  The arguments broadcast
    against each other, so (T, K) rows of them give T gradients.  The
    summed gradient is

        sum_dp (2 / N_d) * eta o (phibar_dp - mean_d_minus_n - 1 / (2 N_d))

    which matches central finite differences of the exact expectation.
    """
    if params.kind != "gaussian":
        raise ValueError("grad_phi_gaussian requires the gaussian kind")
    if np.any(np.asarray(n_d) <= 0):
        raise ValueError("document must contain at least one token")
    mean_d_minus_n = np.asarray(mean_d_minus_n, dtype=np.float64)
    total = neighbor_sum - num_neighbors * (mean_d_minus_n + 0.5 / n_d)
    return (2.0 / n_d) * params.eta * total
