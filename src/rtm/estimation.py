"""Parameter estimation: topic matrix and link coefficients, plus the EM driver.

Topics are re-estimated from expected token-topic counts with pseudocount
smoothing.  Link coefficients are a one-class problem (only positive
links are observed), so each kind carries its own regularization:

  sigmoid/probit  gradient ascent on the expected log likelihood of the
                  observed links plus rho pseudo non-links placed at the
                  prior-mean covariate, optionally with an l2 penalty
  exponential     closed-form updates from a linear approximation of the
                  non-link log probability, exact at the covariate
                  extremes; always yields admissible parameters
  gaussian        moment matching of the per-component squared
                  differences, with the intercept set from the
                  probability mass budget and floored at zero

`fit_link` is the one link M-step: the EM driver `fit` calls it after
each E-step, and LDA+regression (`baselines.fit_link_regression`) calls
it once on frozen LDA posteriors.  The per-kind link formulas it needs
come from `linkfn`.  The EM driver alternates the coordinate-ascent
E-step with these updates until the bound stabilizes.
"""

import os
import tempfile

from dataclasses import dataclass, field

import numpy as np

from . import inference, linkfn
from .inference import ModelParams

_GRAD_TOL = 1e-6
_MAX_ASCENT_ITERS = 500
_INITIAL_STEP = 0.1
_LOG_CLAMP = 1e-10


@dataclass
class RegularizationConfig:
    """Link regularization: rho pseudo non-links, l2 weight, beta smoothing.

    rho=None defaults to the number of observed links at fit time, which
    keeps positive and pseudo-negative evidence balanced across corpus
    sizes.  Sigmoid/probit fits require rho > 0 or lam > 0; without
    either the one-class gradients diverge.  lam reaches only their
    ascent (and so LDA+regression's); the exponential and gaussian
    updates do not read it.
    """

    rho: float | None = None
    lam: float = 0.0
    smoothing: float = 0.01

    def __post_init__(self):
        if self.rho is not None and not 0 <= self.rho < np.inf:
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0 < self.smoothing < np.inf:
            raise ValueError(f"smoothing must be finite and > 0, got {self.smoothing}")

    def resolved(self, num_links):
        rho = float(num_links) if self.rho is None else float(self.rho)
        return RegularizationConfig(rho=rho, lam=self.lam, smoothing=self.smoothing)


@dataclass
class SufficientStats:
    """Link-side expected sufficient statistics of a variational state."""

    num_links: int
    pi_bar_sum: np.ndarray
    pi_alpha: np.ndarray
    sq_diff_sum: np.ndarray


def prior_pair_covariate(alpha):
    """Expected pair covariate of two documents drawn from the prior."""
    alpha = np.asarray(alpha, dtype=np.float64)
    mean = alpha / alpha.sum()
    return mean * mean


def collect_stats(corpus, state, alpha):
    """Accumulate link sufficient statistics in fixed (sorted-link) order."""
    l1, l2 = corpus.links[:, 0], corpus.links[:, 1]
    diff = state.phi_bar[l1] - state.phi_bar[l2]
    return SufficientStats(num_links=corpus.num_links,
                           pi_bar_sum=(state.phi_bar[l1] * state.phi_bar[l2]).sum(axis=0),
                           pi_alpha=prior_pair_covariate(alpha),
                           sq_diff_sum=(diff * diff).sum(axis=0))


def update_beta(corpus, state, smoothing):
    """Smoothed topic update: beta_{k,w} proportional to s + expected counts."""
    beta = np.full((state.num_topics, corpus.num_terms), float(smoothing))
    np.add.at(beta.T, corpus.terms, corpus.counts[:, None] * state.phi)
    return beta / beta.sum(axis=1, keepdims=True)


def link_regularizer(link, rho, lam, pi_alpha):
    """Additive regularization term of the link M-step objective.

    For sigmoid and probit this is rho pseudo non-links at the prior
    covariate, rho log(1 - F(x_alpha)) = rho log F(-x_alpha), minus the
    l2 penalty lam ||eta||^2.  Only their ascent reads lam.  For the
    exponential kind it is the linearized non-link penalty, which is
    -inf on the admissibility boundary (nu = 0 or some eta_i + nu = 0)
    and beyond it, unless rho = 0; its closed-form update maximizes this
    term plus the links' log probabilities.  The gaussian kind has no
    additive penalty (rho enters through its intercept update), so 0 is
    returned.
    """
    if link is None or link.kind == "gaussian":
        return 0.0
    if link.kind in ("sigmoid", "probit"):
        x_alpha = float(link.eta @ pi_alpha + link.nu)
        return -lam * float(link.eta @ link.eta) + rho * float(linkfn.log_link(link, -x_alpha))
    # exponential: exact-at-the-extremes linear surrogate of log(1 - psi)
    if link.nu >= 0 or np.any(link.eta + link.nu >= 0):
        return -np.inf if rho > 0 else 0.0
    nu_lin = np.log1p(-np.exp(link.nu))
    eta_lin = np.log1p(-np.exp(link.eta + link.nu)) - nu_lin
    return rho * float(pi_alpha @ eta_lin + nu_lin)


def regularized_link_objective(link, pi_bar_links, rho, lam, pi_alpha):
    """One-class M-step objective: the observed links' log probabilities
    at covariates pi_bar_links plus the link regularizer."""
    x = pi_bar_links @ link.eta + link.nu
    return float(linkfn.log_link(link, x).sum()) + link_regularizer(link, rho, lam, pi_alpha)


def regularized_link_gradient(link, pi_bar_links, rho, lam, pi_alpha):
    """Gradient of the objective above with respect to (eta, nu), for the
    sigmoid and probit kinds."""
    x = pi_bar_links @ link.eta + link.nu
    x_alpha = float(link.eta @ pi_alpha + link.nu)
    coeff = linkfn.gradient_coefficient(link, x)
    reg_coeff = -rho * float(linkfn.gradient_coefficient(link, -x_alpha))
    grad_eta = coeff @ pi_bar_links + reg_coeff * pi_alpha - 2.0 * lam * link.eta
    grad_nu = float(coeff.sum()) + reg_coeff
    return grad_eta, grad_nu


def fit_link_sigmoid_probit(link, pi_bar_links, reg, alpha):
    """Maximize the regularized one-class objective by backtracking ascent.

    Ascends from link, whose kind (sigmoid or probit) it keeps, so each
    EM iteration's M-step is an ascent step from the previous
    parameters.  Stops when the gradient infinity norm drops below 1e-6
    or after 500 iterations.  The cap binds: on 32-document training
    views of sigmoid draws (K=10), every sigmoid and probit M-step of a
    30-iteration fit, and every LDA+regression fit, ran all 500
    iterations without reaching the gradient test.
    """
    if link.kind not in ("sigmoid", "probit"):
        raise ValueError(f"kind must be sigmoid or probit, got {link.kind!r}")
    if reg.rho is None:
        raise ValueError("rho must be resolved before fitting")
    if reg.rho <= 0 and reg.lam <= 0:
        raise ValueError(
            "one-class estimation requires rho > 0 or lam > 0; the "
            "unregularized objective is unbounded above")
    pi_alpha = prior_pair_covariate(alpha)
    pi_bar_links = np.asarray(pi_bar_links, dtype=np.float64).reshape(-1, pi_alpha.shape[0])

    current = regularized_link_objective(link, pi_bar_links, reg.rho, reg.lam, pi_alpha)
    if not np.isfinite(current):
        raise FloatingPointError("non-finite link objective at start")
    for _ in range(_MAX_ASCENT_ITERS):
        g_eta, g_nu = regularized_link_gradient(link, pi_bar_links, reg.rho, reg.lam,
                                                pi_alpha)
        if max(np.abs(g_eta).max(initial=0.0), abs(g_nu)) < _GRAD_TOL:
            break
        step = _INITIAL_STEP
        while step >= 1e-16:
            cand = linkfn.LinkParams(eta=link.eta + step * g_eta,
                                     nu=link.nu + step * g_nu, kind=link.kind)
            value = regularized_link_objective(cand, pi_bar_links, reg.rho, reg.lam,
                                               pi_alpha)
            if np.isfinite(value) and value >= current:
                link, current = cand, value
                break
            step *= 0.5
        else:
            break   # no step size improves the objective
    return link


def fit_link_exponential(stats, rho):
    """Closed-form exponential-kind update; always admissible.

    nu = log(M - sum Pi) - log(rho (1 - sum pi_alpha) + M - sum Pi)
    eta = log Pi - log(Pi + rho pi_alpha) - nu
    with small clamps before the logarithms to guard boundary corpora.
    """
    if stats.num_links == 0:
        raise ValueError("exponential link update requires at least one link")
    m = float(stats.num_links)
    pi_sum = np.maximum(stats.pi_bar_sum, _LOG_CLAMP)
    residual = max(m - float(stats.pi_bar_sum.sum()), _LOG_CLAMP)
    nu = np.log(residual) - np.log(rho * (1.0 - float(stats.pi_alpha.sum())) + residual)
    eta = np.log(pi_sum) - np.log(pi_sum + rho * stats.pi_alpha) - nu
    return linkfn.LinkParams(eta=eta, nu=float(nu), kind="exponential")


def fit_link_gaussian(stats, rho):
    """Moment-matching gaussian-kind update.

    eta matches the per-component observed squared differences; nu
    equates the probability mass budget with rho pseudo non-links and is
    floored at zero to keep the link probability within [0, 1].
    """
    if stats.num_links == 0:
        raise ValueError("gaussian link update requires at least one link")
    m = float(stats.num_links)
    sq = np.maximum(stats.sq_diff_sum, _LOG_CLAMP)
    eta = np.maximum(m / (2.0 * sq), 1e-8)
    nu = (np.log(0.5) + 0.5 * eta.shape[0] * np.log(np.pi)
          + np.log(rho + m) - np.log(m) - 0.5 * float(np.log(eta).sum()))
    return linkfn.LinkParams(eta=eta, nu=max(0.0, float(nu)), kind="gaussian")


def fit_link(corpus, state, alpha, reg, link):
    """Link M-step from the variational state, for the kind of link.

    Serves both the RTM's EM iterations and LDA+regression.  Sigmoid and
    probit ascend from link; without observed links, link is returned.
    reg must be resolved.
    """
    stats = collect_stats(corpus, state, alpha)
    if stats.num_links == 0:
        return link
    if link.kind == "exponential":
        return fit_link_exponential(stats, reg.rho)
    if link.kind == "gaussian":
        return fit_link_gaussian(stats, reg.rho)
    l1, l2 = corpus.links[:, 0], corpus.links[:, 1]
    return fit_link_sigmoid_probit(link, state.phi_bar[l1] * state.phi_bar[l2], reg, alpha)


@dataclass
class FittedModel:
    """Estimated parameters plus fit metadata for persistence and prediction."""

    params: ModelParams
    kind: str
    config: dict
    elbo_trace: list = field(default_factory=list)


def em_objective(corpus, params, state, reg):
    """Bound plus regularization terms; the quantity the EM steps ascend.

    Adds the link regularizer and the smoothing prior on beta to the
    bound, so that both M-step updates are ascent steps of a single
    objective (exactly so for the exponential kind).
    """
    value = inference.elbo(corpus, params, state).total
    value += link_regularizer(params.link, reg.rho, reg.lam,
                              prior_pair_covariate(params.alpha))
    value += reg.smoothing * float(np.log(np.maximum(params.beta, 1e-300)).sum())
    return value


def fit(corpus, num_topics, kind="exponential", alpha_total=1.0,
        reg=None, seed=42, em_iters=30, tol=1e-6):
    """Variational EM: alternate the E-step with the M-step updates.

    kind selects the link probability function, or None for a pure topic
    model that ignores links entirely.  The bound after every full EM
    iteration is recorded in the model's elbo_trace; iteration stops when
    its relative change drops below tol or em_iters is reached.
    Deterministic given seed, which draws the starting beta.

    alpha is symmetric with total mass alpha_total; it is held fixed.
    num_topics and em_iters must be at least 1, alpha_total positive and
    finite, and tol finite and >= 0; at tol = 0 only an unchanged bound
    stops EM before em_iters.
    """
    if kind is not None and kind not in linkfn.KINDS:
        raise ValueError(f"unknown link function kind: {kind!r}")
    if num_topics < 1:
        raise ValueError(f"num_topics must be at least 1, got {num_topics}")
    if em_iters < 1:
        raise ValueError(f"em_iters must be at least 1, got {em_iters}")
    if not 0 < alpha_total < np.inf:
        raise ValueError(f"alpha_total must be finite and > 0, got {alpha_total}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    reg = (reg or RegularizationConfig()).resolved(corpus.num_links)
    alpha = np.full(num_topics, alpha_total / num_topics)

    rng = np.random.default_rng(seed)
    beta = 1.0 + rng.random((num_topics, corpus.num_terms))
    beta /= beta.sum(axis=1, keepdims=True)
    link = None
    if kind is not None:
        link = linkfn.LinkParams(eta=np.zeros(num_topics), nu=0.0, kind=kind)
    params = ModelParams(beta=beta, alpha=alpha, link=link)
    state = inference.init_state(corpus, num_topics, alpha)

    config = {"num_topics": num_topics, "kind": kind, "alpha_total": alpha_total,
              "rho": reg.rho, "lam": reg.lam, "smoothing": reg.smoothing,
              "em_iters": em_iters, "tol": tol}

    trace = []
    previous = None
    for _ in range(em_iters):
        # previous is the bound of this state under these parameters
        state, _ = inference.run_e_step(corpus, params, state, start_bound=previous)
        beta = update_beta(corpus, state, reg.smoothing)
        link = params.link
        if link is not None:
            link = fit_link(corpus, state, alpha, reg, link)
        params = ModelParams(beta=beta, alpha=alpha, link=link)
        value = inference.elbo(corpus, params, state).total
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite bound after EM iteration: {value}")
        trace.append(value)
        if previous is not None and abs(value - previous) <= tol * max(1.0, abs(previous)):
            break
        previous = value

    return FittedModel(params=params, kind=kind if kind is not None else "lda",
                       config=config, elbo_trace=trace)


# --- model persistence ----------------------------------------------------

_MAGIC = "rtm-model v1"
_BASELINE_KINDS = ("lda", "lda_regression", "unigram")


def save_model(model, path):
    """Write the plain-text model file atomically.

    The file has 4 + K lines: `rtm-model v1`; `K V kind alpha_total
    smoothing`; nu; the K link coefficients eta; then one line of V
    log topic-word probabilities per topic.  Kinds without a link
    component write nu = 0 and eta = 0.  An entry may be -inf (zero beta,
    an unsmoothed model): the E-step rejects a corpus term with zero beta
    in some topic, a held-out query a term with zero beta in every topic.

    The text goes to a uniquely named temp file in the target directory
    (created by tempfile.mkstemp, so readable by its owner only), which
    is flushed to disk and then renamed over path.  Concurrent writers
    never share a temp file, and on failure the temp file is removed.
    An OSError names path, not the temp file.
    """
    params = model.params
    k, v = params.beta.shape
    alpha_total = float(params.alpha.sum())
    smoothing = float(model.config.get("smoothing", 0.01))
    if params.link is not None:
        nu = params.link.nu
        eta = params.link.eta
    else:
        nu = 0.0
        eta = np.zeros(k)
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=os.path.dirname(os.path.abspath(path)))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(_MAGIC + "\n")
                fh.write(f"{k} {v} {model.kind} {alpha_total:.17g} {smoothing:.17g}\n")
                fh.write(f"{nu:.17g}\n")
                fh.write(" ".join(f"{x:.17g}" for x in eta) + "\n")
                # one format per row: the same text as f"{x:.17g}" for each entry
                row_format = " ".join(["%.17g"] * v) + "\n"
                for row in params.log_beta.tolist():
                    fh.write(row_format % tuple(row))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # mkstemp and os.replace name the temp file; the error is about path
        raise OSError(exc.errno, exc.strerror or str(exc), path) from None


def load_model(path):
    """Read a model file back.

    Validates the header, the link coefficients for the file's kind
    (finite, and admissible for the exponential and gaussian kinds) and
    the row normalization.  Every parse or validation error is one
    ValueError line that starts with path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_model(fh.read().splitlines())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_model(lines):
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"not a model file (missing '{_MAGIC}' header)")
    if len(lines) < 4:
        raise ValueError("truncated model file: fewer than 4 lines")
    header = lines[1].split()
    if len(header) != 5:
        raise ValueError("malformed model header")
    k, v, kind = int(header[0]), int(header[1]), header[2]
    alpha_total, smoothing = float(header[3]), float(header[4])
    if kind not in linkfn.KINDS + _BASELINE_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    for name, value in (("alpha_total", alpha_total), ("smoothing", smoothing)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    nu = float(lines[2])
    eta = np.array([float(x) for x in lines[3].split()])
    if eta.shape != (k,):
        raise ValueError(f"expected {k} link coefficients")
    if len(lines) < 4 + k:
        raise ValueError(f"truncated model file: fewer than {4 + k} lines "
                         f"for {k} topic rows")
    log_beta = np.array([[float(x) for x in lines[4 + i].split()] for i in range(k)])
    if log_beta.shape != (k, v):
        raise ValueError("topic matrix shape mismatch")
    beta = np.exp(log_beta)
    rows = beta.sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= 1e-8):
        raise ValueError("topic rows not normalized within 1e-8")
    beta /= rows[:, None]

    link = None
    if kind in linkfn.KINDS or kind == "lda_regression":
        link = linkfn.LinkParams(eta=eta, nu=nu,
                                 kind="sigmoid" if kind == "lda_regression" else kind)
        link.check_admissible()
    alpha = np.full(k, alpha_total / k)
    params = ModelParams(beta=beta, alpha=alpha, link=link)
    return FittedModel(params=params, kind=kind,
                       config={"alpha_total": alpha_total, "smoothing": smoothing})
