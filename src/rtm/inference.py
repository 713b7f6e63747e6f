"""Mean-field variational inference for the relational topic model.

The variational family factorizes over per-document Dirichlet parameters
gamma and per-term topic simplexes phi (tokens of the same term share
one phi vector).  Coordinate ascent sweeps documents in index order;
within a document, phi vectors are updated in term-id order followed by
gamma, repeating until the document stabilizes.  The objective is the
evidence lower bound with the expected log link probability summed over
observed links only, so per-sweep link work scales with the number of
links rather than the number of document pairs.

For the sigmoid and probit kinds the link expectation is first-order
(see linkfn); what this module maximizes and reports is that surrogate
bound.  For the exponential and gaussian kinds the expectation is exact
and each per-term update is an exact coordinate maximization.  There is
one sweep order: every update reads the live per-document means, so a
document visit sees the neighbors already updated in the same sweep.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi, xlogy

from . import linkfn

_DOC_MAX_ITERS = 20


@dataclass
class ModelParams:
    """Model parameters: topics, Dirichlet prior, and link function.

    beta is a K x V row-stochastic topic matrix, alpha a positive
    K-vector, link a linkfn.LinkParams or None for a pure topic model
    with no link component.
    """

    beta: np.ndarray
    alpha: np.ndarray
    link: linkfn.LinkParams | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.beta.ndim != 2:
            raise ValueError("beta must be a K x V matrix")
        if self.alpha.shape != (self.beta.shape[0],):
            raise ValueError("alpha must have one entry per topic")
        if np.any(self.alpha <= 0):
            raise ValueError("alpha must be positive")
        rows = self.beta.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-8):
            raise ValueError("beta rows must sum to 1")
        if self.link is not None and self.link.eta.shape[0] != self.beta.shape[0]:
            raise ValueError("link coefficient length must equal the topic count")

    @property
    def num_topics(self):
        return self.beta.shape[0]

    @property
    def num_terms(self):
        return self.beta.shape[1]


class VariationalState:
    """Variational parameters for one corpus.

    gamma       (D, K) positive Dirichlet parameters
    phi         list of (T_d, K) simplex rows, aligned with corpus.doc_terms[d]
    phi_bar     (D, K) cached per-document means (1/N_d) sum_n phi_{d,n}
    var_bar     (D, K) cached Var(zbar_{d,i}) = (1/N_d^2) sum_n phi (1 - phi)
    """

    def __init__(self, corpus, gamma, phi):
        self.corpus = corpus
        self.gamma = gamma
        self.phi = phi
        self.phi_bar = np.empty((corpus.num_docs, gamma.shape[1]))
        self.var_bar = np.empty_like(self.phi_bar)
        for d in range(corpus.num_docs):
            self.refresh_doc_caches(d)

    @property
    def num_topics(self):
        return self.gamma.shape[1]

    def refresh_doc_caches(self, d):
        counts = self.corpus.doc_counts[d].astype(np.float64)
        n = counts.sum()
        p = self.phi[d]
        self.phi_bar[d] = counts @ p / n
        self.var_bar[d] = counts @ (p * (1.0 - p)) / n**2

    def set_phi(self, d, term_index, new_phi):
        """Replace one term's phi row and update the document caches."""
        counts = self.corpus.doc_counts[d]
        n = float(self.corpus.lengths[d])
        c = float(counts[term_index])
        old = self.phi[d][term_index]
        self.phi_bar[d] += (c / n) * (new_phi - old)
        self.var_bar[d] += (c / n**2) * (new_phi * (1.0 - new_phi) - old * (1.0 - old))
        self.phi[d][term_index] = new_phi


def init_state(corpus, num_topics, alpha, seed, noise=0.01):
    """Initial state: gamma_d = alpha + N_d/K, phi uniform plus seeded noise.

    noise=0 gives exactly uniform phi vectors.  Deterministic given seed.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    rng = np.random.default_rng(seed)
    d = corpus.num_docs
    gamma = np.tile(alpha, (d, 1)) + corpus.lengths[:, None] / num_topics
    phi = []
    for terms in corpus.doc_terms:
        p = np.full((terms.shape[0], num_topics), 1.0 / num_topics)
        if noise:
            p += noise * rng.random((terms.shape[0], num_topics)) / num_topics
            p /= p.sum(axis=1, keepdims=True)
        phi.append(p)
    return VariationalState(corpus, gamma, phi)


def _log_beta_matrix(beta):
    with np.errstate(divide="ignore"):
        return np.where(beta > 0, np.log(np.maximum(beta, 1e-300)), -np.inf)


def _phi_update(d, term_index, state, params, log_beta, elog_theta_d):
    """New simplex vector for one term of one document.

    Combines the expected log topic proportions, the word evidence, and
    the gradient of each observed link's expected log probability; the
    link sum ranges over the document's observed links only.  Returns
    the new simplex vector without mutating the state.
    """
    corpus = state.corpus
    term = corpus.doc_terms[d][term_index]
    col = log_beta[:, term]
    if np.isneginf(col).all():
        raise ValueError(
            f"beta column {term} is entirely zero (unsmoothed model)")
    exponent = elog_theta_d + col

    link = params.link
    neighbors = corpus.neighbors[d]
    if link is not None and neighbors.size:
        n_d = float(corpus.lengths[d])
        nb_means = state.phi_bar[neighbors]
        if link.kind == "gaussian":
            phi_minus = state.phi_bar[d] - state.phi[d][term_index] / n_d
            total = nb_means.sum(axis=0) - neighbors.size * (phi_minus + 0.5 / n_d)
            exponent = exponent + (2.0 / n_d) * link.eta * total
        else:
            x = nb_means @ (link.eta * state.phi_bar[d]) + link.nu
            coeff = linkfn.gradient_coefficient(link, x)
            exponent = exponent + (coeff @ nb_means) * link.eta / n_d

    exponent = exponent - exponent.max()
    out = np.exp(exponent)
    return out / out.sum()


def update_gamma(d, state, alpha):
    """gamma_d = alpha + token-weighted sum of the document's phi vectors."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return alpha + state.corpus.lengths[d] * state.phi_bar[d]


@dataclass
class ElboBreakdown:
    """Evidence lower bound split into its five additive parts."""

    link_term: float
    z_given_theta_term: float
    word_term: float
    theta_prior_term: float
    entropy_term: float
    total: float


def _doc_word_and_entropy(corpus, state, d, log_beta):
    """Document d's word term and the entropy of its phi rows."""
    terms, counts = corpus.doc(d)
    p = state.phi[d]
    lb = log_beta[:, terms].T
    word = float((counts * np.where(p > 0, p * lb, 0.0).sum(axis=1)).sum())
    return word, -float((counts * xlogy(p, p).sum(axis=1)).sum())


def elbo(corpus, params, state):
    """Evidence lower bound of the current state under the model.

    The link term sums the expected log link probability over observed
    links only.  The entropy enters with its standard positive sign so
    the total is a genuine lower bound.
    """
    gamma = state.gamma
    alpha = params.alpha
    elog_theta = psi(gamma) - psi(gamma.sum(axis=1))[:, None]

    link_term = 0.0
    if params.link is not None and corpus.num_links:
        l1, l2 = corpus.links[:, 0], corpus.links[:, 1]
        vals = linkfn.expected_log_link_batch(
            params.link, state.phi_bar[l1], state.phi_bar[l2],
            state.var_bar[l1], state.var_bar[l2])
        link_term = float(vals.sum())

    z_term = float((corpus.lengths[:, None] * state.phi_bar * elog_theta).sum())

    log_beta = _log_beta_matrix(params.beta)
    word_term = 0.0
    mult_entropy = 0.0
    for d in range(corpus.num_docs):
        word, entropy = _doc_word_and_entropy(corpus, state, d, log_beta)
        word_term += word
        mult_entropy += entropy

    theta_prior = float(
        corpus.num_docs * (gammaln(alpha.sum()) - gammaln(alpha).sum())
        + ((alpha - 1.0) * elog_theta).sum())

    gamma_total = gamma.sum(axis=1)
    dir_entropy = float(
        (gammaln(gamma).sum(axis=1) - gammaln(gamma_total)).sum()
        - ((gamma - 1.0) * elog_theta).sum())
    entropy_term = dir_entropy + mult_entropy

    total = link_term + z_term + word_term + theta_prior + entropy_term
    return ElboBreakdown(link_term=link_term, z_given_theta_term=z_term,
                         word_term=word_term, theta_prior_term=theta_prior,
                         entropy_term=entropy_term, total=total)


def _doc_objective(corpus, params, state, d, log_beta):
    """Bound terms that depend on document d's block (phi rows and gamma).

    This is the document's contribution to the global objective being
    ascended, with the neighbors' means held at their current values.
    """
    gamma_d = state.gamma[d]
    elog = psi(gamma_d) - psi(gamma_d.sum())
    word, entropy = _doc_word_and_entropy(corpus, state, d, log_beta)
    value = word
    value += float(corpus.lengths[d] * (state.phi_bar[d] @ elog))
    value += entropy
    alpha = params.alpha
    value += float((alpha - 1.0) @ elog)
    value += float(gammaln(gamma_d).sum() - gammaln(gamma_d.sum())
                   - (gamma_d - 1.0) @ elog)
    link = params.link
    neighbors = corpus.neighbors[d]
    if link is not None and neighbors.size:
        vals = linkfn.expected_log_link_batch(
            link, state.phi_bar[d], state.phi_bar[neighbors],
            state.var_bar[d], state.var_bar[neighbors], count=False)
        value += float(vals.sum())
    return value


def _set_doc_phi(state, d, phi_block):
    state.phi[d][:, :] = phi_block
    state.refresh_doc_caches(d)


def _visit_doc(corpus, params, state, d, tol, log_beta):
    """Run the document-local phi/gamma iteration for one document."""
    n_d = float(corpus.lengths[d])
    for _ in range(_DOC_MAX_ITERS):
        elog_theta_d = psi(state.gamma[d]) - psi(state.gamma[d].sum())
        for t in range(corpus.doc_terms[d].shape[0]):
            new = _phi_update(d, t, state, params, log_beta, elog_theta_d)
            state.set_phi(d, t, new)
        new_gamma = update_gamma(d, state, params.alpha)
        change = float(np.abs(new_gamma - state.gamma[d]).mean()) / n_d
        state.gamma[d] = new_gamma
        if change < tol:
            break
    state.refresh_doc_caches(d)


def _sweep(corpus, params, state, tol):
    """One full coordinate-ascent pass over all documents, in index order.

    For the sigmoid, probit, and gaussian kinds the per-term updates
    linearize the link contribution, so a document visit can overshoot.
    Those visits are safeguarded: if the document's block objective
    drops, the move is geometrically damped toward the previous block
    until the objective is no worse (fixed points are unaffected).  The
    exponential kind is an exact per-term coordinate maximization and
    needs no safeguard.
    """
    log_beta = _log_beta_matrix(params.beta)
    guarded = (params.link is not None and params.link.kind != "exponential"
               and corpus.num_links > 0)

    for d in range(corpus.num_docs):
        guard = guarded and corpus.neighbors[d].size
        if guard:
            before = _doc_objective(corpus, params, state, d, log_beta)
            old_phi = state.phi[d].copy()
        _visit_doc(corpus, params, state, d, tol, log_beta)
        if not guard:
            continue
        slack = 1e-12 * (1.0 + abs(before))
        after = _doc_objective(corpus, params, state, d, log_beta)
        if after >= before - slack:
            continue
        new_phi = state.phi[d].copy()
        lam = 0.5
        accepted = False
        while lam > 1e-4:
            mix = old_phi ** (1.0 - lam) * new_phi ** lam
            mix /= mix.sum(axis=1, keepdims=True)
            _set_doc_phi(state, d, mix)
            state.gamma[d] = update_gamma(d, state, params.alpha)
            value = _doc_objective(corpus, params, state, d, log_beta)
            if value >= before - slack:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            _set_doc_phi(state, d, old_phi)
            state.gamma[d] = update_gamma(d, state, params.alpha)


def run_e_step(corpus, params, state, tol=1e-6, max_sweeps=100, trace_stream=None):
    """Coordinate ascent to convergence; returns (state, elbo trace).

    Terminates when the relative bound change between sweeps drops below
    tol or max_sweeps is reached.  The trace holds the bound before any
    update followed by one value per sweep.  Deterministic, with fixed
    summation order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def record(value):
        if trace_stream is not None:
            trace_stream.write(f"{value:.10f}\n")

    current = elbo(corpus, params, state).total
    if not np.isfinite(current):
        raise FloatingPointError(f"non-finite ELBO at E-step start: {current}")
    trace = [current]
    record(current)
    for _ in range(max_sweeps):
        _sweep(corpus, params, state, tol)
        value = elbo(corpus, params, state).total
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite ELBO during E-step: {value}")
        trace.append(value)
        record(value)
        if abs(value - current) <= tol * max(1.0, abs(current)):
            break
        current = value
    return state, trace
