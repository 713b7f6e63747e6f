"""Mean-field variational inference for the relational topic model.

The variational family factorizes over per-document Dirichlet parameters
gamma and per-term topic simplexes phi (tokens of the same term share
one phi vector), stored as one (nnz, K) array aligned with the
corpus's CSR terms.  Coordinate ascent sweeps documents in index order;
within a document, all phi rows are updated at once from the current
state (one row-wise softmax over the document's terms) followed by
gamma, repeating until the document stabilizes.  The objective is the
evidence lower bound with the expected log link probability summed over
observed links only, so per-sweep link work scales with the number of
links rather than the number of document pairs.

For the sigmoid and probit kinds the link expectation is first-order
(see linkfn); what this module maximizes and reports is that surrogate
bound.  For the exponential kind the link gradient does not read the
document's own phi, so the whole-document update is an exact block
coordinate maximization.  For the other kinds it is a Jacobi update
over the document's rows, damped within each visit wherever it would
lower the document's block objective.  There is one sweep order: every
update reads the live per-document means, so a document visit sees the
neighbors already updated in the same sweep.
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
    phi         (nnz, K) simplex rows aligned with corpus.terms
    phi_bar     (D, K) cached per-document means (1/N_d) sum_n phi_{d,n}
    var_bar     (D, K) cached Var(zbar_{d,i}) = (1/N_d^2) sum_n phi (1 - phi)

    Both caches are filled at construction.  An E-step visit updates
    phi_bar[d] in `set_doc_phi` and var_bar[d] once, when it ends.
    """

    def __init__(self, corpus, gamma, phi):
        self.corpus = corpus
        self.gamma = gamma
        self.phi = phi
        starts = corpus.indptr[:-1]
        n = corpus.lengths[:, None]
        weighted = corpus.counts[:, None] * phi
        self.phi_bar = np.add.reduceat(weighted, starts, axis=0) / n
        self.var_bar = np.add.reduceat(weighted * (1.0 - phi), starts, axis=0) / n**2

    @property
    def num_topics(self):
        return self.gamma.shape[1]

    def set_doc_phi(self, d, phi_block):
        """Write document d's phi rows and recompute phi_bar[d] from them."""
        rows = self.corpus.rows(d)
        self.phi[rows] = phi_block
        counts = self.corpus.counts[rows].astype(np.float64)
        self.phi_bar[d] = counts @ self.phi[rows] / self.corpus.lengths[d]

    def doc_variance(self, d):
        """Document d's var_bar, computed from its current phi rows."""
        rows = self.corpus.rows(d)
        p = self.phi[rows]
        return (self.corpus.counts[rows].astype(np.float64) @ (p * (1.0 - p))
                / self.corpus.lengths[d] ** 2)

    def set_phi(self, d, term_index, new_phi):
        """Replace one term's phi row and recompute the document caches."""
        phi_block = self.phi[self.corpus.rows(d)].copy()
        phi_block[term_index] = new_phi
        self.set_doc_phi(d, phi_block)
        self.var_bar[d] = self.doc_variance(d)


def init_state(corpus, num_topics, alpha, seed, noise=0.01):
    """Initial state: gamma_d = alpha + N_d/K, phi uniform plus seeded noise.

    noise=0 gives exactly uniform phi vectors.  Deterministic given seed.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    rng = np.random.default_rng(seed)
    gamma = np.tile(alpha, (corpus.num_docs, 1)) + corpus.lengths[:, None] / num_topics
    phi = np.full((corpus.terms.shape[0], num_topics), 1.0 / num_topics)
    if noise:
        phi += noise * rng.random(phi.shape) / num_topics
        phi /= phi.sum(axis=1, keepdims=True)
    return VariationalState(corpus, gamma, phi)


def _log_beta_matrix(beta):
    with np.errstate(divide="ignore"):
        return np.where(beta > 0, np.log(np.maximum(beta, 1e-300)), -np.inf)


def _doc_log_beta(log_beta, terms):
    """(T_d, K) rows of log beta for a document's terms; rejects zero columns."""
    lb = log_beta[:, terms].T
    dead = np.isneginf(lb).all(axis=1)
    if dead.any():
        raise ValueError(
            f"beta column {terms[np.argmax(dead)]} is entirely zero (unsmoothed model)")
    return lb


def _phi_update(d, state, params, lb, elog_theta_d):
    """New phi rows for every term of one document, from the current state.

    lb is `_doc_log_beta` of the document's terms.  Each row combines the
    expected log topic proportions, the word evidence, and the gradient
    of each observed link's expected log probability; the link sum
    ranges over the document's observed links only.  Every row reads the
    same state, so the rows are a Jacobi update within the document.
    Returns the new (T_d, K) block without mutating the state.
    """
    corpus = state.corpus
    exponent = elog_theta_d + lb

    link = params.link
    neighbors = corpus.neighbors[d]
    if link is not None and neighbors.size:
        n_d = float(corpus.lengths[d])
        nb_means = state.phi_bar[neighbors]
        if link.kind == "gaussian":
            # per row: the document mean without one token of that term
            phi_minus = state.phi_bar[d] - state.phi[corpus.rows(d)] / n_d
            exponent = exponent + linkfn.grad_phi_gaussian(link, nb_means, phi_minus, n_d)
        else:
            x = nb_means @ (link.eta * state.phi_bar[d]) + link.nu
            coeff = linkfn.gradient_coefficient(link, x)
            exponent = exponent + (coeff @ nb_means) * link.eta / n_d

    exponent = exponent - exponent.max(axis=1, keepdims=True)
    out = np.exp(exponent)
    return out / out.sum(axis=1, keepdims=True)


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


def _bound_parts(corpus, params, state, log_beta, docs):
    """z|theta, word and theta-prior terms and the entropy, over docs.

    docs is a slice [start, stop) of document indices: every document
    for `elbo`, [d, d + 1) for the visit safeguard.
    """
    rows = slice(corpus.indptr[docs.start], corpus.indptr[docs.stop])
    counts = corpus.counts[rows]
    p = state.phi[rows]
    lb = log_beta[:, corpus.terms[rows]].T
    gamma = state.gamma[docs]
    gamma_total = gamma.sum(axis=1)
    elog_theta = psi(gamma) - psi(gamma_total)[:, None]

    z_term = float((corpus.lengths[docs, None] * state.phi_bar[docs] * elog_theta).sum())
    word_term = float((counts * np.where(p > 0, p * lb, 0.0).sum(axis=1)).sum())
    alpha = params.alpha
    theta_prior = float(
        gamma.shape[0] * (gammaln(alpha.sum()) - gammaln(alpha).sum())
        + ((alpha - 1.0) * elog_theta).sum())
    dir_entropy = float(
        (gammaln(gamma).sum(axis=1) - gammaln(gamma_total)).sum()
        - ((gamma - 1.0) * elog_theta).sum())
    mult_entropy = -float((counts * xlogy(p, p).sum(axis=1)).sum())
    return z_term, word_term, theta_prior, dir_entropy + mult_entropy


def elbo(corpus, params, state):
    """Evidence lower bound of the current state under the model.

    The link term sums the expected log link probability over observed
    links only.  The entropy enters with its standard positive sign so
    the total is a genuine lower bound.
    """
    link_term = 0.0
    if params.link is not None and corpus.num_links:
        l1, l2 = corpus.links[:, 0], corpus.links[:, 1]
        vals = linkfn.expected_log_link_batch(
            params.link, state.phi_bar[l1], state.phi_bar[l2],
            state.var_bar[l1], state.var_bar[l2])
        link_term = float(vals.sum())

    z_term, word_term, theta_prior, entropy_term = _bound_parts(
        corpus, params, state, _log_beta_matrix(params.beta),
        slice(0, corpus.num_docs))
    total = link_term + z_term + word_term + theta_prior + entropy_term
    return ElboBreakdown(link_term=link_term, z_given_theta_term=z_term,
                         word_term=word_term, theta_prior_term=theta_prior,
                         entropy_term=entropy_term, total=total)


def _doc_objective(corpus, params, state, d, log_beta):
    """Bound terms that depend on document d's block (phi rows and gamma).

    This is the document's contribution to the global objective being
    ascended, with the neighbors' means held at their current values.
    """
    value = sum(_bound_parts(corpus, params, state, log_beta, slice(d, d + 1)))
    link = params.link
    neighbors = corpus.neighbors[d]
    if link is not None and neighbors.size:
        vals = linkfn.expected_log_link_batch(
            link, state.phi_bar[d], state.phi_bar[neighbors],
            state.doc_variance(d), state.var_bar[neighbors], count=False)
        value += float(vals.sum())
    return value


def _visit_doc(corpus, params, state, d, tol, log_beta, guard):
    """Run the document-local phi/gamma iteration for one document.

    Each iteration replaces every phi row by the whole-document update,
    then gamma.  With guard set, an iteration that would lower the
    document's block objective is geometrically damped toward the rows
    it started from, halving the step until the objective is no worse;
    the step then stays that small for the rest of the visit, and the
    visit ends, keeping the last accepted block, if no step of at least
    1e-4 is.  Damping does not move fixed points.
    """
    rows = corpus.rows(d)
    n_d = float(corpus.lengths[d])
    lb = _doc_log_beta(log_beta, corpus.terms[rows])
    if guard:
        current = _doc_objective(corpus, params, state, d, log_beta)
        slack = 1e-12 * (1.0 + abs(current))
    lam = 1.0
    for _ in range(_DOC_MAX_ITERS):
        old_gamma = state.gamma[d].copy()
        elog_theta_d = psi(old_gamma) - psi(old_gamma.sum())
        new_phi = _phi_update(d, state, params, lb, elog_theta_d)
        if not guard:
            state.set_doc_phi(d, new_phi)
            state.gamma[d] = update_gamma(d, state, params.alpha)
        else:
            old_phi = state.phi[rows].copy()
            while lam >= 1e-4:
                mix = old_phi ** (1.0 - lam) * new_phi ** lam
                state.set_doc_phi(d, mix / mix.sum(axis=1, keepdims=True))
                state.gamma[d] = update_gamma(d, state, params.alpha)
                value = _doc_objective(corpus, params, state, d, log_beta)
                if value >= current - slack:
                    break
                lam *= 0.5
            else:
                state.set_doc_phi(d, old_phi)
                state.gamma[d] = old_gamma
                break
            current = value
        change = float(np.abs(state.gamma[d] - old_gamma).mean()) / n_d
        if change < tol:
            break
    state.var_bar[d] = state.doc_variance(d)


def _sweep(corpus, params, state, tol):
    """One full coordinate-ascent pass over all documents, in index order.

    For the sigmoid, probit, and gaussian kinds the link gradient reads
    the document's own mean, which the whole-document update takes from
    the start of each iteration (and sigmoid and probit also linearize
    the link), so an iteration can overshoot.  Those visits are
    safeguarded iteration by iteration (see `_visit_doc`), so a visit
    never lowers the document's block objective.  The exponential kind
    is an exact block coordinate maximization and needs no safeguard.
    """
    log_beta = _log_beta_matrix(params.beta)
    guarded = params.link is not None and params.link.kind != "exponential"
    for d in range(corpus.num_docs):
        _visit_doc(corpus, params, state, d, tol, log_beta,
                   guard=guarded and corpus.neighbors[d].size > 0)


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
