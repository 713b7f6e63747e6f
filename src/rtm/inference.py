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

A document's update reads only its own rows and the means of its linked
neighbors, so a sweep runs as a wavefront.  Documents are grouped into
levels: level[d] is 1 + the highest level of a lower-indexed neighbor of
d, or 0 if there is none.  No two documents of a level are linked, every
lower-indexed neighbor of a document sits in an earlier level and every
higher-indexed one in a later level.  Updating the levels in turn, all
documents of a level together, therefore gives each document exactly
the values that the index-order sweep gives it.  Each iteration of a
level is one array step over the level's still-active documents; every
document keeps its own convergence test, iteration cap and damping step.
Every kind's link gradient is proportional to eta, so at eta = 0 (where
each fit starts) no document reads another: the sweep is then one level
of all documents, unguarded, as it is without a link component.

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

import logging

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, psi, xlogy

from . import linkfn

logger = logging.getLogger(__name__)

_DOC_MAX_ITERS = 20


@dataclass
class ModelParams:
    """Model parameters: topics, Dirichlet prior, and link function.

    beta is a K x V row-stochastic topic matrix, alpha a positive
    K-vector, link a linkfn.LinkParams or None for a pure topic model
    with no link component.  The instance keeps its own read-only copy
    of beta and computes log_beta from it once.
    """

    beta: np.ndarray
    alpha: np.ndarray
    link: linkfn.LinkParams | None = None
    log_beta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.beta = np.array(self.beta, dtype=np.float64)
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
        self.beta.flags.writeable = False
        self.log_beta = _log_beta_matrix(self.beta)
        self.log_beta.flags.writeable = False

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

    Both caches are filled at construction.  An E-step writes a
    document's phi rows, gamma and both caches once per sweep, when the
    document's visit ends.
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

    def set_phi(self, d, term_index, new_phi):
        """Replace one term's phi row and recompute the document caches."""
        rows = self.corpus.rows(d)
        p = self.phi[rows]
        p[term_index] = new_phi
        counts = self.corpus.counts[rows].astype(np.float64)
        n = self.corpus.lengths[d]
        self.phi_bar[d] = counts @ p / n
        self.var_bar[d] = counts @ (p * (1.0 - p)) / n**2


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


def update_gamma(d, state, alpha):
    """gamma_d = alpha + token-weighted sum of the document's phi vectors."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return alpha + state.corpus.lengths[d] * state.phi_bar[d]


# --- documents updated together -------------------------------------------

#: the arrays of a _Block, by what they have one entry for
_FIELDS = {
    **dict.fromkeys(("docs", "n", "num_rows", "num_pairs", "guard", "gamma", "phi_bar",
                     "nb_sum", "lam", "objective", "slack"), "doc"),
    **dict.fromkeys(("rows", "counts", "lb", "phi", "link_rows"), "row"),
    **dict.fromkeys(("neighbors", "nb_means", "nb_var"), "pair"),
}


class _Block:
    """A set of documents updated together, with their phi rows and links.

    Each array in `_FIELDS` has one entry per document, per phi row, or
    per (document, neighbor) pair, in document order.  docs, rows and
    neighbors are corpus indices; row_doc and pair_doc give the position
    in the block of the document that owns each row and pair, and
    guarded whether any document is safeguarded.  `take` keeps a subset
    of the documents with their rows and pairs.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)
        positions = np.arange(self.docs.shape[0])
        self.row_doc = np.repeat(positions, self.num_rows)
        self.starts = np.cumsum(self.num_rows) - self.num_rows
        self.pair_doc = np.repeat(positions, self.num_pairs)
        self.linked = self.num_pairs > 0
        self.pair_starts = (np.cumsum(self.num_pairs) - self.num_pairs)[self.linked]
        self.guarded = bool(self.guard.any())

    def take(self, keep):
        """The documents where the boolean array keep is set."""
        masks = {"doc": keep, "row": keep[self.row_doc], "pair": keep[self.pair_doc]}
        return _Block(**{name: value[masks[_FIELDS[name]]]
                         for name, value in vars(self).items() if name in _FIELDS})

    def replace(self, **arrays):
        """The same documents with the given arrays added or replaced."""
        block = object.__new__(_Block)
        block.__dict__.update(vars(self), **arrays)
        return block

    def row_sum(self, values):
        """Per-document sums of per-row values."""
        return np.add.reduceat(values, self.starts, axis=0)

    def pair_sum(self, values):
        """Per-document sums of per-pair values, 0 for a document without links.

        np.add.reduceat alone would give an empty run the next element.
        """
        out = np.zeros(self.linked.shape + values.shape[1:])
        if self.pair_starts.size:
            out[self.linked] = np.add.reduceat(values, self.pair_starts, axis=0)
        return out

    def mean(self, phi):
        """phi_bar of each document from its rows."""
        return self.row_sum(self.counts[:, None] * phi) / self.n[:, None]

    def variance(self, phi):
        """var_bar of each document from its rows."""
        return self.row_sum(self.counts[:, None] * (phi * (1.0 - phi))) / self.n[:, None] ** 2


def _levels(corpus):
    """Wavefront level of every document (see the module docstring)."""
    level = []
    for d, ns in enumerate(corpus.neighbors):
        lower = ns[:np.searchsorted(ns, d)].tolist()
        level.append(1 + max((level[n] for n in lower), default=-1))
    return np.array(level, dtype=np.int64)


def _corpus_block(corpus, params):
    """Every document as one _Block; rejects all-zero beta columns.

    Without a link component, or with an all-zero eta, no document reads
    another, so the block has no pairs: every kind's link gradient is
    proportional to eta.  A document is safeguarded (guard) when the link
    gradient reads its own mean, that is for every kind but exponential,
    and it has pairs.
    """
    lb = params.log_beta[:, corpus.terms].T
    dead = np.isneginf(lb).all(axis=1)
    if dead.any():
        raise ValueError(
            f"beta column {corpus.terms[np.argmax(dead)]} is entirely zero (unsmoothed model)")
    link = params.link
    coupled = link is not None and link.eta.any()
    neighbors = corpus.neighbors if coupled else [np.zeros(0, np.int64)] * corpus.num_docs
    num_pairs = np.array([ns.size for ns in neighbors], dtype=np.int64)
    return _Block(docs=np.arange(corpus.num_docs), n=corpus.lengths.astype(np.float64),
                  num_rows=np.diff(corpus.indptr), num_pairs=num_pairs,
                  guard=(coupled and link.kind != "exponential") & (num_pairs > 0),
                  rows=np.arange(corpus.terms.shape[0]),
                  counts=corpus.counts.astype(np.float64), lb=lb,
                  neighbors=np.concatenate(neighbors))


def _level_blocks(corpus, params):
    """One _Block per wavefront level, in level order; one level without pairs."""
    whole = _corpus_block(corpus, params)
    if not whole.neighbors.size:
        return [whole]
    level = _levels(corpus)
    return [whole.take(level == i) for i in range(int(level.max()) + 1)]


def _load(params, state, block):
    """The block with its documents' current state and its neighbors' means.

    The neighbors sit in other levels, so their means and variances stay
    fixed while the block is visited.  So does the exponential kind's
    link gradient, link_rows, which does not read the documents' own
    means (its coefficient c(x) is 1).
    """
    nb_means = state.phi_bar[block.neighbors]
    block = block.replace(gamma=state.gamma[block.docs], phi_bar=state.phi_bar[block.docs],
                          phi=state.phi[block.rows], nb_means=nb_means,
                          nb_sum=block.pair_sum(nb_means))
    link = params.link
    if link is not None and link.kind == "exponential" and block.pair_doc.size:
        grad = block.nb_sum * link.eta / block.n[:, None]
        block = block.replace(link_rows=grad[block.row_doc])
    if block.guarded:
        block = block.replace(lam=np.ones(block.docs.shape[0]),
                              nb_var=state.var_bar[block.neighbors])
    return block


def _store(state, block, done):
    """Write the phi rows, gamma, phi_bar and var_bar of the done documents."""
    rows = done[block.row_doc]
    docs = block.docs[done]
    state.phi[block.rows[rows]] = block.phi[rows]
    state.gamma[docs] = block.gamma[done]
    state.phi_bar[docs] = block.phi_bar[done]
    state.var_bar[docs] = block.variance(block.phi)[done]


def _phi_update(params, block, elog_theta):
    """New phi rows for every term of the block's documents, from their state.

    elog_theta holds one row per document.  Each phi row combines its
    document's expected log topic proportions, the word evidence, and
    the gradient of the expected log probability of each of the
    document's observed links; the link sum ranges over the document's
    observed links only.  Every row reads its document's state from the
    start of the iteration, so the rows are a Jacobi update within each
    document.  Returns the new rows without mutating the block.
    """
    exponent = elog_theta[block.row_doc] + block.lb

    link = params.link
    if link is not None and block.pair_doc.size:
        n = block.n[:, None]
        if link.kind == "exponential":
            exponent = exponent + block.link_rows
        elif link.kind == "gaussian":
            # per row: the document mean without one token of that term
            n_row = n[block.row_doc]
            phi_minus = block.phi_bar[block.row_doc] - block.phi / n_row
            exponent = exponent + linkfn.grad_phi_gaussian(
                link, block.nb_sum[block.row_doc], block.num_pairs[block.row_doc, None],
                phi_minus, n_row)
        else:
            x = np.einsum("pk,pk->p", block.nb_means,
                          (link.eta * block.phi_bar)[block.pair_doc]) + link.nu
            coeff = linkfn.gradient_coefficient(link, x)
            grad = block.pair_sum(coeff[:, None] * block.nb_means) * link.eta / n
            exponent = exponent + grad[block.row_doc]

    exponent -= exponent.max(axis=1, keepdims=True)
    out = np.exp(exponent)
    return out / out.sum(axis=1, keepdims=True)


@dataclass
class ElboBreakdown:
    """Evidence lower bound split into its five additive parts."""

    link_term: float
    z_given_theta_term: float
    word_term: float
    theta_prior_term: float
    entropy_term: float
    total: float


def _bound_parts(alpha, counts, lb, starts, lengths, phi, gamma, phi_bar):
    """Per-document z|theta, word and theta-prior terms and entropy.

    The documents' rows are consecutive runs beginning at starts in
    counts, lb (log beta of each row's term) and phi; lengths, gamma
    and phi_bar have one entry per document.  Returns four arrays with
    one value per document.
    """
    gamma_total = gamma.sum(axis=1)
    elog_theta = psi(gamma) - psi(gamma_total)[:, None]

    z_term = (lengths[:, None] * phi_bar * elog_theta).sum(axis=1)
    word_term = np.add.reduceat(counts * np.where(phi > 0, phi * lb, 0.0).sum(axis=1), starts)
    theta_prior = (gammaln(alpha.sum()) - gammaln(alpha).sum()
                   + ((alpha - 1.0) * elog_theta).sum(axis=1))
    dir_entropy = (gammaln(gamma).sum(axis=1) - gammaln(gamma_total)
                   - ((gamma - 1.0) * elog_theta).sum(axis=1))
    mult_entropy = -np.add.reduceat(counts * xlogy(phi, phi).sum(axis=1), starts)
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

    z_term, word_term, theta_prior, entropy_term = (float(part.sum()) for part in _bound_parts(
        params.alpha, corpus.counts, params.log_beta[:, corpus.terms].T, corpus.indptr[:-1],
        corpus.lengths, state.phi, state.gamma, state.phi_bar))
    total = link_term + z_term + word_term + theta_prior + entropy_term
    return ElboBreakdown(link_term=link_term, z_given_theta_term=z_term,
                         word_term=word_term, theta_prior_term=theta_prior,
                         entropy_term=entropy_term, total=total)


def _block_objective(params, block, phi, gamma, phi_bar):
    """Bound terms that depend on each document's block (phi rows and gamma).

    This is each document's contribution to the global objective being
    ascended, with its neighbors' means held at their current values.
    """
    z_term, word_term, theta_prior, entropy = _bound_parts(
        params.alpha, block.counts, block.lb, block.starts, block.n, phi, gamma, phi_bar)
    value = z_term + word_term + theta_prior + entropy
    var = block.variance(phi)
    vals = linkfn.expected_log_link_batch(
        params.link, phi_bar[block.pair_doc], block.nb_means,
        var[block.pair_doc], block.nb_var, count=False)
    return value + block.pair_sum(vals)


def _damp(params, block, phi, phi_bar, gamma):
    """Safeguard the step of every guarded document of the block, in place.

    phi, phi_bar and gamma hold the undamped update.  Each guarded
    document moves from its rows toward it by the geometric mix with its
    step lam; while that would lower its block objective, lam is halved.
    The document is rejected, keeping the rows it started from, once lam
    falls below 1e-4.  Documents without a guard keep the update.
    Updates block.lam and block.objective; returns the rejected mask.
    """
    new_phi = phi.copy()
    pending = block.guard.copy()
    rejected = np.zeros_like(pending)
    while pending.any():
        lam = block.lam[block.row_doc, None]
        mix = block.phi ** (1.0 - lam) * new_phi ** lam
        mix /= mix.sum(axis=1, keepdims=True)
        mix_bar = block.mean(mix)
        mix_gamma = params.alpha + block.n[:, None] * mix_bar
        value = _block_objective(params, block, mix, mix_gamma, mix_bar)
        accept = pending & (value >= block.objective - block.slack)
        rows = accept[block.row_doc]
        phi[rows], phi_bar[accept], gamma[accept] = mix[rows], mix_bar[accept], mix_gamma[accept]
        block.objective[accept] = value[accept]
        pending &= ~accept
        block.lam[pending] *= 0.5
        failed = pending & (block.lam < 1e-4)
        rejected |= failed
        pending &= ~failed
    rows = rejected[block.row_doc]
    phi[rows], phi_bar[rejected], gamma[rejected] = (
        block.phi[rows], block.phi_bar[rejected], block.gamma[rejected])
    return rejected


def _visit_level(params, state, block, tol):
    """Run the document-local phi/gamma iteration for one level's documents.

    Each iteration replaces every phi row of each active document by the
    whole-document update, then its gamma, in one array step.  Guarded
    documents are safeguarded iteration by iteration (see `_damp`); a
    document's step stays as small as its last damping for the rest of
    the visit.  Damping does not move fixed points.  A document leaves
    the working set when its gamma change falls below tol, when it is
    rejected, or after _DOC_MAX_ITERS iterations, and is written to the
    state as it leaves.
    """
    if block.guarded:
        block.objective = _block_objective(params, block, block.phi, block.gamma,
                                           block.phi_bar)
        block.slack = 1e-12 * (1.0 + np.abs(block.objective))
    k = block.gamma.shape[1]
    for _ in range(_DOC_MAX_ITERS):
        elog_theta = psi(block.gamma) - psi(block.gamma.sum(axis=1))[:, None]
        phi = _phi_update(params, block, elog_theta)
        phi_bar = block.mean(phi)
        gamma = params.alpha + block.n[:, None] * phi_bar
        rejected = _damp(params, block, phi, phi_bar, gamma) if block.guarded else False
        # the mean absolute change per topic, per token
        leaving = (np.abs(gamma - block.gamma).sum(axis=1) / k / block.n < tol) | rejected
        block.phi, block.phi_bar, block.gamma = phi, phi_bar, gamma
        num_leaving = np.count_nonzero(leaving)
        if num_leaving:
            _store(state, block, leaving)
            if num_leaving == leaving.shape[0]:
                return
            block = block.take(~leaving)
    _store(state, block, np.ones(block.docs.shape[0], dtype=bool))


def _sweep(params, state, levels, tol):
    """One full coordinate-ascent pass over all documents, level by level.

    For the sigmoid, probit, and gaussian kinds the link gradient reads
    the document's own mean, which the whole-document update takes from
    the start of each iteration (and sigmoid and probit also linearize
    the link), so an iteration can overshoot.  Those documents are
    safeguarded iteration by iteration (see `_visit_level`), so a visit
    never lowers the document's block objective.  The exponential kind
    is an exact block coordinate maximization and needs no safeguard.
    """
    for block in levels:
        _visit_level(params, state, _load(params, state, block), tol)


def run_e_step(corpus, params, state, tol=1e-6, max_sweeps=100, trace_stream=None):
    """Coordinate ascent to convergence; returns (state, elbo trace).

    Terminates when the relative bound change between sweeps drops below
    tol or max_sweeps is reached; the latter is logged as a warning.
    The trace holds the bound before any update followed by one value
    per sweep.  Deterministic, with fixed summation order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def record(value):
        if trace_stream is not None:
            trace_stream.write(f"{value:.10f}\n")

    levels = _level_blocks(corpus, params)
    current = elbo(corpus, params, state).total
    if not np.isfinite(current):
        raise FloatingPointError(f"non-finite ELBO at E-step start: {current}")
    trace = [current]
    record(current)
    for _ in range(max_sweeps):
        _sweep(params, state, levels, tol)
        value = elbo(corpus, params, state).total
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite ELBO during E-step: {value}")
        trace.append(value)
        record(value)
        if abs(value - current) <= tol * max(1.0, abs(current)):
            break
        current = value
    else:
        logger.warning("E-step stopped at max_sweeps=%d with the bound still changing "
                       "by more than tol=%g", max_sweeps, tol)
    return state, trace
