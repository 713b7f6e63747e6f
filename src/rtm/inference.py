"""Mean-field variational inference for the relational topic model.

The variational family factorizes over per-document Dirichlet parameters
gamma and per-term topic simplexes phi (tokens of the same term share
one phi vector), stored as one (nnz, K) array aligned with the
corpus's CSR terms.  Coordinate ascent sweeps documents in index order;
within a document, all phi rows are updated at once from the current
state (a softmax over topics in each of the document's rows) followed by
gamma, repeating until the document stabilizes.  The objective is the
evidence lower bound with the expected log link probability summed over
observed links only, so per-sweep link work scales with the number of
links rather than the number of document pairs.

A document's update reads only its own rows and the means of the
documents it has pairs with, its linked neighbors.  Every kind's link
gradient is proportional to eta, so at eta = 0 (where each fit starts),
as without a link component, no document has pairs.  A document without
pairs reads no one's mean and no one reads its, so all such documents
form one block, visited first.  The others run as a wavefront, grouped
into levels: level[d] is 1 + the highest level of a lower-indexed
neighbor of d, or 0 if there is none.  No two documents of a level are
linked, every lower-indexed neighbor of a document sits in an earlier
level and every higher-indexed one in a later level.  Updating the
blocks in turn, all documents of a block together, therefore gives each
document exactly the values that the index-order sweep gives it.  Every
document of a block keeps its own convergence test and iteration cap.
The blocks depend only on the corpus and on whether eta is zero, so the
state keeps their layout, and an E-step only gathers log beta into it.

A level is guarded unless the kind is exponential: the sigmoid, probit
and gaussian link gradients read the document's own mean.  Each
iteration of a guarded level is one array step over its still-active
documents, each with its own damping step.  An unguarded block (the
documents without pairs, or an exponential level) iterates on
per-document topic weights with lda-c's factored softmax.  Either visit
reads its documents' state and its neighbors' means when it starts, and
writes the whole block once, when its last document leaves.

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

    beta is a K x V row-stochastic topic matrix, alpha a K-vector of
    positive normal floats, link a linkfn.LinkParams or None for a pure
    topic model with no link component.  The instance keeps its own
    read-only copy of beta and computes log_beta from it once.
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
        # psi(alpha) overflows to -inf below the smallest normal float
        tiny = np.finfo(np.float64).tiny
        if not np.all(self.alpha >= tiny):
            raise ValueError(f"alpha must be at least {tiny:.4g} per topic (the smallest "
                             f"normal float), got {self.alpha.min():.4g}")
        if not np.all(np.abs(self.beta.sum(axis=1) - 1.0) <= 1e-8):
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

    Both caches are filled at construction, and every writer computes
    them with `_mean` and `_variance`.  An E-step writes a document's phi
    rows, gamma and both caches once per sweep, when the visit of its
    block ends.  The state also keeps the E-steps' block layouts (see
    `layout`), so the E-steps of a fit build them once.
    """

    def __init__(self, corpus, gamma, phi):
        self.corpus = corpus
        self.gamma = gamma
        self.phi = phi
        moments = corpus.counts, phi, corpus.indptr[:-1], corpus.lengths
        self.phi_bar, self.var_bar = _mean(*moments), _variance(*moments)
        self._layouts = {}

    def layout(self, corpus, coupled):
        """`_block_layout(corpus, coupled)`, built on first use, and again
        for a corpus other than the one it was built for."""
        cached = self._layouts.get(coupled)
        if cached is None or cached[0] is not corpus:
            cached = self._layouts[coupled] = corpus, _block_layout(corpus, coupled)
        return cached[1]

    @property
    def num_topics(self):
        return self.gamma.shape[1]

    def set_phi(self, d, term_index, new_phi):
        """Replace one term's phi row and recompute the document caches."""
        rows = self.corpus.rows(d)
        self.phi[rows.start + term_index] = new_phi
        doc = slice(d, d + 1)
        moments = self.corpus.counts[rows], self.phi[rows], [0], self.corpus.lengths[doc]
        self.phi_bar[doc], self.var_bar[doc] = _mean(*moments), _variance(*moments)


def init_state(corpus, num_topics, alpha):
    """Initial state, as lda-c starts a document: every phi row uniform,
    1/K, and gamma_d = alpha + N_d/K, so gamma = alpha + N_d * phi_bar_d
    holds from the start."""
    alpha = np.asarray(alpha, dtype=np.float64)
    gamma = np.tile(alpha, (corpus.num_docs, 1)) + corpus.lengths[:, None] / num_topics
    phi = np.full((corpus.terms.shape[0], num_topics), 1.0 / num_topics)
    return VariationalState(corpus, gamma, phi)


def _log_beta_matrix(beta):
    with np.errstate(divide="ignore"):
        return np.where(beta > 0, np.log(np.maximum(beta, 1e-300)), -np.inf)


# --- documents updated together -------------------------------------------

#: the arrays of a _Block, by what they have one entry for
_FIELDS = {
    **dict.fromkeys(("docs", "n", "num_rows", "num_pairs", "gamma", "phi_bar", "nb_sum",
                     "lam", "objective", "slack"), "doc"),
    **dict.fromkeys(("rows", "counts", "lb", "factor", "phi"), "row"),
    **dict.fromkeys(("neighbors", "nb_means", "nb_var"), "pair"),
}


class _Block:
    """A set of documents updated together, with their phi rows and links.

    Each array in `_FIELDS` has one entry per document, per phi row, or
    per (document, neighbor) pair, in document order.  docs, rows and
    neighbors are corpus indices; row_doc and pair_doc give the position
    in the block of the document that owns each row and pair.  guarded
    says whether the block is a guarded level, visited by
    `_visit_guarded`.  `pair_sum` needs a pair for every document, as in
    a level.  `take` keeps a subset of the documents with their rows and
    pairs.
    """

    def __init__(self, guarded=False, **arrays):
        self.__dict__.update(arrays)
        self.guarded = guarded
        positions = np.arange(self.docs.shape[0])
        self.row_doc = np.repeat(positions, self.num_rows)
        self.starts = np.cumsum(self.num_rows) - self.num_rows
        self.pair_doc = np.repeat(positions, self.num_pairs)
        self.pair_starts = np.cumsum(self.num_pairs) - self.num_pairs

    def take(self, keep):
        """The documents where the boolean array keep is set."""
        masks = {"doc": keep, "row": keep[self.row_doc], "pair": keep[self.pair_doc]}
        return _Block(self.guarded, **{name: value[masks[_FIELDS[name]]]
                                       for name, value in vars(self).items() if name in _FIELDS})

    def replace(self, **arrays):
        """The same documents with the given arrays added or replaced."""
        block = object.__new__(_Block)
        block.__dict__.update(vars(self), **arrays)
        return block

    def pair_sum(self, values):
        """Per-document sums of per-pair values."""
        return np.add.reduceat(values, self.pair_starts, axis=0)

    def mean(self, phi):
        """phi_bar of each document from its rows."""
        return _mean(self.counts, phi, self.starts, self.n)

    def variance(self, phi):
        """var_bar of each document from its rows."""
        return _variance(self.counts, phi, self.starts, self.n)


def _mean(counts, phi, starts, n):
    """phi_bar of documents whose rows are consecutive runs beginning at starts."""
    return np.add.reduceat(counts[:, None] * phi, starts, axis=0) / n[:, None]


def _variance(counts, phi, starts, n):
    """var_bar of documents whose rows are consecutive runs beginning at starts."""
    return np.add.reduceat(counts[:, None] * (phi * (1.0 - phi)), starts, axis=0) / n[:, None] ** 2


def _levels(corpus):
    """Wavefront level of every document (see the module docstring)."""
    level = []
    for d, ns in enumerate(corpus.neighbors):
        lower = ns[:np.searchsorted(ns, d)].tolist()
        level.append(1 + max((level[n] for n in lower), default=-1))
    return np.array(level, dtype=np.int64)


def _coupled(params):
    """Whether documents read their neighbors' means (see the module docstring)."""
    return params.link is not None and bool(params.link.eta.any())


def _block_layout(corpus, coupled):
    """The E-step's blocks in visit order, without their log beta, and their row order.

    First the documents without pairs, as one block; then one block per
    wavefront level of the others (see the module docstring).
    Uncoupled, no document has pairs, so every document is in the first
    block.  A block with no documents is left out.  Returns the blocks
    and the corpus rows in block order.
    """
    neighbors = corpus.neighbors if coupled else [np.zeros(0, np.int64)] * corpus.num_docs
    whole = _Block(docs=np.arange(corpus.num_docs), n=corpus.lengths.astype(np.float64),
                   num_rows=np.diff(corpus.indptr),
                   num_pairs=np.array([ns.size for ns in neighbors], dtype=np.int64),
                   rows=np.arange(corpus.terms.shape[0]),
                   counts=corpus.counts.astype(np.float64), neighbors=np.concatenate(neighbors))
    # -1 for the documents without pairs
    level = np.where(whole.num_pairs > 0, _levels(corpus) if coupled else 0, -1)
    blocks = [whole.take(level == i) for i in range(-1, int(level.max()) + 1)]
    blocks = [block for block in blocks if block.docs.size]
    return blocks, np.concatenate([block.rows for block in blocks])


def _e_step_blocks(corpus, params, layout):
    """The blocks of a `_block_layout`, with each row's log beta; rejects a
    corpus term with zero beta.

    A corpus term whose beta is zero in some topic (an unsmoothed model)
    would start the bound at -inf, as `init_state` puts mass on every
    topic.  Next to each row's log beta lb, factor holds exp(lb - its row
    max), for the factored update of `_visit_unguarded`.  A block with
    pairs is guarded unless the kind is exponential.
    """
    blocks, order = layout
    lb = params.log_beta[:, corpus.terms].T
    zero = np.argwhere(np.isneginf(lb))
    if zero.size:
        raise ValueError(f"beta of topic {zero[0, 1]} is zero for term "
                         f"{corpus.terms[zero[0, 0]]} of the corpus (unsmoothed model)")
    lb = lb[order]
    factor = np.exp(lb - lb.max(axis=1, keepdims=True))
    guarded = params.link is not None and params.link.kind != "exponential"
    # views of each block's run of rows
    bounds = np.cumsum([block.rows.shape[0] for block in blocks[:-1]])
    return [block.replace(lb=block_lb, factor=block_factor,
                          guarded=guarded and block.neighbors.size > 0)
            for block, block_lb, block_factor in zip(blocks, np.split(lb, bounds),
                                                     np.split(factor, bounds))]


def _store(state, block, phi, gamma):
    """Write the block's phi rows and gamma, and its documents' phi_bar and var_bar."""
    state.phi[block.rows] = phi
    state.gamma[block.docs] = gamma
    state.phi_bar[block.docs] = block.mean(phi)
    state.var_bar[block.docs] = block.variance(phi)


def _phi_update(params, block, elog_theta):
    """New phi rows for every term of a guarded level's documents.

    elog_theta holds one row per document.  Each phi row combines its
    document's expected log topic proportions, the word evidence, and
    the gradient of the expected log probability of each of the
    document's observed links, which reads the document's own mean; the
    link sum ranges over the document's observed links only.  Every row
    reads its document's state from the start of the iteration, so the
    rows are a Jacobi update within each document.  Returns the new rows
    without mutating the block.
    """
    exponent = elog_theta[block.row_doc] + block.lb

    link = params.link
    n = block.n[:, None]
    if link.kind == "gaussian":
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
    """Evidence lower bound split into its five additive parts.

    theta_prior_term holds E[log p(theta | alpha)] together with the
    Dirichlet entropy H[q(theta)]; entropy_term is the entropy of the
    phi rows alone.
    """

    link_term: float
    z_given_theta_term: float
    word_term: float
    theta_prior_term: float
    entropy_term: float
    total: float


def _bound_parts(alpha, counts, lb, starts, lengths, phi, gamma, phi_bar):
    """Per-document z|theta, word and theta terms and phi entropy.

    The documents' rows are consecutive runs beginning at starts in
    counts, lb (log beta of each row's term) and phi; lengths, gamma
    and phi_bar have one entry per document.  Returns four arrays with
    one value per document; the theta term is E[log p(theta | alpha)]
    plus the entropy of q(theta).
    """
    gamma_total = gamma.sum(axis=1)
    elog_theta = psi(gamma) - psi(gamma_total)[:, None]

    z_term = (lengths[:, None] * phi_bar * elog_theta).sum(axis=1)
    # phi * lb only where phi > 0: a zero phi entry may meet a zero beta (lb = -inf)
    word = np.multiply(phi, lb, out=np.zeros_like(phi), where=phi > 0)
    word_term = np.add.reduceat(counts * word.sum(axis=1), starts)
    # E[log p(theta)] + H[q(theta)] in one sum: apart, their (alpha - 1) and
    # (gamma - 1) products with E[log theta] are each about 1/alpha in size
    # and cancel only after rounding
    theta_term = (gammaln(alpha.sum()) - gammaln(alpha).sum() + gammaln(gamma).sum(axis=1)
                  - gammaln(gamma_total) + ((alpha - gamma) * elog_theta).sum(axis=1))
    entropy = -np.add.reduceat(counts * xlogy(phi, phi).sum(axis=1), starts)
    return z_term, word_term, theta_term, entropy


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
        var[block.pair_doc], block.nb_var)
    return value + block.pair_sum(vals)


def _damp(params, block, proposal):
    """Safeguard the step of every document of a guarded level.

    proposal holds the undamped phi rows.  Each document moves from its
    rows toward them by the geometric mix with its step lam; while that
    would lower its block objective, lam is halved.  The document is
    rejected, keeping the rows it started from, once lam falls below
    1e-4.  Updates block.lam and block.objective; returns the new phi
    rows, phi_bar and gamma, in fresh arrays, and the rejected mask.
    """
    phi, phi_bar, gamma = block.phi.copy(), block.phi_bar.copy(), block.gamma.copy()
    pending = np.ones(block.docs.shape[0], dtype=bool)
    rejected = np.zeros_like(pending)
    while pending.any():
        lam = block.lam[block.row_doc, None]
        mix = block.phi ** (1.0 - lam) * proposal ** lam
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
    return phi, phi_bar, gamma, rejected


def _visit_guarded(params, state, block, tol):
    """Run the damped phi/gamma iteration of a guarded level's documents.

    The visit reads its documents' phi rows, gamma and means, and its
    neighbors' means and variances, from the state; the neighbors sit in
    other blocks, so theirs stay fixed during the visit.  Each iteration
    replaces every phi row of each active document by the whole-document
    update, then its gamma, in one array step.  Every document is
    safeguarded iteration by iteration (see `_damp`); a document's step
    stays as small as its last damping for the rest of the visit.
    Damping does not move fixed points.  A document leaves the working
    set when its gamma change falls below tol, when it is rejected, or
    after _DOC_MAX_ITERS iterations; its rows and gamma are kept by
    position in the block, which is written to the state once, when its
    last document leaves.
    """
    nb_means = state.phi_bar[block.neighbors]
    active = block.replace(gamma=state.gamma[block.docs], phi=state.phi[block.rows],
                           phi_bar=state.phi_bar[block.docs], lam=np.ones(block.docs.shape[0]),
                           nb_means=nb_means, nb_sum=block.pair_sum(nb_means),
                           nb_var=state.var_bar[block.neighbors])
    active.objective = _block_objective(params, active, active.phi, active.gamma,
                                        active.phi_bar)
    active.slack = 1e-12 * (1.0 + np.abs(active.objective))
    k = active.gamma.shape[1]
    pos, row_pos = np.arange(block.docs.shape[0]), np.arange(block.rows.shape[0])
    final_phi, final_gamma = np.empty_like(active.phi), np.empty_like(active.gamma)
    for _ in range(_DOC_MAX_ITERS):
        elog_theta = psi(active.gamma) - psi(active.gamma.sum(axis=1))[:, None]
        phi, phi_bar, gamma, rejected = _damp(params, active,
                                              _phi_update(params, active, elog_theta))
        # the mean absolute change per topic, per token
        leaving = (np.abs(gamma - active.gamma).sum(axis=1) / k / active.n < tol) | rejected
        active.phi, active.phi_bar, active.gamma = phi, phi_bar, gamma
        num_leaving = np.count_nonzero(leaving)
        if num_leaving == leaving.shape[0]:
            break
        if num_leaving:
            rows = leaving[active.row_doc]
            final_phi[row_pos[rows]], final_gamma[pos[leaving]] = phi[rows], gamma[leaving]
            pos, row_pos = pos[~leaving], row_pos[~rows]
            active = active.take(~leaving)
    final_phi[row_pos], final_gamma[pos] = active.phi, active.gamma
    _store(state, block, final_phi, final_gamma)


def _topic_weights(gamma, offset):
    """Topic weights w = exp(d - max d) of each document, for d = psi(gamma)
    plus offset, unless offset is None."""
    d = psi(gamma)
    if offset is not None:
        d += offset
    return np.exp(d - d.max(axis=1, keepdims=True))


def _factored_phi(block, w):
    """The phi rows F * w / (F @ w) of the block's documents, from their weights w."""
    phi = block.factor * w[block.row_doc]
    return phi / phi.sum(axis=1, keepdims=True)


def _visit_unguarded(params, state, block, tol):
    """Run the phi/gamma iteration of an unguarded block on topic weights.

    No document of an unguarded block reads its own mean or another
    document's, so its phi rows are lda-c's factored softmax: with the
    row factors F (block.factor) and the document's topic weights
    w = exp(d - max d), for d = psi(gamma) + offset, phi = F * w / (F @ w)
    row by row, and gamma = alpha + w * sum over rows of
    (counts / (F @ w)) * F.  psi(sum gamma) is left out of d, as a shift
    shared by every topic cancels in the softmax.  An iteration computes
    the new gamma of every active document; a document leaves with its
    last w and gamma under `_visit_guarded`'s test and cap, and the phi
    rows are formed once after the loop, when the whole block is written
    to the state.  F @ w cannot underflow: the largest weight is exactly
    1 and every F entry is at least 1e-300, as `_e_step_blocks` rejects
    zero beta and `_log_beta_matrix` clamps positive beta at 1e-300.

    The visit reads its documents' gamma from the state.  The documents
    of an exponential level also read one offset per document, added to
    E[log theta] in every row: nb_sum * eta / n, as their link gradient
    does not read their own means (its coefficient c(x) is 1).  The
    neighbors sit in other blocks, so their means, and the offsets, stay
    fixed during the visit.  The documents without pairs have no offset.
    """
    gamma = state.gamma[block.docs]
    offset = None
    if block.neighbors.size:
        offset = block.pair_sum(state.phi_bar[block.neighbors]) * params.link.eta / block.n[:, None]
    k = gamma.shape[1]
    factor, counts, n = block.factor, block.counts, block.n
    num_rows, row_doc, starts = block.num_rows, block.row_doc, block.starts
    pos = np.arange(block.docs.shape[0])
    final_w, final_gamma = np.empty_like(gamma), np.empty_like(gamma)
    for _ in range(_DOC_MAX_ITERS):
        w = _topic_weights(gamma, offset)
        # take: a row gather several times faster than w[row_doc] here
        norm = np.einsum("rk,rk->r", factor, w.take(row_doc, axis=0))
        new_gamma = params.alpha + w * np.add.reduceat((counts / norm)[:, None] * factor,
                                                       starts, axis=0)
        # the mean absolute change per topic, per token
        leaving = np.abs(new_gamma - gamma).sum(axis=1) / k / n < tol
        gamma = new_gamma
        num_leaving = np.count_nonzero(leaving)
        if num_leaving == leaving.shape[0]:
            break
        if num_leaving:
            final_w[pos[leaving]], final_gamma[pos[leaving]] = w[leaving], gamma[leaving]
            stay = ~leaving
            rows = stay[row_doc]
            pos, w, gamma, n = pos[stay], w[stay], gamma[stay], n[stay]
            if offset is not None:
                offset = offset[stay]
            factor, counts, num_rows = factor[rows], counts[rows], num_rows[stay]
            row_doc = np.repeat(np.arange(pos.shape[0]), num_rows)
            starts = np.cumsum(num_rows) - num_rows
    final_w[pos], final_gamma[pos] = w, gamma
    _store(state, block, _factored_phi(block, final_w), final_gamma)


def _sweep(params, state, blocks, tol):
    """One full coordinate-ascent pass over all documents, block by block.

    For the sigmoid, probit, and gaussian kinds the link gradient reads
    the document's own mean, which the whole-document update takes from
    the start of each iteration (and sigmoid and probit also linearize
    the link), so an iteration can overshoot.  Their levels are guarded:
    safeguarded iteration by iteration (see `_visit_guarded`), so a visit
    never lowers the document's block objective.  The exponential kind
    is an exact block coordinate maximization and needs no safeguard,
    nor do the documents without pairs; those blocks iterate on topic
    weights (see `_visit_unguarded`).
    """
    for block in blocks:
        visit = _visit_guarded if block.guarded else _visit_unguarded
        visit(params, state, block, tol)


def run_e_step(corpus, params, state, tol=1e-6, max_sweeps=100, *, start_bound=None):
    """Coordinate ascent to convergence; returns (state, elbo trace).

    Terminates when the relative bound change between sweeps drops below
    tol or max_sweeps is reached; the latter is logged as a warning.
    The trace holds the bound before any update followed by one value
    per sweep.  A caller that has just computed `elbo(corpus, params,
    state).total`, as `fit` has after an M-step, passes it as
    start_bound, the first value.  Deterministic, with fixed summation
    order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    blocks = _e_step_blocks(corpus, params, state.layout(corpus, _coupled(params)))
    current = elbo(corpus, params, state).total if start_bound is None else start_bound
    if not np.isfinite(current):
        raise FloatingPointError(f"non-finite ELBO at E-step start: {current}")
    trace = [current]
    for _ in range(max_sweeps):
        _sweep(params, state, blocks, tol)
        value = elbo(corpus, params, state).total
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite ELBO during E-step: {value}")
        trace.append(value)
        if abs(value - current) <= tol * max(1.0, abs(current)):
            break
        current = value
    else:
        logger.warning("E-step stopped at max_sweeps=%d with the bound still changing "
                       "by more than tol=%g", max_sweeps, tol)
    return state, trace
