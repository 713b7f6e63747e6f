"""Mean-field variational inference for the relational topic model.

The variational family factorizes over per-document Dirichlet parameters
gamma and per-term topic simplexes phi (tokens of the same term share
one phi vector), stored as one (nnz, K) array aligned with the
corpus's CSR terms.  Coordinate ascent sweeps the documents; within a
document, all phi rows are updated at once from the current state (a
softmax over topics in each of the document's rows) followed by gamma,
repeating until the document stabilizes.  The objective is the evidence
lower bound with the expected log link probability summed over observed
links only, so per-sweep link work scales with the number of links
rather than the number of document pairs.

A document's update reads only its own rows and the means of the
documents it has pairs with, its linked neighbors.  Every kind's link
gradient is proportional to eta, so at eta = 0 (where each fit starts),
as without a link component, no document has pairs.  A sweep is a
Jacobi sweep: every document reads its neighbors' means from the
sweep's start, so all are updated together, in at most two visits (see
`_sweep`), on blocks that each E-step builds from the corpus and the
model (see `_blocks`).  Each visit writes its documents once (see
`VariationalState`) and returns their own bound terms, every term but
the link term; a sweep's bound is their sum plus the link term, so no
sweep reads every phi row again.

For the sigmoid and probit kinds the link expectation is first-order
(see linkfn); what this module maximizes and reports is that surrogate
bound.  For the exponential kind the link gradient does not read the
document's own phi, so the whole-document update is an exact block
coordinate maximization given its neighbors' means.  For the other
kinds it is a Jacobi update over the document's rows, damped within
each visit wherever it would lower the document's block objective.
Moving both ends of a link at once can still lower the bound, so
`run_e_step` checks each sweep's bound (see `_step_back`).
"""

import logging

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, psi, xlogy

from . import linkfn
from .corpus import _doc_id

logger = logging.getLogger(__name__)

_DOC_MAX_ITERS = 20


@dataclass
class ModelParams:
    """Model parameters: topics, Dirichlet prior, and link function.

    beta is a K x V row-stochastic topic matrix, alpha a K-vector of
    positive normal floats, link a linkfn.LinkParams or None for a pure
    topic model with no link component.  The instance keeps its own
    read-only copy of beta and computes log_beta from it once, as
    log(max(beta, 1e-300)): every entry below 1e-300, zero included, is
    served as 1e-300 to everything that reads log beta (the E-step, the
    bound, held-out queries and model files), so log_beta is finite.
    `prediction.predict_word_dist` uses beta as given.  row_max, the
    V-vector log_beta.max(axis=0), and row_factor, the V x K array
    exp(log_beta - row_max).T, are the word evidence of lda-c's factored
    softmax, which the E-step and held-out queries gather by term; each
    row has an entry exactly 1 and none below about 1e-300.  Each array
    derived from beta is read-only and built once, at construction: per
    EM iteration, one K x V exp next to the K x V log.
    """

    beta: np.ndarray
    alpha: np.ndarray
    link: linkfn.LinkParams | None = None
    log_beta: np.ndarray = field(init=False, repr=False, compare=False)
    row_max: np.ndarray = field(init=False, repr=False, compare=False)
    row_factor: np.ndarray = field(init=False, repr=False, compare=False)

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
        if not np.all(self.beta >= 0):
            raise ValueError("beta entries must be nonnegative")
        if not np.all(np.abs(self.beta.sum(axis=1) - 1.0) <= 1e-8):
            raise ValueError("beta rows must sum to 1")
        if self.link is not None and self.link.eta.shape[0] != self.beta.shape[0]:
            raise ValueError("link coefficient length must equal the topic count")
        self.log_beta = np.log(np.maximum(self.beta, 1e-300))
        self.row_max = self.log_beta.max(axis=0)
        self.row_factor = np.exp(self.log_beta - self.row_max).T.copy()
        for array in (self.beta, self.log_beta, self.row_max, self.row_factor):
            array.flags.writeable = False

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
    document's phi rows, gamma and phi_bar once per sweep, when the visit
    that holds it ends.  The guarded visit computes phi_bar with `_mean`
    and also writes var_bar; the unguarded visit writes phi_bar = (gamma
    - alpha) / N_d, the rows' mean up to rounding, and leaves var_bar
    stale until `run_e_step` returns and calls `refresh_var_bar`;
    `_step_back` writes all four.  So between E-steps all four agree;
    within an E-step var_bar is current for the guarded block's
    documents only, the ones read there.

    A state belongs to its corpus's documents and its topic count:
    `run_e_step` and `elbo` reject a corpus of other documents (other
    links are accepted) or a model of another topic count, and `set_phi`
    an index outside a document.
    """

    def __init__(self, corpus, gamma, phi):
        self.corpus = corpus
        self.gamma = gamma
        self.phi = phi
        moments = corpus.counts, phi, corpus.indptr[:-1], corpus.lengths
        self.phi_bar, self.var_bar = _mean(*moments), _variance(*moments)

    @property
    def num_topics(self):
        return self.gamma.shape[1]

    def refresh_var_bar(self):
        """Recompute every document's var_bar from its phi rows."""
        self.var_bar[...] = _variance(self.corpus.counts, self.phi, self.corpus.indptr[:-1],
                                      self.corpus.lengths)

    def set_phi(self, d, term_index, new_phi):
        """Replace one term's phi row and recompute the document caches.

        d must be a document of the corpus and term_index the position of
        a row within it: integers in range, as `corpus._doc_id` checks an id.
        """
        d = _doc_id(d, "document", self.corpus.num_docs)
        rows = self.corpus.rows(d)
        term_index = _doc_id(term_index, "term index", rows.stop - rows.start)
        self.phi[rows.start + term_index] = new_phi
        doc = slice(d, d + 1)
        moments = self.corpus.counts[rows], self.phi[rows], [0], self.corpus.lengths[doc]
        self.phi_bar[doc], self.var_bar[doc] = _mean(*moments), _variance(*moments)


def init_state(corpus, num_topics, alpha):
    """Initial state, as lda-c starts a document: every phi row uniform,
    1/K, and gamma_d = alpha + N_d/K, so gamma = alpha + N_d * phi_bar_d
    holds from the start."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (num_topics,):
        raise ValueError(f"alpha must have {num_topics} entries, one per topic")
    gamma = np.tile(alpha, (corpus.num_docs, 1)) + corpus.lengths[:, None] / num_topics
    phi = np.full((corpus.terms.shape[0], num_topics), 1.0 / num_topics)
    return VariationalState(corpus, gamma, phi)


# --- documents updated together -------------------------------------------

#: the arrays of a _Block, by what they have one entry for
_FIELDS = {
    **dict.fromkeys(("docs", "n", "num_rows", "num_pairs", "gamma", "phi_bar", "nb_sum",
                     "lam", "objective", "slack", "factor", "rowmax", "slot_terms",
                     "slot_counts"), "doc"),
    **dict.fromkeys(("rows", "terms", "counts", "lb", "phi"), "row"),
    **dict.fromkeys(("neighbors", "nb_means", "nb_var"), "pair"),
}


class _Block:
    """A set of documents updated together, with their phi rows and links.

    Each array in `_FIELDS` has one entry per document, per phi row, or
    per (document, neighbor) pair, in document order.  docs, rows, terms
    and neighbors are corpus indices; row_doc and pair_doc give the
    position in the block of the document that owns each row and pair.
    An E-step's blocks (see `_blocks`) are unguarded runs (see `_runs`),
    which hold their rows per document in slots (see `_slotted`), and
    the guarded block, which holds each row's log beta lb.  `take` keeps
    a subset of the documents with their rows and pairs.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)
        positions = np.arange(self.docs.shape[0])
        self.row_doc = np.repeat(positions, self.num_rows)
        self.starts = np.cumsum(self.num_rows) - self.num_rows
        self.pair_doc = np.repeat(positions, self.num_pairs)
        self.pair_starts = np.cumsum(self.num_pairs) - self.num_pairs

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

    def pair_sum(self, values):
        """Per-document sums of per-pair values, 0 for a document without pairs."""
        # reduceat gives an empty segment the value at its start
        paired = self.num_pairs > 0
        sums = np.zeros((paired.shape[0], *values.shape[1:]))
        sums[paired] = np.add.reduceat(values, self.pair_starts[paired], axis=0)
        return sums

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


def _coupled(params):
    """Whether documents read their neighbors' means (see the module docstring)."""
    return params.link is not None and bool(params.link.eta.any())


def _blocks(corpus, params):
    """The E-step's blocks: the unguarded runs, and the guarded block or None.

    Coupled, under the sigmoid, probit and gaussian kinds, the documents
    with pairs are the guarded block, with each row's log beta lb.  Every
    other document, with pairs or not, is in one of the runs of `_runs`,
    each holding its rows in slots (see `_slotted`).  Uncoupled, no
    document has pairs.  A run with no documents is left out.
    """
    neighbors = corpus.neighbors if _coupled(params) else [np.zeros(0, np.int64)] * corpus.num_docs
    whole = _Block(docs=np.arange(corpus.num_docs), n=corpus.lengths.astype(np.float64),
                   num_rows=np.diff(corpus.indptr),
                   num_pairs=np.array([ns.size for ns in neighbors], dtype=np.int64),
                   rows=np.arange(corpus.terms.shape[0]), terms=corpus.terms,
                   counts=corpus.counts.astype(np.float64), neighbors=np.concatenate(neighbors))
    guarded = None
    paired = whole.num_pairs > 0
    if paired.any() and params.link.kind != "exponential":
        guarded, whole = whole.take(paired), whole.take(~paired)
        guarded.lb = params.log_beta[:, guarded.terms].T
    return [_slotted(params, run) for run in _runs(whole) if run.docs.size], guarded


def _slotted(params, run):
    """The run with its rows in slots: slot_terms and slot_counts (D_b,
    R_max) hold each document's terms and counts in its first num_rows
    slots, padded to the longest document with term 0 and count 0, so a
    pad's term does not matter; factor (D_b, R_max, K) and rowmax (D_b,
    R_max) hold each slot's term's row factor and row max (see
    `ModelParams`) for `_visit_unguarded`, at most twice its rows' floats,
    as a run's slots are (see `_runs`)."""
    filled = np.arange(run.num_rows.max(initial=0)) < run.num_rows[:, None]
    slot_terms = np.zeros(filled.shape, dtype=run.terms.dtype)
    slot_terms[filled] = run.terms
    slot_counts = np.zeros(filled.shape)
    slot_counts[filled] = run.counts
    return run.replace(slot_terms=slot_terms, slot_counts=slot_counts,
                       factor=params.row_factor[slot_terms], rowmax=params.row_max[slot_terms])


def _runs(block):
    """The block's documents split into runs; padded to its longest
    document, a run takes at most twice its rows' slots.

    Longest first, a run takes documents while its size times its first
    document's rows stays within twice their rows.  That holds for a
    prefix of the rest, and for every document of at least half the
    first one's rows, so the next run starts below half of that, and
    there are at most 1 + log2 of the longest document's rows runs.  A
    block whose documents all fit in one run is returned as it is.
    """
    num_rows = block.num_rows
    if num_rows.size * num_rows.max(initial=0) <= 2 * num_rows.sum():
        return [block]
    order = np.argsort(-num_rows, kind="stable")
    rows = num_rows[order]
    runs, start = [], 0
    while start < rows.size:
        size = np.arange(1, rows.size - start + 1)
        end = start + np.count_nonzero(size * rows[start] <= 2 * np.cumsum(rows[start:]))
        keep = np.zeros(rows.size, dtype=bool)
        keep[order[start:end]] = True
        runs.append(block.take(keep))
        start = end
    return runs


def _store(state, block, phi, gamma, phi_bar):
    """Write the block's phi rows and gamma, and its documents' phi_bar (the
    mean of the rows) and var_bar.  Every guarded visit ends here, as its
    neighbors read both caches."""
    state.phi[block.rows] = phi
    state.gamma[block.docs] = gamma
    state.phi_bar[block.docs] = phi_bar
    state.var_bar[block.docs] = block.variance(phi)


def _phi_update(params, block, elog_theta):
    """New phi rows for every term of the guarded block's documents.

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
    and phi_bar have one entry per document; lb is finite, as log beta
    is floored (see `ModelParams`).  Returns four arrays with one value
    per document; the theta term is E[log p(theta | alpha)] plus the
    entropy of q(theta).
    """
    gamma_total = gamma.sum(axis=1)
    elog_theta = psi(gamma) - psi(gamma_total)[:, None]

    z_term = (lengths[:, None] * phi_bar * elog_theta).sum(axis=1)
    word_term = np.add.reduceat(counts * (phi * lb).sum(axis=1), starts)
    # E[log p(theta)] + H[q(theta)] in one sum: apart, their (alpha - 1) and
    # (gamma - 1) products with E[log theta] are each about 1/alpha in size
    # and cancel only after rounding
    theta_term = (gammaln(alpha.sum()) - gammaln(alpha).sum() + gammaln(gamma).sum(axis=1)
                  - gammaln(gamma_total) + ((alpha - gamma) * elog_theta).sum(axis=1))
    entropy = -np.add.reduceat(counts * xlogy(phi, phi).sum(axis=1), starts)
    return z_term, word_term, theta_term, entropy


def _link_term(corpus, params, state):
    """The expected log link probability summed over the observed links."""
    if params.link is None or not corpus.num_links:
        return 0.0
    l1, l2 = corpus.links[:, 0], corpus.links[:, 1]
    return float(linkfn.expected_log_link_batch(
        params.link, state.phi_bar[l1], state.phi_bar[l2],
        state.var_bar[l1], state.var_bar[l2]).sum())


def _check_state(corpus, params, state):
    """Reject a state built for other documents than corpus's, or for
    another topic count than the model's.  The links may differ."""
    if corpus is not state.corpus and not all(
            np.array_equal(getattr(corpus, name), getattr(state.corpus, name))
            for name in ("indptr", "terms", "counts")):
        raise ValueError("the state was built for other documents than the corpus's")
    if params.num_topics != state.num_topics:
        raise ValueError(f"the model has {params.num_topics} topics and the state "
                         f"{state.num_topics}")


def elbo(corpus, params, state):
    """Evidence lower bound of the current state under the model.

    The link term sums the expected log link probability over observed
    links only.  The entropy enters with its standard positive sign so
    the total is a genuine lower bound.  The state must hold corpus's
    documents and the model's topic count (see `_check_state`).
    """
    _check_state(corpus, params, state)
    link_term = _link_term(corpus, params, state)
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


def _mix(start, end, lam):
    """Rows a step lam (a scalar, or one per row) from start toward end:
    their normalized geometric mix, or the arithmetic mix in a row whose
    geometric mix is 0 in every topic, as where exp underflow left the
    row and its end with disjoint supports."""
    mix = start ** (1.0 - lam) * end ** lam
    total = mix.sum(axis=1, keepdims=True)
    if not total.all():
        mix = np.where(total > 0, mix, (1.0 - lam) * start + lam * end)
        total = mix.sum(axis=1, keepdims=True)
    return mix / total


def _damp(params, block, proposal):
    """Safeguard the step of every document of the guarded block.

    proposal holds the undamped phi rows.  Each document moves from its
    rows toward them by `_mix` with its step lam; while that would lower
    its block objective, lam is halved.  The document is rejected,
    keeping the rows it started from, once lam falls below 1e-4.
    Updates block.lam and block.objective; returns the new phi rows,
    phi_bar and gamma, in fresh arrays, and the rejected mask.
    """
    phi, phi_bar, gamma = block.phi.copy(), block.phi_bar.copy(), block.gamma.copy()
    pending = np.ones(block.docs.shape[0], dtype=bool)
    rejected = np.zeros_like(pending)
    while pending.any():
        mix = _mix(block.phi, proposal, block.lam[block.row_doc, None])
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
    """Run the damped phi/gamma iteration of the guarded block's documents.

    The visit reads its documents' phi rows, gamma and means, and its
    neighbors' means and variances, from the state when it starts; the
    neighbors' stay fixed during the visit, though the neighbors are in
    the block too.  Each iteration replaces every phi row of each active
    document by the whole-document update, then its gamma, in one array
    step.  Every document is safeguarded iteration by iteration (see
    `_damp`); a document's step stays as small as its last damping for
    the rest of the visit.
    Damping does not move fixed points.  A document leaves the working
    set when its gamma change falls below tol, when it is rejected, or
    after _DOC_MAX_ITERS iterations; its rows and gamma are kept by
    position in the block, which is written to the state once, when its
    last document leaves, by `_store`.  Returns the documents' own bound
    terms (`_bound_parts`) of the rows written.
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
    phi_bar = block.mean(final_phi)
    _store(state, block, final_phi, final_gamma, phi_bar)
    return float(sum(_bound_parts(params.alpha, block.counts, block.lb, block.starts, block.n,
                                  final_phi, final_gamma, phi_bar)).sum())


def _topic_weights(gamma, offset):
    """Topic weights w = exp(d - max d) of each document, for d = psi(gamma)
    plus offset, unless offset is None."""
    d = psi(gamma)
    if offset is not None:
        d += offset
    return np.exp(d - d.max(axis=1, keepdims=True))


def _visit_unguarded(params, state, runs, tol):
    """Run the phi/gamma iteration of the unguarded runs on topic weights.

    runs are the E-step's unguarded runs, visited together: every
    iteration steps all their active documents.  No document of them
    reads its own mean or another document's, so its phi rows are
    lda-c's factored softmax: with the row factors F (the run's factor)
    and the document's topic weights w = exp(d - max d), for d =
    psi(gamma) + offset, phi = F * w / (F @ w) row by row, and gamma = alpha + w * sum over rows of
    (counts / (F @ w)) * F.  psi(sum gamma) is left out of d, as a shift
    shared by every topic cancels in the softmax.  A run keeps each
    document's rows in its own padded stretch of F and of the counts
    (see `_slotted`), so an iteration is two batched matmuls per
    run over its active documents: F @ w for every slot, and the counts
    over F @ w times F for gamma.  A pad slot adds nothing to gamma, as
    its count is 0.  A document leaves with its last w and gamma under
    `_visit_guarded`'s test and cap, and the rest are one index on the
    document axis of each array.  F @ w > 0 in every slot, pads
    included: a slot's F is a term's row of row_factor, with no entry
    below about 1e-300 (see `ModelParams`), and the largest weight is 1.

    When the last document leaves, the phi rows are formed once from the
    final w, run by run in the padded layout, and the visit writes the
    documents' rows (each document's first num_rows slots), gamma and
    phi_bar = (gamma - alpha) / n, the rows' mean, as gamma comes from
    the same w.  It writes no var_bar: nothing reads it before
    `run_e_step` refreshes it (an unguarded document's neighbors are
    unguarded too, and the link term reads variances only for the
    gaussian kind, whose unguarded documents have no links or eta = 0).

    The visit returns its documents' own bound terms, from their weights
    rather than their rows.  With log phi = lb - rowmax + log w -
    log(F @ w) in each row, the word and entropy terms are
    sum_n c_n (rowmax_n + log(F @ w)_n) - n phi_bar . log w, summed over
    the padded slots (0 in a pad, of count 0 and finite rowmax and F @ w);
    the last product is 0 wherever w underflowed to 0, as gamma - alpha
    = n phi_bar is exactly 0 there.  And as gamma = alpha + n phi_bar,
    the z|theta term n phi_bar . E[log theta] cancels (alpha - gamma) .
    E[log theta] in the theta term, leaving log Gamma(sum alpha) - sum
    log Gamma(alpha) + sum log Gamma(gamma) - log Gamma(sum gamma).

    The visit reads its documents' gamma from the state, and if any of
    them has pairs (of the exponential kind) one offset each, added to
    E[log theta] in every row: nb_sum * eta / n, from the neighbors'
    means when the visit starts, as their link gradient does not read
    their own means (its coefficient c(x) is 1).  A document without
    pairs gets offset 0, as its nb_sum is 0.
    """
    # the runs' documents, one after another
    docs, n = _joined([run.docs for run in runs]), _joined([run.n for run in runs])
    gamma = state.gamma[docs]
    offset = None
    if any(run.neighbors.size for run in runs):
        nb_sum = _joined([run.pair_sum(state.phi_bar[run.neighbors]) for run in runs])
        offset = nb_sum * params.link.eta / n[:, None]
    # each run's padded arrays and its stretch of the active documents
    parts = _stretches([(run.factor, run.slot_counts) for run in runs])
    pos = np.arange(docs.shape[0])
    # _visit_guarded's test, mean |change| per topic per token below tol,
    # as a limit on the summed change
    limit = tol * gamma.shape[1] * n
    final_w, final_gamma = np.empty_like(gamma), np.empty_like(gamma)
    for _ in range(_DOC_MAX_ITERS):
        w = _topic_weights(gamma, offset)
        sums = []
        for factor, counts, start, stop in parts:
            norm = np.matmul(factor, w[start:stop, :, None])[:, :, 0]
            sums.append(np.matmul((counts / norm)[:, None, :], factor)[:, 0])
        new_gamma = params.alpha + w * _joined(sums)
        leaving = np.abs(new_gamma - gamma).sum(axis=1) < limit
        gamma = new_gamma
        num_leaving = np.count_nonzero(leaving)
        if num_leaving == leaving.shape[0]:
            break
        if num_leaving:
            final_w[pos[leaving]], final_gamma[pos[leaving]] = w[leaving], gamma[leaving]
            stay = ~leaving
            pos, w, gamma, limit = pos[stay], w[stay], gamma[stay], limit[stay]
            if offset is not None:
                offset = offset[stay]
            parts = _stretches([(factor[stay[start:stop]], counts[stay[start:stop]])
                                for factor, counts, start, stop in parts])
    final_w[pos], final_gamma[pos] = w, gamma
    alpha = params.alpha
    topic_counts = final_gamma - alpha  # n phi_bar
    state.gamma[docs] = final_gamma
    state.phi_bar[docs] = topic_counts / n[:, None]
    row_terms, start = [], 0
    for run in runs:
        stop = start + run.docs.shape[0]
        phi = run.factor * final_w[start:stop, None, :]
        norm = phi.sum(axis=2)
        phi /= norm[:, :, None]
        state.phi[run.rows] = phi[np.arange(phi.shape[1]) < run.num_rows[:, None]]
        row_terms.append((run.slot_counts * (run.rowmax + np.log(norm))).sum(axis=1))
        start = stop
    own = (gammaln(final_gamma).sum(axis=1) - gammaln(final_gamma.sum(axis=1))
           + _joined(row_terms) - xlogy(topic_counts, final_w).sum(axis=1))
    return float(own.sum() + docs.shape[0] * (gammaln(alpha.sum()) - gammaln(alpha).sum()))


def _joined(arrays):
    """The arrays concatenated, or the only one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stretches(parts):
    """Each tuple of per-document arrays with the start and stop of its
    documents among all, its first array's documents following the
    previous tuple's; a tuple without documents is left out."""
    stretches, start = [], 0
    for arrays in parts:
        stop = start + arrays[0].shape[0]
        if stop > start:
            stretches.append((*arrays, start, stop))
        start = stop
    return stretches


def _sweep(params, state, runs, guarded, tol):
    """One Jacobi sweep over all documents, in at most two visits.

    First the unguarded runs, all in one visit on topic weights (see
    `_visit_unguarded`), then the guarded block, unless it is None:
    for the sigmoid, probit, and gaussian kinds the link gradient reads
    the document's own mean, so an iteration can overshoot, and
    `_visit_guarded` damps it.  No document of the first visit is a
    neighbor of one of the second, so every document reads its
    neighbors' means from the sweep's start.  Returns the documents' own
    bound terms: the bound without its link term.
    """
    total = _visit_unguarded(params, state, runs, tol) if runs else 0.0
    if guarded is not None:
        total += _visit_guarded(params, state, guarded, tol)
    return total


def _step_back(corpus, params, state, start, floor):
    """Step a sweep whose bound fell below floor back toward start, its
    phi rows, gamma and phi_bar; return the bound, or None if the state
    is reset to start.  Every row moves by `_mix` with one step lam, and
    gamma = alpha + N_d phi_bar_d, as in `_damp`; lam starts at 1/2 and
    is halved while the bound is below floor, down to `_damp`'s 1e-4.
    Either way var_bar is refreshed."""
    end, lam = state.phi.copy(), 1.0
    while (lam := lam / 2) >= 1e-4:
        state.phi[...] = _mix(start[0], end, lam)
        state.phi_bar[...] = _mean(corpus.counts, state.phi, corpus.indptr[:-1], corpus.lengths)
        state.gamma[...] = params.alpha + corpus.lengths[:, None] * state.phi_bar
        state.refresh_var_bar()
        value = elbo(corpus, params, state).total
        if value >= floor:
            return value
    state.phi[...], state.gamma[...], state.phi_bar[...] = start
    state.refresh_var_bar()
    return None


def _check_tol(tol):
    """Reject a posterior loop's tolerance unless it is finite and > 0:
    at 0, below it or nan no loop converges, and at inf every loop stops
    after one step."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def run_e_step(corpus, params, state, tol=1e-6, max_sweeps=100, *, start_bound=None):
    """Coordinate ascent to convergence; returns (state, elbo trace).

    Terminates when the relative bound change between sweeps drops below
    tol or max_sweeps is reached; the latter is logged as a warning.
    tol must be finite and > 0.  The trace holds the bound before any
    update followed by one value per sweep.  The first value is
    `elbo(corpus, params, state).total`, unless a caller that has just
    computed it, as `fit` has after an M-step, passes it as start_bound.
    A sweep's value is the sum of the own terms its visits return plus
    the link term over the observed links.  Uncoupled (eta = 0 or no
    link), the link term does not depend on the state and is computed
    once per E-step.  A sweep that lowers the bound by more than
    `_damp`'s slack, 1e-12 (1 + |bound|), is stepped back (see
    `_step_back`), or reset to its start, which repeats the previous
    value and stops the E-step; either is logged once per E-step.  On
    return var_bar is refreshed for every document, so phi_bar, var_bar
    and the rows agree (see `VariationalState`).  The state must hold
    corpus's documents and the model's topic count (see `_check_state`).
    Deterministic, with fixed summation order.
    """
    _check_tol(tol)
    _check_state(corpus, params, state)

    coupled = _coupled(params)
    runs, guarded = _blocks(corpus, params)
    current = elbo(corpus, params, state).total if start_bound is None else start_bound
    if not np.isfinite(current):
        raise FloatingPointError(f"non-finite ELBO at E-step start: {current}")
    # uncoupled, every link's predictor is exactly nu (-nu for the gaussian
    # kind) whatever the state, so every sweep has the same link term
    link_term = None if coupled else _link_term(corpus, params, state)
    trace = [current]
    fell = []  # per sweep that lowered the bound, what _step_back returned
    for _ in range(max_sweeps):
        start = state.phi.copy(), state.gamma.copy(), state.phi_bar.copy()
        value = _sweep(params, state, runs, guarded, tol) + (
            _link_term(corpus, params, state) if coupled else link_term)
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite ELBO during E-step: {value}")
        floor = current - 1e-12 * (1.0 + abs(current))
        if value < floor:
            fell.append(_step_back(corpus, params, state, start, floor))
            value = current if fell[-1] is None else fell[-1]
        trace.append(value)
        if abs(value - current) <= tol * max(1.0, abs(current)):
            break
        current = value
    else:
        logger.warning("E-step stopped at max_sweeps=%d with the bound still changing "
                       "by more than tol=%g", max_sweeps, tol)
    if fell:
        logger.warning("the bound fell in %d of %d E-step sweeps (stepped back toward their "
                       "start state: %d, kept at it: %d)", len(fell), len(trace) - 1,
                       len(fell) - fell.count(None), fell.count(None))
    state.refresh_var_bar()
    return state, trace
