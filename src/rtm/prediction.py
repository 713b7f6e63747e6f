"""Held-out inference, link and word prediction, and rank-based evaluation.

Two predictive queries are supported for documents outside the training
set: score links to training documents given only the new document's
words, and predict the new document's words given only its links into
the training set.  Both run the same document-local variational loop
against the frozen model (`infer_heldout`).  Words enter as one row of
phi per distinct term, with that term's log beta as evidence.  Links
enter as a single pseudo-token with no word evidence, pulled by the
gradient of the expected log links towards the posterior means of the
linked training documents.  The loop iterates on K per-topic weights,
as in lda-c: the words' evidence enters as row factors that each model
builds once, at construction (`inference.ModelParams.row_factor`, which
the E-step gathers too), and the phi rows are formed after the loop.
Its map on gamma converges linearly, and the loop speeds it up by
squared extrapolation (SQUAREM), projecting each extrapolated point onto
gamma >= alpha and returning always a map's output.

Evaluation reports the average rank of each true link among all scored
training documents and of each held-out token among the vocabulary
(lower is better), with ties resolved by average rank, plus the
precision of the top-k retrieved documents.
"""

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
from scipy.special import psi

from . import inference, linkfn
from .corpus import _doc_id, _merged_doc, training_view

_MAX_ITERS = 100


@dataclass
class HeldoutPosterior:
    """Variational posterior of a held-out document.

    var caches Var(zbar_i), needed when scoring links under the gaussian kind.
    """

    phi_bar: np.ndarray
    gamma: np.ndarray
    var: np.ndarray


def _topic_link(model):
    """model's link function if links shape its topic posteriors, else None:
    baseline kinds condition on words alone, as lda_regression's regression
    stage never feeds back into its topics."""
    return model.params.link if model.kind in linkfn.KINDS else None


def _link_gradient(link, neighbor_means, phi):
    """d/dphi of a one-token document's expected log links to neighbor_means."""
    if link.kind == "gaussian":
        # one token: the document mean without it is zero
        return linkfn.grad_phi_gaussian(link, neighbor_means.sum(axis=0),
                                        neighbor_means.shape[0], np.zeros_like(phi), 1)
    x = neighbor_means @ (link.eta * phi) + link.nu
    return (linkfn.gradient_coefficient(link, x) @ neighbor_means) * link.eta


def infer_heldout(model, words=None, links=None, train_phi_bar=None, tol=1e-6):
    """Posterior for a new document from words only or links only.

    Exactly one evidence type must be given, and it must be nonempty.
    words is a sequence of (term_id, count) pairs that must pass the
    corpus rules for one document; a repeated term has its counts summed,
    so the posterior is exactly that of the merged words.  phi then has
    one row per distinct term, with the term's log beta as its evidence,
    floored like every log beta (see `inference.ModelParams`).  links
    is a sequence of indices into train_phi_bar, the fixed posterior
    means of the training documents; a repeated index counts once, as
    the corpus loader collapses repeated links.  The document is then one
    pseudo-token (count 1) with no word evidence, which under an RTM kind
    takes the link gradient towards the linked means; baseline kinds
    ignore links.  An index that is not an integer, or is negative, is
    always rejected; an index past the last training document only when
    train_phi_bar is given, which is required under an RTM kind and
    optional under a baseline kind.

    phi starts uniform and gamma at alpha + N / K, for N tokens.  One map
    G sets each phi row to the softmax of E[log theta] + evidence + link
    gradient, then gamma to alpha + counts @ phi.  The softmax is taken
    in factored form: with the row factor F = exp(evidence - its row
    max), the query's rows of `ModelParams.row_factor` (built once per
    model, at its construction), and the topic weights w = exp(d - max d)
    for d = psi(gamma) + link gradient, phi = F * w / (F @ w) row by row.
    So G(gamma) = alpha + w * ((counts / (F @ w)) @ F) takes two
    matrix-vector products, and phi is formed after the loop.  The
    links-only pseudo-token's phi, which its link gradient reads, is
    (gamma - alpha) / N, so G is a function of gamma alone.
    psi(sum gamma) is left out of E[log theta], as a shift shared by
    every topic cancels in the softmax.

    G converges linearly, so the loop runs it in cycles of squared
    extrapolation (SQUAREM; Varadhan & Roland 2008).  From gamma, with
    r = G(gamma) - gamma, v = G(G(gamma)) - 2 G(gamma) + gamma and the
    step s = |r| / |v| in Euclidean norm, a cycle moves to x = gamma +
    2 s r + s^2 v, projected onto gamma >= alpha (max(x, alpha) topic by
    topic), and one more map, G(x), stabilises it before the next cycle
    starts there.  A projected x can hold more than N in gamma - alpha;
    only the stabilising map reads it, and G's output holds exactly N.
    When s is at most 1, the cycle ends at G(G(gamma)) instead, and the
    next one starts there.  Every map is tested: the loop stops once
    sum |G(gamma) - gamma| < tol * K * N, that is mean |change| / N <
    tol, or after _MAX_ITERS (100) maps, and it returns that last map's
    output and phi, never an extrapolated point.  tol must be finite and > 0.  For
    generating-parameter models of three 200-document exponential draws
    (K = 10, 500 terms, 40 tokens, alpha 0.1, eta 2.5, nu -2.5; the
    benchmark's suggest workload at seeds 1-3), the 1,440 word queries
    run a mean of 10.7 maps at tol 1e-6 (median 10, at most 30) and none
    stops at the cap.  Dropping each x below alpha instead of projecting
    it ran a mean of 16.4 (median 14, at most 86), and the plain iteration
    of G a mean of 30.2 (median 18), with 73 queries stopped at the cap
    unconverged.
    """
    if (words is None) == (links is None):
        raise ValueError("provide exactly one of words= or links=")
    inference._check_tol(tol)
    params = model.params
    k = params.num_topics
    link = None
    if words is not None:
        words = list(words)
        if not words:
            raise ValueError("empty word evidence")
        merged = _merged_doc(words, params.num_terms)
        factor = params.row_factor[list(merged)]
        counts = np.array(list(merged.values()), dtype=np.float64)
    else:
        upper = np.inf if train_phi_bar is None else len(train_phi_bar)
        links = [_doc_id(d, "training document id", upper) for d in links]
        if not links:
            raise ValueError("empty link evidence")
        links = np.unique(np.array(links, dtype=np.int64))
        factor, counts = np.ones((1, k)), np.ones(1)
        link = _topic_link(model)
        if link is not None:
            if train_phi_bar is None:
                raise ValueError("links-only inference requires train_phi_bar")
            neighbor_means = np.asarray(train_phi_bar)[links]

    # ufunc reductions and ndarray.dot: the ndarray methods and @ cost
    # about twice as much per call at these sizes, for the same results
    alpha = params.alpha
    n = np.add.reduce(counts)
    stop = tol * k * n
    gamma = alpha + n / k
    r, stabilise = None, False
    for _ in range(_MAX_ITERS):
        d = psi(gamma)
        if link is not None:
            d += _link_gradient(link, neighbor_means, (gamma - alpha) / n)
        w = np.exp(d - np.maximum.reduce(d))
        norm = factor.dot(w)
        mapped = alpha + w * (counts / norm).dot(factor)
        delta = mapped - gamma
        if np.add.reduce(np.absolute(delta)) < stop:
            break
        if stabilise:
            # G(x) stabilises the extrapolated point; a cycle starts there
            stabilise, gamma = False, mapped
        elif r is None:
            start, r, gamma = gamma, delta, mapped
        else:
            # a cycle's second map: extrapolate from start along r and v
            v = delta - r
            rr, vv = r.dot(r), v.dot(v)
            gamma = mapped
            if rr > vv > 0:
                # the square roots apart, as rr / vv can overflow
                s = sqrt(rr) / sqrt(vv)
                x = start + s * (2.0 * r + s * v)
                # projected onto gamma >= alpha, and G stabilises it
                gamma, stabilise = np.maximum(x, alpha), True
            r = None
    # the last map's output, whose w and norm give phi, never an x
    gamma = mapped
    phi = factor * (w / norm[:, None])
    return HeldoutPosterior(phi_bar=counts @ phi / n, gamma=gamma,
                            var=counts @ (phi * (1.0 - phi)) / n**2)


def check_scores_links(model):
    """Raise ValueError unless model has a link function to score links with."""
    if model.params.link is None:
        raise ValueError(f"model kind {model.kind!r} does not score links")


def score_train_docs(model, heldout, train_phi_bar, train_var):
    """Predicted link probability between a held-out doc and each training doc.

    Evaluates exp of the expected log link probability, which plugs the
    posterior means into the link function (exact for the exponential
    kind, first-order for sigmoid/probit, variance-corrected for
    gaussian).  train_phi_bar holds one training document's posterior
    mean per row, train_var the matching variances.
    """
    check_scores_links(model)
    return np.exp(linkfn.expected_log_link_batch(
        model.params.link, heldout.phi_bar, train_phi_bar, heldout.var, train_var))


def predict_word_dist(model, heldout):
    """Predictive distribution over the vocabulary: phi' beta.

    Intended for links-only posteriors, whose single pseudo-token phi is
    the posterior mean.
    """
    dist = heldout.phi_bar @ model.params.beta
    return dist / dist.sum()


def average_ranks(scores):
    """1-based ranks by descending score, ties assigned their average rank.

    scores is a 1-D vector without NaN, as `score_train_docs` and
    `predict_word_dist` give; NaN and more dimensions are not handled.
    Ties are runs of equal values in the sorted vector (0.0 ties -0.0),
    and a run over 0-based positions start..end-1 ranks (start + 1 + end) / 2,
    the mean of its 1-based positions.  Ranks are half-integers, so they
    equal scipy.stats.rankdata(-scores, method="average") exactly.
    """
    negated = -np.asarray(scores, dtype=np.float64)
    order = np.argsort(negated, kind="stable")
    ordered = negated[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def retrieval_order(scores):
    """Candidate indices by descending score, ties broken by index: a
    stable sort of the negated scores, so 0.0 ties -0.0."""
    return np.argsort(-np.asarray(scores), kind="stable")


@dataclass
class RankReport:
    """Per-fold evaluation summary plus per-document detail rows."""

    mean_link_rank: float
    mean_word_rank: float
    precision_at_k: float
    top_k: int
    rows: list = field(default_factory=list)
    num_test_docs: int = 0
    num_skipped_linkless: int = 0

    def to_tsv(self):
        lines = ["doc_id\tmetric\tvalue"]
        for doc_id, metric, value in self.rows:
            lines.append(f"{doc_id}\t{metric}\t{value:.6f}")
        lines.append(f"summary\tmean_link_rank\t{_fmt(self.mean_link_rank)}")
        lines.append(f"summary\tmean_word_rank\t{_fmt(self.mean_word_rank)}")
        lines.append(f"summary\tprecision_at_{self.top_k}\t{_fmt(self.precision_at_k)}")
        lines.append(f"summary\ttest_docs\t{self.num_test_docs}")
        lines.append(f"summary\tskipped_linkless\t{self.num_skipped_linkless}")
        return "\n".join(lines) + "\n"


def _fmt(value):
    return "nan" if value is None or not np.isfinite(value) else f"{value:.6f}"


def train_posteriors(model, train_corpus, seed=0):
    """Variational posteriors of the training documents under a frozen model,
    with the link terms that `_topic_link` gives its kind, at `run_e_step`'s
    own tolerance (as inside `fit`; no fit's EM tolerance reaches it).

    The E-step starts from `init_state`'s uniform phi, so the result
    depends only on the model and the corpus.  seed is not read; it is
    kept only because the benchmark's workloads still pass it.
    """
    if train_corpus.num_terms > model.params.num_terms:
        raise ValueError(
            f"corpus has {train_corpus.num_terms} terms, more than the model's "
            f"{model.params.num_terms}")
    params = inference.ModelParams(beta=model.params.beta,
                                   alpha=model.params.alpha, link=_topic_link(model))
    state = inference.init_state(train_corpus, params.num_topics, params.alpha)
    state, _ = inference.run_e_step(train_corpus, params, state)
    return state


def evaluate_fold(model, corpus, plan, fold, top_k=20):
    """Held-out link and word rank for one fold's test documents.

    The model must have been trained on the fold's training view (test
    documents and their links removed).  Link rank averages the rank of
    every true (test doc, training doc) link among all training
    candidates; word rank averages the rank of each held-out token
    occurrence in the links-only predictive word distribution.  Test
    documents with no surviving links are skipped and counted.  Only
    models that score links need the training documents' posteriors
    (`train_posteriors`, which reads no seed).  They and every held-out
    query run at their loops' own tolerances.  top_k must be at least 1.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    train_ids, test_ids = plan.train_docs(fold), plan.test_docs(fold)
    train_pos = {int(orig): i for i, orig in enumerate(train_ids)}
    scores_links = model.params.link is not None
    if scores_links:
        train_corpus, _ = training_view(corpus, plan, fold)
        state = train_posteriors(model, train_corpus)
    link_ranks = []
    word_ranks = []
    precisions = []
    rows = []
    skipped = 0

    for doc in test_ids:
        doc = int(doc)
        true_train = sorted(train_pos[other] for other in corpus.neighbors[doc].tolist()
                            if other in train_pos)
        terms, counts = corpus.doc(doc)

        if not true_train:
            skipped += 1
            rows.append((doc, "skipped_no_links", 1.0))
            continue

        if scores_links:
            heldout_w = infer_heldout(model, words=zip(terms, counts))
            scores = score_train_docs(model, heldout_w, state.phi_bar, state.var_bar)
            ranks = average_ranks(scores)
            doc_link_ranks = ranks[true_train]
            link_ranks.extend(doc_link_ranks)
            rows.append((doc, "link_rank", float(np.mean(doc_link_ranks))))
            order = retrieval_order(scores)
            hits = np.isin(order[:top_k], true_train).sum()
            precision = hits / top_k
            precisions.append(precision)
            rows.append((doc, "precision_at_k", float(precision)))

        heldout_l = infer_heldout(model, links=true_train,
                                  train_phi_bar=state.phi_bar if scores_links else None)
        word_dist = predict_word_dist(model, heldout_l)
        vocab_ranks = average_ranks(word_dist)
        doc_word_rank = float((vocab_ranks[terms] * counts).sum() / counts.sum())
        word_ranks.extend(np.repeat(vocab_ranks[terms], counts))
        rows.append((doc, "word_rank", doc_word_rank))

    return RankReport(
        mean_link_rank=float(np.mean(link_ranks)) if link_ranks else float("nan"),
        mean_word_rank=float(np.mean(word_ranks)) if word_ranks else float("nan"),
        precision_at_k=float(np.mean(precisions)) if precisions else float("nan"),
        top_k=top_k, rows=rows, num_test_docs=len(test_ids),
        num_skipped_linkless=skipped)
