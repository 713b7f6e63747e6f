"""Held-out inference, link and word prediction, and rank-based evaluation.

Two predictive queries are supported for documents outside the training
set: score links to training documents given only the new document's
words, and predict the new document's words given only its links into
the training set.  Both run document-local variational inference against
the frozen model; the links-only case represents the new document by a
single latent pseudo-token whose update drops the word evidence term.

Evaluation reports the average rank of each true link among all scored
training documents and of each held-out token among the vocabulary
(lower is better), with ties resolved by average rank, plus the
precision of the top-k retrieved documents.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import psi
from scipy.stats import rankdata

from . import inference, linkfn
from .corpus import training_view

_MAX_ITERS = 100


@dataclass
class HeldoutPosterior:
    """Variational posterior of a held-out document.

    evidence is "words" or "links".  var caches Var(zbar_i), needed when
    scoring links under the gaussian kind.
    """

    phi_bar: np.ndarray
    gamma: np.ndarray
    evidence: str
    var: np.ndarray | None = None


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _check_ids(what, ids, size):
    bad = ids[(ids < 0) | (ids >= size)]
    if bad.size:
        raise ValueError(f"{what} id {bad[0]} out of range [0, {size})")


def infer_heldout(model, words=None, links=None, train_phi_bar=None, tol=1e-6):
    """Posterior for a new document from words only or links only.

    words is a sequence of (term_id, count) pairs with term ids in the
    model's vocabulary.  links is a sequence of training-document
    indices into train_phi_bar, the fixed posterior means of the
    training documents.  Exactly one evidence type must be given and it
    must be nonempty.
    """
    if (words is None) == (links is None):
        raise ValueError("provide exactly one of words= or links=")
    alpha = model.params.alpha
    k = alpha.shape[0]

    if words is not None:
        words = list(words)
        if not words:
            raise ValueError("empty word evidence")
        terms = np.array([int(t) for t, _ in words])
        counts = np.array([float(c) for _, c in words])
        if np.any(counts < 1):
            raise ValueError("word counts must be >= 1")
        _check_ids("term", terms, model.params.num_terms)
        n = counts.sum()
        log_beta = inference._log_beta_matrix(model.params.beta)[:, terms].T
        gamma = alpha + n / k
        phi = np.full((terms.shape[0], k), 1.0 / k)
        for _ in range(_MAX_ITERS):
            elog_theta = psi(gamma) - psi(gamma.sum())
            expo = elog_theta + log_beta
            expo -= expo.max(axis=1, keepdims=True)
            phi = np.exp(expo)
            phi /= phi.sum(axis=1, keepdims=True)
            new_gamma = alpha + counts @ phi
            change = float(np.abs(new_gamma - gamma).mean()) / n
            gamma = new_gamma
            if change < tol:
                break
        phi_bar = counts @ phi / n
        var = counts @ (phi * (1.0 - phi)) / n**2
        return HeldoutPosterior(phi_bar=phi_bar, gamma=gamma, evidence="words", var=var)

    links = np.asarray(list(links), dtype=np.int64)
    if links.size == 0:
        raise ValueError("empty link evidence")
    if train_phi_bar is not None:
        _check_ids("training document", links, len(train_phi_bar))
    # baseline kinds condition on words alone: lda_regression's link stage
    # scores links but never feeds back into topic posteriors
    link = model.params.link if model.kind in linkfn.KINDS else None
    neighbor_means = None
    if link is not None:
        if train_phi_bar is None:
            raise ValueError("links-only inference requires train_phi_bar")
        neighbor_means = np.asarray(train_phi_bar)[links]

    phi = np.full(k, 1.0 / k)
    gamma = alpha + phi
    for _ in range(_MAX_ITERS):
        elog_theta = psi(gamma) - psi(gamma.sum())
        g = np.zeros(k)
        if link is not None:
            if link.kind == "gaussian":
                # single pseudo-token: the leave-one-out mean is zero
                g = 2.0 * link.eta * (neighbor_means.sum(axis=0)
                                      - links.shape[0] * 0.5)
            else:
                x = neighbor_means @ (link.eta * phi) + link.nu
                coeff = linkfn.gradient_coefficient(link, x)
                g = (coeff @ neighbor_means) * link.eta
        new_phi = _softmax(elog_theta + g)
        change = float(np.abs(new_phi - phi).sum())
        phi = new_phi
        gamma = alpha + phi
        if change < tol:
            break
    return HeldoutPosterior(phi_bar=phi, gamma=gamma, evidence="links",
                            var=phi * (1.0 - phi))


def score_train_docs(model, heldout, train_phi_bar, train_var=None):
    """Predicted link probability between a held-out doc and each training doc.

    Evaluates exp of the expected log link probability, which plugs the
    posterior means into the link function (exact for the exponential
    kind, first-order for sigmoid/probit, variance-corrected for
    gaussian).  train_phi_bar holds one training document's posterior
    mean per row, train_var the matching variances (zero if omitted).
    """
    if model.params.link is None:
        raise ValueError(f"model kind {model.kind!r} does not score links")
    train_phi_bar = np.asarray(train_phi_bar, dtype=np.float64)
    var_h = heldout.var if heldout.var is not None else np.zeros_like(heldout.phi_bar)
    if train_var is None:
        train_var = np.zeros_like(train_phi_bar)
    return np.exp(linkfn.expected_log_link_batch(
        model.params.link, heldout.phi_bar, train_phi_bar, var_h, train_var))


def predict_word_dist(model, heldout):
    """Predictive distribution over the vocabulary: phi' beta.

    Intended for links-only posteriors, whose single pseudo-token phi is
    the posterior mean.
    """
    dist = heldout.phi_bar @ model.params.beta
    return dist / dist.sum()


def average_ranks(scores):
    """1-based ranks by descending score, ties assigned their average rank."""
    return rankdata(-np.asarray(scores, dtype=np.float64), method="average")


def retrieval_order(scores):
    """Candidate indices by descending score, ties broken by index."""
    scores = np.asarray(scores)
    return np.lexsort((np.arange(scores.shape[0]), -scores))


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


def train_posteriors(model, train_corpus, seed=0, tol=1e-6, max_sweeps=100):
    """Variational posteriors of the training documents under a frozen model.

    RTM kinds use their link terms; baseline kinds condition on words
    alone (the regression stage of lda_regression never feeds back into
    its topic posteriors).
    """
    if train_corpus.num_terms > model.params.num_terms:
        raise ValueError(
            f"corpus has {train_corpus.num_terms} terms, more than the model's "
            f"{model.params.num_terms}")
    link = model.params.link if model.kind in linkfn.KINDS else None
    params = inference.ModelParams(beta=model.params.beta,
                                   alpha=model.params.alpha, link=link)
    state = inference.init_state(train_corpus, params.num_topics,
                                 params.alpha, seed)
    state, _ = inference.run_e_step(train_corpus, params, state,
                                    tol=tol, max_sweeps=max_sweeps)
    return state


def evaluate_fold(model, corpus, plan, fold, top_k=20, tol=1e-6,
                  rank_distinct_terms=False):
    """Held-out link and word rank for one fold's test documents.

    The model must have been trained on the fold's training view (test
    documents and their links removed).  Link rank averages the rank of
    every true (test doc, training doc) link among all training
    candidates; word rank averages the rank of each held-out token
    occurrence in the links-only predictive word distribution (or each
    distinct term with rank_distinct_terms=True).  Test documents with
    no surviving links are skipped and counted.
    """
    train_corpus, train_ids = training_view(corpus, plan, fold)
    test_ids = plan.test_docs(fold)
    state = train_posteriors(model, train_corpus, seed=plan.seed, tol=tol)
    train_pos = {int(orig): i for i, orig in enumerate(train_ids)}

    scores_links = model.params.link is not None
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
            heldout_w = infer_heldout(model, words=zip(terms, counts), tol=tol)
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
                                  train_phi_bar=state.phi_bar, tol=tol)
        word_dist = predict_word_dist(model, heldout_l)
        vocab_ranks = average_ranks(word_dist)
        weights = np.ones_like(counts) if rank_distinct_terms else counts
        doc_word_rank = float((vocab_ranks[terms] * weights).sum() / weights.sum())
        word_ranks.extend(np.repeat(vocab_ranks[terms], weights))
        rows.append((doc, "word_rank", doc_word_rank))

    return RankReport(
        mean_link_rank=float(np.mean(link_ranks)) if link_ranks else float("nan"),
        mean_word_rank=float(np.mean(word_ranks)) if word_ranks else float("nan"),
        precision_at_k=float(np.mean(precisions)) if precisions else float("nan"),
        top_k=top_k, rows=rows, num_test_docs=len(test_ids),
        num_skipped_linkless=skipped)
