"""Held-out inference, link and word prediction, and rank-based evaluation.

Two predictive queries are supported for documents outside the training
set: score links to training documents given only the new document's
words, and predict the new document's words given only its links into
the training set.  Both run the same document-local variational loop
against the frozen model (`infer_heldout`).  Words enter as one row of
phi per distinct term, with that term's log beta as evidence.  Links
enter as a single pseudo-token with no word evidence, pulled by the
gradient of the expected log links towards the posterior means of the
linked training documents.  The loop iterates on K per-topic weights:
the evidence is exponentiated once per query, as in lda-c, and the phi
rows are formed after the loop.

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
from .corpus import _merged_doc, training_view

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
    one row per distinct term, with the term's log beta as its evidence;
    a term whose beta column is zero in every topic is rejected.  links
    is a sequence of indices into train_phi_bar, the fixed posterior
    means of the training documents.  The document is then one
    pseudo-token (count 1) with no word evidence, which under an RTM kind
    takes the link gradient towards the linked means; baseline kinds
    ignore links.  A negative index is always rejected; an index past the
    last training document only when train_phi_bar is given, which is
    required under an RTM kind and optional under a baseline kind.

    phi starts uniform and gamma at alpha + N / K, for N tokens.  An
    iteration sets each phi row to the softmax of E[log theta] + evidence
    + link gradient, then gamma to alpha + counts @ phi.  The softmax is
    taken in factored form: with the row factor F = exp(evidence - its
    row max), computed once, and the topic weights w = exp(d - max d) for
    d = psi(gamma) + link gradient, phi = F * w / (F @ w) row by row.  So
    gamma = alpha + w * ((counts / (F @ w)) @ F) takes two matrix-vector
    products, and phi is formed after the loop (each iteration only for
    the links-only pseudo-token, whose link gradient reads it).
    psi(sum gamma) is left out of E[log theta], as a shift shared by
    every topic cancels in the softmax.  The loop stops once
    sum |change in gamma| < tol * K * N, that is mean |change| / N < tol,
    or after _MAX_ITERS (100) iterations.  The cap binds: for
    generating-parameter models of three 200-document exponential draws
    (K = 10, 500 terms, 40 tokens, alpha 0.1, eta 2.5, nu -2.5), 26 of 480
    word queries stop at it unconverged at tol 1e-6.
    """
    if (words is None) == (links is None):
        raise ValueError("provide exactly one of words= or links=")
    params = model.params
    k = params.num_topics
    link = None
    if words is not None:
        words = list(words)
        if not words:
            raise ValueError("empty word evidence")
        merged = _merged_doc(words, params.num_terms)
        terms = list(merged)
        evidence = params.log_beta[:, terms].T
        dead = np.isneginf(evidence).all(axis=1)
        if dead.any():
            raise ValueError(f"beta column of term {terms[np.argmax(dead)]} is entirely "
                             "zero (unsmoothed model)")
        factor = np.exp(evidence - evidence.max(axis=1, keepdims=True))
        counts = np.array(list(merged.values()), dtype=np.float64)
    else:
        links = np.asarray(list(links), dtype=np.int64)
        if links.size == 0:
            raise ValueError("empty link evidence")
        upper = np.inf if train_phi_bar is None else len(train_phi_bar)
        bad = links[(links < 0) | (links >= upper)]
        if bad.size:
            raise ValueError(f"training document id {bad[0]} out of range [0, {upper})")
        factor, counts = np.ones((1, k)), np.ones(1)
        link = _topic_link(model)
        if link is not None:
            if train_phi_bar is None:
                raise ValueError("links-only inference requires train_phi_bar")
            neighbor_means = np.asarray(train_phi_bar)[links]
            phi_row = np.full(k, 1.0 / k)

    n = counts.sum()
    stop = tol * k * n
    gamma = params.alpha + n / k
    for _ in range(_MAX_ITERS):
        d = psi(gamma)
        if link is not None:
            d += _link_gradient(link, neighbor_means, phi_row)
        w = np.exp(d - d.max())
        norm = factor @ w
        new_gamma = params.alpha + w * ((counts / norm) @ factor)
        if link is not None:
            phi_row = w / norm[0]
        change = np.abs(new_gamma - gamma).sum()
        gamma = new_gamma
        if change < stop:
            break
    phi = factor * (w / norm[:, None])
    return HeldoutPosterior(phi_bar=counts @ phi / n, gamma=gamma,
                            var=counts @ (phi * (1.0 - phi)) / n**2)


def score_train_docs(model, heldout, train_phi_bar, train_var):
    """Predicted link probability between a held-out doc and each training doc.

    Evaluates exp of the expected log link probability, which plugs the
    posterior means into the link function (exact for the exponential
    kind, first-order for sigmoid/probit, variance-corrected for
    gaussian).  train_phi_bar holds one training document's posterior
    mean per row, train_var the matching variances.
    """
    if model.params.link is None:
        raise ValueError(f"model kind {model.kind!r} does not score links")
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
    query run at their loops' own tolerances.
    """
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
