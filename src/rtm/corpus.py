"""Document-network corpora: loading, validation, folds, and synthesis.

A corpus is a set of documents over a shared vocabulary plus an
undirected link set.  Documents are sparse term-count vectors, stored as
the rows of one CSR matrix (see `Corpus`); links are unordered index
pairs with no self-links.  File formats:

  docs file    one document per line: `M term:count [term:count ...]`
               where M is the number of entries on the line, ids 0-based;
               document d is line d, 0-based (trailing blank lines are
               dropped; a blank line before a document is an error)
  vocab file   one token per line; the token on line i has id i (a blank
               line inside the file is a token; trailing blank lines are not)
  links file   one `d1 d2` pair per line, whitespace separated, 0-based

Directed link files are collapsed to undirected pairs and duplicates are
removed.  Documents with no links are kept (with a warning from the
loader).
"""

import logging
import operator

from dataclasses import dataclass

import numpy as np

from .linkfn import LinkParams, link_probability

logger = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    """Raised for malformed or inconsistent corpus files."""


class Corpus:
    """Immutable bag-of-words corpus with an undirected link set.

    Documents are the rows of a D x V count matrix in CSR form: indptr,
    terms (increasing within each document) and counts.  `rows(d)` slices
    d's entries in them and in aligned arrays; `doc(d)` returns views.

    Construction checks every input rule (see `_merged_doc` and
    `_link_pair`), naming the faulty document.  Its arrays are read-only,
    so instances are safe to share across threads.
    """

    def __init__(self, vocab, docs, links=()):
        vocab = list(vocab)
        if not docs:
            raise ValueError("corpus must contain at least one document")
        merged = []
        for d, doc in enumerate(docs):
            try:
                merged.append(_merged_doc(doc, len(vocab)))
            except ValueError as exc:
                raise ValueError(f"doc {d}: {exc}") from None
        self._fill(vocab, merged, {_link_pair(d1, d2, len(docs)) for d1, d2 in links})

    @classmethod
    def _from_checked(cls, vocab, merged, pairs):
        """A corpus from inputs that already passed the rules: one `_merged_doc`
        dict per document and a set of `_link_pair` pairs."""
        corpus = object.__new__(cls)
        corpus._fill(vocab, merged, pairs)
        return corpus

    def _fill(self, vocab, merged, pairs):
        """Build the read-only arrays from checked documents and links."""
        self.vocab = vocab
        indptr = [0]
        entries = []
        for doc in merged:
            entries.extend(sorted(doc.items()))
            indptr.append(len(entries))
        self.indptr = np.array(indptr, dtype=np.int64)
        self.terms, self.counts = np.array(entries, dtype=np.int64).T.copy()
        self.links = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)

        self.lengths = np.add.reduceat(self.counts, self.indptr[:-1])
        neighbors = [[] for _ in range(self.num_docs)]
        for d1, d2 in self.links:
            neighbors[d1].append(d2)
            neighbors[d2].append(d1)
        self.neighbors = [np.array(sorted(ns), dtype=np.int64) for ns in neighbors]
        for array in (self.indptr, self.terms, self.counts, self.links, self.lengths,
                      *self.neighbors):
            array.flags.writeable = False

    @property
    def num_docs(self):
        return self.indptr.shape[0] - 1

    @property
    def num_terms(self):
        return len(self.vocab)

    @property
    def num_links(self):
        return self.links.shape[0]

    def rows(self, d):
        """Slice of document d's positions in terms, counts and phi."""
        return slice(int(self.indptr[d]), int(self.indptr[d + 1]))

    def doc(self, d):
        """(terms, counts) views for document d."""
        rows = self.rows(d)
        return self.terms[rows], self.counts[rows]

    def link_set(self):
        return {(int(a), int(b)) for a, b in self.links}

    def isolated_docs(self):
        return np.flatnonzero([ns.size == 0 for ns in self.neighbors])


# --- input rules: each raises ValueError with an unprefixed message, which
# Corpus prefixes with the document and load_corpus with the file line


def _doc_id(value, name, num_docs):
    """value as a document id in [0, num_docs).  Python and numpy integers
    pass; anything else (a float, a string) is rejected, not truncated or
    parsed, with a ValueError that calls it name."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if not 0 <= value < num_docs:
        raise ValueError(f"{name} {value} out of range [0, {num_docs})")
    return value


def _merged_doc(doc, num_terms):
    """{term: summed count} of one document's (term, count) entries.

    Rejects a term id or count that is not an integer, a term id outside
    [0, num_terms), a count below 1, and a document without entries.
    """
    merged = {}
    for term, count in doc:
        try:
            term, count = operator.index(term), operator.index(count)
        except TypeError:
            raise ValueError(f"entry {term!r}:{count!r} is not a pair of integers") from None
        if not 0 <= term < num_terms:
            raise ValueError(f"term id {term} out of range [0, {num_terms})")
        if count < 1:
            raise ValueError(f"term {term} has count {count} < 1")
        merged[term] = merged.get(term, 0) + count
    if not merged:
        raise ValueError("zero-length document")
    return merged


def _link_pair(d1, d2, num_docs):
    """(lower, higher) endpoint of one link; rejects endpoints that are not
    document ids (`_doc_id`) and self-links."""
    d1, d2 = (_doc_id(d, "link endpoint", num_docs) for d in (d1, d2))
    if d1 == d2:
        raise ValueError(f"self-link on document {d1}")
    return min(d1, d2), max(d1, d2)


def _parse_entries(entries):
    """(term, count) pairs of `term:count` strings, not yet checked against
    the input rules; ValueError names the malformed entry."""
    doc = []
    for entry in entries:
        term_s, sep, count_s = entry.partition(":")
        if not sep:
            raise ValueError(f"malformed entry {entry!r} (expected term:count)")
        try:
            doc.append((int(term_s), int(count_s)))
        except ValueError:
            raise ValueError(f"malformed entry {entry!r}") from None
    return doc


def _parse_doc_line(line, lineno, num_terms):
    parts = line.split()
    try:
        declared = int(parts[0])
    except (ValueError, IndexError):
        raise CorpusFormatError(f"docs line {lineno}: missing entry count") from None
    entries = parts[1:]
    if len(entries) != declared:
        raise CorpusFormatError(
            f"docs line {lineno}: declares {declared} entries, found {len(entries)}")
    try:
        return _merged_doc(_parse_entries(entries), num_terms)
    except ValueError as exc:
        raise CorpusFormatError(f"docs line {lineno}: {exc}") from None


def _read_lines(path):
    """Lines of a UTF-8 text file, without their newlines; a byte that does
    not decode fails with one error that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def read_vocab(path):
    """Tokens of a vocab file, one per line, without its trailing blank lines."""
    vocab = _read_lines(path)
    while vocab and vocab[-1] == "":
        vocab.pop()
    return vocab


def load_corpus(docs_path, vocab_path, links_path=None):
    """Load and validate a corpus from the documented file formats.

    Links are optional; directed input is collapsed to undirected pairs.
    Document d is line d of the docs file (0-based), the id that the
    links file and every report use.  Trailing blank lines of the docs
    file are dropped, as `read_vocab` drops the vocab file's; a blank
    line with a document after it is rejected, as it would shift the ids
    after it.  Documents with no links are kept, and a warning counts
    them.
    """
    vocab = read_vocab(vocab_path)
    num_terms = len(vocab)

    lines = _read_lines(docs_path)
    while lines and not lines[-1].strip():
        lines.pop()
    docs = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise CorpusFormatError(f"{docs_path}: line {lineno} is blank, and a document "
                                    f"follows it (a document's id is its line)")
        docs.append(_parse_doc_line(line, lineno, num_terms))
    if not docs:
        raise CorpusFormatError(f"no documents found in {docs_path}")

    pairs = set()
    if links_path is not None:
        for lineno, line in enumerate(_read_lines(links_path), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"links line {lineno}: expected two indices, got {line.strip()!r}")
            try:
                d1, d2 = int(parts[0]), int(parts[1])
            except ValueError:
                raise CorpusFormatError(
                    f"links line {lineno}: non-integer index in {line.strip()!r}"
                ) from None
            try:
                pairs.add(_link_pair(d1, d2, len(docs)))
            except ValueError as exc:
                raise CorpusFormatError(f"links line {lineno}: {exc}") from None

    corpus = Corpus._from_checked(vocab, docs, pairs)
    isolated = corpus.isolated_docs()
    if isolated.size:
        logger.warning("corpus has %d documents with no links", isolated.size)
    return corpus


def write_corpus(corpus, docs_path, vocab_path, links_path):
    """Write a corpus back out in the same formats the loader reads."""
    with open(vocab_path, "w", encoding="utf-8") as fh:
        for token in corpus.vocab:
            fh.write(token + "\n")
    with open(docs_path, "w", encoding="utf-8") as fh:
        for terms, counts in map(corpus.doc, range(corpus.num_docs)):
            entries = " ".join(f"{t}:{c}" for t, c in zip(terms, counts))
            fh.write(f"{len(terms)} {entries}\n")
    with open(links_path, "w", encoding="utf-8") as fh:
        for d1, d2 in corpus.links:
            fh.write(f"{d1} {d2}\n")


def subcorpus(corpus, doc_ids):
    """Corpus restricted to doc_ids (renumbered in the given order).

    Links with an endpoint outside doc_ids are dropped.  An id that is
    not an integer in [0, corpus.num_docs), or that is repeated, is
    rejected.
    """
    doc_ids = [_doc_id(d, "document id", corpus.num_docs) for d in doc_ids]
    remap = {d: i for i, d in enumerate(doc_ids)}
    if len(remap) < len(doc_ids):
        repeated = next(d for i, d in enumerate(doc_ids) if remap[d] != i)
        raise ValueError(f"document id {repeated} repeated")
    docs = [list(zip(*corpus.doc(d))) for d in doc_ids]
    links = [(remap[a], remap[b]) for a, b in corpus.link_set()
             if a in remap and b in remap]
    return Corpus(corpus.vocab, docs, links)


@dataclass
class FoldPlan:
    """Per-document fold assignment for k-fold evaluation."""

    assignments: np.ndarray
    k: int

    def test_docs(self, fold):
        return np.flatnonzero(self.assignments == fold)

    def train_docs(self, fold):
        return np.flatnonzero(self.assignments != fold)


def split_folds(corpus, k, seed):
    """Assign documents to k balanced folds, uniformly at random.

    Deterministic given the seed; fold sizes differ by at most one.
    """
    d = corpus.num_docs
    if not 2 <= k <= d:
        raise ValueError(f"fold count {k} out of range [2, {d}]")
    rng = np.random.default_rng(seed)
    assignments = np.empty(d, dtype=np.int64)
    assignments[rng.permutation(d)] = np.arange(d) % k
    return FoldPlan(assignments=assignments, k=k)


def training_view(corpus, plan, fold):
    """Training corpus for one fold: test documents and their links removed.

    Returns (train corpus, original indices of the training docs).
    """
    train_ids = plan.train_docs(fold)
    return subcorpus(corpus, train_ids), train_ids


@dataclass
class SyntheticTruth:
    """Ground-truth parameters and latents behind a synthetic corpus."""

    beta: np.ndarray
    alpha: np.ndarray
    theta: np.ndarray
    zbar: np.ndarray
    link_params: LinkParams


def block_topics(num_topics, num_terms):
    """Row-stochastic topics with disjoint uniform vocabulary blocks."""
    if num_terms < num_topics:
        raise ValueError("need at least one term per topic")
    beta = np.zeros((num_topics, num_terms))
    bounds = np.linspace(0, num_terms, num_topics + 1).astype(int)
    for k in range(num_topics):
        beta[k, bounds[k]:bounds[k + 1]] = 1.0 / (bounds[k + 1] - bounds[k])
    return beta


def generate_synthetic(num_topics, num_terms, num_docs, doc_length, alpha,
                       eta, nu, link_fn, seed):
    """Sample a document network from the generative model.

    The topics are `block_topics`.  Each document draws topic
    proportions from Dirichlet(alpha), then doc_length topic assignments
    and words; each unordered document pair draws a link indicator from
    the chosen link function evaluated at the two empirical mean
    assignment vectors.  Only positive links are recorded.
    Deterministic given the seed.
    """
    if num_topics < 1:
        raise ValueError(f"num_topics must be at least 1, got {num_topics}")
    if num_docs < 1:
        raise ValueError(f"num_docs must be at least 1, got {num_docs}")
    if doc_length < 1:
        raise ValueError(f"doc_length must be at least 1, got {doc_length}")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim == 0:
        alpha = np.full(num_topics, float(alpha))
    if alpha.shape != (num_topics,) or not np.all((0 < alpha) & (alpha < np.inf)):
        raise ValueError("alpha must be a positive finite vector of length num_topics")
    params = LinkParams(eta=eta, nu=nu, kind=link_fn)
    params.check_admissible()
    beta = block_topics(num_topics, num_terms)

    rng = np.random.default_rng(seed)
    theta = rng.dirichlet(alpha, size=num_docs)
    zbar = np.empty((num_docs, num_topics))
    docs = []
    for d in range(num_docs):
        topic_counts = rng.multinomial(doc_length, theta[d])
        zbar[d] = topic_counts / doc_length
        word_counts = np.zeros(num_terms, dtype=np.int64)
        for k in np.flatnonzero(topic_counts):
            word_counts += rng.multinomial(topic_counts[k], beta[k])
        terms = np.flatnonzero(word_counts)
        docs.append([(int(t), int(word_counts[t])) for t in terms])

    # one anchor document at a time, in the pair order of triu_indices, so that
    # no (pairs, K) array is ever held
    left, right = np.triu_indices(num_docs, k=1)
    probs = np.concatenate([link_probability(params, zbar[i], zbar[i + 1:])
                            for i in range(num_docs)])
    linked = rng.random(probs.shape[0]) < probs
    links = list(zip(left[linked], right[linked]))

    truth = SyntheticTruth(beta=beta, alpha=alpha, theta=theta, zbar=zbar, link_params=params)
    return Corpus([f"w{j}" for j in range(num_terms)], docs, links), truth
