"""Tests for corpus loading, folds, and the synthetic sampler."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm import corpus as corpus_mod
from rtm.corpus import (Corpus, CorpusFormatError, block_topics, generate_synthetic,
                        load_corpus, split_folds, subcorpus, training_view, write_corpus)
from rtm.linkfn import link_probability


def write_files(tmp_path, docs, vocab, links):
    paths = {}
    for name, content in (("docs", docs), ("vocab", vocab), ("links", links)):
        p = tmp_path / f"{name}.txt"
        p.write_text(content)
        paths[name] = str(p)
    return paths["docs"], paths["vocab"], paths["links"]


class TestLoader:
    def test_minimal_corpus(self, tmp_path):
        docs, vocab, links = write_files(tmp_path, "2 0:1 1:1\n", "a\nb\n", "")
        c = load_corpus(docs, vocab, links)
        assert c.num_docs == 1
        assert c.num_terms == 2
        assert c.lengths[0] == 2
        assert c.num_links == 0

    def test_orientation_collapse(self, tmp_path):
        docs, vocab, links = write_files(
            tmp_path, "1 0:1\n1 1:1\n", "a\nb\n", "0 1\n1 0\n")
        c = load_corpus(docs, vocab, links)
        assert c.link_set() == {(0, 1)}

    def test_term_out_of_range(self, tmp_path):
        docs, vocab, links = write_files(tmp_path, "1 5:1\n", "a\nb\n", "")
        with pytest.raises(CorpusFormatError, match="line 1.*out of range"):
            load_corpus(docs, vocab, links)

    def test_malformed_line_reports_number(self, tmp_path):
        docs, vocab, links = write_files(
            tmp_path, "1 0:1\n2 0:1\n", "a\nb\n", "")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(docs, vocab, links)

    def test_zero_length_document(self, tmp_path):
        docs, vocab, links = write_files(tmp_path, "0\n", "a\n", "")
        with pytest.raises(CorpusFormatError, match="zero-length"):
            load_corpus(docs, vocab, links)

    def test_self_link(self, tmp_path):
        docs, vocab, links = write_files(tmp_path, "1 0:1\n1 0:2\n", "a\n", "1 1\n")
        with pytest.raises(CorpusFormatError, match="self-link"):
            load_corpus(docs, vocab, links)

    def test_link_index_out_of_range(self, tmp_path):
        docs, vocab, links = write_files(tmp_path, "1 0:1\n", "a\n", "0 3\n")
        with pytest.raises(CorpusFormatError, match="out of range"):
            load_corpus(docs, vocab, links)

    def test_duplicate_terms_summed(self):
        c = Corpus(["a", "b"], [[(0, 1), (0, 2), (1, 1)]])
        assert c.lengths[0] == 4
        np.testing.assert_array_equal(c.doc(0)[1], [3, 1])

    def test_arrays_are_read_only(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 2)], [(1, 1)]], links=[(0, 1)])
        for array in (c.links, c.lengths, c.indptr, c.terms, c.counts, *c.doc(1),
                      c.neighbors[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5

    def test_isolated_docs_kept_with_a_warning(self, tmp_path, caplog):
        docs, vocab, links = write_files(
            tmp_path, "1 0:1\n1 1:1\n1 0:2\n", "a\nb\n", "0 1\n")
        with caplog.at_level("WARNING"):
            c = load_corpus(docs, vocab, links)
        assert "no links" in caplog.text
        assert c.num_docs == 3
        np.testing.assert_array_equal(c.isolated_docs(), [2])
        np.testing.assert_array_equal(c.doc(2)[1], [2])

    def test_blank_vocab_line_inside_keeps_its_id(self, tmp_path):
        # only the trailing blank lines are dropped; ids after an inner
        # blank line keep their line numbers
        docs, vocab, links = write_files(tmp_path, "1 2:1\n", "a\n\nb\n\n", "")
        c = load_corpus(docs, vocab, links)
        assert c.vocab == ["a", "", "b"]
        np.testing.assert_array_equal(c.doc(0)[0], [2])

    def test_blank_docs_line_before_a_document_rejected(self, tmp_path):
        # a skipped inner blank line would give the third line id 1, and the
        # links line would join lines 1 and 3
        docs, vocab, links = write_files(tmp_path, "1 0:1\n\n1 1:1\n", "a\nb\n", "0 1\n")
        with pytest.raises(CorpusFormatError) as raised:
            load_corpus(docs, vocab, links)
        assert str(raised.value) == (f"{docs}: line 2 is blank, and a document follows it "
                                     f"(a document's id is its line)")

    def test_trailing_blank_docs_lines_dropped(self, tmp_path):
        docs, vocab, links = write_files(tmp_path, "1 0:1\n1 1:1\n\n \n\n", "a\nb\n",
                                         "0 1\n")
        c = load_corpus(docs, vocab, links)
        assert c.num_docs == 2
        np.testing.assert_array_equal(c.doc(1)[0], [1])

    def test_links_optional(self, tmp_path):
        docs, vocab, _ = write_files(tmp_path, "1 0:1\n", "a\n", "")
        c = load_corpus(docs, vocab, None)
        assert c.num_links == 0

    def test_round_trip(self, tmp_path):
        original = Corpus(["a", "b", "c"],
                          [[(0, 2), (2, 1)], [(1, 4)], [(0, 1), (1, 1), (2, 1)]],
                          links=[(2, 0), (1, 2)])
        d1, v1, l1 = (str(tmp_path / n) for n in ("d1", "v1", "l1"))
        write_corpus(original, d1, v1, l1)
        loaded = load_corpus(d1, v1, l1)
        assert loaded.vocab == original.vocab
        assert loaded.link_set() == original.link_set()
        for name in ("indptr", "terms", "counts"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(original, name))


#: up to six documents of up to eight (term, count) entries over six terms,
#: so that most documents repeat a term
DOCS = st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)),
                         min_size=1, max_size=8), min_size=1, max_size=6)
VOCAB = [f"w{j}" for j in range(6)]


@settings(derandomize=True, deadline=None, max_examples=50)
@given(docs=DOCS)
def test_csr_arrays_match_dict_merge(docs):
    indptr, terms, counts = [0], [], []
    for doc in docs:
        merged = {}
        for term, count in doc:
            merged[term] = merged.get(term, 0) + count
        terms.extend(sorted(merged))
        counts.extend(merged[term] for term in sorted(merged))
        indptr.append(len(terms))
    c = Corpus(VOCAB, docs)
    np.testing.assert_array_equal(c.indptr, indptr)
    np.testing.assert_array_equal(c.terms, terms)
    np.testing.assert_array_equal(c.counts, counts)
    np.testing.assert_array_equal(c.lengths, [sum(n for _, n in doc) for doc in docs])
    for d in range(len(docs)):
        doc_terms, doc_counts = c.doc(d)
        np.testing.assert_array_equal(doc_terms, terms[indptr[d]:indptr[d + 1]])
        np.testing.assert_array_equal(doc_counts, counts[indptr[d]:indptr[d + 1]])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data(), docs=DOCS)
def test_write_load_round_trip_keeps_documents_and_links(data, docs):
    ends = st.integers(0, len(docs) - 1)
    links = data.draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                               max_size=8)) if len(docs) > 1 else []
    original = Corpus(VOCAB, docs, links)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("docs", "vocab", "links")]
        write_corpus(original, *paths)
        loaded = load_corpus(*paths)
    assert loaded.vocab == original.vocab
    for name in ("indptr", "terms", "counts", "links"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(original, name))


def inject_fault(data, docs, links, fault):
    """Break one input rule in place; returns (Corpus's, load_corpus's) message prefix."""
    doc_ids = st.integers(0, len(docs) - 1)
    d = data.draw(doc_ids)
    if fault == "empty":
        docs[d] = []
    elif fault in ("term", "count"):
        i = data.draw(st.integers(0, len(docs[d]) - 1))
        term, count = docs[d][i]
        if fault == "term":
            docs[d][i] = (data.draw(st.sampled_from([-1, len(VOCAB), 99])), count)
        else:
            docs[d][i] = (term, data.draw(st.integers(-2, 0)))
    else:
        i = data.draw(st.integers(0, len(links)))
        other = d if fault == "self-link" else data.draw(
            st.sampled_from([-1, len(docs), len(docs) + 3]))
        links.insert(i, data.draw(st.sampled_from([(d, other), (other, d)])))
        return "", f"links line {i + 1}: "
    return f"doc {d}: ", f"docs line {d + 1}: "


@pytest.mark.parametrize("fault", [None, "term", "count", "empty", "self-link", "link range"])
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data(), docs=DOCS)
def test_loader_and_corpus_apply_the_same_rules(fault, data, docs):
    # Corpus on the lists and load_corpus on the same lists written out fail
    # together, on the same rule, each naming the faulty document or line
    docs = [list(doc) for doc in docs]
    ends = st.integers(0, len(docs) - 1)
    links = data.draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                               max_size=6)) if len(docs) > 1 else []
    prefixes = inject_fault(data, docs, links, fault) if fault else None
    errors = []
    try:
        built = Corpus(VOCAB, docs, links)
    except ValueError as exc:
        errors.append(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("docs", "vocab", "links")]
        texts = ["".join(f"{len(doc)}" + "".join(f" {t}:{c}" for t, c in doc) + "\n"
                         for doc in docs),
                 "".join(f"{token}\n" for token in VOCAB),
                 "".join(f"{a} {b}\n" for a, b in links)]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        try:
            loaded = load_corpus(*paths)
        except CorpusFormatError as exc:
            errors.append(str(exc))
    if fault is None:
        assert errors == []
        for name in ("indptr", "terms", "counts", "links"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(built, name))
        return
    corpus_error, load_error = errors
    corpus_prefix, line_prefix = prefixes
    assert corpus_error.startswith(corpus_prefix)
    assert load_error == line_prefix + corpus_error[len(corpus_prefix):]


class TestSubcorpus:
    def test_training_view_removes_attendant_links(self):
        c = Corpus(["a"], [[(0, 1)]] * 4, links=[(0, 1), (1, 2), (2, 3)])
        plan = split_folds(c, 2, seed=0)
        train, train_ids = training_view(c, plan, 0)
        assert train.num_docs == len(train_ids)
        # only links among retained docs survive
        kept = set(int(i) for i in train_ids)
        expected = {(a, b) for a, b in c.link_set() if a in kept and b in kept}
        remap = {int(d): i for i, d in enumerate(train_ids)}
        got = {(min(remap[a], remap[b]), max(remap[a], remap[b]))
               for a, b in expected}
        assert train.link_set() == got

    def test_subcorpus_reindexes(self):
        c = Corpus(["a", "b"], [[(0, 1)], [(1, 2)], [(0, 3)]], links=[(0, 2)])
        sub = subcorpus(c, [2, 0])
        assert sub.num_docs == 2
        assert sub.link_set() == {(0, 1)}
        np.testing.assert_array_equal(sub.doc(0)[1], [3])

    def test_repeated_id_rejected(self):
        # on the chain 0-1-2, a second copy of document 1 would keep only
        # the link to 2, and the first copy none
        c = Corpus(["a"], [[(0, 1)]] * 3, links=[(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"^document id 1 repeated$"):
            subcorpus(c, [1, 1, 0])
        with pytest.raises(ValueError, match=r"^document id 0 repeated$"):
            subcorpus(c, [0, 2, 1, 0])


class TestRejectionMessages:
    """Each input rule fails with its own one-line message."""

    def test_corpus_without_documents(self):
        with pytest.raises(ValueError, match=r"^corpus must contain at least one document$"):
            Corpus(["a"], [])

    @pytest.mark.parametrize("docs, links, message", [
        ("1 0-1\n", "", "docs line 1: malformed entry '0-1' (expected term:count)"),
        ("1 0:1\n1 a:1\n", "", "docs line 2: malformed entry 'a:1'"),
        ("1 0:1\nx 0:1\n", "", "docs line 2: missing entry count"),
        ("\n \n", "", "no documents found in {docs}"),
        ("1 0:1\n1 1:1\n", "0 1\n0 1 1\n", "links line 2: expected two indices, got '0 1 1'"),
        ("1 0:1\n1 1:1\n", "0 x\n", "links line 1: non-integer index in '0 x'")])
    def test_loader(self, tmp_path, docs, links, message):
        docs, vocab, links = write_files(tmp_path, docs, "a\nb\n", links)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(message.format(docs=docs))}$"):
            load_corpus(docs, vocab, links)

    def test_block_topics_need_a_term_per_topic(self):
        with pytest.raises(ValueError, match=r"^need at least one term per topic$"):
            block_topics(3, 2)


class TestNonIntegerRejected:
    """An id or count that is not an integer (a float, a string) is rejected
    with one error that names it, not truncated or parsed; numpy integers
    pass."""

    @pytest.mark.parametrize("docs, links, message", [
        ([[(0, 2.5)], [(1, 1)], [(2, 1)]], [], "doc 0: entry 0:2.5 is not a pair of integers"),
        ([[(0, 2)], [(1.9, 1)], [(2, 1)]], [], "doc 1: entry 1.9:1 is not a pair of integers"),
        ([[(0, 2)], [("1", 1)], [(2, 1)]], [], "doc 1: entry '1':1 is not a pair of integers"),
        ([[(0, 2)], [(1, 1)], [(2, 1)]], [(0.9, 2)], "link endpoint 0.9 is not an integer"),
        ([[(0, 2)], [(1, 1)], [(2, 1)]], [(0, "2")], "link endpoint '2' is not an integer")])
    def test_corpus(self, docs, links, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(["a", "b", "c"], docs, links)

    def test_numpy_integers_accepted(self):
        c = Corpus(["a", "b", "c"], [[(np.int64(0), np.int32(2))], [(1, 1)], [(2, 1)]],
                   links=[(np.uint8(2), np.int64(0))])
        np.testing.assert_array_equal(c.counts, [2, 1, 1])
        assert c.link_set() == {(0, 2)}

    @pytest.mark.parametrize("doc_ids, message", [
        ([2.7, 0], "document id 2.7 is not an integer"),
        (["1"], "document id '1' is not an integer"),
        ([np.float64(1.0)], f"document id {np.float64(1.0)!r} is not an integer"),
        ([0, -1], "document id -1 out of range [0, 3)"),
        ([3], "document id 3 out of range [0, 3)")])
    def test_subcorpus(self, doc_ids, message):
        c = Corpus(["a", "b", "c"], [[(0, 1)], [(1, 1)], [(2, 1)]], links=[(0, 2)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            subcorpus(c, doc_ids)


class TestFolds:
    def test_balanced_sizes(self):
        c = Corpus(["a"], [[(0, 1)]] * 10)
        plan = split_folds(c, 5, seed=1)
        sizes = [int((plan.assignments == f).sum()) for f in range(5)]
        assert sizes == [2] * 5

    def test_deterministic(self):
        c = Corpus(["a"], [[(0, 1)]] * 11)
        a = split_folds(c, 3, seed=9)
        b = split_folds(c, 3, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_partition_exact(self):
        c = Corpus(["a"], [[(0, 1)]] * 13)
        plan = split_folds(c, 4, seed=2)
        covered = np.concatenate([plan.test_docs(f) for f in range(4)])
        assert sorted(covered.tolist()) == list(range(13))
        sizes = [plan.test_docs(f).size for f in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_out_of_range(self):
        c = Corpus(["a"], [[(0, 1)]] * 5)
        with pytest.raises(ValueError):
            split_folds(c, 6, seed=0)
        with pytest.raises(ValueError):
            split_folds(c, 1, seed=0)


class TestSynthetic:
    def test_degenerate_dirichlet_modal_term(self):
        # alpha concentrated on topic 1 and one-hot topics (block topics with
        # one term each): every document's modal term is topic 1's single term
        corpus, truth = generate_synthetic(
            3, 3, 20, 30, alpha=np.array([1e-6, 1e6, 1e-6]),
            eta=np.zeros(3), nu=-1.0, link_fn="exponential", seed=4)
        np.testing.assert_array_equal(truth.beta, np.eye(3))
        for terms, counts in map(corpus.doc, range(corpus.num_docs)):
            assert terms[np.argmax(counts)] == 1

    def test_sigmoid_saturation_gives_complete_graph(self):
        corpus, _ = generate_synthetic(
            2, 4, 6, 5, alpha=np.array([0.5, 0.5]), eta=np.zeros(2), nu=60.0,
            link_fn="sigmoid", seed=0)
        assert corpus.num_links == 6 * 5 // 2

    def test_deterministic_given_seed(self, tmp_path):
        out = []
        for run in range(2):
            corpus, _ = generate_synthetic(
                2, 6, 12, 10, alpha=np.array([0.5, 0.5]),
                eta=np.array([-0.5, -0.5]), nu=-1.0, link_fn="exponential", seed=77)
            d = tmp_path / f"d{run}.txt"
            v = tmp_path / f"v{run}.txt"
            l = tmp_path / f"l{run}.txt"
            write_corpus(corpus, str(d), str(v), str(l))
            out.append(d.read_bytes() + v.read_bytes() + l.read_bytes())
        assert out[0] == out[1]

    def test_inadmissible_params_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            generate_synthetic(2, 4, 5, 5, alpha=np.array([0.5, 0.5]),
                               eta=np.array([1.0, 1.0]), nu=0.5,
                               link_fn="exponential", seed=0)

    def test_truth_shapes_and_normalization(self):
        corpus, truth = generate_synthetic(
            3, 9, 15, 20, alpha=np.full(3, 1 / 3), eta=np.full(3, -1.0),
            nu=-0.5, link_fn="exponential", seed=8)
        np.testing.assert_allclose(truth.beta.sum(axis=1), 1.0)
        np.testing.assert_allclose(truth.theta.sum(axis=1), 1.0)
        np.testing.assert_allclose(truth.zbar.sum(axis=1), 1.0)
        assert corpus.num_docs == 15
        assert all(n == 20 for n in corpus.lengths)

    def test_linkage_rate_matches_probability(self):
        # one topic, so every one of the 1035 pairs has the same mean vectors
        # [1] and links with probability exp(-0.4 - 0.6): the empirical link
        # frequency must sit within 3 standard errors of it
        corpus, truth = generate_synthetic(1, 5, 46, 10, alpha=np.ones(1),
                                           eta=np.array([-0.4]), nu=-0.6,
                                           link_fn="exponential", seed=13)
        np.testing.assert_array_equal(truth.zbar, 1.0)
        (p,) = link_probability(truth.link_params, [1.0], [1.0])
        np.testing.assert_allclose(p, np.exp(-1.0), rtol=1e-15)
        pairs = 46 * 45 // 2
        freq = corpus.num_links / pairs
        se = np.sqrt(p * (1 - p) / pairs)
        assert abs(freq - p) <= 3 * se

    @pytest.mark.parametrize("kind, eta, nu", [
        ("sigmoid", 3.0, -3.0), ("exponential", 2.5, -2.5), ("probit", 3.0, -2.0),
        ("gaussian", 4.0, 0.5)])
    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), num_docs=st.integers(1, 30),
           num_topics=st.integers(1, 4))
    def test_batched_draw_matches_per_pair_reference(self, kind, eta, nu, seed,
                                                     num_docs, num_topics):
        # the reference replays the sampler and then scores and draws pair by
        # pair, with each kind's formula written out
        alpha = np.full(num_topics, 0.5)
        corpus, truth = generate_synthetic(num_topics, 12, num_docs, 8, alpha,
                                           np.full(num_topics, eta), nu, kind, seed)
        rng = np.random.default_rng(seed)
        theta = rng.dirichlet(alpha, size=num_docs)
        zbar = np.empty((num_docs, num_topics))
        for d in range(num_docs):
            topic_counts = rng.multinomial(8, theta[d])
            zbar[d] = topic_counts / 8
            for k in np.flatnonzero(topic_counts):
                rng.multinomial(topic_counts[k], truth.beta[k])
        np.testing.assert_array_equal(zbar, truth.zbar)

        def formula(a, b):
            if kind == "gaussian":
                return math.exp(-truth.link_params.eta @ ((a - b) ** 2) - nu)
            x = truth.link_params.eta @ (a * b) + nu
            if kind == "sigmoid":
                return 1.0 / (1.0 + math.exp(-x))
            if kind == "probit":
                return 0.5 * math.erfc(-x / math.sqrt(2.0))
            return math.exp(x)

        left, right = np.triu_indices(num_docs, k=1)
        reference = np.array([formula(zbar[a], zbar[b]) for a, b in zip(left, right)])
        linked = rng.random(reference.shape[0]) < reference
        assert corpus.link_set() == {(int(a), int(b))
                                     for a, b in zip(left[linked], right[linked])}
        np.testing.assert_allclose(
            link_probability(truth.link_params, zbar[left], zbar[right]), reference,
            rtol=1e-13, atol=0)

    def test_block_topics(self):
        beta = block_topics(2, 6)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0)
        assert (beta[0, 3:] == 0).all() and (beta[1, :3] == 0).all()
