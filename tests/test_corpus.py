"""Tests for corpus loading, folds, and the synthetic sampler."""

import numpy as np
import pytest

from rtm import corpus as corpus_mod
from rtm.corpus import (Corpus, CorpusFormatError, block_topics, drop_isolated_docs,
                        generate_synthetic, load_corpus, sample_pair_links,
                        split_folds, subcorpus, training_view, write_corpus)
from rtm.linkfn import LinkParams, link_probability


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
        np.testing.assert_array_equal(c.doc_counts[0], [3, 1])

    def test_arrays_are_read_only(self):
        c = Corpus(["a", "b"], [[(0, 1), (1, 2)], [(1, 1)]], links=[(0, 1)])
        for array in (c.links, c.lengths, c.doc_terms[0], c.doc_counts[1],
                      c.neighbors[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5

    def test_isolated_warning_and_drop(self, tmp_path, caplog):
        docs, vocab, links = write_files(
            tmp_path, "1 0:1\n1 1:1\n1 0:2\n", "a\nb\n", "0 1\n")
        with caplog.at_level("WARNING"):
            c = load_corpus(docs, vocab, links)
        assert "no links" in caplog.text
        assert c.num_docs == 3
        dropped = load_corpus(docs, vocab, links, drop_isolated=True)
        assert dropped.num_docs == 2
        assert dropped.link_set() == {(0, 1)}

    def test_blank_vocab_line_inside_keeps_its_id(self, tmp_path):
        # only the trailing blank lines are dropped; ids after an inner
        # blank line keep their line numbers
        docs, vocab, links = write_files(tmp_path, "1 2:1\n", "a\n\nb\n\n", "")
        c = load_corpus(docs, vocab, links)
        assert c.vocab == ["a", "", "b"]
        np.testing.assert_array_equal(c.doc_terms[0], [2])

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
        for d in range(original.num_docs):
            np.testing.assert_array_equal(loaded.doc_terms[d], original.doc_terms[d])
            np.testing.assert_array_equal(loaded.doc_counts[d], original.doc_counts[d])


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
        np.testing.assert_array_equal(sub.doc_counts[0], [3])


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
        # alpha concentrated on topic 1 and one-hot topics: every document's
        # modal term is topic 1's single term
        beta = np.eye(3)
        corpus, truth = generate_synthetic(
            3, 3, 20, 30, alpha=np.array([1e-6, 1e6, 1e-6]),
            eta=np.zeros(3), nu=-1.0, link_fn="exponential", seed=4, beta=beta)
        for terms, counts in zip(corpus.doc_terms, corpus.doc_counts):
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
        # resample one fixed pair many times: the empirical link frequency
        # must sit within 3 standard errors of the link probability
        rng = np.random.default_rng(13)
        z1 = np.array([0.7, 0.2, 0.1])
        z2 = np.array([0.5, 0.4, 0.1])
        params = LinkParams(eta=np.array([-0.2, -0.4, -0.1]), nu=-0.6,
                            kind="exponential")
        p = link_probability(params, z1, z2)
        draws = 1000
        hits = sample_pair_links(np.tile(z1, (draws, 1)), np.tile(z2, (draws, 1)),
                                 params, rng)
        freq = hits.mean()
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(freq - p) <= 3 * se

    def test_block_topics(self):
        beta = block_topics(2, 6)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0)
        assert (beta[0, 3:] == 0).all() and (beta[1, :3] == 0).all()
